//! Durable-checkpoint acceptance: the coordinator is killed mid-append of
//! a checkpoint commit (a seeded byte offset inside the record), and a
//! cold restart over the same on-disk log must recover the last
//! *committed* snapshot and finish with a loss history **bitwise
//! identical** to an uninterrupted run — the restored prefix comes back
//! from commit metadata, the replayed suffix from the deterministic SGD
//! worker path.

use pac_net::{
    run_world, DistConfig, DistError, RankLoss, SimConfig, SimNet, SimSpawner, Spawn, SpawnedWorld,
    TenantJob, WorldReport,
};
use pac_parallel::engine::MicroBatch;
use pac_parallel::{Fault, FaultPlan};
use pac_store::{DiskStore, StoreError};
use pac_tensor::rng::seeded;
use rand::Rng;
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;

const SEED: u64 = 7;
const STEPS: usize = 6;
const MICROS: usize = 2;
const ROWS_PER_MICRO: usize = 4;
const SEQ: usize = 6;

fn make_batches() -> Vec<Vec<MicroBatch>> {
    let mut rng = seeded(SEED ^ 0xda7a_5eed);
    (0..STEPS)
        .map(|_| {
            (0..MICROS)
                .map(|_| {
                    let rows: Vec<Vec<usize>> = (0..ROWS_PER_MICRO)
                        .map(|_| (0..SEQ).map(|_| rng.gen_range(0..64usize)).collect())
                        .collect();
                    let labels: Vec<usize> = (0..ROWS_PER_MICRO)
                        .map(|_| rng.gen_range(0..2usize))
                        .collect();
                    (rows, labels)
                })
                .collect()
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pac-net-durable-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One world, optionally persisting through `store`; the job owns the
/// store and drops it with the run, so the caller reopens the log.
fn durable_run(
    sim_seed: u64,
    cfg: DistConfig,
    batches: &[Vec<MicroBatch>],
    faults: &FaultPlan,
    store: Option<DiskStore>,
) -> (Result<WorldReport, DistError>, SimNet) {
    let net = SimNet::new(SimConfig::clean(sim_seed));
    let _coord = net.register(0);
    let spawner = SimSpawner::new(net.clone());
    let job = TenantJob {
        faults: faults.clone(),
        store: store.map(|s| Box::new(s) as _),
        on_rank_loss: RankLoss::Shrink,
        ..TenantJob::new(0, cfg, batches.to_vec())
    };
    (run_world(&spawner, job), net)
}

/// Kill the checkpoint writer 17 bytes into a commit append (both at the
/// first periodic checkpoint and a later one), cold-restart over the same
/// log, and demand the full loss trajectory bitwise-matches the
/// uninterrupted reference.
#[test]
fn crash_mid_checkpoint_cold_restart_is_bitwise() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();

    // Uninterrupted reference with no store at all.
    let (reference, net) = durable_run(61, cfg.clone(), &batches, &FaultPlan::none(), None);
    let reference = reference.expect("reference run");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
    assert_eq!(reference.losses.len(), batches.len());

    // The 0-based step clock with `checkpoint_every = 2` commits at steps
    // 1, 3, 5 (step cursors 2, 4): tear the first periodic commit and a
    // later one.
    for crash_step in [1u64, 3] {
        let dir = tmp_dir(&format!("bitwise-{crash_step}"));
        let faults = FaultPlan::none().with(Fault::Crash {
            step: crash_step,
            at_byte: 17,
        });

        // The writer dies mid-append: the job halts with the typed
        // injected-crash error and the torn tail stays on disk.
        {
            let (store, _) = DiskStore::open(&dir).expect("fresh store");
            let (out, net) = durable_run(62, cfg.clone(), &batches, &faults, Some(store));
            match out {
                Err(DistError::Store(StoreError::Injected { at_byte })) => {
                    assert_eq!(at_byte, 17)
                }
                other => panic!("[step {crash_step}] expected injected crash, got {other:?}"),
            }
            assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
        }

        // Cold restart: recovery truncates the torn tail, the run resumes
        // from the last committed cursor, and the trajectory is bitwise.
        let (store, report) = DiskStore::open(&dir).expect("recovery open");
        assert!(
            report.truncated_bytes > 0,
            "[step {crash_step}] the torn append leaves a tail to truncate"
        );
        assert!(report.commits >= 1, "the initial commit is durable");
        let (resumed, net) =
            durable_run(63, cfg.clone(), &batches, &FaultPlan::none(), Some(store));
        let resumed = resumed.expect("resumed run completes");
        assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

        assert_eq!(resumed.losses.len(), reference.losses.len());
        for (t, (r, c)) in reference
            .losses
            .iter()
            .zip(resumed.losses.iter())
            .enumerate()
        {
            assert_eq!(
                r.to_bits(),
                c.to_bits(),
                "[step {crash_step}] loss at cursor {t} diverged: {r} vs {c}"
            );
        }
        for ((name_r, t_r), (name_c, t_c)) in reference
            .final_params
            .iter()
            .zip(resumed.final_params.iter())
        {
            assert_eq!(name_r, name_c);
            let (dr, dc) = (t_r.data(), t_c.data());
            assert_eq!(dr.len(), dc.len());
            for (a, b) in dr.iter().zip(dc.iter()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "[step {crash_step}] {name_r} diverged after cold restart"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}

/// A crash armed at a step with no checkpoint never fires — the run
/// completes and the armed budget dies with the fault plan, mirroring
/// fail-stop faults aimed at already-departed devices.
#[test]
fn crash_on_non_checkpoint_step_is_inert() {
    let cfg = DistConfig::loopback(2, 1);
    let batches = make_batches();
    let dir = tmp_dir("inert");
    // checkpoint_every = 2 commits at odd steps only (cursors 2, 4).
    let faults = FaultPlan::none().with(Fault::Crash {
        step: 2,
        at_byte: 0,
    });
    let (store, _) = DiskStore::open(&dir).expect("fresh store");
    let (out, net) = durable_run(64, cfg, &batches, &faults, Some(store));
    let report = out.expect("crash without a commit to tear is inert");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
    assert_eq!(report.losses.len(), batches.len());
    fs::remove_dir_all(&dir).ok();
}

/// Counts the worlds the coordinator launches.
struct CountingSpawner {
    inner: SimSpawner,
    launches: Cell<usize>,
}

impl Spawn for CountingSpawner {
    type T = <SimSpawner as Spawn>::T;

    fn transport(&self) -> Self::T {
        self.inner.transport()
    }

    fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld> {
        self.launches.set(self.launches.get() + 1);
        self.inner.launch(coord_port, world)
    }
}

/// A cold restart over a log written by a job of another shape (hidden
/// 16 → 32) is refused at admission with a typed error under either
/// rank-loss policy: no world is launched, so no worker can panic on a
/// misfit tensor and nothing is recovered.
#[test]
fn snapshot_that_does_not_fit_the_job_is_refused_before_any_spawn() {
    let batches = make_batches();
    for policy in [RankLoss::Respawn, RankLoss::Shrink] {
        let dir = tmp_dir(&format!("misfit-{policy:?}"));
        {
            let (store, _) = DiskStore::open(&dir).expect("fresh store");
            let (out, _) = durable_run(
                65,
                DistConfig::loopback(2, 2),
                &batches,
                &FaultPlan::none(),
                Some(store),
            );
            out.expect("the run that writes the log");
        }
        let (store, report) = DiskStore::open(&dir).expect("reopen");
        assert!(report.commits >= 1, "the first run committed snapshots");

        let mut wide = DistConfig::loopback(2, 2);
        wide.hidden = 32;
        let net = SimNet::new(SimConfig::clean(66));
        let _coord = net.register(0);
        let spawner = CountingSpawner {
            inner: SimSpawner::new(net.clone()),
            launches: Cell::new(0),
        };
        let job = TenantJob {
            store: Some(Box::new(store)),
            on_rank_loss: policy,
            ..TenantJob::new(0, wide, batches.clone())
        };
        match run_world(&spawner, job) {
            Err(DistError::InvalidJob { tenant: 0, reason }) => assert!(
                reason.contains("does not fit") && reason.contains("[64, 32]"),
                "[{policy:?}] {reason}"
            ),
            other => panic!("[{policy:?}] expected a typed refusal, got {other:?}"),
        }
        assert_eq!(
            spawner.launches.get(),
            0,
            "[{policy:?}] a world was launched"
        );
        assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
        fs::remove_dir_all(&dir).ok();
    }
}
