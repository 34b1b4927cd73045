//! # simsweep — seeded adversarial schedule sweeps over the simulated net
//!
//! FoundationDB-style deterministic simulation testing for the distributed
//! runtime: every seed builds a fresh in-memory world ([`pac_net::SimNet`])
//! and runs the full coordinator/worker stack — the *same* code
//! paths production runs over TCP — under a seeded adversary, checking
//! invariants that must hold in every schedule:
//!
//! * **A (clean equivalence)** — on a clean (delay/fragment only) world the
//!   loss trajectory and final adapter parameters are *bitwise identical*
//!   to the in-process `HybridEngine`, across a rotation of world shapes.
//! * **B (fail-stop recovery)** — crashing a worker mid-run still yields a
//!   full-length loss trajectory, exactly one replan, and a final loss
//!   close to the clean run's.
//! * **C (chaos determinism)** — under drop/duplicate/corrupt/reorder the
//!   run either succeeds or fails with a *typed* error (never a panic,
//!   never a hang past the virtual-time horizon), and running the same
//!   seed twice produces a byte-identical event trace.
//! * **D (elastic churn)** — a lane leaves (fail-stop or a partition that
//!   silences it until the heartbeat sweep flags it stale) and a fresh
//!   device joins mid-run: the run must recover a full-length loss
//!   trajectory with exactly one replan per membership change, end close
//!   to the fault-free loss, and stay byte-identical across two runs of
//!   the same seed. `--churn` runs this phase alone.
//! * **E (durable crash-recovery)** — the checkpoint writer is killed a
//!   seeded number of bytes into a commit append (aimed *inside* the
//!   record using byte extents from a calibration run), the coordinator
//!   dies with the typed store error, and a cold restart over the same
//!   on-disk log must recover the last committed snapshot and finish with
//!   losses and parameters *bitwise identical* to the clean reference.
//!   `--durable` runs this phase alone.
//! * **F (multi-world chaos)** — the coordinator multiplexes 2–3 tenant
//!   worlds ([`pac_net::run_multiworld`]) with staggered admissions and
//!   either a seeded rank death in one world (respawned in place) or, on
//!   a share of seeds, one shrink-policy tenant living through phase D's
//!   churn (a leave, then a join wave) beside clean siblings. Every
//!   tenant's losses and final parameters must be *bitwise identical* to
//!   its own one-job run, the whole multi-world schedule must be
//!   byte-identical on re-run, and each world's recovery log must name
//!   only its own ranks. The tenants' solo references differ pairwise in
//!   their first loss and in their final parameters, so a world that ran
//!   on another tenant's state could not pass the bitwise check by
//!   coincidence. `--multiworld` runs this phase alone.
//!
//! A failing seed is reported with its event trace dumped to
//! `simsweep-trace-seed-<K>-<phase>.txt` (one file per phase, never
//! overwritten by a later phase of the same seed) and is reproducible
//! from `--seed=K` alone — no schedule, no timing, no environment needed.
//!
//! `--planted` runs the harness self-tests: a worker buggified to apply
//! its local gradient *before* the AllReduce and a joiner buggified to
//! skip its catch-up `Restore` must both be caught (divergence from the
//! reference run) within the seed budget.

#![deny(missing_docs)]

use pac_model::{EncoderModel, ModelConfig};
use pac_net::{
    run_multiworld, run_world, Buggify, DistConfig, DistError, Partition, RankLoss, SimConfig,
    SimNet, SimSpawner, TenantJob, WorldReport,
};
use pac_nn::optim::Sgd;
use pac_nn::Optimizer;
use pac_parallel::engine::{HybridEngine, MicroBatch};
use pac_parallel::{Fault, FaultPlan, Schedule};
use pac_store::{Committed, DiskStore, Store, StoreError};
use pac_tensor::rng::seeded;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

const SEED: u64 = 7;
const STEPS: usize = 6;
const MICROS: usize = 2;
const ROWS_PER_MICRO: usize = 4;
const SEQ: usize = 6;

/// World shapes phase A rotates through, `(stages, lanes)`.
const SHAPES: [(usize, usize); 3] = [(2, 2), (2, 1), (3, 2)];

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

/// In-process reference: losses + canonical params for a shape.
fn inprocess_run(cfg: &DistConfig, batches: &[Vec<MicroBatch>]) -> Reference {
    let model_cfg = ModelConfig::micro(cfg.enc_layers, 0, cfg.hidden, cfg.heads);
    let model = EncoderModel::new(&model_cfg, cfg.n_out, &mut seeded(cfg.seed));
    let stages = model.partition(&cfg.partition).expect("partition");
    let mut engine = HybridEngine::new(stages, cfg.lanes, Schedule::OneFOneB);
    let mut opts: Vec<Box<dyn Optimizer>> = (0..cfg.lanes)
        .map(|_| Box::new(Sgd::new(cfg.lr)) as Box<dyn Optimizer>)
        .collect();
    let mut losses = Vec::new();
    for batch in batches {
        engine.zero_grads();
        losses.push(engine.run_mini_batch(batch).expect("in-process step"));
        engine.step(&mut opts);
    }
    Reference {
        losses,
        params: engine.canonical_params(),
    }
}

struct Reference {
    losses: Vec<f32>,
    params: Vec<(String, pac_tensor::Tensor)>,
}

/// The one-world job phases A–E run: it shrinks when it loses a rank.
fn elastic_job(cfg: DistConfig, batches: &[Vec<MicroBatch>], faults: &FaultPlan) -> TenantJob {
    TenantJob {
        faults: faults.clone(),
        on_rank_loss: RankLoss::Shrink,
        ..TenantJob::new(0, cfg, batches.to_vec())
    }
}

/// One full distributed job inside one simulated world.
fn sim_run(
    sim_cfg: SimConfig,
    dist_cfg: DistConfig,
    batches: &[Vec<MicroBatch>],
    faults: &FaultPlan,
    buggify: Buggify,
) -> (Result<WorldReport, DistError>, SimNet) {
    let net = SimNet::new(sim_cfg);
    let _coord = net.register(0);
    let spawner = SimSpawner::with_buggify(net.clone(), buggify);
    let report = run_world(&spawner, elastic_job(dist_cfg, batches, faults));
    (report, net)
}

/// World-level invariants every run must satisfy regardless of outcome.
fn check_world(net: &SimNet, what: &str) -> Result<(), String> {
    let panics = net.panics();
    if !panics.is_empty() {
        return Err(format!("{what}: worker panicked: {panics:?}"));
    }
    Ok(())
}

fn bitwise_check(report: &WorldReport, reference: &Reference, what: &str) -> Result<(), String> {
    bitwise_check_parts(&report.losses, &report.final_params, reference, what)
}

fn bitwise_check_parts(
    losses: &[f32],
    final_params: &[(String, pac_tensor::Tensor)],
    reference: &Reference,
    what: &str,
) -> Result<(), String> {
    if losses.len() != reference.losses.len() {
        return Err(format!(
            "{what}: loss trajectory truncated: {} vs {}",
            losses.len(),
            reference.losses.len()
        ));
    }
    for (t, (d, r)) in losses.iter().zip(reference.losses.iter()).enumerate() {
        if d.to_bits() != r.to_bits() {
            return Err(format!(
                "{what}: loss diverged at step {t}: sim {d} vs ref {r}"
            ));
        }
    }
    if final_params.len() != reference.params.len() {
        return Err(format!("{what}: param set mismatch"));
    }
    for ((dn, dt), (rn, rt)) in final_params.iter().zip(reference.params.iter()) {
        if dn != rn {
            return Err(format!("{what}: param order mismatch: {dn} vs {rn}"));
        }
        for (a, b) in dt.data().iter().zip(rt.data().iter()) {
            if a.to_bits() != b.to_bits() {
                return Err(format!("{what}: param {dn} bits diverged"));
            }
        }
    }
    Ok(())
}

/// Phase A: clean world, rotated shape, bitwise equivalence.
fn phase_a(
    seed: u64,
    batches: &[Vec<MicroBatch>],
    refs: &HashMap<(usize, usize), Reference>,
) -> Result<(), (String, SimNet)> {
    let shape = SHAPES[(seed % SHAPES.len() as u64) as usize];
    let cfg = DistConfig::loopback(shape.0, shape.1);
    let (report, net) = sim_run(
        SimConfig::clean(seed),
        cfg,
        batches,
        &FaultPlan::none(),
        Buggify::default(),
    );
    let what = format!("A[{}x{}]", shape.0, shape.1);
    if let Err(e) = check_world(&net, &what) {
        return Err((e, net));
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => return Err((format!("{what}: clean run failed: {e}"), net)),
    };
    if let Err(e) = bitwise_check(&report, &refs[&shape], &what) {
        return Err((e, net));
    }
    Ok(())
}

/// Phase B: crash a worker halfway through its seed's own clean timeline;
/// the run must recover with a full loss history and exactly one replan.
fn phase_b(seed: u64, batches: &[Vec<MicroBatch>]) -> Result<(), (String, SimNet)> {
    let cfg = DistConfig::loopback(2, 2);
    let (clean, net) = sim_run(
        SimConfig::clean(seed),
        cfg.clone(),
        batches,
        &FaultPlan::none(),
        Buggify::default(),
    );
    let t_end = net.now_ns();
    let clean = match clean {
        Ok(r) => r,
        Err(e) => return Err((format!("B: calibration run failed: {e}"), net)),
    };

    let mut sim_cfg = SimConfig::clean(seed);
    sim_cfg.crashes.push((t_end / 2, 2)); // stage 0, lane 1
    let (faulty, net) = sim_run(
        sim_cfg,
        cfg,
        batches,
        &FaultPlan::none(),
        Buggify::default(),
    );
    if let Err(e) = check_world(&net, "B") {
        return Err((e, net));
    }
    let faulty = match faulty {
        Ok(r) => r,
        Err(e) => return Err((format!("B: crashed run did not recover: {e}"), net)),
    };
    if faulty.losses.len() != batches.len() {
        return Err((
            format!(
                "B: truncated loss history after recovery: {}",
                faulty.losses.len()
            ),
            net,
        ));
    }
    if faulty.recovery.replans != 1 || faulty.final_lanes != 1 {
        return Err((
            format!(
                "B: expected 1 replan / 1 lane, got {} / {}",
                faulty.recovery.replans, faulty.final_lanes
            ),
            net,
        ));
    }
    let (a, b) = (
        *clean.losses.last().unwrap(),
        *faulty.losses.last().unwrap(),
    );
    if !a.is_finite() || !b.is_finite() || (a - b).abs() >= 0.5 {
        return Err((format!("B: recovered training drifted: {a} vs {b}"), net));
    }
    Ok(())
}

/// Phase C: chaos world, run twice; typed outcome, no panics, and a
/// byte-identical trace — the determinism the whole harness rests on.
fn phase_c(seed: u64, batches: &[Vec<MicroBatch>]) -> Result<(), (String, SimNet)> {
    let cfg = DistConfig::loopback(2, 2);
    let run = || {
        sim_run(
            SimConfig::chaos(seed),
            cfg.clone(),
            batches,
            &FaultPlan::none(),
            Buggify::default(),
        )
    };
    let (out_a, net_a) = run();
    if let Err(e) = check_world(&net_a, "C") {
        return Err((e, net_a));
    }
    // Either outcome is legal under chaos; what is illegal is a panic
    // (checked above) or a hang (the virtual horizon turns those into
    // typed Deadlock errors, surfaced through `out_a` as Err).
    let summary_a = match &out_a {
        Ok(r) => format!("ok losses={}", r.losses.len()),
        Err(e) => format!("err {e}"),
    };
    let (out_b, net_b) = run();
    let summary_b = match &out_b {
        Ok(r) => format!("ok losses={}", r.losses.len()),
        Err(e) => format!("err {e}"),
    };
    if summary_a != summary_b {
        return Err((
            format!("C: same seed, different outcome: '{summary_a}' vs '{summary_b}'"),
            net_b,
        ));
    }
    let (ta, tb) = (net_a.trace_lines(), net_b.trace_lines());
    if ta != tb {
        let first = ta
            .iter()
            .zip(tb.iter())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| ta.len().min(tb.len()));
        return Err((
            format!(
                "C: trace not a pure function of the seed (lines {} vs {}, first divergence at {first}: '{}' vs '{}')",
                ta.len(),
                tb.len(),
                ta.get(first).map(String::as_str).unwrap_or("<end>"),
                tb.get(first).map(String::as_str).unwrap_or("<end>"),
            ),
            net_b,
        ));
    }
    if net_a.now_ns() != net_b.now_ns() {
        return Err((
            format!(
                "C: end times differ: {} vs {}",
                net_a.now_ns(),
                net_b.now_ns()
            ),
            net_b,
        ));
    }
    Ok(())
}

/// The elastic fault plan phase D injects for a seed: a lane leaves (by
/// fail-stop) and a fresh device joins two steps later.
fn churn_plan(seed: u64) -> FaultPlan {
    let leave = 1 + (seed % 2);
    FaultPlan {
        faults: vec![
            Fault::FailStop {
                step: leave,
                device: 1, // stage 0, lane 1
            },
            Fault::Join { step: leave + 2 },
        ],
    }
}

/// Phase D: elastic churn — leave + join mid-run, twice, byte-identical.
///
/// Two variants by seed: most seeds fail-stop lane 1 and join a fresh
/// device two steps later; every third seed instead joins early and then
/// *partitions* one of the grown world's ranks from the coordinator, so
/// the leave is detected by silence — whichever control- or data-plane
/// deadline the seed's schedule hits first. Either way: full-length
/// replan per membership change, a final loss close to the fault-free
/// reference, and a trace that is a pure function of the seed.
fn phase_d(
    seed: u64,
    batches: &[Vec<MicroBatch>],
    reference: &Reference,
) -> Result<(), (String, SimNet)> {
    let mut cfg = DistConfig::loopback(2, 2);
    cfg.rebalance = true;
    let partition_variant = seed.is_multiple_of(3);

    let (plan, sim_cfg) = if partition_variant {
        let plan = FaultPlan {
            faults: vec![Fault::Join { step: 1 }],
        };
        // Calibrate total virtual runtime on a partition-free run of the
        // *same elastic schedule*, then silence one post-join rank from
        // three quarters in — late enough that the post-join world's
        // setup handshake is long finished, so only trained-steps traffic
        // can be cut. Actor ids are deterministic: the post-join restart
        // is the second launch (generation 1), so its first worker is
        // actor 64+1 = 65.
        let (calib, net) = sim_run(
            SimConfig::clean(seed),
            cfg.clone(),
            batches,
            &plan,
            Buggify::default(),
        );
        let t_end = net.now_ns();
        if let Err(e) = calib {
            return Err((format!("D: calibration run failed: {e}"), net));
        }
        let mut sim_cfg = SimConfig::clean(seed);
        sim_cfg.partitions.push(Partition {
            a: 0,
            b: pac_net::simnet::WORKERS_PER_GEN + 1,
            from_ns: t_end / 4 * 3,
            to_ns: u64::MAX,
        });
        (plan, sim_cfg)
    } else {
        (churn_plan(seed), SimConfig::clean(seed))
    };

    let run = || {
        sim_run(
            sim_cfg.clone(),
            cfg.clone(),
            batches,
            &plan,
            Buggify::default(),
        )
    };
    let (out_a, net_a) = run();
    if let Err(e) = check_world(&net_a, "D") {
        return Err((e, net_a));
    }
    let report = match &out_a {
        Ok(r) => r,
        Err(e) => return Err((format!("D: churn run did not recover: {e}"), net_a)),
    };
    if report.losses.len() != batches.len() {
        return Err((
            format!(
                "D: truncated loss history after churn: {}",
                report.losses.len()
            ),
            net_a,
        ));
    }
    // One membership change = one replan: a join and a leave each funnel
    // through the planner exactly once.
    if report.recovery.replans != 2 || report.final_lanes != 2 {
        return Err((
            format!(
                "D: expected 2 replans / 2 final lanes, got {} / {}",
                report.recovery.replans, report.final_lanes
            ),
            net_a,
        ));
    }
    let events = &report.recovery.timeline;
    let joined = events
        .iter()
        .any(|e| e.kind == pac_parallel::TimelineKind::Join && e.detail.contains("admitted"));
    let resumed = events
        .iter()
        .any(|e| e.kind == pac_parallel::TimelineKind::Resume);
    if !joined || !resumed {
        return Err((
            format!("D: timeline missing join/resume (join={joined}, resume={resumed})"),
            net_a,
        ));
    }
    if partition_variant {
        // No fail-stop is injected in this variant, so the one leave in
        // the timeline is necessarily the partitioned rank being evicted
        // for silence. *Which* deadline trips first is seed-dependent —
        // a stale liveness probe, a missing step verdict, a failed
        // dispatch or snapshot fetch against the closed socket, or a
        // data-plane peer blaming the silent rank — but every leave
        // replan renders as "rank R down (...)".
        let silent_leave = events
            .iter()
            .any(|e| e.kind == pac_parallel::TimelineKind::Replan && e.detail.contains("down ("));
        if !silent_leave {
            return Err((
                "D: partitioned rank was not evicted for silence".to_string(),
                net_a,
            ));
        }
    }
    let (a, b) = (
        *report.losses.last().unwrap(),
        *reference.losses.last().unwrap(),
    );
    if !a.is_finite() || !b.is_finite() || (a - b).abs() >= 0.5 {
        return Err((
            format!("D: churned training drifted: {a} vs ref {b}"),
            net_a,
        ));
    }

    // Determinism: the elastic schedule must be a pure function of the seed.
    let summary_a = format!(
        "ok losses={} replans={} lanes={}",
        report.losses.len(),
        report.recovery.replans,
        report.final_lanes
    );
    let (out_b, net_b) = run();
    let summary_b = match &out_b {
        Ok(r) => format!(
            "ok losses={} replans={} lanes={}",
            r.losses.len(),
            r.recovery.replans,
            r.final_lanes
        ),
        Err(e) => format!("err {e}"),
    };
    if summary_a != summary_b {
        return Err((
            format!("D: same seed, different outcome: '{summary_a}' vs '{summary_b}'"),
            net_b,
        ));
    }
    if net_a.trace_lines() != net_b.trace_lines() || net_a.now_ns() != net_b.now_ns() {
        return Err((
            "D: elastic trace is not a pure function of the seed".to_string(),
            net_b,
        ));
    }
    Ok(())
}

/// A [`DiskStore`] the sweep keeps a handle on while a job owns it, so the
/// calibration run can read each commit's byte extent back afterwards.
struct SharedStore(Rc<RefCell<DiskStore>>);

impl Store for SharedStore {
    fn commit(&mut self, payload: &[u8], meta: &[u8]) -> Result<u64, StoreError> {
        self.0.borrow_mut().commit(payload, meta)
    }
    fn latest(&self) -> Result<Option<Committed>, StoreError> {
        self.0.borrow().latest()
    }
    fn committed(&self, seq: u64) -> Result<Option<Committed>, StoreError> {
        self.0.borrow().committed(seq)
    }
    fn commits(&self) -> u64 {
        self.0.borrow().commits()
    }
    fn arm_crash(&mut self, at_byte: u64) {
        self.0.borrow_mut().arm_crash(at_byte);
    }
}

/// Phase E: durable crash-recovery. A calibration run over a real
/// [`DiskStore`] records how many bytes each checkpoint commit appends;
/// the seed then aims a `crash@step,at-byte` fault *inside* one of the
/// periodic commits (steps 1 or 3 on the 0-based clock — `checkpoint_every
/// = 2` commits at step cursors 2 and 4). The crashed coordinator must die
/// with the typed [`StoreError::Injected`], reopening the log must recover
/// at least the initial commit, and a cold restart must finish with losses
/// and parameters bitwise identical to the in-process reference. The log
/// directory lives under `out_dir` and is removed on success, kept as
/// evidence on failure.
fn phase_e(
    seed: u64,
    batches: &[Vec<MicroBatch>],
    reference: &Reference,
    out_dir: &Path,
) -> Result<(), (String, SimNet)> {
    let cfg = DistConfig::loopback(2, 2);
    let dir = out_dir.join(format!("simsweep-durable-seed-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    // Store failures before any world exists are reported against an empty
    // net: the evidence is the on-disk log, not a schedule.
    let empty_net = || SimNet::new(SimConfig::clean(seed));

    // The job owns its store and drops it with the run; the log is
    // reopened from disk for the next one.
    let durable_run = |sim_seed: u64, faults: &FaultPlan, store: Box<dyn Store>| {
        let net = SimNet::new(SimConfig::clean(sim_seed));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let mut job = elastic_job(cfg.clone(), batches, faults);
        job.store = Some(store);
        (run_world(&spawner, job), net)
    };

    // Calibrate: run the same job clean over a throwaway log and read back
    // the byte extent of every commit append.
    let commit_sizes: Vec<u64> = {
        let store = match DiskStore::open(dir.join("calib")) {
            Ok((store, _)) => Rc::new(RefCell::new(store)),
            Err(e) => {
                return Err((
                    format!("E: calibration store open failed: {e}"),
                    empty_net(),
                ))
            }
        };
        let (out, net) = durable_run(
            seed.wrapping_mul(3) + 1,
            &FaultPlan::none(),
            Box::new(SharedStore(store.clone())),
        );
        if let Err(e) = check_world(&net, "E") {
            return Err((e, net));
        }
        if let Err(e) = out {
            return Err((format!("E: calibration run failed: {e}"), net));
        }
        let sizes = store.borrow().commit_sizes().to_vec();
        sizes
    };
    // Initial commit + the periodic commits at step cursors 2 and 4.
    if commit_sizes.len() < 3 {
        return Err((
            format!("E: expected >= 3 commits, got {}", commit_sizes.len()),
            empty_net(),
        ));
    }
    let crash_step = 1 + 2 * (seed % 2); // tears commit index 1 or 2
    let torn_size = commit_sizes[(1 + seed % 2) as usize];
    // At least 1 byte in (0 would leave nothing torn), strictly inside the
    // append (>= size would never fire and the run would finish).
    let at_byte = 1 + (seed / 2) % torn_size.saturating_sub(1).max(1);
    let faults = FaultPlan {
        faults: vec![Fault::Crash {
            step: crash_step,
            at_byte,
        }],
    };

    // The writer dies mid-append with the typed injected-crash error.
    {
        let store = match DiskStore::open(dir.join("log")) {
            Ok((store, _)) => store,
            Err(e) => return Err((format!("E: store open failed: {e}"), empty_net())),
        };
        let (out, net) = durable_run(seed.wrapping_mul(3) + 2, &faults, Box::new(store));
        if let Err(e) = check_world(&net, "E") {
            return Err((e, net));
        }
        match out {
            Err(DistError::Store(StoreError::Injected { at_byte: b })) if b == at_byte => {}
            other => {
                return Err((
                    format!(
                        "E: expected injected crash at byte {at_byte} of step {crash_step}, got {other:?}"
                    ),
                    net,
                ))
            }
        }
    }

    // Cold restart over the same log: recovery keeps every committed
    // snapshot, and the resumed trajectory is bitwise.
    let (store, report) = match DiskStore::open(dir.join("log")) {
        Ok(v) => v,
        Err(e) => return Err((format!("E: recovery open failed: {e}"), empty_net())),
    };
    if report.commits < 1 {
        return Err((
            format!("E: recovery lost the initial commit: {report:?}"),
            empty_net(),
        ));
    }
    let (out, net) = durable_run(
        seed.wrapping_mul(3) + 3,
        &FaultPlan::none(),
        Box::new(store),
    );
    if let Err(e) = check_world(&net, "E") {
        return Err((e, net));
    }
    let resumed = match out {
        Ok(r) => r,
        Err(e) => return Err((format!("E: cold restart did not recover: {e}"), net)),
    };
    if let Err(e) = bitwise_check(&resumed, reference, "E") {
        return Err((format!("{e} (log kept at {})", dir.display()), net));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Tenant world shapes phase F multiplexes, `(stages, lanes)`. Tenant `t`
/// always runs shape `F_SHAPES[t]`, so solo references are computed once
/// per tenant, not per seed.
const F_SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (3, 1)];
/// Steps per tenant in phase F — short enough that a seed sweep multiplexes
/// hundreds of worlds, long enough to cross a checkpoint boundary
/// (`checkpoint_every = 2`) so mid-run recovery has a snapshot to restore.
const F_STEPS: usize = 3;

/// Phase F's per-tenant job config: tenant-distinct model seed so a
/// cross-tenant leak of state can never be bitwise coincidental
/// ([`f_references`] asserts that the references tell tenants apart).
fn f_cfg(t: usize) -> DistConfig {
    let (stages, lanes) = F_SHAPES[t];
    let mut cfg = DistConfig::loopback(stages, lanes);
    cfg.seed = 900 + t as u64;
    cfg
}

/// Phase F's per-tenant data: tenant-distinct batch stream.
fn f_batches(t: usize) -> Vec<Vec<MicroBatch>> {
    let mut rng = seeded(7000 + t as u64);
    (0..F_STEPS)
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

/// The phase F tenant that lives through elastic churn on churn seeds —
/// the one shape with a lane to lose.
const F_CHURN_TENANT: usize = 1;

/// Phase D's churn compressed into phase F's three batches: device 1
/// (stage 0, lane 1) fail-stops on the second dispatch, and a wave of two
/// devices joins before the third.
fn f_churn_plan() -> FaultPlan {
    FaultPlan {
        faults: vec![
            Fault::FailStop { step: 1, device: 1 },
            Fault::Join { step: 2 },
            Fault::Join { step: 2 },
        ],
    }
}

/// Phase F's job for tenant `t`: clean and respawning in place unless the
/// caller states otherwise.
fn f_job(t: usize) -> TenantJob {
    TenantJob::new(t as u64, f_cfg(t), f_batches(t))
}

/// The churn tenant's job: shrink on rank loss, under [`f_churn_plan`].
fn f_churn_job() -> TenantJob {
    TenantJob {
        faults: f_churn_plan(),
        on_rank_loss: RankLoss::Shrink,
        ..f_job(F_CHURN_TENANT)
    }
}

/// One-job runs of every phase F tenant: the trajectories each
/// multi-world tenant must reproduce bitwise.
struct FRefs {
    /// Tenant `t` alone and fault-free. Respawn-in-place recovery is
    /// invariant-preserving (restore + replay lands on the same bits), so
    /// this reference is valid even for seeds that kill a rank mid-run.
    clean: Vec<Reference>,
    /// The churn tenant alone under the same fault plan and policy.
    churn: Reference,
}

fn f_references() -> FRefs {
    let solo = |sim_seed: u64, job: TenantJob| {
        let net = SimNet::new(SimConfig::clean(sim_seed));
        let _coord = net.register(0);
        let report = run_world(&SimSpawner::new(net.clone()), job).expect("phase F solo reference");
        assert!(
            net.panics().is_empty(),
            "phase F solo reference world panicked"
        );
        Reference {
            losses: report.losses,
            params: report.final_params,
        }
    };
    let refs = FRefs {
        clean: (0..F_SHAPES.len())
            .map(|t| solo(9_100 + t as u64, f_job(t)))
            .collect(),
        churn: solo(9_200, f_churn_job()),
    };
    assert_ne!(
        refs.churn.losses, refs.clean[F_CHURN_TENANT].losses,
        "phase F churn plan never changed the membership"
    );
    // Phase F can only see a world trained on another tenant's model or
    // data if no two tenants' references coincide.
    let param_bits = |r: &Reference| -> Vec<(String, Vec<u32>)> {
        r.params
            .iter()
            .map(|(n, t)| (n.clone(), t.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    };
    for (i, a) in refs.clean.iter().enumerate() {
        for (j, b) in refs.clean.iter().enumerate().skip(i + 1) {
            assert_ne!(
                a.losses[0].to_bits(),
                b.losses[0].to_bits(),
                "phase F tenants {i} and {j} share their step-0 loss"
            );
            assert!(
                param_bits(a) != param_bits(b),
                "phase F tenants {i} and {j} end on the same parameters"
            );
        }
    }
    refs
}

/// Phase F: multi-world chaos. The coordinator runs 2–3 tenant worlds with
/// seed-staggered admissions; most seeds also fail-stop one seeded rank in
/// one seeded world mid-run (respawned in place), and every eighth seed
/// instead puts the shrink-policy churn tenant through a leave and a join
/// wave while its siblings run clean. Checks, per seed:
///
/// * every tenant's losses and final params are bitwise identical to its
///   own one-job run under the same fault plan (gradient streams never
///   mix);
/// * the dead rank is recovered in, and logged by, its own world only —
///   sibling worlds see zero recoveries and no `rank .. down` lines;
/// * the whole multi-world schedule is a pure function of the seed: a
///   second run yields byte-identical net traces, end times, and logs.
fn phase_f(seed: u64, refs: &FRefs) -> Result<(), (String, SimNet)> {
    let tenants = 2 + (seed % 2) as usize;
    let stagger = 1 + seed % 2;
    let die_world = (seed % tenants as u64) as usize;
    // Seeds 7 mod 8 churn one tenant, seeds 3 mod 8 run fault-free; the
    // rest kill one seeded rank (= original device: the topology never
    // changes under respawn) of one seeded world at world-local step 1
    // or 2.
    let churn = seed % 8 == 7;
    let die = (seed % 4 != 3).then(|| {
        let (stages, lanes) = F_SHAPES[die_world];
        (1 + (seed / 4) % 2, ((seed / 2) as usize) % (stages * lanes))
    });
    // The one world that loses a rank, and which.
    let victim = if churn {
        Some((F_CHURN_TENANT, 1))
    } else {
        die.map(|(_, rank)| (die_world, rank))
    };
    let jobs = || -> Vec<TenantJob> {
        (0..tenants)
            .map(|t| {
                let mut job = if churn && t == F_CHURN_TENANT {
                    f_churn_job()
                } else {
                    f_job(t)
                };
                job.admit_after_steps = t as u64 * stagger;
                if let Some((step, device)) = die.filter(|_| t == die_world) {
                    job.faults = FaultPlan::none().with(Fault::FailStop { step, device });
                }
                job
            })
            .collect()
    };
    let run = || {
        let net = SimNet::new(SimConfig::clean(seed));
        let _coord = net.register(0);
        let spawner = SimSpawner::new(net.clone());
        let out = run_multiworld(&spawner, jobs());
        (out, net)
    };

    let (out_a, net_a) = run();
    if let Err(e) = check_world(&net_a, "F") {
        return Err((e, net_a));
    }
    let report = match &out_a {
        Ok(r) => r,
        Err(e) => return Err((format!("F: multi-world run failed: {e}"), net_a)),
    };
    if report.worlds.len() != tenants {
        return Err((
            format!(
                "F: {} tenant(s) retired, expected {tenants}",
                report.worlds.len()
            ),
            net_a,
        ));
    }
    if report.max_concurrent < 2 {
        return Err((
            "F: worlds never overlapped — the coordinator serialized the tenants".to_string(),
            net_a,
        ));
    }
    for t in 0..tenants {
        let reference = if churn && t == F_CHURN_TENANT {
            &refs.churn
        } else {
            &refs.clean[t]
        };
        let Some(world) = report.worlds.iter().find(|w| w.tenant == t as u64) else {
            return Err((format!("F: tenant {t} missing from the report"), net_a));
        };
        let what = format!("F[tenant {t}]");
        if let Err(e) = bitwise_check_parts(&world.losses, &world.final_params, reference, &what) {
            return Err((e, net_a));
        }
        // Recovery and its log stay scoped to the world that died.
        let dead_rank = victim.and_then(|(w, rank)| (w == t).then_some(rank));
        let expect_rec = u32::from(dead_rank.is_some());
        if world.recoveries != expect_rec {
            return Err((
                format!(
                    "{what}: {} recovery cycle(s), expected {expect_rec}: {:?}",
                    world.recoveries, world.log
                ),
                net_a,
            ));
        }
        let prefix = format!("{}: ", world.world);
        if let Some(alien) = world.log.iter().find(|l| !l.starts_with(&prefix)) {
            return Err((
                format!("{what}: log line leaked across worlds: '{alien}'"),
                net_a,
            ));
        }
        if let Some(rank) = dead_rank {
            let named = format!("rank {rank} down");
            if !world.log.iter().any(|l| l.contains(&named)) {
                return Err((
                    format!(
                        "{what}: log never attributes its dead rank: {:?}",
                        world.log
                    ),
                    net_a,
                ));
            }
        } else if let Some(bogus) = world.log.iter().find(|l| l.contains(" down (")) {
            return Err((
                format!("{what}: log blames a rank that never died there: '{bogus}'"),
                net_a,
            ));
        }
    }

    // Determinism: the whole multi-world schedule is a pure function of
    // the seed — traces, end time, per-world logs, losses.
    let (out_b, net_b) = run();
    let digest = |r: &Result<pac_net::MultiWorldReport, DistError>| match r {
        Ok(m) => format!(
            "ok worlds={} max_concurrent={} steps={} logs={:?} loss_bits={:?}",
            m.worlds.len(),
            m.max_concurrent,
            m.steps_total,
            m.worlds.iter().map(|w| &w.log).collect::<Vec<_>>(),
            m.worlds
                .iter()
                .map(|w| w.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        ),
        Err(e) => format!("err {e}"),
    };
    if digest(&out_a) != digest(&out_b) {
        return Err((
            "F: same seed, different multi-world outcome".to_string(),
            net_b,
        ));
    }
    if net_a.trace_lines() != net_b.trace_lines() || net_a.now_ns() != net_b.now_ns() {
        return Err((
            "F: multi-world trace is not a pure function of the seed".to_string(),
            net_b,
        ));
    }

    Ok(())
}

/// The planted-bug self-test: grad applied before the AllReduce completes
/// must be *caught* (divergence from the reference) — if the harness can't
/// see an ordering bug we planted, it can't see one we didn't.
fn planted_probe(seed: u64, batches: &[Vec<MicroBatch>], reference: &Reference) -> bool {
    let cfg = DistConfig::loopback(2, 2);
    let (report, _net) = sim_run(
        SimConfig::clean(seed),
        cfg,
        batches,
        &FaultPlan::none(),
        Buggify {
            apply_grad_before_allreduce: true,
            ..Buggify::default()
        },
    );
    match report {
        // A typed failure also counts as "caught": the bug was surfaced.
        Err(_) => true,
        Ok(r) => r
            .losses
            .iter()
            .zip(reference.losses.iter())
            .any(|(d, r)| d.to_bits() != r.to_bits()),
    }
}

/// The membership planted-bug self-test: a world whose workers skip the
/// catch-up `Restore` after an elastic join must diverge bitwise from the
/// correct elastic run of the same seed and plan (or fail typed).
fn planted_churn_probe(seed: u64, batches: &[Vec<MicroBatch>]) -> bool {
    let cfg = DistConfig::loopback(2, 2);
    let plan = FaultPlan {
        faults: vec![Fault::Join { step: 2 }],
    };
    let (correct, _net) = sim_run(
        SimConfig::clean(seed),
        cfg.clone(),
        batches,
        &plan,
        Buggify::default(),
    );
    let (buggy, _net) = sim_run(
        SimConfig::clean(seed),
        cfg,
        batches,
        &plan,
        Buggify {
            skip_catch_up_restore: true,
            ..Buggify::default()
        },
    );
    match (correct, buggy) {
        (Ok(c), Ok(b)) => {
            c.losses.len() != b.losses.len()
                || c.losses
                    .iter()
                    .zip(b.losses.iter())
                    .any(|(x, y)| x.to_bits() != y.to_bits())
        }
        // The correct run must survive a clean-world join; if it does not,
        // the probe is inconclusive, not a catch.
        (Err(_), _) => false,
        (Ok(_), Err(_)) => true,
    }
}

fn dump_trace(out_dir: &Path, seed: u64, phase: &str, net: &SimNet, why: &str) -> PathBuf {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!(
            "simsweep: could not create trace dir {}: {e}",
            out_dir.display()
        );
    }
    let path = out_dir.join(format!("simsweep-trace-seed-{seed}-{phase}.txt"));
    let mut body = format!(
        "simsweep failing seed {seed} (phase {phase})\nreason: {why}\nvirtual end: {} ns\ndeadlock: {:?}\npanics: {:?}\n--- event trace ---\n",
        net.now_ns(),
        net.deadlocked(),
        net.panics(),
    );
    for line in net.trace_lines() {
        body.push_str(&line);
        body.push('\n');
    }
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("simsweep: could not write trace {}: {e}", path.display());
    }
    path
}

struct Args {
    seeds: u64,
    seed: Option<u64>,
    quick: bool,
    planted: bool,
    churn: bool,
    durable: bool,
    multiworld: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 200,
        seed: None,
        quick: false,
        planted: false,
        churn: false,
        durable: false,
        multiworld: false,
        out_dir: PathBuf::from("."),
    };
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--seeds=") {
            args.seeds = v.parse().map_err(|e| format!("--seeds: {e}"))?;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            args.seed = Some(v.parse().map_err(|e| format!("--seed: {e}"))?);
        } else if let Some(v) = a.strip_prefix("--out-dir=") {
            args.out_dir = PathBuf::from(v);
        } else if a == "--quick" {
            args.quick = true;
        } else if a == "--planted" {
            args.planted = true;
        } else if a == "--churn" {
            args.churn = true;
        } else if a == "--durable" {
            args.durable = true;
        } else if a == "--multiworld" {
            args.multiworld = true;
        } else if a == "--help" || a == "-h" {
            return Err(
                "usage: simsweep [--seeds=N] [--seed=K] [--quick] [--planted] [--churn] [--durable] [--multiworld] [--out-dir=DIR]\n\
                 \n\
                 --seeds=N    sweep seeds 0..N (default 200)\n\
                 --seed=K     reproduce one seed, always dumping its trace\n\
                 --quick      phase B on every 10th seed, phases D/E/F on every 5th/10th\n\
                 --planted    self-test: the planted AllReduce-ordering and\n\
                 \u{20}             skipped catch-up bugs must both be caught\n\
                 --churn      phase D (elastic churn) only\n\
                 --durable    phase E (durable crash-recovery) only\n\
                 --multiworld phase F (multi-world chaos) only\n\
                 --out-dir    where failing-seed traces and durable logs are\n\
                 \u{20}             written (default .)"
                    .to_string(),
            );
        } else {
            return Err(format!("unknown argument: {a} (try --help)"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let batches = make_batches();

    if args.planted {
        let reference = inprocess_run(&DistConfig::loopback(2, 2), &batches);
        let mut allreduce_at: Option<u64> = None;
        let mut churn_at: Option<u64> = None;
        for seed in 0..args.seeds {
            if allreduce_at.is_none() && planted_probe(seed, &batches, &reference) {
                allreduce_at = Some(seed);
            }
            if churn_at.is_none() && planted_churn_probe(seed, &batches) {
                churn_at = Some(seed);
            }
            if let (Some(a), Some(c)) = (allreduce_at, churn_at) {
                println!(
                    "planted: both bugs caught: AllReduce ordering bug at seed {a}, skipped catch-up bug at seed {c} ({:.1}s)",
                    t0.elapsed().as_secs_f64()
                );
                return ExitCode::SUCCESS;
            }
        }
        if allreduce_at.is_none() {
            eprintln!(
                "planted: AllReduce ordering bug NOT caught in {} seeds — the harness is blind",
                args.seeds
            );
        }
        if churn_at.is_none() {
            eprintln!(
                "planted: skipped catch-up bug NOT caught in {} seeds — the harness is blind",
                args.seeds
            );
        }
        return ExitCode::FAILURE;
    }

    // Phase A–E references are only needed outside --multiworld mode;
    // phase F brings its own per-tenant solo references.
    let mut refs = HashMap::new();
    if !args.multiworld {
        for shape in SHAPES {
            refs.insert(
                shape,
                inprocess_run(&DistConfig::loopback(shape.0, shape.1), &batches),
            );
        }
    }
    let f_refs = (args.multiworld || (!args.churn && !args.durable)).then(f_references);

    let seeds: Vec<u64> = match args.seed {
        Some(k) => vec![k],
        None => (0..args.seeds).collect(),
    };
    let single = args.seed.is_some();
    let mut failures = 0u64;
    // One trace file per (seed, phase): a later phase of the same seed must
    // never overwrite an earlier phase's evidence.
    let mut traces_written: std::collections::HashSet<PathBuf> = std::collections::HashSet::new();
    for &seed in &seeds {
        let mut run_phase = |name: &str, r: Result<(), (String, SimNet)>| match r {
            Ok(()) => {
                if single {
                    println!("seed {seed} phase {name}: ok");
                }
                true
            }
            Err((why, net)) => {
                let path = dump_trace(&args.out_dir, seed, name, &net, &why);
                assert!(
                    traces_written.insert(path.clone()),
                    "trace file {} written twice — a phase overwrote another's evidence",
                    path.display()
                );
                eprintln!("seed {seed} phase {name}: FAIL: {why}");
                eprintln!("  trace: {}", path.display());
                eprintln!("  repro: simsweep --seed={seed}");
                false
            }
        };
        let mut ok = true;
        if !args.churn && !args.durable && !args.multiworld {
            ok &= run_phase("A", phase_a(seed, &batches, &refs));
            if !args.quick || seed % 10 == 0 || single {
                ok &= run_phase("B", phase_b(seed, &batches));
            }
            ok &= run_phase("C", phase_c(seed, &batches));
        }
        if !args.durable
            && !args.multiworld
            && (args.churn || !args.quick || seed % 5 == 0 || single)
        {
            ok &= run_phase("D", phase_d(seed, &batches, &refs[&(2, 2)]));
        }
        if !args.multiworld
            && (args.durable || (!args.churn && (!args.quick || seed % 10 == 5 || single)))
        {
            ok &= run_phase("E", phase_e(seed, &batches, &refs[&(2, 2)], &args.out_dir));
        }
        if args.multiworld
            || (!args.churn && !args.durable && (!args.quick || seed % 5 == 2 || single))
        {
            let f_refs = f_refs.as_ref().expect("computed whenever phase F runs");
            ok &= run_phase("F", phase_f(seed, f_refs));
        }
        if !ok {
            failures += 1;
        }
        if !single && seed % 25 == 24 {
            let done = seed + 1;
            println!(
                "… {done}/{} seeds, {failures} failing, {:.1}s",
                seeds.len(),
                t0.elapsed().as_secs_f64()
            );
            std::io::stdout().flush().ok();
        }
    }

    let secs = t0.elapsed().as_secs_f64();
    if failures == 0 {
        println!("simsweep: {} seed(s) clean in {secs:.1}s", seeds.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "simsweep: {failures}/{} seed(s) FAILED in {secs:.1}s",
            seeds.len()
        );
        ExitCode::FAILURE
    }
}
