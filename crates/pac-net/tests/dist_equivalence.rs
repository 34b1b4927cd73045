//! The PR's acceptance gate: a 2-stage × 2-lane distributed loopback run
//! must be **bitwise identical** to the in-process `HybridEngine` on the
//! same seed — every per-step loss and every final parameter, compared as
//! raw f32 bits — and killing a worker mid-run must recover via replan +
//! checkpoint resume within the established fault-recovery tolerance.
//!
//! Workers run as threads over real loopback TCP sockets: the full wire
//! protocol, rendezvous, and ring collective are exercised; only process
//! management is elided (covered by the `repro --distributed` smoke test
//! in `pac-bench`).

use pac_net::{run_world, DistConfig, RankLoss, Reference, Spawner, TenantJob, WorldReport};
use pac_parallel::engine::MicroBatch;
use pac_parallel::{Fault, FaultPlan, TimelineKind};
use pac_tensor::rng::seeded;
use rand::Rng;

const SEED: u64 = 7;
const STEPS: usize = 6;
const MICROS: usize = 2;
const ROWS_PER_MICRO: usize = 4; // divisible by 2 lanes and by 1 survivor
const SEQ: usize = 6;

/// Deterministic synthetic mini-batches, shared by both runs.
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

/// One world over loopback TCP threads that shrinks when it loses a rank.
fn run(cfg: DistConfig, batches: &[Vec<MicroBatch>], faults: FaultPlan) -> WorldReport {
    let job = TenantJob {
        faults,
        on_rank_loss: RankLoss::Shrink,
        ..TenantJob::new(0, cfg, batches.to_vec())
    };
    run_world(&Spawner::Threads, job).expect("distributed run")
}

#[test]
fn distributed_2x2_is_bitwise_identical_to_inprocess() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();

    let reference = Reference::train(&cfg, &batches).expect("in-process reference");
    let report = run(cfg, &batches, FaultPlan::none());

    if let Err(e) = reference.compare(&report.losses, &report.final_params) {
        panic!("distributed run diverged from the in-process engine: {e}");
    }
    assert_eq!(report.recovery.replans, 0);
    assert_eq!(report.final_lanes, 2);
}

#[test]
fn distributed_2x1_pipeline_only_matches_inprocess() {
    // No ring collective at all (lanes == 1): isolates the pipeline
    // transport. Matches the in-process engine's n<=1 AllReduce no-op.
    let cfg = DistConfig::loopback(2, 1);
    let batches = make_batches();

    let reference = Reference::train(&cfg, &batches).expect("in-process reference");
    let report = run(cfg, &batches, FaultPlan::none());

    if let Err(e) = reference.compare(&report.losses, &report.final_params) {
        panic!("pipeline-only run diverged from the in-process engine: {e}");
    }
}

#[test]
fn killed_worker_triggers_replan_and_checkpoint_resume() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();

    // Clean reference for the recovery tolerance (the PR 2 criterion).
    let clean = run(cfg.clone(), &batches, FaultPlan::none());

    // Kill device 1 (stage 0, lane 1) before step 4 — mid-run, after the
    // step-2 checkpoint.
    let faults = FaultPlan::none().with(Fault::FailStop { step: 4, device: 1 });
    let faulty = run(cfg, &batches, faults);

    assert_eq!(faulty.recovery.faults_injected, 1);
    assert_eq!(faulty.recovery.replans, 1, "one replan for one fail-stop");
    assert!(
        faulty.recovery.checkpoints >= 2,
        "initial + periodic snapshots: {}",
        faulty.recovery.checkpoints
    );
    assert_eq!(faulty.final_lanes, 1, "dead lane left the pool");
    assert_eq!(
        faulty.losses.len(),
        batches.len(),
        "every mini-batch trained despite the failure"
    );

    // Timeline ordering: inject, then replan, then resume.
    let pos = |kind: TimelineKind| {
        faulty
            .recovery
            .timeline
            .iter()
            .position(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("no {kind:?} event in timeline"))
    };
    assert!(pos(TimelineKind::Injected) < pos(TimelineKind::Replan));
    assert!(pos(TimelineKind::Replan) < pos(TimelineKind::Resume));
    // The replan names the world the restart launches, and the report
    // counts that world's devices.
    let replan = &faulty.recovery.timeline[pos(TimelineKind::Replan)].detail;
    assert!(
        replan.ends_with("relaunching as 2 stage(s) × 1 lane(s)"),
        "{replan}"
    );
    assert_eq!(
        faulty.recovery.final_devices,
        faulty.stages * faulty.final_lanes
    );

    // Recovery quality: the PR 2 fault-recovery tolerance — the recovered
    // run's final loss lands near the clean run's (both runs see the same
    // data; the survivor lane sees more rows per update after the drop).
    let clean_final = *clean.losses.last().unwrap();
    let faulty_final = *faulty.losses.last().unwrap();
    assert!(
        clean_final.is_finite() && faulty_final.is_finite(),
        "losses finite: clean {clean_final}, faulty {faulty_final}"
    );
    assert!(
        (clean_final - faulty_final).abs() < 0.5,
        "recovered training drifted: clean {clean_final} vs faulty {faulty_final}"
    );

    // Before the kill, the runs are bitwise-identical (same world shape).
    for t in 0..2 {
        assert_eq!(
            clean.losses[t].to_bits(),
            faulty.losses[t].to_bits(),
            "pre-fault step {t} must match the clean run"
        );
    }
}
