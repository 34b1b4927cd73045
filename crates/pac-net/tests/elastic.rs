//! Elastic-membership acceptance tests: ranks join, leave, and flake
//! mid-run, and the coordinator must admit / evict them with exactly one
//! replan per membership change, full-length loss histories, and final
//! losses close to the fault-free reference. A straggler only stalls its
//! lane. Every case runs over the simulated transport.

use pac_net::{
    run_world, Buggify, DistConfig, DistError, RankLoss, Reference, SimConfig, SimNet, SimSpawner,
    Spawn, TenantJob, WorldReport,
};
use pac_parallel::engine::MicroBatch;
use pac_parallel::{EngineError, Fault, FaultPlan, TimelineKind};
use pac_tensor::rng::seeded;
use rand::Rng;
use std::time::Duration;

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

fn inprocess_final_loss(cfg: &DistConfig, batches: &[Vec<MicroBatch>]) -> f32 {
    let reference = Reference::train(cfg, batches).expect("in-process reference");
    *reference.losses.last().expect("one loss per batch")
}

/// One elastic world: it shrinks when it loses a rank.
fn run<S>(
    spawner: &S,
    cfg: DistConfig,
    batches: &[Vec<MicroBatch>],
    faults: &FaultPlan,
) -> Result<WorldReport, DistError>
where
    S: Spawn,
    S::T: pac_net::PollTransport,
    <S::T as pac_net::Transport>::Conn: pac_net::PollConn,
{
    let job = TenantJob {
        faults: faults.clone(),
        on_rank_loss: RankLoss::Shrink,
        ..TenantJob::new(0, cfg, batches.to_vec())
    };
    run_world(spawner, job)
}

fn sim_run(
    sim_seed: u64,
    dist_cfg: DistConfig,
    batches: &[Vec<MicroBatch>],
    faults: &FaultPlan,
    buggify: Buggify,
) -> (Result<WorldReport, DistError>, SimNet) {
    let net = SimNet::new(SimConfig::clean(sim_seed));
    let _coord = net.register(0);
    let spawner = SimSpawner::with_buggify(net.clone(), buggify);
    let report = run(&spawner, dist_cfg, batches, faults);
    (report, net)
}

/// A device that offers to join mid-run is admitted as a new lane,
/// catches up from a fresh snapshot at the current cursor, and the grown
/// world finishes the full loss history near the fault-free reference.
#[test]
fn join_mid_run_is_admitted_and_catches_up() {
    let cfg = DistConfig::loopback(2, 1);
    let batches = make_batches();
    let reference = inprocess_final_loss(&cfg, &batches);

    let plan = FaultPlan {
        faults: vec![Fault::Join { step: 2 }],
    };
    let (report, net) = sim_run(31, cfg, &batches, &plan, Buggify::default());
    let report = report.expect("elastic run");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

    assert_eq!(report.losses.len(), batches.len(), "full loss history");
    assert_eq!(
        report.recovery.replans, 1,
        "exactly one replan for one join"
    );
    assert_eq!(report.final_lanes, 2, "the joiner grew the world");
    let has = |kind: TimelineKind, needle: &str| {
        report
            .recovery
            .timeline
            .iter()
            .any(|e| e.kind == kind && e.detail.contains(needle))
    };
    assert!(has(TimelineKind::Join, "admitted"), "join admission noted");
    assert!(
        has(TimelineKind::Checkpoint, "catch-up snapshot"),
        "catch-up snapshot taken at admission"
    );
    assert!(
        has(TimelineKind::Resume, "joiner caught up"),
        "resume from the catch-up snapshot"
    );
    let last = *report.losses.last().unwrap();
    assert!(last.is_finite());
    assert!(
        (last - reference).abs() < 0.5,
        "grown world drifted: {last} vs reference {reference}"
    );
}

/// Two devices offering to join at the same step form one membership
/// *wave*: a single membership change, a single catch-up snapshot, and both
/// joiners admitted together in one round restart — not one membership
/// event (and one snapshot) per joiner.
#[test]
fn two_joiner_wave_costs_exactly_one_replan() {
    let cfg = DistConfig::loopback(2, 1);
    let batches = make_batches();
    let reference = inprocess_final_loss(&cfg, &batches);

    let plan = FaultPlan {
        faults: vec![Fault::Join { step: 2 }, Fault::Join { step: 2 }],
    };
    let (report, net) = sim_run(41, cfg, &batches, &plan, Buggify::default());
    let report = report.expect("wave run");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

    assert_eq!(report.losses.len(), batches.len(), "full loss history");
    assert_eq!(
        report.recovery.replans, 1,
        "exactly one replan for the whole two-joiner wave"
    );
    assert_eq!(report.final_lanes, 3, "both joiners grew the world");
    let catch_ups = report
        .recovery
        .timeline
        .iter()
        .filter(|e| e.kind == TimelineKind::Checkpoint && e.detail.contains("catch-up snapshot"))
        .count();
    assert_eq!(catch_ups, 1, "one catch-up snapshot for the whole wave");
    let has = |kind: TimelineKind, needle: &str| {
        report
            .recovery
            .timeline
            .iter()
            .any(|e| e.kind == kind && e.detail.contains(needle))
    };
    assert!(
        has(TimelineKind::Join, "as 2 lane(s) in one wave"),
        "wave admission noted as one membership event"
    );
    assert!(
        has(
            TimelineKind::Resume,
            "2 joiners caught up from one snapshot"
        ),
        "both joiners resumed from the single catch-up snapshot"
    );
    let last = *report.losses.last().unwrap();
    assert!(last.is_finite());
    assert!(
        (last - reference).abs() < 0.5,
        "wave-grown world drifted: {last} vs reference {reference}"
    );
}

/// Leave → join → leave churn: each membership change costs exactly one
/// replan, the revived lane id is reused, and training still converges to
/// the reference within tolerance with a full-length loss history.
#[test]
fn leave_join_leave_churn_recovers() {
    let cfg = DistConfig::loopback(2, 2);
    let batches = make_batches();
    let reference = inprocess_final_loss(&cfg, &batches);

    let plan = FaultPlan {
        faults: vec![
            // Device 1 = (stage 0, lane 1): the lane-1 chain leaves.
            Fault::FailStop { step: 1, device: 1 },
            // A new chain joins and revives lane id 1.
            Fault::Join { step: 3 },
            // Device 3 = (stage 1, lane 1): the revived lane leaves too.
            Fault::FailStop { step: 5, device: 3 },
        ],
    };
    let (report, net) = sim_run(37, cfg, &batches, &plan, Buggify::default());
    let report = report.expect("churn run");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

    assert_eq!(report.losses.len(), batches.len(), "full loss history");
    assert_eq!(
        report.recovery.replans, 3,
        "exactly one replan per membership change"
    );
    assert_eq!(report.final_lanes, 1, "ended on the lone original lane");
    let joins = report
        .recovery
        .timeline
        .iter()
        .filter(|e| e.kind == TimelineKind::Join && e.detail.contains("admitted"))
        .count();
    assert_eq!(joins, 1, "one admission in the timeline");
    let last = *report.losses.last().unwrap();
    assert!(last.is_finite());
    assert!(
        (last - reference).abs() < 0.5,
        "churned training drifted: {last} vs reference {reference}"
    );
}

/// A rank whose control plane goes silent (nothing written on its control
/// socket, data plane still up) is evicted at its step deadline as
/// `Stale` — typed, bounded, and never a hang. With every spawned worker
/// mute, the pool drains to nothing and the run must end in `NoSurvivors`.
#[test]
fn stale_heartbeat_evicts_mute_rank() {
    pac_telemetry::set_enabled(true);
    let mut cfg = DistConfig::loopback(2, 2);
    cfg.net_timeout = Duration::from_secs(1);
    let batches = make_batches();

    let stale_before = pac_telemetry::get("membership.stale").unwrap_or(0);
    let (report, net) = sim_run(
        43,
        cfg,
        &batches,
        &FaultPlan::none(),
        Buggify {
            mute_control: true,
            ..Buggify::default()
        },
    );
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
    match report {
        Err(DistError::Engine(EngineError::NoSurvivors)) => {}
        other => panic!("mute world must drain to NoSurvivors, got {other:?}"),
    }
    let stale_after = pac_telemetry::get("membership.stale").unwrap_or(0);
    assert!(
        stale_after > stale_before,
        "evictions must come from the step deadline"
    );
}

/// The planted membership bug: a joiner that skips the catch-up `Restore`
/// trains a diverged replica. The bitwise check against the correct run
/// must catch it — this is the self-test that proves the catch-up path is
/// actually load-bearing.
#[test]
fn joiner_that_skips_catch_up_diverges() {
    let cfg = DistConfig::loopback(2, 1);
    let batches = make_batches();
    let plan = FaultPlan {
        faults: vec![Fault::Join { step: 2 }],
    };

    let (correct, _) = sim_run(47, cfg.clone(), &batches, &plan, Buggify::default());
    let correct = correct.expect("correct elastic run");
    let (buggy, net) = sim_run(
        47,
        cfg,
        &batches,
        &plan,
        Buggify {
            skip_catch_up_restore: true,
            ..Buggify::default()
        },
    );
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

    let caught = match buggy {
        // A run that completes must have diverged losses somewhere.
        Ok(b) => correct
            .losses
            .iter()
            .zip(b.losses.iter())
            .any(|(c, w)| c.to_bits() != w.to_bits()),
        // Detected as a typed failure: also caught.
        Err(_) => true,
    };
    assert!(caught, "skipped catch-up restore went undetected");
}

/// Plan faults name a lane by its original id, and the coordinator keeps
/// them there as the survivors renumber: once device 0 of a 1 × 3 world
/// fail-stops, original lane 2 runs at position 1, and its planned stall
/// still lands on it (at position 2 it would never fire).
#[test]
fn lane_faults_follow_the_device_after_a_fail_stop() {
    let cfg = DistConfig::loopback(1, 3);
    let batches = make_batches();
    let plan = FaultPlan::parse("fail-stop@step=1,device=0;straggler@step=5,lane=2,delay-ms=20")
        .expect("plan parses");
    let (report, net) = sim_run(59, cfg, &batches, &plan, Buggify::default());
    let report = report.expect("the world survives the fail-stop");
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());

    assert_eq!(report.losses.len(), batches.len(), "full loss history");
    assert_eq!(report.final_lanes, 2, "one lane left for good");
    assert_eq!(report.recovery.replans, 1, "one replan for one fail-stop");
    assert_eq!(
        report.recovery.faults_injected, 2,
        "{:?}",
        report.recovery.timeline
    );
    assert!(
        report.recovery.timeline.iter().any(|e| e.step == 5
            && e.kind == TimelineKind::Injected
            && e.detail.starts_with("lane 2 straggles")),
        "{:?}",
        report.recovery.timeline
    );
}

/// Losing every lane leaves nothing to run on: the run ends in the typed
/// `NoSurvivors` error, with no hang and no worker panic.
#[test]
fn losing_all_devices_is_a_typed_engine_error() {
    let cfg = DistConfig::loopback(1, 2);
    let batches = make_batches();
    let plan = FaultPlan::parse("fail-stop@step=1,device=0;fail-stop@step=2,device=1")
        .expect("plan parses");
    let (report, net) = sim_run(61, cfg, &batches, &plan, Buggify::default());
    assert!(net.panics().is_empty(), "worker panics: {:?}", net.panics());
    match report {
        Err(DistError::Engine(EngineError::NoSurvivors)) => {}
        other => panic!("a world without lanes must fail typed, got {other:?}"),
    }
}
