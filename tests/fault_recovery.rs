//! Fault-injection acceptance tests: a real `PacSession` run must survive
//! a mid-epoch fail-stop (replan + checkpoint resume), must keep a planned
//! fault on the device it names after the survivors renumber, and must
//! fail typed when no device is left.

use pac_core::prelude::*;
use pac_core::trainer::{finetune, TrainConfig};
use pac_data::{Dataset, TaskKind};
use pac_model::ModelConfig;
use pac_parallel::faults::TimelineKind;
use pac_parallel::{Fault, FaultPlan};
use pac_peft::{Technique, Tuner};
use pac_tensor::rng::seeded;

/// A briefly pretrained backbone (the paper personalizes a *pretrained*
/// LLM; frozen random features would not clear the quality bar).
fn pretrained_backbone(cfg: &ModelConfig) -> pac_model::EncDecModel {
    let mut full = Tuner::new(Technique::Full, cfg, 2, &mut seeded(41));
    let pre = Dataset::generate(TaskKind::Sst2, 80, 13, 999);
    let (ptrain, peval) = pre.split(0.9);
    finetune(
        &mut full,
        &ptrain,
        &peval,
        &TrainConfig {
            epochs: 4,
            lr: 3e-3,
            ..Default::default()
        },
    )
    .unwrap();
    match full {
        Tuner::Full(f) => f.model,
        _ => unreachable!(),
    }
}

fn session(devices: usize) -> PacSession {
    PacSession::new(PacConfig {
        devices,
        reduction: 4,
        epochs: 3,
        batch_size: 8,
        lr: 1e-2,
        seed: 42,
        checkpoint_every: 4,
        cache_int8: false,
    })
}

/// Mid-epoch fail-stop: the session must replan over the survivors,
/// restore the last checkpoint, replay, and still reach fault-free-grade
/// quality.
#[test]
fn fail_stop_recovers_via_replan_and_checkpoint_resume() {
    let cfg = ModelConfig::micro(2, 1, 32, 4);
    let backbone = pretrained_backbone(&cfg);
    let task = TaskKind::Sst2;

    let clean = session(3)
        .run_with_faults(backbone.clone(), task, 48, 16, &FaultPlan::none())
        .unwrap();
    assert_eq!(clean.recovery.replans, 0);
    assert_eq!(clean.recovery.final_devices, 3);
    assert_eq!(clean.recovery.faults_injected, 0);
    // Fault-free runs still checkpoint (initial + periodic).
    assert!(clean.recovery.checkpoints >= 2);

    // Device 2 fail-stops mid-epoch-2 (18 planned steps; snapshots land
    // every 4th step, so the last one predates the fault).
    let plan = FaultPlan::none().with(Fault::FailStop { step: 9, device: 2 });
    let faulty = session(3)
        .run_with_faults(backbone, task, 48, 16, &plan)
        .unwrap();

    assert_eq!(faulty.recovery.replans, 1, "one fail-stop, one replan");
    assert_eq!(faulty.recovery.final_devices, 2);
    assert_eq!(faulty.recovery.faults_injected, 1);
    assert!(faulty.recovery.checkpoint_bytes > 0);
    let kinds: Vec<TimelineKind> = faulty.recovery.timeline.iter().map(|e| e.kind).collect();
    for needed in [
        TimelineKind::Checkpoint,
        TimelineKind::Injected,
        TimelineKind::Replan,
        TimelineKind::Resume,
    ] {
        assert!(kinds.contains(&needed), "timeline missing {needed:?}");
    }
    // The injection must precede replan, which precedes resume.
    let at = |k: TimelineKind| kinds.iter().position(|&x| x == k).unwrap();
    assert!(at(TimelineKind::Injected) < at(TimelineKind::Replan));
    assert!(at(TimelineKind::Replan) < at(TimelineKind::Resume));

    // Quality: both clear the repo's 60-point bar, and recovery stays
    // within a modest band of the fault-free run.
    assert!(clean.metric > 60.0, "clean {}", clean.metric);
    assert!(faulty.metric > 60.0, "faulty {}", faulty.metric);
    assert!(
        (clean.metric - faulty.metric).abs() < 20.0,
        "recovery drifted too far: clean {} vs faulty {}",
        clean.metric,
        faulty.metric
    );
}

/// Plan faults name a lane by its original device id. After device 0
/// fail-stops, device 2 sits at lane position 1; its planned panic must
/// still fire there (at position 2 it would never fire, or would hit
/// another device).
#[test]
fn lane_faults_follow_the_device_after_a_fail_stop() {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let backbone = pac_model::EncDecModel::new(&cfg, 2, &mut seeded(78));
    let plan = FaultPlan::parse("fail-stop@step=1,device=0;lane-panic@step=5,lane=2").unwrap();
    let report = PacSession::new(PacConfig {
        devices: 3,
        epochs: 2,
        batch_size: 6,
        ..Default::default()
    })
    .run_with_faults(backbone, TaskKind::Sst2, 36, 8, &plan)
    .unwrap();
    assert_eq!(report.recovery.faults_injected, 2);
    assert_eq!(report.recovery.final_devices, 1);
    assert!(
        report.recovery.timeline.iter().any(|e| e.step == 5
            && e.kind == TimelineKind::Injected
            && e.detail == "lane 2 panics"),
        "{:?}",
        report.recovery.timeline
    );
}

/// Losing every device is unrecoverable and must surface as a typed error,
/// not a hang or a panic.
#[test]
fn losing_all_devices_is_a_typed_unplannable_error() {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let backbone = pac_model::EncDecModel::new(&cfg, 2, &mut seeded(78));
    let plan = FaultPlan::none()
        .with(Fault::FailStop { step: 1, device: 0 })
        .with(Fault::FailStop { step: 2, device: 1 });
    let err = PacSession::new(PacConfig {
        devices: 2,
        epochs: 2,
        batch_size: 4,
        ..Default::default()
    })
    .run_with_faults(backbone, TaskKind::Sst2, 16, 8, &plan)
    .unwrap_err();
    assert!(
        matches!(err, pac_parallel::EngineError::Unplannable { survivors: 0 }),
        "unexpected error: {err}"
    );
}
