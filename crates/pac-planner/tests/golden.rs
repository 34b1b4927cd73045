//! Golden plans for Eq. 4–6 on small heterogeneous clusters.
//!
//! The planner's stage sweep + partition DP + pipeline simulation is pure
//! arithmetic over the cost model, so its output for a fixed cluster is a
//! *contract*: these tests pin the selected stage count, the exact layer
//! partition, and the device grouping for three representative clusters.
//! If a cost-model or DP change moves one of these plans, that is a
//! behavior change that must be reviewed, not noise.

use pac_cluster::{Cluster, CostModel, DeviceSpec, LinkSpec};
use pac_model::ModelConfig;
use pac_peft::Technique;
use pac_planner::{PlanOutcome, Planner};

/// Compact, readable fingerprint of a plan: stage layer ranges with their
/// device groups, plus the devices the plan uses.
fn fingerprint(out: &PlanOutcome) -> String {
    let stages: Vec<String> = out
        .best
        .stages
        .iter()
        .map(|s| format!("[{}..{})x{:?}", s.layer_start, s.layer_end, s.devices))
        .collect();
    format!(
        "stages={} micro={} plan={} devices={:?}",
        out.best.stages.len(),
        out.best_micro_batches,
        stages.join(" "),
        out.device_indices,
    )
}

fn plan_cost(
    devices: Vec<DeviceSpec>,
    link: LinkSpec,
    cost: &CostModel,
    mini: usize,
) -> PlanOutcome {
    let cluster = Cluster { devices, link };
    Planner::paper_defaults(cluster, mini)
        .plan(cost)
        .expect("feasible plan")
}

fn plan_with(
    devices: Vec<DeviceSpec>,
    link: LinkSpec,
    model: ModelConfig,
    technique: Technique,
    mini: usize,
) -> PlanOutcome {
    plan_cost(devices, link, &CostModel::new(model, technique, 64), mini)
}

fn plan(devices: Vec<DeviceSpec>, link: LinkSpec, model: ModelConfig, mini: usize) -> PlanOutcome {
    plan_with(devices, link, model, Technique::parallel_default(), mini)
}

/// Two Nanos plus a TX2 on the paper's 128 Mbps LAN: the classic
/// heterogeneous pool from the paper's device-grouping experiment.
#[test]
fn golden_two_nanos_one_tx2() {
    let out = plan(
        vec![
            DeviceSpec::jetson_nano(),
            DeviceSpec::jetson_nano(),
            DeviceSpec::jetson_tx2(),
        ],
        LinkSpec::lan_128mbps(),
        ModelConfig::t5_base(),
        8,
    );
    assert_eq!(
        fingerprint(&out),
        "stages=2 micro=8 plan=[0..3)x[0] [3..24)x[1] devices=[0, 2]"
    );
}

/// A strong/medium/weak trio (TX2, Nano, Pi 4) on gigabit: the planner
/// must decide whether the Pi is worth keeping at all.
#[test]
fn golden_tx2_nano_pi4() {
    let out = plan(
        vec![
            DeviceSpec::jetson_tx2(),
            DeviceSpec::jetson_nano(),
            DeviceSpec::raspberry_pi4(),
        ],
        LinkSpec::gigabit(),
        ModelConfig::t5_base(),
        8,
    );
    assert_eq!(
        fingerprint(&out),
        "stages=2 micro=8 plan=[0..11)x[0] [11..24)x[1] devices=[0, 1]"
    );
}

/// Memory pressure forcing the stage count *above* latency-optimal: a
/// BART-Large f32 replica (~1.6 GB) does not fit one Nano's 1.5 GB, so a
/// 1-stage (pure DP) plan is infeasible even though fewer stages would
/// mean less pipeline communication.
#[test]
fn golden_memory_pressure_forces_deeper_pipeline() {
    // Reduction 64 keeps the adapter allreduce cheap, so with enough
    // memory pure data parallelism is the latency-optimal shape — making
    // the memory ceiling the only reason to pipeline.
    let lean = Technique::ParallelAdapters { reduction: 64 };
    let out = plan_with(
        vec![
            DeviceSpec::jetson_nano(),
            DeviceSpec::jetson_nano(),
            DeviceSpec::jetson_nano(),
        ],
        LinkSpec::gigabit(),
        ModelConfig::bart_large(),
        lean,
        8,
    );
    assert_eq!(
        fingerprint(&out),
        "stages=2 micro=8 plan=[0..9)x[0, 1] [9..24)x[2] devices=[0, 1, 2]"
    );
    assert!(
        out.best.stages.len() >= 2,
        "one Nano cannot hold a BART-Large replica"
    );
    // The partition DP prunes memory-infeasible stage counts entirely, so
    // the 1-stage (pure DP) candidate does not even appear.
    assert!(
        out.candidates.iter().all(|c| c.stages >= 2),
        "a 1-stage plan must be memory-infeasible here"
    );

    // Prove it is *memory* pressure that forced the depth: the same
    // cluster with its memory ceiling lifted picks a shallower plan.
    let roomy = DeviceSpec {
        usable_memory: 64 * 1024 * 1024 * 1024,
        ..DeviceSpec::jetson_nano()
    };
    let unconstrained = plan_with(
        vec![roomy.clone(), roomy.clone(), roomy],
        LinkSpec::gigabit(),
        ModelConfig::bart_large(),
        lean,
        8,
    );
    assert_eq!(
        fingerprint(&unconstrained),
        "stages=1 micro=2 plan=[0..24)x[0, 1, 2] devices=[0, 1, 2]"
    );
    assert!(
        unconstrained.best.stages.len() < out.best.stages.len(),
        "without the memory ceiling the planner picks {} stages, not fewer than {}",
        unconstrained.best.stages.len(),
        out.best.stages.len()
    );
}
