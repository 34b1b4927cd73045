//! Extension experiment: heterogeneous and degraded clusters.
//!
//! The paper evaluates on homogeneous Jetson Nanos; real smart homes mix
//! device classes and devices degrade (thermal throttling) or disappear.
//! This experiment quantifies how PAC's planner copes:
//!
//! * **mixed hardware** — the smart-home pool (TX2 + 2× Nano + Pi 4);
//! * **stragglers** — one Nano progressively slowed;
//! * **fail-stop** — devices removed one at a time.

use pac_cluster::{Cluster, CostModel};
use pac_model::ModelConfig;
use pac_parallel::{simulate_plan, ParallelPlan, Schedule};
use pac_peft::Technique;
use pac_planner::Planner;

/// One scenario row.
#[derive(Debug, Clone)]
pub struct HeteroRow {
    /// Scenario label.
    pub scenario: String,
    /// Planner-selected grouping (`"—"` when unplannable).
    pub grouping: String,
    /// Planned mini-batch makespan (seconds; NaN when unplannable).
    pub planned_s: f64,
    /// Naive even-pipeline makespan on the same cluster, for comparison.
    pub naive_s: f64,
}

/// Runs the heterogeneity/robustness sweep on T5-Base with Parallel
/// Adapters (mini-batch 8).
pub fn hetero() -> Vec<HeteroRow> {
    let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
    let layers = cost.layer_costs().len();
    let mut rows = Vec::new();

    let mut scenarios: Vec<(String, Cluster)> = vec![
        ("4× Nano (baseline)".into(), Cluster::nanos(4)),
        (
            "smart home (TX2 + 2×Nano + Pi4)".into(),
            Cluster::smart_home(),
        ),
    ];
    for slow in [2.0f64, 4.0, 8.0] {
        scenarios.push((
            format!("4× Nano, one throttled ×{slow}"),
            Cluster::nanos(4).with_straggler(3, slow),
        ));
    }
    for failed in [1usize, 2] {
        scenarios.push((
            format!("8× Nano, {failed} failed"),
            Cluster::nanos(8).without_devices(&(0..failed).collect::<Vec<_>>()),
        ));
    }

    for (label, cluster) in scenarios {
        let n = cluster.len();
        let planner = Planner::paper_defaults(cluster.clone(), 8);
        let (grouping, planned_s) = match planner.plan(&cost) {
            Some(o) => (o.best.grouping_string(), o.best_makespan_s),
            None => ("—".into(), f64::NAN),
        };
        let naive = ParallelPlan::pipeline_even(layers, n);
        let naive_s =
            simulate_plan(&cluster, &cost, &naive, 8, n.min(8), Schedule::OneFOneB).makespan_s;
        rows.push(HeteroRow {
            scenario: label,
            grouping,
            planned_s,
            naive_s,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_never_loses_to_naive_pipeline() {
        for r in hetero() {
            if r.planned_s.is_finite() {
                assert!(
                    r.planned_s <= r.naive_s + 1e-9,
                    "{}: planned {} > naive {}",
                    r.scenario,
                    r.planned_s,
                    r.naive_s
                );
            }
        }
    }

    #[test]
    fn straggler_scenarios_degrade_gracefully() {
        let rows = hetero();
        let get = |needle: &str| {
            rows.iter()
                .find(|r| r.scenario.contains(needle))
                .expect("scenario present")
        };
        let base = get("baseline").planned_s;
        let s2 = get("×2").planned_s;
        let s8 = get("×8").planned_s;
        // Slower straggler ⇒ slower (or equal) plan, but far better than
        // the straggler's slowdown factor (work shifted away).
        assert!(s2 >= base - 1e-9);
        assert!(s8 >= s2 - 1e-9);
        assert!(s8 < base * 8.0, "planner failed to absorb the straggler");
    }

    #[test]
    fn failures_are_survivable() {
        let rows = hetero();
        for r in rows.iter().filter(|r| r.scenario.contains("failed")) {
            assert!(r.planned_s.is_finite(), "{} unplannable", r.scenario);
        }
    }
}
