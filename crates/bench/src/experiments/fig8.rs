//! Figure 8: per-sample training time and peak per-device memory across
//! fine-tuning techniques (8 Nanos; baselines under hybrid parallelism,
//! Parallel Adapters additionally with the cache-enabled DP mode).

use pac_cluster::{Cluster, CostModel};
use pac_model::ModelConfig;
use pac_parallel::simulate::simulate_cached_dp_step;
use pac_parallel::{simulate_plan, Schedule};
use pac_peft::Technique;

/// One bar of Figure 8 (a row per technique/mode).
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Technique/mode label.
    pub label: String,
    /// Average training time per sample (seconds), Fig 8(a).
    pub per_sample_s: f64,
    /// Peak per-device memory (GB), Fig 8(b).
    pub peak_gb: f64,
}

const MINI_BATCH: usize = 16;

/// Computes Figure 8 for T5-Base on 8 Nanos (the paper's setup; T5-Large
/// does not fit the baselines at bs 16 on this cluster).
pub fn fig8() -> Vec<Fig8Row> {
    let cluster = Cluster::nanos(8);
    let model = ModelConfig::t5_base();
    let mut rows = Vec::new();

    // Per the paper's §6.3 protocol, every technique runs under the *same*
    // parallel configuration so the comparison isolates the technique. The
    // one configuration all four can run on 8 Nanos is the straight
    // 8-stage pipeline (no intra-stage AllReduce, minimal per-device
    // weights) — which is also what makes the comparison fair to full
    // fine-tuning, whose 0.9 GB gradient AllReduce would otherwise dominate.
    let reference = pac_parallel::ParallelPlan::pipeline_even(
        CostModel::new(model.clone(), Technique::Full, 128)
            .layer_costs()
            .len(),
        cluster.len(),
    );
    let micro = cluster.len();

    for technique in Technique::all_paper() {
        let cost = CostModel::new(model.clone(), technique, 128);
        let sim = simulate_plan(
            &cluster,
            &cost,
            &reference,
            MINI_BATCH,
            micro,
            Schedule::OneFOneB,
        );
        rows.push(Fig8Row {
            label: technique.name().to_string(),
            per_sample_s: sim.makespan_s / MINI_BATCH as f64,
            peak_gb: sim.max_peak_bytes() as f64 / 1e9,
        });
    }

    // PA with activation cache: data parallelism over the side network.
    let cost = CostModel::new(model, Technique::parallel_default(), 128);
    let cached = simulate_cached_dp_step(&cluster, &cost, MINI_BATCH);
    rows.push(Fig8Row {
        label: "P.A. + cache".into(),
        per_sample_s: cached.step_s / MINI_BATCH as f64,
        peak_gb: cached.peak_bytes.iter().copied().max().unwrap_or(0) as f64 / 1e9,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_time_shape() {
        let rows = fig8();
        let get = |n: &str| rows.iter().find(|r| r.label.contains(n)).unwrap();
        let full = get("Full").per_sample_s;
        let pa = get("Parallel").per_sample_s;
        let cached = get("cache").per_sample_s;
        // Paper: PA −31.9% vs Full; PA+cache −96.4%.
        let saving = 1.0 - pa / full;
        assert!(saving > 0.15, "PA saving {saving:.2}");
        let cached_saving = 1.0 - cached / full;
        assert!(cached_saving > 0.75, "cached saving {cached_saving:.2}");
    }

    #[test]
    fn fig8_memory_shape() {
        let rows = fig8();
        let get = |n: &str| rows.iter().find(|r| r.label.contains(n)).unwrap();
        // Paper: PA −25.3% peak memory vs baselines; with cache −74.6%.
        assert!(get("Parallel").peak_gb < get("Adapters").peak_gb);
        let reduction = 1.0 - get("cache").peak_gb / get("Full").peak_gb;
        assert!(reduction > 0.6, "cache memory reduction {reduction:.2}");
    }
}
