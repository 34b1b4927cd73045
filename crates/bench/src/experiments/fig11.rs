//! Figure 11: fine-tuning time with vs without the activation cache, as a
//! function of epoch count (MRPC, 8 Nanos).

use pac_cluster::{Cluster, CollectiveModel, CostModel};
use pac_data::TaskKind;
use pac_model::ModelConfig;
use pac_parallel::simulate::simulate_cached_dp_step;
use pac_peft::{ActivationCache, Technique};
use pac_planner::Planner;

/// One bar pair of Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Model label.
    pub model: String,
    /// Total epochs trained.
    pub epochs: usize,
    /// Total hours without the activation cache.
    pub no_cache_h: f64,
    /// Total hours with the cache (epoch 1 fills it).
    pub with_cache_h: f64,
    /// Relative time saved.
    pub reduction: f64,
}

const MINI_BATCH: usize = 16;

/// Computes Figure 11 for 1–10 epochs of MRPC on 8 Nanos, per paper model.
pub fn fig11() -> Vec<Fig11Row> {
    let cluster = Cluster::nanos(8);
    let steps = TaskKind::Mrpc.train_size().div_ceil(MINI_BATCH) as f64;
    let mut rows = Vec::new();
    for model in ModelConfig::paper_models() {
        let cost = CostModel::new(model.clone(), Technique::parallel_default(), 128);
        let planner = Planner::paper_defaults(cluster.clone(), MINI_BATCH);
        let Some(outcome) = planner.plan(&cost) else {
            continue;
        };
        let epoch_full = outcome.best_makespan_s * steps;
        let cached_step = simulate_cached_dp_step(&cluster, &cost, MINI_BATCH).step_s;
        let epoch_cached = cached_step * steps;
        // One-time redistribution of adapters + cache shards (§5.2).
        let coll = CollectiveModel::new(cluster.link);
        let cache_bytes = ActivationCache::predicted_bytes(
            TaskKind::Mrpc.train_size(),
            128,
            model.hidden,
            model.enc_layers,
        );
        // Cross-device cache moves: (n−1)/n of the bytes, over n links.
        let n = cluster.len() as f64;
        let moved = cache_bytes as f64 * (n - 1.0) / (n * n);
        let redistribute = coll.allgather_time(cluster.len(), cost.trainable_bytes_total())
            + moved * 8.0 / cluster.link.bandwidth_bps;

        for epochs in 1..=10usize {
            let no_cache = epoch_full * epochs as f64;
            let with_cache = if epochs == 1 {
                epoch_full
            } else {
                epoch_full + redistribute + epoch_cached * (epochs - 1) as f64
            };
            rows.push(Fig11Row {
                model: model.name.clone(),
                epochs,
                no_cache_h: no_cache / 3600.0,
                with_cache_h: with_cache / 3600.0,
                reduction: 1.0 - with_cache / no_cache,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_benefit_grows_with_epochs() {
        let rows = fig11();
        assert!(!rows.is_empty());
        let t5b: Vec<&Fig11Row> = rows.iter().filter(|r| r.model == "T5-Base").collect();
        assert_eq!(t5b.len(), 10);
        // Epoch 1: no benefit (the cache is being filled).
        assert!(t5b[0].reduction.abs() < 1e-9);
        // Reduction grows monotonically with epochs.
        for w in t5b.windows(2) {
            assert!(
                w[1].reduction >= w[0].reduction - 1e-9,
                "reduction regressed at {} epochs",
                w[1].epochs
            );
        }
        // Paper: up to ~79.5% per-epoch reduction, ~71% over 10 epochs.
        let ten = t5b[9].reduction;
        assert!(
            (0.4..0.95).contains(&ten),
            "10-epoch reduction {ten:.2} out of band"
        );
    }

    #[test]
    fn with_cache_never_slower() {
        for r in fig11() {
            assert!(
                r.with_cache_h <= r.no_cache_h + 1e-9,
                "{} @ {} epochs",
                r.model,
                r.epochs
            );
        }
    }
}
