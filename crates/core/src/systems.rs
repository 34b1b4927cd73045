//! Simulated end-to-end training-time estimation — the machinery behind
//! Table 2 (training hours with OOM verdicts) and Figures 9/11.

use pac_cluster::{Cluster, CollectiveModel, CostModel};
use pac_data::TaskKind;
use pac_model::ModelConfig;
use pac_parallel::{
    simulate::{simulate_cached_dp_step, simulate_ecofl},
    simulate_data_parallel, simulate_plan, ParallelPlan, Schedule,
};
use pac_peft::{ActivationCache, Technique};
use pac_planner::Planner;

/// The training systems compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Single-device fine-tuning.
    Standalone,
    /// Eco-FL (Ye et al. 2022): straight pipeline parallelism, one stage
    /// per device, GPipe-style flush.
    EcoFl,
    /// EDDL (Hao & Zhang 2021): pure data parallelism, full replica per
    /// device.
    Eddl,
    /// PAC (this paper): planner-chosen hybrid parallelism with 1F1B, plus
    /// the activation cache for epochs ≥ 2.
    Pac,
}

impl System {
    /// Display name as in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            System::Standalone => "Standalone",
            System::EcoFl => "Eco-FL",
            System::Eddl => "EDDL",
            System::Pac => "PAC (Ours)",
        }
    }

    /// The baselines in Table 2 row order.
    pub fn baselines() -> [System; 3] {
        [System::Standalone, System::EcoFl, System::Eddl]
    }
}

/// One Table-2 cell: either a simulated duration or an OOM verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellResult {
    /// Training completes in this many hours.
    Hours(f64),
    /// At least one device exceeds its memory capacity.
    Oom,
}

impl CellResult {
    /// The duration, if feasible.
    pub fn hours(&self) -> Option<f64> {
        match self {
            CellResult::Hours(h) => Some(*h),
            CellResult::Oom => None,
        }
    }

    /// Formats like the paper's tables (`"0.14"` or `"OOM"`).
    pub fn display(&self) -> String {
        match self {
            CellResult::Hours(h) => format!("{h:.2}"),
            CellResult::Oom => "OOM".into(),
        }
    }
}

/// Evaluation geometry shared by the Table 2 experiments.
const MINI_BATCH: usize = 16;
const SEQ_LEN: usize = 128;

fn steps_per_epoch(task: TaskKind) -> usize {
    task.train_size().div_ceil(MINI_BATCH)
}

/// Redistribution time between PAC phase 1 and phase 2 (paper §5.2): an
/// allgather of the adapter parameters plus reshuffling each device's
/// locally-cached activations to the data-parallel sharding.
fn redistribution_time(cluster: &Cluster, cost: &CostModel, n_samples: usize) -> f64 {
    let n = cluster.len();
    if n <= 1 {
        return 0.0;
    }
    let coll = CollectiveModel::new(cluster.link);
    let params = coll.allgather_time(n, cost.trainable_bytes_total());
    let cache_bytes = ActivationCache::predicted_bytes(
        n_samples,
        cost.seq,
        cost.config.hidden,
        cost.config.enc_layers,
    ) + ActivationCache::predicted_bytes(
        n_samples,
        cost.dec_seq,
        cost.config.hidden,
        cost.config.dec_layers,
    );
    // Each device keeps ~1/n of the cache and fetches nothing it already
    // holds; cross-device moves are ~(n−1)/n of the total, spread over n
    // parallel links.
    let moved = cache_bytes as f64 * (n - 1) as f64 / (n * n) as f64;
    params + moved * 8.0 / cluster.link.bandwidth_bps
}

/// Estimates one (system, technique, model, task) cell on `cluster`.
///
/// Returns the simulated total training time for the paper's epoch counts
/// (3 for MRPC/STS-B, 1 for SST-2/QNLI), or [`CellResult::Oom`].
pub fn estimate_cell(
    system: System,
    technique: Technique,
    model: &ModelConfig,
    task: TaskKind,
    cluster: &Cluster,
) -> CellResult {
    let cost = CostModel::new(model.clone(), technique, SEQ_LEN);
    let steps = steps_per_epoch(task);
    let epochs = task.paper_epochs();
    let limit = cluster
        .devices
        .iter()
        .map(|d| d.usable_memory)
        .min()
        .unwrap_or(0);
    let layers = cost.layer_costs().len();

    let step_time: f64 = match system {
        System::Standalone => {
            let single = Cluster {
                devices: vec![cluster.devices[0].clone()],
                link: cluster.link,
            };
            // Gradient accumulation over small micro-batches keeps the
            // activation working set feasible on one device.
            let plan = ParallelPlan::standalone(layers);
            let sim = simulate_plan(&single, &cost, &plan, MINI_BATCH, 8, Schedule::OneFOneB);
            if sim.oom_stage(limit).is_some() {
                return CellResult::Oom;
            }
            sim.makespan_s
        }
        System::EcoFl => {
            // Eco-FL caps in-flight micro-batches to fit memory (§6.2).
            let Some(sim) = simulate_ecofl(cluster, &cost, MINI_BATCH, cluster.len()) else {
                return CellResult::Oom;
            };
            sim.makespan_s
        }
        System::Eddl => {
            let sim = simulate_data_parallel(cluster, &cost, MINI_BATCH);
            if sim.oom_device(limit).is_some() {
                return CellResult::Oom;
            }
            sim.step_s
        }
        System::Pac => {
            let planner = Planner::paper_defaults(cluster.clone(), MINI_BATCH);
            let Some(outcome) = planner.plan(&cost) else {
                return CellResult::Oom;
            };
            // Epoch 1 at the planned hybrid configuration.
            let epoch1 = outcome.best_makespan_s * steps as f64;
            if epochs == 1 || !technique.supports_activation_cache() {
                return CellResult::Hours(epoch1 * epochs as f64 / 3600.0);
            }
            // Epochs ≥ 2 from the activation cache, after redistribution.
            let cached = simulate_cached_dp_step(cluster, &cost, MINI_BATCH);
            if cached.oom_device(limit).is_some() {
                return CellResult::Oom;
            }
            let redistribute = redistribution_time(cluster, &cost, task.train_size());
            let total = epoch1 + redistribute + cached.step_s * steps as f64 * (epochs - 1) as f64;
            return CellResult::Hours(total / 3600.0);
        }
    };

    CellResult::Hours(step_time * steps as f64 * epochs as f64 / 3600.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nanos8() -> Cluster {
        Cluster::nanos(8)
    }

    #[test]
    fn full_fine_tuning_ooms_everywhere_like_table2_row1() {
        // Table 2: Full × Standalone/EDDL = OOM on all models; Eco-FL OOMs
        // on T5-Large.
        for model in ModelConfig::paper_models() {
            for system in [System::Standalone, System::Eddl] {
                let r = estimate_cell(system, Technique::Full, &model, TaskKind::Mrpc, &nanos8());
                assert_eq!(
                    r,
                    CellResult::Oom,
                    "{} × Full × {}",
                    system.name(),
                    model.name
                );
            }
        }
        let r = estimate_cell(
            System::EcoFl,
            Technique::Full,
            &ModelConfig::t5_large(),
            TaskKind::Mrpc,
            &nanos8(),
        );
        assert_eq!(r, CellResult::Oom, "Eco-FL × Full × T5-Large");
    }

    #[test]
    fn eddl_with_peft_runs_t5_base_but_ooms_on_larger() {
        let r = estimate_cell(
            System::Eddl,
            Technique::adapters_default(),
            &ModelConfig::t5_base(),
            TaskKind::Mrpc,
            &nanos8(),
        );
        assert!(r.hours().is_some(), "EDDL × Adapters × T5-Base should run");
        for model in [ModelConfig::bart_large(), ModelConfig::t5_large()] {
            let r = estimate_cell(
                System::Eddl,
                Technique::adapters_default(),
                &model,
                TaskKind::Mrpc,
                &nanos8(),
            );
            assert_eq!(r, CellResult::Oom, "EDDL × Adapters × {}", model.name);
        }
    }

    #[test]
    fn pac_is_fastest_on_mrpc_t5_base() {
        // Table 2 column 1: PAC 0.14 h beats Eco-FL×Adapters 0.39 h,
        // EDDL×Adapters 0.34 h and Standalone×Adapters 1.21 h.
        let cluster = nanos8();
        let model = ModelConfig::t5_base();
        let pac = estimate_cell(
            System::Pac,
            Technique::parallel_default(),
            &model,
            TaskKind::Mrpc,
            &cluster,
        )
        .hours()
        .expect("PAC must run");
        for (system, technique) in [
            (System::Standalone, Technique::adapters_default()),
            (System::EcoFl, Technique::adapters_default()),
            (System::Eddl, Technique::adapters_default()),
            (System::EcoFl, Technique::lora_default()),
            (System::Eddl, Technique::lora_default()),
        ] {
            if let Some(h) =
                estimate_cell(system, technique, &model, TaskKind::Mrpc, &cluster).hours()
            {
                assert!(
                    pac < h,
                    "PAC {pac:.3} h not faster than {} × {} at {h:.3} h",
                    system.name(),
                    technique.name()
                );
            }
        }
    }

    #[test]
    fn pac_speedup_over_standalone_is_paper_scale() {
        // The paper's headline: up to 8.64× faster than Standalone+PEFT on
        // the cached datasets. Expect a large multiple (≥ 4×).
        let cluster = nanos8();
        let model = ModelConfig::t5_base();
        let pac = estimate_cell(
            System::Pac,
            Technique::parallel_default(),
            &model,
            TaskKind::Mrpc,
            &cluster,
        )
        .hours()
        .unwrap();
        let standalone = estimate_cell(
            System::Standalone,
            Technique::adapters_default(),
            &model,
            TaskKind::Mrpc,
            &cluster,
        )
        .hours()
        .unwrap();
        let speedup = standalone / pac;
        assert!(speedup > 4.0, "speedup only {speedup:.2}×");
    }

    #[test]
    fn large_datasets_take_proportionally_longer() {
        let cluster = nanos8();
        let model = ModelConfig::t5_base();
        let mrpc = estimate_cell(
            System::Pac,
            Technique::parallel_default(),
            &model,
            TaskKind::Mrpc,
            &cluster,
        )
        .hours()
        .unwrap();
        let qnli = estimate_cell(
            System::Pac,
            Technique::parallel_default(),
            &model,
            TaskKind::Qnli,
            &cluster,
        )
        .hours()
        .unwrap();
        // QNLI is 28× more data but only 1 epoch (vs 3, 2 cached): expect
        // roughly an order of magnitude more time.
        assert!(qnli > 4.0 * mrpc, "qnli {qnli} vs mrpc {mrpc}");
    }

    #[test]
    fn redistribution_is_small_fraction_of_training() {
        // Paper §5.2: redistribution ≈ 8% of a 3-epoch BART-Large MRPC run.
        let cluster = nanos8();
        let cost = CostModel::new(
            ModelConfig::bart_large(),
            Technique::parallel_default(),
            SEQ_LEN,
        );
        let redist = redistribution_time(&cluster, &cost, TaskKind::Mrpc.train_size());
        let total = estimate_cell(
            System::Pac,
            Technique::parallel_default(),
            &ModelConfig::bart_large(),
            TaskKind::Mrpc,
            &cluster,
        )
        .hours()
        .expect("PAC BART-Large must run")
            * 3600.0;
        let fraction = redist / total;
        assert!(
            (0.005..0.30).contains(&fraction),
            "redistribution fraction {fraction}"
        );
    }

    #[test]
    fn cell_display_formats() {
        assert_eq!(CellResult::Oom.display(), "OOM");
        assert_eq!(CellResult::Hours(0.141).display(), "0.14");
        assert_eq!(CellResult::Hours(0.141).hours(), Some(0.141));
        assert_eq!(CellResult::Oom.hours(), None);
    }
}
