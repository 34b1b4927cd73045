//! Cross-crate integration tests: the substrates must agree with each
//! other where their domains overlap.

use pac_cluster::{Cluster, CollectiveModel, CostModel, LinkSpec};
use pac_core::prelude::*;
use pac_core::systems::{estimate_cell, System};
use pac_nn::Module;
use pac_parallel::{simulate_plan, ParallelPlan, Schedule};
use pac_peft::memory::{MemoryModel, Phase};
use pac_planner::{Planner, Profile};
use pac_tensor::rng::seeded;

/// The analytic technique accounting (pac-peft) and the real tuners must
/// agree on trainable-parameter counts for every technique.
#[test]
fn analytic_and_real_trainable_params_agree() {
    let cfg = ModelConfig::micro(2, 2, 32, 4);
    for technique in Technique::all_paper() {
        let tuner = Tuner::new(technique, &cfg, 2, &mut seeded(1));
        let analytic = technique.trainable_params(&cfg);
        let real = tuner.num_trainable();
        // The analytic model omits task-head and bias minutiae; require
        // agreement within 35% (exact for the structurally simple ones).
        let ratio = real as f64 / analytic as f64;
        assert!(
            (0.65..1.45).contains(&ratio),
            "{}: analytic {analytic} vs real {real}",
            technique.name()
        );
    }
}

/// The cost model's per-layer weight bytes must sum to the config's total
/// parameter count (minus embeddings, which the cost model charges to the
/// pipeline endpoints).
#[test]
fn cost_model_weights_match_config_totals() {
    for model in ModelConfig::paper_models() {
        let cost = CostModel::new(model.clone(), Technique::Full, 128);
        let layer_bytes: usize = cost.layer_costs().iter().map(|l| l.weight_bytes).sum();
        let expected = model.weight_bytes() - model.embedding_params() * 4;
        let diff = (layer_bytes as f64 - expected as f64).abs() / expected as f64;
        assert!(diff < 0.01, "{}: {layer_bytes} vs {expected}", model.name);
    }
}

/// The planner's DP feasibility must agree with the memory accountant: a
/// T5-Large full-fine-tuning replica exceeds one Nano in both views.
#[test]
fn planner_and_memory_model_agree_on_feasibility() {
    let nano = Cluster::nanos(1);
    let mm = MemoryModel::paper_defaults(ModelConfig::t5_large(), Technique::Full);
    assert!(mm.breakdown(Phase::Training).total() > nano.devices[0].usable_memory);
    let cost = CostModel::new(ModelConfig::t5_large(), Technique::Full, 128);
    assert!(Planner::paper_defaults(nano, 16).plan(&cost).is_none());
}

/// A measured (wall-clock) profile must produce a structurally valid plan
/// just like an analytic one.
#[test]
fn measured_profile_plans_successfully() {
    let cfg = ModelConfig::micro(4, 0, 16, 2);
    let model = pac_model::EncoderModel::new(&cfg, 2, &mut seeded(2));
    let batch: Vec<Vec<usize>> = (0..2).map(|i| vec![i + 1; 6]).collect();
    let profile = Profile::measure_micro(&model, &batch, 2);
    assert_eq!(profile.num_layers(), 4);

    let cluster = Cluster::nanos(2);
    let cost = CostModel::new(cfg, Technique::parallel_default(), 6);
    let planner = Planner::paper_defaults(cluster, 4);
    let outcome = planner
        .plan_from_profile(&cost, &profile)
        .expect("measured profile must be plannable");
    assert!(outcome.best.validate(4, 2).is_ok());
}

/// Cache bytes reported by the live cache must match the analytic
/// prediction used by the storage-cost analysis (§5.2).
#[test]
fn cache_bytes_match_prediction() {
    let hidden = 16usize;
    let mut cache = ActivationCache::new();
    let s = 7usize;
    for id in 0..5u64 {
        let acts: Vec<pac_tensor::Tensor> = (0..3)
            .map(|_| pac_tensor::Tensor::zeros([1, s, hidden]))
            .collect();
        cache.insert(id, acts);
    }
    let predicted = ActivationCache::predicted_bytes(5, s, hidden, 3);
    assert_eq!(cache.stats().bytes, predicted);
}

/// Simulated AllReduce cost must be consistent between the collective model
/// and the DP engine's payload.
#[test]
fn allreduce_payload_consistency() {
    let cfg = ModelConfig::t5_base();
    let technique = Technique::parallel_default();
    let cost = CostModel::new(cfg.clone(), technique, 128);
    let payload = cost.trainable_bytes_total();
    assert_eq!(payload, technique.trainable_params(&cfg) * 4);
    let coll = CollectiveModel::new(LinkSpec::lan_128mbps());
    let t2 = coll.allreduce_time(2, payload);
    let t8 = coll.allreduce_time(8, payload);
    assert!(t8 >= t2 * 0.8);
    assert!(t8 < 2.5 * LinkSpec::lan_128mbps().transfer_time(payload));
}

/// The Table 2 estimator must agree with direct simulation for a baseline
/// cell (EDDL: steps × epochs × step time).
#[test]
fn table2_cell_matches_direct_simulation() {
    let cluster = Cluster::nanos(8);
    let model = ModelConfig::t5_base();
    let technique = Technique::adapters_default();
    let cell = estimate_cell(System::Eddl, technique, &model, TaskKind::Sst2, &cluster)
        .hours()
        .expect("EDDL runs T5-Base");
    let cost = CostModel::new(model, technique, 128);
    let step = pac_parallel::simulate_data_parallel(&cluster, &cost, 16).step_s;
    let steps = TaskKind::Sst2.train_size().div_ceil(16);
    let expected = step * steps as f64 / 3600.0; // 1 epoch
    assert!((cell - expected).abs() / expected < 1e-9);
}

/// Every plan the planner emits must validate and re-simulate to the same
/// makespan it reported.
#[test]
fn every_planned_configuration_simulates() {
    for n in 2..=8usize {
        let cluster = Cluster::nanos(n);
        let cost = CostModel::new(
            ModelConfig::bart_large(),
            Technique::parallel_default(),
            128,
        );
        if let Some(outcome) = Planner::paper_defaults(cluster.clone(), n).plan(&cost) {
            let layers = cost.layer_costs().len();
            assert!(outcome.best.validate(layers, n).is_ok(), "n={n}");
            let sim = simulate_plan(
                &cluster,
                &cost,
                &outcome.best,
                n,
                outcome.best_micro_batches,
                Schedule::OneFOneB,
            );
            assert!(
                (sim.makespan_s - outcome.best_makespan_s).abs() < 1e-9,
                "n={n}"
            );
        }
    }
}

/// Degenerate plans recover the baseline systems exactly.
#[test]
fn degenerate_plans_recover_baselines() {
    let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
    let layers = cost.layer_costs().len();
    let dp = ParallelPlan::data_parallel(layers, 4);
    assert_eq!(dp.num_stages(), 1);
    assert_eq!(dp.stages[0].group_size(), 4);
    let pp = ParallelPlan::pipeline_even(layers, 4);
    assert_eq!(pp.num_stages(), 4);
    assert!(pp.stages.iter().all(|s| s.group_size() == 1));
}

/// Full end-to-end consistency of the PAC session report.
#[test]
fn session_reports_are_internally_consistent() {
    let cfg = ModelConfig::micro(1, 1, 16, 2);
    let session = PacSession::new(PacConfig {
        devices: 2,
        epochs: 2,
        batch_size: 4,
        reduction: 4,
        lr: 1e-2,
        seed: 3,
        checkpoint_every: 4,
    });
    let report = session.run(&cfg, TaskKind::Sst2, 16, 8).unwrap();
    assert!(report.trainable_params < report.total_params);
    assert!((0.0..=100.0).contains(&report.metric));
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(report.cache_stats.entries <= 16);
}
