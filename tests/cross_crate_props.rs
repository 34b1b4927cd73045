//! Property-based tests spanning crates: structural invariants that must
//! hold for *any* configuration, not just the paper's.

use pac_cluster::{Cluster, CostModel};
use pac_model::ModelConfig;
use pac_parallel::{
    schedule::{simulate_pipeline, Schedule, SimStage},
    simulate_plan, ParallelPlan,
};
use pac_peft::memory::{MemoryModel, Phase};
use pac_peft::Technique;
use pac_planner::{partition_for_stages, Planner, Profile};
use proptest::prelude::*;

fn arb_technique() -> impl Strategy<Value = Technique> {
    prop_oneof![
        Just(Technique::Full),
        (2usize..16).prop_map(|reduction| Technique::Adapters { reduction }),
        (1usize..64).prop_map(|rank| Technique::Lora { rank }),
        (2usize..16).prop_map(|reduction| Technique::ParallelAdapters { reduction }),
    ]
}

fn arb_model() -> impl Strategy<Value = ModelConfig> {
    (
        1usize..6,
        0usize..4,
        prop_oneof![Just(16usize), Just(32), Just(64)],
        Just(2usize),
    )
        .prop_map(|(e, d, h, heads)| ModelConfig::micro(e.max(1), d, h, heads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PEFT techniques with sane hyperparameters (rank/bottleneck well below
    /// the hidden size) always train fewer parameters than Full, and the
    /// trainable fraction is consistent with the raw count.
    #[test]
    fn peft_is_always_smaller_than_full(model in arb_model(), t in arb_technique()) {
        // Over-parameterized settings (e.g. LoRA rank > hidden/4 on a tiny
        // model) legitimately exceed the backbone; exclude them.
        let sane = match t {
            Technique::Lora { rank } => rank * 4 <= model.hidden,
            Technique::Adapters { reduction } | Technique::ParallelAdapters { reduction } => {
                reduction >= 2
            }
            Technique::Full => true,
        };
        prop_assume!(sane);
        let full = Technique::Full.trainable_params(&model);
        let this = t.trainable_params(&model);
        prop_assert!(this <= full);
        let frac = t.trainable_fraction(&model);
        prop_assert!((frac - this as f64 / full as f64).abs() < 1e-12);
    }

    /// Memory breakdowns are additive and monotone in batch size, for every
    /// technique and phase.
    #[test]
    fn memory_model_is_monotone_in_batch(
        model in arb_model(),
        t in arb_technique(),
        batch in 1usize..32,
        seq in 4usize..64,
    ) {
        let mm = |b: usize| MemoryModel {
            config: model.clone(),
            technique: t,
            batch: b,
            seq,
            dec_seq: 4,
            opt_bytes_per_param: 4,
        };
        for phase in [Phase::Training, Phase::CachedTraining, Phase::Inference] {
            let small = mm(batch).breakdown(phase);
            let big = mm(batch + 8).breakdown(phase);
            prop_assert_eq!(small.total(), small.weights + small.activations + small.gradients);
            prop_assert!(big.total() >= small.total());
        }
    }

    /// Even pipeline partitions always validate, for any layer/device combo.
    #[test]
    fn pipeline_even_always_validates(layers in 1usize..64, devices in 1usize..16) {
        let plan = ParallelPlan::pipeline_even(layers, devices);
        prop_assert!(plan.validate(layers, devices).is_ok());
        // Stage layer counts differ by at most one.
        let sizes: Vec<usize> = plan.stages.iter().map(|s| s.num_layers()).collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// The pipeline simulator respects fundamental bounds for arbitrary
    /// stage timings: makespan ≥ any stage's total work, 1F1B in-flight is
    /// bounded by pipeline depth, GPipe in-flight equals the micro count.
    #[test]
    fn simulator_bounds_hold(
        n_stages in 1usize..6,
        micro in 1usize..10,
        fwd in 0.1f64..5.0,
        bwd in 0.1f64..5.0,
        send in 0.0f64..1.0,
    ) {
        let stages = vec![SimStage {
            fwd_s: fwd,
            bwd_s: bwd,
            send_fwd_s: send,
            send_bwd_s: send,
            weight_bytes: 10,
            act_bytes_per_mb: 3,
            fixed_bytes: 1,
            allreduce_s: 0.0,
        }; n_stages];
        for schedule in [Schedule::OneFOneB, Schedule::GPipe] {
            let r = simulate_pipeline(&stages, micro, schedule);
            let stage_work = micro as f64 * (fwd + bwd);
            prop_assert!(r.makespan_s >= stage_work - 1e-9);
            match schedule {
                Schedule::GPipe => {
                    prop_assert!(r.peak_inflight.iter().all(|&p| p == micro));
                }
                Schedule::OneFOneB => {
                    for (s, &p) in r.peak_inflight.iter().enumerate() {
                        prop_assert!(p <= (n_stages - s).min(micro), "stage {s}: {p}");
                    }
                }
                Schedule::GPipeWave { wave } => {
                    prop_assert!(r.peak_inflight.iter().all(|&p| p <= wave.min(micro)));
                }
            }
            prop_assert!(r.bubble_fraction >= -1e-9 && r.bubble_fraction < 1.0);
        }
    }

    /// The partition DP, when it returns a plan, always returns a valid one
    /// whose bottleneck is positive and finite.
    #[test]
    fn partition_dp_output_is_always_valid(
        stages in 1usize..5,
        devices in 1usize..6,
        seq in 8usize..64,
    ) {
        let model = ModelConfig::t5_base();
        let cost = CostModel::new(model, Technique::parallel_default(), seq);
        let profile = Profile::from_cost_model(&cost);
        let cluster = Cluster::nanos(devices);
        if let Some((plan, t)) = partition_for_stages(&profile, &cluster, stages, 2.0, stages) {
            prop_assert!(plan.validate(profile.num_layers(), devices).is_ok());
            prop_assert!(t.is_finite() && t > 0.0);
            prop_assert_eq!(plan.num_stages(), stages);
        } else {
            // Refusals only for structurally impossible requests or OOM.
            prop_assert!(stages > devices || stages > profile.num_layers() || stages == 0 || devices == 1);
        }
    }

    /// Whatever plan the planner returns, simulating it under a *different*
    /// micro-batch count still yields a finite makespan and valid memory
    /// accounting (robustness of the stage builder).
    #[test]
    fn simulate_plan_total_is_finite_for_any_micro(
        devices in 2usize..6,
        micro in 1usize..12,
    ) {
        let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
        let cluster = Cluster::nanos(devices);
        if let Some(outcome) = Planner::paper_defaults(cluster.clone(), devices).plan(&cost) {
            let sim = simulate_plan(
                &cluster,
                &cost,
                &outcome.best,
                devices,
                micro,
                pac_parallel::Schedule::OneFOneB,
            );
            prop_assert!(sim.makespan_s.is_finite() && sim.makespan_s > 0.0);
            prop_assert_eq!(sim.peak_bytes.len(), outcome.best.num_stages());
        }
    }
}
