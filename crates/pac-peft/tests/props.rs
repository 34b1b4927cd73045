//! Property-based tests for PEFT invariants: freezing, caching and
//! checkpointing must hold for arbitrary (sane) configurations.

use pac_model::ModelConfig;
use pac_nn::{cross_entropy, Module};
use pac_peft::{ActivationCache, Technique, TrainCheckpoint, Tuner};
use pac_tensor::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

fn arb_micro() -> impl Strategy<Value = ModelConfig> {
    (1usize..3, 1usize..3, prop_oneof![Just(16usize), Just(32)])
        .prop_map(|(e, d, h)| ModelConfig::micro(e, d, h, 2))
}

fn arb_technique() -> impl Strategy<Value = Technique> {
    prop_oneof![
        Just(Technique::Full),
        (2usize..8).prop_map(|reduction| Technique::Adapters { reduction }),
        (1usize..4).prop_map(|rank| Technique::Lora { rank }),
        (2usize..8).prop_map(|reduction| Technique::ParallelAdapters { reduction }),
    ]
}

fn toks(seed: u64, b: usize, s: usize) -> Vec<Vec<usize>> {
    let mut rng = seeded(seed);
    (0..b)
        .map(|_| (0..s).map(|_| rng.gen_range(0..64)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every technique: one training step never changes a frozen
    /// parameter, and always changes at least one trainable parameter.
    #[test]
    fn frozen_stays_frozen_trainable_moves(
        model in arb_micro(),
        technique in arb_technique(),
        seed in 0u64..500,
    ) {
        let mut tuner = Tuner::new(technique, &model, 2, &mut seeded(seed));
        let frozen_before: Vec<f32> = {
            let mut v = Vec::new();
            tuner.visit_params_ref(&mut |p| {
                if !p.trainable {
                    v.extend_from_slice(p.value.data());
                }
            });
            v
        };
        let batch = toks(seed.wrapping_add(1), 2, 4);
        let (logits, ctx) = tuner.forward(&batch).unwrap();
        let (_, dl) = cross_entropy(&logits, &[0, 1]).unwrap();
        tuner.zero_grads();
        tuner.backward(&ctx, &dl).unwrap();
        let mut opt = pac_nn::Adam::new(1e-2);
        use pac_nn::Optimizer;
        opt.step(&mut tuner);

        let mut frozen_after = Vec::new();
        let mut trainable_grad_norm = 0.0f32;
        tuner.visit_params_ref(&mut |p| {
            if !p.trainable {
                frozen_after.extend_from_slice(p.value.data());
            } else {
                trainable_grad_norm += p.grad.norm();
            }
        });
        prop_assert_eq!(frozen_before, frozen_after);
        prop_assert!(trainable_grad_norm > 0.0, "no trainable gradient at all");
    }

    /// Checkpoint round trips restore the exact function for every
    /// technique and micro architecture.
    #[test]
    fn checkpoint_round_trip_preserves_outputs(
        model in arb_micro(),
        technique in arb_technique(),
        seed in 0u64..500,
    ) {
        let mut donor = Tuner::new(technique, &model, 2, &mut seeded(seed));
        donor.visit_params(&mut |p| {
            if p.trainable {
                p.value.map_in_place(|v| v * 1.1 + 0.003);
            }
        });
        let bytes = TrainCheckpoint::capture(&donor, 0, 0, 0).to_bytes().unwrap();
        let mut recipient = Tuner::new(technique, &model, 2, &mut seeded(seed));
        TrainCheckpoint::from_bytes(&bytes).unwrap().restore(&mut recipient).unwrap();

        let batch = toks(seed.wrapping_add(9), 2, 4);
        let (a, _) = donor.forward(&batch).unwrap();
        let (b, _) = recipient.forward(&batch).unwrap();
        prop_assert!(a.approx_eq(&b, 0.0));
    }

    /// Cached and uncached Parallel-Adapters forwards agree exactly for
    /// arbitrary inputs and side widths.
    #[test]
    fn cache_equivalence_for_arbitrary_inputs(
        model in arb_micro(),
        reduction in 2usize..8,
        seed in 0u64..500,
        batch_size in 1usize..4,
    ) {
        let mut tuner = Tuner::new(
            Technique::ParallelAdapters { reduction },
            &model,
            2,
            &mut seeded(seed),
        );
        let batch = toks(seed.wrapping_add(2), batch_size, 5);
        let (full, ctx) = tuner.forward(&batch).unwrap();
        let acts = tuner.cacheable_acts(&ctx).unwrap().to_vec();
        let (cached, _) = tuner.forward_cached(&acts).unwrap();
        prop_assert!(full.approx_eq(&cached, 0.0));

        // And through the cache store/rebuild path.
        let mut cache = ActivationCache::new();
        let ids: Vec<u64> = (0..batch_size as u64).collect();
        cache.insert_batch(&ids, &acts);
        let rebuilt = cache.get_batch(&ids).unwrap();
        let (via_cache, _) = tuner.forward_cached(&rebuilt).unwrap();
        prop_assert!(full.approx_eq(&via_cache, 0.0));
    }

    /// Trainable-parameter monotonicity: a larger adapter budget never
    /// trains fewer parameters.
    #[test]
    fn adapter_budget_is_monotone(model in arb_micro(), k in 2usize..8) {
        let small = Technique::Adapters { reduction: k + 1 }.trainable_params(&model);
        let big = Technique::Adapters { reduction: k }.trainable_params(&model);
        prop_assert!(big >= small);
        let pa_small = Technique::ParallelAdapters { reduction: k + 1 }.trainable_params(&model);
        let pa_big = Technique::ParallelAdapters { reduction: k }.trainable_params(&model);
        prop_assert!(pa_big >= pa_small);
    }
}
