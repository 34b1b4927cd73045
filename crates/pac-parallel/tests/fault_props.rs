//! Property-based test: degraded-lane gradient averaging. When the
//! AllReduce drops an unreachable lane, the survivors' averaged gradient
//! must equal the monolithic gradient over the surviving rows — for any
//! replica count and any dead lane.

use pac_model::ModelConfig;
use pac_nn::{cross_entropy, Module};
use pac_parallel::engine::{dp_step_tokens_supervised, MAX_ALLREDUCE_RETRIES};
use pac_parallel::faults::{Fault, FaultClock, FaultPlan};
use pac_peft::{Technique, Tuner};
use pac_tensor::rng::seeded;
use pac_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng as _;

fn shard(seed: u64, rows: usize, seq: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut rng = seeded(seed);
    let toks = (0..rows)
        .map(|_| (0..seq).map(|_| rng.gen_range(0..64)).collect())
        .collect();
    let targets = (0..rows).map(|_| rng.gen_range(0..2)).collect();
    (toks, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn degraded_averaging_matches_monolithic_on_surviving_rows(
        n in 2usize..5,
        dead_sel in 0usize..100,
        seed in 0u64..1_000,
    ) {
        let dead = dead_sel % n;
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let base = Tuner::new(Technique::adapters_default(), &cfg, 2, &mut seeded(seed));
        let shards: Vec<_> = (0..n).map(|k| shard(seed * 31 + k as u64, 2, 4)).collect();

        // Monolithic reference over every row except the dead lane's.
        let mut mono = base.clone();
        let tokens: Vec<Vec<usize>> = shards
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != dead)
            .flat_map(|(_, (t, _))| t.clone())
            .collect();
        let targets: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != dead)
            .flat_map(|(_, (_, y))| y.clone())
            .collect();
        let (logits, ctx) = mono.forward(&tokens).unwrap();
        let (_, dl) = cross_entropy(&logits, &targets).unwrap();
        mono.backward(&ctx, &dl).unwrap();
        let mut expected: Vec<Tensor> = Vec::new();
        mono.visit_params_ref(&mut |p| {
            if p.trainable {
                expected.push(p.grad.clone());
            }
        });

        // Supervised DP step whose AllReduce exhausts its retries with
        // `dead` unreachable.
        let mut replicas = vec![base; n];
        let plan = FaultPlan::none().with(Fault::AllReduceTransient {
            step: 0,
            failures: MAX_ALLREDUCE_RETRIES + 1,
            lane: Some(dead),
        });
        let clock = FaultClock::new(plan);
        clock.advance();
        let (out, _) = dp_step_tokens_supervised(&mut replicas, &shards, &clock).unwrap();
        prop_assert_eq!(out.dropped_lane, Some(dead));

        for (k, r) in replicas.iter().enumerate() {
            if k == dead {
                continue;
            }
            let mut idx = 0usize;
            let mut worst = 0.0f32;
            r.visit_params_ref(&mut |p| {
                if p.trainable {
                    worst = worst.max(p.grad.sub(&expected[idx]).unwrap().norm());
                    idx += 1;
                }
            });
            prop_assert!(worst < 1e-4, "survivor {k} grad off by {worst}");
        }
    }
}
