//! Real data-parallel training with AllReduce-style gradient averaging.
//!
//! Each replica ("device") computes gradients on its shard in parallel
//! (Rayon); [`allreduce_mean`] then averages the gradients across replicas
//! and writes the result back into every replica — semantically a ring
//! AllReduce. With equal shard sizes this is bit-for-bit the mean-gradient
//! of the concatenated batch, which the tests verify against single-device
//! training. Shards of unequal size (a batch its lanes do not divide) are
//! row-weighted: a lane's loss gradient is scaled by its share of the rows
//! times the lane count before the mean, a factor of exactly 1.0 when the
//! shares are equal, so the equal-share bits do not move. A lane with no
//! rows computes nothing and weighs nothing.
//!
//! Replica work runs under `catch_unwind`, so a crashing lane surfaces as
//! [`EngineError::LanePanic`] attributed to its position instead of
//! tearing the process down. The step injects nothing: faults are the
//! pac-net coordinator's.

use crate::engine::error::{EngineError, EngineResult};
use pac_nn::{cross_entropy, mse, Module};
use pac_peft::Tuner;
use pac_tensor::{Tensor, TensorError};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs lane `lane`'s shard compute under `catch_unwind`: a panic comes
/// back as [`EngineError::LanePanic`] attributed to the lane.
fn supervised_lane<T, F>(lane: usize, compute: F) -> EngineResult<T>
where
    F: FnOnce() -> EngineResult<T>,
{
    match catch_unwind(AssertUnwindSafe(compute)) {
        Ok(r) => r,
        Err(payload) => Err(EngineError::LanePanic {
            lane,
            stage: None,
            step: 0,
            message: EngineError::panic_message(payload.as_ref()),
        }),
    }
}

/// Folds per-lane results into the surviving lanes' values (kept even
/// when a lane died, so an engine stays usable for recovery) and the most
/// attributable error: a panic beats anything else, and a disconnection —
/// what a panic causes in the lanes around it — ranks below everything.
pub(crate) fn fold_lanes<T>(results: Vec<EngineResult<T>>) -> (Vec<T>, EngineResult<()>) {
    let mut values = Vec::with_capacity(results.len());
    let mut error: Option<EngineError> = None;
    for r in results {
        match r {
            Ok(l) => values.push(l),
            Err(e) => {
                let replace = match (&error, &e) {
                    (None, _) => true,
                    (Some(EngineError::LanePanic { .. }), _) => false,
                    (_, EngineError::LanePanic { .. }) => true,
                    (Some(EngineError::Disconnected { .. }), _) => true,
                    _ => false,
                };
                if replace {
                    error = Some(e);
                }
            }
        }
    }
    (values, error.map_or(Ok(()), Err))
}

/// Averages trainable gradients across replicas in place (AllReduce-mean).
///
/// Replicas must have identical parameter structure.
///
/// # Errors
/// Returns a tensor error if replicas disagree on parameter shapes.
pub fn allreduce_mean<M: Module>(replicas: &mut [M]) -> EngineResult<()> {
    if replicas.len() <= 1 {
        return Ok(());
    }
    let mut group: Vec<&mut M> = replicas.iter_mut().collect();
    let _span = pac_telemetry::span("allreduce");
    allreduce_group(&mut group)
}

/// AllReduce-mean across a group of replicas (trainable params only):
/// `sum = g0; sum += g1; …; sum *= 1/n` in group order, written back to
/// every member. This float-op order is the contract the distributed ring
/// collective reproduces on every rank.
///
/// # Errors
/// Returns a tensor error if replicas disagree on parameter shapes.
pub(crate) fn allreduce_group<M: Module>(group: &mut [&mut M]) -> EngineResult<()> {
    let n = group.len();
    if n <= 1 {
        return Ok(());
    }
    let mut sums: Vec<Tensor> = Vec::new();
    let mut shape_err: Option<TensorError> = None;
    for (gi, r) in group.iter().enumerate() {
        let mut idx = 0usize;
        r.visit_params_ref(&mut |p| {
            if !p.trainable || shape_err.is_some() {
                return;
            }
            if gi == 0 {
                sums.push(p.grad.clone());
            } else if let Err(e) = sums[idx].add_assign(&p.grad) {
                shape_err = Some(e);
            }
            idx += 1;
        });
    }
    if let Some(e) = shape_err {
        return Err(EngineError::Tensor(e));
    }
    let inv = 1.0 / n as f32;
    for s in &mut sums {
        s.scale_in_place(inv);
    }
    if pac_telemetry::enabled() {
        // Logical comms volume: every lane ships its full gradient set into
        // the reduction (what a ring AllReduce moves, up to the 2(n−1)/n
        // factor accounted in the cost model).
        let payload: usize = sums.iter().map(Tensor::size_bytes).sum();
        pac_telemetry::counter_add("allreduce.bytes", (payload * n) as u64);
        pac_telemetry::counter_inc("allreduce.reductions");
    }
    for r in group.iter_mut() {
        let mut idx = 0usize;
        r.visit_params(&mut |p| {
            if !p.trainable {
                return;
            }
            p.grad = sums[idx].clone();
            idx += 1;
        });
    }
    Ok(())
}

/// Each lane's weight in a step's means: its share of the step's rows (its
/// target count) times the lane count. Equal shares weigh exactly 1.0
/// (`x / x`), so the weighted means are bitwise the plain ones.
fn lane_weights<T>(shards: &[(T, Vec<f32>)]) -> Vec<f32> {
    let total: usize = shards.iter().map(|(_, targets)| targets.len()).sum();
    shards
        .iter()
        .map(|(_, targets)| (targets.len() * shards.len()) as f32 / total.max(1) as f32)
        .collect()
}

/// A lane's loss on `logits` against `targets` and its gradient scaled by
/// the lane's `weight`: MSE on scores when `regression`, cross-entropy on
/// the classes the targets hold otherwise.
fn lane_loss(
    logits: &Tensor,
    targets: &[f32],
    regression: bool,
    weight: f32,
) -> EngineResult<(f32, Tensor)> {
    let (loss, mut dl) = if regression {
        let target = Tensor::from_vec(targets.to_vec(), [targets.len(), 1])?;
        mse(logits, &target)?
    } else {
        let classes: Vec<usize> = targets.iter().map(|&t| t as usize).collect();
        cross_entropy(logits, &classes)?
    };
    if weight != 1.0 {
        dl.scale_in_place(weight);
    }
    Ok((loss, dl))
}

/// One data-parallel step over token shards: each replica computes its
/// shard's gradient concurrently; gradients are then AllReduce-averaged.
///
/// `shards[k]` is `(tokens, class_targets)` for replica `k`. Returns the
/// mean loss across replicas.
///
/// # Errors
/// Returns an error if shard and replica counts differ or any forward
/// fails.
pub fn dp_step_tokens(
    replicas: &mut [Tuner],
    shards: &[(Vec<Vec<usize>>, Vec<usize>)],
) -> EngineResult<f32> {
    let shards: Vec<(Vec<Vec<usize>>, Vec<f32>)> = shards
        .iter()
        .map(|(tokens, classes)| (tokens.clone(), classes.iter().map(|&c| c as f32).collect()))
        .collect();
    dp_step_tokens_with_acts(replicas, &shards, false).map(|(loss, _)| loss)
}

/// [`dp_step_tokens`] for the session's epoch 1. `shards[k]` is
/// `(tokens, targets)`, the targets scores for MSE when `regression` and
/// class ids otherwise (as [`dp_step_cached`] takes them); shards may differ
/// in size, and may be empty (see the module docs).
///
/// Next to the mean loss it hands back, per lane, the backbone layer outputs
/// of that lane's forward ([`Tuner::cacheable_acts`]; empty for techniques
/// that produce none), so a caller filling an activation cache during
/// epoch 1 does not run the frozen backbone a second time.
///
/// # Errors
/// [`EngineError::LanePanic`] when a replica dies, [`EngineError::Tensor`]
/// on count/shape mismatches.
pub fn dp_step_tokens_with_acts(
    replicas: &mut [Tuner],
    shards: &[(Vec<Vec<usize>>, Vec<f32>)],
    regression: bool,
) -> EngineResult<(f32, Vec<Vec<Tensor>>)> {
    if replicas.len() != shards.len() || replicas.is_empty() {
        return Err(EngineError::Tensor(TensorError::ShapeMismatch {
            op: "dp_step_tokens",
            lhs: vec![replicas.len()],
            rhs: vec![shards.len()],
        }));
    }
    let weights = lane_weights(shards);
    let _span = pac_telemetry::span("dp.step_tokens");
    let results: Vec<EngineResult<(f32, Vec<Tensor>)>> = replicas
        .par_iter_mut()
        .zip(shards.par_iter())
        .zip(weights.par_iter())
        .enumerate()
        .map(|(k, ((tuner, (tokens, targets)), &weight))| {
            supervised_lane(k, || {
                if targets.is_empty() {
                    return Ok((0.0, Vec::new()));
                }
                let (logits, fwd) = tuner.forward(tokens)?;
                let (loss, dl) = lane_loss(&logits, targets, regression, weight)?;
                tuner.backward(&fwd, &dl)?;
                let acts = tuner
                    .cacheable_acts(&fwd)
                    .map_or_else(Vec::new, <[_]>::to_vec);
                Ok((loss, acts))
            })
        })
        .collect();
    let (values, verdict) = fold_lanes(results);
    verdict?;
    let (losses, lane_acts): (Vec<f32>, Vec<Vec<Tensor>>) = values.into_iter().unzip();
    allreduce_mean(replicas)?;
    Ok((mean(&losses, &weights), lane_acts))
}

/// Row-weighted mean of the lanes' losses, summed in lane order: the plain
/// mean, bit for bit, when every weight is 1.0.
fn mean(losses: &[f32], weights: &[f32]) -> f32 {
    losses.iter().zip(weights).map(|(l, w)| l * w).sum::<f32>() / losses.len() as f32
}

/// One cache-enabled data-parallel step (PAC epochs ≥ 2, paper §5.2): each
/// replica trains the Parallel-Adapters side network from its shard's
/// cached activations.
///
/// `shards[k]` is `(per-layer cached activations, targets)` for replica
/// `k`; `regression` selects MSE over cross-entropy. Shards may differ in
/// size, and may be empty (see the module docs).
///
/// # Errors
/// Returns an error on count mismatches or if a replica is not a
/// Parallel-Adapters tuner; [`EngineError::LanePanic`] when a replica dies.
pub fn dp_step_cached(
    replicas: &mut [Tuner],
    shards: &[(Vec<Tensor>, Vec<f32>)],
    regression: bool,
) -> EngineResult<f32> {
    if replicas.len() != shards.len() || replicas.is_empty() {
        return Err(EngineError::Tensor(TensorError::ShapeMismatch {
            op: "dp_step_cached",
            lhs: vec![replicas.len()],
            rhs: vec![shards.len()],
        }));
    }
    let weights = lane_weights(shards);
    let _span = pac_telemetry::span("dp.step_cached");
    let results: Vec<EngineResult<f32>> = replicas
        .par_iter_mut()
        .zip(shards.par_iter())
        .zip(weights.par_iter())
        .enumerate()
        .map(|(k, ((tuner, (acts, targets)), &weight))| {
            supervised_lane(k, || {
                if targets.is_empty() {
                    return Ok(0.0);
                }
                let (logits, fwd) = tuner.forward_cached(acts)?;
                let (loss, dl) = lane_loss(&logits, targets, regression, weight)?;
                tuner.backward(&fwd, &dl)?;
                Ok(loss)
            })
        })
        .collect();
    let (losses, verdict) = fold_lanes(results);
    verdict?;
    allreduce_mean(replicas)?;
    Ok(mean(&losses, &weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::ModelConfig;
    use pac_nn::{Adam, Optimizer};
    use pac_peft::Technique;
    use pac_tensor::rng::seeded;
    use rand::Rng as _;

    fn batch(seed: u64, b: usize, s: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut rng = seeded(seed);
        let toks = (0..b)
            .map(|_| (0..s).map(|_| rng.gen_range(0..64)).collect())
            .collect();
        let targets = (0..b).map(|_| rng.gen_range(0..2)).collect();
        (toks, targets)
    }

    /// Token shards with their class ids as the activation-returning step
    /// takes them.
    fn float(shards: &[(Vec<Vec<usize>>, Vec<usize>)]) -> Vec<(Vec<Vec<usize>>, Vec<f32>)> {
        shards
            .iter()
            .map(|(t, y)| (t.clone(), y.iter().map(|&c| c as f32).collect()))
            .collect()
    }

    #[test]
    fn dp_gradients_match_single_device() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let base = Tuner::new(Technique::adapters_default(), &cfg, 2, &mut seeded(210));
        let (tokens, targets) = batch(211, 4, 5);

        // Single device, full batch.
        let mut single = base.clone();
        let (logits, ctx) = single.forward(&tokens).unwrap();
        let (_, dl) = cross_entropy(&logits, &targets).unwrap();
        single.backward(&ctx, &dl).unwrap();
        let mut expected: Vec<Tensor> = Vec::new();
        single.visit_params_ref(&mut |p| {
            if p.trainable {
                expected.push(p.grad.clone());
            }
        });

        // Two replicas, half batch each.
        let mut replicas = vec![base.clone(), base];
        let shards = vec![
            (tokens[..2].to_vec(), targets[..2].to_vec()),
            (tokens[2..].to_vec(), targets[2..].to_vec()),
        ];
        dp_step_tokens(&mut replicas, &shards).unwrap();

        for r in &replicas {
            let mut idx = 0usize;
            r.visit_params_ref(&mut |p| {
                if p.trainable {
                    assert!(
                        p.grad.approx_eq(&expected[idx], 1e-5),
                        "grad {idx} diverged: |Δ|={}",
                        p.grad.sub(&expected[idx]).unwrap().norm()
                    );
                    idx += 1;
                }
            });
        }
    }

    #[test]
    fn unequal_and_empty_shards_weigh_by_rows() {
        // Five rows over two and three lanes, one lane empty in the second
        // split: the row-weighted mean is the full batch's gradient and loss.
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let base = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(240));
        let (tokens, targets) = batch(241, 5, 4);
        let mut single = base.clone();
        let (logits, ctx) = single.forward(&tokens).unwrap();
        let (want_loss, dl) = cross_entropy(&logits, &targets).unwrap();
        single.backward(&ctx, &dl).unwrap();
        let mut expected: Vec<Tensor> = Vec::new();
        single.visit_params_ref(&mut |p| {
            if p.trainable {
                expected.push(p.grad.clone());
            }
        });
        for cuts in [vec![0, 3, 5], vec![0, 2, 5, 5]] {
            let shards: Vec<_> = cuts
                .windows(2)
                .map(|w| (tokens[w[0]..w[1]].to_vec(), targets[w[0]..w[1]].to_vec()))
                .collect();
            let mut replicas = vec![base.clone(); shards.len()];
            let loss = dp_step_tokens(&mut replicas, &shards).unwrap();
            assert!(
                (loss - want_loss).abs() < 1e-5,
                "{cuts:?}: {loss} vs {want_loss}"
            );
            let mut idx = 0usize;
            replicas[0].visit_params_ref(&mut |p| {
                if p.trainable {
                    assert!(
                        p.grad.approx_eq(&expected[idx], 1e-5),
                        "{cuts:?}: grad {idx}"
                    );
                    idx += 1;
                }
            });
        }
    }

    #[test]
    fn replicas_stay_in_sync_across_steps() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let base = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(212));
        let mut replicas = vec![base.clone(), base.clone(), base];
        let mut opts: Vec<Adam> = (0..3).map(|_| Adam::new(1e-2)).collect();
        for step in 0..3 {
            let shards: Vec<_> = (0..3).map(|k| batch(300 + step * 10 + k, 2, 4)).collect();
            for r in replicas.iter_mut() {
                r.zero_grads();
            }
            dp_step_tokens(&mut replicas, &shards).unwrap();
            for (r, o) in replicas.iter_mut().zip(opts.iter_mut()) {
                o.step(r);
            }
        }
        // All replicas must hold identical parameters after synced steps.
        let mut p0: Vec<Tensor> = Vec::new();
        replicas[0].visit_params_ref(&mut |p| p0.push(p.value.clone()));
        for r in &replicas[1..] {
            let mut idx = 0;
            r.visit_params_ref(&mut |p| {
                assert!(
                    p.value.approx_eq(&p0[idx], 1e-6),
                    "replica diverged at {idx}"
                );
                idx += 1;
            });
        }
    }

    #[test]
    fn cached_dp_trains_parallel_adapters() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let base = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(213));
        // Build cached activations by running the full forward once.
        let mut warm = base.clone();
        let (t0, y0) = batch(214, 2, 4);
        let (t1, y1) = batch(215, 2, 4);
        let (_, c0) = warm.forward(&t0).unwrap();
        let acts0 = warm.cacheable_acts(&c0).unwrap().to_vec();
        let (_, c1) = warm.forward(&t1).unwrap();
        let acts1 = warm.cacheable_acts(&c1).unwrap().to_vec();

        let mut replicas = vec![base.clone(), base];
        let shards = vec![
            (acts0, y0.iter().map(|&c| c as f32).collect::<Vec<f32>>()),
            (acts1, y1.iter().map(|&c| c as f32).collect::<Vec<f32>>()),
        ];
        let mut losses = Vec::new();
        let mut opts: Vec<Adam> = (0..2).map(|_| Adam::new(1e-2)).collect();
        for _ in 0..10 {
            for r in replicas.iter_mut() {
                r.zero_grads();
            }
            let l = dp_step_cached(&mut replicas, &shards, false).unwrap();
            losses.push(l);
            for (r, o) in replicas.iter_mut().zip(opts.iter_mut()) {
                o.step(r);
            }
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.9),
            "cached DP loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn an_empty_cached_lane_is_skipped_before_its_loss() {
        // A loss on zero rows is a shape error, so an empty shard must
        // compute nothing: the step's loss is then the other lane's, bit for
        // bit, for cross-entropy and for MSE (the token step's twin is
        // `unequal_and_empty_shards_weigh_by_rows`).
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        for (regression, n_out) in [(false, 2), (true, 1)] {
            let base = Tuner::new(Technique::parallel_default(), &cfg, n_out, &mut seeded(250));
            let (tokens, classes) = batch(251, 3, 4);
            let mut warm = base.clone();
            let (_, ctx) = warm.forward(&tokens).unwrap();
            let acts = warm.cacheable_acts(&ctx).unwrap().to_vec();
            let targets: Vec<f32> = classes.iter().map(|&c| c as f32).collect();
            let lane = (acts, targets);
            let alone =
                dp_step_cached(&mut [base.clone()], std::slice::from_ref(&lane), regression)
                    .unwrap();
            let shards = [lane, (Vec::new(), Vec::new())];
            let with_empty =
                dp_step_cached(&mut [base.clone(), base], &shards, regression).unwrap();
            assert!(alone.is_finite(), "regression {regression}");
            assert_eq!(
                with_empty.to_bits(),
                alone.to_bits(),
                "regression {regression}"
            );
        }
    }

    #[test]
    fn token_step_hands_back_each_lanes_forward_activations() {
        let bits = |ts: &[Tensor]| -> Vec<Vec<u32>> {
            ts.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let shards = vec![batch(231, 2, 4), batch(232, 2, 4)];

        // Parallel Adapters: exactly the bits a stand-alone forward caches.
        let base = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(230));
        let mut replicas = vec![base.clone(), base.clone()];
        let (_, lane_acts) =
            dp_step_tokens_with_acts(&mut replicas, &float(&shards), false).unwrap();
        assert_eq!(lane_acts.len(), 2);
        for ((tokens, _), acts) in shards.iter().zip(&lane_acts) {
            let mut alone = base.clone();
            let (_, ctx) = alone.forward(tokens).unwrap();
            let want = alone.cacheable_acts(&ctx).expect("parallel adapters cache");
            assert_eq!(bits(acts), bits(want));
        }

        // A technique with nothing to cache hands back empty lanes.
        let plain = Tuner::new(Technique::adapters_default(), &cfg, 2, &mut seeded(230));
        let mut replicas = vec![plain.clone(), plain];
        let (_, lane_acts) =
            dp_step_tokens_with_acts(&mut replicas, &float(&shards), false).unwrap();
        assert!(lane_acts.iter().all(Vec::is_empty));
    }

    #[test]
    fn shard_count_mismatch_is_error() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let base = Tuner::new(Technique::Full, &cfg, 2, &mut seeded(216));
        let mut replicas = vec![base];
        let shards = vec![batch(217, 2, 4), batch(218, 2, 4)];
        assert!(dp_step_tokens(&mut replicas, &shards).is_err());
    }

    #[test]
    fn injected_replica_panic_is_caught_and_attributed() {
        // A lane whose compute panics comes back as a typed error naming
        // its position; a lane that returns normally is untouched.
        assert_eq!(supervised_lane(0, || Ok(7)).unwrap(), 7);
        let err = supervised_lane::<(), _>(1, || panic!("replica 1 lost its device"))
            .expect_err("a panicking lane must surface");
        match err {
            EngineError::LanePanic {
                lane,
                stage,
                message,
                ..
            } => {
                assert_eq!((lane, stage), (1, None));
                assert_eq!(message, "replica 1 lost its device");
            }
            other => panic!("expected LanePanic, got {other}"),
        }
    }
}
