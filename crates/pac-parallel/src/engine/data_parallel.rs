//! Real data-parallel training with AllReduce-style gradient averaging.
//!
//! Each replica ("device") computes gradients on its shard in parallel
//! (Rayon); [`allreduce_mean`] then averages the gradients across replicas
//! and writes the result back into every replica — semantically a ring
//! AllReduce. With equal shard sizes this is bit-for-bit the mean-gradient
//! of the concatenated batch, which the tests verify against single-device
//! training.
//!
//! Execution is supervised: replica work runs under `catch_unwind`, so a
//! crashing lane surfaces as [`EngineError::LanePanic`] instead of tearing
//! the process down. The `_supervised` steps inject a [`FaultClock`]'s lane
//! panics and stragglers, keyed by each replica's original lane id, for the
//! session's fail-stop/replan loop.

use crate::engine::error::{EngineError, EngineResult};
use crate::faults::{FaultClock, TimelineKind};
use pac_nn::{cross_entropy, mse, Module};
use pac_peft::Tuner;
use pac_tensor::{Tensor, TensorError};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Per-replica injection context for one supervised step.
struct LaneCtx {
    lane: usize,
    panic: bool,
    delay: Option<Duration>,
}

/// The injections of `step` for replica `k`, queried by its original lane
/// id `lanes[k]`; errors stay attributed to the position `k`.
fn lane_ctxs(lanes: &[usize], step: u64, clock: &FaultClock) -> Vec<LaneCtx> {
    lanes
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            let panic = clock.lane_panic(step, id);
            if panic {
                clock.note(step, TimelineKind::Injected, format!("lane {id} panics"));
            }
            let delay = clock.straggler_delay(step, id);
            if let Some(d) = delay {
                clock.note(
                    step,
                    TimelineKind::Injected,
                    format!("lane {id} straggles {}ms", d.as_millis()),
                );
            }
            LaneCtx {
                lane: k,
                panic,
                delay,
            }
        })
        .collect()
}

/// Runs one replica's shard compute under `catch_unwind`, applying the
/// lane's injections first.
fn supervised_lane<T, F>(ctx: &LaneCtx, step: u64, compute: F) -> EngineResult<T>
where
    F: FnOnce() -> EngineResult<T>,
{
    if let Some(d) = ctx.delay {
        std::thread::sleep(d);
    }
    let lane = ctx.lane;
    let inject = ctx.panic;
    match catch_unwind(AssertUnwindSafe(|| {
        if inject {
            panic!("injected fault: lane {lane} panics (step {step})");
        }
        compute()
    })) {
        Ok(r) => r,
        Err(payload) => Err(EngineError::LanePanic {
            lane,
            stage: None,
            step,
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
    let lanes: Vec<usize> = (0..replicas.len()).collect();
    let clock = FaultClock::quiet();
    clock.advance();
    dp_step_tokens_supervised(replicas, &lanes, shards, &clock).map(|(loss, _)| loss)
}

/// [`dp_step_tokens`] under a [`FaultClock`]: injects the clock's lane
/// panics and stragglers for the current step and catches lane panics.
/// `lanes[k]` is replica `k`'s original lane id, which the plan's faults
/// name; a failure is attributed to the position `k`.
///
/// Next to the mean loss it hands back, per lane, the backbone layer outputs
/// of that lane's forward ([`Tuner::cacheable_acts`]; empty for techniques
/// that produce none), so a caller filling an activation cache during
/// epoch 1 does not run the frozen backbone a second time.
///
/// # Errors
/// [`EngineError::LanePanic`] when a replica dies, [`EngineError::Tensor`]
/// on count/shape mismatches.
pub fn dp_step_tokens_supervised(
    replicas: &mut [Tuner],
    lanes: &[usize],
    shards: &[(Vec<Vec<usize>>, Vec<usize>)],
    clock: &FaultClock,
) -> EngineResult<(f32, Vec<Vec<Tensor>>)> {
    if replicas.len() != shards.len() || replicas.len() != lanes.len() || replicas.is_empty() {
        return Err(EngineError::Tensor(TensorError::ShapeMismatch {
            op: "dp_step_tokens",
            lhs: vec![replicas.len()],
            rhs: vec![shards.len()],
        }));
    }
    let step = clock.current_step();
    let ctxs = lane_ctxs(lanes, step, clock);
    let _span = pac_telemetry::span("dp.step_tokens");
    let results: Vec<EngineResult<(f32, Vec<Tensor>)>> = replicas
        .par_iter_mut()
        .zip(shards.par_iter())
        .zip(ctxs.par_iter())
        .map(|((tuner, (tokens, targets)), ctx)| {
            supervised_lane(ctx, step, || {
                let (logits, fwd) = tuner.forward(tokens)?;
                let (loss, dl) = cross_entropy(&logits, targets)?;
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
    Ok((mean(&losses), lane_acts))
}

/// Mean of the lanes' losses, summed in lane order.
fn mean(losses: &[f32]) -> f32 {
    losses.iter().sum::<f32>() / losses.len() as f32
}

/// One cache-enabled data-parallel step (PAC epochs ≥ 2, paper §5.2): each
/// replica trains the Parallel-Adapters side network from its shard's
/// cached activations.
///
/// `shards[k]` is `(per-layer cached activations, targets)` for replica
/// `k`; `regression` selects MSE over cross-entropy.
///
/// # Errors
/// Returns an error on count mismatches or if a replica is not a
/// Parallel-Adapters tuner.
pub fn dp_step_cached(
    replicas: &mut [Tuner],
    shards: &[(Vec<Tensor>, Vec<f32>)],
    regression: bool,
) -> EngineResult<f32> {
    let lanes: Vec<usize> = (0..replicas.len()).collect();
    let clock = FaultClock::quiet();
    clock.advance();
    dp_step_cached_supervised(replicas, &lanes, shards, regression, &clock)
}

/// [`dp_step_cached`] under a [`FaultClock`]; same supervision contract as
/// [`dp_step_tokens_supervised`].
///
/// # Errors
/// As [`dp_step_tokens_supervised`].
pub fn dp_step_cached_supervised(
    replicas: &mut [Tuner],
    lanes: &[usize],
    shards: &[(Vec<Tensor>, Vec<f32>)],
    regression: bool,
    clock: &FaultClock,
) -> EngineResult<f32> {
    if replicas.len() != shards.len() || replicas.len() != lanes.len() || replicas.is_empty() {
        return Err(EngineError::Tensor(TensorError::ShapeMismatch {
            op: "dp_step_cached",
            lhs: vec![replicas.len()],
            rhs: vec![shards.len()],
        }));
    }
    let step = clock.current_step();
    let ctxs = lane_ctxs(lanes, step, clock);
    let _span = pac_telemetry::span("dp.step_cached");
    let results: Vec<EngineResult<f32>> = replicas
        .par_iter_mut()
        .zip(shards.par_iter())
        .zip(ctxs.par_iter())
        .map(|((tuner, (acts, targets)), ctx)| {
            supervised_lane(ctx, step, || {
                let (logits, fwd) = tuner.forward_cached(acts)?;
                let (loss, dl) = if regression {
                    let target = Tensor::from_vec(targets.clone(), [targets.len(), 1])?;
                    mse(&logits, &target)?
                } else {
                    let classes: Vec<usize> = targets.iter().map(|&t| t as usize).collect();
                    cross_entropy(&logits, &classes)?
                };
                tuner.backward(&fwd, &dl)?;
                Ok(loss)
            })
        })
        .collect();
    let (losses, verdict) = fold_lanes(results);
    verdict?;
    allreduce_mean(replicas)?;
    Ok(mean(&losses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultPlan};
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
    fn token_step_hands_back_each_lanes_forward_activations() {
        let bits = |ts: &[Tensor]| -> Vec<Vec<u32>> {
            ts.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let shards = vec![batch(231, 2, 4), batch(232, 2, 4)];
        let clock = FaultClock::quiet();
        clock.advance();

        // Parallel Adapters: exactly the bits a stand-alone forward caches.
        let base = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(230));
        let mut replicas = vec![base.clone(), base.clone()];
        let (_, lane_acts) =
            dp_step_tokens_supervised(&mut replicas, &[0, 1], &shards, &clock).unwrap();
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
            dp_step_tokens_supervised(&mut replicas, &[0, 1], &shards, &clock).unwrap();
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
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let base = Tuner::new(Technique::adapters_default(), &cfg, 2, &mut seeded(221));
        let mut replicas = vec![base.clone(), base];
        let shards = vec![batch(222, 2, 4), batch(223, 2, 4)];
        let plan = FaultPlan::none().with(Fault::LanePanic { step: 0, lane: 1 });
        let clock = FaultClock::new(plan);
        clock.advance();
        let err = dp_step_tokens_supervised(&mut replicas, &[0, 1], &shards, &clock)
            .expect_err("injected panic must surface");
        match err {
            EngineError::LanePanic { lane, message, .. } => {
                assert_eq!(lane, 1);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected LanePanic, got {other}"),
        }
    }
}
