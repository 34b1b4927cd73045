//! Ring AllReduce over real sockets, bitwise-matched to the in-process
//! reduction.
//!
//! The in-process `HybridEngine` averages lane gradients in **lane order**:
//! `sum = g0; sum += g1; …; sum *= 1/L` (see `allreduce_mean` in
//! `pac-parallel`, the one reduction every in-process engine calls).
//! Floating-point addition is not associative, so a classical ring
//! reduce-scatter — where each chunk is summed in a *rotated* lane order
//! depending on which rank it settles on — would produce different
//! low-order bits on different ranks and break the bit-identity claim
//! against the in-process engine.
//!
//! We therefore run a ring **allgather** (`L−1` hops: push the freshest
//! block right, pull from the left) and then reduce **locally on every
//! rank in lane order** — exactly the same float-op sequence as
//! `allreduce_mean`, on every rank. This moves `(L−1)·G` bytes per rank
//! instead of reduce-scatter's `2·(L−1)/L·G`, a deliberate bandwidth
//! trade: at PAC's adapter-gradient sizes (the whole point of Parallel
//! Adapters is that `G` is small) bit-reproducibility is worth more than
//! the ~2× factor. The planner's cost model keeps charging the
//! ring-AllReduce volume; `net.bytes_sent` reports what actually moved, and
//! `repro --telemetry` shows both side by side.
//!
//! No gradient is copied on the way: a hop's outgoing frame is encoded
//! straight from the block it forwards (the rank's own gradients on hop 0,
//! a received block after that), received blocks are owned, and the
//! reduction accumulates into lane 0's tensor after moving it into the
//! parameter.

use crate::transport::Conn;
use crate::wire::{grad_block_frame, Msg, NetError};
use pac_model::StageModel;
use pac_nn::Module;
use pac_parallel::{EngineError, EngineResult};
use pac_tensor::Tensor;

/// Identity of the calling rank plus its ring neighbors, for typed error
/// attribution: a socket failure during the collective is blamed on the
/// rank at the other end of the failing edge.
#[derive(Debug, Clone, Copy)]
pub struct RingCtx {
    /// This worker's lane.
    pub lane: usize,
    /// Total lanes (ring length).
    pub lanes: usize,
    /// This worker's stage (for error attribution).
    pub stage: usize,
    /// Global step (for error attribution).
    pub step: u64,
    /// Rank of the ring predecessor (we read from them).
    pub left_rank: usize,
    /// Rank of the ring successor (we write to them).
    pub right_rank: usize,
}

fn down(ctx: &RingCtx, blamed: usize, e: &NetError) -> EngineError {
    EngineError::RankDown {
        rank: blamed,
        lane: blamed % ctx.lanes.max(1),
        stage: Some(ctx.stage),
        step: ctx.step,
        detail: format!("ring allreduce: {e}"),
    }
}

/// This stage replica's trainable gradients in `visit_params_ref` order
/// (the order every rank and the in-process engine agree on). Tensors are
/// copy-on-write, so these are handles onto the parameters' own gradient
/// storage, not copies.
pub fn local_grads(stage: &StageModel) -> Vec<Tensor> {
    let mut grads = Vec::new();
    stage.visit_params_ref(&mut |p| {
        if p.trainable {
            grads.push(p.grad.clone());
        }
    });
    grads
}

/// Ring-allgather the per-lane gradient blocks, then reduce locally in
/// lane order and leave the mean in the stage's gradients.
/// Bitwise-identical to the in-process `allreduce_mean` on the same inputs.
///
/// With `lanes == 1` this is a no-op, matching the in-process early return.
///
/// Generic over [`Conn`]: the identical hop sequence runs over TCP and
/// over the simulated transport.
pub fn ring_allreduce_mean<C: Conn>(
    stage: &mut StageModel,
    ring_in: &mut C,
    ring_out: &mut C,
    ctx: &RingCtx,
) -> EngineResult<()> {
    if ctx.lanes <= 1 {
        return Ok(());
    }
    let _span = pac_telemetry::span("net.allreduce");

    let lanes = ctx.lanes;
    let violation = |detail: String| EngineError::RankDown {
        rank: ctx.left_rank,
        lane: ctx.left_rank % lanes,
        stage: Some(ctx.stage),
        step: ctx.step,
        detail: format!("ring allreduce: protocol violation, {detail}"),
    };
    let mut blocks: Vec<Option<Vec<Tensor>>> = vec![None; lanes];
    blocks[ctx.lane] = Some(local_grads(stage));

    // Allgather: on hop h we forward the block that arrived on hop h−1
    // (our own on hop 0), encoded straight from where it lives. Sends go
    // out before the matching receive; the kernel socket buffers absorb
    // adapter-scale blocks, so the send-then-recv order cannot deadlock at
    // these payload sizes.
    for hop in 0..lanes - 1 {
        let send_origin = (ctx.lane + lanes - hop) % lanes;
        let outgoing = blocks[send_origin]
            .as_deref()
            .expect("block to forward was produced on the previous hop");
        ring_out
            .send_frame(&grad_block_frame(send_origin as u32, outgoing))
            .map_err(|e| down(ctx, ctx.right_rank, &e))?;

        let expect_origin = (ctx.lane + lanes - hop - 1) % lanes;
        match ring_in.recv().map_err(|e| down(ctx, ctx.left_rank, &e))? {
            Msg::GradBlock {
                origin_lane,
                tensors,
            } if origin_lane as usize == expect_origin => {
                // Every replica of a stage has the same parameters; a block
                // shaped otherwise must not reach the reduction.
                let mine = blocks[ctx.lane].as_deref().expect("own block present");
                let same_shape = tensors.len() == mine.len()
                    && tensors.iter().zip(mine).all(|(a, b)| a.dims() == b.dims());
                if !same_shape {
                    return Err(violation(format!(
                        "lane {expect_origin}'s block is not shaped like this stage's gradients"
                    )));
                }
                blocks[expect_origin] = Some(tensors);
            }
            other => return Err(violation(format!("got {other:?}"))),
        }
    }

    // Only lane 0 records the logical reduction, so the coordinator's merged
    // view counts one reduction per stage group per step — the same
    // semantics as the in-process engine, which records once per group.
    if ctx.lane == 0 && pac_telemetry::enabled() {
        let mine = blocks[0].as_deref().expect("own block present");
        let payload: usize = mine.iter().map(Tensor::size_bytes).sum();
        pac_telemetry::counter_add("allreduce.bytes", (payload * lanes) as u64);
        pac_telemetry::counter_inc("allreduce.reductions");
    }

    // Local ordered reduction, one parameter at a time: identical float-op
    // order to the in-process allreduce_mean — start from lane 0's
    // gradient, add lanes 1..L−1 in lane order, scale once by 1/L. Lane 0's
    // tensor is *moved* into the parameter and accumulated there; by then
    // it is the storage's only owner on every lane (on lane 0 the
    // assignment itself drops the other handle), so nothing is copied.
    let inv = 1.0 / lanes as f32;
    let mut per_lane: Vec<_> = blocks
        .into_iter()
        .map(|b| b.expect("allgather filled every block").into_iter())
        .collect();
    stage.visit_params(&mut |p| {
        if !p.trainable {
            return;
        }
        let mut parts = per_lane
            .iter_mut()
            .map(|lane| lane.next().expect("block lengths checked on receive"));
        p.grad = parts.next().expect("at least two lanes");
        for g in parts {
            p.grad
                .add_assign(&g)
                .expect("block shapes checked on receive");
        }
        p.grad.scale_in_place(inv);
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Listener, Tcp, Transport};
    use pac_model::{EncoderModel, ModelConfig};
    use pac_parallel::engine::allreduce_mean;
    use pac_tensor::rng::seeded;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// `lanes` replicas of one stage whose gradients differ per lane and
    /// span enough magnitudes that the order of the additions shows in the
    /// low bits.
    fn replicas(lanes: usize) -> Vec<StageModel> {
        let stage = EncoderModel::new(&ModelConfig::micro(2, 0, 16, 2), 2, &mut seeded(7))
            .partition(&[2])
            .expect("one-stage partition")
            .swap_remove(0);
        (0..lanes)
            .map(|lane| {
                let mut replica = stage.clone();
                let mut i = 0u32;
                replica.visit_params(&mut |p| {
                    for g in p.grad.data_mut() {
                        i = i
                            .wrapping_mul(1_664_525)
                            .wrapping_add(1_013_904_223 + lane as u32);
                        *g = (i >> 8) as f32 / 1e5 * 10f32.powi((i % 7) as i32 - 3);
                    }
                });
                replica
            })
            .collect()
    }

    fn ctx(lane: usize, lanes: usize) -> RingCtx {
        RingCtx {
            lane,
            lanes,
            stage: 0,
            step: 0,
            left_rank: (lane + lanes - 1) % lanes,
            right_rank: (lane + 1) % lanes,
        }
    }

    fn grad_bits(stage: &StageModel) -> Vec<Vec<u32>> {
        local_grads(stage)
            .iter()
            .map(|g| g.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn ring_over_tcp_is_bitwise_the_in_process_allreduce() {
        for lanes in [2usize, 3] {
            let mut reference = replicas(lanes);
            allreduce_mean(&mut reference).expect("in-process allreduce");
            let want = grad_bits(&reference[0]);

            // Lane k dials lane k+1's listener, then accepts lane k−1.
            let listeners: Vec<_> = (0..lanes)
                .map(|_| Tcp::LOOPBACK.bind().expect("bind"))
                .collect();
            let ports: Vec<u16> = listeners.iter().map(Listener::port).collect();
            let reduced: Vec<StageModel> = std::thread::scope(|scope| {
                let handles: Vec<_> = replicas(lanes)
                    .into_iter()
                    .zip(listeners)
                    .enumerate()
                    .map(|(lane, (mut stage, listener))| {
                        let right = ports[(lane + 1) % lanes];
                        scope.spawn(move || {
                            let mut ring_out = Tcp::LOOPBACK.connect(right, TIMEOUT).expect("dial");
                            let mut ring_in = listener.accept(TIMEOUT, TIMEOUT).expect("accept");
                            ring_allreduce_mean(
                                &mut stage,
                                &mut ring_in,
                                &mut ring_out,
                                &ctx(lane, lanes),
                            )
                            .expect("ring allreduce");
                            stage
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lane thread"))
                    .collect()
            });
            for (lane, stage) in reduced.iter().enumerate() {
                assert_eq!(grad_bits(stage), want, "{lanes} lanes, lane {lane}");
            }
        }
    }

    #[test]
    fn a_block_shaped_unlike_the_stage_is_a_typed_error_not_a_panic() {
        // One loopback socket looped back on this thread: whatever goes
        // out on `ring_out` comes in on `ring_in`, and a block with one
        // tensor too few is already queued there.
        let listener = Tcp::LOOPBACK.bind().expect("bind");
        let mut ring_in = Tcp::LOOPBACK
            .connect(listener.port(), TIMEOUT)
            .expect("dial");
        let mut ring_out = listener.accept(TIMEOUT, TIMEOUT).expect("accept");
        let mut short = local_grads(&replicas(1)[0]);
        short.pop();
        let bad = Msg::GradBlock {
            origin_lane: 0,
            tensors: short,
        };
        ring_out.send(&bad).expect("queue the bad block");

        let mut stage = replicas(2).swap_remove(1);
        let before = grad_bits(&stage);
        match ring_allreduce_mean(&mut stage, &mut ring_in, &mut ring_out, &ctx(1, 2)) {
            Err(EngineError::RankDown {
                rank: 0, detail, ..
            }) => {
                assert!(detail.contains("protocol violation"), "{detail}")
            }
            other => panic!("expected lane 0 to be blamed, got {other:?}"),
        }
        assert_eq!(grad_bits(&stage), before, "rejected before the reduction");
    }
}
