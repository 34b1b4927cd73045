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

use crate::transport::Conn;
use crate::wire::{Msg, NetError};
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

/// Collects this stage replica's trainable gradients in `visit_params_ref`
/// order (the order every rank and the in-process engine agree on).
pub fn local_grads(stage: &StageModel) -> Vec<Tensor> {
    let mut grads = Vec::new();
    stage.visit_params_ref(&mut |p| {
        if p.trainable {
            grads.push(p.grad.clone());
        }
    });
    grads
}

/// Writes averaged gradients back into the stage's trainable parameters,
/// mirroring the in-process write-back (`p.grad = sums[idx].clone()`).
pub fn write_back_grads(stage: &mut StageModel, sums: &[Tensor]) {
    let mut idx = 0usize;
    stage.visit_params(&mut |p| {
        if !p.trainable {
            return;
        }
        p.grad = sums[idx].clone();
        idx += 1;
    });
}

/// Ring-allgather the per-lane gradient blocks, then reduce locally in
/// lane order and write the mean back into `stage`. Bitwise-identical to
/// the in-process `allreduce_mean` on the same inputs.
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
    let mine = local_grads(stage);
    let mut blocks: Vec<Option<Vec<Tensor>>> = vec![None; lanes];
    blocks[ctx.lane] = Some(mine);

    // Allgather: on hop h we forward the block that arrived on hop h−1
    // (our own on hop 0). Sends go out before the matching receive; the
    // kernel socket buffers absorb adapter-scale blocks, so the
    // send-then-recv order cannot deadlock at these payload sizes.
    for hop in 0..lanes - 1 {
        let send_origin = (ctx.lane + lanes - hop) % lanes;
        let tensors = blocks[send_origin]
            .clone()
            .expect("block to forward was produced on the previous hop");
        ring_out
            .send(&Msg::GradBlock {
                origin_lane: send_origin as u32,
                tensors,
            })
            .map_err(|e| down(ctx, ctx.right_rank, &e))?;

        let expect_origin = (ctx.lane + lanes - hop - 1) % lanes;
        match ring_in.recv().map_err(|e| down(ctx, ctx.left_rank, &e))? {
            Msg::GradBlock {
                origin_lane,
                tensors,
            } if origin_lane as usize == expect_origin => {
                blocks[expect_origin] = Some(tensors);
            }
            other => {
                return Err(EngineError::RankDown {
                    rank: ctx.left_rank,
                    lane: ctx.left_rank % lanes,
                    stage: Some(ctx.stage),
                    step: ctx.step,
                    detail: format!("ring allreduce: protocol violation, got {other:?}"),
                })
            }
        }
    }

    // Local ordered reduction: identical float-op order to the in-process
    // allreduce_mean — start from lane 0's block, add lanes 1..L−1 in
    // lane order, scale once by 1/L.
    let mut sums = blocks[0].take().expect("lane 0 block present");
    for block in blocks.iter().skip(1) {
        let block = block.as_ref().expect("allgather filled every block");
        for (s, g) in sums.iter_mut().zip(block.iter()) {
            s.add_assign(g).map_err(EngineError::Tensor)?;
        }
    }
    let inv = 1.0 / lanes as f32;
    for s in &mut sums {
        s.scale_in_place(inv);
    }
    // Only lane 0 records the logical reduction, so the coordinator's merged
    // view counts one reduction per stage group per step — the same
    // semantics as the in-process engine, which records once per group.
    if ctx.lane == 0 && pac_telemetry::enabled() {
        let payload: usize = sums.iter().map(Tensor::size_bytes).sum();
        pac_telemetry::counter_add("allreduce.bytes", (payload * lanes) as u64);
        pac_telemetry::counter_inc("allreduce.reductions");
    }
    write_back_grads(stage, &sums);
    Ok(())
}
