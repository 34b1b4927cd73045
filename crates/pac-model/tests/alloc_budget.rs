//! Heap blocks per pipeline-stage step at the serve workloads' scale.
//!
//! At hidden 32 a step costs bookkeeping more than FLOPs, so the number of
//! heap blocks a forward+backward allocates is pinned: a regression that
//! puts a `Vec` back into every tensor handle, or a copy into every
//! element loop, fails here before it shows up as a slower benchmark.
//!
//! A counting `#[global_allocator]` counts blocks per thread, so the
//! harness's other test threads cannot disturb a measurement. Every
//! product at this shape is under the pool's dispatch line and runs on the
//! calling thread.

use pac_model::{EncoderModel, ModelConfig, StageData};
use pac_tensor::{rng::seeded, scratch, Tensor};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Blocks this thread has allocated (const-initialised, no destructor:
    /// safe to touch from inside the allocator).
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap blocks `f` allocates on the calling thread.
fn blocks(f: impl FnOnce()) -> u64 {
    let before = BLOCKS.with(Cell::get);
    f();
    BLOCKS.with(Cell::get) - before
}

/// Upper bound on the blocks one forward+backward of the two-stage
/// pipeline allocates when the contexts are dropped: 123 now that the
/// contexts' own buffers, the backward's intermediates and the embedding's
/// output come from the scratch pool and the residual gradients are summed
/// in place (127 while the embedding built three fresh tensors, 256 before,
/// with inline shapes; the build that kept a shape's extents in a `Vec`
/// allocated 647 when first profiled, 643 as this test counts a step).
const STEP_BUDGET: u64 = 160;

#[test]
fn a_stage_pair_step_stays_within_its_allocation_budget() {
    let model = EncoderModel::new(&ModelConfig::micro(4, 0, 32, 2), 2, &mut seeded(7));
    let mut stages = model.partition(&[2, 2]).unwrap();
    let mut rng = seeded(8);
    let tokens: Vec<Vec<usize>> = (0..4)
        .map(|_| (0..16).map(|_| rng.gen_range(0..64)).collect())
        .collect();
    let dlogits = Tensor::full([4, 2], 0.25);
    let mut step = |input: StageData| {
        let (hidden, ctx0) = stages[0].forward(input).unwrap();
        let (logits, ctx1) = stages[1].forward(hidden).unwrap();
        assert!(matches!(logits, StageData::Logits(ref l) if l.dims() == [4, 2]));
        let dh = stages[1].backward(&ctx1, &dlogits).unwrap().unwrap();
        assert!(stages[0].backward(&ctx0, &dh).unwrap().is_none());
    };
    // Warm-up: the scratch pool fills and every parameter's gradient is
    // allocated.
    for _ in 0..3 {
        step(StageData::Tokens(tokens.clone()));
    }
    let input = StageData::Tokens(tokens.clone());
    let n = blocks(|| step(input));
    assert!(
        n <= STEP_BUDGET,
        "{n} heap blocks per stage-pair step, budget {STEP_BUDGET}"
    );
}

/// Upper bound on the blocks the same step allocates when, as the pipeline
/// engine does, each stage hands its context and its received gradient
/// back to the scratch pool: 23 (25 while the embedding built three fresh
/// tensors, 243 while `StageCtx::recycle` gave back only the layer outputs
/// and dropped every unit's buffers).
const RECYCLED_STEP_BUDGET: u64 = 32;

#[test]
fn a_recycled_stage_pair_step_stays_within_its_allocation_budget() {
    let model = EncoderModel::new(&ModelConfig::micro(4, 0, 32, 2), 2, &mut seeded(7));
    let mut stages = model.partition(&[2, 2]).unwrap();
    let mut rng = seeded(8);
    let tokens: Vec<Vec<usize>> = (0..4)
        .map(|_| (0..16).map(|_| rng.gen_range(0..64)).collect())
        .collect();
    let dlogits = Tensor::full([4, 2], 0.25);
    let mut step = |input: StageData| {
        let (hidden, ctx0) = stages[0].forward(input).unwrap();
        let (logits, ctx1) = stages[1].forward(hidden).unwrap();
        assert!(matches!(logits, StageData::Logits(ref l) if l.dims() == [4, 2]));
        let dh = stages[1].backward(&ctx1, &dlogits).unwrap().unwrap();
        ctx1.recycle();
        assert!(stages[0].backward(&ctx0, &dh).unwrap().is_none());
        ctx0.recycle();
        scratch::put(dh);
    };
    // Warm-up: the scratch pool fills and every parameter's gradient is
    // allocated.
    for _ in 0..3 {
        step(StageData::Tokens(tokens.clone()));
    }
    let input = StageData::Tokens(tokens.clone());
    let n = blocks(|| step(input));
    assert!(
        n <= RECYCLED_STEP_BUDGET,
        "{n} heap blocks per recycled stage-pair step, budget {RECYCLED_STEP_BUDGET}"
    );
}

/// Upper bound on the blocks stage 0 alone allocates per round of the
/// pipeline's steady state at the `dist_world` shape: two micro-batches
/// of 4 × 16 tokens in flight (forward, forward, backward, backward), each
/// context and received gradient handed back as the engine does: 24, the
/// count itself (36 while `embed_tokens` built the token rows, the
/// position rows and their sum as three fresh tensors).
const STAGE0_ROUND_BUDGET: u64 = 24;

#[test]
fn a_stage0_round_of_two_micro_batches_stays_within_its_allocation_budget() {
    let model = EncoderModel::new(&ModelConfig::micro(4, 0, 32, 2), 2, &mut seeded(7));
    let mut stage = model.partition(&[2, 2]).unwrap().swap_remove(0);
    let mut rng = seeded(8);
    let micros: Vec<Vec<Vec<usize>>> = (0..2)
        .map(|_| {
            (0..4)
                .map(|_| (0..16).map(|_| rng.gen_range(0..64)).collect())
                .collect()
        })
        .collect();
    // The micro-batches and the received gradients come off the wire: they
    // are built outside the count.
    let mut round = |(inputs, grads): ([StageData; 2], [Tensor; 2])| {
        let ctxs = inputs.map(|input| {
            let (hidden, ctx) = stage.forward(input).unwrap();
            assert!(matches!(hidden, StageData::Hidden(ref h) if h.dims() == [4, 16, 32]));
            ctx
        });
        for (ctx, dh) in ctxs.into_iter().zip(grads) {
            assert!(stage.backward(&ctx, &dh).unwrap().is_none());
            ctx.recycle();
            scratch::put(dh);
        }
    };
    let wire = || {
        (
            [0, 1].map(|m| StageData::Tokens(micros[m].clone())),
            [0.25, -0.5].map(|v| Tensor::full([4, 16, 32], v)),
        )
    };
    // Warm-up: the scratch pool fills and every parameter's gradient is
    // allocated.
    for _ in 0..3 {
        round(wire());
    }
    let received = wire();
    let n = blocks(|| round(received));
    assert!(
        n <= STAGE0_ROUND_BUDGET,
        "{n} heap blocks per stage-0 round, budget {STAGE0_ROUND_BUDGET}"
    );
}
