//! A frozen B packed once as `ops::Panels` gives the row-major product's
//! bits.
//!
//! Panels are 32 columns of `k × 32` floats, left to right, the last one
//! zero-padded. Every strip of a product (32-wide on the AVX-512 tile,
//! 16-wide on the others, and the ragged tail) lies inside one panel and is
//! read there in place, so each output element meets the same A row and B
//! column in the same k order as when B is row-major. This file holds the
//! two forms against each other on every clone this CPU runs, at every
//! column remainder of the panel, with each bias the store can add, on
//! both sides of the pooled-dispatch line and at pool widths 1 and 2.
//!
//! The pool's counters are process-wide, so the tests of this file run one
//! at a time (`SERIAL`). A counting `#[global_allocator]` counts heap blocks
//! per thread.

use pac_tensor::ops::{self, Bias, Panels, Rhs};
use pac_tensor::simd::Isa;
use pac_tensor::{init, rng::seeded, Tensor, TensorError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

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

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `n % 32` ∈ {0, 1–15, 16, 17–31} at several tile-height remainders of
/// `m`, `k = 0`, `m = 1`, and products past the 512-bit size line (2^18).
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (1, 1, 1),
        (4, 8, 16),
        (5, 9, 17),
        (3, 7, 15),
        (6, 64, 48),
        (33, 65, 31),
        (64, 64, 64),
        (128, 96, 130),
        (13, 64, 13),
        (104, 256, 80),
        (3, 0, 20),
        (1, 40, 33),
    ];
    for n in [1, 13, 16, 17, 31, 32, 33, 48, 63] {
        shapes.extend([(7, 23, n), (17, 40, n), (1, 12, n)]);
    }
    shapes
}

/// A, B and a row bias of one shape.
fn operands(m: usize, k: usize, n: usize) -> (Tensor, Tensor, Tensor) {
    let mut rng = seeded((m * 10_007 + k * 101 + n) as u64);
    (
        init::randn(&mut rng, [m, k], 1.0),
        init::randn(&mut rng, [k, n], 1.0),
        init::randn(&mut rng, [n], 1.0),
    )
}

/// `a · b` plus `bias` on `isa`, with `b` row-major and packed.
fn both(isa: Isa, a: &Tensor, b: &Tensor, panels: &Panels, bias: Bias<'_>) -> (Tensor, Tensor) {
    let (mut rows, mut packed) = (Tensor::zeros([0]), Tensor::zeros([0]));
    ops::linear_on(isa, a, Rhs::Rows(b), bias, &mut rows).unwrap();
    ops::linear_on(isa, a, Rhs::Panels(panels), bias, &mut packed).unwrap();
    (rows, packed)
}

#[test]
fn panel_products_equal_row_major_products_bitwise_on_every_clone() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for isa in Isa::available() {
        for (m, k, n) in edge_shapes() {
            let (a, b, bias) = operands(m, k, n);
            let panels = Panels::pack(&b);
            assert_eq!(panels.dims(), [k, n]);
            assert_eq!(panels.numel(), k * n);
            for (tag, bias) in [
                ("none", Bias::None),
                ("zero", Bias::Zero),
                ("row", Bias::Row(bias.data())),
            ] {
                let (rows, packed) = both(isa, &a, &b, &panels, bias);
                assert_eq!(packed.dims(), &[m, n]);
                let label = format!("{} {m}x{k}x{n} bias {tag}", isa.name());
                assert_eq!(bits(&packed), bits(&rows), "{label}");
            }
        }
    }
}

#[test]
fn pooled_panel_products_equal_row_major_at_pool_widths_one_and_two() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // `2·128·256·n` is past the pooled-dispatch line (2^22) for every
    // `n ≥ 64` below: 64 (two 32-column strips), 70 (a ragged 6), 80 (a
    // 16-column strip) and 120 (16 + a ragged 8), plus the `pac_solo`
    // feed-forward width.
    for n in [64, 70, 80, 120, 1024] {
        let (a, b, bias) = operands(128, 256, n);
        let panels = Panels::pack(&b);
        for width in [1usize, 2] {
            rayon::pool::set_max_concurrency(width);
            for isa in Isa::available() {
                let before = rayon::pool::stats();
                let (rows, packed) = both(isa, &a, &b, &panels, Bias::Row(bias.data()));
                let after = rayon::pool::stats();
                let label = format!("{} n {n} width {width}", isa.name());
                assert_eq!(bits(&packed), bits(&rows), "{label}");
                assert_eq!(
                    after.parallel_calls - before.parallel_calls,
                    2,
                    "{label}: each product is one pool call"
                );
            }
            rayon::pool::set_max_concurrency(usize::MAX);
        }
    }
}

#[test]
fn a_panel_product_of_the_wrong_k_is_a_shape_mismatch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let panels = Panels::pack(&Tensor::zeros([4, 40]));
    let mut out = Tensor::zeros([0]);
    let err = ops::linear_into(
        &Tensor::zeros([3, 5]),
        Rhs::Panels(&panels),
        Bias::None,
        &mut out,
    );
    assert!(
        matches!(err, Err(TensorError::ShapeMismatch { .. })),
        "{err:?}"
    );
    let err = ops::linear_into(
        &Tensor::zeros([3, 4]),
        Rhs::Panels(&panels),
        Bias::Row(&[0.0; 39]),
        &mut out,
    );
    assert!(
        matches!(err, Err(TensorError::ShapeMismatch { .. })),
        "{err:?}"
    );
}

#[test]
fn a_panel_product_allocates_no_more_blocks_than_the_row_major_one() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Inline (one strip, a ragged tail) and pooled: after a warm-up call
    // of each (a thread's strip buffer grows once), into a kept output.
    for (m, k, n) in [(16, 64, 70), (104, 256, 1024)] {
        let (a, b, bias) = operands(m, k, n);
        let panels = Panels::pack(&b);
        let mut out = Tensor::zeros([m, n]);
        let mut blocks = |rhs: Rhs<'_>| {
            ops::linear_into(&a, rhs, Bias::Row(bias.data()), &mut out).unwrap();
            let before = BLOCKS.with(Cell::get);
            ops::linear_into(&a, rhs, Bias::Row(bias.data()), &mut out).unwrap();
            BLOCKS.with(Cell::get) - before
        };
        let rows = blocks(Rhs::Rows(&b));
        let packed = blocks(Rhs::Panels(&panels));
        assert!(packed <= rows, "{m}x{k}x{n}: {packed} > {rows} blocks");
    }
}

#[test]
fn clones_share_the_packed_buffer() {
    let panels = Panels::pack(&Tensor::ones([8, 40]));
    assert_eq!(panels.clone().storage_ptr(), panels.storage_ptr());
}
