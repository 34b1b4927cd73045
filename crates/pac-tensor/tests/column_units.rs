//! Pooled products fan out over column strips of C.
//!
//! From the pooled-dispatch line up (2^22 FLOPs, `ops::PAR_THRESHOLD_FLOPS`)
//! a product hands the pool one task per column strip — full 32-column
//! strips on an AVX-512 CPU (16 on others), then a 16-column strip, then
//! the ragged tail — and each task sweeps every row of C over its strip,
//! writing only its own columns. Nothing may move a bit: every output
//! element keeps its A row, its B column and its k-order, at every pool
//! width. A product with a single strip runs inline.
//!
//! The pool's counters are process-wide, so the tests of this file run one
//! at a time (`SERIAL`) and read exact call and task counts.

use pac_tensor::ops::{self, Bias, Block, Form, View};
use pac_tensor::{init, rng::seeded, Tensor};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// Columns per full strip of a pooled product on this CPU.
fn strip_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("fma")
    {
        return 32;
    }
    16
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `2·M·K·32` is exactly the pooled-dispatch line: every `n ≥ 32` below
/// is at or above it.
const M: usize = 128;
const K: usize = 512;
/// C is a block of columns `PAD .. PAD + n` of rows `PAD + n + PAD` wide;
/// the columns around it hold `SENTINEL`, which no product may touch.
const PAD: usize = 16;
const SENTINEL: f32 = -7.25;

/// The stored operands of `form` at `(M, K, n)` and a row bias.
fn operands(form: Form, n: usize) -> (Tensor, Tensor, Tensor) {
    let mut rng = seeded(34 + n as u64);
    let (a, b) = match form {
        Form::Nn => ([M, K], [K, n]),
        Form::Nt => ([M, K], [n, K]),
        Form::Tn => ([K, M], [K, n]),
    };
    (
        init::randn(&mut rng, a, 1.0),
        init::randn(&mut rng, b, 1.0),
        init::randn(&mut rng, [n], 1.0),
    )
}

/// `form` of `a` rows `rows` (all of them in one call, or one at a time)
/// and `b` into the C block of a sentinel-filled buffer; `nn` adds the row
/// bias, the other forms the `+0.0` of a zeroed destination.
fn product(
    form: Form,
    a: &Tensor,
    b: &Tensor,
    bias: &Tensor,
    n: usize,
    one_row_at_a_time: bool,
) -> Vec<f32> {
    let ldc = PAD + n + PAD;
    let mut c = vec![SENTINEL; M * ldc];
    let b_view = View::new(b.data(), Block::dense(b.dims()[0], b.dims()[1]));
    let bias = match form {
        Form::Nn => Bias::Row(bias.data()),
        Form::Nt | Form::Tn => Bias::Zero,
    };
    let parts: Vec<(usize, usize)> = if one_row_at_a_time {
        (0..M).map(|r| (r, 1)).collect()
    } else {
        vec![(0, M)]
    };
    for (r0, rows) in parts {
        let a_view = match form {
            Form::Nn | Form::Nt => View::new(a.data(), Block::of(K, r0, rows, 0, K)),
            Form::Tn => View::new(a.data(), Block::of(M, 0, K, r0, rows)),
        };
        let at = Block::of(ldc, r0, rows, PAD, n);
        ops::matmul_strided(form, a_view, b_view, bias, &mut c, at).unwrap();
    }
    c
}

#[test]
fn column_units_move_no_bit_and_touch_no_column_of_another_block() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One strip (inline), a 32 + 16 split, 32 + 32 + a ragged 6, and the
    // `pac_solo` feed-forward width. The reference computes each row as its
    // own one-row product, which is far below the line and runs inline.
    for n in [32, 48, 70, 1024] {
        for form in [Form::Nn, Form::Nt, Form::Tn] {
            let (a, b, bias) = operands(form, n);
            let want = product(form, &a, &b, &bias, n, true);
            let ldc = PAD + n + PAD;
            for row in want.chunks(ldc) {
                assert!(row[..PAD]
                    .iter()
                    .chain(&row[PAD + n..])
                    .all(|&v| v == SENTINEL));
            }
            let units = n.div_ceil(strip_width());
            for width in [1usize, 2, 8] {
                rayon::pool::set_max_concurrency(width);
                let before = rayon::pool::stats();
                let got = product(form, &a, &b, &bias, n, false);
                let after = rayon::pool::stats();
                rayon::pool::set_max_concurrency(usize::MAX);
                assert_eq!(bits(&got), bits(&want), "{form:?} n = {n}, width {width}");
                let pooled = u64::from(units > 1);
                assert_eq!(
                    after.parallel_calls - before.parallel_calls,
                    pooled,
                    "{form:?} n = {n}, width {width}: pool calls"
                );
            }
        }
    }
}

#[test]
fn the_feed_forward_product_is_one_pool_call_of_one_task_per_strip() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // `[104,256]×[256,1024]`, the `pac_solo` feed-forward up-projection:
    // 32 strips of 32 columns on an AVX-512 CPU, 64 of 16 elsewhere.
    let mut rng = seeded(35);
    let a = init::randn(&mut rng, [104, 256], 1.0);
    let b = init::randn(&mut rng, [256, 1024], 1.0);
    let before = rayon::pool::stats();
    let c = ops::matmul(&a, &b).unwrap();
    let after = rayon::pool::stats();
    assert_eq!(c.dims(), &[104, 1024]);
    assert_eq!(after.parallel_calls - before.parallel_calls, 1);
    assert_eq!(after.tasks - before.tasks, (1024 / strip_width()) as u64);
}
