//! Row-wise reductions and normalizations over the 2-D view.
//!
//! LayerNorm and softmax reduce each row of a matrix: a mean and a
//! variance, a maximum and a denominator, a dot product. A row's sum is
//! one dependency chain — left to right from a fixed start value — so a
//! vector cannot split a row into partial sums without moving its bits. It
//! can instead carry *one row per lane*: a block of 16 rows (AVX-512) or 8
//! (AVX2+FMA) is loaded 16 (8) columns at a time and transposed in
//! registers (`simd::transpose16` / `transpose8`, the networks the matmul
//! packs a transposed B strip with), and lane `i` then adds row `i`'s
//! columns in exactly the scalar loop's order. The passes between the
//! reductions (subtract, scale, `exp`, LayerNorm's output and input
//! gradient) are elementwise and run row-major.
//!
//! Three clones, picked by [`Isa::probed`], never by a caller:
//!
//! | clone    | rows per block | reductions                         |
//! |----------|----------------|------------------------------------|
//! | portable | 1              | the scalar loop, one row at a time |
//! | AVX2+FMA | 8              | one row per `ymm` lane             |
//! | AVX-512  | 16             | one row per `zmm` lane             |
//!
//! The portable clone is also the reference the lane clones are tested
//! against. A tail block (`rows % 16`, `% 8`) runs with its missing rows as
//! zero lanes, whose results are dropped; a tail tile of columns is loaded
//! masked, and only its real columns are added. Softmax backward on rows
//! of at most `SHORT_SOFTMAX_BACKWARD` (8) columns runs the scalar loop on
//! every clone (measured there).
//!
//! **Bits.** None of these passes fuses a multiply-add, and every lane op
//! (`+ − × ÷ √`, `max`) is the exactly rounded scalar op, so each lane
//! clone is bitwise the portable one on every CPU (`tests/row_lanes.rs`
//! pins this). The start values are the scalar code's:
//!
//! * LayerNorm forward: `μ = (−0.0 + x₀ + x₁ + …) / n` (Rust's `f32` `Sum`
//!   starts at `−0.0`), `σ² = (−0.0 + Σ (x−μ)·(x−μ)) / n`,
//!   `1/σ = 1 / √(σ² + ε)`; then `x̂ = (x−μ)·(1/σ)` and `y = x̂·γ + β`.
//! * LayerNorm backward: with `dŷ = dy·γ`, `Σ dŷ` and `Σ dŷ·x̂` start at
//!   `+0.0`; `dx = (1/σ)·((dŷ − mean dŷ) − x̂·mean(dŷ·x̂))`; `dγ` and `dβ`
//!   accumulate row after row.
//! * Softmax forward: the maximum folds from `−∞` with `f32::max` (a NaN
//!   element leaves the fold unchanged; a ±0 tie changes no output), `exp(x −
//!   max)` runs the [`crate::elementwise`] kernel of the same clone once
//!   per block, and the denominator starts at `+0.0`.
//! * Softmax backward: `dy·y`, their sum from `−0.0`, then `dy − dot·y`.
//!
//! [`mean_pool_seq`] and its backward average a `[b, s, w]` sequence over
//! its positions, for the encoder's classification head and the
//! Parallel-Adapters side network. They are plain scalar loops, one
//! mutable slice per call.
//!
//! The `unsafe` here is the calls into the two `#[target_feature]` clones,
//! each behind its [`Isa`], and the AVX-512 and AVX intrinsics behind the
//! private lane types. As in [`crate::simd`], a lane value can only be made
//! by the `unsafe` `Lanes::splat` / `load` / `columns`, whose caller
//! vouches for the instruction set, so safe code cannot reach an
//! instruction the CPU lacks. Every load and store goes through a
//! bounds-checked slice: full width only when the slice holds a whole
//! vector, masked to its length otherwise.

use crate::elementwise;
use crate::error::{Result, TensorError};
#[cfg(target_arch = "x86_64")]
use crate::simd::{transpose16, transpose8};
use crate::simd::{Isa, Level};
use crate::tensor::Tensor;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;

/// Numerically-stable softmax along the last dimension.
///
/// Rows of the 2-D view are normalized independently:
/// `y_ij = exp(x_ij - max_i) / Σ_j exp(x_ij - max_i)`. A copy of `x` run
/// through [`softmax_rows_in_place`].
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = x.clone();
    softmax_rows_in_place(out.data_mut(), x.as_2d().1);
    out
}

/// [`softmax_rows`] of the `cols`-wide rows of `x`, in place. The maximum
/// and the denominator are taken in column order, so a row's result depends
/// on that row alone.
///
/// # Panics
/// Panics if `x` is not whole rows (programming error).
pub fn softmax_rows_in_place(x: &mut [f32], cols: usize) {
    softmax_rows_in_place_on(Isa::probed(), x, cols);
}

/// [`softmax_rows_in_place`] on the clone `isa`.
///
/// # Panics
/// Panics if `x` is not whole rows (programming error).
pub fn softmax_rows_in_place_on(isa: Isa, x: &mut [f32], cols: usize) {
    if cols != 0 {
        assert!(x.len().is_multiple_of(cols), "softmax operand length");
        run(isa, RowOp::Softmax { x, cols });
    }
}

/// Backward pass of row-wise softmax.
///
/// Given `y = softmax(x)` and upstream gradient `dy`, returns
/// `dx_ij = y_ij * (dy_ij - Σ_k dy_ik * y_ik)`. A copy of `dy` run through
/// [`softmax_rows_backward_in_place`].
///
/// # Errors
/// Returns a shape error if `y` and `dy` differ in shape.
pub fn softmax_rows_backward(y: &Tensor, dy: &Tensor) -> Result<Tensor> {
    if y.shape() != dy.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_backward",
            lhs: y.dims().to_vec(),
            rhs: dy.dims().to_vec(),
        });
    }
    let mut dx = dy.clone();
    softmax_rows_backward_in_place(y.data(), dx.data_mut(), y.as_2d().1);
    Ok(dx)
}

/// [`softmax_rows_backward`] over the `cols`-wide rows of `y` and `dy`,
/// overwriting `dy` with the input gradient. The row sum runs in column
/// order.
///
/// # Panics
/// Panics if `y` and `dy` differ in length or are not whole rows
/// (programming error).
pub fn softmax_rows_backward_in_place(y: &[f32], dy: &mut [f32], cols: usize) {
    softmax_rows_backward_in_place_on(Isa::probed(), y, dy, cols);
}

/// [`softmax_rows_backward_in_place`] on the clone `isa`.
///
/// # Panics
/// As [`softmax_rows_backward_in_place`].
pub fn softmax_rows_backward_in_place_on(isa: Isa, y: &[f32], dy: &mut [f32], cols: usize) {
    assert_eq!(y.len(), dy.len(), "softmax backward operand length");
    if cols != 0 {
        assert!(
            y.len().is_multiple_of(cols),
            "softmax backward operand length"
        );
        run(isa, RowOp::SoftmaxBackward { y, dy, cols });
    }
}

/// Where a recording LayerNorm forward writes its context: `x̂`, the shape
/// of `x`, and one `1/σ` per row.
pub type LayerNormRecord<'a> = (&'a mut [f32], &'a mut [f32]);

/// LayerNorm over the `gamma.len()`-wide rows of `x` into `y`:
/// `y = (x − μ)·(1/σ)·γ + β` with the row's mean `μ` and
/// `1/σ = 1/√(σ² + eps)`. With `record`, `x̂ = (x − μ)·(1/σ)` and the
/// per-row `1/σ` are written there as well (see the module docs for the
/// exact order of operations).
///
/// # Panics
/// Panics if `beta`, `y` or the record do not match `x` and `gamma`
/// (programming error).
pub fn layernorm_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    record: Option<LayerNormRecord<'_>>,
) {
    layernorm_rows_on(Isa::probed(), x, gamma, beta, eps, y, record);
}

/// [`layernorm_rows`] on the clone `isa`.
///
/// # Panics
/// As [`layernorm_rows`].
pub fn layernorm_rows_on(
    isa: Isa,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    record: Option<LayerNormRecord<'_>>,
) {
    let cols = gamma.len();
    assert!(
        beta.len() == cols && y.len() == x.len() && cols != 0 && x.len().is_multiple_of(cols),
        "layernorm operand length"
    );
    if let Some((x_hat, inv_std)) = &record {
        assert!(
            x_hat.len() == x.len() && inv_std.len() == x.len() / cols,
            "layernorm record length"
        );
    }
    run(
        isa,
        RowOp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
            y,
            record,
        },
    );
}

/// Backward pass of [`layernorm_rows`] from its record: writes `dx` and
/// adds this batch's `Σ dy·x̂` to `dgamma` and `Σ dy` to `dbeta`, row
/// after row.
///
/// # Panics
/// Panics if the operands do not match `x_hat` and `gamma` (programming
/// error).
pub fn layernorm_rows_backward(
    x_hat: &[f32],
    inv_std: &[f32],
    dy: &[f32],
    gamma: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    layernorm_rows_backward_on(Isa::probed(), x_hat, inv_std, dy, gamma, dx, dgamma, dbeta);
}

/// [`layernorm_rows_backward`] on the clone `isa`.
///
/// # Panics
/// As [`layernorm_rows_backward`].
#[allow(clippy::too_many_arguments)]
pub fn layernorm_rows_backward_on(
    isa: Isa,
    x_hat: &[f32],
    inv_std: &[f32],
    dy: &[f32],
    gamma: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let cols = gamma.len();
    assert!(
        cols != 0
            && x_hat.len().is_multiple_of(cols)
            && inv_std.len() == x_hat.len() / cols
            && dy.len() == x_hat.len()
            && dx.len() == x_hat.len()
            && dgamma.len() == cols
            && dbeta.len() == cols,
        "layernorm backward operand length"
    );
    run(
        isa,
        RowOp::LayerNormBackward {
            x_hat,
            inv_std,
            dy,
            gamma,
            dx,
            dgamma,
            dbeta,
        },
    );
}

/// One row reduction with its (length-checked) operands.
enum RowOp<'a> {
    LayerNorm {
        x: &'a [f32],
        gamma: &'a [f32],
        beta: &'a [f32],
        eps: f32,
        y: &'a mut [f32],
        record: Option<LayerNormRecord<'a>>,
    },
    LayerNormBackward {
        x_hat: &'a [f32],
        inv_std: &'a [f32],
        dy: &'a [f32],
        gamma: &'a [f32],
        dx: &'a mut [f32],
        dgamma: &'a mut [f32],
        dbeta: &'a mut [f32],
    },
    Softmax {
        x: &'a mut [f32],
        cols: usize,
    },
    SoftmaxBackward {
        y: &'a [f32],
        dy: &'a mut [f32],
        cols: usize,
    },
}

/// Softmax backward rows of at most this many columns run the scalar loop
/// on every clone. Its sum is the row's only chain, and on rows this short
/// the chains of consecutive rows already overlap out of order, so the
/// transposes cost more than the lanes save. Measured (Xeon, avx512f,
/// 2.1 GHz, min of 3000): `[128, 8]` 0.55 µs scalar against 0.77 (16 lanes)
/// and 0.80 (8 lanes); `[208, 13]` 2.04 against 1.87; `[256, 16]` 2.05
/// against 1.80. The forward's lanes win at every width (`[128, 8]`: 3.2
/// against 1.1 µs), so it has no such line.
const SHORT_SOFTMAX_BACKWARD: usize = 8;

fn run(isa: Isa, op: RowOp<'_>) {
    if let RowOp::SoftmaxBackward { cols, .. } = op {
        if cols <= SHORT_SOFTMAX_BACKWARD {
            return run_scalar(op, isa);
        }
    }
    match isa.0 {
        // SAFETY (both arms): an `Isa` value is proof the CPU runs its
        // instruction set.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { run_avx512(op) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Fma => unsafe { run_avx2(op) },
        Level::Portable => run_scalar(op, Isa::PORTABLE),
    }
}

/// AVX-512 clone: sixteen rows per block.
///
/// # Safety
/// Caller must hold the AVX-512 [`Isa`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn run_avx512(op: RowOp<'_>) {
    // SAFETY: the caller vouches for avx512f.
    unsafe { run_lanes::<Zmm>(op) }
}

/// AVX2+FMA clone: eight rows per block.
///
/// # Safety
/// Caller must hold an [`Isa`] of at least AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2(op: RowOp<'_>) {
    // SAFETY: the caller vouches for avx2.
    unsafe { run_lanes::<Ymm>(op) }
}

/// The portable clone (`exp` = [`Isa::PORTABLE`]), and the reference of the
/// lane clones (`exp` = theirs): one row at a time, each sum a scalar loop.
fn run_scalar(op: RowOp<'_>, exp: Isa) {
    match op {
        RowOp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
            y,
            mut record,
        } => {
            let cols = gamma.len();
            for (r, (xr, yr)) in x
                .chunks_exact(cols)
                .zip(y.chunks_exact_mut(cols))
                .enumerate()
            {
                let mean: f32 = xr.iter().sum::<f32>() / cols as f32;
                let var: f32 = xr.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
                let is = 1.0 / (var + eps).sqrt();
                for (h, v) in yr.iter_mut().zip(xr) {
                    *h = (*v - mean) * is;
                }
                if let Some((x_hat, inv_std)) = &mut record {
                    x_hat[r * cols..(r + 1) * cols].copy_from_slice(yr);
                    inv_std[r] = is;
                }
                for ((v, g), b) in yr.iter_mut().zip(gamma).zip(beta) {
                    *v = *v * g + b;
                }
            }
        }
        RowOp::LayerNormBackward {
            x_hat,
            inv_std,
            dy,
            gamma: g,
            dx,
            dgamma,
            dbeta,
        } => {
            let cols = g.len();
            let rows = x_hat.len() / cols;
            for r in 0..rows {
                let dyr = &dy[r * cols..(r + 1) * cols];
                let xh = &x_hat[r * cols..(r + 1) * cols];
                let is = inv_std[r];

                // Parameter gradients.
                for j in 0..cols {
                    dgamma[j] += dyr[j] * xh[j];
                    dbeta[j] += dyr[j];
                }

                // dŷ = dy ⊙ γ; means needed for the input gradient.
                let mut mean_dyh = 0.0f32;
                let mut mean_dyh_xh = 0.0f32;
                for j in 0..cols {
                    let dyh = dyr[j] * g[j];
                    mean_dyh += dyh;
                    mean_dyh_xh += dyh * xh[j];
                }
                mean_dyh /= cols as f32;
                mean_dyh_xh /= cols as f32;

                let dxr = &mut dx[r * cols..(r + 1) * cols];
                for j in 0..cols {
                    let dyh = dyr[j] * g[j];
                    dxr[j] = is * (dyh - mean_dyh - xh[j] * mean_dyh_xh);
                }
            }
        }
        RowOp::Softmax { x, cols } => {
            for row in x.chunks_exact_mut(cols) {
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                elementwise::exp_sub_in_place_on(exp, row, m);
                let mut denom = 0.0f32;
                for v in row.iter() {
                    denom += *v;
                }
                let inv = 1.0 / denom;
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
        }
        RowOp::SoftmaxBackward { y, dy, cols } => {
            for (yrow, drow) in y.chunks_exact(cols).zip(dy.chunks_exact_mut(cols)) {
                for (d, yv) in drow.iter_mut().zip(yrow) {
                    *d *= yv;
                }
                let dot: f32 = drow.iter().sum();
                for (d, yv) in drow.iter_mut().zip(yrow) {
                    *d -= dot * yv;
                }
            }
        }
    }
}

/// The lane clones: one row per lane of `V`, `V::L` rows per block.
///
/// LayerNorm's row passes run `V::L` columns at a time (the last step of a
/// row masked), each lane op the scalar clone's: its rows are the model
/// width, and a plain loop leaves a 32-float row to the 16-lane clone's
/// remainder loop. Softmax's rows are as short as 8 keys and are read back
/// at once (by the `exp` kernel, by the next reduction), which a masked
/// store would stall, so its row passes stay plain loops.
///
/// # Safety
/// The CPU must run `V`'s instruction set.
#[inline(always)]
unsafe fn run_lanes<V: Lanes>(op: RowOp<'_>) {
    // SAFETY (every `splat` and `load`): the caller vouches for `V`.
    let splat = |v: f32| unsafe { V::splat(v) };
    let load = |src: &[f32]| unsafe { V::load(src) };
    match op {
        RowOp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
            y,
            mut record,
        } => {
            let cols = gamma.len();
            let n = splat(cols as f32);
            let block = V::L * cols;
            for (blk, (xb, yb)) in x.chunks(block).zip(y.chunks_mut(block)).enumerate() {
                let rows = xb.len() / cols;
                // A full block parks its transposed columns in its own
                // output rows for the second pass; a tail block transposes
                // twice.
                let full = rows == V::L;
                let mut sum = splat(-0.0);
                let sums = |j: usize, [v]: [V; 1]| {
                    sum = sum.add(v);
                    if full {
                        v.store(&mut yb[j * V::L..(j + 1) * V::L]);
                    }
                };
                unsafe { walk::<V, 1>([xb], cols, rows, sums) };
                let mean = sum.div(n);
                let mut sq = splat(-0.0);
                let mut sq_dev = |_, [v]: [V; 1]| {
                    let d = v.sub(mean);
                    sq = sq.add(d.mul(d));
                };
                if full {
                    for c in yb.chunks_exact(V::L) {
                        sq_dev(0, [load(c)]);
                    }
                } else {
                    unsafe { walk::<V, 1>([xb], cols, rows, sq_dev) };
                }
                let is = splat(1.0).div(sq.div(n).add(splat(eps)).sqrt());
                let (mean, is) = (mean.lanes(), is.lanes());
                for (i, (xr, yr)) in xb
                    .chunks_exact(cols)
                    .zip(yb.chunks_exact_mut(cols))
                    .enumerate()
                {
                    let r = blk * V::L + i;
                    let mut x_hat = record.as_mut().map(|(x_hat, inv_std)| {
                        inv_std[r] = is[i];
                        &mut x_hat[r * cols..(r + 1) * cols]
                    });
                    let (m, s) = (splat(mean[i]), splat(is[i]));
                    for j in spans::<V>(cols) {
                        let h = load(&xr[j.clone()]).sub(m).mul(s);
                        if let Some(x_hat) = &mut x_hat {
                            h.store(&mut x_hat[j.clone()]);
                        }
                        let (g, b) = (load(&gamma[j.clone()]), load(&beta[j.clone()]));
                        h.mul(g).add(b).store(&mut yr[j]);
                    }
                }
            }
        }
        RowOp::LayerNormBackward {
            x_hat,
            inv_std,
            dy,
            gamma,
            dx,
            dgamma,
            dbeta,
        } => {
            let cols = gamma.len();
            let n = splat(cols as f32);
            let block = V::L * cols;
            let blocks = x_hat
                .chunks(block)
                .zip(dy.chunks(block))
                .zip(dx.chunks_mut(block));
            for (blk, ((xb, dyb), dxb)) in blocks.enumerate() {
                let rows = xb.len() / cols;
                let (mut s1, mut s2) = (splat(0.0), splat(0.0));
                let sums = |j: usize, [d, xh]: [V; 2]| {
                    let dyh = d.mul(splat(gamma[j]));
                    s1 = s1.add(dyh);
                    s2 = s2.add(dyh.mul(xh));
                };
                unsafe { walk::<V, 2>([dyb, xb], cols, rows, sums) };
                let (m1, m2) = (s1.div(n).lanes(), s2.div(n).lanes());
                let rows = xb
                    .chunks_exact(cols)
                    .zip(dyb.chunks_exact(cols))
                    .zip(dxb.chunks_exact_mut(cols));
                for (i, ((xr, dyr), dxr)) in rows.enumerate() {
                    let (s, m1, m2) = (splat(inv_std[blk * V::L + i]), splat(m1[i]), splat(m2[i]));
                    for j in spans::<V>(cols) {
                        let (d, xh) = (load(&dyr[j.clone()]), load(&xr[j.clone()]));
                        let dg = load(&dgamma[j.clone()]).add(d.mul(xh));
                        dg.store(&mut dgamma[j.clone()]);
                        load(&dbeta[j.clone()]).add(d).store(&mut dbeta[j.clone()]);
                        let dyh = d.mul(load(&gamma[j.clone()]));
                        s.mul(dyh.sub(m1).sub(xh.mul(m2))).store(&mut dxr[j]);
                    }
                }
            }
        }
        RowOp::Softmax { x, cols } => {
            for xb in x.chunks_mut(V::L * cols) {
                let rows = xb.len() / cols;
                let mut m = splat(f32::NEG_INFINITY);
                unsafe { walk::<V, 1>([xb], cols, rows, |_, [v]| m = m.fold_max(v)) };
                for (row, m) in xb.chunks_exact_mut(cols).zip(m.lanes()) {
                    for v in row.iter_mut() {
                        *v -= m;
                    }
                }
                // `(x − m) − 0.0` is `x − m` for every value, −0.0 included.
                elementwise::exp_sub_in_place_on(V::ISA, xb, 0.0);
                let mut denom = splat(0.0);
                unsafe { walk::<V, 1>([xb], cols, rows, |_, [v]| denom = denom.add(v)) };
                let inv = splat(1.0).div(denom).lanes();
                for (row, inv) in xb.chunks_exact_mut(cols).zip(inv) {
                    for v in row.iter_mut() {
                        *v *= inv;
                    }
                }
            }
        }
        RowOp::SoftmaxBackward { y, dy, cols } => {
            for (yb, db) in y.chunks(V::L * cols).zip(dy.chunks_mut(V::L * cols)) {
                let rows = yb.len() / cols;
                for (d, yv) in db.iter_mut().zip(yb) {
                    *d *= yv;
                }
                let mut dot = splat(-0.0);
                unsafe { walk::<V, 1>([db], cols, rows, |_, [v]| dot = dot.add(v)) };
                let rows = yb.chunks_exact(cols).zip(db.chunks_exact_mut(cols));
                for ((yrow, drow), dot) in rows.zip(dot.lanes()) {
                    for (d, yv) in drow.iter_mut().zip(yrow) {
                        *d -= dot * yv;
                    }
                }
            }
        }
    }
}

/// The column ranges of a `cols`-wide row, `V::L` at a time; the last may
/// be shorter.
#[inline(always)]
fn spans<V: Lanes>(cols: usize) -> impl Iterator<Item = core::ops::Range<usize>> {
    (0..cols).step_by(V::L).map(move |j| j..cols.min(j + V::L))
}

/// Feeds `f` the columns of the row blocks `xs` (each `rows` ≤ `V::L`
/// rows of `cols` floats), left to right: `f(j, [column j of xs[0], …])`,
/// lane `i` holding row `i` and the lanes past `rows` zero.
///
/// The tiles are transposed in place and gathered with index loops: an
/// array `map` or `from_fn` here was outlined with its closure, and code
/// outside the `#[target_feature]` clone cannot inline the intrinsics it
/// calls (5–10× slower).
///
/// # Safety
/// The CPU must run `V`'s instruction set.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn walk<V: Lanes, const K: usize>(
    xs: [&[f32]; K],
    cols: usize,
    rows: usize,
    mut f: impl FnMut(usize, [V; K]),
) {
    // SAFETY: the caller vouches for `V`.
    let zero = unsafe { V::splat(0.0) };
    let mut tiles = [[zero; 16]; K];
    let mut j0 = 0;
    while j0 < cols {
        let w = (cols - j0).min(V::L);
        for k in 0..K {
            // SAFETY: as above.
            unsafe { V::columns(&xs[k][j0..], cols, rows, w, &mut tiles[k]) };
        }
        // A constant trip count with a test keeps every index constant, so
        // the tiles stay in registers.
        for c in 0..V::L {
            if c < w {
                let mut v = [zero; K];
                for k in 0..K {
                    v[k] = tiles[k][c];
                }
                f(j0 + c, v);
            }
        }
        j0 += w;
    }
}

/// A vector of row lanes: lane `i` carries row `i` of a block.
///
/// As `simd::Vector`: the constructors are `unsafe` and everything that
/// takes a value is safe, because holding a value is the proof that the CPU
/// runs its instructions.
trait Lanes: Copy {
    /// Rows per block.
    const L: usize;
    /// The clone whose elementwise kernels run beside this type.
    const ISA: Isa;
    /// # Safety
    /// The CPU must run the instruction set `Self` is written in.
    unsafe fn splat(v: f32) -> Self;
    /// Columns `0..w` (`w ≤ L`) of the `rows ≤ L` rows `x[i·ld..i·ld + w]`,
    /// transposed into `out`: entry `c` holds column `c`, lane `i` row `i`;
    /// lanes past `rows` are zero.
    ///
    /// # Safety
    /// As [`Lanes::splat`].
    unsafe fn columns(x: &[f32], ld: usize, rows: usize, w: usize, out: &mut [Self; 16]);
    /// The first `min(src.len(), L)` floats of `src`, the lanes past them
    /// zero (a short load is masked: it reads nothing beyond `src`).
    ///
    /// # Safety
    /// As [`Lanes::splat`].
    unsafe fn load(src: &[f32]) -> Self;
    /// The first `min(dst.len(), L)` lanes into `dst` (a short store is
    /// masked: it writes nothing beyond `dst`).
    fn store(self, dst: &mut [f32]);
    /// The lanes, first `L` entries.
    fn lanes(self) -> [f32; 16];
    fn add(self, b: Self) -> Self;
    fn sub(self, b: Self) -> Self;
    fn mul(self, b: Self) -> Self;
    fn div(self, b: Self) -> Self;
    fn sqrt(self) -> Self;
    /// `f32::max(self, x)` per lane for a fold that starts at `−∞`: a NaN
    /// `x` leaves `self`.
    fn fold_max(self, x: Self) -> Self;
}

/// Sixteen row lanes in one zmm register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Zmm(__m512);

#[cfg(target_arch = "x86_64")]
impl Lanes for Zmm {
    const L: usize = 16;
    const ISA: Isa = Isa(Level::Avx512);
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        // SAFETY: register-only; the caller vouches for avx512f.
        Zmm(unsafe { _mm512_set1_ps(v) })
    }
    #[inline(always)]
    unsafe fn columns(x: &[f32], ld: usize, rows: usize, w: usize, out: &mut [Self; 16]) {
        // SAFETY: the caller vouches for avx512f; each load reads `row`,
        // a bounds-checked slice of `w` floats, under a mask of its `w`
        // lanes (masked-off lanes are not read and cannot fault).
        unsafe {
            let mut r = [_mm512_setzero_ps(); 16];
            for (i, r) in r.iter_mut().enumerate() {
                if i < rows {
                    *r = Zmm::load(&x[i * ld..i * ld + w]).0;
                }
            }
            for (o, t) in out.iter_mut().zip(transpose16(r)) {
                *o = Zmm(t);
            }
        }
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        // SAFETY: the caller vouches for avx512f; the unaligned load reads
        // 16 floats only when `src` holds them, else the mask of its
        // `src.len()` lanes (masked-off lanes are not read, cannot fault).
        Zmm(unsafe {
            match src.len() {
                16.. => _mm512_loadu_ps(src.as_ptr()),
                w => _mm512_maskz_loadu_ps(((1u32 << w) - 1) as u16, src.as_ptr()),
            }
        })
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        // SAFETY: a `Zmm` exists, so avx512f does; as in `load`, the store
        // writes 16 floats only when `dst` holds them, else masked.
        unsafe {
            match dst.len() {
                16.. => _mm512_storeu_ps(dst.as_mut_ptr(), self.0),
                w => _mm512_mask_storeu_ps(dst.as_mut_ptr(), ((1u32 << w) - 1) as u16, self.0),
            }
        }
    }
    #[inline(always)]
    fn lanes(self) -> [f32; 16] {
        let mut out = [0.0f32; 16];
        self.store(&mut out);
        out
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: register-only; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_add_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        // SAFETY: register-only; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_sub_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: register-only; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_mul_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn div(self, b: Self) -> Self {
        // SAFETY: register-only; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_div_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: register-only; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_sqrt_ps(self.0) })
    }
    #[inline(always)]
    fn fold_max(self, x: Self) -> Self {
        // `max_ps(a, b)` returns `b` when either is NaN.
        // SAFETY: register-only; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_max_ps(x.0, self.0) })
    }
}

/// Eight row lanes in one ymm register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Ymm(__m256);

#[cfg(target_arch = "x86_64")]
impl Lanes for Ymm {
    const L: usize = 8;
    const ISA: Isa = Isa(Level::Avx2Fma);
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        // SAFETY: register-only; the caller vouches for avx2.
        Ymm(unsafe { _mm256_set1_ps(v) })
    }
    #[inline(always)]
    unsafe fn columns(x: &[f32], ld: usize, rows: usize, w: usize, out: &mut [Self; 16]) {
        // SAFETY: the caller vouches for avx2; each load reads `row`, a
        // bounds-checked slice of `w` floats, under a mask of its `w` lanes
        // (masked-off lanes are not read and cannot fault).
        unsafe {
            let mut r = [_mm256_setzero_ps(); 8];
            for (i, r) in r.iter_mut().enumerate() {
                if i < rows {
                    *r = Ymm::load(&x[i * ld..i * ld + w]).0;
                }
            }
            for (o, t) in out.iter_mut().zip(transpose8(r)) {
                *o = Ymm(t);
            }
        }
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        // SAFETY: the caller vouches for avx2; the unaligned load reads 8
        // floats only when `src` holds them, else the mask of its
        // `src.len()` lanes (masked-off lanes are not read, cannot fault).
        Ymm(unsafe {
            match src.len() {
                8.. => _mm256_loadu_ps(src.as_ptr()),
                w => _mm256_maskload_ps(src.as_ptr(), ymm_mask(w)),
            }
        })
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        // SAFETY: a `Ymm` exists, so avx2 does; as in `load`, the store
        // writes 8 floats only when `dst` holds them, else masked.
        unsafe {
            match dst.len() {
                8.. => _mm256_storeu_ps(dst.as_mut_ptr(), self.0),
                w => _mm256_maskstore_ps(dst.as_mut_ptr(), ymm_mask(w), self.0),
            }
        }
    }
    #[inline(always)]
    fn lanes(self) -> [f32; 16] {
        let mut out = [0.0f32; 16];
        self.store(&mut out);
        out
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: register-only; a `Ymm` exists, so avx2 does.
        Ymm(unsafe { _mm256_add_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        // SAFETY: register-only; a `Ymm` exists, so avx2 does.
        Ymm(unsafe { _mm256_sub_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn mul(self, b: Self) -> Self {
        // SAFETY: register-only; a `Ymm` exists, so avx2 does.
        Ymm(unsafe { _mm256_mul_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn div(self, b: Self) -> Self {
        // SAFETY: register-only; a `Ymm` exists, so avx2 does.
        Ymm(unsafe { _mm256_div_ps(self.0, b.0) })
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: register-only; a `Ymm` exists, so avx2 does.
        Ymm(unsafe { _mm256_sqrt_ps(self.0) })
    }
    #[inline(always)]
    fn fold_max(self, x: Self) -> Self {
        // `max_ps(a, b)` returns `b` when either is NaN.
        // SAFETY: register-only; a `Ymm` exists, so avx2 does.
        Ymm(unsafe { _mm256_max_ps(x.0, self.0) })
    }
}

/// The mask of the first `w < 8` lanes of a ymm load or store.
///
/// # Safety
/// The CPU must run avx2.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn ymm_mask(w: usize) -> __m256i {
    // SAFETY: register-only; the caller vouches for avx2.
    unsafe {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), lane)
    }
}

/// Sum over rows of the 2-D view, producing a length-`cols` tensor in a
/// scratch-pool buffer ([`crate::scratch::put`] it back when done).
///
/// This is the bias-gradient reduction (`db = Σ_rows dY`).
pub fn sum_rows(x: &Tensor) -> Tensor {
    let (rows, cols) = x.as_2d();
    let mut t = crate::scratch::take([cols]);
    let out = t.data_mut();
    for r in 0..rows {
        for (o, v) in out.iter_mut().zip(&x.data()[r * cols..(r + 1) * cols]) {
            *o += v;
        }
    }
    t
}

/// Per-row mean of the 2-D view, producing a length-`rows` tensor.
pub fn mean_cols(x: &Tensor) -> Tensor {
    let (rows, cols) = x.as_2d();
    let mut out = vec![0.0f32; rows];
    for (r, o) in out.iter_mut().enumerate() {
        let s: f32 = x.data()[r * cols..(r + 1) * cols].iter().sum();
        *o = s / cols as f32;
    }
    Tensor::from_vec(out, [rows]).expect("mean_cols shape is consistent by construction")
}

/// Mean over the sequence axis of `x` viewed as `[b, s, w]`, producing a
/// `[b, w]` tensor in a scratch-pool buffer: each output element starts at `+0.0` and adds
/// `x[b][p][j] / s` for `p = 0, 1, …` in sequence order.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] unless `x` holds `b·s·w`
/// elements.
pub fn mean_pool_seq(x: &Tensor, b: usize, s: usize, w: usize) -> Result<Tensor> {
    if x.numel() != b * s * w {
        return Err(TensorError::ShapeMismatch {
            op: "mean_pool_seq",
            lhs: x.dims().to_vec(),
            rhs: vec![b, s, w],
        });
    }
    let mut out = crate::scratch::take([b, w]);
    let (src, dst) = (x.data(), out.data_mut());
    for bi in 0..b {
        let acc = &mut dst[bi * w..(bi + 1) * w];
        for p in 0..s {
            let row = &src[(bi * s + p) * w..(bi * s + p + 1) * w];
            for (o, v) in acc.iter_mut().zip(row) {
                *o += v / s as f32;
            }
        }
    }
    Ok(out)
}

/// Backward of [`mean_pool_seq`]: spreads `dy` (`b·w` elements) over
/// every position, producing a `[b, s, w]` tensor of `dy / s` in a
/// scratch-pool buffer.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] unless `dy` holds `b·w`
/// elements.
pub fn mean_pool_seq_backward(dy: &Tensor, b: usize, s: usize, w: usize) -> Result<Tensor> {
    if dy.numel() != b * w {
        return Err(TensorError::ShapeMismatch {
            op: "mean_pool_seq_backward",
            lhs: dy.dims().to_vec(),
            rhs: vec![b, w],
        });
    }
    let mut out = crate::scratch::take([b, s, w]);
    let (src, dst) = (dy.data(), out.data_mut());
    for bi in 0..b {
        let g = &src[bi * w..(bi + 1) * w];
        for p in 0..s {
            let row = &mut dst[(bi * s + p) * w..(bi * s + p + 1) * w];
            for (o, v) in row.iter_mut().zip(g) {
                *o = v / s as f32;
            }
        }
    }
    Ok(out)
}

/// Index of the maximum element of each row.
pub fn argmax_rows(x: &Tensor) -> Vec<usize> {
    let (rows, cols) = x.as_2d();
    (0..rows)
        .map(|r| {
            let row = &x.data()[r * cols..(r + 1) * cols];
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::rng::seeded;

    /// Rows that hit every start value and special case: random, equal,
    /// ±0, 1e±30 magnitudes, a causal −∞ tail, one NaN, large offsets,
    /// all −0.0.
    fn awkward(rows: usize, cols: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9) | 1;
        let mut v = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for j in 0..cols {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                let x = (state >> 8) as f32 / (1u32 << 22) as f32 - 2.0;
                v.push(match r % 8 {
                    1 => 0.3,
                    2 => [0.0, -0.0][j % 2],
                    3 => x * [1e30, 1e-30, -1e30][j % 3],
                    4 if j > r % cols => f32::NEG_INFINITY,
                    5 if j == r % cols => f32::NAN,
                    6 => x * 1e4 + 3.0,
                    7 => -0.0,
                    _ => x,
                });
            }
        }
        v
    }

    /// Equal bits, or NaN on both sides.
    fn same(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// Each clone the CPU runs is bitwise its scalar reference (the
    /// portable clone with that clone's `exp`), over full and tail blocks
    /// of rows and tiles of columns.
    #[test]
    fn every_clone_is_bitwise_the_scalar_loop() {
        for isa in Isa::available() {
            for rows in [1, 7, 8, 9, 16, 17, 33] {
                for cols in [1, 5, 8, 13, 16, 17, 32, 40] {
                    let n = rows * cols;
                    let x = awkward(rows, cols, 1);
                    let g = awkward(1, cols, 2);
                    let b = awkward(1, cols, 3);
                    let at = format!("{isa:?} [{rows},{cols}]");

                    let forward = |scalar: bool| {
                        let (mut y, mut xh, mut is) = (vec![0.0; n], vec![0.0; n], vec![0.0; rows]);
                        let record = Some((&mut xh[..], &mut is[..]));
                        let op = RowOp::LayerNorm {
                            x: &x,
                            gamma: &g,
                            beta: &b,
                            eps: 1e-5,
                            y: &mut y,
                            record,
                        };
                        if scalar {
                            run_scalar(op, isa)
                        } else {
                            run(isa, op)
                        }
                        (y, xh, is)
                    };
                    let (want, got) = (forward(true), forward(false));
                    assert!(
                        same(&want.0, &got.0) && same(&want.1, &got.1),
                        "ln y/x̂ {at}"
                    );
                    assert!(same(&want.2, &got.2), "ln 1/σ {at}");

                    let dy = awkward(rows, cols, 4);
                    let backward = |scalar: bool| {
                        let (mut dx, mut dg, mut db) =
                            (vec![0.0; n], vec![0.5; cols], vec![0.0; cols]);
                        let op = RowOp::LayerNormBackward {
                            x_hat: &want.1,
                            inv_std: &want.2,
                            dy: &dy,
                            gamma: &g,
                            dx: &mut dx,
                            dgamma: &mut dg,
                            dbeta: &mut db,
                        };
                        if scalar {
                            run_scalar(op, isa)
                        } else {
                            run(isa, op)
                        }
                        [dx, dg, db]
                    };
                    let (want_b, got_b) = (backward(true), backward(false));
                    for (w, g) in want_b.iter().zip(&got_b) {
                        assert!(same(w, g), "ln backward {at}");
                    }

                    let softmax = |scalar: bool| {
                        let mut y = x.clone();
                        let op = RowOp::Softmax { x: &mut y, cols };
                        if scalar {
                            run_scalar(op, isa)
                        } else {
                            run(isa, op)
                        }
                        y
                    };
                    let y = softmax(true);
                    assert!(same(&y, &softmax(false)), "softmax {at}");
                    let softmax_backward = |scalar: bool| {
                        let mut d = dy.clone();
                        let op = RowOp::SoftmaxBackward {
                            y: &y,
                            dy: &mut d,
                            cols,
                        };
                        if scalar {
                            run_scalar(op, isa)
                        } else {
                            run(isa, op)
                        }
                        d
                    };
                    assert!(
                        same(&softmax_backward(true), &softmax_backward(false)),
                        "softmax backward {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = seeded(5);
        let x = init::randn(&mut rng, [4, 7], 3.0);
        let y = softmax_rows(&x);
        for r in 0..4 {
            let s: f32 = y.row(r).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(y.row(r).unwrap().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0, 999.0], [1, 3]).unwrap();
        let y = softmax_rows(&x);
        assert!(y.all_finite());
        assert!((y.sum() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let mut rng = seeded(11);
        let x = init::randn(&mut rng, [2, 5], 1.0);
        let dy = init::randn(&mut rng, [2, 5], 1.0);
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&y, &dy).unwrap();

        let eps = 1e-3f32;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = softmax_rows(&xp)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = softmax_rows(&xm)
                .data()
                .iter()
                .zip(dy.data())
                .map(|(a, b)| a * b)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "grad mismatch at {i}: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn sum_rows_and_mean_cols() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        assert_eq!(sum_rows(&x).data(), &[4.0, 6.0]);
        assert_eq!(mean_cols(&x).data(), &[1.5, 3.5]);
    }

    #[test]
    fn argmax_rows_finds_peaks() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2, 0.3, 0.1], [2, 3]).unwrap();
        assert_eq!(argmax_rows(&x), vec![1, 1]);
    }

    #[test]
    fn mean_pool_round_trip_gradcheck() {
        let mut rng = seeded(104);
        let x = init::randn(&mut rng, [2, 3, 4], 1.0);
        let y = mean_pool_seq(&x, 2, 3, 4).unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        assert!(mean_pool_seq(&x, 2, 2, 4).is_err());
        // Pool of a constant tensor is that constant.
        let c = Tensor::full([2, 3, 4], 5.0);
        assert!(mean_pool_seq(&c, 2, 3, 4)
            .unwrap()
            .approx_eq(&Tensor::full([2, 4], 5.0), 1e-6));
        // Backward spreads uniformly and preserves total gradient mass.
        let dy = Tensor::ones([2, 4]);
        let dx = mean_pool_seq_backward(&dy, 2, 3, 4).unwrap();
        assert!((dx.sum() - dy.sum()).abs() < 1e-4);
    }

    #[test]
    fn pool_unpool_preserve_gradient_mass() {
        let mut rng = seeded(160);
        let x = init::randn(&mut rng, [2, 3, 4], 1.0);
        let p = mean_pool_seq(&x, 2, 3, 4).unwrap();
        assert_eq!(p.dims(), &[2, 4]);
        let dy = Tensor::ones([2, 4]);
        let dx = mean_pool_seq_backward(&dy, 2, 3, 4).unwrap();
        assert_eq!(dx.dims(), &[2, 3, 4]);
        assert!((dx.sum() - dy.sum()).abs() < 1e-5);
        assert!(mean_pool_seq_backward(&dy, 3, 3, 4).is_err());
    }
}
