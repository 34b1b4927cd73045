//! Matrix multiplication kernels.
//!
//! Three product variants cover every product needed by the explicit
//! backward passes in `pac-nn`:
//!
//! * [`matmul`]      — `C = A · B`       (forward pass)
//! * [`matmul_nt`]   — `C = A · Bᵀ`      (input gradients: `dX = dY · Wᵀ`)
//! * [`matmul_tn`]   — `C = Aᵀ · B`      (weight gradients: `dW = Xᵀ · dY`)
//!
//! Each has a zero-allocation `_into` twin ([`matmul_into`],
//! [`matmul_nt_into`], [`matmul_tn_into`]) writing into a caller-provided
//! output tensor (typically recycled through [`crate::scratch`]), plus a
//! fused bias-add forward kernel [`addmm_into`] (`C = A · B + bias`, one
//! pass instead of matmul-then-broadcast). The allocating APIs are thin
//! wrappers over the `_into` forms, so both families compute **bitwise
//! identical** results.
//!
//! [`matmul_strided`] runs any of the three on row-strided [`Block`]s of
//! wider buffers — an attention head's columns of a `[rows, d]` projection,
//! read and written where they lie — and equals the dense `_into` product
//! of the copied blocks bit for bit; its [`Bias::Zero`] store reproduces
//! accumulating the product into a zeroed destination. Every product, dense
//! or strided, runs through the one tiled routine behind it.
//!
//! All kernels view their operands through the 2-D interpretation of
//! [`Tensor::as_2d`] (leading dimensions folded into rows) and run the
//! register-tiled [`crate::simd`] kernels — the one matmul implementation in
//! the workspace; the f64-accumulated [`matmul_ref`] is the test oracle.
//!
//! Determinism contract: parallelism only partitions the output — a pooled
//! product hands each thread whole column strips of C, no reduction crosses
//! a thread — and each output element walks k in one fixed order, so an
//! element is a pure function of its A row, its B column and `(k, n)`.
//! Results are therefore bitwise identical at any pool width and under any
//! row partition of A (a rank's shard of a batch equals the same rows of the
//! whole batch) — what distributed ≡ in-process and tenant ≡ solo stand on.
//! They are bitwise-stable **per CPU class**, not across classes: the two
//! FMA clones (AVX2 and AVX-512, which agree bit for bit) round once per
//! multiply-add, the portable clone twice, so the ranks of one world must
//! all have FMA or all lack it. [`matmul_nt`] packs Bᵀ and runs the same
//! microkernel, so `matmul_nt(a, b) ≡ matmul(a, bᵀ)` bitwise.
//!
//! # The pooled-dispatch line
//!
//! A product fans out over the pool from `PAR_THRESHOLD_FLOPS` = 2^22 FLOPs
//! (`2·m·n·k`) up and runs anything smaller on the calling thread. By the
//! contract above the line moves time, never a bit.
//!
//! *What fans out.* The unit of pooled work is one column strip of C — the
//! strips the tiles already walk: full 32-column strips on the AVX-512
//! clone, then 16-column ones, then the ragged tail (`crate::simd`). Each
//! unit packs its strip of B once into its thread's strip buffer and sweeps
//! every row of C over it, writing only its own columns; a product with a
//! single strip runs inline. The unit used to be a 48-row panel of C, and
//! every panel re-read (and for `nt` re-transposed) all of B: the three
//! panels of the `pac_solo` feed-forward `[104,256]×[256,1024]` read B three
//! times at a 4 KiB row stride. On the 2 vCPUs that set the line (2026-10,
//! AVX-512), which share one core's FMA throughput (a 16-accumulator
//! AVX-512 loop: 166–173 GFLOP/s on one thread, 174–176 on two), fanning out
//! buys overlap, never more FLOPs, so work a unit repeats is pure loss: the
//! column units took `matmul_nt` at that shape from 815–890 to 472–580 µs
//! and `matmul_nn` from 466–561 to 365–417 µs.
//!
//! *The rule.* A hand-off to a spinning pool thread costs 2–6 µs, to a
//! parked one 20–35 µs (`vendor/rayon/src/pool.rs`), and a call pays two.
//! A product is worth fanning out when it lasts several spinning hand-offs
//! with the helper idle — about one parked hand-off — so the line is
//! *single-thread kernel GFLOP/s × that time*, rounded to a power of two:
//! 130–150 GFLOP/s × 28–32 µs ≈ 4.2 MFLOP. Whoever makes the kernels
//! faster, or the hand-off cheaper, measures both sides again.
//!
//! *What set it (2026-10, 2 vCPUs, AVX-512, `BENCH_PR19.json`).* One caller
//! with an idle, spinning helper — the pool's best case — inline against
//! pooled: `[64,32]×[32,128]` (2^19) 3.5 against 5.0 µs, `[128,32]×[32,128]`
//! (2^20) 7.5 against 11.1, `[64,128]×[128,128]` (2^21) 15.0 against 13.5,
//! `[64,128]×[128,256]` (2^22) 29.8 against 25.1, 2^23 57 against 40, the
//! `pac_solo` backbone products (13.6–54.5 MFLOP) 85 against 58 and 420
//! against 237. Below 2^21 fanning out loses even so; at 2^21 it wins
//! 1.5 µs, less than one hand-off; from 2^22 it wins more than one. (That
//! is the pool's best of four runs: in two the host gave the helper no CPU
//! and pooled read inline + 0.4–8 µs at every size up to 2^23.) When
//! the callers are themselves concurrent threads (the four ranks of a 2×2
//! thread world on two cores) a pooled product loses outright: every
//! feed-forward product of `dist_world` is 2^19, 96 pool calls per step,
//! and with the line at 2^20 or above the step's `op_ms` fell 3.89 → 2.80
//! and its CPU 7.1 → 4.6 ms; `multi_world`, whose `(2,1)` worlds' products
//! are exactly 2^20, and `pac_solo`, whose 1.7-MFLOP side-network products
//! stop fanning out, reach their plateau at 2^21 (CPU 3.87 → 3.26 ms,
//! `op_ms` 86.0 → 83.3), flat from there to 2^24. 2^22 is the first value
//! on that plateau at which the best case wins more than a hand-off.
//!
//! *Why it had gone stale.* The previous value, 2^18, dated from the
//! scalar kernels of the first commit. PRs 12 and 18 made the kernels 6–20×
//! faster at the benchmark's own shape (`[104,256]×[256,1024]`, pool width
//! 2: `matmul_nn` 2468 → 380 µs, `matmul_nt` 11020 → 558 µs, the
//! benchmark's baseline against the median of seven traced runs of the
//! parent) and nothing tied the constant to them:
//! 2^18 FLOPs had become 2 µs of arithmetic, less than the hand-off that
//! was meant to speed it up.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;
use std::ops::Range;

/// The pooled-dispatch line: a product of fewer FLOPs (2·m·n·k) runs inline
/// on the calling thread, see "The pooled-dispatch line" in the module docs
/// for the measurement that set it and the rule for setting it again.
pub(crate) const PAR_THRESHOLD_FLOPS: usize = 1 << 22;

fn check_inner(op: &'static str, a: &Tensor, b: &Tensor, ak: usize, bk: usize) -> Result<()> {
    if ak != bk {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(())
}

/// Which product a call computes, from operands as they are stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// `C[m,n] = A[m,k] · B[k,n]`.
    Nn,
    /// `C[m,n] = A[m,k] · B[n,k]ᵀ`.
    Nt,
    /// `C[m,n] = A[k,m]ᵀ · B[k,n]`.
    Tn,
}

/// A row-strided block of a flat row-major buffer: `rows × cols` elements,
/// element `(r, c)` at `offset + r * stride + c`.
///
/// Attention head `h` of batch row `b` in a `[batch·s, heads·dh]` tensor is
/// `Block::of(heads·dh, b·s, s, h·dh, dh)`: no copy, just where it lies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Flat index of element `(0, 0)`.
    pub offset: usize,
    /// Rows of the block.
    pub rows: usize,
    /// Columns of the block.
    pub cols: usize,
    /// Distance between the starts of consecutive rows (at least `cols`).
    pub stride: usize,
}

impl Block {
    /// A whole dense `rows × cols` matrix.
    pub fn dense(rows: usize, cols: usize) -> Block {
        Block {
            offset: 0,
            rows,
            cols,
            stride: cols,
        }
    }

    /// Rows `row .. row + rows`, columns `col .. col + cols` of a row-major
    /// matrix `stride` columns wide. An offset past `usize` saturates, so a
    /// product rejects the block instead of wrapping it.
    pub fn of(stride: usize, row: usize, rows: usize, col: usize, cols: usize) -> Block {
        Block {
            offset: row.saturating_mul(stride).saturating_add(col),
            rows,
            cols,
            stride,
        }
    }

    fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The flat range the block touches: from its first element to its
    /// last row's last column (empty for an empty block).
    fn span(&self) -> Range<usize> {
        if self.is_empty() {
            return 0..0;
        }
        self.offset..self.offset + (self.rows - 1) * self.stride + self.cols
    }

    /// Checks that the block's rows do not overlap and that it lies inside
    /// a buffer of `len` floats.
    fn check(&self, len: usize) -> Result<()> {
        if self.is_empty() {
            return Ok(());
        }
        if self.cols > self.stride {
            return Err(TensorError::IndexOutOfBounds {
                index: self.cols,
                bound: self.stride,
            });
        }
        let end = (self.rows - 1)
            .checked_mul(self.stride)
            .and_then(|x| x.checked_add(self.offset))
            .and_then(|x| x.checked_add(self.cols));
        match end {
            Some(end) if end <= len => Ok(()),
            _ => Err(TensorError::IndexOutOfBounds {
                index: end.unwrap_or(usize::MAX),
                bound: len,
            }),
        }
    }
}

/// An operand of [`matmul_strided`]: a [`Block`] of a buffer.
#[derive(Clone, Copy, Debug)]
pub struct View<'a> {
    /// The buffer the block lies in.
    pub data: &'a [f32],
    /// Where in `data` the operand is.
    pub block: Block,
}

impl<'a> View<'a> {
    /// The block of `data` at `block`.
    pub fn new(data: &'a [f32], block: Block) -> View<'a> {
        View { data, block }
    }

    /// From the block's first element to its last (the caller checked it).
    fn window(&self) -> &'a [f32] {
        &self.data[self.block.span()]
    }
}

/// What a product's store adds to each fully accumulated element.
#[derive(Clone, Copy, Debug)]
pub enum Bias<'a> {
    /// Nothing: the sum is stored as it is.
    None,
    /// `+0.0`, which turns a `−0.0` sum into `+0.0` and leaves every other
    /// value alone: the bits of adding the product into a zeroed
    /// destination, with no read of it.
    Zero,
    /// `bias[c]` for column `c`.
    Row(&'a [f32]),
}

/// The one routine behind every product: `form` of `a` and `b` into the
/// block `at` of `c`, through [`crate::simd`]. Shapes and bounds are the
/// caller's to check.
fn tiled(form: Form, a: View<'_>, b: View<'_>, bias: Bias<'_>, c: &mut [f32], at: Block) {
    let k = match form {
        Form::Tn => a.block.rows,
        Form::Nn | Form::Nt => a.block.cols,
    };
    let p = crate::simd::Product {
        a: a.window(),
        lda: a.block.stride,
        a_cols: form == Form::Tn,
        b: b.window(),
        ldb: b.block.stride,
        b_transposed: form == Form::Nt,
        bias,
        k,
        n: at.cols,
    };
    crate::simd::mm_tiled(p, at.rows, &mut c[at.span()], at.stride);
}

/// `form` of two strided operands into the block `at` of `c`, every other
/// element of `c` untouched: the dense `_into` products on blocks of wider
/// buffers, with no copy in or out.
///
/// Bitwise equal to the dense product on copies of the blocks (plus
/// `bias`): an output element is a pure function of its A row, its B column
/// and `(k, n)` whatever the strides, runs on the tile the same FLOP count
/// selects, and fans out over the same column strips from the
/// pooled-dispatch line up (see the module docs). A pooled unit writes only
/// its own columns of `at`, so the rest of `c` is never touched.
///
/// # Errors
/// [`TensorError::ShapeMismatch`] if the blocks' shapes do not make the
/// product `form` into `at`, or a row bias is not `at.cols` long;
/// [`TensorError::IndexOutOfBounds`] if a block's rows overlap (`cols >
/// stride`) or it overruns its buffer.
pub fn matmul_strided(
    form: Form,
    a: View<'_>,
    b: View<'_>,
    bias: Bias<'_>,
    c: &mut [f32],
    at: Block,
) -> Result<()> {
    let (ab, bb) = (a.block, b.block);
    // (m, k) of A and (k, n) of B as the product reads them.
    let ((m, k), (bk, n)) = match form {
        Form::Nn => ((ab.rows, ab.cols), (bb.rows, bb.cols)),
        Form::Nt => ((ab.rows, ab.cols), (bb.cols, bb.rows)),
        Form::Tn => ((ab.cols, ab.rows), (bb.rows, bb.cols)),
    };
    let mismatch = |lhs: [usize; 2], rhs: [usize; 2]| TensorError::ShapeMismatch {
        op: "matmul_strided",
        lhs: lhs.to_vec(),
        rhs: rhs.to_vec(),
    };
    if k != bk {
        return Err(mismatch([ab.rows, ab.cols], [bb.rows, bb.cols]));
    }
    if (m, n) != (at.rows, at.cols) {
        return Err(mismatch([m, n], [at.rows, at.cols]));
    }
    if let Bias::Row(row) = bias {
        if row.len() != n {
            return Err(mismatch([m, n], [1, row.len()]));
        }
    }
    ab.check(a.data.len())?;
    bb.check(b.data.len())?;
    at.check(c.len())?;
    tiled(form, a, b, bias, c, at);
    Ok(())
}

/// `form` of two dense tensors whose `(m, k)` and `(k, n)` the caller
/// checked, into `out` reset to `[m, n]`.
fn dense_into(form: Form, a: &Tensor, b: &Tensor, bias: Bias<'_>, out: &mut Tensor) {
    let ((ar, ac), (br, bc)) = (a.as_2d(), b.as_2d());
    let (m, n) = match form {
        Form::Nn => (ar, bc),
        Form::Nt => (ar, br),
        Form::Tn => (ac, bc),
    };
    out.reset_to([m, n]);
    let (a, b) = (
        View::new(a.data(), Block::dense(ar, ac)),
        View::new(b.data(), Block::dense(br, bc)),
    );
    tiled(form, a, b, bias, out.data_mut(), Block::dense(m, n));
}

/// `C[m,n] = A[m,k] · B[k,n]`, written into `out` (reshaped and zeroed;
/// no allocation when `out`'s buffer is unshared and large enough).
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    mm_bias_into("matmul", a, b, None, out)
}

/// Fused `C[m,n] = A[m,k] · B[k,n] + bias[n]` (bias broadcast over rows),
/// written into `out`. Bitwise identical to [`matmul`] followed by
/// [`Tensor::add_row_broadcast`]: the bias is added to each element only
/// after its full k-accumulation.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ
/// or `bias.numel()` is not the column count.
pub fn addmm_into(a: &Tensor, b: &Tensor, bias: &Tensor, out: &mut Tensor) -> Result<()> {
    mm_bias_into("addmm", a, b, Some(bias), out)
}

/// Fused `C[m,n] = A[m,k] · B[k,n] + bias[n]`.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ
/// or `bias.numel()` is not the column count.
pub fn addmm(a: &Tensor, b: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros([0]);
    addmm_into(a, b, bias, &mut out)?;
    Ok(out)
}

fn mm_bias_into(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    out: &mut Tensor,
) -> Result<()> {
    let (m, k) = a.as_2d();
    let (bk, n) = b.as_2d();
    check_inner(op, a, b, k, bk)?;
    if let Some(bias) = bias {
        if bias.numel() != n {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: vec![m, n],
                rhs: bias.dims().to_vec(),
            });
        }
    }
    let bias = bias.map_or(Bias::None, |bias| Bias::Row(bias.data()));
    dense_into(Form::Nn, a, b, bias, out);
    Ok(())
}

/// `C[m,n] = A[m,k] · B[k,n]`.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros([0]);
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ`, written into `out` (reshaped and zeroed).
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (_, k) = a.as_2d();
    let (_, bk) = b.as_2d();
    check_inner("matmul_nt", a, b, k, bk)?;
    dense_into(Form::Nt, a, b, Bias::None, out);
    Ok(())
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ`.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros([0]);
    matmul_nt_into(a, b, &mut out)?;
    Ok(out)
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n]`, written into `out` (reshaped and zeroed).
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the leading (shared) dimensions
/// differ.
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (k, _) = a.as_2d();
    let (bk, _) = b.as_2d();
    check_inner("matmul_tn", a, b, k, bk)?;
    dense_into(Form::Tn, a, b, Bias::None, out);
    Ok(())
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n]`.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the leading (shared) dimensions
/// differ.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros([0]);
    matmul_tn_into(a, b, &mut out)?;
    Ok(out)
}

/// Reference (naive triple-loop, f64-accumulated) matmul: the oracle the
/// production kernels are tolerance-tested against.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
pub fn matmul_ref(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.as_2d();
    let (bk, n) = b.as_2d();
    check_inner("matmul_ref", a, b, k, bk)?;
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        for c in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                acc += a.data()[r * k + kk] as f64 * b.data()[kk * n + c] as f64;
            }
            out[r * n + c] = acc as f32;
        }
    }
    Tensor::from_vec(out, [m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::rng::seeded;

    #[test]
    fn matmul_small_exact() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_nt(&a, &Tensor::zeros([2, 4])).is_err());
        assert!(matmul_tn(&Tensor::zeros([3, 2]), &Tensor::zeros([4, 2])).is_err());
        assert!(addmm_into(
            &a,
            &Tensor::zeros([3, 2]),
            &Tensor::zeros([3]),
            &mut Tensor::zeros([0])
        )
        .is_err());
    }

    #[test]
    fn fast_kernels_match_reference() {
        let mut rng = seeded(3);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (16, 32, 8),
            (33, 65, 31),
            (64, 64, 64),
        ] {
            let a = init::randn(&mut rng, [m, k], 1.0);
            let b = init::randn(&mut rng, [k, n], 1.0);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_ref(&a, &b).unwrap();
            assert!(fast.approx_eq(&slow, 1e-3), "matmul mismatch {m}x{k}x{n}");

            let bt = b.transpose_2d();
            let nt = matmul_nt(&a, &bt).unwrap();
            assert!(nt.approx_eq(&slow, 1e-3), "matmul_nt mismatch {m}x{k}x{n}");

            let at = a.transpose_2d();
            let tn = matmul_tn(&at, &b).unwrap();
            assert!(tn.approx_eq(&slow, 1e-3), "matmul_tn mismatch {m}x{k}x{n}");
        }
    }

    #[test]
    fn into_variants_are_bitwise_equal_even_with_dirty_out() {
        let mut rng = seeded(17);
        for &(m, k, n) in &[(2, 3, 4), (31, 17, 9), (64, 64, 64), (70, 40, 33)] {
            let a = init::randn(&mut rng, [m, k], 1.0);
            let b = init::randn(&mut rng, [k, n], 1.0);
            // Dirty, wrongly-shaped output tensors must not influence results.
            let mut out = init::randn(&mut rng, [3, 3], 5.0);
            matmul_into(&a, &b, &mut out).unwrap();
            let alloc = matmul(&a, &b).unwrap();
            assert_eq!(bits(&out), bits(&alloc), "matmul_into {m}x{k}x{n}");

            let bt = b.transpose_2d();
            matmul_nt_into(&a, &bt, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&matmul_nt(&a, &bt).unwrap()));

            let at = a.transpose_2d();
            matmul_tn_into(&at, &b, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&matmul_tn(&at, &b).unwrap()));
        }
    }

    #[test]
    fn addmm_fuses_bias_bitwise() {
        let mut rng = seeded(23);
        for &(m, k, n) in &[(2, 3, 4), (40, 33, 29), (64, 64, 64)] {
            let a = init::randn(&mut rng, [m, k], 1.0);
            let b = init::randn(&mut rng, [k, n], 1.0);
            let bias = init::randn(&mut rng, [n], 1.0);
            let mut fused = Tensor::zeros([0]);
            addmm_into(&a, &b, &bias, &mut fused).unwrap();
            let unfused = matmul(&a, &b).unwrap().add_row_broadcast(&bias).unwrap();
            assert_eq!(bits(&fused), bits(&unfused), "addmm {m}x{k}x{n}");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn large_matmul_crosses_parallel_threshold() {
        let mut rng = seeded(9);
        let a = init::randn(&mut rng, [128, 96], 1.0);
        let b = init::randn(&mut rng, [96, 130], 1.0);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_ref(&a, &b).unwrap();
        assert!(fast.approx_eq(&slow, 1e-2));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = seeded(4);
        let a = init::randn(&mut rng, [5, 5], 1.0);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert!(matmul(&a, &eye).unwrap().approx_eq(&a, 1e-6));
        assert!(matmul(&eye, &a).unwrap().approx_eq(&a, 1e-6));
    }
}
