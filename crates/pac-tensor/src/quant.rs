//! Per-row absmax int8 quantization for the *frozen* half of the model.
//!
//! Pluto-and-Charon freezes the backbone and trains only the side network,
//! so everything the backbone produces — frozen weights, cached boundary
//! activations, Act frames on the wire — is read-only data whose precision
//! is a storage/transport decision, not a training one. EDGE-LLM-style
//! layerwise compression of exactly this frozen side preserves tuning
//! quality, and that is the scope here: [`QTensor`] never appears on a
//! gradient path.
//!
//! Scheme: symmetric per-row absmax. For each row of the 2-D view
//! (leading dims folded, exactly like [`Tensor::as_2d`]) the scale is
//! `absmax / 127`, values are `round(v / scale)` clamped to `[-127, 127]`
//! (`-128` unused, keeping the grid symmetric), and dequantization is
//! `q * scale`. A row of zeros gets scale `0` and dequantizes to zeros.
//!
//! The int8×int8 product kernel [`qmatmul_nt_into`] accumulates in `i32`
//! (exact — no rounding inside the k-loop) and applies the two per-row
//! scales once per output element, so no dequantized f32 copy of either
//! operand ever materializes. Integer accumulation is order-independent,
//! which means the quantized path keeps the workspace's pool-width
//! bitwise-determinism contract for free.

use crate::error::{Result, TensorError};
use crate::ops::dispatch;
use crate::tensor::Tensor;

/// Largest quantized magnitude: symmetric grid `[-127, 127]`.
const QMAX: f32 = 127.0;
/// What a FLOP of the scalar i8×i8→i32 loop costs in FLOPs of the f32 tile,
/// the unit [`dispatch`]'s line is drawn in: 8.1–9.6 GFLOP/s against
/// 130–150 single-threaded (2026-10, `BENCH_PR19.json`), so an int8 product
/// still fans out from 2^18 of its own FLOPs, which last the same ≈ 32 µs
/// as 2^22 of the tile's. With the factor left out the int8 epoch of
/// `pac-bench` went 3.9 → 4.4 ms.
const I8_LOOP_COST: usize = 16;

/// Per-row absmax-quantized int8 tensor (frozen-side storage format).
///
/// The `i32` accumulator in [`qmatmul_nt_into`] bounds the inner dimension:
/// `k · 127²` must stay below `i32::MAX`, i.e. `k < ~133 000` — far above
/// any k this workspace produces (hidden widths are ≤ a few thousand).
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    dims: Vec<usize>,
    row_len: usize,
    /// One scale per folded row; `scales.len() * row_len == data.len()`.
    scales: Vec<f32>,
    data: Vec<i8>,
}

impl QTensor {
    /// Quantizes `t` with one absmax scale per folded row.
    pub fn quantize(t: &Tensor) -> QTensor {
        let (rows, row_len) = t.as_2d();
        let src = t.data();
        let mut scales = Vec::with_capacity(rows);
        let mut data = Vec::with_capacity(rows * row_len);
        for r in 0..rows {
            let row = &src[r * row_len..(r + 1) * row_len];
            let absmax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = absmax / QMAX;
            scales.push(scale);
            if scale == 0.0 {
                data.resize(data.len() + row_len, 0i8);
            } else {
                let inv = QMAX / absmax;
                data.extend(
                    row.iter()
                        .map(|&v| (v * inv).round().clamp(-QMAX, QMAX) as i8),
                );
            }
        }
        QTensor {
            dims: t.dims().to_vec(),
            row_len,
            scales,
            data,
        }
    }

    /// Rebuilds a `QTensor` from its serialized parts (wire decode path).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when the part lengths are
    /// inconsistent with `dims`.
    pub fn from_parts(dims: Vec<usize>, scales: Vec<f32>, data: Vec<i8>) -> Result<QTensor> {
        let numel: usize = dims.iter().product();
        let rows = scales.len();
        if rows == 0 || numel != data.len() || !numel.is_multiple_of(rows) {
            return Err(TensorError::ShapeMismatch {
                op: "qtensor_from_parts",
                lhs: dims,
                rhs: vec![rows, data.len()],
            });
        }
        Ok(QTensor {
            row_len: numel / rows,
            dims,
            scales,
            data,
        })
    }

    /// Logical dimensions of the dequantized tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Folded-row count (one scale each).
    pub fn rows(&self) -> usize {
        self.scales.len()
    }

    /// Elements per folded row.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Per-row scales (dequant factor; `absmax / 127`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Quantized payload, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Resident payload bytes: 1 byte per element plus 4 per row scale
    /// (the ~4× cut versus `numel * 4` f32 storage).
    pub fn size_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }

    /// Dequantizes into a fresh f32 tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros([0]);
        self.dequantize_into(&mut out);
        out
    }

    /// Dequantizes into `out` (reshaped; zero-alloc when `out`'s buffer is
    /// unshared and large enough).
    pub fn dequantize_into(&self, out: &mut Tensor) {
        out.reset_to(self.dims.as_slice());
        let dst = out.data_mut();
        for (r, &scale) in self.scales.iter().enumerate() {
            let row = &self.data[r * self.row_len..(r + 1) * self.row_len];
            let drow = &mut dst[r * self.row_len..(r + 1) * self.row_len];
            for (d, &q) in drow.iter_mut().zip(row.iter()) {
                *d = q as f32 * scale;
            }
        }
    }

    /// Worst-case absolute dequantization error for row `r`: half a
    /// quantization step. Used by the property tests.
    pub fn row_step(&self, r: usize) -> f32 {
        self.scales[r] * 0.5
    }
}

/// `C[m,n] = Aq[m,k] · Bq[n,k]ᵀ`, both operands int8, written into `out`.
///
/// The nt form is the one where per-row scales factor cleanly: every
/// output element touches exactly one row of A and one row of B, so
/// `C[r,c] = sa[r] · sb[c] · Σ_k qa[r,k]·qb[c,k]` with the k-sum exact in
/// `i32`. Frozen weights are therefore stored pre-transposed (`[out, in]`)
/// by their owners.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
pub fn qmatmul_nt_into(a: &QTensor, b: &QTensor, out: &mut Tensor) -> Result<()> {
    let (m, k) = (a.rows(), a.row_len());
    let (n, bk) = (b.rows(), b.row_len());
    if k != bk {
        return Err(TensorError::ShapeMismatch {
            op: "qmatmul_nt",
            lhs: a.dims.clone(),
            rhs: b.dims.clone(),
        });
    }
    out.reset_to([m, n]);
    let ad = &a.data;
    let bd = &b.data;
    let sa = &a.scales;
    let sb = &b.scales;

    let kernel = |r0: usize, chunk: &mut [f32]| {
        let rows = chunk.len() / n;
        for ri in 0..rows {
            let r = r0 + ri;
            let arow = &ad[r * k..(r + 1) * k];
            let crow = &mut chunk[ri * n..(ri + 1) * n];
            for (c, cval) in crow.iter_mut().enumerate() {
                let brow = &bd[c * k..(c + 1) * k];
                let mut acc = 0i32;
                for (&x, &y) in arow.iter().zip(brow.iter()) {
                    acc += x as i32 * y as i32;
                }
                *cval = acc as f32 * (sa[r] * sb[c]);
            }
        }
    };
    dispatch(out.data_mut(), n, I8_LOOP_COST * 2 * m * n * k, kernel);
    Ok(())
}

/// Quantized frozen-linear forward: `y = x · Wᵀq (+ bias)` where `qw_t`
/// holds the weight pre-transposed to `[out, in]`. The activation `x` is
/// quantized on the fly (per row of the folded 2-D view), the product runs
/// dequant-free in int8, and the bias is added in f32 after rescale.
///
/// # Errors
/// Returns [`TensorError::ShapeMismatch`] on inner-dimension or bias-width
/// mismatch.
pub fn qlinear_forward_into(
    x: &Tensor,
    qw_t: &QTensor,
    bias: Option<&Tensor>,
    out: &mut Tensor,
) -> Result<()> {
    let qx = QTensor::quantize(x);
    qmatmul_nt_into(&qx, qw_t, out)?;
    if let Some(bias) = bias {
        let n = qw_t.rows();
        if bias.numel() != n {
            return Err(TensorError::ShapeMismatch {
                op: "qlinear_bias",
                lhs: vec![qx.rows(), n],
                rhs: bias.dims().to_vec(),
            });
        }
        let bd = bias.data();
        for row in out.data_mut().chunks_mut(n) {
            for (c, bv) in row.iter_mut().zip(bd.iter()) {
                *c += bv;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::ops::{matmul_nt, matmul_nt_into};
    use crate::rng::seeded;

    #[test]
    fn roundtrip_error_is_within_half_step() {
        let mut rng = seeded(11);
        for &(r, c) in &[(1, 1), (3, 17), (16, 64), (33, 7)] {
            let t = init::randn(&mut rng, [r, c], 2.5);
            let q = QTensor::quantize(&t);
            let back = q.dequantize();
            assert_eq!(back.dims(), t.dims());
            for row in 0..r {
                let step = q.row_step(row);
                for col in 0..c {
                    let a = t.data()[row * c + col];
                    let b = back.data()[row * c + col];
                    assert!(
                        (a - b).abs() <= step + 1e-7,
                        "row {row} col {col}: {a} vs {b}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_rows_quantize_cleanly() {
        let t = Tensor::zeros([4, 8]);
        let q = QTensor::quantize(&t);
        assert!(q.scales().iter().all(|&s| s == 0.0));
        assert_eq!(q.dequantize().data(), t.data());
    }

    #[test]
    fn size_bytes_shows_the_cut() {
        let t = Tensor::zeros([64, 256]);
        let q = QTensor::quantize(&t);
        let f32_bytes = 64 * 256 * 4;
        assert!(q.size_bytes() * 3 < f32_bytes, "{}", q.size_bytes());
        assert_eq!(q.size_bytes(), 64 * 256 + 64 * 4);
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(QTensor::from_parts(vec![2, 3], vec![1.0, 1.0], vec![0; 6]).is_ok());
        assert!(QTensor::from_parts(vec![2, 3], vec![1.0], vec![0; 5]).is_err());
        assert!(QTensor::from_parts(vec![2, 3], vec![], vec![0; 6]).is_err());
        assert!(QTensor::from_parts(vec![2, 3], vec![1.0, 1.0, 1.0, 1.0], vec![0; 6]).is_err());
    }

    #[test]
    fn qmatmul_tracks_f32_reference() {
        let mut rng = seeded(29);
        for &(m, k, n) in &[(2, 8, 3), (16, 64, 16), (31, 33, 9)] {
            let a = init::randn(&mut rng, [m, k], 1.0);
            let b = init::randn(&mut rng, [n, k], 1.0);
            let qa = QTensor::quantize(&a);
            let qb = QTensor::quantize(&b);
            let mut qc = Tensor::zeros([0]);
            qmatmul_nt_into(&qa, &qb, &mut qc).unwrap();
            let fc = matmul_nt(&a, &b).unwrap();
            // Per-element error bound: each operand is within half a step
            // of its f32 value, so the dot of k terms is within
            // k * (|a|max * stepb + |b|max * stepa) + O(step²) — loose
            // practical bound below.
            for r in 0..m {
                for c in 0..n {
                    let err = (qc.data()[r * n + c] - fc.data()[r * n + c]).abs();
                    let bound = k as f32
                        * (qa.row_step(r) * 127.0 * qb.scales()[c]
                            + qb.row_step(c) * 127.0 * qa.scales()[r])
                        + 1e-4;
                    assert!(
                        err <= bound,
                        "{m}x{k}x{n} [{r},{c}]: err {err} bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn qlinear_matches_quantized_weight_matmul() {
        let mut rng = seeded(31);
        let x = init::randn(&mut rng, [5, 12], 1.0);
        let w_t = init::randn(&mut rng, [7, 12], 0.3); // [out, in]
        let bias = init::randn(&mut rng, [7], 0.1);
        let qw = QTensor::quantize(&w_t);

        let mut got = Tensor::zeros([0]);
        qlinear_forward_into(&x, &qw, Some(&bias), &mut got).unwrap();

        // Reference: same quantization of x, dequantized product + bias.
        let qx = QTensor::quantize(&x);
        let mut want = Tensor::zeros([0]);
        matmul_nt_into(&qx.dequantize(), &qw.dequantize(), &mut want).unwrap();
        let want = want.add_row_broadcast(&bias).unwrap();
        for (g, w) in got.data().iter().zip(want.data().iter()) {
            assert!((g - w).abs() <= 1e-3, "{g} vs {w}");
        }
        assert!(qlinear_forward_into(&x, &qw, Some(&Tensor::zeros([3])), &mut got).is_err());
    }

    #[test]
    fn integer_accumulation_is_pool_width_invariant() {
        let mut rng = seeded(37);
        // Past the pooled-dispatch line, so the chunked path runs: two
        // whole 48-row chunks and a ragged one of 32.
        let (m, k, n) = (128, 96, 130);
        assert!(I8_LOOP_COST * 2 * m * n * k >= crate::ops::PAR_THRESHOLD_FLOPS);
        let a = init::randn(&mut rng, [m, k], 1.0);
        let b = init::randn(&mut rng, [n, k], 1.0);
        let qa = QTensor::quantize(&a);
        let qb = QTensor::quantize(&b);
        let mut reference = Tensor::zeros([0]);
        qmatmul_nt_into(&qa, &qb, &mut reference).unwrap();
        let bits: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
        for &w in &[1usize, 2, 8] {
            rayon::pool::set_max_concurrency(w);
            let mut again = Tensor::zeros([0]);
            qmatmul_nt_into(&qa, &qb, &mut again).unwrap();
            let again_bits: Vec<u32> = again.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, again_bits, "width {w}");
        }
    }
}
