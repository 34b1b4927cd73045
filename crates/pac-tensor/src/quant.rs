//! Per-row absmax int8 codec for the *frozen* half of the model.
//!
//! Pluto-and-Charon freezes the backbone and trains only the side network,
//! so what the backbone produces for later reuse — cached boundary
//! activations, Act frames on the wire — is read-only data whose precision
//! is a storage/transport decision, not a training one. That is the scope
//! here: [`QTensor`] is a format to store and ship such tensors in, it never
//! appears on a gradient path, and no kernel computes on it — consumers
//! [`QTensor::dequantize_into`] an f32 buffer and run the one f32 matmul.
//!
//! Scheme: symmetric per-row absmax. For each row of the 2-D view
//! (leading dims folded, exactly like [`Tensor::as_2d`]) the scale is
//! `absmax / 127`, values are `round(v / scale)` clamped to `[-127, 127]`
//! (`-128` unused, keeping the grid symmetric), and dequantization is
//! `q * scale`. A row of zeros gets scale `0` and dequantizes to zeros.

use crate::error::{Result, TensorError};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Largest quantized magnitude: symmetric grid `[-127, 127]`.
const QMAX: f32 = 127.0;

/// Per-row absmax-quantized int8 tensor (frozen-side storage format).
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    dims: Shape,
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
            dims: *t.shape(),
            row_len,
            scales,
            data,
        }
    }

    /// Rebuilds a `QTensor` from its serialized parts (wire decode path).
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] unless there is exactly one
    /// scale per folded row of `dims` (the [`Tensor::as_2d`] view
    /// [`QTensor::quantize`] works on) and one payload byte per element.
    ///
    /// # Panics
    /// If `dims` has more than [`crate::MAX_RANK`] extents (see
    /// [`Shape::new`]); the wire decoder rejects such a rank first.
    pub fn from_parts(dims: impl Into<Shape>, scales: Vec<f32>, data: Vec<i8>) -> Result<QTensor> {
        let dims = dims.into();
        // Checked: `dims` comes off the wire, the products must not wrap.
        let (lead, row_len) = match dims.dims() {
            [] => (&[][..], 1),
            [lead @ .., cols] => (lead, *cols),
        };
        let rows = lead.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if rows != Some(scales.len()) || scales.len().checked_mul(row_len) != Some(data.len()) {
            return Err(TensorError::ShapeMismatch {
                op: "qtensor_from_parts",
                lhs: dims.dims().to_vec(),
                rhs: vec![scales.len(), data.len()],
            });
        }
        Ok(QTensor {
            dims,
            row_len,
            scales,
            data,
        })
    }

    /// Logical dimensions of the dequantized tensor.
    pub fn dims(&self) -> &[usize] {
        self.dims.dims()
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
        out.reset_to(self.dims);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
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
    fn from_parts_requires_one_scale_per_folded_row() {
        // A scale count that divides the element count but is not the
        // folded row count would put every scale on the wrong elements.
        assert!(QTensor::from_parts(vec![2, 3], vec![1.0; 3], vec![0; 6]).is_err());
        assert!(QTensor::from_parts(vec![1, 2, 3], vec![1.0; 3], vec![0; 6]).is_err());
        let q = QTensor::from_parts(vec![1, 2, 3], vec![1.0; 2], vec![0; 6]).unwrap();
        assert_eq!((q.rows(), q.row_len()), (2, 3));
    }
}
