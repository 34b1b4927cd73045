//! Row-wise reductions and normalizations over the 2-D view.

use crate::elementwise;
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

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

/// [`softmax_rows`] of the `cols`-wide rows of `x`, in place. The `exp`
/// pass runs the vectorized [`crate::elementwise::exp_sub_in_place`]; the
/// maximum and the denominator are taken in column order, so a row's result
/// depends on that row alone.
pub fn softmax_rows_in_place(x: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in x.chunks_exact_mut(cols) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        elementwise::exp_sub_in_place(row, m);
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
/// Panics if `y` and `dy` differ in length (programming error).
pub fn softmax_rows_backward_in_place(y: &[f32], dy: &mut [f32], cols: usize) {
    assert_eq!(y.len(), dy.len(), "softmax backward operand length");
    if cols == 0 {
        return;
    }
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

/// Sum over rows of the 2-D view, producing a length-`cols` tensor.
///
/// This is the bias-gradient reduction (`db = Σ_rows dY`).
pub fn sum_rows(x: &Tensor) -> Tensor {
    let (rows, cols) = x.as_2d();
    let mut out = vec![0.0f32; cols];
    for r in 0..rows {
        for (o, v) in out.iter_mut().zip(&x.data()[r * cols..(r + 1) * cols]) {
            *o += v;
        }
    }
    Tensor::from_vec(out, [cols]).expect("sum_rows shape is consistent by construction")
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
}
