//! Loss functions returning `(loss, dlogits)` pairs.

use pac_tensor::{reduce, Result, Tensor, TensorError};

/// Softmax cross-entropy over rows of `logits` against integer targets.
///
/// Returns the mean loss and the gradient w.r.t. `logits`
/// (`(softmax - onehot) / n`).
///
/// # Errors
/// Returns a shape error if `targets.len()` differs from the row count or
/// the batch is empty (its mean is undefined), and an index error if a
/// target id exceeds the class count.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> Result<(f32, Tensor)> {
    let (rows, cols) = logits.as_2d();
    if targets.len() != rows || rows == 0 {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy",
            lhs: logits.dims().to_vec(),
            rhs: vec![targets.len()],
        });
    }
    // The gradient is built in the softmax's own buffer: each element is
    // read as `p` before the target is subtracted from it.
    let mut grad = reduce::softmax_rows(logits);
    let g = grad.data_mut();
    let mut loss = 0.0f64;
    let inv_n = 1.0 / rows as f32;
    for (r, &t) in targets.iter().enumerate() {
        if t >= cols {
            return Err(TensorError::IndexOutOfBounds {
                index: t,
                bound: cols,
            });
        }
        let p = g[r * cols + t].max(1e-12);
        loss -= (p as f64).ln();
        g[r * cols + t] -= 1.0;
    }
    grad.scale_in_place(inv_n);
    Ok(((loss / rows as f64) as f32, grad))
}

/// Softmax cross-entropy with label smoothing `eps`: the target
/// distribution is `(1 - eps)` on the true class and `eps / (C - 1)` on
/// the rest. Returns the mean loss and gradient w.r.t. `logits`.
///
/// # Errors
/// Returns a shape error on length mismatches, an empty batch or fewer than
/// two classes, and an index error on out-of-range targets.
pub fn cross_entropy_smoothed(
    logits: &Tensor,
    targets: &[usize],
    eps: f32,
) -> Result<(f32, Tensor)> {
    let (rows, cols) = logits.as_2d();
    if targets.len() != rows || rows == 0 || cols < 2 {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy_smoothed",
            lhs: logits.dims().to_vec(),
            rhs: vec![targets.len()],
        });
    }
    let off = eps / (cols - 1) as f32;
    let on = 1.0 - eps;
    // Built in the softmax's buffer, as in `cross_entropy`.
    let mut grad = reduce::softmax_rows(logits);
    let g = grad.data_mut();
    let mut loss = 0.0f64;
    let inv_n = 1.0 / rows as f32;
    for (r, &t) in targets.iter().enumerate() {
        if t >= cols {
            return Err(TensorError::IndexOutOfBounds {
                index: t,
                bound: cols,
            });
        }
        for (c, x) in g[r * cols..(r + 1) * cols].iter_mut().enumerate() {
            let q = if c == t { on } else { off };
            let p = x.max(1e-12);
            loss -= (q as f64) * (p as f64).ln();
            *x -= q;
        }
    }
    grad.scale_in_place(inv_n);
    Ok(((loss / rows as f64) as f32, grad))
}

/// Mean-squared error between `pred` and `target` (same shapes).
///
/// Returns the mean loss and the gradient `2(pred - target)/n`.
///
/// # Errors
/// Returns a shape error if the shapes differ or hold no element.
pub fn mse(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    let diff = pred.sub(target)?;
    if diff.numel() == 0 {
        return Err(TensorError::ShapeMismatch {
            op: "mse",
            lhs: pred.dims().to_vec(),
            rhs: target.dims().to_vec(),
        });
    }
    let n = diff.numel() as f32;
    let loss = diff.data().iter().map(|d| (d * d) as f64).sum::<f64>() as f32 / n;
    let grad = diff.scale(2.0 / n);
    Ok((loss, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_tensor::{init, rng::seeded};

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], [2, 2]).unwrap();
        let (loss, _) = cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(loss < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let logits = Tensor::zeros([3, 4]);
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2]).unwrap();
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let mut rng = seeded(70);
        let logits = init::randn(&mut rng, [3, 4], 1.0);
        let targets = [1usize, 3, 0];
        let (_, grad) = cross_entropy(&logits, &targets).unwrap();

        let eps = 1e-3;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num = (cross_entropy(&lp, &targets).unwrap().0
                - cross_entropy(&lm, &targets).unwrap().0)
                / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "mismatch at {i}: {num} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn cross_entropy_validates_inputs() {
        let logits = Tensor::zeros([2, 3]);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 3]).is_err());
    }

    #[test]
    fn smoothed_ce_reduces_to_plain_at_zero_eps() {
        let mut rng = seeded(72);
        let logits = init::randn(&mut rng, [3, 4], 1.0);
        let targets = [1usize, 3, 0];
        let (l0, g0) = cross_entropy(&logits, &targets).unwrap();
        let (l1, g1) = cross_entropy_smoothed(&logits, &targets, 0.0).unwrap();
        assert!((l0 - l1).abs() < 1e-5);
        assert!(g0.approx_eq(&g1, 1e-6));
    }

    #[test]
    fn smoothed_ce_gradient_matches_finite_difference() {
        let mut rng = seeded(73);
        let logits = init::randn(&mut rng, [2, 3], 1.0);
        let targets = [2usize, 0];
        let eps_s = 0.1f32;
        let (_, grad) = cross_entropy_smoothed(&logits, &targets, eps_s).unwrap();
        let h = 1e-3;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += h;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= h;
            let num = (cross_entropy_smoothed(&lp, &targets, eps_s).unwrap().0
                - cross_entropy_smoothed(&lm, &targets, eps_s).unwrap().0)
                / (2.0 * h);
            assert!((num - grad.data()[i]).abs() < 1e-3, "at {i}");
        }
    }

    #[test]
    fn smoothing_softens_confident_gradients() {
        // A perfectly confident correct prediction has ~zero plain-CE
        // gradient but a nonzero smoothed gradient (pulling toward the
        // smoothed target).
        let logits = Tensor::from_vec(vec![20.0, -20.0], [1, 2]).unwrap();
        let (_, g_plain) = cross_entropy(&logits, &[0]).unwrap();
        let (_, g_smooth) = cross_entropy_smoothed(&logits, &[0], 0.2).unwrap();
        assert!(g_plain.norm() < 1e-6);
        assert!(g_smooth.norm() > 0.1);
    }

    #[test]
    fn mse_zero_when_equal() {
        let a = Tensor::ones([2, 2]);
        let (loss, grad) = mse(&a, &a).unwrap();
        assert_eq!(loss, 0.0);
        assert_eq!(grad.norm(), 0.0);
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let mut rng = seeded(71);
        let pred = init::randn(&mut rng, [2, 3], 1.0);
        let target = init::randn(&mut rng, [2, 3], 1.0);
        let (_, grad) = mse(&pred, &target).unwrap();

        let eps = 1e-3;
        for i in 0..pred.numel() {
            let mut pp = pred.clone();
            pp.data_mut()[i] += eps;
            let mut pm = pred.clone();
            pm.data_mut()[i] -= eps;
            let num = (mse(&pp, &target).unwrap().0 - mse(&pm, &target).unwrap().0) / (2.0 * eps);
            assert!((num - grad.data()[i]).abs() < 1e-3);
        }
    }

    /// An empty batch has no mean loss: every loss refuses it rather than
    /// dividing by its zero row count (the data-parallel step skips an
    /// empty lane before it reaches a loss).
    #[test]
    fn empty_batch_is_a_shape_error() {
        let empty = Tensor::zeros([0, 2]);
        let shape_error =
            |r: Result<(f32, Tensor)>| matches!(r, Err(TensorError::ShapeMismatch { .. }));
        assert!(shape_error(cross_entropy(&empty, &[])));
        assert!(shape_error(cross_entropy_smoothed(&empty, &[], 0.1)));
        assert!(shape_error(mse(&empty, &Tensor::zeros([0, 2]))));
        assert!(shape_error(mse(&Tensor::zeros([0]), &Tensor::zeros([0]))));
    }

    #[test]
    fn mse_shape_mismatch_is_error() {
        assert!(mse(&Tensor::zeros([2]), &Tensor::zeros([3])).is_err());
    }
}
