//! Layer normalization over the last dimension.

use crate::param::{Module, Param};
use pac_tensor::{reduce, scratch, Result, Tensor, TensorError};

/// Context saved by [`LayerNorm::forward`]: the normalized activations and
/// per-row inverse standard deviations.
#[derive(Debug, Clone)]
pub struct LayerNormCtx {
    /// Normalized input `x̂ = (x - μ) / σ`, shape of `x`.
    pub x_hat: Tensor,
    /// Per-row `1/σ`, length = rows of the 2-D view.
    pub inv_std: Vec<f32>,
}

impl LayerNormCtx {
    /// Hands `x̂` back to the scratch pool once the backward has consumed
    /// it.
    pub fn recycle(self) {
        scratch::put(self.x_hat);
    }
}

/// LayerNorm with learnable gain `γ` and shift `β` over the last dimension.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Gain, `[dim]`.
    pub gamma: Param,
    /// Shift, `[dim]`.
    pub beta: Param,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a LayerNorm over feature dimension `dim` (γ=1, β=0, ε=1e-5).
    pub fn new(name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([dim])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([dim])),
            dim,
            eps: 1e-5,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Forward pass: normalizes each row of the 2-D view, then applies γ, β.
    ///
    /// # Errors
    /// Returns a shape error if the last dimension differs from `dim`.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, LayerNormCtx)> {
        let (y, ctx) = self.run(x, true)?;
        Ok((y, ctx.expect("a recording run returns its context")))
    }

    /// The row pass both forwards run ([`reduce::layernorm_rows`]): `x̂ =
    /// (x − μ)·(1/σ)` is written to the output row, copied to the context
    /// when `record` is set, then scaled and shifted in place.
    ///
    /// # Errors
    /// Returns a shape error if the last dimension differs from `dim`.
    pub fn run(&self, x: &Tensor, record: bool) -> Result<(Tensor, Option<LayerNormCtx>)> {
        let (rows, cols) = x.as_2d();
        if cols != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "layernorm",
                lhs: x.dims().to_vec(),
                rhs: vec![self.dim],
            });
        }
        // Both come back to the scratch pool: `x̂` when the context is
        // recycled, the output when the caller is done with it.
        let mut ctx = record.then(|| LayerNormCtx {
            x_hat: scratch::take(x.dims()),
            inv_std: vec![0.0; rows],
        });
        let mut y = scratch::take(x.dims());
        if cols != 0 {
            reduce::layernorm_rows(
                x.data(),
                self.gamma.value.data(),
                self.beta.value.data(),
                self.eps,
                y.data_mut(),
                ctx.as_mut()
                    .map(|c| (c.x_hat.data_mut(), c.inv_std.as_mut_slice())),
            );
        }
        Ok((y, ctx))
    }

    /// Backward pass ([`reduce::layernorm_rows_backward`]). Accumulates
    /// `dγ`, `dβ`; returns `dx`.
    ///
    /// Uses the standard LayerNorm gradient:
    /// `dx = (1/σ)(dŷ − mean(dŷ) − x̂·mean(dŷ⊙x̂))` with `dŷ = dy⊙γ`.
    ///
    /// # Errors
    /// Returns a shape error if `dy` does not match the context shape.
    pub fn backward(&mut self, ctx: &LayerNormCtx, dy: &Tensor) -> Result<Tensor> {
        let (rows, cols) = ctx.x_hat.as_2d();
        if dy.as_2d() != (rows, cols) {
            return Err(TensorError::ShapeMismatch {
                op: "layernorm_backward",
                lhs: dy.dims().to_vec(),
                rhs: ctx.x_hat.dims().to_vec(),
            });
        }
        let mut dgamma = scratch::take([cols]);
        let mut dbeta = scratch::take([cols]);
        let mut dx = scratch::take(dy.dims());
        if cols != 0 {
            reduce::layernorm_rows_backward(
                ctx.x_hat.data(),
                &ctx.inv_std,
                dy.data(),
                self.gamma.value.data(),
                dx.data_mut(),
                dgamma.data_mut(),
                dbeta.data_mut(),
            );
        }
        if self.gamma.trainable {
            self.gamma.accumulate_grad(&dgamma);
        }
        if self.beta.trainable {
            self.beta.accumulate_grad(&dbeta);
        }
        scratch::put(dgamma);
        scratch::put(dbeta);
        Ok(dx)
    }
}

impl Module for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_close;
    use pac_tensor::{init, rng::seeded};

    #[test]
    fn output_rows_are_normalized() {
        let mut rng = seeded(7);
        let ln = LayerNorm::new("ln", 8);
        let x = init::randn(&mut rng, [4, 8], 3.0).add_scalar(5.0);
        let (y, _) = ln.forward(&x).unwrap();
        for r in 0..4 {
            let row = y.row(r).unwrap();
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row var {var}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut ln = LayerNorm::new("ln", 2);
        ln.gamma.value = Tensor::from_vec(vec![2.0, 2.0], [2]).unwrap();
        ln.beta.value = Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 1.0], [1, 2]).unwrap();
        let (y, _) = ln.forward(&x).unwrap();
        // x̂ = [-1, 1] (approximately), y = 2x̂ + 1 = [-1, 3].
        assert!((y.data()[0] + 1.0).abs() < 1e-2);
        assert!((y.data()[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn wrong_dim_is_error() {
        let ln = LayerNorm::new("ln", 4);
        assert!(ln.forward(&Tensor::zeros([2, 3])).is_err());
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded(8);
        let ln = LayerNorm::new("ln", 5);
        let x = init::randn(&mut rng, [3, 5], 1.0);
        // Weighted-sum loss to exercise non-uniform upstream gradients.
        let w = init::randn(&mut rng, [3, 5], 1.0);

        let (_, ctx) = ln.forward(&x).unwrap();
        let mut ln2 = ln.clone();
        let dx = ln2.backward(&ctx, &w).unwrap();

        assert_grad_close(&x, &dx, 2e-2, |xp| {
            ln.forward(xp).unwrap().0.mul(&w).unwrap().sum()
        });
    }

    #[test]
    fn param_gradients_match_finite_difference() {
        let mut rng = seeded(9);
        let ln = LayerNorm::new("ln", 4);
        let x = init::randn(&mut rng, [2, 4], 1.0);
        let (_, ctx) = ln.forward(&x).unwrap();
        let mut ln2 = ln.clone();
        ln2.backward(&ctx, &Tensor::ones([2, 4])).unwrap();

        assert_grad_close(&ln.gamma.value, &ln2.gamma.grad, 1e-2, |gp| {
            let mut lt = ln.clone();
            lt.gamma.value = gp.clone();
            lt.forward(&x).unwrap().0.sum()
        });
        assert_grad_close(&ln.beta.value, &ln2.beta.grad, 1e-2, |bp| {
            let mut lt = ln.clone();
            lt.beta.value = bp.clone();
            lt.forward(&x).unwrap().0.sum()
        });
    }
}
