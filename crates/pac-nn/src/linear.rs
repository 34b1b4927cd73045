//! Fully-connected (dense) layer.

use crate::param::{Module, Param};
use pac_tensor::{init, ops, reduce, scratch, Result, Tensor};
use rand::Rng;

/// Per-micro-batch context saved by [`Linear::forward`] for the backward
/// pass: the layer input.
#[derive(Debug, Clone)]
pub struct LinearCtx {
    /// Input of the forward pass, `[rows, in_dim]` (2-D view).
    pub x: Tensor,
}

impl LinearCtx {
    /// Hands the saved input back to the scratch pool once the backward
    /// has consumed it (kept, as [`scratch::put`] always is, while another
    /// handle shares it).
    pub fn recycle(self) {
        scratch::put(self.x);
    }
}

/// `y = x · W + b` with `W: [in_dim, out_dim]`, optional bias.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in_dim, out_dim]`.
    pub w: Param,
    /// Optional bias `[out_dim]`.
    pub b: Option<Param>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a linear layer with Xavier-uniform weights and zero bias.
    pub fn new(name: &str, rng: &mut impl Rng, in_dim: usize, out_dim: usize, bias: bool) -> Self {
        Linear {
            w: Param::new(format!("{name}.w"), init::xavier(rng, in_dim, out_dim)),
            b: bias.then(|| Param::new(format!("{name}.b"), Tensor::zeros([out_dim]))),
            in_dim,
            out_dim,
        }
    }

    /// Creates a linear layer from explicit weights (used by structural
    /// pruning init and tests).
    ///
    /// # Panics
    /// Panics if the weight is not `[in_dim, out_dim]`-shaped.
    pub fn from_weights(name: &str, w: Tensor, b: Option<Tensor>) -> Self {
        let (in_dim, out_dim) = w.as_2d();
        assert_eq!(w.rank(), 2, "linear weight must be rank 2");
        Linear {
            w: Param::new(format!("{name}.w"), w),
            b: b.map(|t| Param::new(format!("{name}.b"), t)),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass. `x` is interpreted as `[rows, in_dim]` via the 2-D view.
    ///
    /// # Errors
    /// Propagates shape mismatches from the underlying matmul.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, LinearCtx)> {
        Ok((self.forward_frozen(x)?, LinearCtx { x: x.clone() }))
    }

    /// [`Linear::forward`] without the context: the product alone, holding
    /// no reference to `x`, so the caller can recycle it.
    ///
    /// # Errors
    /// Propagates shape mismatches from the underlying matmul.
    pub fn forward_frozen(&self, x: &Tensor) -> Result<Tensor> {
        let mut y = scratch::take_for(x.as_2d().0 * self.out_dim);
        match &self.b {
            Some(b) => ops::addmm_into(x, &self.w.value, &b.value, &mut y)?,
            None => ops::matmul_into(x, &self.w.value, &mut y)?,
        }
        Ok(y)
    }

    /// Backward pass: accumulates `dW = xᵀ·dy`, `db = Σ dy`, returns
    /// `dx = dy·Wᵀ`.
    ///
    /// Gradients are only accumulated for trainable parameters, but `dx` is
    /// always produced (a frozen layer still propagates gradients through).
    ///
    /// # Errors
    /// Propagates shape mismatches from the underlying matmuls.
    pub fn backward(&mut self, ctx: &LinearCtx, dy: &Tensor) -> Result<Tensor> {
        self.backward_params(ctx, dy)?;
        let mut dx = scratch::take_for(dy.as_2d().0 * self.in_dim);
        ops::matmul_nt_into(dy, &self.w.value, &mut dx)?;
        Ok(dx)
    }

    /// [`Linear::backward`] without `dx`: accumulates the weight and bias
    /// gradients only, for a layer whose input needs no gradient.
    ///
    /// # Errors
    /// Propagates shape mismatches from the underlying matmul.
    pub fn backward_params(&mut self, ctx: &LinearCtx, dy: &Tensor) -> Result<()> {
        if self.w.trainable {
            let mut dw = scratch::take_for(self.in_dim * self.out_dim);
            ops::matmul_tn_into(&ctx.x, dy, &mut dw)?;
            let dw = dw.reshape(self.w.value.dims())?;
            self.w.accumulate_grad(&dw);
            scratch::put(dw);
        }
        if let Some(b) = &mut self.b {
            if b.trainable {
                let db = reduce::sum_rows(dy);
                b.accumulate_grad(&db);
                scratch::put(db);
            }
        }
        Ok(())
    }
}

impl Module for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        if let Some(b) = &mut self.b {
            f(b);
        }
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        if let Some(b) = &self.b {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_close;
    use pac_tensor::rng::seeded;

    #[test]
    fn forward_shapes() {
        let mut rng = seeded(1);
        let l = Linear::new("l", &mut rng, 4, 3, true);
        let x = init::randn(&mut rng, [5, 4], 1.0);
        let (y, _) = l.forward(&x).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
        assert_eq!(l.num_params(), 4 * 3 + 3);
    }

    #[test]
    fn bias_is_added() {
        let w = Tensor::zeros([2, 2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let l = Linear::from_weights("l", w, Some(b));
        let x = Tensor::ones([1, 2]);
        let (y, _) = l.forward(&x).unwrap();
        assert_eq!(y.data(), &[1.0, 2.0]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded(2);
        let l = Linear::new("l", &mut rng, 3, 4, true);
        let x = init::randn(&mut rng, [2, 3], 1.0);
        let dy = Tensor::ones([2, 4]); // loss = sum(y)

        let (_, ctx) = l.forward(&x).unwrap();
        let mut l2 = l.clone();
        let dx = l2.backward(&ctx, &dy).unwrap();

        assert_grad_close(&x, &dx, 1e-2, |xp| l.forward(xp).unwrap().0.sum());
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = seeded(3);
        let l = Linear::new("l", &mut rng, 3, 2, true);
        let x = init::randn(&mut rng, [4, 3], 1.0);
        let dy = Tensor::ones([4, 2]);

        let (_, ctx) = l.forward(&x).unwrap();
        let mut l2 = l.clone();
        l2.backward(&ctx, &dy).unwrap();

        // Numeric gradient w.r.t. W.
        assert_grad_close(&l.w.value, &l2.w.grad, 1e-2, |wp| {
            let lt = Linear::from_weights("t", wp.clone(), l.b.as_ref().map(|b| b.value.clone()));
            lt.forward(&x).unwrap().0.sum()
        });

        // Numeric gradient w.r.t. b: db should equal sum of dy rows = [4, 4].
        let db = l2.b.as_ref().unwrap().grad.clone();
        assert_eq!(db.data(), &[4.0, 4.0]);
    }

    #[test]
    fn frozen_layer_accumulates_no_grads_but_propagates() {
        let mut rng = seeded(4);
        let mut l = Linear::new("l", &mut rng, 3, 3, true);
        l.freeze_all();
        let x = init::randn(&mut rng, [2, 3], 1.0);
        let (_, ctx) = l.forward(&x).unwrap();
        let dx = l.backward(&ctx, &Tensor::ones([2, 3])).unwrap();
        assert_eq!(l.w.grad.norm(), 0.0);
        assert!(dx.norm() > 0.0);
    }

    #[test]
    fn backward_params_is_backward_without_dx() {
        let mut rng = seeded(6);
        let mut full = Linear::new("l", &mut rng, 5, 3, true);
        let x = init::randn(&mut rng, [4, 5], 1.0);
        let dy = init::randn(&mut rng, [4, 3], 1.0);
        let (y, ctx) = full.forward(&x).unwrap();
        assert_eq!(full.forward_frozen(&x).unwrap(), y);
        let mut params_only = full.clone();
        full.backward(&ctx, &dy).unwrap();
        params_only.backward_params(&ctx, &dy).unwrap();
        let bits = |l: &Linear| {
            let mut v = Vec::new();
            l.visit_params_ref(&mut |p| v.extend(p.grad.data().iter().map(|g| g.to_bits())));
            v
        };
        assert_eq!(bits(&params_only), bits(&full));
    }

    #[test]
    fn grad_accumulates_across_micro_batches() {
        let mut rng = seeded(5);
        let mut l = Linear::new("l", &mut rng, 2, 2, false);
        let x = init::randn(&mut rng, [1, 2], 1.0);
        let (_, ctx) = l.forward(&x).unwrap();
        l.backward(&ctx, &Tensor::ones([1, 2])).unwrap();
        let g1 = l.w.grad.clone();
        l.backward(&ctx, &Tensor::ones([1, 2])).unwrap();
        assert!(l.w.grad.approx_eq(&g1.scale(2.0), 1e-6));
    }
}
