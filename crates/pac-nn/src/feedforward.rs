//! Position-wise feed-forward block (two linear layers + nonlinearity).

use crate::activation::Activation;
use crate::linear::{Linear, LinearCtx};
use crate::param::{Module, Param};
use pac_tensor::{scratch, Result, Tensor};
use rand::Rng;

/// Context saved by [`FeedForward::forward`].
#[derive(Debug, Clone)]
pub struct FeedForwardCtx {
    up_ctx: LinearCtx,
    /// Pre-activation hidden state (input of the nonlinearity).
    hidden_pre: Tensor,
    down_ctx: LinearCtx,
}

impl FeedForwardCtx {
    /// Hands both hidden buffers and the block's input back to the scratch
    /// pool once the backward has consumed them.
    pub fn recycle(self) {
        self.up_ctx.recycle();
        scratch::put(self.hidden_pre);
        self.down_ctx.recycle();
    }
}

/// `y = W₂ · act(W₁ · x + b₁) + b₂`, expanding `dim → ff_dim → dim`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    /// Up projection `[dim, ff_dim]`.
    pub up: Linear,
    /// Down projection `[ff_dim, dim]`.
    pub down: Linear,
    /// Nonlinearity between the projections.
    pub act: Activation,
}

impl FeedForward {
    /// Creates a feed-forward block.
    pub fn new(name: &str, rng: &mut impl Rng, dim: usize, ff_dim: usize, act: Activation) -> Self {
        FeedForward {
            up: Linear::new(&format!("{name}.up"), rng, dim, ff_dim, true),
            down: Linear::new(&format!("{name}.down"), rng, ff_dim, dim, true),
            act,
        }
    }

    /// Forward pass over the 2-D view of `x`.
    ///
    /// # Errors
    /// Propagates shape mismatches from the projections.
    pub fn forward(&self, x: &Tensor) -> Result<(Tensor, FeedForwardCtx)> {
        let (y, ctx) = self.run(x, true)?;
        Ok((y, ctx.expect("a recording run returns its context")))
    }

    /// The one forward body; `record` keeps what the backward reads.
    /// Without it both `[rows, ff_dim]` hidden buffers go back to the
    /// scratch pool as soon as they are dead.
    pub(crate) fn run(&self, x: &Tensor, record: bool) -> Result<(Tensor, Option<FeedForwardCtx>)> {
        let hidden_pre = self.up.forward_frozen(x)?;
        let hidden = self.act.forward(&hidden_pre);
        let kept_pre = record.then(|| hidden_pre.clone());
        scratch::put(hidden_pre);
        let y = self.down.forward_frozen(&hidden)?;
        let ctx = kept_pre.map(|hidden_pre| FeedForwardCtx {
            up_ctx: LinearCtx { x: x.clone() },
            hidden_pre,
            down_ctx: LinearCtx { x: hidden.clone() },
        });
        scratch::put(hidden);
        Ok((y, ctx))
    }

    /// Backward pass; accumulates parameter grads, returns `dx`.
    ///
    /// # Errors
    /// Propagates shape mismatches from the projections.
    pub fn backward(&mut self, ctx: &FeedForwardCtx, dy: &Tensor) -> Result<Tensor> {
        let d_hidden = self.down.backward(&ctx.down_ctx, dy)?;
        let d_pre = self.act.backward(&ctx.hidden_pre, &d_hidden);
        scratch::put(d_hidden);
        let dx = self.up.backward(&ctx.up_ctx, &d_pre)?;
        scratch::put(d_pre);
        Ok(dx)
    }
}

impl Module for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.up.visit_params(f);
        self.down.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.up.visit_params_ref(f);
        self.down.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_close;
    use pac_tensor::{init, rng::seeded};

    #[test]
    fn shapes_and_params() {
        let mut rng = seeded(50);
        let ff = FeedForward::new("ff", &mut rng, 4, 16, Activation::Gelu);
        let x = init::randn(&mut rng, [3, 4], 1.0);
        let (y, _) = ff.forward(&x).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
        assert_eq!(ff.num_params(), 4 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = seeded(51);
        let ff = FeedForward::new("ff", &mut rng, 3, 8, Activation::Gelu);
        let x = init::randn(&mut rng, [2, 3], 0.5);
        let w = init::randn(&mut rng, [2, 3], 1.0);

        let (_, ctx) = ff.forward(&x).unwrap();
        let mut ff2 = ff.clone();
        let dx = ff2.backward(&ctx, &w).unwrap();

        assert_grad_close(&x, &dx, 2e-2, |xp| {
            ff.forward(xp).unwrap().0.mul(&w).unwrap().sum()
        });
    }

    #[test]
    fn relu_variant_gradient() {
        let mut rng = seeded(52);
        let ff = FeedForward::new("ff", &mut rng, 3, 6, Activation::Relu);
        let x = init::randn(&mut rng, [2, 3], 1.0);
        let (_, ctx) = ff.forward(&x).unwrap();
        let mut ff2 = ff.clone();
        let dx = ff2.backward(&ctx, &Tensor::ones([2, 3])).unwrap();
        assert_grad_close(&x, &dx, 3e-2, |xp| ff.forward(xp).unwrap().0.sum());
    }
}
