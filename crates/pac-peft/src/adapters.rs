//! Houlsby-style bottleneck adapters (paper Figure 2, left).
//!
//! A bottleneck module `y' = y + W_up · act(W_down · y)` is appended to every
//! transformer layer. Only the adapters and the task head train, but the
//! adapters live *inside* the backbone data path, so backward still
//! traverses the entire backbone — the inefficiency the paper's §4.1
//! analyzes.

use pac_model::EncDecModel;
use pac_nn::{Activation, Linear, LinearCtx, Module, Param, TransformerLayerCtx};
use pac_tensor::{Result, Shape, Tensor};
use rand::Rng;

/// One bottleneck adapter.
#[derive(Debug, Clone)]
pub struct Adapter {
    /// Down-projection `[d, r]`.
    pub down: Linear,
    /// Up-projection `[r, d]`.
    pub up: Linear,
    act: Activation,
}

/// Saved context for one adapter application.
#[derive(Debug, Clone)]
pub struct AdapterCtx {
    down_ctx: LinearCtx,
    hidden_pre: Tensor,
    up_ctx: LinearCtx,
    dims: Shape,
}

impl Adapter {
    /// Creates an adapter with bottleneck width `r`.
    pub fn new(name: &str, rng: &mut impl Rng, d: usize, r: usize) -> Self {
        Adapter {
            down: Linear::new(&format!("{name}.down"), rng, d, r, true),
            up: Linear::new(&format!("{name}.up"), rng, r, d, true),
            act: Activation::Gelu,
        }
    }

    /// `y' = y + up(act(down(y)))`, preserving `y`'s shape.
    ///
    /// # Errors
    /// Propagates projection shape errors.
    pub fn forward(&self, y: &Tensor) -> Result<(Tensor, AdapterCtx)> {
        let dims = *y.shape();
        let (hidden_pre, down_ctx) = self.down.forward(y)?;
        let hidden = self.act.forward(&hidden_pre);
        let (delta, up_ctx) = self.up.forward(&hidden)?;
        let out = y.add(&delta.reshape(dims)?)?;
        Ok((
            out,
            AdapterCtx {
                down_ctx,
                hidden_pre,
                up_ctx,
                dims,
            },
        ))
    }

    /// Backward: accumulates adapter grads, returns `dy` (residual + branch).
    ///
    /// # Errors
    /// Propagates projection shape errors.
    pub fn backward(&mut self, ctx: &AdapterCtx, dy: &Tensor) -> Result<Tensor> {
        let d_hidden = self.up.backward(&ctx.up_ctx, dy)?;
        let d_pre = self.act.backward(&ctx.hidden_pre, &d_hidden);
        let d_branch = self.down.backward(&ctx.down_ctx, &d_pre)?;
        dy.add(&d_branch.reshape(ctx.dims)?)
    }
}

impl Module for Adapter {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.down.visit_params(f);
        self.up.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.down.visit_params_ref(f);
        self.up.visit_params_ref(f);
    }
}

/// Context for a full adapter-tuned forward pass.
#[derive(Debug, Clone)]
pub struct AdapterTunerCtx {
    enc: Vec<(TransformerLayerCtx, AdapterCtx)>,
    dec: Vec<(TransformerLayerCtx, AdapterCtx)>,
    enc_out: Tensor,
    final_ln: pac_nn::LayerNormCtx,
    head_ctx: LinearCtx,
    batch: usize,
}

/// Adapters fine-tuning over a frozen backbone.
#[derive(Debug, Clone)]
pub struct AdapterTuner {
    /// Frozen backbone (its head stays trainable).
    pub model: EncDecModel,
    /// One adapter per backbone layer (encoder layers then decoder layers).
    pub adapters: Vec<Adapter>,
}

impl AdapterTuner {
    /// Attaches adapters with reduction factor `k` (bottleneck `h/k`) to a
    /// backbone and freezes the backbone.
    pub fn new(mut model: EncDecModel, reduction: usize, rng: &mut impl Rng) -> Self {
        model.freeze_backbone();
        let d = model.config.hidden;
        let r = (d / reduction).max(1);
        let n = model.num_layers();
        let adapters = (0..n)
            .map(|i| Adapter::new(&format!("adapter{i}"), rng, d, r))
            .collect();
        AdapterTuner { model, adapters }
    }

    /// Forward pass with adapters interleaved after every backbone layer.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn forward(&self, tokens: &[Vec<usize>]) -> Result<(Tensor, AdapterTunerCtx)> {
        let m = &self.model;
        let batch = tokens.len();
        let (mut x, _) = m.embed_batch(tokens)?;

        let n_enc = m.encoder.num_layers();
        let mut enc = Vec::with_capacity(n_enc);
        for (i, layer) in m.encoder.layers().enumerate() {
            let (y, lctx) = layer.forward(&x, None)?;
            let (y2, actx) = self.adapters[i].forward(&y)?;
            enc.push((lctx, actx));
            x = y2;
        }
        let enc_out = x;

        let (mut xd, _) = m.embed_batch(&m.start_tokens(batch))?;

        let mut dec = Vec::with_capacity(m.decoder.len());
        for (j, layer) in m.decoder.iter().enumerate() {
            let (y, lctx) = layer.forward(&xd, Some(&enc_out))?;
            let (y2, actx) = self.adapters[n_enc + j].forward(&y)?;
            dec.push((lctx, actx));
            xd = y2;
        }

        let (normed, final_ln) = m.final_ln.forward(&xd)?;
        let (logits, head_ctx) = m.head.forward(&normed)?;
        Ok((
            logits,
            AdapterTunerCtx {
                enc,
                dec,
                enc_out,
                final_ln,
                head_ctx,
                batch,
            },
        ))
    }

    /// Backward pass. Note that even though the backbone is frozen, the
    /// gradient must traverse every backbone layer to reach earlier
    /// adapters — the computational cost the paper measures in Figure 3.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn backward(&mut self, ctx: &AdapterTunerCtx, dlogits: &Tensor) -> Result<()> {
        let d = self.model.config.hidden;
        let batch = ctx.batch;

        let d_normed = self.model.head.backward(&ctx.head_ctx, dlogits)?;
        let mut dxd = self
            .model
            .final_ln
            .backward(&ctx.final_ln, &d_normed)?
            .reshape([batch, 1, d])?;

        let mut d_enc_total = Tensor::zeros(ctx.enc_out.dims());
        let n_enc = self.model.encoder.num_layers();
        for (j, (layer, (lctx, actx))) in self
            .model
            .decoder
            .iter_mut()
            .zip(ctx.dec.iter())
            .enumerate()
            .rev()
        {
            let dy = self.adapters[n_enc + j].backward(actx, &dxd)?;
            let (dx, d_enc) = layer.backward(lctx, &dy)?;
            dxd = dx;
            if let Some(de) = d_enc {
                d_enc_total.add_assign(&de)?;
            }
        }

        let mut dx = d_enc_total;
        for ((layer, adapter), (lctx, actx)) in self
            .model
            .encoder
            .layers_mut()
            .rev()
            .zip(self.adapters[..n_enc].iter_mut().rev())
            .zip(ctx.enc.iter().rev())
        {
            let dy = adapter.backward(actx, &dx)?;
            let (g, _) = layer.backward(lctx, &dy)?;
            dx = g;
        }
        // Embedding gradients would be computed here for full fine-tuning;
        // the backbone (including embeddings) is frozen so we stop. `dx` and
        // the decoder-side gradient are dropped intentionally.
        let _ = dx;
        Ok(())
    }
}

impl Module for AdapterTuner {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.model.visit_params(f);
        for a in &mut self.adapters {
            a.visit_params(f);
        }
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.model.visit_params_ref(f);
        for a in &self.adapters {
            a.visit_params_ref(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::ModelConfig;
    use pac_nn::{cross_entropy, Adam, Optimizer};
    use pac_tensor::rng::seeded;

    fn tuner(seed: u64) -> AdapterTuner {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let model = EncDecModel::new(&cfg, 2, &mut seeded(seed));
        AdapterTuner::new(model, 4, &mut seeded(seed + 1))
    }

    fn toks(seed: u64, b: usize) -> Vec<Vec<usize>> {
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..4).map(|_| rng.gen_range(0..64)).collect())
            .collect()
    }

    #[test]
    fn trainable_is_adapters_plus_head() {
        let t = tuner(130);
        let adapter_params: usize = t.adapters.iter().map(|a| a.num_params()).sum();
        let head_params = t.model.head.num_params();
        assert_eq!(t.num_trainable(), adapter_params + head_params);
        assert!(t.num_trainable() < t.num_params() / 10);
    }

    #[test]
    fn adapter_identity_at_zero_up_weights() {
        let mut rng = seeded(131);
        let mut a = Adapter::new("a", &mut rng, 8, 2);
        a.up.w.value.data_mut().fill(0.0);
        a.up.b.as_mut().unwrap().value.data_mut().fill(0.0);
        let y = pac_tensor::init::randn(&mut rng, [2, 8], 1.0);
        let (out, _) = a.forward(&y).unwrap();
        assert!(out.approx_eq(&y, 1e-6));
    }

    #[test]
    fn adapter_gradcheck() {
        let mut rng = seeded(132);
        let a = Adapter::new("a", &mut rng, 6, 2);
        let y = pac_tensor::init::randn(&mut rng, [3, 6], 0.5);
        let (_, ctx) = a.forward(&y).unwrap();
        let mut a2 = a.clone();
        let dy = a2.backward(&ctx, &Tensor::ones([3, 6])).unwrap();
        pac_nn::gradcheck::assert_grad_close(&y, &dy, 2e-2, |yp| a.forward(yp).unwrap().0.sum());
    }

    #[test]
    fn training_reduces_loss_with_frozen_backbone() {
        let mut t = tuner(133);
        let backbone_before: Vec<f32> = {
            let mut v = Vec::new();
            t.model.visit_params_ref(&mut |p| {
                if !p.trainable {
                    v.extend_from_slice(p.value.data());
                }
            });
            v
        };
        let batch = toks(134, 4);
        let targets = [0usize, 1, 0, 1];
        let mut opt = Adam::new(5e-3);
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..20 {
            let (logits, ctx) = t.forward(&batch).unwrap();
            let (loss, dl) = cross_entropy(&logits, &targets).unwrap();
            if i == 0 {
                first = loss;
            }
            last = loss;
            t.zero_grads();
            t.backward(&ctx, &dl).unwrap();
            opt.step(&mut t);
        }
        assert!(last < first, "first {first} last {last}");

        let mut backbone_after = Vec::new();
        t.model.visit_params_ref(&mut |p| {
            if !p.trainable {
                backbone_after.extend_from_slice(p.value.data());
            }
        });
        assert_eq!(backbone_before, backbone_after);
    }

    #[test]
    fn adapter_grads_are_nonzero_after_backward() {
        let mut t = tuner(135);
        let batch = toks(136, 2);
        let (logits, ctx) = t.forward(&batch).unwrap();
        let (_, dl) = cross_entropy(&logits, &[0, 1]).unwrap();
        t.backward(&ctx, &dl).unwrap();
        for (i, a) in t.adapters.iter().enumerate() {
            let mut norm = 0.0f32;
            a.visit_params_ref(&mut |p| norm += p.grad.norm());
            assert!(norm > 0.0, "adapter {i} got no gradient");
        }
    }
}
