//! LoRA: low-rank adaptation of attention projections (paper Figure 2,
//! right).
//!
//! Every attention block's Q and V projections receive a trainable low-rank
//! delta: `W_eff = W₀ + A·B · s` with `A ∈ R^{d×r}` (random init) and
//! `B ∈ R^{r×d}` (zero init, so training starts from the pretrained
//! function).
//!
//! ### Implementation note
//! We train LoRA by *merging*: before each forward pass `W_eff` is
//! materialized into the backbone weight, the ordinary backward pass
//! produces `dW`, and the chain rule projects it onto the factors
//! (`dA = dW·Bᵀ·s`, `dB = Aᵀ·dW·s`). This is mathematically identical to
//! the factored formulation; the memory characteristics of real LoRA are
//! accounted analytically in [`crate::memory`].

use pac_model::{EncDecCtx, EncDecModel};
use pac_nn::{Linear, Module, Param};
use pac_tensor::{init, ops, scratch, Result, Tensor};
use rand::Rng;

/// Which attention block a LoRA pair targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttnSite {
    /// Encoder layer `i` self-attention.
    EncSelf(usize),
    /// Decoder layer `i` self-attention.
    DecSelf(usize),
    /// Decoder layer `i` cross-attention.
    DecCross(usize),
}

/// Which projection within the attention block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proj {
    /// Query projection.
    Q,
    /// Value projection.
    V,
}

/// One low-rank factor pair attached to a projection.
#[derive(Debug, Clone)]
pub struct LoraPair {
    /// Target attention block.
    pub site: AttnSite,
    /// Target projection.
    pub proj: Proj,
    /// Frozen pretrained weight `W₀`.
    pub w0: Tensor,
    /// Factor `A [d, r]`.
    pub a: Param,
    /// Factor `B [r, d]`.
    pub b: Param,
    /// Scale `s = α / r` (we use α = r, i.e. s = 1).
    pub scale: f32,
}

fn target_mut(model: &mut EncDecModel, site: AttnSite, proj: Proj) -> &mut Linear {
    let attn = match site {
        AttnSite::EncSelf(i) => {
            &mut model
                .encoder
                .layers_mut()
                .nth(i)
                .expect("encoder layer exists")
                .self_attn
        }
        AttnSite::DecSelf(i) => &mut model.decoder[i].self_attn,
        AttnSite::DecCross(i) => {
            &mut model.decoder[i]
                .cross_attn
                .as_mut()
                .expect("decoder layer has cross attention")
                .1
        }
    };
    match proj {
        Proj::Q => &mut attn.wq,
        Proj::V => &mut attn.wv,
    }
}

/// LoRA fine-tuning over a frozen backbone.
#[derive(Debug, Clone)]
pub struct LoraTuner {
    /// Backbone; frozen except the task head and the (gradient-carrier)
    /// target projections, which are excluded from optimization.
    pub model: EncDecModel,
    /// The low-rank pairs.
    pub pairs: Vec<LoraPair>,
}

impl LoraTuner {
    /// Attaches rank-`r` LoRA pairs to Q and V of every attention block.
    pub fn new(mut model: EncDecModel, rank: usize, rng: &mut impl Rng) -> Self {
        model.freeze_backbone();
        let d = model.config.hidden;
        let mut sites = Vec::new();
        for i in 0..model.encoder.num_layers() {
            sites.push(AttnSite::EncSelf(i));
        }
        for i in 0..model.decoder.len() {
            sites.push(AttnSite::DecSelf(i));
            sites.push(AttnSite::DecCross(i));
        }
        let mut pairs = Vec::new();
        for site in sites {
            for proj in [Proj::Q, Proj::V] {
                let lin = target_mut(&mut model, site, proj);
                // The target weight carries gradients during backward but is
                // never optimized directly (see module docs).
                lin.w.trainable = true;
                let w0 = lin.w.value.clone();
                let a = Param::new(
                    format!("lora.{site:?}.{proj:?}.a"),
                    init::randn(rng, [d, rank], (1.0 / rank as f32).sqrt()),
                );
                let b = Param::new(
                    format!("lora.{site:?}.{proj:?}.b"),
                    Tensor::zeros([rank, d]),
                );
                pairs.push(LoraPair {
                    site,
                    proj,
                    w0,
                    a,
                    b,
                    scale: 1.0,
                });
            }
        }
        LoraTuner { model, pairs }
    }

    /// Re-materializes `W_eff = W₀ + A·B·s` into every target projection.
    ///
    /// # Errors
    /// Propagates matmul shape errors (cannot occur for well-formed pairs).
    pub fn merge(&mut self) -> Result<()> {
        let mut delta = scratch::take_for(0);
        for pair in &self.pairs {
            ops::matmul_into(&pair.a.value, &pair.b.value, &mut delta)?;
            let mut w_eff = scratch::take_for(pair.w0.numel());
            w_eff.reset_to(pair.w0.dims());
            w_eff.data_mut().copy_from_slice(pair.w0.data());
            let s = pair.scale;
            for (o, d) in w_eff.data_mut().iter_mut().zip(delta.data()) {
                *o += d * s;
            }
            let lin = target_mut(&mut self.model, pair.site, pair.proj);
            let old = std::mem::replace(&mut lin.w.value, w_eff);
            scratch::put(old);
        }
        scratch::put(delta);
        Ok(())
    }

    /// Forward pass (merges first).
    ///
    /// # Errors
    /// Propagates model shape errors.
    pub fn forward(&mut self, tokens: &[Vec<usize>]) -> Result<(Tensor, EncDecCtx)> {
        self.merge()?;
        self.model.forward(tokens)
    }

    /// Backward pass: runs the model backward, then projects each target's
    /// `dW` onto the low-rank factors and clears the carrier gradient.
    ///
    /// # Errors
    /// Propagates model shape errors.
    pub fn backward(&mut self, ctx: &EncDecCtx, dlogits: &Tensor) -> Result<()> {
        self.model.backward(ctx, dlogits)?;
        for pi in 0..self.pairs.len() {
            let (site, proj, scale) = {
                let p = &self.pairs[pi];
                (p.site, p.proj, p.scale)
            };
            let dw = {
                let lin = target_mut(&mut self.model, site, proj);
                let dw = lin.w.grad.clone();
                lin.w.zero_grad();
                dw
            };
            let pair = &mut self.pairs[pi];
            // dA = dW·Bᵀ·s ; dB = Aᵀ·dW·s
            let mut da = scratch::take_for(pair.a.value.numel());
            ops::matmul_nt_into(&dw, &pair.b.value, &mut da)?;
            da.scale_in_place(scale);
            pair.a.accumulate_grad(&da);
            scratch::put(da);
            let mut db = scratch::take_for(pair.b.value.numel());
            ops::matmul_tn_into(&pair.a.value, &dw, &mut db)?;
            db.scale_in_place(scale);
            pair.b.accumulate_grad(&db);
            scratch::put(db);
            scratch::put(dw);
        }
        Ok(())
    }
}

impl Module for LoraTuner {
    /// Exposes only the optimizable parameters: LoRA factors and the task
    /// head. The backbone (including the gradient-carrier projections) is
    /// invisible to optimizers.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in &mut self.pairs {
            f(&mut p.a);
            f(&mut p.b);
        }
        self.model.head.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for p in &self.pairs {
            f(&p.a);
            f(&p.b);
        }
        self.model.head.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::ModelConfig;
    use pac_nn::{cross_entropy, Adam, Optimizer};
    use pac_tensor::rng::seeded;

    fn tuner(seed: u64) -> LoraTuner {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let model = EncDecModel::new(&cfg, 2, &mut seeded(seed));
        LoraTuner::new(model, 2, &mut seeded(seed + 1))
    }

    fn toks(seed: u64, b: usize) -> Vec<Vec<usize>> {
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..4).map(|_| rng.gen_range(0..64)).collect())
            .collect()
    }

    #[test]
    fn pair_count_covers_all_attention_blocks() {
        let t = tuner(140);
        // 2 encoder (1 attn) + 1 decoder (2 attn) = 4 blocks × {Q, V}.
        assert_eq!(t.pairs.len(), 8);
    }

    #[test]
    fn zero_b_means_pretrained_function() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let model = EncDecModel::new(&cfg, 2, &mut seeded(141));
        let batch = toks(142, 2);
        let (ref_logits, _) = model.forward(&batch).unwrap();
        let mut t = LoraTuner::new(model, 2, &mut seeded(143));
        let (logits, _) = t.forward(&batch).unwrap();
        assert!(
            logits.approx_eq(&ref_logits, 1e-5),
            "B=0 must reproduce the pretrained model exactly"
        );
    }

    #[test]
    fn factor_gradients_match_finite_difference() {
        let mut t = tuner(144);
        let batch = toks(145, 2);
        let targets = [0usize, 1];

        let (logits, ctx) = t.forward(&batch).unwrap();
        let (_, dl) = cross_entropy(&logits, &targets).unwrap();
        t.zero_grads();
        t.backward(&ctx, &dl).unwrap();

        // Check the A factor of the first pair against finite differences.
        let a_val = t.pairs[0].a.value.clone();
        let a_grad = t.pairs[0].a.grad.clone();
        let eps = 1e-2f32;
        // Probe a handful of coordinates (full sweep is expensive).
        for i in [0usize, 3, 7, 13] {
            let mut tp = t.clone();
            tp.pairs[0].a.value = {
                let mut v = a_val.clone();
                v.data_mut()[i] += eps;
                v
            };
            let (lp, _) = tp.forward(&batch).unwrap();
            let (loss_p, _) = cross_entropy(&lp, &targets).unwrap();

            let mut tm = t.clone();
            tm.pairs[0].a.value = {
                let mut v = a_val.clone();
                v.data_mut()[i] -= eps;
                v
            };
            let (lm, _) = tm.forward(&batch).unwrap();
            let (loss_m, _) = cross_entropy(&lm, &targets).unwrap();

            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!(
                (numeric - a_grad.data()[i]).abs() < 2e-2_f32.max(numeric.abs() * 0.1),
                "dA[{i}]: numeric {numeric} vs analytic {}",
                a_grad.data()[i]
            );
        }
    }

    #[test]
    fn training_reduces_loss_and_w0_is_preserved() {
        let mut t = tuner(146);
        let w0_snapshot = t.pairs[0].w0.clone();
        let batch = toks(147, 4);
        let targets = [0usize, 1, 0, 1];
        let mut opt = Adam::new(1e-2);
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
        assert_eq!(t.pairs[0].w0, w0_snapshot, "pretrained weight moved");
        // B must have moved away from zero for LoRA to have done anything.
        assert!(t.pairs.iter().any(|p| p.b.value.norm() > 0.0));
    }

    #[test]
    fn optimizer_never_sees_backbone_params() {
        let mut t = tuner(148);
        let mut names = Vec::new();
        t.visit_params(&mut |p| names.push(p.name.clone()));
        assert!(names
            .iter()
            .all(|n| n.starts_with("lora") || n.starts_with("head")));
    }
}
