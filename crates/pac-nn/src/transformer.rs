//! Pre-norm transformer layer (encoder or decoder flavor).

use crate::attention::{AttentionCtx, MultiHeadAttention};
use crate::feedforward::{FeedForward, FeedForwardCtx};
use crate::norm::{LayerNorm, LayerNormCtx};
use crate::param::{Module, Param};
use pac_tensor::{scratch, Result, Shape, Tensor};
use rand::Rng;

/// Context saved by [`TransformerLayer::forward`].
#[derive(Debug, Clone)]
pub struct TransformerLayerCtx {
    ln1: LayerNormCtx,
    attn: AttentionCtx,
    cross: Option<(LayerNormCtx, AttentionCtx)>,
    ln2: LayerNormCtx,
    ffn: FeedForwardCtx,
    dims: Shape,
}

impl TransformerLayerCtx {
    /// Hands every buffer the sub-blocks saved back to the scratch pool
    /// once the backward has consumed them.
    pub fn recycle(self) {
        self.ln1.recycle();
        self.attn.recycle();
        if let Some((lnc, cross)) = self.cross {
            lnc.recycle();
            cross.recycle();
        }
        self.ln2.recycle();
        self.ffn.recycle();
    }
}

/// A pre-norm transformer layer:
///
/// ```text
/// h1 = x  + SelfAttn(LN1(x))          (causal in decoder layers)
/// h2 = h1 + CrossAttn(LNc(h1), enc)   (decoder layers only)
/// y  = h2 + FFN(LN2(h2))
/// ```
///
/// Encoder layers omit the cross-attention sub-block. Pre-norm is used by
/// both T5 and (in its stable variants) BART-class models and keeps deep
/// micro-models trainable without LR warmup.
#[derive(Debug, Clone)]
pub struct TransformerLayer {
    /// Pre-self-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Self-attention block.
    pub self_attn: MultiHeadAttention,
    /// Optional (decoder) cross-attention with its LayerNorm.
    pub cross_attn: Option<(LayerNorm, MultiHeadAttention)>,
    /// Pre-FFN LayerNorm.
    pub ln2: LayerNorm,
    /// Feed-forward block.
    pub ffn: FeedForward,
    /// Whether self-attention is causally masked (decoder).
    pub causal: bool,
}

impl TransformerLayer {
    /// Creates an encoder layer (bidirectional self-attention, no
    /// cross-attention).
    pub fn encoder(
        name: &str,
        rng: &mut impl Rng,
        dim: usize,
        heads: usize,
        ff_dim: usize,
        act: crate::Activation,
    ) -> Self {
        TransformerLayer {
            ln1: LayerNorm::new(&format!("{name}.ln1"), dim),
            self_attn: MultiHeadAttention::new(&format!("{name}.self"), rng, dim, heads),
            cross_attn: None,
            ln2: LayerNorm::new(&format!("{name}.ln2"), dim),
            ffn: FeedForward::new(&format!("{name}.ffn"), rng, dim, ff_dim, act),
            causal: false,
        }
    }

    /// Creates a decoder layer (causal self-attention + cross-attention).
    pub fn decoder(
        name: &str,
        rng: &mut impl Rng,
        dim: usize,
        heads: usize,
        ff_dim: usize,
        act: crate::Activation,
    ) -> Self {
        TransformerLayer {
            ln1: LayerNorm::new(&format!("{name}.ln1"), dim),
            self_attn: MultiHeadAttention::new(&format!("{name}.self"), rng, dim, heads),
            cross_attn: Some((
                LayerNorm::new(&format!("{name}.lnc"), dim),
                MultiHeadAttention::new(&format!("{name}.cross"), rng, dim, heads),
            )),
            ln2: LayerNorm::new(&format!("{name}.ln2"), dim),
            ffn: FeedForward::new(&format!("{name}.ffn"), rng, dim, ff_dim, act),
            causal: true,
        }
    }

    /// True when this layer has a cross-attention sub-block.
    pub fn is_decoder(&self) -> bool {
        self.cross_attn.is_some()
    }

    /// Forward pass. `enc` must be `Some` for decoder layers and is ignored
    /// by encoder layers.
    ///
    /// # Errors
    /// Returns shape errors on malformed inputs, or a rank error if a
    /// decoder layer is called without `enc`.
    pub fn forward(
        &self,
        x: &Tensor,
        enc: Option<&Tensor>,
    ) -> Result<(Tensor, TransformerLayerCtx)> {
        let (y, ctx) = self.run(x, enc, true)?;
        Ok((y, ctx.expect("a recording run returns its context")))
    }

    /// [`TransformerLayer::forward`] for a frozen layer: no sub-block keeps
    /// a context, and every intermediate goes back to the scratch pool as
    /// soon as it is dead. Same kernels in the same order, so the same bits.
    ///
    /// # Errors
    /// As [`TransformerLayer::forward`].
    pub fn forward_frozen(&self, x: &Tensor, enc: Option<&Tensor>) -> Result<Tensor> {
        Ok(self.run(x, enc, false)?.0)
    }

    /// The body both forwards run; `record` keeps what the backward reads.
    /// Each residual sum is taken in place in the branch's output
    /// (`b + x` has the bits of `x + b`).
    ///
    /// # Errors
    /// As [`TransformerLayer::forward`].
    pub fn run(
        &self,
        x: &Tensor,
        enc: Option<&Tensor>,
        record: bool,
    ) -> Result<(Tensor, Option<TransformerLayerCtx>)> {
        let dims = *x.shape();

        let (n1, ln1_ctx) = self.ln1.run(x, record)?;
        let (mut h1, attn_ctx) = self.self_attn.run(&n1, &n1, self.causal, record)?;
        scratch::put(n1);
        h1.add_assign(x)?;

        let (h2, cross_ctx) = if let Some((lnc, cross)) = &self.cross_attn {
            let enc = enc.ok_or(pac_tensor::TensorError::RankMismatch {
                op: "decoder layer requires encoder output",
                expected: 3,
                actual: 0,
            })?;
            let (nc, lnc_ctx) = lnc.run(&h1, record)?;
            let (mut h2, cctx) = cross.run(&nc, enc, false, record)?;
            scratch::put(nc);
            h2.add_assign(&h1)?;
            scratch::put(h1);
            (h2, lnc_ctx.zip(cctx))
        } else {
            (h1, None)
        };

        let (n2, ln2_ctx) = self.ln2.run(&h2, record)?;
        let (f, ffn_ctx) = self.ffn.run(&n2, record)?;
        scratch::put(n2);
        let mut y = f.reshape(dims)?;
        y.add_assign(&h2)?;
        scratch::put(h2);

        let ctx =
            ln1_ctx
                .zip(attn_ctx)
                .zip(ln2_ctx.zip(ffn_ctx))
                .map(|((ln1, attn), (ln2, ffn))| TransformerLayerCtx {
                    ln1,
                    attn,
                    cross: cross_ctx,
                    ln2,
                    ffn,
                    dims,
                });
        Ok((y, ctx))
    }

    /// Backward pass. Returns `(dx, d_enc)`; `d_enc` is `Some` only for
    /// decoder layers and carries the gradient flowing into the encoder
    /// output.
    ///
    /// Each residual gradient is summed in place in the branch's pooled
    /// buffer (`b + a` has the bits of `a + b`), and every intermediate
    /// goes back to the scratch pool once it is dead.
    ///
    /// # Errors
    /// Propagates shape errors from sub-blocks.
    pub fn backward(
        &mut self,
        ctx: &TransformerLayerCtx,
        dy: &Tensor,
    ) -> Result<(Tensor, Option<Tensor>)> {
        // FFN branch: y = h2 + FFN(LN2(h2)).
        let d_f = self.ffn.backward(&ctx.ffn, dy)?;
        let mut d_h2 = self.ln2.backward(&ctx.ln2, &d_f)?.reshape(ctx.dims)?;
        scratch::put(d_f);
        d_h2.add_assign(dy)?;

        // Cross-attention branch.
        let (d_h1, d_enc) = if let Some((lnc, cross)) = &mut self.cross_attn {
            let (lnc_ctx, cctx) = ctx
                .cross
                .as_ref()
                .expect("decoder ctx must contain cross-attention context");
            let (d_nc, d_enc) = cross.backward(cctx, &d_h2)?;
            let mut d_h1 = lnc.backward(lnc_ctx, &d_nc)?.reshape(ctx.dims)?;
            scratch::put(d_nc);
            d_h1.add_assign(&d_h2)?;
            scratch::put(d_h2);
            (d_h1, Some(d_enc))
        } else {
            (d_h2, None)
        };

        // Self-attention branch: h1 = x + SelfAttn(LN1(x)).
        let (mut d_n1, d_n1_kv) = self.self_attn.backward(&ctx.attn, &d_h1)?;
        d_n1.add_assign(&d_n1_kv)?;
        scratch::put(d_n1_kv);
        let mut dx = self.ln1.backward(&ctx.ln1, &d_n1)?.reshape(ctx.dims)?;
        scratch::put(d_n1);
        dx.add_assign(&d_h1)?;
        scratch::put(d_h1);

        Ok((dx, d_enc))
    }
}

impl Module for TransformerLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.self_attn.visit_params(f);
        if let Some((lnc, cross)) = &mut self.cross_attn {
            lnc.visit_params(f);
            cross.visit_params(f);
        }
        self.ln2.visit_params(f);
        self.ffn.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.ln1.visit_params_ref(f);
        self.self_attn.visit_params_ref(f);
        if let Some((lnc, cross)) = &self.cross_attn {
            lnc.visit_params_ref(f);
            cross.visit_params_ref(f);
        }
        self.ln2.visit_params_ref(f);
        self.ffn.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_close;
    use crate::Activation;
    use pac_tensor::{init, rng::seeded};

    #[test]
    fn encoder_layer_shapes() {
        let mut rng = seeded(60);
        let l = TransformerLayer::encoder("enc0", &mut rng, 8, 2, 16, Activation::Gelu);
        let x = init::randn(&mut rng, [2, 4, 8], 1.0);
        let (y, _) = l.forward(&x, None).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8]);
        assert!(!l.is_decoder());
    }

    #[test]
    fn decoder_layer_requires_encoder_output() {
        let mut rng = seeded(61);
        let l = TransformerLayer::decoder("dec0", &mut rng, 8, 2, 16, Activation::Gelu);
        let x = init::randn(&mut rng, [1, 3, 8], 1.0);
        assert!(l.forward(&x, None).is_err());
        let enc = init::randn(&mut rng, [1, 5, 8], 1.0);
        let (y, _) = l.forward(&x, Some(&enc)).unwrap();
        assert_eq!(y.dims(), &[1, 3, 8]);
        assert!(l.is_decoder());
    }

    #[test]
    fn frozen_forward_has_the_recording_forwards_bits() {
        let mut rng = seeded(66);
        let enc = TransformerLayer::encoder("e", &mut rng, 8, 2, 16, Activation::Gelu);
        let dec = TransformerLayer::decoder("d", &mut rng, 8, 2, 16, Activation::Gelu);
        let x = init::randn(&mut rng, [2, 5, 8], 1.0);
        let xd = init::randn(&mut rng, [2, 3, 8], 1.0);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = enc.forward(&x, None).unwrap().0;
        assert_eq!(bits(&enc.forward_frozen(&x, None).unwrap()), bits(&want));
        let want = dec.forward(&xd, Some(&x)).unwrap().0;
        assert_eq!(
            bits(&dec.forward_frozen(&xd, Some(&x)).unwrap()),
            bits(&want)
        );
        assert!(dec.forward_frozen(&xd, None).is_err());
    }

    #[test]
    fn encoder_gradient_matches_finite_difference() {
        let mut rng = seeded(62);
        let l = TransformerLayer::encoder("enc0", &mut rng, 4, 2, 8, Activation::Gelu);
        let x = init::randn(&mut rng, [1, 3, 4], 0.5);
        let w = init::randn(&mut rng, [1, 3, 4], 1.0);

        let (_, ctx) = l.forward(&x, None).unwrap();
        let mut l2 = l.clone();
        let (dx, d_enc) = l2.backward(&ctx, &w).unwrap();
        assert!(d_enc.is_none());

        assert_grad_close(&x, &dx, 4e-2, |xp| {
            l.forward(xp, None).unwrap().0.mul(&w).unwrap().sum()
        });
    }

    #[test]
    fn decoder_gradients_match_finite_difference() {
        let mut rng = seeded(63);
        let l = TransformerLayer::decoder("dec0", &mut rng, 4, 2, 8, Activation::Gelu);
        let x = init::randn(&mut rng, [1, 2, 4], 0.5);
        let enc = init::randn(&mut rng, [1, 3, 4], 0.5);
        let w = init::randn(&mut rng, [1, 2, 4], 1.0);

        let (_, ctx) = l.forward(&x, Some(&enc)).unwrap();
        let mut l2 = l.clone();
        let (dx, d_enc) = l2.backward(&ctx, &w).unwrap();
        let d_enc = d_enc.unwrap();

        assert_grad_close(&x, &dx, 4e-2, |xp| {
            l.forward(xp, Some(&enc)).unwrap().0.mul(&w).unwrap().sum()
        });
        assert_grad_close(&enc, &d_enc, 4e-2, |ep| {
            l.forward(&x, Some(ep)).unwrap().0.mul(&w).unwrap().sum()
        });
    }

    #[test]
    fn residual_path_preserves_identity_at_zero_weights() {
        // If every sub-block output is (near) zero, y ≈ x via the residuals.
        let mut rng = seeded(64);
        let mut l = TransformerLayer::encoder("enc0", &mut rng, 4, 1, 8, Activation::Gelu);
        l.visit_params(&mut |p| {
            if !p.name.contains("gamma") {
                p.value.data_mut().fill(0.0);
            }
        });
        let x = init::randn(&mut rng, [1, 2, 4], 1.0);
        let (y, _) = l.forward(&x, None).unwrap();
        assert!(y.approx_eq(&x, 1e-5));
    }

    #[test]
    fn param_traversal_counts_subblocks() {
        let mut rng = seeded(65);
        let enc = TransformerLayer::encoder("e", &mut rng, 8, 2, 16, Activation::Gelu);
        let dec = TransformerLayer::decoder("d", &mut rng, 8, 2, 16, Activation::Gelu);
        // Decoder adds one MHA (4 * d * d) and one LayerNorm (2 * d).
        assert_eq!(dec.num_params(), enc.num_params() + 4 * 8 * 8 + 2 * 8);
    }
}
