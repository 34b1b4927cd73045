//! The full encoder-decoder model (T5/BART structure) with explicit
//! forward/backward, used for real micro-scale training. Its encoder is a
//! [`StageModel`] (embedding · layers, no head), so it runs the one body
//! every pipeline stage runs; the model itself keeps only the decoder.

use crate::config::ModelConfig;
use crate::embed::{embed_tokens, embed_tokens_backward, TokenEmbedCtx};
use crate::stage::{StageCtx, StageData, StageModel, StageUnit};
use pac_nn::{
    Activation, Embedding, LayerNorm, LayerNormCtx, Linear, LinearCtx, Module, Param,
    TransformerLayer, TransformerLayerCtx,
};
use pac_tensor::{Result, Tensor};
use rand::Rng;

/// Context captured by [`EncDecModel::forward`].
#[derive(Debug, Clone)]
pub struct EncDecCtx {
    encoder: StageCtx,
    /// The decoder's start-token embedding.
    dec_embed: TokenEmbedCtx,
    dec_ctxs: Vec<TransformerLayerCtx>,
    /// Final encoder output fed to every decoder layer's cross-attention.
    pub enc_out: Tensor,
    final_ln: LayerNormCtx,
    head_ctx: LinearCtx,
    batch: usize,
}

/// The logits and the backward's context of a recording run.
type Recorded = (Tensor, EncDecCtx);

/// Encoder-decoder transformer with a task head on the first decoder
/// position (the T5 "text-to-text reduced to classification" pattern: the
/// decoder is fed a single start token and the head reads its output).
#[derive(Debug, Clone)]
pub struct EncDecModel {
    /// Architecture this model instantiates.
    pub config: ModelConfig,
    /// Encoder stack behind the token and positional embedding, whose
    /// tables the decoder shares (T5/BART tie these).
    pub encoder: StageModel,
    /// Decoder stack (causal self-attention + cross-attention).
    pub decoder: Vec<TransformerLayer>,
    /// Final LayerNorm before the head.
    pub final_ln: LayerNorm,
    /// Task head `[hidden, n_out]`.
    pub head: Linear,
    /// Decoder start-token id.
    pub start_token: usize,
}

impl EncDecModel {
    /// Builds a model from `config` with `n_out` head outputs.
    ///
    /// The encoder layers draw from `rng` first, then the decoder layers,
    /// the token table, the positional table and the head.
    pub fn new(config: &ModelConfig, n_out: usize, rng: &mut impl Rng) -> Self {
        let d = config.hidden;
        let layers: Vec<StageUnit> = (0..config.enc_layers)
            .map(|i| {
                StageUnit::Layer(Box::new(TransformerLayer::encoder(
                    &format!("enc{i}"),
                    rng,
                    d,
                    config.heads,
                    config.ff_dim,
                    Activation::Gelu,
                )))
            })
            .collect();
        let decoder = (0..config.dec_layers)
            .map(|i| {
                TransformerLayer::decoder(
                    &format!("dec{i}"),
                    rng,
                    d,
                    config.heads,
                    config.ff_dim,
                    Activation::Gelu,
                )
            })
            .collect();
        let embed = StageUnit::Embed {
            embed: Embedding::new("embed", rng, config.vocab, d),
            pos: Embedding::new("pos", rng, config.max_seq, d),
        };
        EncDecModel {
            config: config.clone(),
            encoder: StageModel::new(0, std::iter::once(embed).chain(layers).collect()),
            decoder,
            final_ln: LayerNorm::new("final_ln", d),
            head: Linear::new("head", rng, d, n_out, true),
            start_token: 1,
        }
    }

    /// Number of backbone layers (encoder + decoder).
    pub fn num_layers(&self) -> usize {
        self.encoder.num_layers() + self.decoder.len()
    }

    /// Head output width.
    pub fn n_out(&self) -> usize {
        self.head.out_dim()
    }

    /// The token and positional tables encoder and decoder share.
    pub fn embedding(&self) -> (&Embedding, &Embedding) {
        self.encoder
            .embedding()
            .expect("the encoder starts at the embedding")
    }

    /// Embeds a batch of equal-length token sequences into `[b, s, d]`.
    ///
    /// # Errors
    /// Returns a shape error on ragged batches or OOV/overlong sequences.
    pub fn embed_batch(&self, tokens: &[Vec<usize>]) -> Result<(Tensor, TokenEmbedCtx)> {
        let (embed, pos) = self.embedding();
        embed_tokens(embed, pos, tokens)
    }

    /// The decoder's input: one start token per batch row.
    pub fn start_tokens(&self, batch: usize) -> Vec<Vec<usize>> {
        vec![vec![self.start_token]; batch]
    }

    /// Full forward pass: `tokens → logits [batch, n_out]`.
    ///
    /// # Errors
    /// Propagates shape errors from the constituent layers.
    pub fn forward(&self, tokens: &[Vec<usize>]) -> Result<(Tensor, EncDecCtx)> {
        let (_, out) = self.run(tokens, true)?;
        Ok(out.expect("a recording run returns its context"))
    }

    /// Forward pass of a frozen backbone, which no backward will traverse:
    /// `tokens → layer outputs`, encoder layers then decoder layers. These
    /// are the `b_i` activations the paper's Parallel Adapters consume and
    /// the activation cache stores; the head, which nothing reads here, does
    /// not run. No layer keeps a context, and every intermediate is recycled
    /// as soon as it is dead; the bits are those of [`EncDecModel::forward`].
    ///
    /// # Errors
    /// Propagates shape errors from the constituent layers.
    pub fn forward_frozen(&self, tokens: &[Vec<usize>]) -> Result<Vec<Tensor>> {
        Ok(self.run(tokens, false)?.0)
    }

    /// The body both forwards run: every layer's output and, when `record`
    /// is set, the logits and what the backward reads.
    fn run(&self, tokens: &[Vec<usize>], record: bool) -> Result<(Vec<Tensor>, Option<Recorded>)> {
        let batch = tokens.len();
        let (enc_out, mut encoder) = match self
            .encoder
            .run(StageData::Tokens(tokens.to_vec()), record)?
        {
            (StageData::Hidden(x), ctx) => (x, ctx),
            _ => unreachable!("the encoder has no head"),
        };
        let mut layer_outputs = std::mem::take(&mut encoder.layer_outputs);

        let (mut xd, dec_embed) = self.embed_batch(&self.start_tokens(batch))?;
        let mut dec_ctxs = Vec::with_capacity(self.decoder.len());
        for layer in &self.decoder {
            let (y, ctx) = layer.run(&xd, Some(&enc_out), record)?;
            dec_ctxs.extend(ctx);
            layer_outputs.push(y.clone());
            xd = y;
        }
        if !record {
            return Ok((layer_outputs, None));
        }

        let (normed, final_ln) = self.final_ln.forward(&xd)?;
        let (logits, head_ctx) = self.head.forward(&normed)?;
        let ctx = EncDecCtx {
            encoder,
            dec_embed,
            dec_ctxs,
            enc_out,
            final_ln,
            head_ctx,
            batch,
        };
        Ok((layer_outputs, Some((logits, ctx))))
    }

    /// Full backward pass from `dlogits` (`[batch, n_out]`); accumulates
    /// gradients into every trainable parameter.
    ///
    /// # Errors
    /// Propagates shape errors from the constituent layers.
    pub fn backward(&mut self, ctx: &EncDecCtx, dlogits: &Tensor) -> Result<()> {
        let d = self.config.hidden;
        let batch = ctx.batch;

        let d_normed = self.head.backward(&ctx.head_ctx, dlogits)?;
        let mut dxd = self
            .final_ln
            .backward(&ctx.final_ln, &d_normed)?
            .reshape([batch, 1, d])?;

        // Decoder stack (reverse). Cross-attention gradients accumulate into
        // the encoder output.
        let mut d_enc_total = Tensor::zeros(ctx.enc_out.dims());
        for (layer, lctx) in self.decoder.iter_mut().zip(ctx.dec_ctxs.iter()).rev() {
            let (dx, d_enc) = layer.backward(lctx, &dxd)?;
            dxd = dx;
            if let Some(de) = d_enc {
                d_enc_total.add_assign(&de)?;
            }
        }

        let (embed, pos) = self
            .encoder
            .embedding_mut()
            .expect("the encoder starts at the embedding");
        embed_tokens_backward(embed, pos, &ctx.dec_embed, &dxd)?;
        self.encoder.backward(&ctx.encoder, &d_enc_total).map(drop)
    }

    /// Freezes the backbone (everything except the task head).
    ///
    /// This is Step 3 of the PAC workflow; PEFT wrappers then add their own
    /// trainable parameters on top.
    pub fn freeze_backbone(&mut self) {
        let head_name_prefix = "head";
        self.visit_params(&mut |p| {
            if !p.name.starts_with(head_name_prefix) {
                p.trainable = false;
            }
        });
    }
}

impl Module for EncDecModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit_params(f);
        for l in &mut self.decoder {
            l.visit_params(f);
        }
        self.final_ln.visit_params(f);
        self.head.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.encoder.visit_params_ref(f);
        for l in &self.decoder {
            l.visit_params_ref(f);
        }
        self.final_ln.visit_params_ref(f);
        self.head.visit_params_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_nn::{cross_entropy, Adam, Optimizer};
    use pac_tensor::rng::seeded;

    fn micro_model(seed: u64) -> EncDecModel {
        let cfg = ModelConfig::micro(2, 2, 16, 2);
        EncDecModel::new(&cfg, 3, &mut seeded(seed))
    }

    fn batch(seed: u64, b: usize, s: usize, vocab: usize) -> Vec<Vec<usize>> {
        use rand::Rng;
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..s).map(|_| rng.gen_range(0..vocab)).collect())
            .collect()
    }

    #[test]
    fn forward_produces_logits_and_layer_outputs() {
        let m = micro_model(80);
        let toks = batch(81, 3, 5, 64);
        let (logits, _) = m.forward(&toks).unwrap();
        let layer_outputs = m.forward_frozen(&toks).unwrap();
        assert_eq!(logits.dims(), &[3, 3]);
        assert_eq!(layer_outputs.len(), 4);
        assert_eq!(layer_outputs[0].dims(), &[3, 5, 16]); // encoder
        assert_eq!(layer_outputs[3].dims(), &[3, 1, 16]); // decoder
        assert!(logits.all_finite());
    }

    #[test]
    fn ragged_batches_are_rejected() {
        let m = micro_model(82);
        let toks = vec![vec![1, 2, 3], vec![1, 2]];
        assert!(m.forward(&toks).is_err());
        assert!(m.forward(&[]).is_err());
    }

    #[test]
    fn backward_populates_all_trainable_grads() {
        let mut m = micro_model(83);
        let toks = batch(84, 2, 4, 64);
        let (logits, ctx) = m.forward(&toks).unwrap();
        let (_, dlogits) = cross_entropy(&logits, &[0, 1]).unwrap();
        m.backward(&ctx, &dlogits).unwrap();
        let mut zero_grads = 0usize;
        let mut total = 0usize;
        m.visit_params_ref(&mut |p| {
            total += 1;
            if p.grad.norm() == 0.0 {
                zero_grads += 1;
            }
        });
        // Decoder self-attention Q/K legitimately receive zero gradient: the
        // decoder sees a single position, its 1×1 softmax is constant, so no
        // gradient flows into the score projections. Everything else must be
        // touched.
        let expected_zero = 2 * m.decoder.len();
        assert!(
            zero_grads <= expected_zero,
            "{zero_grads}/{total} params have zero grad (expected ≤ {expected_zero})"
        );
    }

    #[test]
    fn frozen_backbone_leaves_only_head_trainable() {
        let mut m = micro_model(85);
        let total = m.num_params();
        m.freeze_backbone();
        let trainable = m.num_trainable();
        assert_eq!(trainable, m.head.num_params());
        assert!(trainable < total / 100);
    }

    #[test]
    fn a_few_training_steps_reduce_loss() {
        let mut m = micro_model(86);
        let toks = batch(87, 4, 4, 64);
        let targets = [0usize, 1, 2, 0];
        let mut opt = Adam::new(5e-3);
        let mut first = 0.0f32;
        let mut last = 0.0f32;
        for step in 0..15 {
            let (logits, ctx) = m.forward(&toks).unwrap();
            let (loss, dlogits) = cross_entropy(&logits, &targets).unwrap();
            if step == 0 {
                first = loss;
            }
            last = loss;
            m.zero_grads();
            m.backward(&ctx, &dlogits).unwrap();
            opt.step(&mut m);
        }
        assert!(
            last < first * 0.7,
            "loss did not drop: first {first}, last {last}"
        );
    }

    #[test]
    fn frozen_backbone_is_bitwise_invariant_under_training() {
        let mut m = micro_model(88);
        m.freeze_backbone();
        let snapshot: Vec<f32> = {
            let mut v = Vec::new();
            m.visit_params_ref(&mut |p| {
                if !p.trainable {
                    v.extend_from_slice(p.value.data());
                }
            });
            v
        };
        let toks = batch(89, 2, 4, 64);
        let mut opt = Adam::new(1e-2);
        for _ in 0..3 {
            let (logits, ctx) = m.forward(&toks).unwrap();
            let (_, dl) = cross_entropy(&logits, &[1, 2]).unwrap();
            m.zero_grads();
            m.backward(&ctx, &dl).unwrap();
            opt.step(&mut m);
        }
        let mut after = Vec::new();
        m.visit_params_ref(&mut |p| {
            if !p.trainable {
                after.extend_from_slice(p.value.data());
            }
        });
        assert_eq!(snapshot, after, "frozen backbone weights moved");
    }

    #[test]
    fn layer_outputs_are_invariant_when_backbone_frozen() {
        // The property the activation cache relies on (paper §4.2): frozen
        // backbone ⇒ identical layer outputs for identical inputs, even
        // after head training steps.
        let mut m = micro_model(90);
        m.freeze_backbone();
        let toks = batch(91, 2, 4, 64);
        let outputs1 = m.forward_frozen(&toks).unwrap();
        // Train the head a bit.
        let mut opt = Adam::new(1e-2);
        for _ in 0..3 {
            let (logits, ctx) = m.forward(&toks).unwrap();
            let (_, dl) = cross_entropy(&logits, &[1, 0]).unwrap();
            m.zero_grads();
            m.backward(&ctx, &dl).unwrap();
            opt.step(&mut m);
        }
        let outputs2 = m.forward_frozen(&toks).unwrap();
        for (a, b) in outputs1.iter().zip(outputs2.iter()) {
            assert!(a.approx_eq(b, 0.0), "cached activations would be stale");
        }
    }
}
