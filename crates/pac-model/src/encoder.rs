//! Encoder-only classifier used by the *real* pipeline-parallel engine.
//!
//! Pipeline parallelism moves a single hidden-state tensor between stages
//! (paper Figure 6); the encoder-only model has exactly that inter-stage
//! payload, so the real threaded engine in `pac-parallel` partitions this
//! model. The full encoder-decoder model ([`crate::EncDecModel`]) is used
//! for quality experiments where parallel execution does not change the
//! math.

use crate::config::ModelConfig;
use crate::stage::{StageModel, StageUnit};
use pac_nn::{
    Activation, Embedding, LayerNorm, LayerNormCtx, Linear, LinearCtx, Module, Param,
    TransformerLayer, TransformerLayerCtx,
};
use pac_tensor::{reduce, Result, Tensor, TensorError};
use rand::Rng;

/// Context captured by [`EncoderModel::forward`].
#[derive(Debug, Clone)]
pub struct EncoderCtx {
    tokens: Vec<Vec<usize>>,
    positions: Vec<usize>,
    layer_ctxs: Vec<TransformerLayerCtx>,
    /// Per-layer outputs `b_i` (for Parallel Adapters / activation cache).
    pub layer_outputs: Vec<Tensor>,
    final_ln: LayerNormCtx,
    /// Normalized hidden states entering the mean-pool.
    normed: Tensor,
    head_ctx: LinearCtx,
    batch: usize,
    seq: usize,
}

/// Encoder-only transformer with a mean-pool + linear classification head.
#[derive(Debug, Clone)]
pub struct EncoderModel {
    /// Architecture parameters.
    pub config: ModelConfig,
    /// Token embedding.
    pub embed: Embedding,
    /// Positional embedding.
    pub pos: Embedding,
    /// Transformer layers.
    pub layers: Vec<TransformerLayer>,
    /// Final LayerNorm.
    pub final_ln: LayerNorm,
    /// Classification head `[hidden, n_out]`.
    pub head: Linear,
}

impl EncoderModel {
    /// Builds an encoder-only model with `config.enc_layers` layers.
    pub fn new(config: &ModelConfig, n_out: usize, rng: &mut impl Rng) -> Self {
        let d = config.hidden;
        let layers = (0..config.enc_layers)
            .map(|i| {
                TransformerLayer::encoder(
                    &format!("layer{i}"),
                    rng,
                    d,
                    config.heads,
                    config.ff_dim,
                    Activation::Gelu,
                )
            })
            .collect();
        EncoderModel {
            config: config.clone(),
            embed: Embedding::new("embed", rng, config.vocab, d),
            pos: Embedding::new("pos", rng, config.max_seq, d),
            layers,
            final_ln: LayerNorm::new("final_ln", d),
            head: Linear::new("head", rng, d, n_out, true),
        }
    }

    /// Number of transformer layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Embeds a batch into `[b, s, d]` without running the layers (used by
    /// the profiler to obtain a representative hidden state).
    ///
    /// # Errors
    /// Returns a shape error on ragged or empty batches.
    pub fn embed_batch_for_profile(&self, tokens: &[Vec<usize>]) -> Result<(Tensor, Vec<usize>)> {
        let batch = tokens.len();
        let seq = tokens.first().map(|t| t.len()).unwrap_or(0);
        if batch == 0 || seq == 0 || tokens.iter().any(|t| t.len() != seq) {
            return Err(TensorError::ShapeMismatch {
                op: "embed_batch_for_profile",
                lhs: vec![batch],
                rhs: vec![seq],
            });
        }
        let flat: Vec<usize> = tokens.iter().flatten().copied().collect();
        let positions: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
        let x = self
            .embed
            .forward(&flat)?
            .add(&self.pos.forward(&positions)?)?
            .reshape([batch, seq, self.config.hidden])?;
        Ok((x, positions))
    }

    /// Forward pass: `tokens → logits [batch, n_out]`.
    ///
    /// # Errors
    /// Returns shape errors on ragged batches or OOV tokens.
    pub fn forward(&self, tokens: &[Vec<usize>]) -> Result<(Tensor, EncoderCtx)> {
        let batch = tokens.len();
        let seq = tokens.first().map(|t| t.len()).unwrap_or(0);
        if batch == 0 || seq == 0 || tokens.iter().any(|t| t.len() != seq) {
            return Err(TensorError::ShapeMismatch {
                op: "encoder_forward",
                lhs: vec![batch],
                rhs: vec![seq],
            });
        }
        let d = self.config.hidden;
        let flat: Vec<usize> = tokens.iter().flatten().copied().collect();
        let positions: Vec<usize> = (0..batch).flat_map(|_| 0..seq).collect();
        let mut x = self
            .embed
            .forward(&flat)?
            .add(&self.pos.forward(&positions)?)?
            .reshape([batch, seq, d])?;

        let mut layer_ctxs = Vec::with_capacity(self.layers.len());
        let mut layer_outputs = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (y, ctx) = layer.forward(&x, None)?;
            layer_ctxs.push(ctx);
            layer_outputs.push(y.clone());
            x = y;
        }

        let (normed, final_ln) = self.final_ln.forward(&x)?;
        let pooled = reduce::mean_pool_seq(&normed, batch, seq, d)?;
        let (logits, head_ctx) = self.head.forward(&pooled)?;
        Ok((
            logits,
            EncoderCtx {
                tokens: tokens.to_vec(),
                positions,
                layer_ctxs,
                layer_outputs,
                final_ln,
                normed,
                head_ctx,
                batch,
                seq,
            },
        ))
    }

    /// Backward pass from `dlogits`; accumulates gradients.
    ///
    /// # Errors
    /// Propagates shape errors from the constituent layers.
    pub fn backward(&mut self, ctx: &EncoderCtx, dlogits: &Tensor) -> Result<()> {
        let d = self.config.hidden;
        let (batch, seq) = (ctx.batch, ctx.seq);
        let d_pooled = self.head.backward(&ctx.head_ctx, dlogits)?;
        let d_normed = reduce::mean_pool_seq_backward(&d_pooled, batch, seq, d)?;
        let mut dx = self.final_ln.backward(&ctx.final_ln, &d_normed)?;
        let _ = &ctx.normed;
        for (layer, lctx) in self.layers.iter_mut().zip(ctx.layer_ctxs.iter()).rev() {
            let (g, _) = layer.backward(lctx, &dx)?;
            dx = g;
        }
        let flat: Vec<usize> = ctx.tokens.iter().flatten().copied().collect();
        let dx2 = dx.reshape([batch * seq, d])?;
        self.embed.backward(&flat, &dx2)?;
        self.pos.backward(&ctx.positions, &dx2)?;
        Ok(())
    }

    /// Freezes everything except the head.
    pub fn freeze_backbone(&mut self) {
        self.visit_params(&mut |p| {
            if !p.name.starts_with("head") {
                p.trainable = false;
            }
        });
    }

    /// Splits the model into pipeline stages.
    ///
    /// `layers_per_stage[i]` is the number of transformer layers assigned to
    /// stage `i`; the embedding joins the first stage and the
    /// LayerNorm+pool+head join the last.
    ///
    /// # Errors
    /// Returns a shape error if the counts do not sum to the layer count or
    /// any stage is empty of layers while interior.
    pub fn partition(self, layers_per_stage: &[usize]) -> Result<Vec<StageModel>> {
        let total: usize = layers_per_stage.iter().sum();
        if total != self.layers.len() || layers_per_stage.is_empty() {
            return Err(TensorError::ShapeMismatch {
                op: "partition",
                lhs: vec![self.layers.len()],
                rhs: layers_per_stage.to_vec(),
            });
        }
        let n_stages = layers_per_stage.len();
        let mut layers = self.layers.into_iter();
        let mut stages = Vec::with_capacity(n_stages);
        for (si, &count) in layers_per_stage.iter().enumerate() {
            let mut units = Vec::new();
            if si == 0 {
                units.push(StageUnit::Embed {
                    embed: self.embed.clone(),
                    pos: self.pos.clone(),
                });
            }
            for _ in 0..count {
                units.push(StageUnit::Layer(Box::new(
                    layers.next().expect("layer count checked above"),
                )));
            }
            if si == n_stages - 1 {
                units.push(StageUnit::Head {
                    ln: self.final_ln.clone(),
                    head: self.head.clone(),
                });
            }
            stages.push(StageModel::new(si, units));
        }
        Ok(stages)
    }
}

impl Module for EncoderModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed.visit_params(f);
        self.pos.visit_params(f);
        for l in &mut self.layers {
            l.visit_params(f);
        }
        self.final_ln.visit_params(f);
        self.head.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.embed.visit_params_ref(f);
        self.pos.visit_params_ref(f);
        for l in &self.layers {
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

    fn model(seed: u64, layers: usize) -> EncoderModel {
        let mut cfg = ModelConfig::micro(layers, 0, 16, 2);
        cfg.enc_layers = layers;
        EncoderModel::new(&cfg, 2, &mut seeded(seed))
    }

    fn batch(seed: u64, b: usize, s: usize) -> Vec<Vec<usize>> {
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..s).map(|_| rng.gen_range(0..64)).collect())
            .collect()
    }

    #[test]
    fn forward_shapes() {
        let m = model(100, 3);
        let toks = batch(101, 4, 6);
        let (logits, ctx) = m.forward(&toks).unwrap();
        assert_eq!(logits.dims(), &[4, 2]);
        assert_eq!(ctx.layer_outputs.len(), 3);
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = model(102, 2);
        let toks = batch(103, 6, 5);
        let targets = [0usize, 1, 0, 1, 0, 1];
        let mut opt = Adam::new(5e-3);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..20 {
            let (logits, ctx) = m.forward(&toks).unwrap();
            let (loss, dl) = cross_entropy(&logits, &targets).unwrap();
            if step == 0 {
                first = loss;
            }
            last = loss;
            m.zero_grads();
            m.backward(&ctx, &dl).unwrap();
            opt.step(&mut m);
        }
        assert!(last < first * 0.8, "first {first} last {last}");
    }

    #[test]
    fn partition_layer_counts_must_sum() {
        let m = model(105, 4);
        assert!(m.clone().partition(&[2, 1]).is_err());
        assert!(m.clone().partition(&[]).is_err());
        let stages = m.partition(&[2, 2]).unwrap();
        assert_eq!(stages.len(), 2);
    }

    #[test]
    fn partitioned_params_equal_monolithic_params() {
        let m = model(106, 4);
        let total = m.num_params();
        let stages = m.partition(&[1, 3]).unwrap();
        let sum: usize = stages.iter().map(|s| s.num_params()).sum();
        assert_eq!(sum, total);
    }
}
