//! Encoder-only classifier used by the *real* pipeline-parallel engine.
//!
//! Pipeline parallelism moves a single hidden-state tensor between stages
//! (paper Figure 6); the encoder-only model has exactly that inter-stage
//! payload, so the real threaded engine in `pac-parallel` and every
//! `pac-net` worker partition this model. The encoder-decoder model
//! ([`crate::EncDecModel`]) backs the tuners, the PAC session and the serve
//! layer; its encoder is a [`StageModel`] too, so both run one body.
//!
//! The model is one [`StageModel`] holding every unit — embedding, the
//! transformer layers, final LayerNorm + pool + head — so its forward and
//! backward are that stage's, and [`EncoderModel::partition`] only cuts
//! the unit list: a chain of k stages runs the same code as the whole
//! model.

use crate::config::ModelConfig;
use crate::stage::{StageCtx, StageData, StageModel, StageUnit};
use pac_nn::{Activation, Embedding, LayerNorm, Linear, Module, Param, TransformerLayer};
use pac_tensor::{Result, Tensor, TensorError};
use rand::Rng;

/// Encoder-only transformer with a mean-pool + linear classification head.
#[derive(Debug, Clone)]
pub struct EncoderModel {
    /// Architecture parameters.
    pub config: ModelConfig,
    /// Every unit in forward order: embedding, layers, head.
    body: StageModel,
}

impl EncoderModel {
    /// Builds an encoder-only model with `config.enc_layers` layers.
    ///
    /// The layers draw from `rng` first, then the token table, the
    /// positional table and the head.
    pub fn new(config: &ModelConfig, n_out: usize, rng: &mut impl Rng) -> Self {
        let d = config.hidden;
        let layers: Vec<StageUnit> = (0..config.enc_layers)
            .map(|i| {
                StageUnit::Layer(Box::new(TransformerLayer::encoder(
                    &format!("layer{i}"),
                    rng,
                    d,
                    config.heads,
                    config.ff_dim,
                    Activation::Gelu,
                )))
            })
            .collect();
        let embed = StageUnit::Embed {
            embed: Embedding::new("embed", rng, config.vocab, d),
            pos: Embedding::new("pos", rng, config.max_seq, d),
        };
        let head = StageUnit::Head {
            ln: LayerNorm::new("final_ln", d),
            head: Linear::new("head", rng, d, n_out, true),
        };
        let units = std::iter::once(embed)
            .chain(layers)
            .chain(std::iter::once(head))
            .collect();
        EncoderModel {
            config: config.clone(),
            body: StageModel::new(0, units),
        }
    }

    /// Number of transformer layers.
    pub fn num_layers(&self) -> usize {
        self.body.num_layers()
    }

    /// The model as one stage: embedding, layers, head.
    pub fn stage(&self) -> &StageModel {
        &self.body
    }

    /// Forward pass: `tokens → logits [batch, n_out]`. The context's
    /// `layer_outputs` are the per-layer outputs `b_i`.
    ///
    /// # Errors
    /// Returns shape errors on ragged batches or OOV tokens.
    pub fn forward(&self, tokens: &[Vec<usize>]) -> Result<(Tensor, StageCtx)> {
        match self.body.forward(StageData::Tokens(tokens.to_vec()))? {
            (StageData::Logits(logits), ctx) => Ok((logits, ctx)),
            _ => unreachable!("a model ends at its head"),
        }
    }

    /// Backward pass from `dlogits`; accumulates gradients.
    ///
    /// # Errors
    /// Propagates shape errors from the constituent layers.
    pub fn backward(&mut self, ctx: &StageCtx, dlogits: &Tensor) -> Result<()> {
        self.body.backward(ctx, dlogits).map(drop)
    }

    /// Splits the model into pipeline stages.
    ///
    /// `layers_per_stage[i]` is the number of transformer layers assigned to
    /// stage `i`; the embedding joins the first stage and the
    /// LayerNorm+pool+head join the last.
    ///
    /// # Errors
    /// Returns a shape error if there are no stages, any stage has no
    /// layers, or the counts do not sum to the layer count.
    pub fn partition(self, layers_per_stage: &[usize]) -> Result<Vec<StageModel>> {
        let n_layers = self.num_layers();
        if layers_per_stage.is_empty()
            || layers_per_stage.contains(&0)
            || layers_per_stage.iter().sum::<usize>() != n_layers
        {
            return Err(TensorError::ShapeMismatch {
                op: "partition",
                lhs: vec![n_layers],
                rhs: layers_per_stage.to_vec(),
            });
        }
        let last = layers_per_stage.len() - 1;
        let mut units = self.body.into_units().into_iter();
        Ok(layers_per_stage
            .iter()
            .enumerate()
            .map(|(si, &count)| {
                let take = count + usize::from(si == 0) + usize::from(si == last);
                StageModel::new(si, units.by_ref().take(take).collect())
            })
            .collect())
    }
}

impl Module for EncoderModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params(f);
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.body.visit_params_ref(f);
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
        for zero in [[0, 2, 2], [2, 0, 2], [2, 2, 0]] {
            assert!(m.clone().partition(&zero).is_err(), "{zero:?}");
        }
        assert!(m.clone().partition(&[0, 4]).is_err());
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
