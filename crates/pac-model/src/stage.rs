//! Pipeline-stage models: a contiguous chunk of an [`crate::EncoderModel`].
//!
//! A [`StageModel`] owns a sequence of [`StageUnit`]s (embedding, transformer
//! layers, head) and exposes `forward`/`backward` with per-micro-batch
//! contexts, so the pipeline engine can keep several micro-batches in flight
//! on the same stage (1F1B scheduling), and `forward_frozen`, which keeps no
//! context and returns each layer's output `b_i`. Both run one body that
//! takes `record`. This is the only loop over encoder layers: the whole
//! [`crate::EncoderModel`] is one stage holding every unit, a partition is
//! the same units cut into several, and [`crate::EncDecModel`]'s encoder is
//! a stage of the embedding and its layers.

use crate::embed::{embed_tokens, embed_tokens_backward, TokenEmbedCtx};
use pac_nn::{
    Embedding, LayerNorm, LayerNormCtx, Linear, LinearCtx, Module, Param, TransformerLayer,
    TransformerLayerCtx,
};
use pac_tensor::{reduce, scratch, Result, Tensor, TensorError};

/// One building block of a stage.
///
/// Variant sizes differ by design: embeddings dwarf heads. Stages hold a
/// handful of units, so boxing would cost more in indirection than it saves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum StageUnit {
    /// Token + positional embedding (first stage only).
    Embed {
        /// Token embedding table.
        embed: Embedding,
        /// Positional embedding table.
        pos: Embedding,
    },
    /// A transformer layer.
    Layer(Box<TransformerLayer>),
    /// Final LayerNorm + mean-pool + classification head (last stage only).
    Head {
        /// Final LayerNorm.
        ln: LayerNorm,
        /// Classification head.
        head: Linear,
    },
}

/// Data flowing into a stage: raw tokens for stage 0, hidden states after.
#[derive(Debug, Clone)]
pub enum StageData {
    /// Token ids (first stage input).
    Tokens(Vec<Vec<usize>>),
    /// Hidden states `[b, s, d]` (inter-stage payload).
    Hidden(Tensor),
    /// Head logits `[b, n_out]` (pipeline output).
    Logits(Tensor),
}

impl StageData {
    /// Bytes this payload occupies on the wire (what pipeline communication
    /// costs are charged on).
    pub fn wire_bytes(&self) -> usize {
        match self {
            StageData::Tokens(t) => t.iter().map(|r| r.len() * 4).sum(),
            StageData::Hidden(t) | StageData::Logits(t) => t.size_bytes(),
        }
    }
}

/// Per-unit saved context.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum UnitCtx {
    Embed(TokenEmbedCtx),
    Layer(TransformerLayerCtx),
    Head {
        ln: LayerNormCtx,
        head: LinearCtx,
        batch: usize,
        seq: usize,
        dim: usize,
    },
}

/// Context captured by [`StageModel::forward`] for one micro-batch.
#[derive(Debug, Clone)]
pub struct StageCtx {
    units: Vec<UnitCtx>,
    /// Bytes of activation memory this context retains (for the live memory
    /// accounting of the real engine).
    pub activation_bytes: usize,
    /// Per-layer outputs produced inside this stage, in layer order.
    pub layer_outputs: Vec<Tensor>,
}

impl StageCtx {
    /// Recycles every tensor this context retains — each unit's saved
    /// activations and the layer outputs — into the scratch pool, so the
    /// next micro-batch's forward takes them back instead of allocating.
    /// Call after the backward pass that consumed the context; buffers
    /// still shared with live tensors are dropped, not recycled, so this
    /// is always safe.
    pub fn recycle(self) {
        for unit in self.units {
            match unit {
                UnitCtx::Embed(_) => {}
                UnitCtx::Layer(ctx) => ctx.recycle(),
                UnitCtx::Head { ln, head, .. } => {
                    ln.recycle();
                    head.recycle();
                }
            }
        }
        for t in self.layer_outputs {
            scratch::put(t);
        }
    }
}

/// A pipeline stage: an ordered list of units with explicit fwd/bwd.
#[derive(Debug, Clone)]
pub struct StageModel {
    /// Stage index within the pipeline.
    pub index: usize,
    units: Vec<StageUnit>,
}

impl StageModel {
    /// Creates a stage from its units.
    pub fn new(index: usize, units: Vec<StageUnit>) -> Self {
        StageModel { index, units }
    }

    /// Gives up the units, for re-cutting them into other stages.
    pub(crate) fn into_units(self) -> Vec<StageUnit> {
        self.units
    }

    /// The stage's transformer layers in forward order.
    pub fn layers(&self) -> impl DoubleEndedIterator<Item = &TransformerLayer> {
        self.units.iter().filter_map(|u| match u {
            StageUnit::Layer(l) => Some(&**l),
            _ => None,
        })
    }

    /// [`StageModel::layers`], mutably.
    pub fn layers_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut TransformerLayer> {
        self.units.iter_mut().filter_map(|u| match u {
            StageUnit::Layer(l) => Some(&mut **l),
            _ => None,
        })
    }

    /// The token and positional tables, when this stage starts at the
    /// embedding.
    pub fn embedding(&self) -> Option<(&Embedding, &Embedding)> {
        self.units.iter().find_map(|u| match u {
            StageUnit::Embed { embed, pos } => Some((embed, pos)),
            _ => None,
        })
    }

    /// [`StageModel::embedding`], mutably.
    pub(crate) fn embedding_mut(&mut self) -> Option<(&mut Embedding, &mut Embedding)> {
        self.units.iter_mut().find_map(|u| match u {
            StageUnit::Embed { embed, pos } => Some((embed, pos)),
            _ => None,
        })
    }

    /// Number of transformer layers in this stage.
    pub fn num_layers(&self) -> usize {
        self.layers().count()
    }

    /// True when this stage contains the embedding (stage 0).
    pub fn has_embed(&self) -> bool {
        self.embedding().is_some()
    }

    /// True when this stage contains the head (last stage).
    pub fn has_head(&self) -> bool {
        self.units
            .iter()
            .any(|u| matches!(u, StageUnit::Head { .. }))
    }

    /// Forward pass over one micro-batch.
    ///
    /// # Errors
    /// Returns a shape error when the payload kind does not match the stage
    /// position (e.g. hidden states fed to an embedding stage).
    pub fn forward(&self, input: StageData) -> Result<(StageData, StageCtx)> {
        self.run(input, true)
    }

    /// Forward pass of a frozen stage, which no backward will traverse:
    /// `input → (output, layer outputs)`, the outputs being the `b_i` the
    /// paper's Parallel Adapters consume and the activation cache stores.
    /// No unit keeps a context, and every intermediate is recycled as soon
    /// as it is dead; the bits are those of [`StageModel::forward`].
    ///
    /// # Errors
    /// As [`StageModel::forward`].
    pub fn forward_frozen(&self, input: StageData) -> Result<(StageData, Vec<Tensor>)> {
        let (out, ctx) = self.run(input, false)?;
        Ok((out, ctx.layer_outputs))
    }

    /// The body both forwards run; `record` keeps what the backward reads.
    /// A run that does not record returns a context with no unit in it.
    pub(crate) fn run(&self, input: StageData, record: bool) -> Result<(StageData, StageCtx)> {
        let mut data = input;
        let mut ctxs = Vec::with_capacity(self.units.len());
        let mut act_bytes = 0usize;
        let mut layer_outputs = Vec::new();
        for unit in &self.units {
            data = match (unit, data) {
                (StageUnit::Embed { embed, pos }, StageData::Tokens(tokens)) => {
                    let (x, ctx) = embed_tokens(embed, pos, &tokens)?;
                    ctxs.extend(record.then_some(UnitCtx::Embed(ctx)));
                    StageData::Hidden(x)
                }
                (StageUnit::Layer(layer), StageData::Hidden(x)) => {
                    let (y, ctx) = layer.run(&x, None, record)?;
                    act_bytes += x.size_bytes(); // retained inside the layer ctx
                    ctxs.extend(ctx.map(UnitCtx::Layer));
                    layer_outputs.push(y.clone());
                    StageData::Hidden(y)
                }
                (StageUnit::Head { ln, head }, StageData::Hidden(x)) => {
                    let (batch, seq, dim) = match x.dims() {
                        &[b, s, d] => (b, s, d),
                        _ => {
                            return Err(TensorError::RankMismatch {
                                op: "stage_head",
                                expected: 3,
                                actual: x.rank(),
                            })
                        }
                    };
                    let (normed, ln_ctx) = ln.run(&x, record)?;
                    let pooled = reduce::mean_pool_seq(&normed, batch, seq, dim)?;
                    let logits = head.forward_frozen(&pooled)?;
                    act_bytes += x.size_bytes();
                    scratch::put(normed);
                    match ln_ctx {
                        Some(ln) => ctxs.push(UnitCtx::Head {
                            ln,
                            head: LinearCtx { x: pooled },
                            batch,
                            seq,
                            dim,
                        }),
                        None => scratch::put(pooled),
                    }
                    StageData::Logits(logits)
                }
                (unit, data) => {
                    return Err(TensorError::ShapeMismatch {
                        op: match unit {
                            StageUnit::Embed { .. } => "stage expects tokens",
                            StageUnit::Layer(_) => "stage expects hidden states",
                            StageUnit::Head { .. } => "head expects hidden states",
                        },
                        lhs: vec![self.index],
                        rhs: vec![match data {
                            StageData::Tokens(_) => 0,
                            StageData::Hidden(_) => 1,
                            StageData::Logits(_) => 2,
                        }],
                    })
                }
            };
        }
        Ok((
            data,
            StageCtx {
                units: ctxs,
                activation_bytes: act_bytes,
                layer_outputs,
            },
        ))
    }

    /// Backward pass over one micro-batch.
    ///
    /// `dy` is the gradient of the stage output (`dlogits` for the last
    /// stage, hidden-state gradient otherwise). Returns the gradient to send
    /// upstream, or `None` when this stage starts at the embedding.
    ///
    /// # Errors
    /// Propagates shape errors from the constituent layers.
    pub fn backward(&mut self, ctx: &StageCtx, dy: &Tensor) -> Result<Option<Tensor>> {
        let mut grad = dy.clone();
        for (unit, uctx) in self.units.iter_mut().zip(ctx.units.iter()).rev() {
            match (unit, uctx) {
                (
                    StageUnit::Head { ln, head },
                    UnitCtx::Head {
                        ln: ln_ctx,
                        head: head_ctx,
                        batch,
                        seq,
                        dim,
                    },
                ) => {
                    let d_pooled = head.backward(head_ctx, &grad)?;
                    let d_normed = reduce::mean_pool_seq_backward(&d_pooled, *batch, *seq, *dim)?;
                    scratch::put(d_pooled);
                    scratch::put(std::mem::replace(
                        &mut grad,
                        ln.backward(ln_ctx, &d_normed)?,
                    ));
                    scratch::put(d_normed);
                }
                (StageUnit::Layer(layer), UnitCtx::Layer(lctx)) => {
                    let (dx, _) = layer.backward(lctx, &grad)?;
                    scratch::put(std::mem::replace(&mut grad, dx));
                }
                (StageUnit::Embed { embed, pos }, UnitCtx::Embed(ectx)) => {
                    embed_tokens_backward(embed, pos, ectx, &grad)?;
                    scratch::put(grad);
                    return Ok(None);
                }
                _ => {
                    return Err(TensorError::ShapeMismatch {
                        op: "stage_backward ctx mismatch",
                        lhs: vec![self.index],
                        rhs: vec![],
                    })
                }
            }
        }
        Ok(Some(grad))
    }
}

impl Module for StageModel {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for u in &mut self.units {
            match u {
                StageUnit::Embed { embed, pos } => {
                    embed.visit_params(f);
                    pos.visit_params(f);
                }
                StageUnit::Layer(l) => l.visit_params(f),
                StageUnit::Head { ln, head } => {
                    ln.visit_params(f);
                    head.visit_params(f);
                }
            }
        }
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for u in &self.units {
            match u {
                StageUnit::Embed { embed, pos } => {
                    embed.visit_params_ref(f);
                    pos.visit_params_ref(f);
                }
                StageUnit::Layer(l) => l.visit_params_ref(f),
                StageUnit::Head { ln, head } => {
                    ln.visit_params_ref(f);
                    head.visit_params_ref(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::encoder::EncoderModel;
    use pac_nn::cross_entropy;
    use pac_tensor::rng::seeded;
    use rand::Rng as _;

    fn model(seed: u64, layers: usize) -> EncoderModel {
        let cfg = ModelConfig::micro(layers, 0, 16, 2);
        EncoderModel::new(&cfg, 2, &mut seeded(seed))
    }

    fn batch(seed: u64, b: usize, s: usize) -> Vec<Vec<usize>> {
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..s).map(|_| rng.gen_range(0..64)).collect())
            .collect()
    }

    /// Runs a chain of stages forward, producing logits.
    fn chain_forward(stages: &[StageModel], tokens: Vec<Vec<usize>>) -> (Tensor, Vec<StageCtx>) {
        let mut data = StageData::Tokens(tokens);
        let mut ctxs = Vec::new();
        for s in stages {
            let (out, ctx) = s.forward(data).unwrap();
            ctxs.push(ctx);
            data = out;
        }
        match data {
            StageData::Logits(l) => (l, ctxs),
            _ => panic!("pipeline did not end in logits"),
        }
    }

    #[test]
    fn pipeline_forward_matches_monolithic() {
        let m = model(110, 4);
        let toks = batch(111, 3, 5);
        let (mono_logits, _) = m.forward(&toks).unwrap();
        for cuts in [vec![4], vec![2, 2], vec![1, 1, 1, 1], vec![1, 3]] {
            let stages = m.clone().partition(&cuts).unwrap();
            let (pipe_logits, _) = chain_forward(&stages, toks.clone());
            assert!(
                pipe_logits.approx_eq(&mono_logits, 1e-5),
                "mismatch for cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn pipeline_backward_matches_monolithic_grads() {
        let m = model(112, 3);
        let toks = batch(113, 2, 4);
        let targets = [0usize, 1];

        // Monolithic.
        let mut mono = m.clone();
        let (logits, ctx) = mono.forward(&toks).unwrap();
        let (_, dl) = cross_entropy(&logits, &targets).unwrap();
        mono.backward(&ctx, &dl).unwrap();
        let mut mono_grads = Vec::new();
        mono.visit_params_ref(&mut |p| mono_grads.push((p.name.clone(), p.grad.clone())));

        // Pipelined (2 stages).
        let mut stages = m.partition(&[2, 1]).unwrap();
        let (plogits, ctxs) = chain_forward(&stages, toks.clone());
        let (_, pdl) = cross_entropy(&plogits, &targets).unwrap();
        let mut grad = pdl;
        let mut upstream: Option<Tensor> = Some(grad.clone());
        for (s, c) in stages.iter_mut().zip(ctxs.iter()).rev() {
            grad = upstream.take().expect("gradient chain broke early");
            upstream = s.backward(c, &grad).unwrap();
        }
        assert!(upstream.is_none(), "stage 0 must terminate the chain");

        let mut pipe_grads = Vec::new();
        for s in &stages {
            s.visit_params_ref(&mut |p| pipe_grads.push((p.name.clone(), p.grad.clone())));
        }

        assert_eq!(mono_grads.len(), pipe_grads.len());
        let mono_map: std::collections::HashMap<_, _> = mono_grads.into_iter().collect();
        for (name, g) in pipe_grads {
            let mg = &mono_map[&name];
            assert!(
                g.approx_eq(mg, 1e-4),
                "gradient mismatch for {name}: |Δ| = {}",
                g.sub(mg).unwrap().norm()
            );
        }
    }

    #[test]
    fn wrong_payload_kind_is_error() {
        let m = model(114, 2);
        let stages = m.partition(&[1, 1]).unwrap();
        // Hidden into embed stage:
        let hidden = StageData::Hidden(Tensor::zeros([1, 2, 16]));
        assert!(stages[0].forward(hidden).is_err());
        // Tokens into a non-embed stage:
        let toks = StageData::Tokens(batch(115, 1, 2));
        assert!(stages[1].forward(toks).is_err());
    }

    #[test]
    fn wire_bytes_accounting() {
        let t = StageData::Tokens(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(t.wire_bytes(), 24);
        let h = StageData::Hidden(Tensor::zeros([2, 3, 4]));
        assert_eq!(h.wire_bytes(), 96);
    }

    #[test]
    fn stage_flags() {
        let m = model(116, 3);
        let stages = m.partition(&[1, 1, 1]).unwrap();
        assert!(stages[0].has_embed() && !stages[0].has_head());
        assert!(!stages[1].has_embed() && !stages[1].has_head());
        assert!(!stages[2].has_embed() && stages[2].has_head());
        assert_eq!(stages.iter().map(|s| s.num_layers()).sum::<usize>(), 3);
    }
}
