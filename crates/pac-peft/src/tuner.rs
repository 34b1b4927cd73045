//! Unified dispatch over the four fine-tuning techniques.

use crate::adapters::{AdapterTuner, AdapterTunerCtx};
use crate::full::FullTuner;
use crate::lora::LoraTuner;
use crate::parallel::{ParallelCtx, ParallelTuner, SideCtx};
use crate::technique::Technique;
use pac_model::{EncDecCtx, EncDecModel, ModelConfig};
use pac_nn::{Module, Param};
use pac_tensor::{Result, Tensor, TensorError};
use rand::Rng;

/// A fine-tuner: one of the four techniques wrapping a backbone.
///
/// Each variant owns a whole backbone, so their sizes legitimately differ;
/// a `Tuner` lives on the heap inside replica vectors anyway.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Tuner {
    /// Full fine-tuning.
    Full(FullTuner),
    /// Houlsby adapters.
    Adapters(AdapterTuner),
    /// LoRA.
    Lora(LoraTuner),
    /// Parallel Adapters (the paper's technique).
    Parallel(ParallelTuner),
}

/// Per-technique forward context.
#[derive(Debug, Clone)]
pub enum TunerCtx {
    /// Context of a full or LoRA forward (plain model context).
    Model(EncDecCtx),
    /// Context of an adapters forward.
    Adapters(AdapterTunerCtx),
    /// Context of a Parallel-Adapters full forward.
    Parallel(ParallelCtx),
    /// Context of a Parallel-Adapters cached forward.
    ParallelCached(SideCtx),
}

impl Tuner {
    /// Builds a tuner of the given technique over a fresh backbone.
    pub fn new(
        technique: Technique,
        config: &ModelConfig,
        n_out: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let model = EncDecModel::new(config, n_out, rng);
        Self::wrap(technique, model, n_out, rng)
    }

    /// Wraps an existing ("pretrained") backbone.
    pub fn wrap(
        technique: Technique,
        model: EncDecModel,
        n_out: usize,
        rng: &mut impl Rng,
    ) -> Self {
        match technique {
            Technique::Full => Tuner::Full(FullTuner::new(model)),
            Technique::Adapters { reduction } => {
                Tuner::Adapters(AdapterTuner::new(model, reduction, rng))
            }
            Technique::Lora { rank } => Tuner::Lora(LoraTuner::new(model, rank, rng)),
            Technique::ParallelAdapters { reduction } => {
                Tuner::Parallel(ParallelTuner::new(model, reduction, n_out, rng))
            }
        }
    }

    /// The technique this tuner implements.
    pub fn technique(&self) -> Technique {
        match self {
            Tuner::Full(_) => Technique::Full,
            Tuner::Adapters(t) => Technique::Adapters {
                reduction: (t.model.config.hidden
                    / t.adapters
                        .first()
                        .map(|a| a.down.out_dim())
                        .unwrap_or(1)
                        .max(1))
                .max(1),
            },
            Tuner::Lora(t) => Technique::Lora {
                rank: t.pairs.first().map(|p| p.a.value.dims()[1]).unwrap_or(0),
            },
            Tuner::Parallel(t) => Technique::ParallelAdapters {
                reduction: (t.model.config.hidden / t.side.side_dim().max(1)).max(1),
            },
        }
    }

    /// Forward pass on a token batch.
    ///
    /// # Errors
    /// Propagates shape errors.
    pub fn forward(&mut self, tokens: &[Vec<usize>]) -> Result<(Tensor, TunerCtx)> {
        match self {
            Tuner::Full(t) => {
                let (l, c) = t.forward(tokens)?;
                Ok((l, TunerCtx::Model(c)))
            }
            Tuner::Adapters(t) => {
                let (l, c) = t.forward(tokens)?;
                Ok((l, TunerCtx::Adapters(c)))
            }
            Tuner::Lora(t) => {
                let (l, c) = t.forward(tokens)?;
                Ok((l, TunerCtx::Model(c)))
            }
            Tuner::Parallel(t) => {
                let (l, c) = t.forward_full(tokens)?;
                Ok((l, TunerCtx::Parallel(c)))
            }
        }
    }

    /// Cache-enabled forward (Parallel Adapters only).
    ///
    /// # Errors
    /// Returns a shape error for techniques without cache support.
    pub fn forward_cached(&self, acts: &[Tensor]) -> Result<(Tensor, TunerCtx)> {
        match self {
            Tuner::Parallel(t) => {
                let (l, c) = t.forward_cached(acts)?;
                Ok((l, TunerCtx::ParallelCached(c)))
            }
            _ => Err(TensorError::ShapeMismatch {
                op: "forward_cached requires Parallel Adapters",
                lhs: vec![],
                rhs: vec![],
            }),
        }
    }

    /// Backward pass matching a prior forward.
    ///
    /// # Errors
    /// Returns a shape error if `ctx` does not belong to this tuner kind.
    pub fn backward(&mut self, ctx: &TunerCtx, dlogits: &Tensor) -> Result<()> {
        match (self, ctx) {
            (Tuner::Full(t), TunerCtx::Model(c)) => t.backward(c, dlogits),
            (Tuner::Adapters(t), TunerCtx::Adapters(c)) => t.backward(c, dlogits),
            (Tuner::Lora(t), TunerCtx::Model(c)) => t.backward(c, dlogits),
            (Tuner::Parallel(t), TunerCtx::Parallel(c)) => t.backward(&c.side, dlogits),
            (Tuner::Parallel(t), TunerCtx::ParallelCached(c)) => t.backward(c, dlogits),
            _ => Err(TensorError::ShapeMismatch {
                op: "tuner/ctx kind mismatch",
                lhs: vec![],
                rhs: vec![],
            }),
        }
    }

    /// Total parameters including the frozen backbone. The `Module`
    /// traversal of LoRA and Parallel-Adapters tuners deliberately exposes
    /// only optimizable parameters, so `num_params()` under-counts for
    /// them; this method reports the true resident model size.
    pub fn total_params(&self) -> usize {
        match self {
            Tuner::Full(t) => t.model.num_params(),
            Tuner::Adapters(t) => {
                t.model.num_params() + t.adapters.iter().map(Module::num_params).sum::<usize>()
            }
            Tuner::Lora(t) => {
                t.model.num_params()
                    + t.pairs
                        .iter()
                        .map(|p| p.a.numel() + p.b.numel())
                        .sum::<usize>()
            }
            Tuner::Parallel(t) => t.model.num_params() + t.side.num_params(),
        }
    }

    /// Backbone layer outputs from a full forward, if this technique
    /// produces cacheable activations.
    pub fn cacheable_acts<'c>(&self, ctx: &'c TunerCtx) -> Option<&'c [Tensor]> {
        match ctx {
            TunerCtx::Parallel(c) => Some(&c.layer_outputs),
            _ => None,
        }
    }
}

impl Module for Tuner {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Tuner::Full(t) => t.visit_params(f),
            Tuner::Adapters(t) => t.visit_params(f),
            Tuner::Lora(t) => t.visit_params(f),
            Tuner::Parallel(t) => t.visit_params(f),
        }
    }
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        match self {
            Tuner::Full(t) => t.visit_params_ref(f),
            Tuner::Adapters(t) => t.visit_params_ref(f),
            Tuner::Lora(t) => t.visit_params_ref(f),
            Tuner::Parallel(t) => t.visit_params_ref(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_nn::{cross_entropy, Adam, Optimizer};
    use pac_tensor::rng::seeded;

    fn toks(seed: u64, b: usize) -> Vec<Vec<usize>> {
        let mut rng = seeded(seed);
        (0..b)
            .map(|_| (0..4).map(|_| rng.gen_range(0..64)).collect())
            .collect()
    }

    #[test]
    fn every_technique_trains_end_to_end() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        for technique in Technique::all_paper() {
            let mut t = Tuner::new(technique, &cfg, 2, &mut seeded(170));
            let batch = toks(171, 4);
            let targets = [0usize, 1, 0, 1];
            let mut opt = Adam::new(5e-3);
            let mut first = 0.0;
            let mut last = 0.0;
            for i in 0..15 {
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
            assert!(
                last < first,
                "{}: loss did not drop ({first} → {last})",
                technique.name()
            );
        }
    }

    #[test]
    fn technique_round_trips() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        for technique in Technique::all_paper() {
            let t = Tuner::new(technique, &cfg, 2, &mut seeded(172));
            assert_eq!(t.technique().name(), technique.name());
        }
    }

    #[test]
    fn cached_forward_only_for_parallel() {
        let cfg = ModelConfig::micro(2, 1, 16, 2);
        let mut pa = Tuner::new(Technique::parallel_default(), &cfg, 2, &mut seeded(173));
        let batch = toks(174, 2);
        let (_, ctx) = pa.forward(&batch).unwrap();
        let acts = pa.cacheable_acts(&ctx).unwrap().to_vec();
        assert!(pa.forward_cached(&acts).is_ok());

        let mut lora = Tuner::new(Technique::lora_default(), &cfg, 2, &mut seeded(175));
        let (_, lctx) = lora.forward(&batch).unwrap();
        assert!(lora.cacheable_acts(&lctx).is_none());
        assert!(lora.forward_cached(&acts).is_err());
    }

    #[test]
    fn mismatched_ctx_is_rejected() {
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let mut full = Tuner::new(Technique::Full, &cfg, 2, &mut seeded(176));
        let mut ad = Tuner::new(Technique::adapters_default(), &cfg, 2, &mut seeded(177));
        let batch = toks(178, 2);
        let (_, fctx) = full.forward(&batch).unwrap();
        let (logits, _) = ad.forward(&batch).unwrap();
        let (_, dl) = cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(ad.backward(&fctx, &dl).is_err());
    }

    #[test]
    fn trainable_ordering_matches_paper() {
        // Full >> Adapters ≈ PA ≈ LoRA in trainable parameters.
        let cfg = ModelConfig::micro(2, 2, 32, 4);
        let counts: Vec<(String, usize)> = Technique::all_paper()
            .into_iter()
            .map(|tech| {
                let t = Tuner::new(tech, &cfg, 2, &mut seeded(179));
                (tech.name().to_string(), t.num_trainable())
            })
            .collect();
        let full = counts[0].1;
        for (name, c) in &counts[1..] {
            assert!(c * 2 < full, "{name}: {c} not ≪ full {full}");
        }
    }
}
