//! Analytic memory-footprint model reproducing Table 1 / Figure 8(b).
//!
//! All quantities are derived from the model architecture and training
//! hyperparameters with the standard transformer formulas — the same inputs
//! the real system would have — so the *relative* footprints (who fits on a
//! 4 GB Jetson Nano, who OOMs, how much Parallel Adapters save) reproduce
//! the paper's findings even though we do not run on real hardware.

use crate::technique::Technique;
use pac_model::ModelConfig;

/// Bytes per weight, gradient and activation value: f32, the paper's
/// setting.
const VALUE_BYTES: usize = 4;

/// Which phase of fine-tuning memory is being accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Regular training epoch (epoch 1 for PAC; every epoch for baselines).
    Training,
    /// Cache-enabled epoch (≥ 2) for Parallel Adapters: the backbone's
    /// weights are released and its forward pass is skipped (paper §4.2).
    CachedTraining,
    /// Forward-only inference.
    Inference,
}

/// A Table-1-style memory breakdown, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Model weights resident in memory.
    pub weights: usize,
    /// Intermediate activations retained for backward, plus optimizer state
    /// (the paper's "Activations" column groups these).
    pub activations: usize,
    /// Gradient buffers for trainable parameters.
    pub gradients: usize,
}

impl MemoryBreakdown {
    /// Total footprint.
    pub fn total(&self) -> usize {
        self.weights + self.activations + self.gradients
    }

    /// Gigabytes (SI) helper for reporting.
    pub fn total_gb(&self) -> f64 {
        self.total() as f64 / 1e9
    }
}

/// Memory accountant for one (model, technique, batch geometry) combination.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    /// Architecture being trained.
    pub config: ModelConfig,
    /// Fine-tuning technique.
    pub technique: Technique,
    /// Mini-batch size.
    pub batch: usize,
    /// Encoder sequence length.
    pub seq: usize,
    /// Decoder (target) sequence length — GLUE-style targets are short.
    pub dec_seq: usize,
    /// Optimizer state bytes per trainable parameter (4 = SGD-momentum,
    /// 8 = Adam).
    pub opt_bytes_per_param: usize,
}

impl MemoryModel {
    /// Accountant with the paper's evaluation geometry (batch 16, seq 128)
    /// and SGD-momentum optimizer state.
    pub fn paper_defaults(config: ModelConfig, technique: Technique) -> Self {
        MemoryModel {
            config,
            technique,
            batch: 16,
            seq: 128,
            dec_seq: 8,
            opt_bytes_per_param: 4,
        }
    }

    /// Trainable parameters under this technique.
    pub fn trainable_params(&self) -> usize {
        self.technique.trainable_params(&self.config)
    }

    /// Weight bytes resident during `phase`.
    pub fn weight_bytes(&self, phase: Phase) -> usize {
        let technique_extra = match self.technique {
            Technique::Full => 0,
            t => t.trainable_params(&self.config) * VALUE_BYTES,
        };
        let backbone = self.config.total_params() * VALUE_BYTES;
        match phase {
            Phase::CachedTraining if self.technique.supports_activation_cache() => {
                // Backbone released: only the side network + head remain.
                technique_extra
            }
            Phase::Inference => backbone,
            _ => backbone + technique_extra,
        }
    }

    /// Gradient-buffer bytes during `phase`.
    pub fn gradient_bytes(&self, phase: Phase) -> usize {
        match phase {
            Phase::Inference => 0,
            _ => self.trainable_params() * VALUE_BYTES,
        }
    }

    /// Backbone intermediate activations retained for backward, per the
    /// explicit backward implementations in `pac-nn` (bytes).
    fn backbone_intermediate_bytes(&self) -> usize {
        let c = &self.config;
        let enc_tokens = self.batch * self.seq;
        let dec_tokens = self.batch * self.dec_seq;
        let enc = c.enc_layers * c.enc_layer_act_floats_per_token() * enc_tokens;
        let dec = c.dec_layers * c.dec_layer_act_floats_per_token() * dec_tokens;
        let scores = c.enc_layers * c.attn_score_floats(self.batch, self.seq)
            + c.dec_layers
                * (c.attn_score_floats(self.batch, self.dec_seq)
                    + self.batch * c.heads * self.dec_seq * self.seq);
        (enc + dec + scores) * VALUE_BYTES
    }

    /// Technique-specific extra activations (adapter bottlenecks, LoRA
    /// branch activations, side-network state).
    fn technique_activation_bytes(&self) -> usize {
        let c = &self.config;
        let h = c.hidden;
        let enc_tokens = self.batch * self.seq;
        let dec_tokens = self.batch * self.dec_seq;
        let tokens = enc_tokens + dec_tokens;
        match self.technique {
            Technique::Full => 0,
            Technique::Adapters { reduction } => {
                let r = (h / reduction).max(1);
                // Bottleneck input + hidden retained per layer.
                c.total_layers() * (h + r) * tokens / 2 * 4
            }
            Technique::Lora { rank } => {
                // Low-rank branch activations on Q/V of each block.
                let blocks = c.enc_layers + 2 * c.dec_layers;
                blocks * 2 * rank * tokens / 2 * 4
            }
            Technique::ParallelAdapters { reduction } => {
                let r = (h / reduction).max(1);
                // Side network retains its own (r-dim) contexts plus the
                // b_i inputs feeding each down-projection.
                let b_inputs = c.enc_layers * h * enc_tokens + c.dec_layers * h * dec_tokens;
                let side = c.total_layers() * 3 * r * enc_tokens;
                (b_inputs + side) * 4
            }
        }
    }

    /// "Activations" bytes in the paper's Table 1 sense: retained
    /// intermediates plus optimizer state.
    pub fn activation_bytes(&self, phase: Phase) -> usize {
        match phase {
            Phase::Inference => 0,
            Phase::Training => {
                let opt = self.trainable_params() * self.opt_bytes_per_param;
                if self.technique.backprop_through_backbone() {
                    self.backbone_intermediate_bytes() + self.technique_activation_bytes() + opt
                } else {
                    // Parallel Adapters: the backbone runs forward-only. The
                    // transient working set is ~2 layers of activations; the
                    // retained set is the side network's contexts.
                    let transient = 2
                        * self.config.enc_layer_act_floats_per_token()
                        * self.batch
                        * self.seq
                        * 4;
                    transient + self.technique_activation_bytes() + opt
                }
            }
            Phase::CachedTraining => {
                let opt = self.trainable_params() * self.opt_bytes_per_param;
                // Only the current micro-batch's cached b_i plus side state.
                self.technique_activation_bytes() + opt
            }
        }
    }

    /// Complete breakdown for `phase`.
    pub fn breakdown(&self, phase: Phase) -> MemoryBreakdown {
        MemoryBreakdown {
            weights: self.weight_bytes(phase),
            activations: self.activation_bytes(phase),
            gradients: self.gradient_bytes(phase),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t5l(t: Technique) -> MemoryModel {
        MemoryModel::paper_defaults(ModelConfig::t5_large(), t)
    }

    #[test]
    fn table1_shape_full_vs_peft_vs_inference() {
        // Table 1 ordering: Full (10.83) > LoRA (7.13) ≈ Adapters (6.89)
        // > Inference (2.75).
        let full = t5l(Technique::Full).breakdown(Phase::Training).total();
        let ad = t5l(Technique::adapters_default())
            .breakdown(Phase::Training)
            .total();
        let lora = t5l(Technique::lora_default())
            .breakdown(Phase::Training)
            .total();
        let inf = t5l(Technique::Full).breakdown(Phase::Inference).total();
        assert!(full > lora && full > ad, "full {full} ad {ad} lora {lora}");
        assert!(ad > inf && lora > inf);
        // Full ≈ 1.5–1.7× the PEFT rows, as in the table.
        let ratio = full as f64 / ad as f64;
        assert!((1.2..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn table1_magnitudes_are_in_paper_range() {
        // Weights 2.75 GB, Full total 10.83 GB, PEFT ≈ 7 GB.
        let full = t5l(Technique::Full).breakdown(Phase::Training);
        assert!(
            (2.4..3.4).contains(&(full.weights as f64 / 1e9)),
            "weights {} GB",
            full.weights as f64 / 1e9
        );
        let total_gb = full.total_gb();
        assert!((8.0..13.0).contains(&total_gb), "full total {total_gb} GB");
    }

    #[test]
    fn peft_gradients_are_tiny() {
        // Table 1: Adapters grads 0.05 GB, LoRA 0.04 GB.
        let ad = t5l(Technique::adapters_default()).breakdown(Phase::Training);
        let lora = t5l(Technique::lora_default()).breakdown(Phase::Training);
        assert!((ad.gradients as f64 / 1e9) < 0.08, "{}", ad.gradients);
        assert!((lora.gradients as f64 / 1e9) < 0.08, "{}", lora.gradients);
    }

    #[test]
    fn parallel_adapters_save_memory_without_cache() {
        // Fig 8(b): PA reduces peak memory ≈ 25% versus backbone-backprop
        // techniques even before the cache kicks in.
        let pa = t5l(Technique::parallel_default())
            .breakdown(Phase::Training)
            .total();
        let ad = t5l(Technique::adapters_default())
            .breakdown(Phase::Training)
            .total();
        let saving = 1.0 - pa as f64 / ad as f64;
        assert!(saving > 0.15, "saving {saving}");
    }

    #[test]
    fn cached_phase_releases_backbone() {
        // Fig 8(b): with the cache the footprint drops ≈ 75%: only the side
        // network + current micro-batch activations remain.
        let m = t5l(Technique::parallel_default());
        let train = m.breakdown(Phase::Training).total();
        let cached = m.breakdown(Phase::CachedTraining).total();
        assert!(cached < train / 2, "train {train} cached {cached}");
        let vs_full =
            1.0 - cached as f64 / t5l(Technique::Full).breakdown(Phase::Training).total() as f64;
        assert!(vs_full > 0.6, "reduction vs full {vs_full}");
    }

    #[test]
    fn cache_does_not_apply_to_backbone_techniques() {
        let m = t5l(Technique::lora_default());
        assert_eq!(
            m.weight_bytes(Phase::CachedTraining),
            m.weight_bytes(Phase::Training)
        );
    }

    #[test]
    fn inference_is_weights_only() {
        let b = t5l(Technique::Full).breakdown(Phase::Inference);
        assert_eq!(b.activations, 0);
        assert_eq!(b.gradients, 0);
        assert!(b.weights > 0);
    }

    #[test]
    fn activations_grow_with_batch() {
        let mut m = t5l(Technique::Full);
        let small = m.activation_bytes(Phase::Training);
        m.batch = 32;
        let big = m.activation_bytes(Phase::Training);
        assert!(big > small * 3 / 2);
    }
}
