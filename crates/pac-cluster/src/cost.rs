//! Analytic FLOPs / bytes cost model for transformer fine-tuning.
//!
//! Conventions:
//! * one fused multiply-add counts as 2 FLOPs;
//! * backward is split into the **dX** part (gradient w.r.t. activations,
//!   needed whenever *any* upstream parameter trains) and the **dW** part
//!   (gradient w.r.t. weights, needed only for trainable weights). This
//!   split is what produces the paper's Figure 3 observation that forward
//!   is ≈ 54 % of PEFT compute (fwd ≈ dX ≫ dW_adapter) but only ≈ ⅓ of
//!   full fine-tuning compute (fwd ≈ dX ≈ dW).

use pac_model::ModelConfig;
use pac_peft::Technique;

/// Whether a layer sits in the encoder or decoder stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerRole {
    /// Encoder layer (processes `seq` tokens).
    Encoder,
    /// Decoder layer (processes `dec_seq` tokens + cross-attention).
    Decoder,
}

/// Per-layer costs, normalized per sample (multiply by the micro-batch size
/// at the point of use).
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    /// Encoder or decoder.
    pub role: LayerRole,
    /// Forward FLOPs per sample (backbone + technique extras on this layer).
    pub fwd_flops: f64,
    /// Backward-dX FLOPs per sample.
    pub dx_flops: f64,
    /// Backward-dW FLOPs per sample (trainable weights on this layer only).
    pub dw_flops: f64,
    /// Resident weight bytes (backbone layer + technique extras).
    pub weight_bytes: usize,
    /// Bytes of parameters requiring gradient + optimizer state.
    pub trainable_bytes: usize,
    /// Activation bytes retained per sample for this layer's backward.
    pub retained_act_bytes: usize,
    /// Bytes crossing a stage boundary after this layer, per sample.
    pub boundary_bytes: usize,
}

impl LayerCost {
    /// Total backward FLOPs per sample under the owning technique.
    pub fn bwd_flops(&self) -> f64 {
        self.dx_flops + self.dw_flops
    }
}

/// Cost model for one (architecture, technique, sequence geometry).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Model architecture.
    pub config: ModelConfig,
    /// Fine-tuning technique.
    pub technique: Technique,
    /// Encoder sequence length.
    pub seq: usize,
    /// Decoder sequence length.
    pub dec_seq: usize,
}

impl CostModel {
    /// Cost model with the paper's geometry (seq 128, short targets).
    pub fn new(config: ModelConfig, technique: Technique, seq: usize) -> Self {
        CostModel {
            config,
            technique,
            seq,
            dec_seq: 8,
        }
    }

    /// Side-network hidden width for Parallel Adapters (0 otherwise).
    fn side_r(&self) -> usize {
        match self.technique {
            Technique::ParallelAdapters { reduction } => (self.config.hidden / reduction).max(1),
            _ => 0,
        }
    }

    /// Backbone forward FLOPs per sample for one layer.
    fn backbone_layer_fwd(&self, role: LayerRole) -> f64 {
        let h = self.config.hidden as f64;
        let ff = self.config.ff_dim as f64;
        match role {
            LayerRole::Encoder => {
                let s = self.seq as f64;
                // Per token: QKVO projections 8h², attention matmuls 4sh,
                // FFN 4h·ff.
                s * (8.0 * h * h + 4.0 * s * h + 4.0 * h * ff)
            }
            LayerRole::Decoder => {
                let s = self.dec_seq as f64;
                let s_enc = self.seq as f64;
                // Self-attention over dec tokens + cross-attention into the
                // encoder sequence + FFN.
                s * (8.0 * h * h + 4.0 * s * h + 4.0 * h * ff) + s * (8.0 * h * h + 4.0 * s_enc * h)
            }
        }
    }

    /// Technique-extra forward FLOPs per sample on one layer (adapter
    /// bottleneck, LoRA branch, or side-network step).
    fn technique_layer_fwd(&self, role: LayerRole) -> f64 {
        let h = self.config.hidden as f64;
        let tokens = match role {
            LayerRole::Encoder => self.seq as f64,
            LayerRole::Decoder => self.dec_seq as f64,
        };
        match self.technique {
            Technique::Full => 0.0,
            Technique::Adapters { reduction } => {
                let r = (self.config.hidden / reduction).max(1) as f64;
                tokens * 4.0 * h * r
            }
            Technique::Lora { rank } => {
                let r = rank as f64;
                let blocks = match role {
                    LayerRole::Encoder => 1.0,
                    LayerRole::Decoder => 2.0,
                };
                tokens * blocks * 2.0 * (4.0 * h * r)
            }
            Technique::ParallelAdapters { .. } => {
                let r = self.side_r() as f64;
                tokens * (4.0 * h * r / 2.0 + 4.0 * r * r / 2.0) // down h→r + rec r→r (2 FLOPs/madd)
            }
        }
    }

    /// Per-layer trainable parameter bytes.
    fn technique_layer_trainable_bytes(&self, role: LayerRole) -> usize {
        let h = self.config.hidden;
        match self.technique {
            Technique::Full => {
                let p = match role {
                    LayerRole::Encoder => self.config.enc_layer_params(),
                    LayerRole::Decoder => self.config.dec_layer_params(),
                };
                p * 4
            }
            Technique::Adapters { reduction } => {
                let r = (h / reduction).max(1);
                (2 * h * r + r + h) * 4
            }
            Technique::Lora { rank } => {
                let blocks = match role {
                    LayerRole::Encoder => 1,
                    LayerRole::Decoder => 2,
                };
                blocks * 2 * 2 * h * rank * 4
            }
            Technique::ParallelAdapters { .. } => {
                let r = self.side_r();
                (h * r + r * r + r) * 4
            }
        }
    }

    /// Per-sample retained activation bytes on one layer.
    fn layer_retained_act_bytes(&self, role: LayerRole) -> usize {
        let c = &self.config;
        let (tokens, per_token) = match role {
            LayerRole::Encoder => (self.seq, c.enc_layer_act_floats_per_token()),
            LayerRole::Decoder => (self.dec_seq, c.dec_layer_act_floats_per_token()),
        };
        let scores = match role {
            LayerRole::Encoder => c.heads * self.seq * self.seq,
            LayerRole::Decoder => c.heads * (self.dec_seq * self.dec_seq + self.dec_seq * self.seq),
        };
        match self.technique {
            // Backbone-backprop techniques retain the full layer context.
            Technique::Full | Technique::Adapters { .. } | Technique::Lora { .. } => {
                (tokens * per_token + scores) * 4
            }
            // Parallel Adapters retain only b_i (side-network input) plus
            // the small side context.
            Technique::ParallelAdapters { .. } => {
                let r = self.side_r();
                (tokens * (c.hidden + 3 * r)) * 4
            }
        }
    }

    /// Per-layer cost table (`total_layers()` entries: encoder layers then
    /// decoder layers).
    pub fn layer_costs(&self) -> Vec<LayerCost> {
        let c = &self.config;
        let mut out = Vec::with_capacity(c.total_layers());
        for i in 0..c.total_layers() {
            let role = if i < c.enc_layers {
                LayerRole::Encoder
            } else {
                LayerRole::Decoder
            };
            let backbone_fwd = self.backbone_layer_fwd(role);
            let tech_fwd = self.technique_layer_fwd(role);
            let fwd = backbone_fwd + tech_fwd;
            let (dx, dw) = match self.technique {
                Technique::Full => (backbone_fwd, backbone_fwd + tech_fwd),
                Technique::Adapters { .. } | Technique::Lora { .. } => {
                    // dX through the whole backbone; dW only for the
                    // technique's parameters.
                    (backbone_fwd + tech_fwd, 2.0 * tech_fwd)
                }
                Technique::ParallelAdapters { .. } => {
                    // No backbone backward at all; side network bwd ≈ 2×
                    // its fwd.
                    (0.0, 2.0 * tech_fwd)
                }
            };
            let base_params = match role {
                LayerRole::Encoder => c.enc_layer_params(),
                LayerRole::Decoder => c.dec_layer_params(),
            };
            let tech_bytes = match self.technique {
                Technique::Full => 0,
                _ => self.technique_layer_trainable_bytes(role),
            };
            let boundary_tokens = match role {
                LayerRole::Encoder => self.seq,
                LayerRole::Decoder => self.dec_seq,
            };
            let boundary_bytes = boundary_tokens * c.hidden * 4;
            out.push(LayerCost {
                role,
                fwd_flops: fwd,
                dx_flops: dx,
                dw_flops: dw,
                weight_bytes: base_params * 4 + tech_bytes,
                trainable_bytes: self.technique_layer_trainable_bytes(role),
                retained_act_bytes: self.layer_retained_act_bytes(role),
                boundary_bytes,
            });
        }
        out
    }

    /// Total forward FLOPs for a mini-batch.
    pub fn total_fwd_flops(&self, batch: usize) -> f64 {
        self.layer_costs().iter().map(|l| l.fwd_flops).sum::<f64>() * batch as f64
    }

    /// Total backward FLOPs for a mini-batch.
    pub fn total_bwd_flops(&self, batch: usize) -> f64 {
        self.layer_costs()
            .iter()
            .map(|l| l.bwd_flops())
            .sum::<f64>()
            * batch as f64
    }

    /// Forward share of a training step (the paper's Figure 3 quantity).
    pub fn fwd_fraction(&self) -> f64 {
        let f = self.total_fwd_flops(1);
        let b = self.total_bwd_flops(1);
        f / (f + b)
    }

    /// FLOPs of a cache-enabled training step (Parallel Adapters only):
    /// the side network's forward + backward, no backbone at all.
    pub fn cached_step_flops(&self, batch: usize) -> f64 {
        let side_fwd: f64 = (0..self.config.total_layers())
            .map(|i| {
                let role = if i < self.config.enc_layers {
                    LayerRole::Encoder
                } else {
                    LayerRole::Decoder
                };
                self.technique_layer_fwd(role)
            })
            .sum();
        3.0 * side_fwd * batch as f64
    }

    /// Trainable parameter bytes across the whole model (AllReduce payload).
    pub fn trainable_bytes_total(&self) -> usize {
        self.technique.trainable_params(&self.config) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig::t5_large()
    }

    #[test]
    fn fig3_forward_fractions() {
        // Figure 3: forward ≈ 54% of total for Adapters/LoRA, ≈ ⅓ for Full.
        let full = CostModel::new(model(), Technique::Full, 128).fwd_fraction();
        assert!((0.30..0.37).contains(&full), "full fwd fraction {full}");

        let ad = CostModel::new(model(), Technique::adapters_default(), 128).fwd_fraction();
        assert!((0.45..0.60).contains(&ad), "adapters fwd fraction {ad}");

        let lora = CostModel::new(model(), Technique::lora_default(), 128).fwd_fraction();
        assert!((0.45..0.60).contains(&lora), "lora fwd fraction {lora}");
    }

    #[test]
    fn parallel_adapters_cut_training_flops() {
        // Fig 8(a): PA reduces per-sample training time ≈ 32% vs Full
        // (no cache), and ≈ 96% with the cache.
        let full = CostModel::new(model(), Technique::Full, 128);
        let pa = CostModel::new(model(), Technique::parallel_default(), 128);
        let full_step = full.total_fwd_flops(1) + full.total_bwd_flops(1);
        let pa_step = pa.total_fwd_flops(1) + pa.total_bwd_flops(1);
        let saving = 1.0 - pa_step / full_step;
        assert!((0.25..0.75).contains(&saving), "PA saving {saving}");

        let cached = pa.cached_step_flops(1);
        let cached_saving = 1.0 - cached / full_step;
        assert!(cached_saving > 0.90, "cached saving {cached_saving}");
    }

    #[test]
    fn layer_costs_cover_all_layers() {
        let cm = CostModel::new(model(), Technique::Full, 128);
        let lc = cm.layer_costs();
        assert_eq!(lc.len(), 48);
        assert!(lc[..24].iter().all(|l| l.role == LayerRole::Encoder));
        assert!(lc[24..].iter().all(|l| l.role == LayerRole::Decoder));
        // Every layer costs something and carries weights.
        assert!(lc.iter().all(|l| l.fwd_flops > 0.0 && l.weight_bytes > 0));
    }

    #[test]
    fn boundary_bytes_match_hidden_state_size() {
        let cm = CostModel::new(model(), Technique::Full, 128);
        let lc = cm.layer_costs();
        assert_eq!(lc[0].boundary_bytes, 128 * 1024 * 4);
        assert_eq!(lc[47].boundary_bytes, 8 * 1024 * 4);
    }

    #[test]
    fn pa_layers_have_zero_dx() {
        let cm = CostModel::new(model(), Technique::parallel_default(), 128);
        assert!(cm.layer_costs().iter().all(|l| l.dx_flops == 0.0));
        let cm2 = CostModel::new(model(), Technique::lora_default(), 128);
        assert!(cm2.layer_costs().iter().all(|l| l.dx_flops > 0.0));
    }

    #[test]
    fn pa_retains_far_fewer_activations() {
        let full = CostModel::new(model(), Technique::Full, 128);
        let pa = CostModel::new(model(), Technique::parallel_default(), 128);
        let full_act: usize = full
            .layer_costs()
            .iter()
            .map(|l| l.retained_act_bytes)
            .sum();
        let pa_act: usize = pa.layer_costs().iter().map(|l| l.retained_act_bytes).sum();
        assert!(
            pa_act * 3 < full_act,
            "PA {pa_act} should be ≪ full {full_act}"
        );
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let cm = CostModel::new(model(), Technique::Full, 128);
        assert!((cm.total_fwd_flops(16) / cm.total_fwd_flops(1) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_payload_is_trainable_bytes() {
        let cm = CostModel::new(model(), Technique::parallel_default(), 128);
        let bytes = cm.trainable_bytes_total();
        // Lightweight: tens of MB, not GB.
        assert!(bytes < 100_000_000, "{bytes}");
        let full = CostModel::new(model(), Technique::Full, 128).trainable_bytes_total();
        assert!(full > 2_000_000_000);
    }

    #[test]
    fn step_flops_are_feasible_on_nano() {
        // Sanity: a T5-Large full fine-tuning step (bs 16) on one Nano
        // should take minutes, not milliseconds — consistent with the
        // paper's hours-long training runs.
        let cm = CostModel::new(model(), Technique::Full, 128);
        let flops = cm.total_fwd_flops(16) + cm.total_bwd_flops(16);
        let nano = crate::device::DeviceSpec::jetson_nano();
        let secs = nano.compute_time(flops);
        assert!((10.0..4000.0).contains(&secs), "step time {secs} s");
    }
}
