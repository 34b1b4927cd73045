//! Fine-tuning technique descriptors and analytic parameter accounting.

use pac_model::ModelConfig;

/// A fine-tuning technique, with its structural hyperparameters.
///
/// ```
/// use pac_peft::Technique;
/// use pac_model::ModelConfig;
///
/// let cfg = ModelConfig::t5_large();
/// let pa = Technique::parallel_default();
/// assert!(pa.trainable_fraction(&cfg) < 0.02);     // ~1% of the backbone
/// assert!(!pa.backprop_through_backbone());        // the gradient highway
/// assert!(pa.supports_activation_cache());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Update every backbone parameter.
    Full,
    /// Houlsby bottleneck adapters at the end of each transformer layer;
    /// `reduction` is the hidden-size reduction factor `k` (bottleneck dim =
    /// `h / k`).
    Adapters {
        /// Reduction factor `k` (paper uses 8).
        reduction: usize,
    },
    /// LoRA low-rank deltas on the Q and V projections of every attention
    /// block.
    Lora {
        /// Low-rank dimension `r` (the paper's ~9 M trainable parameters on
        /// T5-Large corresponds to r = 32).
        rank: usize,
    },
    /// The paper's Parallel Adapters side network with reduction factor `k`
    /// (side hidden dim = `h / k`; paper uses k = 8).
    ParallelAdapters {
        /// Reduction factor `k`.
        reduction: usize,
    },
}

impl Technique {
    /// Paper-default Adapters (k = 8).
    pub fn adapters_default() -> Self {
        Technique::Adapters { reduction: 8 }
    }

    /// Paper-default LoRA (r = 32, matching the 1.26% trainable-parameter
    /// share of Table 1).
    pub fn lora_default() -> Self {
        Technique::Lora { rank: 32 }
    }

    /// Paper-default Parallel Adapters (k = 8, §6.1).
    pub fn parallel_default() -> Self {
        Technique::ParallelAdapters { reduction: 8 }
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Full => "Full Model",
            Technique::Adapters { .. } => "Adapters",
            Technique::Lora { .. } => "LoRA",
            Technique::ParallelAdapters { .. } => "Parallel Adapters",
        }
    }

    /// Number of trainable parameters this technique introduces (or, for
    /// Full, the whole backbone).
    ///
    /// The count is purely structural — it is **not** clamped against the
    /// backbone size. Over-parameterized settings are legal and counted
    /// as-is: LoRA with `rank > hidden / 4` on a small model adds
    /// `4 · h · rank` parameters per attention block and can exceed
    /// `Technique::Full` (e.g. rank 45 on hidden 16 — a configuration that
    /// once tripped a property test assuming PEFT < Full unconditionally).
    /// Such settings waste parameters but compute fine; callers comparing
    /// against Full must gate on sane hyperparameters themselves, as the
    /// planner does.
    pub fn trainable_params(&self, cfg: &ModelConfig) -> usize {
        let h = cfg.hidden;
        let layers = cfg.total_layers();
        match *self {
            Technique::Full => cfg.total_params(),
            Technique::Adapters { reduction } => {
                // Per layer: down (h×r + r) + up (r×h + h), r = h / k.
                let r = (h / reduction).max(1);
                layers * (2 * h * r + r + h)
            }
            Technique::Lora { rank } => {
                // Q and V of each attention block get A [h×r] + B [r×h].
                // Encoder layers have one attention block, decoder layers two.
                let blocks = cfg.enc_layers + 2 * cfg.dec_layers;
                blocks * 2 * (2 * h * rank)
            }
            Technique::ParallelAdapters { reduction } => {
                let r = (h / reduction).max(1);
                // Per layer: down-projection h×r + side recurrence r×r + r.
                // Plus one up-projection r×h and a side LayerNorm 2h.
                layers * (h * r + r * r + r) + r * h + 2 * h
            }
        }
    }

    /// Fraction of the backbone parameter count that is trainable.
    pub fn trainable_fraction(&self, cfg: &ModelConfig) -> f64 {
        self.trainable_params(cfg) as f64 / cfg.total_params() as f64
    }

    /// Whether backward must traverse the backbone (true for everything but
    /// Parallel Adapters — the property the paper's Figure 5 illustrates).
    pub fn backprop_through_backbone(&self) -> bool {
        !matches!(self, Technique::ParallelAdapters { .. })
    }

    /// Whether the technique supports the activation cache (backbone frozen
    /// *and* trainable parameters outside the backbone).
    pub fn supports_activation_cache(&self) -> bool {
        matches!(self, Technique::ParallelAdapters { .. })
    }

    /// The four techniques in the paper's table order.
    pub fn all_paper() -> Vec<Technique> {
        vec![
            Technique::Full,
            Technique::adapters_default(),
            Technique::lora_default(),
            Technique::parallel_default(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t5_large_trainable_counts_match_table1() {
        let cfg = ModelConfig::t5_large();
        // Table 1: Full 737M (100%), Adapters 12M (1.70%), LoRA 9M (1.26%).
        let full = Technique::Full.trainable_params(&cfg);
        assert!((full as f64 - 737e6).abs() / 737e6 < 0.01, "{full}");

        let ad = Technique::adapters_default().trainable_params(&cfg);
        assert!(
            (ad as f64 - 12e6).abs() / 12e6 < 0.10,
            "adapters {ad} (want ≈12M)"
        );

        let lora = Technique::lora_default().trainable_params(&cfg);
        assert!(
            (lora as f64 - 9e6).abs() / 9e6 < 0.10,
            "lora {lora} (want ≈9M)"
        );
    }

    #[test]
    fn peft_fractions_are_small() {
        let cfg = ModelConfig::t5_large();
        for t in [
            Technique::adapters_default(),
            Technique::lora_default(),
            Technique::parallel_default(),
        ] {
            let f = t.trainable_fraction(&cfg);
            assert!(f < 0.02, "{} fraction {f}", t.name());
        }
        assert_eq!(Technique::Full.trainable_fraction(&cfg), 1.0);
    }

    #[test]
    fn only_parallel_adapters_skip_backbone_backprop() {
        assert!(Technique::Full.backprop_through_backbone());
        assert!(Technique::adapters_default().backprop_through_backbone());
        assert!(Technique::lora_default().backprop_through_backbone());
        assert!(!Technique::parallel_default().backprop_through_backbone());
        assert!(Technique::parallel_default().supports_activation_cache());
        assert!(!Technique::lora_default().supports_activation_cache());
    }

    #[test]
    fn parallel_adapters_are_lightweight() {
        let cfg = ModelConfig::t5_large();
        let pa = Technique::parallel_default().trainable_params(&cfg);
        // Comparable order to Adapters (both ≈ 1% of the backbone).
        assert!(pa > 1_000_000 && pa < 20_000_000, "{pa}");
    }

    #[test]
    fn over_parameterized_lora_exceeds_full_and_is_counted_structurally() {
        // Deterministic reproduction of the proptest regression once pinned
        // in tests/cross_crate_props.proptest-regressions: LoRA rank 45 on
        // Micro-1e1d-h16. With h = 16, one encoder + one decoder layer give
        // 3 attention blocks, so LoRA adds 3 · 2 · (2 · 16 · 45) = 8640
        // parameters — more than the whole micro backbone. The count is
        // intentionally unclamped (see `trainable_params` docs); the
        // property test excludes such configs via rank · 4 ≤ hidden.
        let cfg = ModelConfig::micro(1, 1, 16, 2);
        let lora = Technique::Lora { rank: 45 };
        assert_eq!(lora.trainable_params(&cfg), 3 * 2 * (2 * 16 * 45));
        assert!(
            lora.trainable_params(&cfg) > Technique::Full.trainable_params(&cfg),
            "rank 45 on hidden 16 must exceed the micro backbone ({} vs {})",
            lora.trainable_params(&cfg),
            Technique::Full.trainable_params(&cfg)
        );
        assert!(lora.trainable_fraction(&cfg) > 1.0);

        // The sanity gate the property test uses: at rank ≤ h/4 LoRA is
        // strictly smaller than Full on the same model.
        let sane = Technique::Lora { rank: 4 };
        assert!(sane.trainable_params(&cfg) < Technique::Full.trainable_params(&cfg));
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Technique::Full.name(), "Full Model");
        assert_eq!(Technique::adapters_default().name(), "Adapters");
        assert_eq!(Technique::lora_default().name(), "LoRA");
        assert_eq!(Technique::parallel_default().name(), "Parallel Adapters");
    }
}
