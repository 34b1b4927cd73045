//! Table 1: memory-footprint breakdown (T5-Large, bs 16, seq 128).

use pac_model::ModelConfig;
use pac_peft::memory::{MemoryModel, Phase};
use pac_peft::Technique;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row label ("Full", "Adapters", "LoRA", "Parallel Adapters",
    /// "PA + cache", "Inference").
    pub technique: String,
    /// Trainable parameters (millions); `None` for inference.
    pub trainable_m: Option<f64>,
    /// Trainable fraction of the backbone; `None` for inference.
    pub trainable_pct: Option<f64>,
    /// Weights resident, GB.
    pub weights_gb: f64,
    /// Activations + optimizer state, GB.
    pub activations_gb: f64,
    /// Gradient buffers, GB.
    pub gradients_gb: f64,
    /// Total, GB.
    pub total_gb: f64,
}

/// Computes Table 1 (and the two extra PAC rows the paper discusses in
/// §6.3) for T5-Large at the paper's geometry.
pub fn table1() -> Vec<Table1Row> {
    let cfg = ModelConfig::t5_large();
    let mut rows = Vec::new();
    for technique in Technique::all_paper() {
        let m = MemoryModel::paper_defaults(cfg.clone(), technique);
        let b = m.breakdown(Phase::Training);
        rows.push(Table1Row {
            technique: technique.name().to_string(),
            trainable_m: Some(m.trainable_params() as f64 / 1e6),
            trainable_pct: Some(100.0 * technique.trainable_fraction(&cfg)),
            weights_gb: b.weights as f64 / 1e9,
            activations_gb: b.activations as f64 / 1e9,
            gradients_gb: b.gradients as f64 / 1e9,
            total_gb: b.total_gb(),
        });
    }
    // PA with the activation cache (epochs ≥ 2).
    let pa = MemoryModel::paper_defaults(cfg.clone(), Technique::parallel_default());
    let cached = pa.breakdown(Phase::CachedTraining);
    rows.push(Table1Row {
        technique: "PA + activation cache".into(),
        trainable_m: Some(pa.trainable_params() as f64 / 1e6),
        trainable_pct: Some(100.0 * Technique::parallel_default().trainable_fraction(&cfg)),
        weights_gb: cached.weights as f64 / 1e9,
        activations_gb: cached.activations as f64 / 1e9,
        gradients_gb: cached.gradients as f64 / 1e9,
        total_gb: cached.total_gb(),
    });
    // Inference floor.
    let inf = MemoryModel::paper_defaults(cfg, Technique::Full).breakdown(Phase::Inference);
    rows.push(Table1Row {
        technique: "Inference".into(),
        trainable_m: None,
        trainable_pct: None,
        weights_gb: inf.weights as f64 / 1e9,
        activations_gb: 0.0,
        gradients_gb: 0.0,
        total_gb: inf.total_gb(),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_ordering_and_magnitudes() {
        let rows = table1();
        let by_name = |n: &str| rows.iter().find(|r| r.technique.contains(n)).unwrap();
        let full = by_name("Full");
        let adapters = by_name("Adapters");
        let lora = by_name("LoRA");
        let pa = by_name("Parallel Adapters");
        let cached = by_name("cache");
        let inf = by_name("Inference");

        // Paper: Full 10.83 > LoRA 7.13 ≈ Adapters 6.89 > inference 2.75.
        assert!(full.total_gb > adapters.total_gb);
        assert!(full.total_gb > lora.total_gb);
        assert!(adapters.total_gb > inf.total_gb);
        assert!((8.0..14.0).contains(&full.total_gb), "{}", full.total_gb);
        assert!((2.4..3.4).contains(&inf.total_gb), "{}", inf.total_gb);
        // Trainable percentages match Table 1 (1.70% and 1.26%).
        assert!((adapters.trainable_pct.unwrap() - 1.70).abs() < 0.3);
        assert!((lora.trainable_pct.unwrap() - 1.26).abs() < 0.3);
        // PAC's additions: PA beats all baselines; the cache slashes it
        // again (the paper's "up to 8.64×" headline).
        assert!(pa.total_gb < adapters.total_gb);
        assert!(cached.total_gb < pa.total_gb / 2.0);
        assert!(
            full.total_gb / cached.total_gb > 8.0,
            "headline reduction only {:.1}×",
            full.total_gb / cached.total_gb
        );
    }
}
