//! Figure 3: forward/backward FLOPs comparison (bs 16, seq 128).

use pac_cluster::CostModel;
use pac_model::ModelConfig;
use pac_peft::Technique;

/// One bar group of Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Technique label.
    pub technique: String,
    /// Forward TFLOPs per mini-batch.
    pub fwd_tflops: f64,
    /// Backward TFLOPs per mini-batch.
    pub bwd_tflops: f64,
    /// Forward share of a training step.
    pub fwd_fraction: f64,
}

/// Computes Figure 3 for T5-Large (the model the paper's figure measures).
pub fn fig3() -> Vec<Fig3Row> {
    let cfg = ModelConfig::t5_large();
    Technique::all_paper()
        .into_iter()
        .map(|t| {
            let cm = CostModel::new(cfg.clone(), t, 128);
            let fwd = cm.total_fwd_flops(16) / 1e12;
            let bwd = cm.total_bwd_flops(16) / 1e12;
            Fig3Row {
                technique: t.name().to_string(),
                fwd_tflops: fwd,
                bwd_tflops: bwd,
                fwd_fraction: fwd / (fwd + bwd),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_matches_paper() {
        let rows = fig3();
        let get = |n: &str| rows.iter().find(|r| r.technique.contains(n)).unwrap();
        // Paper: forward ≈ 54% for Adapters/LoRA (frozen backbone skips dW),
        // ≈ 1/3 for Full.
        assert!((0.30..0.37).contains(&get("Full").fwd_fraction));
        assert!((0.45..0.60).contains(&get("Adapters").fwd_fraction));
        assert!((0.45..0.60).contains(&get("LoRA").fwd_fraction));
        // Parallel Adapters eliminate backbone backward entirely.
        let pa = get("Parallel");
        assert!(pa.bwd_tflops < get("Adapters").bwd_tflops / 5.0);
        // Absolute scale: a T5-Large bs-16 forward is a few TFLOPs.
        assert!((1.0..50.0).contains(&get("Full").fwd_tflops));
    }
}
