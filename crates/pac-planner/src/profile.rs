//! Runtime profiles consumed by the planner.

use pac_cluster::CostModel;
use pac_model::embed_tokens;

/// Per-layer profile entry, normalized per sample.
#[derive(Debug, Clone, Copy)]
pub struct LayerProfileEntry {
    /// Forward FLOPs per sample.
    pub fwd_flops: f64,
    /// Backward FLOPs per sample (dX + dW under the profiled technique).
    pub bwd_flops: f64,
    /// Resident weight bytes.
    pub weight_bytes: usize,
    /// Trainable (gradient/optimizer-bearing) bytes.
    pub trainable_bytes: usize,
    /// Retained activation bytes per sample.
    pub act_bytes: usize,
    /// Stage-boundary payload bytes per sample.
    pub boundary_bytes: usize,
}

/// A complete model profile: one entry per backbone layer, plus shared
/// (embedding) weights charged to the pipeline endpoints.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Per-layer entries in pipeline order.
    pub layers: Vec<LayerProfileEntry>,
    /// Embedding bytes resident on the first and last stages.
    pub embed_bytes: usize,
}

impl Profile {
    /// Analytic profiling from the cost model — the calibration-dataset
    /// profiling pass of the paper (Step 1), computed in closed form since
    /// the simulator's "runtime" *is* the cost model.
    pub fn from_cost_model(cost: &CostModel) -> Self {
        let layers = cost
            .layer_costs()
            .iter()
            .map(|l| LayerProfileEntry {
                fwd_flops: l.fwd_flops,
                bwd_flops: l.bwd_flops(),
                weight_bytes: l.weight_bytes,
                trainable_bytes: l.trainable_bytes,
                act_bytes: l.retained_act_bytes,
                boundary_bytes: l.boundary_bytes,
            })
            .collect();
        Profile {
            layers,
            embed_bytes: cost.config.embedding_params() * 4,
        }
    }

    /// Wall-clock profiling of a real micro model on this machine: times
    /// each layer's forward and backward over `reps` repetitions and
    /// converts seconds to "FLOPs" against a 1 FLOP/s reference device, so
    /// plans computed from measured profiles are directly comparable.
    pub fn measure_micro(
        model: &pac_model::EncoderModel,
        batch: &[Vec<usize>],
        reps: usize,
    ) -> Self {
        use std::time::Instant;
        let reps = reps.max(1);
        let b = batch.len().max(1);
        let stage = model.stage();
        let (embed, pos) = stage.embedding().expect("a model starts at its embedding");
        // Embed once to get a representative hidden state.
        let (mut x, _) =
            embed_tokens(embed, pos, batch).expect("profiling batch must be well-formed");
        let mut entries = Vec::with_capacity(model.num_layers());
        for layer in stage.layers() {
            let mut layer = layer.clone();
            let t0 = Instant::now();
            let mut ctx = None;
            for _ in 0..reps {
                let (y, c) = layer.forward(&x, None).expect("profiled forward");
                ctx = Some((y, c));
            }
            let fwd_s = t0.elapsed().as_secs_f64() / reps as f64;
            let (y, c) = ctx.expect("at least one rep");

            let dy = pac_tensor::Tensor::ones(y.dims());
            let t1 = Instant::now();
            for _ in 0..reps {
                let _ = layer.backward(&c, &dy).expect("profiled backward");
            }
            let bwd_s = t1.elapsed().as_secs_f64() / reps as f64;

            let mut weight_bytes = 0usize;
            pac_nn::Module::visit_params_ref(&layer, &mut |p| {
                weight_bytes += p.value.size_bytes();
            });
            let boundary = y.size_bytes() / b;
            entries.push(LayerProfileEntry {
                fwd_flops: fwd_s / b as f64,
                bwd_flops: bwd_s / b as f64,
                weight_bytes,
                trainable_bytes: weight_bytes,
                act_bytes: 8 * boundary,
                boundary_bytes: boundary,
            });
            x = y;
        }
        Profile {
            layers: entries,
            embed_bytes: embed.table.value.size_bytes(),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total step FLOPs per sample over a contiguous layer range.
    pub fn range_flops(&self, start: usize, end: usize) -> f64 {
        self.layers[start..end]
            .iter()
            .map(|l| l.fwd_flops + l.bwd_flops)
            .sum()
    }

    /// Weight bytes over a range.
    pub fn range_weight_bytes(&self, start: usize, end: usize) -> usize {
        self.layers[start..end].iter().map(|l| l.weight_bytes).sum()
    }

    /// Trainable bytes over a range.
    pub fn range_trainable_bytes(&self, start: usize, end: usize) -> usize {
        self.layers[start..end]
            .iter()
            .map(|l| l.trainable_bytes)
            .sum()
    }

    /// Retained activation bytes per sample over a range.
    pub fn range_act_bytes(&self, start: usize, end: usize) -> usize {
        self.layers[start..end].iter().map(|l| l.act_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_model::ModelConfig;
    use pac_peft::Technique;
    use pac_tensor::rng::seeded;
    use rand::Rng as _;

    #[test]
    fn analytic_profile_covers_all_layers() {
        let cost = CostModel::new(ModelConfig::t5_base(), Technique::parallel_default(), 128);
        let p = Profile::from_cost_model(&cost);
        assert_eq!(p.num_layers(), 24);
        assert!(p.embed_bytes > 0);
        assert!(p.layers.iter().all(|l| l.fwd_flops > 0.0));
        // Range accessors are additive.
        let whole = p.range_flops(0, 24);
        let split = p.range_flops(0, 10) + p.range_flops(10, 24);
        assert!((whole - split).abs() < 1e-6);
        assert_eq!(
            p.range_weight_bytes(0, 24),
            p.range_weight_bytes(0, 7) + p.range_weight_bytes(7, 24)
        );
    }

    #[test]
    fn measured_profile_has_positive_times() {
        let cfg = ModelConfig::micro(3, 0, 16, 2);
        let model = pac_model::EncoderModel::new(&cfg, 2, &mut seeded(300));
        let mut rng = seeded(301);
        let batch: Vec<Vec<usize>> = (0..2)
            .map(|_| (0..4).map(|_| rng.gen_range(0..64)).collect())
            .collect();
        let p = Profile::measure_micro(&model, &batch, 2);
        assert_eq!(p.num_layers(), 3);
        for l in &p.layers {
            assert!(l.fwd_flops > 0.0, "forward time must be positive");
            assert!(l.bwd_flops > 0.0, "backward time must be positive");
            assert!(l.weight_bytes > 0);
            assert!(l.boundary_bytes > 0);
        }
    }
}
