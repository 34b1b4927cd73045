//! Property-based tests for the cost and collective models: the analytic
//! formulas must satisfy the scaling laws the simulations rely on.

use pac_cluster::{CollectiveModel, CostModel, DeviceSpec, LinkSpec};
use pac_model::ModelConfig;
use pac_peft::Technique;
use proptest::prelude::*;

fn arb_model() -> impl Strategy<Value = ModelConfig> {
    prop_oneof![
        Just(ModelConfig::t5_base()),
        Just(ModelConfig::bart_large()),
        Just(ModelConfig::t5_large()),
    ]
}

fn arb_technique() -> impl Strategy<Value = Technique> {
    prop_oneof![
        Just(Technique::Full),
        Just(Technique::adapters_default()),
        Just(Technique::lora_default()),
        Just(Technique::parallel_default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forward FLOPs are monotone in sequence length (attention is
    /// super-linear, everything else linear).
    #[test]
    fn flops_monotone_in_seq(model in arb_model(), t in arb_technique(), seq in 16usize..256) {
        let small = CostModel::new(model.clone(), t, seq).total_fwd_flops(1);
        let large = CostModel::new(model, t, seq + 16).total_fwd_flops(1);
        prop_assert!(large > small);
    }

    /// Layer costs are internally consistent: every layer has positive
    /// forward FLOPs, non-negative backward parts, and backward totals
    /// equal dx + dw.
    #[test]
    fn layer_costs_are_consistent(model in arb_model(), t in arb_technique(), seq in 16usize..256) {
        let cm = CostModel::new(model.clone(), t, seq);
        let layers = cm.layer_costs();
        prop_assert_eq!(layers.len(), model.total_layers());
        for l in &layers {
            prop_assert!(l.fwd_flops > 0.0);
            prop_assert!(l.dx_flops >= 0.0 && l.dw_flops >= 0.0);
            prop_assert!((l.bwd_flops() - (l.dx_flops + l.dw_flops)).abs() < 1e-9);
            prop_assert!(l.weight_bytes > 0);
            prop_assert!(l.boundary_bytes > 0);
        }
        // Totals equal per-layer sums.
        let sum_f: f64 = layers.iter().map(|l| l.fwd_flops).sum();
        prop_assert!((cm.total_fwd_flops(1) - sum_f).abs() < 1e-6 * sum_f.max(1.0));
    }

    /// The forward share of a step is bounded and ordered by technique:
    /// Full ≤ Adapters/LoRA ≤ Parallel Adapters.
    #[test]
    fn fwd_fraction_ordering(model in arb_model(), seq in 32usize..192) {
        let frac = |t: Technique| CostModel::new(model.clone(), t, seq).fwd_fraction();
        let full = frac(Technique::Full);
        let ad = frac(Technique::adapters_default());
        let pa = frac(Technique::parallel_default());
        prop_assert!((0.2..0.45).contains(&full), "full {full}");
        prop_assert!(ad > full);
        prop_assert!(pa > ad);
        prop_assert!(pa <= 1.0);
    }

    /// Ring AllReduce: time is monotone in payload and superior to naive
    /// gather-broadcast for large payloads on many devices.
    #[test]
    fn allreduce_scaling(n in 2usize..16, mb in 1usize..64) {
        let coll = CollectiveModel::new(LinkSpec::lan_128mbps());
        let bytes = mb * 1_000_000;
        let t = coll.allreduce_time(n, bytes);
        let t_more = coll.allreduce_time(n, bytes * 2);
        prop_assert!(t_more > t);
        // Naive: everyone sends everything to one device and back.
        let naive = 2.0 * (n - 1) as f64 * LinkSpec::lan_128mbps().transfer_time(bytes);
        prop_assert!(t <= naive + 1e-9, "ring {t} worse than naive {naive}");
    }

    /// Device scaling helpers: slowing a device never increases its
    /// throughput; removing devices never increases aggregate capacity.
    #[test]
    fn device_transformations_are_contractive(factor in 1.0f64..16.0, n in 2usize..8) {
        let d = DeviceSpec::jetson_nano();
        prop_assert!(d.slowed(factor).effective_flops() <= d.effective_flops());
        let c = pac_cluster::Cluster::nanos(n);
        let f = c.without_devices(&[0]);
        prop_assert!(f.total_effective_flops() < c.total_effective_flops());
        prop_assert_eq!(f.len(), n - 1);
    }

    /// Cached-step FLOPs are always a small fraction of the full step for
    /// Parallel Adapters at paper scale.
    #[test]
    fn cached_step_is_cheap(model in arb_model(), seq in 32usize..192) {
        let cm = CostModel::new(model, Technique::parallel_default(), seq);
        let full = cm.total_fwd_flops(16) + cm.total_bwd_flops(16);
        let cached = cm.cached_step_flops(16);
        prop_assert!(cached < full * 0.2, "cached {cached} vs full {full}");
    }
}
