//! Edge-device hardware models.

use crate::network::LinkSpec;

/// An edge device's compute and memory capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Device name, e.g. `"Jetson Nano"`.
    pub name: String,
    /// Peak f32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Fraction of peak sustained on transformer training kernels
    /// (memory-bandwidth-bound small GEMMs achieve well below peak on
    /// embedded GPUs).
    pub efficiency: f64,
    /// DRAM usable for training, in bytes (total minus OS/app reservation).
    pub usable_memory: usize,
}

impl DeviceSpec {
    /// NVIDIA Jetson Nano (the paper's testbed device): 0.47 TFLOPS peak.
    /// The 4 GB DRAM is shared between CPU and GPU; after the OS/desktop
    /// (~1.5 GB) and the CUDA context + framework runtime (~1 GB), roughly
    /// 1.5 GB remains for training tensors — which is what makes a full
    /// BART-Large replica (1.6 GB of f32 weights) OOM under pure data
    /// parallelism, as the paper's Figure 9 reports.
    pub fn jetson_nano() -> Self {
        DeviceSpec {
            name: "Jetson Nano".into(),
            peak_flops: 0.47e12,
            efficiency: 0.25,
            usable_memory: 1536 * 1024 * 1024,
        }
    }

    /// NVIDIA Jetson TX2: a stronger edge board for heterogeneity studies.
    pub fn jetson_tx2() -> Self {
        DeviceSpec {
            name: "Jetson TX2".into(),
            peak_flops: 1.33e12,
            efficiency: 0.25,
            usable_memory: 6 * 1024 * 1024 * 1024,
        }
    }

    /// Raspberry Pi 4 (CPU-only): a much weaker companion device.
    pub fn raspberry_pi4() -> Self {
        DeviceSpec {
            name: "Raspberry Pi 4".into(),
            peak_flops: 0.03e12,
            efficiency: 0.5,
            usable_memory: 3 * 1024 * 1024 * 1024,
        }
    }

    /// Sustained FLOP/s on training kernels.
    pub fn effective_flops(&self) -> f64 {
        self.peak_flops * self.efficiency
    }

    /// A slowed copy of this device (thermal throttling, background load):
    /// effective throughput divided by `factor`. Applying `slowed` again
    /// composes: the annotations multiply into a single `(×1/…)` suffix
    /// instead of nesting.
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite.
    pub fn slowed(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown must be positive"
        );
        // Fold an existing "(×1/X)" suffix into the new factor so repeated
        // slowdowns render as one combined annotation.
        let (base, total) = match self
            .name
            .rsplit_once(" (×1/")
            .and_then(|(base, rest)| Some((base, rest.strip_suffix(')')?.parse::<f64>().ok()?)))
        {
            Some((base, prev)) => (base, prev * factor),
            None => (self.name.as_str(), factor),
        };
        DeviceSpec {
            name: format!("{base} (×1/{total:.1})"),
            efficiency: self.efficiency / factor,
            ..self.clone()
        }
    }

    /// Seconds to execute `flops` floating-point operations.
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / self.effective_flops()
    }

    /// Whether a working set of `bytes` fits in usable memory.
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.usable_memory
    }
}

/// A pool of edge devices on a shared LAN.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Member devices.
    pub devices: Vec<DeviceSpec>,
    /// The (uniform) LAN link between any two devices.
    pub link: LinkSpec,
}

impl Cluster {
    /// The paper's testbed: `n` Jetson Nanos on a 128 Mbps LAN.
    pub fn nanos(n: usize) -> Self {
        Cluster {
            devices: vec![DeviceSpec::jetson_nano(); n],
            link: LinkSpec::lan_128mbps(),
        }
    }

    /// A heterogeneous smart-home pool for robustness experiments.
    pub fn smart_home() -> Self {
        Cluster {
            devices: vec![
                DeviceSpec::jetson_tx2(),
                DeviceSpec::jetson_nano(),
                DeviceSpec::jetson_nano(),
                DeviceSpec::raspberry_pi4(),
            ],
            link: LinkSpec::lan_128mbps(),
        }
    }

    /// The same pool on a different fabric — e.g. a
    /// [`LinkSpec::measured`](crate::LinkSpec::measured) calibration from
    /// the loopback micro-bench, consumed by the planner in place of the
    /// assumed LAN.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// True when every device has identical specs.
    pub fn is_homogeneous(&self) -> bool {
        self.devices.windows(2).all(|w| w[0] == w[1])
    }

    /// The slowest device's effective FLOP/s (pipeline throughput is gated
    /// by it).
    pub fn min_effective_flops(&self) -> f64 {
        self.devices
            .iter()
            .map(DeviceSpec::effective_flops)
            .fold(f64::INFINITY, f64::min)
    }

    /// Aggregate effective FLOP/s.
    pub fn total_effective_flops(&self) -> f64 {
        self.devices.iter().map(DeviceSpec::effective_flops).sum()
    }

    /// A copy of the cluster with device `idx` slowed by `factor`
    /// (straggler injection for robustness studies).
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn with_straggler(&self, idx: usize, factor: f64) -> Self {
        let mut c = self.clone();
        c.devices[idx] = c.devices[idx].slowed(factor);
        c
    }

    /// A copy of the cluster with the given devices removed (fail-stop
    /// injection). Indices refer to the current device list; duplicates
    /// are deduplicated (a device can only fail once).
    ///
    /// # Panics
    /// Panics if any index is out of range — a silent no-op would let a
    /// recovery path "survive" a failure it never actually removed.
    pub fn without_devices(&self, failed: &[usize]) -> Self {
        for &i in failed {
            assert!(
                i < self.devices.len(),
                "device index {i} out of range for cluster of {}",
                self.devices.len()
            );
        }
        Cluster {
            devices: self
                .devices
                .iter()
                .enumerate()
                .filter(|(i, _)| !failed.contains(i))
                .map(|(_, d)| d.clone())
                .collect(),
            link: self.link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nano_matches_paper_specs() {
        let n = DeviceSpec::jetson_nano();
        assert!((n.peak_flops - 0.47e12).abs() < 1e9);
        assert!(n.usable_memory <= 4 * 1024 * 1024 * 1024);
        assert!(n.effective_flops() < n.peak_flops);
    }

    #[test]
    fn compute_time_scales_linearly() {
        let n = DeviceSpec::jetson_nano();
        let t1 = n.compute_time(1e12);
        let t2 = n.compute_time(2e12);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(t1 > 0.0);
    }

    #[test]
    fn memory_fit() {
        let n = DeviceSpec::jetson_nano();
        assert!(n.fits(1024));
        assert!(!n.fits(8 * 1024 * 1024 * 1024));
    }

    #[test]
    fn cluster_construction() {
        let c = Cluster::nanos(8);
        assert_eq!(c.len(), 8);
        assert!(c.is_homogeneous());
        assert!(!c.is_empty());
        let h = Cluster::smart_home();
        assert!(!h.is_homogeneous());
        assert!(h.min_effective_flops() < h.total_effective_flops() / h.len() as f64);
    }

    #[test]
    fn straggler_injection() {
        let c = Cluster::nanos(4);
        let s = c.with_straggler(2, 4.0);
        assert!(!s.is_homogeneous());
        assert!(
            (s.devices[2].effective_flops() - c.devices[2].effective_flops() / 4.0).abs() < 1e-3
        );
        assert_eq!(s.min_effective_flops(), s.devices[2].effective_flops());
    }

    #[test]
    fn failure_injection_removes_devices() {
        let c = Cluster::nanos(5);
        let f = c.without_devices(&[1, 3]);
        assert_eq!(f.len(), 3);
        // Removing nothing is identity.
        assert_eq!(c.without_devices(&[]), c);
    }

    #[test]
    fn duplicate_failures_count_once() {
        let c = Cluster::nanos(3);
        assert_eq!(c.without_devices(&[1, 1, 1]).len(), 2);
        assert_eq!(c.without_devices(&[0, 2, 0]).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_failure_panics() {
        let _ = Cluster::nanos(3).without_devices(&[3]);
    }

    #[test]
    fn repeated_slowdowns_compose_into_one_annotation() {
        let d = DeviceSpec::jetson_nano().slowed(2.0).slowed(3.0);
        assert_eq!(d.name, "Jetson Nano (×1/6.0)");
        assert!(
            (d.effective_flops() - DeviceSpec::jetson_nano().effective_flops() / 6.0).abs() < 1e-3
        );
        // A parenthesized base name must not be mangled.
        let mut odd = DeviceSpec::jetson_nano();
        odd.name = "Nano (dev kit)".into();
        assert_eq!(odd.slowed(2.0).name, "Nano (dev kit) (×1/2.0)");
    }

    #[test]
    #[should_panic(expected = "slowdown must be positive")]
    fn invalid_slowdown_panics() {
        let _ = DeviceSpec::jetson_nano().slowed(0.0);
    }

    #[test]
    fn device_ordering_by_speed() {
        assert!(
            DeviceSpec::jetson_tx2().effective_flops()
                > DeviceSpec::jetson_nano().effective_flops()
        );
        assert!(
            DeviceSpec::jetson_nano().effective_flops()
                > DeviceSpec::raspberry_pi4().effective_flops()
        );
    }
}
