//! Network link models.

/// A point-to-point link's bandwidth and latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// The paper's testbed LAN: 128 Mbps with ~1 ms latency.
    pub fn lan_128mbps() -> Self {
        LinkSpec {
            bandwidth_bps: 128e6,
            latency_s: 1e-3,
        }
    }

    /// Gigabit Ethernet (for sensitivity studies).
    pub fn gigabit() -> Self {
        LinkSpec {
            bandwidth_bps: 1e9,
            latency_s: 0.3e-3,
        }
    }

    /// Congested Wi-Fi (for sensitivity studies).
    pub fn wifi_slow() -> Self {
        LinkSpec {
            bandwidth_bps: 30e6,
            latency_s: 5e-3,
        }
    }

    /// A link calibrated from live measurements (e.g. the loopback
    /// micro-bench in `pac-bench`), so the planner can cost communication
    /// with the fabric the job will actually run on instead of the paper's
    /// assumed 128 Mbps LAN. Values are clamped to a sane floor: a
    /// measurement glitch must not produce a zero-bandwidth link that makes
    /// every plan look infinitely slow.
    pub fn measured(bandwidth_bps: f64, latency_s: f64) -> Self {
        LinkSpec {
            bandwidth_bps: bandwidth_bps.max(1e3),
            latency_s: latency_s.max(0.0),
        }
    }

    /// Seconds to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + (bytes as f64 * 8.0) / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lan_spec() {
        let l = LinkSpec::lan_128mbps();
        assert_eq!(l.bandwidth_bps, 128e6);
        // 16 MB at 128 Mbps = 1 s (plus latency).
        let t = l.transfer_time(16 * 1000 * 1000);
        assert!((t - 1.001).abs() < 1e-3, "{t}");
    }

    #[test]
    fn latency_dominates_small_transfers() {
        let l = LinkSpec::lan_128mbps();
        let t = l.transfer_time(16);
        assert!(t < 2e-3);
        assert!(t >= l.latency_s);
    }

    #[test]
    fn measured_links_clamp_degenerate_calibrations() {
        let l = LinkSpec::measured(2.5e9, 40e-6);
        assert_eq!(l.bandwidth_bps, 2.5e9);
        assert_eq!(l.latency_s, 40e-6);
        let bad = LinkSpec::measured(0.0, -1.0);
        assert!(bad.bandwidth_bps > 0.0);
        assert!(bad.latency_s >= 0.0);
        assert!(bad.transfer_time(1000).is_finite());
    }

    #[test]
    fn faster_links_are_faster() {
        let bytes = 1_000_000;
        assert!(
            LinkSpec::gigabit().transfer_time(bytes) < LinkSpec::lan_128mbps().transfer_time(bytes)
        );
        assert!(
            LinkSpec::lan_128mbps().transfer_time(bytes)
                < LinkSpec::wifi_slow().transfer_time(bytes)
        );
    }
}
