//! The PAC activation cache (paper §4.2).
//!
//! With a frozen backbone, the per-layer activations `b_i` produced for a
//! given input sequence never change. The cache stores them per sample
//! during the first epoch; later epochs fetch them and skip the backbone
//! forward pass entirely.
//!
//! The store is keyed by a caller-supplied sample id and holds one tensor
//! per backbone layer. [`CacheStats`] mirrors the paper's storage-cost
//! analysis (`s × h × l` floats per sample).
//!
//! Entries are raw f32: a hit returns the tensors the fill stored, so the
//! cache is a *pure* optimization and cached epochs reproduce uncached
//! training bit for bit.

use pac_tensor::Tensor;
use std::collections::HashMap;

/// Statistics about cache contents and effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of cached samples.
    pub entries: usize,
    /// Resident bytes of cached activations (f32).
    pub bytes: usize,
    /// Lookup hits since creation.
    pub hits: usize,
    /// Lookup misses since creation.
    pub misses: usize,
}

/// Per-sample activation cache for Parallel-Adapters fine-tuning.
///
/// ```
/// use pac_peft::ActivationCache;
/// use pac_tensor::Tensor;
///
/// let mut cache = ActivationCache::new();
/// cache.insert(7, vec![Tensor::zeros([1, 4, 8])]);
/// assert!(cache.contains(7));
/// assert_eq!(cache.stats().bytes, 4 * 8 * 4);
/// assert!(cache.get(7).is_some());
/// assert!(cache.get(8).is_none()); // counted as a miss
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActivationCache {
    entries: HashMap<u64, Vec<Tensor>>,
    bytes: usize,
    hits: usize,
    misses: usize,
}

impl ActivationCache {
    /// Creates an empty f32 cache (hits bitwise-identical to fills).
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the per-layer activations of `sample_id`.
    ///
    /// `acts[i]` is the backbone layer-`i` output for this sample, shaped
    /// `[1, s, d]` (encoder layers) or `[1, 1, d]` (decoder layers).
    pub fn insert(&mut self, sample_id: u64, acts: Vec<Tensor>) {
        let new_bytes = resident_bytes(&acts);
        if let Some(old) = self.entries.insert(sample_id, acts) {
            self.bytes -= resident_bytes(&old);
        }
        self.bytes += new_bytes;
        if pac_telemetry::enabled() {
            pac_telemetry::counter_inc("cache.fills");
            pac_telemetry::gauge_set("cache.bytes", self.bytes as u64);
            pac_telemetry::gauge_set("cache.entries", self.entries.len() as u64);
        }
    }

    /// Fetches the cached activations of `sample_id`, updating hit/miss
    /// statistics. Returns cheap copy-on-write clones.
    pub fn get(&mut self, sample_id: u64) -> Option<Vec<Tensor>> {
        if let Some(entry) = self.entries.get(&sample_id) {
            self.hits += 1;
            pac_telemetry::counter_inc("cache.hits");
            Some(entry.clone())
        } else {
            self.misses += 1;
            pac_telemetry::counter_inc("cache.misses");
            None
        }
    }

    /// True when `sample_id` is cached (does not update statistics).
    pub fn contains(&self, sample_id: u64) -> bool {
        self.entries.contains_key(&sample_id)
    }

    /// Assembles a batched activation list for `sample_ids`: for each layer,
    /// stacks the per-sample tensors along the batch dimension.
    ///
    /// Counts one hit or miss *per sample* (a batch of 8 with 3 absent
    /// samples records 5 hits and 3 misses), so the hit rate reflects how
    /// much backbone compute the cache actually saved. Returns `None` if
    /// any sample is absent.
    pub fn get_batch(&mut self, sample_ids: &[u64]) -> Option<Vec<Tensor>> {
        if sample_ids.is_empty() {
            return None;
        }
        let present = sample_ids
            .iter()
            .filter(|id| self.entries.contains_key(id))
            .count();
        let absent = sample_ids.len() - present;
        self.hits += present;
        self.misses += absent;
        if pac_telemetry::enabled() {
            pac_telemetry::counter_add("cache.hits", present as u64);
            pac_telemetry::counter_add("cache.misses", absent as u64);
        }
        if absent > 0 {
            return None;
        }
        let layers = self.entries[&sample_ids[0]].len();
        let mut out = Vec::with_capacity(layers);
        for l in 0..layers {
            let per_sample: Vec<Tensor> = sample_ids
                .iter()
                .map(|id| {
                    let t = self.entries[id][l].clone();
                    // [1, s, d] → [s, d] rows for stacking.
                    let (s, d) = match t.dims() {
                        &[1, s, d] => (s, d),
                        &[s, d] => (s, d),
                        other => {
                            let n = t.numel();
                            let d = *other.last().unwrap_or(&n);
                            (n / d.max(1), d)
                        }
                    };
                    t.reshape([s, d]).expect("cached tensor reshapes to [s, d]")
                })
                .collect();
            let refs: Vec<&Tensor> = per_sample.iter().collect();
            let stacked = Tensor::stack_rows(&refs).expect("cached shapes are uniform per layer");
            let (rows, d) = stacked.as_2d();
            let s = rows / sample_ids.len();
            out.push(
                stacked
                    .reshape([sample_ids.len(), s, d])
                    .expect("stacked rows divide evenly into the batch"),
            );
        }
        Some(out)
    }

    /// Splits a batched forward's layer outputs into per-sample entries and
    /// caches them (the epoch-1 fill path).
    pub fn insert_batch(&mut self, sample_ids: &[u64], layer_outputs: &[Tensor]) {
        for (bi, &id) in sample_ids.iter().enumerate() {
            let acts: Vec<Tensor> = layer_outputs
                .iter()
                .map(|t| {
                    let (b, s, d) = match t.dims() {
                        &[b, s, d] => (b, s, d),
                        _ => panic!("layer outputs must be [b, s, d]"),
                    };
                    debug_assert_eq!(b, sample_ids.len());
                    let _ = b;
                    t.clone()
                        .reshape([sample_ids.len() * s, d])
                        .and_then(|t2| t2.slice_rows(bi * s..(bi + 1) * s))
                        .and_then(|t2| t2.reshape([1, s, d]))
                        .expect("slicing a batched layer output cannot fail")
                })
                .collect();
            self.insert(id, acts);
        }
    }

    /// Removes every entry (the paper clears the cache when fine-tuning
    /// finishes).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
        if pac_telemetry::enabled() {
            pac_telemetry::gauge_set("cache.bytes", 0);
            pac_telemetry::gauge_set("cache.entries", 0);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            bytes: self.bytes,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Predicted storage for caching `n_samples` sequences of length `seq`
    /// on a model with `layers` layers and hidden size `h` — the paper's
    /// `s × h × l` analysis (bytes, f32).
    pub fn predicted_bytes(n_samples: usize, seq: usize, h: usize, layers: usize) -> usize {
        n_samples * seq * h * layers * 4
    }
}

fn resident_bytes(acts: &[Tensor]) -> usize {
    acts.iter().map(Tensor::size_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pac_tensor::{init, rng::seeded};

    fn acts(seed: u64, layers: usize, s: usize, d: usize) -> Vec<Tensor> {
        let mut rng = seeded(seed);
        (0..layers)
            .map(|_| init::randn(&mut rng, [1, s, d], 1.0))
            .collect()
    }

    #[test]
    fn insert_get_round_trip() {
        let mut c = ActivationCache::new();
        let a = acts(1, 3, 4, 8);
        c.insert(42, a.clone());
        assert!(c.contains(42));
        let got = c.get(42).unwrap();
        assert_eq!(got.len(), 3);
        assert!(got[0].approx_eq(&a[0], 0.0));
        assert_eq!(c.stats().hits, 1);
        assert!(c.get(7).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn byte_accounting_handles_replacement() {
        let mut c = ActivationCache::new();
        c.insert(1, acts(2, 2, 4, 8));
        let b1 = c.stats().bytes;
        assert_eq!(b1, 2 * 4 * 8 * 4);
        // Replacing the same id must not double-count.
        c.insert(1, acts(3, 2, 4, 8));
        assert_eq!(c.stats().bytes, b1);
        c.clear();
        assert_eq!(c.stats().bytes, 0);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn batch_round_trip_preserves_values() {
        let mut c = ActivationCache::new();
        // Build a fake batched forward: 2 layers, batch 3, seq 2, d 4.
        let mut rng = seeded(5);
        let layer_outputs: Vec<Tensor> = (0..2)
            .map(|_| init::randn(&mut rng, [3, 2, 4], 1.0))
            .collect();
        let ids = [10u64, 11, 12];
        c.insert_batch(&ids, &layer_outputs);
        assert_eq!(c.stats().entries, 3);

        let rebuilt = c.get_batch(&ids).unwrap();
        assert_eq!(rebuilt.len(), 2);
        for (orig, got) in layer_outputs.iter().zip(rebuilt.iter()) {
            assert!(orig.approx_eq(got, 0.0), "batch round trip corrupted data");
        }
    }

    #[test]
    fn get_batch_fails_on_missing_sample() {
        let mut c = ActivationCache::new();
        c.insert(1, acts(6, 2, 4, 8));
        assert!(c.get_batch(&[1, 2]).is_none());
        assert!(c.get_batch(&[]).is_none());
    }

    #[test]
    fn get_batch_counts_per_sample_hits_and_misses() {
        let mut c = ActivationCache::new();
        c.insert(1, acts(7, 2, 4, 8));
        c.insert(2, acts(8, 2, 4, 8));

        // 2 of 4 present: the partial batch is a miss overall, but the
        // stats must record exactly which samples the cache could serve.
        assert!(c.get_batch(&[1, 2, 3, 4]).is_none());
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);

        // Fully present batch: one hit per sample, no misses.
        assert!(c.get_batch(&[1, 2]).is_some());
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().misses, 2);

        // Empty batch touches no counters.
        assert!(c.get_batch(&[]).is_none());
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn predicted_bytes_matches_paper_formula() {
        // T5-Base (h=768, 24 layers), seq 128: per-sample cost
        // 128 × 768 × 24 × 4 B ≈ 9.4 MB; thousands of samples fit in the
        // "hundreds of GB" flash of a mobile device (paper §5.2).
        let per_sample = ActivationCache::predicted_bytes(1, 128, 768, 24);
        assert_eq!(per_sample, 128 * 768 * 24 * 4);
        let mrpc = ActivationCache::predicted_bytes(3700, 128, 768, 24);
        assert!((mrpc as f64) < 50e9, "MRPC cache {} GB", mrpc as f64 / 1e9);
        // The closed form agrees with the realized layout.
        let mut c = ActivationCache::new();
        for id in 0..4u64 {
            c.insert(id, acts(20 + id, 3, 8, 64));
        }
        assert_eq!(
            c.stats().bytes,
            ActivationCache::predicted_bytes(4, 8, 64, 3)
        );
    }
}
