//! Workload input generators. Every function here is a pure function of
//! its arguments: the same `--seed` gives byte-identical inputs, and the
//! program under test receives only the generated inputs, never the seed.
//!
//! The generator owns its random stream (SplitMix64) instead of borrowing
//! the repository's vendored `rand`, so a later change to that crate
//! cannot silently change what the benchmark feeds the program.

use pac_parallel::engine::MicroBatch;
use pac_serve::JobSpec;

/// Token ids the micro models accept (`ModelConfig::micro` has vocab 64).
const VOCAB: u64 = 64;

/// SplitMix64 (Steele, Lea & Flood 2014): 64 bits of state, full period.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`. The modulo bias is below 2^-50 for every `n`
    /// used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard-normal-ish f32 (sum of four uniforms, variance-corrected):
    /// probe inputs only need realistic magnitudes, not exact tails.
    pub fn gauss(&mut self) -> f32 {
        let s: f64 = (0..4).map(|_| self.unit()).sum();
        ((s - 2.0) * 3.0f64.sqrt()) as f32
    }
}

/// `steps` mini-batches of `micros` micro-batches of `rows` token rows of
/// `seq` tokens, with binary labels: the input of a distributed world.
pub fn micro_batches(
    seed: u64,
    steps: usize,
    micros: usize,
    rows: usize,
    seq: usize,
) -> Vec<Vec<MicroBatch>> {
    let mut rng = SplitMix64::new(seed);
    (0..steps)
        .map(|_| {
            (0..micros)
                .map(|_| {
                    let tokens = (0..rows)
                        .map(|_| (0..seq).map(|_| rng.below(VOCAB) as usize).collect())
                        .collect();
                    let labels = (0..rows).map(|_| rng.below(2) as usize).collect();
                    (tokens, labels)
                })
                .collect()
        })
        .collect()
}

/// Shape of the churn trace: Zipf(1.0) popularity over `tenants`, with a
/// sequential scan over `scan_len` consecutive tenants spliced in after
/// every `scan_every` Zipf draws, until `jobs` jobs exist.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    pub jobs: usize,
    pub tenants: u64,
    pub scan_every: usize,
    pub scan_len: u64,
    pub steps: usize,
}

/// The `serve_churn` trace: a working set far above the adapter cache, so
/// cold loads and evictions dominate. Every job parks its tenant.
pub fn churn_jobs(seed: u64, shape: ChurnShape) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    // Cumulative Zipf(1.0) weights; a draw is a binary search over them.
    let mut cumulative = Vec::with_capacity(shape.tenants as usize);
    let mut total = 0.0f64;
    for rank in 1..=shape.tenants {
        total += 1.0 / rank as f64;
        cumulative.push(total);
    }
    // Popularity rank -> tenant id, so popular tenants are not simply the
    // low ids the scans walk over.
    let mut ids: Vec<u64> = (0..shape.tenants).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }

    let mut jobs = Vec::with_capacity(shape.jobs);
    let mut scan_start = 0u64;
    while jobs.len() < shape.jobs {
        for _ in 0..shape.scan_every {
            let u = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c <= u);
            jobs.push(ids[rank.min(ids.len() - 1)]);
        }
        for k in 0..shape.scan_len {
            jobs.push((scan_start + k) % shape.tenants);
        }
        scan_start = (scan_start + shape.scan_len) % shape.tenants;
    }
    jobs.truncate(shape.jobs);
    jobs.into_iter()
        .map(|tenant| JobSpec {
            tenant,
            steps: shape.steps,
            seed: rng.next_u64(),
            fault_at: None,
            park: true,
        })
        .collect()
}

/// The `serve_warm` trace: `tenants` tenants with `per_tenant` jobs each in
/// a seeded arrival order, none of them parking, so every adapter stays
/// resident and nothing is ever fetched.
pub fn warm_jobs(seed: u64, tenants: u64, per_tenant: usize, steps: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<u64> = (0..tenants)
        .flat_map(|t| std::iter::repeat_n(t, per_tenant))
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
        .into_iter()
        .map(|tenant| JobSpec {
            tenant,
            steps,
            seed: rng.next_u64(),
            fault_at: None,
            park: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_key(jobs: &[JobSpec]) -> Vec<(u64, usize, u64, bool)> {
        jobs.iter()
            .map(|j| (j.tenant, j.steps, j.seed, j.park))
            .collect()
    }

    const SHAPE: ChurnShape = ChurnShape {
        jobs: 500,
        tenants: 120,
        scan_every: 100,
        scan_len: 30,
        steps: 2,
    };

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(micro_batches(1, 5, 2, 8, 16), micro_batches(1, 5, 2, 8, 16));
        assert_ne!(micro_batches(1, 5, 2, 8, 16), micro_batches(2, 5, 2, 8, 16));
        assert_eq!(
            job_key(&churn_jobs(1, SHAPE)),
            job_key(&churn_jobs(1, SHAPE))
        );
        assert_ne!(
            job_key(&churn_jobs(1, SHAPE)),
            job_key(&churn_jobs(2, SHAPE))
        );
        assert_eq!(
            job_key(&warm_jobs(1, 8, 20, 2)),
            job_key(&warm_jobs(1, 8, 20, 2))
        );
        assert_ne!(
            job_key(&warm_jobs(1, 8, 20, 2)),
            job_key(&warm_jobs(2, 8, 20, 2))
        );
    }

    #[test]
    fn generated_inputs_have_the_promised_shape() {
        let batches = micro_batches(3, 4, 2, 8, 16);
        assert_eq!(batches.len(), 4);
        for (tokens, labels) in batches.iter().flatten() {
            assert_eq!((tokens.len(), labels.len()), (8, 8));
            assert!(tokens
                .iter()
                .all(|row| row.len() == 16 && row.iter().all(|&t| t < 64)));
            assert!(labels.iter().all(|&l| l < 2));
        }
        let churn = churn_jobs(3, SHAPE);
        assert_eq!(churn.len(), SHAPE.jobs);
        assert!(churn
            .iter()
            .all(|j| j.tenant < SHAPE.tenants && j.park && j.fault_at.is_none()));
        // Zipf: the most popular tenant gets far more than a uniform share.
        let mut counts = vec![0usize; SHAPE.tenants as usize];
        for j in &churn {
            counts[j.tenant as usize] += 1;
        }
        assert!(*counts.iter().max().unwrap() > 10 * SHAPE.jobs / SHAPE.tenants as usize);
        let warm = warm_jobs(3, 8, 20, 2);
        assert_eq!(warm.len(), 160);
        for t in 0..8 {
            assert_eq!(warm.iter().filter(|j| j.tenant == t && !j.park).count(), 20);
        }
    }

    #[test]
    fn unit_and_gauss_stay_in_range() {
        let mut rng = SplitMix64::new(9);
        let units: Vec<f64> = (0..10_000).map(|_| rng.unit()).collect();
        assert!(units.iter().all(|u| (0.0..1.0).contains(u)));
        let mean = (0..10_000).map(|_| f64::from(rng.gauss())).sum::<f64>() / 1e4;
        assert!(mean.abs() < 0.05, "gauss mean {mean}");
    }
}
