//! The machine's speed right now, as a slowdown factor against fixed
//! nominal times of three small kernels run on two threads at once.
//!
//! The sandbox this benchmark was built in changes speed by 20-40 % for
//! minutes at a time (its two virtual cores share a host with other
//! guests), far more than any bound could absorb. The kernels below track
//! those changes closely: over 22 minutes spanning several such phases,
//! dividing each repetition's wall time by the factor sampled next to it
//! cut the spread between 64-second windows from 0.20-0.22 to 0.01-0.03
//! on `pac_solo`, `dist_world` and `multi_world` and from 0.18-0.27 to
//! 0.02-0.09 on the serve workloads (README, "Steadiness"). Every time
//! metric is therefore reported in reference-machine time: measured time
//! divided by this factor. The kernels are the benchmark's own code and
//! call nothing in the product, so no change to the product can move them.

use std::hint::black_box;
use std::time::Instant;

/// Seconds each kernel takes on one of two busy threads of the sandbox in
/// its usual state; the factor is 1.0 there.
const NOMINAL_S: [f64; 3] = [0.000_890, 0.000_850, 0.000_590];

pub struct Reference {
    table: Vec<u32>,
    buffers: [Vec<f32>; 2],
}

/// Multiply-adds over cache-resident rows: bound by arithmetic throughput,
/// which a busy sibling hyper-thread halves.
#[inline(never)]
fn arithmetic() -> f64 {
    let a: Vec<f32> = (0..2048).map(|i| (i % 13) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..2048).map(|i| (i % 7) as f32 * 0.02).collect();
    let started = Instant::now();
    let mut acc = [0.0f32; 16];
    for _ in 0..6000 {
        for (ca, cb) in a.chunks_exact(16).zip(b.chunks_exact(16)) {
            for k in 0..16 {
                acc[k] += ca[k] * cb[k];
            }
        }
        black_box(&mut acc);
    }
    started.elapsed().as_secs_f64()
}

/// Dependent integer steps, a table lookup and an unpredictable branch:
/// bound by latency, like the bookkeeping between kernels.
#[inline(never)]
fn branching(table: &[u32]) -> f64 {
    let started = Instant::now();
    let (mut x, mut sum) = (12345u64, 0u64);
    for _ in 0..400_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let entry = table[(x >> 40) as usize % table.len()];
        if entry & 1 == 0 {
            sum = sum.wrapping_add(u64::from(entry));
        } else {
            sum ^= x;
        }
    }
    black_box(sum);
    started.elapsed().as_secs_f64()
}

/// Two passes over 2 MiB per thread, more than a core's private caches
/// hold: bound by the shared cache and memory. Kept small because the
/// buffers count towards the `peak_rss_mb` the benchmark reports.
#[inline(never)]
fn streaming(buffer: &mut [f32]) -> f64 {
    let started = Instant::now();
    for _ in 0..2 {
        for x in buffer.iter_mut() {
            *x = *x * 1.0001 + 0.5;
        }
        black_box(&mut *buffer);
    }
    started.elapsed().as_secs_f64()
}

fn kernels(table: &[u32], buffer: &mut [f32]) -> [f64; 3] {
    [arithmetic(), branching(table), streaming(buffer)]
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            table: (0..8192u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            buffers: [vec![1.0; 1 << 19], vec![1.0; 1 << 19]],
        }
    }

    /// Seconds per kernel, averaged over the two threads that ran them
    /// side by side.
    pub fn kernel_seconds(&mut self) -> [f64; 3] {
        let table = &self.table;
        let [mine, theirs] = &mut self.buffers;
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(|| kernels(table, theirs));
            let a = kernels(table, mine);
            (a, other.join().expect("reference kernels do not panic"))
        });
        [0, 1, 2].map(|k| (a[k] + b[k]) / 2.0)
    }

    /// Runs `f` and returns its output, the seconds it took and the mean of
    /// the slowdown factors sampled just before and just after it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.sample();
        let started = Instant::now();
        let out = f();
        let seconds = started.elapsed().as_secs_f64();
        (out, seconds, (before + self.sample()) / 2.0)
    }

    /// Slowdown factor: geometric mean of measured over nominal time.
    pub fn sample(&mut self) -> f64 {
        let seconds = self.kernel_seconds();
        let log_sum: f64 = seconds
            .iter()
            .zip(NOMINAL_S)
            .map(|(s, n)| (s / n).ln())
            .sum();
        (log_sum / 3.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_positive_and_of_order_one() {
        let mut reference = Reference::new();
        reference.sample(); // warm-up
        let factor = reference.sample();
        // A machine 20x faster or slower than the sandbox still passes; a
        // kernel the compiler deleted (zero time) does not.
        assert!(factor > 0.05 && factor < 20.0, "slowdown factor {factor}");
        assert!(reference.kernel_seconds().iter().all(|&s| s > 1e-5));
    }
}
