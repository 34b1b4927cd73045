//! Thread-count invariance of the parallel kernels.
//!
//! The worker pool's contract: parallelism only partitions *which* output
//! rows a thread computes, never the per-row accumulation order, so every
//! kernel result is bitwise identical whatever the effective width — even
//! when many caller threads with different width caps hammer the shared
//! pool at once. Every bitwise recovery check (a replay from a snapshot,
//! a cold restart, a respawned world matching an uninterrupted run)
//! depends on this.

use pac_tensor::{init, ops, rng::seeded, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// All four kernels at `[104,256]×[256,80]` (4.26 MFLOP, past the 2^22
/// pooled-dispatch line of `pac_tensor::ops`: chunks of 48, 48 and 8 rows
/// on the pool), plus one small (inline) shape.
fn kernel_suite(seed: u64) -> Vec<Tensor> {
    let mut rng = seeded(seed);
    let a = init::randn(&mut rng, [104, 256], 1.0);
    let b = init::randn(&mut rng, [256, 80], 1.0);
    let bias = init::randn(&mut rng, [80], 1.0);
    let bt = init::randn(&mut rng, [80, 256], 1.0);
    let at = init::randn(&mut rng, [256, 104], 1.0);
    let sa = init::randn(&mut rng, [4, 6], 1.0);
    let sb = init::randn(&mut rng, [6, 3], 1.0);
    vec![
        ops::matmul(&a, &b).unwrap(),
        ops::addmm(&a, &b, &bias).unwrap(),
        ops::matmul_nt(&a, &bt).unwrap(),
        ops::matmul_tn(&at, &b).unwrap(),
        ops::matmul(&sa, &sb).unwrap(),
    ]
}

#[test]
fn kernels_are_bitwise_identical_across_widths_and_concurrent_callers() {
    // Reference computed with an effective width of 1 (pure sequential).
    rayon::pool::set_max_concurrency(1);
    let reference: Vec<Vec<u32>> = kernel_suite(4242).iter().map(bits).collect();
    rayon::pool::set_max_concurrency(usize::MAX);

    // Two caller threads per width, all banging on the shared pool
    // simultaneously, each repeating the suite to raise interleaving odds.
    let widths = [1usize, 2, 8, 1, 2, 8];
    std::thread::scope(|scope| {
        for (i, &w) in widths.iter().enumerate() {
            let reference = &reference;
            scope.spawn(move || {
                rayon::pool::set_max_concurrency(w);
                for round in 0..10 {
                    let got: Vec<Vec<u32>> = kernel_suite(4242).iter().map(bits).collect();
                    assert_eq!(
                        &got, reference,
                        "caller {i} (width {w}) diverged on round {round}"
                    );
                }
            });
        }
    });
}

#[test]
fn into_kernels_match_allocating_kernels_bitwise_under_width_stress() {
    let mut rng = seeded(777);
    // 4.7 MFLOP: pooled, two whole 48-row chunks.
    let a = init::randn(&mut rng, [96, 256], 1.0);
    let b = init::randn(&mut rng, [256, 96], 1.0);
    let bias = init::randn(&mut rng, [96], 1.0);
    for w in [1usize, 3, 8] {
        rayon::pool::set_max_concurrency(w);
        let alloc = ops::addmm(&a, &b, &bias).unwrap();
        let mut out = init::randn(&mut rng, [2, 2], 5.0); // dirty out
        ops::addmm_into(&a, &b, &bias, &mut out).unwrap();
        assert_eq!(bits(&alloc), bits(&out), "width {w}");
    }
    rayon::pool::set_max_concurrency(usize::MAX);
}

#[test]
fn strided_products_above_the_dispatch_line_are_bitwise_identical_across_widths() {
    // `[104,256]·[256,96]` (5.1 MFLOP, pooled: chunks of 48, 48 and 8 rows)
    // with A, B and C each a column block of a wider buffer, the way an
    // attention head reads and writes its projections, in all three forms.
    use ops::{Bias, Block, Form, View};
    let (m, k, n) = (104, 256, 96);
    let mut rng = seeded(26);
    let wide = |rng: &mut _, rows: usize, cols: usize| init::randn(rng, [rows, cols + 40], 1.0);
    let a = wide(&mut rng, m, k);
    let at = wide(&mut rng, k, m);
    let b = wide(&mut rng, k, n);
    let bt = wide(&mut rng, n, k);
    fn block(t: &Tensor, rows: usize, cols: usize) -> View<'_> {
        View::new(t.data(), Block::of(cols + 40, 0, rows, 24, cols))
    }
    let suite = || {
        [
            (Form::Nn, block(&a, m, k), block(&b, k, n)),
            (Form::Nt, block(&a, m, k), block(&bt, n, k)),
            (Form::Tn, block(&at, k, m), block(&b, k, n)),
        ]
        .map(|(form, av, bv)| {
            let mut c = vec![7.0f32; m * (n + 40)];
            let out = Block::of(n + 40, 0, m, 16, n);
            ops::matmul_strided(form, av, bv, Bias::Zero, &mut c, out).unwrap();
            c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        })
    };
    rayon::pool::set_max_concurrency(1);
    let reference = suite();
    for w in [2usize, 8] {
        rayon::pool::set_max_concurrency(w);
        let calls = rayon::pool::stats().parallel_calls;
        assert_eq!(suite(), reference, "width {w}");
        assert!(
            rayon::pool::stats().parallel_calls - calls >= 3,
            "the strided products ran inline: pick a shape above the dispatch line"
        );
    }
    rayon::pool::set_max_concurrency(usize::MAX);
}
