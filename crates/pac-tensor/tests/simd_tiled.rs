//! Accuracy and determinism tests for the register-tiled kernels — the one
//! matmul implementation behind `ops::matmul{,_nt,_tn}` and `ops::addmm`.
//!
//! Tolerance contract: the kernels accumulate k in vector lanes, so each
//! output element may drift from the f64-accumulated reference by at most
//! **2 ULP per accumulation step** — `2 · k · ε · Σ_k |a·b|` (the
//! absolute-value sum bounds every partial sum's magnitude). Shapes
//! deliberately include k not divisible by the lane width (8) and n not
//! divisible by the column tile (16) to exercise every edge path.
//!
//! Determinism contract: an output element is a pure function of its A row,
//! its B column and `(k, n)`, so results are bitwise identical at every pool
//! width and under every row partition of A. Distributed ≡ in-process and
//! tenant ≡ solo stand on exactly that property.

use pac_tensor::{init, ops, rng, Tensor};
use proptest::prelude::*;

fn tensor_of(seed: u64, rows: usize, cols: usize) -> Tensor {
    let mut r = rng::seeded(seed);
    init::randn(&mut r, [rows, cols], 1.0)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// |got - ref| per element must stay within 2 ULP per accumulation step:
/// `2 · k · ε · Σ|a_ik · b_kj|`, the abs-sum computed in f64.
fn assert_within_2ulp_per_step(
    got: &Tensor,
    a: &Tensor,
    b_colmajor_view: impl Fn(usize, usize) -> f32,
    m: usize,
    k: usize,
    n: usize,
) {
    for r in 0..m {
        for c in 0..n {
            let mut exact = 0.0f64;
            let mut abs_sum = 0.0f64;
            for kk in 0..k {
                let term = a.data()[r * k + kk] as f64 * b_colmajor_view(kk, c) as f64;
                exact += term;
                abs_sum += term.abs();
            }
            let bound = 2.0 * k as f64 * f32::EPSILON as f64 * abs_sum + f32::MIN_POSITIVE as f64;
            let err = (got.data()[r * n + c] as f64 - exact).abs();
            assert!(
                err <= bound,
                "[{r},{c}] of {m}x{k}x{n}: err {err:e} > bound {bound:e}"
            );
        }
    }
}

/// k % 8 ∈ {0, odd}, n % 16 ∈ {0, <16 tails}, n % 32 on both sides of 16,
/// m at several remainders of the tile heights (2, 6, 8), and one product
/// past the pooled-dispatch line (the last; the eighth was one under the
/// 2^18 line).
const EDGE_SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (4, 8, 16),
    (5, 9, 17),
    (3, 7, 15),
    (6, 64, 48),
    (33, 65, 31),
    (64, 64, 64),
    (128, 96, 130),
    (13, 64, 13),
    (104, 256, 80),
];

#[test]
fn matmul_handles_all_edge_shapes() {
    for &(m, k, n) in &EDGE_SHAPES {
        let a = tensor_of(1000 + m as u64, m, k);
        let b = tensor_of(2000 + n as u64, k, n);
        let got = ops::matmul(&a, &b).unwrap();
        assert_eq!(got.dims(), &[m, n]);
        let bd = b.data().to_vec();
        assert_within_2ulp_per_step(&got, &a, |kk, c| bd[kk * n + c], m, k, n);
    }
}

#[test]
fn nn_tn_and_addmm_bits_are_pinned_on_fma_cpus() {
    // Tiles partition rows and columns only, so re-tiling must not move a
    // bit: the literal is the FNV-1a of these outputs at PR 17, before the
    // 6×16 / 8×32 tiles (4×16 tiles, scalar column edge, bias in a second
    // pass), on an AVX2+FMA CPU. The portable class rounds differently.
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &(m, k, n) in &EDGE_SHAPES {
            let a = tensor_of(1000 + m as u64, m, k);
            let b = tensor_of(2000 + n as u64, k, n);
            let bias = tensor_of(3000 + n as u64, 1, n);
            for out in [
                ops::matmul(&a, &b).unwrap(),
                ops::addmm(&a, &b, &bias).unwrap(),
                ops::matmul_tn(&a.transpose_2d(), &b).unwrap(),
            ] {
                for word in bits(&out) {
                    hash = (hash ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0xfa0f_ee9c_f2a1_4cda, "{hash:#018x}");
        return;
    }
    println!("skipped: the pinned bits are those of the AVX2+FMA class");
}

#[test]
fn nt_and_tn_handle_edge_shapes() {
    for &(m, k, n) in &[
        (1, 1, 1),
        (5, 9, 17),
        (4, 16, 4),
        (33, 65, 31),
        (64, 64, 64),
    ] {
        let a = tensor_of(3000 + k as u64, m, k);
        let bt = tensor_of(4000 + k as u64, n, k); // B already transposed
        let nt = ops::matmul_nt(&a, &bt).unwrap();
        let btd = bt.data().to_vec();
        assert_within_2ulp_per_step(&nt, &a, |kk, c| btd[c * k + kk], m, k, n);

        let at = a.transpose_2d(); // [k, m]
        let b = tensor_of(5000 + k as u64, k, n);
        let tn = ops::matmul_tn(&at, &b).unwrap();
        let bd = b.data().to_vec();
        assert_within_2ulp_per_step(&tn, &a, |kk, c| bd[kk * n + c], m, k, n);
    }
}

#[test]
fn nt_equals_nn_of_the_explicit_transpose_bitwise() {
    // A transposed strip is packed in 16- and 8-row register blocks, with
    // the k-rows and columns past the last block packed one float at a
    // time: every k around the blocks times every width around them and
    // around the 16- and 32-column strips, at tile-height remainders of m
    // (the m = 64 products past 2^18 FLOPs run the 512-bit strips); then
    // the attention-score shape, a ragged strip after wide ones, and two
    // products past the pooled-dispatch line, the second at pool widths
    // 1 and 2.
    let check = |m: usize, k: usize, n: usize| {
        let a = tensor_of(600 + n as u64, m, k);
        let b = tensor_of(700 + k as u64, n, k);
        let nt = ops::matmul_nt(&a, &b).unwrap();
        let nn = ops::matmul(&a, &b.transpose_2d()).unwrap();
        assert_eq!(bits(&nt), bits(&nn), "{m}x{k}x{n}");
    };
    for m in [1, 6, 64] {
        for k in [1, 2, 7, 8, 9, 15, 16, 17, 128, 129] {
            for n in [8, 15, 16, 17, 24, 32, 33, 48, 64, 128] {
                check(m, k, n);
            }
        }
    }
    for (m, k, n) in [(13, 64, 13), (33, 65, 31), (20, 30, 77), (104, 256, 256)] {
        check(m, k, n);
    }
    for w in [1, 2] {
        rayon::pool::set_max_concurrency(w);
        check(104, 256, 1024);
    }
    rayon::pool::set_max_concurrency(usize::MAX);
}

#[test]
fn degenerate_shapes_yield_empty_or_zero_outputs() {
    // m = 0, n = 0 and k = 0, alone and combined. An empty output used to
    // divide by zero recovering the chunk's row count; k = 0 is an empty
    // sum, i.e. all zeros (plus the bias for addmm).
    for &(m, k, n) in &[(0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0), (0, 3, 0)] {
        let nn = ops::matmul(&Tensor::zeros([m, k]), &Tensor::zeros([k, n])).unwrap();
        let nt = ops::matmul_nt(&Tensor::zeros([m, k]), &Tensor::zeros([n, k])).unwrap();
        let tn = ops::matmul_tn(&Tensor::zeros([k, m]), &Tensor::zeros([k, n])).unwrap();
        for (name, got) in [("nn", &nn), ("nt", &nt), ("tn", &tn)] {
            assert_eq!(got.dims(), &[m, n], "{name} {m}x{k}x{n}");
            assert!(got.data().iter().all(|&v| v == 0.0), "{name} {m}x{k}x{n}");
        }
        let bias = tensor_of(7, 1, n);
        let fused = ops::addmm(&Tensor::zeros([m, k]), &Tensor::zeros([k, n]), &bias).unwrap();
        assert_eq!(fused.dims(), &[m, n]);
        for row in fused.data().chunks(n.max(1)) {
            assert_eq!(row, bias.data(), "addmm {m}x{k}x{n}");
        }
    }
    // The shape from the bug report.
    let empty = ops::matmul_nt(&Tensor::zeros([2, 3]), &Tensor::zeros([0, 3])).unwrap();
    assert_eq!(empty.dims(), &[2, 0]);
}

#[test]
fn addmm_adds_bias_after_accumulation() {
    let a = tensor_of(71, 9, 21);
    let b = tensor_of(72, 21, 19);
    let bias = tensor_of(73, 1, 19);
    let fused = ops::addmm(&a, &b, &bias).unwrap();
    let want = ops::matmul(&a, &b)
        .unwrap()
        .add_row_broadcast(&bias)
        .unwrap();
    assert_eq!(bits(&fused), bits(&want));
}

/// `ops::PAR_THRESHOLD_FLOPS`, which is private to the crate: a product of
/// `2·m·n·k` FLOPs at or above it fans out over the pool. The test below
/// checks its copy against the pool's own call counter, so a moved line
/// fails here until the shapes are picked again.
const POOLED_FROM_FLOPS: usize = 1 << 22;

#[test]
fn products_are_bitwise_stable_across_pool_widths() {
    // The first shape is just under the pooled-dispatch line and runs
    // inline, the second sits exactly on it, the rest fan out over their
    // column strips: whole 32-column strips only, and a 16-column or ragged
    // last strip after them (a 32-column product would be one strip, which
    // runs inline). The last four are the products of the
    // reference benchmark that were pooled under the 2^18 line and run
    // inline under this one (the hidden-32 feed-forward of `dist_world` and
    // `multi_world`, the hidden-256 side network of `pac_solo`).
    for &(m, k, n) in &[
        (64, 128, 255),
        (64, 128, 256),
        (104, 256, 96),
        (130, 256, 70),
        (53, 512, 80),
        (146, 128, 128),
        (96, 256, 97),
        (64, 32, 128),
        (128, 32, 128),
        (104, 256, 32),
        (104, 32, 128),
    ] {
        let a = tensor_of(81, m, k);
        let b = tensor_of(82, k, n);
        let bt = b.transpose_2d();
        let at = a.transpose_2d();
        let bias = tensor_of(83, 1, n);
        let suite = || {
            [
                bits(&ops::matmul(&a, &b).unwrap()),
                bits(&ops::addmm(&a, &b, &bias).unwrap()),
                bits(&ops::matmul_nt(&a, &bt).unwrap()),
                bits(&ops::matmul_tn(&at, &b).unwrap()),
            ]
        };
        rayon::pool::set_max_concurrency(1);
        let reference = suite();
        for w in [2usize, 4] {
            rayon::pool::set_max_concurrency(w);
            // The counter only grows, whatever other tests run beside this
            // one, so "at least the suite's four" is safe to assert.
            let calls = rayon::pool::stats().parallel_calls;
            assert_eq!(suite(), reference, "{m}x{k}x{n} diverged at width {w}");
            if 2 * m * k * n >= POOLED_FROM_FLOPS {
                assert!(
                    rayon::pool::stats().parallel_calls - calls >= 4,
                    "{m}x{k}x{n} ran inline: the pooled-dispatch line moved, pick the shapes again"
                );
            }
        }
        rayon::pool::set_max_concurrency(usize::MAX);
    }
}

#[test]
fn rows_of_a_product_equal_the_same_rows_computed_alone() {
    // Row-partition invariance: rows r0..r1 of an m = 104 product (tiles
    // aligned to row 0) equal the same rows computed as their own m = r1 -
    // r0 call (tiles aligned to r0 instead). The offsets are deliberately
    // not multiples of a tile height (2, 6, 8), and the lengths 1..=24 cover
    // every remainder mod 6 and 8.
    let (m, k, n) = (104usize, 64usize, 48usize);
    let a = tensor_of(91, m, k);
    let b = tensor_of(92, k, n);
    let bt = b.transpose_2d();
    let nn = ops::matmul(&a, &b).unwrap();
    let nt = ops::matmul_nt(&a, &bt).unwrap();
    let tn = ops::matmul_tn(&a.transpose_2d(), &b).unwrap();
    let mut ranges = vec![(0, 104), (5, 38), (33, 104), (50, 51), (3, 103)];
    ranges.extend((1..=24).map(|len| (47 - len % 5, 47 - len % 5 + len)));
    for &(r0, r1) in &ranges {
        let part = a.slice_rows(r0..r1).unwrap();
        let want = |full: &Tensor| bits(&full.slice_rows(r0..r1).unwrap());
        assert_eq!(
            bits(&ops::matmul(&part, &b).unwrap()),
            want(&nn),
            "nn rows {r0}..{r1}"
        );
        assert_eq!(
            bits(&ops::matmul_nt(&part, &bt).unwrap()),
            want(&nt),
            "nt rows {r0}..{r1}"
        );
        assert_eq!(
            bits(&ops::matmul_tn(&part.transpose_2d(), &b).unwrap()),
            want(&tn),
            "tn rows {r0}..{r1}"
        );
    }
}

#[test]
fn columns_of_a_product_equal_the_same_columns_computed_alone() {
    // Column-partition invariance, the twin of the rows test: columns
    // c0..c1 of a pooled m = 104, n = 1000 product (strips aligned to column
    // 0, one task each) equal the same columns computed as their own
    // product of B's columns c0..c1 (strips aligned to c0, pooled or inline
    // by their own size). A column's recurrence is fused unless it lies in
    // its product's ragged last `n % 16` columns, so every range keeps its
    // columns on one side of that split: lengths that are multiples of 16
    // before column 992, and the full product's 8-column tail alone.
    use ops::{Bias, Block, Form, View};
    let (m, k, n) = (104usize, 256usize, 1000usize);
    let a = tensor_of(93, m, k);
    let at = a.transpose_2d();
    let b = tensor_of(94, k, n);
    let bt = b.transpose_2d();
    let full = [
        ops::matmul(&a, &b).unwrap(),
        ops::matmul_nt(&a, &bt).unwrap(),
        ops::matmul_tn(&at, &b).unwrap(),
    ];
    let mut ranges = vec![(0, 992), (16, 48), (8, 24), (5, 37), (100, 228), (976, 992)];
    ranges.extend([(3, 963), (500, 980), (992, 1000), (995, 998)]);
    ranges.extend((1..=4).map(|w| (47 + w, 47 + w + 16 * w)));
    for &(c0, c1) in &ranges {
        let len = c1 - c0;
        let b_cols = View::new(b.data(), Block::of(n, 0, k, c0, len));
        let bt_rows = View::new(bt.data(), Block::of(k, c0, len, 0, k));
        let alone = [
            (Form::Nn, View::new(a.data(), Block::dense(m, k)), b_cols),
            (Form::Nt, View::new(a.data(), Block::dense(m, k)), bt_rows),
            (Form::Tn, View::new(at.data(), Block::dense(k, m)), b_cols),
        ];
        for ((form, av, bv), full) in alone.into_iter().zip(&full) {
            let mut got = vec![0.0f32; m * len];
            ops::matmul_strided(form, av, bv, Bias::None, &mut got, Block::dense(m, len)).unwrap();
            let want: Vec<f32> = full
                .data()
                .chunks(n)
                .flat_map(|row| row[c0..c1].to_vec())
                .collect();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{form:?} columns {c0}..{c1}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_within_2ulp_per_step(
        m in 1usize..40, k in 1usize..50, n in 1usize..40, seed in 0u64..1000
    ) {
        let a = tensor_of(seed, m, k);
        let b = tensor_of(seed.wrapping_add(1), k, n);
        let got = ops::matmul(&a, &b).unwrap();
        let bd = b.data().to_vec();
        assert_within_2ulp_per_step(&got, &a, |kk, c| bd[kk * n + c], m, k, n);
    }

    #[test]
    fn nt_within_2ulp_per_step(
        m in 1usize..40, k in 1usize..50, n in 1usize..40, seed in 0u64..1000
    ) {
        let a = tensor_of(seed, m, k);
        let bt = tensor_of(seed.wrapping_add(2), n, k);
        let got = ops::matmul_nt(&a, &bt).unwrap();
        let btd = bt.data().to_vec();
        assert_within_2ulp_per_step(&got, &a, |kk, c| btd[c * k + kk], m, k, n);
    }

    #[test]
    fn tn_within_2ulp_per_step(
        m in 1usize..40, k in 1usize..50, n in 1usize..40, seed in 0u64..1000
    ) {
        let at = tensor_of(seed, k, m);
        let b = tensor_of(seed.wrapping_add(3), k, n);
        let got = ops::matmul_tn(&at, &b).unwrap();
        let bd = b.data().to_vec();
        assert_within_2ulp_per_step(&got, &at.transpose_2d(), |kk, c| bd[kk * n + c], m, k, n);
    }

    #[test]
    fn into_reuses_dirty_out(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..500
    ) {
        // A dirty, wrongly-shaped out tensor must not influence results.
        let a = tensor_of(seed, m, k);
        let b = tensor_of(seed.wrapping_add(4), k, n);
        let fresh = ops::matmul(&a, &b).unwrap();
        let mut reused = tensor_of(seed.wrapping_add(5), 3, 5);
        ops::matmul_into(&a, &b, &mut reused).unwrap();
        prop_assert_eq!(bits(&fresh), bits(&reused));
    }
}
