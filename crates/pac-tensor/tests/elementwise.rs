//! Accuracy and determinism contract of the vectorized elementwise kernels.
//!
//! (a) accuracy against an `f64` oracle, (b) position independence — vector
//! body ≡ tail ≡ one-element call, bit for bit — (c) the 512-bit clone ≡
//! the AVX2+FMA clone, bit for bit, and (d) `softmax_rows` on the kernel
//! path. The portable-against-vector clone check (a few ULP, not bits)
//! lives in the module's own tests.

use pac_tensor::elementwise::{self, AdamCoeffs};
use pac_tensor::simd::Isa;
use pac_tensor::{reduce, Tensor};

/// Distance in units in the last place (0 for equal values, incl. ±0).
fn ulps(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

/// Dense grid over [-12, 12] (step 1/512) plus the awkward finite values.
fn finite_inputs() -> Vec<f32> {
    let mut xs: Vec<f32> = (-12 * 512..=12 * 512).map(|i| i as f32 / 512.0).collect();
    // Off-grid points so the low mantissa bits are exercised too.
    xs.extend((0..4000).map(|i| ((i * 7919 % 24001) as f32 - 12000.0) * 1.000_123e-3));
    xs.extend([0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, 1e-20, -1e-20]);
    xs.extend([87.0, -87.0, 88.0, -88.0, 1e30, -1e30]);
    xs
}

const C: f64 = 0.797_884_6_f32 as f64;
const A: f64 = 0.044_715_f32 as f64;

fn gelu_ref(x: f64) -> f64 {
    0.5 * x * (1.0 + (C * (x + A * x * x * x)).tanh())
}

fn gelu_prime_ref(x: f64) -> f64 {
    let t = (C * (x + A * x * x * x)).tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * A * x * x)
}

type Unary = fn(&[f32], &mut [f32]);
type Binary = fn(&[f32], &[f32], &mut [f32]);

fn run1(f: Unary, xs: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; xs.len()];
    f(xs, &mut out);
    out
}

fn run2(f: Binary, xs: &[f32], dy: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; xs.len()];
    f(xs, dy, &mut out);
    out
}

fn exp(xs: &[f32], out: &mut [f32]) {
    elementwise::exp_sub(xs, 0.0, out);
}

#[test]
fn exp_is_within_4_ulp_and_saturates_cleanly() {
    let xs: Vec<f32> = (-87 * 256..=88 * 256).map(|i| i as f32 / 256.0).collect();
    let ys = run1(exp, &xs);
    let mut worst = 0;
    for (&x, &y) in xs.iter().zip(&ys) {
        let want = (x as f64).exp() as f32;
        worst = worst.max(ulps(y, want));
        assert!(ulps(y, want) <= 4, "exp({x}) = {y}, want {want}");
    }
    println!("exp worst error on [-87, 88]: {worst} ULP");

    let edge = [
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        -88.0,
        -104.0,
        -1e30,
        f32::NEG_INFINITY,
        89.0,
        1e30,
        f32::INFINITY,
        f32::NAN,
    ];
    let ys = run1(exp, &edge);
    assert_eq!(&ys[..4], &[1.0; 4]);
    assert_eq!(&ys[4..8], &[0.0; 4], "flushes to zero below ln(2^-126)");
    assert_eq!(&ys[8..11], &[f32::INFINITY; 3]);
    assert!(ys[11].is_nan());
}

#[test]
fn tanh_is_within_4_ulp_odd_and_exactly_one_once_saturated() {
    let xs = finite_inputs();
    let ys = run1(elementwise::tanh, &xs);
    let mut worst = 0;
    for (&x, &y) in xs.iter().zip(&ys) {
        let want = (x as f64).tanh() as f32;
        worst = worst.max(ulps(y, want));
        assert!(ulps(y, want) <= 4, "tanh({x}) = {y}, want {want}");
        assert_eq!(y.is_sign_negative(), x.is_sign_negative(), "tanh({x})");
        if x.abs() >= 10.0 {
            assert_eq!(y, 1.0f32.copysign(x), "tanh({x}) saturated");
        }
    }
    println!("tanh worst error: {worst} ULP");

    let neg: Vec<f32> = xs.iter().map(|x| -x).collect();
    let yn = run1(elementwise::tanh, &neg);
    for (y, n) in ys.iter().zip(&yn) {
        assert_eq!(y.to_bits(), (-n).to_bits(), "tanh is odd bit for bit");
    }

    let ys = run1(
        elementwise::tanh,
        &[f32::INFINITY, f32::NEG_INFINITY, f32::NAN],
    );
    assert_eq!(&ys[..2], &[1.0, -1.0]);
    assert!(ys[2].is_nan());
}

#[test]
fn gelu_and_its_derivative_are_within_1e_6_of_the_f64_oracle() {
    let xs = finite_inputs();
    let ys = run1(elementwise::gelu, &xs);
    let ones = vec![1.0f32; xs.len()];
    let ds = run2(elementwise::gelu_backward, &xs, &ones);
    let (mut worst_y, mut worst_d) = (0.0f64, 0.0f64);
    for ((&x, &y), &d) in xs.iter().zip(&ys).zip(&ds) {
        let ey = (y as f64 - gelu_ref(x as f64)).abs();
        let ed = (d as f64 - gelu_prime_ref(x as f64)).abs();
        // |gelu(1e30)| is 1e30: one part in 1e-6 of that is relative there.
        let tol = 1e-6 * (x.abs() as f64).max(12.0) / 12.0;
        assert!(ey <= tol, "gelu({x}) = {y}, off by {ey:e}");
        assert!(ed <= 1e-6, "gelu'({x}) = {d}, off by {ed:e}");
        if x.abs() <= 12.0 {
            worst_y = worst_y.max(ey);
        }
        worst_d = worst_d.max(ed);
    }
    println!("gelu worst abs error {worst_y:e}, gelu' {worst_d:e}");

    // The fused backward multiplies by dy in the same pass.
    let dy: Vec<f32> = (0..xs.len())
        .map(|i| (i % 11) as f32 * 0.25 - 1.0)
        .collect();
    let fused = run2(elementwise::gelu_backward, &xs, &dy);
    for ((f, d), g) in fused.iter().zip(&ds).zip(&dy) {
        assert_eq!(f.to_bits(), (g * d).to_bits());
    }

    // At the infinities both return their limits; below -5.5 exactly zero.
    let inf = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -5.75];
    let ys = run1(elementwise::gelu, &inf);
    assert_eq!(ys[0], f32::INFINITY);
    assert_eq!((ys[1], ys[3]), (0.0, 0.0));
    assert!(ys[2].is_nan());
    let ds = run2(elementwise::gelu_backward, &inf, &[1.0; 4]);
    assert_eq!((ds[0], ds[1], ds[3]), (1.0, 0.0, 0.0));
    assert!(ds[2].is_nan());
}

#[test]
fn tanh_backward_is_dy_times_one_minus_tanh_squared() {
    let xs = finite_inputs();
    let dy: Vec<f32> = (0..xs.len()).map(|i| (i % 5) as f32 - 2.0).collect();
    let got = run2(elementwise::tanh_backward, &xs, &dy);
    for ((&x, &g), &d) in xs.iter().zip(&got).zip(&dy) {
        let t = (x as f64).tanh();
        let want = d as f64 * (1.0 - t * t);
        assert!((g as f64 - want).abs() <= 1e-6, "tanh'({x})·{d} = {g}");
    }
}

/// Every element's bits equal the one-element call's bits, wherever the
/// element sits: offsets 0..16 shift it between vector body and tail and
/// across alignments, lengths 0..72 cover empty, tail-only and mixed (the
/// compiler's unrolled vector body is 32 wide).
#[test]
fn every_kernel_is_position_independent() {
    let pool: Vec<f32> = (0..96)
        .map(|i| ((i * 37 % 41) as f32 - 20.0) * 0.41)
        .collect();
    let dys: Vec<f32> = (0..96)
        .map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.27)
        .collect();
    let one1 = |f: Unary, x: f32| run1(f, &[x])[0].to_bits();
    let one2 = |f: Binary, x: f32, d: f32| run2(f, &[x], &[d])[0].to_bits();
    let unary: [Unary; 3] = [elementwise::gelu, elementwise::tanh, exp];
    let binary: [Binary; 2] = [elementwise::gelu_backward, elementwise::tanh_backward];
    for off in 0..16 {
        for len in 0..72 {
            let (xs, ds) = (&pool[off..off + len], &dys[off..off + len]);
            for f in unary {
                for (x, y) in xs.iter().zip(run1(f, xs)) {
                    assert_eq!(y.to_bits(), one1(f, *x), "off {off} len {len} x {x}");
                }
            }
            for f in binary {
                for ((x, d), y) in xs.iter().zip(ds).zip(run2(f, xs, ds)) {
                    assert_eq!(y.to_bits(), one2(f, *x, *d), "off {off} len {len} x {x}");
                }
            }
        }
    }
}

#[test]
fn exp_sub_in_place_equals_exp_sub_bitwise() {
    // Softmax normalises its rows in place: the in-place pass must be the
    // out-of-place one, body and tail alike.
    let pool: Vec<f32> = (0..96)
        .map(|i| ((i * 37 % 41) as f32 - 20.0) * 0.41)
        .collect();
    for len in 0..72 {
        let xs = &pool[len % 7..len % 7 + len];
        let mut out = vec![0.0f32; len];
        elementwise::exp_sub(xs, 1.25, &mut out);
        let mut inplace = xs.to_vec();
        elementwise::exp_sub_in_place(&mut inplace, 1.25);
        assert_eq!(bits(&inplace), bits(&out), "len {len}");
    }
}

#[test]
fn adam_step_is_position_independent() {
    let c = AdamCoeffs {
        lr: 1e-2,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        bc1: 1.0 - 0.9f32.powi(3),
        bc2: 1.0 - 0.999f32.powi(3),
    };
    let val = |i: usize, s: f32| ((i * 29 % 31) as f32 - 15.0) * s;
    for off in 0..16 {
        for len in 0..72 {
            let idx = off..off + len;
            let mut w: Vec<f32> = idx.clone().map(|i| val(i, 0.11)).collect();
            let mut m: Vec<f32> = idx.clone().map(|i| val(i + 3, 0.013)).collect();
            let mut v: Vec<f32> = idx.clone().map(|i| val(i + 5, 0.007).abs()).collect();
            let g: Vec<f32> = idx.clone().map(|i| val(i + 7, 0.21)).collect();
            let (w0, m0, v0) = (w.clone(), m.clone(), v.clone());
            elementwise::adam_step(&mut w, &mut m, &mut v, &g, c);
            for j in 0..len {
                let (mut w1, mut m1, mut v1) = ([w0[j]], [m0[j]], [v0[j]]);
                elementwise::adam_step(&mut w1, &mut m1, &mut v1, &[g[j]], c);
                assert_eq!(w[j].to_bits(), w1[0].to_bits(), "w off {off} len {len}");
                assert_eq!(m[j].to_bits(), m1[0].to_bits(), "m off {off} len {len}");
                assert_eq!(v[j].to_bits(), v1[0].to_bits(), "v off {off} len {len}");
            }
        }
    }
}

#[test]
fn softmax_rows_sum_to_one_and_do_not_depend_on_the_row_count() {
    let (rows, cols) = (37, 29);
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| ((i * 131 % 257) as f32 - 128.0) * 0.07)
        .collect();
    let x = Tensor::from_vec(data, [rows, cols]).unwrap();
    let y = reduce::softmax_rows(&x);
    for r in 0..rows {
        let row = y.row(r).unwrap();
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
        assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The same row alone, and inside a different slice of the batch.
        let alone = reduce::softmax_rows(&x.slice_rows(r..r + 1).unwrap());
        assert_eq!(bits(alone.data()), bits(row), "row {r} alone");
    }
    let part = reduce::softmax_rows(&x.slice_rows(5..20).unwrap());
    assert_eq!(bits(part.data()), bits(&y.data()[5 * cols..20 * cols]));

    // Masked (-inf) logits get exactly zero weight.
    let masked = Tensor::from_vec(vec![0.5, f32::NEG_INFINITY, 1.5, f32::NEG_INFINITY], [1, 4]);
    let y = reduce::softmax_rows(&masked.unwrap());
    assert_eq!(y.data()[1], 0.0);
    assert_eq!(y.data()[3], 0.0);
    assert!((y.data()[0] + y.data()[2] - 1.0).abs() < 1e-6);
}

/// The AVX-512 clone runs the AVX2+FMA clone's per-element recurrence
/// (the same `map_body` source) on sixteen lanes, so the two agree bit for
/// bit: on the edge values — saturation, ±0, subnormals, NaN, ±∞ — and on
/// random slices of every length 0..=70, whose elements land in the vector
/// body, the remainder loop or both.
#[test]
fn the_512_bit_clone_is_bitwise_the_avx2_clone() {
    let find = |name| Isa::available().into_iter().find(|i| i.name() == name);
    let (Some(avx2), Some(avx512)) = (find("avx2+fma"), find("avx512")) else {
        eprintln!("skipped: this CPU has no AVX-512 clone to compare");
        return;
    };
    let edges = [
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        5.5,
        -5.5,
        5.500_001,
        -5.500_001,
        10.0,
        -10.0,
        -87.336_54,
        -87.4,
        88.376_26,
        88.4,
        1e30,
        -1e30,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let mut state = 0x2545_f491_u32;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        (state >> 8) as f32 / (1u32 << 24) as f32
    };
    let mut cases: Vec<(Vec<f32>, Vec<f32>)> =
        vec![(edges.to_vec(), edges.iter().rev().copied().collect())];
    for len in 0..=70 {
        let mut draw = |i: usize| {
            let r = next();
            if i % 11 == 3 {
                edges[(r * edges.len() as f32) as usize % edges.len()]
            } else {
                r * 24.0 - 12.0
            }
        };
        let xs: Vec<f32> = (0..len).map(&mut draw).collect();
        let dy: Vec<f32> = (0..len).map(&mut draw).collect();
        cases.push((xs, dy));
    }
    let same = |what: &str, a: &[f32], b: &[f32]| {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}, {} elements", a.len());
    };
    type On1 = fn(Isa, &[f32], &mut [f32]);
    type On2 = fn(Isa, &[f32], &[f32], &mut [f32]);
    let unary: [(&str, On1); 3] = [
        ("gelu", elementwise::gelu_on),
        ("tanh", elementwise::tanh_on),
        ("exp", |isa, x, out| {
            elementwise::exp_sub_on(isa, x, 0.75, out)
        }),
    ];
    let binary: [(&str, On2); 2] = [
        ("gelu'", elementwise::gelu_backward_on),
        ("tanh'", elementwise::tanh_backward_on),
    ];
    let c = AdamCoeffs {
        lr: 1e-2,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        bc1: 0.271,
        bc2: 0.003,
    };
    for (xs, dy) in &cases {
        let n = xs.len();
        for (what, f) in unary {
            let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
            f(avx2, xs, &mut a);
            f(avx512, xs, &mut b);
            same(what, &a, &b);
        }
        for (what, f) in binary {
            let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
            f(avx2, xs, dy, &mut a);
            f(avx512, xs, dy, &mut b);
            same(what, &a, &b);
        }
        let (mut a, mut b) = (xs.clone(), xs.clone());
        elementwise::exp_sub_in_place_on(avx2, &mut a, -0.5);
        elementwise::exp_sub_in_place_on(avx512, &mut b, -0.5);
        same("exp in place", &a, &b);

        let abs: Vec<f32> = dy.iter().map(|v| v.abs()).collect();
        let mut sides = [
            (xs.clone(), dy.clone(), abs.clone()),
            (xs.clone(), dy.clone(), abs),
        ];
        for ((w, m, v), isa) in sides.iter_mut().zip([avx2, avx512]) {
            elementwise::adam_step_on(isa, w, m, v, xs, c);
        }
        let [(w1, m1, v1), (w2, m2, v2)] = &sides;
        same("adam w", w1, w2);
        same("adam m", m1, m2);
        same("adam v", v1, v2);
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
