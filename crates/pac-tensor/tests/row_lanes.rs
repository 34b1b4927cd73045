//! The row reductions' lane clones against the scalar loops they replace.
//!
//! `reduce`'s AVX2+FMA and AVX-512 clones carry one row per vector lane
//! and add each row's columns in the scalar order, so every clone must give
//! the bits of the loops below — LayerNorm forward (recorded and frozen:
//! `y`, `x̂`, `1/σ`), LayerNorm backward (`dx`, `dγ`, `dβ`) and softmax
//! forward and backward — over full and tail blocks of rows (1..=40) and
//! full and tail tiles of columns, on rows of ±0, all −0.0, equal values,
//! 1e±30 magnitudes, subnormals, causal −∞ tails and NaN. "Bits" means equal `to_bits`, or
//! NaN on both sides (a NaN's payload is not part of the contract).

use pac_tensor::elementwise;
use pac_tensor::reduce;
use pac_tensor::simd::Isa;

const ROWS: std::ops::RangeInclusive<usize> = 1..=40;
const COLS: [usize; 12] = [1, 2, 7, 8, 13, 15, 16, 17, 31, 32, 33, 256];
const EPS: f32 = 1e-5;

/// LayerNorm forward as `pac_nn::LayerNorm` ran it one row at a time.
fn layernorm_ref(x: &[f32], g: &[f32], b: &[f32]) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let cols = g.len();
    let (mut y, mut x_hat, mut inv_std) = (vec![0.0; x.len()], vec![0.0; x.len()], vec![]);
    for (r, (xr, yr)) in x
        .chunks_exact(cols)
        .zip(y.chunks_exact_mut(cols))
        .enumerate()
    {
        let mean: f32 = xr.iter().sum::<f32>() / cols as f32;
        let var: f32 = xr.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
        let is = 1.0 / (var + EPS).sqrt();
        for (h, v) in yr.iter_mut().zip(xr) {
            *h = (*v - mean) * is;
        }
        x_hat[r * cols..(r + 1) * cols].copy_from_slice(yr);
        inv_std.push(is);
        for ((v, g), b) in yr.iter_mut().zip(g).zip(b) {
            *v = *v * g + b;
        }
    }
    (y, x_hat, inv_std)
}

/// LayerNorm backward as `pac_nn::LayerNorm::backward` ran it.
fn layernorm_backward_ref(x_hat: &[f32], inv_std: &[f32], dy: &[f32], g: &[f32]) -> [Vec<f32>; 3] {
    let cols = g.len();
    let (mut dx, mut dgamma, mut dbeta) = (vec![0.0; dy.len()], vec![0.25; cols], vec![-0.5; cols]);
    for (r, &is) in inv_std.iter().enumerate() {
        let dyr = &dy[r * cols..(r + 1) * cols];
        let xh = &x_hat[r * cols..(r + 1) * cols];
        for j in 0..cols {
            dgamma[j] += dyr[j] * xh[j];
            dbeta[j] += dyr[j];
        }
        let mut mean_dyh = 0.0f32;
        let mut mean_dyh_xh = 0.0f32;
        for j in 0..cols {
            let dyh = dyr[j] * g[j];
            mean_dyh += dyh;
            mean_dyh_xh += dyh * xh[j];
        }
        mean_dyh /= cols as f32;
        mean_dyh_xh /= cols as f32;
        for j in 0..cols {
            let dyh = dyr[j] * g[j];
            dx[r * cols + j] = is * (dyh - mean_dyh - xh[j] * mean_dyh_xh);
        }
    }
    [dx, dgamma, dbeta]
}

/// Softmax forward one row at a time, `exp` on the clone under test.
fn softmax_ref(isa: Isa, x: &mut [f32], cols: usize) {
    for row in x.chunks_exact_mut(cols) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        elementwise::exp_sub_in_place_on(isa, row, m);
        let mut denom = 0.0f32;
        for v in row.iter() {
            denom += *v;
        }
        let inv = 1.0 / denom;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Softmax backward one row at a time.
fn softmax_backward_ref(y: &[f32], dy: &mut [f32], cols: usize) {
    for (yrow, drow) in y.chunks_exact(cols).zip(dy.chunks_exact_mut(cols)) {
        for (d, yv) in drow.iter_mut().zip(yrow) {
            *d *= yv;
        }
        let dot: f32 = drow.iter().sum();
        for (d, yv) in drow.iter_mut().zip(yrow) {
            *d -= dot * yv;
        }
    }
}

/// Rows that hit every start value and special case: random, equal, ±0,
/// 1e±30 magnitudes, a causal −∞ tail, one NaN, large offsets, subnormals,
/// all −0.0 (where a `+0.0` start value would flip a sign).
fn awkward(rows: usize, cols: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9) | 1;
    let mut v = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for j in 0..cols {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let x = (state >> 8) as f32 / (1u32 << 22) as f32 - 2.0;
            v.push(match r % 9 {
                1 => 0.3,
                2 => [0.0, -0.0][j % 2],
                3 => x * [1e30, 1e-30, -1e30][j % 3],
                4 if j > r % cols => f32::NEG_INFINITY,
                5 if j == r % cols => f32::NAN,
                6 => x * 1e4 + 3.0,
                7 => x * 1e-39,
                8 => -0.0,
                _ => x,
            });
        }
    }
    v
}

fn assert_bits(what: &str, want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert!(
            w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
            "{what}[{i}]: want {w} ({:#010x}), got {g} ({:#010x})",
            w.to_bits(),
            g.to_bits()
        );
    }
}

#[test]
fn layernorm_forward_lanes_are_the_scalar_loop() {
    for isa in Isa::available() {
        for cols in COLS {
            let g = awkward(1, cols, 11);
            let b = awkward(1, cols, 12);
            for rows in ROWS {
                let x = awkward(rows, cols, rows as u32);
                let (y, x_hat, inv_std) = layernorm_ref(&x, &g, &b);
                let at = format!("{isa:?} [{rows},{cols}]");

                let (mut got_y, mut got_xh) = (vec![7.0; x.len()], vec![7.0; x.len()]);
                let mut got_is = vec![7.0; rows];
                let record = Some((&mut got_xh[..], &mut got_is[..]));
                reduce::layernorm_rows_on(isa, &x, &g, &b, EPS, &mut got_y, record);
                assert_bits(&format!("recorded y {at}"), &y, &got_y);
                assert_bits(&format!("x̂ {at}"), &x_hat, &got_xh);
                assert_bits(&format!("1/σ {at}"), &inv_std, &got_is);

                let mut frozen = vec![7.0; x.len()];
                reduce::layernorm_rows_on(isa, &x, &g, &b, EPS, &mut frozen, None);
                assert_bits(&format!("frozen y {at}"), &y, &frozen);
            }
        }
    }
}

#[test]
fn layernorm_backward_lanes_are_the_scalar_loop() {
    for isa in Isa::available() {
        for cols in COLS {
            let g = awkward(1, cols, 13);
            let b = awkward(1, cols, 14);
            for rows in ROWS {
                let x = awkward(rows, cols, 100 + rows as u32);
                let (_, x_hat, inv_std) = layernorm_ref(&x, &g, &b);
                let dy = awkward(rows, cols, 200 + rows as u32);
                let want = layernorm_backward_ref(&x_hat, &inv_std, &dy, &g);

                let (mut dx, mut dgamma, mut dbeta) =
                    (vec![7.0; dy.len()], vec![0.25; cols], vec![-0.5; cols]);
                reduce::layernorm_rows_backward_on(
                    isa,
                    &x_hat,
                    &inv_std,
                    &dy,
                    &g,
                    &mut dx,
                    &mut dgamma,
                    &mut dbeta,
                );
                let at = format!("{isa:?} [{rows},{cols}]");
                assert_bits(&format!("dx {at}"), &want[0], &dx);
                assert_bits(&format!("dγ {at}"), &want[1], &dgamma);
                assert_bits(&format!("dβ {at}"), &want[2], &dbeta);
            }
        }
    }
}

#[test]
fn softmax_lanes_are_the_scalar_loop() {
    for isa in Isa::available() {
        for cols in COLS {
            for rows in ROWS {
                let x = awkward(rows, cols, 300 + rows as u32);
                let at = format!("{isa:?} [{rows},{cols}]");

                let mut want = x.clone();
                softmax_ref(isa, &mut want, cols);
                let mut got = x.clone();
                reduce::softmax_rows_in_place_on(isa, &mut got, cols);
                assert_bits(&format!("softmax {at}"), &want, &got);

                let dy = awkward(rows, cols, 400 + rows as u32);
                let mut want_dx = dy.clone();
                softmax_backward_ref(&want, &mut want_dx, cols);
                let mut got_dx = dy.clone();
                reduce::softmax_rows_backward_in_place_on(isa, &want, &mut got_dx, cols);
                assert_bits(&format!("softmax backward {at}"), &want_dx, &got_dx);
            }
        }
    }
}

/// Every masked load and store stays inside its slice: each operand is a
/// window of a wider buffer whose neighbours hold a sentinel (NaN beside
/// the inputs, where a stray lane would poison a result), no sentinel
/// moves, and the windowed results are the dense ones.
#[test]
fn lane_loads_and_stores_stay_inside_their_slices() {
    const PAD: usize = 24;
    const SENTINEL: f32 = -1234.5;
    let window = |v: &[f32], fill: f32| {
        let mut b = vec![fill; PAD];
        b.extend_from_slice(v);
        b.extend(vec![fill; PAD]);
        b
    };
    let untouched = |what: &str, b: &[f32]| {
        let (head, tail) = (&b[..PAD], &b[b.len() - PAD..]);
        assert!(
            head.iter()
                .chain(tail)
                .all(|v| v.to_bits() == SENTINEL.to_bits()),
            "{what} wrote outside its slice"
        );
    };
    for isa in Isa::available() {
        for cols in [1, 7, 8, 13, 17, 33] {
            for rows in [1, 5, 9, 17] {
                let (n, at) = (rows * cols, format!("{isa:?} [{rows},{cols}]"));
                let x = awkward(rows, cols, 600 + rows as u32);
                let g = awkward(1, cols, 601);
                let (y, x_hat, inv_std) = layernorm_ref(&x, &g, &g);
                let (xw, gw) = (window(&x, f32::NAN), window(&g, f32::NAN));
                let (xs, gs) = (&xw[PAD..PAD + n], &gw[PAD..PAD + cols]);
                let mut yw = window(&vec![0.0; n], SENTINEL);
                let mut xhw = window(&vec![0.0; n], SENTINEL);
                let mut isw = window(&vec![0.0; rows], SENTINEL);
                let record = Some((&mut xhw[PAD..PAD + n], &mut isw[PAD..PAD + rows]));
                reduce::layernorm_rows_on(isa, xs, gs, gs, EPS, &mut yw[PAD..PAD + n], record);
                for (what, b) in [("y", &yw), ("x̂", &xhw), ("1/σ", &isw)] {
                    untouched(&format!("layernorm {what} {at}"), b);
                }
                assert_bits(&format!("windowed y {at}"), &y, &yw[PAD..PAD + n]);

                let dy = awkward(rows, cols, 602 + rows as u32);
                let want = layernorm_backward_ref(&x_hat, &inv_std, &dy, &g);
                let (xhw, isw, dyw) = (
                    window(&x_hat, f32::NAN),
                    window(&inv_std, f32::NAN),
                    window(&dy, f32::NAN),
                );
                let mut dxw = window(&vec![0.0; n], SENTINEL);
                let mut dgw = window(&vec![0.25; cols], SENTINEL);
                let mut dbw = window(&vec![-0.5; cols], SENTINEL);
                reduce::layernorm_rows_backward_on(
                    isa,
                    &xhw[PAD..PAD + n],
                    &isw[PAD..PAD + rows],
                    &dyw[PAD..PAD + n],
                    gs,
                    &mut dxw[PAD..PAD + n],
                    &mut dgw[PAD..PAD + cols],
                    &mut dbw[PAD..PAD + cols],
                );
                for (what, b) in [("dx", &dxw), ("dγ", &dgw), ("dβ", &dbw)] {
                    untouched(&format!("layernorm backward {what} {at}"), b);
                }
                assert_bits(&format!("windowed dx {at}"), &want[0], &dxw[PAD..PAD + n]);
                assert_bits(
                    &format!("windowed dγ {at}"),
                    &want[1],
                    &dgw[PAD..PAD + cols],
                );

                let mut sw = window(&x, SENTINEL);
                reduce::softmax_rows_in_place_on(isa, &mut sw[PAD..PAD + n], cols);
                untouched(&format!("softmax {at}"), &sw);
                let mut dw = window(&dy, SENTINEL);
                let yw = window(&sw[PAD..PAD + n], f32::NAN);
                reduce::softmax_rows_backward_in_place_on(
                    isa,
                    &yw[PAD..PAD + n],
                    &mut dw[PAD..PAD + n],
                    cols,
                );
                untouched(&format!("softmax backward {at}"), &dw);
            }
        }
    }
}

/// The dispatched entry points run the probed clone.
#[test]
fn dispatch_runs_the_probed_clone() {
    let isa = Isa::probed();
    let (rows, cols) = (19, 13);
    let x = awkward(rows, cols, 500);
    let (mut a, mut b) = (x.clone(), x.clone());
    reduce::softmax_rows_in_place(&mut a, cols);
    reduce::softmax_rows_in_place_on(isa, &mut b, cols);
    assert_bits("softmax", &a, &b);
    let g = awkward(1, cols, 501);
    let (mut ya, mut yb) = (vec![0.0; x.len()], vec![0.0; x.len()]);
    reduce::layernorm_rows(&x, &g, &g, EPS, &mut ya, None);
    reduce::layernorm_rows_on(isa, &x, &g, &g, EPS, &mut yb, None);
    assert_bits("layernorm", &ya, &yb);
}
