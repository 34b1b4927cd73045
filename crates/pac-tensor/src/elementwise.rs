//! Vectorized elementwise kernels: the transcendental half of a layer.
//!
//! Built like [`crate::simd`]: safe code, no `std::arch` intrinsics, each
//! kernel compiled three times — a portable clone, an AVX2+FMA clone and an
//! AVX-512 clone of the *same* source (`map_body`, `adam_body`) under
//! `#[target_feature]` — and picked by [`Isa::probed`], the one CPU probe
//! the matmul kernels use. The choice is observed from the platform and the
//! slice, never set by a caller; the `_on` variants take the clone
//! explicitly so tests can hold clones against each other.
//!
//! A kernel is a branch-free scalar function (range reduction, a fixed
//! polynomial, selects) applied in a plain loop over equal-length slices,
//! which the compiler turns into packed code: sixteen lanes with `vfmadd`
//! in the AVX-512 clone, eight in the AVX2+FMA clone, four on baseline
//! SSE2. (Chunking the slices into explicit `f32x8` values defeats that:
//! the loop vectorizer then works *across* chunks and transposes them
//! through shuffles — 1.9 against 0.7 ns/element for GELU.) The 16-lane
//! loop pays off only on slices long enough for its unrolled step, so the
//! dispatched kernels run slices under `WIDE_MAP_LEN` (256 elements, set
//! by measurement on both sides, see there) on the AVX2+FMA clone. One pass
//! over the operands, no intermediate buffer:
//!
//! * [`gelu`] / [`gelu_backward`] (`dy ⊙ gelu'(x)`, one `exp` per element),
//! * [`tanh`] / [`tanh_backward`],
//! * [`exp_sub`] / [`exp_sub_in_place`] — the `exp(x - max)` pass of
//!   softmax, which [`crate::reduce`] runs once per block of rows on its
//!   own clone,
//! * [`adam_step`] — moments, bias correction and weight update in one loop.
//!
//! Nothing here calls libm, so ranks of one world need not share a libc.
//!
//! Determinism: every output element is a pure function of its input
//! value(s). The kernels use only exactly rounded IEEE-754 operations
//! (`+ - * /`, `sqrt`, fused multiply-add), comparisons and integer bit
//! moves; the packed and the scalar form of each give the same bits, so the
//! vector body, the remainder loop and a one-element call agree bit for bit
//! and an element does not depend on its index, the slice length, alignment
//! or which rows share the call (`tests/elementwise.rs` pins this). Like the
//! matmul kernels the bits are stable **per CPU class**: the two FMA clones
//! run the same per-element recurrence, one rounding per multiply-add, so
//! they agree bit for bit (`tests/elementwise.rs`) and the 512-bit size
//! line cannot move a result; the portable clone rounds twice, so it agrees
//! with them to a few ULP (pinned in the tests below), not bitwise.
//! [`adam_step`] is the exception — no multiply-add is fused, so it is
//! bitwise identical on every CPU.
//!
//! Accuracy (checked against an `f64` oracle in `tests/elementwise.rs`):
//! `exp` and `tanh` within 4 ULP, `gelu` and `gelu'` within `1e-6` absolute.
//! `exp` flushes to `0` below `-87.336` (no subnormal results) and
//! overflows to `+inf` above `88.376` (libm: `88.723`); `tanh` is exactly
//! `±1` from `|x| ≥ 10`; `gelu` and `gelu'` are exactly `0` below `-5.5`; NaN
//! in gives NaN out.

use crate::simd::{Isa, Level};

const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so that `n * LN2_HI` is exact for every `|n| ≤ 2^15`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2^23`: adding it rounds to the nearest integer and leaves that
/// integer in the low mantissa bits (round and convert with two adds, no
/// `floor`, which would be a libm call on the portable clone).
const MAGIC: f32 = 12_582_912.0;
/// `ln(2^-126)`: below this `exp` flushes to zero.
const EXP_LO: f32 = -87.336_54;
/// Above this `exp` overflows to `+inf` (keeps `n ≤ 127`).
const EXP_HI: f32 = 88.376_26;
/// `tanh` has rounded to `±1` well before this.
const TANH_SAT: f32 = 10.0;

/// `sqrt(2/π)` and the cubic coefficient of the tanh-approximated GELU.
const GELU_C: f32 = 0.797_884_6;
const GELU_A: f32 = 0.044_715;
/// Past `±GELU_SAT` the GELU is `0` / `x` and its derivative `0` / `1` to
/// within `1e-7`. Both kernels return exactly that below `-GELU_SAT` — about
/// where libm's `tanh` rounded to `-1` and did the same — so their smallest
/// nonzero magnitudes stay near `1e-8`: a faithfully tiny tail would only
/// feed the next matmul products that underflow to subnormals, which cost a
/// microcode assist each.
const GELU_SAT: f32 = 5.5;

/// `a * b + c`: one rounding (`vfmadd`) in the FMA clone — only reachable
/// under `#[target_feature(enable = "fma")]`, where it is an instruction
/// rather than a libm call — two in the portable clone.
#[inline(always)]
fn fma<const FMA: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Splits `x = n·ln2 + r` with `n` integral and `|r| ≤ ln2/2`; returns
/// `(expm1(r), 2^n)`. Requires `-126 ≤ n ≤ 127` (or NaN, which propagates
/// through the first component).
#[inline(always)]
fn exp_reduced<const FMA: bool>(x: f32) -> (f32, f32) {
    let t = fma::<FMA>(x, LOG2E, MAGIC);
    let n = t - MAGIC;
    let r = fma::<FMA>(n, -LN2_HI, x);
    let r = fma::<FMA>(n, -LN2_LO, r);
    // Cephes expf minimax: exp(r) ≈ 1 + r + r²·P(r).
    let p = 1.987_569_1e-4;
    let p = fma::<FMA>(p, r, 1.398_2e-3);
    let p = fma::<FMA>(p, r, 8.333_452e-3);
    let p = fma::<FMA>(p, r, 4.166_579_6e-2);
    let p = fma::<FMA>(p, r, 1.666_666_5e-1);
    let p = fma::<FMA>(p, r, 0.5);
    let q = fma::<FMA>(p, r * r, r);
    // t = MAGIC + n holds n in its low mantissa bits: shift them into the
    // exponent field and add the bias.
    let scale = f32::from_bits((t.to_bits() << 23).wrapping_add(0x3F80_0000));
    (q, scale)
}

/// `e^x`.
#[inline(always)]
fn exp<const FMA: bool>(x: f32) -> f32 {
    let (q, scale) = exp_reduced::<FMA>(x);
    let y = (q + 1.0) * scale;
    // Out of range the reduction above is garbage; the selects replace it.
    // A NaN compares false both times and keeps the NaN in `y`.
    let y = if x < EXP_LO { 0.0 } else { y };
    if x > EXP_HI {
        f32::INFINITY
    } else {
        y
    }
}

/// `tanh(x)` as `expm1(2|x|) / (expm1(2|x|) + 2)` with the sign copied
/// back: odd by construction, exact for tiny and subnormal `x`.
#[inline(always)]
fn tanh1<const FMA: bool>(x: f32) -> f32 {
    let a = x.abs();
    let a = if a > TANH_SAT { TANH_SAT } else { a };
    let (q, scale) = exp_reduced::<FMA>(a + a);
    let em1 = fma::<FMA>(scale, q, scale - 1.0);
    (em1 / (em1 + 2.0)).copysign(x)
}

/// `(e, 1/(1+e))` with `e = e^(-2u)`, `u = GELU_C·(x + GELU_A·x³)`: the
/// GELU's logistic form, `0.5·(1 + tanh u) = 1/(1+e)`. `x` must already be
/// clamped to `±GELU_SAT`, which keeps `e` inside `[1e-9, 1e9]`.
#[inline(always)]
fn gelu_logistic<const FMA: bool>(x: f32) -> (f32, f32) {
    let z = (x * (-2.0 * GELU_C)) * fma::<FMA>(x * x, GELU_A, 1.0);
    let (q, scale) = exp_reduced::<FMA>(z);
    let e = (q + 1.0) * scale;
    (e, 1.0 / (1.0 + e))
}

/// `x` limited to `±GELU_SAT`; a NaN passes through.
#[inline(always)]
fn gelu_clamp(x: f32) -> f32 {
    let x = if x > GELU_SAT { GELU_SAT } else { x };
    if x < -GELU_SAT {
        -GELU_SAT
    } else {
        x
    }
}

/// One elementwise function of `N` operands: branch-free scalar code that
/// [`map_body`]'s loop vectorizes.
trait Kernel<const N: usize>: Copy {
    fn apply<const FMA: bool>(self, x: [f32; N]) -> f32;
}

#[derive(Clone, Copy)]
struct Gelu;
impl Kernel<1> for Gelu {
    #[inline(always)]
    fn apply<const FMA: bool>(self, [x]: [f32; 1]) -> f32 {
        let (e, _) = gelu_logistic::<FMA>(gelu_clamp(x));
        if x < -GELU_SAT {
            0.0
        } else {
            x / (1.0 + e)
        }
    }
}

#[derive(Clone, Copy)]
struct GeluBackward;
impl Kernel<2> for GeluBackward {
    #[inline(always)]
    fn apply<const FMA: bool>(self, [x, dy]: [f32; 2]) -> f32 {
        // gelu' = s·(1 + (e·s)·2x·u'(x)); e·s is 1 - s without the
        // cancellation near s = 1.
        let xc = gelu_clamp(x);
        let (e, s) = gelu_logistic::<FMA>(xc);
        let k = (xc * (2.0 * GELU_C)) * fma::<FMA>(xc * xc, 3.0 * GELU_A, 1.0);
        let g = s * fma::<FMA>(e * s, k, 1.0);
        dy * if x < -GELU_SAT { 0.0 } else { g }
    }
}

#[derive(Clone, Copy)]
struct Tanh;
impl Kernel<1> for Tanh {
    #[inline(always)]
    fn apply<const FMA: bool>(self, [x]: [f32; 1]) -> f32 {
        tanh1::<FMA>(x)
    }
}

#[derive(Clone, Copy)]
struct TanhBackward;
impl Kernel<2> for TanhBackward {
    #[inline(always)]
    fn apply<const FMA: bool>(self, [x, dy]: [f32; 2]) -> f32 {
        let t = tanh1::<FMA>(x);
        dy * (1.0 - t * t)
    }
}

#[derive(Clone, Copy)]
struct ExpSub(f32);
impl Kernel<1> for ExpSub {
    #[inline(always)]
    fn apply<const FMA: bool>(self, [x]: [f32; 1]) -> f32 {
        exp::<FMA>(x - self.0)
    }
}

/// The 512-bit size line: the dispatched kernels run slices of at least
/// this many elements on the AVX-512 clone and shorter ones on the
/// AVX2+FMA clone (the two agree bit for bit). The compiler unrolls the
/// 16-lane loop, and a slice shorter than its unrolled step runs as the
/// scalar remainder. Measured (Xeon, avx512f, 2.1 GHz, ns per call, 256-bit
/// against 512-bit clone): `gelu` 70 / 112–152 at 32 elements, 113–139 /
/// 154–192 at 128, 197–250 / 216–224 at 256, 344–451 / 337–401 at 512,
/// 3 423 / 2 399 at 4 096; `gelu'` alike; `exp` 54 / 28–31 at 96, even
/// below; `adam_step` even everywhere. Below the line sit the side
/// network's `[rows, h/4]` activations of the serve workloads; above it
/// the feed-forward's `[rows, 4h]`. Softmax runs its `exp` on its own
/// clone whatever the block size.
const WIDE_MAP_LEN: usize = 256;

/// The clone the dispatched kernels run on a slice of `len` elements: the
/// probed one, except under [`WIDE_MAP_LEN`].
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn probed_for(len: usize) -> Isa {
    match Isa::probed() {
        #[cfg(target_arch = "x86_64")]
        Isa(Level::Avx512) if len < WIDE_MAP_LEN => Isa(Level::Avx2Fma),
        isa => isa,
    }
}

/// `out[i] = k(xs[0][i], …)`.
#[inline(always)]
fn map_body<const FMA: bool, const N: usize, K: Kernel<N>>(k: K, xs: [&[f32]; N], out: &mut [f32]) {
    // Re-slicing to `out.len()` lets the compiler drop the bounds checks.
    let xs = xs.map(|x| &x[..out.len()]);
    for (i, o) in out.iter_mut().enumerate() {
        *o = k.apply::<FMA>(xs.map(|x| x[i]));
    }
}

/// AVX2+FMA clone of [`map_body`].
///
/// # Safety
/// Caller must hold an [`Isa`] of at least AVX2+FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn map_avx2<const N: usize, K: Kernel<N>>(k: K, xs: [&[f32]; N], out: &mut [f32]) {
    map_body::<true, N, K>(k, xs, out);
}

/// AVX-512 clone of [`map_body`]: sixteen lanes of the AVX2 clone's
/// recurrence.
///
/// # Safety
/// Caller must hold the AVX-512 [`Isa`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn map_avx512<const N: usize, K: Kernel<N>>(k: K, xs: [&[f32]; N], out: &mut [f32]) {
    map_body::<true, N, K>(k, xs, out);
}

fn map<const N: usize, K: Kernel<N>>(isa: Isa, k: K, xs: [&[f32]; N], out: &mut [f32]) {
    for x in xs {
        assert_eq!(x.len(), out.len(), "elementwise operand length");
    }
    match isa.0 {
        // SAFETY (both arms): an `Isa` value is proof the CPU runs its
        // instruction set.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { map_avx512(k, xs, out) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Fma => unsafe { map_avx2(k, xs, out) },
        Level::Portable => map_body::<false, N, K>(k, xs, out),
    }
}

/// `x[i] = k(x[i])`: [`map`] of one operand over itself.
#[inline(always)]
fn map_in_place_body<const FMA: bool, K: Kernel<1>>(k: K, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = k.apply::<FMA>([*v]);
    }
}

/// AVX2+FMA clone of [`map_in_place_body`].
///
/// # Safety
/// As [`map_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn map_in_place_avx2<K: Kernel<1>>(k: K, x: &mut [f32]) {
    map_in_place_body::<true, K>(k, x);
}

/// AVX-512 clone of [`map_in_place_body`].
///
/// # Safety
/// As [`map_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn map_in_place_avx512<K: Kernel<1>>(k: K, x: &mut [f32]) {
    map_in_place_body::<true, K>(k, x);
}

fn map_in_place<K: Kernel<1>>(isa: Isa, k: K, x: &mut [f32]) {
    match isa.0 {
        // SAFETY (both arms): as in `map`.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { map_in_place_avx512(k, x) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Fma => unsafe { map_in_place_avx2(k, x) },
        Level::Portable => map_in_place_body::<false, K>(k, x),
    }
}

/// Tanh-approximated GELU, `out[i] = x[i] / (1 + e^(-2u(x[i])))` with
/// `u = √(2/π)·(x + 0.044715·x³)` — the same function as
/// `0.5·x·(1 + tanh u)`.
///
/// # Panics
/// Panics if the slice lengths differ (programming error).
pub fn gelu(x: &[f32], out: &mut [f32]) {
    gelu_on(probed_for(out.len()), x, out);
}

/// [`gelu`] on the clone `isa`.
pub fn gelu_on(isa: Isa, x: &[f32], out: &mut [f32]) {
    map(isa, Gelu, [x], out);
}

/// Fused GELU backward, `out[i] = dy[i] · gelu'(x[i])`.
///
/// # Panics
/// Panics if the slice lengths differ (programming error).
pub fn gelu_backward(x: &[f32], dy: &[f32], out: &mut [f32]) {
    gelu_backward_on(probed_for(out.len()), x, dy, out);
}

/// [`gelu_backward`] on the clone `isa`.
pub fn gelu_backward_on(isa: Isa, x: &[f32], dy: &[f32], out: &mut [f32]) {
    map(isa, GeluBackward, [x, dy], out);
}

/// `out[i] = tanh(x[i])`.
///
/// # Panics
/// Panics if the slice lengths differ (programming error).
pub fn tanh(x: &[f32], out: &mut [f32]) {
    tanh_on(probed_for(out.len()), x, out);
}

/// [`tanh`] on the clone `isa`.
pub fn tanh_on(isa: Isa, x: &[f32], out: &mut [f32]) {
    map(isa, Tanh, [x], out);
}

/// Fused tanh backward, `out[i] = dy[i] · (1 - tanh²(x[i]))`.
///
/// # Panics
/// Panics if the slice lengths differ (programming error).
pub fn tanh_backward(x: &[f32], dy: &[f32], out: &mut [f32]) {
    tanh_backward_on(probed_for(out.len()), x, dy, out);
}

/// [`tanh_backward`] on the clone `isa`.
pub fn tanh_backward_on(isa: Isa, x: &[f32], dy: &[f32], out: &mut [f32]) {
    map(isa, TanhBackward, [x, dy], out);
}

/// `out[i] = e^(x[i] - shift)`; `shift = 0.0` is plain `exp`.
///
/// # Panics
/// Panics if the slice lengths differ (programming error).
pub fn exp_sub(x: &[f32], shift: f32, out: &mut [f32]) {
    exp_sub_on(probed_for(out.len()), x, shift, out);
}

/// [`exp_sub`] on the clone `isa`.
pub fn exp_sub_on(isa: Isa, x: &[f32], shift: f32, out: &mut [f32]) {
    map(isa, ExpSub(shift), [x], out);
}

/// `x[i] = e^(x[i] - shift)`: [`exp_sub`] over its own input, bit for bit.
pub fn exp_sub_in_place(x: &mut [f32], shift: f32) {
    exp_sub_in_place_on(probed_for(x.len()), x, shift);
}

/// [`exp_sub_in_place`] on the clone `isa`.
pub fn exp_sub_in_place_on(isa: Isa, x: &mut [f32], shift: f32) {
    map_in_place(isa, ExpSub(shift), x);
}

/// The per-step constants of one Adam update.
#[derive(Clone, Copy, Debug)]
pub struct AdamCoeffs {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// First-moment bias correction `1 - β₁ᵗ`.
    pub bc1: f32,
    /// Second-moment bias correction `1 - β₂ᵗ`.
    pub bc2: f32,
}

#[inline(always)]
fn adam_body(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: AdamCoeffs) {
    for (((w, m), v), &g) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        *m = c.beta1 * *m + (1.0 - c.beta1) * g;
        *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
        let mhat = *m / c.bc1;
        let vhat = *v / c.bc2;
        *w -= c.lr * mhat / (vhat.sqrt() + c.eps);
    }
}

/// AVX2 clone of [`adam_body`] (eight lanes of the same exact operations).
///
/// # Safety
/// As [`map_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn adam_avx2(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: AdamCoeffs) {
    adam_body(w, m, v, g, c);
}

/// AVX-512 clone of [`adam_body`] (sixteen lanes).
///
/// # Safety
/// As [`map_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn adam_avx512(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: AdamCoeffs) {
    adam_body(w, m, v, g, c);
}

/// One Adam update of weights `w` with moments `m`, `v` and gradient `g`,
/// in a single pass. Every operation is an exactly rounded IEEE one (no
/// `mul_add`), so the result is bitwise the textbook three-loop update on
/// every CPU.
///
/// # Panics
/// Panics if the slice lengths differ (programming error).
pub fn adam_step(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], c: AdamCoeffs) {
    adam_step_on(probed_for(w.len()), w, m, v, g, c);
}

/// [`adam_step`] on the clone `isa`.
///
/// # Panics
/// As [`adam_step`].
pub fn adam_step_on(
    isa: Isa,
    w: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    g: &[f32],
    c: AdamCoeffs,
) {
    assert!(
        m.len() == w.len() && v.len() == w.len() && g.len() == w.len(),
        "adam_step operand length"
    );
    match isa.0 {
        // SAFETY (both arms): as in `map`.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { adam_avx512(w, m, v, g, c) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Fma => unsafe { adam_avx2(w, m, v, g, c) },
        Level::Portable => adam_body(w, m, v, g, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulps(a: f32, b: f32) -> u32 {
        if a == b {
            return 0;
        }
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs() as u32
    }

    fn grid() -> Vec<f32> {
        let mut xs: Vec<f32> = (-2400..=2400).map(|i| i as f32 * 0.005).collect();
        xs.extend([0.0, -0.0, 1e-40, -1e-40, 87.0, -87.0, 1e30, -1e30]);
        xs.extend([f32::INFINITY, f32::NEG_INFINITY]);
        xs
    }

    /// Every clone the CPU runs must agree with the portable one to
    /// FMA-rounding tolerance (bitwise when it *is* the portable one):
    /// 4 ULP for `exp`/`tanh`, `3e-6` absolute for the rest.
    #[test]
    fn portable_and_dispatched_clones_agree() {
        let xs = grid();
        let dy: Vec<f32> = (0..xs.len()).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut p = vec![0.0f32; xs.len()];
        let mut d = vec![0.0f32; xs.len()];
        let check = |what: &str, p: &[f32], d: &[f32], close: fn(f32, f32) -> bool| {
            for ((x, p), d) in xs.iter().zip(p).zip(d) {
                let same = p == d || (p.is_nan() && d.is_nan());
                assert!(same || close(*p, *d), "{what}({x}): {p} vs {d}");
            }
        };
        let ulp4: fn(f32, f32) -> bool = |p, d| ulps(p, d) <= 4;
        let abs3e6: fn(f32, f32) -> bool = |p, d| (p - d).abs() <= 3e-6;

        for isa in Isa::available() {
            map_body::<false, 1, _>(Tanh, [&xs], &mut p);
            tanh_on(isa, &xs, &mut d);
            check("tanh", &p, &d, ulp4);
            map_body::<false, 1, _>(ExpSub(0.0), [&xs], &mut p);
            exp_sub_on(isa, &xs, 0.0, &mut d);
            check("exp", &p, &d, ulp4);
            map_body::<false, 1, _>(Gelu, [&xs], &mut p);
            gelu_on(isa, &xs, &mut d);
            check("gelu", &p, &d, abs3e6);
            map_body::<false, 2, _>(GeluBackward, [&xs, &dy], &mut p);
            gelu_backward_on(isa, &xs, &dy, &mut d);
            check("gelu'", &p, &d, abs3e6);
            map_body::<false, 2, _>(TanhBackward, [&xs, &dy], &mut p);
            tanh_backward_on(isa, &xs, &dy, &mut d);
            check("tanh'", &p, &d, abs3e6);
        }
    }

    /// Adam uses exact operations only: every clone is bitwise equal.
    #[test]
    fn adam_clones_are_bitwise_equal() {
        let n = 37;
        let g: Vec<f32> = (0..n).map(|i| ((i * 37 % 19) as f32 - 9.0) / 7.0).collect();
        let c = AdamCoeffs {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            bc1: 0.1,
            bc2: 0.001,
        };
        let init = |s: f32| -> Vec<f32> { (0..n).map(|i| (i as f32 * s).sin()).collect() };
        let (mut w1, mut m1, mut v1) = (init(0.3), init(0.01), vec![0.5f32; n]);
        let start = (w1.clone(), m1.clone(), v1.clone());
        adam_body(&mut w1, &mut m1, &mut v1, &g, c);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for isa in Isa::available() {
            let (mut w2, mut m2, mut v2) = start.clone();
            adam_step_on(isa, &mut w2, &mut m2, &mut v2, &g, c);
            assert_eq!(bits(&w1), bits(&w2), "{isa:?}");
            assert_eq!(bits(&m1), bits(&m2), "{isa:?}");
            assert_eq!(bits(&v1), bits(&v2), "{isa:?}");
        }
    }
}
