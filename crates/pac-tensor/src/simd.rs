//! Register-tiled matmul kernels: the implementation behind every product in
//! [`crate::ops`].
//!
//! The kernels hold a small register tile of C in [`f32x8`] accumulators
//! across the whole k-loop, so each output element is loaded and stored
//! exactly once and each B vector load is amortized over [`MR`] rows.
//!
//! [`f32x8`] is a `wide`-style safe lane type: a `#[repr(align(32))]`
//! wrapper over `[f32; 8]` whose per-lane loops the compiler collapses to
//! packed vector instructions at `opt-level ≥ 2` on any SSE2-class target
//! (no `std::arch` intrinsics). On x86-64 the chunk kernels additionally
//! carry a runtime-dispatched AVX2+FMA clone: the *same* lane code compiled
//! under `#[target_feature(enable = "avx2,fma")]`, where the per-lane
//! `mul_add` lowers to `vfmadd` instead of a libm call. Feature presence is
//! probed once with `is_x86_64_feature_detected!`; targets without AVX2/FMA
//! (and non-x86 targets) always take the portable clone — the choice is
//! observed from the platform, never set by a caller. The only `unsafe` in
//! this module is the calls into those `#[target_feature]` functions, each
//! guarded by that probe.
//!
//! Determinism and accuracy: tiles partition output rows and columns only;
//! every output element accumulates over k in one fixed order whatever tile
//! it lands in (an [`MR`]-row tile and a 1-row remainder tile run the same
//! per-element recurrence), so a result depends on its A row, its B column
//! and `(k, n)` alone — not on `m`, the row offset, or the pool width. The
//! FMA clone rounds once per multiply-add where the portable clone rounds
//! twice, so bits differ *across CPU classes* (see [`crate::ops`]). Both
//! stay within the 2-ULP-per-accumulation-step bound validated against the
//! f64-accumulated [`crate::ops::matmul_ref`] in `tests/simd_tiled.rs`.

use crate::ops::dispatch;
use core::ops::{Add, AddAssign, Mul};

/// Rows per register tile: each k-step broadcasts `MR` A elements against
/// the same pair of B vectors, so B traffic is cut `MR`-fold.
pub(crate) const MR: usize = 4;
/// Columns per register tile (two `f32x8` lanes).
pub(crate) const NR: usize = 16;

/// Eight `f32` lanes with 32-byte alignment.
///
/// All arithmetic is element-wise and safe; the fixed-size loops compile
/// to packed SSE/AVX instructions. The name follows the `wide`/`std::simd`
/// convention for portable lane types.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, align(32))]
pub struct f32x8(pub [f32; 8]);

impl f32x8 {
    /// All-zero vector.
    pub const ZERO: f32x8 = f32x8([0.0; 8]);

    /// Broadcasts `v` into every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        f32x8([v; 8])
    }

    /// Loads eight consecutive floats from `src` (must hold ≥ 8).
    #[inline(always)]
    pub fn load(src: &[f32]) -> Self {
        let mut out = [0.0f32; 8];
        out.copy_from_slice(&src[..8]);
        f32x8(out)
    }

    /// Stores the eight lanes into `dst` (must hold ≥ 8).
    #[inline(always)]
    pub fn store(self, dst: &mut [f32]) {
        dst[..8].copy_from_slice(&self.0);
    }

    /// `self * b + c` per lane. With `FMA = true` this uses `f32::mul_add`
    /// (one rounding; lowers to `vfmadd` — only reachable from the
    /// `#[target_feature(enable = "fma")]` clones, where it is a single
    /// instruction rather than a libm call). With `FMA = false` it is a
    /// separate multiply and add (two roundings, plain packed ops).
    #[inline(always)]
    pub fn mul_add_sel<const FMA: bool>(self, b: f32x8, c: f32x8) -> f32x8 {
        f32x8(core::array::from_fn(|i| {
            if FMA {
                self.0[i].mul_add(b.0[i], c.0[i])
            } else {
                self.0[i] * b.0[i] + c.0[i]
            }
        }))
    }

    /// Sum of all eight lanes, reduced pairwise over a fixed tree.
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let v = self.0;
        ((v[0] + v[4]) + (v[2] + v[6])) + ((v[1] + v[5]) + (v[3] + v[7]))
    }
}

impl Add for f32x8 {
    type Output = f32x8;
    #[inline(always)]
    fn add(self, rhs: f32x8) -> f32x8 {
        f32x8(core::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
}

impl AddAssign for f32x8 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: f32x8) {
        *self = *self + rhs;
    }
}

impl Mul for f32x8 {
    type Output = f32x8;
    #[inline(always)]
    fn mul(self, rhs: f32x8) -> f32x8 {
        f32x8(core::array::from_fn(|i| self.0[i] * rhs.0[i]))
    }
}

/// Whether this CPU has AVX2+FMA (probed once, cached).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_fma() -> bool {
    use std::sync::OnceLock;
    static HAVE: OnceLock<bool> = OnceLock::new();
    *HAVE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

/// Geometry of one matmul chunk: all fields are indices into flat slices.
///
/// `A[r, kk] = ad[r * a_row_stride + kk * a_k_stride]` — row-major A for
/// `C = A·B`, column-walking A for `C = Aᵀ·B`.
#[derive(Clone, Copy)]
struct MmGeom {
    k: usize,
    n: usize,
    a_row_stride: usize,
    a_k_stride: usize,
    /// First output row of this chunk (offset into A's rows).
    r0: usize,
}

/// One `MRS`×[`NR`] register tile of `C += A · B`: `MRS` is a const so the
/// accumulator array lives in registers and the inner loop fully unrolls.
#[inline(always)]
fn tile_mrxnr<const MRS: usize, const FMA: bool>(
    ad: &[f32],
    bd: &[f32],
    g: MmGeom,
    ri: usize,
    c0: usize,
    chunk: &mut [f32],
) {
    let a_base = (g.r0 + ri) * g.a_row_stride;
    let mut acc = [[f32x8::ZERO; 2]; MRS];
    for kk in 0..g.k {
        let brow = kk * g.n + c0;
        let b0 = f32x8::load(&bd[brow..]);
        let b1 = f32x8::load(&bd[brow + 8..]);
        for (r, accr) in acc.iter_mut().enumerate() {
            let a = f32x8::splat(ad[a_base + r * g.a_row_stride + kk * g.a_k_stride]);
            accr[0] = a.mul_add_sel::<FMA>(b0, accr[0]);
            accr[1] = a.mul_add_sel::<FMA>(b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = (ri + r) * g.n + c0;
        accr[0].store(&mut chunk[crow..]);
        accr[1].store(&mut chunk[crow + 8..]);
    }
}

/// Scalar edge for the columns `c0..n` (tail narrower than [`NR`]).
#[inline(always)]
fn tile_edge(
    ad: &[f32],
    bd: &[f32],
    g: MmGeom,
    ri: usize,
    rows: usize,
    c0: usize,
    chunk: &mut [f32],
) {
    for r in 0..rows {
        let a_base = (g.r0 + ri + r) * g.a_row_stride;
        let crow = &mut chunk[(ri + r) * g.n + c0..(ri + r + 1) * g.n];
        for kk in 0..g.k {
            let aik = ad[a_base + kk * g.a_k_stride];
            let brow = &bd[kk * g.n + c0..kk * g.n + g.n];
            for (c, bv) in crow.iter_mut().zip(brow.iter()) {
                *c += aik * bv;
            }
        }
    }
}

/// Tiles one dispatch chunk of `C = A · B (+ bias)` / `C = Aᵀ · B`.
#[inline(always)]
fn mm_chunk_body<const FMA: bool>(
    ad: &[f32],
    bd: &[f32],
    biasd: Option<&[f32]>,
    g: MmGeom,
    chunk: &mut [f32],
) {
    let n = g.n;
    let rows = chunk.len() / n;
    let n_main = n - n % NR;
    let mut ri = 0;
    while ri < rows {
        let mr = (rows - ri).min(MR);
        for c0 in (0..n_main).step_by(NR) {
            match mr {
                4 => tile_mrxnr::<4, FMA>(ad, bd, g, ri, c0, chunk),
                3 => tile_mrxnr::<3, FMA>(ad, bd, g, ri, c0, chunk),
                2 => tile_mrxnr::<2, FMA>(ad, bd, g, ri, c0, chunk),
                _ => tile_mrxnr::<1, FMA>(ad, bd, g, ri, c0, chunk),
            }
        }
        if n_main < n {
            tile_edge(ad, bd, g, ri, mr, n_main, chunk);
        }
        ri += mr;
    }
    if let Some(bias) = biasd {
        for ri in 0..rows {
            let crow = &mut chunk[ri * n..(ri + 1) * n];
            for (c, bv) in crow.iter_mut().zip(bias.iter()) {
                *c += bv;
            }
        }
    }
}

/// AVX2+FMA clone of [`mm_chunk_body`].
///
/// # Safety
/// Caller must have verified AVX2 and FMA support (see [`avx2_fma`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mm_chunk_avx(
    ad: &[f32],
    bd: &[f32],
    biasd: Option<&[f32]>,
    g: MmGeom,
    chunk: &mut [f32],
) {
    mm_chunk_body::<true>(ad, bd, biasd, g, chunk);
}

#[inline]
fn mm_chunk(ad: &[f32], bd: &[f32], biasd: Option<&[f32]>, g: MmGeom, chunk: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: avx2_fma() verified both required target features.
        unsafe { mm_chunk_avx(ad, bd, biasd, g, chunk) };
        return;
    }
    mm_chunk_body::<false>(ad, bd, biasd, g, chunk);
}

/// Shared driver of the tiled `C = A · B` (+ bias) and `C = Aᵀ · B`
/// kernels: the two differ only in how `A[r, kk]` is addressed, captured
/// by the strides in `g` (whose `r0` is overwritten per chunk).
fn mm_tiled_strided(
    ad: &[f32],
    bd: &[f32],
    biasd: Option<&[f32]>,
    m: usize,
    g: MmGeom,
    out: &mut [f32],
) {
    let kernel = |r0: usize, chunk: &mut [f32]| {
        mm_chunk(ad, bd, biasd, MmGeom { r0, ..g }, chunk);
    };
    dispatch(out, g.n, 2 * m * g.n * g.k, kernel);
}

/// Tiled `C[m,n] = A[m,k] · B[k,n] (+ bias)`.
pub(crate) fn mm_bias_tiled(
    ad: &[f32],
    bd: &[f32],
    biasd: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let g = MmGeom {
        k,
        n,
        a_row_stride: k,
        a_k_stride: 1,
        r0: 0,
    };
    mm_tiled_strided(ad, bd, biasd, m, g, out);
}

/// Tiled `C[m,n] = A[k,m]ᵀ · B[k,n]`: same microkernel with A addressed
/// column-wise (`A[r, kk] = ad[kk * m + r]`).
pub(crate) fn tn_tiled(ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let g = MmGeom {
        k,
        n,
        a_row_stride: 1,
        a_k_stride: m,
        r0: 0,
    };
    mm_tiled_strided(ad, bd, None, m, g, out);
}

/// One row of `C = A · Bᵀ` against `NRD` B rows at once: `NRD` independent
/// vector accumulators over the shared k-walk, horizontally summed at the
/// end (a multi-accumulator dot has no serial `acc +=` dependency chain).
#[inline(always)]
fn dot_tile<const NRD: usize, const FMA: bool>(
    arow: &[f32],
    bd: &[f32],
    k: usize,
    c0: usize,
    crow: &mut [f32],
) {
    let k_main = k - k % 8;
    let brows: [&[f32]; NRD] = core::array::from_fn(|j| &bd[(c0 + j) * k..(c0 + j + 1) * k]);
    let mut acc = [f32x8::ZERO; NRD];
    for kk in (0..k_main).step_by(8) {
        let av = f32x8::load(&arow[kk..]);
        for j in 0..NRD {
            let bv = f32x8::load(&brows[j][kk..]);
            acc[j] = av.mul_add_sel::<FMA>(bv, acc[j]);
        }
    }
    for (j, a) in acc.iter().enumerate() {
        let mut s = a.hsum();
        // k-tail: scalar, appended after the vector partial sums.
        for kk in k_main..k {
            s += arow[kk] * brows[j][kk];
        }
        crow[c0 + j] = s;
    }
}

/// Tiles one dispatch chunk of `C = A · Bᵀ`.
#[inline(always)]
fn nt_chunk_body<const FMA: bool>(
    ad: &[f32],
    bd: &[f32],
    k: usize,
    n: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    let rows = chunk.len() / n;
    let n_main = n - n % MR;
    for ri in 0..rows {
        let arow = &ad[(r0 + ri) * k..(r0 + ri + 1) * k];
        let crow = &mut chunk[ri * n..(ri + 1) * n];
        for c0 in (0..n_main).step_by(MR) {
            dot_tile::<MR, FMA>(arow, bd, k, c0, crow);
        }
        for c0 in n_main..n {
            dot_tile::<1, FMA>(arow, bd, k, c0, crow);
        }
    }
}

/// AVX2+FMA clone of [`nt_chunk_body`].
///
/// # Safety
/// Caller must have verified AVX2 and FMA support (see [`avx2_fma`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn nt_chunk_avx(ad: &[f32], bd: &[f32], k: usize, n: usize, r0: usize, chunk: &mut [f32]) {
    nt_chunk_body::<true>(ad, bd, k, n, r0, chunk);
}

/// Tiled `C[m,n] = A[m,k] · B[n,k]ᵀ` (B row-major, i.e. dot products of
/// contiguous rows).
pub(crate) fn nt_tiled(ad: &[f32], bd: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let kernel = |r0: usize, chunk: &mut [f32]| {
        #[cfg(target_arch = "x86_64")]
        if avx2_fma() {
            // SAFETY: avx2_fma() verified both required target features.
            unsafe { nt_chunk_avx(ad, bd, k, n, r0, chunk) };
            return;
        }
        nt_chunk_body::<false>(ad, bd, k, n, r0, chunk);
    };
    dispatch(out, n, 2 * m * n * k, kernel);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32x8_lane_arithmetic() {
        let a = f32x8::splat(2.0);
        let b = f32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let c = a * b + f32x8::splat(1.0);
        let mut out = [0.0f32; 8];
        c.store(&mut out);
        assert_eq!(out, [3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0]);
        assert_eq!(b.hsum(), 36.0);
        let d = a.mul_add_sel::<false>(b, f32x8::splat(1.0));
        assert_eq!(d.0, c.0);
    }

    #[test]
    fn portable_and_dispatched_chunks_agree_within_tolerance() {
        // Whichever clone the runtime dispatch picks, it must agree with
        // the portable body to FMA-rounding tolerance.
        let k = 23;
        let n = 37;
        let rows = 9;
        let ad: Vec<f32> = (0..rows * k)
            .map(|i| ((i * 37 % 97) as f32 - 48.0) / 31.0)
            .collect();
        let bd: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) / 29.0)
            .collect();
        let g = MmGeom {
            k,
            n,
            a_row_stride: k,
            a_k_stride: 1,
            r0: 0,
        };
        let mut portable = vec![0.0f32; rows * n];
        mm_chunk_body::<false>(&ad, &bd, None, g, &mut portable);
        let mut dispatched = vec![0.0f32; rows * n];
        mm_chunk(&ad, &bd, None, g, &mut dispatched);
        for (p, d) in portable.iter().zip(dispatched.iter()) {
            assert!((p - d).abs() <= 1e-4, "{p} vs {d}");
        }
    }
}
