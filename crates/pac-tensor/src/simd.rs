//! The register-tiled matmul microkernel: the implementation behind every
//! product in [`crate::ops`].
//!
//! One tile body (`tile`) holds an `MRS × NR` block of C in vector
//! accumulators across the whole k-loop, so each output element is stored
//! exactly once, each B vector load is amortized over `MRS` rows and the
//! bias is added in the store. The body is written once over the
//! `Vector` trait and compiled three times, each clone sizing the tile to
//! its register file:
//!
//! | clone     | tile  | accumulators | vector    | rounding per step  |
//! |-----------|-------|--------------|-----------|--------------------|
//! | portable  | 2×16  | 8 of 16 xmm  | [`f32x8`] | multiply, then add |
//! | AVX2+FMA  | 6×16  | 12 of 16 ymm | [`f32x8`] | one (`vfmadd`)     |
//! | AVX-512   | 8×32  | 16 of 32 zmm | `Zmm`   | one (`vfmadd`)     |
//!
//! [`f32x8`] is a `wide`-style safe lane type whose per-lane loops the
//! compiler collapses to packed instructions, and the AVX2+FMA clone is the
//! same lane code compiled under `#[target_feature]`. Sixteen lanes do not
//! survive that treatment, so `Zmm` alone wraps `std::arch` intrinsics.
//!
//! Every `MRS` of a clone is its own outlined function (row-major and
//! column-walking A are a const parameter as well): inlined into one driver
//! function the variants fight over registers, spill the accumulators and
//! the k-loop stops vectorizing. The clones sit behind fn-pointer tables
//! (`TileSet`) that the single strip driver (`sweep`) indexes by the rows
//! left in C.
//!
//! A product is a list of column strips (`Clones::strips`), left to right,
//! and a strip is the unit of work: `sweep` runs one strip of B down every
//! row of C, tile row after tile row, while the strip stays cache-resident.
//! Below the pooled-dispatch line of [`crate::ops`] (and for a product of a
//! single strip) `mm_tiled` runs the strips one after another on the
//! calling thread, reading the full strips of an untransposed B where they
//! lie; above it, it hands the pool one task per strip, and each task
//! packs its strip once into its thread's strip buffer — B is read once per
//! product at any pool width — and writes only its own columns of each row
//! of C. Which table serves a strip is observed from the platform and the
//! product, never set by a caller (features are probed once with
//! `is_x86_feature_detected!`):
//!
//! * a full 16-column strip runs the AVX2+FMA clone when the CPU has it,
//!   the portable clone otherwise;
//! * the ragged strip (`n % 16` columns) is copied into a zero-padded
//!   `k × 16` per-thread strip and runs the portable clone on every CPU:
//!   multiply-then-add in k order;
//! * **the 512-bit size line** is `Clones::of`: on `avx512f` CPUs a
//!   full 32-column strip runs the 8×32 clone when the whole product
//!   reaches `WIDE_TILE_FLOPS` = 2^18 FLOPs (`2·m·n·k`). Both sides are
//!   measured. PR 18 (2026-09, `tuning_ab` in `BENCH_PR18.json`): every
//!   backbone product of `pac_solo` is above the line, where the 512-bit
//!   tile takes `op_ms` from 0.71× of its parent's to 0.56×; every
//!   hidden-32 product of the serve workloads is below it, where the
//!   256-bit tile wins `serve_warm` by 1.7 % in 9 of 10 alternating pairs
//!   (`serve_churn`: 7 of 10, unresolved). Until PR 19 the line was the
//!   pooled-dispatch constant of [`crate::ops`], because both happened to
//!   be 2^18; they answer different questions — this one is *tile width
//!   against the rows and columns a product has*, that one *kernel time
//!   against a thread hand-off* — and moved apart when that one went to
//!   2^22: the 2^19–2^20 feed-forward products of `dist_world` and
//!   `multi_world` run inline now and still want the wide tile (PR 19,
//!   2026-10, `one_line_vs_two_lines` in `BENCH_PR19.json`: with this line
//!   riding up to 2^22 as well, `dist_world` `op_ms` is 3.10 against 2.98 ms,
//!   10 of 10 alternating pairs, `multi_world` 2.01 against 1.78, 4 of 4).
//!   Re-derive it by that A/B — `serve_warm` on one side, `dist_world` on
//!   the other — whenever a tile's shape changes.
//!
//! `C = A · Bᵀ` has no kernel of its own: the B rows of a strip are packed,
//! transposed, into the same `k × NR` per-thread strip and the `nn` tile runs
//! over it, so `matmul_nt(a, b) ≡ matmul(a, bᵀ)` bit for bit. The pack
//! transposes in registers (`pack_transposed`): the AVX-512 clone loads 16
//! rows of Bᵀ 16 k-values at a time, runs them through `transpose16` (the
//! network [`crate::reduce`] carries its row lanes with) and stores 16 whole
//! rows of the strip; then 8-row blocks through `transpose8`, the AVX2
//! clone's only block. The k-rows past the last block, the columns past the
//! last one and the portable clone store one float at a time. A pack only
//! moves values, so no bit depends on which path packed a strip: each
//! output still meets its A row and B column in the same k order on the
//! same tile. Measured on a 2-vCPU Xeon (avx512f): storing one float at a
//! time, `sweep` with the pack inlined took 8–9 % of `dist_world`'s CPU and
//! an `nt` product 1.4–1.8× the time of an `nn` one of its shapes; packed in
//! blocks, `sweep` and the pack take 3.7 % and `nt` 1.05–1.11× `nn`.
//!
//! **Panel-major B.** A weight that is frozen and only ever multiplies
//! from the right — the Parallel-Adapters backbone, which never gets a
//! gradient — is packed once into [`crate::ops::Panels`]: 32-column panels
//! of `k × 32` (`PANEL`), left to right, only the last zero-padded, each
//! starting on a 64-byte line: the pooled path's strip buffers, laid end to
//! end. `sweep` finds a strip of it in place at `ldb = PANEL` and offset
//! `(c0 / PANEL)·k·PANEL + c0 % PANEL`, on the inline and the pooled path
//! alike, the ragged strip too (its zero padding is in the last panel), and
//! never packs it. A strip starts at a multiple of its width, so a 16-column
//! strip never crosses a panel, and every tile meets the same A row and B
//! column in the same k order: the bits of the row-major product. Measured
//! on a 2-vCPU Xeon (avx512f): re-packing the backbone's strips was 12.5 %
//! of `pac_solo`'s op CPU (one `copy_from_slice` per pooled product, about
//! 12 MiB per forward); with the panels packed once, `pac_solo` `op_ms`
//! read ×0.957 (9 of 10 alternating pairs) and `cpu_ms_per_op` ×0.932, and
//! the traced PA forward 6.56 → 6.23 ms (`BENCH_PR51.json`). Reading the row-major B in place at its
//! 4 KiB stride instead, with no pack, cost +6.8 % `op_ms`.
//!
//! Every operand has a row stride (`lda`, `ldb`, `ldc`), so a product can
//! read and write blocks of wider matrices in place: the strip packing, the
//! direct-B path, the tile calls and the ragged copy-out all step rows by
//! it. A stride changes addresses only, never which elements meet in which
//! order, so a block's product is the dense product of its copy. Packing a
//! strip moves values the same way, so a pooled (packed) strip and an
//! inline (in-place) one produce the same bits.
//!
//! Determinism and accuracy: tiles and tasks partition output rows and
//! columns only, no reduction crosses a thread; every output element
//! accumulates over k in one fixed order whatever tile, task or clone it
//! lands in, so a result depends on its A row, its B column and `(k, n)`
//! alone — not on `m`, the row offset, the pool width or either size line.
//! The two FMA clones run the same recurrence on the same columns
//! (fused for columns `< n − n % 16`, multiply-then-add beyond), so **they
//! agree bitwise and AVX2 and AVX-512 ranks may share a world**; the
//! portable clone rounds twice per step everywhere, so bits differ between
//! the FMA and the non-FMA CPU class (see [`crate::ops`]). All stay within
//! the 2-ULP-per-accumulation-step bound validated against the
//! f64-accumulated [`crate::ops::matmul_ref`] in `tests/simd_tiled.rs`.
//!
//! The `unsafe` in this module is the calls into the `#[target_feature]`
//! clones, each guarded by its probe, the five intrinsics behind `Zmm`, and
//! C's rows. A vector can only be made by the `unsafe` `Vector::splat` /
//! `load`, so the probe obligation travels with the type: safe code cannot
//! reach an AVX-512 instruction. The tasks of a pooled product share every
//! row of C, so C travels as a raw pointer (`Out`) and a tile (or the
//! ragged copy-out) makes one slice per row that covers its own columns and
//! nothing else: no two live `&mut` overlap, and `mm_tiled` keeps the `&mut`
//! C it was given borrowed, unused, until every task has returned.

use crate::ops::{Bias, PAR_THRESHOLD_FLOPS};
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;
use core::ops::{Add, AddAssign, Mul, Range};
use rayon::prelude::*;
use std::cell::RefCell;

/// Columns of a 256-bit strip (two [`f32x8`] per row) and the granularity of
/// the fused/unfused column split.
const NR: usize = 16;
/// Tile height of the portable clone.
const MR_PORTABLE: usize = 2;
/// The 512-bit size line: a product of at least this many FLOPs (2·m·n·k)
/// runs its full 32-column strips on the 8×32 clone, see "the 512-bit size
/// line" in the module docs for the measurements that set it.
const WIDE_TILE_FLOPS: usize = 1 << 18;

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

/// What the microkernel needs from a vector register.
///
/// The two constructors are `unsafe` and everything that takes a value is
/// safe: holding a `V` is the proof that the CPU runs `V`'s instructions.
trait Vector: Copy + Add<Output = Self> {
    /// Lanes per register.
    const W: usize;
    /// # Safety
    /// The CPU must support the instruction set `Self` is written in.
    unsafe fn splat(v: f32) -> Self;
    /// Loads `W` consecutive floats from `src` (must hold ≥ `W`).
    ///
    /// # Safety
    /// As [`Vector::splat`].
    unsafe fn load(src: &[f32]) -> Self;
    /// Stores the lanes into `dst` (must hold ≥ `W`).
    fn store(self, dst: &mut [f32]);
    /// `self * b + c` per lane, rounded once if `FMA` and twice if not.
    fn mul_add<const FMA: bool>(self, b: Self, c: Self) -> Self;
}

impl Vector for f32x8 {
    const W: usize = 8;
    // Plain lane code: the constructors ask nothing of the CPU.
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        f32x8::splat(v)
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        f32x8::load(src)
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        f32x8::store(self, dst);
    }
    #[inline(always)]
    fn mul_add<const FMA: bool>(self, b: Self, c: Self) -> Self {
        self.mul_add_sel::<FMA>(b, c)
    }
}

/// One zmm register. Sixteen array lanes do not survive the optimizer the
/// way eight do (at 8×32 it spills the accumulators and turns the
/// column-walking k-loop into gathers), so this one type is written with
/// intrinsics.
///
/// Its methods execute AVX-512F instructions unconditionally. A value can
/// only come from the unsafe [`Vector::splat`] / [`Vector::load`], whose
/// caller vouches for the feature, so the safe methods on a value are sound.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Zmm(__m512);

#[cfg(target_arch = "x86_64")]
impl Add for Zmm {
    type Output = Zmm;
    #[inline(always)]
    fn add(self, rhs: Zmm) -> Zmm {
        // SAFETY: register-only arithmetic; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_add_ps(self.0, rhs.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Vector for Zmm {
    const W: usize = 16;
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        // SAFETY: register-only; the caller vouches for avx512f.
        Zmm(unsafe { _mm512_set1_ps(v) })
    }
    #[inline(always)]
    unsafe fn load(src: &[f32]) -> Self {
        let src = &src[..16];
        // SAFETY: `src` holds 16 floats and the load is unaligned; the
        // caller vouches for avx512f.
        Zmm(unsafe { _mm512_loadu_ps(src.as_ptr()) })
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        let dst = &mut dst[..16];
        // SAFETY: `dst` holds 16 floats and the store is unaligned; a `Zmm`
        // exists, so avx512f does.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
    }
    /// Always fused: this clone exists only on FMA hardware.
    #[inline(always)]
    fn mul_add<const FMA: bool>(self, b: Self, c: Self) -> Self {
        // SAFETY: register-only arithmetic; a `Zmm` exists, so avx512f does.
        Zmm(unsafe { _mm512_fmadd_ps(self.0, b.0, c.0) })
    }
}

/// Whether this CPU has AVX2+FMA (probed once, cached).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_fma() -> bool {
    use std::sync::OnceLock;
    static HAVE: OnceLock<bool> = OnceLock::new();
    *HAVE.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
}

/// Whether this CPU also has AVX-512F (probed once, cached).
#[cfg(target_arch = "x86_64")]
fn avx512() -> bool {
    use std::sync::OnceLock;
    static HAVE: OnceLock<bool> = OnceLock::new();
    *HAVE.get_or_init(|| avx2_fma() && is_x86_feature_detected!("avx512f"))
}

/// One clone of the elementwise kernels and the row reductions
/// ([`crate::elementwise`], [`crate::reduce`]): portable, AVX2+FMA or
/// AVX-512.
///
/// A value can only come from [`Isa::PORTABLE`], [`Isa::probed`] or
/// [`Isa::available`], so holding one is proof that this CPU runs its
/// instructions. The kernels run [`Isa::probed`]; the `_on` entry points
/// take a clone explicitly so tests can hold clones against each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Isa(pub(crate) Level);

/// The instruction sets behind an [`Isa`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Level {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The portable clone: runs on every CPU.
    pub const PORTABLE: Isa = Isa(Level::Portable);

    /// The widest clone this CPU runs (probed once, cached).
    pub fn probed() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if avx512() {
                return Isa(Level::Avx512);
            }
            if avx2_fma() {
                return Isa(Level::Avx2Fma);
            }
        }
        Isa::PORTABLE
    }

    /// `"portable"`, `"avx2+fma"` or `"avx512"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => "avx512",
        }
    }

    /// Every clone this CPU runs, narrowest first.
    pub fn available() -> Vec<Isa> {
        let mut all = vec![Isa::PORTABLE];
        #[cfg(target_arch = "x86_64")]
        {
            if avx2_fma() {
                all.push(Isa(Level::Avx2Fma));
            }
            if avx512() {
                all.push(Isa(Level::Avx512));
            }
        }
        all
    }
}

/// The 16×16 transpose: entry `j` of the result holds column `j` of the
/// rows `r`, lane `i` from row `i`.
///
/// # Safety
/// The CPU must run avx512f.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn transpose16(r: [__m512; 16]) -> [__m512; 16] {
    // SAFETY: register-only; the caller vouches for avx512f.
    unsafe {
        // Interleave row pairs: t[2p] lane k = (r[2p][4k], r[2p+1][4k],
        // r[2p][4k+1], r[2p+1][4k+1]), t[2p+1] the same for 4k+2, 4k+3.
        let mut t = [_mm512_setzero_ps(); 16];
        for p in 0..8 {
            t[2 * p] = _mm512_unpacklo_ps(r[2 * p], r[2 * p + 1]);
            t[2 * p + 1] = _mm512_unpackhi_ps(r[2 * p], r[2 * p + 1]);
        }
        // Pair the pairs: u[4g+c] lane k = column 4k+c of rows 4g..4g+4.
        let mut u = [_mm512_setzero_ps(); 16];
        for g in 0..4 {
            for h in 0..2 {
                let a = _mm512_castps_pd(t[4 * g + h]);
                let b = _mm512_castps_pd(t[4 * g + 2 + h]);
                u[4 * g + 2 * h] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, b));
                u[4 * g + 2 * h + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, b));
            }
        }
        // Gather 128-bit lane k of u[c], u[4+c], u[8+c], u[12+c] into
        // column 4k+c.
        let mut out = [_mm512_setzero_ps(); 16];
        for c in 0..4 {
            let s0 = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
            let s1 = _mm512_shuffle_f32x4::<0xDD>(u[c], u[4 + c]);
            let s2 = _mm512_shuffle_f32x4::<0x88>(u[8 + c], u[12 + c]);
            let s3 = _mm512_shuffle_f32x4::<0xDD>(u[8 + c], u[12 + c]);
            out[c] = _mm512_shuffle_f32x4::<0x88>(s0, s2);
            out[4 + c] = _mm512_shuffle_f32x4::<0x88>(s1, s3);
            out[8 + c] = _mm512_shuffle_f32x4::<0xDD>(s0, s2);
            out[12 + c] = _mm512_shuffle_f32x4::<0xDD>(s1, s3);
        }
        out
    }
}

/// The 8×8 transpose: entry `j` of the result holds column `j` of the rows
/// `r`, lane `i` from row `i`.
///
/// # Safety
/// The CPU must run avx.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    // SAFETY: register-only; the caller vouches for avx.
    unsafe {
        // As `transpose16`, with two 128-bit lanes per register.
        let mut t = [_mm256_setzero_ps(); 8];
        for p in 0..4 {
            t[2 * p] = _mm256_unpacklo_ps(r[2 * p], r[2 * p + 1]);
            t[2 * p + 1] = _mm256_unpackhi_ps(r[2 * p], r[2 * p + 1]);
        }
        let mut u = [_mm256_setzero_ps(); 8];
        for g in 0..2 {
            for h in 0..2 {
                let a = _mm256_castps_pd(t[4 * g + h]);
                let b = _mm256_castps_pd(t[4 * g + 2 + h]);
                u[4 * g + 2 * h] = _mm256_castpd_ps(_mm256_unpacklo_pd(a, b));
                u[4 * g + 2 * h + 1] = _mm256_castpd_ps(_mm256_unpackhi_pd(a, b));
            }
        }
        let mut out = [_mm256_setzero_ps(); 8];
        for c in 0..4 {
            out[c] = _mm256_permute2f128_ps::<0x20>(u[c], u[4 + c]);
            out[4 + c] = _mm256_permute2f128_ps::<0x31>(u[c], u[4 + c]);
        }
        out
    }
}

/// One column strip of a product, as a tile sees it: `B[kk, j] =
/// b[kk * ldb + j]` for the tile's columns `j`.
#[derive(Clone, Copy)]
struct Strip<'a> {
    b: &'a [f32],
    ldb: usize,
    k: usize,
    /// The strip's slice of the bias (holds at least a tile's width).
    bias: Option<&'a [f32]>,
}

/// The microkernel: one `MRS × 2·W` register tile of `C = A · B (+ bias)`.
///
/// `a` starts at the tile's first A element and `c` points at its first C
/// element (row stride `ldc`). With `COLS = false` A is row-major
/// (`A[r, kk] = a[r * lda + kk]`, the row slices hoisted out of the
/// k-loop); with `COLS = true` it is walked column-wise for `C = Aᵀ · B`
/// (`A[r, kk] = a[kk * lda + r]`, `MRS` contiguous floats per step). `MRS`
/// is a const so the accumulators live in registers and the inner loops
/// fully unroll.
///
/// # Safety
/// The CPU must support the instruction set `V` is written in, and `c`
/// must be valid for writes of `2·W` floats at `c + r·ldc` for every
/// `r < MRS`, none of which any live reference may cover.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the store loop: see its comment
unsafe fn tile<V: Vector, const MRS: usize, const FMA: bool, const COLS: bool>(
    a: &[f32],
    lda: usize,
    s: Strip<'_>,
    c: *mut f32,
    ldc: usize,
) {
    let rows: [&[f32]; MRS] =
        core::array::from_fn(|r| if COLS { a } else { &a[r * lda..r * lda + s.k] });
    // SAFETY (every `V::splat` and `V::load` below): the caller's contract.
    let mut acc = [[unsafe { V::splat(0.0) }; 2]; MRS];
    for kk in 0..s.k {
        let brow = &s.b[kk * s.ldb..kk * s.ldb + 2 * V::W];
        let bv = unsafe { [V::load(brow), V::load(&brow[V::W..])] };
        let acol = if COLS {
            &a[kk * lda..kk * lda + MRS]
        } else {
            a
        };
        for r in 0..MRS {
            let av = unsafe { V::splat(if COLS { acol[r] } else { rows[r][kk] }) };
            for v in 0..2 {
                acc[r][v] = av.mul_add::<FMA>(bv[v], acc[r][v]);
            }
        }
    }
    // Indexed, not iterated: borrowing `acc` keeps a copy of it on the stack
    // that the k-loop then stores to on every step.
    for r in 0..MRS {
        // SAFETY: the caller's contract: these `2·W` floats are this tile's.
        let crow = unsafe { core::slice::from_raw_parts_mut(c.add(r * ldc), 2 * V::W) };
        for v in 0..2 {
            // The bias joins only after the full k-accumulation.
            let x = match s.bias {
                Some(bias) => acc[r][v] + unsafe { V::load(&bias[v * V::W..]) },
                None => acc[r][v],
            };
            x.store(&mut crow[v * V::W..]);
        }
    }
}

/// An outlined tile: the fn-pointer type the [`TileSet`] tables hold.
type TileFn = unsafe fn(&[f32], usize, Strip<'_>, *mut f32, usize);

/// One clone of the microkernel: its tiles by row count, for both A
/// layouts. `row_major[i]` and `col_walk[i]` are the `(i + 1)`-row tiles, so
/// the table length is the clone's tile height.
struct TileSet {
    /// Columns per tile.
    nr: usize,
    row_major: &'static [TileFn],
    col_walk: &'static [TileFn],
}

/// Portable clone: `MRS × 16` over `f32x8` pairs, multiply-then-add.
///
/// # Safety
/// `c` as for [`tile`]; the instructions run on any CPU.
#[inline(never)]
unsafe fn tile_portable<const MRS: usize, const COLS: bool>(
    a: &[f32],
    lda: usize,
    s: Strip<'_>,
    c: *mut f32,
    ldc: usize,
) {
    // SAFETY: `f32x8` compiled without target features runs anywhere; `c`
    // is the caller's contract.
    unsafe { tile::<f32x8, MRS, false, COLS>(a, lda, s, c, ldc) }
}

/// AVX2+FMA clone: `MRS × 16` in ymm accumulators.
///
/// # Safety
/// Caller must have verified AVX2 and FMA support (see [`avx2_fma`]); `c`
/// as for [`tile`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline(never)]
unsafe fn tile_avx2<const MRS: usize, const COLS: bool>(
    a: &[f32],
    lda: usize,
    s: Strip<'_>,
    c: *mut f32,
    ldc: usize,
) {
    // SAFETY: the caller's contract covers this function's target features
    // and `c`.
    unsafe { tile::<f32x8, MRS, true, COLS>(a, lda, s, c, ldc) }
}

/// AVX-512 clone: `MRS × 32` in zmm accumulators.
///
/// # Safety
/// Caller must have verified AVX-512F, AVX2 and FMA support (see
/// [`avx512`]); `c` as for [`tile`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline(never)]
unsafe fn tile_avx512<const MRS: usize, const COLS: bool>(
    a: &[f32],
    lda: usize,
    s: Strip<'_>,
    c: *mut f32,
    ldc: usize,
) {
    // SAFETY: the caller's contract is `Zmm`'s, and covers `c`.
    unsafe { tile::<Zmm, MRS, true, COLS>(a, lda, s, c, ldc) }
}

/// The tiles of clone `$f` for 1, 2, … rows, one A layout.
macro_rules! tiles {
    ($f:ident, $cols:literal, $($mrs:literal)+) => {
        &[$($f::<$mrs, $cols> as TileFn),+]
    };
}

static PORTABLE: TileSet = TileSet {
    nr: NR,
    row_major: tiles!(tile_portable, false, 1 2),
    col_walk: tiles!(tile_portable, true, 1 2),
};

#[cfg(target_arch = "x86_64")]
static AVX2: TileSet = TileSet {
    nr: NR,
    row_major: tiles!(tile_avx2, false, 1 2 3 4 5 6),
    col_walk: tiles!(tile_avx2, true, 1 2 3 4 5 6),
};

#[cfg(target_arch = "x86_64")]
static AVX512: TileSet = TileSet {
    nr: 2 * NR,
    row_major: tiles!(tile_avx512, false, 1 2 3 4 5 6 7 8),
    col_walk: tiles!(tile_avx512, true, 1 2 3 4 5 6 7 8),
};

/// Which clones serve a product: `fused` its full 16-column strips, `wide`
/// (when present) its full 32-column strips; the ragged strip is always
/// [`PORTABLE`]'s.
#[derive(Clone, Copy)]
struct Clones {
    fused: &'static TileSet,
    wide: Option<&'static TileSet>,
}

impl Clones {
    /// The clones of `isa` for a product of `flops` (`2·m·n·k`): the one
    /// place the size line is drawn. An `Isa` is proof the CPU runs it.
    fn of(isa: Isa, flops: usize) -> Clones {
        match isa.0 {
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => Clones {
                fused: &AVX2,
                wide: (flops >= WIDE_TILE_FLOPS).then_some(&AVX512),
            },
            #[cfg(target_arch = "x86_64")]
            Level::Avx2Fma => Clones {
                fused: &AVX2,
                wide: None,
            },
            Level::Portable => Clones {
                fused: &PORTABLE,
                wide: None,
            },
        }
    }
}

/// One product: the operands' flat slices, their row strides and how they
/// are laid out. A dense operand's stride is its row length; a block of a
/// wider matrix (one attention head's columns of a `[rows, d]` tensor) has
/// the wider matrix's.
#[derive(Clone, Copy)]
pub(crate) struct Product<'a> {
    pub(crate) a: &'a [f32],
    /// `A[r, kk] = a[r * lda + kk]`, or `a[kk * lda + r]` when `a_cols`.
    pub(crate) lda: usize,
    /// A is walked column-wise: `C = Aᵀ · B`.
    pub(crate) a_cols: bool,
    pub(crate) b: &'a [f32],
    /// `B[kk, c] = b[kk * ldb + c]`, `b[c * ldb + kk]` when B is
    /// [`Layout::Transposed`], and `b[(c / PANEL)·k·PANEL + kk·PANEL + c % PANEL]`
    /// when it is [`Layout::Panels`] (`ldb = PANEL`).
    pub(crate) ldb: usize,
    pub(crate) b_layout: Layout,
    pub(crate) bias: Bias<'a>,
    pub(crate) k: usize,
    pub(crate) n: usize,
}

/// How B is stored.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// Row-major `[k, n]`: `C = A · B`.
    Rows,
    /// Row-major `[n, k]`: `C = A · Bᵀ`.
    Transposed,
    /// `[k, n]` packed once into `k × PANEL` panels (see [`PANEL`]): every
    /// strip is read in place, never packed.
    Panels,
}

/// Columns of one panel of a pre-packed B: the widest strip, so every strip
/// of a product lies inside one panel. Panels run left to right, `k × PANEL`
/// floats each, the last zero-padded on the right, the first starting on a
/// 64-byte line (so, since `k·PANEL` floats is a whole number of lines,
/// every one does).
pub(crate) const PANEL: usize = 2 * NR;

/// Packs the row-major `[k, n]` matrix `b` into panels: returns the buffer
/// and the index of its first panel's first float, which lies on a 64-byte
/// line.
pub(crate) fn pack_panels(b: &[f32], k: usize, n: usize) -> (Vec<f32>, usize) {
    let panels = n.div_ceil(PANEL);
    let mut data = vec![0.0f32; panels * k * PANEL + 15];
    let at = data.as_ptr().align_offset(64).min(15);
    for (kk, row) in b.chunks_exact(n.max(1)).take(k).enumerate() {
        for (p, src) in row.chunks(PANEL).enumerate() {
            let dst = at + p * k * PANEL + kk * PANEL;
            data[dst..dst + src.len()].copy_from_slice(src);
        }
    }
    (data, at)
}

/// A strip-wide zero bias: what [`Bias::Zero`] adds.
static ZERO_BIAS: [f32; 2 * NR] = [0.0; 2 * NR];

/// Fills the `k × nr` `strip` with columns `c0 .. c0 + cols` of B,
/// zero-padded on the right so the padding multiplies to exact zeros.
fn pack_strip(p: Product<'_>, c0: usize, cols: usize, nr: usize, strip: &mut [f32]) {
    if p.b_layout == Layout::Transposed {
        if cols < nr {
            strip.fill(0.0);
        }
        let src = Packing {
            // Clamped: B is empty at k = 0.
            bt: &p.b[(c0 * p.ldb).min(p.b.len())..],
            ldb: p.ldb,
            k: p.k,
            cols,
            nr,
        };
        pack_transposed(Isa::probed(), src, strip);
    } else {
        for (kk, dst) in strip.chunks_exact_mut(nr).enumerate() {
            let src = &p.b[kk * p.ldb + c0..kk * p.ldb + c0 + cols];
            dst[..cols].copy_from_slice(src);
            dst[cols..].fill(0.0);
        }
    }
}

/// Packs rows `0 .. cols` of `src.bt` (`k` floats each, row stride `ldb`)
/// as the columns of the `k × nr` `strip`: `strip[kk·nr + j] = bt[j·ldb +
/// kk]`. Columns `cols .. nr` are left as they are.
///
/// The lane clones transpose `L × L` blocks in registers (`L` = 16 on
/// AVX-512, then 8 for what is left; 8 on AVX2): `L` rows of `bt` are
/// loaded `L` k-values at a time and stored as `L` whole rows of the
/// strip. The k-rows past the last block, the columns past the last one
/// and every column on the portable clone run the scalar loop.
fn pack_transposed(isa: Isa, src: Packing<'_>, strip: &mut [f32]) {
    let done = match isa.0 {
        // SAFETY (both arms): an `Isa` value is proof the CPU runs its
        // instruction set.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { pack_avx512(src, strip) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Fma => unsafe { pack_avx2(src, strip) },
        Level::Portable => 0,
    };
    scatter(src, done..src.cols, 0..src.k, strip);
}

/// What [`pack_transposed`] reads, and the strip's row length.
#[derive(Clone, Copy)]
struct Packing<'a> {
    bt: &'a [f32],
    ldb: usize,
    k: usize,
    cols: usize,
    nr: usize,
}

/// The scalar loop of [`pack_transposed`]: columns `js` of the strip over
/// its k-rows `ks`, sixteen k-rows at a time, so the block of the strip
/// stays in L1 while each row of `bt` contributes one cache line to it.
fn scatter(p: Packing<'_>, js: Range<usize>, ks: Range<usize>, strip: &mut [f32]) {
    for k0 in ks.clone().step_by(16) {
        let k1 = (k0 + 16).min(ks.end);
        for j in js.clone() {
            for (t, &v) in p.bt[j * p.ldb + k0..j * p.ldb + k1].iter().enumerate() {
                strip[(k0 + t) * p.nr + j] = v;
            }
        }
    }
}

/// An `L × L` transpose in registers: `dst[t·ldd + i] = src[i·lds + t]`.
#[cfg(target_arch = "x86_64")]
trait Block {
    const L: usize;
    /// # Safety
    /// The CPU must run the instruction set the impl is written in.
    unsafe fn transpose(src: &[f32], lds: usize, dst: &mut [f32], ldd: usize);
}

/// The 16 × 16 block, through [`transpose16`] (AVX-512F).
#[cfg(target_arch = "x86_64")]
struct By16;

#[cfg(target_arch = "x86_64")]
impl Block for By16 {
    const L: usize = 16;
    #[inline(always)]
    unsafe fn transpose(src: &[f32], lds: usize, dst: &mut [f32], ldd: usize) {
        // One check per operand instead of one per row: row `i < 16` of
        // either ends at `i·ld + 16 ≤ 15·ld + 16`, inside the slice.
        let (src, dst) = (&src[..15 * lds + 16], &mut dst[..15 * ldd + 16]);
        // SAFETY: the caller vouches for avx512f; every unaligned load and
        // store is of 16 floats of `src` or `dst`, by the check above.
        unsafe {
            let mut r = [_mm512_setzero_ps(); 16];
            for (i, r) in r.iter_mut().enumerate() {
                *r = _mm512_loadu_ps(src.as_ptr().add(i * lds));
            }
            for (t, v) in transpose16(r).into_iter().enumerate() {
                _mm512_storeu_ps(dst.as_mut_ptr().add(t * ldd), v);
            }
        }
    }
}

/// The 8 × 8 block, through [`transpose8`] (AVX).
#[cfg(target_arch = "x86_64")]
struct By8;

#[cfg(target_arch = "x86_64")]
impl Block for By8 {
    const L: usize = 8;
    #[inline(always)]
    unsafe fn transpose(src: &[f32], lds: usize, dst: &mut [f32], ldd: usize) {
        // One check per operand instead of one per row: row `i < 8` of
        // either ends at `i·ld + 8 ≤ 7·ld + 8`, inside the slice.
        let (src, dst) = (&src[..7 * lds + 8], &mut dst[..7 * ldd + 8]);
        // SAFETY: the caller vouches for avx; every unaligned load and
        // store is of 8 floats of `src` or `dst`, by the check above.
        unsafe {
            let mut r = [_mm256_setzero_ps(); 8];
            for (i, r) in r.iter_mut().enumerate() {
                *r = _mm256_loadu_ps(src.as_ptr().add(i * lds));
            }
            for (t, v) in transpose8(r).into_iter().enumerate() {
                _mm256_storeu_ps(dst.as_mut_ptr().add(t * ldd), v);
            }
        }
    }
}

/// Packs whole `B::L`-column groups from column `j0` on, each over every
/// k-row (the k-rows past the last block by [`scatter`]), and returns the
/// first column it left.
///
/// # Safety
/// The CPU must run the instruction set of `B`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pack_blocks<B: Block>(p: Packing<'_>, mut j0: usize, strip: &mut [f32]) -> usize {
    let kb = p.k - p.k % B::L;
    while j0 + B::L <= p.cols {
        for k0 in (0..kb).step_by(B::L) {
            let (src, dst) = (&p.bt[j0 * p.ldb + k0..], &mut strip[k0 * p.nr + j0..]);
            // SAFETY: the caller's contract.
            unsafe { B::transpose(src, p.ldb, dst, p.nr) };
        }
        scatter(p, j0..j0 + B::L, kb..p.k, strip);
        j0 += B::L;
    }
    j0
}

/// [`pack_blocks`] by 16, then by 8.
///
/// # Safety
/// The CPU must run AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn pack_avx512(p: Packing<'_>, strip: &mut [f32]) -> usize {
    // SAFETY: this function's target features.
    unsafe {
        let j0 = pack_blocks::<By16>(p, 0, strip);
        pack_blocks::<By8>(p, j0, strip)
    }
}

/// [`pack_blocks`] by 8.
///
/// # Safety
/// The CPU must run AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn pack_avx2(p: Packing<'_>, strip: &mut [f32]) -> usize {
    // SAFETY: this function's target features.
    unsafe { pack_blocks::<By8>(p, 0, strip) }
}

/// One column strip of a product: columns `c0 .. c0 + cols` on the tiles of
/// `set`. Only the ragged last strip has `cols < set.nr`.
#[derive(Clone, Copy)]
struct Unit {
    c0: usize,
    cols: usize,
    set: &'static TileSet,
}

impl Clones {
    /// The column strips of an `n`-column product, left to right: full
    /// 32-column strips on the wide clone (when there is one), then 16-column
    /// strips, then the ragged tail on the portable clone.
    fn strips(self, n: usize) -> impl Iterator<Item = Unit> {
        let mut c0 = 0;
        std::iter::from_fn(move || {
            let left = n.checked_sub(c0).filter(|&left| left > 0)?;
            let (set, cols) = match self.wide {
                Some(wide) if left >= wide.nr => (wide, wide.nr),
                _ if left >= NR => (self.fused, NR),
                _ => (&PORTABLE, left),
            };
            let unit = Unit { c0, cols, set };
            c0 += cols;
            Some(unit)
        })
    }
}

/// C as the units of one product share it: row `r` starts at `ptr + r·ldc`.
/// A unit writes its own columns of each row and nothing else, through
/// slices made for those columns alone.
#[derive(Clone, Copy)]
struct Out {
    ptr: *mut f32,
    ldc: usize,
}

// SAFETY: an `Out` is shared only among the units of one product, which
// write disjoint columns, and `mm_tiled` keeps the `&mut` it was made from
// borrowed, and unused, until every unit has returned.
unsafe impl Send for Out {}
unsafe impl Sync for Out {}

/// One unit of work: columns `u.c0 .. u.c0 + u.cols` of all `m` rows of the
/// product into `c`, tile row after tile row over the one strip of B (which
/// stays cache-resident while every row sweeps it). A panel B holds every
/// strip, the ragged one with its zero padding, where the tiles read it.
/// Otherwise the strip is packed into `packed` (which only grows) when
/// `pack` asks for it, when B is stored transposed and for the ragged
/// strip, and read where it lies in B when not. Packing moves values, never
/// which ones meet in which order, so it does not change a bit.
///
/// # Safety
/// The CPU must have the target features of `u.set`, and `c` must be valid
/// for writes to columns `u.c0 .. u.c0 + u.cols` of rows `0 .. m`, which
/// nothing else may access during the call.
unsafe fn sweep(p: Product<'_>, m: usize, u: Unit, c: Out, pack: bool, packed: &mut Vec<f32>) {
    let Unit { c0, cols, set } = u;
    let k = p.k;
    // The ragged strip runs full-width tiles on padded operands into a
    // padded block of C, of which the live columns are copied out.
    let ragged = cols < set.nr;
    let (b, ldb) = if p.b_layout == Layout::Panels {
        // A strip starts at a multiple of its width, so it lies inside panel
        // `c0 / PANEL` (clamped, as below: B is empty at k = 0).
        let at = (c0 / PANEL) * k * PANEL + c0 % PANEL;
        (&p.b[at.min(p.b.len())..], PANEL)
    } else if pack || p.b_layout == Layout::Transposed || ragged {
        if packed.len() < k * set.nr + 15 {
            packed.resize(k * set.nr + 15, 0.0);
        }
        // The strip starts on a cache line, so no 512-bit row load of the
        // tile's k-loop straddles two: `nt` over `nn` at `[64,128]·[32,128]ᵀ`,
        // timed in pairs in one process, 1.19 → 1.13.
        let at = packed.as_ptr().align_offset(64).min(15);
        let strip = &mut packed[at..at + k * set.nr];
        pack_strip(p, c0, cols, set.nr, strip);
        (&*strip, set.nr)
    } else {
        // Clamped (here and for A below): both operands are empty at k = 0.
        (&p.b[c0.min(p.b.len())..], p.ldb)
    };
    let mut bias_pad = [0.0f32; NR];
    let bias = match p.bias {
        Bias::None => None,
        Bias::Zero => Some(&ZERO_BIAS[..]),
        Bias::Row(bias) if ragged => {
            bias_pad[..cols].copy_from_slice(&bias[c0..]);
            Some(&bias_pad[..])
        }
        Bias::Row(bias) => Some(&bias[c0..]),
    };
    let s = Strip { b, ldb, k, bias };
    let tiles = if p.a_cols {
        set.col_walk
    } else {
        set.row_major
    };
    let mut ri = 0;
    while ri < m {
        let mrs = (m - ri).min(tiles.len());
        let a0 = if p.a_cols { ri } else { ri * p.lda };
        let (a, tile) = (&p.a[a0.min(p.a.len())..], tiles[mrs - 1]);
        // SAFETY: row `ri < m`, column `c0 < n`: inside C by the contract.
        let at = unsafe { c.ptr.add(ri * c.ldc + c0) };
        // SAFETY (both tile calls): `set` is PORTABLE (any CPU) or has the
        // features the caller vouches for.
        if ragged {
            let mut block = [0.0f32; MR_PORTABLE * NR];
            // SAFETY: `block` holds the tile's `mrs ≤ MR_PORTABLE` rows of
            // NR floats and nothing else refers to it.
            unsafe { tile(a, p.lda, s, block.as_mut_ptr(), NR) };
            for (r, brow) in block.chunks(NR).take(mrs).enumerate() {
                // SAFETY: columns `c0 .. c0 + cols` of row `ri + r` are
                // this unit's by the contract.
                let crow = unsafe { core::slice::from_raw_parts_mut(at.add(r * c.ldc), cols) };
                crow.copy_from_slice(&brow[..cols]);
            }
        } else {
            // SAFETY: a full strip's tile writes its `set.nr = cols`
            // columns of rows `ri .. ri + mrs`: this unit's by the contract.
            unsafe { tile(a, p.lda, s, at, c.ldc) };
        }
        ri += mrs;
    }
}

/// Every unit of `p` on the calling thread, left to right.
///
/// # Safety
/// As [`sweep`], for columns `0 .. p.n`.
unsafe fn sweep_all(clones: Clones, p: Product<'_>, m: usize, c: Out, pack: bool) {
    STRIP.with_borrow_mut(|packed| {
        for u in clones.strips(p.n) {
            // SAFETY: the caller's contract.
            unsafe { sweep(p, m, u, c, pack, packed) }
        }
    });
}

thread_local! {
    /// This thread's packed strip of B, kept at the largest `k × NR` it has
    /// served plus the 15 floats that let it start on a cache line. It is
    /// not taken from [`crate::scratch`]: a best-fit search of the free list
    /// per product cost the hidden-32 serve burst 12 %.
    static STRIP: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The entry of every product: `m` rows of `p` into `out`, row `r` at
/// `out[r * ldc ..]` (`ldc = p.n` when C is dense). `out` ends at the last
/// row's `n`-th column; the columns of a row past `n` belong to someone
/// else and are never touched.
///
/// Below [`PAR_THRESHOLD_FLOPS`], or with a single column strip, the units
/// run on the calling thread, reading full strips of an untransposed B in
/// place. Above it they fan out over the pool, one task per unit, each
/// packing its strip once and sweeping every row: B is read once per
/// product, whatever the pool width.
///
/// `isa` is the widest clone the product may run (the size line still
/// decides between the 512- and the 256-bit tile): [`Isa::probed`] for
/// every product of the layers, another clone where a test holds them
/// against each other.
pub(crate) fn mm_tiled(isa: Isa, p: Product<'_>, m: usize, out: &mut [f32], ldc: usize) {
    if m == 0 || p.n == 0 {
        return;
    }
    assert!(
        ldc >= p.n && out.len() >= (m - 1) * ldc + p.n,
        "C of {} floats cannot hold {m} rows of {} at stride {ldc}",
        out.len(),
        p.n
    );
    let flops = 2 * m * p.n * p.k;
    let clones = Clones::of(isa, flops);
    let c = Out {
        ptr: out.as_mut_ptr(),
        ldc,
    };
    // SAFETY (both branches): an `Isa` is proof the CPU runs its clones;
    // `out` holds columns `0 .. n` of rows `0 .. m` (asserted above) and
    // stays borrowed, untouched, until the units return; the units
    // partition the columns, so no two write the same element.
    if flops < PAR_THRESHOLD_FLOPS || clones.strips(p.n).nth(1).is_none() {
        unsafe { sweep_all(clones, p, m, c, false) };
    } else {
        let units: Vec<Unit> = clones.strips(p.n).collect();
        units.par_iter().for_each(|&u| {
            STRIP.with_borrow_mut(|packed| unsafe { sweep(p, m, u, c, true, packed) })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init, rng::seeded};

    #[test]
    fn f32x8_lane_arithmetic() {
        let a = f32x8::splat(2.0);
        let b = f32x8::load(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let c = a * b + f32x8::splat(1.0);
        let mut out = [0.0f32; 8];
        c.store(&mut out);
        assert_eq!(out, [3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0]);
        let d = a.mul_add_sel::<false>(b, f32x8::splat(1.0));
        assert_eq!(d.0, c.0);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `nn` (with bias), `tn` and `nt` of one `(m, k, n)` through the given
    /// clones on this thread, every strip packed when `pack`, concatenated.
    ///
    /// Safety: the CPU must have the features of `clones`.
    unsafe fn products(clones: Clones, m: usize, k: usize, n: usize, pack: bool) -> Vec<f32> {
        let mut rng = seeded((m * 10_007 + k * 101 + n) as u64);
        let a = init::randn(&mut rng, [m, k], 1.0);
        let b = init::randn(&mut rng, [k, n], 1.0);
        let bias = init::randn(&mut rng, [n], 1.0);
        let (at, bt) = (a.transpose_2d(), b.transpose_2d());
        let nn = Product {
            a: a.data(),
            lda: k,
            a_cols: false,
            b: b.data(),
            ldb: n,
            b_layout: Layout::Rows,
            bias: Bias::Row(bias.data()),
            k,
            n,
        };
        let tn = Product {
            a: at.data(),
            lda: m,
            a_cols: true,
            bias: Bias::None,
            ..nn
        };
        let nt = Product {
            b: bt.data(),
            ldb: k,
            b_layout: Layout::Transposed,
            bias: Bias::None,
            ..nn
        };
        let mut out = vec![0.0f32; 3 * m * n];
        for (p, chunk) in [nn, tn, nt].into_iter().zip(out.chunks_mut(m * n)) {
            let c = Out {
                ptr: chunk.as_mut_ptr(),
                ldc: n,
            };
            unsafe { sweep_all(clones, p, m, c, pack) };
        }
        out
    }

    /// The edge shapes of `tests/simd_tiled.rs`, plus every column count
    /// around the 16- and 32-wide strip boundaries at tile-height remainders.
    fn edge_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1, 1, 1),
            (4, 8, 16),
            (5, 9, 17),
            (3, 7, 15),
            (4, 16, 4),
            (6, 64, 48),
            (33, 65, 31),
            (64, 64, 64),
            (128, 96, 130),
        ];
        for n in [13, 16, 17, 31, 32, 33, 48] {
            shapes.extend([(7, 23, n), (17, 40, n)]);
        }
        shapes
    }

    #[test]
    fn avx2_and_avx512_clones_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            let narrow = Clones {
                fused: &AVX2,
                wide: None,
            };
            let wide = Clones {
                wide: Some(&AVX512),
                ..narrow
            };
            for (m, k, n) in edge_shapes() {
                // SAFETY: avx512() vouches for both clones.
                let (got, want) = unsafe {
                    (
                        products(wide, m, k, n, false),
                        products(narrow, m, k, n, false),
                    )
                };
                assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n}");
            }
            return;
        }
        println!("skipped: this CPU has no avx512f, so there is one FMA clone to run");
    }

    #[test]
    fn portable_and_dispatched_chunks_agree_within_tolerance() {
        // Whichever clones the probes pick, at any remainder of their tile
        // heights (2, 6 and 8), they must agree with the portable clone to
        // FMA-rounding tolerance. The size line is lifted so that the wide
        // clone, where there is one, runs too.
        let portable = Clones {
            fused: &PORTABLE,
            wide: None,
        };
        let dispatched = Clones::of(Isa::probed(), usize::MAX);
        let (k, n) = (23, 70);
        for m in [1, 2, 5, 6, 7, 8, 9, 13, 17] {
            // SAFETY: PORTABLE is safe code; `probed` detected the rest.
            let (p, d) = unsafe {
                (
                    products(portable, m, k, n, false),
                    products(dispatched, m, k, n, false),
                )
            };
            for (p, d) in p.iter().zip(d.iter()) {
                assert!((p - d).abs() <= 1e-4, "m = {m}: {p} vs {d}");
            }
        }
    }

    #[test]
    fn packed_strips_equal_strips_read_in_place_bitwise() {
        // A pooled product packs every strip, an inline one reads the full
        // strips of an untransposed B where they lie: same bits either way.
        let clones = Clones::of(Isa::probed(), usize::MAX);
        for (m, k, n) in edge_shapes() {
            // SAFETY: `probed` detected its clones.
            let (packed, in_place) = unsafe {
                (
                    products(clones, m, k, n, true),
                    products(clones, m, k, n, false),
                )
            };
            assert_eq!(bits(&packed), bits(&in_place), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn register_pack_equals_scalar_pack_on_every_clone() {
        // Sources strided past their k (`ldb > k`) and starting past B's
        // first column, every k around the 8- and 16-row blocks and every
        // column count of both strip widths: each clone's pack must write
        // the portable pack's floats, and only those.
        for isa in Isa::available() {
            for nr in [NR, 2 * NR] {
                for k in [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 64] {
                    for cols in 1..=nr {
                        let (c0, ldb) = (3, k + 5);
                        let b: Vec<f32> = (0..(c0 + cols) * ldb).map(|i| i as f32).collect();
                        let src = Packing {
                            bt: &b[c0 * ldb..],
                            ldb,
                            k,
                            cols,
                            nr,
                        };
                        let mut want = vec![-1.0f32; k * nr];
                        let mut got = want.clone();
                        pack_transposed(Isa::PORTABLE, src, &mut want);
                        pack_transposed(isa, src, &mut got);
                        let label = format!("{} nr {nr} k {k} cols {cols}", isa.name());
                        assert_eq!(bits(&got), bits(&want), "{label}");
                        for (kk, row) in want.chunks(nr).enumerate() {
                            for (j, &v) in row.iter().enumerate() {
                                let at = (c0 + j) * ldb + kk;
                                let expect = if j < cols { b[at] } else { -1.0 };
                                assert_eq!(v, expect, "{label} at [{kk},{j}]");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strips_cover_every_column_once_in_order() {
        let clones = Clones::of(Isa::probed(), usize::MAX);
        for n in [0, 1, 15, 16, 17, 31, 32, 33, 48, 70, 1024] {
            let mut next = 0;
            for u in clones.strips(n) {
                assert_eq!(u.c0, next, "n = {n}");
                assert!(u.cols > 0 && u.cols <= u.set.nr, "n = {n}");
                next += u.cols;
            }
            assert_eq!(next, n);
        }
    }
}
