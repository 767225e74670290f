//! Runtime-dispatched dot-product kernels for the matching sweep.
//!
//! The matrix–matrix sweep in [`matching`](crate::matching) reduces every
//! `(candidate, reference)` pair to one dense dot product over packed
//! `f32` rows. This module owns that kernel — and is the **only** place in
//! the crate where `unsafe` is permitted (the crate is otherwise
//! `#![deny(unsafe_code)]`; here it is scoped to the SIMD intrinsics with
//! per-site safety comments).
//!
//! Three implementations exist, selected once per process:
//!
//! * **AVX2 + FMA** (`x86`/`x86_64`): 8-lane `f32` fused multiply-adds,
//!   four independent vector accumulators (32 floats in flight per
//!   iteration). Chosen at runtime via `is_x86_feature_detected!`, so a
//!   binary compiled for the baseline target still uses it on capable
//!   hosts.
//! * **NEON** (`aarch64`): 4-lane `f32` FMA with four accumulators.
//! * **Portable**: an 8-way unrolled scalar loop with independent partial
//!   sums — auto-vectorisable on the baseline ISA and the proof text for
//!   the property tests that pin all paths to each other.
//!
//! All paths compute the same mathematical sum with different association
//! orders; results agree within a small multiple of `f32` rounding (see
//! the kernel-equivalence property tests in `tests/proptests.rs`). Scores
//! derived from these dots are accumulated in `f64` by the caller and are
//! covered by [`F32_SCORE_TOLERANCE`](crate::matching::F32_SCORE_TOLERANCE).
//! Both SIMD paths finish their row with a **masked tail** (AVX2
//! `maskload`, NEON via a zero-padded stack temporary) instead of a
//! scalar remainder loop, so a 251-bin row is 8 vector iterations, no
//! scalar epilogue.
//!
//! # Integer kernels for the quantized tier
//!
//! The [`RowPrecision::U8`](crate::matching::RowPrecision) storage tier
//! (see [`matching`](crate::matching)) holds rows as `u8` codes in
//! `0..=`[`QUANT_MAX`]. Its dot products are **exact** integer sums —
//! every dispatch path computes bit-identical `u32` results, so the
//! quantized sweeps need no cross-kernel tolerance:
//!
//! * **AVX2** (`x86`/`x86_64`): `maddubs` multiplies 32 `u8×i8` pairs and
//!   adds adjacent products into `i16`; capping codes at [`QUANT_MAX`]` =
//!   127` keeps every pair sum `≤ 2·127² = 32 258 < i16::MAX`, so the
//!   pairwise add cannot saturate. A `madd`-by-ones then widens to `i32`
//!   accumulators.
//! * **NEON** (`aarch64`): widening `vmull_u8` multiplies (`u8×u8 → u16`,
//!   exact) folded pairwise into `u32` accumulators via `vpadalq_u16`.
//!   (ARMv8.2 `udot` is the natural upgrade once an aarch64 host is in
//!   the validation loop.)
//! * **Portable**: an 8-way unrolled `u8 → u32` widening loop.
//!
//! The quantized *sweeps* do not call these row dots. The tier stores
//! each block column-major (one column of codes per bin, one lane per
//! resident slot), and [`dot_u8_columns`] scores one candidate against
//! every slot of a block at once: for each **non-zero** candidate code
//! `c_j` it adds `c_j · column_j` into the per-slot sums. Traffic
//! histograms occupy a handful of their bins, so a sweep reads a few
//! columns instead of every byte of every row. The loop is safe,
//! portable code that the compiler vectorises, and its sums are exact,
//! so every slot's dot is bit-equal to [`dot_u8`] on the gathered row.

// The one sanctioned escape from the crate-wide `deny(unsafe_code)`:
// SIMD intrinsics are unavoidably unsafe (raw-pointer loads + target
// features); every unsafe block below carries a safety comment.
#![allow(unsafe_code)]
// The SIMD intrinsics modules are designed for wildcard import, and
// kernel-local names follow BLAS convention (a/b operands, ap/bp
// pointers, n length).
#![allow(clippy::wildcard_imports, clippy::many_single_char_names)]

use std::sync::OnceLock;

#[cfg(target_arch = "x86")]
use std::arch::x86::__m256i;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256i;

/// Which dot kernel the runtime dispatch selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// 8-lane AVX2 with fused multiply-add (`x86`/`x86_64`, detected at
    /// runtime).
    Avx2Fma,
    /// 4-lane NEON with fused multiply-add (aarch64).
    Neon,
    /// The unrolled scalar fallback.
    Portable,
}

impl KernelKind {
    /// A short stable name for logs and bench snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Avx2Fma => "avx2+fma",
            KernelKind::Neon => "neon",
            KernelKind::Portable => "portable",
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Signature of a dispatched dot kernel: equal-length slices to a scalar.
pub type DotFn = fn(&[f32], &[f32]) -> f32;

/// The kernel selected for this host (detection runs once, then the
/// choice is cached for the process lifetime).
pub fn active() -> KernelKind {
    select().0
}

/// Dot product of two equal-length `f32` slices through the selected
/// kernel. If the lengths differ, the shorter length is used (the matrix
/// sweep only ever passes equal lengths; `debug_assert`ed).
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    (select().1)(a, b)
}

/// The selected kernel as a plain function pointer, so hot loops hoist
/// the dispatch out of the per-row sweep.
#[inline]
pub(crate) fn dot_fn() -> DotFn {
    select().1
}

fn select() -> &'static (KernelKind, DotFn) {
    static SELECTED: OnceLock<(KernelKind, DotFn)> = OnceLock::new();
    SELECTED.get_or_init(|| {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return (KernelKind::Avx2Fma, dot_f32_avx2_entry as DotFn);
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            return (KernelKind::Neon, dot_f32_neon_entry as DotFn);
        }
        (KernelKind::Portable, dot_f32_portable as DotFn)
    })
}

/// Largest quantized code the `u8` storage tier emits: rows are scaled so
/// their maximum frequency maps to `QUANT_MAX`.
///
/// 127 (7 bits) rather than 255 is a kernel constraint, not a precision
/// choice: AVX2 `maddubs` adds adjacent `u8×i8` products into `i16`, and
/// `2 · 127 · 127 = 32 258 ≤ i16::MAX` is the largest cap for which that
/// pairwise add can never saturate (both operands also stay valid as
/// *signed* bytes, which the instruction requires of one side).
pub const QUANT_MAX: u8 = 127;

/// Which integer dot kernel the runtime dispatch selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntKernelKind {
    /// AVX2 `maddubs` + `madd` widening path (`x86`/`x86_64`).
    Avx2Maddubs,
    /// NEON widening-multiply path (`vmull_u8` + `vpadalq_u16`).
    NeonWiden,
    /// The unrolled scalar widening fallback.
    Portable,
}

impl IntKernelKind {
    /// A short stable name for logs and bench snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            IntKernelKind::Avx2Maddubs => "avx2+maddubs",
            IntKernelKind::NeonWiden => "neon+widen",
            IntKernelKind::Portable => "portable",
        }
    }
}

impl std::fmt::Display for IntKernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Signature of a dispatched integer dot kernel.
pub type DotU8Fn = fn(&[u8], &[u8]) -> u32;

/// The integer kernel selected for this host.
pub fn active_int() -> IntKernelKind {
    select_int().0
}

/// Exact integer dot product of two equal-length `u8` slices through the
/// selected kernel. Every dispatch path returns the identical `u32` (the
/// sum is exact), so quantized scores carry no cross-kernel variance.
#[inline]
pub fn dot_u8(a: &[u8], b: &[u8]) -> u32 {
    (select_int().1)(a, b)
}

/// Exact integer dots of one candidate code row against every slot of a
/// column-major `u8` block: `cols[j * cap + s]` is bin `j` of slot `s`,
/// `cand.len()` bins of `cap` lanes each, and `out.len() <= cap` slots
/// are scored. Each `out[s]` is overwritten with `Σ_j cand[j] · cols[j *
/// cap + s]`, accumulated one non-zero candidate code at a time, so the
/// cost scales with the candidate's occupied bins, not its width. The
/// sums are exact, so `out[s]` equals [`dot_u8`] of `cand` and slot `s`'s
/// gathered row bit for bit.
pub fn dot_u8_columns(cand: &[u8], cols: &[u8], cap: usize, out: &mut [u32]) {
    debug_assert_eq!(cols.len(), cand.len() * cap);
    debug_assert!(out.len() <= cap);
    out.fill(0);
    let slots = out.len();
    if slots == 0 {
        return;
    }
    for (&code, col) in cand.iter().zip(cols.chunks_exact(cap)) {
        if code == 0 {
            continue;
        }
        let code = u32::from(code);
        for (dot, &x) in out.iter_mut().zip(&col[..slots]) {
            *dot += code * u32::from(x);
        }
    }
}

fn select_int() -> &'static (IntKernelKind, DotU8Fn) {
    static SELECTED: OnceLock<(IntKernelKind, DotU8Fn)> = OnceLock::new();
    SELECTED.get_or_init(|| {
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return (IntKernelKind::Avx2Maddubs, dot_u8_avx2_entry as DotU8Fn);
        }
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            return (IntKernelKind::NeonWiden, dot_u8_neon_entry as DotU8Fn);
        }
        (IntKernelKind::Portable, dot_u8_portable as DotU8Fn)
    })
}

/// Portable dot kernel: 8 independent partial sums give the backend the
/// instruction-level parallelism (and auto-vectorisation freedom) a
/// single-chain reduction denies it.
pub fn dot_f32_portable(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; 8];
    let chunks = n / 8 * 8;
    for (ca, cb) in a[..chunks].chunks_exact(8).zip(b[..chunks].chunks_exact(8)) {
        // Lane-indexed accumulators vectorise to two 4-lane mul+add per
        // chunk on the baseline ISA (a pairwise reduction tree here makes
        // LLVM chase per-accumulator identity through lane shuffles
        // inside the loop — keep the reduction linear and outside).
        for lane in 0..8 {
            acc[lane] += ca[lane] * cb[lane];
        }
    }
    let mut total = 0.0f32;
    for &lane_sum in &acc {
        total += lane_sum;
    }
    for (x, y) in a[chunks..].iter().zip(&b[chunks..]) {
        total += x * y;
    }
    total
}

/// Four-accumulator `f64` dot product — the PR-1 scalar kernel, retained
/// as the benchmark baseline for the f32-vs-f64 comparison and for
/// callers that still hold `f64` rows.
#[inline]
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; 4];
    let chunks = n / 4 * 4;
    for (ca, cb) in a[..chunks].chunks_exact(4).zip(b[..chunks].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    for (x, y) in a[chunks..].iter().zip(&b[chunks..]) {
        acc[0] += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
fn dot_f32_avx2_entry(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: this entry is only ever installed in the dispatch table
    // after `is_x86_feature_detected!` confirmed both `avx2` and `fma`
    // on the running CPU, so the target-feature contract holds.
    unsafe { dot_f32_avx2(a, b) }
}

/// AVX2+FMA kernel: 4 × 8-lane accumulators (32 multiply-adds in flight).
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2 and FMA.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_f32_avx2(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        // SAFETY: `i + 32 <= n` bounds every unaligned 8-lane load below
        // within the slices; `_mm256_loadu_ps` has no alignment
        // requirement.
        unsafe {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 16)),
                _mm256_loadu_ps(bp.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 24)),
                _mm256_loadu_ps(bp.add(i + 24)),
                acc3,
            );
        }
        i += 32;
    }
    while i + 8 <= n {
        // SAFETY: `i + 8 <= n` bounds the unaligned 8-lane loads.
        unsafe {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
        }
        i += 8;
    }
    let rem = n - i;
    if rem > 0 {
        // Masked tail instead of a scalar remainder loop: the mask
        // enables exactly the first `rem` lanes.
        // SAFETY: `_mm256_maskload_ps` performs no memory access on
        // masked-off lanes, so the 8-lane load never touches memory past
        // `a[n-1]` / `b[n-1]`; `rem < 8` indexes `TAIL_MASKS` in bounds.
        unsafe {
            let mask = _mm256_loadu_si256(TAIL_MASKS[rem].as_ptr().cast());
            acc0 = _mm256_fmadd_ps(
                _mm256_maskload_ps(ap.add(i), mask),
                _mm256_maskload_ps(bp.add(i), mask),
                acc0,
            );
        }
    }
    let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
    // Horizontal reduction: 256 → 128 → 64 → 32 bits.
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let sum4 = _mm_add_ps(lo, hi);
    let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
    let sum1 = _mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0b01));
    _mm_cvtss_f32(sum1)
}

/// `TAIL_MASKS[r]` enables the first `r` of 8 lanes for
/// `_mm256_maskload_ps` (lane on ⇔ the `i32` is negative). Row 0 is
/// unused — a zero remainder skips the masked load entirely.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
static TAIL_MASKS: [[i32; 8]; 8] = {
    let mut masks = [[0i32; 8]; 8];
    let mut r = 1;
    while r < 8 {
        let mut lane = 0;
        while lane < r {
            masks[r][lane] = -1;
            lane += 1;
        }
        r += 1;
    }
    masks
};

#[cfg(target_arch = "aarch64")]
fn dot_f32_neon_entry(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: this entry is only installed after
    // `is_aarch64_feature_detected!("neon")` succeeded (NEON is also part
    // of the baseline aarch64 ABI), so the target-feature contract holds.
    unsafe { dot_f32_neon(a, b) }
}

/// NEON kernel: 4 × 4-lane accumulators (16 multiply-adds in flight).
///
/// # Safety
///
/// The caller must ensure the running CPU supports NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_f32_neon(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;

    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut acc2 = vdupq_n_f32(0.0);
    let mut acc3 = vdupq_n_f32(0.0);
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` bounds every 4-lane load within the
        // slices; NEON loads are unaligned-tolerant.
        unsafe {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
            acc1 = vfmaq_f32(acc1, vld1q_f32(ap.add(i + 4)), vld1q_f32(bp.add(i + 4)));
            acc2 = vfmaq_f32(acc2, vld1q_f32(ap.add(i + 8)), vld1q_f32(bp.add(i + 8)));
            acc3 = vfmaq_f32(acc3, vld1q_f32(ap.add(i + 12)), vld1q_f32(bp.add(i + 12)));
        }
        i += 16;
    }
    while i + 4 <= n {
        // SAFETY: `i + 4 <= n` bounds the 4-lane loads.
        unsafe {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ap.add(i)), vld1q_f32(bp.add(i)));
        }
        i += 4;
    }
    let rem = n - i;
    if rem > 0 {
        // Masked tail via zero-padded stack temporaries (aarch64 has no
        // maskload; padding with 0.0 adds exact zeros to the sum).
        let mut ta = [0.0f32; 4];
        let mut tb = [0.0f32; 4];
        ta[..rem].copy_from_slice(&a[i..n]);
        tb[..rem].copy_from_slice(&b[i..n]);
        // SAFETY: the 4-lane loads read the full 4-element temporaries.
        unsafe {
            acc0 = vfmaq_f32(acc0, vld1q_f32(ta.as_ptr()), vld1q_f32(tb.as_ptr()));
        }
    }
    let acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
    vaddvq_f32(acc)
}

/// Portable integer dot: 8 independent `u32` partial sums over widened
/// `u8` products — exact, and the proof text the SIMD paths are tested
/// bit-equal to.
pub fn dot_u8_portable(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0u32; 8];
    let chunks = n / 8 * 8;
    for (ca, cb) in a[..chunks].chunks_exact(8).zip(b[..chunks].chunks_exact(8)) {
        for lane in 0..8 {
            acc[lane] += u32::from(ca[lane]) * u32::from(cb[lane]);
        }
    }
    let mut total: u32 = acc.iter().sum();
    for (&x, &y) in a[chunks..].iter().zip(&b[chunks..]) {
        total += u32::from(x) * u32::from(y);
    }
    total
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
fn dot_u8_avx2_entry(a: &[u8], b: &[u8]) -> u32 {
    // SAFETY: this entry is only installed in the dispatch table after
    // `is_x86_feature_detected!("avx2")` confirmed AVX2 on the running
    // CPU, so the target-feature contract holds.
    unsafe { dot_u8_avx2(a, b) }
}

/// AVX2 integer dot: `maddubs` pairs 32 `u8×i8` products into `i16`
/// (codes capped at [`QUANT_MAX`] can never saturate the pairwise add),
/// then a `madd` by ones widens into two independent `i32` accumulators.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2, and that both
/// slices hold codes `<= QUANT_MAX` (enforced by the quantizer; the sum
/// is exact under that cap).
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[target_feature(enable = "avx2")]
unsafe fn dot_u8_avx2(a: &[u8], b: &[u8]) -> u32 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let ones = _mm256_set1_epi16(1);
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 64 <= n {
        // SAFETY: `i + 64 <= n` bounds both unaligned 32-byte loads per
        // accumulator; `_mm256_loadu_si256` has no alignment requirement.
        unsafe {
            let p0 = _mm256_maddubs_epi16(
                _mm256_loadu_si256(ap.add(i).cast()),
                _mm256_loadu_si256(bp.add(i).cast()),
            );
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(p0, ones));
            let p1 = _mm256_maddubs_epi16(
                _mm256_loadu_si256(ap.add(i + 32).cast()),
                _mm256_loadu_si256(bp.add(i + 32).cast()),
            );
            acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(p1, ones));
        }
        i += 64;
    }
    while i + 32 <= n {
        // SAFETY: `i + 32 <= n` bounds the unaligned 32-byte loads.
        unsafe {
            let p = _mm256_maddubs_epi16(
                _mm256_loadu_si256(ap.add(i).cast()),
                _mm256_loadu_si256(bp.add(i).cast()),
            );
            acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(p, ones));
        }
        i += 32;
    }
    // SAFETY: reduction is register-only.
    let mut total = unsafe { hsum_epi32(_mm256_add_epi32(acc0, acc1)) };
    while i < n {
        total += u32::from(a[i]) * u32::from(b[i]); // bounds-checked byte tail
        i += 1;
    }
    total
}

/// Horizontal sum of the eight `i32` lanes (all partial sums are
/// non-negative under the [`QUANT_MAX`] cap, so the cast is exact).
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn hsum_epi32(v: __m256i) -> u32 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256(v, 1);
    let s4 = _mm_add_epi32(lo, hi);
    let s2 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, 0b00_00_11_10));
    let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0b00_00_00_01));
    _mm_cvtsi128_si32(s1) as u32
}

#[cfg(target_arch = "aarch64")]
fn dot_u8_neon_entry(a: &[u8], b: &[u8]) -> u32 {
    // SAFETY: only installed after `is_aarch64_feature_detected!("neon")`
    // succeeded, so the target-feature contract holds.
    unsafe { dot_u8_neon(a, b) }
}

/// NEON integer dot via widening multiplies: `vmull_u8` produces exact
/// `u16` products (`127² = 16 129` fits), `vpadalq_u16` folds them
/// pairwise into `u32` accumulators.
///
/// # Safety
///
/// The caller must ensure the running CPU supports NEON.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_u8_neon(a: &[u8], b: &[u8]) -> u32 {
    use std::arch::aarch64::*;

    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = vdupq_n_u32(0);
    let mut acc1 = vdupq_n_u32(0);
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: `i + 16 <= n` bounds the 16-byte loads; NEON loads are
        // unaligned-tolerant.
        unsafe {
            let va = vld1q_u8(ap.add(i));
            let vb = vld1q_u8(bp.add(i));
            acc0 = vpadalq_u16(acc0, vmull_u8(vget_low_u8(va), vget_low_u8(vb)));
            acc1 = vpadalq_u16(acc1, vmull_u8(vget_high_u8(va), vget_high_u8(vb)));
        }
        i += 16;
    }
    let mut total = vaddvq_u32(vaddq_u32(acc0, acc1));
    while i < n {
        total += u32::from(a[i]) * u32::from(b[i]); // bounds-checked byte tail
        i += 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum()
    }

    fn pseudo_row(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i as u64 * 1_442_695))
                    % 1000;
                x as f32 / 1000.0
            })
            .collect()
    }

    #[test]
    fn dispatched_matches_reference_on_many_lengths() {
        for len in [0, 1, 3, 4, 7, 8, 9, 15, 16, 31, 32, 33, 63, 64, 100, 251, 501] {
            let a = pseudo_row(1, len);
            let b = pseudo_row(2, len);
            let want = reference_dot(&a, &b);
            let got = f64::from(dot_f32(&a, &b));
            let tol = 1e-5 * (1.0 + want.abs());
            assert!((got - want).abs() < tol, "len {len}: {got} vs {want}");
            let portable = f64::from(dot_f32_portable(&a, &b));
            assert!((portable - want).abs() < tol, "portable len {len}");
        }
    }

    #[test]
    fn kernels_agree_on_unaligned_subslices() {
        let a = pseudo_row(3, 300);
        let b = pseudo_row(4, 300);
        for offset in 0..9 {
            let (sa, sb) = (&a[offset..], &b[offset..]);
            let d = f64::from(dot_f32(sa, sb));
            let p = f64::from(dot_f32_portable(sa, sb));
            assert!((d - p).abs() < 1e-4, "offset {offset}: {d} vs {p}");
        }
    }

    #[test]
    fn dot_f64_matches_naive_sum() {
        let a: Vec<f64> = (0..251).map(|i| f64::from(i % 17) / 17.0).collect();
        let b: Vec<f64> = (0..251).map(|i| f64::from(i % 23) / 23.0).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_f64(&a, &b) - naive).abs() < 1e-9);
    }

    #[test]
    fn masked_tail_matches_reference_on_every_length_to_64() {
        // The satellite contract for the masked-tail kernels: every
        // remainder class 0..8 (and then some), f32 and u8, dispatched
        // vs the scalar reference.
        for len in 0..=64usize {
            let a = pseudo_row(11, len);
            let b = pseudo_row(13, len);
            let want = reference_dot(&a, &b);
            let got = f64::from(dot_f32(&a, &b));
            let tol = 1e-5 * (1.0 + want.abs());
            assert!((got - want).abs() < tol, "f32 len {len}: {got} vs {want}");
        }
    }

    fn pseudo_qrow(seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add((i as u64).wrapping_mul(1_442_695_040_888_963_407));
                (x >> 33) as u8 % (QUANT_MAX + 1)
            })
            .collect()
    }

    fn reference_dot_u8(a: &[u8], b: &[u8]) -> u32 {
        a.iter().zip(b).map(|(&x, &y)| u32::from(x) * u32::from(y)).sum()
    }

    #[test]
    fn integer_dot_is_exact_on_every_length_to_64_and_beyond() {
        for len in (0..=64usize).chain([100, 251, 501, 1000]) {
            let a = pseudo_qrow(5, len);
            let b = pseudo_qrow(9, len);
            let want = reference_dot_u8(&a, &b);
            assert_eq!(dot_u8(&a, &b), want, "dispatched len {len}");
            assert_eq!(dot_u8_portable(&a, &b), want, "portable len {len}");
        }
    }

    #[test]
    fn integer_dot_peak_codes_do_not_saturate() {
        // All-QUANT_MAX rows are the maddubs worst case: every pairwise
        // i16 sum is exactly 2·127² = 32 258, one below overflow.
        for len in [31usize, 32, 64, 251, 2501] {
            let a = vec![QUANT_MAX; len];
            assert_eq!(dot_u8(&a, &a), len as u32 * 127 * 127, "len {len}");
        }
    }

    #[test]
    fn micro_tile_kernel_equals_single_dots_bit_exactly() {
        // The column kernel must be *bit*-equal to one `dot_u8` per slot
        // on the gathered row (integer sums are exact): candidates with
        // long zero runs, an all-zero candidate, 0, 1 and odd slot
        // counts, and spare capacity (`cap > slots`) whose lanes hold
        // codes that must not leak into the scored slots.
        for bins in [0usize, 1, 7, 16, 31, 33, 101, 251] {
            let dense = pseudo_qrow(3, bins);
            let sparse: Vec<u8> =
                dense.iter().enumerate().map(|(j, &c)| if j % 5 == 2 { c } else { 0 }).collect();
            let zero = vec![0u8; bins];
            for slots in [0usize, 1, 2, 3, 7, 8, 17] {
                for cap in [slots, slots + 1, 2 * slots + 5] {
                    let rows: Vec<Vec<u8>> =
                        (0..cap).map(|s| pseudo_qrow(20 + s as u64, bins)).collect();
                    let cols: Vec<u8> =
                        (0..bins).flat_map(|j| rows.iter().map(move |row| row[j])).collect();
                    for cand in [&dense, &sparse, &zero] {
                        let mut out = vec![u32::MAX; slots];
                        dot_u8_columns(cand, &cols, cap, &mut out);
                        for (s, row) in rows.iter().take(slots).enumerate() {
                            let want = dot_u8(cand, row);
                            assert_eq!(
                                out[s], want,
                                "bins {bins}, slots {slots}, cap {cap}, slot {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn active_int_kernel_has_a_name() {
        let kind = active_int();
        assert!(!kind.as_str().is_empty());
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(kind, IntKernelKind::Avx2Maddubs);
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(kind, IntKernelKind::NeonWiden);
    }

    #[test]
    fn active_kernel_has_a_name() {
        let kind = active();
        assert!(!kind.as_str().is_empty());
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            assert_eq!(kind, KernelKind::Avx2Fma);
        }
        #[cfg(target_arch = "aarch64")]
        assert_eq!(kind, KernelKind::Neon);
    }
}
