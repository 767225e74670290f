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
//! # The integer kernel for the quantized tier
//!
//! The [`RowPrecision::U8`](crate::matching::RowPrecision) storage tier
//! (see [`matching`](crate::matching)) holds rows as `u8` codes in
//! `0..=`[`QUANT_MAX`], each block column-major (one column of codes per
//! bin, one lane per resident slot). [`dot_u8_columns`] scores one
//! candidate against every slot of a block at once: for each **non-zero**
//! candidate code `c_j` it adds `c_j · column_j` into the per-slot `u32`
//! sums. Traffic histograms occupy a handful of their bins, so a sweep
//! reads a few columns instead of every byte of every row. The loop is
//! safe, portable code that the compiler vectorises, and its sums are
//! **exact** integers, so every slot's dot equals the plain sequential
//! dot of the candidate and that slot's row on every host — the quantized
//! sweeps need no cross-kernel tolerance and no dispatch.

// The one sanctioned escape from the crate-wide `deny(unsafe_code)`:
// SIMD intrinsics are unavoidably unsafe (raw-pointer loads + target
// features); every unsafe block below carries a safety comment.
#![allow(unsafe_code)]
// The SIMD intrinsics modules are designed for wildcard import, and
// kernel-local names follow BLAS convention (a/b operands, ap/bp
// pointers, n length).
#![allow(clippy::wildcard_imports, clippy::many_single_char_names)]

use std::sync::OnceLock;

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
    /// A short stable name for logs.
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
/// The cap is 127 (7 bits). Nothing in [`dot_u8_columns`] needs the
/// seventh bit free: its exact `u32` sums would take 8-bit codes too. The
/// cap stays at 127 because it fixes every stored code: changing it would
/// re-quantize every row and change every `u8` score and decision.
pub const QUANT_MAX: u8 = 127;

/// Exact integer dots of one candidate code row against every slot of a
/// column-major `u8` block: `cols[j * cap + s]` is bin `j` of slot `s`,
/// `cand.len()` bins of `cap` lanes each, and `out.len() <= cap` slots
/// are scored. Each `out[s]` is overwritten with `Σ_j cand[j] · cols[j *
/// cap + s]`, accumulated one non-zero candidate code at a time, so the
/// cost scales with the candidate's occupied bins, not its width. The
/// sums are exact, so `out[s]` equals the plain sequential dot of `cand`
/// and slot `s`'s gathered row on every host.
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
    fn masked_tail_matches_reference_on_every_length_to_64() {
        // The masked-tail contract: every remainder class 0..8 (and then
        // some), dispatched vs the scalar reference.
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
    fn integer_dot_peak_codes_do_not_saturate() {
        // All-QUANT_MAX codes are the largest sum a slot can reach: every
        // term is exactly 127², on every bin, in every scored slot.
        for bins in [31usize, 32, 64, 251, 2501] {
            let cand = vec![QUANT_MAX; bins];
            for slots in [1usize, 8, 17] {
                let cap = slots + 1;
                let cols = vec![QUANT_MAX; bins * cap];
                let mut out = vec![0u32; slots];
                dot_u8_columns(&cand, &cols, cap, &mut out);
                let want = bins as u32 * 127 * 127;
                assert!(out.iter().all(|&dot| dot == want), "bins {bins}, slots {slots}: {out:?}");
            }
        }
    }

    #[test]
    fn micro_tile_kernel_equals_single_dots_bit_exactly() {
        // The column kernel must be *bit*-equal to one sequential dot per
        // slot on the gathered row (integer sums are exact): candidates with
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
                            let want = reference_dot_u8(cand, row);
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
