//! The sharded reference database and Algorithm 1 (signature matching).
//!
//! # Structure-of-arrays layout, in `f32`
//!
//! Matching one candidate against `N` references evaluates
//! `Σ_{ftype} weight^ftype(rᵢ) · sim(P^ftype(c), P^ftype(rᵢ))` for every
//! reference `rᵢ` — the `O(windows × devices × bins)` hot path of the
//! whole pipeline. To make that sweep cache-friendly, [`ReferenceDb`]
//! does **not** score against per-device `BTreeMap`s. Instead it packs,
//! for each frame kind, every device's frequency vector into contiguous
//! row-major matrices:
//!
//! ```text
//! KindBlock(Data):   rows  = [ dev₀ bins… | dev₁ bins… | … | devₙ bins… ]  (f32)
//!                    weights   = [ w₀, w₁, …, wₙ ]   (f32 reference weights)
//!                    inv_norms = [ 1/‖r₀‖, …, 1/‖rₙ‖ ]  (f32, 0 ⇒ empty row)
//! KindBlock(Beacon): rows  = [ … ]
//! ```
//!
//! Rows, weights and norms are stored as **`f32`**: histogram frequencies
//! carry nowhere near 53 bits of information, and halving the row width
//! doubles the rows per cache line and per SIMD lane. Devices missing a
//! kind hold weight 0 and an all-zero row; the sweep skips them by the
//! weight test alone. Per-device *scores* still accumulate in `f64`, so
//! the only precision loss is the one-off `f64 → f32` quantisation of the
//! stored rows — bounded by [`F32_SCORE_TOLERANCE`] and enforced against
//! the `f64` baseline by property tests and an AUC-drift check in the
//! analysis crate.
//!
//! # Precision tiers
//!
//! `f32` is the middle of three storage tiers selected by
//! [`MatchConfig::with_precision`] ([`RowPrecision`]); scores accumulate
//! in `f64` in every tier, so the tier only chooses what the inner dot
//! products read:
//!
//! * **`f64`** — the naive baseline (per-device `BTreeMap`s, full
//!   doubles). Not a packed layout; kept in test code as ground truth.
//! * **`f32`** ([`RowPrecision::F32`], the default) — packed rows,
//!   floating-point SIMD dots, drift ≤ [`F32_SCORE_TOLERANCE`] vs `f64`.
//! * **`u8`** ([`RowPrecision::U8`]) — each row quantized once at
//!   insert to 7-bit codes with a per-row scale
//!   ([`Histogram::frequencies_u8`](crate::Histogram::frequencies_u8))
//!   and stored **column-major** (one column per bin, one lane per
//!   slot). Cosine is scale-invariant, so the sweep dots raw codes with
//!   the **exact** integer column kernel ([`kernel::dot_u8_columns`])
//!   and folds the code norms in at the end. Drift ≤
//!   [`U8_SCORE_TOLERANCE`] vs `f32`, pinned by parity proptests here and
//!   an AUC-drift gate in the analysis crate.
//!
//! Resident bytes per device per (kind, bins) block, at the default
//! 251-bin inter-arrival spec ([`ReferenceDb::row_bytes`] reports the
//! exact total; per-block envelope bytes amortise across residents):
//!
//! | tier  | row            | per-row metadata               | ≈ bytes/device |
//! |-------|----------------|--------------------------------|----------------|
//! | `f64` | 251 × 8 B      | `BTreeMap` nodes + weights     | > 2008         |
//! | `f32` | 251 × 4 B      | weight + inv-norm (8 B)        | 1012           |
//! | `u8`  | 251 × 1 B      | weight + inv-norm + scale (12 B) | 263          |
//!
//! Spare `u8` column capacity, left by geometric growth or by removals,
//! is not resident data and is not counted.
//!
//! Traffic histograms are sparse: a candidate typically occupies a
//! handful of its ~100 bins. The `u8` tier's column layout lets a sweep
//! read only the columns of the candidate's non-zero codes, each one a
//! contiguous run of one byte per resident: for each such code `c_j` the
//! kernel adds `c_j · column_j` into per-slot `u32` sums. The sums are
//! exact, so every score is bit-equal to a sequential dot over the row.
//! The `f32` tier stays row-major, because its dot's rounding depends on
//! summation order.
//!
//! # The sharded store
//!
//! One flat matrix per kind stops scaling past ~10⁵ devices: every sweep
//! touches every row. [`ReferenceDb`] therefore buckets its rows into
//! **shards** ([`MatchConfig`]): by default a locality-sensitive key of
//! each device's *dominant* histogram (its centre of mass — devices whose
//! heaviest histogram concentrates probability in the same region share a
//! shard), with the MAC prefix (OUI hash) as a fallback strategy for
//! enrolments where histogram locality is unwanted
//! ([`ShardStrategy::MacPrefix`]). Each shard keeps its own `SoA` blocks
//! plus a **prune summary** per block: the elementwise upper envelope of
//! its normalised rows and the maximum reference weight. For the cosine
//! measure (frequencies are non-negative) the envelope yields an
//! *admissible* upper bound on any resident device's score against a
//! given candidate — one dot product per (shard, kind) instead of one per
//! device. (A mean-centroid summary would need a radius term and is
//! strictly looser for non-negative rows, so the envelope is the summary
//! of choice.)
//!
//! Two sweeps sit on top of that layout:
//!
//! * the **dense** sweep ([`ReferenceDb::match_tile`],
//!   [`ReferenceDb::match_signature_with`]) visits every shard and is
//!   *bit-for-bit* the flat sweep — per device the same per-pair
//!   arithmetic accumulates in the same (ascending frame kind) order, so
//!   public argmax/order semantics are unchanged and property-tested
//!   equal to a flat (`shards == 1`) database;
//! * the **pruned** sweep ([`ReferenceDb::match_topk`]) processes shards
//!   in descending bound order and skips every shard whose best possible
//!   score cannot beat the current `k`-th best — at 10⁵ enrolled devices
//!   this prunes most of the matrix before the dense SIMD inner loop
//!   runs. [`MatchScratch::prune_stats`] reports the pruned fraction of
//!   the last sweep.
//!
//! # The SIMD dot kernel
//!
//! For the paper's cosine measure the per-pair kernel collapses to a
//! single dense dot product (row norms are fixed at pack time, the
//! candidate norm is hoisted out of the device loop). That dot runs
//! through [`kernel`]: an AVX2+FMA path selected at
//! runtime on x86, a NEON path on aarch64, and an unrolled portable
//! fallback — all property-tested equivalent. The dispatch is resolved to
//! a function pointer once per sweep, not once per pair.
//!
//! # Multi-candidate tiling: matrix–matrix, not K × matrix–vector
//!
//! Detection evaluates whole windows of candidates against the same
//! database. [`ReferenceDb::match_tile`] scores a tile of `K` candidates
//! in **one** pass over the reference rows: each row is loaded once and
//! dotted against all `K` candidate rows while it is hot in L1, turning K
//! matrix–vector sweeps (K full passes over the matrix) into one
//! matrix–matrix sweep. [`MATCH_TILE`] is the tile width the batch paths
//! ([`ReferenceDb::match_batch`], `metrics::match_candidates`, and through
//! it the analysis pipeline) use. The `u8` tier's column-major blocks
//! invert the loop: each candidate reads the few columns it has mass in,
//! for every slot of the block at once.
//!
//! # Scratch buffers: allocation-free steady state
//!
//! [`ReferenceDb::match_signature_with`] and [`ReferenceDb::match_tile`]
//! write scores into a caller-owned [`MatchScratch`] and return borrowed
//! views. After the first call warms the scratch's capacity, matching
//! performs **no heap allocation**: candidate frequency vectors are cached
//! borrows ([`Histogram::frequencies_f32`](crate::Histogram::frequencies_f32)),
//! scores accumulate into reused buffers, and the views borrow rather
//! than copy. Use one scratch per worker thread:
//!
//! ```
//! use wifiprint_core::{EvalConfig, MatchScratch, NetworkParameter, ReferenceDb, Signature,
//!     SimilarityMeasure};
//! use wifiprint_ieee80211::{FrameKind, MacAddr};
//!
//! let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
//! let mut sig = Signature::new();
//! for _ in 0..60 { sig.record(FrameKind::Data, 1000.0, &cfg); }
//! let mut db = ReferenceDb::new();
//! db.insert(MacAddr::from_index(1), sig.clone()).unwrap();
//!
//! let mut scratch = MatchScratch::new();
//! for _window in 0..3 {
//!     let view = db.match_signature_with(&sig, SimilarityMeasure::Cosine, &mut scratch);
//!     assert_eq!(view.best().unwrap().0, MacAddr::from_index(1));
//! }
//! // A whole tile of windows in one row pass:
//! let windows = vec![sig.clone(), sig.clone(), sig.clone()];
//! let tile = db.match_tile(&windows, SimilarityMeasure::Cosine, &mut scratch);
//! assert_eq!(tile.candidate_count(), 3);
//! assert_eq!(tile.candidate(2).best().unwrap().0, MacAddr::from_index(1));
//! // And the pruned top-k sweep (what a 10⁵-device deployment runs):
//! let top = db.match_topk(&sig, 1, SimilarityMeasure::Cosine, &mut scratch);
//! assert_eq!(top[0].0, MacAddr::from_index(1));
//! ```
//!
//! # Incremental growth
//!
//! [`ReferenceDb::insert`] appends one row to the device's shard
//! (amortised `O(row)`; the `u8` tier's columns double their lane
//! capacity when full) instead of repacking, so streaming database
//! growth is linear in the data, not quadratic. A removal shifts the
//! shard's later slots down and repairs each block's prune summary in
//! place, rescanning only the envelope bins the removed row attained
//! (and the weight maximum, if it held it). Internally rows live in
//! insertion order with a sorted index on top; shard membership, the
//! per-shard slots and the sorted address index stay consistent across
//! any interleaving of [`ReferenceDb::insert`] / [`ReferenceDb::remove`]
//! (re-inserting a changed signature migrates the device to its new
//! shard). Every public API still reports devices in ascending address
//! order.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use wifiprint_ieee80211::{FrameKind, MacAddr};

use crate::error::CoreError;
use crate::histogram::Histogram;
use crate::kernel;
use crate::signature::Signature;
use crate::similarity::SimilarityMeasure;

/// Worst-case drift of a matching score computed over the packed `f32`
/// rows relative to the same score in full `f64`.
///
/// Scores lie in `[0, 1]`. Rows are `f64` frequencies rounded once to
/// `f32` (relative error ≤ 2⁻²⁴ per element), dots and norms run in
/// `f32`, and everything downstream (weighting, accumulation across frame
/// kinds) is `f64`. For the ≤ ~500-bin rows this crate produces, the
/// accumulated error stays ≳ an order of magnitude below this bound;
/// property tests and the analysis crate's AUC-drift check enforce it.
pub const F32_SCORE_TOLERANCE: f64 = 1e-4;

/// Worst-case drift of a matching score computed over quantized `u8`
/// rows ([`RowPrecision::U8`]) relative to the same score over `f32`
/// rows.
///
/// Quantization rounds each normalised row to 7-bit codes relative to its
/// maximum element ([`kernel::QUANT_MAX`]), so
/// the stored *direction* moves by up to `~0.5/127 · √(occupied bins)`
/// relative to the row maximum. For the adversarial case property tests
/// construct — tens of near-equal tiny bins on both sides of the dot —
/// the cosine can drift by a few times `1e-2`; realistic traffic
/// histograms concentrate their mass and stay well under `1e-2` (the
/// AUC-drift gate in the analysis crate pins the *application* drift two
/// orders tighter). Integer dots themselves are exact, so unlike the
/// `f32` tier none of this budget is spent on kernel association order.
pub const U8_SCORE_TOLERANCE: f64 = 5e-2;

/// Tile width for multi-candidate matching: how many candidate windows
/// [`ReferenceDb::match_batch`] (and the metrics/analysis paths built on
/// it) score per pass over the reference rows.
///
/// Eight rows of ≤ ~500 `f32` bins (≤ 16 KiB) fit in L1 alongside the
/// reference row being swept, which is the point: each reference row is
/// loaded from memory once per tile instead of once per candidate.
pub const MATCH_TILE: usize = 8;

/// Default shard count of a [`MatchConfig`]. Sixteen shards keep the
/// per-sweep summary overhead negligible at conference scale while
/// already pruning most of the matrix at 10⁴–10⁵ devices; large
/// deployments raise it via [`MatchConfig::with_shards`].
pub const DEFAULT_SHARDS: usize = 16;

/// Hard ceiling on the configured shard count (the shard directory is
/// allocated eagerly).
const MAX_SHARDS: usize = 1024;

/// Safety slack added to every shard's score upper bound before the
/// prune test. The bound and the true scores run through the same `f32`
/// kernels but accumulate differently, so their floating-point error is
/// not ordered; one [`F32_SCORE_TOLERANCE`] of slack makes the bound
/// admissible under rounding (a shard is only pruned when its best
/// possible score is below the current `k`-th best by more than the
/// documented score tolerance).
const PRUNE_BOUND_SLACK: f64 = F32_SCORE_TOLERANCE;

/// How devices are bucketed into shards (see [`MatchConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardStrategy {
    /// Locality-sensitive key of the device's **dominant** (highest
    /// weight) histogram: its centre of mass, quantised over the shard
    /// count. Devices whose heaviest histogram concentrates probability
    /// in the same region share a shard, which keeps each shard's upper
    /// envelope tight and makes the pruned sweep effective.
    #[default]
    DominantHistogram,
    /// A hash of the MAC address's OUI (first three octets). Not
    /// locality-sensitive in score space — pruning bounds stay
    /// admissible but looser — useful as a fallback when enrolment is
    /// adversarial or signatures churn faster than shard residency
    /// should.
    MacPrefix,
}

/// Storage width of the packed reference rows — the **precision tier**
/// of a [`ReferenceDb`] (see the [module docs](self#precision-tiers)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowPrecision {
    /// `f32` rows swept by the floating-point SIMD kernels. Scores track
    /// the `f64` baseline within [`F32_SCORE_TOLERANCE`].
    #[default]
    F32,
    /// Quantized `u8` rows (7-bit codes with a per-row scale, zero-point
    /// fixed at 0), stored column-major and swept by the exact integer
    /// column kernel ([`kernel::dot_u8_columns`]). Quarter the row bytes
    /// of `f32`; scores track the `f32` tier within
    /// [`U8_SCORE_TOLERANCE`].
    U8,
}

impl RowPrecision {
    /// A short stable name for logs.
    pub fn as_str(self) -> &'static str {
        match self {
            RowPrecision::F32 => "f32",
            RowPrecision::U8 => "u8",
        }
    }
}

/// Configuration of the sharded reference store: how rows are bucketed,
/// into how many shards, and at which storage precision. `shards == 1`
/// degenerates to the flat single-matrix layout ([`MatchConfig::flat`]),
/// which the sharded dense sweep is property-tested bit-for-bit equal to
/// (per precision tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// The shard-key strategy.
    pub strategy: ShardStrategy,
    /// Number of shards (clamped to `1..=1024` when the database is
    /// built).
    pub shards: usize,
    /// Storage width of the packed rows (see [`RowPrecision`]).
    pub precision: RowPrecision,
}

impl Default for MatchConfig {
    /// Dominant-histogram bucketing over [`DEFAULT_SHARDS`] shards,
    /// `f32` rows.
    fn default() -> Self {
        MatchConfig {
            strategy: ShardStrategy::DominantHistogram,
            shards: DEFAULT_SHARDS,
            precision: RowPrecision::F32,
        }
    }
}

impl MatchConfig {
    /// The flat (unsharded) layout: one shard holding every row. The
    /// parity baseline for the sharded sweeps, and the right choice for
    /// small (< a few hundred devices) databases.
    pub fn flat() -> Self {
        MatchConfig::default().with_shards(1)
    }

    /// The quantized tier at the default shard layout: `u8` rows behind
    /// the integer column kernel — what a metropolis-scale (≥ 10⁵ devices)
    /// deployment runs.
    pub fn quantized() -> Self {
        MatchConfig::default().with_precision(RowPrecision::U8)
    }

    /// Returns a copy with a different shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with a different shard-key strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: ShardStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Returns a copy with a different row precision.
    #[must_use]
    pub fn with_precision(mut self, precision: RowPrecision) -> Self {
        self.precision = precision;
        self
    }

    /// The effective shard count (clamped).
    fn effective_shards(&self) -> usize {
        self.shards.clamp(1, MAX_SHARDS)
    }
}

/// The packed row storage of a [`KindBlock`] — one variant per
/// [`RowPrecision`], so the `u8` tier genuinely holds one byte per bin
/// (plus one `f32` scale per row) rather than shadowing an `f32` copy.
#[derive(Debug, Clone)]
enum RowStore {
    /// `rows[slot*bins..(slot+1)*bins]` is the device's `f32` frequency
    /// vector, row-major: the floating-point dot's rounding depends on
    /// its summation order, so each row stays contiguous for
    /// [`kernel::dot_f32`].
    F32(Vec<f32>),
    /// Quantized rows, **column-major**: `cols[j*cap + slot]` is bin `j`
    /// of the device's 7-bit codes ([`Histogram::frequencies_u8`]), so
    /// one column holds a bin for every slot and the sweep reads only the
    /// columns where the candidate has mass
    /// ([`kernel::dot_u8_columns`]). `cap ≥ slots` is the per-column
    /// lane capacity; it grows geometrically on append, like `Vec`, and
    /// lanes past the resident slots are zero. `scales[slot]`
    /// dequantizes a row (`frequency ≈ code · scale`). The cosine sweep
    /// never touches the scale — cosine is scale-invariant, so it works
    /// on the raw codes with `inv_norms` computed over the codes — but
    /// the non-cosine fallback dequantizes through it.
    U8 { cols: Vec<u8>, cap: usize, scales: Vec<f32> },
}

/// One frame kind's slice of a shard's reference matrix: every resident
/// device's frequency vector for that kind, packed at the database's
/// [`RowPrecision`] (row-major `f32`, column-major `u8`; see
/// [`RowStore`]), plus the reference weights `weight^ftype(rᵢ)`,
/// reciprocal row norms, and the prune summary (upper envelope of the
/// normalised rows + max weight).
#[derive(Debug, Clone)]
struct KindBlock {
    kind: FrameKind,
    /// Row width. Blocks are keyed on `(kind, bins)`: references binned
    /// with a different spec for the same kind land in a sibling block,
    /// so heterogeneous databases still score every compatible pair.
    bins: usize,
    /// `weights[slot]` is the resident device's weight for this kind
    /// (0 ⇒ skip row). Its length is the block's slot count.
    weights: Vec<f32>,
    /// The packed rows at the configured precision.
    store: RowStore,
    /// `inv_norms[slot]` is `1 / ‖row‖₂` of the *stored* row (`f32`
    /// frequencies or `u8` codes — whichever the sweep dots against),
    /// precomputed at pack time so the cosine sweep reduces to one dot
    /// product and two multiplies per pair (0.0 for absent rows, which
    /// weight 0 already skips).
    inv_norms: Vec<f32>,
    /// Elementwise maximum of the *normalised* resident rows: because
    /// frequencies (and quantized codes) are non-negative,
    /// `ĉ · envelope ≥ ĉ · r̂ᵢ` for every resident row, so one dot
    /// against the envelope upper-bounds every per-device cosine in the
    /// block. Always `f32`, in both tiers.
    envelope: Vec<f32>,
    /// Maximum reference weight over resident rows (the other half of
    /// the shard score bound).
    wmax: f32,
}

impl KindBlock {
    fn empty(kind: FrameKind, bins: usize, slots: usize, precision: RowPrecision) -> KindBlock {
        KindBlock {
            kind,
            bins,
            weights: vec![0.0; slots],
            store: match precision {
                RowPrecision::F32 => RowStore::F32(vec![0.0; slots * bins]),
                RowPrecision::U8 => RowStore::U8 {
                    cols: vec![0; slots * bins],
                    cap: slots,
                    scales: vec![0.0; slots],
                },
            },
            inv_norms: vec![0.0; slots],
            envelope: vec![0.0; bins],
            wmax: 0.0,
        }
    }

    /// Appends one absent-device slot.
    fn push_empty_slot(&mut self) {
        let slots = self.weights.len();
        self.weights.push(0.0);
        self.inv_norms.push(0.0);
        match &mut self.store {
            RowStore::F32(rows) => rows.resize(rows.len() + self.bins, 0.0),
            RowStore::U8 { cols, cap, scales } => {
                scales.push(0.0);
                if slots == *cap {
                    // Full: double every column, so appends stay
                    // amortised O(bins).
                    let grown = (*cap * 2).max(4);
                    let mut wider = vec![0; self.bins * grown];
                    for j in 0..self.bins {
                        wider[j * grown..j * grown + slots]
                            .copy_from_slice(&cols[j * *cap..j * *cap + slots]);
                    }
                    *cols = wider;
                    *cap = grown;
                }
            }
        }
    }

    /// Removes one slot, shifting the later ones down (the vacated `u8`
    /// lane is zeroed), and repairs the prune summary in place: an
    /// envelope bin is recomputed only where the removed row attained
    /// it, and `wmax` only when the removed weight was the maximum. A
    /// maximum does not depend on visiting order, so the repaired summary
    /// equals a full rescan of the remaining rows bit for bit, at a cost
    /// proportional to the bins the removed row dominated.
    fn remove_slot(&mut self, slot: usize) {
        let slots = self.weights.len();
        let weight = self.weights.remove(slot);
        let inv = self.inv_norms.remove(slot);
        let KindBlock { bins, weights, store, inv_norms, envelope, wmax, .. } = self;
        let bins = *bins;
        // A zero-weight row never entered the summary.
        let counted = weight != 0.0;
        match store {
            RowStore::F32(rows) => {
                let removed = &rows[slot * bins..(slot + 1) * bins];
                let dirty: Vec<usize> = if counted {
                    (0..bins)
                        .filter(|&j| {
                            let v = removed[j] * inv;
                            v > 0.0 && v >= envelope[j]
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                rows.drain(slot * bins..(slot + 1) * bins);
                for &j in &dirty {
                    envelope[j] = 0.0;
                }
                if !dirty.is_empty() {
                    for (s, row) in rows.chunks_exact(bins).enumerate() {
                        if weights[s] == 0.0 {
                            continue;
                        }
                        for &j in &dirty {
                            envelope[j] = envelope[j].max(row[j] * inv_norms[s]);
                        }
                    }
                }
            }
            RowStore::U8 { cols, cap, scales } => {
                scales.remove(slot);
                for (col, e) in cols.chunks_exact_mut(*cap).zip(envelope.iter_mut()) {
                    let v = f32::from(col[slot]) * inv;
                    col.copy_within(slot + 1..slots, slot);
                    col[slots - 1] = 0;
                    if counted && v > 0.0 && v >= *e {
                        *e = 0.0;
                        for ((&c, &w), &s_inv) in
                            col.iter().zip(weights.iter()).zip(inv_norms.iter())
                        {
                            if w != 0.0 {
                                *e = e.max(f32::from(c) * s_inv);
                            }
                        }
                    }
                }
            }
        }
        if counted && weight >= *wmax {
            *wmax = weights.iter().fold(0.0, |m: f32, &w| m.max(w));
        }
    }

    /// Writes a device's row into `slot` at the block's precision and
    /// absorbs it into the prune summary (the envelope only grows here;
    /// [`KindBlock::remove_slot`] repairs it after a removal).
    fn set_slot(&mut self, slot: usize, hist: &Histogram, weight: f32) {
        let KindBlock { bins, weights, store, inv_norms, envelope, wmax, .. } = self;
        let bins = *bins;
        weights[slot] = weight;
        *wmax = wmax.max(weight);
        match store {
            RowStore::F32(rows) => {
                let freqs = hist.frequencies_f32();
                debug_assert_eq!(freqs.len(), bins);
                rows[slot * bins..(slot + 1) * bins].copy_from_slice(freqs);
                let inv = inv_norm(freqs);
                inv_norms[slot] = inv;
                for (e, &f) in envelope.iter_mut().zip(freqs) {
                    *e = e.max(f * inv);
                }
            }
            RowStore::U8 { cols, cap, scales } => {
                let q = hist.frequencies_u8();
                debug_assert_eq!(q.values().len(), bins);
                scales[slot] = q.scale();
                let inv = q.inv_norm();
                inv_norms[slot] = inv;
                for ((col, e), &c) in
                    cols.chunks_exact_mut(*cap).zip(envelope.iter_mut()).zip(q.values())
                {
                    col[slot] = c;
                    *e = e.max(f32::from(c) * inv);
                }
            }
        }
    }

    /// Recomputes the envelope and max weight from scratch over the
    /// resident rows: the oracle the in-place repair of
    /// [`KindBlock::remove_slot`] is tested bit-equal to.
    #[cfg(test)]
    fn rebuild_summary(&mut self) {
        let KindBlock { bins, weights, store, inv_norms, envelope, wmax, .. } = self;
        envelope.fill(0.0);
        *wmax = 0.0;
        for (slot, (&weight, &inv)) in weights.iter().zip(inv_norms.iter()).enumerate() {
            if weight == 0.0 {
                continue;
            }
            *wmax = wmax.max(weight);
            for (j, e) in envelope.iter_mut().enumerate() {
                let v = match store {
                    RowStore::F32(rows) => rows[slot * *bins + j],
                    RowStore::U8 { cols, cap, .. } => f32::from(cols[j * *cap + slot]),
                };
                *e = e.max(v * inv);
            }
        }
    }

    /// Bytes held by this block's packed rows and per-row/summary
    /// metadata for the resident slots (spare `u8` lane capacity
    /// excluded — this measures the resident layout).
    fn row_bytes(&self) -> usize {
        let slots = self.weights.len();
        let store = match &self.store {
            RowStore::F32(rows) => std::mem::size_of_val(rows.as_slice()),
            RowStore::U8 { scales, .. } => {
                slots * self.bins + std::mem::size_of_val(scales.as_slice())
            }
        };
        store
            + std::mem::size_of_val(self.weights.as_slice())
            + std::mem::size_of_val(self.inv_norms.as_slice())
            + std::mem::size_of_val(self.envelope.as_slice())
    }
}

/// One bucket of the sharded store: which global rows live here and
/// their per-kind matrices (indexed by **slot**, the local row number).
#[derive(Debug, Clone, Default)]
struct Shard {
    /// `rows[slot]` is the global (insertion-order) row of the device in
    /// that slot.
    rows: Vec<u32>,
    /// Per-frame-kind matrices, ascending by `(kind, bins)`.
    blocks: Vec<KindBlock>,
}

impl Shard {
    fn block(&self, kind: FrameKind, bins: usize) -> Option<&KindBlock> {
        self.blocks
            .binary_search_by(|b| (b.kind, b.bins).cmp(&(kind, bins)))
            .ok()
            .map(|i| &self.blocks[i])
    }
}

/// Where a global row lives: its shard and local slot.
#[derive(Debug, Clone, Copy, Default)]
struct Placement {
    shard: u16,
    slot: u32,
}

/// The sharded reference database of the learning phase (§IV-B): one
/// signature per known device, bucketed into shards and packed into
/// per-frame-kind `f32` matrices (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use wifiprint_core::{EvalConfig, MatchConfig, NetworkParameter, ReferenceDb, Signature,
///     SimilarityMeasure};
/// use wifiprint_ieee80211::{FrameKind, MacAddr};
///
/// let cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize);
/// let mut sig = Signature::new();
/// for _ in 0..60 { sig.record(FrameKind::Data, 1000.0, &cfg); }
///
/// // Default: dominant-histogram sharding; MatchConfig selects the
/// // strategy and shard count.
/// let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(8));
/// let dev = MacAddr::from_index(1);
/// db.insert(dev, sig.clone()).unwrap();
///
/// let outcome = db.match_signature(&sig, SimilarityMeasure::Cosine);
/// assert_eq!(outcome.best().unwrap().0, dev);
/// assert!((outcome.best().unwrap().1 - 1.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceDb {
    /// The (normalised) shard configuration.
    config: MatchConfig,
    /// Reference devices in **insertion order**; `signatures` and
    /// `placement` are parallel to this, so inserts append instead of
    /// repacking.
    devices: Vec<MacAddr>,
    signatures: Vec<Signature>,
    /// Row indices sorted by ascending device address: the lookup index,
    /// and the order every public API reports devices in.
    order: Vec<u32>,
    /// Global row → (shard, slot).
    placement: Vec<Placement>,
    /// Every `(kind, bins)` key any shard holds, ascending — the outer
    /// loop of the sweeps, so candidate tiles are packed once per kind,
    /// not once per (shard, kind).
    kind_keys: Vec<(FrameKind, usize)>,
    /// The shard directory (`config.effective_shards()` entries).
    shards: Vec<Shard>,
    /// `true` once the enrollment phase ended ([`ReferenceDb::freeze`]):
    /// mutations are rejected so the detection phase matches against a
    /// stable reference set.
    frozen: bool,
}

impl Default for ReferenceDb {
    fn default() -> Self {
        ReferenceDb::with_config(MatchConfig::default())
    }
}

impl ReferenceDb {
    /// An empty database with the default [`MatchConfig`]
    /// (dominant-histogram sharding, [`DEFAULT_SHARDS`] shards).
    pub fn new() -> Self {
        ReferenceDb::default()
    }

    /// An empty database with an explicit shard configuration.
    pub fn with_config(config: MatchConfig) -> Self {
        let shards = config.effective_shards();
        ReferenceDb {
            config: MatchConfig { shards, ..config },
            devices: Vec::new(),
            signatures: Vec::new(),
            order: Vec::new(),
            placement: Vec::new(),
            kind_keys: Vec::new(),
            shards: vec![Shard::default(); shards],
            frozen: false,
        }
    }

    /// Builds a database from per-device signatures (e.g. the output of
    /// [`SignatureBuilder::finish`](crate::SignatureBuilder::finish)),
    /// packing the reference matrix once, with the default
    /// [`MatchConfig`].
    pub fn from_signatures(signatures: BTreeMap<MacAddr, Signature>) -> Self {
        ReferenceDb::from_signatures_with(signatures, MatchConfig::default())
    }

    /// [`ReferenceDb::from_signatures`] with an explicit shard
    /// configuration.
    pub fn from_signatures_with(
        signatures: BTreeMap<MacAddr, Signature>,
        config: MatchConfig,
    ) -> Self {
        let mut db = ReferenceDb::with_config(config);
        for (device, sig) in signatures {
            // Entries arrive in ascending order, so each lands at the end.
            db.devices.push(device);
            db.signatures.push(sig);
        }
        db.rebuild();
        db
    }

    /// The shard configuration this database was built with.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// The configured shard count (occupied or not).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Bytes resident in the packed reference matrices: the rows at the
    /// configured [`RowPrecision`] plus per-row metadata (weights,
    /// reciprocal norms, `u8` scales) and the per-block prune summaries.
    /// Retained [`Signature`]s and the index vectors are excluded — this
    /// measures what the sweeps actually touch, the number the
    /// bytes-per-device figures in the [module docs](self#precision-tiers)
    /// come from.
    pub fn row_bytes(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|shard| shard.blocks.iter())
            .map(KindBlock::row_bytes)
            .sum()
    }

    /// Position of `device` in the sorted `order` index.
    fn position(&self, device: MacAddr) -> Result<usize, usize> {
        self.order.binary_search_by(|&i| self.devices[i as usize].cmp(&device))
    }

    /// The shard key of a device under the configured strategy.
    fn shard_key(&self, device: MacAddr, signature: &Signature) -> usize {
        let n = self.shards.len();
        if n <= 1 {
            return 0;
        }
        match self.config.strategy {
            ShardStrategy::MacPrefix => {
                // FNV-1a over the OUI: stable, cheap, spreads vendor
                // prefixes uniformly.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in device.oui() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                (h % n as u64) as usize
            }
            ShardStrategy::DominantHistogram => {
                let mut dominant: Option<&Histogram> = None;
                let mut dominant_total = 0u64;
                for (_, hist) in signature.iter() {
                    if hist.total() > dominant_total {
                        dominant_total = hist.total();
                        dominant = Some(hist);
                    }
                }
                let Some(hist) = dominant else { return 0 };
                // Centre of mass of the dominant histogram, as a
                // fraction of its bin range: nearby distributions get
                // nearby keys (the locality-sensitive property the
                // pruning bound leans on).
                let counts = hist.counts();
                let mass: f64 = counts
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| i as f64 * c as f64)
                    .sum();
                let com = mass / dominant_total as f64 / counts.len().max(1) as f64;
                ((com * n as f64) as usize).min(n - 1)
            }
        }
    }

    /// Inserts or replaces a device's reference signature (online
    /// enrollment).
    ///
    /// Returns the previous signature if the device was already present.
    /// Inserting a new device **appends** one slot to its shard
    /// (amortised `O(row width)` per block of the shard), so building a
    /// database by streaming inserts is linear overall; replacing
    /// detaches the old row and re-attaches the new one, migrating the
    /// device to a different shard when its dominant histogram moved.
    /// The detach costs what [`ReferenceDb::remove`] costs.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrozenDatabase`] after [`ReferenceDb::freeze`], and
    /// [`CoreError::EmptySignature`] for a signature with zero
    /// observations (its all-zero rows could never match anything).
    pub fn insert(
        &mut self,
        device: MacAddr,
        signature: Signature,
    ) -> Result<Option<Signature>, CoreError> {
        if self.frozen {
            return Err(CoreError::FrozenDatabase { device: Some(device) });
        }
        if signature.observation_count() == 0 {
            return Err(CoreError::EmptySignature { device });
        }
        Ok(match self.position(device) {
            Ok(pos) => {
                let row = self.order[pos] as usize;
                let previous = std::mem::replace(&mut self.signatures[row], signature);
                self.detach_row(row);
                self.attach_row(row);
                Some(previous)
            }
            Err(pos) => {
                let row = self.devices.len();
                self.devices.push(device);
                self.signatures.push(signature);
                self.order.insert(pos, row as u32);
                self.placement.push(Placement::default());
                self.attach_row(row);
                None
            }
        })
    }

    /// Removes a device, returning its signature (`Ok(None)` when the
    /// device was not enrolled). Shard membership, per-shard slots and
    /// the sorted address index all stay consistent, so a later
    /// [`ReferenceDb::insert`] of the same or another device scores
    /// identically to a freshly built database.
    ///
    /// Cost: `O(devices)` for the index, plus per block of the device's
    /// shard one shift of the later slots (`O(slots × bins)` bytes) and a
    /// prune-summary repair that rescans only the envelope bins the
    /// removed row attained — `O(slots)` each — instead of the whole
    /// block.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrozenDatabase`] after [`ReferenceDb::freeze`].
    pub fn remove(&mut self, device: &MacAddr) -> Result<Option<Signature>, CoreError> {
        if self.frozen {
            return Err(CoreError::FrozenDatabase { device: Some(*device) });
        }
        let Ok(pos) = self.position(*device) else {
            return Ok(None);
        };
        let row = self.order.remove(pos) as usize;
        self.detach_row(row);
        self.devices.remove(row);
        let sig = self.signatures.remove(row);
        self.placement.remove(row);
        for idx in &mut self.order {
            if *idx as usize > row {
                *idx -= 1;
            }
        }
        // Global rows above the removed one shifted down by one; the
        // shard directories index by global row and must follow.
        for shard in &mut self.shards {
            for r in &mut shard.rows {
                if *r as usize > row {
                    *r -= 1;
                }
            }
        }
        Ok(Some(sig))
    }

    /// Ends the enrollment phase: every subsequent [`ReferenceDb::insert`]
    /// or [`ReferenceDb::remove`] is rejected with
    /// [`CoreError::FrozenDatabase`], so a detection phase holding this
    /// database matches against a stable reference set. Freezing is
    /// idempotent and one-way; to keep enrolling, freeze a
    /// [`ReferenceDb::snapshot`] instead and retain the original.
    ///
    /// Matching never requires a frozen database — freezing is the
    /// lifecycle *guard*, not a precondition.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// `true` once [`ReferenceDb::freeze`] (or
    /// [`ReferenceDb::snapshot`]) sealed this database.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// A frozen copy of the current state: the detection-phase view of a
    /// database that keeps enrolling. The original stays mutable.
    pub fn snapshot(&self) -> ReferenceDb {
        let mut copy = self.clone();
        copy.frozen = true;
        copy
    }

    /// The signature of a device, if present.
    pub fn get(&self, device: &MacAddr) -> Option<&Signature> {
        self.position(*device).ok().map(|pos| &self.signatures[self.order[pos] as usize])
    }

    /// `true` if the device has a reference signature.
    pub fn contains(&self, device: &MacAddr) -> bool {
        self.position(*device).is_ok()
    }

    /// Number of reference devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterates `(device, signature)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (MacAddr, &Signature)> {
        self.order.iter().map(|&i| (self.devices[i as usize], &self.signatures[i as usize]))
    }

    /// The devices in the database, in address order.
    pub fn devices(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.order.iter().map(|&i| self.devices[i as usize])
    }

    /// Attaches global row `row` to its shard: appends a slot and writes
    /// the device's per-kind vectors, creating blocks for `(kind, bins)`
    /// pairs the shard sees for the first time.
    fn attach_row(&mut self, row: usize) {
        let shard_idx = self.shard_key(self.devices[row], &self.signatures[row]);
        let ReferenceDb { config, signatures, placement, kind_keys, shards, .. } = self;
        let precision = config.precision;
        let shard = &mut shards[shard_idx];
        let slot = shard.rows.len();
        shard.rows.push(row as u32);
        for block in &mut shard.blocks {
            block.push_empty_slot();
        }
        placement[row] = Placement { shard: shard_idx as u16, slot: slot as u32 };
        let sig = &signatures[row];
        let slots = shard.rows.len();
        for (kind, hist) in sig.iter() {
            if hist.total() == 0 {
                continue;
            }
            let bins = hist.counts().len();
            let idx = match shard
                .blocks
                .binary_search_by(|b| (b.kind, b.bins).cmp(&(kind, bins)))
            {
                Ok(i) => i,
                Err(i) => {
                    shard.blocks.insert(i, KindBlock::empty(kind, bins, slots, precision));
                    i
                }
            };
            shard.blocks[idx].set_slot(slot, hist, sig.weight(kind) as f32);
            if let Err(i) = kind_keys.binary_search(&(kind, bins)) {
                kind_keys.insert(i, (kind, bins));
            }
        }
    }

    /// Detaches global row `row` from its shard: drops its slot, shifts
    /// the later residents down, and repairs the affected prune
    /// summaries in place (the envelope may shrink; see
    /// [`KindBlock::remove_slot`]).
    fn detach_row(&mut self, row: usize) {
        let Placement { shard: shard_idx, slot } = self.placement[row];
        let ReferenceDb { placement, shards, .. } = self;
        let shard = &mut shards[shard_idx as usize];
        let slot = slot as usize;
        shard.rows.remove(slot);
        for &r in &shard.rows[slot..] {
            placement[r as usize].slot -= 1;
        }
        for block in &mut shard.blocks {
            block.remove_slot(slot);
        }
        shard.blocks.retain(|b| b.wmax > 0.0);
    }

    /// Repacks the index, the shard directory and the per-kind matrices
    /// from the current signatures (bulk construction).
    fn rebuild(&mut self) {
        let n = self.devices.len();
        self.order = (0..n as u32).collect();
        self.order.sort_by_key(|&i| self.devices[i as usize]);
        self.placement = vec![Placement::default(); n];
        self.kind_keys.clear();
        let shards = self.shards.len();
        self.shards = vec![Shard::default(); shards];
        for row in 0..n {
            self.attach_row(row);
        }
    }

    /// Algorithm 1: matches a candidate signature against every reference.
    ///
    /// For each reference `rᵢ` the score is
    /// `simᵢ = Σ_{ftype ∈ Sig(c)} weight^ftype(rᵢ) · sim(hist^ftype(c), hist^ftype(rᵢ))`,
    /// i.e. the per-frame-type histogram similarities weighted by the
    /// **reference's** frame-type distribution. Scores lie in `[0, 1]`.
    ///
    /// Convenience form that allocates its outcome; the hot paths are
    /// [`ReferenceDb::match_signature_with`],
    /// [`ReferenceDb::match_tile`] and — for argmax/top-k consumers at
    /// scale — the pruned [`ReferenceDb::match_topk`].
    pub fn match_signature(&self, candidate: &Signature, measure: SimilarityMeasure) -> MatchOutcome {
        let mut scratch = MatchScratch::new();
        self.match_signature_with(candidate, measure, &mut scratch);
        MatchOutcome { sims: std::mem::take(&mut scratch.pairs) }
    }

    /// Algorithm 1 without per-call allocation: scores accumulate into
    /// `scratch` (reused across calls) and the returned [`MatchView`]
    /// borrows from it. Internally this is a [`ReferenceDb::match_tile`]
    /// with a tile of one.
    pub fn match_signature_with<'s>(
        &self,
        candidate: &Signature,
        measure: SimilarityMeasure,
        scratch: &'s mut MatchScratch,
    ) -> MatchView<'s> {
        self.match_tile_into(std::slice::from_ref(candidate), measure, scratch);
        MatchView { sims: &scratch.pairs }
    }

    /// Scores a tile of `K` candidate signatures in one pass over the
    /// reference rows (matrix–matrix instead of `K` matrix–vector
    /// sweeps): each reference row is loaded once and dotted against all
    /// `K` candidates while hot in cache. This is the **dense** sweep:
    /// every shard is visited, and the result is bit-for-bit the flat
    /// (`shards == 1`) layout's.
    ///
    /// The returned [`TileView`] exposes one [`MatchView`] per candidate,
    /// in input order; each is identical (within float rounding of the
    /// score accumulation order — the per-pair arithmetic is the same) to
    /// a [`ReferenceDb::match_signature_with`] call for that candidate.
    /// Callers batching many windows should chunk them by [`MATCH_TILE`].
    pub fn match_tile<'s, C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        measure: SimilarityMeasure,
        scratch: &'s mut MatchScratch,
    ) -> TileView<'s> {
        self.match_tile_into(candidates, measure, scratch);
        TileView { pairs: &scratch.pairs, n: self.devices.len(), k: candidates.len() }
    }

    /// The shared dense sweep: fills `scratch.pairs` with `K × N`
    /// `(device, score)` pairs, candidate-major, each candidate's segment
    /// in ascending address order.
    ///
    /// Frame kinds are the outer loop (ascending `(kind, bins)`, exactly
    /// the flat block order) and shards the inner loop, so each device's
    /// `f64` score accumulates its per-kind contributions in the same
    /// order regardless of sharding — the sharded dense sweep is
    /// bit-identical to the flat one.
    // One pass over every (shard, kind, store) combination: splitting it
    // would re-derive the packing state each sub-call shares.
    #[allow(clippy::too_many_lines)]
    fn match_tile_into<C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        measure: SimilarityMeasure,
        scratch: &mut MatchScratch,
    ) {
        let n = self.devices.len();
        let k = candidates.len();
        scratch.scores.clear();
        scratch.scores.resize(k * n, 0.0);
        let dot = kernel::dot_fn();
        let precision = self.config.precision;
        let cosine = measure == SimilarityMeasure::Cosine;
        for &(kind, bins) in &self.kind_keys {
            // Pack this kind's tile: the rows of every candidate that
            // carries this (kind, bins), at the database's precision.
            // Candidates binned differently (or missing the kind) simply
            // don't join — incompatible binning carries no information.
            scratch.tile_rows.clear();
            scratch.tile_qrows.clear();
            scratch.tile_inv_norms.clear();
            scratch.tile_slots.clear();
            for (ci, cand) in candidates.iter().enumerate() {
                let Some(hist) = cand.borrow().histogram(kind) else { continue };
                if hist.total() == 0 {
                    continue; // an empty candidate histogram matches nothing
                }
                if hist.counts().len() != bins {
                    continue;
                }
                if precision == RowPrecision::U8 && cosine {
                    // Quantized cosine: dot the candidate's own codes
                    // against the reference codes with the exact integer
                    // kernel; the per-row scales cancel out of cosine.
                    let q = hist.frequencies_u8();
                    scratch.tile_qrows.extend_from_slice(q.values());
                    scratch.tile_inv_norms.push(f64::from(q.inv_norm()));
                } else {
                    let freqs = hist.frequencies_f32();
                    scratch.tile_rows.extend_from_slice(freqs);
                    // Only the cosine branch reads the norms; skip the
                    // self-dot for the other measures.
                    scratch.tile_inv_norms.push(if cosine {
                        f64::from(inv_norm(freqs))
                    } else {
                        0.0
                    });
                }
                scratch.tile_slots.push(ci);
            }
            let tile = scratch.tile_slots.len();
            if tile == 0 {
                continue;
            }
            // The matrix–matrix sweep over every shard holding this
            // kind: one linear pass over each shard's packed rows; every
            // row is dotted against the whole tile while resident in L1.
            // Zero-weight rows are absent devices.
            for shard in &self.shards {
                let Some(block) = shard.block(kind, bins) else { continue };
                match (&block.store, cosine) {
                    (RowStore::F32(rows), true) => {
                        for (slot, row) in rows.chunks_exact(bins).enumerate() {
                            let weight = block.weights[slot];
                            if weight == 0.0 {
                                continue;
                            }
                            let weight = f64::from(weight);
                            let i = shard.rows[slot] as usize;
                            // Row norms were fixed at pack time and
                            // candidate norms are invariant across rows,
                            // so the per-pair kernel is one SIMD dot.
                            let row_inv = f64::from(block.inv_norms[slot]);
                            for t in 0..tile {
                                let cand = &scratch.tile_rows[t * bins..(t + 1) * bins];
                                let cos = (f64::from(dot(cand, row))
                                    * scratch.tile_inv_norms[t]
                                    * row_inv)
                                    .clamp(0.0, 1.0);
                                scratch.scores[scratch.tile_slots[t] * n + i] += weight * cos;
                            }
                        }
                    }
                    (RowStore::U8 { cols, cap, .. }, true) => {
                        // The column kernel: each candidate's exact dots
                        // against every slot at once, reading only the
                        // columns where the candidate has mass.
                        let slots = block.weights.len();
                        scratch.u8_dots.resize(slots, 0);
                        for t in 0..tile {
                            let cand = &scratch.tile_qrows[t * bins..(t + 1) * bins];
                            kernel::dot_u8_columns(cand, cols, *cap, &mut scratch.u8_dots[..slots]);
                            let cand_inv = scratch.tile_inv_norms[t];
                            let scores = &mut scratch.scores[scratch.tile_slots[t] * n..];
                            for (slot, &d) in scratch.u8_dots[..slots].iter().enumerate() {
                                let weight = block.weights[slot];
                                if weight == 0.0 {
                                    continue;
                                }
                                let weight = f64::from(weight);
                                let row_inv = f64::from(block.inv_norms[slot]);
                                let cos = (f64::from(d) * cand_inv * row_inv).clamp(0.0, 1.0);
                                scores[shard.rows[slot] as usize] += weight * cos;
                            }
                        }
                    }
                    (RowStore::F32(rows), false) => {
                        for (slot, row) in rows.chunks_exact(bins).enumerate() {
                            let weight = block.weights[slot];
                            if weight == 0.0 {
                                continue;
                            }
                            let weight = f64::from(weight);
                            let i = shard.rows[slot] as usize;
                            for t in 0..tile {
                                let cand = &scratch.tile_rows[t * bins..(t + 1) * bins];
                                scratch.scores[scratch.tile_slots[t] * n + i] +=
                                    weight * measure.compute_dense_f32(cand, row);
                            }
                        }
                    }
                    (RowStore::U8 { cols, cap, scales }, false) => {
                        // Non-cosine measures read frequencies, not
                        // directions: gather each reference row from the
                        // columns, dequantize it once per tile and reuse
                        // the dense f32 kernels.
                        for (slot, &weight) in block.weights.iter().enumerate() {
                            if weight == 0.0 {
                                continue;
                            }
                            let weight = f64::from(weight);
                            let i = shard.rows[slot] as usize;
                            let scale = scales[slot];
                            scratch.dequant_row.clear();
                            scratch.dequant_row.extend(
                                cols.chunks_exact(*cap).map(|col| f32::from(col[slot]) * scale),
                            );
                            for t in 0..tile {
                                let cand = &scratch.tile_rows[t * bins..(t + 1) * bins];
                                scratch.scores[scratch.tile_slots[t] * n + i] +=
                                    weight * measure.compute_dense_f32(cand, &scratch.dequant_row);
                            }
                        }
                    }
                }
            }
        }
        // Emit (device, score) pairs: candidate-major, address order
        // within each candidate (the order every view API documents).
        scratch.pairs.clear();
        scratch.pairs.reserve(k * n);
        for c in 0..k {
            let scores = &scratch.scores[c * n..(c + 1) * n];
            scratch
                .pairs
                .extend(self.order.iter().map(|&i| (self.devices[i as usize], scores[i as usize])));
        }
    }

    /// The **pruned** sweep: the `k` most similar references to a
    /// candidate, best first, skipping every shard whose best possible
    /// score cannot beat the current `k`-th best.
    ///
    /// Per shard and frame kind the store keeps an upper envelope of the
    /// normalised rows plus the maximum reference weight; one dot
    /// against the envelope bounds every resident device's cosine from
    /// above (frequencies are non-negative), so
    /// `Σ_kind wmax · min(1, ĉ·envelope)` bounds every resident score.
    /// Shards are processed in descending bound order and skipped once
    /// their bound (plus [`F32_SCORE_TOLERANCE`] of rounding slack)
    /// falls below the current `k`-th best score — the bound is
    /// admissible, so the result equals the dense sweep's
    /// [`MatchOutcome::top`] exactly: same devices, same scores, same
    /// deterministic tie order.
    ///
    /// Pruning applies to [`SimilarityMeasure::Cosine`] on a sharded
    /// (`shards > 1`) database; other measures and flat databases fall
    /// back to the dense sweep plus partial selection.
    /// [`MatchScratch::prune_stats`] reports how many shards the call
    /// swept versus pruned. This is [`ReferenceDb::match_topk_tile`]
    /// with a tile of one.
    pub fn match_topk(
        &self,
        candidate: &Signature,
        k: usize,
        measure: SimilarityMeasure,
        scratch: &mut MatchScratch,
    ) -> Vec<(MacAddr, f64)> {
        self.match_topk_tile(std::slice::from_ref(candidate), k, measure, scratch)
            .pop()
            .unwrap_or_default()
    }

    /// The **tile-wide** pruned sweep: one top-`k` ranking per candidate,
    /// in input order, with the whole tile sharing a single pass over the
    /// shard order.
    ///
    /// Shards are visited in descending order of their *best* bound over
    /// the tile, and each candidate decides independently per shard: a
    /// candidate whose own bound for the shard (plus rounding slack)
    /// cannot beat its current `k`-th best skips it, while the shard's
    /// rows are loaded once for all candidates still active — so a K-wide
    /// tile costs one shard pass, not K, and each candidate still prunes
    /// exactly as aggressively as a solo [`ReferenceDb::match_topk`]
    /// (which *is* this sweep with a tile of one). Per-candidate results
    /// equal the dense sweep's [`MatchOutcome::top`]: same devices, same
    /// scores, same deterministic tie order.
    ///
    /// [`MatchScratch::prune_stats`] counts (candidate, shard) decisions,
    /// aggregated over the tile.
    // The bound ordering, per-candidate activation and gathered sweep
    // share packing state that a split would have to re-thread.
    #[allow(clippy::too_many_lines)]
    pub fn match_topk_tile<C: Borrow<Signature>>(
        &self,
        candidates: &[C],
        k: usize,
        measure: SimilarityMeasure,
        scratch: &mut MatchScratch,
    ) -> Vec<Vec<(MacAddr, f64)>> {
        let kc = candidates.len();
        scratch.prune_swept = 0;
        scratch.prune_pruned = 0;
        if k == 0 || self.devices.is_empty() || kc == 0 {
            return vec![Vec::new(); kc];
        }
        let occupied = self.shards.iter().filter(|s| !s.rows.is_empty()).count();
        if measure != SimilarityMeasure::Cosine || self.shards.len() <= 1 {
            // No admissible bound for the other measures, nothing to
            // prune in a flat layout: dense sweep + partial selection.
            self.match_tile_into(candidates, measure, scratch);
            scratch.prune_swept = occupied * kc;
            let n = self.devices.len();
            return (0..kc).map(|c| top_of(&scratch.pairs[c * n..(c + 1) * n], k)).collect();
        }
        let dot = kernel::dot_fn();
        let quantized = self.config.precision == RowPrecision::U8;

        // Pack each candidate's rows once per (kind, bins) key. The u8
        // tier packs the quantized codes (what the integer kernel dots
        // against the stored rows) and, in parallel at the same offsets,
        // their f32 widening — the envelope bound is a float dot in both
        // tiers.
        scratch.tile_rows.clear();
        scratch.tile_qrows.clear();
        scratch.cand_kinds.clear();
        scratch.cand_ranges.clear();
        for (ci, cand) in candidates.iter().enumerate() {
            let start = scratch.cand_kinds.len();
            for (ki, &(kind, bins)) in self.kind_keys.iter().enumerate() {
                let Some(hist) = cand.borrow().histogram(kind) else { continue };
                if hist.total() == 0 {
                    continue;
                }
                if hist.counts().len() != bins {
                    continue;
                }
                let offset = scratch.tile_rows.len();
                if quantized {
                    let q = hist.frequencies_u8();
                    debug_assert_eq!(offset, scratch.tile_qrows.len());
                    scratch.tile_qrows.extend_from_slice(q.values());
                    scratch.tile_rows.extend(q.values().iter().map(|&c| f32::from(c)));
                    scratch.cand_kinds.push((ci, ki, offset, f64::from(q.inv_norm())));
                } else {
                    let freqs = hist.frequencies_f32();
                    scratch.tile_rows.extend_from_slice(freqs);
                    scratch.cand_kinds.push((ci, ki, offset, f64::from(inv_norm(freqs))));
                }
            }
            scratch.cand_ranges.push((start, scratch.cand_kinds.len()));
        }

        // One bound per (occupied shard, candidate):
        // Σ_kind wmax · min(1, ĉ·envelope); shards are then ordered by
        // their best bound over the tile, which for a tile of one is
        // exactly the solo sweep's order.
        scratch.tile_bounds.clear();
        scratch.tile_bounds.resize(self.shards.len() * kc, 0.0);
        scratch.shard_bounds.clear();
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.rows.is_empty() {
                continue;
            }
            let mut best = f64::NEG_INFINITY;
            for ci in 0..kc {
                let (start, end) = scratch.cand_ranges[ci];
                let mut bound = 0.0f64;
                for &(_, ki, offset, cand_inv) in &scratch.cand_kinds[start..end] {
                    let (kind, bins) = self.kind_keys[ki];
                    let Some(block) = shard.block(kind, bins) else { continue };
                    if block.wmax == 0.0 {
                        continue;
                    }
                    let cand = &scratch.tile_rows[offset..offset + bins];
                    let cos_ub =
                        (f64::from(dot(cand, &block.envelope)) * cand_inv).clamp(0.0, 1.0);
                    bound += f64::from(block.wmax) * cos_ub;
                }
                let bound = bound.min(1.0) + PRUNE_BOUND_SLACK;
                scratch.tile_bounds[si * kc + ci] = bound;
                best = best.max(bound);
            }
            scratch.shard_bounds.push((si as u32, best));
        }
        scratch.shard_bounds.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });

        let mut tops: Vec<Vec<(MacAddr, f64)>> = vec![Vec::new(); kc];
        for bi in 0..scratch.shard_bounds.len() {
            let (si, _) = scratch.shard_bounds[bi];
            let si = si as usize;
            let shard = &self.shards[si];
            // Each candidate decides for itself; the shard is scored
            // once for whoever is left. Bounds are admissible, so a
            // skipped (candidate, shard) pair could not have changed
            // that candidate's top-k.
            scratch.active.clear();
            for (ci, top) in tops.iter().enumerate() {
                if top.len() >= k && scratch.tile_bounds[si * kc + ci] < top[k - 1].1 {
                    scratch.prune_pruned += 1;
                } else {
                    scratch.active.push(ci);
                    scratch.prune_swept += 1;
                }
            }
            if scratch.active.is_empty() {
                continue;
            }
            let slots = shard.rows.len();
            scratch.shard_scores.clear();
            scratch.shard_scores.resize(slots * kc, 0.0);
            // Group the active candidates' packed kinds by kind so each
            // block is walked once for the whole tile: frame kinds
            // ascending, rows inner, candidates innermost — per
            // (candidate, row) that is the dense sweep's ascending-kind
            // `f64` accumulation, so surviving scores are bit-identical
            // to it.
            scratch.sweep_entries.clear();
            for &ci in &scratch.active {
                let (start, end) = scratch.cand_ranges[ci];
                scratch.sweep_entries.extend_from_slice(&scratch.cand_kinds[start..end]);
            }
            scratch.sweep_entries.sort_unstable_by_key(|&(ci, ki, _, _)| (ki, ci));
            let mut e = 0;
            while e < scratch.sweep_entries.len() {
                let ki = scratch.sweep_entries[e].1;
                let mut end = e + 1;
                while end < scratch.sweep_entries.len() && scratch.sweep_entries[end].1 == ki {
                    end += 1;
                }
                let (kind, bins) = self.kind_keys[ki];
                let Some(block) = shard.block(kind, bins) else {
                    e = end;
                    continue;
                };
                match &block.store {
                    RowStore::F32(rows) => {
                        for (slot, row) in rows.chunks_exact(bins).enumerate() {
                            let weight = block.weights[slot];
                            if weight == 0.0 {
                                continue;
                            }
                            let row_inv = f64::from(block.inv_norms[slot]);
                            for &(ci, _, offset, cand_inv) in &scratch.sweep_entries[e..end] {
                                let cand = &scratch.tile_rows[offset..offset + bins];
                                let cos =
                                    (f64::from(dot(cand, row)) * cand_inv * row_inv)
                                        .clamp(0.0, 1.0);
                                scratch.shard_scores[ci * slots + slot] +=
                                    f64::from(weight) * cos;
                            }
                        }
                    }
                    RowStore::U8 { cols, cap, .. } => {
                        // The column kernel, one active candidate at a
                        // time: exact dots against every slot, reading
                        // only the columns where the candidate has mass.
                        scratch.u8_dots.resize(slots, 0);
                        for &(ci, _, offset, cand_inv) in &scratch.sweep_entries[e..end] {
                            let cand = &scratch.tile_qrows[offset..offset + bins];
                            kernel::dot_u8_columns(cand, cols, *cap, &mut scratch.u8_dots[..slots]);
                            let scores = &mut scratch.shard_scores[ci * slots..(ci + 1) * slots];
                            for (slot, &d) in scratch.u8_dots[..slots].iter().enumerate() {
                                let weight = block.weights[slot];
                                if weight == 0.0 {
                                    continue;
                                }
                                let row_inv = f64::from(block.inv_norms[slot]);
                                let cos = (f64::from(d) * cand_inv * row_inv).clamp(0.0, 1.0);
                                scores[slot] += f64::from(weight) * cos;
                            }
                        }
                    }
                }
                e = end;
            }
            // Merge the shard into each active candidate's running
            // top-k, kept sorted by rank at all times: entries that
            // cannot outrank the current k-th best are dropped with one
            // comparison, survivors are placed by binary insertion (k is
            // small). Candidates with packed kinds absent from this
            // shard merge zeros, exactly like the dense sweep.
            for &ci in &scratch.active {
                let tops_c = &mut tops[ci];
                let shard_scores = &scratch.shard_scores[ci * slots..(ci + 1) * slots];
                for (&r, &s) in shard.rows.iter().zip(shard_scores) {
                    let entry = (self.devices[r as usize], s);
                    if tops_c.len() >= k
                        && rank_desc(&entry, &tops_c[k - 1]) != std::cmp::Ordering::Less
                    {
                        continue;
                    }
                    let pos = tops_c
                        .partition_point(|e| rank_desc(e, &entry) == std::cmp::Ordering::Less);
                    tops_c.insert(pos, entry);
                    tops_c.truncate(k);
                }
            }
        }
        tops
    }

    /// Matches a batch of candidate signatures, returning one outcome per
    /// candidate in order. Candidates are scored in [`MATCH_TILE`]-wide
    /// tiles ([`ReferenceDb::match_tile`]); with the `parallel` feature
    /// (default) the tiles are split across threads, one [`MatchScratch`]
    /// per worker.
    pub fn match_batch(
        &self,
        candidates: &[Signature],
        measure: SimilarityMeasure,
    ) -> Vec<MatchOutcome> {
        crate::batch::map_tiles_with_scratch(
            candidates,
            MATCH_TILE,
            MatchScratch::new,
            |scratch, tile| {
                let view = self.match_tile(tile, measure, scratch);
                (0..tile.len()).map(|t| view.candidate(t).to_outcome()).collect()
            },
        )
    }

    /// The pre-SoA matching path: per-call candidate frequency allocation,
    /// per-device frame-kind lookups, and full-`f64` arithmetic
    /// throughout. Test-only: the f64 ground truth the f32 engine's parity
    /// tests compare against (equal output within [`F32_SCORE_TOLERANCE`]).
    #[cfg(test)]
    pub fn match_signature_naive(
        &self,
        candidate: &Signature,
        measure: SimilarityMeasure,
    ) -> MatchOutcome {
        let cand_freqs: Vec<(FrameKind, Vec<f64>)> =
            candidate.iter().map(|(kind, hist)| (kind, hist.frequency_vec())).collect();
        let mut sims = Vec::with_capacity(self.devices.len());
        for (device, sig) in self.iter() {
            let mut sim = 0.0;
            for (kind, cand_freq) in &cand_freqs {
                if let Some(hist) = sig.histogram(*kind) {
                    sim += sig.weight(*kind) * measure.compute(cand_freq, hist.frequencies());
                }
            }
            sims.push((device, sim));
        }
        MatchOutcome { sims }
    }
}

/// `1 / ‖row‖₂` through the dispatched kernel; 0.0 for an all-zero row.
fn inv_norm(row: &[f32]) -> f32 {
    let norm_sq = f64::from(kernel::dot_f32(row, row));
    if norm_sq > 0.0 {
        (1.0 / norm_sq.sqrt()) as f32
    } else {
        0.0
    }
}

/// How the last pruned sweep spent its shards (see
/// [`ReferenceDb::match_topk`] and [`MatchScratch::prune_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneStats {
    /// Shards whose rows were actually scored.
    pub swept_shards: usize,
    /// Shards skipped because their score bound could not beat the
    /// current top-k.
    pub pruned_shards: usize,
}

impl PruneStats {
    /// Fraction of the occupied shards the sweep skipped (0.0 when the
    /// database fits in one shard or the sweep fell back to dense).
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.swept_shards + self.pruned_shards;
        if total == 0 {
            0.0
        } else {
            self.pruned_shards as f64 / total as f64
        }
    }
}

/// Reusable buffers for [`ReferenceDb::match_signature_with`],
/// [`ReferenceDb::match_tile`] and [`ReferenceDb::match_topk`]: create
/// one per worker, reuse it for every window. Capacity grows to
/// `tile × database size` on first use and is retained afterwards, making
/// the steady state allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Per-(candidate, device) accumulators, candidate-major, indexed
    /// like `ReferenceDb::devices` (insertion order) within a candidate.
    scores: Vec<f64>,
    /// The `(device, similarity)` pairs the returned views expose:
    /// candidate-major, address order within each candidate.
    pairs: Vec<(MacAddr, f64)>,
    /// The current kind's packed candidate rows (`f32`, row-major).
    tile_rows: Vec<f32>,
    /// The current kind's packed candidate code rows (`u8` tier only),
    /// at the same per-candidate offsets as `tile_rows`.
    tile_qrows: Vec<u8>,
    /// Reciprocal L2 norms of the packed candidate rows.
    tile_inv_norms: Vec<f64>,
    /// Which candidate each packed tile row belongs to.
    tile_slots: Vec<usize>,
    /// Column-kernel outputs: one `u32` dot per slot of the block being
    /// swept (`u8` tier only).
    u8_dots: Vec<u32>,
    /// One dequantized reference row (`u8` tier, non-cosine measures).
    dequant_row: Vec<f32>,
    /// Pruned sweep: every candidate's packed kinds as
    /// `(candidate, kind_key index, offset into tile_rows, 1/‖row‖)`.
    cand_kinds: Vec<(usize, usize, usize, f64)>,
    /// Pruned sweep: each candidate's `start..end` range in `cand_kinds`.
    cand_ranges: Vec<(usize, usize)>,
    /// Pruned sweep: `(shard, best score bound over the tile)`, sorted
    /// descending.
    shard_bounds: Vec<(u32, f64)>,
    /// Pruned sweep: per-(shard, candidate) score upper bounds, indexed
    /// `shard * tile + candidate`.
    tile_bounds: Vec<f64>,
    /// Pruned sweep: candidates still active for the shard being swept.
    active: Vec<usize>,
    /// Pruned sweep: the active candidates' packed kinds for the current
    /// shard, grouped by kind (ascending).
    sweep_entries: Vec<(usize, usize, usize, f64)>,
    /// Pruned sweep: per-(candidate, slot) accumulators for the shard
    /// being swept, candidate-major.
    shard_scores: Vec<f64>,
    /// Shards scored by the last pruned sweep.
    prune_swept: usize,
    /// Shards skipped by the last pruned sweep.
    prune_pruned: usize,
}

impl MatchScratch {
    /// Empty scratch; buffers are sized lazily by the first match.
    pub fn new() -> Self {
        MatchScratch::default()
    }

    /// Shard accounting of the most recent [`ReferenceDb::match_topk`] /
    /// [`ReferenceDb::match_topk_tile`] call through this scratch.
    pub fn prune_stats(&self) -> PruneStats {
        PruneStats { swept_shards: self.prune_swept, pruned_shards: self.prune_pruned }
    }
}

/// A borrowed view of one match's similarity vector (the zero-allocation
/// counterpart of [`MatchOutcome`]).
#[derive(Debug, Clone, Copy)]
pub struct MatchView<'a> {
    sims: &'a [(MacAddr, f64)],
}

impl MatchView<'_> {
    /// All `(reference device, similarity)` pairs, in database order.
    pub fn similarities(&self) -> &[(MacAddr, f64)] {
        self.sims
    }

    /// The similarity to one specific reference device.
    pub fn similarity_to(&self, device: &MacAddr) -> Option<f64> {
        similarity_to(self.sims, *device)
    }

    /// The similarity test (§IV-B): references whose similarity is at
    /// least `threshold`.
    pub fn above_threshold(&self, threshold: f64) -> impl Iterator<Item = (MacAddr, f64)> + '_ {
        self.sims.iter().copied().filter(move |&(_, s)| s >= threshold)
    }

    /// The identification test (§IV-B): the single closest reference.
    ///
    /// Ties break toward the lower MAC address for determinism.
    pub fn best(&self) -> Option<(MacAddr, f64)> {
        best_of(self.sims)
    }

    /// The `k` most similar references, best first, via partial selection
    /// (`O(N + k log k)`) rather than a full sort. Ties order toward the
    /// lower MAC address; `top(1)` agrees with [`MatchView::best`].
    pub fn top(&self, k: usize) -> Vec<(MacAddr, f64)> {
        top_of(self.sims, k)
    }

    /// An owned copy of this view.
    pub fn to_outcome(&self) -> MatchOutcome {
        MatchOutcome { sims: self.sims.to_vec() }
    }
}

/// A borrowed view of one [`ReferenceDb::match_tile`] result: `K`
/// similarity vectors over the same reference set, one per candidate.
#[derive(Debug, Clone, Copy)]
pub struct TileView<'a> {
    /// Candidate-major `(device, similarity)` pairs; each candidate's
    /// segment is in ascending address order.
    pairs: &'a [(MacAddr, f64)],
    /// References per candidate (the database size at match time).
    n: usize,
    /// Candidates in the tile (kept separately so an empty database
    /// still yields one — empty — view per candidate).
    k: usize,
}

impl<'a> TileView<'a> {
    /// Number of candidates in the tile (the input length, even when the
    /// database was empty).
    pub fn candidate_count(&self) -> usize {
        self.k
    }

    /// The similarity vector of candidate `index` (input order). Against
    /// an empty database the view is empty, like
    /// [`ReferenceDb::match_signature_with`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `index >= candidate_count()`.
    pub fn candidate(&self, index: usize) -> MatchView<'a> {
        assert!(index < self.k, "candidate {index} out of range for tile of {}", self.k);
        MatchView { sims: &self.pairs[index * self.n..(index + 1) * self.n] }
    }

    /// Iterates the per-candidate views in input order (exactly
    /// [`TileView::candidate_count`] of them).
    pub fn views(&self) -> impl Iterator<Item = MatchView<'a>> + '_ {
        (0..self.k).map(|index| self.candidate(index))
    }
}

/// The similarity vector `<sim₁, …, sim_N>` returned by Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOutcome {
    sims: Vec<(MacAddr, f64)>,
}

impl MatchOutcome {
    /// The no-references outcome (used by the engine when scoring of
    /// unknown devices is disabled).
    pub(crate) fn empty() -> MatchOutcome {
        MatchOutcome { sims: Vec::new() }
    }

    /// All `(reference device, similarity)` pairs, in database order.
    pub fn similarities(&self) -> &[(MacAddr, f64)] {
        &self.sims
    }

    /// The similarity to one specific reference device.
    pub fn similarity_to(&self, device: &MacAddr) -> Option<f64> {
        similarity_to(&self.sims, *device)
    }

    /// The similarity test (§IV-B): references whose similarity is at
    /// least `threshold`.
    pub fn above_threshold(&self, threshold: f64) -> impl Iterator<Item = (MacAddr, f64)> + '_ {
        self.sims.iter().copied().filter(move |&(_, s)| s >= threshold)
    }

    /// The identification test (§IV-B): the single closest reference.
    ///
    /// Ties break toward the lower MAC address for determinism.
    pub fn best(&self) -> Option<(MacAddr, f64)> {
        best_of(&self.sims)
    }

    /// The `k` most similar references, best first, via partial selection
    /// (`O(N + k log k)`) rather than a full sort. Ties order toward the
    /// lower MAC address; `top(1)` agrees with [`MatchOutcome::best`].
    pub fn top(&self, k: usize) -> Vec<(MacAddr, f64)> {
        top_of(&self.sims, k)
    }
}

fn similarity_to(sims: &[(MacAddr, f64)], device: MacAddr) -> Option<f64> {
    // The vector is in ascending device order (database order).
    sims.binary_search_by(|(d, _)| d.cmp(&device)).ok().map(|i| sims[i].1)
}

/// Descending score; equal scores order toward the lower address, so the
/// ranking is deterministic and `top(1)` matches `best()`.
pub(crate) fn rank_desc(a: &(MacAddr, f64), b: &(MacAddr, f64)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
}

pub(crate) fn best_of(sims: &[(MacAddr, f64)]) -> Option<(MacAddr, f64)> {
    sims.iter().copied().min_by(rank_desc)
}

pub(crate) fn top_of(sims: &[(MacAddr, f64)], k: usize) -> Vec<(MacAddr, f64)> {
    if k == 0 || sims.is_empty() {
        return Vec::new();
    }
    if k == 1 {
        // Single scan, no copy of the similarity vector.
        return best_of(sims).into_iter().collect();
    }
    let mut ranked = sims.to_vec();
    let k = k.min(ranked.len());
    if k < ranked.len() {
        // Partial select: everything before index k ranks at least as
        // high as everything after it, in O(N).
        ranked.select_nth_unstable_by(k - 1, rank_desc);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(rank_desc);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::params::NetworkParameter;
    use proptest::prelude::*;

    fn cfg() -> EvalConfig {
        EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
    }

    fn sig_with(values: &[(FrameKind, f64, u64)]) -> Signature {
        let c = cfg();
        let mut sig = Signature::new();
        for &(kind, value, n) in values {
            for _ in 0..n {
                sig.record(kind, value, &c);
            }
        }
        sig
    }

    /// Every shard configuration parity tests sweep over — both
    /// precision tiers, since the consistency invariants (streamed ≡
    /// bulk, churn ≡ fresh, sharded ≡ flat) hold per tier.
    fn strategies() -> Vec<MatchConfig> {
        vec![
            MatchConfig::flat(),
            MatchConfig::default(),
            MatchConfig::default().with_shards(3),
            MatchConfig::default().with_strategy(ShardStrategy::MacPrefix).with_shards(5),
            MatchConfig::flat().with_precision(RowPrecision::U8),
            MatchConfig::quantized(),
            MatchConfig::quantized().with_strategy(ShardStrategy::MacPrefix).with_shards(5),
        ]
    }

    #[test]
    fn identical_signature_scores_one() {
        let sig = sig_with(&[(FrameKind::Data, 500.0, 30), (FrameKind::ProbeReq, 100.0, 10)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), sig.clone()).unwrap();
        let outcome = db.match_signature(&sig, SimilarityMeasure::Cosine);
        let (_, score) = outcome.best().unwrap();
        assert!((score - 1.0).abs() < F32_SCORE_TOLERANCE);
    }

    #[test]
    fn disjoint_histograms_score_zero() {
        let a = sig_with(&[(FrameKind::Data, 100.0, 10)]);
        let b = sig_with(&[(FrameKind::Data, 2000.0, 10)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), a).unwrap();
        let outcome = db.match_signature(&b, SimilarityMeasure::Cosine);
        assert_eq!(outcome.best().unwrap().1, 0.0);
    }

    #[test]
    fn missing_frame_types_contribute_nothing() {
        // Reference only has Data; candidate only has ProbeReq.
        let r = sig_with(&[(FrameKind::Data, 100.0, 10)]);
        let c = sig_with(&[(FrameKind::ProbeReq, 100.0, 10)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), r).unwrap();
        let outcome = db.match_signature(&c, SimilarityMeasure::Cosine);
        assert_eq!(outcome.similarities()[0].1, 0.0);
    }

    #[test]
    fn weights_come_from_the_reference() {
        // Reference: 90% Data at 100 µs, 10% ProbeReq at 200 µs.
        let r = sig_with(&[(FrameKind::Data, 100.0, 90), (FrameKind::ProbeReq, 200.0, 10)]);
        // Candidate matches only the ProbeReq histogram.
        let c = sig_with(&[(FrameKind::ProbeReq, 200.0, 50)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), r).unwrap();
        let outcome = db.match_signature(&c, SimilarityMeasure::Cosine);
        // Score = weight_ref(ProbeReq) × 1.0 = 0.1.
        assert!((outcome.similarities()[0].1 - 0.1).abs() < F32_SCORE_TOLERANCE);
    }

    #[test]
    fn best_picks_highest_similarity() {
        let near = sig_with(&[(FrameKind::Data, 500.0, 40), (FrameKind::Data, 525.0, 10)]);
        let far = sig_with(&[(FrameKind::Data, 1500.0, 50)]);
        let probe = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut db = ReferenceDb::new();
        let d_near = MacAddr::from_index(1);
        let d_far = MacAddr::from_index(2);
        db.insert(d_near, near).unwrap();
        db.insert(d_far, far).unwrap();
        let outcome = db.match_signature(&probe, SimilarityMeasure::Cosine);
        assert_eq!(outcome.best().unwrap().0, d_near);
        assert!(outcome.similarity_to(&d_far).unwrap() < outcome.similarity_to(&d_near).unwrap());
    }

    #[test]
    fn above_threshold_filters() {
        let base = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), base.clone()).unwrap();
        db.insert(MacAddr::from_index(2), sig_with(&[(FrameKind::Data, 2200.0, 50)])).unwrap();
        let outcome = db.match_signature(&base, SimilarityMeasure::Cosine);
        let hits: Vec<_> = outcome.above_threshold(0.9).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, MacAddr::from_index(1));
        assert_eq!(outcome.above_threshold(0.0).count(), 2);
    }

    #[test]
    fn db_crud_operations() {
        let mut db = ReferenceDb::new();
        assert!(db.is_empty());
        let dev = MacAddr::from_index(7);
        let sig = sig_with(&[(FrameKind::Data, 1.0, 5)]);
        assert!(db.insert(dev, sig.clone()).unwrap().is_none());
        assert!(db.contains(&dev));
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(&dev), Some(&sig));
        assert_eq!(db.devices().collect::<Vec<_>>(), vec![dev]);
        let replaced = db.insert(dev, sig_with(&[(FrameKind::Data, 2.0, 5)])).unwrap();
        assert_eq!(replaced, Some(sig));
        assert!(db.remove(&dev).unwrap().is_some());
        assert!(db.is_empty());
        assert!(db.remove(&dev).unwrap().is_none(), "absent device removes to None");
    }

    #[test]
    fn empty_signatures_are_rejected() {
        let mut db = ReferenceDb::new();
        let dev = MacAddr::from_index(1);
        match db.insert(dev, Signature::new()) {
            Err(CoreError::EmptySignature { device }) => assert_eq!(device, dev),
            other => panic!("expected EmptySignature, got {other:?}"),
        }
        assert!(db.is_empty());
    }

    #[test]
    fn freeze_guards_mutation_and_snapshot_splits_lifecycle() {
        let mut db = ReferenceDb::new();
        let d1 = MacAddr::from_index(1);
        let d2 = MacAddr::from_index(2);
        let sig = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        db.insert(d1, sig.clone()).unwrap();

        // A frozen snapshot serves detection while enrollment continues.
        let frozen = db.snapshot();
        assert!(frozen.is_frozen());
        assert!(!db.is_frozen());
        db.insert(d2, sig.clone()).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(frozen.len(), 1);

        // Matching works on both sides of the freeze.
        assert_eq!(frozen.match_signature(&sig, SimilarityMeasure::Cosine).best().unwrap().0, d1);

        // Mutating the frozen copy is a typed error, and changes nothing.
        let mut frozen = frozen;
        match frozen.insert(d2, sig.clone()) {
            Err(CoreError::FrozenDatabase { device }) => assert_eq!(device, Some(d2)),
            other => panic!("expected FrozenDatabase, got {other:?}"),
        }
        assert!(matches!(frozen.remove(&d1), Err(CoreError::FrozenDatabase { .. })));
        assert_eq!(frozen.len(), 1);

        // In-place freeze is idempotent.
        db.freeze();
        db.freeze();
        assert!(db.is_frozen());
        assert!(matches!(db.insert(d1, sig), Err(CoreError::FrozenDatabase { .. })));
    }

    #[test]
    fn empty_db_matches_nothing() {
        let db = ReferenceDb::new();
        let outcome =
            db.match_signature(&sig_with(&[(FrameKind::Data, 1.0, 5)]), SimilarityMeasure::Cosine);
        assert!(outcome.best().is_none());
        assert!(outcome.similarities().is_empty());
        let mut scratch = MatchScratch::new();
        assert!(db
            .match_topk(&sig_with(&[(FrameKind::Data, 1.0, 5)]), 3, SimilarityMeasure::Cosine, &mut scratch)
            .is_empty());
    }

    #[test]
    fn tie_breaks_toward_lower_address() {
        let sig = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(5), sig.clone()).unwrap();
        db.insert(MacAddr::from_index(3), sig.clone()).unwrap();
        let outcome = db.match_signature(&sig, SimilarityMeasure::Cosine);
        assert_eq!(outcome.best().unwrap().0, MacAddr::from_index(3));
    }

    #[test]
    fn scratch_view_equals_owned_outcome() {
        let mut db = ReferenceDb::new();
        for i in 1..=5u64 {
            db.insert(
                MacAddr::from_index(i),
                sig_with(&[(FrameKind::Data, 100.0 * i as f64, 30), (FrameKind::Beacon, 50.0, 5)]),
            ).unwrap();
        }
        let cand = sig_with(&[(FrameKind::Data, 250.0, 40)]);
        let mut scratch = MatchScratch::new();
        for m in SimilarityMeasure::ALL {
            let owned = db.match_signature(&cand, m);
            let view = db.match_signature_with(&cand, m, &mut scratch);
            assert_eq!(view.similarities(), owned.similarities(), "{m}");
            assert_eq!(view.best(), owned.best(), "{m}");
            assert_eq!(view.to_outcome(), owned, "{m}");
        }
    }

    #[test]
    fn matrix_sweep_agrees_with_naive_baseline() {
        let mut db = ReferenceDb::new();
        for i in 1..=16u64 {
            let kinds: &[(FrameKind, f64, u64)] = &[
                (FrameKind::Data, 37.0 * i as f64, 40 + i),
                (FrameKind::ProbeReq, 11.0 * i as f64, i),
                (FrameKind::Beacon, 500.0, 3),
            ];
            db.insert(MacAddr::from_index(i), sig_with(kinds)).unwrap();
        }
        let cand =
            sig_with(&[(FrameKind::Data, 370.0, 55), (FrameKind::ProbeReq, 110.0, 7)]);
        for m in SimilarityMeasure::ALL {
            let fast = db.match_signature(&cand, m);
            let naive = db.match_signature_naive(&cand, m);
            assert_eq!(fast.similarities().len(), naive.similarities().len());
            for (f, n) in fast.similarities().iter().zip(naive.similarities()) {
                assert_eq!(f.0, n.0);
                // The f32 rows round each frequency once; the f64
                // accumulation keeps the drift within the documented
                // tolerance of the all-f64 baseline.
                assert!((f.1 - n.1).abs() < F32_SCORE_TOLERANCE, "{m}: {} vs {}", f.1, n.1);
            }
        }
    }

    #[test]
    fn match_batch_preserves_order_and_scores() {
        let mut db = ReferenceDb::new();
        for i in 1..=8u64 {
            db.insert(MacAddr::from_index(i), sig_with(&[(FrameKind::Data, 90.0 * i as f64, 50)])).unwrap();
        }
        let candidates: Vec<Signature> =
            (1..=20u64).map(|i| sig_with(&[(FrameKind::Data, 90.0 * (i % 8 + 1) as f64, 50)])).collect();
        let batch = db.match_batch(&candidates, SimilarityMeasure::Cosine);
        assert_eq!(batch.len(), candidates.len());
        for (cand, outcome) in candidates.iter().zip(&batch) {
            assert_eq!(outcome, &db.match_signature(cand, SimilarityMeasure::Cosine));
        }
    }

    #[test]
    fn match_tile_equals_independent_matches() {
        let mut db = ReferenceDb::new();
        for i in 1..=12u64 {
            db.insert(
                MacAddr::from_index(i),
                sig_with(&[
                    (FrameKind::Data, 61.0 * i as f64, 30 + i),
                    (FrameKind::Beacon, 40.0 * i as f64, 4),
                ]),
            ).unwrap();
        }
        // A mixed tile: plain candidates, one missing a kind, one empty.
        let candidates = vec![
            sig_with(&[(FrameKind::Data, 122.0, 40)]),
            sig_with(&[(FrameKind::Beacon, 80.0, 9), (FrameKind::Data, 600.0, 11)]),
            Signature::new(),
            sig_with(&[(FrameKind::ProbeReq, 10.0, 25)]),
        ];
        let mut scratch = MatchScratch::new();
        let mut single = MatchScratch::new();
        for m in SimilarityMeasure::ALL {
            let tile = db.match_tile(&candidates, m, &mut scratch);
            assert_eq!(tile.candidate_count(), candidates.len());
            let views: Vec<MatchOutcome> = tile.views().map(|v| v.to_outcome()).collect();
            for (cand, got) in candidates.iter().zip(views) {
                let want = db.match_signature_with(cand, m, &mut single).to_outcome();
                assert_eq!(got, want, "{m}");
            }
        }
    }

    #[test]
    fn tile_against_empty_db_yields_one_empty_view_per_candidate() {
        let db = ReferenceDb::new();
        let candidates = vec![
            sig_with(&[(FrameKind::Data, 100.0, 10)]),
            sig_with(&[(FrameKind::Beacon, 50.0, 5)]),
        ];
        let mut scratch = MatchScratch::new();
        let tile = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
        assert_eq!(tile.candidate_count(), 2);
        assert_eq!(tile.views().count(), 2);
        for i in 0..2 {
            let view = tile.candidate(i);
            assert!(view.similarities().is_empty());
            assert!(view.best().is_none());
            assert!(view.top(3).is_empty());
        }
    }

    #[test]
    fn streaming_inserts_equal_bulk_pack() {
        // The incremental append path must produce a database that scores
        // identically to the one-shot pack — per shard configuration.
        for config in strategies() {
            let sigs: Vec<(MacAddr, Signature)> = (1..=9u64)
                .map(|i| {
                    (
                        // Out-of-order addresses exercise the sorted index.
                        MacAddr::from_index((i * 7) % 9 + 1),
                        sig_with(&[
                            (FrameKind::Data, 83.0 * i as f64, 20 + i),
                            (FrameKind::ProbeReq, 31.0 * i as f64, i % 3),
                        ]),
                    )
                })
                .collect();
            let mut streamed = ReferenceDb::with_config(config);
            for (dev, sig) in &sigs {
                streamed.insert(*dev, sig.clone()).unwrap();
            }
            let bulk = ReferenceDb::from_signatures_with(sigs.into_iter().collect(), config);
            assert_eq!(
                streamed.devices().collect::<Vec<_>>(),
                bulk.devices().collect::<Vec<_>>()
            );
            let cand = sig_with(&[(FrameKind::Data, 249.0, 33), (FrameKind::ProbeReq, 62.0, 5)]);
            for m in SimilarityMeasure::ALL {
                let a = streamed.match_signature(&cand, m);
                let b = bulk.match_signature(&cand, m);
                assert_eq!(a.similarities(), b.similarities(), "{m} under {config:?}");
            }
            // Replacement detaches and re-attaches (possibly migrating
            // shards) and stays consistent too.
            let dev = streamed.devices().next().unwrap();
            let replacement = sig_with(&[(FrameKind::Beacon, 700.0, 12)]);
            streamed.insert(dev, replacement.clone()).unwrap();
            let mut bulk_map: BTreeMap<MacAddr, Signature> =
                bulk.iter().map(|(d, s)| (d, s.clone())).collect();
            bulk_map.insert(dev, replacement);
            let repacked = ReferenceDb::from_signatures_with(bulk_map, config);
            let a = streamed.match_signature(&cand, SimilarityMeasure::Cosine);
            let b = repacked.match_signature(&cand, SimilarityMeasure::Cosine);
            assert_eq!(a.similarities(), b.similarities(), "{config:?}");
        }
    }

    #[test]
    fn remove_then_insert_keeps_shards_and_index_consistent() {
        // Regression for the sharded store: any interleaving of removes
        // and (re-)inserts must leave shard membership, slots and the
        // sorted address index scoring exactly like a freshly built
        // database.
        for config in strategies() {
            let sig_for = |i: u64| {
                sig_with(&[
                    (FrameKind::Data, 190.0 * (i % 13) as f64, 25 + i),
                    (FrameKind::ProbeReq, 60.0 * (i % 5) as f64, 4 + i % 3),
                ])
            };
            let mut db = ReferenceDb::with_config(config);
            for i in 1..=12u64 {
                db.insert(MacAddr::from_index(i), sig_for(i)).unwrap();
            }
            // Remove from the middle and both ends (stressing the
            // global-row shift), then re-insert one with a *different*
            // signature so it may migrate shards.
            for i in [6u64, 1, 12] {
                assert!(db.remove(&MacAddr::from_index(i)).unwrap().is_some(), "{config:?}");
            }
            db.insert(MacAddr::from_index(6), sig_for(99)).unwrap();
            db.insert(MacAddr::from_index(13), sig_for(13)).unwrap();

            let mut fresh_map: BTreeMap<MacAddr, Signature> = BTreeMap::new();
            for i in 2..=11u64 {
                fresh_map.insert(MacAddr::from_index(i), sig_for(i));
            }
            fresh_map.insert(MacAddr::from_index(6), sig_for(99));
            fresh_map.insert(MacAddr::from_index(13), sig_for(13));
            let fresh = ReferenceDb::from_signatures_with(fresh_map, config);

            assert_eq!(
                db.devices().collect::<Vec<_>>(),
                fresh.devices().collect::<Vec<_>>(),
                "{config:?}: address index"
            );
            let mut scratch = MatchScratch::new();
            for probe in [sig_for(99), sig_for(3), sig_for(13)] {
                let a = db.match_signature(&probe, SimilarityMeasure::Cosine);
                let b = fresh.match_signature(&probe, SimilarityMeasure::Cosine);
                assert_eq!(a.similarities(), b.similarities(), "{config:?}: dense parity");
                let ta = db.match_topk(&probe, 4, SimilarityMeasure::Cosine, &mut scratch);
                assert_eq!(ta, b.top(4), "{config:?}: pruned parity after churn");
            }
        }
    }

    #[test]
    fn sharded_dense_sweep_is_bit_identical_to_flat() {
        let sigs: Vec<(MacAddr, Signature)> = (1..=24u64)
            .map(|i| {
                (
                    MacAddr::from_index(i),
                    sig_with(&[
                        (FrameKind::Data, 97.0 * (i % 11) as f64, 30 + i),
                        (FrameKind::Beacon, 45.0 * (i % 4) as f64, i % 6),
                    ]),
                )
            })
            .collect();
        let cand = sig_with(&[(FrameKind::Data, 291.0, 40), (FrameKind::Beacon, 90.0, 6)]);
        for config in strategies() {
            // The flat baseline shares the config's precision: the
            // bit-identity claim is per tier.
            let flat = ReferenceDb::from_signatures_with(
                sigs.iter().cloned().collect(),
                MatchConfig::flat().with_precision(config.precision),
            );
            let sharded = ReferenceDb::from_signatures_with(sigs.iter().cloned().collect(), config);
            for m in SimilarityMeasure::ALL {
                let a = sharded.match_signature(&cand, m);
                let b = flat.match_signature(&cand, m);
                // Bit-identical, not merely within tolerance: the sweep
                // accumulates per device in the same kind order.
                assert_eq!(a.similarities(), b.similarities(), "{m} under {config:?}");
            }
        }
    }

    #[test]
    fn pruned_topk_equals_dense_topk() {
        let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(8));
        for i in 1..=40u64 {
            db.insert(
                MacAddr::from_index(i),
                sig_with(&[
                    (FrameKind::Data, 60.0 * (i % 16) as f64, 40),
                    (FrameKind::ProbeReq, 30.0 * (i % 7) as f64, 5),
                ]),
            )
            .unwrap();
        }
        let mut scratch = MatchScratch::new();
        for probe_seed in [1u64, 7, 15] {
            let cand = sig_with(&[(FrameKind::Data, 60.0 * (probe_seed % 16) as f64, 45)]);
            let dense = db.match_signature(&cand, SimilarityMeasure::Cosine);
            for k in [1usize, 3, 10, 40, 100] {
                let pruned = db.match_topk(&cand, k, SimilarityMeasure::Cosine, &mut scratch);
                assert_eq!(pruned, dense.top(k), "seed {probe_seed}, k {k}");
                let stats = scratch.prune_stats();
                assert!(stats.swept_shards + stats.pruned_shards > 0);
            }
        }
        // Tile form agrees with the per-candidate form.
        let cands: Vec<Signature> = (1..=5u64)
            .map(|i| sig_with(&[(FrameKind::Data, 60.0 * (i % 16) as f64, 45)]))
            .collect();
        let tiled = db.match_topk_tile(&cands, 3, SimilarityMeasure::Cosine, &mut scratch);
        for (cand, got) in cands.iter().zip(&tiled) {
            assert_eq!(got, &db.match_signature(cand, SimilarityMeasure::Cosine).top(3));
        }
    }

    #[test]
    fn pruned_topk_actually_prunes_separated_populations() {
        // Devices concentrated at well-separated dominant bins: a probe
        // near one cluster must not sweep every shard.
        let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(16));
        for i in 0..160u64 {
            let center = 150.0 * (i % 16) as f64 + 10.0;
            db.insert(MacAddr::from_index(i + 1), sig_with(&[(FrameKind::Data, center, 60)]))
                .unwrap();
        }
        let cand = sig_with(&[(FrameKind::Data, 310.0, 60)]);
        let mut scratch = MatchScratch::new();
        let pruned = db.match_topk(&cand, 3, SimilarityMeasure::Cosine, &mut scratch);
        assert_eq!(pruned, db.match_signature(&cand, SimilarityMeasure::Cosine).top(3));
        let stats = scratch.prune_stats();
        assert!(
            stats.pruned_shards > 0,
            "expected pruning on separated clusters, got {stats:?}"
        );
        assert!(stats.pruned_fraction() > 0.0 && stats.pruned_fraction() < 1.0);
    }

    #[test]
    fn non_cosine_topk_falls_back_to_dense() {
        let mut db = ReferenceDb::with_config(MatchConfig::default().with_shards(4));
        for i in 1..=10u64 {
            db.insert(MacAddr::from_index(i), sig_with(&[(FrameKind::Data, 55.0 * i as f64, 40)]))
                .unwrap();
        }
        let cand = sig_with(&[(FrameKind::Data, 165.0, 40)]);
        let mut scratch = MatchScratch::new();
        for m in SimilarityMeasure::ALL {
            let top = db.match_topk(&cand, 3, m, &mut scratch);
            assert_eq!(top, db.match_signature(&cand, m).top(3), "{m}");
            if m != SimilarityMeasure::Cosine {
                assert_eq!(scratch.prune_stats().pruned_shards, 0, "{m}: no pruning claimed");
            }
        }
    }

    #[test]
    fn top_k_ranks_and_ties_deterministically() {
        let mut db = ReferenceDb::new();
        for i in 1..=10u64 {
            db.insert(MacAddr::from_index(i), sig_with(&[(FrameKind::Data, 55.0 * i as f64, 40)])).unwrap();
        }
        let cand = sig_with(&[(FrameKind::Data, 165.0, 40)]);
        let outcome = db.match_signature(&cand, SimilarityMeasure::Cosine);
        let full: Vec<_> = {
            let mut v = outcome.similarities().to_vec();
            v.sort_by(rank_desc);
            v
        };
        for k in [0, 1, 3, 10, 25] {
            let top = outcome.top(k);
            assert_eq!(top.len(), k.min(full.len()));
            assert_eq!(top, full[..top.len()].to_vec(), "k = {k}");
        }
        assert_eq!(outcome.top(1)[0], outcome.best().unwrap());
        // Exact ties (identical references) rank by ascending address —
        // in the dense ranking AND the pruned sweep.
        let sig = sig_with(&[(FrameKind::Data, 500.0, 50)]);
        let mut tied = ReferenceDb::new();
        for i in [5u64, 2, 9] {
            tied.insert(MacAddr::from_index(i), sig.clone()).unwrap();
        }
        let top = tied.match_signature(&sig, SimilarityMeasure::Cosine).top(2);
        assert_eq!(top[0].0, MacAddr::from_index(2));
        assert_eq!(top[1].0, MacAddr::from_index(5));
        let mut scratch = MatchScratch::new();
        let pruned = tied.match_topk(&sig, 2, SimilarityMeasure::Cosine, &mut scratch);
        assert_eq!(pruned, top);
    }

    #[test]
    fn mixed_bin_specs_keep_every_reference_scoreable() {
        // Two references binned differently for the same kind: each must
        // still score against a candidate with its own spec (sibling
        // blocks keyed on (kind, bins)).
        let fine = cfg(); // 10 µs bins
        let coarse = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
            .with_bins(crate::histogram::BinSpec::uniform_to(2500.0, 50.0));
        let build = |c: &EvalConfig| {
            let mut s = Signature::new();
            for _ in 0..50 {
                s.record(FrameKind::Data, 400.0, c);
            }
            s
        };
        let mut db = ReferenceDb::new();
        let d_fine = MacAddr::from_index(1);
        let d_coarse = MacAddr::from_index(2);
        db.insert(d_fine, build(&fine)).unwrap();
        db.insert(d_coarse, build(&coarse)).unwrap();
        for (cand_cfg, expect_dev) in [(&fine, d_fine), (&coarse, d_coarse)] {
            let outcome = db.match_signature(&build(cand_cfg), SimilarityMeasure::Cosine);
            assert!((outcome.similarity_to(&expect_dev).unwrap() - 1.0).abs() < F32_SCORE_TOLERANCE);
            let naive = db.match_signature_naive(&build(cand_cfg), SimilarityMeasure::Cosine);
            for (f, n) in outcome.similarities().iter().zip(naive.similarities()) {
                assert_eq!(f.0, n.0);
                assert!((f.1 - n.1).abs() < F32_SCORE_TOLERANCE);
            }
        }
    }

    #[test]
    fn incompatible_bin_widths_score_zero_not_panic() {
        // Reference built with the default inter-arrival bins; candidate
        // with a coarser spec ⇒ different bin counts for the same kind.
        let mut db = ReferenceDb::new();
        db.insert(MacAddr::from_index(1), sig_with(&[(FrameKind::Data, 100.0, 50)])).unwrap();
        let coarse = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
            .with_bins(crate::histogram::BinSpec::uniform_to(2500.0, 100.0));
        let mut cand = Signature::new();
        for _ in 0..50 {
            cand.record(FrameKind::Data, 100.0, &coarse);
        }
        let outcome = db.match_signature(&cand, SimilarityMeasure::Cosine);
        assert_eq!(outcome.similarities()[0].1, 0.0);
    }

    #[test]
    fn quantized_self_match_scores_one() {
        // Cosine of a row with itself survives quantization exactly (up
        // to the norm rounding): codes dotted against themselves cancel
        // their own inverse norm.
        let sig = sig_with(&[(FrameKind::Data, 500.0, 30), (FrameKind::ProbeReq, 100.0, 10)]);
        let mut db = ReferenceDb::with_config(MatchConfig::quantized());
        db.insert(MacAddr::from_index(1), sig.clone()).unwrap();
        let (_, score) = db.match_signature(&sig, SimilarityMeasure::Cosine).best().unwrap();
        assert!((score - 1.0).abs() < F32_SCORE_TOLERANCE, "self-cosine {score}");
    }

    #[test]
    fn quantized_rows_halve_the_resident_bytes() {
        let sigs: Vec<(MacAddr, Signature)> = (1..=32u64)
            .map(|i| {
                (
                    MacAddr::from_index(i),
                    sig_with(&[
                        (FrameKind::Data, 70.0 * (i % 12) as f64, 40),
                        (FrameKind::ProbeReq, 35.0 * (i % 5) as f64, 6),
                    ]),
                )
            })
            .collect();
        let f32_db = ReferenceDb::from_signatures_with(
            sigs.iter().cloned().collect(),
            MatchConfig::default(),
        );
        let u8_db = ReferenceDb::from_signatures_with(
            sigs.iter().cloned().collect(),
            MatchConfig::quantized(),
        );
        let (f32_bytes, u8_bytes) = (f32_db.row_bytes(), u8_db.row_bytes());
        assert!(f32_bytes > 0 && u8_bytes > 0);
        // The acceptance bar is "halved"; with rows dominating the
        // metadata the quantized tier actually lands near a quarter.
        assert!(
            u8_bytes * 2 <= f32_bytes,
            "u8 tier holds {u8_bytes} B vs f32's {f32_bytes} B"
        );
    }

    #[test]
    fn quantized_non_cosine_measures_track_f32_on_concentrated_histograms() {
        // Non-cosine measures run the dequantized fallback; on realistic
        // (mass-concentrated) histograms the round-trip stays tight.
        let sigs: Vec<(MacAddr, Signature)> = (1..=10u64)
            .map(|i| (MacAddr::from_index(i), sig_with(&[(FrameKind::Data, 55.0 * i as f64, 40)])))
            .collect();
        let f32_db = ReferenceDb::from_signatures_with(
            sigs.iter().cloned().collect(),
            MatchConfig::default(),
        );
        let u8_db = ReferenceDb::from_signatures_with(
            sigs.iter().cloned().collect(),
            MatchConfig::quantized(),
        );
        let cand = sig_with(&[(FrameKind::Data, 165.0, 40)]);
        for m in SimilarityMeasure::ALL {
            let a = f32_db.match_signature(&cand, m);
            let b = u8_db.match_signature(&cand, m);
            for (f, q) in a.similarities().iter().zip(b.similarities()) {
                assert_eq!(f.0, q.0);
                assert!((f.1 - q.1).abs() < 2e-2, "{m}: {} vs {}", f.1, q.1);
            }
        }
    }

    #[test]
    fn tile_wide_pruned_sweep_prunes_per_candidate() {
        // Well-separated clusters, a full K=8 tile of probes aimed at
        // different clusters: every candidate's top-k must equal its
        // dense ranking while the tile as a whole skips shards — in both
        // precision tiers.
        for precision in [RowPrecision::F32, RowPrecision::U8] {
            let config =
                MatchConfig::default().with_shards(16).with_precision(precision);
            let mut db = ReferenceDb::with_config(config);
            for i in 0..160u64 {
                let center = 150.0 * (i % 16) as f64 + 10.0;
                db.insert(MacAddr::from_index(i + 1), sig_with(&[(FrameKind::Data, center, 60)]))
                    .unwrap();
            }
            let cands: Vec<Signature> = (0..8u64)
                .map(|i| sig_with(&[(FrameKind::Data, 150.0 * (2 * i) as f64 + 10.0, 60)]))
                .collect();
            let mut scratch = MatchScratch::new();
            let tiled = db.match_topk_tile(&cands, 3, SimilarityMeasure::Cosine, &mut scratch);
            let stats = scratch.prune_stats();
            for (cand, got) in cands.iter().zip(&tiled) {
                let dense = db.match_signature(cand, SimilarityMeasure::Cosine);
                assert_eq!(got, &dense.top(3), "{precision:?}");
            }
            assert!(
                stats.pruned_shards > 0,
                "{precision:?}: expected tile-wide pruning, got {stats:?}"
            );
            // One decision per (candidate, occupied shard).
            let decisions = stats.swept_shards + stats.pruned_shards;
            assert!(decisions > 0 && decisions.is_multiple_of(8), "{precision:?}: {stats:?}");
        }
    }

    // f32 ↔ f64 parity: the packed-f32 engine must track the all-f64
    // naive baseline within the documented tolerance for every measure,
    // on arbitrary databases and candidates.
    /// Every block's prune summary must bit-equal a from-scratch rebuild
    /// on a clone, and every `u8` lane past the resident slots must be
    /// zero.
    fn assert_summaries_rebuilt(db: &ReferenceDb, context: &str) {
        for (si, shard) in db.shards.iter().enumerate() {
            for block in &shard.blocks {
                assert_eq!(block.weights.len(), shard.rows.len(), "{context}: shard {si} slots");
                let mut fresh = block.clone();
                fresh.rebuild_summary();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&block.envelope),
                    bits(&fresh.envelope),
                    "{context}: shard {si} {:?}/{} envelope",
                    block.kind,
                    block.bins
                );
                assert_eq!(
                    block.wmax.to_bits(),
                    fresh.wmax.to_bits(),
                    "{context}: shard {si} {:?}/{} wmax",
                    block.kind,
                    block.bins
                );
                if let RowStore::U8 { cols, cap, .. } = &block.store {
                    assert_eq!(cols.len(), block.bins * cap, "{context}: column capacity");
                    let slots = block.weights.len();
                    assert!(
                        cols.chunks_exact(*cap).all(|col| col[slots..].iter().all(|&c| c == 0)),
                        "{context}: shard {si} spare lanes must be zero"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn f32_engine_tracks_f64_baseline(
            per_device in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..60), 1..10),
            cand_values in prop::collection::vec(0.0f64..2400.0, 1..60),
        ) {
            let c = cfg();
            let mut db = ReferenceDb::new();
            for (i, values) in per_device.iter().enumerate() {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 4 == 0 { FrameKind::ProbeReq } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
                db.insert(MacAddr::from_index(i as u64 + 1), sig).unwrap();
            }
            let mut cand = Signature::new();
            for &v in &cand_values {
                cand.record(FrameKind::Data, v, &c);
            }
            for m in SimilarityMeasure::ALL {
                let fast = db.match_signature(&cand, m);
                let baseline = db.match_signature_naive(&cand, m);
                for (f, n) in fast.similarities().iter().zip(baseline.similarities()) {
                    prop_assert_eq!(f.0, n.0);
                    prop_assert!(
                        (f.1 - n.1).abs() < F32_SCORE_TOLERANCE,
                        "{}: {} vs {}", m, f.1, n.1
                    );
                }
            }
        }

        // The acceptance property of the sharded refactor: over arbitrary
        // enrolments, shard strategies/counts and tile widths, the
        // sharded pruned sweep reports the flat dense sweep's top-k —
        // same argmax, same order, scores within F32_SCORE_TOLERANCE
        // (they are in fact bit-identical) — and the sharded dense sweep
        // reports the flat dense sweep's full vector exactly.
        #[test]
        fn sharded_pruned_sweep_equals_flat_dense_sweep(
            per_device in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..40), 1..14),
            cand_tiles in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..40), 1..5),
            shards in 1usize..7,
            mac_prefix in any::<bool>(),
            quantized in any::<bool>(),
            k in 1usize..8,
        ) {
            let c = cfg();
            let strategy = if mac_prefix {
                ShardStrategy::MacPrefix
            } else {
                ShardStrategy::DominantHistogram
            };
            let precision = if quantized { RowPrecision::U8 } else { RowPrecision::F32 };
            let config = MatchConfig { strategy, shards, precision };
            let mut sharded = ReferenceDb::with_config(config);
            let mut flat = ReferenceDb::with_config(MatchConfig::flat().with_precision(precision));
            for (i, values) in per_device.iter().enumerate() {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 5 == 0 { FrameKind::Beacon } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
                // Spread addresses so OUI hashing sees distinct prefixes.
                let addr = MacAddr::from_index((i as u64 + 1) * 0x0101_0101);
                sharded.insert(addr, sig.clone()).unwrap();
                flat.insert(addr, sig).unwrap();
            }
            let candidates: Vec<Signature> = cand_tiles
                .iter()
                .map(|values| {
                    let mut cand = Signature::new();
                    for &v in values {
                        cand.record(FrameKind::Data, v, &c);
                    }
                    cand
                })
                .collect();
            let mut scratch = MatchScratch::new();
            // Dense tile parity: full vectors, exact.
            let tile = sharded.match_tile(&candidates, SimilarityMeasure::Cosine, &mut scratch);
            let dense: Vec<MatchOutcome> = tile.views().map(|v| v.to_outcome()).collect();
            for (cand, got) in candidates.iter().zip(&dense) {
                let want = flat.match_signature(cand, SimilarityMeasure::Cosine);
                prop_assert_eq!(got.similarities(), want.similarities());
            }
            // Pruned top-k parity: argmax and scores.
            for (cand, want_full) in candidates.iter().zip(&dense) {
                let want = want_full.top(k);
                let got = sharded.match_topk(cand, k, SimilarityMeasure::Cosine, &mut scratch);
                prop_assert_eq!(got.len(), want.len());
                prop_assert_eq!(
                    got.first().map(|&(d, _)| d),
                    want_full.best().map(|(d, _)| d),
                    "argmax diverged under {:?}", config
                );
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.0, w.0);
                    prop_assert!((g.1 - w.1).abs() < F32_SCORE_TOLERANCE,
                        "{} vs {} under {:?}", g.1, w.1, config);
                }
            }
        }

        // u8 ↔ f32 parity: over arbitrary enrolments, strategies and
        // shard counts, the quantized tier's cosine scores track the f32
        // tier within U8_SCORE_TOLERANCE, and its argmax is the f32
        // argmax up to a genuine near-tie at that tolerance.
        #[test]
        fn u8_tier_tracks_f32_tier(
            per_device in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..40), 1..12),
            cand_values in prop::collection::vec(0.0f64..2400.0, 1..40),
            shards in 1usize..7,
            mac_prefix in any::<bool>(),
        ) {
            let c = cfg();
            let strategy = if mac_prefix {
                ShardStrategy::MacPrefix
            } else {
                ShardStrategy::DominantHistogram
            };
            let base = MatchConfig::default().with_strategy(strategy).with_shards(shards);
            let mut f32_db = ReferenceDb::with_config(base);
            let mut u8_db = ReferenceDb::with_config(base.with_precision(RowPrecision::U8));
            for (i, values) in per_device.iter().enumerate() {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = if j % 5 == 0 { FrameKind::Beacon } else { FrameKind::Data };
                    sig.record(kind, v, &c);
                }
                let addr = MacAddr::from_index((i as u64 + 1) * 0x0101_0101);
                f32_db.insert(addr, sig.clone()).unwrap();
                u8_db.insert(addr, sig).unwrap();
            }
            let mut cand = Signature::new();
            for &v in &cand_values {
                cand.record(FrameKind::Data, v, &c);
            }
            let a = f32_db.match_signature(&cand, SimilarityMeasure::Cosine);
            let b = u8_db.match_signature(&cand, SimilarityMeasure::Cosine);
            for (f, q) in a.similarities().iter().zip(b.similarities()) {
                prop_assert_eq!(f.0, q.0);
                prop_assert!(
                    (f.1 - q.1).abs() < U8_SCORE_TOLERANCE,
                    "score drift: {} vs {}", f.1, q.1
                );
            }
            // Argmax agreement up to near-ties: the quantized winner's
            // f32 score is within the documented drift of the f32 best.
            let (f32_best, f32_score) = a.best().unwrap();
            let (u8_best, _) = b.best().unwrap();
            let u8_winner_f32 = a.similarity_to(&u8_best).unwrap();
            prop_assert!(
                u8_best == f32_best || u8_winner_f32 >= f32_score - 2.0 * U8_SCORE_TOLERANCE,
                "argmax diverged beyond a near-tie: {u8_best} at {u8_winner_f32} vs {f32_best} at {f32_score}"
            );
            // The quantized pruned sweep agrees with the quantized dense
            // sweep (per-tier invariant, integer dots are exact).
            let mut scratch = MatchScratch::new();
            let top = u8_db.match_topk(&cand, 3, SimilarityMeasure::Cosine, &mut scratch);
            prop_assert_eq!(top, b.top(3));
        }

        // Prune-summary repair under churn: random insert / replace /
        // remove sequences on sharded databases of both tiers, long enough
        // to cross the u8 columns' capacity growth. After every operation
        // each block's envelope and wmax bit-equal a full rebuild; at the
        // end the churned database scores bit-equal a fresh bulk build of
        // the same set, in the dense tile and in the pruned top-k (with
        // the same prune decisions).
        #[test]
        fn summary_repair_equals_rebuild_under_churn(
            ops in prop::collection::vec(
                (0u8..3, 0u64..32, prop::collection::vec(0.0f64..2400.0, 1..30)), 1..120),
            cand_tiles in prop::collection::vec(
                prop::collection::vec(0.0f64..2400.0, 1..30), 1..4),
            shards in 2usize..5,
            mac_prefix in any::<bool>(),
            quantized in any::<bool>(),
            k in 1usize..6,
        ) {
            let c = cfg();
            let strategy = if mac_prefix {
                ShardStrategy::MacPrefix
            } else {
                ShardStrategy::DominantHistogram
            };
            let precision = if quantized { RowPrecision::U8 } else { RowPrecision::F32 };
            let config = MatchConfig { strategy, shards, precision };
            let sig_of = |values: &[f64]| {
                let mut sig = Signature::new();
                for (j, &v) in values.iter().enumerate() {
                    let kind = match j % 7 {
                        0 => FrameKind::Beacon,
                        3 => FrameKind::ProbeReq,
                        _ => FrameKind::Data,
                    };
                    sig.record(kind, v, &c);
                }
                sig
            };
            let mut db = ReferenceDb::with_config(config);
            let mut model: BTreeMap<MacAddr, Signature> = BTreeMap::new();
            for (step, (op, id, values)) in ops.iter().enumerate() {
                let addr = MacAddr::from_index((id + 1) * 0x0101_0101);
                if *op == 2 {
                    let removed = db.remove(&addr).unwrap();
                    prop_assert_eq!(removed.is_some(), model.remove(&addr).is_some());
                } else {
                    let sig = sig_of(values);
                    let replaced = db.insert(addr, sig.clone()).unwrap();
                    prop_assert_eq!(replaced.is_some(), model.insert(addr, sig).is_some());
                }
                assert_summaries_rebuilt(&db, &format!("step {step} under {config:?}"));
            }
            let fresh = ReferenceDb::from_signatures_with(model, config);
            let candidates: Vec<Signature> = cand_tiles.iter().map(|v| sig_of(v)).collect();
            let bits = |pairs: &[(MacAddr, f64)]| {
                pairs.iter().map(|&(d, x)| (d, x.to_bits())).collect::<Vec<_>>()
            };
            let (mut a, mut b) = (MatchScratch::new(), MatchScratch::new());
            let got = db.match_tile(&candidates, SimilarityMeasure::Cosine, &mut a);
            let want = fresh.match_tile(&candidates, SimilarityMeasure::Cosine, &mut b);
            for (g, w) in got.views().zip(want.views()) {
                prop_assert_eq!(bits(g.similarities()), bits(w.similarities()));
            }
            for cand in &candidates {
                let got = db.match_topk(cand, k, SimilarityMeasure::Cosine, &mut a);
                let want = fresh.match_topk(cand, k, SimilarityMeasure::Cosine, &mut b);
                prop_assert_eq!(bits(&got), bits(&want));
                prop_assert_eq!(a.prune_stats(), b.prune_stats());
            }
        }
    }
}
