//! Harness statistics: percentiles under the ten-samples-beyond rule,
//! medians, a log-linear latency histogram for per-call aggregates, and
//! the decision digest.

/// Samples a percentile must leave strictly beyond its rank before the
/// harness reports it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `p` in `(0, 1)`,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// FNV-1a over 64-bit words: the decision digest every pass must
/// reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Sub-buckets per power of two: quantization error under 1 %.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations (HDR-style): values
/// below `SUB` are exact, larger ones land in one of `SUB` linear
/// sub-buckets of their power of two.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> exp) as usize - SUB;
        (exp as usize + 1) * SUB + sub
    }

    /// Lowest value and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let exp = (i / SUB - 1) as u32;
        let sub = (i % SUB + SUB) as u64;
        ((sub << exp) as f64, (1u64 << exp) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Percentile by the same nearest-rank and ten-beyond rule as
    /// [`percentile`], interpolated linearly inside the bucket.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.total;
        if n == 0 {
            return None;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        if n - rank < MIN_BEYOND as u64 {
            return None;
        }
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lo, width) = Self::bounds(i);
                return Some(lo + width * (rank - below) as f64 / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} lies within the {n} recorded samples")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.99),
            Some(990.0),
            "1000 samples leave 10 beyond p99"
        );
        assert_eq!(
            percentile(&v[..999], 0.99),
            None,
            "999 samples leave 9 beyond p99"
        );
        assert_eq!(percentile(&v[..100], 0.9), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.9), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn histogram_counts_and_tracks_exact_percentiles_closely() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        for i in 0..5000u64 {
            let v = 50 + (i * 7919) % 100_000;
            h.record(v);
            exact.push(v as f64);
        }
        exact.sort_by(f64::total_cmp);
        assert_eq!(h.total, 5000);
        for p in [0.5, 0.9, 0.99] {
            let want = percentile(&exact, p).unwrap();
            let got = h.percentile(p).unwrap();
            assert!(
                (got - want).abs() / want < 0.01,
                "p{p}: {got} vs exact {want}"
            );
        }
        let mut few = Histogram::default();
        (0..999).for_each(|v| few.record(v));
        assert_eq!(
            few.percentile(0.99),
            None,
            "ten-beyond rule applies to histograms"
        );
    }

    #[test]
    fn histogram_buckets_cover_the_u64_range_in_order() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let i = Histogram::index(v);
            assert!(i >= last, "bucket order broke at {v}");
            let (lo, width) = Histogram::bounds(i);
            assert!(
                lo <= v as f64 && v as f64 <= lo + width,
                "{v} outside bucket {i}"
            );
            last = i;
        }
    }

    #[test]
    fn digest_is_order_sensitive_and_repeatable() {
        let run = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.word(w));
            d.value()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[3, 2, 1]));
        assert_ne!(run(&[1, 2, 3]), run(&[1, 2]));
    }
}
