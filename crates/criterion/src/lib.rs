//! A minimal, dependency-free stand-in for the [`criterion`] benchmark
//! harness.
//!
//! The build environment for this workspace is offline, so the real
//! criterion cannot be fetched from crates.io. This crate implements the
//! subset of its API the workspace's `tables` bench uses — `Criterion`,
//! `BenchmarkGroup`, the `config = …` form of `criterion_group!` and
//! `criterion_main!` — with a plain wall-clock measurement loop: a timed
//! warm-up, then `sample_size` samples whose per-iteration times yield
//! the reported median and min. As in the real crate, positional CLI
//! arguments act as substring filters on bench names (`cargo bench
//! --bench tables -- figure`); flags are ignored.
//!
//! [`criterion`]: https://crates.io/crates/criterion

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The timing loop handed to bench closures.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    warm_up: Duration,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, auto-scaling iterations per sample so that timer
    /// resolution does not dominate sub-microsecond routines.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run for the configured duration and estimate cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let est_ns =
            (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);
        // Aim for ~2 ms per sample, clamped to keep total time bounded.
        let iters_per_sample = ((2_000_000.0 / est_ns) as u64).clamp(1, 1_000_000);

        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let ns = start.elapsed().as_nanos() as f64 / iters_per_sample as f64;
            self.samples_ns.push(ns);
        }
    }
}

/// One finished measurement.
#[derive(Debug)]
struct BenchResult {
    /// Full bench name (group-qualified).
    name: String,
    /// Median per-iteration time in nanoseconds.
    median_ns: f64,
    /// Fastest sample in nanoseconds.
    min_ns: f64,
    /// Number of samples taken.
    samples: usize,
}

/// The bench registry and runner.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Criterion {
            sample_size: 20,
            warm_up: Duration::from_millis(200),
            filters,
        }
    }
}

impl Criterion {
    /// Sets the number of samples per bench.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the warm-up duration per bench.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Opens a named group of benches.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into() }
    }

    fn matches_filter(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Measures and reports one bench; `None` when filtered out or the
    /// closure never called [`Bencher::iter`].
    fn run_one<F>(&self, name: String, f: F) -> Option<BenchResult>
    where
        F: FnOnce(&mut Bencher),
    {
        if !self.matches_filter(&name) {
            return None;
        }
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            warm_up: self.warm_up,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        let mut samples = bencher.samples_ns;
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let result = BenchResult {
            name,
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
            samples: samples.len(),
        };
        println!(
            "{:<48} time: [{} median, {} min, {} samples]",
            result.name,
            human_time(result.median_ns),
            human_time(result.min_ns),
            result.samples,
        );
        Some(result)
    }
}

/// A group of related benches sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one bench within the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        self.run(id, f);
        self
    }

    fn run<F>(&self, id: &str, f: F) -> Option<BenchResult>
    where
        F: FnOnce(&mut Bencher),
    {
        self.criterion.run_one(format!("{}/{id}", self.name), f)
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Declares a bench group with an explicit `config = …` constructor.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`, running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criterion(filters: Vec<String>) -> Criterion {
        Criterion { sample_size: 3, warm_up: Duration::from_millis(1), filters }
    }

    #[test]
    fn measures_and_records() {
        let mut c = criterion(Vec::new());
        let g = c.benchmark_group("grp");
        let r = g.run("spin_tiny", |b| b.iter(|| black_box(3u64).wrapping_mul(7))).unwrap();
        assert_eq!(r.name, "grp/spin_tiny");
        assert_eq!(r.samples, 3);
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
    }

    #[test]
    fn groups_qualify_names_and_filters_apply() {
        let mut c = criterion(vec!["wanted".into()]);
        let g = c.benchmark_group("grp");
        let wanted = g.run("wanted", |b| b.iter(|| black_box(1u32) + 1));
        assert_eq!(wanted.map(|r| r.name).as_deref(), Some("grp/wanted"));
        assert!(g.run("skipped", |b| b.iter(|| black_box(1u32) + 1)).is_none());
    }

    #[test]
    fn human_time_units() {
        assert!(human_time(12.0).ends_with("ns"));
        assert!(human_time(12_000.0).ends_with("µs"));
        assert!(human_time(12_000_000.0).ends_with("ms"));
        assert!(human_time(12_000_000_000.0).ends_with("s"));
    }
}
