//! Types shared by the workloads and the runner: one timed pass, an
//! output check, a named metric, set-up statistics, and the per-layer
//! metric table a traced run reports.

use wifiprint_ieee80211::MacAddr;

use crate::trace::{Agg, Kind, Totals, Trace};

/// What one timed pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Input items offered: pcap records, or sightings.
    pub items: u64,
    /// Failed operations: decode errors, refused, shed, quarantined.
    pub failed: u64,
    pub elapsed_ns: u64,
    /// One sample per decision.
    pub latencies_ns: Vec<u64>,
    pub digest: u64,
    /// Layer counters at the end of the pass.
    pub counters: Vec<(&'static str, f64)>,
}

impl Pass {
    /// A counter by name; 0 for a layer this workload bypasses.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// A counter's mean over passes.
fn mean_counter(passes: &[Pass], name: &str) -> f64 {
    passes.iter().map(|p| p.counter(name)).sum::<f64>() / passes.len().max(1) as f64
}

/// One output check; any failure fails the command.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Check {
            name: name.to_owned(),
            ok,
            detail,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_owned(),
            unit,
            value,
        }
    }
}

/// Input generation cost of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStats {
    /// Simulation, rotation and trail generation.
    pub simulate_s: f64,
    /// In-memory pcap export.
    pub export_s: f64,
    pub capture_mb: f64,
    pub frames: u64,
}

/// Folds a MAC address into one digest word.
pub fn mac_word(mac: MacAddr) -> u64 {
    mac.octets()
        .iter()
        .fold(0u64, |acc, &b| acc << 8 | u64::from(b))
}

/// The per-layer metrics every traced run reports, in `BENCHMARK.json`
/// order. A layer the workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pcap.decode_ns_per_record", "ns"),
    ("pcap.records", "count"),
    ("pcap.decode_errors", "count"),
    ("pcap.defaulted_fields", "count"),
    ("engine.frame_ns_p50", "ns"),
    ("engine.frame_busy_s", "s"),
    ("engine.frames", "count"),
    ("engine.rejected", "count"),
    ("engine.enroll_ms", "ms"),
    ("engine.enrolled_devices", "count"),
    ("engine.finish_ms", "ms"),
    ("engine.close_ms_p50", "ms"),
    ("engine.close_busy_s", "s"),
    ("engine.windows", "count"),
    ("engine.candidates", "count"),
    ("matching.rows_scored", "count"),
    ("matching.ns_per_row", "ns"),
    ("linker.ns_per_sighting_p50", "ns"),
    ("linker.busy_s", "s"),
    ("linker.sightings", "count"),
    ("linker.linked_by_mac", "count"),
    ("linker.linked_by_gallery", "count"),
    ("linker.new_identities", "count"),
    ("linker.ambiguous", "count"),
    ("linker.gate_bypassed", "count"),
    ("linker.shards_swept", "count"),
    ("linker.shards_pruned", "count"),
    ("linker.pruned_fraction", "ratio"),
    ("linker.gallery_rows", "count"),
    ("ingest.submit_busy_s", "s"),
    ("ingest.submit_ns_p99", "ns"),
    ("ingest.finish_ms", "ms"),
    ("ingest.latency_mean_us", "us"),
    ("ingest.latency_max_us", "us"),
    ("ingest.shed", "count"),
    ("ingest.quarantined", "count"),
    ("ingest.restarts", "count"),
    ("setup.simulate_s", "s"),
    ("setup.export_s", "s"),
    ("setup.capture_mb", "MB"),
    ("setup.frames", "count"),
    ("trace.e2e_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer table of a traced run: busy times and counters per
/// traced pass, averaged over `traced`.
pub fn layer_metrics(trace: &Trace, traced: &[Pass], setup: SetupStats) -> Vec<Metric> {
    let passes = traced.len().max(1) as f64;
    let per_pass_s = |ns: u64| ns as f64 / 1e9 / passes;
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / passes;
    let mean = |t: &Totals| {
        if t.count == 0 {
            0.0
        } else {
            t.busy_ns as f64 / t.count as f64
        }
    };
    let p = |t: &Totals, q: f64| t.hist.percentile(q).unwrap_or(0.0);
    let frame = trace.agg(Agg::Frame);
    let close = trace.kind(Kind::Close);
    let finish = trace.kind(Kind::Finish);
    let submit = trace.kind(Kind::Submit);
    let link = trace.kind(Kind::Link);
    let rows = mean_counter(traced, "matching.rows_scored");
    let e2e = trace.kind(Kind::Pass).busy_ns;
    let timed = [
        ("pcap.decode_ns_per_record", mean(trace.agg(Agg::Decode))),
        ("engine.frame_ns_p50", p(frame, 0.5)),
        ("engine.frame_busy_s", per_pass_s(frame.busy_ns)),
        (
            "engine.enroll_ms",
            per_pass_ms(trace.kind(Kind::Enroll).busy_ns),
        ),
        ("engine.finish_ms", per_pass_ms(finish.busy_ns)),
        ("engine.close_ms_p50", p(close, 0.5) / 1e6),
        ("engine.close_busy_s", per_pass_s(close.busy_ns)),
        (
            "matching.ns_per_row",
            if rows > 0.0 {
                (close.busy_ns + finish.busy_ns) as f64 / passes / rows
            } else {
                0.0
            },
        ),
        ("linker.ns_per_sighting_p50", p(link, 0.5)),
        ("linker.busy_s", per_pass_s(link.busy_ns)),
        ("ingest.submit_busy_s", per_pass_s(submit.busy_ns)),
        ("ingest.submit_ns_p99", p(submit, 0.99)),
        (
            "ingest.finish_ms",
            per_pass_ms(trace.kind(Kind::IngestFinish).busy_ns),
        ),
        ("setup.simulate_s", setup.simulate_s),
        ("setup.export_s", setup.export_s),
        ("setup.capture_mb", setup.capture_mb),
        ("setup.frames", setup.frames as f64),
        ("trace.e2e_s", per_pass_s(e2e)),
        (
            "trace.unattributed_share",
            trace.unattributed_ns() as f64 / e2e.max(1) as f64,
        ),
    ];
    PER_LAYER
        .iter()
        .filter(|(name, _)| *name != "trace.overhead_ratio")
        .map(|&(name, unit)| {
            let value = timed
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| mean_counter(traced, name), |&(_, v)| v);
            Metric::new(name, unit, value)
        })
        .collect()
}
