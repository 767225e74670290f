//! The traced mode: timing of the calls into each layer's public
//! functions, taken from the benchmark's own loop (nothing inside the
//! program is instrumented).
//!
//! Per-frame calls are aggregated per layer (count, busy time,
//! histogram). Window closes, enrollment, `finish`, `link` and `submit`
//! are kept as individual spans (name, start, end, parent) up to
//! [`SPAN_CAP`]; past the cap they still count into their kind's totals.
//! Everything stays in memory until [`Trace::write`] at the end of the
//! run. The loop is generic over [`Probe`], so the untraced build of it
//! carries no timing code at all.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Histogram;

/// Individually kept spans retained for the trace file.
pub const SPAN_CAP: usize = 100_000;

/// Per-frame calls, aggregated rather than kept one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// `Replay::next_frame`: pcap record + radiotap + 802.11 decode.
    Decode,
    /// `MultiEngine::observe` calls that enroll nothing and close no
    /// window: admit, fused extraction, window record.
    Frame,
    /// `IngestPipeline::drain_events` while a decision is outstanding.
    Drain,
}

pub const AGGS: [Agg; 3] = [Agg::Decode, Agg::Frame, Agg::Drain];

impl Agg {
    pub fn name(self) -> &'static str {
        match self {
            Agg::Decode => "pcap.next_frame",
            Agg::Frame => "engine.observe",
            Agg::Drain => "ingest.drain_events",
        }
    }
}

/// Span kinds. `Pass` and `Decision` are parents; the rest are leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One timed pass: source construction to the linker consuming the
    /// final events.
    Pass,
    /// One decision: the sealing call through the last link call of
    /// that window.
    Decision,
    /// The `observe` call that ended training and enrolled devices.
    Enroll,
    /// An `observe` call that sealed and scored a window.
    Close,
    /// `MultiEngine::finish` (seals the trailing window).
    Finish,
    /// `RotationLinker::link` / `observe_multi`.
    Link,
    /// `IngestPipeline::submit`.
    Submit,
    /// `IngestPipeline::finish` (drains the ring, finishes the engine).
    IngestFinish,
}

pub const KINDS: [Kind; 8] = [
    Kind::Pass,
    Kind::Decision,
    Kind::Enroll,
    Kind::Close,
    Kind::Finish,
    Kind::Link,
    Kind::Submit,
    Kind::IngestFinish,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pass => "pass",
            Kind::Decision => "decision",
            Kind::Enroll => "engine.enroll",
            Kind::Close => "engine.close",
            Kind::Finish => "engine.finish",
            Kind::Link => "linker.link",
            Kind::Submit => "ingest.submit",
            Kind::IngestFinish => "ingest.finish",
        }
    }

    fn index(self) -> usize {
        KINDS
            .iter()
            .position(|&k| k == self)
            .expect("every kind is listed")
    }
}

/// The timing hooks the workload loops call around each public call.
pub trait Probe {
    type Mark: Copy;
    fn mark(&self) -> Self::Mark;
    /// Adds `start..now` to a per-frame aggregate; returns now, so the
    /// next call can start where this one ended.
    fn add(&mut self, agg: Agg, start: Self::Mark) -> Self::Mark;
    /// Records a leaf span `start..now` under the innermost open span;
    /// returns now.
    fn span(&mut self, kind: Kind, start: Self::Mark) -> Self::Mark;
    /// Opens a parent span that began at `start`.
    fn open(&mut self, kind: Kind, start: Self::Mark);
    /// Closes the innermost open span now.
    fn close(&mut self);
}

/// Tracing off: every hook compiles away.
pub struct Off;

impl Probe for Off {
    type Mark = ();
    #[inline(always)]
    fn mark(&self) {}
    #[inline(always)]
    fn add(&mut self, _: Agg, (): ()) {}
    #[inline(always)]
    fn span(&mut self, _: Kind, (): ()) {}
    #[inline(always)]
    fn open(&mut self, _: Kind, (): ()) {}
    #[inline(always)]
    fn close(&mut self) {}
}

/// Totals of one aggregate or span kind.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub count: u64,
    pub busy_ns: u64,
    /// Busy time not covered by child spans or aggregates.
    pub self_ns: u64,
    pub hist: Histogram,
}

impl Totals {
    fn add(&mut self, ns: u64, child_ns: u64) {
        self.count += 1;
        self.busy_ns += ns;
        self.self_ns += ns.saturating_sub(child_ns);
        self.hist.record(ns);
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

#[derive(Debug)]
struct Open {
    kind: Kind,
    start: Instant,
    /// Index in `spans`, if retained.
    id: Option<u32>,
    child_ns: u64,
}

/// Tracing on: aggregates and spans, in memory.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    aggs: Vec<Totals>,
    kinds: Vec<Totals>,
    spans: Vec<Span>,
    open: Vec<Open>,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            aggs: vec![Totals::default(); AGGS.len()],
            kinds: vec![Totals::default(); KINDS.len()],
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Trace {
    pub fn agg(&self, agg: Agg) -> &Totals {
        &self.aggs[AGGS
            .iter()
            .position(|&a| a == agg)
            .expect("every aggregate is listed")]
    }

    pub fn kind(&self, kind: Kind) -> &Totals {
        &self.kinds[kind.index()]
    }

    fn charge_parent(&mut self, ns: u64) {
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
    }

    fn retain(&mut self, kind: Kind, start: Instant, end: Option<Instant>) -> Option<u32> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        let parent = self.open.last().and_then(|o| o.id);
        self.spans.push(Span {
            kind,
            start_ns: ns(start - self.origin),
            end_ns: end.map_or(0, |e| ns(e - self.origin)),
            parent,
        });
        Some(u32::try_from(self.spans.len() - 1).expect("span ids fit in u32 under the cap"))
    }

    /// Sum of leaf-layer self time: everything except the harness glue
    /// left in `Pass` and `Decision` self time.
    pub fn layer_self_ns(&self) -> u64 {
        let spans: u64 = KINDS
            .iter()
            .filter(|k| !matches!(k, Kind::Pass | Kind::Decision))
            .map(|&k| self.kind(k).self_ns)
            .sum();
        spans + self.aggs.iter().map(|a| a.self_ns).sum::<u64>()
    }

    /// Harness glue inside the traced passes: event iteration, decision
    /// bookkeeping and the clock reads themselves.
    pub fn unattributed_ns(&self) -> u64 {
        self.kind(Kind::Pass).self_ns + self.kind(Kind::Decision).self_ns
    }

    /// Writes aggregates and retained spans as one JSON document.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * (self.spans.len() + 16));
        let _ = write!(out, "{{{header},\"aggregates\":[");
        for (i, (agg, t)) in AGGS.iter().zip(&self.aggs).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"count\":{},\"busy_ns\":{},\"p50_ns\":{}}}",
                agg.name(),
                t.count,
                t.busy_ns,
                t.hist
                    .percentile(0.5)
                    .map_or("null".to_owned(), |v| format!("{v:.1}"))
            );
        }
        let _ = write!(out, "],\"span_totals\":[");
        for (i, (kind, t)) in KINDS.iter().zip(&self.kinds).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"count\":{},\"busy_ns\":{},\"self_ns\":{}}}",
                kind.name(),
                t.count,
                t.busy_ns,
                t.self_ns
            );
        }
        let _ = write!(out, "],\"spans_dropped\":{},\"spans\":[", self.dropped);
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Probe for Trace {
    type Mark = Instant;

    #[inline(always)]
    fn mark(&self) -> Instant {
        Instant::now()
    }

    fn add(&mut self, agg: Agg, start: Instant) -> Instant {
        let end = Instant::now();
        let d = ns(end - start);
        let i = AGGS
            .iter()
            .position(|&a| a == agg)
            .expect("every aggregate is listed");
        self.aggs[i].add(d, 0);
        self.charge_parent(d);
        end
    }

    fn span(&mut self, kind: Kind, start: Instant) -> Instant {
        let end = Instant::now();
        let d = ns(end - start);
        self.kinds[kind.index()].add(d, 0);
        self.charge_parent(d);
        self.retain(kind, start, Some(end));
        end
    }

    fn open(&mut self, kind: Kind, start: Instant) {
        let id = self.retain(kind, start, None);
        self.open.push(Open {
            kind,
            start,
            id,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let o = self.open.pop().expect("close matches an open span");
        let d = ns(end - o.start);
        self.kinds[o.kind.index()].add(d, o.child_ns);
        self.charge_parent(d);
        if let Some(id) = o.id {
            self.spans[id as usize].end_ns = ns(end - self.origin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn layers_and_glue_add_up_to_the_pass() {
        let mut t = Trace::default();
        let pass = t.mark();
        t.open(Kind::Pass, pass);
        for _ in 0..50 {
            let s = t.mark();
            spin(Duration::from_micros(20));
            t.add(Agg::Decode, s);
            let s = t.mark();
            spin(Duration::from_micros(30));
            t.add(Agg::Frame, s);
        }
        let s = t.mark();
        spin(Duration::from_micros(200));
        t.open(Kind::Decision, s);
        t.span(Kind::Close, s);
        spin(Duration::from_micros(100)); // glue inside the decision
        let l = t.mark();
        spin(Duration::from_micros(50));
        t.span(Kind::Link, l);
        t.close();
        spin(Duration::from_micros(100)); // glue inside the pass
        t.close();

        let pass = t.kind(Kind::Pass).busy_ns;
        let layers = t.layer_self_ns();
        let glue = t.unattributed_ns();
        assert_eq!(layers + glue, pass, "self times partition the pass exactly");
        assert!(
            glue >= 200_000,
            "both glue intervals are unattributed: {glue}"
        );
        assert!(
            layers >= 50 * 50_000 + 250_000,
            "layer time covers every call: {layers}"
        );
        assert_eq!(t.agg(Agg::Decode).count, 50);
        assert_eq!(t.kind(Kind::Decision).count, 1);
    }

    #[test]
    fn spans_keep_their_parent_and_respect_the_cap() {
        let mut t = Trace::default();
        let s = t.mark();
        t.open(Kind::Pass, s);
        for _ in 0..SPAN_CAP + 5 {
            let s = t.mark();
            t.span(Kind::Submit, s);
        }
        t.close();
        assert_eq!(t.spans.len(), SPAN_CAP);
        assert_eq!(t.dropped, 6, "the pass span took one slot");
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(
            t.spans[0].end_ns >= t.spans[SPAN_CAP - 1].end_ns,
            "parent closes last"
        );
        assert_eq!(
            t.kind(Kind::Submit).count,
            SPAN_CAP as u64 + 5,
            "totals ignore the cap"
        );
    }
}
