//! The capture workloads: generated 802.11 captures exported once to an
//! in-memory radiotap pcap, then replayed pcap bytes → `Replay` →
//! `MultiEngine` → `RotationLinker`, synchronously (`office_replay`,
//! `crowd_rotation`) or through the supervised `IngestPipeline`
//! (`office_live`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

use wifiprint_core::engine::linker::{LinkEvent, LinkerConfig, RotationLinker};
use wifiprint_core::{
    FusionSpec, IngestConfig, IngestPipeline, MultiConfig, MultiEngine, MultiEvent,
    NetworkParameter,
};
use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_pcap::{LinkType, Replay, Writer};
use wifiprint_radiotap::CapturedFrame;
use wifiprint_scenarios::export::to_pcap_record;
use wifiprint_scenarios::{
    rotate_frames, ConferenceScenario, OfficeScenario, RotationLedger, RotationPolicy,
};

use crate::harness::{mac_word, Check, Pass, SetupStats};
use crate::stats::Digest;
use crate::trace::{Agg, Kind, Probe};

/// Detection window length of every capture workload.
const WINDOW: Nanos = Nanos::from_secs(10);
/// Captures per run, each simulated from its own seed derived from the
/// run's seed, and replayed in turn by successive passes. One 80-desk
/// office varies by ±15 % in traffic from seed to seed; cycling four
/// halves that spread in every run-level figure.
const OFFICE_CAPTURES: u64 = 4;
/// Office capture: 80 WPA desks on 3 APs for one minute (20 s of
/// training, four detection windows and the trailing one).
const OFFICE_SECS: u64 = 60;
const OFFICE_DEVICES: usize = 80;
/// Conference captures: 400 mobile, churning attendees on 4 APs for two
/// minutes, long enough for rotated devices to be linked at all.
const CROWD_CAPTURES: u64 = 2;
const CROWD_SECS: u64 = 120;
const CROWD_DEVICES: usize = 400;
/// The paper's 50-observation floor leaves a conference attendee, at a
/// few frames per second, short of a candidate in most 10 s windows.
/// At 20 several times as many qualify, so window scoring and gallery
/// sweeps dominate the crowd workload.
const CROWD_MIN_OBSERVATIONS: u64 = 20;
/// The paper's observation floor (§V-C), used everywhere else.
const PAPER_MIN_OBSERVATIONS: u64 = 50;

/// Floor on the fused identification rate of the office workloads over
/// one cycle of captures: the share of `FusedMatch` decisions whose fused
/// best is the claimed device. Measured 0.51–0.69 on seeds 1–12 and the
/// default seed.
pub const OFFICE_ID_FLOOR: f64 = 0.40;
/// Floors on `crowd_rotation` linking precision and recall against the
/// rotation ledgers, over one cycle of captures. The fused default
/// linker recovers few rotations from 10 s conference windows (measured
/// precision 0.13–0.21, recall 0.006–0.009 on seeds 1–6 and the default
/// seed); the floors catch a linker that stops linking correctly, they
/// claim no accuracy.
pub const CROWD_PRECISION_FLOOR: f64 = 0.08;
pub const CROWD_RECALL_FLOOR: f64 = 0.003;

/// The seed of capture `i` of a run: distinct for every (seed, i) pair
/// with `i` below 16.
fn capture_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(16).wrapping_add(i)
}

/// How the capture reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `observe` on the calling thread.
    Replay,
    /// `submit` into an `IngestPipeline` worker (`OverloadPolicy::Block`,
    /// default ring, no watchdog).
    Live,
}

/// One capture workload, set up and warmed.
pub struct CaptureWorkload {
    front: Front,
    min_observations: u64,
    inputs: Vec<Input>,
    setup: SetupStats,
}

/// One exported capture and what its warm-up pass fixed.
struct Input {
    pcap: Vec<u8>,
    train: Nanos,
    ledger: Option<RotationLedger>,
    /// Record indices whose `observe` seals a window.
    seals: Vec<u64>,
    /// Decision digest of the synchronous warm-up pass.
    reference_digest: u64,
}

impl CaptureWorkload {
    pub fn office(seed: u64, front: Front) -> Result<Self, String> {
        let mut w = Self::new(front, PAPER_MIN_OBSERVATIONS);
        for i in 0..OFFICE_CAPTURES {
            let t = Instant::now();
            let frames = OfficeScenario {
                seed: capture_seed(seed, i),
                duration: Nanos::from_secs(OFFICE_SECS),
                devices: OFFICE_DEVICES,
                aps: 3,
                encryption_overhead: 16,
                monitor_loss: 0.01,
            }
            .run_collect()
            .frames;
            w.setup.simulate_s += t.elapsed().as_secs_f64();
            w.add_input(&frames, OFFICE_SECS, None)?;
        }
        Ok(w)
    }

    pub fn crowd(seed: u64) -> Result<Self, String> {
        let mut w = Self::new(Front::Replay, CROWD_MIN_OBSERVATIONS);
        for i in 0..CROWD_CAPTURES {
            let t = Instant::now();
            let seed = capture_seed(seed, i);
            let mut frames = ConferenceScenario {
                seed,
                duration: Nanos::from_secs(CROWD_SECS),
                devices: CROWD_DEVICES,
                aps: 4,
                monitor_loss: 0.03,
                churn: 0.45,
            }
            .run_collect()
            .frames;
            let policy = RotationPolicy::Periodic { period: 2 };
            let ledger = rotate_frames(&mut frames, policy, seed, WINDOW);
            w.setup.simulate_s += t.elapsed().as_secs_f64();
            w.add_input(&frames, CROWD_SECS, Some(ledger))?;
        }
        Ok(w)
    }

    fn new(front: Front, min_observations: u64) -> Self {
        CaptureWorkload {
            front,
            min_observations,
            inputs: Vec::new(),
            setup: SetupStats::default(),
        }
    }

    /// Exports `frames` to an in-memory radiotap pcap and warms it up:
    /// one synchronous pass fixes which records seal windows and the
    /// decision digest every later pass must reproduce.
    fn add_input(
        &mut self,
        frames: &[CapturedFrame],
        secs: u64,
        ledger: Option<RotationLedger>,
    ) -> Result<(), String> {
        let t = Instant::now();
        // Reserved up front (record and radiotap headers take well under
        // 80 bytes) so the peak RSS does not depend on the growth pattern.
        let bytes: usize = frames.iter().map(|f| f.size + 80).sum();
        let mut writer = Writer::new(Vec::with_capacity(bytes), LinkType::Ieee80211Radiotap)
            .map_err(|e| format!("pcap writer: {e}"))?;
        for f in frames {
            writer
                .write_record(&to_pcap_record(f))
                .map_err(|e| format!("pcap export: {e}"))?;
        }
        let pcap = writer.into_inner();
        self.setup.export_s += t.elapsed().as_secs_f64();
        self.setup.capture_mb += pcap.len() as f64 / 1e6;
        self.setup.frames += frames.len() as u64;
        let mut input = Input {
            pcap,
            train: Nanos::from_secs(secs / 3),
            ledger,
            seals: Vec::new(),
            reference_digest: 0,
        };
        let warm = self.replay_pass(&input, &mut crate::trace::Off)?;
        input.seals = warm.seals;
        input.reference_digest = warm.pass.digest;
        self.inputs.push(input);
        Ok(())
    }

    pub fn setup_stats(&self) -> SetupStats {
        self.setup
    }

    /// Captures the passes cycle through.
    pub fn captures(&self) -> usize {
        self.inputs.len()
    }

    fn engine(&self, input: &Input) -> Result<MultiEngine, String> {
        MultiEngine::builder()
            .spec(FusionSpec::all_equal())
            .config(
                MultiConfig::default()
                    .with_window(WINDOW)
                    .with_min_observations(self.min_observations),
            )
            .train_for(input.train)
            .build()
            .map_err(|e| format!("engine: {e}"))
    }

    /// Timed pass `index` through this workload's front; it replays
    /// capture `index % captures()`.
    pub fn pass<P: Probe>(
        &self,
        index: usize,
        probe: &mut P,
    ) -> Result<(Pass, Vec<Check>), String> {
        let input = &self.inputs[index % self.inputs.len()];
        let run = match self.front {
            Front::Replay => self.replay_pass(input, probe)?,
            Front::Live => self.live_pass(input, probe)?,
        };
        let Run {
            mut pass,
            seals,
            mut checks,
            consumer,
        } = run;
        checks.push(Check::new(
            "decision digest matches the synchronous replay",
            pass.digest == input.reference_digest,
            format!("{:016x} vs {:016x}", pass.digest, input.reference_digest),
        ));
        checks.push(Check::new(
            "windows seal on the warm-up's records",
            seals == input.seals,
            format!("{} vs {} sealing records", seals.len(), input.seals.len()),
        ));
        pass.counters.extend([
            ("check.fused_matches", consumer.fused_matches as f64),
            ("check.fused_correct", consumer.fused_correct as f64),
        ]);
        if let Some(ledger) = &input.ledger {
            let (fresh, correct, linkable) = consumer.link_accuracy(ledger);
            pass.counters.extend([
                ("check.fresh_links", fresh as f64),
                ("check.correct_links", correct as f64),
                ("check.linkable", linkable as f64),
            ]);
        }
        Ok((pass, checks))
    }

    /// Accuracy floors over one cycle of passes, one per capture: the
    /// office identification rate, or the crowd's linking precision and
    /// recall against the rotation ledgers.
    pub fn accuracy_checks(&self, cycle: &[Pass]) -> Vec<Check> {
        let sum = |name: &str| cycle.iter().map(|p| p.counter(name)).sum::<f64>();
        let ratio = |a: f64, b: f64| if b == 0.0 { 1.0 } else { a / b };
        if self.inputs.iter().any(|i| i.ledger.is_some()) {
            let correct = sum("check.correct_links");
            let precision = ratio(correct, sum("check.fresh_links"));
            let recall = ratio(correct, sum("check.linkable"));
            vec![
                Check::new(
                    "linking precision above floor",
                    precision >= CROWD_PRECISION_FLOOR,
                    format!("{precision:.3} (floor {CROWD_PRECISION_FLOOR})"),
                ),
                Check::new(
                    "linking recall above floor",
                    recall >= CROWD_RECALL_FLOOR,
                    format!("{recall:.3} (floor {CROWD_RECALL_FLOOR})"),
                ),
            ]
        } else {
            let rate = ratio(sum("check.fused_correct"), sum("check.fused_matches"));
            vec![Check::new(
                "fused identification rate above floor",
                rate >= OFFICE_ID_FLOOR,
                format!("{rate:.3} (floor {OFFICE_ID_FLOOR})"),
            )]
        }
    }

    fn replay_pass<P: Probe>(&self, input: &Input, probe: &mut P) -> Result<Run, String> {
        let started = Instant::now();
        let pass_mark = probe.mark();
        probe.open(Kind::Pass, pass_mark);
        let mut replay = Replay::from_slice(&input.pcap).map_err(|e| format!("replay: {e}"))?;
        let mut engine = self.engine(input)?;
        let mut consumer = Consumer::new()?;
        let mut latencies = Vec::with_capacity(input.seals.len() + 1);
        let mut seals = Vec::with_capacity(input.seals.len());
        let mut next_seal = input.seals.iter().copied().peekable();
        let mut rejected = 0u64;
        let mut index = 0u64;
        let mut last_t = Nanos::ZERO;
        // Stamps chain: each call starts where the previous one ended, so
        // only the loop's own glue stays unattributed.
        let mut s = probe.mark();
        while let Some(frame) = replay
            .next_frame()
            .map_err(|e| format!("pcap stream: {e}"))?
        {
            s = probe.add(Agg::Decode, s);
            let decision = (next_seal.peek() == Some(&index)).then(Instant::now);
            match engine.observe(&frame) {
                Ok(events) if events.is_empty() => s = probe.add(Agg::Frame, s),
                Ok(events) => {
                    let closes = events
                        .iter()
                        .any(|e| matches!(e, MultiEvent::WindowClosed { .. }));
                    if closes {
                        probe.open(Kind::Decision, s);
                        probe.span(Kind::Close, s);
                        seals.push(index);
                    } else {
                        probe.span(Kind::Enroll, s);
                    }
                    consumer.consume(&events, frame.t_end, probe);
                    if closes {
                        probe.close();
                    }
                    if let Some(t0) = decision {
                        latencies.push(elapsed_ns(t0));
                        next_seal.next();
                    }
                    s = probe.mark();
                }
                Err(_) => {
                    rejected += 1;
                    s = probe.add(Agg::Frame, s);
                }
            }
            last_t = frame.t_end;
            index += 1;
        }
        let t0 = Instant::now();
        let events = engine.finish().map_err(|e| format!("engine finish: {e}"))?;
        probe.open(Kind::Decision, s);
        probe.span(Kind::Finish, s);
        consumer.consume(&events, last_t, probe);
        probe.close();
        if events
            .iter()
            .any(|e| matches!(e, MultiEvent::WindowClosed { .. }))
        {
            latencies.push(elapsed_ns(t0));
        }
        probe.close();
        let elapsed_ns = elapsed_ns(started);

        let stats = replay.stats();
        let health = engine.health();
        let linker = consumer.linker.stats();
        let checks = vec![
            Check::new(
                "ReplayStats: records = decoded + decode errors",
                stats.records == stats.decoded + stats.decode_errors(),
                format!(
                    "{} = {} + {}",
                    stats.records,
                    stats.decoded,
                    stats.decode_errors()
                ),
            ),
            Check::new(
                "EngineHealth::conserves",
                health.conserves(engine.frames_observed(), engine.pending_frames() as u64),
                format!("{health:?}"),
            ),
            Check::new(
                "LinkerStats::conserves",
                linker.conserves(),
                format!("{linker:?}"),
            ),
        ];
        let rows_per_candidate = reference_rows(&engine);
        let mut counters = vec![
            ("pcap.records", stats.records as f64),
            ("pcap.decode_errors", stats.decode_errors() as f64),
            (
                "pcap.defaulted_fields",
                (stats.defaulted_rate + stats.defaulted_signal + stats.defaulted_timestamp) as f64,
            ),
            ("engine.frames", engine.frames_observed() as f64),
            ("engine.rejected", rejected as f64),
        ];
        counters.extend(consumer.counters(rows_per_candidate));
        let failed = stats.decode_errors() + rejected;
        Ok(Run {
            pass: Pass {
                items: stats.records,
                failed,
                elapsed_ns,
                latencies_ns: latencies,
                digest: consumer.digest.value(),
                counters,
            },
            seals,
            checks,
            consumer,
        })
    }

    fn live_pass<P: Probe>(&self, input: &Input, probe: &mut P) -> Result<Run, String> {
        let started = Instant::now();
        let pass_mark = probe.mark();
        probe.open(Kind::Pass, pass_mark);
        let mut replay = Replay::from_slice(&input.pcap).map_err(|e| format!("replay: {e}"))?;
        let pipeline = IngestPipeline::spawn(self.engine(input)?, IngestConfig::default())
            .map_err(|e| format!("ingest spawn: {e}"))?;
        let mut consumer = Consumer::new()?;
        let mut latencies = Vec::with_capacity(input.seals.len() + 1);
        let mut next_seal = input.seals.iter().copied().peekable();
        let mut outstanding: VecDeque<Instant> = VecDeque::new();
        let mut index = 0u64;
        let mut last_t = Nanos::ZERO;
        let mut s = probe.mark();
        while let Some(frame) = replay
            .next_frame()
            .map_err(|e| format!("pcap stream: {e}"))?
        {
            s = probe.add(Agg::Decode, s);
            if next_seal.peek() == Some(&index) {
                outstanding.push_back(Instant::now());
                next_seal.next();
            }
            pipeline
                .submit(&frame)
                .map_err(|e| format!("submit: {e}"))?;
            s = probe.span(Kind::Submit, s);
            if !outstanding.is_empty() {
                let events = pipeline.drain_events();
                s = probe.add(Agg::Drain, s);
                if !events.is_empty() {
                    consumer.consume(&events, frame.t_end, probe);
                    for _ in events
                        .iter()
                        .filter(|e| matches!(e, MultiEvent::WindowClosed { .. }))
                    {
                        let t0 = outstanding
                            .pop_front()
                            .ok_or("a window closed unannounced")?;
                        latencies.push(elapsed_ns(t0));
                    }
                    s = probe.mark();
                }
            }
            last_t = frame.t_end;
            index += 1;
        }
        // The trailing window seals inside the worker's `finish`.
        outstanding.push_back(Instant::now());
        let report = pipeline
            .finish()
            .map_err(|e| format!("ingest finish: {e}"))?;
        probe.span(Kind::IngestFinish, s);
        consumer.consume(&report.events, last_t, probe);
        for _ in report
            .events
            .iter()
            .filter(|e| matches!(e, MultiEvent::WindowClosed { .. }))
        {
            let t0 = outstanding
                .pop_front()
                .ok_or("a window closed unannounced")?;
            latencies.push(elapsed_ns(t0));
        }
        probe.close();
        let elapsed_ns = elapsed_ns(started);

        let stats = replay.stats();
        let linker = consumer.linker.stats();
        let ingest = report.stats;
        let checks = vec![
            Check::new(
                "ReplayStats: records = decoded + decode errors",
                stats.records == stats.decoded + stats.decode_errors(),
                format!(
                    "{} = {} + {}",
                    stats.records,
                    stats.decoded,
                    stats.decode_errors()
                ),
            ),
            Check::new(
                "IngestReport::is_reconciled",
                report.is_reconciled(),
                format!("{:?}, delivered {}", report.health, report.delivered),
            ),
            Check::new(
                "LinkerStats::conserves",
                linker.conserves(),
                format!("{linker:?}"),
            ),
        ];
        let rows_per_candidate = reference_rows(&report.engine);
        let mut counters = vec![
            ("pcap.records", stats.records as f64),
            ("pcap.decode_errors", stats.decode_errors() as f64),
            (
                "pcap.defaulted_fields",
                (stats.defaulted_rate + stats.defaulted_signal + stats.defaulted_timestamp) as f64,
            ),
            ("engine.frames", report.engine.frames_observed() as f64),
            ("ingest.latency_mean_us", ingest.mean_latency_ns() / 1e3),
            ("ingest.latency_max_us", ingest.latency_max_ns as f64 / 1e3),
            ("ingest.shed", ingest.shed as f64),
            ("ingest.quarantined", ingest.quarantined as f64),
            ("ingest.restarts", ingest.worker_restarts as f64),
        ];
        counters.extend(consumer.counters(rows_per_candidate));
        let failed = stats.decode_errors() + ingest.shed + ingest.quarantined;
        Ok(Run {
            pass: Pass {
                items: stats.records,
                failed,
                elapsed_ns,
                latencies_ns: latencies,
                digest: consumer.digest.value(),
                counters,
            },
            seals: input.seals.clone(),
            checks,
            consumer,
        })
    }
}

/// Reference rows one candidate is scored against, summed over the five
/// parameters.
fn reference_rows(engine: &MultiEngine) -> usize {
    NetworkParameter::ALL
        .iter()
        .filter_map(|&p| engine.reference(p))
        .map(|db| db.len())
        .sum()
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Run {
    pass: Pass,
    seals: Vec<u64>,
    checks: Vec<Check>,
    consumer: Consumer,
}

/// The deployment's consumer of engine events: hands every candidate
/// to the linker and keeps what the checks and digest need.
struct Consumer {
    linker: RotationLinker,
    digest: Digest,
    /// Link decisions in order: (sighted MAC, decided identity).
    links: Vec<(MacAddr, Option<u64>, bool)>,
    windows: u64,
    candidates: u64,
    enrolled: u64,
    fused_matches: u64,
    fused_correct: u64,
}

impl Consumer {
    fn new() -> Result<Self, String> {
        Ok(Consumer {
            linker: RotationLinker::new(LinkerConfig::default())
                .map_err(|e| format!("linker: {e}"))?,
            digest: Digest::default(),
            links: Vec::new(),
            windows: 0,
            candidates: 0,
            enrolled: 0,
            fused_matches: 0,
            fused_correct: 0,
        })
    }

    fn consume<P: Probe>(&mut self, events: &[MultiEvent], at: Nanos, probe: &mut P) {
        for event in events {
            match event {
                MultiEvent::Enrolled { device, .. } => {
                    self.enrolled += 1;
                    self.digest.word(1);
                    self.digest.word(mac_word(*device));
                    continue;
                }
                MultiEvent::WindowClosed {
                    window,
                    candidates,
                    known,
                    unknown,
                } => {
                    self.windows += 1;
                    self.candidates += *candidates as u64;
                    for w in [
                        4,
                        *window as u64,
                        *candidates as u64,
                        *known as u64,
                        *unknown as u64,
                    ] {
                        self.digest.word(w);
                    }
                    continue;
                }
                MultiEvent::FusedMatch {
                    window,
                    device,
                    fused,
                    ..
                } => {
                    let best = fused.as_ref().and_then(|f| f.best());
                    if best.is_some() {
                        self.fused_matches += 1;
                        self.fused_correct += u64::from(best.map(|b| b.0) == Some(*device));
                    }
                    self.digest_candidate(2, *window, *device, best);
                }
                MultiEvent::FusedNewDevice {
                    window,
                    device,
                    fused,
                    ..
                } => {
                    let best = fused.as_ref().and_then(|f| f.best());
                    self.digest_candidate(3, *window, *device, best);
                }
            }
            let s = probe.mark();
            let decision = self.linker.observe_multi(event, at);
            probe.span(Kind::Link, s);
            if let Some(d) = decision {
                let (tag, id) = match &d {
                    LinkEvent::Linked { identity, .. } => (5, Some(identity.0)),
                    LinkEvent::NewIdentity { identity, .. } => (6, Some(identity.0)),
                    LinkEvent::Ambiguous { .. } => (7, None),
                };
                self.digest.word(tag);
                self.digest.word(id.unwrap_or(u64::MAX));
                self.links.push((d.mac(), id, tag == 6));
            }
        }
    }

    fn digest_candidate(
        &mut self,
        tag: u64,
        window: usize,
        device: MacAddr,
        best: Option<(MacAddr, f64)>,
    ) {
        self.digest.word(tag);
        self.digest.word(window as u64);
        self.digest.word(mac_word(device));
        if let Some((dev, score)) = best {
            self.digest.word(mac_word(dev));
            self.digest.word(score.to_bits());
        }
    }

    /// Fresh links, correct fresh links and linkable sightings against
    /// the rotation ledger, counted as the analysis crate's linking
    /// evaluation counts them (precision = correct / fresh, recall =
    /// correct / linkable).
    fn link_accuracy(&self, ledger: &RotationLedger) -> (u64, u64, u64) {
        let mut seen = BTreeSet::new();
        let mut founded_by: BTreeMap<u64, usize> = BTreeMap::new();
        let mut device_founded = BTreeSet::new();
        let (mut fresh_links, mut correct, mut linkable) = (0u64, 0u64, 0u64);
        for &(mac, identity, founded) in &self.links {
            let Some(device) = ledger.owner_of(&mac) else {
                continue;
            };
            let fresh = seen.insert(mac);
            if fresh && device_founded.contains(&device) {
                linkable += 1;
            }
            match identity {
                Some(id) if founded => {
                    founded_by.insert(id, device);
                    device_founded.insert(device);
                }
                Some(id) if fresh => {
                    fresh_links += 1;
                    correct += u64::from(founded_by.get(&id) == Some(&device));
                }
                _ => {}
            }
        }
        (fresh_links, correct, linkable)
    }

    fn counters(&self, rows_per_candidate: usize) -> Vec<(&'static str, f64)> {
        let s = self.linker.stats();
        vec![
            ("engine.enrolled_devices", self.enrolled as f64),
            ("engine.windows", self.windows as f64),
            ("engine.candidates", self.candidates as f64),
            (
                "matching.rows_scored",
                (self.candidates * rows_per_candidate as u64) as f64,
            ),
            ("linker.sightings", s.sightings as f64),
            ("linker.linked_by_mac", s.linked_by_mac as f64),
            ("linker.linked_by_gallery", s.linked_by_gallery as f64),
            ("linker.new_identities", s.new_identities as f64),
            ("linker.ambiguous", s.ambiguous as f64),
            ("linker.gate_bypassed", s.gate_bypassed as f64),
            ("linker.shards_swept", s.shards_swept as f64),
            ("linker.shards_pruned", s.shards_pruned as f64),
            ("linker.pruned_fraction", s.pruned_fraction()),
            ("linker.gallery_rows", s.gallery_rows as f64),
        ]
    }
}
