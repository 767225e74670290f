//! The supervised ingest front: back-pressure, overload shedding,
//! panic isolation and stall watchdogs around either streaming engine.
//!
//! PR 6 hardened the engines against *degraded frames*; this module
//! hardens them against *degraded flow*. An [`IngestPipeline`] owns an
//! engine on a supervised worker thread behind a bounded MPMC ring:
//!
//! * **Back-pressure** — the ring is bounded; an [`OverloadPolicy`]
//!   decides what a full ring does to a submission: `Block` (lossless,
//!   the default), `ShedNewest` (drop the submission) or `ShedOldest`
//!   (drop the stalest queued frame, or the submission when none is
//!   queued). Every shed is counted in
//!   [`EngineHealth::frames_shed`] and reconciles exactly against the
//!   conservation law ([`EngineHealth::conserves`]).
//! * **Panic isolation** — the worker wraps the window sweep in
//!   [`std::panic::catch_unwind`]. A frame whose sweep panics is moved
//!   into a capped [`Quarantine`] buffer together with the panic
//!   message, the worker restarts around the *same* engine state, and
//!   the stream stays alive ([`EngineHealth::workers_restarted`]).
//!   Frames the engine rejects with an [`EngineError`] (e.g. a late
//!   frame under the strict policy) quarantine through the same path.
//! * **Stall watchdog** — with [`IngestConfig::stall_timeout`] set, a
//!   ring that stays empty past the deadline drives
//!   [`Engine::tick`](super::Engine::tick) /
//!   [`MultiEngine::tick`](super::MultiEngine::tick), so a silent
//!   source can never stall a window decision. The watchdog trades
//!   bit-exact replay determinism for liveness; leave it `None` when
//!   events must be bit-identical to the synchronous run.
//! * **Ordered delivery** — every submission gets a dense sequence
//!   number, and an [`EventSequencer`] reassembles event batches in
//!   submission order (sheds and quarantines close their numbers as
//!   gaps). Under `OverloadPolicy::Block` with no faults and no
//!   watchdog, the delivered event stream is **bit-identical** to
//!   calling `observe` synchronously — a property test pins this for
//!   both engines.
//!
//! # The hand-off
//!
//! All queue state and policy lives in [`state`]; submitters and the
//! worker call it directly.
//!
//! * **Batch drain** — the worker takes every queued ticket in one lock
//!   acquisition (the ring's buffer and the worker's empty one swap, so
//!   nothing is allocated) and processes them from a local batch. The
//!   batch is owned by the supervisor, so a panic mid-batch quarantines
//!   only the in-flight ticket and the rest of the batch still runs.
//! * **Wake on demand** — the ring counts parked threads and signals
//!   only when one is parked, so an uncontended submit or drain makes
//!   no wake-up system call.
//! * **In flight counts toward the bound** — drained tickets hold
//!   their [`IngestConfig::capacity`] slots until the worker comes back
//!   for its next batch, so queued plus in-flight frames never exceed
//!   the capacity.
//! * **Per-batch bookkeeping** — latency counters are published, and
//!   tickets that produced no events are advanced past in the
//!   sequencer, once per batch. A ticket *with* events is inserted at
//!   once, so a decision is delivered as soon as it exists. An
//!   [`IngestPipeline::stats`] snapshot can therefore lag the worker by
//!   at most one batch.
//!
//! # Chaos probes
//!
//! Real poison frames are rare and not reproducible on demand, so the
//! supervision path is exercised through two explicitly-labelled chaos
//! knobs: [`IngestConfig::panic_probe`] makes the worker panic on
//! matching frames (simulating a sweep panic, inside the same
//! `catch_unwind` envelope that guards the real sweep), and
//! [`IngestConfig::sweep_delay`] simulates a slow sweep so overload is
//! reachable at test scale. Both default to off and add nothing to the
//! production path.
//!
//! # Example
//!
//! ```
//! use wifiprint_core::engine::ingest::{IngestConfig, IngestPipeline, OverloadPolicy};
//! use wifiprint_core::{Engine, EvalConfig, NetworkParameter};
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint_radiotap::CapturedFrame;
//!
//! let engine = Engine::builder()
//!     .config(EvalConfig::for_parameter(NetworkParameter::InterArrivalTime))
//!     .train_for(Nanos::from_secs(3600))
//!     .build()
//!     .expect("valid engine configuration");
//! let pipeline = IngestPipeline::spawn(engine, IngestConfig::default())
//!     .expect("worker spawns");
//!
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! for i in 0..200u64 {
//!     let f = Frame::data_to_ds(sta, ap, ap, 500);
//!     let cap = CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_micros(800 * (i + 1)), -50);
//!     pipeline.submit(&cap).expect("pipeline accepts while open");
//! }
//! let report = pipeline.finish().expect("supervised session terminates");
//! assert_eq!(report.health.frames_seen, 200);
//! assert!(report.is_reconciled(), "seen = delivered + dropped + shed + quarantined");
//! ```

pub mod state;

pub use state::EventSequencer;

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use wifiprint_ieee80211::Nanos;
use wifiprint_radiotap::CapturedFrame;

use self::state::{DrainOutcome, PushOutcome, RingState, Ticket};
use super::resilience::EngineHealth;
use super::{Engine, EngineError, Event, MultiEngine, MultiEvent};

/// What a full ingest ring does to a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum OverloadPolicy {
    /// Apply back-pressure: the submitter blocks until the worker makes
    /// room. Lossless — the default, and the policy under which the
    /// pipeline's event stream is bit-identical to synchronous
    /// `observe`.
    #[default]
    Block,
    /// Shed the submission itself: the newest frame is dropped and
    /// counted, the submitter never blocks. Keeps stale queued frames —
    /// prefer when earlier frames carry more decision value.
    ShedNewest,
    /// Shed the stalest *queued* frame to make room for the submission,
    /// or the submission itself when none is queued (the worker's batch
    /// holds the whole capacity). Keeps the stream fresh under sustained
    /// overload — the classic monitor ring-buffer behaviour.
    ShedOldest,
}

/// Configuration of a supervised [`IngestPipeline`].
#[derive(Clone, Copy)]
pub struct IngestConfig {
    /// Ring capacity in frames, queued plus in flight: tickets the
    /// worker has drained hold their slots until it comes back for its
    /// next batch (default 1024; clamped to at least 1).
    pub capacity: usize,
    /// Full-ring policy (default [`OverloadPolicy::Block`]).
    pub overload: OverloadPolicy,
    /// Maximum quarantined frames retained for inspection (default 32);
    /// older entries are evicted first. The
    /// [`EngineHealth::frames_quarantined`] *counter* is never capped.
    pub quarantine_capacity: usize,
    /// Stall watchdog deadline: when the ring stays empty this long,
    /// the worker drives the engine's `tick()` so the open window still
    /// gets its decision. `None` (default) disables the watchdog —
    /// required for bit-exact equivalence with synchronous `observe`.
    pub stall_timeout: Option<Duration>,
    /// Chaos knob: a per-frame artificial sweep cost, so overload
    /// behaviour is testable at small scale. `Duration::ZERO` (default)
    /// adds nothing to the processing path.
    pub sweep_delay: Duration,
    /// Chaos knob: frames matching the probe panic inside the worker's
    /// `catch_unwind` envelope, exercising quarantine + restart with a
    /// real unwinding panic. `None` (default) panics on nothing.
    pub panic_probe: Option<fn(&CapturedFrame) -> bool>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            capacity: 1024,
            overload: OverloadPolicy::Block,
            quarantine_capacity: 32,
            stall_timeout: None,
            sweep_delay: Duration::ZERO,
            panic_probe: None,
        }
    }
}

impl fmt::Debug for IngestConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestConfig")
            .field("capacity", &self.capacity)
            .field("overload", &self.overload)
            .field("quarantine_capacity", &self.quarantine_capacity)
            .field("stall_timeout", &self.stall_timeout)
            .field("sweep_delay", &self.sweep_delay)
            .field("panic_probe", &self.panic_probe.map(|_| "fn"))
            .finish()
    }
}

impl IngestConfig {
    /// Returns a copy with a different ring capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns a copy with a different overload policy.
    #[must_use]
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Returns a copy with a different quarantine retention cap.
    #[must_use]
    pub fn with_quarantine_capacity(mut self, capacity: usize) -> Self {
        self.quarantine_capacity = capacity;
        self
    }

    /// Returns a copy with a stall-watchdog deadline.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// Returns a copy with an artificial per-frame sweep cost (chaos
    /// knob).
    #[must_use]
    pub fn with_sweep_delay(mut self, delay: Duration) -> Self {
        self.sweep_delay = delay;
        self
    }

    /// Returns a copy with a panic probe (chaos knob).
    #[must_use]
    pub fn with_panic_probe(mut self, probe: Option<fn(&CapturedFrame) -> bool>) -> Self {
        self.panic_probe = probe;
        self
    }
}

/// The engine surface the supervised pipeline drives — implemented by
/// both [`Engine`] (single parameter) and [`MultiEngine`] (fused five
/// parameters).
pub trait StreamEngine: Send + 'static {
    /// The typed event the engine emits.
    type Event: fmt::Debug + Send + 'static;

    /// Processes one frame (see `Engine::observe`).
    ///
    /// # Errors
    /// The engine's per-frame failure (late frame under the strict
    /// policy, finished session, training-transition failure).
    fn observe(&mut self, frame: &CapturedFrame) -> Result<Vec<Self::Event>, EngineError>;

    /// Advances the engine clock without a frame (see
    /// `Engine::advance_to`).
    ///
    /// # Errors
    /// `EngineError::Finished` after `finish`, or a training-transition
    /// failure.
    fn advance_to(&mut self, t: Nanos) -> Result<Vec<Self::Event>, EngineError>;

    /// Forces a decision on the open window now (see `Engine::tick`).
    ///
    /// # Errors
    /// `EngineError::Finished` after `finish`.
    fn tick(&mut self) -> Result<Vec<Self::Event>, EngineError>;

    /// Seals the session (see `Engine::finish`).
    ///
    /// # Errors
    /// A training-transition failure.
    fn finish(&mut self) -> Result<Vec<Self::Event>, EngineError>;

    /// The engine's ingest-health counters.
    fn health(&self) -> EngineHealth;

    /// Frames delivered to the engine core so far.
    fn frames_observed(&self) -> u64;

    /// Frames still held by the engine's reorder buffer.
    fn pending_frames(&self) -> usize;
}

impl StreamEngine for Engine {
    type Event = Event;

    fn observe(&mut self, frame: &CapturedFrame) -> Result<Vec<Event>, EngineError> {
        Engine::observe(self, frame)
    }
    fn advance_to(&mut self, t: Nanos) -> Result<Vec<Event>, EngineError> {
        Engine::advance_to(self, t)
    }
    fn tick(&mut self) -> Result<Vec<Event>, EngineError> {
        Engine::tick(self)
    }
    fn finish(&mut self) -> Result<Vec<Event>, EngineError> {
        Engine::finish(self)
    }
    fn health(&self) -> EngineHealth {
        Engine::health(self)
    }
    fn frames_observed(&self) -> u64 {
        Engine::frames_observed(self)
    }
    fn pending_frames(&self) -> usize {
        Engine::pending_frames(self)
    }
}

impl StreamEngine for MultiEngine {
    type Event = MultiEvent;

    fn observe(&mut self, frame: &CapturedFrame) -> Result<Vec<MultiEvent>, EngineError> {
        MultiEngine::observe(self, frame)
    }
    fn advance_to(&mut self, t: Nanos) -> Result<Vec<MultiEvent>, EngineError> {
        MultiEngine::advance_to(self, t)
    }
    fn tick(&mut self) -> Result<Vec<MultiEvent>, EngineError> {
        MultiEngine::tick(self)
    }
    fn finish(&mut self) -> Result<Vec<MultiEvent>, EngineError> {
        MultiEngine::finish(self)
    }
    fn health(&self) -> EngineHealth {
        MultiEngine::health(self)
    }
    fn frames_observed(&self) -> u64 {
        MultiEngine::frames_observed(self)
    }
    fn pending_frames(&self) -> usize {
        MultiEngine::pending_frames(self)
    }
}

/// One quarantined frame: the frame, its submission sequence number,
/// and why it was poisoned (panic message or engine error).
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// Submission sequence number of the poisoned frame.
    pub seq: u64,
    /// The frame itself, retained for offline inspection.
    pub frame: CapturedFrame,
    /// The panic payload (for an isolated panic) or the engine error's
    /// display (for a rejected frame).
    pub reason: String,
}

/// A capped buffer of the most recent [`Quarantined`] frames. The cap
/// bounds *retention*, not accounting: evicted entries stay counted in
/// [`EngineHealth::frames_quarantined`].
#[derive(Debug)]
pub struct Quarantine {
    capacity: usize,
    entries: VecDeque<Quarantined>,
    evicted: u64,
}

impl Quarantine {
    fn new(capacity: usize) -> Self {
        Quarantine { capacity: capacity.max(1), entries: VecDeque::new(), evicted: 0 }
    }

    fn push(&mut self, entry: Quarantined) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry);
    }

    /// The retained entries, oldest first.
    #[must_use]
    pub fn entries(&self) -> &VecDeque<Quarantined> {
        &self.entries
    }

    /// Entries evicted to respect the retention cap.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// A point-in-time snapshot of the pipeline-level counters, readable
/// while the worker is still running ([`IngestPipeline::stats`]). The
/// worker publishes its latency counters once per batch, so a snapshot
/// taken mid-batch lags it by at most one batch; the terminal snapshot
/// in [`IngestReport::stats`] is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct IngestStats {
    /// Frames submitted to the ring while open (enqueued or shed).
    pub submitted: u64,
    /// Frames shed by the overload policy.
    pub shed: u64,
    /// Frames quarantined (panic or engine rejection).
    pub quarantined: u64,
    /// Worker restarts after an isolated panic.
    pub worker_restarts: u64,
    /// Watchdog deadline expiries that drove a `tick`.
    pub watchdog_ticks: u64,
    /// Frames holding ring capacity: queued, plus drained into the
    /// worker's current batch and not yet returned.
    pub ring_pending: u64,
    /// Sum of enqueue→processed latency over all processed frames, in
    /// nanoseconds.
    pub latency_ns_sum: u64,
    /// Processed frames contributing to the latency sum.
    pub latency_samples: u64,
    /// Worst single enqueue→processed latency, in nanoseconds.
    pub latency_max_ns: u64,
}

impl IngestStats {
    /// Shed fraction of everything submitted (0 when nothing was).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Mean enqueue→processed latency in nanoseconds (0 with no
    /// samples).
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        if self.latency_samples == 0 {
            0.0
        } else {
            self.latency_ns_sum as f64 / self.latency_samples as f64
        }
    }
}

/// Pipeline-level counters, shared between submitters, the worker and
/// snapshot readers (the submission count lives in the ring).
#[derive(Debug, Default)]
struct SharedStats {
    shed: AtomicU64,
    quarantined: AtomicU64,
    worker_restarts: AtomicU64,
    watchdog_ticks: AtomicU64,
    latency_ns_sum: AtomicU64,
    latency_samples: AtomicU64,
    latency_max_ns: AtomicU64,
    /// Frames the engine core counted during an observe that then
    /// panicked — subtracted from `frames_observed()` so `delivered`
    /// and `quarantined` never double-count a frame.
    panic_observed_adjust: AtomicU64,
}

/// Everything the producer facades and the worker share.
#[derive(Debug)]
struct PipelineShared<T> {
    ring: RingState,
    sequencer: Mutex<EventSequencer<T>>,
    quarantine: Mutex<Quarantine>,
    stats: SharedStats,
}

/// The outcome [`IngestPipeline::submit`] reports for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The frame was enqueued (possibly after blocking for room).
    Enqueued,
    /// [`OverloadPolicy::ShedNewest`]: the submitted frame was shed.
    ShedNewest,
    /// [`OverloadPolicy::ShedOldest`]: a frame was shed to make room —
    /// the stalest queued one, or the submission itself when none was
    /// queued.
    ShedOldest,
}

/// A cloneable producer handle onto a running pipeline — the MPMC
/// "sender" side. Any number of capture threads may submit through
/// their own handle; see [`IngestPipeline::handle`].
#[derive(Debug)]
pub struct IngestHandle<T> {
    shared: Arc<PipelineShared<T>>,
}

impl<T> Clone for IngestHandle<T> {
    fn clone(&self) -> Self {
        IngestHandle { shared: Arc::clone(&self.shared) }
    }
}

impl<T> IngestHandle<T> {
    /// Submits one frame under the pipeline's overload policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] once the pipeline is finishing (the
    /// ring is closed).
    pub fn submit(&self, frame: &CapturedFrame) -> Result<SubmitOutcome, EngineError> {
        submit_shared(&self.shared, frame)
    }
}

fn submit_shared<T>(
    shared: &PipelineShared<T>,
    frame: &CapturedFrame,
) -> Result<SubmitOutcome, EngineError> {
    match shared.ring.push(frame) {
        PushOutcome::Enqueued => Ok(SubmitOutcome::Enqueued),
        PushOutcome::ShedNewest { seq } => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shared.sequencer().close_gap(seq);
            Ok(SubmitOutcome::ShedNewest)
        }
        PushOutcome::ShedOldest { dropped } => {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            shared.sequencer().close_gap(dropped.seq);
            Ok(SubmitOutcome::ShedOldest)
        }
        PushOutcome::Closed => Err(EngineError::Finished),
    }
}

/// The terminal report of a supervised session: the ordered event
/// stream, the engine itself (for `into_reference` etc.), the merged
/// health ledger, the pipeline counters, and the retained quarantine.
#[derive(Debug)]
pub struct IngestReport<E: StreamEngine> {
    /// Every delivered event, in submission order.
    pub events: Vec<E::Event>,
    /// The engine, already `finish()`ed by the worker.
    pub engine: E,
    /// The merged health ledger: the engine's gate counters with
    /// `frames_seen` replaced by the submission count and the
    /// shed/quarantined/restarted counters filled in.
    pub health: EngineHealth,
    /// Final pipeline counters.
    pub stats: IngestStats,
    /// The retained quarantined frames (capped; see
    /// [`Quarantine::evicted`]).
    pub quarantine: Vec<Quarantined>,
    /// Frames the engine core consumed, net of panic-interrupted ones.
    pub delivered: u64,
}

impl<E: StreamEngine> IngestReport<E> {
    /// Whether the session satisfies the conservation law exactly:
    /// `seen = delivered + dropped + shed + quarantined` (everything is
    /// drained after `finish`, so `pending = 0`).
    #[must_use]
    pub fn is_reconciled(&self) -> bool {
        self.health.conserves(self.delivered, self.engine.pending_frames() as u64)
    }
}

/// A supervised ingest front around one [`StreamEngine`]: bounded ring,
/// overload policy, panic-isolating worker, stall watchdog and ordered
/// event delivery. See the [module docs](self).
#[derive(Debug)]
pub struct IngestPipeline<E: StreamEngine> {
    shared: Arc<PipelineShared<E::Event>>,
    worker: Option<JoinHandle<E>>,
}

impl<E: StreamEngine> IngestPipeline<E> {
    /// Spawns the supervised worker around `engine` and opens the ring
    /// for submissions.
    ///
    /// # Errors
    ///
    /// [`EngineError::Supervisor`] when the worker thread cannot be
    /// spawned.
    pub fn spawn(engine: E, cfg: IngestConfig) -> Result<Self, EngineError> {
        let shared = Arc::new(PipelineShared {
            ring: RingState::new(cfg.capacity, cfg.overload),
            sequencer: Mutex::new(EventSequencer::new()),
            quarantine: Mutex::new(Quarantine::new(cfg.quarantine_capacity)),
            stats: SharedStats::default(),
        });
        let worker_shared = Arc::clone(&shared);
        let stall_timeout = cfg.stall_timeout;
        let sweep_delay = cfg.sweep_delay;
        let probe = cfg.panic_probe;
        let worker = std::thread::Builder::new()
            .name("wifiprint-ingest".to_owned())
            .spawn(move || supervise(engine, &worker_shared, stall_timeout, sweep_delay, probe))
            .map_err(|e| EngineError::Supervisor { reason: format!("spawn worker: {e}") })?;
        Ok(IngestPipeline { shared, worker: Some(worker) })
    }

    /// Submits one frame under the configured overload policy (blocks
    /// only under [`OverloadPolicy::Block`] on a full ring).
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] once the pipeline is finishing.
    pub fn submit(&self, frame: &CapturedFrame) -> Result<SubmitOutcome, EngineError> {
        submit_shared(&self.shared, frame)
    }

    /// A cloneable producer handle, so any number of capture threads
    /// can feed the ring (MPMC).
    #[must_use]
    pub fn handle(&self) -> IngestHandle<E::Event> {
        IngestHandle { shared: Arc::clone(&self.shared) }
    }

    /// Takes every event delivered so far, in submission order.
    ///
    /// # Panics
    ///
    /// If the sequencer lock is poisoned — impossible in practice, the
    /// worker wraps every sweep in its panic isolation.
    pub fn drain_events(&self) -> Vec<E::Event> {
        self.shared.sequencer().drain_ready()
    }

    /// A snapshot of the pipeline counters; the worker's latency
    /// counters lag it by at most one batch.
    ///
    /// # Panics
    ///
    /// If the ring lock is poisoned — impossible in practice, no code
    /// that can panic runs under it.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        let s = &self.shared.stats;
        let (submitted, ring_pending) = self.shared.ring.counts();
        IngestStats {
            submitted,
            shed: s.shed.load(Ordering::Relaxed),
            quarantined: s.quarantined.load(Ordering::Relaxed),
            worker_restarts: s.worker_restarts.load(Ordering::Relaxed),
            watchdog_ticks: s.watchdog_ticks.load(Ordering::Relaxed),
            ring_pending: ring_pending as u64,
            latency_ns_sum: s.latency_ns_sum.load(Ordering::Relaxed),
            latency_samples: s.latency_samples.load(Ordering::Relaxed),
            latency_max_ns: s.latency_max_ns.load(Ordering::Relaxed),
        }
    }

    /// The retained quarantined frames so far (clone; the worker keeps
    /// appending).
    ///
    /// # Panics
    ///
    /// If the quarantine lock is poisoned — impossible in practice, the
    /// worker wraps every sweep in its panic isolation.
    #[must_use]
    pub fn quarantined(&self) -> Vec<Quarantined> {
        self.shared.quarantine.lock().expect("quarantine lock").entries.iter().cloned().collect()
    }

    /// Closes the ring, lets the worker drain it and `finish()` the
    /// engine, joins the worker and returns the terminal
    /// [`IngestReport`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Supervisor`] if the worker died outside its panic
    /// isolation (a supervision bug, not a poison frame).
    ///
    /// # Panics
    ///
    /// If an internal lock is poisoned — impossible in practice, the
    /// worker wraps every sweep in its panic isolation.
    pub fn finish(mut self) -> Result<IngestReport<E>, EngineError> {
        self.shared.ring.close();
        let worker = self.worker.take().expect("finish consumes the only owner");
        let engine = worker.join().map_err(|_| EngineError::Supervisor {
            reason: "ingest worker died outside its panic isolation".to_owned(),
        })?;
        let events = self.drain_events();
        let stats = self.stats();
        let adjust = self.shared.stats.panic_observed_adjust.load(Ordering::Relaxed);
        let delivered = engine.frames_observed().saturating_sub(adjust);
        let mut health = engine.health();
        health.frames_seen = stats.submitted;
        health.frames_shed = stats.shed;
        health.frames_quarantined = stats.quarantined;
        health.workers_restarted = stats.worker_restarts;
        let quarantine = {
            let q = self.shared.quarantine.lock().expect("quarantine lock");
            q.entries.iter().cloned().collect()
        };
        Ok(IngestReport { events, engine, health, stats, quarantine, delivered })
    }
}

impl<E: StreamEngine> Drop for IngestPipeline<E> {
    fn drop(&mut self) {
        // An abandoned pipeline must not leak its worker: close the
        // ring and wait for the drain. `finish()` takes the handle, so
        // this only runs for pipelines dropped without finishing.
        if let Some(worker) = self.worker.take() {
            self.shared.ring.close();
            let _ = worker.join();
        }
    }
}

/// The worker's current batch and its deferred bookkeeping. Owned by
/// [`supervise`], so everything in it survives a panic unwinding out of
/// [`worker_loop`]: the supervisor quarantines the in-flight ticket and
/// the worker resumes with the rest of the batch.
#[derive(Debug, Default)]
struct Batch {
    /// Drained tickets not yet processed, oldest first.
    tickets: VecDeque<Ticket>,
    /// Tickets the last drain handed over — the ring capacity given back
    /// at the next drain.
    taken: usize,
    /// The ticket being processed, plus the engine-core frame count
    /// before its observe — read after an unwind, so the supervisor knows
    /// what to quarantine and whether the core counted the doomed frame.
    inflight: Option<(Ticket, u64)>,
    /// Processed tickets that produced no events, not yet advanced past
    /// in the sequencer.
    empty: Vec<u64>,
    latency_ns_sum: u64,
    latency_samples: u64,
    latency_max_ns: u64,
}

impl Batch {
    fn record_latency(&mut self, latency_ns: u64) {
        self.latency_ns_sum += latency_ns;
        self.latency_samples += 1;
        self.latency_max_ns = self.latency_max_ns.max(latency_ns);
    }

    /// Publishes the deferred sequencer advances and latency counters.
    fn flush<T>(&mut self, shared: &PipelineShared<T>) {
        if !self.empty.is_empty() {
            shared.sequencer().advance_empty(self.empty.drain(..));
        }
        if self.latency_samples > 0 {
            let stats = &shared.stats;
            stats.latency_ns_sum.fetch_add(self.latency_ns_sum, Ordering::Relaxed);
            stats.latency_samples.fetch_add(self.latency_samples, Ordering::Relaxed);
            stats.latency_max_ns.fetch_max(self.latency_max_ns, Ordering::Relaxed);
            (self.latency_ns_sum, self.latency_samples, self.latency_max_ns) = (0, 0, 0);
        }
    }
}

impl<T> PipelineShared<T> {
    fn sequencer(&self) -> MutexGuard<'_, EventSequencer<T>> {
        self.sequencer.lock().expect("sequencer lock")
    }
}

/// The supervision loop: runs the worker under `catch_unwind`; on a
/// panic, quarantines the in-flight frame (with the panic message),
/// counts a restart, and re-enters the worker around the same engine and
/// the rest of the same batch. Returns the engine once the ring is
/// closed and drained.
fn supervise<E: StreamEngine>(
    mut engine: E,
    shared: &PipelineShared<E::Event>,
    stall_timeout: Option<Duration>,
    sweep_delay: Duration,
    probe: Option<fn(&CapturedFrame) -> bool>,
) -> E {
    let mut batch = Batch::default();
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&mut engine, shared, &mut batch, stall_timeout, sweep_delay, probe);
        }));
        match run {
            Ok(()) => return engine,
            Err(payload) => {
                // `as_ref`, not `&payload`: coercing `&Box<dyn Any>`
                // would downcast against the Box itself and never match.
                let reason = panic_message(payload.as_ref());
                if let Some((ticket, observed_before)) = batch.inflight.take() {
                    let double_counted =
                        engine.frames_observed().saturating_sub(observed_before);
                    shared
                        .stats
                        .panic_observed_adjust
                        .fetch_add(double_counted, Ordering::Relaxed);
                    quarantine_frame(shared, ticket, reason);
                } else {
                    // A panic outside frame processing (tick/finish):
                    // nothing to quarantine; restart and keep going.
                }
                shared.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn quarantine_frame<T>(shared: &PipelineShared<T>, ticket: Ticket, reason: String) {
    shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    shared
        .quarantine
        .lock()
        .expect("quarantine lock")
        .push(Quarantined { seq: ticket.seq, frame: ticket.frame, reason });
    shared.sequencer().close_gap(ticket.seq);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The worker proper: processes the current batch, then drains the next
/// one from the ring, driving the engine and feeding the sequencer. Runs
/// until the ring is closed and drained; panics unwind to
/// [`supervise`].
fn worker_loop<E: StreamEngine>(
    engine: &mut E,
    shared: &PipelineShared<E::Event>,
    batch: &mut Batch,
    stall_timeout: Option<Duration>,
    sweep_delay: Duration,
    probe: Option<fn(&CapturedFrame) -> bool>,
) {
    loop {
        while let Some(ticket) = batch.tickets.pop_front() {
            batch.inflight = Some((ticket, engine.frames_observed()));
            if !sweep_delay.is_zero() {
                std::thread::sleep(sweep_delay);
            }
            assert!(
                !probe.is_some_and(|p| p(&ticket.frame)),
                "chaos probe: poison frame at {} ns",
                ticket.frame.t_end.as_nanos()
            );
            let outcome = engine.observe(&ticket.frame);
            batch.inflight = None;
            batch.record_latency(ticket.enqueued.elapsed().as_nanos() as u64);
            match outcome {
                Ok(events) if events.is_empty() => batch.empty.push(ticket.seq),
                Ok(events) => {
                    let mut sequencer = shared.sequencer();
                    sequencer.advance_empty(batch.empty.drain(..));
                    sequencer.insert(ticket.seq, events);
                }
                Err(e) => quarantine_frame(shared, ticket, e.to_string()),
            }
        }
        batch.flush(shared);
        let done = std::mem::take(&mut batch.taken);
        match shared.ring.drain(done, &mut batch.tickets, stall_timeout) {
            DrainOutcome::Batch => batch.taken = batch.tickets.len(),
            DrainOutcome::TimedOut => {
                // Stall watchdog: the source went silent past the
                // deadline — force the open window's decision so the
                // stream of decisions stays live.
                shared.stats.watchdog_ticks.fetch_add(1, Ordering::Relaxed);
                let seq = shared.ring.alloc_seq();
                match engine.tick() {
                    Ok(events) => shared.sequencer().insert(seq, events),
                    Err(_) => shared.sequencer().close_gap(seq),
                }
            }
            DrainOutcome::Closed => {
                let seq = shared.ring.alloc_seq();
                match engine.finish() {
                    Ok(events) => shared.sequencer().insert(seq, events),
                    Err(_) => shared.sequencer().close_gap(seq),
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::engine::resilience::{LateFramePolicy, ResilienceConfig};
    use crate::params::NetworkParameter;
    use wifiprint_ieee80211::{Frame, MacAddr, Rate};

    fn capture(dev: u64, t_us: u64, payload: usize) -> CapturedFrame {
        let sta = MacAddr::from_index(dev + 1);
        let ap = MacAddr::from_index(99);
        let f = Frame::data_to_ds(sta, ap, ap, payload);
        CapturedFrame::from_frame(&f, Rate::R24M, Nanos::from_micros(t_us), -50)
    }

    fn stream(n: u64) -> Vec<CapturedFrame> {
        (0..n).map(|i| capture(i % 3, 500 * (i + 1), 200 + (i % 5) as usize * 100)).collect()
    }

    fn engine(resilience: ResilienceConfig) -> Engine {
        let mut cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
            .with_min_observations(3);
        cfg.window = Nanos::from_millis(100);
        Engine::builder()
            .config(cfg)
            .train_for(Nanos::from_millis(200))
            .resilience(resilience)
            .build()
            .expect("valid engine configuration")
    }

    /// The poison marker the chaos probe recognises in these tests: a
    /// zero-size data frame (which no real capture produces here).
    fn is_poison(frame: &CapturedFrame) -> bool {
        frame.size == 0
    }

    #[test]
    fn block_pipeline_matches_synchronous_observe() {
        let frames = stream(400);
        let mut sync = engine(ResilienceConfig::default());
        let mut want = Vec::new();
        for f in &frames {
            want.extend(sync.observe(f).expect("in-order frame"));
        }
        want.extend(sync.finish().expect("finish"));

        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), IngestConfig::default())
                .expect("spawn");
        for f in &frames {
            assert_eq!(pipeline.submit(f).expect("open"), SubmitOutcome::Enqueued);
        }
        let report = pipeline.finish().expect("terminates");
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert_eq!(report.health.frames_seen, 400);
        assert_eq!(report.health.frames_shed, 0);
        assert_eq!(report.delivered, 400);
        assert!(report.is_reconciled());
    }

    #[test]
    fn panic_probe_frames_are_quarantined_and_the_stream_survives() {
        let mut frames = stream(300);
        // Three poison frames scattered through the stream.
        for &i in &[50usize, 150, 250] {
            frames[i].size = 0;
        }
        let clean: Vec<CapturedFrame> =
            frames.iter().copied().filter(|f| !is_poison(f)).collect();
        let mut sync = engine(ResilienceConfig::default());
        let mut want = Vec::new();
        for f in &clean {
            want.extend(sync.observe(f).expect("in-order frame"));
        }
        want.extend(sync.finish().expect("finish"));

        let cfg = IngestConfig::default().with_panic_probe(Some(is_poison));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        for f in &frames {
            pipeline.submit(f).expect("open");
        }
        let report = pipeline.finish().expect("survives the panics");
        // A quarantined frame behaves exactly as if it was never
        // captured: the delivered event stream is the clean stream's.
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert_eq!(report.health.frames_quarantined, 3);
        assert_eq!(report.health.workers_restarted, 3);
        assert_eq!(report.quarantine.len(), 3);
        for q in &report.quarantine {
            assert!(q.reason.contains("chaos probe"), "reason: {}", q.reason);
            assert_eq!(q.frame.size, 0);
        }
        assert!(report.is_reconciled());
    }

    #[test]
    fn a_panic_mid_batch_quarantines_only_the_in_flight_ticket() {
        // The sweep delay holds the worker on frame 0 while the rest
        // queue up, so the poison frame usually sits inside a batch with
        // frames after it. The assertions hold for any batch shape.
        const POISON_AT: usize = 7;
        let mut frames = stream(40);
        frames[POISON_AT].size = 0;
        let clean: Vec<CapturedFrame> =
            frames.iter().copied().filter(|f| !is_poison(f)).collect();
        let mut sync = engine(ResilienceConfig::default());
        let mut want = Vec::new();
        for f in &clean {
            want.extend(sync.observe(f).expect("in-order frame"));
        }
        want.extend(sync.finish().expect("finish"));

        let cfg = IngestConfig::default()
            .with_panic_probe(Some(is_poison))
            .with_sweep_delay(Duration::from_millis(2));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        for f in &frames {
            pipeline.submit(f).expect("open");
        }
        let report = pipeline.finish().expect("survives the panic");
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert!(report.is_reconciled(), "health: {:?}", report.health);
        assert_eq!(report.stats.quarantined, 1);
        assert_eq!(report.quarantine[0].seq, POISON_AT as u64);
        assert_eq!(report.delivered, frames.len() as u64 - 1);
        assert_eq!(report.stats.latency_samples, frames.len() as u64 - 1);
    }

    #[test]
    fn rejected_frames_quarantine_with_their_engine_error() {
        // Strict policy + one late frame: the engine rejects it, the
        // pipeline quarantines it, the stream continues.
        let mut frames = stream(50);
        frames[20].t_end = Nanos::from_micros(1); // far behind the watermark
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), IngestConfig::default())
                .expect("spawn");
        for f in &frames {
            pipeline.submit(f).expect("open");
        }
        let report = pipeline.finish().expect("terminates");
        assert_eq!(report.health.frames_quarantined, 1);
        assert_eq!(report.health.workers_restarted, 0, "a rejection is not a panic");
        assert!(
            report.quarantine[0].reason.contains("capture order"),
            "reason: {}",
            report.quarantine[0].reason
        );
        assert!(report.is_reconciled());
    }

    #[test]
    fn shed_oldest_under_overload_keeps_the_ledger_exact() {
        let frames = stream(300);
        let cfg = IngestConfig::default()
            .with_capacity(8)
            .with_overload(OverloadPolicy::ShedOldest)
            .with_sweep_delay(Duration::from_micros(200));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        let mut shed_seen = 0u64;
        for f in &frames {
            if pipeline.submit(f).expect("open") == SubmitOutcome::ShedOldest {
                shed_seen += 1;
            }
        }
        let report = pipeline.finish().expect("terminates");
        assert!(report.health.frames_shed > 0, "a 200 us sweep over an 8-slot ring sheds");
        assert_eq!(report.health.frames_shed, shed_seen);
        assert_eq!(report.health.frames_seen, 300);
        assert!(report.is_reconciled(), "health: {:?}", report.health);
        // Shedding the oldest keeps delivered frames in order, so the
        // engine saw a monotonic stream and dropped nothing as late.
        assert_eq!(report.health.frames_late_dropped, 0);
    }

    #[test]
    fn watchdog_closes_windows_while_the_source_is_silent() {
        let cfg = IngestConfig::default()
            .with_stall_timeout(Some(Duration::from_millis(10)));
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        // 300 ms of traffic: 200 ms of training, then a detection window
        // opens and stays open (its end is past the last frame).
        for f in stream(600) {
            pipeline.submit(&f).expect("open");
        }
        // Wait for the worker to drain the ring, then discard everything
        // the *frames* produced (the enrollment batch).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pipeline.stats().latency_samples < 600
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pipeline.stats().latency_samples, 600, "worker drained the ring");
        pipeline.drain_events();
        // Source goes silent. The watchdog must drive tick() and seal
        // the open detection window without any further frame.
        let mut events = Vec::new();
        while events.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            events.extend(pipeline.drain_events());
        }
        assert!(!events.is_empty(), "watchdog never delivered the stalled window");
        assert!(pipeline.stats().watchdog_ticks > 0);
        let report = pipeline.finish().expect("terminates");
        assert!(report.is_reconciled());
    }

    #[test]
    fn watchdog_tick_does_not_disturb_the_reorder_buffer() {
        // Frames shuffled within the reorder horizon sit in the buffer
        // while the watchdog fires; they must still deliver in order,
        // with nothing dropped — the deadline only seals *windows*, it
        // never bypasses the re-sequencer.
        let resilience = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 8 });
        let mut frames = stream(200);
        frames.swap(120, 122);
        frames.swap(150, 153);
        let mut sync = engine(resilience.clone());
        let mut want = Vec::new();
        for f in &frames {
            want.extend(sync.observe(f).expect("reorder absorbs the shuffle"));
        }
        want.extend(sync.finish().expect("finish"));

        let cfg = IngestConfig::default()
            .with_stall_timeout(Some(Duration::from_millis(5)));
        let pipeline = IngestPipeline::spawn(engine(resilience), cfg).expect("spawn");
        for (i, f) in frames.iter().enumerate() {
            pipeline.submit(f).expect("open");
            if i == 123 || i == 154 {
                // Let the watchdog fire while shuffled frames are
                // buffered.
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        let report = pipeline.finish().expect("terminates");
        assert_eq!(format!("{:?}", report.events), format!("{want:?}"));
        assert_eq!(report.health.frames_late_dropped, 0);
        assert_eq!(report.health.frames_reordered, sync.health().frames_reordered);
        assert!(report.health.frames_reordered > 0, "the shuffle was real");
        assert!(report.stats.watchdog_ticks > 0, "the stalls must have fired the watchdog");
        assert!(report.is_reconciled());
    }

    #[test]
    fn mpmc_handles_submit_from_several_threads() {
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::tolerant()), IngestConfig::default())
                .expect("spawn");
        let frames = stream(600);
        let mid = frames.len() / 2;
        let (a, b) = frames.split_at(mid);
        let handle = pipeline.handle();
        let b = b.to_vec();
        let t = std::thread::spawn(move || {
            for f in &b {
                handle.submit(f).expect("open");
            }
        });
        for f in a {
            pipeline.submit(f).expect("open");
        }
        t.join().expect("producer");
        let report = pipeline.finish().expect("terminates");
        assert_eq!(report.health.frames_seen, 600);
        assert!(report.is_reconciled(), "health: {:?}", report.health);
    }

    #[test]
    fn quarantine_retention_is_capped_but_accounting_is_not() {
        let mut frames = stream(120);
        for f in frames.iter_mut().skip(40).take(10) {
            f.size = 0; // 10 poison frames
        }
        let cfg = IngestConfig::default()
            .with_panic_probe(Some(is_poison))
            .with_quarantine_capacity(4);
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), cfg).expect("spawn");
        for f in &frames {
            pipeline.submit(f).expect("open");
        }
        let report = pipeline.finish().expect("terminates");
        assert_eq!(report.health.frames_quarantined, 10);
        assert_eq!(report.quarantine.len(), 4, "retention cap");
        assert!(report.is_reconciled(), "evictions must not lose accounting");
    }

    #[test]
    fn submitting_after_finish_fails_fast() {
        let pipeline =
            IngestPipeline::spawn(engine(ResilienceConfig::default()), IngestConfig::default())
                .expect("spawn");
        let handle = pipeline.handle();
        pipeline.finish().expect("terminates");
        assert!(matches!(handle.submit(&capture(0, 10, 100)), Err(EngineError::Finished)));
    }
}
