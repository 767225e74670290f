//! The streaming `Engine`: the production entry point of the crate.
//!
//! The paper's detector is inherently *online* — a passive monitor
//! watches frames and must flag devices per 5-minute detection window
//! (§V-A) — so the production API is frame-at-a-time, not batch.
//! [`Engine`] is a builder-configured facade over the whole
//! ingest → window → match path: push every [`CapturedFrame`] once, in
//! capture order, and receive typed [`Event`]s as detection windows
//! close. Matching runs through the same tiled `f32` SIMD sweep
//! ([`ReferenceDb::match_tile`]) as the batch paths, incrementally, one
//! window at a time, with one reused [`MatchScratch`] — no end-of-trace
//! sweep and no whole-trace buffering.
//!
//! `Engine` runs **one** network parameter. The paper's headline results
//! combine all five, and [`MultiEngine`] is the production entry point
//! for that: a single fused frame parse ([`crate::FusedExtractor`])
//! feeding all five parameters on one shared window clock, with
//! per-parameter *and* fused (weighted-average) scores per event — see
//! the [`multi`] module docs.
//!
//! Both engines are frame-driven *and* clock-driven: windows normally
//! seal when a later frame arrives, and [`Engine::advance_to`] /
//! [`Engine::tick`] seal them on wall clock instead, so a channel that
//! goes quiet cannot stall the final decision.
//!
//! # Lifecycle
//!
//! An engine is in one of three phases ([`EnginePhase`]):
//!
//! * **Training** — entered with [`EngineBuilder::train_for`]: frames
//!   enroll devices into a [`SignatureBuilder`]. When the configured
//!   duration elapses (on the stream's own clock), the learned devices
//!   are enrolled into a [`ReferenceDb`], the database is frozen
//!   ([`ReferenceDb::freeze`]), one [`Event::Enrolled`] fires per
//!   device, and the engine moves to detection. A training phase that
//!   enrolls nobody degrades to an all-[`Event::NewDevice`] detector
//!   rather than killing a live capture session.
//! * **Detecting** — entered directly with [`EngineBuilder::reference`]
//!   (the database is frozen on entry), or from training. Frames build
//!   per-device candidate signatures inside sliding detection windows;
//!   when a frame lands past the current window's end, the window seals
//!   and every qualifying candidate is matched against the reference:
//!   [`Event::Match`] for enrolled devices, [`Event::NewDevice`] for
//!   strangers (scored too — "who does this newcomer most resemble" is
//!   the MAC-randomisation tracking question), then one
//!   [`Event::WindowClosed`] terminator.
//! * **Finished** — after [`Engine::finish`] seals the trailing window.
//!   `finish()` is idempotent: a second call returns no events.
//!
//! # Degraded captures
//!
//! Real monitor paths lose, reorder, duplicate and truncate frames. By
//! default both engines keep the strict historical contract — frames
//! must arrive in capture order ([`EngineError::NonMonotonicFrame`])
//! and are trusted verbatim — but a [`ResilienceConfig`] (set via
//! [`EngineBuilder::resilience`]) relaxes it explicitly:
//!
//! * [`LateFramePolicy::Drop`] counts and discards late frames instead
//!   of erroring; [`LateFramePolicy::Reorder`] re-sequences frames
//!   shuffled within a bounded horizon through a watermark buffer, so
//!   the engine sees capture order again (bit-identical events to the
//!   in-order stream, property-tested);
//! * duplicate suppression and a runt-size gate drop re-delivered and
//!   truncated frames before they can poison signatures;
//! * every dropped frame is accounted for in [`EngineHealth`]
//!   ([`Engine::health`]), so ingest-side counters reconcile exactly
//!   with capture-side fault statistics.
//!
//! The fused [`MultiEngine`] adds graceful degradation on top: a fusion
//! quorum ([`ResilienceConfig::fusion_quorum`]) lets it fuse over the
//! parameters that survived a sparse window, marking the event with the
//! parameters that were missing. See the [`resilience`] module docs.
//!
//! # Overload & supervision
//!
//! [`ResilienceConfig`] protects against degraded *frames*; the
//! [`ingest`] module protects against degraded *flow*. An
//! [`IngestPipeline`] owns either engine on a supervised worker behind
//! a bounded ring: an [`OverloadPolicy`] sheds (and counts) frames a
//! burst submits faster than the sweep drains; `catch_unwind` isolates
//! a frame whose sweep panics into a capped [`Quarantine`] buffer and
//! restarts the worker; a stall watchdog drives [`Engine::tick`] on a
//! wall-clock deadline so a silent source cannot stall window
//! decisions; and an [`EventSequencer`] keeps delivered events in
//! submission order — bit-identical to synchronous [`Engine::observe`]
//! under [`OverloadPolicy::Block`] with no faults (property-tested).
//! Shed and quarantined frames reconcile exactly through
//! [`EngineHealth::conserves`]:
//! `seen = delivered + dropped + shed + quarantined + pending`.
//!
//! # MAC randomization & linking
//!
//! Both engines key everything on the claimed transmitter address —
//! which modern clients rotate precisely to defeat that keying. The
//! [`linker`] module closes the loop: a [`RotationLinker`] consumes
//! sightings (an address plus the per-parameter signatures observed
//! under it — exactly what [`Event::NewDevice`] /
//! [`MultiEvent::FusedNewDevice`]
//! carry, see [`RotationLinker::observe_event`] /
//! [`RotationLinker::observe_multi`]) and chains rotated addresses
//! back to stable [`IdentityId`]s: exact MAC bindings first
//! (universally-administered addresses bypass the gallery entirely),
//! then a fused sweep of per-parameter identity galleries through the
//! pruned [`ReferenceDb::match_topk`] path, with accept-threshold +
//! ambiguity-margin gating and TTL/capacity eviction. Every decision
//! is a typed [`LinkEvent`] and the [`LinkerStats`] counters obey a
//! conservation law (`sightings = linked + new_identities +
//! ambiguous`) — see the [`linker`] module docs.
//!
//! # Example
//!
//! ```
//! use wifiprint_core::engine::{Engine, Event};
//! use wifiprint_core::{EvalConfig, NetworkParameter};
//! use wifiprint_ieee80211::{Frame, MacAddr, Nanos, Rate};
//! use wifiprint_radiotap::CapturedFrame;
//!
//! let mut cfg = EvalConfig::for_parameter(NetworkParameter::InterArrivalTime)
//!     .with_min_observations(20);
//! cfg.window = Nanos::from_secs(1);
//! let mut engine = Engine::builder()
//!     .config(cfg)
//!     .train_for(Nanos::from_secs(2))
//!     .build()
//!     .expect("valid engine configuration");
//!
//! // One station sending every 10 ms: 2 s of training, 3 s of detection.
//! let sta = MacAddr::from_index(1);
//! let ap = MacAddr::from_index(2);
//! let mut events = Vec::new();
//! for i in 0..500u64 {
//!     let f = Frame::data_to_ds(sta, ap, ap, 400);
//!     let cap = CapturedFrame::from_frame(&f, Rate::R54M, Nanos::from_millis(10 * (i + 1)), -50);
//!     events.extend(engine.observe(&cap).expect("in-order frame"));
//! }
//! events.extend(engine.finish().expect("finish once"));
//!
//! assert!(matches!(events[0], Event::Enrolled { device, .. } if device == sta));
//! let matches = events.iter().filter(|e| matches!(e, Event::Match { .. })).count();
//! assert!(matches >= 3, "one match per closed detection window");
//! ```

pub mod ingest;
pub mod linker;
pub mod multi;
pub mod resilience;

pub use ingest::{
    EventSequencer, IngestConfig, IngestHandle, IngestPipeline, IngestReport, IngestStats,
    OverloadPolicy, Quarantine, Quarantined, StreamEngine, SubmitOutcome,
};
pub use linker::{
    enroll_signatures, IdentityId, LinkEvent, LinkerConfig, LinkerStats, RotationLinker,
};
pub use multi::{MultiConfig, MultiEngine, MultiEngineBuilder, MultiEvent, ParameterDecision};
pub use resilience::{
    EngineHealth, LateFramePolicy, ResilienceConfig, MIN_PLAUSIBLE_FRAME_SIZE,
};

use resilience::IngestFront;

use std::collections::BTreeMap;
use std::fmt;

use wifiprint_ieee80211::{MacAddr, Nanos};
use wifiprint_radiotap::CapturedFrame;

use crate::config::EvalConfig;
use crate::error::CoreError;
use crate::matching::{MatchOutcome, MatchScratch, ReferenceDb, MATCH_TILE};
use crate::signature::{Signature, SignatureBuilder};
use crate::windows::{CandidateWindow, WindowedSignatures};

/// A failure of the streaming ingest facade.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// [`EngineBuilder::build`] without an [`EngineBuilder::config`].
    MissingConfig,
    /// [`EngineBuilder::build`] with neither a pre-learned
    /// [`EngineBuilder::reference`] nor an online
    /// [`EngineBuilder::train_for`] phase: the engine would have nothing
    /// to match against and no way to learn.
    MissingReference,
    /// [`EngineBuilder::build`] with *both* a reference database and a
    /// training phase — it is ambiguous which should win.
    ConflictingReference,
    /// A frame older than its predecessor was observed. Frames must
    /// arrive in capture order (monitor taps and pcap files both
    /// guarantee this); reordered input would silently corrupt window
    /// attribution, so under the default
    /// [`LateFramePolicy::Reject`] it is rejected instead.
    /// [`ResilienceConfig`] selects more tolerant policies for degraded
    /// captures ([`LateFramePolicy::Drop`] /
    /// [`LateFramePolicy::Reorder`]).
    NonMonotonicFrame {
        /// Timestamp of the previously observed frame.
        last: Nanos,
        /// The offending earlier timestamp.
        got: Nanos,
    },
    /// [`Engine::observe`], [`Engine::advance_to`] or [`Engine::tick`]
    /// after [`Engine::finish`] sealed the session.
    Finished,
    /// A frame inside an [`Engine::observe_all`] /
    /// [`MultiEngine::observe_all`] batch failed; `index` is its
    /// position in the batch, so callers can resume after it or skip
    /// it.
    Batch {
        /// Zero-based position of the failing frame in the batch.
        index: usize,
        /// The underlying per-frame failure.
        source: Box<EngineError>,
    },
    /// The supervised ingest front failed outside its panic isolation:
    /// the worker thread could not be spawned, or it died in a way the
    /// supervisor could not contain (a supervision bug, not a poison
    /// frame — poison frames are quarantined, never surfaced as
    /// errors).
    Supervisor {
        /// What the supervisor observed.
        reason: String,
    },
    /// A data-level failure from the underlying primitives.
    Core(CoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MissingConfig => write!(f, "engine builder needs a config"),
            EngineError::MissingReference => {
                write!(f, "engine builder needs a reference database or a training phase")
            }
            EngineError::ConflictingReference => {
                write!(f, "engine builder got both a reference database and a training phase")
            }
            EngineError::NonMonotonicFrame { last, got } => write!(
                f,
                "frame at {} ns arrived after one at {} ns; frames must be in capture order",
                got.as_nanos(),
                last.as_nanos()
            ),
            EngineError::Finished => write!(f, "engine session is already finished"),
            EngineError::Batch { index, source } => {
                write!(f, "frame #{index} of batch: {source}")
            }
            EngineError::Supervisor { reason } => {
                write!(f, "ingest supervisor failure: {reason}")
            }
            EngineError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Batch { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

/// A typed notification emitted by [`Engine::observe`] /
/// [`Engine::finish`].
///
/// Per closed window the order is: one [`Event::Match`] or
/// [`Event::NewDevice`] per qualifying candidate (ascending device
/// address), then exactly one [`Event::WindowClosed`] terminator —
/// consumers that batch per window can flush on it. [`Event::Enrolled`]
/// events (ascending address) precede all window events.
#[derive(Debug, Clone)]
pub enum Event {
    /// A device's signature entered the reference database at the end of
    /// the training phase.
    Enrolled {
        /// The enrolled device.
        device: MacAddr,
        /// Observations backing its reference signature.
        observations: u64,
    },
    /// An *enrolled* device produced a qualifying candidate signature in
    /// the window that just closed.
    Match {
        /// Index of the closed detection window.
        window: usize,
        /// The candidate device (its claimed source address).
        device: MacAddr,
        /// Algorithm 1's similarity vector against every reference —
        /// `view.best()` is the identification-test argmax,
        /// `view.above_threshold(t)` the similarity-test set.
        view: MatchOutcome,
    },
    /// A device *not* in the reference database produced a qualifying
    /// candidate signature.
    NewDevice {
        /// Index of the closed detection window.
        window: usize,
        /// The unknown device's claimed source address.
        device: MacAddr,
        /// The candidate signature itself, handed over so callers can
        /// enroll it (track-then-enroll) without rebuilding it.
        signature: Signature,
        /// Similarities against the existing references — the closest
        /// one is who this "new" device most behaves like (the paper's
        /// §VII privacy scenario: re-identifying rotated MAC addresses).
        /// Empty when stranger scoring is disabled
        /// ([`EngineBuilder::score_unknown`]).
        view: MatchOutcome,
    },
    /// Terminator: the window sealed and all its candidate events (if
    /// any) have been emitted.
    WindowClosed {
        /// Index of the closed detection window.
        window: usize,
        /// Qualifying candidates the window produced.
        candidates: usize,
        /// How many of them were enrolled devices ([`Event::Match`]).
        known: usize,
        /// How many were strangers ([`Event::NewDevice`]).
        unknown: usize,
    },
}

/// Which stage of its lifecycle an [`Engine`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePhase {
    /// Accumulating the reference database from the stream.
    Training,
    /// Matching per-window candidates against the frozen reference.
    Detecting,
    /// [`Engine::finish`] sealed the session.
    Finished,
}

/// Configures and validates an [`Engine`]; obtained from
/// [`Engine::builder`].
#[derive(Debug)]
pub struct EngineBuilder {
    config: Option<EvalConfig>,
    reference: Option<ReferenceDb>,
    train_duration: Option<Nanos>,
    score_unknown: bool,
    resilience: ResilienceConfig,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            config: None,
            reference: None,
            train_duration: None,
            score_unknown: true,
            resilience: ResilienceConfig::default(),
        }
    }
}

impl EngineBuilder {
    /// Sets the evaluation configuration (parameter, bins, filter,
    /// observation floor, window length, similarity measure). Required.
    #[must_use]
    pub fn config(mut self, config: EvalConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Starts the engine directly in the detection phase against a
    /// pre-learned reference database (frozen on entry). Mutually
    /// exclusive with [`EngineBuilder::train_for`].
    #[must_use]
    pub fn reference(mut self, db: ReferenceDb) -> Self {
        self.reference = Some(db);
        self
    }

    /// Starts the engine with an online enrollment phase: the first
    /// `duration` of the stream (measured from its first frame) trains
    /// the reference database, which is then frozen for detection.
    /// Mutually exclusive with [`EngineBuilder::reference`].
    #[must_use]
    pub fn train_for(mut self, duration: Nanos) -> Self {
        self.train_duration = Some(duration);
        self
    }

    /// Whether [`Event::NewDevice`] candidates are scored against the
    /// reference matrix (default `true`). Scoring strangers answers
    /// "who does this newcomer most resemble" — the MAC-randomisation
    /// tracking question — but costs one full reference sweep per
    /// stranger per window; consumers that only *count* new devices
    /// (e.g. the accuracy pipeline) can turn it off, in which case
    /// `NewDevice.view` is empty.
    #[must_use]
    pub fn score_unknown(mut self, score: bool) -> Self {
        self.score_unknown = score;
        self
    }

    /// Sets the degraded-capture resilience configuration (late-frame
    /// policy, duplicate suppression, runt gate; see
    /// [`ResilienceConfig`]). Defaults to the strict historical
    /// behavior: late frames rejected, nothing gated.
    #[must_use]
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// * [`EngineError::MissingConfig`] without a config;
    /// * [`EngineError::MissingReference`] with neither reference nor
    ///   training phase, [`EngineError::ConflictingReference`] with both;
    /// * [`EngineError::Core`]([`CoreError::EmptyDatabase`]) for an
    ///   empty reference database;
    /// * [`EngineError::Core`]([`CoreError::InvalidConfig`]) for a
    ///   config that cannot drive an evaluation (zero-length window,
    ///   empty bins, zero-length training phase).
    pub fn build(self) -> Result<Engine, EngineError> {
        let cfg = self.config.ok_or(EngineError::MissingConfig)?;
        cfg.validate()?;
        let score_unknown = self.score_unknown;
        let phase = match (self.reference, self.train_duration) {
            (Some(_), Some(_)) => return Err(EngineError::ConflictingReference),
            (None, None) => return Err(EngineError::MissingReference),
            (Some(mut db), None) => {
                if db.is_empty() {
                    return Err(CoreError::EmptyDatabase.into());
                }
                db.freeze();
                Phase::Detecting { db, windows: WindowedSignatures::new(&cfg) }
            }
            (None, Some(duration)) => {
                if duration == Nanos::ZERO {
                    return Err(CoreError::InvalidConfig {
                        reason: "training phase must be longer than zero",
                    }
                    .into());
                }
                Phase::Training { builder: SignatureBuilder::new(&cfg), duration }
            }
        };
        Ok(Engine {
            cfg,
            phase,
            score_unknown,
            scratch: MatchScratch::new(),
            origin: None,
            front: IngestFront::new(self.resilience),
            frames: 0,
            train_frames: 0,
            windows_closed: 0,
        })
    }
}

/// Internal lifecycle state (the public projection is [`EnginePhase`]).
// One instance per engine; boxing the (sharded) database to shrink the
// enum would only add a pointer chase to the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Phase {
    Training { builder: SignatureBuilder, duration: Nanos },
    Detecting { db: ReferenceDb, windows: WindowedSignatures },
    Finished { db: Option<ReferenceDb> },
}

/// The streaming ingest → window → match facade (see the [module
/// docs](self)).
#[derive(Debug)]
pub struct Engine {
    cfg: EvalConfig,
    phase: Phase,
    /// See [`EngineBuilder::score_unknown`].
    score_unknown: bool,
    /// Reused across every window: matching stays allocation-free in the
    /// steady state.
    scratch: MatchScratch,
    /// Timestamp of the first observed frame; anchors the training
    /// boundary (detection windows re-anchor at the first detection
    /// frame, like the batch pipeline's validation split).
    origin: Option<Nanos>,
    /// The resilience gatekeeper: owns the monotonicity watermark, the
    /// reorder buffer and the ingest-health counters.
    front: IngestFront,
    frames: u64,
    train_frames: u64,
    windows_closed: u64,
}

impl Engine {
    /// Starts configuring an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Processes one captured frame, returning the events it triggered
    /// (usually none: events fire when a detection window closes or the
    /// training phase ends).
    ///
    /// # Errors
    ///
    /// * [`EngineError::NonMonotonicFrame`] for a frame older than its
    ///   predecessor under the default [`LateFramePolicy::Reject`] (the
    ///   engine state is unchanged; the frame may be re-sent in order —
    ///   the other policies drop or re-sequence late frames instead,
    ///   counting them in [`Engine::health`]);
    /// * [`EngineError::Finished`] after [`Engine::finish`];
    /// * [`EngineError::Core`] when ending the training phase fails for
    ///   a reason other than an empty enrollment (which instead degrades
    ///   to an empty, all-`NewDevice` reference).
    pub fn observe(&mut self, frame: &CapturedFrame) -> Result<Vec<Event>, EngineError> {
        if matches!(self.phase, Phase::Finished { .. }) {
            return Err(EngineError::Finished);
        }
        let delivered = self.front.admit(frame)?;
        let mut events = Vec::new();
        if let Some(frame) = delivered {
            self.ingest(&frame, &mut events)?;
        }
        Ok(events)
    }

    /// Processes one in-order frame the ingest front delivered: training
    /// accumulation or window building, sealing windows a later frame
    /// closes.
    fn ingest(&mut self, frame: &CapturedFrame, events: &mut Vec<Event>) -> Result<(), EngineError> {
        let origin = *self.origin.get_or_insert(frame.t_end);
        self.frames += 1;
        if let Phase::Training { builder, duration } = &mut self.phase {
            if frame.t_end.saturating_sub(origin) < *duration {
                self.train_frames += 1;
                builder.push(frame);
                return Ok(());
            }
            // First frame past the boundary: enroll, freeze, switch to
            // detection, then treat this frame as the first detection
            // frame below.
            self.end_training(events)?;
        }

        let Phase::Detecting { db, windows } = &mut self.phase else {
            unreachable!("ingest is never called on a finished engine");
        };
        if let Some(sealed) = windows.push(frame) {
            let candidates = windows.drain_sealed();
            let window = SealedWindowArgs { db, cfg: &self.cfg, score_unknown: self.score_unknown };
            close_window(&window, &mut self.scratch, sealed, candidates, events);
            self.windows_closed += 1;
        }
        Ok(())
    }

    /// [`Engine::observe`] over a frame sequence, concatenating the
    /// events.
    ///
    /// # Errors
    ///
    /// The first per-frame error, wrapped in [`EngineError::Batch`] with
    /// the failing frame's position in the batch, so callers can resume
    /// after it or skip it. Events from frames already processed are
    /// lost, so prefer per-frame calls when partial results matter.
    pub fn observe_all<'a>(
        &mut self,
        frames: impl IntoIterator<Item = &'a CapturedFrame>,
    ) -> Result<Vec<Event>, EngineError> {
        let mut events = Vec::new();
        for (index, frame) in frames.into_iter().enumerate() {
            match self.observe(frame) {
                Ok(mut ev) => events.append(&mut ev),
                Err(source) => {
                    return Err(EngineError::Batch { index, source: Box::new(source) })
                }
            }
        }
        Ok(events)
    }

    /// Advances the engine's clock to wall-clock time `t` **without a
    /// frame** — the event-driven close for quiet channels. Windows
    /// normally seal when a *later frame* arrives; on a silent channel
    /// that later frame may never come, stalling the open window's
    /// decision indefinitely. `advance_to(t)` asserts that the capture
    /// clock has reached `t` (same clock domain as the frame timestamps)
    /// and emits exactly the events a frame at `t` would have triggered,
    /// minus the frame: the training phase ends when `t` passes its
    /// boundary, and an open detection window whose end lies at or
    /// before `t` seals and scores.
    ///
    /// A tick at or before the newest frame's timestamp is a no-op
    /// (monitor wall clocks may lag the capture path slightly); a tick
    /// *ahead* of the stream advances the monotonicity floor, so frames
    /// older than `t` are subsequently rejected as
    /// [`EngineError::NonMonotonicFrame`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] after [`Engine::finish`], or
    /// [`EngineError::Core`] from ending the training phase.
    pub fn advance_to(&mut self, t: Nanos) -> Result<Vec<Event>, EngineError> {
        if matches!(self.phase, Phase::Finished { .. }) {
            return Err(EngineError::Finished);
        }
        let mut events = Vec::new();
        if self.front.last_t().is_some_and(|last| t <= last) {
            return Ok(events);
        }
        // Under a reorder policy, buffered frames at or before `t` are
        // now inside the watermark: deliver them first so they land in
        // their proper windows, then raise the floor to `t`.
        for frame in self.front.release_until(t) {
            self.ingest(&frame, &mut events)?;
        }
        if let Phase::Training { duration, .. } = &self.phase {
            // The training boundary is anchored at the first frame; with
            // no frame yet there is nothing the clock can conclude.
            let Some(origin) = self.origin else { return Ok(events) };
            if t.saturating_sub(origin) < *duration {
                return Ok(events);
            }
            self.end_training(&mut events)?;
        }
        let Phase::Detecting { db, windows } = &mut self.phase else {
            unreachable!("advance_to handled Training and Finished above");
        };
        if let Some(sealed) = windows.advance_to(t) {
            let candidates = windows.drain_sealed();
            let window = SealedWindowArgs { db, cfg: &self.cfg, score_unknown: self.score_unknown };
            close_window(&window, &mut self.scratch, sealed, candidates, &mut events);
            self.windows_closed += 1;
        }
        Ok(events)
    }

    /// Forces a decision on the still-open detection window *now*:
    /// advances the clock to the window's own end (see
    /// [`Engine::advance_to`]), sealing and scoring it immediately. A
    /// no-op while training (the training boundary needs a wall-clock
    /// timestamp, which a bare tick does not carry) or when no window is
    /// open.
    ///
    /// # Errors
    ///
    /// [`EngineError::Finished`] after [`Engine::finish`].
    pub fn tick(&mut self) -> Result<Vec<Event>, EngineError> {
        if matches!(self.phase, Phase::Finished { .. }) {
            return Err(EngineError::Finished);
        }
        let end = match &self.phase {
            Phase::Detecting { windows, .. } => windows.current_end(),
            _ => None,
        };
        match end {
            Some(t) => self.advance_to(t),
            None => Ok(Vec::new()),
        }
    }

    /// Ends the session: seals the still-open trailing window (emitting
    /// its events), or — when the stream never outlived the training
    /// phase — ends training and emits the [`Event::Enrolled`] events,
    /// which makes a training-only run the *enrollment* entry point:
    /// finish, then take the database with [`Engine::into_reference`].
    ///
    /// Under a reorder policy, frames still pending in the buffer are
    /// delivered (in timestamp order) before the trailing window seals.
    ///
    /// Idempotent: a second call returns no events (there is nothing
    /// left to seal) rather than an error — only `observe`,
    /// `advance_to` and `tick` reject a finished session.
    ///
    /// # Errors
    ///
    /// [`EngineError::Core`] from ending the training phase.
    pub fn finish(&mut self) -> Result<Vec<Event>, EngineError> {
        let mut events = Vec::new();
        if matches!(self.phase, Phase::Finished { .. }) {
            return Ok(events);
        }
        for frame in self.front.drain() {
            self.ingest(&frame, &mut events)?;
        }
        if matches!(self.phase, Phase::Training { .. }) {
            self.end_training(&mut events)?;
        }
        let Phase::Detecting { db, windows } =
            std::mem::replace(&mut self.phase, Phase::Finished { db: None })
        else {
            unreachable!("finish handled Training and Finished above");
        };
        // Force-seal the trailing window. Like a mid-stream seal, it
        // emits its WindowClosed terminator even when no candidate
        // qualified — but only if a detection frame ever opened it.
        let trailing = windows.current_index();
        let candidates = windows.finish();
        if let Some(sealed) = trailing {
            let window = SealedWindowArgs { db: &db, cfg: &self.cfg, score_unknown: self.score_unknown };
            close_window(&window, &mut self.scratch, sealed, candidates, &mut events);
            self.windows_closed += 1;
        }
        self.phase = Phase::Finished { db: Some(db) };
        Ok(events)
    }

    /// The engine's lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> EnginePhase {
        match self.phase {
            Phase::Training { .. } => EnginePhase::Training,
            Phase::Detecting { .. } => EnginePhase::Detecting,
            Phase::Finished { .. } => EnginePhase::Finished,
        }
    }

    /// The evaluation configuration the engine runs.
    #[must_use]
    pub fn config(&self) -> &EvalConfig {
        &self.cfg
    }

    /// The (frozen) reference database, once one exists — `None` while
    /// still training or after a poisoned training transition.
    #[must_use]
    pub fn reference(&self) -> Option<&ReferenceDb> {
        match &self.phase {
            Phase::Training { .. } => None,
            Phase::Detecting { db, .. } => Some(db),
            Phase::Finished { db } => db.as_ref(),
        }
    }

    /// Consumes the engine, handing over the reference database (`None`
    /// while still training or after a poisoned training transition).
    #[must_use]
    pub fn into_reference(self) -> Option<ReferenceDb> {
        match self.phase {
            Phase::Training { .. } => None,
            Phase::Detecting { db, .. } => Some(db),
            Phase::Finished { db } => db,
        }
    }

    /// Frames delivered to the engine core so far (training +
    /// detection). Under a tolerant [`ResilienceConfig`] this excludes
    /// frames the ingest front dropped ([`Engine::health`]) and frames
    /// still pending in the reorder buffer.
    #[must_use]
    pub fn frames_observed(&self) -> u64 {
        self.frames
    }

    /// Frames that fell into the training phase.
    #[must_use]
    pub fn train_frames(&self) -> u64 {
        self.train_frames
    }

    /// Detection windows closed so far.
    #[must_use]
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Ingest-health counters: frames seen, deduplicated, gated as
    /// corrupt, dropped late, re-sequenced. With the default (strict)
    /// [`ResilienceConfig`] every counter except
    /// [`EngineHealth::frames_seen`] stays zero.
    #[must_use]
    pub fn health(&self) -> EngineHealth {
        self.front.health
    }

    /// The resilience configuration the engine runs.
    #[must_use]
    pub fn resilience(&self) -> &ResilienceConfig {
        self.front.config()
    }

    /// Frames admitted but still waiting in the reorder buffer (always 0
    /// outside [`LateFramePolicy::Reorder`]).
    #[must_use]
    pub fn pending_frames(&self) -> usize {
        self.front.pending_frames()
    }

    /// Training → detection: enroll the learned devices, freeze, emit
    /// [`Event::Enrolled`]s. An enrollment that qualified no device
    /// degrades to an empty (frozen) reference — the engine keeps
    /// running and flags everything as new — while other core failures
    /// poison the engine (phase becomes `Finished`) and propagate.
    fn end_training(&mut self, events: &mut Vec<Event>) -> Result<(), EngineError> {
        let Phase::Training { builder, .. } =
            std::mem::replace(&mut self.phase, Phase::Finished { db: None })
        else {
            unreachable!("end_training is only called while training");
        };
        let signatures = match builder.finish() {
            Ok(map) => map,
            Err(CoreError::NoQualifiedDevices { .. }) => BTreeMap::new(),
            Err(e) => return Err(e.into()),
        };
        // The online-trained reference uses the configured shard layout
        // (pre-learned references keep whatever layout they were built
        // with).
        let mut db = ReferenceDb::with_config(self.cfg.match_config);
        for (device, signature) in signatures {
            events.push(Event::Enrolled { device, observations: signature.observation_count() });
            db.insert(device, signature)?;
        }
        db.freeze();
        self.phase = Phase::Detecting { db, windows: WindowedSignatures::new(&self.cfg) };
        Ok(())
    }
}

/// The per-window context [`close_window`] needs from the engine.
struct SealedWindowArgs<'a> {
    db: &'a ReferenceDb,
    cfg: &'a EvalConfig,
    score_unknown: bool,
}

/// Matches one sealed window's candidates against the reference in
/// [`MATCH_TILE`]-wide tiles (each reference row is loaded once per
/// tile) and emits the per-candidate events plus the terminator. With
/// `score_unknown` off, strangers skip the sweep entirely and carry an
/// empty view.
fn close_window(
    args: &SealedWindowArgs<'_>,
    scratch: &mut MatchScratch,
    window: usize,
    candidates: Vec<CandidateWindow>,
    events: &mut Vec<Event>,
) {
    let SealedWindowArgs { db, cfg, score_unknown } = *args;
    let scored: Vec<bool> =
        candidates.iter().map(|c| score_unknown || db.contains(&c.device)).collect();
    let mut views = Vec::with_capacity(candidates.len());
    {
        // Tile only the candidates that need scoring, keeping the tiles
        // full even when strangers are interleaved with enrolled devices.
        let to_score: Vec<&Signature> = candidates
            .iter()
            .zip(&scored)
            .filter_map(|(c, &s)| s.then_some(&c.signature))
            .collect();
        let mut outcomes = Vec::with_capacity(to_score.len());
        for chunk in to_score.chunks(MATCH_TILE) {
            let tile = db.match_tile(chunk, cfg.measure, scratch);
            outcomes.extend(tile.views().map(|v| v.to_outcome()));
        }
        let mut outcomes = outcomes.into_iter();
        for &s in &scored {
            views.push(if s {
                outcomes.next().expect("one outcome per scored candidate")
            } else {
                MatchOutcome::empty()
            });
        }
    }
    let total = candidates.len();
    let mut known = 0usize;
    for (cand, view) in candidates.into_iter().zip(views) {
        if db.contains(&cand.device) {
            known += 1;
            events.push(Event::Match { window, device: cand.device, view });
        } else {
            events.push(Event::NewDevice {
                window,
                device: cand.device,
                signature: cand.signature,
                view,
            });
        }
    }
    events.push(Event::WindowClosed { window, candidates: total, known, unknown: total - known });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NetworkParameter;
    use crate::similarity::SimilarityMeasure;
    use wifiprint_ieee80211::{Frame, FrameKind, Rate};

    fn cfg(window_secs: u64, min_obs: u64) -> EvalConfig {
        let mut cfg = EvalConfig::for_parameter(NetworkParameter::FrameSize)
            .with_min_observations(min_obs);
        cfg.window = Nanos::from_secs(window_secs);
        cfg
    }

    fn frame(from: u64, t_us: u64, payload: usize) -> CapturedFrame {
        let sta = MacAddr::from_index(from);
        let ap = MacAddr::from_index(99);
        let f = Frame::data_to_ds(sta, ap, ap, payload);
        CapturedFrame::from_frame(&f, Rate::R24M, Nanos::from_micros(t_us), -55)
    }

    fn reference_db(cfg: &EvalConfig) -> ReferenceDb {
        let mut db = ReferenceDb::new();
        for (i, size) in [(1u64, 200.0), (2, 1200.0)] {
            let mut sig = Signature::new();
            for _ in 0..50 {
                sig.record(FrameKind::Data, size, cfg);
            }
            db.insert(MacAddr::from_index(i), sig).unwrap();
        }
        db
    }

    #[test]
    fn builder_rejects_incomplete_or_conflicting_setups() {
        assert!(matches!(Engine::builder().build(), Err(EngineError::MissingConfig)));
        assert!(matches!(
            Engine::builder().config(cfg(10, 1)).build(),
            Err(EngineError::MissingReference)
        ));
        let c = cfg(10, 1);
        assert!(matches!(
            Engine::builder()
                .config(c.clone())
                .reference(reference_db(&c))
                .train_for(Nanos::from_secs(5))
                .build(),
            Err(EngineError::ConflictingReference)
        ));
        assert!(matches!(
            Engine::builder().config(c.clone()).reference(ReferenceDb::new()).build(),
            Err(EngineError::Core(CoreError::EmptyDatabase))
        ));
        assert!(matches!(
            Engine::builder().config(c.clone()).train_for(Nanos::ZERO).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
        let mut zero_window = c;
        zero_window.window = Nanos::ZERO;
        assert!(matches!(
            Engine::builder().config(zero_window).train_for(Nanos::from_secs(5)).build(),
            Err(EngineError::Core(CoreError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn reference_mode_matches_per_window() {
        let c = cfg(1, 5);
        let mut engine =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert!(engine.reference().unwrap().is_frozen());

        // Device 1 sends its signature size in windows 0 and 1; a
        // stranger (device 7) appears in window 1.
        let mut events = Vec::new();
        for i in 0..10u64 {
            events.extend(engine.observe(&frame(1, 1_000 + i * 10_000, 176)).unwrap());
        }
        assert!(events.is_empty(), "window 0 still open");
        for i in 0..10u64 {
            events.extend(engine.observe(&frame(1, 1_000_000 + i * 10_000, 176)).unwrap());
            events.extend(engine.observe(&frame(7, 1_001_000 + i * 10_000, 176)).unwrap());
        }
        // Window 0 sealed: one Match (device 1) + terminator.
        assert_eq!(events.len(), 2);
        let Event::Match { window: 0, device, view } = &events[0] else {
            panic!("expected Match, got {:?}", events[0]);
        };
        assert_eq!(*device, MacAddr::from_index(1));
        assert_eq!(view.best().unwrap().0, MacAddr::from_index(1));
        assert!(matches!(
            events[1],
            Event::WindowClosed { window: 0, candidates: 1, known: 1, unknown: 0 }
        ));

        // finish() seals window 1 with both devices.
        let tail = engine.finish().unwrap();
        assert_eq!(engine.phase(), EnginePhase::Finished);
        assert_eq!(tail.len(), 3);
        assert!(matches!(&tail[0], Event::Match { window: 1, device, .. }
            if *device == MacAddr::from_index(1)));
        let Event::NewDevice { window: 1, device, signature, view } = &tail[1] else {
            panic!("expected NewDevice, got {:?}", tail[1]);
        };
        assert_eq!(*device, MacAddr::from_index(7));
        assert_eq!(signature.observation_count(), 10);
        // The stranger sent device 1's frame size, so it resembles
        // device 1 most.
        assert_eq!(view.best().unwrap().0, MacAddr::from_index(1));
        assert!(matches!(
            tail[2],
            Event::WindowClosed { window: 1, candidates: 2, known: 1, unknown: 1 }
        ));
        assert_eq!(engine.windows_closed(), 2);
    }

    #[test]
    fn training_transition_enrolls_freezes_and_detects() {
        let c = cfg(1, 5);
        let mut engine =
            Engine::builder().config(c).train_for(Nanos::from_secs(2)).build().unwrap();
        assert_eq!(engine.phase(), EnginePhase::Training);
        assert!(engine.reference().is_none());

        let mut events = Vec::new();
        // Two devices during training (2 s), then device 1 again.
        for i in 0..20u64 {
            events.extend(engine.observe(&frame(1, 1_000 + i * 50_000, 300)).unwrap());
            events.extend(engine.observe(&frame(2, 2_000 + i * 50_000, 900)).unwrap());
        }
        assert!(events.is_empty());
        assert_eq!(engine.phase(), EnginePhase::Training);

        // First frame past 2 s triggers enrollment (address order).
        let transition = engine.observe(&frame(1, 2_001_000, 300)).unwrap();
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert_eq!(transition.len(), 2);
        assert!(matches!(&transition[0], Event::Enrolled { device, observations }
            if *device == MacAddr::from_index(1) && *observations == 20));
        assert!(matches!(&transition[1], Event::Enrolled { device, .. }
            if *device == MacAddr::from_index(2)));
        assert!(engine.reference().unwrap().is_frozen());
        assert_eq!(engine.train_frames(), 40);

        // Detection: device 1 fills the first detection window.
        for i in 1..10u64 {
            let got = engine.observe(&frame(1, 2_001_000 + i * 20_000, 300)).unwrap();
            assert!(got.is_empty());
        }
        let tail = engine.finish().unwrap();
        assert!(matches!(&tail[0], Event::Match { window: 0, device, view }
            if *device == MacAddr::from_index(1)
                && view.best().unwrap().0 == MacAddr::from_index(1)));
    }

    #[test]
    fn empty_training_degrades_to_new_device_detection() {
        // Nobody reaches the 50-observation floor during training.
        let c = cfg(1, 50);
        let mut engine =
            Engine::builder().config(c).train_for(Nanos::from_secs(1)).build().unwrap();
        engine.observe(&frame(1, 0, 300)).unwrap();
        let transition = engine.observe(&frame(1, 1_000_100, 300)).unwrap();
        assert!(transition.is_empty(), "no Enrolled events");
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert!(engine.reference().unwrap().is_empty());

        // A chatty device in detection is flagged as new, with an empty
        // similarity view.
        for i in 1..60u64 {
            engine.observe(&frame(1, 1_000_100 + i * 10_000, 300)).unwrap();
        }
        let tail = engine.finish().unwrap();
        assert!(matches!(&tail[0], Event::NewDevice { device, view, .. }
            if *device == MacAddr::from_index(1) && view.best().is_none()));
    }

    #[test]
    fn training_only_session_is_the_enrollment_entry_point() {
        let c = cfg(10, 5);
        let mut engine =
            Engine::builder().config(c).train_for(Nanos::from_secs(3600)).build().unwrap();
        for i in 0..10u64 {
            engine.observe(&frame(4, 1_000 + i * 1_000, 500)).unwrap();
        }
        let events = engine.finish().unwrap();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], Event::Enrolled { device, observations: 10 }
            if *device == MacAddr::from_index(4)));
        let db = engine.into_reference().expect("reference after finish");
        assert!(db.is_frozen());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn score_unknown_off_skips_the_stranger_sweep_but_keeps_events() {
        let c = cfg(1, 3);
        let db = reference_db(&c);
        let frames: Vec<CapturedFrame> = (0..40u64)
            .map(|i| frame(i % 4 + 1, 1_000 + i * 20_000, 176)) // devices 1,2 enrolled; 3,4 strangers
            .collect();

        let run = |score: bool| {
            let mut engine = Engine::builder()
                .config(c.clone())
                .reference(db.snapshot())
                .score_unknown(score)
                .build()
                .unwrap();
            let mut events = engine.observe_all(&frames).unwrap();
            events.extend(engine.finish().unwrap());
            events
        };
        let rich = run(true);
        let lean = run(false);
        assert_eq!(rich.len(), lean.len(), "same event sequence either way");
        for (a, b) in rich.iter().zip(&lean) {
            match (a, b) {
                // Enrolled devices score identically.
                (
                    Event::Match { view: va, device: da, window: wa },
                    Event::Match { view: vb, device: db_, window: wb },
                ) => {
                    assert_eq!((da, wa), (db_, wb));
                    assert_eq!(va.similarities(), vb.similarities());
                }
                // Strangers keep their event but lose the (costly) view.
                (
                    Event::NewDevice { view: va, device: da, .. },
                    Event::NewDevice { view: vb, device: db_, .. },
                ) => {
                    assert_eq!(da, db_);
                    assert!(!va.similarities().is_empty());
                    assert!(vb.similarities().is_empty());
                }
                (Event::WindowClosed { .. }, Event::WindowClosed { .. }) => {}
                other => panic!("event sequences diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn finish_terminates_a_candidateless_trailing_window() {
        // A trailing window whose devices all miss the observation floor
        // still gets its WindowClosed terminator from finish(), exactly
        // as a mid-stream seal would have emitted it.
        let c = cfg(1, 5);
        let mut engine =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        for i in 0..3u64 {
            assert!(engine.observe(&frame(1, 1_000 + i * 10_000, 176)).unwrap().is_empty());
        }
        let tail = engine.finish().unwrap();
        assert_eq!(tail.len(), 1);
        assert!(matches!(
            tail[0],
            Event::WindowClosed { window: 0, candidates: 0, known: 0, unknown: 0 }
        ));
        assert_eq!(engine.windows_closed(), 1);

        // With no detection frame at all, there is no trailing window.
        let mut idle =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        assert!(idle.finish().unwrap().is_empty());
        assert_eq!(idle.windows_closed(), 0);
    }

    #[test]
    fn advance_to_closes_a_window_exactly_like_a_later_frame() {
        // Streaming == batch parity, extended to tick-driven closes: a
        // bare advance_to(t) must emit the same sealed-window events a
        // frame at t would have (minus the frame's own contribution).
        let c = cfg(1, 5);
        let db = reference_db(&c);
        let mut by_frame =
            Engine::builder().config(c.clone()).reference(db.snapshot()).build().unwrap();
        let mut by_tick =
            Engine::builder().config(c.clone()).reference(db.snapshot()).build().unwrap();
        for i in 0..10u64 {
            let f = frame(1, 1_000 + i * 10_000, 176);
            assert!(by_frame.observe(&f).unwrap().is_empty());
            assert!(by_tick.observe(&f).unwrap().is_empty());
        }
        let later = Nanos::from_micros(2_500_000);
        let frame_events = by_frame.observe(&frame(2, 2_500_000, 176)).unwrap();
        let tick_events = by_tick.advance_to(later).unwrap();
        assert_eq!(frame_events.len(), tick_events.len());
        for (a, b) in frame_events.iter().zip(&tick_events) {
            match (a, b) {
                (
                    Event::Match { window: wa, device: da, view: va },
                    Event::Match { window: wb, device: db_, view: vb },
                ) => {
                    assert_eq!((wa, da), (wb, db_));
                    assert_eq!(va.similarities(), vb.similarities());
                }
                (Event::WindowClosed { window: wa, .. }, Event::WindowClosed { window: wb, .. }) => {
                    assert_eq!(wa, wb);
                }
                other => panic!("tick-driven close diverged: {other:?}"),
            }
        }
        assert_eq!(by_tick.windows_closed(), 1);
        // The tick advanced the monotonicity floor...
        assert!(matches!(
            by_tick.observe(&frame(1, 2_000_000, 176)),
            Err(EngineError::NonMonotonicFrame { .. })
        ));
        // ...a repeat tick is a no-op, and finish() does not re-close
        // the already-sealed trailing window.
        assert!(by_tick.advance_to(later).unwrap().is_empty());
        assert!(by_tick.finish().unwrap().is_empty());
    }

    #[test]
    fn advance_to_ends_an_elapsed_training_phase() {
        let c = cfg(1, 5);
        let mut engine =
            Engine::builder().config(c).train_for(Nanos::from_secs(2)).build().unwrap();
        for i in 0..20u64 {
            engine.observe(&frame(1, 1_000 + i * 50_000, 300)).unwrap();
        }
        assert_eq!(engine.phase(), EnginePhase::Training);
        // Before the boundary: still training. After: enrollment fires
        // from the clock alone, with no frame needed.
        assert!(engine.advance_to(Nanos::from_millis(1_500)).unwrap().is_empty());
        assert_eq!(engine.phase(), EnginePhase::Training);
        let events = engine.advance_to(Nanos::from_secs(3)).unwrap();
        assert_eq!(engine.phase(), EnginePhase::Detecting);
        assert!(matches!(&events[0], Event::Enrolled { device, observations: 20 }
            if *device == MacAddr::from_index(1)));
    }

    #[test]
    fn tick_forces_the_pending_window_decision() {
        let c = cfg(1, 5);
        let mut engine =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        assert!(engine.tick().unwrap().is_empty(), "no open window yet");
        for i in 0..10u64 {
            engine.observe(&frame(1, 1_000 + i * 10_000, 176)).unwrap();
        }
        let events = engine.tick().unwrap();
        assert!(matches!(&events[0], Event::Match { window: 0, device, .. }
            if *device == MacAddr::from_index(1)));
        assert!(engine.tick().unwrap().is_empty(), "nothing further to seal");
        assert_eq!(engine.windows_closed(), 1);
    }

    #[test]
    fn finish_scores_the_trailing_partial_window() {
        // Regression (quiet-channel fix): frames in a window that never
        // saw a successor still produce their Match decision at
        // finish(), score and all.
        let c = cfg(1, 5);
        let db = reference_db(&c);
        let mut engine =
            Engine::builder().config(c.clone()).reference(db.snapshot()).build().unwrap();
        for i in 0..10u64 {
            assert!(engine.observe(&frame(1, 1_000 + i * 10_000, 176)).unwrap().is_empty());
        }
        let tail = engine.finish().unwrap();
        let Event::Match { window: 0, device, view } = &tail[0] else {
            panic!("expected a scored trailing-window Match, got {tail:?}");
        };
        assert_eq!(*device, MacAddr::from_index(1));
        assert_eq!(view.best().unwrap().0, MacAddr::from_index(1));
        assert!(matches!(
            tail[1],
            Event::WindowClosed { window: 0, candidates: 1, known: 1, unknown: 0 }
        ));
    }

    #[test]
    fn out_of_order_frames_are_rejected_without_corrupting_state() {
        let c = cfg(1, 1);
        let mut engine =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        engine.observe(&frame(1, 5_000, 176)).unwrap();
        let err = engine.observe(&frame(1, 4_000, 176)).unwrap_err();
        assert!(matches!(err, EngineError::NonMonotonicFrame { .. }));
        assert!(err.to_string().contains("capture order"));
        // The engine keeps running; in-order frames still work.
        engine.observe(&frame(1, 6_000, 176)).unwrap();
        assert_eq!(engine.frames_observed(), 2);
    }

    #[test]
    fn finished_engine_rejects_further_use() {
        let c = cfg(1, 1);
        let mut engine =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        engine.observe(&frame(1, 1_000, 176)).unwrap();
        let tail = engine.finish().unwrap();
        assert!(!tail.is_empty(), "first finish seals the trailing window");
        assert!(matches!(engine.observe(&frame(1, 2_000, 176)), Err(EngineError::Finished)));
        assert!(matches!(engine.advance_to(Nanos::from_secs(10)), Err(EngineError::Finished)));
        assert!(matches!(engine.tick(), Err(EngineError::Finished)));
        // finish() itself is idempotent: a second call has nothing left
        // to seal and returns no events (regression: it used to error).
        assert!(engine.finish().unwrap().is_empty());
        assert!(engine.finish().unwrap().is_empty());
        // The reference stays reachable after finish.
        assert!(engine.reference().is_some());
    }

    #[test]
    fn engine_decisions_equal_the_batch_sweep() {
        // The streaming path must produce exactly the batch path's
        // decisions: same windows, same candidates, same scores.
        let c = cfg(1, 3);
        let db = reference_db(&c);
        let frames: Vec<CapturedFrame> = (0..200u64)
            .map(|i| {
                let dev = i % 3 + 1; // devices 1, 2 and a stranger 3
                frame(dev, 10_000 + i * 17_000, 150 + 500 * dev as usize)
            })
            .collect();

        // Batch: windowed candidates, then one evaluate-style sweep.
        let mut windows = WindowedSignatures::new(&c);
        for f in &frames {
            windows.push(f);
        }
        let batch: Vec<CandidateWindow> = windows.finish();

        // Streaming: the engine, frame at a time.
        let mut engine =
            Engine::builder().config(c).reference(db.snapshot()).build().unwrap();
        let mut streamed = engine.observe_all(&frames).unwrap();
        streamed.append(&mut engine.finish().unwrap());

        let decisions: Vec<(usize, MacAddr, MatchOutcome)> = streamed
            .into_iter()
            .filter_map(|e| match e {
                Event::Match { window, device, view }
                | Event::NewDevice { window, device, view, .. } => Some((window, device, view)),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), batch.len());
        let mut scratch = MatchScratch::new();
        for (cand, (window, device, view)) in batch.iter().zip(&decisions) {
            assert_eq!(cand.index, *window);
            assert_eq!(cand.device, *device);
            let want =
                db.match_signature_with(&cand.signature, SimilarityMeasure::Cosine, &mut scratch);
            assert_eq!(view.similarities(), want.similarities());
        }
    }

    #[test]
    fn observe_all_reports_the_failing_frame_index() {
        let c = cfg(10, 1);
        let mut engine = Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        let frames = vec![frame(1, 5_000, 176), frame(1, 6_000, 176), frame(1, 4_000, 176)];
        let err = engine.observe_all(&frames).unwrap_err();
        let EngineError::Batch { index, source } = err else {
            panic!("expected a batch error, got {err:?}");
        };
        assert_eq!(index, 2);
        assert!(matches!(*source, EngineError::NonMonotonicFrame { .. }));
        // The two good frames were processed; the caller can skip past
        // the bad frame and resume the stream.
        assert_eq!(engine.frames_observed(), 2);
        engine.observe(&frame(1, 7_000, 176)).unwrap();
    }

    #[test]
    fn advance_to_exactly_on_the_window_boundary_seals_it() {
        let c = cfg(1, 1);
        let mut engine =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        for i in 0..5u64 {
            assert!(engine.observe(&frame(1, 1_000 + i * 10_000, 176)).unwrap().is_empty());
        }
        // The first window spans [1 ms, 1 ms + 1 s); its end boundary is
        // exclusive, so advancing exactly to it seals the window.
        let boundary = Nanos::from_micros(1_000) + Nanos::from_secs(1);
        let events = engine.advance_to(boundary).unwrap();
        assert!(
            matches!(events.last(), Some(Event::WindowClosed { window: 0, candidates: 1, .. })),
            "boundary tick seals window 0: {events:?}"
        );
        // A second advance to the very same t is a no-op — the window
        // cannot close twice.
        assert!(engine.advance_to(boundary).unwrap().is_empty());
        assert_eq!(engine.windows_closed(), 1);
        // A frame exactly at the boundary lands in the next window.
        assert!(engine.observe(&frame(1, 1_001_000, 176)).unwrap().is_empty());
        let tail = engine.finish().unwrap();
        assert!(matches!(tail.last(), Some(Event::WindowClosed { window: 1, .. })), "{tail:?}");
    }

    #[test]
    fn advance_inside_the_reorder_watermark_keeps_buffered_frames() {
        // A tick landing *inside* the reorder buffer's horizon flushes
        // only the frames at or before it; the rest stay pending and are
        // delivered (in order) by the final drain.
        let c = cfg(1, 1);
        let resilience = ResilienceConfig::default()
            .with_late_policy(LateFramePolicy::Reorder { max_lateness: 16 });
        let mut engine = Engine::builder()
            .config(c.clone())
            .reference(reference_db(&c))
            .resilience(resilience)
            .build()
            .unwrap();
        for t_us in [50_000u64, 10_000, 30_000, 70_000, 20_000] {
            assert!(engine.observe(&frame(1, t_us, 176)).unwrap().is_empty());
        }
        assert_eq!(engine.pending_frames(), 5);
        // Tick at 35 ms: flushes 10/20/30 ms, keeps 50/70 ms pending.
        assert!(engine.advance_to(Nanos::from_micros(35_000)).unwrap().is_empty());
        assert_eq!(engine.frames_observed(), 3);
        assert_eq!(engine.pending_frames(), 2);
        // A frame older than the raised watermark is now dropped late…
        assert!(engine.observe(&frame(1, 25_000, 176)).unwrap().is_empty());
        assert_eq!(engine.health().frames_late_dropped, 1);
        // …and the drain delivers the stragglers before the window seals.
        let tail = engine.finish().unwrap();
        assert_eq!(engine.frames_observed(), 5);
        assert_eq!(engine.pending_frames(), 0);
        assert!(
            matches!(tail.last(), Some(Event::WindowClosed { window: 0, candidates: 1, .. })),
            "{tail:?}"
        );
    }

    #[test]
    fn batch_error_names_the_frame_index_and_exposes_its_source() {
        let c = cfg(1, 1);
        let mut engine =
            Engine::builder().config(c.clone()).reference(reference_db(&c)).build().unwrap();
        // Frame #2 of the batch travels back in time; the strict default
        // policy rejects it as non-monotonic.
        let batch =
            [frame(1, 10_000, 176), frame(1, 20_000, 176), frame(1, 5_000, 176)];
        let err = engine.observe_all(&batch).unwrap_err();
        let EngineError::Batch { index, ref source } = err else {
            panic!("expected Batch, got {err:?}");
        };
        assert_eq!(index, 2);
        assert!(matches!(**source, EngineError::NonMonotonicFrame { .. }));
        // Display names the failing index and chains the inner message…
        let shown = err.to_string();
        assert!(shown.contains("frame #2"), "display: {shown}");
        assert!(shown.contains("capture order"), "display: {shown}");
        // …and std::error::Error::source() exposes the inner error for
        // error-chain walkers.
        let source = std::error::Error::source(&err).expect("batch has a source");
        assert!(source.to_string().contains("capture order"), "source: {source}");
    }
}
