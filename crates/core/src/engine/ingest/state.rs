//! Shared state of the bounded ingest ring, and the event sequencer.
//!
//! All queue state (the ring, the in-flight count, the sequence
//! counter, the closed flag and the parked-thread counts) lives behind
//! one mutex in [`RingState`]; the condition variables are the only
//! blocking primitive. Producers call [`RingState::push`] directly and
//! the consumer calls [`RingState::drain`]:
//!
//! * **Batch hand-off** — a drain takes *every* queued ticket in one
//!   lock acquisition by swapping the ring's `VecDeque` with the
//!   consumer's empty one, so the two buffers alternate and nothing is
//!   allocated in steady state.
//! * **Bounded in flight** — drained tickets stay counted against the
//!   capacity until the consumer comes back for its next batch, so the
//!   bound covers everything queued *plus* everything being processed.
//! * **Wake on demand** — the ring counts parked consumers and parked
//!   producers under its lock and signals a condition variable only
//!   when someone is parked on it; an uncontended push or drain makes
//!   no wake-up system call.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wifiprint_radiotap::CapturedFrame;

use super::OverloadPolicy;

/// One queued frame, tagged with its submission sequence number (the
/// sequencer's ordering key) and its enqueue instant (for latency
/// accounting).
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    /// Submission order, assigned under the ring lock — dense across
    /// all producers, with sheds leaving explicit gaps the sequencer is
    /// told about.
    pub seq: u64,
    /// The submitted frame.
    pub frame: CapturedFrame,
    /// When the frame entered the ring (queueing-latency anchor).
    pub enqueued: Instant,
}

impl Ticket {
    fn new(seq: u64, frame: &CapturedFrame) -> Self {
        Ticket { seq, frame: *frame, enqueued: Instant::now() }
    }
}

/// What [`RingState::push`] did with a submission.
#[derive(Debug)]
pub(crate) enum PushOutcome {
    /// The frame was enqueued.
    Enqueued,
    /// [`OverloadPolicy::ShedNewest`]: the ring was full and the
    /// submitted frame itself was shed; `seq` is its (never-enqueued)
    /// sequence number, which the caller must report to the sequencer
    /// as a gap.
    ShedNewest { seq: u64 },
    /// [`OverloadPolicy::ShedOldest`]: the submission was enqueued and
    /// the stalest *queued* ticket was shed to make room. When nothing
    /// is queued (the whole capacity is in flight) the submission itself
    /// is the stalest queued frame and `dropped` is its ticket.
    ShedOldest { dropped: Ticket },
    /// The channel is closed (the pipeline is finishing); nothing was
    /// enqueued.
    Closed,
}

/// What [`RingState::drain`] handed to the consumer.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum DrainOutcome {
    /// Every queued ticket was moved into the caller's buffer, oldest
    /// first.
    Batch,
    /// The ring stayed empty past the deadline — the stall-watchdog
    /// signal.
    TimedOut,
    /// The channel is closed *and* drained: no ticket will ever arrive
    /// again.
    Closed,
}

#[derive(Debug)]
struct Ring {
    queue: VecDeque<Ticket>,
    /// Drained tickets not yet returned by their consumer; they count
    /// against the capacity.
    in_flight: usize,
    next_seq: u64,
    /// Submissions accepted while open (enqueued or shed).
    submitted: u64,
    closed: bool,
    /// Consumers waiting on `not_empty`.
    parked_consumers: usize,
    /// `Block` producers waiting on `not_full`.
    parked_producers: usize,
}

impl Ring {
    fn occupancy(&self) -> usize {
        self.queue.len() + self.in_flight
    }

    /// The next sequence number, for an accepted submission.
    fn submit_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.submitted += 1;
        seq
    }
}

/// The bounded MPMC ring: a mutex-guarded queue with two condition
/// variables. Producers of any count share [`RingState::push`];
/// consumers share [`RingState::drain`], each returning the size of its
/// previous batch — the supervised pipeline runs one consumer today,
/// but nothing in the state assumes that.
#[derive(Debug)]
pub(crate) struct RingState {
    capacity: usize,
    overload: OverloadPolicy,
    ring: Mutex<Ring>,
    /// Signalled on enqueue (when a consumer is parked) and on close.
    not_empty: Condvar,
    /// Signalled when a drain returns capacity (when a producer is
    /// parked) and on close.
    not_full: Condvar,
}

impl RingState {
    pub(crate) fn new(capacity: usize, overload: OverloadPolicy) -> Self {
        RingState {
            capacity: capacity.max(1),
            overload,
            ring: Mutex::new(Ring {
                queue: VecDeque::new(),
                in_flight: 0,
                next_seq: 0,
                submitted: 0,
                closed: false,
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Submits one frame under the configured [`OverloadPolicy`].
    /// `Block` waits for room; the shed policies never wait.
    pub(crate) fn push(&self, frame: &CapturedFrame) -> PushOutcome {
        let mut ring = self.ring.lock().expect("ring lock");
        if ring.closed {
            return PushOutcome::Closed;
        }
        if ring.occupancy() >= self.capacity {
            match self.overload {
                OverloadPolicy::Block => {
                    while ring.occupancy() >= self.capacity && !ring.closed {
                        ring.parked_producers += 1;
                        ring = self.not_full.wait(ring).expect("ring lock");
                        ring.parked_producers -= 1;
                    }
                    if ring.closed {
                        return PushOutcome::Closed;
                    }
                }
                OverloadPolicy::ShedNewest => {
                    return PushOutcome::ShedNewest { seq: ring.submit_seq() };
                }
                OverloadPolicy::ShedOldest => {
                    let ticket = Ticket::new(ring.submit_seq(), frame);
                    let dropped = match ring.queue.pop_front() {
                        Some(oldest) => {
                            self.enqueue(&mut ring, ticket);
                            oldest
                        }
                        None => ticket,
                    };
                    return PushOutcome::ShedOldest { dropped };
                }
            }
        }
        let ticket = Ticket::new(ring.submit_seq(), frame);
        self.enqueue(&mut ring, ticket);
        PushOutcome::Enqueued
    }

    /// Queues `ticket`, waking a consumer only if one is parked.
    fn enqueue(&self, ring: &mut Ring, ticket: Ticket) {
        ring.queue.push_back(ticket);
        if ring.parked_consumers > 0 {
            self.not_empty.notify_one();
        }
    }

    /// The consumer's batch hand-off. `done` tickets of the caller's
    /// previous batch have been processed and return their capacity;
    /// then every queued ticket moves into `batch` (which must be
    /// empty), waiting up to `timeout` (forever when `None`) for one to
    /// arrive. A `TimedOut` return means the ring stayed empty for the
    /// whole deadline — the watchdog's cue to force a window decision.
    pub(crate) fn drain(
        &self,
        done: usize,
        batch: &mut VecDeque<Ticket>,
        timeout: Option<Duration>,
    ) -> DrainOutcome {
        debug_assert!(batch.is_empty(), "drain into a batch that is still being processed");
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut ring = self.ring.lock().expect("ring lock");
        ring.in_flight -= done;
        if done > 0 && ring.parked_producers > 0 {
            self.not_full.notify_all();
        }
        loop {
            if !ring.queue.is_empty() {
                std::mem::swap(&mut ring.queue, batch);
                ring.in_flight += batch.len();
                return DrainOutcome::Batch;
            }
            if ring.closed {
                return DrainOutcome::Closed;
            }
            ring.parked_consumers += 1;
            match deadline {
                None => ring = self.not_empty.wait(ring).expect("ring lock"),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        ring.parked_consumers -= 1;
                        return DrainOutcome::TimedOut;
                    }
                    ring = self.not_empty.wait_timeout(ring, remaining).expect("ring lock").0;
                }
            }
            ring.parked_consumers -= 1;
        }
    }

    /// Allocates a fresh sequence number for a non-frame emission (a
    /// watchdog tick or the final `finish` batch), so those events slot
    /// into the sequencer's total order after everything already
    /// submitted.
    pub(crate) fn alloc_seq(&self) -> u64 {
        let mut ring = self.ring.lock().expect("ring lock");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        seq
    }

    /// Closes the channel: producers fail fast, blocked producers wake
    /// with [`PushOutcome::Closed`], and consumers drain the remainder
    /// then see [`DrainOutcome::Closed`].
    pub(crate) fn close(&self) {
        let mut ring = self.ring.lock().expect("ring lock");
        ring.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Submissions accepted so far, and the ring's occupancy: tickets
    /// queued plus tickets drained but not yet returned.
    pub(crate) fn counts(&self) -> (u64, usize) {
        let ring = self.ring.lock().expect("ring lock");
        (ring.submitted, ring.occupancy())
    }
}

/// Reassembles per-ticket event batches into submission order.
///
/// Workers insert each processed ticket's events under its sequence
/// number; sheds and quarantines close their sequence numbers as gaps,
/// and tickets that produced no events are advanced past in bulk.
/// Events release strictly in ascending sequence order, buffering
/// out-of-order insertions until the gap fills — with today's single
/// supervised worker insertions already arrive in order and the
/// sequencer is pass-through, but a future per-shard worker pool
/// delivers through the same component unchanged.
#[derive(Debug)]
pub struct EventSequencer<T> {
    next: u64,
    /// Out-of-order batches (`None` marks a closed gap).
    pending: BTreeMap<u64, Option<Vec<T>>>,
    ready: VecDeque<T>,
}

impl<T> Default for EventSequencer<T> {
    fn default() -> Self {
        EventSequencer { next: 0, pending: BTreeMap::new(), ready: VecDeque::new() }
    }
}

impl<T> EventSequencer<T> {
    /// A sequencer expecting sequence numbers from 0.
    #[must_use]
    pub fn new() -> Self {
        EventSequencer::default()
    }

    /// Inserts the event batch of sequence number `seq`; releases it —
    /// and everything contiguously after it — once every earlier
    /// sequence number has been inserted or closed.
    pub fn insert(&mut self, seq: u64, events: Vec<T>) {
        if seq == self.next {
            self.ready.extend(events);
            self.next += 1;
            self.flush();
        } else if seq > self.next {
            self.pending.insert(seq, Some(events));
        }
        // seq < next: a duplicate of an already-released batch; ignore.
    }

    /// Marks `seq` as never coming (the ticket was shed or its frame
    /// quarantined), so later sequence numbers can release past it.
    pub fn close_gap(&mut self, seq: u64) {
        if seq == self.next {
            self.next += 1;
            self.flush();
        } else if seq > self.next {
            self.pending.insert(seq, None);
        }
    }

    /// Advances past every sequence number in `seqs`, each a processed
    /// ticket that produced no events — the deferred, once-per-batch
    /// form of inserting an empty batch for each.
    pub fn advance_empty(&mut self, seqs: impl IntoIterator<Item = u64>) {
        for seq in seqs {
            self.close_gap(seq);
        }
    }

    fn flush(&mut self) {
        while let Some(entry) = self.pending.remove(&self.next) {
            if let Some(events) = entry {
                self.ready.extend(events);
            }
            self.next += 1;
        }
    }

    /// Takes every event released so far, in submission order.
    pub fn drain_ready(&mut self) -> Vec<T> {
        self.ready.drain(..).collect()
    }

    /// Event batches still buffered behind a gap.
    #[must_use]
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wifiprint_ieee80211::{FrameKind, MacAddr, Nanos, Rate};

    fn frame(t_us: u64) -> CapturedFrame {
        CapturedFrame {
            t_end: Nanos::from_micros(t_us),
            air_time: Nanos::from_micros(100),
            rate: Rate::R24M,
            size: 200,
            kind: FrameKind::Data,
            transmitter: Some(MacAddr::from_index(1)),
            receiver: MacAddr::from_index(2),
            dest_group: false,
            retry: false,
            signal_dbm: -55,
        }
    }

    fn seqs(batch: &VecDeque<Ticket>) -> Vec<u64> {
        batch.iter().map(|t| t.seq).collect()
    }

    /// How long a test waits on another thread before failing: a lost
    /// wake-up fails a deadline instead of hanging the suite.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Spins until `parked(ring)` reaches 1 — a state observation, not a
    /// timed wait.
    fn await_parked(ring: &RingState, parked: fn(&Ring) -> usize) {
        let deadline = Instant::now() + PATIENCE;
        while parked(&ring.ring.lock().expect("ring lock")) == 0 {
            assert!(Instant::now() < deadline, "no thread parked on the ring");
            std::thread::yield_now();
        }
    }

    #[test]
    fn drain_returns_every_queued_ticket_in_fifo_order() {
        let ring = RingState::new(8, OverloadPolicy::Block);
        for t in 0..5 {
            assert!(matches!(ring.push(&frame(t)), PushOutcome::Enqueued));
        }
        let mut batch = VecDeque::new();
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        assert_eq!(seqs(&batch), vec![0, 1, 2, 3, 4]);
        let times: Vec<_> = batch.iter().map(|t| t.frame.t_end).collect();
        assert_eq!(times, (0..5).map(Nanos::from_micros).collect::<Vec<_>>());
        assert_eq!(ring.counts(), (5, 5), "drained tickets stay in flight");
        // The buffers alternate: the next batch continues the dense run.
        batch.clear();
        ring.push(&frame(5));
        ring.push(&frame(6));
        assert_eq!(ring.drain(5, &mut batch, None), DrainOutcome::Batch);
        assert_eq!(seqs(&batch), vec![5, 6]);
        assert_eq!(ring.counts(), (7, 2));
    }

    #[test]
    fn shed_newest_drops_the_submission_itself() {
        let ring = RingState::new(2, OverloadPolicy::ShedNewest);
        assert!(matches!(ring.push(&frame(1)), PushOutcome::Enqueued));
        assert!(matches!(ring.push(&frame(2)), PushOutcome::Enqueued));
        assert!(matches!(ring.push(&frame(3)), PushOutcome::ShedNewest { seq: 2 }));
        assert_eq!(ring.counts(), (3, 2));
        // The queue still holds the two oldest frames.
        let mut batch = VecDeque::new();
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        assert_eq!(seqs(&batch), vec![0, 1]);
        assert_eq!(batch[0].frame.t_end, Nanos::from_micros(1));
    }

    #[test]
    fn in_flight_tickets_hold_capacity_until_the_next_drain() {
        let ring = RingState::new(2, OverloadPolicy::ShedNewest);
        ring.push(&frame(1));
        ring.push(&frame(2));
        let mut batch = VecDeque::new();
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        // The queue is empty but both tickets are still being processed.
        assert!(matches!(ring.push(&frame(3)), PushOutcome::ShedNewest { seq: 2 }));
        batch.clear();
        // Coming back for the next batch returns the room: nothing is
        // queued, so the drain times out, but the ring accepts again.
        assert_eq!(
            ring.drain(2, &mut batch, Some(Duration::ZERO)),
            DrainOutcome::TimedOut
        );
        assert_eq!(ring.counts(), (3, 0));
        assert!(matches!(ring.push(&frame(4)), PushOutcome::Enqueued));
        assert!(matches!(ring.push(&frame(5)), PushOutcome::Enqueued));
        assert!(matches!(ring.push(&frame(6)), PushOutcome::ShedNewest { seq: 5 }));
    }

    #[test]
    fn shed_oldest_makes_room_for_the_newest() {
        let ring = RingState::new(2, OverloadPolicy::ShedOldest);
        ring.push(&frame(1));
        ring.push(&frame(2));
        let PushOutcome::ShedOldest { dropped } = ring.push(&frame(3)) else {
            panic!("expected ShedOldest");
        };
        assert_eq!(dropped.seq, 0);
        assert_eq!(dropped.frame.t_end, Nanos::from_micros(1));
        let mut batch = VecDeque::new();
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        assert_eq!(seqs(&batch), vec![1, 2], "the second-oldest survives");
    }

    #[test]
    fn shed_oldest_sheds_the_submission_when_the_capacity_is_in_flight() {
        let ring = RingState::new(2, OverloadPolicy::ShedOldest);
        ring.push(&frame(1));
        ring.push(&frame(2));
        let mut batch = VecDeque::new();
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        let PushOutcome::ShedOldest { dropped } = ring.push(&frame(3)) else {
            panic!("expected ShedOldest");
        };
        assert_eq!(dropped.seq, 2, "nothing queued: the submission is shed");
        assert_eq!(dropped.frame.t_end, Nanos::from_micros(3));
        assert_eq!(ring.counts(), (3, 2), "the in-flight batch is untouched");
        assert_eq!(seqs(&batch), vec![0, 1]);
    }

    #[test]
    fn close_wakes_consumers_and_fails_producers() {
        let ring = RingState::new(4, OverloadPolicy::Block);
        ring.push(&frame(1));
        ring.close();
        assert!(matches!(ring.push(&frame(2)), PushOutcome::Closed));
        // The queued ticket still drains before Closed.
        let mut batch = VecDeque::new();
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        batch.clear();
        assert_eq!(ring.drain(1, &mut batch, None), DrainOutcome::Closed);
    }

    #[test]
    fn empty_ring_times_out_for_the_watchdog() {
        let ring = RingState::new(4, OverloadPolicy::Block);
        let mut batch = VecDeque::new();
        assert_eq!(
            ring.drain(0, &mut batch, Some(Duration::from_millis(5))),
            DrainOutcome::TimedOut
        );
    }

    #[test]
    fn blocked_producer_resumes_when_a_consumer_makes_room() {
        let ring = Arc::new(RingState::new(1, OverloadPolicy::Block));
        let mut batch = VecDeque::new();
        // Full by a queued ticket: a drain moves it out, but it stays in
        // flight, so the parked producer must wait for the next drain.
        ring.push(&frame(1));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(&frame(2)))
        };
        await_parked(&ring, |r| r.parked_producers);
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        assert_eq!(seqs(&batch), vec![0]);
        batch.clear();
        // Coming back for the next batch returns the room and wakes the
        // producer; its ticket is what this drain waits for.
        assert_eq!(ring.drain(1, &mut batch, Some(PATIENCE)), DrainOutcome::Batch);
        assert!(matches!(producer.join().expect("producer"), PushOutcome::Enqueued));
        assert_eq!(seqs(&batch), vec![1]);

        // Full by the in-flight batch alone, with nothing queued.
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(&frame(3)))
        };
        await_parked(&ring, |r| r.parked_producers);
        assert_eq!(ring.counts(), (2, 1));
        batch.clear();
        assert_eq!(ring.drain(1, &mut batch, Some(PATIENCE)), DrainOutcome::Batch);
        assert!(matches!(producer.join().expect("producer"), PushOutcome::Enqueued));
        assert_eq!(seqs(&batch), vec![2]);
    }

    #[test]
    fn parked_consumer_wakes_on_the_next_push() {
        let ring = Arc::new(RingState::new(4, OverloadPolicy::Block));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut batch = VecDeque::new();
                let started = Instant::now();
                let outcome = ring.drain(0, &mut batch, Some(PATIENCE));
                (outcome, seqs(&batch), started.elapsed())
            })
        };
        await_parked(&ring, |r| r.parked_consumers);
        ring.push(&frame(1));
        let (outcome, got, waited) = consumer.join().expect("consumer");
        assert_eq!((outcome, got), (DrainOutcome::Batch, vec![0]));
        assert!(waited < PATIENCE, "woken by its deadline, not by the push");
    }

    #[test]
    fn two_producers_interleave_with_dense_sequence_numbers() {
        let ring = Arc::new(RingState::new(64, OverloadPolicy::Block));
        let other = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for t in 0..10u64 {
                    ring.push(&frame(t));
                }
            })
        };
        for t in 10..20u64 {
            ring.push(&frame(t));
        }
        other.join().expect("producer");
        let mut batch = VecDeque::new();
        assert_eq!(ring.drain(0, &mut batch, None), DrainOutcome::Batch);
        assert_eq!(seqs(&batch), (0..20u64).collect::<Vec<_>>());
        // Each producer's own frames keep their submission order.
        for range in [0..10u64, 10..20] {
            let times: Vec<_> = batch
                .iter()
                .map(|t| t.frame.t_end.as_nanos() / 1000)
                .filter(|t| range.contains(t))
                .collect();
            assert_eq!(times, range.collect::<Vec<_>>());
        }
    }

    #[test]
    fn sequencer_releases_in_order_across_out_of_order_inserts() {
        let mut seq = EventSequencer::new();
        seq.insert(2, vec!["c"]);
        seq.insert(0, vec!["a1", "a2"]);
        assert_eq!(seq.drain_ready(), vec!["a1", "a2"]);
        assert_eq!(seq.pending_batches(), 1, "batch 2 waits for 1");
        seq.insert(1, vec!["b"]);
        assert_eq!(seq.drain_ready(), vec!["b", "c"]);
    }

    #[test]
    fn sequencer_gaps_release_what_they_were_blocking() {
        let mut seq = EventSequencer::new();
        seq.insert(1, vec!["b"]);
        seq.insert(3, vec!["d"]);
        assert!(seq.drain_ready().is_empty());
        seq.close_gap(0); // shed ticket 0
        assert_eq!(seq.drain_ready(), vec!["b"]);
        seq.close_gap(2); // quarantined ticket 2
        assert_eq!(seq.drain_ready(), vec!["d"]);
        assert_eq!(seq.pending_batches(), 0);

        // A worker batch of tickets 4..=9 in which ticket 6 was shed
        // (`ShedNewest`, closed by its producer) and only ticket 8 had
        // events: the empty tickets before 8 are advanced just before
        // 8's insert, the rest once at the end of the batch.
        seq.advance_empty([4, 5, 7]);
        seq.insert(8, vec!["i"]);
        assert!(seq.drain_ready().is_empty(), "8 waits behind the open gap at 6");
        seq.close_gap(6);
        assert_eq!(seq.drain_ready(), vec!["i"]);
        seq.insert(10, vec!["k"]);
        seq.advance_empty([9]);
        assert_eq!(seq.drain_ready(), vec!["k"]);
        assert_eq!(seq.pending_batches(), 0);
    }

    #[test]
    fn sequencer_ignores_duplicate_and_stale_batches() {
        let mut seq = EventSequencer::new();
        seq.insert(0, vec!["a"]);
        seq.insert(0, vec!["stale"]);
        seq.close_gap(0);
        seq.insert(1, vec!["b"]);
        assert_eq!(seq.drain_ready(), vec!["a", "b"]);
    }
}
