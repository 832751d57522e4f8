//! Generic event loop.
//!
//! The application chooses an event payload type `E` and implements
//! [`Handler<E>`]. Events scheduled for the same instant are delivered in
//! scheduling order (a monotone sequence number breaks ties), which the
//! feedback-control experiments rely on for reproducibility.
//!
//! The queue is a hierarchical timing wheel ([`crate::wheel`]) with an
//! allocation-free O(1) near-future path; its unit tests check it against
//! a binary-heap reference for identical (time, scheduling-sequence)
//! delivery.

use crate::time::{SimDuration, SimTime};
use crate::wheel::{TimingWheel, WHEEL_LEVELS};

/// Consumes events and schedules follow-up events.
pub trait Handler<E> {
    /// Handles one event occurring at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: E, sched: &mut Scheduler<E>);
}

/// How the event loop executes events: one at a time, in (time, seq) order.
// Kept only because `benchmark/src/workloads.rs` (frozen) names
// `ExecMode::Sequential`; remove with that call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One event at a time, in (time, seq) order.
    #[default]
    Sequential,
}

/// Engine construction parameters (currently none).
// Kept only because `benchmark/src/shadow.rs` (frozen) calls
// `Engine::with_params(config.sim)`; remove with that call site.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimParams {}

/// Counters describing scheduler work, for observability surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Total events ever pushed.
    pub pushes: u64,
    /// High-water mark of pending events.
    pub peak_pending: u64,
    /// Wheel entries re-linked by cascades / overflow re-bucketing.
    pub cascaded: u64,
    /// Pushes that landed on each wheel level; the final entry counts the
    /// overflow chain.
    pub level_pushes: [u64; WHEEL_LEVELS + 1],
}

/// The scheduling half of the engine, passed to [`Handler::handle`] so
/// handlers can enqueue follow-up events while the queue is being drained.
pub struct Scheduler<E> {
    // Boxed: the wheel's inline slot/occupancy arrays are ~4 KB, too much
    // to carry inline in every Scheduler/Engine move.
    wheel: Box<TimingWheel<E>>,
    next_seq: u64,
    now: SimTime,
    pushes: u64,
    peak_pending: u64,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            wheel: Box::new(TimingWheel::new()),
            next_seq: 0,
            now: SimTime::ZERO,
            pushes: 0,
            peak_pending: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at`. `at` must not precede
    /// the current time.
    pub fn at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(at.as_nanos(), seq, event);
        self.pushes += 1;
        self.peak_pending = self.peak_pending.max(self.pending() as u64);
    }

    /// Schedules `event` `delay` after the current time. The instant
    /// saturates at [`SimTime::MAX`] rather than overflowing, so horizons
    /// near the end of representable time stay well-defined.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.at(self.now.saturating_add(delay), event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Scheduler work counters (see [`SchedStats`]).
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            pushes: self.pushes,
            peak_pending: self.peak_pending,
            cascaded: self.wheel.cascaded(),
            level_pushes: *self.wheel.level_pushes(),
        }
    }

    /// Removes the earliest pending event if its time is ≤ `limit`, and
    /// advances `now` to it. Never advances `now` past `limit`.
    fn pop_next_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let popped = self.wheel.pop_next_before(limit.as_nanos());
        if let Some((t, _)) = &popped {
            debug_assert!(*t >= self.now, "time went backwards");
            self.now = *t;
        }
        popped
    }
}

/// The event loop: owns the scheduler and drives a [`Handler`].
pub struct Engine<E> {
    sched: Scheduler<E>,
    delivered: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at t = 0.
    pub fn new() -> Self {
        Engine {
            sched: Scheduler::new(),
            delivered: 0,
        }
    }

    // Kept only because `benchmark/src/shadow.rs` (frozen) calls it;
    // remove with that call site.
    #[doc(hidden)]
    pub fn with_params(_params: SimParams) -> Self {
        Self::new()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Access the scheduler to seed initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<E> {
        &mut self.sched
    }

    /// Scheduler work counters (see [`SchedStats`]).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Runs until the queue is empty or the next event would occur after
    /// `horizon`. Events exactly at the horizon are delivered. Returns the
    /// number of events delivered by this call.
    pub fn run_until<H: Handler<E>>(&mut self, horizon: SimTime, handler: &mut H) -> u64 {
        let mut n = 0;
        while let Some((time, event)) = self.sched.pop_next_before(horizon) {
            handler.handle(time, event, &mut self.sched);
            n += 1;
        }
        self.delivered += n;
        // Advance the clock to the horizon even if the queue drained early,
        // so repeated run_until calls form contiguous observation intervals.
        if self.sched.now < horizon && horizon != SimTime::MAX {
            self.sched.now = horizon;
        }
        n
    }

    /// Delivers at most `max` events regardless of their times. Returns the
    /// number delivered (less than `max` only if the queue drained). Used by
    /// benchmarks and drivers that meter by event count rather than time.
    pub fn run_events<H: Handler<E>>(&mut self, max: u64, handler: &mut H) -> u64 {
        let mut n = 0;
        while n < max {
            match self.sched.pop_next_before(SimTime::MAX) {
                Some((time, event)) => {
                    handler.handle(time, event, &mut self.sched);
                    n += 1;
                }
                None => break,
            }
        }
        self.delivered += n;
        n
    }

    /// Runs until the queue is empty.
    pub fn run_to_completion<H: Handler<E>>(&mut self, handler: &mut H) -> u64 {
        self.run_until(SimTime::MAX, handler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Chain(u32),
    }

    struct Recorder {
        seen: Vec<(u64, Ev)>,
    }

    impl Handler<Ev> for Recorder {
        fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
            if let Ev::Chain(n) = event {
                if n > 0 {
                    sched.after(SimDuration::from_nanos(10), Ev::Chain(n - 1));
                }
            }
            self.seen.push((now.as_nanos(), event));
        }
    }

    #[test]
    fn delivers_in_time_order_with_fifo_ties() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.scheduler().at(SimTime::from_nanos(20), Ev::Tick(1));
        eng.scheduler().at(SimTime::from_nanos(10), Ev::Tick(2));
        eng.scheduler().at(SimTime::from_nanos(20), Ev::Tick(3));
        let mut rec = Recorder { seen: vec![] };
        let n = eng.run_to_completion(&mut rec);
        assert_eq!(n, 3);
        assert_eq!(
            rec.seen,
            vec![
                (10, Ev::Tick(2)),
                (20, Ev::Tick(1)),
                (20, Ev::Tick(3)), // same instant: scheduling order preserved
            ],
        );
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.scheduler().at(SimTime::ZERO, Ev::Chain(3));
        let mut rec = Recorder { seen: vec![] };
        eng.run_to_completion(&mut rec);
        assert_eq!(rec.seen.len(), 4);
        assert_eq!(eng.now().as_nanos(), 30);
    }

    #[test]
    fn run_until_respects_horizon_and_advances_clock() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.scheduler().at(SimTime::from_nanos(5), Ev::Tick(1));
        eng.scheduler().at(SimTime::from_nanos(50), Ev::Tick(2));
        let mut rec = Recorder { seen: vec![] };
        let n = eng.run_until(SimTime::from_nanos(10), &mut rec);
        assert_eq!(n, 1);
        assert_eq!(eng.now(), SimTime::from_nanos(10));
        let n = eng.run_until(SimTime::from_nanos(60), &mut rec);
        assert_eq!(n, 1);
        assert_eq!(rec.seen.len(), 2);
    }

    #[test]
    fn events_scheduled_between_horizons_are_honored() {
        // A failed probe at one horizon must not corrupt delivery of events
        // scheduled just past it afterwards (wheel position must not run
        // ahead of the clock).
        let mut eng: Engine<Ev> = Engine::new();
        eng.scheduler()
            .at(SimTime::from_nanos(1_000_000), Ev::Tick(1));
        let mut rec = Recorder { seen: vec![] };
        assert_eq!(eng.run_until(SimTime::from_nanos(100), &mut rec), 0);
        eng.scheduler().at(SimTime::from_nanos(150), Ev::Tick(2));
        eng.run_to_completion(&mut rec);
        assert_eq!(rec.seen, vec![(150, Ev::Tick(2)), (1_000_000, Ev::Tick(1))]);
    }

    #[test]
    fn far_future_events_cross_wheel_rollover() {
        let mut eng: Engine<Ev> = Engine::new();
        let span = 1u64 << 48; // wheel coverage; forces overflow + rollover
        eng.scheduler().at(SimTime::from_nanos(7), Ev::Tick(0));
        eng.scheduler()
            .at(SimTime::from_nanos(span + 3), Ev::Tick(1));
        eng.scheduler()
            .at(SimTime::from_nanos(3 * span), Ev::Tick(2));
        let mut rec = Recorder { seen: vec![] };
        assert_eq!(eng.run_to_completion(&mut rec), 3);
        assert_eq!(
            rec.seen,
            vec![
                (7, Ev::Tick(0)),
                (span + 3, Ev::Tick(1)),
                (3 * span, Ev::Tick(2)),
            ]
        );
    }

    #[test]
    fn after_saturates_near_simtime_max() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.scheduler()
            .at(SimTime::from_nanos(u64::MAX - 5), Ev::Tick(0));
        struct Saturator {
            fired: u64,
        }
        impl Handler<Ev> for Saturator {
            fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
                self.fired += 1;
                if let Ev::Tick(0) = event {
                    // now + 100 would overflow u64; must clamp to MAX.
                    sched.after(SimDuration::from_nanos(100), Ev::Tick(1));
                    assert_eq!(now.as_nanos(), u64::MAX - 5);
                } else {
                    assert_eq!(now, SimTime::MAX);
                }
            }
        }
        let mut h = Saturator { fired: 0 };
        eng.run_to_completion(&mut h);
        assert_eq!(h.fired, 2);
    }

    #[test]
    fn stats_track_pushes_peak_and_cascades() {
        let mut eng: Engine<Ev> = Engine::new();
        for i in 0..100u64 {
            eng.scheduler()
                .at(SimTime::from_nanos(i * 1000), Ev::Tick(i as u32));
        }
        let mut rec = Recorder { seen: vec![] };
        eng.run_to_completion(&mut rec);
        let stats = eng.sched_stats();
        assert_eq!(stats.pushes, 100);
        assert_eq!(stats.peak_pending, 100);
        assert!(stats.cascaded > 0, "1000ns spacing spans level 1+");
        assert_eq!(stats.level_pushes.iter().sum::<u64>(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.scheduler().at(SimTime::from_nanos(10), Ev::Tick(1));
        struct Bad;
        impl Handler<Ev> for Bad {
            fn handle(&mut self, _: SimTime, _: Ev, sched: &mut Scheduler<Ev>) {
                sched.at(SimTime::ZERO, Ev::Tick(9));
            }
        }
        eng.run_to_completion(&mut Bad);
    }
}
