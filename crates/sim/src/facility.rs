//! FCFS single-server facilities.
//!
//! A [`Facility`] models one serially-used resource — a disk arm, a node CPU,
//! or the shared LAN medium of the ICDE'99 setup. Callers *reserve* a service
//! span and get back the completion instant; the facility keeps track of when
//! it next becomes free and of cumulative busy time, from which utilization
//! and queueing delay statistics fall out.
//!
//! This "reservation" style fits an event-driven simulator without callbacks:
//! the handler computes the completion time up front and schedules the
//! completion event itself.

use crate::time::{SimDuration, SimTime};
use dmm_obs::{Histogram, WaitCounts};

/// A first-come-first-served, non-preemptive single resource.
#[derive(Debug, Clone)]
pub struct Facility {
    name: &'static str,
    free_at: SimTime,
    /// Start of the statistics window: 0, or the last
    /// [`reset_stats`](Self::reset_stats) instant.
    window_start: SimTime,
    busy: SimDuration,
    /// Queue waits of the jobs reserved in the window; also the job count
    /// and the total wait.
    waits: WaitCounts,
}

impl Facility {
    /// Creates an idle facility.
    pub fn new(name: &'static str) -> Self {
        Facility {
            name,
            free_at: SimTime::ZERO,
            window_start: SimTime::ZERO,
            busy: SimDuration::ZERO,
            // Nanosecond queue waits: 1 µs first edge, doubling through ~1 s.
            waits: WaitCounts::new(),
        }
    }

    /// The facility's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserves the facility at `now` for `service` time, queueing FCFS
    /// behind any in-flight reservation. Returns the completion instant.
    #[inline]
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        self.reserve_split(now, service).0
    }

    /// Like [`reserve`](Self::reserve), but also returns the FCFS queue
    /// wait, so callers attributing latency can split queueing from
    /// service without re-deriving the facility's internal arithmetic.
    #[inline]
    pub fn reserve_split(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimDuration) {
        let start = self.free_at.max(now);
        let done = start + service;
        let wait = start.since(now);
        self.waits.record(wait.as_nanos());
        self.free_at = done;
        self.busy += service;
        (done, wait)
    }

    /// Instant at which the facility next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Number of jobs served (including queued, in-flight ones).
    pub fn jobs(&self) -> u64 {
        self.waits.count()
    }

    /// Cumulative service (busy) time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Cumulative time jobs spent waiting before service began.
    pub fn total_wait(&self) -> SimDuration {
        SimDuration::from_nanos(self.waits.total())
    }

    /// Mean wait per job in milliseconds (0 if no jobs).
    pub fn mean_wait_ms(&self) -> f64 {
        match self.jobs() {
            0 => 0.0,
            jobs => self.total_wait().as_millis_f64() / jobs as f64,
        }
    }

    /// Utilization over the statistics window `[start, now]`, where `start`
    /// is 0 or the last [`reset_stats`](Self::reset_stats) instant: the
    /// fraction of the window spent busy. Busy time already committed past
    /// `now` counts as if it had occurred, so the value can transiently
    /// exceed 1 only when the queue is backed up beyond `now`; callers
    /// measuring at quiesce points see a true fraction.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.since(self.window_start).as_nanos();
        if elapsed == 0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / elapsed as f64
        }
    }

    /// Per-job queue waits (nanoseconds) since the last
    /// [`reset_stats`](Self::reset_stats), as closed-form bucket counts.
    pub fn wait_counts(&self) -> &WaitCounts {
        &self.waits
    }

    /// Histogram of per-job queue waits (nanoseconds) since the last
    /// [`reset_stats`](Self::reset_stats): 1 µs first edge, 21 doubling
    /// edges.
    pub fn wait_histogram(&self) -> Histogram {
        self.waits.to_histogram()
    }

    /// Resets counters (not the `free_at` horizon) and starts a new
    /// statistics window at `now` — used at the end of a warm-up period so
    /// statistics cover only the measured window.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.window_start = now;
        self.busy = SimDuration::ZERO;
        self.waits.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn idle_facility_serves_immediately() {
        let mut f = Facility::new("disk");
        let done = f.reserve(t(100), d(50));
        assert_eq!(done, t(150));
        assert_eq!(f.total_wait(), SimDuration::ZERO);
    }

    #[test]
    fn queued_jobs_wait_fcfs() {
        let mut f = Facility::new("disk");
        assert_eq!(f.reserve(t(0), d(100)), t(100));
        // Arrives at 10, must wait until 100.
        assert_eq!(f.reserve(t(10), d(30)), t(130));
        assert_eq!(f.total_wait(), d(90));
        assert_eq!(f.jobs(), 2);
        assert_eq!(f.busy_time(), d(130));
        assert!((f.mean_wait_ms() - d(90).as_millis_f64() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn gap_between_jobs_leaves_idle_time() {
        let mut f = Facility::new("net");
        f.reserve(t(0), d(10));
        f.reserve(t(100), d(10));
        assert_eq!(f.busy_time(), d(20));
        assert!((f.utilization(t(200)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_measured_from_the_reset_instant() {
        let mut f = Facility::new("net");
        f.reserve(t(0), d(50));
        f.reset_stats(t(100));
        f.reserve(t(150), d(25));
        // 25 busy over the 100 ns window [100, 200], not over [0, 200].
        assert!((f.utilization(t(200)) - 0.25).abs() < 1e-12);
        assert_eq!(f.utilization(t(100)), 0.0);
    }

    #[test]
    fn wait_histogram_tracks_waits() {
        let mut f = Facility::new("disk");
        f.reserve(t(0), d(100));
        f.reserve(t(10), d(30)); // waits 90 ns
        assert_eq!(f.wait_histogram().count(), 2);
        assert_eq!(f.wait_histogram().total(), 90);
        f.reset_stats(t(130));
        assert_eq!(f.wait_histogram().count(), 0);
    }

    #[test]
    fn reset_stats_keeps_horizon() {
        let mut f = Facility::new("cpu");
        f.reserve(t(0), d(100));
        f.reset_stats(t(0));
        assert_eq!(f.jobs(), 0);
        // Still busy until 100: a new job queues behind it.
        assert_eq!(f.reserve(t(0), d(10)), t(110));
    }
}
