//! Per-node disk: a FCFS facility with the page-read service time.

use dmm_sim::{Facility, SimDuration, SimTime};

use crate::params::PAGE_BYTES;

// §7.1 says only "SCSI disks"; the constants are a high-end 10k rpm class
// disk circa 1998, chosen so that even the worst-case partitioning (one
// class forced to miss everything) keeps the disks below saturation at the
// paper-scale workload (DESIGN.md "Substitutions").
/// Average seek time in nanoseconds.
const AVG_SEEK_NS: u64 = 5_200_000;
/// Average rotational delay in nanoseconds.
const AVG_ROTATION_NS: u64 = 2_990_000;
/// Sustained transfer rate in bytes per second.
const TRANSFER_BYTES_PER_SEC: u64 = 18_000_000;

/// Service time of one page read: seek + rotation + transfer (≈ 8.42 ms).
pub(crate) const PAGE_READ: SimDuration = SimDuration::from_nanos(
    AVG_SEEK_NS + AVG_ROTATION_NS + PAGE_BYTES * 1_000_000_000 / TRANSFER_BYTES_PER_SEC,
);

/// A fault-injection window during which reads take `factor`× the normal
/// service time.
#[derive(Debug, Clone, Copy)]
struct StallWindow {
    from: SimTime,
    until: SimTime,
    factor: f64,
}

/// One node's local SCSI disk.
#[derive(Debug, Clone)]
pub struct Disk {
    facility: Facility,
    reads: u64,
    stalls: Vec<StallWindow>,
    stalled_reads: u64,
}

impl Disk {
    /// Idle disk.
    pub(crate) fn new() -> Self {
        Disk {
            facility: Facility::new("disk"),
            reads: 0,
            stalls: Vec::new(),
            stalled_reads: 0,
        }
    }

    /// Adds a stall window: reads arriving in `[from, until)` are served
    /// `factor`× slower (fault injection; `factor ≥ 1`).
    pub fn add_stall_window(&mut self, from: SimTime, until: SimTime, factor: f64) {
        assert!(factor >= 1.0 && factor.is_finite());
        assert!(from < until);
        self.stalls.push(StallWindow {
            from,
            until,
            factor,
        });
    }

    /// Queues one page read arriving at `now`; returns its completion time.
    pub fn read_page(&mut self, now: SimTime) -> SimTime {
        self.read_page_split(now).0
    }

    /// Like [`read_page`](Self::read_page), but also returns the FCFS
    /// queue wait so span attribution can split queueing from service
    /// (service, including stall inflation, is `done - now - wait`).
    pub fn read_page_split(&mut self, now: SimTime) -> (SimTime, SimDuration) {
        self.reads += 1;
        let mut service = PAGE_READ;
        if let Some(w) = self.stalls.iter().find(|w| now >= w.from && now < w.until) {
            self.stalled_reads += 1;
            service = SimDuration::from_nanos((service.as_nanos() as f64 * w.factor) as u64);
        }
        self.facility.reserve_split(now, service)
    }

    /// Number of page reads issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of reads served inside a stall window.
    pub fn stalled_reads(&self) -> u64 {
        self.stalled_reads
    }

    /// Disk utilization over the statistics window ending at `now` (see
    /// [`Facility::utilization`]).
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.facility.utilization(now)
    }

    /// Mean queueing delay per read in milliseconds.
    pub fn mean_wait_ms(&self) -> f64 {
        self.facility.mean_wait_ms()
    }

    /// Per-read queueing waits (nanoseconds).
    pub fn wait_counts(&self) -> &dmm_obs::WaitCounts {
        self.facility.wait_counts()
    }

    /// Resets counters for post-warm-up measurement, starting the
    /// statistics window at `now`.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.reads = 0;
        self.facility.reset_stats(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmm_sim::SimDuration;

    #[test]
    fn reads_queue_fcfs() {
        let mut d = Disk::new();
        let t0 = SimTime::ZERO;
        let first = d.read_page(t0);
        let second = d.read_page(t0);
        assert_eq!(second.since(first), first.since(t0));
        assert_eq!(d.reads(), 2);
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut d = Disk::new();
        let done = d.read_page(SimTime::ZERO);
        let later = done + SimDuration::from_millis(100);
        d.read_page(later);
        // Two ~12.6 ms reads over >112 ms elapsed.
        assert!(d.utilization(later) < 0.25);
    }

    #[test]
    fn stall_window_slows_reads_inside_it_only() {
        let mut d = Disk::new();
        let t1s = SimTime::ZERO + SimDuration::from_secs(1);
        let t2s = SimTime::ZERO + SimDuration::from_secs(2);
        d.add_stall_window(t1s, t2s, 4.0);
        let normal = d.read_page(SimTime::ZERO).since(SimTime::ZERO);
        let stalled = d.read_page(t1s).since(t1s);
        let after = d.read_page(t2s).since(t2s);
        assert_eq!(d.stalled_reads(), 1);
        assert_eq!(after, normal, "window over, normal service again");
        let ratio = stalled.as_millis_f64() / normal.as_millis_f64();
        assert!((ratio - 4.0).abs() < 1e-6, "stalled/normal = {ratio}");
    }
}
