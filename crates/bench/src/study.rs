//! The study layer: one run protocol for the steady-state experiments
//! ([`study`]) and one fold over a goal class's interval records
//! ([`Window`]), so every table reads "how did class k do over these
//! intervals?" the same way.

use std::ops::{ControlFlow, Range, RangeBounds};

use dmm::buffer::ClassId;
use dmm::cluster::NodeId;
use dmm::core::{IntervalRecord, Simulation, SystemConfig};

use crate::{fmt2, pool};

/// A stretch of one goal class's interval records, in interval order as
/// [`Simulation::records`] keeps them, and every summary the experiments
/// read off it.
///
/// "Satisfied %" has two denominators. The ablations divide by the
/// records a check judged ([`Window::satisfied_of_checked`]), leaving out
/// intervals without data; `workload_shift` and `scale` divide by every
/// record ([`Window::satisfied_of_records`]). The window keeps both counts.
#[derive(Debug, Clone, Copy)]
pub struct Window<'a>(&'a [IntervalRecord]);

impl<'a> Window<'a> {
    /// The records whose interval lies in `intervals`.
    pub fn range(records: &'a [IntervalRecord], intervals: impl RangeBounds<u32>) -> Self {
        let inside = |r: &IntervalRecord| intervals.contains(&r.interval);
        let start = records.iter().position(inside).unwrap_or(records.len());
        let len = records[start..].iter().take_while(|r| inside(r)).count();
        Self(&records[start..start + len])
    }

    /// The last `n` records (all of them if there are fewer).
    pub fn last(records: &'a [IntervalRecord], n: usize) -> Self {
        Self(&records[records.len().saturating_sub(n)..])
    }

    /// Records in the window.
    pub fn records(&self) -> usize {
        self.0.len()
    }

    /// Records whose check judged the goal (`satisfied` is `Some`).
    pub fn checked(&self) -> usize {
        self.0.iter().filter(|r| r.satisfied.is_some()).count()
    }

    /// Records whose check found the goal satisfied.
    pub fn satisfied(&self) -> usize {
        self.0.iter().filter(|r| r.satisfied == Some(true)).count()
    }

    /// Satisfied records over checked ones (0 when none was checked).
    pub fn satisfied_of_checked(&self) -> f64 {
        self.satisfied() as f64 / self.checked().max(1) as f64
    }

    /// Satisfied records over all records (0 for an empty window).
    pub fn satisfied_of_records(&self) -> f64 {
        self.satisfied() as f64 / self.records().max(1) as f64
    }

    /// Mean observed response time (ms) of the records that carry one.
    pub fn mean_observed_ms(&self) -> Option<f64> {
        mean(self.0.iter().filter_map(|r| r.observed_ms))
    }

    /// Mean no-goal response time (ms).
    pub fn mean_nogoal_ms(&self) -> Option<f64> {
        mean(self.0.iter().map(|r| r.nogoal_ms))
    }

    /// Mean dedicated memory across all nodes (MB).
    pub fn mean_dedicated_mb(&self) -> Option<f64> {
        mean(self.0.iter().map(|r| r.dedicated_bytes as f64)).map(|b| b / (1024.0 * 1024.0))
    }

    /// The interval from which every record to the window's end is
    /// satisfied (the paper's "converged after"), if the last one is.
    pub fn satisfied_since(&self) -> Option<u32> {
        let last_miss = self.0.iter().rposition(|r| r.satisfied != Some(true));
        let start = last_miss.map_or(0, |i| i + 1);
        self.0.get(start).map(|r| r.interval)
    }

    /// The first satisfied interval after interval `t`.
    pub fn first_satisfied_after(&self, t: u32) -> Option<u32> {
        let mut after = self.0.iter().filter(|r| r.interval > t);
        let hit = after.find(|r| r.satisfied == Some(true));
        hit.map(|r| r.interval)
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// One finished run of a study, as its cells read it.
pub struct Run<'a> {
    /// The simulation after its last measured interval.
    pub sim: &'a Simulation,
    /// The study class's measured intervals.
    pub window: Window<'a>,
    /// Disk reads on all nodes over the measured intervals.
    pub disk_reads: u64,
    intervals: Range<u32>,
}

impl<'a> Run<'a> {
    /// `class`'s measured intervals.
    pub fn window_of(&self, class: ClassId) -> Window<'a> {
        Window::range(self.sim.records(class), self.intervals.clone())
    }
}

/// Runs one simulation per variant on `threads` workers: builds its
/// `config`, settles it up to `intervals.start`, measures `intervals`, and
/// hands the run, with `class`'s window, to `cells`. Prints one progress
/// line per run to stderr and returns the cells in variant order,
/// bit-identical for every `threads ≥ 1` (see [`crate::sweep`]). Panics
/// if a run would settle less than its warm-up, which restarts the disk
/// counters `Run::disk_reads` reads.
pub fn study<V: Sync, R: Send>(
    variants: &[V],
    class: ClassId,
    intervals: Range<u32>,
    threads: usize,
    config: impl Fn(&V) -> SystemConfig + Sync,
    cells: impl Fn(&V, &Run) -> R + Sync,
) -> Vec<R> {
    let mut rows = Vec::with_capacity(variants.len());
    pool::replicate_in_order(
        variants,
        threads,
        |variant| {
            let config = config(variant);
            assert!(
                intervals.start >= config.warmup_intervals,
                "settle past the warm-up"
            );
            let mut sim = Simulation::new(config);
            sim.run_intervals(intervals.start);
            let reads = disk_reads(&sim);
            sim.run_intervals(intervals.end - intervals.start);
            let window = Window::range(sim.records(class), intervals.clone());
            let (rt, sat) = (fmt2(window.mean_observed_ms()), window.satisfied());
            let summary = format!("{class} RT {rt} ms, satisfied {sat}/{}", window.checked());
            let run = Run {
                sim: &sim,
                window,
                disk_reads: disk_reads(&sim) - reads,
                intervals: intervals.clone(),
            };
            (cells(variant, &run), summary)
        },
        |i, (cells, summary)| {
            eprintln!("run {}/{}: {summary}", i + 1, variants.len());
            rows.push(cells);
            ControlFlow::Continue(())
        },
    );
    rows
}

fn disk_reads(sim: &Simulation) -> u64 {
    (0..sim.plane().num_nodes())
        .map(|n| sim.plane().disk_reads(NodeId(n as u16)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(interval: u32, observed_ms: Option<f64>, satisfied: Option<bool>) -> IntervalRecord {
        IntervalRecord {
            interval,
            observed_ms,
            observed_p_ms: None,
            goal_ms: 8.0,
            nogoal_ms: 20.0 + f64::from(interval),
            dedicated_bytes: u64::from(interval) * 1024 * 1024,
            satisfied,
        }
    }

    /// Intervals 0..8: no data, miss, hit, unjudged, hit, miss, hit, hit.
    fn records() -> Vec<IntervalRecord> {
        [
            (None, None),
            (Some(9.0), Some(false)),
            (Some(8.0), Some(true)),
            (Some(7.0), None),
            (Some(8.0), Some(true)),
            (Some(10.0), Some(false)),
            (Some(8.0), Some(true)),
            (Some(8.5), Some(true)),
        ]
        .into_iter()
        .zip(0..)
        .map(|((rt, sat), i)| record(i, rt, sat))
        .collect()
    }

    #[test]
    fn satisfied_over_checked_and_over_all_records() {
        let rs = records();
        let w = Window::range(&rs, ..);
        assert_eq!((w.records(), w.checked(), w.satisfied()), (8, 6, 4));
        assert_eq!(w.satisfied_of_checked(), 4.0 / 6.0);
        assert_eq!(w.satisfied_of_records(), 0.5);
        // The unjudged interval 3 counts only against all records.
        let w = Window::range(&rs, 2..5);
        assert_eq!((w.records(), w.checked(), w.satisfied()), (3, 2, 2));
        assert_eq!(w.satisfied_of_checked(), 1.0);
        assert_eq!(w.satisfied_of_records(), 2.0 / 3.0);
    }

    #[test]
    fn means_skip_only_missing_observations() {
        let rs = records();
        let w = Window::last(&rs, 3);
        assert_eq!(w.mean_observed_ms(), Some(26.5 / 3.0));
        assert_eq!(w.mean_nogoal_ms(), Some(26.0));
        assert_eq!(w.mean_dedicated_mb(), Some(6.0));
        let w = Window::range(&rs, 0..1);
        assert_eq!(w.mean_observed_ms(), None);
        assert_eq!(w.mean_nogoal_ms(), Some(20.0));
    }

    #[test]
    fn stays_satisfied_from_the_last_miss_on() {
        let mut rs = records();
        assert_eq!(Window::range(&rs, ..).satisfied_since(), Some(6));
        // A miss, or an unjudged check, at the end resets it.
        rs.push(record(8, Some(7.0), None));
        assert_eq!(Window::range(&rs, ..).satisfied_since(), None);
        rs.push(record(9, Some(8.0), Some(true)));
        assert_eq!(Window::range(&rs, ..).satisfied_since(), Some(9));
        // A window that starts inside the streak reports its own start.
        assert_eq!(Window::range(&rs[..8], 7..).satisfied_since(), Some(7));
    }

    #[test]
    fn first_satisfied_interval_after_t() {
        let rs = records();
        let w = Window::range(&rs, ..);
        assert_eq!(w.first_satisfied_after(0), Some(2));
        assert_eq!(w.first_satisfied_after(2), Some(4));
        assert_eq!(w.first_satisfied_after(4), Some(6));
        assert_eq!(w.first_satisfied_after(7), None);
    }

    #[test]
    fn empty_window() {
        let rs = records();
        for w in [
            Window::range(&rs, 20..),
            Window::last(&rs, 0),
            Window::last(&[], 5),
        ] {
            assert_eq!((w.records(), w.checked(), w.satisfied()), (0, 0, 0));
            assert_eq!(w.satisfied_of_checked(), 0.0);
            assert_eq!(w.satisfied_of_records(), 0.0);
            assert_eq!(w.mean_observed_ms(), None);
            assert_eq!(w.mean_nogoal_ms(), None);
            assert_eq!(w.mean_dedicated_mb(), None);
            assert_eq!(w.satisfied_since(), None);
            assert_eq!(w.first_satisfied_after(0), None);
        }
    }
}
