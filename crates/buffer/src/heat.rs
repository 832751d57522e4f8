//! Heat (access-frequency) estimation, LRU-K style.
//!
//! Paper §6: "the heat being defined as the number of accesses (locally resp.
//! globally) per time unit. In the implementation the LRU-k algorithm \[21\] is
//! used to approximate the heat." A page's heat estimate is `k` divided by
//! the span back to its k-th most recent access. The paper's per-class heat
//! records are "dynamically created and deleted on demand". Here a class heat
//! is created the first time the class touches the page while some node in
//! the system holds a dedicated buffer for that class, and is then kept for
//! the rest of the run (DESIGN.md §3).

use std::num::NonZeroU8;

use dmm_sim::SimTime;

use crate::page::ClassId;

/// Largest supported LRU-K window. The paper runs k = 2–3; the bound lets
/// an estimator keep its window inline instead of on the heap.
pub const HEAT_K_MAX: usize = 4;

/// Sliding window of the last `k` access instants of one page (for one
/// class, or accumulated over all classes). Plain data: creating, copying
/// and recording never touch the heap.
#[derive(Debug, Clone, Copy)]
pub struct HeatEstimator {
    /// Never zero; the niche keeps [`PageHeat`]'s optional inline record
    /// (and with it every entry of a node's heat table) 8 bytes smaller.
    k: NonZeroU8,
    len: u8,
    /// Oldest first; `times[..len]` are the remembered accesses.
    times: [SimTime; HEAT_K_MAX],
}

impl HeatEstimator {
    /// Estimator with window `k`, `1 ≤ k ≤ HEAT_K_MAX`.
    pub fn new(k: usize) -> Self {
        assert!(
            (1..=HEAT_K_MAX).contains(&k),
            "heat window k must be in 1..={HEAT_K_MAX}, got {k}"
        );
        HeatEstimator {
            k: NonZeroU8::new(k as u8).expect("k ≥ 1 was just checked"),
            len: 0,
            times: [SimTime::ZERO; HEAT_K_MAX],
        }
    }

    /// Records one access at `now`.
    pub fn record(&mut self, now: SimTime) {
        let k = usize::from(self.k.get());
        if self.len == self.k.get() {
            self.times.copy_within(1..k, 0);
            self.times[k - 1] = now;
        } else {
            self.times[usize::from(self.len)] = now;
            self.len += 1;
        }
    }

    /// Number of accesses remembered (≤ k).
    pub fn count(&self) -> usize {
        usize::from(self.len)
    }

    /// Instant of the most recent access.
    pub fn last_access(&self) -> Option<SimTime> {
        self.count().checked_sub(1).map(|i| self.times[i])
    }

    /// Heat in accesses per millisecond at instant `now`:
    /// `m / (now − t_m)` over the `m ≤ k` remembered accesses. Returns 0
    /// before the first access. A page accessed only once very recently has
    /// a deliberately conservative heat (its window is measured from that
    /// single access to `now`).
    pub fn heat_per_ms(&self, now: SimTime) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let span_ms = now.since(self.times[0]).as_millis_f64();
        // Guard division for a just-touched page: treat the window as at
        // least one microsecond.
        let span_ms = span_ms.max(1e-3);
        self.count() as f64 / span_ms
    }
}

/// Heat bookkeeping for one page on one node: the accumulated heat over all
/// accesses plus on-demand per-class heats. A page is touched by very few
/// tracked classes — one, in every shipped workload — so the first per-class
/// record lives inline and a table of these entries owns no heap of its own;
/// only a second tracked class on the same page spills into `rest`.
///
/// Every node keeps one entry per database page, so the entry's size is
/// every node's table size per page: it stays within 96 bytes.
#[derive(Debug, Clone)]
pub struct PageHeat {
    /// Heat over every access regardless of class (§6 "accumulated heat").
    pub accumulated: HeatEstimator,
    first: Option<(ClassId, HeatEstimator)>,
    /// Behind a thin pointer: a `Vec` inline would cost every entry 16
    /// more bytes for a spill no shipped workload makes.
    #[allow(clippy::box_collection)]
    rest: Option<Box<Vec<(ClassId, HeatEstimator)>>>,
}

impl PageHeat {
    /// New bookkeeping with LRU-K window `k`.
    pub fn new(k: usize) -> Self {
        PageHeat {
            accumulated: HeatEstimator::new(k),
            first: None,
            rest: None,
        }
    }

    fn spilled(&self) -> &[(ClassId, HeatEstimator)] {
        self.rest.as_deref().map_or(&[], Vec::as_slice)
    }

    fn class_record(&self, class: ClassId) -> Option<&HeatEstimator> {
        self.first
            .iter()
            .chain(self.spilled())
            .find(|(c, _)| *c == class)
            .map(|(_, e)| e)
    }

    /// Records an access by `class` at `now`. `track_class` says whether a
    /// dedicated buffer for this class exists anywhere in the system — only
    /// then is the per-class record created (§6 overhead reduction).
    pub fn record(&mut self, class: ClassId, now: SimTime, track_class: bool) {
        self.accumulated.record(now);
        let existing = self
            .first
            .iter_mut()
            .chain(self.rest.iter_mut().flat_map(|r| r.iter_mut()))
            .find(|(c, _)| *c == class);
        match existing {
            // An existing record is kept warm even if tracking toggled off
            // between accesses; records are never deleted.
            Some((_, est)) => est.record(now),
            None if track_class => {
                let mut est = HeatEstimator::new(usize::from(self.accumulated.k.get()));
                est.record(now);
                if self.first.is_none() {
                    self.first = Some((class, est));
                } else {
                    self.rest
                        .get_or_insert_with(Box::default)
                        .push((class, est));
                }
            }
            None => {}
        }
    }

    /// Per-class heat at `now` (0 when the class has no record on the
    /// page).
    pub fn class_heat_per_ms(&self, class: ClassId, now: SimTime) -> f64 {
        self.class_record(class).map_or(0.0, |e| e.heat_per_ms(now))
    }

    /// Accumulated heat at `now`.
    pub fn accumulated_heat_per_ms(&self, now: SimTime) -> f64 {
        self.accumulated.heat_per_ms(now)
    }

    /// Number of per-class records currently held.
    pub fn tracked_classes(&self) -> usize {
        usize::from(self.first.is_some()) + self.spilled().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::NO_GOAL;

    fn ms(x: u64) -> SimTime {
        SimTime::from_nanos(x * 1_000_000)
    }

    #[test]
    fn heat_reflects_access_rate() {
        let mut e = HeatEstimator::new(2);
        assert_eq!(e.heat_per_ms(ms(10)), 0.0);
        e.record(ms(0));
        e.record(ms(10));
        // 2 accesses over 10ms window (measured at t=10) → 0.2/ms.
        assert!((e.heat_per_ms(ms(10)) - 0.2).abs() < 1e-9);
        // Heat decays as time passes without accesses.
        assert!(e.heat_per_ms(ms(40)) < 0.2);
    }

    #[test]
    fn window_slides() {
        let mut e = HeatEstimator::new(2);
        e.record(ms(0));
        e.record(ms(100));
        e.record(ms(110));
        // Oldest remembered is now t=100.
        assert!((e.heat_per_ms(ms(120)) - 2.0 / 20.0).abs() < 1e-9);
        assert_eq!(e.count(), 2);
        assert_eq!(e.last_access(), Some(ms(110)));
    }

    #[test]
    fn hot_page_beats_cold_page() {
        let mut hot = HeatEstimator::new(3);
        let mut cold = HeatEstimator::new(3);
        // Hot: 6 accesses 5ms apart — its K-window slides to [15, 25].
        for i in 0..6 {
            hot.record(ms(i * 5));
        }
        // Cold: 3 accesses 50ms apart — its K-window stays [0, 100].
        for i in 0..3 {
            cold.record(ms(i * 50));
        }
        let now = ms(110);
        assert!(hot.heat_per_ms(now) > cold.heat_per_ms(now));
    }

    #[test]
    fn per_class_records_on_demand() {
        let mut h = PageHeat::new(2);
        h.record(ClassId(1), ms(0), true);
        h.record(NO_GOAL, ms(1), false); // no dedicated buffer: not tracked
        assert_eq!(h.tracked_classes(), 1);
        assert!(h.class_heat_per_ms(ClassId(1), ms(2)) > 0.0);
        assert_eq!(h.class_heat_per_ms(NO_GOAL, ms(2)), 0.0);
        // Accumulated heat counts both accesses.
        assert!(h.accumulated_heat_per_ms(ms(2)) > h.class_heat_per_ms(ClassId(1), ms(2)));
    }

    #[test]
    fn just_touched_page_has_finite_heat() {
        let mut e = HeatEstimator::new(2);
        e.record(ms(5));
        let h = e.heat_per_ms(ms(5));
        assert!(h.is_finite() && h > 0.0);
    }

    #[test]
    fn further_tracked_classes_spill() {
        let mut h = PageHeat::new(2);
        for (c, at) in [(1, 0), (2, 1), (3, 2), (2, 3)] {
            h.record(ClassId(c), ms(at), true);
        }
        assert_eq!(h.tracked_classes(), 3);
        // Class 2 was touched twice 2 ms apart, the others once.
        assert!((h.class_heat_per_ms(ClassId(2), ms(3)) - 1.0).abs() < 1e-9);
        assert!(h.class_heat_per_ms(ClassId(1), ms(4)) > 0.0);
        assert!(h.class_heat_per_ms(ClassId(3), ms(4)) > 0.0);
        // A spilled record stays warm even once tracking is off.
        h.record(ClassId(3), ms(5), false);
        assert_eq!(h.class_heat_per_ms(ClassId(3), ms(5)), 2.0 / 3.0);
        // An untracked access by a new class keeps only the accumulated
        // heat warm.
        h.record(ClassId(4), ms(6), false);
        assert_eq!(h.tracked_classes(), 3);
        assert_eq!(h.class_heat_per_ms(ClassId(4), ms(6)), 0.0);
        assert_eq!(h.accumulated.last_access(), Some(ms(6)));
    }

    #[test]
    fn page_heat_fits_its_size_budget() {
        let size = std::mem::size_of::<PageHeat>();
        assert!(
            size <= 96,
            "PageHeat is {size} bytes, over its 96-byte budget: every node \
             keeps one entry per database page"
        );
    }

    #[test]
    #[should_panic(expected = "heat window k must be in 1..=4, got 5")]
    fn window_beyond_the_inline_capacity_is_rejected() {
        HeatEstimator::new(HEAT_K_MAX + 1);
    }

    #[test]
    #[should_panic(expected = "heat window k must be in 1..=4, got 0")]
    fn empty_window_is_rejected() {
        HeatEstimator::new(0);
    }
}
