//! Heat (access-frequency) estimation, LRU-K style.
//!
//! Paper §6: "the heat being defined as the number of accesses (locally resp.
//! globally) per time unit. In the implementation the LRU-k algorithm \[21\] is
//! used to approximate the heat." A page's heat estimate is `k` divided by
//! the span back to its k-th most recent access, with `k` fixed at
//! [`HEAT_K`]. Every window is exactly `HEAT_K` instants wide, so a node's
//! heat entry for one page is 48 bytes and owns no heap. The paper's
//! per-class heat records are "dynamically created and deleted on demand".
//! Here a class heat is created the first time the class touches the page
//! while some node in the system holds a dedicated buffer for that class,
//! and is then kept for the rest of the run (DESIGN.md §3).

use dmm_sim::SimTime;

use crate::page::{ClassId, NO_GOAL};

/// The LRU-K window of every heat estimate. The paper runs k = 2–3; every
/// experiment here runs 2, and a constant lets each window be exactly that
/// wide.
pub const HEAT_K: usize = 2;

/// The last [`HEAT_K`] access instants, oldest first. The fill count lives
/// with the owner, so [`PageHeat`] can pack two windows around one pair of
/// count bytes.
#[derive(Debug, Clone, Copy)]
struct Window([SimTime; HEAT_K]);

impl Window {
    const EMPTY: Window = Window([SimTime::ZERO; HEAT_K]);

    /// Records one access at `now` into a window holding `len` instants.
    fn record(&mut self, len: &mut u8, now: SimTime) {
        if usize::from(*len) == HEAT_K {
            self.0.copy_within(1.., 0);
            self.0[HEAT_K - 1] = now;
        } else {
            self.0[usize::from(*len)] = now;
            *len += 1;
        }
    }

    /// `len / (now − oldest)` in accesses per millisecond; 0 when empty.
    fn heat_per_ms(&self, len: u8, now: SimTime) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let span_ms = now.since(self.0[0]).as_millis_f64();
        // Guard division for a just-touched page: treat the window as at
        // least one microsecond.
        let span_ms = span_ms.max(1e-3);
        f64::from(len) / span_ms
    }
}

/// Sliding window of the last [`HEAT_K`] access instants of one page (for
/// one class, or accumulated over all classes). Plain data: creating,
/// copying and recording never touch the heap.
#[derive(Debug, Clone, Copy)]
pub struct HeatEstimator {
    len: u8,
    times: Window,
}

impl Default for HeatEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl HeatEstimator {
    /// Estimator that has seen no access yet.
    pub const fn new() -> Self {
        HeatEstimator {
            len: 0,
            times: Window::EMPTY,
        }
    }

    /// Records one access at `now`.
    pub fn record(&mut self, now: SimTime) {
        self.times.record(&mut self.len, now);
    }

    /// Number of accesses remembered (≤ [`HEAT_K`]).
    pub fn count(&self) -> usize {
        usize::from(self.len)
    }

    /// Instant of the most recent access.
    pub fn last_access(&self) -> Option<SimTime> {
        self.count().checked_sub(1).map(|i| self.times.0[i])
    }

    /// Heat in accesses per millisecond at instant `now`:
    /// `m / (now − t_m)` over the `m ≤ k` remembered accesses. Returns 0
    /// before the first access. A page accessed only once very recently has
    /// a deliberately conservative heat (its window is measured from that
    /// single access to `now`).
    pub fn heat_per_ms(&self, now: SimTime) -> f64 {
        self.times.heat_per_ms(self.len, now)
    }
}

/// Heat bookkeeping for one page on one node: the accumulated heat over all
/// accesses plus on-demand per-class heats. A page is touched by very few
/// tracked classes — one, in every shipped workload but the §7.4 sharing
/// runs — so the first per-class window lives inline next to the
/// accumulated one and a table of these entries owns no heap of its own;
/// only a second tracked class on the same page spills into `rest`.
///
/// Every node keeps one entry per database page, so the entry's size is
/// every node's table size per page: it stays within 48 bytes.
#[derive(Debug, Clone)]
pub struct PageHeat {
    /// Window over every access regardless of class (§6 "accumulated
    /// heat").
    accumulated: Window,
    /// Window of the first tracked class, `first_class`.
    first: Window,
    first_class: ClassId,
    accumulated_len: u8,
    /// 0 until the first per-class record exists.
    first_len: u8,
    /// Behind a thin pointer: a `Vec` inline would cost every entry 16
    /// more bytes for a spill almost no workload makes.
    #[allow(clippy::box_collection)]
    rest: Option<Box<Vec<(ClassId, HeatEstimator)>>>,
}

impl Default for PageHeat {
    fn default() -> Self {
        Self::new()
    }
}

impl PageHeat {
    /// Bookkeeping for a page no class has touched yet.
    pub const fn new() -> Self {
        PageHeat {
            accumulated: Window::EMPTY,
            first: Window::EMPTY,
            first_class: NO_GOAL,
            accumulated_len: 0,
            first_len: 0,
            rest: None,
        }
    }

    fn spilled(&self) -> &[(ClassId, HeatEstimator)] {
        self.rest.as_deref().map_or(&[], Vec::as_slice)
    }

    fn holds_first(&self, class: ClassId) -> bool {
        self.first_len > 0 && self.first_class == class
    }

    /// Records an access by `class` at `now`. `track_class` says whether a
    /// dedicated buffer for this class exists anywhere in the system — only
    /// then is the per-class record created (§6 overhead reduction).
    pub fn record(&mut self, class: ClassId, now: SimTime, track_class: bool) {
        self.accumulated.record(&mut self.accumulated_len, now);
        // An existing record is kept warm even if tracking toggled off
        // between accesses; records are never deleted.
        if self.holds_first(class) {
            self.first.record(&mut self.first_len, now);
        } else if let Some((_, est)) = self
            .rest
            .iter_mut()
            .flat_map(|r| r.iter_mut())
            .find(|(c, _)| *c == class)
        {
            est.record(now);
        } else if track_class && self.first_len == 0 {
            self.first_class = class;
            self.first.record(&mut self.first_len, now);
        } else if track_class {
            let mut est = HeatEstimator::new();
            est.record(now);
            self.rest
                .get_or_insert_with(Box::default)
                .push((class, est));
        }
    }

    /// Per-class heat at `now` (0 when the class has no record on the
    /// page).
    pub fn class_heat_per_ms(&self, class: ClassId, now: SimTime) -> f64 {
        if self.holds_first(class) {
            return self.first.heat_per_ms(self.first_len, now);
        }
        self.spilled()
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |(_, e)| e.heat_per_ms(now))
    }

    /// Accumulated heat at `now`.
    pub fn accumulated_heat_per_ms(&self, now: SimTime) -> f64 {
        self.accumulated.heat_per_ms(self.accumulated_len, now)
    }

    /// Number of per-class records currently held.
    pub fn tracked_classes(&self) -> usize {
        usize::from(self.first_len > 0) + self.spilled().len()
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
        let mut e = HeatEstimator::new();
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
        let mut e = HeatEstimator::new();
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
        let mut hot = HeatEstimator::new();
        let mut cold = HeatEstimator::new();
        // Both last touched at t = 100. Hot: 6 accesses 5 ms apart — its
        // K-window slides to [95, 100]. Cold: 3 accesses 50 ms apart — its
        // K-window slides to [50, 100].
        for i in 0..6 {
            hot.record(ms(75 + i * 5));
        }
        for i in 0..3 {
            cold.record(ms(i * 50));
        }
        let now = ms(110);
        assert!(hot.heat_per_ms(now) > cold.heat_per_ms(now));
    }

    #[test]
    fn per_class_records_on_demand() {
        let mut h = PageHeat::new();
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
        let mut e = HeatEstimator::new();
        e.record(ms(5));
        let h = e.heat_per_ms(ms(5));
        assert!(h.is_finite() && h > 0.0);
    }

    #[test]
    fn further_tracked_classes_spill() {
        let mut h = PageHeat::new();
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
        assert_eq!(h.accumulated_heat_per_ms(ms(6)), 2.0);
    }

    #[test]
    fn page_heat_fits_its_size_budget() {
        let size = std::mem::size_of::<PageHeat>();
        assert!(
            size <= 48,
            "PageHeat is {size} bytes, over its 48-byte budget: every node \
             keeps one entry per database page"
        );
    }
}
