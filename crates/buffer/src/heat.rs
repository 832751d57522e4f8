//! Heat (access-frequency) estimation, LRU-K style.
//!
//! Paper §6: "the heat being defined as the number of accesses (locally resp.
//! globally) per time unit. In the implementation the LRU-k algorithm \[21\] is
//! used to approximate the heat." A page's heat estimate is `k` divided by
//! the span back to its k-th most recent access, with `k` fixed at
//! [`HEAT_K`]. Every window is exactly `HEAT_K` instants wide and marks its
//! empty slots with [`SimTime::MAX`], so it stores no fill count and owns no
//! heap. The paper's per-class heat records are "dynamically created and
//! deleted on demand". Here a class heat is created the first time the
//! class touches the page while some node in the system holds a dedicated
//! buffer for that class, and is then kept for the rest of the run
//! (DESIGN.md §3).
//!
//! A node keeps all its page heats in one [`NodeHeat`]: per database page a
//! 32-byte entry with the accumulated window and the first tracked class's
//! window, plus that class's 2-byte id in a parallel array — 34 bytes per
//! page. A second tracked class on one page, which only the §7.4 sharing
//! runs make, goes to a per-node side map.

use dmm_sim::SimTime;

use crate::page::{ClassId, IdHashMap, PageId, NO_GOAL};

/// The LRU-K window of every heat estimate. The paper runs k = 2–3; every
/// experiment here runs 2, and a constant lets each window be exactly that
/// wide.
pub const HEAT_K: usize = 2;

/// The last [`HEAT_K`] access instants, oldest first. The filled slots are
/// a prefix and the rest hold [`SimTime::MAX`], an instant no access is
/// ever recorded at, so the fill count is the length of that prefix.
#[derive(Debug, Clone, Copy)]
struct Window([SimTime; HEAT_K]);

impl Window {
    const EMPTY: Window = Window([SimTime::MAX; HEAT_K]);

    #[inline]
    fn is_empty(&self) -> bool {
        self.0[0] == SimTime::MAX
    }

    /// Number of instants held (≤ [`HEAT_K`]).
    #[inline]
    fn len(&self) -> usize {
        self.0.iter().take_while(|&&t| t != SimTime::MAX).count()
    }

    /// Records one access at `now`.
    #[inline]
    fn record(&mut self, now: SimTime) {
        debug_assert!(now != SimTime::MAX, "access recorded at the sentinel");
        let len = self.len();
        if len == HEAT_K {
            self.0.copy_within(1.., 0);
            self.0[HEAT_K - 1] = now;
        } else {
            self.0[len] = now;
        }
    }

    /// `len / (now − oldest)` in accesses per millisecond; 0 when empty.
    #[inline]
    fn heat_per_ms(&self, now: SimTime) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let span_ms = now.since(self.0[0]).as_millis_f64();
        // Guard division for a just-touched page: treat the window as at
        // least one microsecond.
        let span_ms = span_ms.max(1e-3);
        self.len() as f64 / span_ms
    }
}

/// Sliding window of the last [`HEAT_K`] access instants of one page (for
/// one class, or accumulated over all classes). Plain data: creating,
/// copying and recording never touch the heap.
#[derive(Debug, Clone, Copy)]
pub struct HeatEstimator(Window);

impl Default for HeatEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl HeatEstimator {
    /// Estimator that has seen no access yet.
    pub const fn new() -> Self {
        HeatEstimator(Window::EMPTY)
    }

    /// Records one access at `now`, which must precede [`SimTime::MAX`].
    #[inline]
    pub fn record(&mut self, now: SimTime) {
        self.0.record(now);
    }

    /// Number of accesses remembered (≤ [`HEAT_K`]).
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Instant of the most recent access.
    pub fn last_access(&self) -> Option<SimTime> {
        self.count().checked_sub(1).map(|i| self.0 .0[i])
    }

    /// Heat in accesses per millisecond at instant `now`:
    /// `m / (now − t_m)` over the `m ≤ k` remembered accesses. Returns 0
    /// before the first access. A page accessed only once very recently has
    /// a deliberately conservative heat (its window is measured from that
    /// single access to `now`).
    #[inline]
    pub fn heat_per_ms(&self, now: SimTime) -> f64 {
        self.0.heat_per_ms(now)
    }
}

/// One page's inline windows on one node. Aligned to its own size, so an
/// entry never straddles a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct PageWindows {
    /// Every access regardless of class (§6 "accumulated heat").
    accumulated: Window,
    /// The first tracked class's accesses; empty until that record exists.
    class: Window,
}

impl PageWindows {
    const EMPTY: PageWindows = PageWindows {
        accumulated: Window::EMPTY,
        class: Window::EMPTY,
    };
}

/// Heat bookkeeping of every database page on one node, indexed by page
/// id: the accumulated heat over all accesses plus on-demand per-class
/// heats. An untouched page reads 0.
///
/// A page is touched by very few tracked classes — one, in every shipped
/// workload but the §7.4 sharing runs — so the first per-class window lives
/// inline next to the accumulated one, with its class id in a parallel
/// array; only a second tracked class on the same page goes to `spill`.
/// The no-goal class never holds a per-class record (it is never tracked:
/// its ranking heat is the accumulated one), so a no-goal access touches
/// only the page's 32-byte entry.
#[derive(Debug, Clone)]
pub struct NodeHeat {
    windows: Vec<PageWindows>,
    /// The class whose record `windows[p].class` holds; meaningless while
    /// that window is empty.
    first_class: Vec<ClassId>,
    /// Second and later tracked classes per page. A page has an entry only
    /// once its inline class window is filled.
    spill: IdHashMap<PageId, Vec<(ClassId, HeatEstimator)>>,
}

impl NodeHeat {
    /// Bookkeeping for pages `0..db_pages`, none touched yet.
    pub fn new(db_pages: usize) -> Self {
        NodeHeat {
            windows: vec![PageWindows::EMPTY; db_pages],
            first_class: vec![NO_GOAL; db_pages],
            spill: IdHashMap::default(),
        }
    }

    /// Forgets every access in place, keeping the tables allocated.
    pub fn reset(&mut self) {
        self.windows.fill(PageWindows::EMPTY);
        self.first_class.fill(NO_GOAL);
        self.spill.clear();
    }

    /// Records an access to `page` by `class` at `now`. `track_class` says
    /// whether a dedicated buffer for this class exists anywhere in the
    /// system — only then is the per-class record created (§6 overhead
    /// reduction). It is ignored for the no-goal class. An existing record
    /// is kept warm even if tracking toggled off between accesses; records
    /// are never deleted.
    #[inline]
    pub fn record(&mut self, page: PageId, class: ClassId, now: SimTime, track_class: bool) {
        let p = page.index();
        let windows = &mut self.windows[p];
        windows.accumulated.record(now);
        if class.is_no_goal() {
            return;
        }
        if windows.class.is_empty() {
            // No first record, hence no spilled ones either.
            if track_class {
                windows.class.record(now);
                self.first_class[p] = class;
            }
            return;
        }
        if self.first_class[p] == class {
            windows.class.record(now);
            return;
        }
        let spilled = self
            .spill
            .get_mut(&page)
            .and_then(|rest| rest.iter_mut().find(|(c, _)| *c == class));
        if let Some((_, est)) = spilled {
            est.record(now);
        } else if track_class {
            let mut est = HeatEstimator::new();
            est.record(now);
            self.spill.entry(page).or_default().push((class, est));
        }
    }

    /// Per-class heat of `page` at `now` (0 when the class has no record
    /// on the page).
    #[inline]
    pub fn class_heat_per_ms(&self, page: PageId, class: ClassId, now: SimTime) -> f64 {
        let p = page.index();
        let windows = &self.windows[p];
        if class.is_no_goal() || windows.class.is_empty() {
            return 0.0;
        }
        if self.first_class[p] == class {
            return windows.class.heat_per_ms(now);
        }
        self.spilled(page)
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0.0, |(_, e)| e.heat_per_ms(now))
    }

    /// Prefetches `page`'s inline windows (see [`dmm_sim::prefetch()`]).
    #[inline]
    pub fn prefetch(&self, page: PageId) {
        dmm_sim::prefetch(&self.windows[page.index()]);
    }

    /// Accumulated heat of `page` at `now`.
    #[inline]
    pub fn accumulated_heat_per_ms(&self, page: PageId, now: SimTime) -> f64 {
        self.windows[page.index()].accumulated.heat_per_ms(now)
    }

    /// Number of per-class records `page` holds.
    pub fn tracked_classes(&self, page: PageId) -> usize {
        usize::from(!self.windows[page.index()].class.is_empty()) + self.spilled(page).len()
    }

    fn spilled(&self, page: PageId) -> &[(ClassId, HeatEstimator)] {
        self.spill.get(&page).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let p = PageId(3);
        let mut h = NodeHeat::new(4);
        h.record(p, ClassId(1), ms(0), true);
        h.record(p, NO_GOAL, ms(1), true); // the no-goal class is never tracked
        assert_eq!(h.tracked_classes(p), 1);
        assert!(h.class_heat_per_ms(p, ClassId(1), ms(2)) > 0.0);
        assert_eq!(h.class_heat_per_ms(p, NO_GOAL, ms(2)), 0.0);
        // Accumulated heat counts both accesses.
        assert!(h.accumulated_heat_per_ms(p, ms(2)) > h.class_heat_per_ms(p, ClassId(1), ms(2)));
        // Other pages stay untouched.
        assert_eq!(h.accumulated_heat_per_ms(PageId(2), ms(2)), 0.0);
        assert_eq!(h.tracked_classes(PageId(2)), 0);
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
        let p = PageId(0);
        let mut h = NodeHeat::new(1);
        for (c, at) in [(1, 0), (2, 1), (3, 2), (2, 3)] {
            h.record(p, ClassId(c), ms(at), true);
        }
        assert_eq!(h.tracked_classes(p), 3);
        // Class 2 was touched twice 2 ms apart, the others once.
        assert!((h.class_heat_per_ms(p, ClassId(2), ms(3)) - 1.0).abs() < 1e-9);
        assert!(h.class_heat_per_ms(p, ClassId(1), ms(4)) > 0.0);
        assert!(h.class_heat_per_ms(p, ClassId(3), ms(4)) > 0.0);
        // A spilled record stays warm even once tracking is off.
        h.record(p, ClassId(3), ms(5), false);
        assert_eq!(h.class_heat_per_ms(p, ClassId(3), ms(5)), 2.0 / 3.0);
        // An untracked access by a new class keeps only the accumulated
        // heat warm.
        h.record(p, ClassId(4), ms(6), false);
        assert_eq!(h.tracked_classes(p), 3);
        assert_eq!(h.class_heat_per_ms(p, ClassId(4), ms(6)), 0.0);
        assert_eq!(h.accumulated_heat_per_ms(p, ms(6)), 2.0);
        // A reset forgets every record, spilled ones too.
        h.reset();
        assert_eq!(h.tracked_classes(p), 0);
        assert_eq!(h.accumulated_heat_per_ms(p, ms(6)), 0.0);
        assert_eq!(h.class_heat_per_ms(p, ClassId(3), ms(6)), 0.0);
    }

    #[test]
    fn page_heat_fits_its_size_budget() {
        let per_page = std::mem::size_of::<PageWindows>() + std::mem::size_of::<ClassId>();
        assert!(
            per_page <= 34,
            "a page's heat takes {per_page} bytes, over its 34-byte budget: \
             every node keeps one entry per database page"
        );
        assert_eq!(std::mem::size_of::<PageWindows>(), 32);
        assert_eq!(std::mem::align_of::<PageWindows>(), 32);
        let heat = NodeHeat::new(3);
        assert_eq!(
            heat.windows.as_ptr() as usize % 32,
            0,
            "window entries straddle cache lines"
        );
    }
}
