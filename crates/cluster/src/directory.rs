//! The cache directory: who caches which page, last-copy status, and global
//! heat.
//!
//! The simulator is a single process, so the directory holds exact global
//! state; the *costs* of keeping it coherent are still charged: the
//! threshold-based dissemination protocol of \[27, 26\] sends a control message
//! to the page's home whenever the page's global heat estimate drifts by more
//! than a configured fraction from its last published value, and every
//! location change (copy added/removed, last-copy transitions) is a control
//! message too. The data plane asks the directory where copies live and
//! whether a local copy is the system-wide last one — the two inputs of the
//! §6 benefit formula.

use dmm_buffer::{ClassId, HeatEstimator, PageId};
use dmm_sim::SimTime;

use crate::ids::NodeId;

/// Holders a page record keeps inline. Only the hot ring of a large
/// cluster caches a page at more nodes; such a page's list moves to a side
/// list.
const INLINE_HOLDERS: usize = 7;

/// `PageRecord::side` of a page that never spilled.
const NO_SIDE_LIST: u32 = u32::MAX;

/// Everything the directory knows about one page, in one cache line: the
/// global heat, the per-epoch heat memo and, for up to [`INLINE_HOLDERS`]
/// copies, the holders. Every per-page query of a protocol step or a
/// benefit computation reads this one line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct PageRecord {
    /// Global (system-wide) heat estimator; empty until the first access.
    heat: HeatEstimator,
    /// Heat value as of the last dissemination message (0 before the
    /// first).
    published: f64,
    /// The global heat the memo read at epoch stamp `memo_stamp`.
    memo_heat: f64,
    /// Epoch stamp of the memo (0 = never read).
    memo_stamp: u64,
    /// Index of the page's side list in `Directory::side_lists`, or
    /// [`NO_SIDE_LIST`]. Kept once assigned, so a page allocates its side
    /// list at most once.
    side: u32,
    /// Number of holders.
    count: u16,
    /// The holders in the order their copies appeared, while `count` is at
    /// most [`INLINE_HOLDERS`]; the side list holds them beyond that.
    inline: [NodeId; INLINE_HOLDERS],
}

impl PageRecord {
    const EMPTY: PageRecord = PageRecord {
        heat: HeatEstimator::new(),
        published: 0.0,
        memo_heat: 0.0,
        memo_stamp: 0,
        side: NO_SIDE_LIST,
        count: 0,
        inline: [NodeId(0); INLINE_HOLDERS],
    };

    fn spilled(&self) -> bool {
        usize::from(self.count) > INLINE_HOLDERS
    }
}

/// Exact global cache state plus heat-dissemination bookkeeping, one dense
/// cache-line record per database page: every query is an indexed load.
/// Page ids must be below the `db_pages` the directory was built for.
#[derive(Debug, Clone)]
pub struct Directory {
    pages: Vec<PageRecord>,
    /// Holder lists longer than [`INLINE_HOLDERS`], indexed by
    /// `PageRecord::side`. A list that shrinks back inline is emptied, not
    /// freed, and the page reuses it when it spills again.
    side_lists: Vec<Vec<NodeId>>,
    /// Per goal class: number of dedicated pools in the whole system. A
    /// class's heat is tracked only while this is non-zero (§6).
    dedicated_pools: Vec<u32>,
    publish_threshold: f64,
    /// Control messages the coherence protocol generated (charged by the
    /// data plane).
    publish_events: u64,
}

impl Directory {
    /// Empty directory over pages `0..db_pages` for `goal_classes` goal
    /// classes.
    pub fn new(db_pages: u32, goal_classes: usize, publish_threshold: f64) -> Self {
        Directory {
            pages: vec![PageRecord::EMPTY; db_pages as usize],
            side_lists: Vec::new(),
            dedicated_pools: vec![0; goal_classes + 1],
            publish_threshold,
            publish_events: 0,
        }
    }

    /// Nodes currently caching `page`, in the order their copies appeared.
    #[inline]
    pub fn holders(&self, page: PageId) -> &[NodeId] {
        let rec = &self.pages[page.index()];
        if rec.spilled() {
            &self.side_lists[rec.side as usize]
        } else {
            &rec.inline[..usize::from(rec.count)]
        }
    }

    /// Number of cached copies of `page`.
    #[inline]
    pub fn copies(&self, page: PageId) -> usize {
        usize::from(self.pages[page.index()].count)
    }

    /// True if `node` holds the only cached copy of `page`.
    #[inline]
    pub fn is_last_copy(&self, page: PageId, node: NodeId) -> bool {
        let rec = &self.pages[page.index()];
        rec.count == 1 && rec.inline[0] == node
    }

    /// A caching node other than `requester`, preferring the one listed
    /// first (deterministic). Returns `None` if no other copy exists.
    pub fn pick_holder(&self, page: PageId, requester: NodeId) -> Option<NodeId> {
        self.holders(page).iter().copied().find(|&n| n != requester)
    }

    /// Registers a copy of `page` at `node`. Idempotent.
    pub fn add_copy(&mut self, page: PageId, node: NodeId) {
        if self.holders(page).contains(&node) {
            return;
        }
        let rec = &mut self.pages[page.index()];
        let count = usize::from(rec.count);
        rec.count += 1;
        if count < INLINE_HOLDERS {
            rec.inline[count] = node;
            return;
        }
        if count == INLINE_HOLDERS {
            if rec.side == NO_SIDE_LIST {
                rec.side = self.side_lists.len() as u32;
                self.side_lists.push(Vec::with_capacity(2 * INLINE_HOLDERS));
            }
            self.side_lists[rec.side as usize].extend_from_slice(&rec.inline);
        }
        self.side_lists[rec.side as usize].push(node);
    }

    /// Removes `node`'s copy. Returns the remaining copy count.
    pub fn remove_copy(&mut self, page: PageId, node: NodeId) -> usize {
        let Some(at) = self.holders(page).iter().position(|&n| n == node) else {
            return self.copies(page);
        };
        let rec = &mut self.pages[page.index()];
        let count = usize::from(rec.count);
        rec.count -= 1;
        if count <= INLINE_HOLDERS {
            rec.inline.copy_within(at + 1..count, at);
        } else {
            let side = &mut self.side_lists[rec.side as usize];
            side.remove(at);
            if side.len() == INLINE_HOLDERS {
                rec.inline.copy_from_slice(side);
                side.clear();
            }
        }
        count - 1
    }

    /// Records a system-wide access to `page` at `now`. Returns `true` when
    /// the threshold protocol would publish the new heat (the caller charges
    /// one control message to the page's home).
    pub fn record_access(&mut self, page: PageId, now: SimTime) -> bool {
        let rec = &mut self.pages[page.index()];
        rec.heat.record(now);
        let heat = rec.heat.heat_per_ms(now);
        let drift = (heat - rec.published).abs();
        if drift > self.publish_threshold * rec.published.max(1e-9) {
            rec.published = heat;
            self.publish_events += 1;
            true
        } else {
            false
        }
    }

    /// Global heat of `page` in accesses/ms.
    pub fn global_heat_per_ms(&self, page: PageId, now: SimTime) -> f64 {
        self.pages[page.index()].heat.heat_per_ms(now)
    }

    /// [`Self::global_heat_per_ms`] memoized per epoch: the first read
    /// under a new `stamp` (≥ 1) computes the heat at `now` and stores it,
    /// later reads under the same stamp return the stored value. The flag
    /// says whether the memo answered.
    pub(crate) fn memo_global_heat(
        &mut self,
        page: PageId,
        now: SimTime,
        stamp: u64,
    ) -> (f64, bool) {
        let rec = &mut self.pages[page.index()];
        if rec.memo_stamp == stamp {
            return (rec.memo_heat, true);
        }
        rec.memo_heat = rec.heat.heat_per_ms(now);
        rec.memo_stamp = stamp;
        (rec.memo_heat, false)
    }

    /// Stamp of `page`'s last memo fill (0 = never read).
    #[inline]
    pub(crate) fn memo_stamp(&self, page: PageId) -> u64 {
        self.pages[page.index()].memo_stamp
    }

    /// Prefetches `page`'s record (see [`dmm_sim::prefetch()`]).
    #[inline]
    pub(crate) fn prefetch(&self, page: PageId) {
        dmm_sim::prefetch(&self.pages[page.index()]);
    }

    /// Number of dissemination messages generated so far.
    pub fn publish_events(&self) -> u64 {
        self.publish_events
    }

    /// Called when a dedicated pool for `class` appears (`delta = +1`) or
    /// disappears (`delta = −1`) on some node.
    pub fn dedicated_pool_changed(&mut self, class: ClassId, delta: i32) {
        let c = &mut self.dedicated_pools[class.index()];
        if delta > 0 {
            *c += delta as u32;
        } else {
            *c = c.saturating_sub((-delta) as u32);
        }
    }

    /// True while at least one dedicated pool for `class` exists anywhere —
    /// the §6 condition for collecting that class's heat.
    #[inline]
    pub fn class_tracked(&self, class: ClassId) -> bool {
        if class.is_no_goal() {
            return false;
        }
        self.dedicated_pools[class.index()] > 0
    }

    /// Debug invariant: no duplicate holders; a spilled list lives whole in
    /// its side list, and an unspilled page's side list is empty.
    pub fn check_invariants(&self) {
        for (p, rec) in self.pages.iter().enumerate() {
            let page = PageId(p as u32);
            let side = self.side_lists.get(rec.side as usize);
            assert_eq!(
                rec.side == NO_SIDE_LIST,
                side.is_none(),
                "p{p}: dangling side list {}",
                rec.side
            );
            if rec.spilled() {
                assert_eq!(
                    side.map(Vec::len),
                    Some(usize::from(rec.count)),
                    "p{p}: spilled count disagrees with its side list"
                );
            } else {
                assert!(side.is_none_or(Vec::is_empty), "p{p}: stale side list");
            }
            let holders = self.holders(page);
            for (i, n) in holders.iter().enumerate() {
                assert!(!holders[..i].contains(n), "duplicate holders for p{p}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmm_buffer::NO_GOAL;

    fn ms(x: u64) -> SimTime {
        SimTime::from_nanos(x * 1_000_000)
    }

    #[test]
    fn copy_tracking_and_last_copy() {
        let mut d = Directory::new(8, 2, 0.2);
        d.add_copy(PageId(1), NodeId(0));
        assert!(d.is_last_copy(PageId(1), NodeId(0)));
        d.add_copy(PageId(1), NodeId(2));
        d.add_copy(PageId(1), NodeId(2)); // idempotent
        assert_eq!(d.copies(PageId(1)), 2);
        assert!(!d.is_last_copy(PageId(1), NodeId(0)));
        assert_eq!(d.pick_holder(PageId(1), NodeId(0)), Some(NodeId(2)));
        assert_eq!(d.pick_holder(PageId(1), NodeId(2)), Some(NodeId(0)));
        assert_eq!(d.remove_copy(PageId(1), NodeId(0)), 1);
        assert!(d.is_last_copy(PageId(1), NodeId(2)));
        assert_eq!(d.remove_copy(PageId(1), NodeId(2)), 0);
        assert_eq!(d.pick_holder(PageId(1), NodeId(0)), None);
        d.check_invariants();
    }

    #[test]
    fn a_page_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<PageRecord>(), 64);
        assert_eq!(std::mem::align_of::<PageRecord>(), 64);
    }

    #[test]
    fn a_spilled_list_keeps_order_and_is_allocated_once() {
        let p = PageId(2);
        let mut d = Directory::new(4, 1, 0.2);
        let spill = |d: &mut Directory| {
            for n in 0..=INLINE_HOLDERS as u16 {
                d.add_copy(p, NodeId(n));
            }
        };
        spill(&mut d);
        assert_eq!(d.copies(p), INLINE_HOLDERS + 1);
        let side = d.holders(p).as_ptr();
        // Removing from the middle keeps the insertion order, and the list
        // moves back inline at seven holders.
        assert_eq!(d.remove_copy(p, NodeId(3)), INLINE_HOLDERS);
        assert_eq!(d.holders(p), [0, 1, 2, 4, 5, 6, 7].map(NodeId));
        d.check_invariants();
        for n in [0, 1, 2, 4, 5, 6, 7] {
            d.remove_copy(p, NodeId(n));
        }
        assert_eq!(d.copies(p), 0);
        // Spilling again reuses the page's side list.
        spill(&mut d);
        assert_eq!(d.holders(p), (0..=7).map(NodeId).collect::<Vec<_>>());
        assert_eq!(d.holders(p).as_ptr(), side);
        assert_eq!(d.side_lists.len(), 1);
        d.check_invariants();
    }

    #[test]
    fn the_heat_memo_answers_within_its_stamp() {
        let mut d = Directory::new(4, 1, 0.2);
        d.record_access(PageId(1), ms(0));
        d.record_access(PageId(1), ms(10));
        assert_eq!(d.memo_stamp(PageId(1)), 0);
        let (heat, hit) = d.memo_global_heat(PageId(1), ms(10), 1);
        assert!(!hit);
        assert_eq!(heat, d.global_heat_per_ms(PageId(1), ms(10)));
        // A later read under the same stamp returns the stored heat.
        assert_eq!(d.memo_global_heat(PageId(1), ms(40), 1), (heat, true));
        let (later, hit) = d.memo_global_heat(PageId(1), ms(40), 2);
        assert!(!hit && later < heat);
        assert_eq!(d.memo_stamp(PageId(1)), 2);
    }

    #[test]
    fn first_access_publishes() {
        let mut d = Directory::new(8, 1, 0.2);
        assert!(d.record_access(PageId(1), ms(1)));
        assert_eq!(d.publish_events(), 1);
    }

    #[test]
    fn steady_heat_stops_publishing() {
        let mut d = Directory::new(8, 1, 0.5);
        // Perfectly regular accesses: after the window fills, heat is
        // constant and no further publishes occur.
        let mut publishes = 0;
        for i in 1..100u64 {
            if d.record_access(PageId(1), ms(i * 10)) {
                publishes += 1;
            }
        }
        assert!(publishes < 6, "published {publishes} times");
        assert!(d.global_heat_per_ms(PageId(1), ms(1000)) > 0.0);
    }

    #[test]
    fn class_tracking_counts_pools() {
        let mut d = Directory::new(8, 2, 0.2);
        assert!(!d.class_tracked(ClassId(1)));
        assert!(!d.class_tracked(NO_GOAL));
        d.dedicated_pool_changed(ClassId(1), 1);
        d.dedicated_pool_changed(ClassId(1), 1);
        assert!(d.class_tracked(ClassId(1)));
        d.dedicated_pool_changed(ClassId(1), -1);
        assert!(d.class_tracked(ClassId(1)));
        d.dedicated_pool_changed(ClassId(1), -1);
        assert!(!d.class_tracked(ClassId(1)));
        // Underflow-safe.
        d.dedicated_pool_changed(ClassId(1), -1);
        assert!(!d.class_tracked(ClassId(1)));
    }
}
