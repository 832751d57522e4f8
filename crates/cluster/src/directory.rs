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

/// Everything the directory knows about one page.
#[derive(Debug, Clone)]
struct PageEntry {
    /// Nodes currently caching a copy, in the order the copies appeared
    /// (small, usually ≤ N). The storage survives the list emptying, so a
    /// page that cycles in and out of memory allocates once.
    holders: Vec<NodeId>,
    /// Global (system-wide) heat estimator; empty until the first access.
    heat: HeatEstimator,
    /// Heat value as of the last dissemination message (0 before the
    /// first).
    published: f64,
}

/// Exact global cache state plus heat-dissemination bookkeeping, one dense
/// entry per database page: every query is an indexed load. Page ids must be
/// below the `db_pages` the directory was built for.
#[derive(Debug, Clone)]
pub struct Directory {
    pages: Vec<PageEntry>,
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
        let entry = PageEntry {
            holders: Vec::new(),
            heat: HeatEstimator::new(),
            published: 0.0,
        };
        Directory {
            pages: vec![entry; db_pages as usize],
            dedicated_pools: vec![0; goal_classes + 1],
            publish_threshold,
            publish_events: 0,
        }
    }

    /// Nodes currently caching `page`, in the order their copies appeared.
    pub fn holders(&self, page: PageId) -> &[NodeId] {
        &self.pages[page.index()].holders
    }

    /// Number of cached copies of `page`.
    pub fn copies(&self, page: PageId) -> usize {
        self.holders(page).len()
    }

    /// True if `node` holds the only cached copy of `page`.
    pub fn is_last_copy(&self, page: PageId, node: NodeId) -> bool {
        self.holders(page) == [node]
    }

    /// A caching node other than `requester`, preferring the one listed
    /// first (deterministic). Returns `None` if no other copy exists.
    pub fn pick_holder(&self, page: PageId, requester: NodeId) -> Option<NodeId> {
        self.holders(page).iter().copied().find(|&n| n != requester)
    }

    /// Registers a copy of `page` at `node`. Idempotent.
    pub fn add_copy(&mut self, page: PageId, node: NodeId) {
        let h = &mut self.pages[page.index()].holders;
        if !h.contains(&node) {
            h.push(node);
        }
    }

    /// Removes `node`'s copy. Returns the remaining copy count.
    pub fn remove_copy(&mut self, page: PageId, node: NodeId) -> usize {
        let h = &mut self.pages[page.index()].holders;
        h.retain(|&n| n != node);
        h.len()
    }

    /// Records a system-wide access to `page` at `now`. Returns `true` when
    /// the threshold protocol would publish the new heat (the caller charges
    /// one control message to the page's home).
    pub fn record_access(&mut self, page: PageId, now: SimTime) -> bool {
        let entry = &mut self.pages[page.index()];
        entry.heat.record(now);
        let heat = entry.heat.heat_per_ms(now);
        let drift = (heat - entry.published).abs();
        if drift > self.publish_threshold * entry.published.max(1e-9) {
            entry.published = heat;
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
    pub fn class_tracked(&self, class: ClassId) -> bool {
        if class.is_no_goal() {
            return false;
        }
        self.dedicated_pools[class.index()] > 0
    }

    /// Debug invariant: no duplicate holders.
    pub fn check_invariants(&self) {
        for (page, entry) in self.pages.iter().enumerate() {
            let mut sorted = entry.holders.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                entry.holders.len(),
                "duplicate holders for p{page}"
            );
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
