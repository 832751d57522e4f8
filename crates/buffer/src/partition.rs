//! The per-node partitioned buffer manager.
//!
//! Each node's reserved memory is split into at most one dedicated pool per
//! goal class plus the no-goal pool, which always owns every undedicated
//! frame (paper §3, Eq. 7). A page is resident in **exactly one** local pool.
//! Access and insertion follow §6:
//!
//! * a request by class `k` that finds the page in *any* dedicated pool is a
//!   plain hit;
//! * if `k` has a dedicated pool and the page sits in the no-goal pool, the
//!   page *moves* into `k`'s pool ("acquired … from the local no-goal buffer,
//!   from which it is removed");
//! * on a local miss the fetched page is installed in `k`'s dedicated pool if
//!   one exists, else in the no-goal pool;
//! * pages evicted from any pool leave the node entirely.
//!
//! Resizing is best-effort (§5(e)): a request is granted up to the memory
//! not dedicated to other classes, and the caller learns the granted size.

use dmm_sim::SimTime;

use crate::page::{ClassId, PageId, NO_GOAL};
use crate::policy::PolicySpec;
use crate::pool::{Pool, PoolStats};

/// Result of a local access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalAccess {
    /// The page was found; `pool` is the pool that satisfied the hit.
    Hit {
        /// Pool that held the page.
        pool: ClassId,
    },
    /// The page was found in the no-goal pool and migrated into the
    /// requesting class's dedicated pool. Still a hit (no I/O); `evicted`
    /// is the page the migration displaced from the dedicated pool, if it
    /// was full — that page left the node.
    MovedToDedicated {
        /// Page displaced by the migration.
        evicted: Option<PageId>,
    },
    /// The page is not resident on this node.
    Miss,
}

/// Result of installing a freshly fetched page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallOutcome {
    /// False when no frame was available (the page passed through uncached).
    pub cached: bool,
    /// The page displaced to make room, if the pool was full; it has left
    /// the node.
    pub evicted: Option<PageId>,
}

/// [`PartitionedBuffer::owner`] entry of a page no pool holds.
const NOT_RESIDENT: u16 = u16::MAX;

/// Per-node partitioned buffer: pools indexed by class id (0 = no-goal).
#[derive(Debug, Clone)]
pub struct PartitionedBuffer {
    total_pages: usize,
    pools: Vec<Pool>,
    /// Class of the pool holding each page, indexed densely by page id;
    /// [`NOT_RESIDENT`] for a page on no pool. Sized once for the database;
    /// a page id past the end grows it on install.
    owner: Vec<u16>,
    /// Pages with an owner entry — `total_resident` without a scan.
    resident_pages: usize,
}

impl PartitionedBuffer {
    /// Creates a buffer of `total_pages` frames supporting goal classes
    /// `1..=num_goal_classes`, for a database of page ids `0..db_pages`.
    /// Initially everything belongs to the no-goal pool.
    pub fn new(
        total_pages: usize,
        num_goal_classes: usize,
        spec: PolicySpec,
        db_pages: usize,
    ) -> Self {
        assert!(total_pages > 0, "node must have at least one frame");
        assert!(
            num_goal_classes < usize::from(NOT_RESIDENT),
            "at most {} goal classes, got {num_goal_classes}",
            NOT_RESIDENT - 1
        );
        let mut pools = Vec::with_capacity(num_goal_classes + 1);
        pools.push(Pool::new(total_pages, spec));
        for _ in 0..num_goal_classes {
            pools.push(Pool::new(0, spec));
        }
        for pool in &mut pools {
            pool.policy_mut().reserve_pages(db_pages);
        }
        PartitionedBuffer {
            total_pages,
            pools,
            owner: vec![NOT_RESIDENT; db_pages],
            resident_pages: 0,
        }
    }

    /// Total frames on this node.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Number of goal classes supported.
    pub fn num_goal_classes(&self) -> usize {
        self.pools.len() - 1
    }

    /// Dedicated pool size of `class` in pages (0 for the no-goal class's
    /// "dedication" — ask [`Self::no_goal_capacity`] instead).
    pub fn dedicated_pages(&self, class: ClassId) -> usize {
        if class.is_no_goal() {
            0
        } else {
            self.pools[class.index()].capacity()
        }
    }

    /// Current capacity of the no-goal pool.
    pub fn no_goal_capacity(&self) -> usize {
        self.pools[0].capacity()
    }

    /// Sum of all dedicated pool capacities.
    pub fn total_dedicated_pages(&self) -> usize {
        self.pools[1..].iter().map(Pool::capacity).sum()
    }

    /// Frames available to `class`: `SIZE − Σ_{l≠class} LM_l` (paper
    /// Eq. 6), the most a resize can grant it.
    pub fn avail_pages(&self, class: ClassId) -> usize {
        self.total_pages - self.total_dedicated_pages() + self.dedicated_pages(class)
    }

    /// True if `class` currently has a dedicated pool on this node.
    pub fn has_dedicated(&self, class: ClassId) -> bool {
        !class.is_no_goal() && self.pools[class.index()].capacity() > 0
    }

    /// Which pool holds `page`, if any.
    pub fn lookup(&self, page: PageId) -> Option<ClassId> {
        match self.owner.get(page.index()) {
            Some(&c) if c != NOT_RESIDENT => Some(ClassId(c)),
            _ => None,
        }
    }

    /// Prefetches `page`'s owner entry (see [`dmm_sim::prefetch()`]).
    pub(crate) fn prefetch_owner(&self, page: PageId) {
        if let Some(owner) = self.owner.get(page.index()) {
            dmm_sim::prefetch(owner);
        }
    }

    /// True if the page is resident anywhere on this node.
    pub fn resident(&self, page: PageId) -> bool {
        self.lookup(page).is_some()
    }

    /// Total resident pages across pools.
    pub fn total_resident(&self) -> usize {
        self.resident_pages
    }

    /// Pool accounting for `class`'s pool (class 0 = no-goal pool).
    pub fn pool_stats(&self, class: ClassId) -> PoolStats {
        self.pools[class.index()].stats()
    }

    /// Immutable pool access (for inspection and pricing walks).
    pub fn pool(&self, class: ClassId) -> &Pool {
        &self.pools[class.index()]
    }

    /// Mutable pool access (for cost-based benefit updates).
    pub fn pool_mut(&mut self, class: ClassId) -> &mut Pool {
        &mut self.pools[class.index()]
    }

    /// Resets all pool statistics.
    pub fn reset_stats(&mut self) {
        for p in &mut self.pools {
            p.reset_stats();
        }
    }

    /// Attempts a local access by `class` for `page` per the §6 rules.
    /// On `Miss` the miss is charged to the pool the page would live in.
    pub fn access(&mut self, class: ClassId, page: PageId, now: SimTime) -> LocalAccess {
        let target = self.target_pool(class);
        match self.lookup(page) {
            Some(holder) if holder.is_no_goal() && !target.is_no_goal() => {
                // Hit in the no-goal buffer; migrate into the dedicated pool.
                self.pools[0].on_hit(page, now);
                let removed = self.pools[0].remove(page);
                debug_assert!(removed);
                self.clear_owner(page);
                let evicted = self.install_in(target, page, now);
                LocalAccess::MovedToDedicated { evicted }
            }
            Some(holder) => {
                self.pools[holder.index()].on_hit(page, now);
                LocalAccess::Hit { pool: holder }
            }
            None => {
                self.pools[target.index()].on_miss();
                LocalAccess::Miss
            }
        }
    }

    /// Installs a freshly fetched page for `class`; returns the install
    /// outcome. If the target pool has zero frames (every frame is dedicated
    /// elsewhere) the page is used without being cached (`cached == false`).
    /// Panics if the page is already resident.
    pub fn install(&mut self, class: ClassId, page: PageId, now: SimTime) -> InstallOutcome {
        assert!(!self.resident(page), "page already resident");
        let target = self.target_pool(class);
        if self.pools[target.index()].capacity() == 0 {
            return InstallOutcome {
                cached: false,
                evicted: None,
            };
        }
        let evicted = self.install_in(target, page, now);
        InstallOutcome {
            cached: true,
            evicted,
        }
    }

    /// Drops `page` from whatever pool holds it. Returns true if it was
    /// resident.
    pub fn drop_page(&mut self, page: PageId) -> bool {
        match self.lookup(page) {
            Some(holder) => {
                let removed = self.pools[holder.index()].remove(page);
                debug_assert!(removed);
                self.clear_owner(page);
                true
            }
            None => false,
        }
    }

    /// Best-effort resize of `class`'s dedicated pool (§5(e)): grants at most
    /// the frames not dedicated to other goal classes, reassigns the
    /// remainder to the no-goal pool, and returns `(granted, evicted)` where
    /// `evicted` pages left the node.
    pub fn set_dedicated(
        &mut self,
        class: ClassId,
        requested_pages: usize,
    ) -> (usize, Vec<PageId>) {
        assert!(
            !class.is_no_goal(),
            "cannot dedicate memory to the no-goal class"
        );
        let avail = self.avail_pages(class);
        let granted = requested_pages.min(avail);
        let no_goal_cap = avail - granted;

        let mut evicted = Vec::new();
        // Shrinks first so frames are free before any pool grows.
        if granted < self.pools[class.index()].capacity() {
            evicted.extend(self.shrink(class.index(), granted));
        }
        if no_goal_cap < self.pools[0].capacity() {
            evicted.extend(self.shrink(0, no_goal_cap));
        }
        self.pools[class.index()].set_capacity(granted);
        self.pools[0].set_capacity(no_goal_cap);
        (granted, evicted)
    }

    fn shrink(&mut self, pool_idx: usize, cap: usize) -> Vec<PageId> {
        let evicted = self.pools[pool_idx].set_capacity(cap);
        for &p in &evicted {
            self.clear_owner(p);
        }
        evicted
    }

    fn install_in(&mut self, target: ClassId, page: PageId, now: SimTime) -> Option<PageId> {
        let evicted = self.pools[target.index()].insert(page, now);
        if let Some(p) = evicted {
            self.clear_owner(p);
        }
        let i = page.index();
        if i >= self.owner.len() {
            self.owner.resize(i + 1, NOT_RESIDENT);
        }
        debug_assert_eq!(self.owner[i], NOT_RESIDENT);
        self.owner[i] = target.0;
        self.resident_pages += 1;
        evicted
    }

    /// Forgets the owner of a page that just left its pool.
    fn clear_owner(&mut self, page: PageId) {
        debug_assert!(self.resident(page), "{page} has no owner to clear");
        self.owner[page.index()] = NOT_RESIDENT;
        self.resident_pages -= 1;
    }

    /// The pool an access by `class` targets: the class's dedicated pool if
    /// present, else the no-goal pool.
    pub fn target_pool(&self, class: ClassId) -> ClassId {
        if self.has_dedicated(class) {
            class
        } else {
            NO_GOAL
        }
    }

    /// Debug invariant: owner table and pool contents agree, and no pool
    /// exceeds its capacity; capacities sum to the node total.
    pub fn check_invariants(&self) {
        let cap_sum: usize = self.pools.iter().map(Pool::capacity).sum();
        assert_eq!(cap_sum, self.total_pages, "capacities must sum to total");
        let mut counted = 0;
        for (i, pool) in self.pools.iter().enumerate() {
            assert!(pool.len() <= pool.capacity(), "pool over capacity");
            for page in pool.pages() {
                assert_eq!(
                    self.lookup(page),
                    Some(ClassId(i as u16)),
                    "owner table out of sync"
                );
                counted += 1;
            }
        }
        let owned = self.owner.iter().filter(|&&c| c != NOT_RESIDENT).count();
        assert_eq!(counted, owned, "stray owner entries");
        assert_eq!(counted, self.resident_pages, "resident counter out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn buf() -> PartitionedBuffer {
        PartitionedBuffer::new(8, 2, PolicySpec::Lru, 16)
    }

    #[test]
    fn initial_layout() {
        let b = buf();
        assert_eq!(b.no_goal_capacity(), 8);
        assert_eq!(b.dedicated_pages(ClassId(1)), 0);
        assert!(!b.has_dedicated(ClassId(1)));
        b.check_invariants();
    }

    #[test]
    fn miss_then_install_goes_to_no_goal_without_dedication() {
        let mut b = buf();
        assert_eq!(b.access(ClassId(1), PageId(5), t(0)), LocalAccess::Miss);
        let out = b.install(ClassId(1), PageId(5), t(1));
        assert!(out.cached && out.evicted.is_none());
        assert_eq!(b.lookup(PageId(5)), Some(NO_GOAL));
        b.check_invariants();
    }

    #[test]
    fn dedicated_pool_attracts_pages() {
        let mut b = buf();
        let (granted, _) = b.set_dedicated(ClassId(1), 3);
        assert_eq!(granted, 3);
        assert_eq!(b.no_goal_capacity(), 5);
        assert_eq!(b.access(ClassId(1), PageId(5), t(0)), LocalAccess::Miss);
        b.install(ClassId(1), PageId(5), t(1));
        assert_eq!(b.lookup(PageId(5)), Some(ClassId(1)));
        b.check_invariants();
    }

    #[test]
    fn no_goal_hit_migrates_into_dedicated_pool() {
        let mut b = buf();
        // Page enters via a no-goal access.
        b.access(NO_GOAL, PageId(7), t(0));
        b.install(NO_GOAL, PageId(7), t(1));
        assert_eq!(b.lookup(PageId(7)), Some(NO_GOAL));
        // Class 1 gets a pool, then touches the page: it migrates.
        b.set_dedicated(ClassId(1), 2);
        match b.access(ClassId(1), PageId(7), t(2)) {
            LocalAccess::MovedToDedicated { evicted } => assert_eq!(evicted, None),
            other => panic!("expected migration, got {other:?}"),
        }
        assert_eq!(b.lookup(PageId(7)), Some(ClassId(1)));
        b.check_invariants();
    }

    #[test]
    fn hit_in_foreign_dedicated_pool_stays_put() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 2);
        b.access(ClassId(1), PageId(3), t(0));
        b.install(ClassId(1), PageId(3), t(1));
        // Class 2 (no pool of its own) touches the page: plain hit, no move.
        assert_eq!(
            b.access(ClassId(2), PageId(3), t(2)),
            LocalAccess::Hit { pool: ClassId(1) }
        );
        assert_eq!(b.lookup(PageId(3)), Some(ClassId(1)));
    }

    #[test]
    fn grants_are_bounded_by_other_dedications() {
        let mut b = buf();
        let (g1, _) = b.set_dedicated(ClassId(1), 6);
        assert_eq!(g1, 6);
        let (g2, _) = b.set_dedicated(ClassId(2), 5);
        assert_eq!(g2, 2, "only 8 - 6 frames remain");
        assert_eq!(b.no_goal_capacity(), 0);
        b.check_invariants();
    }

    #[test]
    fn shrinking_no_goal_evicts_its_pages() {
        let mut b = buf();
        for i in 0..8u32 {
            b.access(NO_GOAL, PageId(i), t(i as u64));
            b.install(NO_GOAL, PageId(i), t(i as u64));
        }
        assert_eq!(b.total_resident(), 8);
        let (granted, evicted) = b.set_dedicated(ClassId(1), 3);
        assert_eq!(granted, 3);
        assert_eq!(evicted.len(), 3, "no-goal shrank 8 → 5");
        assert_eq!(b.total_resident(), 5);
        for p in &evicted {
            assert!(!b.resident(*p));
        }
        b.check_invariants();
    }

    #[test]
    fn shrinking_dedicated_returns_frames_to_no_goal() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 4);
        for i in 0..4u32 {
            b.access(ClassId(1), PageId(i), t(i as u64));
            b.install(ClassId(1), PageId(i), t(i as u64));
        }
        let (granted, evicted) = b.set_dedicated(ClassId(1), 1);
        assert_eq!(granted, 1);
        assert_eq!(evicted.len(), 3);
        assert_eq!(b.no_goal_capacity(), 7);
        b.check_invariants();
    }

    #[test]
    fn dedicated_eviction_drops_pages_from_node() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 2);
        for i in 0..3u32 {
            b.access(ClassId(1), PageId(i), t(i as u64));
            let out = b.install(ClassId(1), PageId(i), t(i as u64));
            if i == 2 {
                assert_eq!(out.evicted, Some(PageId(0)));
            }
        }
        assert!(!b.resident(PageId(0)), "victim left the node entirely");
        b.check_invariants();
    }

    #[test]
    fn miss_charged_to_target_pool() {
        let mut b = buf();
        b.set_dedicated(ClassId(1), 2);
        b.access(ClassId(1), PageId(9), t(0));
        assert_eq!(b.pool_stats(ClassId(1)).misses, 1);
        assert_eq!(b.pool_stats(NO_GOAL).misses, 0);
        b.access(ClassId(2), PageId(9), t(1));
        assert_eq!(b.pool_stats(NO_GOAL).misses, 1);
    }

    #[test]
    fn drop_page_removes_everywhere() {
        let mut b = buf();
        b.install(NO_GOAL, PageId(1), t(0));
        assert!(b.drop_page(PageId(1)));
        assert!(!b.drop_page(PageId(1)));
        assert!(!b.resident(PageId(1)));
        b.check_invariants();
    }
}
