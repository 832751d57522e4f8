//! A fixed-capacity page pool driving one replacement policy.

use dmm_sim::SimTime;

use crate::page::PageId;
use crate::policy::{Policy, PolicyKind, PolicySpec};

/// Hit/miss accounting per pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses satisfied by this pool.
    pub hits: u64,
    /// Accesses this pool was responsible for but could not satisfy.
    pub misses: u64,
    /// Pages inserted.
    pub insertions: u64,
    /// Pages evicted by capacity pressure or shrinking.
    pub evictions: u64,
    /// Capacity changes applied to the pool.
    pub resizes: u64,
}

impl PoolStats {
    /// Hit rate over recorded accesses (0 if none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another pool's counters into this one.
    pub fn merge(&mut self, other: &PoolStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.resizes += other.resizes;
    }
}

/// A bounded set of resident pages with a replacement policy. The policy
/// tracks exactly the resident pages, so its index — a heap's dense
/// position table, or CLOCK's frame map — is the pool's membership.
#[derive(Debug, Clone)]
pub struct Pool {
    capacity: usize,
    policy: PolicyKind,
    spec: PolicySpec,
    stats: PoolStats,
}

impl Pool {
    /// Creates an empty pool with room for `capacity` pages.
    pub fn new(capacity: usize, spec: PolicySpec) -> Self {
        Pool {
            capacity,
            policy: spec.build(),
            spec,
            stats: PoolStats::default(),
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.policy.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.policy.is_empty()
    }

    /// The policy specification this pool was built with.
    pub fn spec(&self) -> PolicySpec {
        self.spec
    }

    /// True if `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.policy.contains(page)
    }

    /// Iterates over resident pages in the policy's storage order (heap
    /// array order for the heap-backed policies). Allocates nothing.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.policy.len()).map(|slot| self.policy.page_at(slot))
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Resets accounting (e.g. at the end of simulation warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// Records a hit on a resident page. Panics if the page is absent.
    pub fn on_hit(&mut self, page: PageId, now: SimTime) {
        assert!(self.policy.contains(page), "hit on non-resident page");
        self.policy.on_access(page, now);
        self.stats.hits += 1;
    }

    /// Records a miss charged to this pool (the page will typically be
    /// inserted once fetched).
    pub fn on_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Inserts a page, evicting to respect capacity. A pool never holds
    /// more than `capacity` pages, so at most one page has to leave; it is
    /// returned. Panics if the pool has zero capacity or the page is
    /// already resident.
    pub fn insert(&mut self, page: PageId, now: SimTime) -> Option<PageId> {
        assert!(self.capacity > 0, "insert into zero-capacity pool");
        assert!(!self.policy.contains(page), "page already resident");
        debug_assert!(self.len() <= self.capacity, "pool over capacity");
        let evicted = (self.len() >= self.capacity).then(|| {
            let victim = self.policy.victim().expect("non-empty pool has victim");
            self.evict(victim);
            victim
        });
        self.policy.on_insert(page, now);
        self.stats.insertions += 1;
        evicted
    }

    /// Removes a page without counting it as a capacity eviction (e.g. the
    /// page migrates from the no-goal pool into a dedicated pool, §6).
    /// Returns true if the page was resident.
    pub fn remove(&mut self, page: PageId) -> bool {
        let resident = self.policy.contains(page);
        if resident {
            self.policy.on_remove(page);
        }
        resident
    }

    /// Shrinks or grows capacity; shrinking evicts overflowing pages, which
    /// are appended to `evicted` in eviction order.
    pub fn set_capacity(&mut self, capacity: usize, evicted: &mut Vec<PageId>) {
        if capacity != self.capacity {
            self.stats.resizes += 1;
        }
        self.capacity = capacity;
        while self.len() > self.capacity {
            let victim = self.policy.victim().expect("non-empty pool has victim");
            self.evict(victim);
            evicted.push(victim);
        }
    }

    /// Immutable access to the policy (victim freshness peeks).
    #[inline]
    pub fn policy(&self) -> &PolicyKind {
        &self.policy
    }

    /// Mutable access to the policy, for cost-based benefit updates.
    #[inline]
    pub fn policy_mut(&mut self) -> &mut PolicyKind {
        &mut self.policy
    }

    fn evict(&mut self, victim: PageId) {
        debug_assert!(self.policy.contains(victim), "victim not resident");
        self.policy.on_remove(victim);
        self.stats.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn insert_until_eviction() {
        let mut pool = Pool::new(2, PolicySpec::Lru);
        assert_eq!(pool.insert(PageId(1), t(0)), None);
        assert_eq!(pool.insert(PageId(2), t(1)), None);
        let evicted = pool.insert(PageId(3), t(2));
        assert_eq!(evicted, Some(PageId(1)));
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(PageId(2)));
        assert!(pool.contains(PageId(3)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn hits_update_recency() {
        let mut pool = Pool::new(2, PolicySpec::Lru);
        pool.insert(PageId(1), t(0));
        pool.insert(PageId(2), t(1));
        pool.on_hit(PageId(1), t(2));
        let evicted = pool.insert(PageId(3), t(3));
        assert_eq!(evicted, Some(PageId(2)));
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn shrink_evicts_and_grow_keeps() {
        let mut pool = Pool::new(4, PolicySpec::Lru);
        for i in 0..4u32 {
            pool.insert(PageId(i), t(i as u64));
        }
        let mut evicted = Vec::new();
        pool.set_capacity(2, &mut evicted);
        assert_eq!(evicted, vec![PageId(0), PageId(1)]);
        assert_eq!(pool.len(), 2);
        pool.set_capacity(10, &mut evicted);
        assert_eq!(evicted.len(), 2, "growing evicts nothing");
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn remove_is_not_an_eviction() {
        let mut pool = Pool::new(2, PolicySpec::Lru);
        pool.insert(PageId(1), t(0));
        assert!(pool.remove(PageId(1)));
        assert!(!pool.remove(PageId(1)));
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut pool = Pool::new(2, PolicySpec::Lru);
        pool.insert(PageId(1), t(0));
        pool.on_hit(PageId(1), t(1));
        pool.on_miss();
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-12);
        pool.reset_stats();
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_insert_panics() {
        let mut pool = Pool::new(0, PolicySpec::Lru);
        pool.insert(PageId(1), t(0));
    }

    #[test]
    fn capacity_one_churns() {
        let mut pool = Pool::new(1, PolicySpec::Fifo);
        assert_eq!(pool.insert(PageId(1), t(0)), None);
        assert_eq!(pool.insert(PageId(2), t(1)), Some(PageId(1)));
        assert_eq!(pool.insert(PageId(3), t(2)), Some(PageId(2)));
    }
}
