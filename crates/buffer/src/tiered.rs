//! Multi-tier local memory: a stack of [`PartitionedBuffer`]s, one per
//! local memory tier, with demotion instead of eviction.
//!
//! The paper's node has a single local buffer; this module generalizes it
//! into K memory tiers (DRAM over CXL-style far memory, say), fastest
//! first. The per-tier partitioning rules (§3/§6: one dedicated pool per
//! goal class plus the no-goal pool) apply unchanged *within* each tier.
//! Across tiers:
//!
//! * under [`TierPolicy::Hotness`] a page evicted from tier `t` is
//!   **demoted**: it is re-installed in the first deeper tier with room for
//!   its pool, displacing that tier's victim downward in turn — one page
//!   per rung, a chain; only a page falling off the last memory tier leaves
//!   the node. A hit in tier `t > 0`
//!   **promotes** the page into the fastest tier with capacity for its
//!   class, cascading demotions to make room. Fresh installs take a free
//!   frame in the fastest tier that has one, but once every tier is full
//!   they enter the deepest tier *on probation* — a page must be re-hit to
//!   climb, so one-touch miss traffic cannot churn the fast tiers.
//! * under [`TierPolicy::StaticHash`] each page is pinned to one tier by a
//!   hash of its id, weighted by the tier frame counts — the classic static
//!   split baseline. No promotion, no demotion; evictions leave the node.
//!
//! With a single memory tier both policies degenerate to exactly the
//! historical [`PartitionedBuffer`] behaviour, which is what keeps default
//! configurations byte-identical (see DESIGN.md §5i).

use dmm_sim::SimTime;

use crate::page::{ClassId, PageId};
use crate::partition::{LocalAccess, PartitionedBuffer};
use crate::policy::PolicySpec;
use crate::pool::{Pool, PoolStats};

/// Placement policy across the local memory tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierPolicy {
    /// Hotness-based: fill free frames fastest-first, install on probation
    /// at the bottom under pressure, promote on access, demote on
    /// displacement.
    #[default]
    Hotness,
    /// Static split: pages are pinned to tiers by a hash of their id,
    /// proportionally to tier capacities.
    StaticHash,
}

/// Most memory tiers a [`TieredBuffer`] stacks; bounds the inline
/// [`Demoted`] list a displacement reports.
pub const MAX_TIERS: usize = 16;

/// The pages one displacement pushed into deeper tiers, in ladder order
/// (the page that left the shallowest tier first). A displacement carries
/// one page downward at a time, so it demotes fewer pages than there are
/// tiers and the list lives inline; it derefs to `[PageId]`.
#[derive(Clone, Copy)]
pub struct Demoted {
    len: u8,
    pages: [PageId; MAX_TIERS],
}

impl Default for Demoted {
    fn default() -> Self {
        Demoted {
            len: 0,
            pages: [PageId(0); MAX_TIERS],
        }
    }
}

impl Demoted {
    fn push(&mut self, page: PageId) {
        self.pages[usize::from(self.len)] = page;
        self.len += 1;
    }
}

impl std::ops::Deref for Demoted {
    type Target = [PageId];
    #[inline]
    fn deref(&self) -> &[PageId] {
        &self.pages[..usize::from(self.len)]
    }
}

impl PartialEq for Demoted {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Demoted {}

impl std::fmt::Debug for Demoted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Result of a local access against the tier stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieredAccess {
    /// The page was found in memory tier `tier`.
    Hit {
        /// Tier the hit was served from.
        tier: usize,
        /// Pool now holding the page (after any migration/promotion).
        pool: ClassId,
        /// True when the page changed pools: a within-tier no-goal →
        /// dedicated migration, or a cross-tier promotion. The page was
        /// freshly inserted and needs repricing.
        moved: bool,
        /// The page displaced off the node entirely, if any.
        evicted: Option<PageId>,
        /// Pages displaced into a deeper tier (still on the node; freshly
        /// inserted there and in need of repricing).
        demoted: Demoted,
    },
    /// The page is not resident in any memory tier of this node.
    Miss,
}

/// Result of installing a freshly fetched page into the tier stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieredInstall {
    /// False when no frame was available (the page passed through uncached).
    pub cached: bool,
    /// Tier the page landed in (meaningful when `cached`).
    pub tier: usize,
    /// The page displaced off the node entirely, if any.
    pub evicted: Option<PageId>,
    /// Pages displaced into a deeper tier.
    pub demoted: Demoted,
}

/// A node's local memory: one [`PartitionedBuffer`] per memory tier.
#[derive(Debug, Clone)]
pub struct TieredBuffer {
    tiers: Vec<PartitionedBuffer>,
    policy: TierPolicy,
    /// Cumulative pages promoted out of each tier (index = source tier).
    promotions: Vec<u64>,
    /// Cumulative pages demoted out of each tier (index = source tier).
    demotions: Vec<u64>,
}

impl TieredBuffer {
    /// Builds a tier stack with `frames[t]` frames in tier `t` (fastest
    /// first; every tier nonzero; at most [`MAX_TIERS`] tiers), each
    /// supporting goal classes
    /// `1..=num_goal_classes` under replacement policy `spec`. The page
    /// ownership tables grow with the largest page id installed; a caller
    /// that knows the database size sizes them once with
    /// [`Self::with_db_pages`].
    pub fn new(
        frames: &[usize],
        num_goal_classes: usize,
        spec: PolicySpec,
        policy: TierPolicy,
    ) -> Self {
        Self::with_db_pages(frames, num_goal_classes, spec, policy, 0)
    }

    /// [`Self::new`] for a database of page ids `0..db_pages`: every
    /// tier's page ownership table is sized for it up front.
    pub fn with_db_pages(
        frames: &[usize],
        num_goal_classes: usize,
        spec: PolicySpec,
        policy: TierPolicy,
        db_pages: usize,
    ) -> Self {
        assert!(!frames.is_empty(), "need at least one memory tier");
        assert!(
            frames.len() <= MAX_TIERS,
            "at most {MAX_TIERS} memory tiers, got {}",
            frames.len()
        );
        let tiers = frames
            .iter()
            .map(|&f| PartitionedBuffer::new(f, num_goal_classes, spec, db_pages))
            .collect::<Vec<_>>();
        TieredBuffer {
            promotions: vec![0; tiers.len()],
            demotions: vec![0; tiers.len()],
            tiers,
            policy,
        }
    }

    /// Number of local memory tiers.
    #[inline]
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Total frames across all memory tiers.
    pub fn total_pages(&self) -> usize {
        self.tiers.iter().map(PartitionedBuffer::total_pages).sum()
    }

    /// Frames in tier `t`.
    pub fn tier_frames(&self, t: usize) -> usize {
        self.tiers[t].total_pages()
    }

    /// Resident pages in tier `t`.
    pub fn tier_resident(&self, t: usize) -> usize {
        self.tiers[t].total_resident()
    }

    /// Cumulative promotions out of each tier.
    pub fn promotions(&self) -> &[u64] {
        &self.promotions
    }

    /// Cumulative demotions out of each tier.
    pub fn demotions(&self) -> &[u64] {
        &self.demotions
    }

    /// Dedicated capacity of `class`, summed over tiers.
    pub fn dedicated_pages(&self, class: ClassId) -> usize {
        self.tiers.iter().map(|b| b.dedicated_pages(class)).sum()
    }

    /// No-goal capacity, summed over tiers.
    pub fn no_goal_capacity(&self) -> usize {
        self.tiers
            .iter()
            .map(PartitionedBuffer::no_goal_capacity)
            .sum()
    }

    /// Total dedicated capacity, summed over tiers and classes.
    pub fn total_dedicated_pages(&self) -> usize {
        self.tiers
            .iter()
            .map(PartitionedBuffer::total_dedicated_pages)
            .sum()
    }

    /// Frames available to `class` (paper Eq. 6), summed over tiers.
    pub fn avail_pages(&self, class: ClassId) -> usize {
        self.tiers.iter().map(|b| b.avail_pages(class)).sum()
    }

    /// True if `class` has a dedicated pool in any tier.
    pub fn has_dedicated(&self, class: ClassId) -> bool {
        self.tiers.iter().any(|b| b.has_dedicated(class))
    }

    /// Which pool holds `page`, searching all tiers.
    pub fn lookup(&self, page: PageId) -> Option<ClassId> {
        self.locate(page).map(|(_, c)| c)
    }

    /// Which `(tier, pool)` holds `page`, if any.
    #[inline]
    pub fn locate(&self, page: PageId) -> Option<(usize, ClassId)> {
        self.tiers
            .iter()
            .enumerate()
            .find_map(|(t, b)| b.lookup(page).map(|c| (t, c)))
    }

    /// Prefetches `page`'s owner entry in the fastest tier, the one a
    /// lookup reads first (see [`dmm_sim::prefetch()`]).
    pub fn prefetch_owner(&self, page: PageId) {
        self.tiers[0].prefetch_owner(page);
    }

    /// True if the page is resident in any tier.
    #[inline]
    pub fn resident(&self, page: PageId) -> bool {
        self.locate(page).is_some()
    }

    /// Total resident pages across tiers.
    pub fn total_resident(&self) -> usize {
        self.tiers
            .iter()
            .map(PartitionedBuffer::total_resident)
            .sum()
    }

    /// Pool accounting for `class`, merged over tiers.
    pub fn pool_stats(&self, class: ClassId) -> PoolStats {
        let mut stats = PoolStats::default();
        for b in &self.tiers {
            stats.merge(&b.pool_stats(class));
        }
        stats
    }

    /// Resident pages of `class`'s pool, summed over tiers.
    pub fn pool_len(&self, class: ClassId) -> usize {
        self.tiers.iter().map(|b| b.pool(class).len()).sum()
    }

    /// Immutable access to `class`'s pool in tier `t`.
    #[inline]
    pub fn pool_at(&self, t: usize, class: ClassId) -> &Pool {
        self.tiers[t].pool(class)
    }

    /// Mutable access to `class`'s pool in tier `t`.
    #[inline]
    pub fn pool_mut_at(&mut self, t: usize, class: ClassId) -> &mut Pool {
        self.tiers[t].pool_mut(class)
    }

    /// The `(tier, pool)` an access or install of `page` by `class` puts
    /// the page into, given where the caller located it (`at`; `None`: not
    /// resident) — the pool a displacement pops its first victim from
    /// when it is full — or `None` when the step inserts nothing: a hit
    /// that stays in its pool, or an install with no frame for `class`.
    ///
    /// A resident page is promoted under [`TierPolicy::Hotness`] into the
    /// fastest tier above its own with capacity for `class`; otherwise it
    /// moves only from its tier's no-goal pool into `class`'s dedicated
    /// pool there (§6). A fresh install under [`TierPolicy::Hotness`]
    /// takes a **free** frame in the fastest tier that has one; once every
    /// tier is full it enters the *deepest* tier with capacity — on
    /// probation. A cold one-touch page then displaces only the bottom
    /// rung, while pages that are re-hit earn their way upward through
    /// promotion, so miss traffic cannot churn the fast tiers. Under
    /// [`TierPolicy::StaticHash`] it goes to the page's pinned tier. With
    /// a single memory tier every rule is tier 0, the historical behaviour.
    #[inline]
    pub fn route(
        &self,
        class: ClassId,
        page: PageId,
        at: Option<(usize, ClassId)>,
    ) -> Option<(usize, ClassId)> {
        let target = |t: usize| self.tiers[t].target_pool(class);
        let pool = |t: usize| self.tiers[t].pool(target(t));
        let has_room = |t: usize| pool(t).capacity() > 0;
        let slot = |t: usize| (t, target(t));
        match (at, self.policy) {
            (Some((t, owner)), policy) => {
                let promote = match policy {
                    TierPolicy::Hotness => (0..t).find(|&u| has_room(u)),
                    TierPolicy::StaticHash => None,
                };
                let migrates = owner.is_no_goal() && !target(t).is_no_goal();
                promote.or(migrates.then_some(t)).map(slot)
            }
            (None, TierPolicy::Hotness) => {
                let n = self.tiers.len();
                (0..n)
                    .find(|&t| has_room(t) && pool(t).len() < pool(t).capacity())
                    .or_else(|| (0..n).rev().find(|&t| has_room(t)))
                    .map(slot)
            }
            (None, TierPolicy::StaticHash) => {
                let t = self.static_tier(page);
                has_room(t).then(|| slot(t))
            }
        }
    }

    /// Resets all pool statistics (promotion/demotion counters are
    /// cumulative and survive).
    pub fn reset_stats(&mut self) {
        for b in &mut self.tiers {
            b.reset_stats();
        }
    }

    /// Static pinned tier of `page`: a multiplicative hash of the page id
    /// mapped onto the tiers proportionally to their frame counts.
    fn static_tier(&self, page: PageId) -> usize {
        let total = self.total_pages() as u64;
        let h = (page.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        let mut slot = h % total;
        for (t, b) in self.tiers.iter().enumerate() {
            let f = b.total_pages() as u64;
            if slot < f {
                return t;
            }
            slot -= f;
        }
        unreachable!("slot within total frames")
    }

    /// Attempts a local access by `class` for `page`. On a miss the miss is
    /// charged to the pool the page would be installed into.
    pub fn access(&mut self, class: ClassId, page: PageId, now: SimTime) -> TieredAccess {
        self.access_at(class, page, self.locate(page), now)
    }

    /// [`Self::access`] for a page the caller already located at `at`
    /// (`None`: not resident).
    pub fn access_at(
        &mut self,
        class: ClassId,
        page: PageId,
        at: Option<(usize, ClassId)>,
        now: SimTime,
    ) -> TieredAccess {
        debug_assert_eq!(at, self.locate(page), "access_at given a stale location");
        let Some((t, holder)) = at else {
            let t = match self.policy {
                TierPolicy::Hotness => 0,
                TierPolicy::StaticHash => self.static_tier(page),
            };
            let miss = self.tiers[t].access(class, page, now);
            debug_assert_eq!(miss, LocalAccess::Miss);
            return TieredAccess::Miss;
        };
        match self.route(class, page, at) {
            // Promote into a faster tier with room for this class.
            Some((u, target)) if u < t => {
                self.tiers[t].pool_mut(holder).on_hit(page, now);
                let removed = self.tiers[t].drop_page(page);
                debug_assert!(removed);
                self.promotions[t] += 1;
                let out = self.tiers[u].install(class, page, now);
                debug_assert!(out.cached);
                let (evicted, demoted) = self.demote_chain(u, target, out.evicted, now);
                TieredAccess::Hit {
                    tier: t,
                    pool: target,
                    moved: true,
                    evicted,
                    demoted,
                }
            }
            _ => self.access_within(t, class, page, now),
        }
    }

    /// Within-tier access semantics at tier `t`, with tier-appropriate
    /// handling of any displaced pages.
    fn access_within(
        &mut self,
        t: usize,
        class: ClassId,
        page: PageId,
        now: SimTime,
    ) -> TieredAccess {
        match self.tiers[t].access(class, page, now) {
            LocalAccess::Hit { pool } => TieredAccess::Hit {
                tier: t,
                pool,
                moved: false,
                evicted: None,
                demoted: Demoted::default(),
            },
            LocalAccess::MovedToDedicated { evicted } => {
                let pool = self.tiers[t].target_pool(class);
                let (evicted, demoted) = match self.policy {
                    TierPolicy::Hotness => self.demote_chain(t, pool, evicted, now),
                    TierPolicy::StaticHash => (evicted, Demoted::default()),
                };
                TieredAccess::Hit {
                    tier: t,
                    pool,
                    moved: true,
                    evicted,
                    demoted,
                }
            }
            LocalAccess::Miss => unreachable!("page was located in tier {t}"),
        }
    }

    /// Installs a freshly fetched page for `class`. Panics if already
    /// resident in any tier.
    pub fn install(&mut self, class: ClassId, page: PageId, now: SimTime) -> TieredInstall {
        assert!(!self.resident(page), "page already resident");
        let Some((t, target)) = self.route(class, page, None) else {
            return TieredInstall {
                cached: false,
                tier: 0,
                evicted: None,
                demoted: Demoted::default(),
            };
        };
        let out = self.tiers[t].install(class, page, now);
        debug_assert!(out.cached);
        let (evicted, demoted) = match self.policy {
            TierPolicy::Hotness => self.demote_chain(t, target, out.evicted, now),
            TierPolicy::StaticHash => (out.evicted, Demoted::default()),
        };
        TieredInstall {
            cached: true,
            tier: t,
            evicted,
            demoted,
        }
    }

    /// Re-homes the page displaced from tier `from` (pool `pool`) into the
    /// next deeper tier with room for its pool, carrying whatever that
    /// install displaces further down in turn. Returns the page that fell
    /// off the node entirely, if any, and those demoted in place. Each
    /// carried page lands strictly deeper than its predecessor, so the walk
    /// ends within the ladder.
    fn demote_chain(
        &mut self,
        from: usize,
        pool: ClassId,
        displaced: Option<PageId>,
        now: SimTime,
    ) -> (Option<PageId>, Demoted) {
        let mut demoted = Demoted::default();
        let (mut t, mut pc, mut carried) = (from, pool, displaced);
        while let Some(p) = carried {
            let dest = (t + 1..self.tiers.len()).find(|&u| {
                let target = self.tiers[u].target_pool(pc);
                self.tiers[u].pool(target).capacity() > 0
            });
            let Some(u) = dest else {
                return (Some(p), demoted);
            };
            let out = self.tiers[u].install(pc, p, now);
            debug_assert!(out.cached);
            self.demotions[t] += 1;
            demoted.push(p);
            (t, pc, carried) = (u, self.tiers[u].target_pool(pc), out.evicted);
        }
        (None, demoted)
    }

    /// Drops `page` from whatever tier holds it. Returns true if resident.
    pub fn drop_page(&mut self, page: PageId) -> bool {
        match self.locate(page) {
            Some((t, _)) => self.tiers[t].drop_page(page),
            None => false,
        }
    }

    /// Best-effort resize of `class`'s dedicated pools across the tier
    /// stack, splitting the grant fastest-first (§5(e) within each tier).
    /// Displaced pages leave the node — a resize is a partitioning
    /// decision, not an access, so it does not trigger demotions. Returns
    /// `(granted, evicted)` with `granted` summed over tiers.
    pub fn set_dedicated(
        &mut self,
        class: ClassId,
        requested_pages: usize,
    ) -> (usize, Vec<PageId>) {
        let mut remaining = requested_pages;
        let mut granted = 0;
        let mut evicted = Vec::new();
        for b in &mut self.tiers {
            let want = remaining.min(b.avail_pages(class));
            let (g, ev) = b.set_dedicated(class, want);
            debug_assert_eq!(g, want);
            granted += g;
            remaining -= g;
            evicted.extend(ev);
        }
        (granted, evicted)
    }

    /// Debug invariants: each tier's internal consistency plus cross-tier
    /// uniqueness (a page is resident in at most one tier).
    pub fn check_invariants(&self) {
        for b in &self.tiers {
            b.check_invariants();
        }
        if self.tiers.len() > 1 {
            let mut seen = crate::page::IdHashSet::<PageId>::default();
            for (t, b) in self.tiers.iter().enumerate() {
                for class_idx in 0..=b.num_goal_classes() {
                    for page in b.pool(ClassId(class_idx as u16)).pages() {
                        assert!(
                            seen.insert(page),
                            "page {page:?} resident in two tiers (≤ {t})"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::NO_GOAL;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn stack(policy: TierPolicy) -> TieredBuffer {
        TieredBuffer::new(&[2, 3], 1, PolicySpec::Lru, policy)
    }

    #[test]
    fn single_tier_matches_partitioned_buffer() {
        let mut tb = TieredBuffer::new(&[4], 1, PolicySpec::Lru, TierPolicy::Hotness);
        assert_eq!(tb.access(NO_GOAL, PageId(1), t(0)), TieredAccess::Miss);
        let out = tb.install(NO_GOAL, PageId(1), t(1));
        assert!(out.cached && out.tier == 0 && out.demoted.is_empty());
        match tb.access(NO_GOAL, PageId(1), t(2)) {
            TieredAccess::Hit {
                tier: 0,
                pool,
                moved: false,
                ..
            } => assert_eq!(pool, NO_GOAL),
            other => panic!("expected plain hit, got {other:?}"),
        }
        tb.check_invariants();
    }

    #[test]
    fn installs_fill_free_frames_fastest_first_then_probation() {
        let mut tb = stack(TierPolicy::Hotness);
        // Free frames go fastest-first: 2 into tier 0, then 3 into tier 1.
        for i in 0..5u32 {
            tb.install(NO_GOAL, PageId(i), t(i as u64));
        }
        assert_eq!(tb.locate(PageId(1)), Some((0, NO_GOAL)));
        assert_eq!(tb.locate(PageId(2)), Some((1, NO_GOAL)));
        // Every tier full: a fresh page enters the *deepest* tier on
        // probation, displacing only the bottom rung — never tier 0.
        let out = tb.install(NO_GOAL, PageId(5), t(5));
        assert!(out.cached && out.tier == 1, "probationary install: {out:?}");
        assert!(out.evicted.is_some(), "bottom rung spills off the node");
        assert!(out.demoted.is_empty());
        assert_eq!(tb.locate(PageId(0)), Some((0, NO_GOAL)), "tier 0 untouched");
        tb.check_invariants();
    }

    #[test]
    fn displaced_pages_demote_to_next_tier() {
        let mut tb = stack(TierPolicy::Hotness);
        for i in 0..5u32 {
            tb.install(NO_GOAL, PageId(i), t(i as u64));
        }
        // Promoting page 2 out of tier 1 displaces tier 0's LRU page, which
        // demotes into tier 1 instead of leaving the node.
        match tb.access(NO_GOAL, PageId(2), t(10)) {
            TieredAccess::Hit {
                tier: 1,
                moved: true,
                evicted,
                demoted,
                ..
            } => {
                assert_eq!(evicted, None, "nothing left the node");
                assert_eq!(*demoted, [PageId(0)]);
            }
            other => panic!("expected promoting hit, got {other:?}"),
        }
        assert_eq!(tb.locate(PageId(2)), Some((0, NO_GOAL)));
        assert_eq!(tb.locate(PageId(0)), Some((1, NO_GOAL)), "victim demoted");
        assert_eq!(tb.demotions()[0], 1);
        assert_eq!(tb.total_resident(), 5);
        tb.check_invariants();
    }

    #[test]
    fn eviction_leaves_node_only_from_last_tier() {
        let mut tb = stack(TierPolicy::Hotness);
        for i in 0..5u32 {
            let out = tb.install(NO_GOAL, PageId(i), t(i as u64));
            assert_eq!(out.evicted, None, "5 frames total, no overflow yet");
        }
        let out = tb.install(NO_GOAL, PageId(5), t(5));
        assert!(out.evicted.is_some(), "6th page overflows the stack");
        assert_eq!(tb.total_resident(), 5);
        tb.check_invariants();
    }

    #[test]
    fn hit_in_slow_tier_promotes() {
        let mut tb = stack(TierPolicy::Hotness);
        for i in 0..3u32 {
            tb.install(NO_GOAL, PageId(i), t(i as u64));
        }
        assert_eq!(tb.locate(PageId(2)), Some((1, NO_GOAL)));
        match tb.access(NO_GOAL, PageId(2), t(10)) {
            TieredAccess::Hit {
                tier: 1,
                moved: true,
                evicted,
                demoted,
                ..
            } => {
                assert_eq!(evicted, None);
                // Promotion displaced tier 0's LRU page downward.
                assert_eq!(*demoted, [PageId(0)]);
            }
            other => panic!("expected promoting hit, got {other:?}"),
        }
        assert_eq!(tb.locate(PageId(2)), Some((0, NO_GOAL)));
        assert_eq!(tb.promotions()[1], 1);
        tb.check_invariants();
    }

    #[test]
    fn static_hash_pins_pages_and_never_promotes() {
        let mut tb = stack(TierPolicy::StaticHash);
        // Find a page pinned to tier 1.
        let slow = (0..100u32)
            .map(PageId)
            .find(|p| tb.static_tier(*p) == 1)
            .unwrap();
        tb.install(NO_GOAL, slow, t(0));
        assert_eq!(tb.locate(slow), Some((1, NO_GOAL)));
        match tb.access(NO_GOAL, slow, t(1)) {
            TieredAccess::Hit {
                tier: 1,
                moved: false,
                ..
            } => {}
            other => panic!("expected pinned hit, got {other:?}"),
        }
        assert_eq!(tb.locate(slow), Some((1, NO_GOAL)), "no promotion");
        assert_eq!(tb.promotions(), &[0, 0]);
        tb.check_invariants();
    }

    #[test]
    fn static_hash_spreads_proportionally() {
        let tb = TieredBuffer::new(&[100, 300], 1, PolicySpec::Lru, TierPolicy::StaticHash);
        let fast = (0..4000u32)
            .filter(|i| tb.static_tier(PageId(*i)) == 0)
            .count();
        // Expect ≈ 1000 of 4000 pages pinned to the 1/4-capacity fast tier.
        assert!((800..1200).contains(&fast), "fast-tier share {fast}/4000");
    }

    #[test]
    fn four_tier_drop_from_tier_0_lands_in_tier_1() {
        // The demotion-chain contract on a 4-memory-tier node: a page
        // dropped from tier t lands in tier t+1, rippling to the bottom.
        let mut tb = TieredBuffer::new(&[1, 1, 1, 1], 1, PolicySpec::Lru, TierPolicy::Hotness);
        for (i, page) in [10u32, 11, 12, 13].into_iter().enumerate() {
            tb.install(NO_GOAL, PageId(page), t(i as u64));
            assert_eq!(tb.locate(PageId(page)), Some((i, NO_GOAL)));
        }
        // Promoting the bottom page into tier 0 drops tier 0's page, which
        // lands in tier 1, whose page lands in tier 2, and so on down.
        match tb.access(NO_GOAL, PageId(13), t(10)) {
            TieredAccess::Hit {
                tier: 3,
                moved: true,
                evicted,
                demoted,
                ..
            } => {
                assert_eq!(evicted, None, "every drop lands one rung down");
                assert_eq!(*demoted, [PageId(10), PageId(11), PageId(12)]);
            }
            other => panic!("expected promoting hit, got {other:?}"),
        }
        for (i, page) in [13u32, 10, 11, 12].into_iter().enumerate() {
            assert_eq!(tb.locate(PageId(page)), Some((i, NO_GOAL)));
        }
        assert_eq!(tb.demotions(), &[1, 1, 1, 0]);
        // A probationary install displaces only the last rung off the node.
        let out = tb.install(NO_GOAL, PageId(14), t(11));
        assert_eq!(out.evicted, Some(PageId(12)), "only the last rung spills");
        assert!(out.demoted.is_empty());
        tb.check_invariants();
    }

    #[test]
    fn set_dedicated_splits_fastest_first() {
        let mut tb = stack(TierPolicy::Hotness);
        let (granted, _) = tb.set_dedicated(ClassId(1), 4);
        assert_eq!(granted, 4);
        assert_eq!(
            tb.pool_at(0, ClassId(1)).capacity(),
            2,
            "tier 0 filled first"
        );
        assert_eq!(tb.pool_at(1, ClassId(1)).capacity(), 2);
        assert_eq!(tb.dedicated_pages(ClassId(1)), 4);
        // Dedicated installs land in the fastest tier with class capacity.
        tb.install(ClassId(1), PageId(1), t(0));
        assert_eq!(tb.locate(PageId(1)), Some((0, ClassId(1))));
        tb.check_invariants();
    }

    #[test]
    fn demotion_respects_class_pools() {
        let mut tb = stack(TierPolicy::Hotness);
        // Class 1 dedicated only in tier 0 (2 frames); its overflow lands
        // in tier 1's *no-goal* pool (class 1 has no pool there).
        let (granted, _) = tb.set_dedicated(ClassId(1), 2);
        assert_eq!(granted, 2);
        for i in 0..3u32 {
            tb.install(ClassId(1), PageId(i), t(i as u64));
        }
        assert_eq!(tb.locate(PageId(2)), Some((1, NO_GOAL)));
        // Promoting page 2 back into the dedicated pool displaces the LRU
        // dedicated page, which demotes into tier 1's no-goal pool.
        match tb.access(ClassId(1), PageId(2), t(10)) {
            TieredAccess::Hit {
                tier: 1,
                pool,
                moved: true,
                demoted,
                ..
            } => {
                assert_eq!(pool, ClassId(1));
                assert_eq!(*demoted, [PageId(0)]);
            }
            other => panic!("expected promoting hit, got {other:?}"),
        }
        assert_eq!(tb.locate(PageId(0)), Some((1, NO_GOAL)));
        assert_eq!(tb.pool_len(ClassId(1)), 2);
        tb.check_invariants();
    }
}
