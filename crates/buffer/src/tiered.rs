//! A node's buffer: K local memory tiers (DRAM over CXL-style far memory,
//! say), fastest first, each split into pools.
//!
//! Within a tier the partitioning rules are §3's and §6's: one dedicated
//! pool per goal class plus the no-goal pool, which always owns every
//! undedicated frame (Eq. 7). A page is resident in **exactly one** pool
//! of one tier, recorded in one dense owner table. Access follows §6:
//!
//! * a request by class `k` that finds the page in *any* dedicated pool is a
//!   plain hit;
//! * if `k` has a dedicated pool in the page's tier and the page sits in
//!   that tier's no-goal pool, the page *moves* into `k`'s pool ("acquired
//!   … from the local no-goal buffer, from which it is removed");
//! * under [`TierPolicy::Hotness`] a hit in tier `t > 0` instead
//!   **promotes** the page into the fastest tier with capacity for `k`.
//!
//! Where a step puts a page is [`TieredBuffer::route`]. Fresh installs under
//! [`TierPolicy::Hotness`] take a free frame in the fastest tier that has
//! one, but once every tier is full they enter the deepest tier *on
//! probation* — a page must be re-hit to climb, so one-touch miss traffic
//! cannot churn the fast tiers. Under [`TierPolicy::StaticHash`] each page
//! is pinned to one tier by a hash of its id, weighted by the tier frame
//! counts — the classic static split baseline; it never promotes.
//!
//! Where a page displaced from a full pool goes is one private rule,
//! `displaced_to`: under [`TierPolicy::Hotness`] it is **demoted** into the
//! first deeper tier with room for its pool, displacing that tier's victim
//! downward in turn — one page per rung, a chain — and only a page falling
//! off the last memory tier leaves the node; under
//! [`TierPolicy::StaticHash`] it leaves the node at once. With a single
//! memory tier both policies send every victim off the node, the paper's
//! buffer (DESIGN.md §5i).
//!
//! Resizing is best-effort (§5(e)): a request is granted up to the memory
//! not dedicated to other classes, fastest tier first, and the caller learns
//! the granted size.

use dmm_sim::SimTime;

use crate::page::{ClassId, PageId, NO_GOAL};
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

/// [`TieredBuffer`] owner entry of a page no pool holds.
const NOT_RESIDENT: u16 = u16::MAX;

/// A node's buffer: the pools of every memory tier and the one owner table.
#[derive(Debug, Clone)]
pub struct TieredBuffer {
    /// Frames of each tier, fastest first.
    frames: Vec<usize>,
    /// Pools per tier: the no-goal pool and one per goal class.
    classes: usize,
    /// Every pool, tier-major: `(tier, class)` sits at
    /// `tier * classes + class`.
    pools: Vec<Pool>,
    /// `(tier, class)` of each entry of `pools`, so an owner entry decodes
    /// without a division.
    decode: Vec<(usize, ClassId)>,
    /// Index into `pools` of the pool holding each page, indexed densely by
    /// page id; [`NOT_RESIDENT`] for a page on no pool. Sized once for the
    /// database; a page id past the end grows it on install.
    owner: Vec<u16>,
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
    /// `1..=num_goal_classes` under replacement policy `spec`. Initially
    /// every frame of a tier belongs to its no-goal pool. The page
    /// ownership table grows with the largest page id installed; a caller
    /// that knows the database size sizes it once with
    /// [`Self::with_db_pages`].
    pub fn new(
        frames: &[usize],
        num_goal_classes: usize,
        spec: PolicySpec,
        policy: TierPolicy,
    ) -> Self {
        Self::with_db_pages(frames, num_goal_classes, spec, policy, 0)
    }

    /// [`Self::new`] for a database of page ids `0..db_pages`: the page
    /// ownership table is sized for it up front.
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
        assert!(
            frames.iter().all(|&f| f > 0),
            "every memory tier must have at least one frame"
        );
        let classes = num_goal_classes + 1;
        assert!(
            frames.len() * classes <= usize::from(NOT_RESIDENT),
            "at most {NOT_RESIDENT} pools, got {} tiers × {classes} classes",
            frames.len()
        );
        let mut pools = Vec::with_capacity(frames.len() * classes);
        let mut decode = Vec::with_capacity(frames.len() * classes);
        for (t, &f) in frames.iter().enumerate() {
            for c in 0..classes {
                let mut pool = Pool::new(if c == 0 { f } else { 0 }, spec);
                pool.policy_mut().reserve_pages(db_pages);
                pools.push(pool);
                decode.push((t, ClassId(c as u16)));
            }
        }
        TieredBuffer {
            frames: frames.to_vec(),
            classes,
            pools,
            decode,
            owner: vec![NOT_RESIDENT; db_pages],
            policy,
            promotions: vec![0; frames.len()],
            demotions: vec![0; frames.len()],
        }
    }

    /// Number of local memory tiers.
    #[inline]
    pub fn num_tiers(&self) -> usize {
        self.frames.len()
    }

    /// Total frames across all memory tiers.
    fn total_pages(&self) -> usize {
        self.frames.iter().sum()
    }

    /// Frames in tier `t`.
    pub fn tier_frames(&self, t: usize) -> usize {
        self.frames[t]
    }

    /// Resident pages in tier `t`.
    pub fn tier_resident(&self, t: usize) -> usize {
        self.tier_pools(t).iter().map(Pool::len).sum()
    }

    /// Cumulative promotions out of each tier.
    pub fn promotions(&self) -> &[u64] {
        &self.promotions
    }

    /// Cumulative demotions out of each tier.
    pub fn demotions(&self) -> &[u64] {
        &self.demotions
    }

    /// Dedicated capacity of `class`, summed over tiers (0 for the no-goal
    /// class).
    pub fn dedicated_pages(&self, class: ClassId) -> usize {
        (0..self.num_tiers())
            .map(|t| self.dedicated_at(t, class))
            .sum()
    }

    /// Frames available to `class` (paper Eq. 6), summed over tiers: the
    /// most a resize can grant it.
    pub fn avail_pages(&self, class: ClassId) -> usize {
        (0..self.num_tiers())
            .map(|t| self.tier_avail(t, class))
            .sum()
    }

    /// True if `class` has a dedicated pool in any tier.
    pub fn has_dedicated(&self, class: ClassId) -> bool {
        (0..self.num_tiers()).any(|t| self.dedicated_at(t, class) > 0)
    }

    /// Which `(tier, pool)` holds `page`, if any: one owner-table read.
    #[inline]
    pub fn locate(&self, page: PageId) -> Option<(usize, ClassId)> {
        self.owner_of(page).map(|i| self.decode[i])
    }

    /// Prefetches `page`'s owner entry (see [`dmm_sim::prefetch()`]).
    pub fn prefetch_owner(&self, page: PageId) {
        if let Some(owner) = self.owner.get(page.index()) {
            dmm_sim::prefetch(owner);
        }
    }

    /// True if the page is resident in any tier.
    #[inline]
    pub fn resident(&self, page: PageId) -> bool {
        self.owner_of(page).is_some()
    }

    /// Total resident pages across tiers.
    pub fn total_resident(&self) -> usize {
        self.pools.iter().map(Pool::len).sum()
    }

    /// Pool accounting for `class`, merged over tiers.
    pub fn pool_stats(&self, class: ClassId) -> PoolStats {
        let mut stats = PoolStats::default();
        for t in 0..self.num_tiers() {
            stats.merge(&self.pool_at(t, class).stats());
        }
        stats
    }

    /// Resident pages of `class`'s pool, summed over tiers.
    pub fn pool_len(&self, class: ClassId) -> usize {
        (0..self.num_tiers())
            .map(|t| self.pool_at(t, class).len())
            .sum()
    }

    /// Immutable access to `class`'s pool in tier `t`.
    #[inline]
    pub fn pool_at(&self, t: usize, class: ClassId) -> &Pool {
        &self.pools[self.slot(t, class)]
    }

    /// Mutable access to `class`'s pool in tier `t`.
    #[inline]
    pub fn pool_mut_at(&mut self, t: usize, class: ClassId) -> &mut Pool {
        let i = self.slot(t, class);
        &mut self.pools[i]
    }

    /// Every pool as `(tier, class, pool)`, tiers fastest first and the
    /// no-goal pool first within each tier.
    pub fn pools(&self) -> impl Iterator<Item = (usize, ClassId, &Pool)> {
        self.decode
            .iter()
            .zip(&self.pools)
            .map(|(&(t, c), p)| (t, c, p))
    }

    /// [`Self::pools`], mutably.
    pub fn pools_mut(&mut self) -> impl Iterator<Item = (usize, ClassId, &mut Pool)> {
        self.decode
            .iter()
            .zip(&mut self.pools)
            .map(|(&(t, c), p)| (t, c, p))
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
    /// a single memory tier every rule is tier 0, the paper's buffer.
    #[inline]
    pub fn route(
        &self,
        class: ClassId,
        page: PageId,
        at: Option<(usize, ClassId)>,
    ) -> Option<(usize, ClassId)> {
        let pool = |t: usize| self.pool_at(t, self.target(t, class));
        let has_room = |t: usize| pool(t).capacity() > 0;
        let slot = |t: usize| (t, self.target(t, class));
        match (at, self.policy) {
            (Some((t, owner)), policy) => {
                let promote = match policy {
                    TierPolicy::Hotness => (0..t).find(|&u| has_room(u)),
                    TierPolicy::StaticHash => None,
                };
                let migrates = owner.is_no_goal() && !self.target(t, class).is_no_goal();
                promote.or(migrates.then_some(t)).map(slot)
            }
            (None, TierPolicy::Hotness) => {
                let n = self.num_tiers();
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

    /// Where a page displaced from `pool` of tier `tier` goes: `Some((u,
    /// pool'))` to be re-installed there, `None` to leave the node. Under
    /// [`TierPolicy::Hotness`] it is the first deeper tier whose target
    /// pool for the displaced pool's class has frames, so each rung of a
    /// chain lands strictly deeper and the walk ends within the ladder;
    /// under [`TierPolicy::StaticHash`] a victim always leaves the node.
    #[inline]
    fn displaced_to(&self, tier: usize, pool: ClassId) -> Option<(usize, ClassId)> {
        match self.policy {
            TierPolicy::Hotness => (tier + 1..self.num_tiers())
                .map(|u| (u, self.target(u, pool)))
                .find(|&(u, to)| self.pool_at(u, to).capacity() > 0),
            TierPolicy::StaticHash => None,
        }
    }

    /// The tier a miss of `page` is charged to: the fastest under
    /// [`TierPolicy::Hotness`], the page's pinned one under
    /// [`TierPolicy::StaticHash`].
    fn miss_tier(&self, page: PageId) -> usize {
        match self.policy {
            TierPolicy::Hotness => 0,
            TierPolicy::StaticHash => self.static_tier(page),
        }
    }

    /// Resets all pool statistics (promotion/demotion counters are
    /// cumulative and survive).
    pub fn reset_stats(&mut self) {
        for p in &mut self.pools {
            p.reset_stats();
        }
    }

    /// Static pinned tier of `page`: a multiplicative hash of the page id
    /// mapped onto the tiers proportionally to their frame counts.
    fn static_tier(&self, page: PageId) -> usize {
        let total = self.total_pages() as u64;
        let h = (page.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        let mut slot = h % total;
        for (t, &f) in self.frames.iter().enumerate() {
            let f = f as u64;
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
        let Some((tier, holder)) = at else {
            let t = self.miss_tier(page);
            let target = self.target(t, class);
            self.pool_mut_at(t, target).on_miss();
            return TieredAccess::Miss;
        };
        self.pool_mut_at(tier, holder).on_hit(page, now);
        let Some(to) = self.route(class, page, at) else {
            return TieredAccess::Hit {
                tier,
                pool: holder,
                moved: false,
                evicted: None,
                demoted: Demoted::default(),
            };
        };
        if to.0 < tier {
            self.promotions[tier] += 1;
        }
        let (evicted, demoted) = self.move_to(page, at, to, now);
        TieredAccess::Hit {
            tier,
            pool: to.1,
            moved: true,
            evicted,
            demoted,
        }
    }

    /// Installs a freshly fetched page for `class`. If no tier has a frame
    /// for it (every frame is dedicated elsewhere) the page is used without
    /// being cached (`cached == false`). Panics if already resident.
    pub fn install(&mut self, class: ClassId, page: PageId, now: SimTime) -> TieredInstall {
        assert!(!self.resident(page), "page already resident");
        let Some(to) = self.route(class, page, None) else {
            return TieredInstall {
                cached: false,
                tier: 0,
                evicted: None,
                demoted: Demoted::default(),
            };
        };
        let (evicted, demoted) = self.move_to(page, None, to, now);
        TieredInstall {
            cached: true,
            tier: to.0,
            evicted,
            demoted,
        }
    }

    /// The one path that puts a page into a pool: takes `page` out of its
    /// holder `from` (`None`: a fresh install), inserts it into `to`, and
    /// while an insert displaced a page, carries that page to where
    /// [`Self::displaced_to`] sends it. Returns the page that left the node,
    /// if any, and those demoted in place.
    fn move_to(
        &mut self,
        page: PageId,
        from: Option<(usize, ClassId)>,
        to: (usize, ClassId),
        now: SimTime,
    ) -> (Option<PageId>, Demoted) {
        if let Some((t, holder)) = from {
            let removed = self.pool_mut_at(t, holder).remove(page);
            debug_assert!(removed);
        }
        let mut demoted = Demoted::default();
        let (mut at, mut carried) = (to, self.insert(page, to, now));
        while let Some(p) = carried {
            let Some(next) = self.displaced_to(at.0, at.1) else {
                return (Some(p), demoted);
            };
            self.demotions[at.0] += 1;
            demoted.push(p);
            (at, carried) = (next, self.insert(p, next, now));
        }
        (None, demoted)
    }

    /// Inserts `page` into `pool` of `tier` and records its owner; returns
    /// the page the insert displaced, whose owner entry is cleared.
    fn insert(
        &mut self,
        page: PageId,
        (tier, pool): (usize, ClassId),
        now: SimTime,
    ) -> Option<PageId> {
        let i = self.slot(tier, pool);
        let displaced = self.pools[i].insert(page, now);
        if let Some(p) = displaced {
            self.owner[p.index()] = NOT_RESIDENT;
        }
        let at = page.index();
        if at >= self.owner.len() {
            self.owner.resize(at + 1, NOT_RESIDENT);
        }
        self.owner[at] = i as u16;
        displaced
    }

    /// Drops `page` from whatever pool holds it. Returns true if resident.
    pub fn drop_page(&mut self, page: PageId) -> bool {
        let Some(i) = self.owner_of(page) else {
            return false;
        };
        let removed = self.pools[i].remove(page);
        debug_assert!(removed);
        self.owner[page.index()] = NOT_RESIDENT;
        true
    }

    /// Best-effort resize of `class`'s dedicated pools across the tier
    /// stack, splitting the grant fastest-first (§5(e) within each tier):
    /// each tier grants at most the frames not dedicated to other goal
    /// classes and hands the rest to its no-goal pool, the class pool
    /// shrinking before the no-goal pool. Displaced pages leave the node —
    /// a resize is a partitioning decision, not an access, so it does not
    /// trigger demotions. Returns `(granted, evicted)` with `granted`
    /// summed over tiers.
    pub fn set_dedicated(
        &mut self,
        class: ClassId,
        requested_pages: usize,
    ) -> (usize, Vec<PageId>) {
        assert!(
            !class.is_no_goal(),
            "cannot dedicate memory to the no-goal class"
        );
        let mut remaining = requested_pages;
        let mut evicted = Vec::new();
        for t in 0..self.num_tiers() {
            let avail = self.tier_avail(t, class);
            let granted = remaining.min(avail);
            remaining -= granted;
            for (pool, capacity) in [(class, granted), (NO_GOAL, avail - granted)] {
                self.pool_mut_at(t, pool)
                    .set_capacity(capacity, &mut evicted);
            }
        }
        for p in &evicted {
            self.owner[p.index()] = NOT_RESIDENT;
        }
        (requested_pages - remaining, evicted)
    }

    /// Debug invariants: every tier's pool capacities sum to its frames, no
    /// pool exceeds its capacity, and the owner table names exactly the
    /// pool each resident page is in (so a page is on at most one pool).
    pub fn check_invariants(&self) {
        for t in 0..self.num_tiers() {
            let capacity: usize = self.tier_pools(t).iter().map(Pool::capacity).sum();
            assert_eq!(
                capacity, self.frames[t],
                "tier {t}: capacities must sum to its frames"
            );
        }
        let mut counted = 0;
        for (i, pool) in self.pools.iter().enumerate() {
            assert!(pool.len() <= pool.capacity(), "pool over capacity");
            for page in pool.pages() {
                assert_eq!(self.owner_of(page), Some(i), "owner table out of sync");
                counted += 1;
            }
        }
        let owned = self.owner.iter().filter(|&&c| c != NOT_RESIDENT).count();
        assert_eq!(counted, owned, "stray owner entries");
    }

    /// Index into `pools` of `class`'s pool in tier `t`.
    #[inline]
    fn slot(&self, t: usize, class: ClassId) -> usize {
        t * self.classes + class.index()
    }

    /// The pools of tier `t`, no-goal first.
    fn tier_pools(&self, t: usize) -> &[Pool] {
        &self.pools[self.slot(t, NO_GOAL)..self.slot(t + 1, NO_GOAL)]
    }

    /// Index into `pools` of the pool holding `page`, if any.
    #[inline]
    fn owner_of(&self, page: PageId) -> Option<usize> {
        match self.owner.get(page.index()) {
            Some(&i) if i != NOT_RESIDENT => Some(usize::from(i)),
            _ => None,
        }
    }

    /// Dedicated capacity of `class` in tier `t` (0 for the no-goal class).
    fn dedicated_at(&self, t: usize, class: ClassId) -> usize {
        if class.is_no_goal() {
            0
        } else {
            self.pool_at(t, class).capacity()
        }
    }

    /// Frames of tier `t` available to `class`: `SIZE − Σ_{l≠class} LM_l`
    /// (paper Eq. 6) — the no-goal pool owns every undedicated frame, so
    /// that is its capacity plus `class`'s own.
    fn tier_avail(&self, t: usize, class: ClassId) -> usize {
        self.pool_at(t, NO_GOAL).capacity() + self.dedicated_at(t, class)
    }

    /// The pool of tier `t` a page of `class` goes to: the class's
    /// dedicated pool if it has frames there, else the no-goal pool.
    #[inline]
    fn target(&self, t: usize, class: ClassId) -> ClassId {
        if self.dedicated_at(t, class) > 0 {
            class
        } else {
            NO_GOAL
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
    fn the_largest_pool_count_fits_below_the_owner_sentinel() {
        // 65 535 pools: the last index is 65 534, one below the sentinel.
        let tb = TieredBuffer::new(&[1], 65_534, PolicySpec::Fifo, TierPolicy::Hotness);
        assert_eq!(tb.pools().count(), 65_535);
    }

    #[test]
    #[should_panic(expected = "at most 65535 pools, got 2 tiers × 32768 classes")]
    fn a_pool_index_that_would_reach_the_owner_sentinel_is_refused() {
        TieredBuffer::new(&[1, 1], 32_767, PolicySpec::Fifo, TierPolicy::Hotness);
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
