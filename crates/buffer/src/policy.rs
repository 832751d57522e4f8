//! Replacement policies.
//!
//! The partitioning algorithm only assumes that "increasing the size of any
//! local buffer of a class will increase the buffer hit rate" (paper §3), a
//! property of every stack policy (LRU, LRU-K, CLOCK) but famously not of
//! FIFO (Belady's anomaly \[2\]) — FIFO is provided precisely so tests can
//! exhibit that counterexample. The §6 cost-based policy orders pages by an
//! externally computed *benefit* and evicts the locally lowest-benefit page.

use dmm_sim::SimTime;

use crate::indexed_heap::IndexedMinHeap;
use crate::page::{IdHashMap, PageId};

/// Behaviour every replacement policy provides. A policy indexes the pages
/// it tracks, and the owning [`crate::pool::Pool`] answers membership from
/// that index rather than keeping a set of its own.
pub trait Policy {
    /// A page was inserted (it was not tracked before).
    fn on_insert(&mut self, page: PageId, now: SimTime);
    /// A tracked page was accessed (hit).
    fn on_access(&mut self, page: PageId, now: SimTime);
    /// A tracked page left the pool (eviction by the pool or external drop).
    fn on_remove(&mut self, page: PageId);
    /// The page this policy would evict next, if any.
    fn victim(&mut self) -> Option<PageId>;
    /// Number of tracked pages.
    fn len(&self) -> usize;
    /// True if `page` is tracked.
    fn contains(&self, page: PageId) -> bool;
    /// The tracked page in storage slot `slot < len()`. The slots list
    /// every tracked page once, in the policy's own storage order.
    fn page_at(&self, slot: usize) -> PageId;
    /// True if no pages are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Configuration for constructing fresh policy instances per pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// Least recently used.
    Lru,
    /// First in, first out.
    Fifo,
    /// Second-chance CLOCK.
    Clock,
    /// LRU-K with the given history depth `k` (the paper approximates page
    /// heat with LRU-k, \[21\]).
    LruK(usize),
    /// Cost-based benefit ordering of §6; benefits are pushed in by the
    /// cluster layer via [`CostBasedPolicy::set_benefit`].
    CostBased,
}

impl PolicySpec {
    /// Builds a fresh policy instance.
    pub fn build(self) -> PolicyKind {
        match self {
            PolicySpec::Lru => PolicyKind::Lru(LruPolicy::new()),
            PolicySpec::Fifo => PolicyKind::Fifo(FifoPolicy::new()),
            PolicySpec::Clock => PolicyKind::Clock(ClockPolicy::new()),
            PolicySpec::LruK(k) => PolicyKind::LruK(LruKPolicy::new(k)),
            PolicySpec::CostBased => PolicyKind::CostBased(CostBasedPolicy::new()),
        }
    }
}

/// Static-dispatch union of all policies (pools are homogeneous per node but
/// nodes in one simulation may mix policies).
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// See [`LruPolicy`].
    Lru(LruPolicy),
    /// See [`FifoPolicy`].
    Fifo(FifoPolicy),
    /// See [`ClockPolicy`].
    Clock(ClockPolicy),
    /// See [`LruKPolicy`].
    LruK(LruKPolicy),
    /// See [`CostBasedPolicy`].
    CostBased(CostBasedPolicy),
}

impl PolicyKind {
    /// Sizes per-page tables for page ids `0..db_pages` up front (only the
    /// cost-based policy's freshness bitset has one to size).
    pub(crate) fn reserve_pages(&mut self, db_pages: usize) {
        if let PolicyKind::CostBased(p) = self {
            p.reserve_pages(db_pages);
        }
    }

    /// Access the cost-based policy, if that is what this is.
    #[inline]
    pub fn as_cost_based_mut(&mut self) -> Option<&mut CostBasedPolicy> {
        match self {
            PolicyKind::CostBased(p) => Some(p),
            _ => None,
        }
    }

    /// Immutable access to the cost-based policy, if that is what this is
    /// (freshness peeks on the victim path).
    #[inline]
    pub fn as_cost_based(&self) -> Option<&CostBasedPolicy> {
        match self {
            PolicyKind::CostBased(p) => Some(p),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            PolicyKind::Lru($p) => $body,
            PolicyKind::Fifo($p) => $body,
            PolicyKind::Clock($p) => $body,
            PolicyKind::LruK($p) => $body,
            PolicyKind::CostBased($p) => $body,
        }
    };
}

impl Policy for PolicyKind {
    #[inline]
    fn on_insert(&mut self, page: PageId, now: SimTime) {
        dispatch!(self, p => p.on_insert(page, now))
    }
    fn on_access(&mut self, page: PageId, now: SimTime) {
        dispatch!(self, p => p.on_access(page, now))
    }
    #[inline]
    fn on_remove(&mut self, page: PageId) {
        dispatch!(self, p => p.on_remove(page))
    }
    #[inline]
    fn victim(&mut self) -> Option<PageId> {
        dispatch!(self, p => p.victim())
    }
    fn len(&self) -> usize {
        dispatch!(self, p => p.len())
    }
    #[inline]
    fn contains(&self, page: PageId) -> bool {
        dispatch!(self, p => p.contains(page))
    }
    fn page_at(&self, slot: usize) -> PageId {
        dispatch!(self, p => p.page_at(slot))
    }
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

/// Least-recently-used: victim is the page with the smallest access stamp.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy {
    heap: IndexedMinHeap<PageId, u64>,
    stamp: u64,
}

impl LruPolicy {
    /// Empty policy.
    pub fn new() -> Self {
        Self::default()
    }
    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

impl Policy for LruPolicy {
    fn on_insert(&mut self, page: PageId, _now: SimTime) {
        let s = self.bump();
        self.heap.insert(page, s);
    }
    fn on_access(&mut self, page: PageId, _now: SimTime) {
        let s = self.bump();
        self.heap.update(page, s);
    }
    fn on_remove(&mut self, page: PageId) {
        self.heap.remove(&page);
    }
    fn victim(&mut self) -> Option<PageId> {
        self.heap.peek_min().map(|(p, _)| *p)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn contains(&self, page: PageId) -> bool {
        self.heap.contains(&page)
    }
    fn page_at(&self, slot: usize) -> PageId {
        self.heap.item_at(slot)
    }
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out: victim is the page inserted earliest; accesses do not
/// change the order. Exhibits Belady's anomaly, violating the paper's §3
/// monotonicity assumption — provided for tests and comparison.
#[derive(Debug, Clone, Default)]
pub struct FifoPolicy {
    heap: IndexedMinHeap<PageId, u64>,
    stamp: u64,
}

impl FifoPolicy {
    /// Empty policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for FifoPolicy {
    fn on_insert(&mut self, page: PageId, _now: SimTime) {
        self.stamp += 1;
        self.heap.insert(page, self.stamp);
    }
    fn on_access(&mut self, _page: PageId, _now: SimTime) {}
    fn on_remove(&mut self, page: PageId) {
        self.heap.remove(&page);
    }
    fn victim(&mut self) -> Option<PageId> {
        self.heap.peek_min().map(|(p, _)| *p)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn contains(&self, page: PageId) -> bool {
        self.heap.contains(&page)
    }
    fn page_at(&self, slot: usize) -> PageId {
        self.heap.item_at(slot)
    }
}

// ---------------------------------------------------------------------------
// CLOCK
// ---------------------------------------------------------------------------

/// Second-chance CLOCK: a circular scan clears reference bits and evicts the
/// first unreferenced page.
#[derive(Debug, Clone, Default)]
pub struct ClockPolicy {
    frames: Vec<PageId>,
    referenced: Vec<bool>,
    pos: IdHashMap<PageId, usize>,
    hand: usize,
}

impl ClockPolicy {
    /// Empty policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for ClockPolicy {
    fn on_insert(&mut self, page: PageId, _now: SimTime) {
        assert!(!self.pos.contains_key(&page));
        self.pos.insert(page, self.frames.len());
        self.frames.push(page);
        self.referenced.push(true);
    }
    fn on_access(&mut self, page: PageId, _now: SimTime) {
        let &i = self.pos.get(&page).expect("page not tracked");
        self.referenced[i] = true;
    }
    fn on_remove(&mut self, page: PageId) {
        let Some(i) = self.pos.remove(&page) else {
            return;
        };
        self.frames.swap_remove(i);
        self.referenced.swap_remove(i);
        if i < self.frames.len() {
            self.pos.insert(self.frames[i], i);
        }
        if self.hand >= self.frames.len() {
            self.hand = 0;
        }
    }
    fn victim(&mut self) -> Option<PageId> {
        if self.frames.is_empty() {
            return None;
        }
        // At most two sweeps: the first clears bits, the second must find a
        // victim.
        for _ in 0..2 * self.frames.len() {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.referenced[i] {
                self.referenced[i] = false;
            } else {
                return Some(self.frames[i]);
            }
        }
        Some(self.frames[self.hand])
    }
    fn len(&self) -> usize {
        self.frames.len()
    }
    fn contains(&self, page: PageId) -> bool {
        self.pos.contains_key(&page)
    }
    fn page_at(&self, slot: usize) -> PageId {
        self.frames[slot]
    }
}

// ---------------------------------------------------------------------------
// LRU-K
// ---------------------------------------------------------------------------

/// LRU-K of O'Neil, O'Neil & Weikum \[21\]: victim is the page with the oldest
/// K-th most recent reference ("maximum backward K-distance"); pages with
/// fewer than K references have infinite distance and are evicted first, LRU
/// among themselves.
#[derive(Debug, Clone)]
pub struct LruKPolicy {
    k: usize,
    /// Last up-to-K access stamps per page, newest last.
    history: IdHashMap<PageId, Vec<u64>>,
    /// Priority: (kth-most-recent stamp or 0 when history < K, last stamp).
    heap: IndexedMinHeap<PageId, (u64, u64)>,
    stamp: u64,
}

impl LruKPolicy {
    /// Policy with history depth `k ≥ 1` (k = 1 degenerates to LRU).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        LruKPolicy {
            k,
            history: IdHashMap::default(),
            heap: IndexedMinHeap::new(),
            stamp: 0,
        }
    }

    fn record(&mut self, page: PageId) {
        self.stamp += 1;
        let h = self.history.entry(page).or_default();
        h.push(self.stamp);
        if h.len() > self.k {
            h.remove(0); // k is tiny (2–3); shifting is cheap
        }
        let last = *h.last().expect("just pushed");
        let kth = if h.len() == self.k { h[0] } else { 0 };
        self.heap.upsert(page, (kth, last));
    }
}

impl Policy for LruKPolicy {
    fn on_insert(&mut self, page: PageId, _now: SimTime) {
        self.record(page);
    }
    fn on_access(&mut self, page: PageId, _now: SimTime) {
        self.record(page);
    }
    fn on_remove(&mut self, page: PageId) {
        self.heap.remove(&page);
        self.history.remove(&page);
    }
    fn victim(&mut self) -> Option<PageId> {
        self.heap.peek_min().map(|(p, _)| *p)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn contains(&self, page: PageId) -> bool {
        self.heap.contains(&page)
    }
    fn page_at(&self, slot: usize) -> PageId {
        self.heap.item_at(slot)
    }
}

// ---------------------------------------------------------------------------
// Cost-based (benefit queue)
// ---------------------------------------------------------------------------

/// The §6 policy: pages carry an externally computed benefit (the access-cost
/// difference between keeping and dropping the local copy) and the page with
/// the lowest benefit is the victim. Newly inserted pages start at infinite
/// benefit until the cluster layer prices them, so a page is never evicted
/// in the instant between fetch and pricing.
///
/// Every benefit carries a *fresh* flag: set when the benefit is priced,
/// cleared by [`Self::invalidate`] when one of its inputs changes. The lazy
/// maintenance mode of the cluster layer uses the flags for lazy
/// invalidation: instead of re-pricing every page per interval, it consults
/// [`Self::min_with_freshness`] right before an eviction and recomputes only
/// stale heap minima. The policy keeps no age: a benefit stays fresh until
/// it is invalidated, and [`Self::scale_benefits`] applies the per-epoch
/// multiplicative decay that stands in for the passage of time.
///
/// The heap is keyed by the IEEE-754 bits of the (non-negative) benefit,
/// which order exactly like the values on `[0, ∞]` once −0 is folded into
/// +0, so sifts compare integers and the victims are the float order's.
/// The flags live beside the heap in a bitset indexed by page id: a heap
/// entry is 16 bytes, and an invalidation is one bit write with no
/// position lookup.
#[derive(Debug, Clone)]
pub struct CostBasedPolicy {
    /// Page → [`benefit_key`] of its benefit divided by `scale`.
    heap: IndexedMinHeap<PageId, u64>,
    /// One bit per page id: priced, and not invalidated since. Clear for
    /// every page off the pool, so a re-inserted page starts stale.
    fresh: Vec<u64>,
    /// Implicit multiplier on every stored priority. [`Self::scale_benefits`]
    /// only updates this factor — O(1), not O(pool) — because a common
    /// positive multiplier never changes the heap order. New prices are
    /// divided by `scale` on the way in and priorities multiplied by it on
    /// the way out, so externally benefits behave as if each entry had been
    /// scaled in place. Renormalized physically before it underflows.
    scale: f64,
}

/// The heap key of a non-negative benefit: its bit pattern, which orders
/// like the value on `[0, ∞]`. Adding `+0.0` folds −0 into +0 and leaves
/// every other non-negative value unchanged.
#[inline]
fn benefit_key(benefit: f64) -> u64 {
    (benefit + 0.0).to_bits()
}

impl Default for CostBasedPolicy {
    fn default() -> Self {
        CostBasedPolicy {
            heap: IndexedMinHeap::new(),
            fresh: Vec::new(),
            scale: 1.0,
        }
    }
}

impl CostBasedPolicy {
    /// Empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the freshness bitset for page ids `0..db_pages` up front, so
    /// pricing pages of that database never grows it.
    pub(crate) fn reserve_pages(&mut self, db_pages: usize) {
        self.fresh.resize(db_pages.div_ceil(64), 0);
    }

    #[inline]
    fn set_fresh(&mut self, page: PageId) {
        let i = page.index();
        if i / 64 >= self.fresh.len() {
            self.fresh.resize(i / 64 + 1, 0);
        }
        self.fresh[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear_fresh(&mut self, page: PageId) {
        let i = page.index();
        if let Some(word) = self.fresh.get_mut(i / 64) {
            *word &= !(1 << (i % 64));
        }
    }

    /// Sets the benefit of a tracked page and marks it fresh. Ignored for
    /// untracked pages (the page may have been evicted between pricing and
    /// delivery). Panics unless `benefit ≥ 0` (NaN included).
    #[inline]
    pub fn set_benefit(&mut self, page: PageId, benefit: f64) {
        assert!(
            benefit >= 0.0,
            "benefit must be non-negative, got {benefit}"
        );
        if self.heap.contains(&page) {
            self.heap.update(page, benefit_key(benefit / self.scale));
            self.set_fresh(page);
        }
    }

    /// Current benefit of a tracked page.
    pub fn benefit(&self, page: PageId) -> Option<f64> {
        self.heap
            .priority(&page)
            .map(|key| f64::from_bits(key) * self.scale)
    }

    /// Marks a tracked page's benefit stale (O(1)); its next appearance as
    /// heap minimum forces a recompute. No-op for untracked pages.
    #[inline]
    pub fn invalidate(&mut self, page: PageId) {
        self.clear_fresh(page);
    }

    /// True if `page`'s benefit was priced and not invalidated since.
    #[inline]
    pub fn is_fresh(&self, page: PageId) -> bool {
        let i = page.index();
        self.fresh
            .get(i / 64)
            .is_some_and(|word| word >> (i % 64) & 1 == 1)
    }

    /// The current heap minimum together with whether its benefit is
    /// fresh. The lazy victim loop calls this, re-prices the page when
    /// stale, and retries until the minimum is fresh. Age alone never makes
    /// a benefit stale here; a caller for whom age matters checks it
    /// itself.
    #[inline]
    pub fn min_with_freshness(&self) -> Option<(PageId, bool)> {
        self.heap
            .peek_min()
            .map(|(&page, _)| (page, self.is_fresh(page)))
    }

    /// Multiplies every benefit by `factor` (0 < factor ≤ 1) without
    /// touching the fresh flags. Scaling preserves the heap order, keeps
    /// `∞` (unpriced) entries at `∞`, and drives pages that stopped being
    /// re-priced toward the heap minimum, where they are evicted on the
    /// decayed estimate unless they are stale.
    ///
    /// O(1): only the implicit `scale` factor changes, so the lazy
    /// mode's per-interval maintenance does no per-page work at all — the
    /// full per-interval cost is the victim-loop recomputes,
    /// O(evictions · log pool). The stored priorities are renormalized
    /// physically only when the accumulated factor approaches underflow
    /// (every ~640 intervals at the default decay), which amortizes to
    /// nothing.
    pub fn scale_benefits(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "decay factor {factor}");
        self.scale *= factor;
        if self.scale < 1e-120 {
            let s = self.scale;
            self.heap
                .map_priorities(|key| benefit_key(f64::from_bits(key) * s));
            self.scale = 1.0;
        }
    }
}

impl Policy for CostBasedPolicy {
    fn on_insert(&mut self, page: PageId, _now: SimTime) {
        // Unpriced and stale (its flag was cleared when it last left):
        // infinite benefit until the first pricing.
        self.heap.insert(page, benefit_key(f64::INFINITY));
    }
    fn on_access(&mut self, _page: PageId, _now: SimTime) {
        // Benefit changes are driven by the heat bookkeeping outside.
    }
    fn on_remove(&mut self, page: PageId) {
        self.heap.remove(&page);
        self.clear_fresh(page);
    }
    fn victim(&mut self) -> Option<PageId> {
        self.heap.peek_min().map(|(p, _)| *p)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn contains(&self, page: PageId) -> bool {
        self.heap.contains(&page)
    }
    fn page_at(&self, slot: usize) -> PageId {
        self.heap.item_at(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = LruPolicy::new();
        p.on_insert(PageId(1), t(0));
        p.on_insert(PageId(2), t(1));
        p.on_insert(PageId(3), t(2));
        p.on_access(PageId(1), t(3));
        assert_eq!(p.victim(), Some(PageId(2)));
        p.on_remove(PageId(2));
        assert_eq!(p.victim(), Some(PageId(3)));
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut p = FifoPolicy::new();
        p.on_insert(PageId(1), t(0));
        p.on_insert(PageId(2), t(1));
        p.on_access(PageId(1), t(2));
        assert_eq!(p.victim(), Some(PageId(1)));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::new();
        p.on_insert(PageId(1), t(0));
        p.on_insert(PageId(2), t(1));
        p.on_insert(PageId(3), t(2));
        // All referenced: first sweep clears 1,2,3 then evicts 1.
        assert_eq!(p.victim(), Some(PageId(1)));
        // Re-reference 2; next victim scan starts after 1's slot.
        p.on_access(PageId(2), t(3));
        p.on_remove(PageId(1));
        assert_eq!(p.victim(), Some(PageId(3)));
    }

    #[test]
    fn clock_remove_keeps_state_consistent() {
        let mut p = ClockPolicy::new();
        for i in 0..5u32 {
            p.on_insert(PageId(i), t(i as u64));
        }
        p.on_remove(PageId(2));
        p.on_remove(PageId(4));
        assert_eq!(p.len(), 3);
        let v = p.victim().expect("non-empty");
        assert!([0u32, 1, 3].contains(&v.0));
    }

    #[test]
    fn lru_k_prefers_pages_without_full_history() {
        let mut p = LruKPolicy::new(2);
        p.on_insert(PageId(1), t(0));
        p.on_access(PageId(1), t(1)); // 1 has full history
        p.on_insert(PageId(2), t(2)); // 2 has one access only
        assert_eq!(p.victim(), Some(PageId(2)));
        // Among <K pages, LRU applies.
        p.on_insert(PageId(3), t(3));
        assert_eq!(p.victim(), Some(PageId(2)));
    }

    #[test]
    fn lru_k_orders_by_kth_access() {
        let mut p = LruKPolicy::new(2);
        p.on_insert(PageId(1), t(0));
        p.on_access(PageId(1), t(1));
        p.on_insert(PageId(2), t(2));
        p.on_access(PageId(2), t(3));
        // kth (2nd-most-recent) stamps: page1 = stamp1, page2 = stamp3.
        assert_eq!(p.victim(), Some(PageId(1)));
        // Two more accesses to page1 push its kth stamp past page2's.
        p.on_access(PageId(1), t(4));
        p.on_access(PageId(1), t(5));
        assert_eq!(p.victim(), Some(PageId(2)));
    }

    #[test]
    fn lru_k1_behaves_like_lru() {
        let mut p = LruKPolicy::new(1);
        p.on_insert(PageId(1), t(0));
        p.on_insert(PageId(2), t(1));
        p.on_access(PageId(1), t(2));
        assert_eq!(p.victim(), Some(PageId(2)));
    }

    #[test]
    fn cost_based_orders_by_benefit() {
        let mut p = CostBasedPolicy::new();
        p.on_insert(PageId(1), t(0));
        p.on_insert(PageId(2), t(0));
        // Unpriced pages are never victims ahead of priced ones.
        p.set_benefit(PageId(1), 5.0);
        assert_eq!(p.victim(), Some(PageId(1)));
        p.set_benefit(PageId(2), 1.0);
        assert_eq!(p.victim(), Some(PageId(2)));
        // Pricing an evicted page is a no-op.
        p.on_remove(PageId(2));
        p.set_benefit(PageId(2), 0.0);
        assert_eq!(p.victim(), Some(PageId(1)));
    }

    #[test]
    fn cost_based_freshness_lasts_until_invalidated() {
        let mut p = CostBasedPolicy::new();
        p.on_insert(PageId(1), t(0));
        // Unpriced pages are stale.
        assert_eq!(p.min_with_freshness(), Some((PageId(1), false)));
        p.set_benefit(PageId(1), 2.0);
        assert!(p.is_fresh(PageId(1)));
        // Decay ages the benefit without making it stale.
        for _ in 0..5 {
            p.scale_benefits(0.65);
        }
        assert_eq!(p.min_with_freshness(), Some((PageId(1), true)));
        // O(1) invalidation forces a recompute at the next victim check.
        p.invalidate(PageId(1));
        assert_eq!(p.min_with_freshness(), Some((PageId(1), false)));
        // Removal drops the flag too: a re-inserted page starts stale.
        p.set_benefit(PageId(1), 2.0);
        p.on_remove(PageId(1));
        p.on_insert(PageId(1), t(1));
        assert!(!p.is_fresh(PageId(1)));
    }

    #[test]
    fn cost_based_decay_preserves_order_and_infinities() {
        let mut p = CostBasedPolicy::new();
        p.on_insert(PageId(1), t(0));
        p.on_insert(PageId(2), t(0));
        p.on_insert(PageId(3), t(0));
        p.set_benefit(PageId(1), 8.0);
        p.set_benefit(PageId(2), 2.0);
        p.scale_benefits(0.5);
        assert_eq!(p.benefit(PageId(1)), Some(4.0));
        assert_eq!(p.benefit(PageId(2)), Some(1.0));
        assert_eq!(p.benefit(PageId(3)), Some(f64::INFINITY));
        assert_eq!(p.victim(), Some(PageId(2)));
        // Decay does not touch the fresh flags.
        assert!(p.is_fresh(PageId(1)));
        assert!(!p.is_fresh(PageId(3)));
    }

    #[test]
    fn benefit_keys_order_like_the_float_compare() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut rng = dmm_sim::SimRng::seed_from_u64(0xB175);
        for _ in 0..600 {
            // Random bit patterns with the sign cleared span every
            // exponent, subnormals included; the scaled uniforms give ties
            // and near-ties in the ranges benefits live in.
            values.push(f64::from_bits(rng.next_u64() >> 1));
            values.push(rng.index(8) as f64 * rng.uniform01());
        }
        values.retain(|v| !v.is_nan());
        for a in &values {
            for b in &values {
                assert_eq!(
                    benefit_key(*a).cmp(&benefit_key(*b)),
                    a.partial_cmp(b).expect("no NaN"),
                    "{a:e} vs {b:e}"
                );
            }
        }
        assert_eq!(benefit_key(-0.0), benefit_key(0.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn set_benefit_rejects_a_negative_benefit() {
        let mut p = CostBasedPolicy::new();
        p.on_insert(PageId(1), t(0));
        p.set_benefit(PageId(1), -1e-300);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn set_benefit_rejects_nan() {
        let mut p = CostBasedPolicy::new();
        // Checked even for an untracked page.
        p.set_benefit(PageId(1), f64::NAN);
    }

    #[test]
    fn freshness_bitset_is_sized_once_for_the_database() {
        let mut p = PolicySpec::CostBased.build();
        p.reserve_pages(130);
        let c = p.as_cost_based_mut().expect("cost based");
        assert_eq!(c.fresh.len(), 3);
        c.on_insert(PageId(129), t(0));
        c.set_benefit(PageId(129), 1.0);
        assert!(c.is_fresh(PageId(129)));
        assert_eq!(
            c.fresh.len(),
            3,
            "a priced page inside the database grows nothing"
        );
        // Invalidating or asking about a page past every word is a no-op.
        c.invalidate(PageId(10_000));
        assert!(!c.is_fresh(PageId(10_000)));
        assert_eq!(c.fresh.len(), 3);
    }

    #[test]
    fn a_heap_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<(u64, PageId)>(), 16);
    }

    #[test]
    fn policy_kind_dispatch() {
        let mut k = PolicySpec::Lru.build();
        k.on_insert(PageId(1), t(0));
        k.on_insert(PageId(2), t(1));
        assert_eq!(k.len(), 2);
        assert_eq!(k.victim(), Some(PageId(1)));
        assert!(k.as_cost_based_mut().is_none());
        assert!(k.as_cost_based().is_none());
        let mut c = PolicySpec::CostBased.build();
        c.on_insert(PageId(9), t(0));
        c.as_cost_based_mut()
            .expect("cost based")
            .set_benefit(PageId(9), 2.0);
        assert!(c.as_cost_based().expect("cost based").is_fresh(PageId(9)));
        assert_eq!(c.victim(), Some(PageId(9)));
    }
}
