//! §6 benefit maintenance of the cost-based policy: pricing a copy, the
//! O(1) invalidations that mark a benefit stale, the victim loop that
//! re-prices stale heap minima right before an eviction, the per-interval
//! decay, the walks before pool resizes, and the victim-regret audit that
//! judges the loop against §6's exact lowest-benefit page (DESIGN.md §5d).

use dmm_buffer::{ClassId, PageId, PolicySpec};
use dmm_sim::SimTime;

use super::DataPlane;
use crate::benefit::{benefit_ms, BenefitInputs};
use crate::ids::NodeId;

/// Epochs a last copy's benefit stays fresh without an invalidation. Heat
/// decays hyperbolically between touches — slower than the per-epoch 0.65
/// benefit decay once a page's heat window is long — so an untouched page's
/// decayed benefit drifts below its true value. Only a last copy's drift is
/// costly: evicting it turns other nodes' remote hits into disk reads,
/// where a replicated copy costs one remote hit. So only a last copy is
/// re-priced for age. On `large_pool` (seed 42) four epochs hold the disk
/// fraction at 0.2388 against 0.2383 with a two-epoch window for every
/// page; 8 epochs read 0.2446, and no horizon at all 0.2907. The regret
/// rows of `tests/lazy_repricing.rs` judge it against §6's exact victim.
const LAST_COPY_HORIZON: u64 = 4;

/// Counters describing how much work benefit maintenance performed.
/// Exposed via [`DataPlane::reprice_stats`] and as `cluster.reprice.*`
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepriceStats {
    /// Every benefit computation performed: install and pool-change
    /// pricing, second-copy drops, stale-min refreshes, resize walks.
    pub recomputes: u64,
    /// Stale heap minima re-priced by the victim loop (retries before an
    /// eviction decision).
    pub heap_retries: u64,
    /// O(1) invalidations: an input of a benefit changed, and the victim
    /// loop re-prices it if it reaches a heap minimum.
    pub stale_marks: u64,
    /// Global-heat lookups answered from the per-epoch cache.
    pub heat_cache_hits: u64,
    /// Global-heat lookups that had to walk the directory.
    pub heat_cache_misses: u64,
    /// Pages visited by the full-pool pricing walks before pool resizes.
    pub sweep_pages: u64,
}

/// One full cost-based pool's entry in [`DataPlane::victim_regret`]: the
/// page the lazy victim loop would evict next, judged against §6's exact
/// lowest-benefit page of the same pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimAudit {
    /// Node holding the pool.
    pub node: NodeId,
    /// Memory tier of the pool.
    pub tier: usize,
    /// Pool class (the no-goal pool or a goal class's dedicated pool).
    pub pool: ClassId,
    /// The page the victim loop would evict.
    pub victim: PageId,
    /// `b*(victim) − minₚ b*(p)`, with every benefit priced exactly at the
    /// audit instant; 0 when the victim is an exact argmin.
    pub regret: f64,
    /// Pool pages whose exact benefit lies strictly below the victim's.
    pub rank: usize,
}

impl VictimAudit {
    /// Whether the victim is §6's exact lowest-benefit page (ties count).
    pub fn is_exact(&self) -> bool {
        self.rank == 0
    }
}

impl DataPlane {
    /// `Directory::global_heat_per_ms` memoized per (page, epoch) in the
    /// page's directory record.
    #[inline]
    fn cached_global_heat(&mut self, page: PageId, now: SimTime) -> f64 {
        let (heat, hit) = self.directory.memo_global_heat(page, now, self.epoch + 1);
        if hit {
            self.reprice_stats.heat_cache_hits += 1;
        } else {
            self.reprice_stats.heat_cache_misses += 1;
        }
        heat
    }

    /// True when the lazy victim loop must re-price `page`'s copy in memory
    /// tier `tier` of `node` before evicting on it: the policy flags it
    /// stale (an input changed since pricing), or it is a last copy on the
    /// last memory tier — where a drop loses the copy — priced with a
    /// global heat read [`LAST_COPY_HORIZON`] or more epochs ago. The
    /// memo's stamp is that read's epoch: only the page's holders price it,
    /// and a copy that becomes the last one is invalidated, so for a fresh
    /// last copy no later read can have refreshed the memo.
    #[inline]
    fn needs_reprice(&self, node: NodeId, page: PageId, tier: usize, fresh: bool) -> bool {
        if !fresh {
            return true;
        }
        self.epoch + 1 - self.directory.memo_stamp(page) >= LAST_COPY_HORIZON
            && tier + 1 == self.nodes[node.index()].buffer.num_tiers()
            && self.directory.is_last_copy(page, node)
    }

    /// Marks `page`'s benefit at `node` stale in O(1); the lazy victim loop
    /// re-prices it if it ever becomes a heap minimum.
    pub(super) fn mark_stale(&mut self, node: NodeId, page: PageId) {
        if let Some((tier, pool_class)) = self.nodes[node.index()].buffer.locate(page) {
            self.mark_stale_at(node, page, tier, pool_class);
        }
    }

    /// [`Self::mark_stale`] for a page the caller already located in
    /// `(tier, pool_class)` of `node`'s buffer.
    #[inline]
    pub(super) fn mark_stale_at(
        &mut self,
        node: NodeId,
        page: PageId,
        tier: usize,
        pool_class: ClassId,
    ) {
        if let Some(cost_policy) = self.nodes[node.index()]
            .buffer
            .pool_mut_at(tier, pool_class)
            .policy_mut()
            .as_cost_based_mut()
        {
            cost_policy.invalidate(page);
            self.reprice_stats.stale_marks += 1;
        }
    }

    /// Called before an access or install of `page` by `class` at `node`,
    /// where the caller located the page at `at` (`None`: not resident):
    /// when the step inserts into a full pool (the buffer's
    /// [`route`](dmm_buffer::TieredBuffer::route)), makes sure that pool's
    /// heap minimum carries a fresh benefit. Re-pricing moves no page
    /// between pools, so `at` still holds afterwards.
    pub(super) fn prepare_for_install(
        &mut self,
        node: NodeId,
        class: ClassId,
        page: PageId,
        at: Option<(usize, ClassId)>,
        now: SimTime,
    ) {
        if self.params.policy != PolicySpec::CostBased {
            return;
        }
        // Cascade demotions past the first displaced pool may still evict
        // on stale minima; that only degrades pricing quality, never
        // correctness.
        let buf = &self.nodes[node.index()].buffer;
        let Some((tier, target)) = buf.route(class, page, at) else {
            return;
        };
        let pool = buf.pool_at(tier, target);
        if pool.capacity() > 0 && pool.len() >= pool.capacity() {
            self.ensure_fresh_victim(node, tier, target, now);
        }
    }

    /// The lazy victim loop (the classic stale-priority-queue trick): peek
    /// the heap minimum; if [`Self::needs_reprice`] says so, re-price it —
    /// the entry sifts to its true position — and retry until the minimum
    /// needs none. Each retry freshens one page, so the loop is bounded by
    /// the pool size; a retry needs an invalidation since the page was last
    /// priced, or a last copy past its horizon, so in practice a handful
    /// suffice.
    fn ensure_fresh_victim(
        &mut self,
        node: NodeId,
        tier: usize,
        pool_class: ClassId,
        now: SimTime,
    ) {
        for _ in 0..=self.nodes[node.index()]
            .buffer
            .pool_at(tier, pool_class)
            .len()
        {
            let min = self.nodes[node.index()]
                .buffer
                .pool_at(tier, pool_class)
                .policy()
                .as_cost_based()
                .and_then(|p| p.min_with_freshness());
            match min {
                Some((page, fresh)) if self.needs_reprice(node, page, tier, fresh) => {
                    self.reprice_stats.heap_retries += 1;
                    self.reprice_at(node, page, tier, pool_class, now);
                }
                _ => return,
            }
        }
        debug_assert!(false, "lazy victim loop failed to converge");
    }

    /// Recomputes the §6 benefit of `page`'s copy at `node` if the pools use
    /// the cost-based policy, marking it fresh.
    pub(super) fn reprice(&mut self, node: NodeId, page: PageId, now: SimTime) {
        if self.params.policy != PolicySpec::CostBased {
            return;
        }
        let Some((tier, pool_class)) = self.nodes[node.index()].buffer.locate(page) else {
            return;
        };
        self.reprice_at(node, page, tier, pool_class, now);
    }

    /// [`Self::reprice`] for a page the caller already located in
    /// `(tier, pool_class)` of `node`'s cost-based buffer.
    fn reprice_at(
        &mut self,
        node: NodeId,
        page: PageId,
        tier: usize,
        pool_class: ClassId,
        now: SimTime,
    ) {
        let global_heat = self.cached_global_heat(page, now);
        let b = self.benefit(node, page, tier, pool_class, global_heat, now);
        if let Some(cost_policy) = self.nodes[node.index()]
            .buffer
            .pool_mut_at(tier, pool_class)
            .policy_mut()
            .as_cost_based_mut()
        {
            cost_policy.set_benefit(page, b);
            self.reprice_stats.recomputes += 1;
        }
    }

    /// The §6 benefit of `page`'s copy in `(tier, pool_class)` of `node` at
    /// `now`, given the page's global heat.
    #[inline]
    fn benefit(
        &self,
        node: NodeId,
        page: PageId,
        tier: usize,
        pool_class: ClassId,
        global_heat: f64,
        now: SimTime,
    ) -> f64 {
        let heat = &self.nodes[node.index()].heat;
        let ranking_heat = if pool_class.is_no_goal() {
            heat.accumulated_heat_per_ms(page, now)
        } else {
            heat.class_heat_per_ms(page, pool_class, now)
        };
        let inputs = BenefitInputs {
            ranking_heat_per_ms: ranking_heat,
            global_heat_per_ms: global_heat,
            last_copy: self.directory.is_last_copy(page, node),
            home_is_local: self.homes.is_home(page, node),
            mem_tier: tier as u8,
        };
        benefit_ms(inputs, &self.costs)
    }

    /// Audits victim choice against §6's definition — "the locally
    /// lowest-benefit page". For every full cost-based pool it runs the
    /// production victim loop on a throwaway clone of the plane to find the
    /// page the pool would evict at `now`, and re-prices every resident
    /// page with current inputs:
    /// uncached global heat and the current cost estimates. Read-only: the
    /// run itself is untouched, so an audited run's trace is byte-identical
    /// to an unaudited one. Costs a plane clone plus one benefit per
    /// resident page of every full pool; a test and measurement tool, not
    /// for the operation path.
    pub fn victim_regret(&self, now: SimTime) -> Vec<VictimAudit> {
        let mut audits = Vec::new();
        if self.params.policy != PolicySpec::CostBased {
            return audits;
        }
        let mut trial = self.clone();
        for (n, state) in self.nodes.iter().enumerate() {
            let node = NodeId(n as u16);
            for (tier, pool_class, pool) in state.buffer.pools() {
                if pool.capacity() == 0 || pool.len() < pool.capacity() {
                    continue;
                }
                // Every pool's loop starts from the run's own heat memo
                // (it lives in the directory records), as if it were the
                // next pool to evict.
                trial.directory.clone_from(&self.directory);
                trial.ensure_fresh_victim(node, tier, pool_class, now);
                let Some((victim, _)) = trial.nodes[n]
                    .buffer
                    .pool_at(tier, pool_class)
                    .policy()
                    .as_cost_based()
                    .and_then(|p| p.min_with_freshness())
                else {
                    continue;
                };
                let exact = |page: PageId| {
                    let global = self.directory.global_heat_per_ms(page, now);
                    self.benefit(node, page, tier, pool_class, global, now)
                };
                let victim_benefit = exact(victim);
                let mut lowest = victim_benefit;
                let mut rank = 0;
                for page in pool.pages() {
                    let b = exact(page);
                    lowest = lowest.min(b);
                    rank += usize::from(b < victim_benefit);
                }
                audits.push(VictimAudit {
                    node,
                    tier,
                    pool: pool_class,
                    victim,
                    regret: victim_benefit - lowest,
                    rank,
                });
            }
        }
        audits
    }

    /// Decays every benefit in every cost-based pool. Scaling is
    /// order-preserving per pool (and O(1) per pool — only the policy's
    /// implicit scale factor moves), so victim order within an epoch is
    /// untouched. It is the plane's model of the passage of time: a
    /// touch invalidates a benefit, so an untouched page is never
    /// re-priced for age alone (a last copy past [`LAST_COPY_HORIZON`]
    /// excepted) — the decay ages its estimate instead, sinking pages that
    /// stopped being touched toward the heap minimum, below recently priced
    /// entries, where they are evicted on the decayed estimate.
    /// 0.65 per 5-second interval was tuned at the paper-scale base run
    /// while every benefit also went stale two epochs after pricing (0.5
    /// then flooded the victim loop with age retries; 0.7 let
    /// over-estimates lift disk I/O). Re-measured with freshness keyed to
    /// invalidations (before the last-copy horizon was added): 0.8 lifted
    /// paper-scale disk I/O to +26 % over a once-per-interval re-pricing
    /// sweep of every page (0.65: +11 %), and 0.5 lifted `large_pool`'s
    /// disk fraction by 0.02. So the factor stays; the regret rows of
    /// `tests/lazy_repricing.rs` hold it to §6's exact lowest-benefit
    /// victim (DESIGN.md §5d).
    pub(super) fn decay_benefits(&mut self) {
        const DECAY: f64 = 0.65;
        for node in &mut self.nodes {
            for (_, _, pool) in node.buffer.pools_mut() {
                if let Some(p) = pool.policy_mut().as_cost_based_mut() {
                    p.scale_benefits(DECAY);
                }
            }
        }
    }

    /// Re-prices every page of one pool class across every tier, reusing
    /// the scratch buffer instead of collecting a fresh `Vec` per pool per
    /// sweep.
    pub(super) fn reprice_pool(&mut self, node: NodeId, pool_class: ClassId, now: SimTime) {
        let mut scratch = std::mem::take(&mut self.sweep_scratch);
        for t in 0..self.nodes[node.index()].buffer.num_tiers() {
            scratch.clear();
            scratch.extend(
                self.nodes[node.index()]
                    .buffer
                    .pool_at(t, pool_class)
                    .pages(),
            );
            self.reprice_stats.sweep_pages += scratch.len() as u64;
            for &page in &scratch {
                self.reprice_at(node, page, t, pool_class, now);
            }
        }
        self.sweep_scratch = scratch;
    }
}
