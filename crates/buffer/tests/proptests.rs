//! Randomized-input tests: heap ordering, pool capacity invariants, LRU
//! stack property, and partitioned-buffer consistency under random
//! operation sequences. Cases are generated from seeded [`SimRng`] streams
//! for reproducibility.

use std::collections::BTreeMap;

use dmm_buffer::{
    ClassId, HeatEstimator, IndexedMinHeap, NodeHeat, PageId, Policy, PolicySpec, Pool, TierPolicy,
    TieredAccess, TieredBuffer, HEAT_K, NO_GOAL,
};
use dmm_sim::{SimRng, SimTime};

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

#[test]
fn heap_pops_sorted() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut h: IndexedMinHeap<PageId, f64> = IndexedMinHeap::new();
        let n = 1 + rng.index(199);
        for _ in 0..n {
            h.upsert(PageId(rng.index(50) as u32), rng.uniform(0.0, 100.0));
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some((_, p)) = h.pop_min() {
            assert!(p >= prev, "seed {seed}");
            prev = p;
        }
    }
}

#[test]
fn heap_tracks_membership() {
    use std::collections::HashMap;
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(100 + seed);
        let mut h: IndexedMinHeap<PageId, u64> = IndexedMinHeap::new();
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut stamp = 0u64;
        let n = 1 + rng.index(299);
        for _ in 0..n {
            stamp += 1;
            let id = rng.index(20) as u32;
            match rng.index(3) {
                0 => {
                    h.upsert(PageId(id), stamp);
                    model.insert(id, stamp);
                }
                1 => {
                    h.remove(&PageId(id));
                    model.remove(&id);
                }
                _ => {
                    assert_eq!(h.contains(&PageId(id)), model.contains_key(&id));
                    assert_eq!(h.priority(&PageId(id)), model.get(&id).copied());
                }
            }
            assert_eq!(h.len(), model.len(), "seed {seed}");
        }
    }
}

#[test]
fn pool_never_exceeds_capacity() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(200 + seed);
        let cap = 1 + rng.index(15);
        let n = 1 + rng.index(299);
        let mut pool = Pool::new(cap, PolicySpec::Lru);
        for i in 0..n {
            let page = PageId(rng.index(40) as u32);
            if pool.contains(page) {
                pool.on_hit(page, t(i as u64));
            } else {
                pool.on_miss();
                pool.insert(page, t(i as u64));
            }
            assert!(pool.len() <= cap, "seed {seed}");
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, n as u64);
    }
}

/// LRU inclusion (stack) property: on the same trace, a larger LRU cache
/// always holds a superset of a smaller one — the monotonicity the paper's
/// §3 assumption rests on.
#[test]
fn lru_stack_property() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(300 + seed);
        let small = 1 + rng.index(7);
        let large = small + 1 + rng.index(7);
        let n = 1 + rng.index(299);
        let mut a = Pool::new(small, PolicySpec::Lru);
        let mut b = Pool::new(large, PolicySpec::Lru);
        for i in 0..n {
            let page = PageId(rng.index(30) as u32);
            for pool in [&mut a, &mut b] {
                if pool.contains(page) {
                    pool.on_hit(page, t(i as u64));
                } else {
                    pool.on_miss();
                    pool.insert(page, t(i as u64));
                }
            }
        }
        for page in a.pages() {
            assert!(
                b.contains(page),
                "stack property violated for {page} (seed {seed})"
            );
        }
        assert!(b.stats().hits >= a.stats().hits);
    }
}

/// LRU-K with k = 1 must agree with plain LRU victim-for-victim.
#[test]
fn lru_k1_equals_lru() {
    use dmm_buffer::{LruKPolicy, LruPolicy};
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(400 + seed);
        let n = 1 + rng.index(199);
        let mut lru = LruPolicy::new();
        let mut lru1 = LruKPolicy::new(1);
        let mut present = std::collections::HashSet::new();
        for i in 0..n {
            let page = PageId(rng.index(20) as u32);
            let now = t(i as u64);
            if present.insert(page) {
                lru.on_insert(page, now);
                lru1.on_insert(page, now);
            } else {
                lru.on_access(page, now);
                lru1.on_access(page, now);
            }
            assert_eq!(lru.victim(), lru1.victim(), "seed {seed}");
        }
    }
}

/// Random partitioned-buffer workload on one memory tier: invariants hold
/// after every step.
#[test]
fn partition_invariants() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(500 + seed);
        let total = 4 + rng.index(20);
        let steps = 1 + rng.index(149);
        let mut b =
            TieredBuffer::with_db_pages(&[total], 2, PolicySpec::Lru, TierPolicy::Hotness, 40);
        for i in 0..steps {
            let now = t(i as u64);
            let page = rng.index(40) as u32;
            match rng.index(3) {
                0 => {
                    // Resize a random class.
                    let class = ClassId(1 + (page % 2) as u16);
                    let size = rng.index(24);
                    let (granted, _) = b.set_dedicated(class, size);
                    assert!(granted <= total, "seed {seed}");
                }
                1 => {
                    let class = ClassId((page % 3) as u16);
                    let page = PageId(page);
                    match b.access(class, page, now) {
                        TieredAccess::Miss => {
                            b.install(class, page, now);
                        }
                        TieredAccess::Hit { .. } => {}
                    }
                }
                _ => {
                    b.drop_page(PageId(page));
                }
            }
            b.check_invariants();
            assert!(b.total_resident() <= total, "seed {seed}");
        }
    }
}

/// The historical `Vec` heat window: push at the back, `remove(0)` when
/// full.
fn vec_window_record(window: &mut Vec<SimTime>, now: SimTime) {
    if window.len() == HEAT_K {
        window.remove(0);
    }
    window.push(now);
}

fn vec_window_heat(window: &[SimTime], now: SimTime) -> f64 {
    window.first().map_or(0.0, |&oldest| {
        let span_ms = now.since(oldest).as_millis_f64().max(1e-3);
        window.len() as f64 / span_ms
    })
}

/// The inline heat window against the historical `Vec` window: every
/// reading bit-equal.
#[test]
fn inline_heat_window_matches_vec_window() {
    for seed in 0..128u64 {
        let mut rng = SimRng::seed_from_u64(700 + seed);
        let mut inline = HeatEstimator::new();
        let mut reference: Vec<SimTime> = Vec::new();
        let mut now = 0u64;
        for _ in 0..1 + rng.index(40) {
            // Gaps from zero (same-instant re-access) to ~50 ms.
            now += rng.index(4) as u64 * rng.index(12_500_000) as u64;
            if rng.index(4) > 0 {
                vec_window_record(&mut reference, t(now));
                inline.record(t(now));
            }
            let ctx = format!("seed {seed} t {now}");
            assert_eq!(
                inline.heat_per_ms(t(now)).to_bits(),
                vec_window_heat(&reference, t(now)).to_bits(),
                "{ctx}"
            );
            assert_eq!(inline.last_access(), reference.last().copied(), "{ctx}");
            assert_eq!(inline.count(), reference.len(), "{ctx}");
        }
    }
}

/// A node's heat table against one `Vec` window per tracked class plus an
/// accumulated one per page, over classes 0–3 with tracking toggled,
/// same-instant re-accesses, up to three tracked classes on one page (the
/// second and third spill) and resets: accumulated and class heats
/// bit-equal, and the same classes tracked. The no-goal class is never
/// tracked, whatever the caller passes.
#[test]
fn page_heat_matches_per_class_vec_windows() {
    type PageModel = (Vec<SimTime>, BTreeMap<ClassId, Vec<SimTime>>);
    const PAGES: usize = 3;
    let (mut most_tracked, mut resets) = (0, 0);
    for seed in 0..128u64 {
        let mut rng = SimRng::seed_from_u64(900 + seed);
        let mut heat = NodeHeat::new(PAGES);
        let mut model: Vec<PageModel> = vec![Default::default(); PAGES];
        let mut now = 0u64;
        for _ in 0..1 + rng.index(120) {
            if rng.index(50) == 0 {
                heat.reset();
                model.fill(Default::default());
                resets += 1;
            }
            // Gaps from zero (same-instant re-access) to ~25 ms.
            now += rng.index(3) as u64 * rng.index(12_500_000) as u64;
            let page = PageId(rng.index(PAGES) as u32);
            let class = ClassId(rng.index(4) as u16);
            let track = rng.index(3) > 0;
            heat.record(page, class, t(now), track);
            let (accumulated, classes) = &mut model[page.index()];
            vec_window_record(accumulated, t(now));
            if let Some(window) = classes.get_mut(&class) {
                vec_window_record(window, t(now));
            } else if track && class != NO_GOAL {
                classes.insert(class, vec![t(now)]);
            }
            most_tracked = most_tracked.max(classes.len());
            let ctx = format!("seed {seed} t {now} {page} {class:?}");
            for (p, (accumulated, classes)) in model.iter().enumerate() {
                let p = PageId(p as u32);
                assert_eq!(heat.tracked_classes(p), classes.len(), "{ctx} on {p}");
                for at in [t(now), t(now + 1_000_000)] {
                    assert_eq!(
                        heat.accumulated_heat_per_ms(p, at).to_bits(),
                        vec_window_heat(accumulated, at).to_bits(),
                        "{ctx} on {p}"
                    );
                    for c in (0..4).map(ClassId) {
                        let expected = classes.get(&c).map_or(0.0, |w| vec_window_heat(w, at));
                        assert_eq!(
                            heat.class_heat_per_ms(p, c, at).to_bits(),
                            expected.to_bits(),
                            "{ctx} on {p} reading {c:?}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(most_tracked, 3, "no page spilled twice");
    assert!(resets > 0, "no reset drawn");
}

/// The structural bounds the tiered result types state, on 1–6 memory tiers
/// under both tier policies: a displacing call reports at most one off-node
/// page (by type) and fewer demotions than tiers; each demoted page lands
/// exactly where a reference rule computed from the pool capacities puts it
/// — the first tier below its predecessor whose target pool, for the
/// carried pool's class, has frames — and a page leaves the node only when
/// that rule finds no such tier, except under the static split, which
/// demotes nothing (a migration's victim leaves the node even with room
/// below); residency is conserved and the invariants hold after every call.
#[test]
fn tiered_displacement_is_a_chain() {
    let longest = std::cell::Cell::new(0);
    let static_off_with_room = std::cell::Cell::new(0);
    for seed in 0..96u64 {
        let mut rng = SimRng::seed_from_u64(800 + seed);
        let tiers = 1 + rng.index(6);
        let frames: Vec<usize> = (0..tiers).map(|_| 1 + rng.index(6)).collect();
        let policy = [TierPolicy::Hotness, TierPolicy::StaticHash][rng.index(2)];
        let spec = [PolicySpec::Lru, PolicySpec::Fifo, PolicySpec::LruK(2)][rng.index(3)];
        let mut b = TieredBuffer::new(&frames, 2, spec, policy);
        let ctx = format!("seed {seed}: {frames:?} {policy:?} {spec:?}");
        // The reference rule: where a page displaced from `pool` of `tier`
        // lands on the hotness ladder, `None` for off the node.
        let next_home = |b: &TieredBuffer, tier: usize, pool: ClassId| {
            (tier + 1..tiers).find_map(|u| {
                let own = !pool.is_no_goal() && b.pool_at(u, pool).capacity() > 0;
                let target = if own { pool } else { NO_GOAL };
                (b.pool_at(u, target).capacity() > 0).then_some((u, target))
            })
        };
        // `from`: the `(tier, pool)` the displacement started in (the
        // page's own destination). True when a page left the node although
        // the reference rule had room for it below.
        let check_chain = |b: &TieredBuffer,
                           from: (usize, ClassId),
                           demoted: &[PageId],
                           evicted: Option<PageId>| {
            assert!(demoted.len() < tiers, "{ctx}: {demoted:?}");
            longest.set(demoted.len().max(longest.get()));
            let mut above = from;
            for &d in demoted {
                let at = b.locate(d).expect("a demoted page stays on the node");
                assert!(at.0 > above.0, "{ctx}: {demoted:?} not deepening at {d}");
                assert_eq!(
                    Some(at),
                    next_home(b, above.0, above.1),
                    "{ctx}: {demoted:?} misplaced {d}"
                );
                above = at;
            }
            let left_with_room = evicted.is_some() && next_home(b, above.0, above.1).is_some();
            match policy {
                TierPolicy::Hotness => {
                    assert!(!left_with_room, "{ctx}: {evicted:?} left with room below");
                }
                TierPolicy::StaticHash => assert!(demoted.is_empty(), "{ctx}: {demoted:?}"),
            }
            left_with_room
        };
        for i in 0..1 + rng.index(300) {
            let now = t(i as u64);
            let class = ClassId(rng.index(3) as u16);
            let page = PageId(rng.index(60) as u32);
            if rng.index(8) == 0 {
                let goal = ClassId(1 + rng.index(2) as u16);
                b.set_dedicated(goal, rng.index(12));
            } else {
                let before = b.total_resident();
                match b.access(class, page, now) {
                    TieredAccess::Hit {
                        moved,
                        evicted,
                        demoted,
                        ..
                    } => {
                        let at = b.locate(page).expect("a hit page stays resident");
                        if check_chain(&b, at, &demoted, evicted) && moved {
                            static_off_with_room.set(static_off_with_room.get() + 1);
                        }
                        assert_eq!(
                            b.total_resident() + usize::from(evicted.is_some()),
                            before,
                            "{ctx}"
                        );
                    }
                    TieredAccess::Miss => {
                        let out = b.install(class, page, now);
                        if let Some(at) = b.locate(page) {
                            assert_eq!(at.0, out.tier, "{ctx}");
                            check_chain(&b, at, &out.demoted, out.evicted);
                        }
                        assert!(out.cached || (out.evicted.is_none() && out.demoted.is_empty()));
                        assert_eq!(
                            b.total_resident() + usize::from(out.evicted.is_some()),
                            before + usize::from(out.cached),
                            "{ctx}"
                        );
                        if let Some(gone) = out.evicted {
                            assert!(!b.resident(gone), "{ctx}");
                        }
                    }
                }
            }
            b.check_invariants();
        }
    }
    assert!(longest.get() >= 3, "the cases never walked a long chain");
    assert!(
        static_off_with_room.get() > 0,
        "no static-split migration displaced a page with room below"
    );
}

/// `route` (of the page where `locate` finds it) against what `access`
/// and `install` then do, on 1–6
/// memory tiers under both tier policies: a call displaces a page (evicts
/// or demotes one) exactly when the named pool was full, and the first
/// displaced page was a member of that pool.
#[test]
fn displacement_pool_names_the_first_displaced_page() {
    let displaced = std::cell::Cell::new(0u32);
    for seed in 0..96u64 {
        let mut rng = SimRng::seed_from_u64(1_300 + seed);
        let tiers = 1 + rng.index(6);
        let frames: Vec<usize> = (0..tiers).map(|_| 1 + rng.index(6)).collect();
        let policy = [TierPolicy::Hotness, TierPolicy::StaticHash][rng.index(2)];
        let spec = [PolicySpec::Lru, PolicySpec::Fifo, PolicySpec::LruK(2)][rng.index(3)];
        let mut b = TieredBuffer::new(&frames, 2, spec, policy);
        let ctx = format!("seed {seed}: {frames:?} {policy:?} {spec:?}");
        // The named pool's members if it is full, else `None`.
        let full_members = |b: &TieredBuffer, class, page| {
            let (t, pool) = b.route(class, page, b.locate(page))?;
            let pool = b.pool_at(t, pool);
            (pool.len() == pool.capacity()).then(|| pool.pages().collect::<Vec<_>>())
        };
        let check =
            |full: Option<Vec<PageId>>, first: Option<PageId>, step: &str| match (full, first) {
                (Some(members), Some(p)) => {
                    assert!(members.contains(&p), "{ctx}: {step} displaced {p}");
                    displaced.set(displaced.get() + 1);
                }
                (None, None) => {}
                (full, first) => panic!("{ctx}: {step}: full pool {full:?}, displaced {first:?}"),
            };
        for i in 0..1 + rng.index(300) {
            let now = t(i as u64);
            let class = ClassId(rng.index(3) as u16);
            let page = PageId(rng.index(60) as u32);
            if rng.index(8) == 0 {
                let goal = ClassId(1 + rng.index(2) as u16);
                b.set_dedicated(goal, rng.index(12));
                continue;
            }
            let full = full_members(&b, class, page);
            match b.access(class, page, now) {
                TieredAccess::Hit {
                    evicted, demoted, ..
                } => check(full, demoted.first().copied().or(evicted), "access"),
                TieredAccess::Miss => {
                    let full = full_members(&b, class, page);
                    let out = b.install(class, page, now);
                    check(
                        full,
                        out.demoted.first().copied().or(out.evicted),
                        "install",
                    );
                }
            }
        }
    }
    assert!(displaced.get() > 1_000, "the cases rarely displaced a page");
}

/// The dense per-tier owner tables against a map model of page →
/// (tier, pool) rebuilt from the pools' own membership after every step, on
/// 1–6 memory tiers under both tier policies: `locate`, `resident` and
/// `total_resident` agree for every page id, the last one included. Half the
/// cases size the tables up front, half let them grow with the page ids
/// installed.
#[test]
fn dense_owner_matches_the_map_model() {
    use std::collections::BTreeMap;
    for seed in 0..96u64 {
        let mut rng = SimRng::seed_from_u64(0x0D0E + seed);
        let tiers = 1 + rng.index(6);
        let frames: Vec<usize> = (0..tiers).map(|_| 1 + rng.index(6)).collect();
        let policy = [TierPolicy::Hotness, TierPolicy::StaticHash][rng.index(2)];
        let db_pages = 8 + rng.index(40);
        let presized = rng.index(2) == 0;
        // Every policy, so pool membership comes from each kind of index.
        let spec = [
            PolicySpec::Lru,
            PolicySpec::Fifo,
            PolicySpec::Clock,
            PolicySpec::LruK(2),
            PolicySpec::CostBased,
        ][seed as usize % 5];
        let mut b = if presized {
            TieredBuffer::with_db_pages(&frames, 2, spec, policy, db_pages)
        } else {
            TieredBuffer::new(&frames, 2, spec, policy)
        };
        for step in 0..1 + rng.index(300) {
            let ctx = format!(
                "seed {seed} step {step}: {frames:?} {policy:?} {spec:?} presized {presized}"
            );
            let now = t(step as u64);
            // Every fourth draw is the last page id.
            let page = PageId(if rng.index(4) == 0 {
                db_pages - 1
            } else {
                rng.index(db_pages)
            } as u32);
            match rng.index(8) {
                0 => {
                    let goal = ClassId(1 + rng.index(2) as u16);
                    b.set_dedicated(goal, rng.index(12));
                }
                1 => {
                    b.drop_page(page);
                }
                _ => {
                    let class = ClassId(rng.index(3) as u16);
                    if b.access(class, page, now) == TieredAccess::Miss {
                        b.install(class, page, now);
                    }
                }
            }
            let mut model = BTreeMap::new();
            for tier in 0..tiers {
                for class in (0..=2).map(ClassId) {
                    for p in b.pool_at(tier, class).pages() {
                        assert_eq!(model.insert(p, (tier, class)), None, "{ctx}: {p} twice");
                    }
                }
            }
            for p in (0..db_pages as u32).map(PageId) {
                assert_eq!(b.locate(p), model.get(&p).copied(), "{ctx}: {p}");
                assert_eq!(b.resident(p), model.contains_key(&p), "{ctx}: {p}");
            }
            assert_eq!(b.total_resident(), model.len(), "{ctx}");
            // Each pool's own membership — its policy's index — agrees too.
            for tier in 0..tiers {
                for class in (0..=2).map(ClassId) {
                    let pool = b.pool_at(tier, class);
                    let held = model.values().filter(|&&at| at == (tier, class)).count();
                    assert_eq!(pool.len(), held, "{ctx}: pool {tier}/{class:?}");
                    assert_eq!(pool.is_empty(), held == 0, "{ctx}: pool {tier}/{class:?}");
                    for p in (0..db_pages as u32 + 2).map(PageId) {
                        assert_eq!(
                            pool.contains(p),
                            model.get(&p) == Some(&(tier, class)),
                            "{ctx}: pool {tier}/{class:?} {p}"
                        );
                    }
                }
            }
        }
        b.check_invariants();
    }
}

/// The cost-based policy's contract as a plain model: benefits in a heap
/// of their own, and one fresh flag per page id — set by pricing, cleared
/// by invalidation, removal or insertion, and untouched by decay, however
/// many decays pass.
struct FreshFlagModel {
    heap: IndexedMinHeap<PageId, f64>,
    fresh: Vec<bool>,
    scale: f64,
}

impl FreshFlagModel {
    fn is_fresh(&self, page: PageId) -> bool {
        self.heap.contains(&page) && self.fresh[page.index()]
    }

    fn set_benefit(&mut self, page: PageId, benefit: f64) {
        if self.heap.contains(&page) {
            self.heap.update(page, benefit / self.scale);
            self.fresh[page.index()] = true;
        }
    }

    fn min_with_freshness(&self) -> Option<(PageId, bool)> {
        self.heap
            .peek_min()
            .map(|(&page, _)| (page, self.fresh[page.index()]))
    }

    fn scale_benefits(&mut self, factor: f64) {
        self.scale *= factor;
        if self.scale < 1e-120 {
            let s = self.scale;
            self.heap.map_priorities(|b| b * s);
            self.scale = 1.0;
        }
    }
}

/// `CostBasedPolicy`, whose fresh flags ride in its heap entries, against
/// the flag model: through random inserts, removals, pricings,
/// invalidations and decays — factors small enough to force the physical
/// renormalisation included, and long runs of decays with no pricing in
/// between — every step agrees on the fresh-aware minimum, every page's
/// freshness and every benefit.
#[test]
fn cost_based_freshness_matches_the_flag_model() {
    use dmm_buffer::CostBasedPolicy;
    const PAGES: u32 = 24;
    let mut renormalised = 0;
    let mut aged_fresh = 0;
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0x57A4 + seed);
        let mut policy = CostBasedPolicy::new();
        let mut model = FreshFlagModel {
            heap: IndexedMinHeap::new(),
            fresh: vec![false; PAGES as usize],
            scale: 1.0,
        };
        // Decays applied since each page was last priced.
        let mut decays_since_priced = [0u32; PAGES as usize];
        for step in 0..1 + rng.index(400) {
            let ctx = format!("seed {seed} step {step}");
            let page = PageId(rng.index(PAGES as usize) as u32);
            let tracked = model.heap.contains(&page);
            match rng.index(7) {
                0 if !tracked => {
                    policy.on_insert(page, t(step as u64));
                    model.heap.insert(page, f64::INFINITY);
                    model.fresh[page.index()] = false;
                }
                1 => {
                    policy.on_remove(page);
                    model.heap.remove(&page);
                    model.fresh[page.index()] = false;
                }
                2 | 3 => {
                    // Few distinct benefits, so the heap meets ties.
                    let benefit = rng.index(5) as f64 * 0.5;
                    policy.set_benefit(page, benefit);
                    model.set_benefit(page, benefit);
                    decays_since_priced[page.index()] = 0;
                }
                4 => {
                    policy.invalidate(page);
                    model.fresh[page.index()] = false;
                }
                _ => {
                    let factor = [1.0, 0.9, 0.65, 0.5, 1e-70][rng.index(5)];
                    let before = model.scale;
                    policy.scale_benefits(factor);
                    model.scale_benefits(factor);
                    renormalised += usize::from(model.scale > before);
                    for d in &mut decays_since_priced {
                        *d += 1;
                    }
                }
            }
            assert_eq!(
                policy.min_with_freshness(),
                model.min_with_freshness(),
                "{ctx}"
            );
            for p in (0..PAGES).map(PageId) {
                let benefit = model.heap.priority(&p).map(|b| b * model.scale);
                assert_eq!(
                    policy.benefit(p).map(f64::to_bits),
                    benefit.map(f64::to_bits),
                    "{ctx}: {p}"
                );
                assert_eq!(policy.is_fresh(p), model.is_fresh(p), "{ctx}: {p}");
                aged_fresh += usize::from(model.is_fresh(p) && decays_since_priced[p.index()] >= 2);
            }
            assert_eq!(
                policy.victim(),
                model.heap.peek_min().map(|(&p, _)| p),
                "{ctx}"
            );
        }
    }
    assert!(renormalised > 0, "no case forced a renormalisation");
    assert!(aged_fresh > 0, "no page stayed unpriced across two decays");
}

/// After installing, a page is resident exactly once and a re-access is a
/// hit.
#[test]
fn install_then_hit() {
    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(600 + seed);
        let total = 2 + rng.index(14);
        let page = rng.index(100) as u32;
        let class = ClassId(rng.index(3) as u16);
        let mut b =
            TieredBuffer::with_db_pages(&[total], 2, PolicySpec::Lru, TierPolicy::Hotness, 100);
        assert_eq!(b.access(class, PageId(page), t(0)), TieredAccess::Miss);
        b.install(class, PageId(page), t(1));
        match b.access(class, PageId(page), t(2)) {
            TieredAccess::Hit { moved: false, .. } => {}
            other => panic!("expected hit, got {other:?} (seed {seed})"),
        }
    }
}

/// Deterministic regression: migrating pages between pools preserves global
/// residency uniqueness even under pool churn.
#[test]
fn migration_churn() {
    let mut b = TieredBuffer::with_db_pages(&[6], 2, PolicySpec::Lru, TierPolicy::Hotness, 6);
    for i in 0..6u32 {
        b.access(NO_GOAL, PageId(i), t(i as u64));
        b.install(NO_GOAL, PageId(i), t(i as u64));
    }
    b.set_dedicated(ClassId(1), 2);
    // Touch three no-goal pages as class 1: each migrates; third displaces
    // the first.
    for (j, i) in [0u32, 1, 2].iter().enumerate() {
        if b.resident(PageId(*i)) {
            b.access(ClassId(1), PageId(*i), t(100 + j as u64));
        }
        b.check_invariants();
    }
    assert!(b.total_resident() <= 6);
}

/// Belady's anomaly — the paper's §3 cites [2] as the counterexample to the
/// "more buffer, more hits" assumption: under FIFO, the classic reference
/// string suffers MORE faults with 4 frames than with 3. LRU, being a stack
/// policy, cannot show this (see `lru_stack_property`).
#[test]
fn fifo_exhibits_beladys_anomaly() {
    let reference: [u32; 12] = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5];
    let faults = |frames: usize| -> u64 {
        let mut pool = Pool::new(frames, PolicySpec::Fifo);
        for (i, &p) in reference.iter().enumerate() {
            let page = PageId(p);
            if pool.contains(page) {
                pool.on_hit(page, t(i as u64));
            } else {
                pool.on_miss();
                pool.insert(page, t(i as u64));
            }
        }
        pool.stats().misses
    };
    let three = faults(3);
    let four = faults(4);
    assert_eq!(three, 9);
    assert_eq!(four, 10, "more frames, more faults: the FIFO anomaly");
    assert!(four > three);
}
