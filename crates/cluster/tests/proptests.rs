//! Randomized-input tests: the data plane keeps its directory/buffer
//! invariants and always terminates every operation, under random workloads,
//! allocations and cluster shapes. Cases are generated from seeded
//! [`SimRng`] streams for reproducibility.

use dmm_buffer::{ClassId, PageId, PolicySpec, HEAT_K};
use dmm_cluster::{
    ClusterParams, DataPlane, Directory, HashRing, Homes, HotRingSpec, NodeId, OpCompletion, OpId,
    Operation, MAX_RING_REPLICAS,
};
use dmm_sim::{SimRng, SimTime};
use std::collections::BTreeMap;

/// Drives all pending events to quiescence, returning completions (the
/// shared engine-backed loop; panics on event storms).
fn drive(
    plane: &mut DataPlane,
    start: Option<(SimTime, dmm_cluster::ClusterEvent)>,
) -> Vec<OpCompletion> {
    dmm_cluster::drive_to_quiescence(plane, start)
}

#[derive(Debug, Clone)]
enum Step {
    Op {
        class: u16,
        node: u16,
        pages: Vec<u32>,
    },
    Alloc {
        class: u16,
        node: u16,
        pages: usize,
    },
}

fn random_step(rng: &mut SimRng, db: u32) -> Step {
    if rng.index(2) == 0 {
        let class = rng.index(3) as u16;
        let node = rng.index(3) as u16;
        let npages = 1 + rng.index(4);
        let mut pages: Vec<u32> = (0..npages).map(|_| rng.index(db as usize) as u32).collect();
        pages.dedup();
        Step::Op { class, node, pages }
    } else {
        Step::Alloc {
            class: 1 + rng.index(2) as u16,
            node: rng.index(3) as u16,
            pages: rng.index(40),
        }
    }
}

fn params(policy: PolicySpec) -> ClusterParams {
    ClusterParams {
        buffer_pages_per_node: 32,
        db_pages: 64,
        goal_classes: 2,
        policy,
        ..ClusterParams::default()
    }
}

#[test]
fn random_sequences_hold_invariants() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let policy = match rng.index(3) {
            0 => PolicySpec::Lru,
            1 => PolicySpec::CostBased,
            _ => PolicySpec::LruK(2),
        };
        let nsteps = 1 + rng.index(59);
        let steps: Vec<Step> = (0..nsteps).map(|_| random_step(&mut rng, 64)).collect();
        let mut plane = DataPlane::new(params(policy));
        let mut issued = 0u64;
        let mut completed = 0u64;
        for (i, step) in steps.iter().enumerate() {
            let t = SimTime::from_nanos((i as u64 + 1) * 50_000_000);
            match step {
                Step::Op { class, node, pages } => {
                    issued += 1;
                    let op = Operation {
                        id: OpId(issued),
                        class: ClassId(*class),
                        origin: NodeId(*node),
                        pages: pages.iter().map(|&p| PageId(p)).collect(),
                        arrival: t,
                    };
                    let out = plane.start_operation(op, t);
                    let done = drive(&mut plane, out.schedule);
                    completed += done.len() as u64;
                    for c in &done {
                        assert!(c.finished >= c.arrival, "seed {seed}");
                        assert!(
                            c.response_ms() < 10_000.0,
                            "runaway response time (seed {seed})"
                        );
                    }
                }
                Step::Alloc { class, node, pages } => {
                    let granted = plane.apply_allocation(NodeId(*node), ClassId(*class), *pages, t);
                    assert!(granted <= 32, "seed {seed}");
                }
            }
            plane.check_invariants();
        }
        assert_eq!(issued, completed, "every operation completes (seed {seed})");
        assert_eq!(plane.inflight_ops(), 0, "seed {seed}");
    }
}

/// The directory as it was before it went dense: three page-keyed maps and
/// a `Vec` heat window. The model the dense table must match bit for bit.
struct MapDirectory {
    holders: BTreeMap<PageId, Vec<NodeId>>,
    accesses: BTreeMap<PageId, Vec<SimTime>>,
    published: BTreeMap<PageId, f64>,
    publish_threshold: f64,
}

impl MapDirectory {
    fn holders(&self, page: PageId) -> &[NodeId] {
        self.holders.get(&page).map_or(&[], Vec::as_slice)
    }

    fn add_copy(&mut self, page: PageId, node: NodeId) {
        let h = self.holders.entry(page).or_default();
        if !h.contains(&node) {
            h.push(node);
        }
    }

    fn remove_copy(&mut self, page: PageId, node: NodeId) -> usize {
        let Some(h) = self.holders.get_mut(&page) else {
            return 0;
        };
        h.retain(|&n| n != node);
        let left = h.len();
        if left == 0 {
            self.holders.remove(&page);
        }
        left
    }

    fn heat_per_ms(&self, page: PageId, now: SimTime) -> f64 {
        let Some(times) = self.accesses.get(&page) else {
            return 0.0;
        };
        let span_ms = now.since(times[0]).as_millis_f64().max(1e-3);
        times.len() as f64 / span_ms
    }

    fn record_access(&mut self, page: PageId, now: SimTime) -> bool {
        let times = self.accesses.entry(page).or_default();
        if times.len() == HEAT_K {
            times.remove(0);
        }
        times.push(now);
        let heat = self.heat_per_ms(page, now);
        let published = self.published.get(&page).copied().unwrap_or(0.0);
        let publish = (heat - published).abs() > self.publish_threshold * published.max(1e-9);
        if publish {
            self.published.insert(page, heat);
        }
        publish
    }
}

/// One random case of [`dense_directory_matches_the_map_model`]. Returns
/// how often a page's holder list grew past seven copies, the directory's
/// inline capacity, and how often it shrank back to seven.
fn directory_case(seed: u64, nodes: usize, pages: u32) -> (u32, u32) {
    let mut rng = SimRng::seed_from_u64(0xD1 + seed);
    let threshold = [0.0, 0.2, 0.5][rng.index(3)];
    let mut dense = Directory::new(pages, 2, threshold);
    let mut model = MapDirectory {
        holders: BTreeMap::new(),
        accesses: BTreeMap::new(),
        published: BTreeMap::new(),
        publish_threshold: threshold,
    };
    let mut now = SimTime::ZERO;
    let mut publishes = 0u64;
    let (mut spills, mut shrinks) = (0, 0);
    for step in 0..1 + rng.index(400) {
        let ctx = format!("{nodes} nodes, seed {seed} step {step}");
        now += dmm_sim::SimDuration::from_nanos(rng.index(3) as u64 * 2_500_000);
        let page = PageId(rng.index(pages as usize) as u32);
        let node = NodeId(rng.index(nodes) as u16);
        let before = model.holders(page).len();
        match rng.index(4) {
            0 | 1 => {
                dense.add_copy(page, node);
                model.add_copy(page, node);
            }
            2 => assert_eq!(
                dense.remove_copy(page, node),
                model.remove_copy(page, node),
                "{ctx}"
            ),
            _ => {
                let published = model.record_access(page, now);
                assert_eq!(dense.record_access(page, now), published, "{ctx}");
                publishes += u64::from(published);
            }
        }
        let after = model.holders(page).len();
        spills += u32::from(before == 7 && after == 8);
        shrinks += u32::from(before == 8 && after == 7);
        // Holder *order* is behaviour: `pick_holder` and the last-copy
        // repricing read the first entry.
        for p in (0..pages).map(PageId) {
            assert_eq!(dense.holders(p), model.holders(p), "{ctx}: {p}");
            assert_eq!(dense.copies(p), model.holders(p).len(), "{ctx}: {p}");
            assert_eq!(
                dense.global_heat_per_ms(p, now).to_bits(),
                model.heat_per_ms(p, now).to_bits(),
                "{ctx}: {p}"
            );
            for n in (0..nodes).map(|n| NodeId(n as u16)) {
                assert_eq!(
                    dense.pick_holder(p, n),
                    model.holders(p).iter().copied().find(|&h| h != n),
                    "{ctx}: {p} {n}"
                );
                assert_eq!(
                    dense.is_last_copy(p, n),
                    model.holders(p) == [n],
                    "{ctx}: {p} {n}"
                );
            }
        }
        assert_eq!(dense.publish_events(), publishes, "{ctx}");
        dense.check_invariants();
    }
    (spills, shrinks)
}

#[test]
fn dense_directory_matches_the_map_model() {
    // 6 nodes never fill a record's seven inline holders; 9 nodes cross
    // that boundary both ways; 64 nodes, the hot ring's cluster, grow
    // long side lists.
    for (nodes, pages) in [(6, 24), (9, 24), (64, 6)] {
        let (mut spills, mut shrinks) = (0, 0);
        for seed in 0..64u64 {
            let (s, k) = directory_case(seed, nodes, pages);
            spills += s;
            shrinks += k;
        }
        if nodes > 7 {
            assert!(
                spills > 0 && shrinks > 0,
                "{nodes} nodes: {spills} spills, {shrinks} shrinks"
            );
        } else {
            assert_eq!(spills, 0);
        }
    }
}

#[test]
fn ring_balances_keys_across_nodes() {
    // Consistent hashing with V virtual nodes balances key ownership to
    // within ~1/sqrt(V): with V = 128 the max/mean key share over 16 nodes
    // stays comfortably under 1.5 for every sampled ring seed.
    let mut rng = SimRng::seed_from_u64(0xB17A);
    for _case in 0..16 {
        let seed = rng.next_u64();
        let ring = HashRing::new(16, 128, seed);
        let mut owned = [0u64; 16];
        for key in 0..20_000u64 {
            owned[ring.primary(key).index()] += 1;
        }
        let max = *owned.iter().max().expect("non-empty") as f64;
        let mean = owned.iter().sum::<u64>() as f64 / owned.len() as f64;
        assert!(
            max / mean <= 1.5,
            "ring imbalance {:.3} (seed {seed:#x})",
            max / mean
        );
        assert!(
            owned.iter().all(|&n| n > 0),
            "starved node (seed {seed:#x})"
        );
    }
}

#[test]
fn ring_reassigns_minimally_on_join_and_leave() {
    // The consistent-hashing contract: when a node joins, the only keys
    // that move are the ones the new node takes over; when it leaves, only
    // its own keys move. Every other key keeps its home.
    let mut rng = SimRng::seed_from_u64(0x1015);
    for _case in 0..16 {
        let seed = rng.next_u64();
        let all: Vec<u16> = (0..12).collect();
        let without_last: Vec<u16> = (0..11).collect();
        let small = HashRing::from_nodes(&without_last, 64, seed);
        let big = HashRing::from_nodes(&all, 64, seed);
        let mut moved = 0u64;
        for key in 0..10_000u64 {
            let before = small.primary(key);
            let after = big.primary(key);
            if before != after {
                // A join only pulls keys onto the new node.
                assert_eq!(after, NodeId(11), "key {key} moved between old nodes");
                moved += 1;
            }
            // Leave (big -> small) is the same comparison read backwards:
            // keys not on the departed node must not move.
            if after != NodeId(11) {
                assert_eq!(before, after, "key {key} moved on leave");
            }
        }
        // The new node takes roughly its fair share (1/12), not nothing
        // and not everything.
        assert!(
            (300..2_000).contains(&moved),
            "join moved {moved} of 10000 keys (seed {seed:#x})"
        );
    }
}

#[test]
fn ring_replica_sets_are_distinct_and_start_at_the_primary() {
    let mut rng = SimRng::seed_from_u64(0xF00D);
    for _case in 0..8 {
        let seed = rng.next_u64();
        let nodes = 2 + rng.index(15);
        let ring = HashRing::new(nodes, 32, seed);
        for key in 0..2_000u64 {
            for r in 1..=MAX_RING_REPLICAS {
                let mut buf = [0u16; MAX_RING_REPLICAS];
                let found = ring.replicas(key, r, &mut buf);
                assert_eq!(found, r.min(nodes), "key {key} r {r}");
                assert_eq!(buf[0], ring.primary(key).index() as u16, "key {key}");
                let mut set: Vec<u16> = buf[..found].to_vec();
                set.sort_unstable();
                set.dedup();
                assert_eq!(set.len(), found, "duplicate replica (key {key}, r {r})");
            }
        }
    }
}

#[test]
fn hot_ring_catalog_answers_exactly_as_the_ring_walk() {
    // `Homes` resolves the hot ring from a per-page catalog built once;
    // every query must equal the answer recomputed here from the ring
    // itself, for every page, degree and origin.
    const DB: u32 = 2_000;
    let mut rng = SimRng::seed_from_u64(0xCA7A);
    for nodes in [1usize, 2, 3, 8, 64] {
        for (vnodes, seed) in [1u16, 5, 64, 512].map(|v| (v, rng.next_u64())) {
            let ring = HashRing::new(nodes, vnodes, seed);
            for max_replicas in 1..=MAX_RING_REPLICAS as u8 {
                let spec = HotRingSpec {
                    vnodes,
                    max_replicas,
                    seed,
                };
                let mut homes = Homes::hot_ring(nodes, DB, spec).expect("valid spec");
                let cap = (max_replicas as usize).min(nodes);
                for degree in 1..=cap {
                    // A page's degree is ⌈count · 4N / total⌉: counts of
                    // `degree` over a total of 4N set every page to it.
                    let counts = vec![degree as u32; DB as usize];
                    homes.retarget_replication(&counts, 4 * nodes as u64);
                    for p in 0..DB {
                        let page = PageId(p);
                        let case = (nodes, vnodes, seed, cap, degree, p);
                        assert_eq!(homes.replication(page), degree, "{case:?}");
                        let mut want = [0u16; MAX_RING_REPLICAS];
                        let found = ring.replicas(p as u64, degree, &mut want);
                        let want = &want[..found];
                        let mut got = [0u16; MAX_RING_REPLICAS];
                        let n = homes.homes_of(page, &mut got);
                        assert_eq!(&got[..n], want, "{case:?}");
                        assert_eq!(homes.home(page), ring.primary(p as u64), "{case:?}");
                        for o in 0..nodes as u16 {
                            let origin = NodeId(o);
                            let routed = if degree == 1 {
                                ring.primary(p as u64)
                            } else if want.contains(&o) {
                                origin
                            } else {
                                NodeId(want[origin.index() % found])
                            };
                            assert_eq!(homes.home_for(page, origin), routed, "{case:?} o {o}");
                            assert_eq!(homes.is_home(page, origin), want.contains(&o), "{case:?}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn repeated_access_eventually_hits() {
    let mut rng = SimRng::seed_from_u64(4242);
    for case in 0..32u64 {
        let page = rng.index(64) as u32;
        let class = rng.index(3) as u16;
        let node = rng.index(3) as u16;
        let mut plane = DataPlane::new(params(PolicySpec::Lru));
        let mut t = SimTime::ZERO;
        let mut last_rt = f64::INFINITY;
        for i in 0..3 {
            let op = Operation {
                id: OpId(i + 1),
                class: ClassId(class),
                origin: NodeId(node),
                pages: [PageId(page)].into_iter().collect(),
                arrival: t,
            };
            let out = plane.start_operation(op, t);
            let done = drive(&mut plane, out.schedule);
            last_rt = done[0].response_ms();
            t = done[0].finished + dmm_sim::SimDuration::from_millis(1);
        }
        // Third access must be a sub-millisecond local hit.
        assert!(
            last_rt < 1.0,
            "expected warm hit, got {last_rt} ms (case {case})"
        );
    }
}
