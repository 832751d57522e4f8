//! Per-(node, class) arrival and operation generation.

use dmm_buffer::ClassId;
use dmm_cluster::{NodeId, OpId, Operation, PageList};
use dmm_sim::dist::{Exponential, Zipf};
use dmm_sim::{SimDuration, SimRng, SimTime};

use crate::class::WorkloadSpec;

/// One independent arrival stream.
#[derive(Debug)]
struct Stream {
    class: ClassId,
    node: NodeId,
    /// Interarrival distribution for the *base* rates (`None` for a zero
    /// rate); a class with rate shifts builds the distribution per draw
    /// from the rates in force instead.
    interarrival: Option<Exponential>,
    rng: SimRng,
}

/// Draws interarrival gaps and operation contents for every (node, class)
/// pair, deterministically from one seed.
#[derive(Debug)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    zipf: Vec<Zipf>, // per class
    /// One stream per (class, node), at `class.index() * nodes + node`.
    streams: Vec<Stream>,
    nodes: usize,
    next_op: u64,
}

impl WorkloadGenerator {
    /// Builds the generator. Streams are seeded as `seed ⊕ f(node, class)`
    /// so adding classes or nodes never shifts other streams.
    pub fn new(spec: WorkloadSpec, nodes: usize, seed: u64) -> Self {
        let root = SimRng::seed_from_u64(seed);
        let zipf = spec
            .classes
            .iter()
            .map(|c| Zipf::new(c.pages.len(), c.zipf_theta))
            .collect();
        let mut streams = Vec::with_capacity(spec.classes.len() * nodes);
        for c in &spec.classes {
            for node in 0..nodes {
                let rate = c.arrival_per_ms[node];
                let interarrival = if rate > 0.0 {
                    Some(Exponential::from_mean(SimDuration::from_millis_f64(
                        1.0 / rate,
                    )))
                } else {
                    None
                };
                streams.push(Stream {
                    class: c.class,
                    node: NodeId(node as u16),
                    interarrival,
                    rng: root.derive((c.class.index() as u64) << 32 | node as u64),
                });
            }
        }
        WorkloadGenerator {
            spec,
            zipf,
            streams,
            nodes,
            next_op: 0,
        }
    }

    /// The workload being generated.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// All `(node, class)` pairs with a positive arrival rate.
    pub fn active_streams(&self) -> Vec<(NodeId, ClassId)> {
        self.streams
            .iter()
            .filter(|s| s.interarrival.is_some())
            .map(|s| (s.node, s.class))
            .collect()
    }

    /// Draws the gap to the next arrival of `class` at `node`, honouring any
    /// rate shift in force at `now` (§1's evolving workloads). A stream whose
    /// current rate is zero sleeps for one long beat and re-checks.
    pub fn next_gap(&mut self, node: NodeId, class: ClassId, now: SimTime) -> SimDuration {
        let i = self.stream_index(node, class);
        let spec = &self.spec.classes[class.index()];
        let s = &mut self.streams[i];
        let dist = if spec.rate_shifts.is_empty() {
            s.interarrival
        } else {
            let rate = spec.rates_at(now)[node.index()];
            (rate > 0.0).then(|| Exponential::from_mean(SimDuration::from_millis_f64(1.0 / rate)))
        };
        let Some(dist) = dist else {
            debug_assert!(s.interarrival.is_some(), "stream never active");
            return SimDuration::from_secs(10);
        };
        dist.sample(&mut s.rng)
    }

    /// Builds the operation arriving at `now` for `class` at `node`:
    /// `pages_per_op` *distinct* Zipf-distributed pages from the class's set.
    pub fn make_op(&mut self, node: NodeId, class: ClassId, now: SimTime) -> Operation {
        self.next_op += 1;
        let id = OpId(self.next_op);
        let i = self.stream_index(node, class);
        let n_pages = self.spec.class(class).pages_per_op;
        let zipf = &self.zipf[class.index()];
        let class_pages = &self.spec.classes[class.index()].pages;
        let mut pages = PageList::new();
        let s = &mut self.streams[i];
        // Rejection-sample distinct pages; fall back to sequential ranks if
        // the set is smaller than the op (degenerate configs in tests).
        let mut guard = 0;
        while pages.len() < n_pages {
            let rank = if guard < 20 * n_pages {
                zipf.sample(&mut s.rng)
            } else {
                (pages.len() + guard) % class_pages.len()
            };
            guard += 1;
            let page = class_pages[rank];
            if !pages.contains(&page) {
                pages.push(page);
            }
            if pages.len() == class_pages.len() {
                break;
            }
        }
        Operation {
            id,
            class,
            origin: node,
            pages,
            arrival: now,
        }
    }

    /// Position of the `(node, class)` stream: `new` pushes the streams
    /// class by class, node by node.
    fn stream_index(&self, node: NodeId, class: ClassId) -> usize {
        assert!(node.index() < self.nodes, "unknown stream: {node}");
        let i = class.index() * self.nodes + node.index();
        debug_assert!(self.streams[i].node == node && self.streams[i].class == class);
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::WorkloadSpec;
    use dmm_buffer::NO_GOAL;

    fn generator(theta: f64, seed: u64) -> WorkloadGenerator {
        let spec = WorkloadSpec::base_two_class(3, 2000, theta, 0.02, 5.0);
        WorkloadGenerator::new(spec, 3, seed)
    }

    #[test]
    fn streams_cover_all_pairs() {
        let g = generator(0.0, 1);
        let s = g.active_streams();
        assert_eq!(s.len(), 6); // 2 classes × 3 nodes
    }

    #[test]
    fn gaps_follow_the_rate() {
        let mut g = generator(0.0, 2);
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| {
                g.next_gap(NodeId(0), ClassId(1), SimTime::ZERO)
                    .as_millis_f64()
            })
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 50.0).abs() < 2.0, "mean gap {mean} ms vs 1/0.02");
    }

    #[test]
    fn ops_have_distinct_pages_from_class_set() {
        let mut g = generator(1.0, 3);
        for i in 0..200 {
            let op = g.make_op(NodeId(1), ClassId(1), SimTime::from_nanos(i));
            assert_eq!(op.pages.len(), 4);
            let set: std::collections::HashSet<_> = op.pages.iter().collect();
            assert_eq!(set.len(), 4, "duplicate pages in op");
            for p in &op.pages {
                assert!(p.0 < 1000, "goal class pages are the first half");
            }
        }
    }

    #[test]
    fn no_goal_ops_use_second_half() {
        let mut g = generator(0.0, 4);
        let op = g.make_op(NodeId(0), NO_GOAL, SimTime::ZERO);
        for p in &op.pages {
            assert!(p.0 >= 1000);
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let mut a = generator(0.5, 9);
        let mut b = generator(0.5, 9);
        for _ in 0..50 {
            assert_eq!(
                a.next_gap(NodeId(2), NO_GOAL, SimTime::ZERO),
                b.next_gap(NodeId(2), NO_GOAL, SimTime::ZERO)
            );
            let oa = a.make_op(NodeId(2), ClassId(1), SimTime::ZERO);
            let ob = b.make_op(NodeId(2), ClassId(1), SimTime::ZERO);
            assert_eq!(oa.pages, ob.pages);
        }
    }

    #[test]
    fn skew_concentrates_accesses() {
        let mut skewed = generator(1.0, 5);
        let mut counts = vec![0u32; 1000];
        for _ in 0..2000 {
            let op = skewed.make_op(NodeId(0), ClassId(1), SimTime::ZERO);
            for p in &op.pages {
                counts[p.index()] += 1;
            }
        }
        let head: u32 = counts[..50].iter().sum();
        let tail: u32 = counts[500..550].iter().sum();
        assert!(head > tail * 5, "head {head} vs tail {tail}");
    }

    #[test]
    fn rate_shift_changes_gap_scale() {
        use crate::class::RateShift;
        let mut spec = WorkloadSpec::base_two_class(1, 100, 0.0, 0.01, 5.0);
        spec.classes[1].rate_shifts = vec![RateShift {
            at: SimTime::from_nanos(1_000_000_000),
            arrival_per_ms: vec![0.1],
        }];
        let mut g = WorkloadGenerator::new(spec, 1, 3);
        let n = 3000;
        let mean = |g: &mut WorkloadGenerator, now: SimTime| {
            (0..n)
                .map(|_| g.next_gap(NodeId(0), ClassId(1), now).as_millis_f64())
                .sum::<f64>()
                / n as f64
        };
        let before = mean(&mut g, SimTime::ZERO);
        let after = mean(&mut g, SimTime::from_nanos(2_000_000_000));
        assert!(
            (before - 100.0).abs() < 10.0,
            "base rate 0.01 → 100 ms: {before}"
        );
        assert!(
            (after - 10.0).abs() < 1.0,
            "shifted rate 0.1 → 10 ms: {after}"
        );
    }

    #[test]
    fn zero_rate_epoch_sleeps() {
        use crate::class::RateShift;
        let mut spec = WorkloadSpec::base_two_class(1, 100, 0.0, 0.01, 5.0);
        spec.classes[1].rate_shifts = vec![RateShift {
            at: SimTime::from_nanos(1),
            arrival_per_ms: vec![0.0],
        }];
        let mut g = WorkloadGenerator::new(spec, 1, 4);
        let gap = g.next_gap(NodeId(0), ClassId(1), SimTime::from_nanos(10));
        assert_eq!(gap, SimDuration::from_secs(10));
    }

    #[test]
    fn tiny_page_set_terminates() {
        let mut spec = WorkloadSpec::base_two_class(1, 100, 0.0, 0.01, 5.0);
        spec.classes[1].pages.truncate(2);
        spec.classes[1].pages_per_op = 4;
        let mut g = WorkloadGenerator::new(spec, 1, 7);
        let op = g.make_op(NodeId(0), ClassId(1), SimTime::ZERO);
        assert_eq!(op.pages.len(), 2, "cannot exceed the page set");
    }
}
