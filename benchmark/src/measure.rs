//! Untraced repeats: the same seeded work run `R` times in one process,
//! folded into host-time numbers that survive a noisy neighbour, plus the
//! exact simulated statistics and counts.
//!
//! Because the work at interval `i` is identical in every repeat (checked:
//! repeats must agree on events, completions, allocations and digest), host
//! noise is purely additive, so the *quiet wall* `Σ_i min_r wall[r][i]` is a
//! sound estimate of the undisturbed run time. Without that identity the
//! min-fold would be cherry-picking.

use std::hint::black_box;
use std::time::Instant;

use dmm::cluster::NodeId;
use dmm::core::{IntervalRecord, Simulation};

use crate::alloc;
use crate::workloads::{instantiate, prepare, Prepared, Running, Workload, GOAL};

/// Element-wise minimum across repeats: `out[i] = min_r walls[r][i]`.
pub fn min_fold(walls: &[&[u64]]) -> Vec<u64> {
    let len = walls.iter().map(|w| w.len()).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            walls
                .iter()
                .map(|w| w[i])
                .min()
                .expect("at least one repeat")
        })
        .collect()
}

/// Nearest-rank percentile (`rank = ⌈q·n⌉`) of an unsorted sample.
pub fn percentile(values: &[u64], q: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Smallest of a float sample (+∞ when empty): for identical work the
/// quietest reading.
pub fn min_f64(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// Median of a float sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Lengths of the convergence episodes in a record sequence. An episode
/// starts at the first record and at every record whose goal differs from
/// its predecessor's; its length is the number of checks up to and
/// including the first satisfied one. An episode cut off by the next goal
/// change or by the end of the sequence counts its full length.
pub fn episode_lengths(records: &[IntervalRecord]) -> Vec<u32> {
    let mut out = Vec::new();
    let mut open: Option<u32> = None;
    for (i, r) in records.iter().enumerate() {
        if i == 0 || r.goal_ms != records[i - 1].goal_ms {
            out.extend(open.take());
            open = Some(0);
        }
        if let Some(len) = &mut open {
            *len += 1;
            if r.satisfied == Some(true) {
                out.extend(open.take());
            }
        }
    }
    out.extend(open);
    out
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn opt_bits(v: Option<f64>) -> u64 {
    // NaN never occurs in a record, so its bit pattern can mark `None`.
    v.map_or(f64::NAN.to_bits(), f64::to_bits)
}

/// Digest of everything simulated that a speed-only change must leave
/// untouched: every interval record, the event and completion counts and
/// the final dedicated pool sizes.
pub fn sim_digest(records: &[IntervalRecord], events: u64, completions: u64, pages: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.word(u64::from(r.interval));
        h.word(opt_bits(r.observed_ms));
        h.word(opt_bits(r.observed_p_ms));
        h.word(r.goal_ms.to_bits());
        h.word(r.nogoal_ms.to_bits());
        h.word(r.dedicated_bytes);
        h.word(match r.satisfied {
            None => 2,
            Some(b) => u64::from(b),
        });
    }
    h.word(events);
    h.word(completions);
    for &p in pages {
        h.word(p);
    }
    h.finish()
}

/// Cumulative counters of a simulation at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub completions: u64,
    pub aborted: u64,
    pub inflight: u64,
}

impl Counters {
    pub fn read(sim: &Simulation) -> Self {
        let plane = sim.plane();
        Counters {
            events: sim
                .metrics_snapshot()
                .get_counter("sim.events")
                .expect("engine exports its event count"),
            completions: plane.completions(),
            aborted: plane.fault_stats().ops_aborted,
            inflight: plane.inflight_ops() as u64,
        }
    }

    /// Operations that entered the system: every one of them is completed,
    /// aborted or still in flight.
    pub fn started(&self) -> u64 {
        self.completions + self.aborted + self.inflight
    }
}

/// Dedicated pages of the goal class on every node.
pub fn dedicated_pages(sim: &Simulation) -> Vec<u64> {
    (0..sim.plane().num_nodes())
        .map(|n| sim.plane().dedicated_pages(NodeId(n as u16), GOAL) as u64)
        .collect()
}

/// What one repeat measured.
pub struct Repeat {
    /// Construction + warm-up.
    pub warm_s: f64,
    /// Host nanoseconds of each timed interval.
    pub wall_ns: Vec<u64>,
    /// Events delivered in the timed segment.
    pub events: u64,
    /// Operations completed in the timed segment.
    pub ops: u64,
    /// Operations started in the timed segment.
    pub started: u64,
    /// Operations aborted in the timed segment.
    pub aborted: u64,
    /// Heap allocation calls in the timed segment.
    pub allocs: u64,
    /// The goal class's records of the timed segment.
    pub records: Vec<IntervalRecord>,
    pub digest: u64,
}

/// Resolves the workload's configuration (calibration, donor fit) and the
/// wall time that took.
pub fn timed_prepare(w: &Workload, seed: u64) -> (Prepared, f64) {
    let t0 = Instant::now();
    let prepared = prepare(w, seed);
    (prepared, t0.elapsed().as_secs_f64())
}

/// Builds and warms up a simulation ready for its timed segment, with the
/// wall time that took. `stream` overrides whether a sink is attached.
pub fn warm_up(w: &Workload, prepared: &Prepared, stream: bool) -> (Running, f64) {
    let t0 = Instant::now();
    let mut run = instantiate(prepared, stream);
    for _ in 0..w.warmup {
        black_box(run.step());
    }
    let warm_s = t0.elapsed().as_secs_f64();
    (run, warm_s)
}

/// A timed segment about to start: the counters it is measured against.
pub struct SegmentStart {
    before: Counters,
    first_record: usize,
}

impl SegmentStart {
    pub fn mark(run: &Running) -> Self {
        SegmentStart {
            before: Counters::read(&run.sim),
            first_record: run.sim.records(GOAL).len(),
        }
    }

    /// Closes the segment: pool invariants, counter deltas, records, digest.
    pub fn finish(self, run: &Running, warm_s: f64, wall_ns: Vec<u64>, allocs: u64) -> Repeat {
        run.sim.plane().check_invariants();
        let before = self.before;
        let after = Counters::read(&run.sim);
        let records = run.sim.records(GOAL)[self.first_record..].to_vec();
        let events = after.events - before.events;
        let ops = after.completions - before.completions;
        let digest = sim_digest(&records, events, ops, &dedicated_pages(&run.sim));
        Repeat {
            warm_s,
            wall_ns,
            events,
            ops,
            started: after.started() - before.started(),
            aborted: after.aborted - before.aborted,
            allocs,
            records,
            digest,
        }
    }
}

/// One untraced repeat: build, warm up, then `intervals` timed calls of
/// [`Running::step`], each wrapped in an `Instant` pair (2 × ~25 ns against
/// ≥ 1.4 ms of work).
pub fn run_repeat(w: &Workload, prepared: &Prepared, intervals: u32) -> Repeat {
    let (mut run, warm_s) = warm_up(w, prepared, prepared.stream);
    let start = SegmentStart::mark(&run);
    let mut wall_ns = Vec::with_capacity(intervals as usize);
    let allocs_before = alloc::count();
    for _ in 0..intervals {
        let t = Instant::now();
        black_box(run.step());
        wall_ns.push(t.elapsed().as_nanos() as u64);
    }
    let allocs = alloc::count() - allocs_before;
    start.finish(&run, warm_s, wall_ns, allocs)
}

/// Why two repeats of the same seeded work disagree, if they do.
pub fn divergence(a: &Repeat, b: &Repeat) -> Option<String> {
    if let Some(i) =
        (0..a.records.len().max(b.records.len())).find(|&i| a.records.get(i) != b.records.get(i))
    {
        return Some(format!(
            "interval record {i} differs: {:?} vs {:?}",
            a.records.get(i),
            b.records.get(i)
        ));
    }
    let fields = [
        ("events", a.events, b.events),
        ("completions", a.ops, b.ops),
        ("started", a.started, b.started),
        ("allocations", a.allocs, b.allocs),
        ("digest", a.digest, b.digest),
    ];
    fields
        .iter()
        .find(|(_, x, y)| x != y)
        .map(|(what, x, y)| format!("{what} differ: {x} vs {y}"))
}

/// A fixed dependent read-modify-write walk (200 k steps over 1 MiB): the
/// same work every call, so its wall time is a reading of how loud the
/// host is right now.
pub fn host_ref_ms() -> f64 {
    const WORDS: usize = (1 << 20) / 8;
    let mut mem = vec![0u64; WORDS];
    for (i, w) in mem.iter_mut().enumerate() {
        *w = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    let t = Instant::now();
    let mut idx = 0usize;
    for step in 0..200_000u64 {
        let v = mem[idx]
            .wrapping_mul(6364136223846793005)
            .wrapping_add(step);
        mem[idx] = v;
        idx = (v >> 33) as usize % WORDS;
    }
    black_box(idx);
    t.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end statistics the records of a timed segment yield.
pub struct Quality {
    /// Checks with `satisfied == Some(true)` ÷ checks.
    pub goal_met_frac: f64,
    /// Mean checks per convergence episode.
    pub converge_intervals: f64,
    pub episodes: usize,
    /// Mean no-goal response time the coordinator saw (the LP objective).
    pub nogoal_rt_ms: f64,
}

pub fn quality(records: &[IntervalRecord]) -> Quality {
    let n = records.len().max(1) as f64;
    let met = records.iter().filter(|r| r.satisfied == Some(true)).count();
    let episodes = episode_lengths(records);
    Quality {
        goal_met_frac: met as f64 / n,
        converge_intervals: episodes.iter().map(|&l| f64::from(l)).sum::<f64>()
            / episodes.len().max(1) as f64,
        episodes: episodes.len(),
        nogoal_rt_ms: records.iter().map(|r| r.nogoal_ms).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(interval: u32, goal_ms: f64, satisfied: Option<bool>) -> IntervalRecord {
        IntervalRecord {
            interval,
            observed_ms: Some(goal_ms),
            observed_p_ms: None,
            goal_ms,
            nogoal_ms: 2.0,
            dedicated_bytes: 4096,
            satisfied,
        }
    }

    #[test]
    fn min_fold_takes_the_quietest_reading_per_interval() {
        let walls: [&[u64]; 3] = [&[5, 9, 7], &[6, 4, 8], &[9, 9, 3]];
        assert_eq!(min_fold(&walls), vec![5, 4, 3]);
        // A noise burst in one repeat never reaches the fold.
        let burst: [&[u64]; 2] = [&[10, 10, 10], &[10, 900, 10]];
        assert_eq!(min_fold(&burst).iter().sum::<u64>(), 30);
        assert_eq!(min_f64([3.0, 1.5, 2.0]), 1.5);
        assert!(min_fold(&[]).is_empty());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [50, 10, 40, 20, 30];
        assert_eq!(percentile(&v, 0.5), Some(30));
        assert_eq!(percentile(&v, 0.99), Some(50));
        assert_eq!(percentile(&v, 0.2), Some(10));
        assert_eq!(percentile(&v, 0.21), Some(20));
        assert_eq!(percentile(&[], 0.5), None);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99));
        assert_eq!(percentile(&hundred, 1.0), Some(100));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn episodes_split_on_goal_change_and_end_at_first_satisfied() {
        let f = Some(false);
        let t = Some(true);
        let records = [
            rec(0, 10.0, f),
            rec(1, 10.0, f),
            rec(2, 10.0, t), // episode 1: 3 checks
            rec(3, 10.0, t), // outside any episode
            rec(4, 7.0, t),  // episode 2: immediately satisfied, 1 check
            rec(5, 7.0, t),
            rec(6, 12.0, f), // episode 3: cut off by the next change, 2 checks
            rec(7, 12.0, None),
            rec(8, 9.0, f), // episode 4: censored by the end, 2 checks
            rec(9, 9.0, f),
        ];
        assert_eq!(episode_lengths(&records), vec![3, 1, 2, 2]);
        let q = quality(&records);
        assert_eq!(q.episodes, 4);
        assert!((q.converge_intervals - 2.0).abs() < 1e-12);
        assert!((q.goal_met_frac - 0.4).abs() < 1e-12);
        assert!((q.nogoal_rt_ms - 2.0).abs() < 1e-12);
        assert!(episode_lengths(&[]).is_empty());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let records = [rec(0, 10.0, Some(true)), rec(1, 10.0, None)];
        let d = sim_digest(&records, 100, 7, &[3, 4]);
        assert_eq!(d, sim_digest(&records, 100, 7, &[3, 4]));
        // Pinned: the digest is compared across commits, so its definition
        // must not drift silently.
        assert_eq!(
            d, 0x1240_4255_d777_01f3,
            "digest definition changed: {d:#x}"
        );
        assert_ne!(d, sim_digest(&records, 101, 7, &[3, 4]));
        assert_ne!(d, sim_digest(&records, 100, 7, &[4, 3]));
        let mut other = records;
        other[1].satisfied = Some(false);
        assert_ne!(d, sim_digest(&other, 100, 7, &[3, 4]));
    }

    #[test]
    fn host_ref_walk_takes_measurable_time() {
        assert!(host_ref_ms() > 0.0);
    }
}
