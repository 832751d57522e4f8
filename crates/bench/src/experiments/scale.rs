//! Scale-out benchmark: hotness-aware consistent-hash placement, a
//! switched fabric and batched probing, from the paper's N = 3 up to
//! N = 64 nodes.
//!
//! Four asserting sections, each printed to stdout and selectable with
//! `--only <section>`:
//!
//! 1. **`balance`**: at N = 16 under a hard Zipf skew (θ = 1.2), the static
//!    hash placement concentrates home reads on whichever nodes the hot
//!    pages land on, while the hot ring replicates hot pages across several
//!    homes — the max/mean per-node home-read ratio is the figure of merit.
//! 2. **`fabric`** and **`probe`**: shared medium vs switched links at
//!    N = 64, and the batched Hadamard probe plan with a cross-scale warm
//!    start.
//! 3. **`n64`**: a long N = 64 goal-convergence run (the hyperplane
//!    controller needs ~N+1 probe intervals before its first optimization).
//!
//! `--quick` shrinks intervals for CI smoke use; the acceptance numbers
//! quoted in the README come from the full run.

use std::time::Instant;

use dmm::buffer::ClassId;
use dmm::cluster::{FabricSpec, HotRingSpec, PlacementSpec};
use dmm::core::{
    calibrate_goal_range, upsample_planes, ProbeSpec, SatisfactionMode, Simulation, SystemConfig,
};

use crate::BenchArgs;

/// The §7.1 shared medium (100 Mbit/s) and a switched-era fabric. The
/// N = 64 convergence run needs the faster fabric, because at that scale
/// the 1999 medium is past saturation and no memory controller can meet a
/// response-time goal on an unstable queue.
const PAPER_FABRIC: u64 = 100_000_000;
const GBIT_FABRIC: u64 = 1_000_000_000;

/// One scale-out experiment configuration: N nodes, database and load
/// scaled with N so per-node pressure stays comparable across node counts.
fn scale_config(
    nodes: usize,
    theta: f64,
    placement: PlacementSpec,
    net_bits_per_sec: u64,
    seed: u64,
) -> SystemConfig {
    SystemConfig::builder()
        .seed(seed)
        .theta(theta)
        .goal_ms(10.0)
        .nodes(nodes)
        .db_pages((100 * nodes) as u32)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .net_bits_per_sec(net_bits_per_sec)
        .warmup_intervals(2)
        .satisfaction(SatisfactionMode::UpperBound)
        .placement(placement)
        .build()
        .expect("valid scale config")
}

/// The scale configuration on a chosen network fabric and probe plan —
/// identical per-node load to [`scale_config`] at θ = 0.8 on the hot ring.
fn fabric_config(
    nodes: usize,
    fabric: FabricSpec,
    probe: ProbeSpec,
    net_bits_per_sec: u64,
    seed: u64,
) -> SystemConfig {
    SystemConfig::builder()
        .seed(seed)
        .theta(0.8)
        .goal_ms(10.0)
        .nodes(nodes)
        .db_pages((100 * nodes) as u32)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .net_bits_per_sec(net_bits_per_sec)
        .warmup_intervals(2)
        .satisfaction(SatisfactionMode::UpperBound)
        .placement(PlacementSpec::HotRing(HotRingSpec::default()))
        .fabric(fabric)
        .probe(probe)
        .build()
        .expect("valid fabric config")
}

/// First measured interval from which the goal stays satisfied to the end
/// of the run (the paper's "converged after" reading), if it does.
fn converged_at(sim: &Simulation) -> Option<u32> {
    let records = sim.records(ClassId(1));
    let mut first = None;
    for r in records {
        match r.satisfied {
            Some(true) => first = first.or(Some(r.interval)),
            _ => first = None,
        }
    }
    first
}

/// Fraction of the last `n` check phases that judged the goal satisfied.
fn satisfied_tail(sim: &Simulation, n: usize) -> f64 {
    let records = sim.records(ClassId(1));
    let tail = &records[records.len().saturating_sub(n)..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().filter(|r| r.satisfied == Some(true)).count() as f64 / tail.len() as f64
}

/// Max/mean per-node home reads: 1.0 is a perfectly balanced home load.
fn imbalance(reads: &[u64]) -> f64 {
    let total: u64 = reads.iter().sum();
    if reads.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / reads.len() as f64;
    *reads.iter().max().expect("non-empty") as f64 / mean
}

/// Balance experiment: N = 16 under hard skew, static hash vs hot ring.
fn balance(quick: bool) {
    println!("== balance: static hash vs hot ring (N = 16, zipf θ = 1.2) ==");
    let intervals = if quick { 6 } else { 12 };
    let run = |placement: PlacementSpec| {
        let cfg = scale_config(16, 1.2, placement, PAPER_FABRIC, 21);
        let mut sim = Simulation::new(cfg);
        sim.run_intervals(intervals);
        let load = sim.plane().home_load();
        (imbalance(&load.home_reads), load)
    };
    let (static_ratio, static_load) = run(PlacementSpec::Hash);
    let (ring_ratio, ring_load) = run(PlacementSpec::HotRing(HotRingSpec::default()));
    println!(
        "static hash: home-read imbalance {static_ratio:.2}  (reads {:?})",
        static_load.home_reads
    );
    println!(
        "hot ring:    home-read imbalance {ring_ratio:.2}  (reads {:?})",
        ring_load.home_reads
    );
    assert!(
        ring_ratio < static_ratio,
        "hot ring must beat static placement under skew \
         ({ring_ratio:.2} vs {static_ratio:.2})"
    );
}

/// Fabric experiment: N = 64 on the paper's 100 Mbit/s line rate, shared
/// medium versus switched per-node links, identical per-node load. The
/// shared medium carries all N nodes' traffic on one facility and is past
/// saturation at this scale; the switch gives every node a full-duplex
/// line of the *same* rate, so the per-link budget stays flat as N grows.
fn fabric(quick: bool) {
    println!("\n== fabric: shared medium vs switched links (N = 64, 100 Mbit line rate) ==");
    let intervals = if quick { 6 } else { 24 };
    let nodes = 64usize;
    let run = |spec: FabricSpec| {
        let cfg = fabric_config(nodes, spec, ProbeSpec::Sequential, PAPER_FABRIC, 42);
        let mut sim = Simulation::new(cfg);
        let begin = Instant::now();
        sim.run_intervals(intervals);
        (sim, begin.elapsed().as_secs_f64())
    };
    let (shared, shared_secs) = run(FabricSpec::SharedMedium);
    let now = shared.now();
    let shared_util = shared.plane().network().utilization(now);
    let shared_done = shared.plane().completions();
    println!(
        "shared medium: net {:>5.1} % busy  {shared_done:>6} ops completed  ({shared_secs:.1} s)",
        shared_util * 100.0
    );
    let (switched, switched_secs) = run(FabricSpec::Switched {
        bisection_bits_per_sec: None,
    });
    let now = switched.now();
    let net = switched.plane().network();
    let (mut tx, mut rx) = (Vec::new(), Vec::new());
    for node in 0..nodes {
        let link = net.link_utilization(node, now).expect("switched fabric");
        tx.push(link.tx);
        rx.push(link.rx);
    }
    let max_link = tx.iter().chain(&rx).fold(0.0f64, |m, &u| m.max(u));
    let switched_done = switched.plane().completions();
    println!(
        "switched:      hottest link {:>5.1} % busy  {switched_done:>6} ops completed  ({switched_secs:.1} s)",
        max_link * 100.0
    );
    // The wall and the fix, in one pair of numbers: the medium saturates
    // while no single switched link comes close, and the extra capacity is
    // real work — the switched run completes at least as many operations.
    // (The quick run is too short for the cumulative busy fraction to
    // reach the saturated steady state, so the 90 % bar is full-run only.)
    if quick {
        assert!(
            shared_util > 4.0 * max_link,
            "the shared medium must dominate every switched link \
             ({shared_util:.2} vs {max_link:.2})"
        );
    } else {
        assert!(
            shared_util >= 0.9,
            "the shared medium must be saturated at N = 64 ({shared_util:.2})"
        );
    }
    assert!(
        max_link < 0.9,
        "per-link utilization must stay under 90 % on the switch ({max_link:.2})"
    );
    assert!(
        switched_done >= shared_done,
        "the switched fabric must complete at least the shared medium's \
         operations ({switched_done} vs {shared_done})"
    );
}

/// Probe experiment: how fast the hyperplane controller reaches a
/// full-rank response-time fit at N = 64. The baseline walks one
/// single-node probe per interval (~N + 1 intervals before the first
/// optimization); the batched plan perturbs Hadamard-orthogonal groups so
/// no probe is ever redundant, and the warm start skips the ramp entirely
/// by stretching a converged N = 8 fit across the 64-node topology.
fn probe(quick: bool) {
    println!("\n== probe: batched Hadamard plan + cross-scale warm start (N = 64, switched) ==");
    let switched = FabricSpec::Switched {
        bisection_bits_per_sec: None,
    };
    // Donor: a small-N run to a settled fit, cheap at any scale.
    let donor_nodes = 8usize;
    let donor_intervals = if quick { 40 } else { 60 };
    let donor_cfg = fabric_config(
        donor_nodes,
        switched,
        ProbeSpec::Sequential,
        PAPER_FABRIC,
        42,
    );
    let mut donor = Simulation::new(donor_cfg);
    donor.run_intervals(donor_intervals);
    let small_fit = donor
        .fitted_planes(ClassId(1))
        .expect("donor run must reach a full-rank fit");
    println!(
        "donor: N = {donor_nodes}, {donor_intervals} intervals, converged at {:?}",
        converged_at(&donor)
    );
    // Target: N = 64 with a calibrated midpoint goal (reachable by
    // construction, but only through controller action).
    let nodes = 64usize;
    let target = |probe: ProbeSpec, intervals: u32, warm: Option<&dmm::core::Planes>| {
        let mut cfg = fabric_config(nodes, switched, probe, PAPER_FABRIC, 42);
        let range = calibrate_goal_range(&cfg, ClassId(1), 4, 4).expect("calibrate the goal range");
        let goal = (range.min_ms + range.max_ms) / 2.0;
        cfg.workload.classes[1].goal_ms = Some(goal);
        let mut sim = Simulation::new(cfg);
        if let Some(planes) = warm {
            sim.warm_start_class(ClassId(1), planes)
                .expect("class 1 carries a goal");
        }
        let begin = Instant::now();
        sim.run_intervals(intervals);
        let secs = begin.elapsed().as_secs_f64();
        (converged_at(&sim), satisfied_tail(&sim, 8), goal, secs)
    };
    let stretched = upsample_planes(&small_fit, nodes);
    let warm_intervals = if quick { 24 } else { 96 };
    let (warm_conv, warm_tail, goal, warm_secs) = target(
        ProbeSpec::Batched { batch: 8 },
        warm_intervals,
        Some(&stretched),
    );
    println!(
        "warm start + batch 8: converged at {warm_conv:?} of {warm_intervals} intervals, \
         tail satisfied {:.0} %, goal {goal:.2} ms  ({warm_secs:.1} s)",
        warm_tail * 100.0
    );
    // The CI smoke gate: the warm-started N = 64 switched row converges
    // even in the shrunken run.
    let warm_conv = warm_conv.expect("warm-started N = 64 run must converge within the horizon");
    if quick {
        println!("(quick: sequential-probe baseline skipped)");
        return;
    }
    // Full mode: the PR 7 protocol — cold start, one probe per interval.
    let base_intervals = 256u32;
    let (base_conv, base_tail, _, base_secs) = target(ProbeSpec::Sequential, base_intervals, None);
    println!(
        "cold sequential:      converged at {base_conv:?} of {base_intervals} intervals, \
         tail satisfied {:.0} %  ({base_secs:.1} s)",
        base_tail * 100.0
    );
    // Treat a never-converged baseline as converging at the horizon.
    let base_conv = base_conv.unwrap_or(base_intervals);
    assert!(
        base_conv >= 2 * warm_conv,
        "warm start must cut N = 64 convergence at least in half \
         ({base_conv} vs {warm_conv} intervals)"
    );
}

/// Long N = 64 convergence run on the gigabit fabric: the hyperplane
/// controller probes ~N+1 intervals before its first optimization, so the
/// goal-convergence story at this scale needs a long horizon — and a network that is not already past saturation. The
/// goal follows the paper's §7.3 protocol: calibrate the feasible band
/// (settled response at 2/3 vs 1/3 of memory dedicated) and target its
/// midpoint — reachable by construction, but only through controller
/// action.
fn n64_convergence(quick: bool) {
    println!("\n== N = 64 goal convergence (1 Gbit fabric) ==");
    // ~3 intervals per independent probe point (probe + settling shadow)
    // × 65 points for a rank-65 fit, plus the optimize/settle episodes
    // after the first full-rank fit.
    let intervals = if quick { 12 } else { 256 };
    let mut cfg = scale_config(
        64,
        0.8,
        PlacementSpec::HotRing(HotRingSpec::default()),
        GBIT_FABRIC,
        42,
    );
    let range = calibrate_goal_range(&cfg, ClassId(1), 4, 4).expect("calibrate the goal range");
    let goal = (range.min_ms + range.max_ms) / 2.0;
    println!(
        "calibrated band [{:.2}, {:.2}] ms, goal = midpoint {goal:.2} ms",
        range.min_ms, range.max_ms
    );
    cfg.workload.classes[1].goal_ms = Some(goal);
    let mut sim = Simulation::new(cfg);
    let begin = Instant::now();
    sim.run_intervals(intervals);
    let secs = begin.elapsed().as_secs_f64();
    for r in sim.records(ClassId(1)) {
        if r.interval % 32 == 0 || r.interval + 1 == intervals {
            println!(
                "  interval {:>3}: observed {:>8.2?} ms  satisfied {:?}  dedicated {} MB",
                r.interval,
                r.observed_ms,
                r.satisfied,
                r.dedicated_bytes / (1024 * 1024)
            );
        }
    }
    let conv = converged_at(&sim);
    let tail = satisfied_tail(&sim, 8);
    let observed = sim.mean_observed_ms(ClassId(1), 8);
    let now = sim.now();
    println!(
        "{intervals} intervals in {secs:.1} s: converged at {conv:?}, \
         tail satisfied {:.0} %, settled {:?} ms vs goal {goal} ms \
         (net {:.0} %, busiest disk {:.0} %)",
        tail * 100.0,
        observed,
        sim.plane().network().utilization(now) * 100.0,
        sim.plane().max_disk_utilization(now) * 100.0
    );
    if !quick {
        assert!(
            tail >= 0.5,
            "goal class must settle into satisfaction at N = 64 (tail {tail:.2})"
        );
    }
}

/// The sections `--only` can select, in run order.
pub const SECTIONS: [&str; 4] = ["balance", "fabric", "probe", "n64"];

pub fn run(args: &BenchArgs) {
    let quick = args.quick;
    if args.wants("balance") {
        balance(quick);
    }
    if args.wants("fabric") {
        fabric(quick);
    }
    if args.wants("probe") {
        probe(quick);
    }
    if args.wants("n64") {
        n64_convergence(quick);
    }
}
