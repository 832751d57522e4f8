//! **Tiering experiment** — hotness-based tier placement vs static splits.
//!
//! With an extended storage ladder (a fast DRAM tier over a slower,
//! bandwidth-capped second memory tier, e.g. CXL-attached), the question is
//! how pages should be placed across the two local rungs. Two policies:
//!
//! * `static`: every page is pinned to a tier by a hash of its id — the
//!   fraction of pages landing in DRAM matches the DRAM share of the
//!   capacity, but hot and cold pages are treated alike;
//! * `hotness`: new pages enter the fastest tier with room, a hit in a slow
//!   tier promotes the page upward, and overflow demotes the coldest page
//!   down the ladder — so the hot set of a skewed (Zipf) workload
//!   concentrates in DRAM.
//!
//! Both run the same Zipf workload on the paper's 3-node cluster at **equal
//! total local capacity** — only the DRAM/second-tier split and the
//! placement policy vary. The experiment sweeps DRAM shares ¼, ½ and ¾ and
//! asserts that the best hotness run beats the best static split on mean
//! goal-class response time. Results land in `BENCH_tiering.json` at the
//! workspace root; `--quick` shrinks the run for CI smoke use.

use dmm::core::ControllerKind;
use dmm::obs::Json;
use dmm::prelude::*;

use crate::{render_table, BenchArgs};

/// Total local frames per node, split between DRAM and the second tier.
const TOTAL_FRAMES: usize = 96;

/// One policy × split run: mean goal-class response time over the
/// measured tail plus the closing tier occupancy.
struct Run {
    policy: &'static str,
    dram_frames: usize,
    slow_frames: usize,
    mean_rt_ms: f64,
    occupancy: Vec<(String, u64, u64)>,
}

fn run_split(policy: TierPolicy, dram_frames: usize, quick: bool, seed: u64) -> Run {
    let slow_frames = TOTAL_FRAMES - dram_frames;
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.8)
        .goal_ms(15.0)
        .db_pages(800)
        .buffer_pages_per_node(dram_frames)
        .controller(ControllerKind::None)
        .tiers(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25)
                .frames(slow_frames)
                .bandwidth(2_000_000_000),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .tier_policy(policy)
        .build()
        .expect("valid tiering config");
    assert_eq!(cfg.cluster.local_frames_per_node(), TOTAL_FRAMES);
    let mut sim = Simulation::new(cfg);
    let (warmup, measure) = if quick { (4, 8) } else { (8, 24) };
    sim.run_intervals(warmup + measure);
    let mean_rt_ms = sim
        .mean_observed_ms(ClassId(1), measure as usize)
        .expect("measured intervals");
    sim.plane().check_invariants();
    Run {
        policy: match policy {
            TierPolicy::Hotness => "hotness",
            TierPolicy::StaticHash => "static",
        },
        dram_frames,
        slow_frames,
        mean_rt_ms,
        occupancy: sim.plane().tier_occupancy(),
    }
}

pub fn run(args: &BenchArgs) {
    let quick = args.quick;
    let seed = args.seed_or(42);
    let splits = [TOTAL_FRAMES / 4, TOTAL_FRAMES / 2, 3 * TOTAL_FRAMES / 4];

    println!(
        "Tiering — hotness vs static placement (dram + cxl, {TOTAL_FRAMES} frames/node, theta 0.8)\n"
    );
    let mut runs = Vec::new();
    for policy in [TierPolicy::StaticHash, TierPolicy::Hotness] {
        for dram in splits {
            let run = run_split(policy, dram, quick, seed);
            eprintln!(
                "{} dram={} done ({:.2} ms)",
                run.policy, run.dram_frames, run.mean_rt_ms
            );
            runs.push(run);
        }
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                r.dram_frames.to_string(),
                r.slow_frames.to_string(),
                format!("{:.2}", r.mean_rt_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "dram", "cxl", "goal RT (ms)"], &rows)
    );

    let best = |name: &str| -> f64 {
        runs.iter()
            .filter(|r| r.policy == name)
            .map(|r| r.mean_rt_ms)
            .fold(f64::INFINITY, f64::min)
    };
    let (best_static, best_hotness) = (best("static"), best("hotness"));
    println!(
        "\nbest static {best_static:.2} ms, best hotness {best_hotness:.2} ms \
         ({:+.1} % vs static)",
        100.0 * (best_hotness - best_static) / best_static
    );

    let doc = Json::obj()
        .field("bench", "tiering")
        .field("quick", quick)
        .field("seed", seed)
        .field("total_frames_per_node", TOTAL_FRAMES as u64)
        .field(
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        let mut occ = Json::obj();
                        for (name, resident, frames) in &r.occupancy {
                            occ = occ.field(
                                name,
                                Json::obj()
                                    .field("resident", *resident)
                                    .field("frames", *frames),
                            );
                        }
                        Json::obj()
                            .field("policy", r.policy)
                            .field("dram_frames", r.dram_frames as u64)
                            .field("cxl_frames", r.slow_frames as u64)
                            .field("mean_rt_ms", r.mean_rt_ms)
                            .field("tier_occupancy", occ)
                    })
                    .collect(),
            ),
        )
        .field("best_static_ms", best_static)
        .field("best_hotness_ms", best_hotness);
    crate::cli::write_bench_doc("BENCH_tiering.json", &doc);

    // The headline: at equal total capacity, concentrating the Zipf hot set
    // in DRAM must beat the best hash-pinned split.
    assert!(
        best_hotness <= best_static,
        "hotness placement ({best_hotness:.3} ms) must beat the best static \
         split ({best_static:.3} ms) at equal capacity"
    );
}
