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

use crate::{grid, render_table, study, workers, BenchArgs};

/// Total local frames per node, split between DRAM and the second tier.
const TOTAL_FRAMES: usize = 96;

fn config(policy: TierPolicy, dram_frames: usize, seed: u64) -> SystemConfig {
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
                .frames(TOTAL_FRAMES - dram_frames)
                .bandwidth(2_000_000_000),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .tier_policy(policy)
        .build()
        .expect("valid tiering config");
    assert_eq!(cfg.cluster.local_frames_per_node(), TOTAL_FRAMES);
    cfg
}

pub fn run(args: &BenchArgs) {
    let quick = args.quick;
    let seed = args.seed_or(42);
    let splits = [TOTAL_FRAMES / 4, TOTAL_FRAMES / 2, 3 * TOTAL_FRAMES / 4];

    println!(
        "Tiering — hotness vs static placement (dram + cxl, {TOTAL_FRAMES} frames/node, theta 0.8)\n"
    );
    // Each run settles to the range's start and is judged on the range.
    let intervals = if quick { 4..12 } else { 8..32 };
    let policies = [
        ("static", TierPolicy::StaticHash),
        ("hotness", TierPolicy::Hotness),
    ];
    // Per run: its table row, its mean goal-class RT and its JSON entry.
    let runs = study(
        &grid(&policies, &splits),
        ClassId(1),
        intervals,
        workers(),
        |&((_, policy), dram)| config(policy, dram, seed),
        |&((policy, _), dram), run| {
            run.sim.plane().check_invariants();
            let rt = run.window.mean_observed_ms().expect("measured intervals");
            let cxl = TOTAL_FRAMES - dram;
            let mut occupancy = Json::obj();
            for (tier, resident, frames) in run.sim.plane().tier_occupancy() {
                let load = Json::obj().field("resident", resident);
                occupancy = occupancy.field(&tier, load.field("frames", frames));
            }
            let doc = Json::obj()
                .field("policy", policy)
                .field("dram_frames", dram)
                .field("cxl_frames", cxl)
                .field("mean_rt_ms", rt)
                .field("tier_occupancy", occupancy);
            let row = vec![
                policy.to_string(),
                dram.to_string(),
                cxl.to_string(),
                format!("{rt:.2}"),
            ];
            (row, rt, doc)
        },
    );
    let rows: Vec<Vec<String>> = runs.iter().map(|(row, ..)| row.clone()).collect();
    println!(
        "{}",
        render_table(&["policy", "dram", "cxl", "goal RT (ms)"], &rows)
    );

    // The runs come one policy after the other, in `policies` order.
    let best: Vec<f64> = runs
        .chunks(splits.len())
        .map(|runs| runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min))
        .collect();
    let (best_static, best_hotness) = (best[0], best[1]);
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
            Json::Arr(runs.into_iter().map(|(_, _, doc)| doc).collect()),
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
