//! Developer harness: dump the per-interval control trace for one run.
//! Flags: `--theta` (default 0.0), `--seed` (1001), `--intervals` (80),
//! `--jsonl PATH`, `--spans N`.
//!
//! `--jsonl PATH` additionally streams the full structured trace (interval,
//! optimize, grant, span, … records) to PATH, taken as given (relative to
//! the current directory); `--spans N` enables operation-level span tracing
//! with deterministic 1-in-N sampling — the pair CI uses to produce inputs
//! for the `dmm-trace` smoke run.

use dmm::buffer::ClassId;
use dmm::core::{Simulation, SystemConfig};
use dmm::obs::{JsonLinesSink, SpanMode};

use crate::BenchArgs;

pub fn run(args: &BenchArgs) {
    let theta = args.theta.unwrap_or(0.0);
    let seed = args.seed_or(1001);
    let intervals = args.intervals.unwrap_or(80);

    let class = ClassId(1);
    let (range, mut builder) =
        crate::calibrated_goal_schedule(SystemConfig::builder().seed(seed).theta(theta));
    eprintln!("goal range [{:.2}, {:.2}]", range.min_ms, range.max_ms);

    if let Some(every) = args.spans {
        builder = builder.spans(SpanMode::Sampled { every });
    }
    let cfg = builder.build().expect("valid trace config");
    let mut sim = Simulation::new(cfg);
    if let Some(path) = &args.jsonl {
        let sink = JsonLinesSink::create(path).expect("create --jsonl file");
        sim.set_trace_sink(Box::new(sink));
    }

    println!("int  observed  goal   nogoal  dedMB  sat");
    for _ in 0..intervals {
        sim.run_intervals(1);
        let r = *sim.records(class).last().expect("record");
        println!(
            "{:>3}  {:>8}  {:>5.2}  {:>6.2}  {:>5.2}  {}",
            r.interval,
            r.observed_ms.map_or("-".into(), |v| format!("{v:.2}")),
            r.goal_ms,
            r.nogoal_ms,
            r.dedicated_bytes as f64 / (1024.0 * 1024.0),
            r.satisfied.map_or("-", |s| if s { "y" } else { "N" }),
        );
    }
    let c = sim.convergence(class);
    eprintln!(
        "episodes {}  mean {:.2}  ci {:.2}",
        c.episodes(),
        c.mean_iterations(),
        c.ci99().half_width
    );
    if let Some(path) = &args.jsonl {
        eprintln!("trace: {path}");
    }
}
