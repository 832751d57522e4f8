//! Developer harness: dump the per-interval control trace for one run.
//! Usage: `debug_trace [theta] [seed] [intervals] [--jsonl PATH] [--spans N]`
//!
//! `--jsonl PATH` additionally streams the full structured trace (interval,
//! optimize, grant, span, … records) to PATH; `--spans N` enables
//! operation-level span tracing with deterministic 1-in-N sampling — the
//! pair CI uses to produce inputs for the `dmm-trace` smoke run.

use dmm::buffer::ClassId;
use dmm::core::{calibrate_goal_range, Simulation, SystemConfig};
use dmm::obs::{JsonLinesSink, SpanMode};

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut jsonl: Option<String> = None;
    let mut spans: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jsonl" => jsonl = Some(args.next().expect("--jsonl needs a path")),
            "--spans" => {
                spans = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--spans needs a sampling divisor"),
                )
            }
            _ => positional.push(arg),
        }
    }
    let theta: f64 = positional
        .first()
        .map_or(0.0, |s| s.parse().expect("theta"));
    let seed: u64 = positional.get(1).map_or(1001, |s| s.parse().expect("seed"));
    let intervals: u32 = positional
        .get(2)
        .map_or(80, |s| s.parse().expect("intervals"));

    let class = ClassId(1);
    let base = SystemConfig::builder()
        .seed(seed)
        .theta(theta)
        .goal_ms(15.0)
        .build()
        .expect("valid base config");
    let range = calibrate_goal_range(&base, class, 6, 6).expect("calibrate the goal range");
    eprintln!("goal range [{:.2}, {:.2}]", range.min_ms, range.max_ms);

    let mut builder = SystemConfig::builder()
        .seed(seed)
        .theta(theta)
        .goal_ms(range.max_ms)
        .goal_range(range);
    if let Some(every) = spans {
        builder = builder.spans(SpanMode::Sampled { every });
    }
    let cfg = builder.build().expect("valid trace config");
    let mut sim = Simulation::new(cfg);
    if let Some(path) = &jsonl {
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
    if let Some(path) = &jsonl {
        eprintln!("trace: {path}");
    }
}
