//! **§7.5** — overhead of the goal-management method.
//!
//! "Because of the length of the observation interval and their small size,
//! messages used by our method only make up a fraction of the total
//! network-traffic (less than 0.1 %, in our experiments)." We run the base
//! experiment with the goal schedule active (worst case: the coordinator
//! keeps reallocating) and report the control-plane share of network bytes,
//! message counts, and the dissemination traffic of the caching substrate
//! for context. `--json` writes the trace to `results/overhead.jsonl` and
//! the numbers to `results/overhead_summary.json` (plus the metrics
//! snapshot); `--quick` runs 24 intervals instead of 120.

use dmm::buffer::ClassId;
use dmm::core::{Simulation, SystemConfig};
use dmm::obs::Json;

use crate::BenchArgs;

pub fn run(args: &BenchArgs) {
    let (json, quick) = (args.json, args.quick);
    let class = ClassId(1);
    let (_, schedule) = crate::calibrated_goal_schedule(SystemConfig::builder().seed(13));
    let cfg = schedule.build().expect("valid overhead config");
    let intervals = if quick { 24 } else { 120 };
    let mut sim = Simulation::new(cfg);
    crate::run_traced(&mut sim, "overhead", json, |sim| {
        sim.run_intervals(intervals)
    });

    let net = sim.plane().network();
    if json {
        let (data_msgs, control_msgs) = net.message_counts();
        let summary = Json::obj()
            .field("bench", "overhead")
            .field("intervals", sim.intervals() as u64)
            .field("goal_changes", sim.convergence(class).episodes())
            .field("data_bytes", net.data_bytes())
            .field("data_messages", data_msgs)
            .field("control_bytes", net.control_bytes())
            .field("control_messages", control_msgs)
            .field("control_fraction", net.control_fraction())
            .field("net_utilization", net.utilization(sim.now()));
        let path = crate::cli::results_path("overhead_summary.json");
        std::fs::write(&path, summary.to_string())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("summary: results/overhead_summary.json");
    }
    let (data_msgs, control_msgs) = net.message_counts();
    let secs = sim.now().as_millis_f64() / 1000.0;
    println!(
        "§7.5 — overhead after {:.0} s simulated ({} intervals)\n",
        secs,
        sim.intervals()
    );
    println!(
        "goal changes handled:        {}",
        sim.convergence(class).episodes()
    );
    println!(
        "data-plane bytes:            {:>12} ({} messages)",
        net.data_bytes(),
        data_msgs
    );
    println!(
        "goal-management bytes:       {:>12} ({} messages)",
        net.control_bytes(),
        control_msgs
    );
    println!(
        "control fraction:            {:>12.4} %",
        100.0 * net.control_fraction()
    );
    println!(
        "heat publishes (substrate):  {:>12}",
        sim.plane().directory().publish_events()
    );
    println!(
        "network utilization:         {:>12.2} %",
        100.0 * net.utilization(sim.now())
    );
    println!();
    if net.control_fraction() < 0.001 {
        println!("PASS: control traffic below the paper's 0.1 % bound.");
    } else {
        println!("NOTE: control traffic above the paper's 0.1 % bound.");
    }
}
