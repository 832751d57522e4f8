//! Determinism harness: the same seed must yield byte-identical structured
//! traces across runs, and the replicated convergence benchmark must yield
//! identical results regardless of how many worker threads it uses.

use dmm::buffer::ClassId;
use dmm::cluster::{FabricSpec, FaultPlan, HotRingSpec, NodeId, PlacementSpec};
use dmm::core::{ControllerKind, Objective, ProbeSpec, SatisfactionMode, Simulation, SystemConfig};
use dmm::obs::{SpanMode, StreamSink, VecSink};
use dmm::prelude::{SimTime, TierPolicy, TierSpec};
use dmm::workload::{GoalRange, RateShift};
use dmm_bench::{convergence_speed, sweep};

/// Runs the base system with the trace enabled and returns the full
/// JSON-lines document.
fn traced_run(seed: u64) -> String {
    // Small enough to run quickly, busy enough to exercise every record
    // type: goal schedule on, upper-bound satisfaction so goals change.
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .goal_range(GoalRange::new(4.0, 40.0))
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    sink.to_jsonl()
}

/// Same system with a crash/restart plan, message drops and a disk stall:
/// the full degraded-mode code path must be just as deterministic.
fn faulted_traced_run(seed: u64) -> String {
    let plan = FaultPlan::new(seed)
        .crash_ms(NodeId(2), 32_500)
        .restart_ms(NodeId(2), 92_500)
        .message_drop(0.01)
        .disk_stall_ms(NodeId(0), 50_000, 70_000, 3.0);
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .fault_plan(plan)
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    sink.to_jsonl()
}

/// The base run with operation-level span tracing on: deterministic 1-in-
/// `every` sampling keyed on the op sequence number, so the sampled set —
/// and the trace bytes — are a pure function of the seed.
fn spanned_traced_run(seed: u64, every: u32) -> String {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .goal_range(GoalRange::new(4.0, 40.0))
        .spans(SpanMode::Sampled { every })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    sink.to_jsonl()
}

/// Scale-out run at N = 16: configurable placement scheme, span sampling on
/// so per-operation records pin the byte layout too.
fn scaled_traced_run(seed: u64, placement: PlacementSpec) -> String {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.8)
        .goal_ms(8.0)
        .nodes(16)
        .db_pages(1600)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .warmup_intervals(2)
        .spans(SpanMode::Sampled { every: 16 })
        .placement(placement)
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(12);
    sink.to_jsonl()
}

/// The same N = 16 run under a crash/restart plan with message drops and a
/// disk stall.
fn scaled_faulted_traced_run(seed: u64, placement: PlacementSpec) -> String {
    let plan = FaultPlan::new(seed)
        .crash_ms(NodeId(2), 22_500)
        .restart_ms(NodeId(2), 42_500)
        .message_drop(0.01)
        .disk_stall_ms(NodeId(0), 30_000, 40_000, 3.0);
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.8)
        .goal_ms(8.0)
        .nodes(16)
        .db_pages(1600)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .warmup_intervals(2)
        .fault_plan(plan)
        .placement(placement)
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(12);
    sink.to_jsonl()
}

/// Scale-out run at N = 16 on a switched fabric with batched orthogonal
/// probing: per-node TX/RX links replace the shared medium and the warm-up
/// walks the Hadamard probe plan, so both code paths must hold the same
/// byte-identity bar across runs.
fn switched_traced_run(seed: u64) -> String {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.8)
        .goal_ms(8.0)
        .nodes(16)
        .db_pages(1600)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .warmup_intervals(2)
        .spans(SpanMode::Sampled { every: 16 })
        .fabric(FabricSpec::Switched {
            bisection_bits_per_sec: Some(400_000_000),
        })
        .probe(ProbeSpec::Batched { batch: 4 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(12);
    sink.to_jsonl()
}

/// The same switched-fabric run under a crash/restart plan with message
/// drops and a disk stall: degraded mode rides the per-link facilities too.
fn switched_faulted_traced_run(seed: u64) -> String {
    let plan = FaultPlan::new(seed)
        .crash_ms(NodeId(2), 22_500)
        .restart_ms(NodeId(2), 42_500)
        .message_drop(0.01)
        .disk_stall_ms(NodeId(0), 30_000, 40_000, 3.0);
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.8)
        .goal_ms(8.0)
        .nodes(16)
        .db_pages(1600)
        .buffer_pages_per_node(64)
        .goal_rate_per_ms(0.004)
        .warmup_intervals(2)
        .fault_plan(plan)
        .fabric(FabricSpec::Switched {
            bisection_bits_per_sec: Some(400_000_000),
        })
        .probe(ProbeSpec::Batched { batch: 4 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(12);
    sink.to_jsonl()
}

#[test]
fn switched_fabric_traces_are_byte_identical_per_seed() {
    let a = switched_traced_run(7);
    assert!(!a.is_empty(), "trace must not be empty");
    assert!(
        a.contains("\"type\":\"net_load\""),
        "switched runs must emit net_load records"
    );
    assert_eq!(
        a.as_bytes(),
        switched_traced_run(7).as_bytes(),
        "same seed, same bytes"
    );
    assert_ne!(a, switched_traced_run(8), "different seed, different trace");
}

#[test]
fn switched_fabric_faulted_traces_carry_faults_and_net_load() {
    let a = switched_faulted_traced_run(7);
    assert!(
        a.contains("\"kind\":\"crash\"") && a.contains("\"kind\":\"restart\""),
        "both crash and restart must appear"
    );
    assert!(
        a.contains("\"type\":\"net_load\""),
        "switched runs must emit net_load records"
    );
}

#[test]
fn shared_medium_traces_carry_no_net_load_records() {
    // The fabric extension is purely additive: no shared-medium run — the
    // default — may emit a single net_load record, so pre-fabric traces
    // stay byte-compatible.
    for doc in [
        traced_run(7),
        faulted_traced_run(7),
        scaled_traced_run(7, PlacementSpec::RoundRobin),
    ] {
        assert!(
            !doc.contains("net_load"),
            "shared-medium trace leaked net_load records"
        );
    }
}

#[test]
fn hot_ring_traces_are_byte_identical_per_seed_and_differ_from_static() {
    let hot = PlacementSpec::HotRing(HotRingSpec::default());
    let a = scaled_traced_run(7, hot);
    let b = scaled_traced_run(7, hot);
    assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same bytes");
    assert_ne!(a, scaled_traced_run(8, hot));
    // The scheme must actually change placement: a static round-robin run
    // of the same seed routes differently and leaves different bytes.
    let static_rr = scaled_traced_run(7, PlacementSpec::RoundRobin);
    assert_ne!(a, static_rr, "hot ring must change the trace");
    for doc in [&a, &static_rr] {
        assert!(
            doc.contains("\"type\":\"home_load\""),
            "home_load records missing"
        );
    }
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced_run(7);
    let b = traced_run(7);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same bytes");
    let c = traced_run(8);
    assert_ne!(a, c, "different seed, different trace");
}

#[test]
fn faulted_traces_are_byte_identical_per_seed() {
    let a = faulted_traced_run(7);
    let b = faulted_traced_run(7);
    assert_eq!(a.as_bytes(), b.as_bytes(), "same seed + plan, same bytes");
    assert_ne!(a, faulted_traced_run(8), "the plan seed matters too");
    // The degradation machinery actually fired and was traced.
    let has = |t: &str| a.lines().any(|l| l.contains(&format!("\"type\":\"{t}\"")));
    assert!(has("fault"), "fault records missing");
    assert!(
        a.contains("\"kind\":\"crash\"") && a.contains("\"kind\":\"restart\""),
        "both crash and restart must appear"
    );
    assert!(a != traced_run(7), "faults must change the trace");
    // The N = 16 faulted runs trace both transitions under either placement.
    for placement in [
        PlacementSpec::RoundRobin,
        PlacementSpec::HotRing(HotRingSpec::default()),
    ] {
        let scaled = scaled_faulted_traced_run(7, placement);
        assert!(
            scaled.contains("\"kind\":\"crash\"") && scaled.contains("\"kind\":\"restart\""),
            "both crash and restart must appear ({placement:?})"
        );
    }
}

#[test]
fn trace_covers_every_phase_record_type() {
    let doc = traced_run(7);
    let has = |t: &str| {
        doc.lines()
            .any(|l| l.contains(&format!("\"type\":\"{t}\"")))
    };
    assert!(has("interval"), "interval records missing");
    assert!(has("optimize"), "optimize records missing");
    assert!(has("grant"), "grant records missing");
    // Every line parses back as JSON and interval records carry the fields
    // downstream tooling keys on.
    for line in doc.lines() {
        let v = dmm::obs::Json::parse(line).expect("valid JSON line");
        let _ = v;
    }
    let intervals = doc
        .lines()
        .filter(|l| l.contains("\"type\":\"interval\""))
        .count();
    assert_eq!(intervals, 30, "one interval record per check phase");
    for key in [
        "\"observed_ms\":",
        "\"goal_ms\":",
        "\"tolerance_ms\":",
        "\"dedicated_mb\":",
        "\"level_share\":",
        "\"phase\":",
    ] {
        assert!(
            doc.lines()
                .filter(|l| l.contains("\"type\":\"interval\""))
                .all(|l| l.contains(key)),
            "interval records must carry {key}"
        );
    }
}

#[test]
fn span_sampled_traces_are_byte_identical_per_seed() {
    let a = spanned_traced_run(7, 16);
    let b = spanned_traced_run(7, 16);
    assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same span bytes");
    assert!(
        a.lines().any(|l| l.contains("\"type\":\"span\"")),
        "span records missing"
    );
    assert_ne!(a, spanned_traced_run(8, 16), "seed must steer the spans");
    // Sampling is keyed on the op id, not on event interleaving: the
    // non-span records are exactly the spanless trace of the same seed.
    let without: Vec<&str> = a
        .lines()
        .filter(|l| !l.contains("\"type\":\"span\""))
        .collect();
    let plain = traced_run(7);
    assert_eq!(
        without,
        plain.lines().collect::<Vec<_>>(),
        "span tracing must not perturb the control-loop records"
    );
}

#[test]
fn span_traces_are_invariant_across_worker_threads() {
    let seeds = [7u64, 8, 9];
    let collect = |threads| sweep(&seeds, threads, |&seed| spanned_traced_run(seed, 16));
    let one = collect(1);
    for threads in [2, 4] {
        assert_eq!(one, collect(threads), "threads={threads}");
    }
}

#[test]
fn span_stage_sums_partition_response_time_exactly() {
    // Sample every operation: each span's stage nanoseconds must sum to the
    // operation's response time with integer exactness, and the per-class
    // totals must match the aggregated counter in the metrics snapshot
    // (warm-up 0, so the counters never reset mid-run and cover the same
    // window as the trace).
    let cfg = SystemConfig::builder()
        .seed(11)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(0)
        .spans(SpanMode::Sampled { every: 1 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(12);
    let trace = dmm_trace::read_str(&sink.to_jsonl()).expect("trace parses");
    let mut per_class_ns: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut spans = 0u64;
    for record in trace.of_kind("span") {
        spans += 1;
        let stages = record.json.get("stages").expect("stages object");
        let sum_ns: u64 = dmm_trace::SPAN_STAGE_FIELDS
            .iter()
            .map(|f| stages.get(f).and_then(dmm::obs::Json::as_u64).expect("ns"))
            .sum();
        let response_ms = record.num("response_ms").expect("response_ms");
        assert_eq!(
            (sum_ns as f64 / 1e6).to_bits(),
            response_ms.to_bits(),
            "stage sums must partition the response time exactly (op {:?})",
            record.uint("op")
        );
        *per_class_ns
            .entry(record.uint("class").expect("class"))
            .or_default() += sum_ns;
    }
    assert!(
        spans > 100,
        "expected every completed op sampled, got {spans}"
    );
    let snap = sim.metrics_snapshot();
    for (class, total_ns) in per_class_ns {
        let label = if class == 0 {
            "nogoal".to_string()
        } else {
            format!("class{class}")
        };
        assert_eq!(
            snap.get_counter(&format!("span.{label}.response_ns")),
            Some(total_ns),
            "aggregated span counter must equal the sampled sum for {label}"
        );
    }
}

#[test]
fn dmm_trace_diff_reports_zero_divergence_on_same_seed_runs() {
    let a = dmm_trace::read_str(&spanned_traced_run(7, 16)).expect("a parses");
    let b = dmm_trace::read_str(&spanned_traced_run(7, 16)).expect("b parses");
    let report = dmm_trace::diff(&a, &b, 8);
    assert!(
        report.identical(),
        "same seed must diff clean:\n{}",
        report.render()
    );
    let c = dmm_trace::read_str(&spanned_traced_run(8, 16)).expect("c parses");
    assert!(
        !dmm_trace::diff(&a, &c, 8).identical(),
        "different seeds must diverge"
    );
}

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let cfg = SystemConfig::builder()
        .seed(3)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .build()
        .expect("valid test config");
    let mut sim = Simulation::new(cfg);
    sim.run_intervals(8);
    let snap = sim.metrics_snapshot();
    assert!(snap.get_counter("sim.events").unwrap() > 0);
    assert!(snap.get_counter("cluster.accesses").unwrap() > 0);
    assert!(snap.get_counter("core.class1.checks").unwrap() > 0);
    let json = snap.to_json();
    let back = dmm::obs::MetricsSnapshot::from_json(&json).expect("round-trip");
    assert_eq!(json.to_string(), back.to_json().to_string());
    // Records survived too.
    assert!(!sim.records(ClassId(1)).is_empty());
}

#[test]
fn convergence_speed_is_thread_count_invariant() {
    let seeds: Vec<u64> = (1..=6).map(|s| 9000 + s).collect();
    let one = convergence_speed(0.5, &seeds, 120, ControllerKind::default(), 1);
    for threads in [2, 4, 8] {
        let many = convergence_speed(0.5, &seeds, 120, ControllerKind::default(), threads);
        assert_eq!(one.episodes, many.episodes, "threads={threads}");
        assert_eq!(
            one.mean_iterations.to_bits(),
            many.mean_iterations.to_bits(),
            "threads={threads}"
        );
        assert_eq!(
            one.ci99_half_width.to_bits(),
            many.ci99_half_width.to_bits(),
            "threads={threads}"
        );
    }
}

/// The base run with the goal class on a p95 goal: the whole quantile path
/// (agent histograms → merged coordinator quantile → quantile trace fields)
/// must be as deterministic as the mean path.
fn quantile_traced_run(seed: u64) -> (String, Option<f64>) {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .goal_range(GoalRange::new(4.0, 40.0))
        .goal_quantile(0.95)
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    // The tail-compliance statistic downstream scoring keys on.
    let settled_p95 = sim.mean_observed_quantile_ms(ClassId(1), 6);
    (sink.to_jsonl(), settled_p95)
}

#[test]
fn quantile_goal_traces_are_byte_identical_per_seed() {
    let (a, p_a) = quantile_traced_run(7);
    let (b, p_b) = quantile_traced_run(7);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same bytes");
    assert_eq!(
        p_a.expect("settled p95").to_bits(),
        p_b.expect("settled p95").to_bits(),
        "same seed, same settled p95"
    );
    let (c, _) = quantile_traced_run(8);
    assert_ne!(a, c, "different seed, different trace");
    // The quantile fields are present on every goal-class interval record,
    // in the appended (trailing) position the schema pins.
    let intervals: Vec<&str> = a
        .lines()
        .filter(|l| l.contains("\"type\":\"interval\""))
        .collect();
    assert!(!intervals.is_empty());
    for line in &intervals {
        assert!(
            line.contains("\"observed_p_ms\":") && line.contains("\"goal_metric\":\"p95\""),
            "interval record missing quantile fields: {line}"
        );
    }
    for kind in ["optimize", "goal_change"] {
        let with_metric = a
            .lines()
            .filter(|l| l.contains(&format!("\"type\":\"{kind}\"")))
            .all(|l| l.contains("\"goal_metric\":\"p95\""));
        assert!(with_metric, "{kind} records must carry goal_metric");
    }
}

/// The explicit three-rung ladder of [`dmm::cluster::TierLadder::default`].
fn default_ladder() -> Vec<TierSpec> {
    vec![
        TierSpec::new("local", 0.03),
        TierSpec::new("remote", 0.5),
        TierSpec::new("disk", 12.6),
    ]
}

/// The base run with the default ladder passed *explicitly* through the new
/// `tiers(...)` builder surface.
fn explicit_ladder_traced_run(seed: u64) -> String {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .goal_range(GoalRange::new(4.0, 40.0))
        .tiers(default_ladder())
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    sink.to_jsonl()
}

/// The faulted run with the default ladder passed explicitly.
fn explicit_ladder_faulted_run(seed: u64) -> String {
    let plan = FaultPlan::new(seed)
        .crash_ms(NodeId(2), 32_500)
        .restart_ms(NodeId(2), 92_500)
        .message_drop(0.01)
        .disk_stall_ms(NodeId(0), 50_000, 70_000, 3.0);
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .fault_plan(plan)
        .tiers(default_ladder())
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    sink.to_jsonl()
}

/// A run on an extended (dram + cxl) ladder at equal total capacity.
fn extended_ladder_traced_run(seed: u64, policy: TierPolicy) -> String {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(48)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .goal_range(GoalRange::new(4.0, 40.0))
        .tiers(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25)
                .frames(48)
                .bandwidth(2_000_000_000),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .tier_policy(policy)
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    sink.to_jsonl()
}

#[test]
fn explicit_default_ladder_traces_byte_identically_to_implicit() {
    // The tiers(...) surface with the default three-rung ladder is the
    // *same system*: traces must be byte-identical to a builder that never
    // mentions tiers, for plain and faulted runs alike.
    for seed in [7u64, 8] {
        assert_eq!(
            traced_run(seed).as_bytes(),
            explicit_ladder_traced_run(seed).as_bytes(),
            "explicit default ladder changed the trace (seed {seed})"
        );
        assert_eq!(
            faulted_traced_run(seed).as_bytes(),
            explicit_ladder_faulted_run(seed).as_bytes(),
            "explicit default ladder changed the faulted trace (seed {seed})"
        );
    }
}

#[test]
fn extended_ladder_traces_are_byte_identical_per_seed() {
    for policy in [TierPolicy::Hotness, TierPolicy::StaticHash] {
        let a = extended_ladder_traced_run(7, policy);
        let b = extended_ladder_traced_run(7, policy);
        assert!(!a.is_empty(), "trace must not be empty");
        assert_eq!(a.as_bytes(), b.as_bytes(), "same seed, same bytes");
        assert_ne!(a, extended_ladder_traced_run(8, policy), "seed steers");
        // Extended runs append the tier-occupancy extension on every
        // interval record, with both configured memory tiers present.
        let intervals: Vec<&str> = a
            .lines()
            .filter(|l| l.contains("\"type\":\"interval\""))
            .collect();
        assert!(!intervals.is_empty());
        for line in &intervals {
            assert!(
                line.contains("\"tier_occupancy\":{\"dram\":")
                    && line.contains("\"cxl\":")
                    && line.contains("\"frames\":"),
                "interval record missing tier occupancy: {line}"
            );
        }
    }
    // The policy must matter: hotness and static-hash runs diverge.
    assert_ne!(
        extended_ladder_traced_run(7, TierPolicy::Hotness),
        extended_ladder_traced_run(7, TierPolicy::StaticHash),
        "tier policy must change the trace"
    );
}

#[test]
fn default_ladder_traces_carry_no_tier_fields() {
    // The tier extension is purely additive: no default-ladder run —
    // implicit or explicit — may emit a single tier field, so pre-tier
    // traces stay byte-compatible.
    for doc in [
        traced_run(7),
        faulted_traced_run(7),
        spanned_traced_run(7, 16),
        explicit_ladder_traced_run(7),
    ] {
        assert!(
            !doc.contains("tier_occupancy"),
            "default-ladder trace leaked tier fields"
        );
    }
}

#[test]
fn mean_goal_traces_carry_no_quantile_fields() {
    // The quantile path is purely additive: a mean-goal run must not emit
    // a single quantile field, so pre-quantile traces stay byte-compatible.
    for doc in [
        traced_run(7),
        faulted_traced_run(7),
        spanned_traced_run(7, 16),
    ] {
        assert!(
            !doc.contains("observed_p_ms") && !doc.contains("goal_metric"),
            "mean-goal trace leaked quantile fields"
        );
    }
}

#[test]
fn quantile_tail_compliance_is_invariant_across_worker_threads() {
    let seeds = [7u64, 8, 9];
    let collect = |threads| {
        let run = |&seed: &u64| {
            let (trace, p95) = quantile_traced_run(seed);
            (trace, p95.expect("settled p95").to_bits())
        };
        sweep(&seeds, threads, run)
    };
    let one = collect(1);
    for threads in [2, 4] {
        assert_eq!(one, collect(threads), "threads={threads}");
    }
}

/// The base run captured through the bounded streaming sink (capacity far
/// above the record count, so nothing drops).
fn stream_traced_run(seed: u64) -> (String, u64) {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .goal_range(GoalRange::new(4.0, 40.0))
        .build()
        .expect("valid test config");
    let sink = StreamSink::bounded(1 << 20);
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    let mut doc: String = sink.drain().into_iter().map(|line| line + "\n").collect();
    doc.shrink_to_fit();
    (doc, sink.dropped_records())
}

#[test]
fn stream_sink_yields_byte_identical_records_to_jsonl_sink() {
    // The streaming sink buffers the same serialized lines the JSONL sink
    // writes: one trace, three capture paths, identical bytes.
    let via_vec = traced_run(7);
    let (via_stream, dropped) = stream_traced_run(7);
    assert_eq!(dropped, 0, "capacity was ample: nothing may drop");
    assert_eq!(via_vec.as_bytes(), via_stream.as_bytes());

    let path =
        std::env::temp_dir().join(format!("dmm_stream_vs_jsonl_{}.jsonl", std::process::id()));
    {
        let cfg = SystemConfig::builder()
            .seed(7)
            .theta(0.5)
            .goal_ms(8.0)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .warmup_intervals(2)
            .goal_range(GoalRange::new(4.0, 40.0))
            .build()
            .expect("valid test config");
        let sink = dmm::obs::JsonLinesSink::create(&path).expect("create trace file");
        let mut sim = Simulation::new(cfg);
        sim.set_trace_sink(Box::new(sink));
        sim.run_intervals(30);
    }
    let via_file = std::fs::read_to_string(&path).expect("read trace file");
    std::fs::remove_file(&path).ok();
    assert_eq!(via_stream.as_bytes(), via_file.as_bytes());
}

#[test]
fn stream_sink_drops_and_counts_under_a_tight_ring() {
    // A deliberately tiny ring: the run must complete untroubled, keep the
    // oldest records contiguously, and count every drop.
    let cfg = SystemConfig::builder()
        .seed(7)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .build()
        .expect("valid test config");
    let sink = StreamSink::bounded(8);
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(10);
    let kept = sink.drain();
    assert_eq!(kept.len(), 8, "ring holds exactly its capacity");
    assert!(sink.dropped_records() > 0, "overflow must be counted");
    // Drop-newest semantics: the kept records are the contiguous head of
    // the stream, starting with the run_config record.
    assert!(
        kept[0].starts_with("{\"type\":\"run_config\""),
        "{}",
        kept[0]
    );
}

#[test]
fn replay_round_trips_plain_faulted_and_quantile_runs() {
    // The acceptance gate: `replay --expect-identical` must hold on a
    // plain (fig2-like), a faulted, and a quantile-goal recording.
    for (name, doc) in [
        ("plain", traced_run(7)),
        ("faulted", faulted_traced_run(7)),
        ("quantile", quantile_traced_run(7).0),
    ] {
        let report = dmm::core::replay::verify_jsonl(&doc, 4)
            .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        assert!(
            report.identical(),
            "{name}: replay diverged at {} of {} records: {:?}",
            report.mismatches,
            report.original_records,
            report.divergences.first()
        );
    }
}

#[test]
fn replay_round_trips_spanned_recordings_on_control_records() {
    // A spanned recording replays with spans off: the span lines are
    // skipped, the control records must still match byte-for-byte.
    let doc = spanned_traced_run(7, 16);
    assert!(doc.contains("\"type\":\"span\""), "precondition: spans on");
    let report = dmm::core::replay::verify_jsonl(&doc, 4).expect("replayable");
    assert!(
        report.identical(),
        "spanned replay diverged: {:?}",
        report.divergences.first()
    );
}

#[test]
fn watch_snapshot_is_byte_stable_across_runs() {
    // The snapshot renderer is a pure function of the record stream: same
    // seed, same frames.
    let doc = spanned_traced_run(7, 16);
    let trace = dmm_trace::read_str(&doc).expect("valid trace");
    let frames = dmm_trace::snapshot(&trace, 4);
    assert!(frames.contains("-- frame 1/4 --"), "{frames}");
    assert!(frames.contains("-- frame 4/4 --"), "{frames}");
    assert!(frames.contains("stage waterfall"), "{frames}");

    let again = dmm_trace::snapshot(
        &dmm_trace::read_str(&spanned_traced_run(7, 16)).expect("valid trace"),
        4,
    );
    assert_eq!(frames, again, "same seed, same frames");
}

/// FNV-1a (64-bit) over a trace's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The base system under `controller` with every per-class control path
/// live: the coordinator's home node crashes and restarts (failover,
/// `node_down`, `node_up`), the background load doubles (the workload-shift
/// store clear) and a goal range with upper-bound satisfaction makes the
/// goal schedule fire even for the controllers that never act.
fn controller_traced_run(controller: ControllerKind) -> String {
    let plan = FaultPlan::new(11)
        .crash_ms(NodeId(0), 32_500)
        .restart_ms(NodeId(0), 92_500);
    let mut cfg = SystemConfig::builder()
        .seed(11)
        .theta(0.5)
        .goal_ms(20.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .controller(controller)
        .satisfaction(SatisfactionMode::UpperBound)
        .goal_range(GoalRange::new(4.0, 40.0))
        .fault_plan(plan)
        .build()
        .expect("valid test config");
    cfg.workload.classes[0].rate_shifts = vec![RateShift {
        at: SimTime::from_nanos(130 * 1_000_000_000),
        arrival_per_ms: vec![0.048; 3],
    }];
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(40);
    sink.to_jsonl()
}

#[test]
fn every_controller_traces_its_pinned_bytes() {
    // FNV-1a digests of each controller's JSONL trace, pinned across
    // revisions: a change that only restructures the control plane leaves
    // every controller's bytes as they are. A declared behaviour change
    // regenerates them (the failure message prints the new values). Each
    // trace also replays from its run_config record, rate shift included.
    let pinned: [(&str, ControllerKind, u64); 7] = [
        (
            "hyperplane/min_nogoal_rt",
            ControllerKind::Hyperplane {
                objective: Objective::MinNoGoalRt,
            },
            0x1f0c_0b43_022e_e833,
        ),
        (
            "hyperplane/min_total_dedicated",
            ControllerKind::Hyperplane {
                objective: Objective::MinTotalDedicated,
            },
            0x7b76_4398_aff7_33d0,
        ),
        (
            "hyperplane/balance_nodes",
            ControllerKind::Hyperplane {
                objective: Objective::BalanceNodes,
            },
            0xc4d8_651c_5b1d_bd49,
        ),
        (
            "fragment_fencing",
            ControllerKind::FragmentFencing,
            0x6fc7_6eba_07f4_975e,
        ),
        (
            "class_fencing",
            ControllerKind::ClassFencing,
            0x0be0_8e31_f299_399b,
        ),
        (
            "static",
            ControllerKind::Static { fraction: 0.25 },
            0x073c_0485_976b_06cb,
        ),
        ("none", ControllerKind::None, 0xa0ff_bec5_8455_da7f),
    ];
    let mut moved = Vec::new();
    for (name, controller, digest) in pinned {
        let doc = controller_traced_run(controller);
        for needle in [
            "\"kind\":\"crash\"",
            "\"kind\":\"restart\"",
            "\"type\":\"failover\"",
            "\"store_cleared\":true",
            "\"type\":\"goal_change\"",
        ] {
            assert!(doc.contains(needle), "{name}: no {needle} in the trace");
        }
        let report = dmm::core::replay::verify_jsonl(&doc, 4).expect("replayable");
        assert!(
            report.identical(),
            "{name}: replay diverged: {:?}",
            report.divergences.first()
        );
        let got = fnv1a(doc.as_bytes());
        if got != digest {
            moved.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "trace digests moved: {moved:#?}");
}
