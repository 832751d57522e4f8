//! Golden schema test: every record the simulator emits must match the
//! ordered field lists published by `dmm_trace::schema` — exactly, including
//! field order (the serializer preserves emission order, so this pins the
//! byte layout of every trace line). Any drift between the emitter
//! (`dmm-core`) and the analyzer (`dmm-trace`) fails here rather than
//! silently misparsing downstream.

use std::collections::HashSet;

use dmm::cluster::{FabricSpec, FaultPlan, NodeId};
use dmm::core::{ProbeSpec, Simulation, SystemConfig};
use dmm::obs::{SpanMode, VecSink};
use dmm::prelude::TierSpec;
use dmm_bench::calibrated_goal_schedule;
use dmm_trace::{
    expected_fields, expected_fields_ext, expected_fields_for, read_str, validate_record, Trace,
    RECORD_TYPES, SPAN_STAGE_FIELDS,
};

/// Goal-schedule run with span sampling at the paper's base scale, goals
/// drawn from a calibrated attainable range so satisfied streaks complete:
/// interval, optimize, grant, goal_change and span records.
fn goal_schedule_trace(seed: u64) -> Trace {
    let (_, schedule) = calibrated_goal_schedule(SystemConfig::builder().seed(seed).theta(0.5));
    let cfg = schedule
        .warmup_intervals(2)
        .spans(SpanMode::Sampled { every: 16 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    // Long enough for at least one 4-interval satisfied streak (goal_change).
    sim.run_intervals(60);
    read_str(&sink.to_jsonl()).expect("emitted trace parses")
}

/// Faulted run crashing the class-1 coordinator's home node (node 0):
/// fault and failover records.
fn faulted_trace(seed: u64) -> Trace {
    let plan = FaultPlan::new(seed)
        .crash_ms(NodeId(0), 32_500)
        .restart_ms(NodeId(0), 92_500)
        .disk_stall_ms(NodeId(1), 50_000, 70_000, 3.0);
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .fault_plan(plan)
        .spans(SpanMode::Sampled { every: 16 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    read_str(&sink.to_jsonl()).expect("emitted trace parses")
}

/// Switched-fabric run with batched probing: the same record stream plus
/// one `net_load` record per interval (the record type shared-medium runs
/// never emit).
fn switched_trace(seed: u64) -> Trace {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(96)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .fabric(FabricSpec::Switched {
            bisection_bits_per_sec: Some(200_000_000),
        })
        .probe(ProbeSpec::Batched { batch: 2 })
        .spans(SpanMode::Sampled { every: 16 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    read_str(&sink.to_jsonl()).expect("emitted trace parses")
}

/// Goal-schedule run with the goal class on a p95 goal: the same record
/// stream, plus the quantile extension fields on interval / optimize /
/// goal_change records.
fn quantile_goal_trace(seed: u64) -> Trace {
    let (_, schedule) = calibrated_goal_schedule(
        SystemConfig::builder()
            .seed(seed)
            .theta(0.5)
            .goal_quantile(0.95),
    );
    let cfg = schedule
        .warmup_intervals(2)
        .spans(SpanMode::Sampled { every: 16 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(60);
    read_str(&sink.to_jsonl()).expect("emitted trace parses")
}

/// Run on an extended (dram + cxl) storage ladder: the same record stream,
/// plus the tier-occupancy extension on interval records.
fn tiered_trace(seed: u64) -> Trace {
    let cfg = SystemConfig::builder()
        .seed(seed)
        .theta(0.5)
        .goal_ms(8.0)
        .db_pages(400)
        .buffer_pages_per_node(48)
        .goal_rate_per_ms(0.008)
        .warmup_intervals(2)
        .tiers(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25)
                .frames(48)
                .bandwidth(2_000_000_000),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .spans(SpanMode::Sampled { every: 16 })
        .build()
        .expect("valid test config");
    let sink = VecSink::new();
    let mut sim = Simulation::new(cfg);
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(30);
    read_str(&sink.to_jsonl()).expect("emitted trace parses")
}

#[test]
fn every_emitted_record_matches_the_published_schema_exactly() {
    let mut seen: HashSet<String> = HashSet::new();
    for trace in [goal_schedule_trace(7), faulted_trace(7), switched_trace(7)] {
        assert!(!trace.records.is_empty());
        for record in &trace.records {
            let expected = expected_fields(&record.kind).unwrap_or_else(|| {
                panic!(
                    "line {}: unknown record type {:?}",
                    record.line, record.kind
                )
            });
            assert_eq!(
                record.field_names(),
                expected,
                "line {}: {} record fields drifted from the schema",
                record.line,
                record.kind
            );
            if record.kind == "span" {
                let stages = record
                    .json
                    .get("stages")
                    .and_then(dmm::obs::Json::as_obj)
                    .expect("span.stages is an object");
                let names: Vec<&str> = stages.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(names, SPAN_STAGE_FIELDS, "line {}", record.line);
            }
            seen.insert(record.kind.clone());
        }
    }
    for kind in RECORD_TYPES {
        assert!(seen.contains(kind), "no {kind} record was emitted");
    }
}

#[test]
fn home_load_records_carry_one_entry_per_node() {
    let trace = faulted_trace(7); // 3-node cluster
    let loads: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.kind == "home_load")
        .collect();
    assert!(!loads.is_empty(), "no home_load record was emitted");
    for record in &loads {
        for key in ["home_pages", "home_reads", "remote_fanin"] {
            let arr = record
                .json
                .get(key)
                .and_then(dmm::obs::Json::as_arr)
                .unwrap_or_else(|| panic!("line {}: {key} is an array", record.line));
            assert_eq!(arr.len(), 3, "line {}: {key} per node", record.line);
        }
    }
    // Every page has exactly one home under the default static placement.
    let last = loads.last().expect("non-empty");
    let pages: u64 = last
        .json
        .get("home_pages")
        .and_then(dmm::obs::Json::as_arr)
        .expect("array")
        .iter()
        .filter_map(dmm::obs::Json::as_u64)
        .sum();
    assert_eq!(pages, 400, "home_pages sums to db_pages");
}

#[test]
fn net_load_records_carry_one_entry_per_node_and_only_appear_when_switched() {
    // Shared-medium runs (the default) must not emit net_load records.
    let shared = faulted_trace(7);
    assert!(
        !shared.records.iter().any(|r| r.kind == "net_load"),
        "shared-medium trace must carry no net_load records"
    );
    let trace = switched_trace(7); // 3-node cluster
    let loads: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.kind == "net_load")
        .collect();
    assert_eq!(loads.len(), 30, "one net_load record per interval");
    for record in &loads {
        for key in ["tx_busy", "rx_busy"] {
            let arr = record
                .json
                .get(key)
                .and_then(dmm::obs::Json::as_arr)
                .unwrap_or_else(|| panic!("line {}: {key} is an array", record.line));
            assert_eq!(arr.len(), 3, "line {}: {key} per node", record.line);
            for v in arr.iter().filter_map(dmm::obs::Json::as_f64) {
                assert!((0.0..=1.0).contains(&v), "busy fraction {v} out of range");
            }
        }
        // This run pins a finite bisection capacity, so the core's busy
        // fraction is a number, not null.
        let b = record
            .num("bisection_busy")
            .unwrap_or_else(|| panic!("line {}: bisection_busy is a number", record.line));
        assert!((0.0..=1.0).contains(&b));
    }
}

#[test]
fn quantile_goal_records_append_the_published_extension_exactly() {
    let trace = quantile_goal_trace(7);
    assert!(!trace.records.is_empty());
    let mut extended = 0usize;
    for record in &trace.records {
        // The only goal class in this run carries a quantile goal, so every
        // record of a kind the quantile path extends must use the extended
        // layout; every other kind keeps the base layout bit-for-bit.
        let quantile = matches!(
            record.kind.as_str(),
            "interval" | "optimize" | "goal_change"
        );
        let expected = expected_fields_for(&record.kind, quantile).unwrap_or_else(|| {
            panic!(
                "line {}: unknown record type {:?}",
                record.line, record.kind
            )
        });
        assert_eq!(
            record.field_names(),
            expected,
            "line {}: {} record fields drifted from the quantile schema",
            record.line,
            record.kind
        );
        if quantile {
            extended += 1;
            assert_eq!(
                record.text("goal_metric"),
                Some("p95"),
                "line {}",
                record.line
            );
        }
    }
    assert!(extended > 0, "no extended records were emitted");
}

#[test]
fn tiered_records_append_the_published_extension_exactly() {
    let trace = tiered_trace(7);
    assert!(!trace.records.is_empty());
    let mut extended = 0usize;
    for record in &trace.records {
        // Only interval records grow the tier-occupancy extension; every
        // other kind keeps the base layout bit-for-bit.
        let tiered = record.kind == "interval";
        let expected = expected_fields_ext(&record.kind, false, tiered).unwrap_or_else(|| {
            panic!(
                "line {}: unknown record type {:?}",
                record.line, record.kind
            )
        });
        assert_eq!(
            record.field_names(),
            expected,
            "line {}: {} record fields drifted from the tiered schema",
            record.line,
            record.kind
        );
        if tiered {
            extended += 1;
            let tiers = record
                .json
                .get("tier_occupancy")
                .and_then(dmm::obs::Json::as_obj)
                .expect("tier_occupancy is an object");
            let names: Vec<&str> = tiers.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, ["dram", "cxl"], "line {}", record.line);
            for (_, stats) in tiers {
                for key in ["resident", "frames"] {
                    assert!(
                        stats.get(key).and_then(dmm::obs::Json::as_u64).is_some(),
                        "line {}: tier stat {key} is a u64",
                        record.line
                    );
                }
            }
        }
    }
    assert!(extended > 0, "no tier-extended records were emitted");
}

#[test]
fn run_config_leads_every_trace_and_carries_the_replay_closure() {
    // Plain, faulted, switched, quantile and tiered runs all lead with one
    // run_config record, and its closure reflects the builder inputs.
    for (name, trace) in [
        ("goal_schedule", goal_schedule_trace(7)),
        ("faulted", faulted_trace(7)),
        ("switched", switched_trace(7)),
        ("quantile", quantile_goal_trace(7)),
        ("tiered", tiered_trace(7)),
    ] {
        let first = trace.records.first().expect("non-empty trace");
        assert_eq!(first.kind, "run_config", "{name}: first record");
        assert_eq!(
            trace
                .records
                .iter()
                .filter(|r| r.kind == "run_config")
                .count(),
            1,
            "{name}: exactly one run_config record"
        );
        assert_eq!(first.uint("seed"), Some(7), "{name}");
        assert_eq!(first.uint("nodes"), Some(3), "{name}");
        assert_eq!(
            first.uint("schema_version"),
            Some(dmm::core::records::SCHEMA_VERSION),
            "{name}"
        );
        let workload = first
            .json
            .get("workload")
            .and_then(dmm::obs::Json::as_arr)
            .unwrap_or_else(|| panic!("{name}: workload is an array"));
        assert_eq!(workload.len(), 2, "{name}: the no-goal and the goal class");
        // The resolved tier ladder is always serialized, even when implicit.
        let tiers = first
            .json
            .get("tiers")
            .and_then(dmm::obs::Json::as_arr)
            .unwrap_or_else(|| panic!("{name}: tiers is an array"));
        assert!(tiers.len() >= 3, "{name}: at least local/remote/disk rungs");
    }
}

#[test]
fn run_config_serializes_the_fault_plan_and_fabric() {
    let faulted = faulted_trace(7);
    let header = &faulted.records[0];
    let plan = header
        .json
        .get("fault_plan")
        .expect("fault_plan field present");
    let events = plan
        .get("events")
        .and_then(dmm::obs::Json::as_arr)
        .expect("events array");
    assert_eq!(events.len(), 2, "crash + restart");
    assert_eq!(
        events[0].get("kind").and_then(dmm::obs::Json::as_str),
        Some("crash")
    );
    assert_eq!(
        events[0].get("at_ns").and_then(dmm::obs::Json::as_u64),
        Some(32_500_000_000),
        "crash_ms(32_500) recorded in nanoseconds"
    );
    let stalls = plan
        .get("stalls")
        .and_then(dmm::obs::Json::as_arr)
        .expect("stalls array");
    assert_eq!(stalls.len(), 1);
    assert_eq!(
        stalls[0].get("factor").and_then(dmm::obs::Json::as_f64),
        Some(3.0)
    );
    // Plain runs carry a null fault_plan.
    let plain = goal_schedule_trace(7);
    assert!(
        matches!(
            plain.records[0].json.get("fault_plan"),
            Some(dmm::obs::Json::Null)
        ),
        "plain run_config carries fault_plan: null"
    );

    let switched = switched_trace(7);
    let fabric = switched.records[0]
        .json
        .get("fabric")
        .expect("fabric object");
    assert_eq!(
        fabric.get("kind").and_then(dmm::obs::Json::as_str),
        Some("switched")
    );
    assert_eq!(
        fabric
            .get("bisection_bits_per_sec")
            .and_then(dmm::obs::Json::as_u64),
        Some(200_000_000)
    );
    let probe = switched.records[0].json.get("probe").expect("probe object");
    assert_eq!(probe.get("batch").and_then(dmm::obs::Json::as_u64), Some(2));
}

#[test]
fn run_config_quantile_and_tier_closures_reflect_the_builder() {
    // The goal quantile rides on its class, the goal class 1.
    let goal_quantile = |trace: &Trace| {
        let workload = trace.records[0].json.get("workload");
        let classes = workload
            .and_then(dmm::obs::Json::as_arr)
            .expect("workload array");
        classes[1].get("goal_quantile").cloned()
    };
    assert_eq!(
        goal_quantile(&quantile_goal_trace(7)),
        Some(dmm::obs::Json::F64(0.95)),
        "quantile goal recorded"
    );
    assert_eq!(
        goal_quantile(&goal_schedule_trace(7)),
        Some(dmm::obs::Json::Null),
        "mean-goal run_config carries goal_quantile: null"
    );

    let tiered = tiered_trace(7);
    let tiers = tiered.records[0]
        .json
        .get("tiers")
        .and_then(dmm::obs::Json::as_arr)
        .expect("tiers array");
    assert_eq!(tiers.len(), 4, "dram/cxl/remote/disk");
    assert_eq!(
        tiers[1].get("name").and_then(dmm::obs::Json::as_str),
        Some("cxl")
    );
    assert_eq!(
        tiers[1].get("frames").and_then(dmm::obs::Json::as_u64),
        Some(48)
    );
    assert_eq!(
        tiers[1]
            .get("bandwidth_bytes_per_sec")
            .and_then(dmm::obs::Json::as_u64),
        Some(2_000_000_000)
    );
}

/// Committed artefacts must keep working with the current tools: every
/// record of the three committed traces validates against the published
/// schema, each recording (workload_shift's rate shift included) re-runs to
/// byte-identical control records, and the metrics sidecars load and render.
#[test]
fn committed_results_still_validate_replay_and_render() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for name in ["fig2_base", "overhead", "workload_shift"] {
        let text = std::fs::read_to_string(results.join(format!("{name}.jsonl")))
            .unwrap_or_else(|e| panic!("{name}.jsonl: {e}"));
        let trace = read_str(&text).unwrap_or_else(|e| panic!("{name}.jsonl: {e:?}"));
        assert_eq!(trace.records[0].kind, "run_config", "{name}");
        for record in &trace.records {
            validate_record(record).unwrap_or_else(|e| panic!("{name}.jsonl: {e}"));
        }
        let report = dmm::core::replay::verify_jsonl(&text, 3)
            .unwrap_or_else(|e| panic!("{name}.jsonl: {e}"));
        assert!(report.identical(), "{name}: {:?}", report.divergences);

        let sidecar = std::fs::read_to_string(results.join(format!("{name}_metrics.json")))
            .unwrap_or_else(|e| panic!("{name}_metrics.json: {e}"));
        let json = dmm::obs::Json::parse(sidecar.trim()).expect("sidecar is JSON");
        let snapshot = dmm::obs::MetricsSnapshot::from_json(&json).expect("sidecar is a snapshot");
        let section = dmm_trace::report::executor(&snapshot);
        assert!(section.contains("sim.sched.pushes"), "{name}: {section}");
        assert!(section.contains("sim.events"), "{name}: {section}");
    }
}
