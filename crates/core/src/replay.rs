//! Trace-driven replay: the `run_config` record and its inverse.
//!
//! Every sink-enabled run leads with one `run_config` record carrying the
//! *replay closure* of its configuration — the complete set of
//! parameters that shape the trace byte stream. Given a recorded trace,
//! [`recorded_run_from_jsonl`] reconstructs the [`SystemConfig`] (fault
//! plan included) and [`verify_jsonl`] re-runs it through the simulator,
//! checking that the re-run's control records byte-match the original.
//! A recorded incident is thereby a deterministic regression test.
//!
//! The record's layout is [`RunConfig`] in the declaration table of
//! [`crate::records`]: this module only maps a [`SystemConfig`] onto that
//! struct and back. Field order, variant names and the decoding of every
//! field (a missing or mistyped value is an error naming its path) come
//! from the table.
//!
//! ## What the closure contains — and what it deliberately omits
//!
//! The closure is the run's configuration itself, so every run replays:
//! every parameter that affects the *bytes* of the control-record stream —
//! seed, cluster shape, replacement policy, the whole workload, goal
//! schedule, controller, satisfaction and placement modes, fabric, probing,
//! storage ladder, and the full fault plan (the `fault` trace records alone
//! don't carry drop probabilities or disk-stall windows). It pins every
//! [`dmm_cluster::ClusterParams`] field but the span mode; the goal-class
//! count follows from the workload. Runtime interventions
//! ([`Simulation::set_goal`], [`Simulation::dedicate_fraction`],
//! [`Simulation::migrate_coordinator`], warm starts) stay outside it.
//!
//! It deliberately *excludes* the span mode, an observer toggle proven
//! trace-invariant by the determinism suite (non-span records are
//! byte-identical with sampling on or off). Including it would break the
//! byte-identity contract those tests pin; excluding it means a replay
//! reproduces the *system*, not the observer.
//! Replays therefore run with spans off and compare *control records* —
//! every record type except `span`.

use dmm_buffer::{ClassId, PageId, PolicySpec};
use dmm_cluster::{DiskStall, FabricSpec, FaultPlan, NodeId, PlacementSpec, ScheduledFault};
use dmm_cluster::{FaultKind, HotRingSpec};
use dmm_obs::{Json, VecSink};
use dmm_sim::{SimDuration, SimTime};
use dmm_workload::{ClassSpec, GoalMetric, WorkloadSpec};

use crate::baselines::ControllerKind;
use crate::probe::ProbeSpec;
use crate::records::{
    Controller, Fabric, FaultEvent, FaultPlanRecord, PageRun, Placement, Policy, Probe, Record,
    RunConfig, Stall, WorkloadClass, SCHEMA_VERSION,
};
use crate::system::{Simulation, SystemConfig};

/// The `run_config` record of a configuration, parsed from the very line
/// that leads every sink-enabled trace. Its layout is [`RunConfig`]'s.
pub fn run_config_record(config: &SystemConfig) -> Json {
    Json::parse(&run_config_line(config)).expect("a written record parses")
}

/// The `run_config` line a sink-enabled trace leads with.
pub(crate) fn run_config_line(config: &SystemConfig) -> String {
    let mut line = String::new();
    run_config(config).write(&mut line);
    line
}

/// Maps a configuration onto its `run_config` record.
fn run_config(config: &SystemConfig) -> RunConfig {
    let cluster = &config.cluster;
    let ring = match cluster.placement {
        PlacementSpec::HotRing(ring) => Some(ring),
        _ => None,
    };
    RunConfig {
        schema_version: SCHEMA_VERSION,
        seed: config.seed,
        nodes: cluster.nodes,
        db_pages: cluster.db_pages,
        buffer_pages_per_node: cluster.buffer_pages_per_node,
        policy: Policy {
            kind: cluster.policy,
            k: match cluster.policy {
                PolicySpec::LruK(k) => Some(k),
                _ => None,
            },
        },
        interval_ns: config.interval.as_nanos(),
        warmup_intervals: config.warmup_intervals,
        controller: Controller {
            kind: config.controller,
            objective: match config.controller {
                ControllerKind::Hyperplane { objective } => Some(objective),
                _ => None,
            },
            fraction: match config.controller {
                ControllerKind::Static { fraction } => Some(fraction),
                _ => None,
            },
        },
        goal_range: config.goal_range,
        satisfaction: config.satisfaction,
        release_floor_mb: config.release_floor_mb,
        placement: Placement {
            kind: cluster.placement,
            vnodes: ring.map(|r| r.vnodes),
            max_replicas: ring.map(|r| r.max_replicas),
            ring_seed: ring.map(|r| r.seed),
        },
        fabric: Fabric {
            kind: cluster.net.fabric,
            bisection_bits_per_sec: match cluster.net.fabric {
                FabricSpec::Switched {
                    bisection_bits_per_sec,
                } => bisection_bits_per_sec,
                FabricSpec::SharedMedium => None,
            },
        },
        net_bits_per_sec: cluster.net.bits_per_sec,
        probe: Probe {
            kind: config.probe,
            batch: match config.probe {
                ProbeSpec::Batched { batch } => Some(batch),
                ProbeSpec::Sequential => None,
            },
        },
        tiers: cluster.tiers.tiers().to_vec(),
        tier_policy: cluster.tier_policy,
        fault_plan: config.fault_plan.as_ref().map(|plan| FaultPlanRecord {
            seed: plan.seed,
            drop_probability: plan.drop_probability,
            retransmit_ns: plan.retransmit.as_nanos(),
            events: plan
                .events
                .iter()
                .map(|e| FaultEvent {
                    kind: e.kind,
                    node: e.kind.node().0,
                    at_ns: e.at.as_nanos(),
                })
                .collect(),
            stalls: plan
                .stalls
                .iter()
                .map(|s| Stall {
                    node: s.node.0,
                    from_ns: s.from.as_nanos(),
                    until_ns: s.until.as_nanos(),
                    factor: s.factor,
                })
                .collect(),
        }),
        workload: config
            .workload
            .classes
            .iter()
            .map(|c| WorkloadClass {
                goal_ms: c.goal_ms,
                goal_quantile: c.goal_metric.quantile(),
                pages_per_op: c.pages_per_op,
                theta: c.zipf_theta,
                pages: page_runs(&c.pages),
                arrival_per_ms: c.arrival_per_ms.clone(),
                rate_shifts: c.rate_shifts.clone(),
            })
            .collect(),
    }
}

/// A page set as runs of consecutive ids, in order.
fn page_runs(pages: &[PageId]) -> Vec<PageRun> {
    let runs = pages.chunk_by(|a, b| a.0.checked_add(1) == Some(b.0));
    runs.map(|run| PageRun {
        start: run[0].0,
        len: run.len() as u32,
    })
    .collect()
}

/// A payload field its variant requires, `null` in the record: an error
/// naming its path.
fn required<T>(value: Option<T>, path: &str) -> Result<T, String> {
    value.ok_or_else(|| format!("run_config.{path} missing or mistyped"))
}

/// Rebuilds a [`SystemConfig`] from a parsed `run_config` record.
pub fn config_from_record(record: &Json) -> Result<SystemConfig, String> {
    if record.get("type").and_then(Json::as_str) != Some(RunConfig::KIND) {
        return Err("not a run_config record".to_string());
    }
    let rc = RunConfig::from_record(record)?;

    let controller = match rc.controller.kind {
        ControllerKind::Hyperplane { .. } => ControllerKind::Hyperplane {
            objective: required(rc.controller.objective, "controller.objective")?,
        },
        ControllerKind::Static { .. } => ControllerKind::Static {
            fraction: required(rc.controller.fraction, "controller.fraction")?,
        },
        kind => kind,
    };
    let placement = match rc.placement.kind {
        PlacementSpec::HotRing(_) => PlacementSpec::HotRing(HotRingSpec {
            vnodes: required(rc.placement.vnodes, "placement.vnodes")?,
            max_replicas: required(rc.placement.max_replicas, "placement.max_replicas")?,
            seed: required(rc.placement.ring_seed, "placement.ring_seed")?,
        }),
        kind => kind,
    };
    let fabric = match rc.fabric.kind {
        FabricSpec::Switched { .. } => FabricSpec::Switched {
            bisection_bits_per_sec: rc.fabric.bisection_bits_per_sec,
        },
        kind => kind,
    };
    let probe = match rc.probe.kind {
        ProbeSpec::Batched { .. } => ProbeSpec::Batched {
            batch: required(rc.probe.batch, "probe.batch")?,
        },
        kind => kind,
    };
    let policy = match (rc.policy.kind, rc.policy.k) {
        (PolicySpec::LruK(_), Some(k @ 1..)) => PolicySpec::LruK(k),
        (PolicySpec::LruK(_), _) => return Err("run_config.policy.k must be ≥ 1".to_string()),
        (kind, _) => kind,
    };
    let instant = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);

    let mut builder = SystemConfig::builder()
        .seed(rc.seed)
        .nodes(rc.nodes)
        .db_pages(rc.db_pages)
        .buffer_pages_per_node(rc.buffer_pages_per_node)
        .warmup_intervals(rc.warmup_intervals)
        .controller(controller)
        .satisfaction(rc.satisfaction)
        .release_floor_mb(rc.release_floor_mb)
        .placement(placement)
        .fabric(fabric)
        .net_bits_per_sec(rc.net_bits_per_sec)
        .probe(probe)
        .tiers(rc.tiers)
        .tier_policy(rc.tier_policy);
    if let Some(range) = rc.goal_range {
        // The condition `GoalRange::new` asserts; the builder takes a range
        // as given, and a record is outside input.
        if !(range.min_ms > 0.0 && range.max_ms > range.min_ms) {
            return Err("run_config.goal_range is not 0 < min_ms < max_ms".to_string());
        }
        builder = builder.goal_range(range);
    }
    if let Some(p) = rc.fault_plan {
        let mut plan = FaultPlan::new(p.seed);
        plan.drop_probability = p.drop_probability;
        plan.retransmit = SimDuration::from_nanos(p.retransmit_ns);
        plan.events = p
            .events
            .into_iter()
            .map(|e| ScheduledFault {
                at: instant(e.at_ns),
                kind: match e.kind {
                    FaultKind::Crash(_) => FaultKind::Crash(NodeId(e.node)),
                    FaultKind::Restart(_) => FaultKind::Restart(NodeId(e.node)),
                },
            })
            .collect();
        plan.stalls = p
            .stalls
            .into_iter()
            .map(|s| DiskStall {
                node: NodeId(s.node),
                from: instant(s.from_ns),
                until: instant(s.until_ns),
                factor: s.factor,
            })
            .collect();
        builder = builder.fault_plan(plan);
    }
    let mut config = builder.build().map_err(|e| e.to_string())?;
    // The builder always starts from the §7.1 interval, the cost-based
    // policy and the §7.2 workload; restore the recorded ones exactly.
    config.interval = SimDuration::from_nanos(rc.interval_ns);
    config.cluster.policy = policy;
    let mut classes = Vec::with_capacity(rc.workload.len());
    for (i, c) in rc.workload.into_iter().enumerate() {
        let mut pages = Vec::new();
        for PageRun { start, len } in c.pages {
            let end = start.checked_add(len).filter(|&end| end <= rc.db_pages);
            let range = || format!("run_config.workload.pages {start}+{len} is out of range");
            pages.extend((start..end.ok_or_else(range)?).map(PageId));
        }
        let quantile = c.goal_quantile.map(|q| GoalMetric::Quantile { q });
        classes.push(ClassSpec {
            class: ClassId(u16::try_from(i).map_err(|_| "run_config.workload: too many classes")?),
            goal_ms: c.goal_ms,
            goal_metric: quantile.unwrap_or_default(),
            pages_per_op: c.pages_per_op,
            zipf_theta: c.theta,
            pages,
            arrival_per_ms: c.arrival_per_ms,
            rate_shifts: c.rate_shifts,
        });
    }
    config.workload = WorkloadSpec { classes };
    let valid = config.workload.validate(rc.nodes, rc.db_pages);
    valid.map_err(|e| format!("run_config.workload: {e}"))?;
    Ok(config)
}

/// A recorded run, decoded from its JSON-lines trace: the reconstructed
/// configuration, how many observation intervals it ran, and the raw
/// control-record lines (every record except `span`) for byte comparison.
#[derive(Debug)]
pub struct RecordedRun {
    /// The rebuilt configuration.
    pub config: SystemConfig,
    /// Observation intervals the recorded run completed (one `interval`
    /// record per goal-class check).
    pub intervals: u32,
    /// Raw control-record lines of the recording, in order.
    pub control_lines: Vec<String>,
}

/// Decodes a recorded trace: finds the leading `run_config` record,
/// rebuilds the configuration, counts the goal class's interval records,
/// and keeps the raw control lines.
pub fn recorded_run_from_jsonl(text: &str) -> Result<RecordedRun, String> {
    let mut config = None;
    let mut intervals = 0u32;
    let mut control_lines = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {}: {e:?}", idx + 1))?;
        let kind = json.get("type").and_then(Json::as_str).unwrap_or("");
        match kind {
            "span" => continue,
            "run_config" if config.is_none() => {
                config =
                    Some(config_from_record(&json).map_err(|e| format!("line {}: {e}", idx + 1))?);
            }
            "interval" if json.get("class").and_then(Json::as_u64) == Some(1) => intervals += 1,
            _ => {}
        }
        control_lines.push(line.to_string());
    }
    let config = config.ok_or(
        "trace carries no run_config record (recorded by an emitter without replay support?)",
    )?;
    if intervals == 0 {
        return Err("trace carries no interval records for the goal class".to_string());
    }
    Ok(RecordedRun {
        config,
        intervals,
        control_lines,
    })
}

/// Re-runs a recorded run and returns the re-emitted trace lines. Spans
/// stay off (the closure excludes the observer), so every emitted line is a
/// control record.
pub fn rerun_lines(run: &RecordedRun) -> Vec<String> {
    let sink = VecSink::new();
    let mut sim = Simulation::new(run.config.clone());
    sim.set_trace_sink(Box::new(sink.handle()));
    sim.run_intervals(run.intervals);
    sink.lines()
}

/// One line where recording and replay disagree.
#[derive(Debug)]
pub struct Divergence {
    /// 0-based control-record index.
    pub index: usize,
    /// The recorded line (`None`: replay emitted extra records).
    pub original: Option<String>,
    /// The replayed line (`None`: replay ended early).
    pub replayed: Option<String>,
}

/// Outcome of a replay verification.
#[derive(Debug)]
pub struct ReplayReport {
    /// Intervals replayed.
    pub intervals: u32,
    /// Control records in the recording.
    pub original_records: usize,
    /// Records the replay emitted.
    pub replayed_records: usize,
    /// Total diverging positions.
    pub mismatches: usize,
    /// The first few divergences (capped by the caller's limit).
    pub divergences: Vec<Divergence>,
}

impl ReplayReport {
    /// Whether the replay reproduced the recording byte for byte.
    pub fn identical(&self) -> bool {
        self.mismatches == 0 && self.original_records == self.replayed_records
    }
}

/// Replays a recorded trace and byte-compares the control records,
/// reporting at most `limit` divergences in detail.
pub fn verify_jsonl(text: &str, limit: usize) -> Result<ReplayReport, String> {
    let run = recorded_run_from_jsonl(text)?;
    let replayed = rerun_lines(&run);
    let original = &run.control_lines;
    let len = original.len().max(replayed.len());
    let mut mismatches = 0usize;
    let mut divergences = Vec::new();
    for i in 0..len {
        let a = original.get(i);
        let b = replayed.get(i);
        if a != b {
            mismatches += 1;
            if divergences.len() < limit {
                divergences.push(Divergence {
                    index: i,
                    original: a.cloned(),
                    replayed: b.cloned(),
                });
            }
        }
    }
    Ok(ReplayReport {
        intervals: run.intervals,
        original_records: original.len(),
        replayed_records: replayed.len(),
        mismatches,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::SatisfactionMode;
    use crate::optimize::Objective;
    use dmm_buffer::TierPolicy;
    use dmm_cluster::TierSpec;
    use dmm_workload::{GoalRange, RateShift};

    fn traced(config: SystemConfig, intervals: u32) -> String {
        let sink = VecSink::new();
        let mut sim = Simulation::new(config);
        sim.set_trace_sink(Box::new(sink.handle()));
        sim.run_intervals(intervals);
        sink.to_jsonl()
    }

    /// Every `run_config` variant the emitter writes, one row each: a
    /// default closure with a fault plan, the scale-out variants, the
    /// 4-rung ladder under static-hash placement, every controller and LP
    /// objective, the upper-bound / quantile goal variants, every
    /// replacement policy, and the workloads set outside the builder:
    /// §7.4's two goal classes, Ablation B's skewed arrivals and a rate
    /// shift.
    fn closure_variants() -> Vec<(&'static str, SystemConfig)> {
        let small = || {
            SystemConfig::builder()
                .seed(9)
                .theta(0.5)
                .goal_ms(8.0)
                .db_pages(400)
                .buffer_pages_per_node(96)
                .goal_rate_per_ms(0.008)
                .warmup_intervals(2)
        };
        let plan = FaultPlan::new(3)
            .crash_ms(NodeId(1), 20_000)
            .restart_ms(NodeId(1), 60_000)
            .message_drop(0.01)
            .disk_stall_ms(NodeId(0), 30_000, 40_000, 2.5);
        let mut rows = vec![
            (
                "goal range + fault plan",
                small()
                    .goal_range(GoalRange::new(4.0, 40.0))
                    .fault_plan(plan),
            ),
            (
                "hot ring + switched fabric with bisection + batched probe",
                small()
                    .nodes(8)
                    .placement(PlacementSpec::HotRing(HotRingSpec {
                        vnodes: 32,
                        max_replicas: 3,
                        seed: 77,
                    }))
                    .fabric(FabricSpec::Switched {
                        bisection_bits_per_sec: Some(400_000_000),
                    })
                    .net_bits_per_sec(1_000_000_000)
                    .probe(ProbeSpec::Batched { batch: 4 }),
            ),
            (
                "4-rung ladder + static hash",
                small()
                    .tiers(vec![
                        TierSpec::new("dram", 0.03),
                        TierSpec::new("cxl", 0.25)
                            .frames(48)
                            .bandwidth(2_000_000_000),
                        TierSpec::new("remote", 0.5),
                        TierSpec::new("disk", 12.6),
                    ])
                    .tier_policy(TierPolicy::StaticHash),
            ),
            (
                "upper bound + p95 goal",
                small()
                    .satisfaction(SatisfactionMode::UpperBound)
                    .goal_quantile(0.95),
            ),
        ];
        for controller in [
            ControllerKind::Hyperplane {
                objective: Objective::MinNoGoalRt,
            },
            ControllerKind::Hyperplane {
                objective: Objective::MinTotalDedicated,
            },
            ControllerKind::Hyperplane {
                objective: Objective::BalanceNodes,
            },
            ControllerKind::FragmentFencing,
            ControllerKind::ClassFencing,
            ControllerKind::Static { fraction: 0.35 },
            ControllerKind::None,
        ] {
            rows.push(("controller", small().controller(controller)));
        }
        let mut rows: Vec<_> = rows
            .into_iter()
            .map(|(row, builder)| (row, builder.build().expect("valid config")))
            .collect();
        let base = || small().build().expect("valid config");
        for policy in [
            PolicySpec::Lru,
            PolicySpec::Fifo,
            PolicySpec::Clock,
            PolicySpec::LruK(2),
        ] {
            let mut config = base();
            config.cluster.policy = policy;
            rows.push(("non-cost policy", config));
        }
        let mut shared = base();
        shared.workload = WorkloadSpec::two_goal_classes(3, 400, 0.5, 0.004, 6.0, 12.0, 0.5);
        let mut skewed = base();
        skewed.workload.classes[1].arrival_per_ms = vec![0.012, 0.005, 0.001];
        let mut shifted = base();
        shifted.workload.classes[0].rate_shifts = vec![RateShift {
            at: SimTime::from_nanos(30_000_000_000),
            arrival_per_ms: vec![0.048, 0.024, 0.0],
        }];
        rows.extend([
            ("two goal classes at sharing 0.5", shared),
            ("skewed per-node arrivals", skewed),
            ("rate shift", shifted),
        ]);
        rows
    }

    #[test]
    fn run_config_round_trips_through_the_builder() {
        for (row, config) in closure_variants() {
            let record = run_config_record(&config);
            let text = record.to_string();
            let rebuilt = config_from_record(&record).expect("round trip");
            // The workload and every cluster parameter survive, bar the
            // observer-only span mode (replays run with spans off).
            assert_eq!(rebuilt.workload.classes, config.workload.classes, "{row}");
            let mut expected = config.cluster.clone();
            expected.spans = rebuilt.cluster.spans;
            assert_eq!(rebuilt.cluster, expected, "{row}");
            // The rebuilt config serializes to the identical closure…
            assert_eq!(
                run_config_record(&rebuilt).to_string(),
                text,
                "{row}: closure must be a fixed point of record→config→record"
            );
            // …and re-parses after a JSON round trip (float formatting is
            // shortest-roundtrip, so every f64 survives).
            let reparsed = Json::parse(&text).expect("parses");
            let rebuilt = config_from_record(&reparsed).expect("round trip through text");
            assert_eq!(run_config_record(&rebuilt).to_string(), text, "{row}");
        }
    }

    /// A malformed goal range is refused. Decoded through `GoalRange::new`,
    /// such a range panicked on its assertion.
    #[test]
    fn an_invalid_goal_range_is_refused_not_panicked() {
        let config = SystemConfig::builder()
            .goal_ms(8.0)
            .goal_range(GoalRange::new(4.0, 40.0))
            .build()
            .expect("valid config");
        let mut record = run_config_record(&config);
        *at_path(&mut record, "goal_range.max_ms") = Json::F64(2.0);
        assert_eq!(
            config_from_record(&record).expect_err("min above max"),
            "run_config.goal_range is not 0 < min_ms < max_ms"
        );
    }

    /// An integer too wide for its field is refused with the field's name.
    /// Narrowed with `as`, a fault event at node 65 536 replayed as a crash
    /// of node 0 and passed `FaultPlan::validate`.
    #[test]
    fn out_of_range_integers_are_refused_not_wrapped() {
        let config = SystemConfig::builder()
            .nodes(8)
            .goal_ms(8.0)
            .placement(PlacementSpec::HotRing(HotRingSpec::default()))
            .fault_plan(FaultPlan::new(3).crash_ms(NodeId(1), 20_000).disk_stall_ms(
                NodeId(2),
                30_000,
                40_000,
                2.5,
            ))
            .build()
            .expect("valid config");
        let text = run_config_record(&config).to_string();
        let ring = HotRingSpec::default();
        for (from, to, field) in [
            (
                r#""kind":"crash","node":1,"#,
                r#""kind":"crash","node":65536,"#,
                "fault_plan.events.node = 65536",
            ),
            (
                r#"{"node":2,"#,
                r#"{"node":65538,"#,
                "fault_plan.stalls.node = 65538",
            ),
            (
                r#""db_pages":2000,"#,
                r#""db_pages":4294969296,"#,
                "db_pages = 4294969296",
            ),
            (
                r#""warmup_intervals":4,"#,
                r#""warmup_intervals":4294967300,"#,
                "warmup_intervals = 4294967300",
            ),
            (
                &format!(r#""vnodes":{},"#, ring.vnodes),
                r#""vnodes":65600,"#,
                "placement.vnodes = 65600",
            ),
            (
                &format!(r#""max_replicas":{},"#, ring.max_replicas),
                r#""max_replicas":258,"#,
                "placement.max_replicas = 258",
            ),
        ] {
            assert_eq!(text.matches(from).count(), 1, "{from} in {text}");
            let record = Json::parse(&text.replace(from, to)).expect("parses");
            let err = config_from_record(&record).expect_err(field);
            assert_eq!(err, format!("run_config.{field} is out of range"));
        }
    }

    /// The base system with a goal range, and the runs whose workload or
    /// policy is set outside the builder: §7.4's two goal classes at
    /// sharing 0.5, an LRU run and Ablation B's skewed arrivals.
    #[test]
    fn replay_reproduces_a_recorded_run_byte_for_byte() {
        let small = || {
            SystemConfig::builder()
                .seed(7)
                .theta(0.5)
                .goal_ms(8.0)
                .db_pages(400)
                .buffer_pages_per_node(96)
                .goal_rate_per_ms(0.008)
                .warmup_intervals(2)
                .build()
                .expect("valid config")
        };
        let mut ranged = small();
        ranged.goal_range = Some(GoalRange::new(4.0, 40.0));
        let mut shared = small();
        shared.workload = WorkloadSpec::two_goal_classes(3, 400, 0.5, 0.004, 6.0, 12.0, 0.5);
        shared.release_floor_mb = 0.0;
        let mut lru = small();
        lru.cluster.policy = PolicySpec::Lru;
        let mut skewed = small();
        skewed.workload.classes[1].arrival_per_ms = vec![0.012, 0.005, 0.001];
        for (row, config) in [
            ("goal range", ranged),
            ("two goal classes", shared),
            ("lru", lru),
            ("skewed arrivals", skewed),
        ] {
            let doc = traced(config, 8);
            let report = verify_jsonl(&doc, 4).expect("replayable");
            assert_eq!(report.intervals, 8, "{row}");
            assert!(
                report.identical(),
                "{row}: replay diverged: {:?}",
                report.divergences.first()
            );
        }
    }

    #[test]
    fn truncated_traces_report_helpful_errors() {
        assert!(recorded_run_from_jsonl("")
            .expect_err("empty")
            .contains("no run_config"));
        let config = SystemConfig::builder()
            .seed(7)
            .goal_ms(8.0)
            .build()
            .expect("valid config");
        let only_header = run_config_record(&config).to_string();
        assert!(recorded_run_from_jsonl(&only_header)
            .expect_err("no intervals")
            .contains("no interval records"));
    }

    /// The value at a dotted path of a record (`fault_plan.events.1.kind`;
    /// numeric steps index arrays).
    fn at_path<'a>(json: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('.').fold(json, |json, step| match json {
            Json::Obj(fields) => {
                let Some((_, value)) = fields.iter_mut().find(|(k, _)| k == step) else {
                    panic!("no field {step} in {path}")
                };
                value
            }
            Json::Arr(items) => &mut items[step.parse::<usize>().expect("array index")],
            other => panic!("{path}: cannot step into {other}"),
        })
    }

    /// A closure exercising every variant name the record carries, one row
    /// per (path, name): the default config names the first variant of
    /// each enum, and each row switches one enum to another variant.
    fn named_variants() -> Vec<(&'static str, &'static str, SystemConfig)> {
        let small = || {
            SystemConfig::builder()
                .seed(9)
                .goal_ms(8.0)
                .db_pages(400)
                .buffer_pages_per_node(96)
                .fault_plan(
                    FaultPlan::new(3)
                        .crash_ms(NodeId(1), 20_000)
                        .restart_ms(NodeId(1), 60_000),
                )
        };
        let hyperplane = |objective| ControllerKind::Hyperplane { objective };
        let rows = vec![
            ("satisfaction", "two_sided", small()),
            (
                "satisfaction",
                "upper_bound",
                small().satisfaction(SatisfactionMode::UpperBound),
            ),
            ("tier_policy", "hotness", small()),
            (
                "tier_policy",
                "static_hash",
                small().tier_policy(TierPolicy::StaticHash),
            ),
            ("controller.kind", "hyperplane", small()),
            ("controller.objective", "min_nogoal_rt", small()),
            (
                "controller.objective",
                "min_total_dedicated",
                small().controller(hyperplane(Objective::MinTotalDedicated)),
            ),
            (
                "controller.objective",
                "balance_nodes",
                small().controller(hyperplane(Objective::BalanceNodes)),
            ),
            (
                "controller.kind",
                "fragment_fencing",
                small().controller(ControllerKind::FragmentFencing),
            ),
            (
                "controller.kind",
                "class_fencing",
                small().controller(ControllerKind::ClassFencing),
            ),
            (
                "controller.kind",
                "static",
                small().controller(ControllerKind::Static { fraction: 0.25 }),
            ),
            (
                "controller.kind",
                "none",
                small().controller(ControllerKind::None),
            ),
            ("placement.kind", "round_robin", small()),
            (
                "placement.kind",
                "hash",
                small().placement(PlacementSpec::Hash),
            ),
            (
                "placement.kind",
                "hot_ring",
                small().placement(PlacementSpec::HotRing(HotRingSpec::default())),
            ),
            ("fabric.kind", "shared_medium", small()),
            (
                "fabric.kind",
                "switched",
                small().fabric(FabricSpec::Switched {
                    bisection_bits_per_sec: None,
                }),
            ),
            ("probe.kind", "sequential", small()),
            (
                "probe.kind",
                "batched",
                small().nodes(4).probe(ProbeSpec::Batched { batch: 2 }),
            ),
            ("fault_plan.events.0.kind", "crash", small()),
            ("fault_plan.events.1.kind", "restart", small()),
        ];
        let mut rows: Vec<_> = rows
            .into_iter()
            .map(|(path, name, builder)| (path, name, builder.build().expect("valid config")))
            .collect();
        for (name, policy) in [
            ("cost_based", PolicySpec::CostBased),
            ("lru", PolicySpec::Lru),
            ("fifo", PolicySpec::Fifo),
            ("clock", PolicySpec::Clock),
            ("lru_k", PolicySpec::LruK(2)),
        ] {
            let mut config = small().build().expect("valid config");
            config.cluster.policy = policy;
            rows.push(("policy.kind", name, config));
        }
        rows
    }

    #[test]
    fn every_variant_encodes_to_its_name_and_decodes_to_itself() {
        for (path, name, config) in named_variants() {
            let mut record = run_config_record(&config);
            let written = at_path(&mut record, path).as_str().map(str::to_string);
            assert_eq!(written.as_deref(), Some(name), "{path}: {record}");
            let rebuilt = config_from_record(&record).expect("decodes");
            assert_eq!(rebuilt.controller, config.controller, "{path} = {name}");
            assert_eq!(rebuilt.satisfaction, config.satisfaction, "{path} = {name}");
            assert_eq!(rebuilt.probe, config.probe, "{path} = {name}");
            assert_eq!(rebuilt.fault_plan, config.fault_plan, "{path} = {name}");
            assert_eq!(rebuilt.cluster, config.cluster, "{path} = {name}");
        }
    }

    #[test]
    fn an_unknown_variant_name_is_refused_naming_its_path() {
        for (path, name, config) in named_variants() {
            let mut record = run_config_record(&config);
            *at_path(&mut record, path) = Json::from("bogus");
            let err = config_from_record(&record).expect_err(path);
            // Array elements report under the array's path.
            let field = path.replace(".0.", ".").replace(".1.", ".");
            assert!(
                err.starts_with(&format!("run_config.{field} = \"bogus\" is not one of ")),
                "{path} = {name}: {err}"
            );
        }
    }

    /// Nullable fields read `null` as absent, but a missing field or a value
    /// of the wrong type is an error naming the field — not a silent
    /// default.
    #[test]
    fn a_mistyped_or_missing_nullable_field_is_refused() {
        let config = SystemConfig::builder()
            .goal_ms(8.0)
            .fabric(FabricSpec::Switched {
                bisection_bits_per_sec: Some(400_000_000),
            })
            .tiers(vec![
                TierSpec::new("dram", 0.03),
                TierSpec::new("cxl", 0.25)
                    .frames(48)
                    .bandwidth(2_000_000_000),
                TierSpec::new("remote", 0.5),
                TierSpec::new("disk", 12.6),
            ])
            .fault_plan(FaultPlan::new(3).crash_ms(NodeId(1), 20_000))
            .build()
            .expect("valid config");
        let record = run_config_record(&config);
        config_from_record(&record).expect("the unedited record decodes");
        let mistyped = [
            ("fabric.bisection_bits_per_sec", Json::from("fast")),
            ("tiers.1.frames", Json::from("many")),
            ("tiers.1.bandwidth_bytes_per_sec", Json::from(true)),
            ("fault_plan.events", Json::from(7u64)),
            ("fault_plan.stalls", Json::from("none")),
            ("workload.1.goal_quantile", Json::from("p95")),
            ("workload.1.rate_shifts", Json::Null),
        ];
        for (path, value) in mistyped {
            let mut edited = record.clone();
            *at_path(&mut edited, path) = value;
            let field = path.replace(".1.", ".");
            assert_eq!(
                config_from_record(&edited).expect_err(path),
                format!("run_config.{field} missing or mistyped")
            );
        }
        for (parent, key) in [
            ("fabric", "bisection_bits_per_sec"),
            ("tiers.0", "frames"),
            ("tiers.0", "bandwidth_bytes_per_sec"),
            ("fault_plan", "events"),
            ("fault_plan", "stalls"),
            ("policy", "k"),
            ("workload.1", "goal_quantile"),
        ] {
            let mut edited = record.clone();
            let Json::Obj(fields) = at_path(&mut edited, parent) else {
                panic!("{parent} is an object");
            };
            fields.retain(|(k, _)| k != key);
            let field = format!("{parent}.{key}")
                .replace(".0.", ".")
                .replace(".1.", ".");
            assert_eq!(
                config_from_record(&edited).expect_err(key),
                format!("run_config.{field} missing or mistyped")
            );
        }
    }

    /// A trace of another `run_config` layout is refused by its version,
    /// before any field of it is read.
    #[test]
    fn another_schema_version_is_refused_naming_the_field() {
        let config = SystemConfig::builder().build().expect("valid config");
        let mut record = run_config_record(&config);
        assert_eq!(
            record.get("schema_version"),
            Some(&Json::from(SCHEMA_VERSION))
        );
        *at_path(&mut record, "schema_version") = Json::from(SCHEMA_VERSION + 1);
        assert_eq!(
            config_from_record(&record).expect_err("a later version"),
            format!(
                "run_config.schema_version = {} is not supported",
                SCHEMA_VERSION + 1
            )
        );
        let Json::Obj(fields) = &mut record else {
            panic!("record is an object");
        };
        fields.retain(|(k, _)| k != "schema_version");
        assert_eq!(
            config_from_record(&record).expect_err("no version"),
            "run_config.schema_version missing or mistyped"
        );
    }

    /// A workload the simulator would refuse is refused by path, not
    /// panicked on: `WorkloadSpec::validate` returns the fault.
    #[test]
    fn a_malformed_workload_is_refused_not_panicked() {
        let config = SystemConfig::builder().build().expect("valid config");
        let record = run_config_record(&config);
        for (path, value, fault) in [
            (
                "workload.1.pages.0.len",
                Json::from(2_001u64),
                "pages 0+2001 is out of range",
            ),
            (
                "workload.1.arrival_per_ms",
                Json::Arr(vec![Json::F64(0.006)]),
                "arrival rates",
            ),
            (
                "workload.0.rate_shifts",
                Json::parse(
                    r#"[{"at":9,"arrival_per_ms":[0,0,0]},{"at":8,"arrival_per_ms":[0,0,0]}]"#,
                )
                .expect("parses"),
                "time order",
            ),
            (
                "workload.0.goal_ms",
                Json::F64(5.0),
                "no-goal class cannot carry a goal",
            ),
            (
                "workload.1.goal_quantile",
                Json::F64(1.0),
                "goal quantile must lie in (0, 1)",
            ),
        ] {
            let mut edited = record.clone();
            *at_path(&mut edited, path) = value;
            let err = config_from_record(&edited).expect_err(path);
            assert!(
                err.starts_with("run_config.workload") && err.contains(fault),
                "{path}: {err}"
            );
        }
    }
}
