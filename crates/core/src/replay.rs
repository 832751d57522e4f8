//! Trace-driven replay: the `run_config` record and its inverse.
//!
//! Every sink-enabled run leads with one `run_config` record carrying the
//! *replay closure* of its configuration — the complete set of builder
//! parameters that shape the trace byte stream. Given a recorded trace,
//! [`recorded_run_from_jsonl`] reconstructs the [`SystemConfig`] (fault
//! plan included) and [`verify_jsonl`] re-runs it through the simulator,
//! checking that the re-run's control records byte-match the original.
//! A recorded incident is thereby a deterministic regression test.
//!
//! ## What the closure contains — and what it deliberately omits
//!
//! The closure covers every parameter that affects the *bytes* of the
//! control-record stream: seed, cluster shape, workload generator inputs,
//! goal metric and schedule, controller, satisfaction and placement
//! modes, fabric, probing, storage ladder, and the full fault plan (the
//! `fault` trace records alone don't carry drop probabilities or disk-stall
//! windows, so the plan rides in the closure).
//!
//! It deliberately *excludes* the span mode, an observer toggle proven
//! trace-invariant by the determinism suite (non-span records are
//! byte-identical with sampling on or off). Including it would break the
//! byte-identity contract those tests pin; excluding it means a replay
//! reproduces the *system*, not the observer.
//! Replays therefore run with spans off and compare *control records* —
//! every record type except `span`.

use dmm_cluster::{DiskStall, FabricSpec, FaultPlan, NodeId, PlacementSpec, ScheduledFault};
use dmm_cluster::{FaultKind, HotRingSpec, TierSpec};
use dmm_obs::{Json, VecSink};
use dmm_sim::{SimDuration, SimTime};
use dmm_workload::{GoalMetric, GoalRange, WorkloadSpec};

use crate::baselines::ControllerKind;
use crate::coordinator::SatisfactionMode;
use crate::optimize::Objective;
use crate::probe::ProbeSpec;
use crate::system::{Simulation, SystemConfig};
use dmm_buffer::TierPolicy;

/// Builds the `run_config` record for a configuration: the first record of
/// every sink-enabled trace. Field order is part of the published schema.
pub fn run_config_record(config: &SystemConfig) -> Json {
    let cluster = &config.cluster;
    let goal = config.workload.classes.get(1);
    let theta = goal.map_or(0.0, |c| c.zipf_theta);
    let goal_ms = goal.and_then(|c| c.goal_ms);
    let goal_rate = goal.and_then(|c| c.arrival_per_ms.first().copied());
    let goal_quantile = goal.and_then(|c| match c.goal_metric {
        GoalMetric::Mean => None,
        GoalMetric::Quantile { q } => Some(q),
    });

    let controller = match config.controller {
        ControllerKind::Hyperplane { objective } => Json::obj()
            .field("kind", "hyperplane")
            .field(
                "objective",
                match objective {
                    Objective::MinNoGoalRt => "min_nogoal_rt",
                    Objective::MinTotalDedicated => "min_total_dedicated",
                    Objective::BalanceNodes => "balance_nodes",
                },
            )
            .field("fraction", Json::Null),
        ControllerKind::FragmentFencing => controller_obj("fragment_fencing", None),
        ControllerKind::ClassFencing => controller_obj("class_fencing", None),
        ControllerKind::Static { fraction } => controller_obj("static", Some(fraction)),
        ControllerKind::None => controller_obj("none", None),
    };
    let goal_range = match config.goal_range {
        Some(r) => Json::obj()
            .field("min_ms", r.min_ms)
            .field("max_ms", r.max_ms),
        None => Json::Null,
    };
    let placement = match cluster.placement {
        PlacementSpec::RoundRobin => placement_obj("round_robin", None),
        PlacementSpec::Hash => placement_obj("hash", None),
        PlacementSpec::HotRing(spec) => placement_obj("hot_ring", Some(spec)),
    };
    let fabric = match cluster.net.fabric {
        FabricSpec::SharedMedium => Json::obj()
            .field("kind", "shared_medium")
            .field("bisection_bits_per_sec", Json::Null),
        FabricSpec::Switched {
            bisection_bits_per_sec,
        } => Json::obj()
            .field("kind", "switched")
            .field("bisection_bits_per_sec", bisection_bits_per_sec),
    };
    let probe = match config.probe {
        ProbeSpec::Sequential => Json::obj()
            .field("kind", "sequential")
            .field("batch", Json::Null),
        ProbeSpec::Batched { batch } => Json::obj()
            .field("kind", "batched")
            .field("batch", batch as u64),
    };
    let tiers = Json::Arr(
        cluster
            .tiers
            .tiers()
            .iter()
            .map(|t| {
                Json::obj()
                    .field("name", t.name.as_str())
                    .field("hit_ms", t.hit_ms)
                    .field("frames", t.frames.map(|f| f as u64))
                    .field("bandwidth_bytes_per_sec", t.bandwidth_bytes_per_sec)
            })
            .collect(),
    );
    let fault_plan = match &config.fault_plan {
        None => Json::Null,
        Some(plan) => Json::obj()
            .field("seed", plan.seed)
            .field("drop_probability", plan.drop_probability)
            .field("retransmit_ns", plan.retransmit.as_nanos())
            .field(
                "events",
                Json::Arr(
                    plan.events
                        .iter()
                        .map(|e| {
                            Json::obj()
                                .field(
                                    "kind",
                                    match e.kind {
                                        FaultKind::Crash(_) => "crash",
                                        FaultKind::Restart(_) => "restart",
                                    },
                                )
                                .field("node", e.kind.node().index() as u64)
                                .field("at_ns", e.at.as_nanos())
                        })
                        .collect(),
                ),
            )
            .field(
                "stalls",
                Json::Arr(
                    plan.stalls
                        .iter()
                        .map(|s| {
                            Json::obj()
                                .field("node", s.node.index() as u64)
                                .field("from_ns", s.from.as_nanos())
                                .field("until_ns", s.until.as_nanos())
                                .field("factor", s.factor)
                        })
                        .collect(),
                ),
            ),
    };

    Json::obj()
        .field("type", "run_config")
        .field("seed", config.seed)
        .field("nodes", cluster.nodes as u64)
        .field("db_pages", cluster.db_pages as u64)
        .field(
            "buffer_pages_per_node",
            cluster.buffer_pages_per_node as u64,
        )
        .field("theta", theta)
        .field("goal_ms", goal_ms)
        .field("goal_rate_per_ms", goal_rate)
        .field("goal_quantile", goal_quantile)
        .field("interval_ns", config.interval.as_nanos())
        .field("warmup_intervals", config.warmup_intervals as u64)
        .field("controller", controller)
        .field("goal_range", goal_range)
        .field(
            "satisfaction",
            match config.satisfaction {
                SatisfactionMode::TwoSided => "two_sided",
                SatisfactionMode::UpperBound => "upper_bound",
            },
        )
        .field("release_floor_mb", config.release_floor_mb)
        .field("placement", placement)
        .field("fabric", fabric)
        .field("net_bits_per_sec", cluster.net.bits_per_sec)
        .field("probe", probe)
        .field("tiers", tiers)
        .field(
            "tier_policy",
            match cluster.tier_policy {
                TierPolicy::Hotness => "hotness",
                TierPolicy::StaticHash => "static_hash",
            },
        )
        .field("fault_plan", fault_plan)
        .field("replayable", is_replayable(config))
}

fn controller_obj(kind: &str, fraction: Option<f64>) -> Json {
    Json::obj()
        .field("kind", kind)
        .field("objective", Json::Null)
        .field("fraction", fraction)
}

fn placement_obj(kind: &str, ring: Option<HotRingSpec>) -> Json {
    Json::obj()
        .field("kind", kind)
        .field("vnodes", ring.map(|r| r.vnodes as u64))
        .field("max_replicas", ring.map(|r| r.max_replicas as u64))
        .field("ring_seed", ring.map(|r| r.seed))
}

/// Whether the workload matches the builder's generative two-class shape —
/// the precondition for reconstructing it from the closure's scalar
/// parameters. Hand-assembled workloads (extra classes, custom per-node
/// rates, scheduled rate shifts) are recorded but flagged non-replayable.
fn is_replayable(config: &SystemConfig) -> bool {
    let classes = &config.workload.classes;
    if classes.len() != 2 {
        return false;
    }
    let goal = &classes[1];
    let (Some(goal_ms), Some(&rate)) = (goal.goal_ms, goal.arrival_per_ms.first()) else {
        return false;
    };
    let mut candidate = WorkloadSpec::base_two_class(
        config.cluster.nodes,
        config.cluster.db_pages,
        goal.zipf_theta,
        rate,
        goal_ms,
    );
    candidate.classes[1].goal_metric = goal.goal_metric;
    // ClassSpec carries vectors without PartialEq; the Debug form is a
    // complete, deterministic rendering of every field.
    format!("{:?}", candidate.classes) == format!("{:?}", classes)
}

/// Reads field `key` of `obj`, the record object at path `at` (`""` at the
/// top level, else ending in `.`), with the accessor `get`. A missing or
/// mistyped field is an error naming its full path.
fn read<'a, T>(
    obj: &'a Json,
    at: &str,
    key: &str,
    get: fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    obj.get(key)
        .and_then(get)
        .ok_or_else(|| format!("run_config.{at}{key} missing or mistyped"))
}

/// [`read`] for an unsigned integer, narrowed to the type its field holds:
/// an out-of-range value is an error naming the field, never a silent wrap.
fn int<T: TryFrom<u64>>(obj: &Json, at: &str, key: &str) -> Result<T, String> {
    let value = read(obj, at, key, Json::as_u64)?;
    T::try_from(value).map_err(|_| format!("run_config.{at}{key} = {value} is out of range"))
}

/// Rebuilds a [`SystemConfig`] from a parsed `run_config` record.
pub fn config_from_record(record: &Json) -> Result<SystemConfig, String> {
    if record.get("type").and_then(Json::as_str) != Some("run_config") {
        return Err("not a run_config record".to_string());
    }
    if record.get("replayable").and_then(Json::as_bool) != Some(true) {
        return Err(
            "run not replayable: its workload was assembled outside the builder".to_string(),
        );
    }
    let num = |key| read(record, "", key, Json::as_f64);
    let text = |key| read(record, "", key, Json::as_str);

    let controller = {
        let c = read(record, "", "controller", Some)?;
        match read(c, "controller.", "kind", Json::as_str)? {
            "hyperplane" => ControllerKind::Hyperplane {
                objective: match read(c, "controller.", "objective", Json::as_str)? {
                    "min_nogoal_rt" => Objective::MinNoGoalRt,
                    "min_total_dedicated" => Objective::MinTotalDedicated,
                    "balance_nodes" => Objective::BalanceNodes,
                    other => return Err(format!("unknown LP objective {other:?}")),
                },
            },
            "fragment_fencing" => ControllerKind::FragmentFencing,
            "class_fencing" => ControllerKind::ClassFencing,
            "static" => ControllerKind::Static {
                fraction: read(c, "controller.", "fraction", Json::as_f64)?,
            },
            "none" => ControllerKind::None,
            other => return Err(format!("unknown controller kind {other:?}")),
        }
    };
    let placement = {
        let p = read(record, "", "placement", Some)?;
        match read(p, "placement.", "kind", Json::as_str)? {
            "round_robin" => PlacementSpec::RoundRobin,
            "hash" => PlacementSpec::Hash,
            "hot_ring" => PlacementSpec::HotRing(HotRingSpec {
                vnodes: int(p, "placement.", "vnodes")?,
                max_replicas: int(p, "placement.", "max_replicas")?,
                seed: int(p, "placement.", "ring_seed")?,
            }),
            other => return Err(format!("unknown placement kind {other:?}")),
        }
    };
    let fabric = {
        let f = read(record, "", "fabric", Some)?;
        match read(f, "fabric.", "kind", Json::as_str)? {
            "shared_medium" => FabricSpec::SharedMedium,
            "switched" => FabricSpec::Switched {
                bisection_bits_per_sec: f.get("bisection_bits_per_sec").and_then(Json::as_u64),
            },
            other => return Err(format!("unknown fabric kind {other:?}")),
        }
    };
    let probe = {
        let p = read(record, "", "probe", Some)?;
        match read(p, "probe.", "kind", Json::as_str)? {
            "sequential" => ProbeSpec::Sequential,
            "batched" => ProbeSpec::Batched {
                batch: int(p, "probe.", "batch")?,
            },
            other => return Err(format!("unknown probe kind {other:?}")),
        }
    };
    let tiers: Vec<TierSpec> = read(record, "", "tiers", Json::as_arr)?
        .iter()
        .map(|t| -> Result<TierSpec, String> {
            Ok(TierSpec {
                name: read(t, "tiers.", "name", Json::as_str)?.to_string(),
                hit_ms: read(t, "tiers.", "hit_ms", Json::as_f64)?,
                frames: t
                    .get("frames")
                    .and_then(Json::as_u64)
                    .map(|_| int(t, "tiers.", "frames"))
                    .transpose()?,
                bandwidth_bytes_per_sec: t.get("bandwidth_bytes_per_sec").and_then(Json::as_u64),
            })
        })
        .collect::<Result<_, _>>()?;
    let fault_plan = match record.get("fault_plan") {
        None | Some(Json::Null) => None,
        Some(p) => {
            let mut plan = FaultPlan::new(int(p, "fault_plan.", "seed")?);
            plan.drop_probability = read(p, "fault_plan.", "drop_probability", Json::as_f64)?;
            plan.retransmit = SimDuration::from_nanos(int(p, "fault_plan.", "retransmit_ns")?);
            let instant = |obj, path, key| -> Result<SimTime, String> {
                Ok(SimTime::ZERO + SimDuration::from_nanos(int(obj, path, key)?))
            };
            for e in p.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
                let path = "fault_plan.events.";
                let node = NodeId(int(e, path, "node")?);
                let kind = match read(e, path, "kind", Json::as_str)? {
                    "crash" => FaultKind::Crash(node),
                    "restart" => FaultKind::Restart(node),
                    other => return Err(format!("unknown fault kind {other:?}")),
                };
                let at = instant(e, path, "at_ns")?;
                plan.events.push(ScheduledFault { at, kind });
            }
            for s in p.get("stalls").and_then(Json::as_arr).unwrap_or(&[]) {
                let path = "fault_plan.stalls.";
                plan.stalls.push(DiskStall {
                    node: NodeId(int(s, path, "node")?),
                    from: instant(s, path, "from_ns")?,
                    until: instant(s, path, "until_ns")?,
                    factor: read(s, path, "factor", Json::as_f64)?,
                });
            }
            Some(plan)
        }
    };

    let mut builder = SystemConfig::builder()
        .seed(int(record, "", "seed")?)
        .theta(num("theta")?)
        .goal_ms(num("goal_ms")?)
        .nodes(int(record, "", "nodes")?)
        .db_pages(int(record, "", "db_pages")?)
        .buffer_pages_per_node(int(record, "", "buffer_pages_per_node")?)
        .goal_rate_per_ms(num("goal_rate_per_ms")?)
        .warmup_intervals(int(record, "", "warmup_intervals")?)
        .controller(controller)
        .satisfaction(match text("satisfaction")? {
            "two_sided" => SatisfactionMode::TwoSided,
            "upper_bound" => SatisfactionMode::UpperBound,
            other => return Err(format!("unknown satisfaction mode {other:?}")),
        })
        .release_floor_mb(num("release_floor_mb")?)
        .placement(placement)
        .fabric(fabric)
        .net_bits_per_sec(int(record, "", "net_bits_per_sec")?)
        .probe(probe)
        .tiers(tiers)
        .tier_policy(match text("tier_policy")? {
            "hotness" => TierPolicy::Hotness,
            "static_hash" => TierPolicy::StaticHash,
            other => return Err(format!("unknown tier policy {other:?}")),
        });
    if let Some(q) = record.get("goal_quantile").and_then(Json::as_f64) {
        builder = builder.goal_quantile(q);
    }
    if let Some(range) = record
        .get("goal_range")
        .filter(|r| !matches!(r, Json::Null))
    {
        builder = builder.goal_range(GoalRange::new(
            read(range, "goal_range.", "min_ms", Json::as_f64)?,
            read(range, "goal_range.", "max_ms", Json::as_f64)?,
        ));
    }
    if let Some(plan) = fault_plan {
        builder = builder.fault_plan(plan);
    }
    let mut config = builder.build().map_err(|e| e.to_string())?;
    // The builder always starts from the §7.1 interval; restore the
    // recorded one exactly.
    config.interval = SimDuration::from_nanos(int(record, "", "interval_ns")?);
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
    use crate::system::SystemConfigBuilder;
    use dmm_buffer::ClassId;

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
    /// objective, and the upper-bound / quantile goal variants.
    fn closure_variants() -> Vec<(&'static str, SystemConfigBuilder)> {
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
        rows
    }

    #[test]
    fn run_config_round_trips_through_the_builder() {
        for (row, builder) in closure_variants() {
            let config = builder.build().expect("valid config");
            let record = run_config_record(&config);
            let text = record.to_string();
            assert_eq!(
                record.get("replayable").and_then(Json::as_bool),
                Some(true),
                "{row}: {text}"
            );
            let rebuilt = config_from_record(&record).expect("round trip");
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

    #[test]
    fn replay_reproduces_a_recorded_run_byte_for_byte() {
        let config = SystemConfig::builder()
            .seed(7)
            .theta(0.5)
            .goal_ms(8.0)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .warmup_intervals(2)
            .goal_range(GoalRange::new(4.0, 40.0))
            .build()
            .expect("valid config");
        let doc = traced(config, 8);
        let report = verify_jsonl(&doc, 4).expect("replayable");
        assert_eq!(report.intervals, 8);
        assert!(
            report.identical(),
            "replay diverged: {:?}",
            report.divergences.first()
        );
    }

    #[test]
    fn hand_assembled_workloads_are_flagged_non_replayable() {
        let mut config = SystemConfig::builder()
            .seed(7)
            .goal_ms(8.0)
            .build()
            .expect("valid config");
        config.workload.classes[1].arrival_per_ms[0] *= 2.0; // post-hoc edit
        let record = run_config_record(&config);
        assert_eq!(
            record.get("replayable").and_then(Json::as_bool),
            Some(false)
        );
        let err = config_from_record(&record).expect_err("must refuse");
        assert!(err.contains("not replayable"), "{err}");
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

    #[test]
    fn goal_quantile_survives_the_closure() {
        let config = SystemConfig::builder()
            .seed(7)
            .goal_ms(15.0)
            .goal_quantile(0.95)
            .build()
            .expect("valid config");
        let record = run_config_record(&config);
        assert_eq!(
            record.get("goal_quantile").and_then(Json::as_f64),
            Some(0.95)
        );
        let rebuilt = config_from_record(&record).expect("round trip");
        assert!(rebuilt.workload.classes[1].goal_metric.is_quantile());
        let _ = ClassId(1);
    }
}
