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
//! goal metric and schedule, controller, satisfaction/repricing/placement
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
use dmm_cluster::{FaultKind, HotRingSpec, RepricingMode, TierSpec};
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
        .field(
            "repricing",
            match cluster.repricing {
                RepricingMode::Eager => "eager",
                RepricingMode::Lazy => "lazy",
            },
        )
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
    let uint = |key: &str| -> Result<u64, String> {
        record
            .get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("run_config.{key} missing or not an unsigned integer"))
    };
    let num = |key: &str| -> Result<f64, String> {
        record
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("run_config.{key} missing or not a number"))
    };
    let text = |key: &str| -> Result<&str, String> {
        record
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("run_config.{key} missing or not a string"))
    };

    let controller = {
        let c = record
            .get("controller")
            .ok_or("run_config.controller missing")?;
        let kind = c
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("run_config.controller.kind missing")?;
        match kind {
            "hyperplane" => {
                let objective = match c.get("objective").and_then(Json::as_str) {
                    Some("min_nogoal_rt") => Objective::MinNoGoalRt,
                    Some("min_total_dedicated") => Objective::MinTotalDedicated,
                    Some("balance_nodes") => Objective::BalanceNodes,
                    other => return Err(format!("unknown LP objective {other:?}")),
                };
                ControllerKind::Hyperplane { objective }
            }
            "fragment_fencing" => ControllerKind::FragmentFencing,
            "class_fencing" => ControllerKind::ClassFencing,
            "static" => ControllerKind::Static {
                fraction: c
                    .get("fraction")
                    .and_then(Json::as_f64)
                    .ok_or("static controller without a fraction")?,
            },
            "none" => ControllerKind::None,
            other => return Err(format!("unknown controller kind {other:?}")),
        }
    };
    let placement = {
        let p = record
            .get("placement")
            .ok_or("run_config.placement missing")?;
        match p.get("kind").and_then(Json::as_str) {
            Some("round_robin") => PlacementSpec::RoundRobin,
            Some("hash") => PlacementSpec::Hash,
            Some("hot_ring") => PlacementSpec::HotRing(HotRingSpec {
                vnodes: p
                    .get("vnodes")
                    .and_then(Json::as_u64)
                    .ok_or("hot_ring placement without vnodes")? as u16,
                max_replicas: p
                    .get("max_replicas")
                    .and_then(Json::as_u64)
                    .ok_or("hot_ring placement without max_replicas")?
                    as u8,
                seed: p
                    .get("ring_seed")
                    .and_then(Json::as_u64)
                    .ok_or("hot_ring placement without ring_seed")?,
            }),
            other => return Err(format!("unknown placement kind {other:?}")),
        }
    };
    let fabric = {
        let f = record.get("fabric").ok_or("run_config.fabric missing")?;
        match f.get("kind").and_then(Json::as_str) {
            Some("shared_medium") => FabricSpec::SharedMedium,
            Some("switched") => FabricSpec::Switched {
                bisection_bits_per_sec: f.get("bisection_bits_per_sec").and_then(Json::as_u64),
            },
            other => return Err(format!("unknown fabric kind {other:?}")),
        }
    };
    let probe = {
        let p = record.get("probe").ok_or("run_config.probe missing")?;
        match p.get("kind").and_then(Json::as_str) {
            Some("sequential") => ProbeSpec::Sequential,
            Some("batched") => ProbeSpec::Batched {
                batch: p
                    .get("batch")
                    .and_then(Json::as_u64)
                    .ok_or("batched probe without a batch size")? as usize,
            },
            other => return Err(format!("unknown probe kind {other:?}")),
        }
    };
    let tiers: Vec<TierSpec> = record
        .get("tiers")
        .and_then(Json::as_arr)
        .ok_or("run_config.tiers missing")?
        .iter()
        .map(|t| -> Result<TierSpec, String> {
            Ok(TierSpec {
                name: t
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("tier without a name")?
                    .to_string(),
                hit_ms: t
                    .get("hit_ms")
                    .and_then(Json::as_f64)
                    .ok_or("tier without hit_ms")?,
                frames: t.get("frames").and_then(Json::as_u64).map(|f| f as usize),
                bandwidth_bytes_per_sec: t.get("bandwidth_bytes_per_sec").and_then(Json::as_u64),
            })
        })
        .collect::<Result<_, _>>()?;
    let fault_plan = match record.get("fault_plan") {
        None | Some(Json::Null) => None,
        Some(p) => {
            let mut plan = FaultPlan::new(
                p.get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("fault_plan without a seed")?,
            );
            plan.drop_probability = p
                .get("drop_probability")
                .and_then(Json::as_f64)
                .ok_or("fault_plan without drop_probability")?;
            plan.retransmit = SimDuration::from_nanos(
                p.get("retransmit_ns")
                    .and_then(Json::as_u64)
                    .ok_or("fault_plan without retransmit_ns")?,
            );
            for e in p.get("events").and_then(Json::as_arr).unwrap_or(&[]) {
                let node = NodeId(
                    e.get("node")
                        .and_then(Json::as_u64)
                        .ok_or("fault event without a node")? as u16,
                );
                let at = SimTime::ZERO
                    + SimDuration::from_nanos(
                        e.get("at_ns")
                            .and_then(Json::as_u64)
                            .ok_or("fault event without at_ns")?,
                    );
                let kind = match e.get("kind").and_then(Json::as_str) {
                    Some("crash") => FaultKind::Crash(node),
                    Some("restart") => FaultKind::Restart(node),
                    other => return Err(format!("unknown fault kind {other:?}")),
                };
                plan.events.push(ScheduledFault { at, kind });
            }
            for s in p.get("stalls").and_then(Json::as_arr).unwrap_or(&[]) {
                plan.stalls.push(DiskStall {
                    node: NodeId(
                        s.get("node")
                            .and_then(Json::as_u64)
                            .ok_or("disk stall without a node")? as u16,
                    ),
                    from: SimTime::ZERO
                        + SimDuration::from_nanos(
                            s.get("from_ns")
                                .and_then(Json::as_u64)
                                .ok_or("disk stall without from_ns")?,
                        ),
                    until: SimTime::ZERO
                        + SimDuration::from_nanos(
                            s.get("until_ns")
                                .and_then(Json::as_u64)
                                .ok_or("disk stall without until_ns")?,
                        ),
                    factor: s
                        .get("factor")
                        .and_then(Json::as_f64)
                        .ok_or("disk stall without a factor")?,
                });
            }
            Some(plan)
        }
    };

    let mut builder = SystemConfig::builder()
        .seed(uint("seed")?)
        .theta(num("theta")?)
        .goal_ms(num("goal_ms")?)
        .nodes(uint("nodes")? as usize)
        .db_pages(uint("db_pages")? as u32)
        .buffer_pages_per_node(uint("buffer_pages_per_node")? as usize)
        .goal_rate_per_ms(num("goal_rate_per_ms")?)
        .warmup_intervals(uint("warmup_intervals")? as u32)
        .controller(controller)
        .satisfaction(match text("satisfaction")? {
            "two_sided" => SatisfactionMode::TwoSided,
            "upper_bound" => SatisfactionMode::UpperBound,
            other => return Err(format!("unknown satisfaction mode {other:?}")),
        })
        .release_floor_mb(num("release_floor_mb")?)
        .repricing(match text("repricing")? {
            "eager" => RepricingMode::Eager,
            "lazy" => RepricingMode::Lazy,
            other => return Err(format!("unknown repricing mode {other:?}")),
        })
        .placement(placement)
        .fabric(fabric)
        .net_bits_per_sec(uint("net_bits_per_sec")?)
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
            range
                .get("min_ms")
                .and_then(Json::as_f64)
                .ok_or("goal_range without min_ms")?,
            range
                .get("max_ms")
                .and_then(Json::as_f64)
                .ok_or("goal_range without max_ms")?,
        ));
    }
    if let Some(plan) = fault_plan {
        builder = builder.fault_plan(plan);
    }
    let mut config = builder.build().map_err(|e| e.to_string())?;
    // The builder's interval setter is millisecond-granular; restore the
    // recorded interval exactly.
    config.interval = SimDuration::from_nanos(uint("interval_ns")?);
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
    use dmm_buffer::ClassId;

    fn traced(config: SystemConfig, intervals: u32) -> String {
        let sink = VecSink::new();
        let mut sim = Simulation::new(config);
        sim.set_trace_sink(Box::new(sink.handle()));
        sim.run_intervals(intervals);
        sink.to_jsonl()
    }

    #[test]
    fn run_config_round_trips_through_the_builder() {
        let plan = FaultPlan::new(3)
            .crash_ms(NodeId(1), 20_000)
            .restart_ms(NodeId(1), 60_000)
            .message_drop(0.01)
            .disk_stall_ms(NodeId(0), 30_000, 40_000, 2.5);
        let config = SystemConfig::builder()
            .seed(9)
            .theta(0.5)
            .goal_ms(8.0)
            .db_pages(400)
            .buffer_pages_per_node(96)
            .goal_rate_per_ms(0.008)
            .warmup_intervals(2)
            .goal_range(GoalRange::new(4.0, 40.0))
            .fault_plan(plan)
            .build()
            .expect("valid config");
        let record = run_config_record(&config);
        assert_eq!(record.get("replayable").and_then(Json::as_bool), Some(true));
        let rebuilt = config_from_record(&record).expect("round trip");
        // The rebuilt config serializes to the identical closure…
        assert_eq!(
            run_config_record(&rebuilt).to_string(),
            record.to_string(),
            "closure must be a fixed point of record→config→record"
        );
        // …and re-parses after a JSON round trip (float formatting is
        // shortest-roundtrip, so every f64 survives).
        let reparsed = Json::parse(&record.to_string()).expect("parses");
        config_from_record(&reparsed).expect("round trip through text");
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
