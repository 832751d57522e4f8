//! Human-readable analyses of one trace: stage waterfalls, convergence
//! timelines, and controller residual summaries.

use std::fmt::Write as _;

use crate::reader::{Record, Trace};
use crate::schema::SPAN_STAGE_FIELDS;

/// Width of the waterfall bars, in characters.
const BAR_WIDTH: usize = 28;

/// Full report: record census, waterfall, convergence, tail compliance,
/// residuals.
pub fn report(trace: &Trace) -> String {
    let mut out = census(trace);
    out.push('\n');
    out.push_str(&waterfall(trace));
    out.push('\n');
    out.push_str(&convergence(trace));
    let tail = tail_compliance(trace);
    if !tail.is_empty() {
        out.push('\n');
        out.push_str(&tail);
    }
    let load = home_load(trace);
    if !load.is_empty() {
        out.push('\n');
        out.push_str(&load);
    }
    let net = net_load(trace);
    if !net.is_empty() {
        out.push('\n');
        out.push_str(&net);
    }
    let tiers = tier_occupancy(trace);
    if !tiers.is_empty() {
        out.push('\n');
        out.push_str(&tiers);
    }
    out.push('\n');
    out.push_str(&residuals(trace));
    out
}

/// Count of records by type.
pub fn census(trace: &Trace) -> String {
    let mut out = String::from("== records ==\n");
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for r in &trace.records {
        match counts.iter_mut().find(|(k, _)| *k == r.kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((&r.kind, 1)),
        }
    }
    if counts.is_empty() {
        out.push_str("  (empty trace)\n");
    }
    for (kind, n) in counts {
        let _ = writeln!(out, "  {kind:<12} {n}");
    }
    out
}

/// Per-class stage waterfall from sampled `span` records: where does each
/// class's response time go? Stages are shown in lifecycle order with their
/// share of the class's total sampled time.
pub fn waterfall(trace: &Trace) -> String {
    let mut out = String::from("== span waterfall (sampled operations) ==\n");
    // class id -> (span count, per-stage ns sums)
    let mut per_class: Vec<(u64, u64, [u64; SPAN_STAGE_FIELDS.len()])> = Vec::new();
    for span in trace.of_kind("span") {
        let Some(class) = span.uint("class") else {
            continue;
        };
        let Some(stages) = span.json.get("stages") else {
            continue;
        };
        let entry = match per_class.iter_mut().find(|(c, ..)| *c == class) {
            Some(e) => e,
            None => {
                per_class.push((class, 0, [0; SPAN_STAGE_FIELDS.len()]));
                per_class.last_mut().expect("just pushed")
            }
        };
        entry.1 += 1;
        for (i, field) in SPAN_STAGE_FIELDS.iter().enumerate() {
            entry.2[i] += stages
                .get(field)
                .and_then(dmm_obs::Json::as_u64)
                .unwrap_or(0);
        }
    }
    per_class.sort_unstable_by_key(|(c, ..)| *c);
    if per_class.is_empty() {
        out.push_str("  (no span records — run with span sampling enabled)\n");
        return out;
    }
    for (class, count, sums) in per_class {
        let total: u64 = sums.iter().sum();
        let mean_ms = total as f64 / count as f64 / 1e6;
        let _ = writeln!(
            out,
            "class {class}: {count} spans, mean sampled response {mean_ms:.3} ms"
        );
        for (i, field) in SPAN_STAGE_FIELDS.iter().enumerate() {
            let share = if total > 0 {
                sums[i] as f64 / total as f64
            } else {
                0.0
            };
            let filled = (share * BAR_WIDTH as f64).round() as usize;
            let bar: String = std::iter::repeat_n('#', filled)
                .chain(std::iter::repeat_n('.', BAR_WIDTH - filled.min(BAR_WIDTH)))
                .collect();
            let stage = field.trim_end_matches("_ns");
            let stage_ms = sums[i] as f64 / count as f64 / 1e6;
            let _ = writeln!(
                out,
                "  {stage:<13} {bar} {:>5.1}%  {stage_ms:>8.3} ms/op",
                share * 100.0
            );
        }
    }
    out
}

/// Per-class convergence timeline from `interval` records: goal attainment,
/// time-to-convergence, and the optimization paths taken.
pub fn convergence(trace: &Trace) -> String {
    let mut out = String::from("== convergence ==\n");
    let classes = trace.goal_classes();
    if classes.is_empty() {
        out.push_str("  (no interval records)\n");
        return out;
    }
    for class in classes {
        let intervals: Vec<&Record> = trace
            .of_kind("interval")
            .filter(|r| r.uint("class") == Some(class))
            .collect();
        let measuring: Vec<&Record> = intervals
            .iter()
            .copied()
            .filter(|r| r.num("observed_ms").is_some() && r.flag("settling") == Some(false))
            .collect();
        let satisfied = measuring
            .iter()
            .filter(|r| r.flag("satisfied") == Some(true))
            .count();
        // First measured interval from which satisfaction holds to the end:
        // the paper's "converged after" reading of Fig. 2.
        let converged_at = measuring
            .iter()
            .enumerate()
            .rev()
            .take_while(|(_, r)| r.flag("satisfied") == Some(true))
            .map(|(i, _)| i)
            .last()
            .filter(|_| {
                measuring
                    .last()
                    .is_some_and(|r| r.flag("satisfied") == Some(true))
            })
            .and_then(|i| measuring[i].uint("interval"));
        let mean_abs_err = {
            let errs: Vec<f64> = measuring
                .iter()
                .filter_map(|r| Some((r.num("observed_ms")? - r.num("goal_ms")?).abs()))
                .collect();
            mean(&errs)
        };
        let _ = writeln!(
            out,
            "class {class}: {} intervals ({} measured), satisfied {}/{}",
            intervals.len(),
            measuring.len(),
            satisfied,
            measuring.len()
        );
        match converged_at {
            Some(at) => {
                let _ = writeln!(out, "  converged: satisfied from interval {at} to the end");
            }
            None => out.push_str("  converged: no (last measured interval unsatisfied)\n"),
        }
        if let Some(err) = mean_abs_err {
            let _ = writeln!(out, "  mean |observed - goal| while measuring: {err:.3} ms");
        }
        let mut paths: Vec<(&str, usize)> = Vec::new();
        for opt in trace
            .of_kind("optimize")
            .filter(|r| r.uint("class") == Some(class))
        {
            let path = opt.text("path").unwrap_or("?");
            match paths.iter_mut().find(|(p, _)| *p == path) {
                Some((_, n)) => *n += 1,
                None => paths.push((path, 1)),
            }
        }
        if !paths.is_empty() {
            out.push_str("  optimizations:");
            for (path, n) in paths {
                let _ = write!(out, " {path}:{n}");
            }
            out.push('\n');
        }
        let goal_changes = trace
            .of_kind("goal_change")
            .filter(|r| r.uint("class") == Some(class))
            .count();
        if goal_changes > 0 {
            let _ = writeln!(out, "  goal changes: {goal_changes}");
        }
    }
    out
}

/// Tail compliance of quantile-goal classes: how the observed goal
/// quantile (`observed_p_ms` on `interval` records) tracked the goal.
/// Returns an empty string when no class ran with a quantile goal, so
/// mean-goal reports are unchanged.
pub fn tail_compliance(trace: &Trace) -> String {
    let mut out = String::new();
    for class in trace.goal_classes() {
        let rows: Vec<&Record> = trace
            .of_kind("interval")
            .filter(|r| r.uint("class") == Some(class))
            .filter(|r| r.text("goal_metric").is_some())
            .collect();
        if rows.is_empty() {
            continue;
        }
        if out.is_empty() {
            out.push_str("== tail compliance (quantile goals) ==\n");
        }
        let metric = rows
            .last()
            .and_then(|r| r.text("goal_metric"))
            .unwrap_or("p?");
        let measured: Vec<&Record> = rows
            .iter()
            .copied()
            .filter(|r| r.num("observed_p_ms").is_some() && r.flag("settling") == Some(false))
            .collect();
        let observed: Vec<f64> = measured
            .iter()
            .filter_map(|r| r.num("observed_p_ms"))
            .collect();
        let within_goal = measured
            .iter()
            .filter(|r| {
                matches!(
                    (r.num("observed_p_ms"), r.num("goal_ms")),
                    (Some(p), Some(g)) if p <= g
                )
            })
            .count();
        let satisfied = measured
            .iter()
            .filter(|r| r.flag("satisfied") == Some(true))
            .count();
        let _ = writeln!(
            out,
            "class {class} ({metric}): {} measured intervals, satisfied {satisfied}/{}",
            measured.len(),
            measured.len()
        );
        if let Some(m) = mean(&observed) {
            let max = observed.iter().cloned().fold(0.0, f64::max);
            let goal = measured
                .last()
                .and_then(|r| r.num("goal_ms"))
                .unwrap_or(f64::NAN);
            let _ = writeln!(
                out,
                "  {metric} observed: mean {m:.3} ms, max {max:.3} ms (goal {goal:.3} ms)"
            );
            let _ = writeln!(
                out,
                "  intervals with {metric} <= goal: {within_goal}/{} ({:.1}%)",
                measured.len(),
                100.0 * within_goal as f64 / measured.len().max(1) as f64
            );
        }
    }
    out
}

/// Per-node home-load distribution from the last `home_load` record (the
/// emitter's counters are cumulative, so the last record covers the whole
/// run): pages homed, home reads served, and remote fan-in per node, plus
/// the max/mean home-read imbalance — the placement-quality figure the
/// hot-ring scheme drives toward 1. Returns an empty string when the trace
/// carries no `home_load` records, so reports of older traces are
/// unchanged.
pub fn home_load(trace: &Trace) -> String {
    let Some(last) = trace.of_kind("home_load").last() else {
        return String::new();
    };
    let column = |key: &str| -> Vec<u64> {
        last.json
            .get(key)
            .and_then(dmm_obs::Json::as_arr)
            .map(|a| a.iter().filter_map(dmm_obs::Json::as_u64).collect())
            .unwrap_or_default()
    };
    let pages = column("home_pages");
    let reads = column("home_reads");
    let fanin = column("remote_fanin");
    let mut out = String::from("== home load (per node) ==\n");
    out.push_str("  node  home_pages  home_reads  remote_fanin\n");
    for n in 0..pages.len().max(reads.len()).max(fanin.len()) {
        let cell = |v: &[u64]| v.get(n).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {n:>4}  {:>10}  {:>10}  {:>12}",
            cell(&pages),
            cell(&reads),
            cell(&fanin)
        );
    }
    let total: u64 = reads.iter().sum();
    if !reads.is_empty() && total > 0 {
        let mean = total as f64 / reads.len() as f64;
        let max = reads.iter().copied().max().unwrap_or(0) as f64;
        let _ = writeln!(out, "  home-read imbalance (max/mean): {:.2}", max / mean);
    }
    out
}

/// Per-link network utilization of switched-fabric runs, from the last
/// `net_load` record (the busy fractions are cumulative, so the last record
/// covers the whole run): every node's TX and RX link utilization, the
/// hottest link, and the switch core's utilization when its bisection
/// capacity is finite. Returns an empty string when the trace carries no
/// `net_load` records (every shared-medium run), so those reports are
/// unchanged.
pub fn net_load(trace: &Trace) -> String {
    let Some(last) = trace.of_kind("net_load").last() else {
        return String::new();
    };
    let column = |key: &str| -> Vec<f64> {
        last.json
            .get(key)
            .and_then(dmm_obs::Json::as_arr)
            .map(|a| a.iter().filter_map(dmm_obs::Json::as_f64).collect())
            .unwrap_or_default()
    };
    let tx = column("tx_busy");
    let rx = column("rx_busy");
    let mut out = String::from("== network utilization (switched fabric, per link) ==\n");
    out.push_str("  node  tx_busy  rx_busy\n");
    for n in 0..tx.len().max(rx.len()) {
        let cell = |v: &[f64]| v.get(n).copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  {n:>4}  {:>6.1}%  {:>6.1}%",
            100.0 * cell(&tx),
            100.0 * cell(&rx)
        );
    }
    let hottest = tx.iter().chain(&rx).cloned().fold(0.0, f64::max);
    let _ = writeln!(out, "  hottest link: {:.1}% busy", 100.0 * hottest);
    if let Some(b) = last.num("bisection_busy") {
        let _ = writeln!(out, "  switch core (bisection): {:.1}% busy", 100.0 * b);
    }
    out
}

/// Memory-tier occupancy of runs with an extended storage ladder, from the
/// `tier_occupancy` extension field on `interval` records: per tier, the
/// mean and final cluster-wide residency against the configured frame
/// count. Returns an empty string when the trace carries no tier fields
/// (any default-ladder run), so those reports are unchanged.
pub fn tier_occupancy(trace: &Trace) -> String {
    // tier name -> (samples, resident sum, last resident, frames)
    let mut tiers: Vec<(String, u64, u64, u64, u64)> = Vec::new();
    for record in trace.of_kind("interval") {
        let Some(occ) = record
            .json
            .get("tier_occupancy")
            .and_then(dmm_obs::Json::as_obj)
        else {
            continue;
        };
        for (name, value) in occ {
            let resident = value.get("resident").and_then(dmm_obs::Json::as_u64);
            let frames = value.get("frames").and_then(dmm_obs::Json::as_u64);
            let (Some(resident), Some(frames)) = (resident, frames) else {
                continue;
            };
            let entry = match tiers.iter_mut().find(|(n, ..)| n == name) {
                Some(e) => e,
                None => {
                    tiers.push((name.clone(), 0, 0, 0, 0));
                    tiers.last_mut().expect("just pushed")
                }
            };
            entry.1 += 1;
            entry.2 += resident;
            entry.3 = resident;
            entry.4 = frames;
        }
    }
    if tiers.is_empty() {
        return String::new();
    }
    let mut out = String::from("== tier occupancy (extended ladder) ==\n");
    out.push_str("  tier          frames  mean_resident  last_resident    fill\n");
    for (name, samples, sum, last, frames) in tiers {
        let mean = sum as f64 / samples.max(1) as f64;
        let fill = if frames > 0 {
            100.0 * last as f64 / frames as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {name:<12} {frames:>7}  {mean:>13.1}  {last:>13}  {fill:>5.1}%"
        );
    }
    out
}

/// Controller explainability: realized prediction residuals (`interval`
/// records) and in-sample hyperplane fit residuals (`optimize` records).
pub fn residuals(trace: &Trace) -> String {
    let mut out = String::from("== controller residuals ==\n");
    let classes = trace.goal_classes();
    if classes.is_empty() {
        out.push_str("  (no interval records)\n");
        return out;
    }
    for class in classes {
        let realized: Vec<f64> = trace
            .of_kind("interval")
            .filter(|r| r.uint("class") == Some(class))
            .filter_map(|r| r.num("residual_ms"))
            .collect();
        let fit_rms: Vec<f64> = trace
            .of_kind("optimize")
            .filter(|r| r.uint("class") == Some(class))
            .filter_map(|r| r.num("fit_rms_ms"))
            .collect();
        let _ = writeln!(out, "class {class}:");
        if realized.is_empty() {
            out.push_str("  realized prediction residuals: none (no LP follow-up)\n");
        } else {
            let abs: Vec<f64> = realized.iter().map(|r| r.abs()).collect();
            let _ = writeln!(
                out,
                "  realized prediction residuals: n={} mean={:+.3} ms mean|.|={:.3} ms max|.|={:.3} ms",
                realized.len(),
                mean(&realized).unwrap_or(0.0),
                mean(&abs).unwrap_or(0.0),
                abs.iter().cloned().fold(0.0, f64::max)
            );
        }
        if fit_rms.is_empty() {
            out.push_str("  fit residuals: none (LP never fitted)\n");
        } else {
            let _ = writeln!(
                out,
                "  fit RMS over measure points: n={} mean={:.3} ms last={:.3} ms",
                fit_rms.len(),
                mean(&fit_rms).unwrap_or(0.0),
                fit_rms.last().copied().unwrap_or(0.0)
            );
        }
    }
    out
}

/// Scheduler and sink counters from a [`dmm_obs::MetricsSnapshot`]
/// (exported by `Simulation::metrics_snapshot`, serialized with
/// `MetricsSnapshot::to_json`): event-wheel work (`sim.sched.*`) and
/// trace-sink health (`obs.sink.*`). These counters never ride in the trace
/// itself — they describe the substrate, not the model — so the report takes the snapshot as a sidecar
/// (`dmm-trace report --metrics <file>`).
pub fn executor(snapshot: &dmm_obs::MetricsSnapshot) -> String {
    let mut out = String::from("== executor (metrics sidecar) ==\n");
    let mut rows: Vec<(&str, u64)> = Vec::new();
    for (name, value) in snapshot.counters() {
        if name.starts_with("sim.sched.") || name.starts_with("obs.sink.") || name == "sim.events" {
            rows.push((name, *value));
        }
    }
    if rows.is_empty() {
        out.push_str("  (no scheduler/executor counters in this snapshot)\n");
        return out;
    }
    for (name, value) in &rows {
        let _ = writeln!(out, "  {name:<28} {value}");
    }
    let lookup = |key: &str| rows.iter().find(|(n, _)| *n == key).map(|(_, v)| *v);
    if let Some(errors) = lookup("obs.sink.errors") {
        let _ = writeln!(
            out,
            "  WARNING: trace sink reported {errors} write error(s)"
        );
    }
    if let Some(dropped) = lookup("obs.sink.dropped_records") {
        let _ = writeln!(
            out,
            "  WARNING: trace sink dropped {dropped} record(s) (ring full)"
        );
    }
    out
}

/// Escapes one CSV cell: quotes only when the value needs it.
fn csv_cell(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Machine-readable CSV export of one report section. Supported sections:
/// `compliance` (one row per goal-class check from `interval` records) and
/// `waterfall` (one row per class and lifecycle stage from `span`
/// records). Columns are stable: scripts may index them by header name.
pub fn csv_section(trace: &Trace, section: &str) -> Result<String, String> {
    match section {
        "compliance" => Ok(csv_compliance(trace)),
        "waterfall" => Ok(csv_waterfall(trace)),
        other => Err(format!(
            "unknown CSV section {other:?} (expected `compliance` or `waterfall`)"
        )),
    }
}

fn csv_compliance(trace: &Trace) -> String {
    let mut out = String::from(
        "class,interval,t_ms,phase,observed_ms,goal_ms,tolerance_ms,satisfied,settling,residual_ms,observed_p_ms,goal_metric\n",
    );
    let opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
    for r in trace.of_kind("interval") {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            r.uint("class").unwrap_or(0),
            r.uint("interval").unwrap_or(0),
            opt(r.num("t_ms")),
            csv_cell(r.text("phase").unwrap_or("")),
            opt(r.num("observed_ms")),
            opt(r.num("goal_ms")),
            opt(r.num("tolerance_ms")),
            r.flag("satisfied")
                .map(|b| b.to_string())
                .unwrap_or_default(),
            r.flag("settling")
                .map(|b| b.to_string())
                .unwrap_or_default(),
            opt(r.num("residual_ms")),
            opt(r.num("observed_p_ms")),
            csv_cell(r.text("goal_metric").unwrap_or("mean")),
        );
    }
    out
}

fn csv_waterfall(trace: &Trace) -> String {
    let mut out = String::from("class,stage,spans,total_ns,share,ms_per_op\n");
    let mut per_class: Vec<(u64, u64, [u64; SPAN_STAGE_FIELDS.len()])> = Vec::new();
    for span in trace.of_kind("span") {
        let Some(class) = span.uint("class") else {
            continue;
        };
        let Some(stages) = span.json.get("stages") else {
            continue;
        };
        let entry = match per_class.iter_mut().find(|(c, ..)| *c == class) {
            Some(e) => e,
            None => {
                per_class.push((class, 0, [0; SPAN_STAGE_FIELDS.len()]));
                per_class.last_mut().expect("just pushed")
            }
        };
        entry.1 += 1;
        for (i, field) in SPAN_STAGE_FIELDS.iter().enumerate() {
            entry.2[i] += stages
                .get(field)
                .and_then(dmm_obs::Json::as_u64)
                .unwrap_or(0);
        }
    }
    per_class.sort_unstable_by_key(|(c, ..)| *c);
    for (class, count, sums) in per_class {
        let total: u64 = sums.iter().sum();
        for (i, field) in SPAN_STAGE_FIELDS.iter().enumerate() {
            let share = if total > 0 {
                sums[i] as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                class,
                field.trim_end_matches("_ns"),
                count,
                sums[i],
                share,
                sums[i] as f64 / count.max(1) as f64 / 1e6
            );
        }
    }
    out
}

fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_str;

    fn sample_trace() -> Trace {
        let text = "\
{\"type\":\"interval\",\"interval\":1,\"class\":1,\"observed_ms\":9.0,\"goal_ms\":8.0,\"satisfied\":false,\"settling\":false,\"phase\":\"optimized\",\"residual_ms\":null}\n\
{\"type\":\"optimize\",\"interval\":1,\"class\":1,\"path\":\"lp\",\"fit_rms_ms\":0.25}\n\
{\"type\":\"interval\",\"interval\":2,\"class\":1,\"observed_ms\":8.1,\"goal_ms\":8.0,\"satisfied\":true,\"settling\":false,\"phase\":\"satisfied\",\"residual_ms\":0.4}\n\
{\"type\":\"span\",\"t_ms\":10.0,\"op\":16,\"class\":1,\"origin\":0,\"response_ms\":2.0,\"stages\":{\"local_hit_ns\":500000,\"pool_queue_ns\":0,\"net_request_ns\":0,\"net_transfer_ns\":0,\"remote_hit_ns\":0,\"disk_queue_ns\":0,\"disk_service_ns\":1400000,\"cpu_ns\":100000}}\n";
        read_str(text).expect("valid")
    }

    #[test]
    fn waterfall_reports_stage_shares() {
        let text = waterfall(&sample_trace());
        assert!(text.contains("class 1: 1 spans"), "{text}");
        assert!(text.contains("disk_service"), "{text}");
        assert!(text.contains("70.0%"), "{text}");
    }

    #[test]
    fn convergence_and_residuals_summarize() {
        let trace = sample_trace();
        let conv = convergence(&trace);
        assert!(conv.contains("satisfied 1/2"), "{conv}");
        assert!(conv.contains("lp:1"), "{conv}");
        assert!(conv.contains("satisfied from interval 2"), "{conv}");
        let res = residuals(&trace);
        assert!(res.contains("n=1 mean=+0.400"), "{res}");
        assert!(res.contains("fit RMS"), "{res}");
        // The combined report stitches all sections.
        let all = report(&trace);
        assert!(
            all.contains("== records ==") && all.contains("span         1"),
            "{all}"
        );
        // No quantile goals in this trace: the tail section is absent.
        assert!(!all.contains("tail compliance"), "{all}");
    }

    #[test]
    fn home_load_summarizes_last_record() {
        let text = "\
{\"type\":\"home_load\",\"interval\":0,\"t_ms\":5000.0,\"home_pages\":[200,100,100],\"home_reads\":[10,10,10],\"remote_fanin\":[5,5,5]}\n\
{\"type\":\"home_load\",\"interval\":1,\"t_ms\":10000.0,\"home_pages\":[134,133,133],\"home_reads\":[60,30,30],\"remote_fanin\":[40,20,20]}\n";
        let trace = read_str(text).expect("valid");
        let load = home_load(&trace);
        // Only the last (cumulative) record is summarized.
        assert!(load.contains("134"), "{load}");
        assert!(!load.contains("200"), "{load}");
        // max/mean = 60 / 40 = 1.5.
        assert!(
            load.contains("home-read imbalance (max/mean): 1.50"),
            "{load}"
        );
        assert!(
            report(&trace).contains("== home load"),
            "{}",
            report(&trace)
        );
        // Traces without home_load records keep their old report layout.
        assert!(home_load(&sample_trace()).is_empty());
        assert!(!report(&sample_trace()).contains("home load"));
    }

    #[test]
    fn net_load_summarizes_last_record() {
        let text = "\
{\"type\":\"net_load\",\"interval\":0,\"t_ms\":5000.0,\"tx_busy\":[0.10,0.20],\"rx_busy\":[0.15,0.05],\"bisection_busy\":null}\n\
{\"type\":\"net_load\",\"interval\":1,\"t_ms\":10000.0,\"tx_busy\":[0.40,0.20],\"rx_busy\":[0.30,0.10],\"bisection_busy\":0.25}\n";
        let trace = read_str(text).expect("valid");
        let net = net_load(&trace);
        // Only the last (cumulative) record is summarized.
        assert!(net.contains("40.0%"), "{net}");
        assert!(!net.contains("15.0%"), "{net}");
        assert!(net.contains("hottest link: 40.0% busy"), "{net}");
        assert!(net.contains("switch core (bisection): 25.0% busy"), "{net}");
        assert!(report(&trace).contains("== network utilization"));
        // Shared-medium traces carry no net_load records: section absent.
        assert!(net_load(&sample_trace()).is_empty());
        assert!(!report(&sample_trace()).contains("network utilization"));
    }

    #[test]
    fn net_load_with_ideal_core_omits_the_bisection_line() {
        let text = "{\"type\":\"net_load\",\"interval\":0,\"t_ms\":5000.0,\"tx_busy\":[0.5],\"rx_busy\":[0.5],\"bisection_busy\":null}\n";
        let trace = read_str(text).expect("valid");
        let net = net_load(&trace);
        assert!(!net.contains("switch core"), "{net}");
    }

    #[test]
    fn tier_occupancy_summarizes_extended_ladders() {
        let text = "\
{\"type\":\"interval\",\"interval\":1,\"class\":1,\"observed_ms\":6.0,\"goal_ms\":8.0,\"satisfied\":true,\"settling\":false,\"tier_occupancy\":{\"dram\":{\"resident\":20,\"frames\":24},\"cxl\":{\"resident\":10,\"frames\":72}}}\n\
{\"type\":\"interval\",\"interval\":2,\"class\":1,\"observed_ms\":6.0,\"goal_ms\":8.0,\"satisfied\":true,\"settling\":false,\"tier_occupancy\":{\"dram\":{\"resident\":24,\"frames\":24},\"cxl\":{\"resident\":40,\"frames\":72}}}\n";
        let trace = read_str(text).expect("valid");
        let tiers = tier_occupancy(&trace);
        assert!(tiers.contains("dram"), "{tiers}");
        // dram: mean (20+24)/2 = 22, last 24/24 = 100%.
        assert!(tiers.contains("22.0"), "{tiers}");
        assert!(tiers.contains("100.0%"), "{tiers}");
        assert!(
            report(&trace).contains("== tier occupancy"),
            "{}",
            report(&trace)
        );
        // Default-ladder traces carry no tier fields: section absent.
        assert!(tier_occupancy(&sample_trace()).is_empty());
        assert!(!report(&sample_trace()).contains("tier occupancy"));
    }

    #[test]
    fn executor_section_summarizes_scheduler_and_sink_counters() {
        let mut snap = dmm_obs::MetricsSnapshot::new();
        snap.counter("sim.events", 1000);
        snap.counter("sim.sched.pushes", 900);
        snap.counter("obs.sink.dropped_records", 3);
        snap.counter("net.bytes", 5_000_000); // unrelated: filtered out
        let text = executor(&snap);
        assert!(text.contains("sim.sched.pushes"), "{text}");
        assert!(text.contains("dropped 3 record(s)"), "{text}");
        assert!(!text.contains("net.bytes"), "{text}");

        let empty = executor(&dmm_obs::MetricsSnapshot::new());
        assert!(empty.contains("no scheduler/executor counters"), "{empty}");
    }

    #[test]
    fn csv_sections_export_compliance_and_waterfall() {
        let trace = sample_trace();
        let compliance = csv_section(&trace, "compliance").expect("known section");
        let mut lines = compliance.lines();
        assert_eq!(
            lines.next().unwrap(),
            "class,interval,t_ms,phase,observed_ms,goal_ms,tolerance_ms,satisfied,settling,residual_ms,observed_p_ms,goal_metric"
        );
        assert_eq!(
            lines.next().unwrap(),
            "1,1,,optimized,9,8,,false,false,,,mean"
        );
        assert_eq!(compliance.lines().count(), 3, "{compliance}");

        let waterfall = csv_section(&trace, "waterfall").expect("known section");
        assert!(waterfall.starts_with("class,stage,spans,total_ns,share,ms_per_op\n"));
        assert!(
            waterfall.contains("1,disk_service,1,1400000,0.7,1.4"),
            "{waterfall}"
        );

        assert!(csv_section(&trace, "nonsense")
            .expect_err("unknown section")
            .contains("unknown CSV section"));
    }

    #[test]
    fn tail_compliance_summarizes_quantile_goals() {
        let text = "\
{\"type\":\"interval\",\"interval\":1,\"class\":1,\"observed_ms\":6.0,\"goal_ms\":8.0,\"satisfied\":false,\"settling\":false,\"observed_p_ms\":9.5,\"goal_metric\":\"p95\"}\n\
{\"type\":\"interval\",\"interval\":2,\"class\":1,\"observed_ms\":5.0,\"goal_ms\":8.0,\"satisfied\":true,\"settling\":false,\"observed_p_ms\":7.5,\"goal_metric\":\"p95\"}\n";
        let trace = read_str(text).expect("valid");
        let tail = tail_compliance(&trace);
        assert!(
            tail.contains("class 1 (p95): 2 measured intervals"),
            "{tail}"
        );
        assert!(tail.contains("satisfied 1/2"), "{tail}");
        assert!(tail.contains("p95 <= goal: 1/2 (50.0%)"), "{tail}");
        assert!(
            report(&trace).contains("== tail compliance"),
            "{}",
            report(&trace)
        );
    }
}
