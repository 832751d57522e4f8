//! The metric dictionary — every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound — and the code
//! that prints a run's values against it. `BENCHMARK.json` declares the
//! same names; a unit test keeps the two in step.

use dmm::obs::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a metric's value is made of — which decides how far to trust a
/// difference between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock time (noise-folded, but still subject to the host).
    Host,
    /// A simulated statistic: repeats exactly for a seed.
    Sim,
    /// A count made by the program: repeats exactly for a seed.
    Count,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host-time",
            Kind::Sim => "simulated",
            Kind::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    bound: f64,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        kind,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Decl {
    Decl {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Host, Sim};

/// What a user of the system sees, per workload. Measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("sim_ops_per_s", "1/s", Higher, Host, 0.25),
    e2e("peak_rss_mb", "MB", Lower, Host, 0.25),
    e2e("allocs_per_op", "1", Lower, Count, 0.12),
    e2e("goal_met_frac", "1", Higher, Sim, 0.20),
    e2e("converge_intervals", "intervals", Lower, Sim, 0.25),
    e2e("nogoal_rt_ms", "ms", Lower, Sim, 0.25),
];

/// One layer each; from the traced run. No bounds.
pub const PER_LAYER: &[Decl] = &[
    layer("sim.dispatch_ns_per_event", "ns", Lower, Host),
    layer("sim.events_per_op", "1", Lower, Count),
    layer("sim.sched_peak_pending", "count", Lower, Count),
    layer("sim.sched_cascades_per_event", "1", Lower, Count),
    layer("sim.wheel_hold_ns", "ns", Lower, Host),
    layer("workload.make_op_ns", "ns", Lower, Host),
    layer("workload.pages_per_op", "1", Lower, Count),
    layer("cluster.start_op_ns", "ns", Lower, Host),
    layer("cluster.step_ns.lookup", "ns", Lower, Host),
    layer("cluster.step_ns.req_at_home", "ns", Lower, Host),
    layer("cluster.step_ns.serve_at_home", "ns", Lower, Host),
    layer("cluster.step_ns.req_at_holder", "ns", Lower, Host),
    layer("cluster.step_ns.serve_at_holder", "ns", Lower, Host),
    layer("cluster.step_ns.disk_done", "ns", Lower, Host),
    layer("cluster.step_ns.page_arrived", "ns", Lower, Host),
    layer("cluster.step_ns.access_done", "ns", Lower, Host),
    layer("cluster.step_share", "1", Lower, Host),
    layer("cluster.on_interval_ms", "ms", Lower, Host),
    layer("cluster.fill_metrics_ms", "ms", Lower, Host),
    layer("cluster.apply_allocation_us", "us", Lower, Host),
    layer("cluster.local_hit_frac", "1", Higher, Count),
    layer("cluster.remote_hit_frac", "1", Higher, Count),
    layer("cluster.disk_frac", "1", Lower, Count),
    layer("cluster.net_bytes_per_op", "B", Lower, Count),
    layer("cluster.net_utilization", "1", Lower, Sim),
    layer("cluster.max_link_utilization", "1", Lower, Sim),
    layer("cluster.disk_reads_per_op", "1", Lower, Count),
    layer("cluster.home_read_imbalance", "1", Lower, Count),
    layer("cluster.reprice_recomputes_per_op", "1", Lower, Count),
    layer("cluster.heap_retries_per_eviction", "1", Lower, Count),
    layer("cluster.heat_cache_hit_frac", "1", Higher, Count),
    layer("cluster.sweep_pages_per_interval", "1", Lower, Count),
    layer("cluster.op_fail_frac", "1", Lower, Count),
    layer("buffer.access_ns", "ns", Lower, Host),
    layer("buffer.install_ns", "ns", Lower, Host),
    layer("buffer.set_dedicated_us", "us", Lower, Host),
    layer("buffer.hit_frac.goal", "1", Higher, Count),
    layer("buffer.hit_frac.nogoal", "1", Higher, Count),
    layer("buffer.evictions_per_op", "1", Lower, Count),
    layer("buffer.promotions_per_op", "1", Lower, Count),
    layer("buffer.demotions_per_op", "1", Lower, Count),
    layer("buffer.resizes", "count", Lower, Count),
    layer("core.store_record_us", "us", Lower, Host),
    layer("linalg.independence_us", "us", Lower, Host),
    layer("linalg.fit_us", "us", Lower, Host),
    layer("lp.solve_us", "us", Lower, Host),
    layer("core.checks", "count", Lower, Count),
    layer("core.optimizations", "count", Lower, Count),
    layer("core.episodes", "count", Higher, Count),
    layer("core.controller_us_per_interval", "us", Lower, Host),
    layer("core.interval_host_ms_p50", "ms", Lower, Host),
    layer("core.interval_host_ms_p99", "ms", Lower, Host),
    layer("obs.snapshot_ms", "ms", Lower, Host),
    layer("obs.emit_ns_per_record", "ns", Lower, Host),
    layer("obs.hist_record_ns", "ns", Lower, Host),
    layer("obs.trace_records_per_interval", "1", Lower, Count),
    layer("obs.span_overhead_frac", "1", Lower, Host),
    layer("trace.parse_records_per_s", "1/s", Higher, Host),
    layer("trace.report_ms", "ms", Lower, Host),
    layer("trace.replay_s", "s", Lower, Host),
    layer("trace.replay_identical", "1", Higher, Count),
    layer("bench.trace_overhead_frac", "1", Lower, Host),
    layer("bench.shadow_coverage_frac", "1", Higher, Host),
    layer("bench.repeat_spread_frac", "1", Lower, Host),
    layer("bench.host_ref_ms", "ms", Lower, Host),
    layer("bench.host_ref_median_ms", "ms", Lower, Host),
    layer("bench.span_cost_ns", "ns", Lower, Host),
    layer("bench.spans_recorded", "count", Higher, Count),
];

/// The contract's name rule: starts with a letter or digit, at most 64 of
/// `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's unit rule: 1–16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Values measured for one declared set of metrics.
pub struct Values {
    decls: &'static [Decl],
    values: Vec<Option<f64>>,
    /// Free-text sample-count note per metric (printed, not parsed).
    notes: Vec<String>,
}

impl Values {
    pub fn new(decls: &'static [Decl]) -> Self {
        Values {
            decls,
            values: vec![None; decls.len()],
            notes: vec![String::new(); decls.len()],
        }
    }

    /// Records `value` for `name`. Panics on an undeclared name or a second
    /// value: both are bugs in the benchmark, not in the system under test.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_n(name, value, String::new());
    }

    /// [`Values::set`] with a note on what the value was computed from.
    pub fn set_n(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let i = self
            .decls
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.values[i].is_none(), "metric {name} set twice");
        self.values[i] = Some(value);
        self.notes[i] = note.into();
    }

    /// Declared names that have no finite value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.decls
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|(d, _)| d.name)
            .collect()
    }

    /// One line per metric: name, value with all its digits, unit, kind,
    /// direction, bound, note.
    pub fn print(&self) {
        for ((d, v), note) in self.decls.iter().zip(&self.values).zip(&self.notes) {
            let value = v.map_or_else(|| "MISSING".to_string(), |x| Json::from(x).to_string());
            let bound = d
                .bound
                .map_or_else(String::new, |b| format!(" bound {:.0}%", b * 100.0));
            let note = if note.is_empty() {
                String::new()
            } else {
                format!("  [{note}]")
            };
            println!(
                "  {:<36} {:>22} {:<9} ({}, {} is better{}){}",
                d.name,
                value,
                d.unit,
                d.kind.as_str(),
                d.better.as_str(),
                bound,
                note
            );
        }
    }

    /// The contract's `metrics` object: `{name: {value, unit}}`.
    pub fn to_json(&self, mut into: Json) -> Json {
        for (d, v) in self.decls.iter().zip(&self.values) {
            into = into.field(
                d.name,
                Json::obj()
                    .field("value", v.unwrap_or(f64::NAN))
                    .field("unit", d.unit),
            );
        }
        into
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let doc = Json::parse(MANIFEST).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{section} is an array"))
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("{section} entry without {k}"))
                        .to_string()
                };
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        assert!(valid_name("a.b-c_9") && valid_name("9lives"));
        for bad in ["", ".x", "-x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("m s"));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn manifest_declares_exactly_the_printed_metrics() {
        for (section, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let manifest = declared(section);
            let ours: Vec<_> = decls
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                        d.bound,
                    )
                })
                .collect();
            assert_eq!(manifest, ours, "{section} differs from BENCHMARK.json");
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(widest <= 0.25);
    }

    #[test]
    fn manifest_names_the_declared_workloads_and_this_package() {
        let doc = Json::parse(MANIFEST).expect("BENCHMARK.json parses");
        let names: Vec<_> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).expect("name"),
                    w.get("why").and_then(Json::as_str).expect("why"),
                )
            })
            .collect();
        let ours: Vec<_> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(names, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(u64::from(crate::workloads::REF_SECONDS))
        );
        let paths = doc.get("paths").and_then(Json::as_arr).expect("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
    }

    #[test]
    fn values_track_what_is_missing() {
        let mut v = Values::new(END_TO_END);
        assert_eq!(v.missing().len(), END_TO_END.len());
        for d in END_TO_END {
            v.set(d.name, 1.5);
        }
        assert!(v.missing().is_empty());
        let json = v.to_json(Json::obj()).to_string();
        assert!(json.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        let mut nan = Values::new(END_TO_END);
        nan.set("setup_s", f64::NAN);
        assert!(nan.missing().contains(&"setup_s"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Values::new(END_TO_END).set("made_up", 1.0);
    }
}
