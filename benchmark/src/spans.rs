//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end and the span that caused them (the
//! enclosing one). Every span is folded into a per-name aggregate (count,
//! busy time, self time = duration − children); one span in 1024 is also
//! kept raw and written to `benchmark/out/trace_<workload>.json` at exit.

use std::time::Instant;

use dmm::obs::Json;

/// Keep one raw span per this many recorded.
pub const SAMPLE_EVERY: u64 = 1024;

/// Per-name aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    /// Σ durations.
    pub busy_ns: u64,
    /// Σ (duration − time covered by child spans).
    pub self_ns: u64,
    /// Child spans recorded directly under spans of this name.
    pub children: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: usize,
    id: u64,
    start: u64,
    child_ns: u64,
    children: u64,
}

/// One raw span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub name: usize,
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What recording one span costs, measured on this host right before the
/// traced pass: `inner_ns` ends up inside the span's own duration (half of
/// each clock read), `outer_ns` in its parent's self time (the other
/// halves plus the bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    pub inner_ns: f64,
    pub outer_ns: f64,
}

pub struct Tracer {
    epoch: Instant,
    names: &'static [&'static str],
    agg: Vec<Agg>,
    stack: Vec<Open>,
    next_id: u64,
    samples: Vec<Sample>,
}

impl Tracer {
    pub fn new(names: &'static [&'static str]) -> Self {
        Tracer {
            epoch: Instant::now(),
            names,
            agg: vec![Agg::default(); names.len()],
            stack: Vec::with_capacity(8),
            next_id: 0,
            samples: Vec::new(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: usize) {
        let t = self.now();
        self.enter_at(name, t);
    }

    #[inline]
    pub fn exit(&mut self) {
        let t = self.now();
        self.exit_at(t);
    }

    #[inline]
    pub fn enter_at(&mut self, name: usize, t: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            name,
            id,
            start: t,
            child_ns: 0,
            children: 0,
        });
    }

    #[inline]
    pub fn exit_at(&mut self, t: u64) {
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = t.saturating_sub(open.start);
        let a = &mut self.agg[open.name];
        a.count += 1;
        a.busy_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        a.children += open.children;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.children += 1;
            p.id
        });
        if open.id.is_multiple_of(SAMPLE_EVERY) {
            self.samples.push(Sample {
                name: open.name,
                id: open.id,
                parent,
                start_ns: open.start,
                end_ns: t,
            });
        }
    }

    /// Drops everything recorded so far (warm-up spans).
    pub fn reset(&mut self) {
        assert!(self.stack.is_empty(), "reset inside an open span");
        self.agg.fill(Agg::default());
        self.samples.clear();
    }

    pub fn agg(&self, name: usize) -> Agg {
        self.agg[name]
    }

    /// Σ self time over every name: the part of the wall the spans explain.
    pub fn total_self_ns(&self) -> u64 {
        self.agg.iter().map(|a| a.self_ns).sum()
    }

    pub fn spans_recorded(&self) -> u64 {
        self.agg.iter().map(|a| a.count).sum()
    }

    /// Mean duration of `name`'s spans with the recorder's own cost taken
    /// out, in nanoseconds (0 when none were recorded).
    pub fn mean_ns(&self, name: usize, cost: SpanCost) -> f64 {
        let a = self.agg[name];
        if a.count == 0 {
            return 0.0;
        }
        (a.busy_ns as f64 / a.count as f64 - cost.inner_ns).max(0.0)
    }

    /// Self time of `name` with the cost of recording its children taken
    /// out, in nanoseconds.
    pub fn self_ns(&self, name: usize, cost: SpanCost) -> f64 {
        let a = self.agg[name];
        (a.self_ns as f64 - cost.outer_ns * a.children as f64 - cost.inner_ns * a.count as f64)
            .max(0.0)
    }

    /// Measures what one empty span costs (best of several batches, the
    /// usual treatment of additive host noise).
    pub fn calibrate() -> SpanCost {
        const NAMES: &[&str] = &["batch", "empty"];
        const N: u64 = 50_000;
        let mut best = SpanCost {
            inner_ns: f64::INFINITY,
            outer_ns: f64::INFINITY,
        };
        for _ in 0..8 {
            let mut t = Tracer::new(NAMES);
            t.enter(0);
            for _ in 0..N {
                t.enter(1);
                t.exit();
            }
            t.exit();
            let inner = t.agg[1].busy_ns as f64 / N as f64;
            let outer = t.agg[0].self_ns as f64 / N as f64;
            if inner + outer < best.inner_ns + best.outer_ns {
                best = SpanCost {
                    inner_ns: inner,
                    outer_ns: outer,
                };
            }
        }
        best
    }

    /// Aggregates and raw samples as one JSON object.
    pub fn to_json(&self) -> Json {
        let aggregates = self
            .agg
            .iter()
            .enumerate()
            .filter(|(_, a)| a.count > 0)
            .map(|(i, a)| {
                Json::obj()
                    .field("name", self.names[i])
                    .field("count", a.count)
                    .field("busy_ns", a.busy_ns)
                    .field("self_ns", a.self_ns)
                    .field("children", a.children)
            })
            .collect();
        let samples = self
            .samples
            .iter()
            .map(|s| {
                Json::obj()
                    .field("name", self.names[s.name])
                    .field("id", s.id)
                    .field("parent", s.parent)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
            })
            .collect();
        Json::obj()
            .field("sample_every", SAMPLE_EVERY)
            .field("aggregates", Json::Arr(aggregates))
            .field("samples", Json::Arr(samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["root", "child", "leaf"];

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(NAMES);
        // root [0, 100) ⊃ child [10, 40) ⊃ leaf [15, 25); root ⊃ child [50, 70).
        t.enter_at(0, 0);
        t.enter_at(1, 10);
        t.enter_at(2, 15);
        t.exit_at(25);
        t.exit_at(40);
        t.enter_at(1, 50);
        t.exit_at(70);
        t.exit_at(100);
        assert_eq!(
            t.agg(0),
            Agg {
                count: 1,
                busy_ns: 100,
                self_ns: 50,
                children: 2
            }
        );
        assert_eq!(
            t.agg(1),
            Agg {
                count: 2,
                busy_ns: 50,
                self_ns: 40,
                children: 1
            }
        );
        assert_eq!(
            t.agg(2),
            Agg {
                count: 1,
                busy_ns: 10,
                self_ns: 10,
                children: 0
            }
        );
        // Self times partition the root's duration exactly.
        assert_eq!(t.total_self_ns(), 100);
        assert_eq!(t.spans_recorded(), 4);
    }

    #[test]
    fn samples_carry_their_parent() {
        let mut t = Tracer::new(NAMES);
        t.enter_at(0, 0); // id 0: sampled
        for i in 0..SAMPLE_EVERY {
            t.enter_at(1, i);
            t.exit_at(i + 1);
        }
        t.exit_at(5000);
        // Ids 0 (root) and 1024 (the last child) are the sampled ones; the
        // child finishes first.
        assert_eq!(t.samples.len(), 2);
        assert_eq!(t.samples[0].id, SAMPLE_EVERY);
        assert_eq!(t.samples[0].parent, Some(0));
        assert_eq!(t.samples[1].parent, None);
        let json = t.to_json().to_string();
        assert!(json.contains("\"name\":\"child\""));
    }

    #[test]
    fn cost_correction_never_goes_negative() {
        let mut t = Tracer::new(NAMES);
        t.enter_at(0, 0);
        t.enter_at(1, 1);
        t.exit_at(2);
        t.exit_at(3);
        let huge = SpanCost {
            inner_ns: 1e9,
            outer_ns: 1e9,
        };
        assert_eq!(t.mean_ns(1, huge), 0.0);
        assert_eq!(t.self_ns(0, huge), 0.0);
        assert_eq!(t.mean_ns(2, huge), 0.0);
    }

    #[test]
    fn calibration_yields_small_positive_costs() {
        let c = Tracer::calibrate();
        assert!(c.inner_ns > 0.0 && c.inner_ns < 10_000.0, "{c:?}");
        assert!(c.outer_ns > 0.0 && c.outer_ns < 10_000.0, "{c:?}");
    }
}
