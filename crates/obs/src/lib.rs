//! # dmm-obs — observability substrate
//!
//! A dependency-free metrics and structured-trace layer shared by every
//! crate in the workspace:
//!
//! * [`json`] — a minimal JSON value type with **ordered** object fields, a
//!   deterministic serializer (shortest-roundtrip float formatting via the
//!   standard library) and a small parser for round-trip tests. Field order
//!   is preserved exactly as written, which is what makes emitted traces
//!   byte-identical across runs with the same seed.
//! * [`metrics`] — fixed-bucket histograms, the closed-form
//!   [`WaitCounts`] behind every queue-wait histogram, and a
//!   [`MetricsSnapshot`] aggregating them with named counters and gauges;
//!   histogram merge is associative and commutative so per-thread or
//!   per-node instances can be combined in any grouping.
//! * [`span`] — the operation-level span vocabulary: the lifecycle
//!   [`Stage`] taxonomy (an exact partition of each operation's response
//!   time) and the [`SpanMode`] knob with its deterministic 1-in-N
//!   sampling rule keyed on operation sequence numbers.
//! * [`trace`] — the [`TraceSink`] trait behind which the
//!   control loop publishes one structured record per phase. The default
//!   [`NoopSink`] reports `enabled() == false`, so
//!   instrumented code skips record construction entirely and the
//!   observability layer costs nothing when unused.

pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

pub use json::Json;
pub use metrics::{Histogram, MetricsSnapshot, WaitCounts};
pub use span::{SpanMode, Stage, StageNanos, STAGES};
pub use trace::{JsonLinesSink, NoopSink, StreamSink, TraceSink, VecSink};
