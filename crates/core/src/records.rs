//! The trace layout, written once.
//!
//! The `layout!` table at the bottom declares every record kind once: its
//! ordered `field: Type` list and its trailing extension groups. Each entry
//! expands to the struct the emitters fill by field name, its published
//! [`Layout`] (which `dmm-trace`'s schema reads) and a [`Record::write`]
//! that appends `"field":value` in declared order straight into a
//! caller's line buffer, through the scalar writers `Json::write` uses. No
//! record is built as a `Json` tree on the way out: fields keyed by the run
//! (slot and tier names, span stages) are borrowed [`Keyed`] views. The
//! `run_config` record and its nested objects also decode from their
//! entries ([`RunConfig::from_record`]), and each enum the replay closure
//! carries has one `(name, variant)` table read in both directions, so the
//! closure's emitter and its reader cannot drift apart.

use std::fmt::Write as _;
use std::mem::discriminant;

use dmm_buffer::{PolicySpec, TierPolicy};
use dmm_cluster::{FabricSpec, FaultKind, HotRingSpec, NodeId, PlacementSpec, TierSpec};
use dmm_obs::json::{write_bool, write_f64, write_null, write_str, write_u64};
use dmm_obs::{Json, Stage, StageNanos, STAGES};
use dmm_sim::SimTime;
use dmm_workload::{GoalMetric, GoalRange, RateShift};

use crate::baselines::ControllerKind;
use crate::coordinator::SatisfactionMode;
use crate::optimize::Objective;
use crate::probe::ProbeSpec;

/// One record kind's published layout.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// The record's `type`.
    pub kind: &'static str,
    /// Ordered base fields, `type` first.
    pub fields: &'static [&'static str],
    /// Groups of fields appended after the base fields, in this order, when
    /// the record carries them: `("quantile", …)`, then `("tier", …)`.
    pub extensions: &'static [(&'static str, &'static [&'static str])],
}

impl Layout {
    /// The fields of extension `group`; empty when this kind has none.
    pub fn extension(&self, group: &str) -> &'static [&'static str] {
        let found = self.extensions.iter().find(|(name, _)| *name == group);
        found.map_or(&[], |(_, fields)| fields)
    }
}

/// Every record kind, in rough order of appearance in a typical trace.
pub const RECORDS: [Layout; 10] = [
    RunConfig::LAYOUT,
    Interval::LAYOUT,
    HomeLoad::LAYOUT,
    NetLoad::LAYOUT,
    Optimize::LAYOUT,
    Grant::LAYOUT,
    GoalChange::LAYOUT,
    Fault::LAYOUT,
    Failover::LAYOUT,
    Span::LAYOUT,
];

/// The `type` of every record kind, in [`RECORDS`] order.
pub const RECORD_TYPES: [&str; RECORDS.len()] = {
    let mut kinds = [""; RECORDS.len()];
    let mut i = 0;
    while i < kinds.len() {
        kinds[i] = RECORDS[i].kind;
        i += 1;
    }
    kinds
};

/// Ordered fields of a `span` record's nested `stages` object:
/// [`Stage::FIELDS`], one integer-nanosecond sum per stage. They partition
/// the operation's response time exactly.
pub const SPAN_STAGE_FIELDS: [&str; STAGES] = Stage::FIELDS;

/// The layout of record kind `kind`, if there is one.
pub fn layout(kind: &str) -> Option<Layout> {
    RECORDS.iter().find(|l| l.kind == kind).copied()
}

/// A trace record: one JSON object, written straight to text.
pub trait Record {
    /// Appends the record to `out` as one compact JSON object: `type`
    /// first, then the layout's fields and the carried extension groups,
    /// in published order.
    fn write(&self, out: &mut String);
}

/// An object keyed by the run rather than the layout (the storage ladder's
/// slot or tier names, the span stages): key `i` carries value `i`. Both
/// sides are borrowed from where the run keeps them.
#[derive(Debug, Clone, PartialEq)]
pub struct Keyed<'a, K, V> {
    /// The field names, in order.
    pub keys: &'a [K],
    /// One value per key.
    pub values: &'a [V],
}

/// The name a [`Keyed`] object gives one of its fields.
pub(crate) trait Key {
    /// The field name.
    fn key(&self) -> &str;
}

impl Key for String {
    fn key(&self) -> &str {
        self
    }
}

impl Key for &str {
    fn key(&self) -> &str {
        self
    }
}

/// A memory tier, keyed by its name.
impl Key for TierSpec {
    fn key(&self) -> &str {
        &self.name
    }
}

/// Appends one `"key":value` field to the object being written in `out`,
/// after a comma unless it is the object's first (`out` still ends with
/// the object's `{`: no value ends with that character).
fn field<V: Encode + ?Sized>(out: &mut String, key: &str, value: &V) {
    if !out.ends_with('{') {
        out.push(',');
    }
    write_str(out, key);
    out.push(':');
    value.encode(out);
}

/// How a field value is written: as JSON text appended to `out`.
pub(crate) trait Encode {
    fn encode(&self, out: &mut String);
}

/// How a field value is read back: `value` is field `key` of the object at
/// path `at` (`run_config.` at the top), `None` when absent. A missing,
/// mistyped or out-of-range value is an error naming its path.
trait Decode: Sized {
    fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String>;
}

fn mistyped(at: &str, key: &str) -> String {
    format!("{at}{key} missing or mistyped")
}

/// Scalars, written with `put` and read with `get`.
macro_rules! scalar {
    ($($t:ty: $get:expr, $put:expr;)*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut String) {
                $put(out, *self)
            }
        }
        impl Decode for $t {
            fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String> {
                value.and_then($get).ok_or_else(|| mistyped(at, key))
            }
        }
    )*};
}
scalar! {
    u64: Json::as_u64, write_u64;
    f64: Json::as_f64, write_f64;
    bool: Json::as_bool, write_bool;
    SimTime: |v: &Json| v.as_u64().map(SimTime::from_nanos),
        |out, t: SimTime| write_u64(out, t.as_nanos());
}

impl Encode for str {
    fn encode(&self, out: &mut String) {
        write_str(out, self)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut String) {
        write_str(out, self)
    }
}

impl Decode for String {
    fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String> {
        let text = value.and_then(Json::as_str);
        text.map(str::to_string).ok_or_else(|| mistyped(at, key))
    }
}

/// Narrower integers, written as `u64` and narrowed back to the type the
/// field holds: an out-of-range value is refused, never wrapped.
macro_rules! narrow {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut String) {
                write_u64(out, *self as u64)
            }
        }
        impl Decode for $t {
            fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String> {
                let raw = u64::decode(value, at, key)?;
                <$t>::try_from(raw).map_err(|_| format!("{at}{key} = {raw} is out of range"))
            }
        }
    )*};
}
narrow!(u8, u16, u32, usize);

/// A `&'static str` label.
impl Encode for &str {
    fn encode(&self, out: &mut String) {
        write_str(out, self)
    }
}

/// An array borrowed from the run's state.
impl<T: Encode> Encode for &[T] {
    fn encode(&self, out: &mut String) {
        (**self).encode(out)
    }
}

impl<K: Key, V: Encode> Encode for Keyed<'_, K, V> {
    fn encode(&self, out: &mut String) {
        out.push('{');
        for (key, value) in self.keys.iter().zip(self.values) {
            field(out, key.key(), value);
        }
        out.push('}');
    }
}

/// A span's stage sums, keyed by [`SPAN_STAGE_FIELDS`].
impl Encode for StageNanos {
    fn encode(&self, out: &mut String) {
        Keyed {
            keys: &SPAN_STAGE_FIELDS,
            values: self,
        }
        .encode(out)
    }
}

/// The goal metric's label (`p95`, …), written without allocating; its
/// characters (letters, digits, `.`) need no escaping.
impl Encode for GoalMetric {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(value) => value.encode(out),
            None => write_null(out),
        }
    }
}

/// A nullable field: `null` reads as `None`, a missing or mistyped value
/// is an error.
impl<T: Decode> Decode for Option<T> {
    fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String> {
        match value {
            None => Err(mistyped(at, key)),
            Some(Json::Null) => Ok(None),
            Some(v) => T::decode(Some(v), at, key).map(Some),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.encode(out);
        }
        out.push(']');
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut String) {
        self.as_slice().encode(out)
    }
}

/// An array; its elements report errors under the array's path.
impl<T: Decode> Decode for Vec<T> {
    fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String> {
        let items = value
            .and_then(Json::as_arr)
            .ok_or_else(|| mistyped(at, key))?;
        items.iter().map(|v| T::decode(Some(v), at, key)).collect()
    }
}

/// An enum the replay closure carries, written as its variant's name. Its
/// `NAMES` pair each name with a representative variant; payloads there are
/// placeholders, since they ride in sibling fields.
trait Named: Copy + 'static {
    const NAMES: &'static [(&'static str, Self)];
}

impl<T: Named> Encode for T {
    fn encode(&self, out: &mut String) {
        let same = |(_, v): &&(&str, T)| discriminant(v) == discriminant(self);
        let (name, _) = T::NAMES.iter().find(same).expect("every variant is named");
        write_str(out, name)
    }
}

impl<T: Named> Decode for T {
    fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String> {
        let name = value
            .and_then(Json::as_str)
            .ok_or_else(|| mistyped(at, key))?;
        match T::NAMES.iter().find(|(n, _)| *n == name) {
            Some(&(_, variant)) => Ok(variant),
            None => {
                let known: Vec<&str> = T::NAMES.iter().map(|(n, _)| *n).collect();
                Err(format!(
                    "{at}{key} = {name:?} is not one of {}",
                    known.join(", ")
                ))
            }
        }
    }
}

macro_rules! names {
    ($($ty:ty { $($name:literal => $variant:expr,)* })*) => {$(
        impl Named for $ty {
            const NAMES: &'static [(&'static str, Self)] = &[$(($name, $variant)),*];
        }
    )*};
}

names! {
    PolicySpec { "lru" => Self::Lru, "fifo" => Self::Fifo, "clock" => Self::Clock,
        "lru_k" => Self::LruK(0), "cost_based" => Self::CostBased, }
    SatisfactionMode { "two_sided" => Self::TwoSided, "upper_bound" => Self::UpperBound, }
    TierPolicy { "hotness" => Self::Hotness, "static_hash" => Self::StaticHash, }
    Objective {
        "min_nogoal_rt" => Self::MinNoGoalRt,
        "min_total_dedicated" => Self::MinTotalDedicated,
        "balance_nodes" => Self::BalanceNodes,
    }
    ControllerKind {
        "hyperplane" => Self::Hyperplane { objective: Objective::MinNoGoalRt },
        "fragment_fencing" => Self::FragmentFencing,
        "class_fencing" => Self::ClassFencing,
        "static" => Self::Static { fraction: 0.0 },
        "none" => Self::None,
    }
    PlacementSpec {
        "round_robin" => Self::RoundRobin,
        "hash" => Self::Hash,
        "hot_ring" => Self::HotRing(HotRingSpec { vnodes: 0, max_replicas: 0, seed: 0 }),
    }
    FabricSpec {
        "shared_medium" => Self::SharedMedium,
        "switched" => Self::Switched { bisection_bits_per_sec: None },
    }
    ProbeSpec { "sequential" => Self::Sequential, "batched" => Self::Batched { batch: 0 }, }
    FaultKind { "crash" => Self::Crash(NodeId(0)), "restart" => Self::Restart(NodeId(0)), }
}

/// The declaration table's expander. Items, each ended by `;`:
///
/// - `record Name<'a>? = "kind" { field: Type, … } + group: Group<'a>? …;`
///   — a trace record: a struct, its [`Layout`] and its [`Record::write`].
///   Each trailing `group` is an `Option<Group>` field whose fields, when
///   present, are appended after the base layout in declared order. A
///   lifetime lets fields borrow from the emitter.
/// - `object Name<'a>? { field: Type, … };` — a nested object or an
///   extension group: a struct and its ordered `FIELDS`.
/// - `extern Type { field: Type, … };` — the layout of an existing struct
///   with public fields, written by listing every one of them.
/// - `decode record …` / `decode object …` / `decode extern …` — the same,
///   plus a decoder.
macro_rules! layout {
    () => {};
    (@struct $(#[$meta:meta])* $name:ident $(<$lt:lifetime>)? {
        $($field:ident: $ty:ty,)*
    } $(+ $group:ident: $gty:ident $(<$glt:lifetime>)?)*) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name $(<$lt>)? {
            $(pub $field: $ty,)*
            $(
                #[doc = concat!("The trailing `", stringify!($group), "` extension, if carried.")]
                pub $group: Option<$gty $(<$glt>)?>,
            )*
        }

        impl $(<$lt>)? $name $(<$lt>)? {
            fn write_fields(&self, out: &mut String) {
                $(field(out, stringify!($field), &self.$field);)*
                $(if let Some(group) = &self.$group {
                    group.write_fields(out);
                })*
            }
        }
    };
    ($(#[$meta:meta])* decode $item:ident $name:ident $(= $kind:literal)? {
        $($field:ident: $ty:ty,)*
    }; $($rest:tt)*) => {
        layout!($(#[$meta])* $item $name $(= $kind)? { $($field: $ty,)* };);

        impl Decode for $name {
            fn decode(value: Option<&Json>, at: &str, key: &str) -> Result<Self, String> {
                let Some(object @ Json::Obj(_)) = value else {
                    return Err(mistyped(at, key));
                };
                let at = format!("{at}{key}.");
                Ok($name {
                    $($field: Decode::decode(
                        object.get(stringify!($field)),
                        &at,
                        stringify!($field),
                    )?,)*
                })
            }
        }

        layout!($($rest)*);
    };
    ($(#[$meta:meta])* extern $name:ident { $($field:ident: $ty:ty,)* }; $($rest:tt)*) => {
        impl Encode for $name {
            fn encode(&self, out: &mut String) {
                out.push('{');
                $(field(out, stringify!($field), &self.$field);)*
                out.push('}');
            }
        }

        layout!($($rest)*);
    };
    ($(#[$meta:meta])* record $name:ident $(<$lt:lifetime>)? = $kind:literal {
        $($field:ident: $ty:ty,)*
    } $(+ $group:ident: $gty:ident $(<$glt:lifetime>)?)*; $($rest:tt)*) => {
        layout!(
            @struct $(#[$meta])* $name $(<$lt>)? { $($field: $ty,)* }
            $(+ $group: $gty $(<$glt>)?)*
        );

        impl $(<$lt>)? $name $(<$lt>)? {
            /// The record's `type`.
            pub const KIND: &'static str = $kind;
            /// The published layout of this record kind.
            pub const LAYOUT: Layout = Layout {
                kind: $kind,
                fields: &["type", $(stringify!($field)),*],
                extensions: &[$((stringify!($group), $gty::FIELDS)),*],
            };
        }

        impl $(<$lt>)? Record for $name $(<$lt>)? {
            fn write(&self, out: &mut String) {
                out.push('{');
                field(out, "type", $kind);
                self.write_fields(out);
                out.push('}');
            }
        }

        layout!($($rest)*);
    };
    ($(#[$meta:meta])* object $name:ident $(<$lt:lifetime>)? {
        $($field:ident: $ty:ty,)*
    }; $($rest:tt)*) => {
        layout!(@struct $(#[$meta])* $name $(<$lt>)? { $($field: $ty,)* });

        impl $(<$lt>)? $name $(<$lt>)? {
            /// The object's ordered fields.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];
        }

        impl $(<$lt>)? Encode for $name $(<$lt>)? {
            fn encode(&self, out: &mut String) {
                out.push('{');
                self.write_fields(out);
                out.push('}');
            }
        }

        layout!($($rest)*);
    };
}

layout! {
    /// The replay closure: the first record of every trace, carrying every
    /// parameter that shapes the byte stream (see [`crate::replay`]). The
    /// span mode, an observer toggle, is trace-invariant and excluded.
    decode record RunConfig = "run_config" {
        schema_version: u64, seed: u64, nodes: usize, db_pages: u32,
        buffer_pages_per_node: usize, policy: Policy, interval_ns: u64, warmup_intervals: u32,
        controller: Controller, goal_range: Option<GoalRange>, satisfaction: SatisfactionMode,
        release_floor_mb: f64, placement: Placement, fabric: Fabric, net_bits_per_sec: u64,
        probe: Probe, tiers: Vec<TierSpec>, tier_policy: TierPolicy,
        fault_plan: Option<FaultPlanRecord>, workload: Vec<WorkloadClass>,
    };
    /// `run_config.policy`, the replacement policy: `k` is set for `lru_k` only.
    decode object Policy { kind: PolicySpec, k: Option<usize>, };
    /// `run_config.workload`, indexed by class id; `pages` are hottest first.
    decode object WorkloadClass {
        goal_ms: Option<f64>, goal_quantile: Option<f64>, pages_per_op: usize, theta: f64,
        pages: Vec<PageRun>, arrival_per_ms: Vec<f64>, rate_shifts: Vec<RateShift>,
    };
    /// Pages `start..start + len` of a class's page set.
    decode object PageRun { start: u32, len: u32, };
    /// One of a class's `rate_shifts`; `at` is in nanoseconds.
    decode extern RateShift { at: SimTime, arrival_per_ms: Vec<f64>, };
    /// `run_config.controller`: `objective` is set for `hyperplane` only,
    /// `fraction` for `static` only.
    decode object Controller {
        kind: ControllerKind, objective: Option<Objective>, fraction: Option<f64>,
    };
    /// `run_config.goal_range`.
    decode extern GoalRange { min_ms: f64, max_ms: f64, };
    /// `run_config.placement`: the ring fields are set for `hot_ring` only.
    decode object Placement {
        kind: PlacementSpec, vnodes: Option<u16>, max_replicas: Option<u8>,
        ring_seed: Option<u64>,
    };
    /// `run_config.fabric`: `null` capacity is an ideal switch core.
    decode object Fabric { kind: FabricSpec, bisection_bits_per_sec: Option<u64>, };
    /// `run_config.probe`: `batch` is set for `batched` only.
    decode object Probe { kind: ProbeSpec, batch: Option<usize>, };
    /// One rung of `run_config.tiers`, fastest first.
    decode extern TierSpec {
        name: String, hit_ms: f64, frames: Option<usize>,
        bandwidth_bytes_per_sec: Option<u64>,
    };
    /// `run_config.fault_plan`.
    decode object FaultPlanRecord {
        seed: u64, drop_probability: f64, retransmit_ns: u64, events: Vec<FaultEvent>,
        stalls: Vec<Stall>,
    };
    /// One of `run_config.fault_plan.events`.
    decode object FaultEvent { kind: FaultKind, node: u16, at_ns: u64, };
    /// One of `run_config.fault_plan.stalls`.
    decode object Stall { node: u16, from_ns: u64, until_ns: u64, factor: f64, };

    /// One goal class's check phase. `phase` is `settling`, `optimized`,
    /// `satisfied`, `violated_no_action` or `no_data`; `level_share` is
    /// keyed by storage-slot name. Quantile-goal classes append
    /// the `quantile` group and extended ladders the `tier` group after it,
    /// so mean-goal, default-ladder traces keep the base layout.
    record Interval<'a> = "interval" {
        interval: u64, t_ms: f64, class: u64, observed_ms: Option<f64>, goal_ms: f64,
        nogoal_ms: f64, tolerance_ms: f64, satisfied: Option<bool>, settling: bool,
        store_cleared: bool, phase: &'static str, dedicated_mb: f64,
        level_share: Keyed<'a, String, f64>, class_hit_rate: f64, nogoal_hit_rate: f64,
        residual_ms: Option<f64>,
    } + quantile: IntervalQuantile + tier: TierExtension<'a>;
    /// The `quantile` group of an `interval` record; `goal_metric` is
    /// written as its label (`p95`, …).
    object IntervalQuantile { observed_p_ms: Option<f64>, goal_metric: GoalMetric, };
    /// The `quantile` group of `optimize` and `goal_change` records.
    object GoalMetricLabel { goal_metric: GoalMetric, };
    /// The `tier` group of an `interval` record: a [`TierLoad`] per memory
    /// tier, keyed by tier name.
    object TierExtension<'a> { tier_occupancy: Keyed<'a, TierSpec, TierLoad>, };
    /// One tier's entry in `tier_occupancy`, cluster-wide.
    object TierLoad { resident: u64, frames: u64, };
    /// Per-node home duty at an interval boundary, one array entry per node.
    record HomeLoad<'a> = "home_load" {
        interval: u64, t_ms: f64, home_pages: &'a [u32], home_reads: &'a [u64],
        remote_fanin: &'a [u64],
    };
    /// Per-node link busy fractions, under a switched fabric only, plus the
    /// switch core's (`null` for an ideal core).
    record NetLoad = "net_load" {
        interval: u64, t_ms: f64, tx_busy: Vec<f64>, rx_busy: Vec<f64>,
        bisection_busy: Option<f64>,
    };
    /// One optimization phase's reasoning, filled by the coordinator. `path`
    /// is `lp`, `probe`, `fragment` or `class_fencing`; `fallback` names why
    /// the LP path was skipped. DESIGN.md's trace table gives every field.
    record Optimize = "optimize" {
        interval: u64, class: u64, path: &'static str, points: usize,
        plane_w: Option<Vec<f64>>, plane_c: Option<f64>, goal_attainable: Option<bool>,
        predicted_class_ms: Option<f64>, fit_residuals_ms: Option<Vec<f64>>,
        fit_rms_ms: Option<f64>, fallback: Option<&'static str>, current_mb: Vec<f64>,
        requested_mb: Vec<f64>, delta_mb: f64,
    } + quantile: GoalMetricLabel;
    /// A node's answer to an allocation.
    record Grant = "grant" {
        t_ms: f64, class: u64, node: u64, requested_pages: u32, granted_pages: u32,
        avail_pages: u32,
    };
    /// A scheduled goal change.
    record GoalChange = "goal_change" {
        interval: u64, t_ms: f64, class: u64, old_goal_ms: f64, new_goal_ms: f64,
    } + quantile: GoalMetricLabel;
    /// An injected crash or restart, with the running fault counters.
    record Fault = "fault" {
        t_ms: f64, kind: FaultKind, node: u64, live_nodes: usize, last_copy_losses: u64,
        ops_aborted: u64,
    };
    /// A coordinator moving off a crashed node.
    record Failover = "failover" { t_ms: f64, class: u64, from: u64, to: u64, };
    /// One sampled operation; `stages` is keyed by [`SPAN_STAGE_FIELDS`].
    record Span = "span" {
        t_ms: f64, op: u64, class: u64, origin: u64, response_ms: f64, stages: StageNanos,
    };
}

/// The `run_config` layout a trace records (its `schema_version`) and replay accepts.
pub const SCHEMA_VERSION: u64 = 1;

impl RunConfig {
    /// Decodes a parsed `run_config` record. Every field must be present
    /// with its declared type (nullable ones may be `null`), every variant
    /// name must be known and the version must be [`SCHEMA_VERSION`]; the
    /// error names the offending path.
    pub fn from_record(record: &Json) -> Result<Self, String> {
        let config = Self::decode(Some(record), "", Self::KIND)?;
        match config.schema_version {
            SCHEMA_VERSION => Ok(config),
            v => Err(format!("run_config.schema_version = {v} is not supported")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name holding every character class the string writer escapes or
    /// passes through: quote, backslash, newline, U+0001 and non-ASCII.
    const ODD: &str = "a\"b\\c\nd\u{1}é→";

    fn tier(name: &str) -> TierSpec {
        TierSpec {
            name: name.to_string(),
            hit_ms: 1e-7,
            frames: None,
            bandwidth_bytes_per_sec: Some(u64::MAX),
        }
    }

    /// Writes `record`, checks that the text parses, re-serializes to the
    /// identical bytes and carries `layout`'s fields then every extension
    /// group's, in order; returns the line.
    fn written(layout: &Layout, record: &dyn Record) -> String {
        let mut line = String::new();
        record.write(&mut line);
        let parsed = Json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(parsed.to_string(), line, "{} re-serializes", layout.kind);
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("a record is an object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        let groups = layout.extensions.iter().flat_map(|(_, fields)| *fields);
        let expected: Vec<&str> = layout.fields.iter().chain(groups).copied().collect();
        assert_eq!(keys, expected, "{} field order", layout.kind);
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some(layout.kind));
        line
    }

    #[test]
    fn every_record_kind_writes_parseable_text_in_layout_order() {
        let slots = vec![ODD.to_string(), "remote_hit".to_string()];
        let shares = [0.25, f64::NAN];
        let tiers = [tier("dram"), tier(ODD)];
        let loads = [
            TierLoad {
                resident: 3,
                frames: 4,
            },
            TierLoad {
                resident: u64::MAX,
                frames: 0,
            },
        ];
        let quantile = GoalMetric::Quantile { q: 0.999 };
        let records: Vec<(Layout, Box<dyn Record + '_>)> = vec![
            (
                RunConfig::LAYOUT,
                Box::new(RunConfig {
                    schema_version: SCHEMA_VERSION,
                    seed: u64::MAX,
                    nodes: 3,
                    db_pages: 2_000,
                    buffer_pages_per_node: 256,
                    policy: Policy {
                        kind: PolicySpec::LruK(2),
                        k: Some(2),
                    },
                    interval_ns: 5_000_000_000,
                    warmup_intervals: 0,
                    controller: Controller {
                        kind: ControllerKind::Hyperplane {
                            objective: Objective::BalanceNodes,
                        },
                        objective: Some(Objective::BalanceNodes),
                        fraction: None,
                    },
                    goal_range: Some(GoalRange {
                        min_ms: 4.0,
                        max_ms: 40.5,
                    }),
                    satisfaction: SatisfactionMode::UpperBound,
                    release_floor_mb: 0.1,
                    placement: Placement {
                        kind: PlacementSpec::Hash,
                        vnodes: None,
                        max_replicas: Some(u8::MAX),
                        ring_seed: None,
                    },
                    fabric: Fabric {
                        kind: FabricSpec::SharedMedium,
                        bisection_bits_per_sec: None,
                    },
                    net_bits_per_sec: 10_000_000,
                    probe: Probe {
                        kind: ProbeSpec::Batched { batch: 4 },
                        batch: Some(4),
                    },
                    tiers: tiers.to_vec(),
                    tier_policy: TierPolicy::StaticHash,
                    fault_plan: Some(FaultPlanRecord {
                        seed: 7,
                        drop_probability: 0.5,
                        retransmit_ns: 1,
                        events: vec![FaultEvent {
                            kind: FaultKind::Restart(NodeId(2)),
                            node: 2,
                            at_ns: u64::MAX,
                        }],
                        stalls: vec![Stall {
                            node: 1,
                            from_ns: 0,
                            until_ns: 9,
                            factor: 2.0,
                        }],
                    }),
                    workload: vec![WorkloadClass {
                        goal_ms: None,
                        goal_quantile: Some(-0.0),
                        pages_per_op: 4,
                        theta: 1e-7,
                        pages: vec![PageRun {
                            start: u32::MAX,
                            len: 0,
                        }],
                        arrival_per_ms: vec![1e21],
                        rate_shifts: vec![RateShift {
                            at: SimTime::from_nanos(u64::MAX),
                            arrival_per_ms: Vec::new(),
                        }],
                    }],
                }),
            ),
            (
                Interval::LAYOUT,
                Box::new(Interval {
                    interval: 0,
                    t_ms: -0.0,
                    class: 1,
                    observed_ms: Some(f64::NAN),
                    goal_ms: 1e21,
                    nogoal_ms: 1e-7,
                    tolerance_ms: f64::NEG_INFINITY,
                    satisfied: None,
                    settling: true,
                    store_cleared: false,
                    phase: "settling",
                    dedicated_mb: 0.1,
                    level_share: Keyed {
                        keys: &slots,
                        values: &shares,
                    },
                    class_hit_rate: 1.0,
                    nogoal_hit_rate: 0.0,
                    residual_ms: None,
                    quantile: Some(IntervalQuantile {
                        observed_p_ms: Some(2.5),
                        goal_metric: quantile,
                    }),
                    tier: Some(TierExtension {
                        tier_occupancy: Keyed {
                            keys: &tiers,
                            values: &loads,
                        },
                    }),
                }),
            ),
            (
                HomeLoad::LAYOUT,
                Box::new(HomeLoad {
                    interval: 1,
                    t_ms: 5_000.0,
                    home_pages: &[u32::MAX, 0],
                    home_reads: &[u64::MAX, 1],
                    remote_fanin: &[],
                }),
            ),
            (
                NetLoad::LAYOUT,
                Box::new(NetLoad {
                    interval: 1,
                    t_ms: 5_000.0,
                    tx_busy: vec![-0.0, f64::INFINITY],
                    rx_busy: vec![1e-7],
                    bisection_busy: None,
                }),
            ),
            (
                Optimize::LAYOUT,
                Box::new(Optimize {
                    interval: 2,
                    class: 1,
                    path: "lp",
                    points: 4,
                    plane_w: Some(vec![-1.5, 1e21]),
                    plane_c: Some(f64::NAN),
                    goal_attainable: Some(true),
                    predicted_class_ms: None,
                    fit_residuals_ms: Some(Vec::new()),
                    fit_rms_ms: Some(0.0),
                    fallback: Some("rank_deficient"),
                    current_mb: vec![0.5, 0.25],
                    requested_mb: vec![1.0, -0.0],
                    delta_mb: 1e-7,
                    quantile: Some(GoalMetricLabel {
                        goal_metric: quantile,
                    }),
                }),
            ),
            (
                Grant::LAYOUT,
                Box::new(Grant {
                    t_ms: 5_050.125,
                    class: 1,
                    node: 0,
                    requested_pages: u32::MAX,
                    granted_pages: 0,
                    avail_pages: 7,
                }),
            ),
            (
                GoalChange::LAYOUT,
                Box::new(GoalChange {
                    interval: 20,
                    t_ms: 1e21,
                    class: 1,
                    old_goal_ms: 8.0,
                    new_goal_ms: 12.5,
                    quantile: Some(GoalMetricLabel {
                        goal_metric: GoalMetric::Quantile { q: 0.95 },
                    }),
                }),
            ),
            (
                Fault::LAYOUT,
                Box::new(Fault {
                    t_ms: 0.0,
                    kind: FaultKind::Crash(NodeId(1)),
                    node: 1,
                    live_nodes: 2,
                    last_copy_losses: u64::MAX,
                    ops_aborted: 0,
                }),
            ),
            (
                Failover::LAYOUT,
                Box::new(Failover {
                    t_ms: 1.0,
                    class: 1,
                    from: 1,
                    to: 0,
                }),
            ),
            (
                Span::LAYOUT,
                Box::new(Span {
                    t_ms: 3.0,
                    op: u64::MAX,
                    class: 0,
                    origin: 2,
                    response_ms: 1e-7,
                    stages: [1, 2, 3, 4, 5, 6, 7, u64::MAX],
                }),
            ),
        ];
        let kinds: Vec<&str> = records.iter().map(|(layout, _)| layout.kind).collect();
        assert_eq!(kinds, RECORD_TYPES, "one instance of every record kind");
        let lines: Vec<String> = records
            .iter()
            .map(|(layout, record)| written(layout, record.as_ref()))
            .collect();
        let doc = lines.join("\n");

        // Non-finite floats and `None` are `null`; −0.0, 1e-7 and 1e21 keep
        // the standard library's shortest digits; integers are exact.
        for expected in [
            r#""observed_ms":null"#,
            r#""tolerance_ms":null"#,
            r#""residual_ms":null"#,
            r#""satisfied":null"#,
            r#""plane_c":null"#,
            r#""tx_busy":[-0,null]"#,
            r#""t_ms":-0,"#,
            r#""goal_quantile":-0,"#,
            r#""theta":0.0000001,"#,
            r#""arrival_per_ms":[1000000000000000000000],"#,
            r#""seed":18446744073709551615,"#,
            r#""policy":{"kind":"lru_k","k":2},"#,
            r#""pages":[{"start":4294967295,"len":0}],"#,
            r#""rate_shifts":[{"at":18446744073709551615,"arrival_per_ms":[]}]"#,
            r#""home_pages":[4294967295,0]"#,
            r#""remote_fanin":[]"#,
            r#""goal_metric":"p99.9""#,
            r#""goal_metric":"p95""#,
            r#""kind":"restart""#,
            r#""max_replicas":255"#,
            r#""stages":{"local_hit_ns":1,"pool_queue_ns":2,"#,
        ] {
            assert!(doc.contains(expected), "{expected} missing from\n{doc}");
        }
        // The odd name is escaped as a key and as a value, and reads back.
        let escaped = r#""a\"b\\c\nd\u0001é→""#;
        assert!(
            lines[0].contains(&format!(r#""name":{escaped}"#)),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains(&format!("{{{escaped}:0.25,")),
            "{}",
            lines[1]
        );
        assert!(
            lines[1].contains(&format!("{escaped}:{{\"resident\"")),
            "{}",
            lines[1]
        );
        let config = RunConfig::from_record(&Json::parse(&lines[0]).expect("parses"))
            .expect("the written run_config decodes");
        assert_eq!(config.tiers[1].name, ODD);
        assert_eq!(
            config.workload[0].goal_quantile.map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(config.seed, u64::MAX);
        assert_eq!(config.workload[0].rate_shifts[0].at.as_nanos(), u64::MAX);
    }

    #[test]
    fn absent_extension_groups_leave_the_base_layout() {
        let rec = GoalChange {
            interval: 1,
            t_ms: 2.0,
            class: 1,
            old_goal_ms: 3.0,
            new_goal_ms: 4.0,
            quantile: None,
        };
        let mut line = String::new();
        rec.write(&mut line);
        assert_eq!(
            line,
            r#"{"type":"goal_change","interval":1,"t_ms":2,"class":1,"old_goal_ms":3,"new_goal_ms":4}"#
        );
    }
}
