//! The trace layout, written once.
//!
//! The `layout!` table at the bottom declares every record kind once: its
//! ordered `field: Type` list and its trailing extension groups. Each entry
//! expands to the struct the emitters fill by field name, its published
//! [`Layout`] (which `dmm-trace`'s schema reads) and an `into_json` writing
//! the fields in declared order, which the serializer preserves. The
//! `run_config` record and its nested objects also decode from their
//! entries ([`RunConfig::from_record`]), and each enum the replay closure
//! carries has one `(name, variant)` table read in both directions, so the
//! closure's emitter and its reader cannot drift apart.

use std::mem::discriminant;

use dmm_buffer::TierPolicy;
use dmm_cluster::{FabricSpec, FaultKind, HotRingSpec, NodeId, PlacementSpec, TierSpec};
use dmm_obs::{Json, Stage, StageNanos, STAGES};
use dmm_workload::GoalRange;

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

/// An object keyed by the run rather than the layout (the storage ladder's
/// slot or tier names): one field per `(key, value)` pair.
pub(crate) fn keyed<K: Into<String>, V: Encode>(
    pairs: impl ExactSizeIterator<Item = (K, V)>,
) -> Json {
    let mut out = Vec::with_capacity(pairs.len());
    out.extend(pairs.map(|(k, v)| (k.into(), v.encode())));
    Json::Obj(out)
}

/// How a field value is written.
pub(crate) trait Encode {
    fn encode(self) -> Json;
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
            fn encode(self) -> Json {
                $put(self)
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
    u64: Json::as_u64, Json::U64;
    f64: Json::as_f64, Json::F64;
    bool: Json::as_bool, Json::Bool;
    String: |v: &Json| v.as_str().map(str::to_string), Json::Str;
}

/// Narrower integers, written as `u64` and narrowed back to the type the
/// field holds: an out-of-range value is refused, never wrapped.
macro_rules! narrow {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(self) -> Json {
                Json::U64(self as u64)
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

impl Encode for &'static str {
    fn encode(self) -> Json {
        Json::from(self)
    }
}

impl Encode for Json {
    fn encode(self) -> Json {
        self
    }
}

impl Encode for StageNanos {
    fn encode(self) -> Json {
        keyed(SPAN_STAGE_FIELDS.into_iter().zip(self))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(self) -> Json {
        self.map_or(Json::Null, Encode::encode)
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

impl<T: Encode> Encode for Vec<T> {
    fn encode(self) -> Json {
        Json::Arr(self.into_iter().map(Encode::encode).collect())
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
    fn encode(self) -> Json {
        let same = |(_, v): &&(&str, T)| discriminant(v) == discriminant(&self);
        let (name, _) = T::NAMES.iter().find(same).expect("every variant is named");
        Json::from(*name)
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
/// - `record Name = "kind" { field: Type, … } + group: Group …;` — a
///   trace record: a struct, its [`Layout`] and `into_json`. Each trailing
///   `group` is an `Option<Group>` field whose fields, when present, are
///   appended after the base layout in declared order.
/// - `object Name { field: Type, … };` — a nested object or an extension
///   group: a struct and its ordered `FIELDS`.
/// - `extern Type { field: Type, … };` — the layout of an existing struct
///   with public fields, written by listing every one of them.
/// - `decode record …` / `decode object …` / `decode extern …` — the same,
///   plus a decoder.
macro_rules! layout {
    () => {};
    (@struct $(#[$meta:meta])* $name:ident {
        $($field:ident: $ty:ty,)*
    } $(+ $group:ident: $gty:ident)*) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $(pub $field: $ty,)*
            $(
                #[doc = concat!("The trailing `", stringify!($group), "` extension, if carried.")]
                pub $group: Option<$gty>,
            )*
        }

        impl $name {
            fn write_fields(self, out: &mut Vec<(String, Json)>) {
                $(out.push((stringify!($field).to_string(), self.$field.encode()));)*
                $(if let Some(group) = self.$group {
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
            fn encode(self) -> Json {
                Json::Obj(vec![$((stringify!($field).to_string(), self.$field.encode())),*])
            }
        }

        layout!($($rest)*);
    };
    ($(#[$meta:meta])* record $name:ident = $kind:literal {
        $($field:ident: $ty:ty,)*
    } $(+ $group:ident: $gty:ident)*; $($rest:tt)*) => {
        layout!(@struct $(#[$meta])* $name { $($field: $ty,)* } $(+ $group: $gty)*);

        impl $name {
            /// The record's `type`.
            pub const KIND: &'static str = $kind;
            /// The published layout of this record kind.
            pub const LAYOUT: Layout = Layout {
                kind: $kind,
                fields: &["type", $(stringify!($field)),*],
                extensions: &[$((stringify!($group), $gty::FIELDS)),*],
            };

            /// The record, its fields in published order.
            pub fn into_json(self) -> Json {
                let mut out =
                    Vec::with_capacity(Self::LAYOUT.fields.len() $(+ $gty::FIELDS.len())*);
                out.push(("type".to_string(), Json::from($kind)));
                self.write_fields(&mut out);
                Json::Obj(out)
            }
        }

        layout!($($rest)*);
    };
    ($(#[$meta:meta])* object $name:ident {
        $($field:ident: $ty:ty,)*
    }; $($rest:tt)*) => {
        layout!(@struct $(#[$meta])* $name { $($field: $ty,)* });

        impl $name {
            /// The object's ordered fields.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),*];
        }

        impl Encode for $name {
            fn encode(self) -> Json {
                let mut out = Vec::with_capacity(Self::FIELDS.len());
                self.write_fields(&mut out);
                Json::Obj(out)
            }
        }

        layout!($($rest)*);
    };
}

layout! {
    /// The replay closure: the first record of every trace, carrying every
    /// builder parameter that shapes the byte stream (see [`crate::replay`]).
    /// The span mode, an observer toggle, is trace-invariant and excluded.
    decode record RunConfig = "run_config" {
        seed: u64, nodes: usize, db_pages: u32, buffer_pages_per_node: usize, theta: f64,
        goal_ms: Option<f64>, goal_rate_per_ms: Option<f64>, goal_quantile: Option<f64>,
        interval_ns: u64, warmup_intervals: u32, controller: Controller,
        goal_range: Option<GoalRange>, satisfaction: SatisfactionMode,
        release_floor_mb: f64, placement: Placement, fabric: Fabric, net_bits_per_sec: u64,
        probe: Probe, tiers: Vec<TierSpec>, tier_policy: TierPolicy,
        fault_plan: Option<FaultPlanRecord>, replayable: bool,
    };
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
    record Interval = "interval" {
        interval: u64, t_ms: f64, class: u64, observed_ms: Option<f64>, goal_ms: f64,
        nogoal_ms: f64, tolerance_ms: f64, satisfied: Option<bool>, settling: bool,
        store_cleared: bool, phase: &'static str, dedicated_mb: f64, level_share: Json,
        class_hit_rate: f64, nogoal_hit_rate: f64, residual_ms: Option<f64>,
    } + quantile: IntervalQuantile + tier: TierExtension;
    /// The `quantile` group of an `interval` record.
    object IntervalQuantile { observed_p_ms: Option<f64>, goal_metric: String, };
    /// The `quantile` group of `optimize` and `goal_change` records.
    object GoalMetricLabel { goal_metric: String, };
    /// The `tier` group of an `interval` record: a [`TierLoad`] per memory
    /// tier, keyed by tier name.
    object TierExtension { tier_occupancy: Json, };
    /// One tier's entry in `tier_occupancy`, cluster-wide.
    object TierLoad { resident: u64, frames: u64, };
    /// Per-node home duty at an interval boundary, one array entry per node.
    record HomeLoad = "home_load" {
        interval: u64, t_ms: f64, home_pages: Vec<u32>, home_reads: Vec<u64>,
        remote_fanin: Vec<u64>,
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

impl RunConfig {
    /// Decodes a parsed `run_config` record. Every field must be present
    /// with its declared type (nullable ones may be `null`), and every
    /// variant name must be known; the error names the offending path.
    pub fn from_record(record: &Json) -> Result<Self, String> {
        Self::decode(Some(record), "", Self::KIND)
    }
}
