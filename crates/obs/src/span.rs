//! Operation-level span taxonomy.
//!
//! A *span* is the exact decomposition of one operation's response time into
//! lifecycle stages, measured in simulated nanoseconds. The stage set is a
//! partition: every nanosecond between an operation's arrival and its
//! completion lands in exactly one [`Stage`], so the per-stage sums
//! reconstruct the response time with integer-exact accounting.
//!
//! The accumulating storage (a [`StageNanos`] array in each in-flight
//! operation's state) lives in the data plane; this module defines the
//! shared vocabulary — the stage set, the [`SpanMode`] knob, and the
//! deterministic sampling rule.

/// Number of lifecycle stages in a span. Stage values index `[u64; STAGES]`.
pub const STAGES: usize = 8;

/// Per-stage accumulated simulated nanoseconds for one operation.
pub type StageNanos = [u64; STAGES];

/// One lifecycle stage of a data-plane operation.
///
/// The stages partition an operation's response time:
///
/// * [`Stage::LocalHit`] — the entire lookup segment (CPU queueing +
///   service) of an access satisfied from the origin node's buffer.
/// * [`Stage::PoolQueue`] — origin-CPU queueing before the lookup or
///   page-install step of a *miss* path (the wait to get at the buffer
///   pool).
/// * [`Stage::NetRequest`] — LAN transit of control messages (request to
///   home, forward to holder, bounce), including medium queueing,
///   serialization and retransmits.
/// * [`Stage::NetTransfer`] — LAN transit of the page ship itself.
/// * [`Stage::RemoteHit`] — queueing + service at the remote (home or
///   holder) node's CPU while it serves the request.
/// * [`Stage::DiskQueue`] — wait in a disk facility's FCFS queue.
/// * [`Stage::DiskService`] — disk service time proper (including any
///   fault-injected stall inflation).
/// * [`Stage::Cpu`] — origin-CPU service time of the lookup and install
///   steps on miss paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Lookup segment of a buffer hit at the origin node.
    LocalHit = 0,
    /// Origin-CPU queueing on miss paths (before lookup / install).
    PoolQueue = 1,
    /// Control-message LAN transit (request, forward, bounce).
    NetRequest = 2,
    /// Page-ship LAN transit.
    NetTransfer = 3,
    /// Remote serve-CPU queueing + service at home/holder.
    RemoteHit = 4,
    /// Disk FCFS queue wait.
    DiskQueue = 5,
    /// Disk service time.
    DiskService = 6,
    /// Origin-CPU service on miss paths (lookup + install).
    Cpu = 7,
}

impl Stage {
    /// Every stage, in index order.
    pub const ALL: [Stage; STAGES] = [
        Stage::LocalHit,
        Stage::PoolQueue,
        Stage::NetRequest,
        Stage::NetTransfer,
        Stage::RemoteHit,
        Stage::DiskQueue,
        Stage::DiskService,
        Stage::Cpu,
    ];

    /// Stable `{stage}_ns` key of every stage, in index order: the field
    /// names of a span record's `stages` object and the suffixes of the
    /// per-stage metric keys.
    pub const FIELDS: [&'static str; STAGES] = [
        "local_hit_ns",
        "pool_queue_ns",
        "net_request_ns",
        "net_transfer_ns",
        "remote_hit_ns",
        "disk_queue_ns",
        "disk_service_ns",
        "cpu_ns",
    ];

    /// Index into a [`StageNanos`] array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How much span machinery a run pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanMode {
    /// No span accumulation at all: no stage sums, no histograms. The
    /// hot path pays one branch per attribution point. The default.
    #[default]
    Off,
    /// Accumulate per-class × per-stage histograms in the metrics
    /// snapshot, but emit no per-operation trace records.
    Histograms,
    /// Histograms plus sampled `span` trace records: one record per
    /// `every` operations, selected deterministically by operation
    /// sequence number so traces stay byte-identical per seed.
    Sampled {
        /// Emit a record for ops whose sequence number is divisible by
        /// this (`every == 1` records every operation). Must be ≥ 1: the
        /// config builder and the data plane reject 0.
        every: u32,
    },
}

impl SpanMode {
    /// Whether any span accumulation happens (histograms at minimum).
    pub fn enabled(&self) -> bool {
        !matches!(self, SpanMode::Off)
    }

    /// The sampling modulus, when per-operation records are requested.
    pub fn sample_every(&self) -> Option<u32> {
        match self {
            SpanMode::Sampled { every } => Some(*every),
            _ => None,
        }
    }

    /// The deterministic sampling rule: sample iff the op's sequence
    /// number is divisible by `every`. Keyed on the workload generator's
    /// sequential op numbering, which depends only on the seed — never on
    /// event interleaving — so sampled traces are byte-identical per seed.
    pub fn samples(&self, op_seq: u64) -> bool {
        match self.sample_every() {
            Some(every) => op_seq.is_multiple_of(u64::from(every)),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            let field = Stage::FIELDS[stage.index()];
            assert!(seen.insert(field), "duplicate name {field}");
        }
        assert_eq!(seen.len(), STAGES);
    }

    #[test]
    fn mode_gates() {
        assert!(!SpanMode::Off.enabled());
        assert!(SpanMode::Histograms.enabled());
        assert!(SpanMode::Histograms.sample_every().is_none());
        let s = SpanMode::Sampled { every: 16 };
        assert_eq!(s.sample_every(), Some(16));
        assert!(s.samples(0) && s.samples(32) && !s.samples(17));
        // No clamp: a zero divisor is rejected where a config is built.
        assert_eq!(SpanMode::Sampled { every: 0 }.sample_every(), Some(0));
        assert!(!SpanMode::Off.samples(0));
    }
}
