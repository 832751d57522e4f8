//! The data-driven storage hierarchy: an ordered ladder of [`TierSpec`]s.
//!
//! The paper's cost model is a fixed three-rung ladder — local buffer,
//! remote buffer, disk. This module generalizes it into an arbitrary
//! K-level hierarchy (e.g. DRAM over CXL-style far memory over remote
//! memory over disk) described by data instead of an enum: each rung names
//! itself, quotes its hit latency, and — for the intermediate memory tiers —
//! caps its per-node capacity in frames and optionally its bandwidth.
//!
//! Ladder shape (validated by [`TierLadder::new`]):
//!
//! * positions `0 .. K−2` are **local memory tiers**, fastest first. Tier 0
//!   may leave `frames` unset to inherit the node's configured buffer size;
//!   every deeper memory tier must pin a nonzero capacity.
//! * position `K−2` is the **remote rung** — another node's memory over the
//!   LAN. Unbounded (`frames` unset): capacity lives on the other nodes.
//! * position `K−1` is the **disk rung**. Unbounded: every page has a disk
//!   home.
//!
//! The default ladder is exactly the paper's: `local` (0.03 ms) / `remote`
//! (0.5 ms) / `disk` (12.6 ms). Its derived cost-slot names and priors are
//! bit-identical to the historical hardcoded ones, which is what keeps
//! default-configuration traces byte-identical (DESIGN.md §5i).

use dmm_sim::SimDuration;

use crate::costs::CostSlot;
use crate::params::PAGE_BYTES;

/// Index of a tier within its [`TierLadder`] (0 = fastest local memory;
/// the last two indices are the remote and disk rungs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(pub u8);

impl TierId {
    /// The tier's position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One rung of the storage hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Stable snake-case name; used to derive metric and trace keys.
    pub name: String,
    /// Unloaded access latency of a hit in this tier, milliseconds.
    pub hit_ms: f64,
    /// Per-node capacity in page frames. `None` on tier 0 inherits the
    /// node's configured buffer size; must be `None` on the remote and disk
    /// rungs (their capacity is not a local property).
    pub frames: Option<usize>,
    /// Sustained transfer bandwidth in bytes/second, if the tier is
    /// bandwidth-capped (CXL-style far memory). Adds a per-page transfer
    /// term to the tier's service time.
    pub bandwidth_bytes_per_sec: Option<u64>,
}

impl TierSpec {
    /// A tier with `name` and `hit_ms`, no pinned capacity and no bandwidth
    /// cap. Chain [`TierSpec::frames`] / [`TierSpec::bandwidth`] to refine.
    pub fn new(name: impl Into<String>, hit_ms: f64) -> Self {
        TierSpec {
            name: name.into(),
            hit_ms,
            frames: None,
            bandwidth_bytes_per_sec: None,
        }
    }

    /// Pins the per-node capacity to `frames` pages.
    pub fn frames(mut self, frames: usize) -> Self {
        self.frames = Some(frames);
        self
    }

    /// Caps the tier's bandwidth (bytes per second).
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bandwidth_bytes_per_sec = Some(bytes_per_sec);
        self
    }

    /// Service time of fetching one page from this tier: the hit latency
    /// plus the page-transfer time when the tier is bandwidth-capped.
    pub fn service_time(&self) -> SimDuration {
        let lat = SimDuration::from_nanos((self.hit_ms * 1_000_000.0).round() as u64);
        match self.bandwidth_bytes_per_sec {
            Some(b) => lat + SimDuration::from_nanos(PAGE_BYTES.saturating_mul(1_000_000_000) / b),
            None => lat,
        }
    }
}

/// Hard cap on the ladder length: cost slots index with a `u8` and every
/// per-tier structure is sized by this — the buffer's inline demotion list
/// included, which is why the two crates share one constant.
pub const MAX_TIERS: usize = dmm_buffer::MAX_TIERS;

/// A validated, ordered storage hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct TierLadder {
    tiers: Vec<TierSpec>,
}

impl Default for TierLadder {
    /// The paper's three-rung NOW hierarchy; see the module docs for why
    /// these exact values are load-bearing.
    fn default() -> Self {
        TierLadder::new(vec![
            TierSpec::new("local", 0.03),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .expect("default ladder is valid")
    }
}

impl TierLadder {
    /// Validates and constructs a ladder. Errors describe the violated
    /// rule: at least 3 and at most [`MAX_TIERS`] tiers, unique nonempty
    /// names, strictly increasing positive finite latencies, nonzero pinned
    /// capacities on intermediate memory tiers, unbounded remote/disk rungs,
    /// positive bandwidth caps.
    pub fn new(tiers: Vec<TierSpec>) -> Result<Self, String> {
        if tiers.len() < 3 {
            return Err(format!(
                "a tier ladder needs at least 3 rungs (local memory, remote, disk), got {}",
                tiers.len()
            ));
        }
        if tiers.len() > MAX_TIERS {
            return Err(format!(
                "a tier ladder supports at most {MAX_TIERS} rungs, got {}",
                tiers.len()
            ));
        }
        let mem_tiers = tiers.len() - 2;
        for (i, t) in tiers.iter().enumerate() {
            if t.name.is_empty() {
                return Err(format!("tier {i} has an empty name"));
            }
            if tiers[..i].iter().any(|o| o.name == t.name) {
                return Err(format!("duplicate tier name {:?}", t.name));
            }
            if t.hit_ms <= 0.0 || !t.hit_ms.is_finite() {
                return Err(format!(
                    "tier {:?} needs a positive finite hit latency, got {} ms",
                    t.name, t.hit_ms
                ));
            }
            if i > 0 && tiers[i - 1].hit_ms >= t.hit_ms {
                return Err(format!(
                    "tier latencies must be strictly increasing: {:?} ({} ms) is not \
                     slower than {:?} ({} ms)",
                    t.name,
                    t.hit_ms,
                    tiers[i - 1].name,
                    tiers[i - 1].hit_ms
                ));
            }
            if let Some(b) = t.bandwidth_bytes_per_sec {
                if b == 0 {
                    return Err(format!("tier {:?} has a zero bandwidth cap", t.name));
                }
            }
            match t.frames {
                Some(0) => {
                    return Err(format!("tier {:?} has zero capacity", t.name));
                }
                Some(_) if i >= mem_tiers => {
                    return Err(format!(
                        "tier {:?} is the {} rung; its capacity is not a local property \
                         and must be left unset",
                        t.name,
                        if i == mem_tiers { "remote" } else { "disk" }
                    ));
                }
                None if i > 0 && i < mem_tiers => {
                    return Err(format!(
                        "intermediate memory tier {:?} must pin a nonzero frame capacity",
                        t.name
                    ));
                }
                _ => {}
            }
        }
        Ok(TierLadder { tiers })
    }

    /// Number of rungs, including the remote and disk rungs.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Ladders are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All rungs, fastest first.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// The rung at `tier`.
    pub fn get(&self, tier: TierId) -> &TierSpec {
        &self.tiers[tier.index()]
    }

    /// Number of *local memory* tiers (everything above the remote rung).
    pub fn num_memory_tiers(&self) -> usize {
        self.tiers.len() - 2
    }

    /// The remote rung.
    pub fn remote(&self) -> &TierSpec {
        &self.tiers[self.tiers.len() - 2]
    }

    /// The disk rung.
    pub fn disk(&self) -> &TierSpec {
        &self.tiers[self.tiers.len() - 1]
    }

    /// True when the ladder goes beyond the paper's single local memory
    /// tier. Extended ladders unlock the tier trace fields and the
    /// promotion/demotion protocol; the default ladder keeps the exact
    /// historical behaviour (and byte-identical traces).
    pub fn is_extended(&self) -> bool {
        self.num_memory_tiers() > 1
    }

    /// Per-node frame capacity of every memory tier, with tier 0 inheriting
    /// `default_tier0_frames` when unpinned.
    pub fn memory_frames(&self, default_tier0_frames: usize) -> Vec<usize> {
        (0..self.num_memory_tiers())
            .map(|t| match self.tiers[t].frames {
                Some(f) => f,
                None => default_tier0_frames,
            })
            .collect()
    }

    /// Number of cost slots the ladder prices: one hit slot per memory
    /// tier, the remote-hit slot, and the local/remote disk pair.
    pub fn num_slots(&self) -> usize {
        self.num_memory_tiers() + 3
    }

    /// Cost slot of a hit in memory tier `t`.
    pub fn hit_slot(&self, t: usize) -> CostSlot {
        debug_assert!(t < self.num_memory_tiers());
        CostSlot(t as u8)
    }

    /// Cost slot of a remote-memory hit.
    pub fn remote_hit_slot(&self) -> CostSlot {
        CostSlot(self.num_memory_tiers() as u8)
    }

    /// Cost slot of a local-disk read.
    pub fn local_disk_slot(&self) -> CostSlot {
        CostSlot(self.num_memory_tiers() as u8 + 1)
    }

    /// Cost slot of a remote-disk read.
    pub fn remote_disk_slot(&self) -> CostSlot {
        CostSlot(self.num_memory_tiers() as u8 + 2)
    }

    /// Stable metric/trace name per cost slot: `{tier}_hit` for the memory
    /// tiers and the remote rung, `local_{disk}` / `remote_{disk}` for the
    /// disk pair. The default ladder yields the historical
    /// `local_hit` / `remote_hit` / `local_disk` / `remote_disk`.
    pub fn slot_names(&self) -> Vec<String> {
        let mem = self.num_memory_tiers();
        let mut names: Vec<String> = (0..mem)
            .map(|t| format!("{}_hit", self.tiers[t].name))
            .collect();
        names.push(format!("{}_hit", self.remote().name));
        names.push(format!("local_{}", self.disk().name));
        names.push(format!("remote_{}", self.disk().name));
        names
    }

    /// Conservative cost priors per slot, from the quoted latencies: each
    /// memory tier's hit latency, the remote rung's, the disk rung's, and
    /// disk + remote for a remote-disk read (the ship adds a network hop).
    /// For the default ladder this reproduces the historical priors
    /// `[0.03, 0.5, 12.6, 13.1]` bit-exactly.
    pub fn slot_priors(&self) -> Vec<f64> {
        let mem = self.num_memory_tiers();
        let mut priors: Vec<f64> = (0..mem).map(|t| self.tiers[t].hit_ms).collect();
        priors.push(self.remote().hit_ms);
        priors.push(self.disk().hit_ms);
        priors.push(self.disk().hit_ms + self.remote().hit_ms);
        priors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_tier() -> TierLadder {
        TierLadder::new(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25).frames(64).bandwidth(30_000_000),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .expect("valid 4-tier ladder")
    }

    #[test]
    fn default_ladder_reproduces_historical_slots() {
        let l = TierLadder::default();
        assert_eq!(l.num_memory_tiers(), 1);
        assert!(!l.is_extended());
        assert_eq!(
            l.slot_names(),
            vec!["local_hit", "remote_hit", "local_disk", "remote_disk"]
        );
        // Bit-exact: these priors seed the cost estimator, which prices the
        // first evictions of every run — any drift breaks byte-identical
        // traces.
        let priors = l.slot_priors();
        let historical = [0.03f64, 0.5, 12.6, 13.1];
        for (p, h) in priors.iter().zip(historical) {
            assert_eq!(p.to_bits(), h.to_bits(), "prior {p} != historical {h}");
        }
        assert_eq!(l.memory_frames(512), vec![512]);
    }

    #[test]
    fn extended_ladder_layout() {
        let l = four_tier();
        assert_eq!(l.num_memory_tiers(), 2);
        assert!(l.is_extended());
        assert_eq!(l.memory_frames(512), vec![512, 64]);
        assert_eq!(
            l.slot_names(),
            vec![
                "dram_hit",
                "cxl_hit",
                "remote_hit",
                "local_disk",
                "remote_disk"
            ]
        );
        assert_eq!(l.hit_slot(1), CostSlot(1));
        assert_eq!(l.remote_hit_slot(), CostSlot(2));
        assert_eq!(l.remote_disk_slot(), CostSlot(4));
    }

    #[test]
    fn bandwidth_cap_extends_service_time() {
        let l = four_tier();
        let cxl = &l.tiers()[1];
        let uncapped = TierSpec::new("x", 0.25).service_time();
        // 4096 B at 30 MB/s ≈ 136 µs on top of the 250 µs latency.
        assert!(cxl.service_time() > uncapped);
        let extra = cxl.service_time().as_nanos() - uncapped.as_nanos();
        assert_eq!(extra, 4096 * 1_000_000_000 / 30_000_000);
    }

    #[test]
    fn validation_rejects_bad_ladders() {
        let err = |tiers: Vec<TierSpec>| TierLadder::new(tiers).unwrap_err();
        assert!(err(vec![TierSpec::new("a", 1.0), TierSpec::new("b", 2.0)]).contains("at least 3"));
        assert!(err((0..17)
            .map(|i| TierSpec::new(format!("t{i}"), 1.0 + i as f64).frames(1))
            .collect())
        .contains("at most 16"));
        // Non-monotone latencies.
        assert!(err(vec![
            TierSpec::new("a", 0.5),
            TierSpec::new("b", 0.5),
            TierSpec::new("c", 1.0),
        ])
        .contains("strictly increasing"));
        // Zero capacity.
        assert!(err(vec![
            TierSpec::new("a", 0.1).frames(0),
            TierSpec::new("b", 0.5),
            TierSpec::new("c", 1.0),
        ])
        .contains("zero capacity"));
        // Intermediate memory tier without a pinned capacity.
        assert!(err(vec![
            TierSpec::new("a", 0.1),
            TierSpec::new("b", 0.2),
            TierSpec::new("c", 0.5),
            TierSpec::new("d", 1.0),
        ])
        .contains("pin a nonzero frame capacity"));
        // Capacity on the remote/disk rungs.
        assert!(err(vec![
            TierSpec::new("a", 0.1),
            TierSpec::new("b", 0.5).frames(8),
            TierSpec::new("c", 1.0),
        ])
        .contains("remote"));
        // Duplicate names, empty names, bad latencies, zero bandwidth.
        assert!(err(vec![
            TierSpec::new("a", 0.1),
            TierSpec::new("a", 0.5),
            TierSpec::new("c", 1.0),
        ])
        .contains("duplicate"));
        assert!(err(vec![
            TierSpec::new("", 0.1),
            TierSpec::new("b", 0.5),
            TierSpec::new("c", 1.0),
        ])
        .contains("empty name"));
        assert!(err(vec![
            TierSpec::new("a", -0.1),
            TierSpec::new("b", 0.5),
            TierSpec::new("c", 1.0),
        ])
        .contains("positive finite"));
        assert!(err(vec![
            TierSpec::new("a", 0.1).bandwidth(0),
            TierSpec::new("b", 0.5),
            TierSpec::new("c", 1.0),
        ])
        .contains("bandwidth"));
    }
}
