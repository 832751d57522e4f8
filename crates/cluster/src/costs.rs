//! Per-storage-level access-cost estimation.
//!
//! §6: "the access cost to different levels in the storage hierarchy are
//! needed, too. Tagging each page request with the storage level the page has
//! been accessed from, this information can be gathered with low overhead by
//! observing the response times of already finished requests." Each level
//! keeps an exponentially weighted moving average seeded with a conservative
//! prior so benefits are sensible before the first observation.
//!
//! The estimator is sized by the configured [`TierLadder`]:
//! one slot per local memory tier, one for remote-memory hits, and a
//! local/remote pair for the disk rung (the ship over the LAN makes a remote
//! home's disk read strictly more expensive). The historical fixed hierarchy
//! is the default ladder's 4-slot special case.

use crate::tier::TierLadder;

/// Index into the per-slot cost estimates: `0..K_mem` are the local memory
/// tiers' hit slots, then remote hit, local disk, remote disk. Obtain slots
/// from [`TierLadder`] or [`AccessCosts`] accessors rather than hardcoding
/// indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CostSlot(pub u8);

impl CostSlot {
    /// The slot's position as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// EWMA cost (milliseconds) per storage slot.
#[derive(Debug, Clone)]
pub struct AccessCosts {
    alpha: f64,
    mem_tiers: usize,
    est_ms: Vec<f64>,
    observations: Vec<u64>,
}

impl Default for AccessCosts {
    fn default() -> Self {
        Self::new(0.05)
    }
}

impl AccessCosts {
    /// Estimator for the default ladder with smoothing factor
    /// `alpha ∈ (0, 1]` and late-1990s priors (0.03 ms local hit, 0.5 ms
    /// remote hit, ~13 ms disk).
    pub fn new(alpha: f64) -> Self {
        Self::for_ladder(alpha, &TierLadder::default())
    }

    /// Estimator sized and seeded by `ladder`: one slot per memory tier plus
    /// remote hit and the local/remote disk pair, priors from the quoted
    /// tier latencies.
    pub fn for_ladder(alpha: f64, ladder: &TierLadder) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        let est_ms = ladder.slot_priors();
        AccessCosts {
            alpha,
            mem_tiers: ladder.num_memory_tiers(),
            observations: vec![0; est_ms.len()],
            est_ms,
        }
    }

    /// Number of local memory tiers this estimator prices.
    #[inline]
    pub fn mem_tiers(&self) -> usize {
        self.mem_tiers
    }

    /// Number of cost slots.
    pub fn num_slots(&self) -> usize {
        self.est_ms.len()
    }

    /// Slot of a hit in local memory tier `t`.
    #[inline]
    pub fn hit_slot(&self, t: usize) -> CostSlot {
        debug_assert!(t < self.mem_tiers);
        CostSlot(t as u8)
    }

    /// Slot of a remote-memory hit.
    #[inline]
    pub fn remote_hit_slot(&self) -> CostSlot {
        CostSlot(self.mem_tiers as u8)
    }

    /// Slot of a local-disk read.
    #[inline]
    pub fn local_disk_slot(&self) -> CostSlot {
        CostSlot(self.mem_tiers as u8 + 1)
    }

    /// Slot of a remote-disk read.
    #[inline]
    pub fn remote_disk_slot(&self) -> CostSlot {
        CostSlot(self.mem_tiers as u8 + 2)
    }

    /// Records an observed access latency (including queueing) for `slot`.
    pub fn observe(&mut self, slot: CostSlot, latency_ms: f64) {
        debug_assert!(latency_ms >= 0.0);
        let i = slot.index();
        self.observations[i] += 1;
        if self.observations[i] == 1 {
            self.est_ms[i] = latency_ms;
        } else {
            self.est_ms[i] += self.alpha * (latency_ms - self.est_ms[i]);
        }
    }

    /// Current estimate for `slot` in milliseconds.
    #[inline]
    pub fn estimate_ms(&self, slot: CostSlot) -> f64 {
        self.est_ms[slot.index()]
    }

    /// Observation count for `slot`.
    pub fn observations(&self, slot: CostSlot) -> u64 {
        self.observations[slot.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierSpec;

    fn extended() -> TierLadder {
        TierLadder::new(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25).frames(64),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .unwrap()
    }

    #[test]
    fn priors_are_ordered() {
        let c = AccessCosts::default();
        assert!(c.estimate_ms(c.hit_slot(0)) < c.estimate_ms(c.remote_hit_slot()));
        assert!(c.estimate_ms(c.remote_hit_slot()) < c.estimate_ms(c.local_disk_slot()));
    }

    #[test]
    fn default_priors_match_historical_values_bit_exactly() {
        // The estimator's priors price the first evictions of every run;
        // byte-identical default traces require these exact f64 bits.
        let c = AccessCosts::default();
        assert_eq!(c.num_slots(), 4);
        for (i, expect) in [0.03f64, 0.5, 12.6, 13.1].into_iter().enumerate() {
            assert_eq!(c.estimate_ms(CostSlot(i as u8)).to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn first_observation_replaces_prior() {
        let mut c = AccessCosts::new(0.1);
        let s = c.remote_hit_slot();
        c.observe(s, 0.8);
        assert!((c.estimate_ms(s) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges() {
        let mut c = AccessCosts::new(0.2);
        let s = c.local_disk_slot();
        for _ in 0..200 {
            c.observe(s, 15.0);
        }
        assert!((c.estimate_ms(s) - 15.0).abs() < 1e-6);
        assert_eq!(c.observations(s), 200);
    }

    #[test]
    fn ewma_tracks_shifts() {
        let mut c = AccessCosts::new(0.5);
        let s = c.remote_hit_slot();
        c.observe(s, 1.0);
        c.observe(s, 2.0);
        // 1.0 + 0.5·(2−1) = 1.5.
        assert!((c.estimate_ms(s) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn extended_ladder_sizes_estimator() {
        let c = AccessCosts::for_ladder(0.05, &extended());
        assert_eq!(c.mem_tiers(), 2);
        assert_eq!(c.num_slots(), 5);
        assert!((c.estimate_ms(c.hit_slot(1)) - 0.25).abs() < 1e-12);
        assert!((c.estimate_ms(c.remote_disk_slot()) - 13.1).abs() < 1e-12);
    }
}
