//! Benefit pricing for the cost-based replacement of §6.
//!
//! "The benefit of a page is defined as the difference in the access cost
//! between keeping the page in the local cache versus dropping it." For a
//! copy of page `p` held at node `i` in memory tier `t`:
//!
//! * the **local** term: the node's own future accesses (rate = the heat the
//!   pool ranks by: the class heat in a dedicated pool, the accumulated heat
//!   in the no-goal pool) would pay the *next rung's* cost instead of the
//!   tier-`t` hit cost. On the last memory tier the next rung is off-node:
//!   `C_remote` (another copy exists) or `C_disk` (this is the last copy).
//!   On an intermediate tier the drop is a demotion to tier `t+1`, still on
//!   this node.
//! * the **global** term (altruism): only when the drop would leave the node
//!   entirely — i.e. from the last memory tier — and this is the last cached
//!   copy, every *other* node's accesses (rate ≈ global heat − local heat)
//!   would pay `C_disk` instead of `C_remote`. A demotion keeps the copy
//!   servable over the LAN, so intermediate tiers carry no global term.
//!
//! Balancing these two terms is exactly the egoistic-vs-altruistic trade-off
//! of \[27, 26\]: a locally cold but globally hot last copy stays cached, a
//! page with plenty of remote copies competes on local merit only. With the
//! default single-memory-tier ladder (`mem_tier = 0` is also the last
//! memory tier) this reduces bit-exactly to the original two-term formula.

use crate::costs::AccessCosts;

/// Inputs to one benefit computation, assembled by the data plane.
#[derive(Debug, Clone, Copy)]
pub struct BenefitInputs {
    /// Heat the holding pool ranks by (class heat in a dedicated pool,
    /// accumulated heat in the no-goal pool), accesses/ms.
    pub ranking_heat_per_ms: f64,
    /// System-wide heat of the page, accesses/ms.
    pub global_heat_per_ms: f64,
    /// True if this node holds the only cached copy.
    pub last_copy: bool,
    /// True if the page's home is this node (disk fallback is local).
    pub home_is_local: bool,
    /// Local memory tier currently holding the copy (0 = fastest). With the
    /// default ladder this is always 0.
    pub mem_tier: u8,
}

/// Benefit of keeping the copy, in expected milliseconds saved per
/// millisecond of residency (dimensionless rate × ms).
#[inline]
pub fn benefit_ms(inputs: BenefitInputs, costs: &AccessCosts) -> f64 {
    let t = inputs.mem_tier as usize;
    debug_assert!(t < costs.mem_tiers());
    let c_keep = costs.estimate_ms(costs.hit_slot(t));

    if t + 1 < costs.mem_tiers() {
        // Dropping from an intermediate tier demotes to tier t+1 on this
        // node: the copy count is unchanged, so no global term.
        let c_drop = costs.estimate_ms(costs.hit_slot(t + 1));
        return inputs.ranking_heat_per_ms * (c_drop - c_keep).max(0.0);
    }

    let c_remote = costs.estimate_ms(costs.remote_hit_slot());
    let c_disk = if inputs.home_is_local {
        costs.estimate_ms(costs.local_disk_slot())
    } else {
        costs.estimate_ms(costs.remote_disk_slot())
    };

    let c_drop_local = if inputs.last_copy { c_disk } else { c_remote };
    let local_term = inputs.ranking_heat_per_ms * (c_drop_local - c_keep).max(0.0);

    let global_term = if inputs.last_copy {
        let remote_heat = (inputs.global_heat_per_ms - inputs.ranking_heat_per_ms).max(0.0);
        remote_heat * (c_disk - c_remote).max(0.0)
    } else {
        0.0
    };

    local_term + global_term
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::{TierLadder, TierSpec};

    fn costs() -> AccessCosts {
        AccessCosts::default() // priors: 0.03 / 0.5 / 12.6 / 13.1 ms
    }

    #[test]
    fn replicated_page_priced_on_local_merit() {
        let b = benefit_ms(
            BenefitInputs {
                ranking_heat_per_ms: 0.1,
                global_heat_per_ms: 5.0, // global heat irrelevant here
                last_copy: false,
                home_is_local: false,
                mem_tier: 0,
            },
            &costs(),
        );
        // 0.1 × (0.5 − 0.03).
        assert!((b - 0.047).abs() < 1e-9);
    }

    #[test]
    fn last_copy_gains_altruistic_term() {
        let common = BenefitInputs {
            ranking_heat_per_ms: 0.1,
            global_heat_per_ms: 0.5,
            last_copy: false,
            home_is_local: false,
            mem_tier: 0,
        };
        let replicated = benefit_ms(common, &costs());
        let last = benefit_ms(
            BenefitInputs {
                last_copy: true,
                ..common
            },
            &costs(),
        );
        assert!(
            last > replicated * 10.0,
            "last copy must be far more valuable: {last} vs {replicated}"
        );
    }

    #[test]
    fn globally_hot_last_copy_beats_locally_hotter_replicated_page() {
        // Egoism vs altruism: a locally cold last copy of a globally hot page
        // outranks a locally warm page with other copies in the system.
        let cold_last = benefit_ms(
            BenefitInputs {
                ranking_heat_per_ms: 0.01,
                global_heat_per_ms: 1.0,
                last_copy: true,
                home_is_local: false,
                mem_tier: 0,
            },
            &costs(),
        );
        let warm_replicated = benefit_ms(
            BenefitInputs {
                ranking_heat_per_ms: 0.2,
                global_heat_per_ms: 0.2,
                last_copy: false,
                home_is_local: false,
                mem_tier: 0,
            },
            &costs(),
        );
        assert!(cold_last > warm_replicated);
    }

    #[test]
    fn zero_heat_zero_benefit() {
        let b = benefit_ms(
            BenefitInputs {
                ranking_heat_per_ms: 0.0,
                global_heat_per_ms: 0.0,
                last_copy: true,
                home_is_local: true,
                mem_tier: 0,
            },
            &costs(),
        );
        assert_eq!(b, 0.0);
    }

    #[test]
    fn local_home_uses_local_disk_cost() {
        let local = benefit_ms(
            BenefitInputs {
                ranking_heat_per_ms: 1.0,
                global_heat_per_ms: 1.0,
                last_copy: true,
                home_is_local: true,
                mem_tier: 0,
            },
            &costs(),
        );
        let remote = benefit_ms(
            BenefitInputs {
                ranking_heat_per_ms: 1.0,
                global_heat_per_ms: 1.0,
                last_copy: true,
                home_is_local: false,
                mem_tier: 0,
            },
            &costs(),
        );
        assert!(remote > local, "remote-disk fallback is more expensive");
    }

    #[test]
    fn intermediate_tier_prices_demotion_without_global_term() {
        let ladder = TierLadder::new(vec![
            TierSpec::new("dram", 0.03),
            TierSpec::new("cxl", 0.25).frames(64),
            TierSpec::new("remote", 0.5),
            TierSpec::new("disk", 12.6),
        ])
        .unwrap();
        let costs = AccessCosts::for_ladder(0.05, &ladder);
        let common = BenefitInputs {
            ranking_heat_per_ms: 0.1,
            global_heat_per_ms: 10.0,
            last_copy: true, // irrelevant on an intermediate tier
            home_is_local: false,
            mem_tier: 0,
        };
        let b = benefit_ms(common, &costs);
        // 0.1 × (0.25 − 0.03): demotion to cxl, no altruism despite the
        // huge global heat, because the copy stays on the node.
        assert!((b - 0.1 * 0.22).abs() < 1e-9);
        // The last memory tier prices exactly like the classic formula.
        let last_tier = benefit_ms(
            BenefitInputs {
                mem_tier: 1,
                ..common
            },
            &costs,
        );
        assert!(last_tier > b * 10.0, "off-node drop dominates: {last_tier}");
    }
}
