//! Pentium 4 performance estimate for the Figure 9 comparison.
//!
//! The paper estimates the baseline from wall-clock time of GROMACS on
//! the same dataset. We combine the published characteristics of the
//! GROMACS 3.x SSE water loop (~130 cycles per molecule-pair
//! interaction on a Northwood P4, including list traversal and memory
//! stalls) over the list's interactions, and report the same
//! solution-GFLOPS metric as the Merrimac rows.

use md_sim::force::FLOPS_PER_INTERACTION;
use md_sim::neighbor::NeighborList;
use merrimac_arch::P4Config;

/// Baseline estimate for one force step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P4Estimate {
    /// Molecule-pair interactions evaluated.
    pub interactions: u64,
    /// Modelled P4 force-phase time (seconds).
    pub seconds: f64,
    /// Solution GFLOPS under the paper's 234-flop accounting.
    pub solution_gflops: f64,
}

/// Estimate the baseline on `list`: the GROMACS-like loop evaluates
/// every listed molecule pair, so the list's pair count is its
/// interaction count.
pub fn estimate(cfg: &P4Config, list: &NeighborList) -> P4Estimate {
    let interactions = list.num_pairs() as u64;
    P4Estimate {
        interactions,
        seconds: cfg.force_time_seconds(interactions),
        solution_gflops: cfg.solution_gflops(interactions, FLOPS_PER_INTERACTION),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gromacs_like::water_water_forces_sse_like;
    use md_sim::neighbor::NeighborListParams;
    use md_sim::system::WaterBox;

    #[test]
    fn estimate_scales_with_interactions() {
        let cfg = P4Config::default();
        let sys = WaterBox::builder().molecules(64).seed(8).build();
        let params = NeighborListParams {
            cutoff: (0.45 * sys.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let list = NeighborList::build(&sys, params);
        let est = estimate(&cfg, &list);
        assert_eq!(est.interactions as usize, list.num_pairs());
        let loop_ran = water_water_forces_sse_like(&sys, &list);
        assert_eq!(est.interactions, loop_ran.interactions);
        assert!(est.seconds > 0.0);
        assert!(est.solution_gflops > 0.5 && est.solution_gflops < 10.0);
    }

    #[test]
    fn paper_dataset_single_digit_gflops() {
        // Figure 9's P4 bar: a few solution GFLOPS at ~62k interactions.
        let cfg = P4Config::default();
        let g = cfg.solution_gflops(61_680, FLOPS_PER_INTERACTION);
        assert!(g > 2.0 && g < 8.0, "P4 = {g} GFLOPS");
    }
}
