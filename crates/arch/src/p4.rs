//! Cost model of the paper's baseline: a 2.4 GHz Intel Pentium 4
//! (Northwood, 90 nm-equivalent process) running the hand-optimized
//! GROMACS water-water inner loop with single-precision SSE.
//!
//! The paper estimates the P4 result from wall-clock time of the same
//! dataset, assuming the force loop accounts for most of the run. We model
//! cycles per molecule-pair interaction from the published structure of
//! the GROMACS 3.x `inl1130` water-water loop (9 Coulomb pairs + 1 LJ
//! pair, SSE packed single, software `rsqrtps` + one Newton iteration) and
//! expose the same "solution GFLOPS" metric Figure 9 reports.

use serde::{Deserialize, Serialize};

/// Pentium 4 baseline parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P4Config {
    /// Core frequency in Hz (2.4 GHz).
    pub clock_hz: f64,
    /// Cycles per molecule-pair interaction achieved by the hand-tuned SSE
    /// loop, including neighbour-list traversal overhead and the memory
    /// stalls measured in GROMACS benchmark reports (~130 cycles/pair).
    pub cycles_per_interaction: f64,
    /// Fraction of total MD step time spent in the water-water force loop
    /// for a pure-water system (the paper assumes the force calculation
    /// dominates; GROMACS reports ~90% for water boxes).
    pub force_fraction: f64,
}

impl Default for P4Config {
    fn default() -> Self {
        Self {
            clock_hz: 2.4e9,
            cycles_per_interaction: 130.0,
            force_fraction: 0.90,
        }
    }
}

impl P4Config {
    /// Seconds the P4 needs for the force phase of one time step with
    /// `interactions` molecule-pair interactions.
    pub fn force_time_seconds(&self, interactions: u64) -> f64 {
        interactions as f64 * self.cycles_per_interaction / self.clock_hz
    }

    /// Solution GFLOPS: programmer-visible flops (234 per interaction, the
    /// same accounting as Merrimac) divided by force-phase time.
    pub fn solution_gflops(&self, interactions: u64, flops_per_interaction: u64) -> f64 {
        let t = self.force_time_seconds(interactions);
        if t == 0.0 {
            return 0.0;
        }
        interactions as f64 * flops_per_interaction as f64 / t / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a_2_4_ghz_part() {
        let p = P4Config::default();
        assert!((p.clock_hz - 2.4e9).abs() < 1.0);
        assert!(p.cycles_per_interaction > 50.0 && p.cycles_per_interaction < 500.0);
    }

    #[test]
    fn solution_gflops_sane_for_paper_dataset() {
        let p = P4Config::default();
        // ~62k interactions, 234 flops each: the paper's Figure 9 P4 bar is
        // a handful of GFLOPS; our model must land in the single digits.
        let g = p.solution_gflops(61_680, 234);
        assert!(g > 1.0 && g < 10.0, "P4 solution GFLOPS = {g}");
    }

    #[test]
    fn zero_interactions() {
        let p = P4Config::default();
        assert_eq!(p.solution_gflops(0, 234), 0.0);
        assert_eq!(p.force_time_seconds(0), 0.0);
    }
}
