//! Analytic ("calculated") arithmetic-intensity models — the left column
//! of the paper's Table 4 — plus the per-variant word-traffic formulas of
//! Section 3.3.
//!
//! Conventions match the paper: arithmetic intensity is the ratio of
//! *computed* interaction flops (234 per evaluated molecule pair,
//! including dummy and duplicated evaluations — they occupy the machine
//! just the same) to words moved between the SRF and memory.

use serde::{Deserialize, Serialize};

use md_sim::force::FLOPS_PER_INTERACTION;
use merrimac_sim::{FallbackKind, RunReport};

use crate::variant::Variant;

/// Per-phase cycle breakdown of one simulated step — the structured
/// counters the perf-trend harness tracks across commits. Wraps the
/// simulator's raw [`merrimac_sim::PhaseCycles`] with the
/// scoreboard-stall count and fraction helpers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Memory-unit cycles spent on index gathers.
    pub gather_cycles: u64,
    /// Memory-unit cycles spent on sequential stream loads.
    pub load_cycles: u64,
    /// Cluster-array cycles spent running interaction kernels.
    pub kernel_cycles: u64,
    /// Memory-unit cycles spent on scatter-add force reductions.
    pub scatter_add_cycles: u64,
    /// Memory-unit cycles spent on sequential stores.
    pub store_cycles: u64,
    /// Cycles the memory unit idled with work ready but no stream
    /// descriptor register free (the Figure 7 pathology).
    pub sdr_stall_cycles: u64,
    /// Did the strip partitioner admit the step's program to the
    /// parallel (per-strip sharded) execution engine?
    pub partition_parallelized: bool,
    /// Strip groups the partitioner formed.
    pub partition_strips: u32,
    /// Why the program fell back to the serial scoreboard, if it did.
    pub partition_fallback: Option<FallbackKind>,
    /// Multi-node step breakdown, when the step ran through the
    /// multi-node runner (`streammd::multinode`). `None` for plain
    /// single-processor steps, which reports write as `null`.
    pub multinode: Option<MultiNodeBreakdown>,
}

/// Per-step summary of a simulated multi-node execution: compute on the
/// busiest and average node, halo-exchange communication, and the
/// resulting barrier-to-barrier step. All fields are integer cycle /
/// word counts so [`PhaseBreakdown`] stays `Copy + Eq`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiNodeBreakdown {
    /// Simulated node count.
    pub nodes: u32,
    /// Compute cycles on the busiest node (critical path).
    pub compute_cycles_max: u64,
    /// Mean per-node compute cycles (rounded).
    pub compute_cycles_mean: u64,
    /// Worst per-node communication cycles (halo import + force
    /// return, two dependent phases).
    pub comm_cycles_max: u64,
    /// Barrier-to-barrier step cycles: max over nodes of
    /// import + compute + return.
    pub step_cycles: u64,
    /// Total halo position words imported across all nodes.
    pub halo_in_words: u64,
    /// Total remote partial-force words returned across all nodes.
    pub force_out_words: u64,
}

impl MultiNodeBreakdown {
    /// Compute load imbalance: busiest node over the mean, minus one
    /// (0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.compute_cycles_mean == 0 {
            return 0.0;
        }
        self.compute_cycles_max as f64 / self.compute_cycles_mean as f64 - 1.0
    }
}

impl PhaseBreakdown {
    pub fn from_report(report: &RunReport) -> Self {
        Self {
            gather_cycles: report.phases.gather,
            load_cycles: report.phases.load,
            kernel_cycles: report.phases.kernel,
            scatter_add_cycles: report.phases.scatter_add,
            store_cycles: report.phases.store,
            sdr_stall_cycles: report.sdr_stall_cycles,
            partition_parallelized: report.partition.parallelized,
            partition_strips: report.partition.strips,
            partition_fallback: report.partition.fallback,
            multinode: None,
        }
    }

    /// Fraction of `makespan` each phase occupied (gather, load, kernel,
    /// scatter-add, store). Phases overlap across units, so the
    /// fractions can legitimately sum past 1.
    pub fn fractions(&self, makespan: u64) -> (f64, f64, f64, f64, f64) {
        let t = (makespan as f64).max(1.0);
        (
            self.gather_cycles as f64 / t,
            self.load_cycles as f64 / t,
            self.kernel_cycles as f64 / t,
            self.scatter_add_cycles as f64 / t,
            self.store_cycles as f64 / t,
        )
    }
}

/// Closed-form per-iteration word traffic and intensity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticModel {
    pub variant: Variant,
    /// Memory words per computed interaction.
    pub words_per_interaction: f64,
    /// Flops per computed interaction (always 234 + small per-block
    /// amortized terms).
    pub flops_per_interaction: f64,
    /// Calculated arithmetic intensity.
    pub intensity: f64,
}

impl AnalyticModel {
    /// Idealized model (infinite dataset, mean neighbour count `nbar`
    /// for the `variable` variant, block length `l` for block variants).
    pub fn ideal(variant: Variant, l: usize, nbar: f64) -> Self {
        let l = l as f64;
        // Word budgets per computed interaction, from the stream layout
        // this crate actually builds (see `layout`):
        //   expanded:   c_pos 9 + shift 9 + n_pos 9 + 3 index = 30 in,
        //               c+n partials 18 out                   = 48 total
        //   fixed(L):   per block: c_pos 9 + shift 9 + 2 idx + L·(9+1) in,
        //               9 + 9L out → (29 + 19L)/L per interaction
        //   variable:   n_pos 9 + flag 1 + idx 1 + partial 9 = 20 per
        //               iteration, plus (18 + 9 + 1)/n̄ per centre
        //   duplicated: per block: 29 + 10L → (29 + 10L)/L
        let words = match variant {
            Variant::Expanded => 48.0,
            Variant::Fixed => (29.0 + 19.0 * l) / l,
            Variant::Variable => 20.0 + 28.0 / nbar.max(1.0),
            Variant::Duplicated => (29.0 + 10.0 * l) / l,
        };
        let flops = match variant {
            // Shift amortizes over the block; the cross-block centre
            // accumulation adds 9 adds per interaction.
            Variant::Fixed | Variant::Duplicated => FLOPS_PER_INTERACTION as f64 + 9.0 / l,
            Variant::Variable => FLOPS_PER_INTERACTION as f64 + 9.0,
            Variant::Expanded => FLOPS_PER_INTERACTION as f64,
        };
        Self {
            variant,
            words_per_interaction: words,
            flops_per_interaction: flops,
            intensity: flops / words,
        }
    }

    /// Dataset-aware model (the parenthesized Table 4 numbers): accounts
    /// for dummy padding and centre replication using the actual counts.
    pub fn for_dataset(
        variant: Variant,
        l: usize,
        real_pairs: u64,
        padded_slots: u64,
        blocks: u64,
        centers: u64,
    ) -> Self {
        let ideal = Self::ideal(variant, l, real_pairs as f64 / centers.max(1) as f64);
        let (computed, words) = match variant {
            Variant::Expanded => (real_pairs as f64, real_pairs as f64 * 48.0),
            Variant::Fixed => {
                let w = blocks as f64 * (29.0 + 19.0 * l as f64);
                (padded_slots as f64, w)
            }
            Variant::Duplicated => {
                let w = blocks as f64 * (29.0 + 10.0 * l as f64);
                (padded_slots as f64, w)
            }
            Variant::Variable => {
                // 20 words per kernel iteration plus the 28-word centre
                // budget (18-word centre record + 9-word accumulated
                // force + 1 flag sentinel), matching `ideal`.
                let iters = real_pairs as f64;
                let w = iters * 20.0 + centers as f64 * 28.0;
                (iters, w)
            }
        };
        let flops = computed * ideal.flops_per_interaction;
        Self {
            variant,
            words_per_interaction: words / computed.max(1.0),
            flops_per_interaction: ideal.flops_per_interaction,
            intensity: flops / words.max(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expanded_matches_paper_48_words() {
        let m = AnalyticModel::ideal(Variant::Expanded, 8, 70.0);
        assert_eq!(m.words_per_interaction, 48.0);
        assert!((m.intensity - 234.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_l8_words_near_paper() {
        // Paper Section 3.3 reports ~23.6 words/iteration at L = 8 (our
        // layout books 22.625 — same accounting structure, one fewer
        // index stream).
        let m = AnalyticModel::ideal(Variant::Fixed, 8, 70.0);
        assert!((m.words_per_interaction - 22.625).abs() < 1e-12);
        assert!(m.intensity > 10.0 && m.intensity < 11.0);
    }

    #[test]
    fn duplicated_has_highest_intensity() {
        let e = AnalyticModel::ideal(Variant::Expanded, 8, 70.0).intensity;
        let f = AnalyticModel::ideal(Variant::Fixed, 8, 70.0).intensity;
        let v = AnalyticModel::ideal(Variant::Variable, 8, 70.0).intensity;
        let d = AnalyticModel::ideal(Variant::Duplicated, 8, 70.0).intensity;
        assert!(d > v && d > f && d > e, "d={d} v={v} f={f} e={e}");
        assert!(v > e && f > e);
    }

    #[test]
    fn intensity_ordering_matches_table4() {
        // Table 4: expanded ~4.9 < fixed ~10-12 ≈ variable ~12 < duplicated ~17-18.
        let e = AnalyticModel::ideal(Variant::Expanded, 8, 70.0).intensity;
        let d = AnalyticModel::ideal(Variant::Duplicated, 8, 70.0).intensity;
        assert!((4.0..6.0).contains(&e));
        assert!((15.0..20.0).contains(&d));
    }

    #[test]
    fn dataset_model_degrades_with_padding() {
        let ideal = AnalyticModel::ideal(Variant::Fixed, 8, 70.0);
        // 10% dummy slots: measured intensity in useful-flop terms drops,
        // but computed-flop intensity stays identical; the dataset model
        // reports computed-flop intensity, so equal here.
        let ds = AnalyticModel::for_dataset(Variant::Fixed, 8, 900, 1000, 125, 900);
        assert!((ds.intensity - ideal.intensity).abs() < 1e-9);
    }

    #[test]
    fn variable_dataset_model_counts_centres() {
        let ds = AnalyticModel::for_dataset(Variant::Variable, 8, 6168, 0, 0, 90);
        assert!(ds.words_per_interaction > 20.0);
        assert!(ds.words_per_interaction < 21.0);
    }

    #[test]
    fn variable_dataset_model_matches_centre_budget_exactly() {
        // Each centre costs exactly 28 words (18-word record + 9-word
        // force + 1 flag) amortized over its real pairs; iterations are
        // the real pairs alone.
        let (real_pairs, centers) = (6168u64, 90u64);
        let ds = AnalyticModel::for_dataset(Variant::Variable, 8, real_pairs, 0, 0, centers);
        let expect = 20.0 + 28.0 * centers as f64 / real_pairs as f64;
        assert!((ds.words_per_interaction - expect).abs() < 1e-12);
        // And it agrees with the ideal model evaluated at the dataset's
        // mean neighbour count n̄ = pairs/centres.
        let ideal = AnalyticModel::ideal(Variant::Variable, 8, real_pairs as f64 / centers as f64);
        assert!((ds.words_per_interaction - ideal.words_per_interaction).abs() < 1e-12);
        assert!((ds.intensity - ideal.intensity).abs() < 1e-12);
    }
}
