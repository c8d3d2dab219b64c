//! Workload catalogue: which interaction model a stream program computes.
//!
//! Every layer of StreamMD — kernel generation, strip layout, SRF
//! sizing, the parallel engine, lints, reporting — used to assume the
//! 9-atom-pair SPC water kernel. [`Workload`] makes that choice
//! explicit so the same builder → intent → `analyze()` → parallel-engine
//! pipeline runs a catalogue of kernels with different flop/word ratios
//! (the MD-Bench observation): three-site water (234 flops/interaction),
//! a plain single-site Lennard-Jones fluid (35), and a charged
//! LJ+Coulomb particle (41).
//!
//! The workload is *derived from the model*, never passed separately —
//! a `WaterBox` built from [`WaterModel::lj_atom`] is an LJ-fluid
//! workload wherever it flows, so datasets, cache keys, and reports stay
//! consistent by construction.

use md_sim::water::WaterModel;
use serde::{Deserialize, Serialize};

/// Interaction model of a stream program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// Three-site rigid water: 9 Coulomb atom pairs + O–O Lennard-Jones
    /// per molecule pair (the paper's kernel).
    Water,
    /// Single-site Lennard-Jones fluid: one LJ term per pair, no
    /// Coulomb — the low arithmetic-intensity end of the catalogue.
    LjFluid,
    /// Single-site charged particle: LJ + Coulomb per pair (adds a
    /// square root and keeps the divide) — higher intensity than LjFluid
    /// at the same record width.
    Charged,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Water, Workload::LjFluid, Workload::Charged];

    /// Classify a particle model. Multi-site models are water-class
    /// (3-site kernels; the `run_*` entry points reject ≥4-site models
    /// with an error, the force field with an assert); single-site
    /// models split on charge.
    pub fn of_model(model: &WaterModel) -> Self {
        if model.num_sites() >= 3 {
            Workload::Water
        } else if model.sites[0].charge != 0.0 {
            Workload::Charged
        } else {
            Workload::LjFluid
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Water => "water",
            Workload::LjFluid => "lj",
            Workload::Charged => "charged",
        }
    }

    /// Interaction sites per molecule record.
    pub fn sites(self) -> usize {
        match self {
            Workload::Water => 3,
            Workload::LjFluid | Workload::Charged => 1,
        }
    }

    /// Words per molecule record (3 coordinates per site). Water's 9 is
    /// the paper's record width; atomic workloads use 3.
    pub fn width(self) -> usize {
        self.sites() * 3
    }

    /// Does the kernel evaluate a Coulomb term?
    pub fn coulomb(self) -> bool {
        !matches!(self, Workload::LjFluid)
    }

    /// Programmer-visible flops per interaction in the expanded-kernel
    /// accounting (water: the paper's 234; atomic values are tested
    /// against the generated kernels).
    pub fn flops_per_interaction(self) -> u64 {
        match self {
            Workload::Water => md_sim::force::FLOPS_PER_INTERACTION,
            Workload::LjFluid => md_sim::atomic::LJ_FLOPS_PER_INTERACTION,
            Workload::Charged => md_sim::atomic::CHARGED_FLOPS_PER_INTERACTION,
        }
    }

    /// Square roots per interaction.
    pub fn sqrts_per_interaction(self) -> u64 {
        match self {
            Workload::Water => md_sim::force::SQRTS_PER_INTERACTION,
            Workload::LjFluid => md_sim::atomic::LJ_SQRTS_PER_INTERACTION,
            Workload::Charged => md_sim::atomic::CHARGED_SQRTS_PER_INTERACTION,
        }
    }

    /// Canonical particle model for this workload (SPC for water).
    pub fn default_model(self) -> WaterModel {
        match self {
            Workload::Water => WaterModel::spc(),
            Workload::LjFluid => WaterModel::lj_atom(),
            Workload::Charged => WaterModel::charged_atom(),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_from_models() {
        assert_eq!(Workload::of_model(&WaterModel::spc()), Workload::Water);
        assert_eq!(Workload::of_model(&WaterModel::tip5p()), Workload::Water);
        assert_eq!(
            Workload::of_model(&WaterModel::lj_atom()),
            Workload::LjFluid
        );
        assert_eq!(
            Workload::of_model(&WaterModel::charged_atom()),
            Workload::Charged
        );
    }

    #[test]
    fn default_models_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::of_model(&w.default_model()), w);
        }
    }

    #[test]
    fn record_widths() {
        assert_eq!(Workload::Water.width(), 9);
        assert_eq!(Workload::LjFluid.width(), 3);
        assert_eq!(Workload::Charged.width(), 3);
    }

    #[test]
    fn intensity_ordering_water_above_charged_above_lj() {
        // Flop/word at equal record width: charged > LJ; water tops both.
        let per_word = |w: Workload| w.flops_per_interaction() as f64 / w.width() as f64;
        assert!(per_word(Workload::Water) > per_word(Workload::Charged));
        assert!(per_word(Workload::Charged) > per_word(Workload::LjFluid));
    }

    #[test]
    fn op_mix() {
        assert_eq!(Workload::LjFluid.sqrts_per_interaction(), 0);
        assert_eq!(Workload::Charged.sqrts_per_interaction(), 1);
        assert!(!Workload::LjFluid.coulomb());
        assert!(Workload::Charged.coulomb());
    }
}
