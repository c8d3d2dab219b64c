//! Workload catalogue: which interaction model a stream program computes.
//!
//! Every layer of StreamMD — kernel generation, strip layout, SRF
//! sizing, the parallel engine, lints, reporting — used to assume the
//! 9-atom-pair SPC water kernel. [`Workload`] makes that choice
//! explicit so the same builder → intent → `analyze()` → parallel-engine
//! pipeline runs a catalogue of kernels with different flop/word ratios
//! (the MD-Bench observation): N-site rigid water (234 flops per
//! interaction for the paper's three sites, 420 for TIP5P's five), a
//! plain single-site Lennard-Jones fluid (35), and a charged LJ+Coulomb
//! particle (41).
//!
//! N-site water is the paper's Section 5.4: "more advanced models use up
//! to 6 charges… In all those models the location of the charges is
//! considered to be fixed relative to the molecule and thus does not
//! require any additional memory bandwidth… They also lead to a
//! significant increase in arithmetic intensity. Consequently, Merrimac
//! will provide better performance for those more accurate models."
//! Here every site is a gathered 3-word position (a TIP5P record is 15
//! words), so the flops grow 1.8× over SPC while the words grow 1.67×;
//! the paper's stronger "no additional bandwidth" needs the virtual
//! sites derived in-kernel from the three atoms, with their forces
//! redistributed there — the documented next step.
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
    /// N-site rigid water: a Coulomb term per pair of charged sites plus
    /// the O–O Lennard-Jones term per molecule pair. Both fields come
    /// from [`Workload::of_model`]: SPC / TIP3P / PPC are `{3, 0b111}`
    /// (the paper's 9-pair kernel), TIP5P — neutral oxygen, four charges
    /// — is `{5, 0b11110}`.
    Water {
        /// Interaction sites per molecule, site 0 the oxygen.
        sites: usize,
        /// Bit `s` set: site `s` carries a charge.
        charged: u32,
    },
    /// Single-site Lennard-Jones fluid: one LJ term per pair, no
    /// Coulomb — the low arithmetic-intensity end of the catalogue.
    LjFluid,
    /// Single-site charged particle: LJ + Coulomb per pair (adds a
    /// square root and keeps the divide) — higher intensity than LjFluid
    /// at the same record width.
    Charged,
}

impl Workload {
    /// One of each class; water is the paper's three-site kernel.
    pub const ALL: [Workload; 3] = [
        Workload::Water {
            sites: 3,
            charged: 0b111,
        },
        Workload::LjFluid,
        Workload::Charged,
    ];

    /// Sites the charged-site mask of [`Workload::Water`] can hold.
    pub(crate) const MAX_SITES: usize = u32::BITS as usize;

    /// Classify a particle model: two or more sites are N-site water,
    /// single-site models split on charge. More than 32 sites is a
    /// broken invariant here; the `run_*` entry points check it first
    /// and return an error.
    pub fn of_model(model: &WaterModel) -> Self {
        let sites = model.num_sites();
        if sites >= 2 {
            assert!(
                sites <= Self::MAX_SITES,
                "model '{}' has {sites} sites; the charged-site mask holds {}",
                model.name,
                Self::MAX_SITES
            );
            let charged = model.sites.iter().enumerate().fold(0, |mask, (s, site)| {
                mask | u32::from(site.charge != 0.0) << s
            });
            Workload::Water { sites, charged }
        } else if model.sites[0].charge != 0.0 {
            Workload::Charged
        } else {
            Workload::LjFluid
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Water { .. } => "water",
            Workload::LjFluid => "lj",
            Workload::Charged => "charged",
        }
    }

    /// Interaction sites per molecule record.
    pub fn sites(self) -> usize {
        match self {
            Workload::Water { sites, .. } => sites,
            Workload::LjFluid | Workload::Charged => 1,
        }
    }

    /// Words per molecule record (3 coordinates per site). Three-site
    /// water's 9 is the paper's record width; atomic workloads use 3.
    pub fn width(self) -> usize {
        self.sites() * 3
    }

    /// Does the kernel evaluate a Coulomb term?
    pub fn coulomb(self) -> bool {
        !matches!(self, Workload::LjFluid | Workload::Water { charged: 0, .. })
    }

    /// Programmer-visible flops per interaction in the expanded-kernel
    /// accounting, tested against the generated kernels. Water is the
    /// paper's convention carried to N sites: 23 per pair of charged
    /// sites (22 + its energy accumulation), the O–O Lennard-Jones pair
    /// (12 riding on a charged pair, 31 as a pair of its own when the
    /// oxygen is neutral), 3 per site for the periodic shift and 6 for
    /// the virial — 234 for three charged sites.
    pub fn flops_per_interaction(self) -> u64 {
        match self {
            Workload::Water { sites, charged } => {
                let coulomb_pairs = u64::from(charged.count_ones()).pow(2);
                let lj = if charged & 1 == 1 { 12 } else { 31 };
                23 * coulomb_pairs + lj + 3 * sites as u64 + 6
            }
            Workload::LjFluid => md_sim::atomic::LJ_FLOPS_PER_INTERACTION,
            Workload::Charged => md_sim::atomic::CHARGED_FLOPS_PER_INTERACTION,
        }
    }

    /// Square roots per interaction: one per evaluated site pair.
    pub fn sqrts_per_interaction(self) -> u64 {
        match self {
            Workload::Water { charged, .. } => {
                u64::from(charged.count_ones()).pow(2) + u64::from(charged & 1 == 0)
            }
            Workload::LjFluid => md_sim::atomic::LJ_SQRTS_PER_INTERACTION,
            Workload::Charged => md_sim::atomic::CHARGED_SQRTS_PER_INTERACTION,
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

    const WATER3: Workload = Workload::ALL[0];

    #[test]
    fn classification_from_models() {
        for three in [
            WaterModel::spc(),
            WaterModel::tip3p(),
            WaterModel::ppc_static(),
        ] {
            assert_eq!(Workload::of_model(&three), WATER3, "{}", three.name);
        }
        assert_eq!(
            Workload::of_model(&WaterModel::tip5p()),
            Workload::Water {
                sites: 5,
                charged: 0b11110
            }
        );
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
    fn two_sites_are_water_not_an_atom() {
        // A 2-site model has 6-word records; the atom kernels read 3.
        let mut dimer = WaterModel::spc();
        dimer.sites.truncate(2);
        let w = Workload::of_model(&dimer);
        assert_eq!(
            w,
            Workload::Water {
                sites: 2,
                charged: 0b11
            }
        );
        assert_eq!(w.width(), 6);
    }

    #[test]
    fn record_widths() {
        assert_eq!(WATER3.width(), 9);
        assert_eq!(Workload::of_model(&WaterModel::tip5p()).width(), 15);
        assert_eq!(Workload::LjFluid.width(), 3);
        assert_eq!(Workload::Charged.width(), 3);
    }

    #[test]
    fn water_budget_is_the_papers_for_three_sites_and_grows_with_them() {
        use md_sim::force::{FLOPS_PER_INTERACTION, SQRTS_PER_INTERACTION};
        assert_eq!(WATER3.flops_per_interaction(), FLOPS_PER_INTERACTION);
        assert_eq!(WATER3.sqrts_per_interaction(), SQRTS_PER_INTERACTION);
        // TIP5P: 16 Coulomb pairs, the neutral oxygens' LJ pair apart.
        let tip5p = Workload::of_model(&WaterModel::tip5p());
        assert_eq!(tip5p.flops_per_interaction(), 16 * 23 + 31 + 15 + 6);
        assert_eq!(tip5p.sqrts_per_interaction(), 17);
    }

    #[test]
    fn intensity_ordering_water_above_charged_above_lj() {
        // Flop/word at equal record width: charged > LJ; water tops both.
        let per_word = |w: Workload| w.flops_per_interaction() as f64 / w.width() as f64;
        assert!(per_word(WATER3) > per_word(Workload::Charged));
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
