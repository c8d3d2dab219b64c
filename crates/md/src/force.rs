//! Reference double-precision evaluation of the non-bonded water-water
//! interaction — Equation (1) of the paper:
//!
//! ```text
//! V_nb = Σ_{i,j} [ q_i q_j / (4πɛ₀ r_ij) + C12/r_ij¹² − C6/r_ij⁶ ]
//! ```
//!
//! Layout and conventions follow the GROMACS water-water loop the paper
//! streams: every pair in the neighbour list is evaluated (the cut-off is
//! enforced by list membership, not by a branch in the inner loop),
//! Coulomb acts between all 9 atom pairs of a molecule pair, and the
//! Lennard-Jones term acts between the two oxygens only. The periodic
//! shift is applied to the central molecule before the 9 pair
//! interactions.
//!
//! This engine is the ground truth every StreamMD variant must reproduce
//! and the workload for the Pentium 4 baseline.

use serde::{Deserialize, Serialize};

use crate::neighbor::NeighborList;
use crate::system::WaterBox;
use crate::units::COULOMB;
use crate::vec3::Vec3;

/// Programmer-visible floating-point operations per molecule-pair
/// interaction in the paper's accounting (Section 3: "each interaction
/// requires 234 floating-point operations including 9 divides and 9
/// square roots"). The kernel crate's builder-generated DAG is tested to
/// match this constant exactly.
pub const FLOPS_PER_INTERACTION: u64 = 234;

/// Divides per interaction (one 1/r per atom pair).
pub const DIVS_PER_INTERACTION: u64 = 9;

/// Square roots per interaction (one per atom pair).
pub const SQRTS_PER_INTERACTION: u64 = 9;

/// Atom pairs per molecule-pair interaction for 3-site water.
pub const ATOM_PAIRS: usize = 9;

/// Non-bonded force field parameters for a single molecule species.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForceField {
    /// Pairwise charge products q_i·q_j pre-multiplied by the electric
    /// conversion factor, indexed `[site_i][site_j]` (kJ·mol⁻¹·nm).
    pub qq: [[f64; 3]; 3],
    /// Lennard-Jones C6 between oxygens (kJ·mol⁻¹·nm⁶).
    pub c6: f64,
    /// Lennard-Jones C12 between oxygens (kJ·mol⁻¹·nm¹²).
    pub c12: f64,
}

impl ForceField {
    /// Build from a 3-site water model.
    pub fn from_model(model: &crate::water::WaterModel) -> Self {
        assert_eq!(model.num_sites(), 3, "force field requires a 3-site model");
        let q: Vec<f64> = model.sites.iter().map(|s| s.charge).collect();
        let mut qq = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                qq[i][j] = COULOMB * q[i] * q[j];
            }
        }
        Self {
            qq,
            c6: model.c6,
            c12: model.c12,
        }
    }
}

/// Output of a force evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ForceResult {
    /// Per-site forces, molecule-major (kJ·mol⁻¹·nm⁻¹).
    pub forces: Vec<Vec3>,
    /// Total Coulomb energy (kJ/mol).
    pub coulomb_energy: f64,
    /// Total Lennard-Jones energy (kJ/mol).
    pub lj_energy: f64,
    /// Scalar virial Σ r·f over interactions (kJ/mol).
    pub virial: f64,
    /// Molecule-pair interactions evaluated.
    pub interactions: u64,
}

impl ForceResult {
    /// Total potential energy.
    pub fn potential(&self) -> f64 {
        self.coulomb_energy + self.lj_energy
    }

    /// Solution flops of the evaluation in the paper's accounting.
    pub fn solution_flops(&self) -> u64 {
        self.interactions * FLOPS_PER_INTERACTION
    }
}

/// Force and energy contribution of one molecule pair.
///
/// `ci` are the central molecule's three site positions *already shifted*
/// into the neighbour's periodic image frame; `nj` the neighbour's sites.
/// Returns (force-on-center-sites, force-on-neighbor-sites, e_coul, e_lj,
/// virial).
#[inline]
pub fn pair_interaction(
    ff: &ForceField,
    ci: &[Vec3; 3],
    nj: &[Vec3; 3],
) -> ([Vec3; 3], [Vec3; 3], f64, f64, f64) {
    let mut fi = [Vec3::ZERO; 3];
    let mut fj = [Vec3::ZERO; 3];
    let mut e_coul = 0.0;
    let mut e_lj = 0.0;
    let mut virial = 0.0;
    for a in 0..3 {
        for b in 0..3 {
            let d = ci[a] - nj[b];
            let r2 = d.norm2();
            let r = r2.sqrt();
            let rinv = 1.0 / r;
            let rinv2 = rinv * rinv;
            let vc = ff.qq[a][b] * rinv;
            e_coul += vc;
            let mut fs = vc * rinv2;
            if a == 0 && b == 0 {
                let rinv6 = rinv2 * rinv2 * rinv2;
                let v6 = ff.c6 * rinv6;
                let v12 = ff.c12 * rinv6 * rinv6;
                e_lj += v12 - v6;
                fs += (12.0 * v12 - 6.0 * v6) * rinv2;
            }
            let f = d * fs;
            fi[a] += f;
            fj[b] -= f;
            virial += d.dot(f);
        }
    }
    (fi, fj, e_coul, e_lj, virial)
}

/// Evaluate all interactions in `list` for `system`.
pub fn compute_forces(system: &WaterBox, list: &NeighborList) -> ForceResult {
    let ff = ForceField::from_model(system.model());
    let pbc = system.pbc();
    let n = system.num_molecules();
    let mut forces = vec![Vec3::ZERO; n * 3];
    let mut e_coul = 0.0;
    let mut e_lj = 0.0;
    let mut virial = 0.0;
    let mut interactions = 0u64;

    for (center, shift_index, neighbors) in list.groups() {
        let shift = pbc.shift_vector(shift_index as usize);
        let c = center as usize;
        let cmol = system.molecule(c);
        // Apply the periodic shift to the central molecule once per list —
        // the "9 words of periodic boundary conditions" of the stream
        // record. Sites are placed relative to the wrapped oxygen so a
        // molecule straddling the boundary is not torn apart.
        let o = pbc.wrap(cmol[0]);
        let ci = [
            o + shift,
            o + pbc.min_image(cmol[1], cmol[0]) + shift,
            o + pbc.min_image(cmol[2], cmol[0]) + shift,
        ];
        for &jn in neighbors {
            let j = jn as usize;
            let nmol = system.molecule(j);
            let oj = pbc.wrap(nmol[0]);
            let nj = [
                oj,
                oj + pbc.min_image(nmol[1], nmol[0]),
                oj + pbc.min_image(nmol[2], nmol[0]),
            ];
            let (fi, fj, ec, el, vir) = pair_interaction(&ff, &ci, &nj);
            for s in 0..3 {
                forces[c * 3 + s] += fi[s];
                forces[j * 3 + s] += fj[s];
            }
            e_coul += ec;
            e_lj += el;
            virial += vir;
            interactions += 1;
        }
    }

    ForceResult {
        forces,
        coulomb_energy: e_coul,
        lj_energy: e_lj,
        virial,
        interactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborListParams;

    fn sys(n: usize, seed: u64) -> (WaterBox, NeighborList) {
        let s = WaterBox::builder().molecules(n).seed(seed).build();
        let nl = NeighborList::build(
            &s,
            NeighborListParams {
                cutoff: 0.45 * s.pbc().side().min(2.2),
                skin: 0.0,
                rebuild_interval: 1,
            },
        );
        (s, nl)
    }

    #[test]
    fn newtons_third_law_zero_net_force() {
        let (s, nl) = sys(64, 21);
        let r = compute_forces(&s, &nl);
        let net: Vec3 = r.forces.iter().copied().sum();
        // Forces are large (1e3-1e5); net must cancel to rounding.
        assert!(net.max_abs() < 1e-6, "net force {net:?}");
    }

    #[test]
    fn energies_are_finite_and_signed_sensibly() {
        let (s, nl) = sys(125, 22);
        let r = compute_forces(&s, &nl);
        assert!(r.coulomb_energy.is_finite());
        assert!(r.lj_energy.is_finite());
        // A jittered lattice is not an equilibrated liquid, so only the
        // magnitude is meaningful here (sign checks live in the MD tests).
        assert!(
            r.coulomb_energy.abs() > 1.0,
            "coulomb energy {}",
            r.coulomb_energy
        );
        assert_eq!(r.interactions as usize, nl.num_pairs());
    }

    #[test]
    fn two_molecule_analytic_check() {
        // Two molecules far apart along x, aligned identically: the leading
        // force is dipole-dipole; just verify symmetry and attraction of
        // opposite charges dominating at contact distance of like dipoles.
        use crate::pbc::Pbc;
        use crate::water::WaterModel;
        let model = WaterModel::spc();
        let pbc = Pbc::cubic(10.0);
        let mut pos = Vec::new();
        for site in &model.sites {
            pos.push(Vec3::new(2.0, 2.0, 2.0) + site.offset);
        }
        for site in &model.sites {
            pos.push(Vec3::new(2.8, 2.0, 2.0) + site.offset);
        }
        let vel = vec![Vec3::ZERO; 6];
        let s = WaterBox::from_parts(model, pbc, pos, vel);
        let nl = NeighborList::build(
            &s,
            NeighborListParams {
                cutoff: 2.0,
                skin: 0.0,
                rebuild_interval: 1,
            },
        );
        assert_eq!(nl.num_pairs(), 1);
        let r = compute_forces(&s, &nl);
        // Equal and opposite total molecular forces.
        let f0: Vec3 = r.forces[0..3].iter().copied().sum();
        let f1: Vec3 = r.forces[3..6].iter().copied().sum();
        assert!((f0 + f1).max_abs() < 1e-9);
        assert!(f0.norm() > 0.0);
    }

    #[test]
    fn pair_interaction_antisymmetric() {
        let ff = ForceField::from_model(&crate::water::WaterModel::spc());
        let ci = [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(0.1, 0.0, 0.02),
            Vec3::new(-0.08, 0.05, 0.0),
        ];
        let nj = [
            Vec3::new(0.4, 0.1, 0.0),
            Vec3::new(0.5, 0.1, 0.05),
            Vec3::new(0.35, 0.18, 0.0),
        ];
        let (fi, fj, _, _, _) = pair_interaction(&ff, &ci, &nj);
        let sum: Vec3 = fi.iter().copied().sum::<Vec3>() + fj.iter().copied().sum::<Vec3>();
        assert!(sum.max_abs() < 1e-9);
    }

    #[test]
    fn virial_positive_for_pure_repulsion() {
        // Two oxygens closer than the LJ minimum repel; with charges the
        // sign can vary, so test the LJ-dominated regime at 0.25 nm.
        let ff = ForceField::from_model(&crate::water::WaterModel::spc());
        let ci = [
            Vec3::ZERO,
            Vec3::new(0.1, 0.0, 0.0),
            Vec3::new(0.0, 0.1, 0.0),
        ];
        let nj = [
            Vec3::new(0.25, 0.0, 0.0),
            Vec3::new(0.35, 0.0, 0.0),
            Vec3::new(0.25, 0.1, 0.0),
        ];
        let (_, _, _, e_lj, _) = pair_interaction(&ff, &ci, &nj);
        assert!(e_lj > 0.0, "LJ at 0.25 nm should be repulsive, got {e_lj}");
    }

    #[test]
    fn flop_accounting_constants() {
        assert_eq!(FLOPS_PER_INTERACTION, 234);
        assert_eq!(DIVS_PER_INTERACTION, 9);
        assert_eq!(SQRTS_PER_INTERACTION, 9);
        let (s, nl) = sys(27, 23);
        let r = compute_forces(&s, &nl);
        assert_eq!(r.solution_flops(), r.interactions * 234);
    }

    #[test]
    fn translation_invariance() {
        let (s, nl) = sys(27, 24);
        let r1 = compute_forces(&s, &nl);
        // Translate everything by a constant and rewrap: forces unchanged.
        let pbc = s.pbc();
        let shift = Vec3::new(0.37, -0.21, 0.11);
        let pos2: Vec<Vec3> = s.positions().iter().map(|&p| pbc.wrap(p + shift)).collect();
        let s2 = WaterBox::from_parts(s.model().clone(), pbc, pos2, s.velocities().to_vec());
        let nl2 = NeighborList::build(&s2, nl.params);
        let r2 = compute_forces(&s2, &nl2);
        assert_eq!(r1.interactions, r2.interactions);
        assert!((r1.potential() - r2.potential()).abs() < 1e-6 * r1.potential().abs());
        for (a, b) in r1.forces.iter().zip(&r2.forces) {
            assert!(
                (*a - *b).max_abs() < 1e-5,
                "forces differ after translation"
            );
        }
    }
}
