//! Reference forces for single-site atomic workloads.
//!
//! Two workloads from the MD-Bench short-range kernel catalogue ride on
//! this engine: the plain Lennard-Jones fluid ([`WaterModel::lj_atom`])
//! and the charged LJ+Coulomb particle ([`WaterModel::charged_atom`]).
//! Both use the same half neighbour lists and periodic shifts as the
//! water path; a "molecule" is just one site, so records are 3 words.
//!
//! [`pair_force_atomic`] is written so that every operation and its
//! association order mirror the stream kernels in
//! `streammd::kernels` exactly (the kernel engines evaluate `madd` as
//! the unfused `a*b + c`), which is what lets the differential tests pin
//! the simulated kernel outputs **bitwise** against this reference.

use crate::neighbor::NeighborList;
use crate::system::WaterBox;
use crate::units::COULOMB;
use crate::vec3::Vec3;
use crate::water::WaterModel;

/// Programmer-visible flops per LJ-fluid interaction (expanded-kernel
/// accounting, mirroring water's 234): shift 3, displacement 3, r² 5,
/// one divide, LJ chain 10, force scale 3, neighbour negation 3, energy
/// accumulation 1, virial 5 + 1.
pub const LJ_FLOPS_PER_INTERACTION: u64 = 35;
pub const LJ_DIVS_PER_INTERACTION: u64 = 1;
pub const LJ_SQRTS_PER_INTERACTION: u64 = 0;

/// Per-interaction flops of the charged workload: the LJ budget plus
/// √r², 1/r, r⁻² rebuild, the Coulomb energy/force terms and their
/// accumulation (one divide *and* one square root per pair).
pub const CHARGED_FLOPS_PER_INTERACTION: u64 = 41;
pub const CHARGED_DIVS_PER_INTERACTION: u64 = 1;
pub const CHARGED_SQRTS_PER_INTERACTION: u64 = 1;

/// Force-field tables for a single-site model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomForceField {
    /// Scaled charge product `q² / 4πɛ₀` (zero for the LJ fluid).
    pub qq: f64,
    pub c6: f64,
    pub c12: f64,
}

impl AtomForceField {
    /// Extract the tables from a single-site model.
    pub fn from_model(model: &WaterModel) -> Self {
        assert_eq!(
            model.num_sites(),
            1,
            "atomic force field requires a single-site model"
        );
        let q = model.sites[0].charge;
        Self {
            qq: COULOMB * q * q,
            c6: model.c6,
            c12: model.c12,
        }
    }

    /// Whether pairs carry a Coulomb term.
    pub fn coulomb(&self) -> bool {
        self.qq != 0.0
    }
}

/// One pair's force on the centre plus its energy/virial terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTerms {
    /// Force on the centre atom; the neighbour takes `0 − f` (the exact
    /// negation the kernels write).
    pub force: Vec3,
    pub e_coul: f64,
    pub e_lj: f64,
    pub virial: f64,
}

/// Evaluate one atom pair with the *exact* operation order of the
/// stream kernels: plain (unfused) multiply-adds, left-to-right
/// association, divide and square root as single IEEE operations.
pub fn pair_force_atomic(ff: &AtomForceField, c_shifted: Vec3, n: Vec3) -> PairTerms {
    let dx = c_shifted.x - n.x;
    let dy = c_shifted.y - n.y;
    let dz = c_shifted.z - n.z;
    // v3_norm2 order: mul, then two unfused madds.
    let xx = dx * dx;
    let xy = dy * dy + xx;
    let r2 = dz * dz + xy;

    let (mut fs, rinv2, e_coul) = if ff.coulomb() {
        let r = r2.sqrt();
        let rinv = 1.0 / r;
        let rinv2 = rinv * rinv;
        let vc = ff.qq * rinv;
        let fs_c = vc * rinv2;
        (fs_c, rinv2, vc)
    } else {
        (0.0, 1.0 / r2, 0.0)
    };
    let rinv4 = rinv2 * rinv2;
    let rinv6 = rinv4 * rinv2;
    let v6 = ff.c6 * rinv6;
    let rinv12 = rinv6 * rinv6;
    let v12 = ff.c12 * rinv12;
    let e_lj = v12 - v6;
    let t12 = 12.0 * v12;
    let u = t12 - 6.0 * v6; // nmsub: t12 − 6·v6
    let fs_lj = u * rinv2;
    fs = if ff.coulomb() { fs + fs_lj } else { fs_lj };

    let f = Vec3::new(dx * fs, dy * fs, dz * fs);
    // Virial: mul then two unfused madds, like the kernel.
    let vx = dx * f.x;
    let vxy = dy * f.y + vx;
    let virial = dz * f.z + vxy;
    PairTerms {
        force: f,
        e_coul,
        e_lj,
        virial,
    }
}

/// Result of an atomic force evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomForceResult {
    /// Per-atom forces (kJ·mol⁻¹·nm⁻¹), one entry per atom.
    pub forces: Vec<Vec3>,
    pub coulomb_energy: f64,
    pub lj_energy: f64,
    pub virial: f64,
    pub interactions: u64,
}

/// Canonical (wrapped) atom positions — the position array the stream
/// layout serves.
pub fn canonical_atom_positions(system: &WaterBox) -> Vec<Vec3> {
    assert_eq!(system.num_sites(), 1, "atomic engine needs 1-site models");
    let pbc = system.pbc();
    system.positions().iter().map(|&p| pbc.wrap(p)).collect()
}

/// Evaluate every listed pair with the double-precision reference
/// engine (the atomic analogue of [`crate::force::compute_forces`]).
pub fn compute_forces_atomic(system: &WaterBox, list: &NeighborList) -> AtomForceResult {
    let ff = AtomForceField::from_model(system.model());
    let pbc = system.pbc();
    let canon = canonical_atom_positions(system);
    let mut forces = vec![Vec3::ZERO; canon.len()];
    let mut e_coul = 0.0;
    let mut e_lj = 0.0;
    let mut virial = 0.0;
    let mut interactions = 0u64;
    for (center, shift_index, neighbors) in list.groups() {
        let shift = pbc.shift_vector(shift_index as usize);
        let c = center as usize;
        let cs = canon[c] + shift;
        for &jn in neighbors {
            let j = jn as usize;
            interactions += 1;
            let t = pair_force_atomic(&ff, cs, canon[j]);
            forces[c] += t.force;
            forces[j] -= t.force;
            e_coul += t.e_coul;
            e_lj += t.e_lj;
            virial += t.virial;
        }
    }
    AtomForceResult {
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

    fn setup(model: WaterModel, n: usize) -> (WaterBox, NeighborList) {
        let s = WaterBox::builder()
            .molecules(n)
            .model(model)
            .density(21.0)
            .seed(31)
            .build();
        let params = NeighborListParams {
            cutoff: (0.45 * s.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let nl = NeighborList::build(&s, params);
        (s, nl)
    }

    #[test]
    fn lj_fluid_conserves_momentum() {
        let (s, nl) = setup(WaterModel::lj_atom(), 125);
        let r = compute_forces_atomic(&s, &nl);
        assert!(r.interactions > 0);
        let net: Vec3 = r.forces.iter().copied().sum();
        assert!(net.max_abs() < 1e-9, "net force {net:?}");
        assert_eq!(r.coulomb_energy, 0.0);
        assert!(r.lj_energy.is_finite());
    }

    #[test]
    fn charged_fluid_adds_coulomb_energy() {
        let (s, nl) = setup(WaterModel::charged_atom(), 125);
        let r = compute_forces_atomic(&s, &nl);
        // Like charges: every pair's Coulomb energy is positive.
        assert!(r.coulomb_energy > 0.0);
        let net: Vec3 = r.forces.iter().copied().sum();
        assert!(net.max_abs() < 1e-9, "net force {net:?}");
    }

    #[test]
    fn pair_terms_antisymmetric_under_swap_without_shift() {
        let ff = AtomForceField::from_model(&WaterModel::charged_atom());
        let a = Vec3::new(0.1, 0.2, 0.3);
        let b = Vec3::new(0.45, 0.11, 0.52);
        let t_ab = pair_force_atomic(&ff, a, b);
        let t_ba = pair_force_atomic(&ff, b, a);
        assert!((t_ab.force + t_ba.force).max_abs() < 1e-12);
        assert_eq!(t_ab.e_lj, t_ba.e_lj);
        assert_eq!(t_ab.e_coul, t_ba.e_coul);
    }

    #[test]
    fn lj_force_is_repulsive_at_short_range_attractive_at_long() {
        let ff = AtomForceField::from_model(&WaterModel::lj_atom());
        let sigma = (ff.c12 / ff.c6).powf(1.0 / 6.0);
        let near = pair_force_atomic(&ff, Vec3::new(0.9 * sigma, 0.0, 0.0), Vec3::ZERO);
        let far = pair_force_atomic(&ff, Vec3::new(1.5 * sigma, 0.0, 0.0), Vec3::ZERO);
        assert!(near.force.x > 0.0, "short range must repel");
        assert!(far.force.x < 0.0, "long range must attract");
    }

    #[test]
    fn from_model_scales_charge_product() {
        let ff = AtomForceField::from_model(&WaterModel::charged_atom());
        assert!((ff.qq - COULOMB * 0.41 * 0.41).abs() < 1e-12);
        assert!(ff.coulomb());
        assert!(!AtomForceField::from_model(&WaterModel::lj_atom()).coulomb());
    }

    #[test]
    fn dummy_distance_contribution_rounds_away() {
        // The stream layout pads blocks with dummies ~2·10¹² nm away;
        // their force contribution must vanish against any real force.
        let ff = AtomForceField::from_model(&WaterModel::charged_atom());
        let t = pair_force_atomic(&ff, Vec3::new(0.3, 0.2, 0.1), Vec3::new(-2.0e12, 0.0, 0.0));
        let real = pair_force_atomic(&ff, Vec3::new(0.4, 0.0, 0.0), Vec3::ZERO);
        assert_eq!(real.force.x + t.force.x, real.force.x);
        // The Coulomb virial of a dummy pair decays only as 1/r
        // (~10⁻¹¹ at 2·10¹² nm) — negligible relative to any real
        // pair's virial, though not below one ulp of it.
        assert!((t.virial / real.virial).abs() < 1e-10);
    }
}
