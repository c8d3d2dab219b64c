//! Generalized non-bonded forces for N-site rigid water models.
//!
//! The paper's Section 5.4 argues that more accurate water models (TIP5P
//! with five fixed charges, polarizable models) raise arithmetic
//! intensity and therefore suit Merrimac even better. This module is the
//! reference engine the N-site stream kernels are held to: the same
//! Coulomb + Lennard-Jones physics as [`crate::force`], but over any
//! fixed-charge site count. Site 0 is the oxygen and carries the only
//! Lennard-Jones interaction; every charged site pair contributes
//! Coulomb. (The flop budget of that interaction is the stream side's:
//! `streammd::Workload::flops_per_interaction`.)

use crate::neighbor::NeighborList;
use crate::system::WaterBox;
use crate::units::COULOMB;
use crate::vec3::Vec3;

/// Generalized force-field tables for an N-site model.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSiteField {
    /// Sites per molecule.
    pub sites: usize,
    /// Scaled charge products, `sites × sites`, row-major.
    pub qq: Vec<f64>,
    pub c6: f64,
    pub c12: f64,
}

impl MultiSiteField {
    pub fn from_model(model: &crate::water::WaterModel) -> Self {
        let n = model.num_sites();
        let mut qq = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                qq[a * n + b] = COULOMB * model.sites[a].charge * model.sites[b].charge;
            }
        }
        Self {
            sites: n,
            qq,
            c6: model.c6,
            c12: model.c12,
        }
    }
}

/// Result of a multi-site force evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiForceResult {
    pub forces: Vec<Vec3>,
    pub coulomb_energy: f64,
    pub lj_energy: f64,
    pub interactions: u64,
}

/// Evaluate all listed interactions with the generalized engine.
pub fn compute_forces_multisite(system: &WaterBox, list: &NeighborList) -> MultiForceResult {
    let ff = MultiSiteField::from_model(system.model());
    let ns = ff.sites;
    let pbc = system.pbc();
    let n = system.num_molecules();
    let mut forces = vec![Vec3::ZERO; n * ns];
    let mut e_coul = 0.0;
    let mut e_lj = 0.0;
    let mut interactions = 0u64;

    // Canonical (wrapped, rigid) site positions.
    let canon: Vec<Vec3> = (0..n)
        .flat_map(|m| {
            let mol = system.molecule(m);
            let o = pbc.wrap(mol[0]);
            (0..ns)
                .map(|s| {
                    if s == 0 {
                        o
                    } else {
                        o + pbc.min_image(mol[s], mol[0])
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();

    for (center, shift_index, neighbors) in list.groups() {
        let shift = pbc.shift_vector(shift_index as usize);
        let c = center as usize;
        for &jn in neighbors {
            let j = jn as usize;
            interactions += 1;
            for a in 0..ns {
                for b in 0..ns {
                    let qq = ff.qq[a * ns + b];
                    let lj = a == 0 && b == 0;
                    if qq == 0.0 && !lj {
                        continue;
                    }
                    let d = canon[c * ns + a] + shift - canon[j * ns + b];
                    let r2 = d.norm2();
                    let rinv = 1.0 / r2.sqrt();
                    let rinv2 = rinv * rinv;
                    let mut fs = 0.0;
                    if qq != 0.0 {
                        let vc = qq * rinv;
                        e_coul += vc;
                        fs += vc * rinv2;
                    }
                    if lj {
                        let rinv6 = rinv2 * rinv2 * rinv2;
                        let v6 = ff.c6 * rinv6;
                        let v12 = ff.c12 * rinv6 * rinv6;
                        e_lj += v12 - v6;
                        fs += (12.0 * v12 - 6.0 * v6) * rinv2;
                    }
                    let f = d * fs;
                    forces[c * ns + a] += f;
                    forces[j * ns + b] -= f;
                }
            }
        }
    }
    MultiForceResult {
        forces,
        coulomb_energy: e_coul,
        lj_energy: e_lj,
        interactions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::compute_forces;
    use crate::neighbor::NeighborListParams;
    use crate::water::WaterModel;

    fn setup(model: WaterModel, n: usize) -> (WaterBox, NeighborList) {
        let s = WaterBox::builder()
            .molecules(n)
            .model(model)
            .seed(71)
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
    fn reduces_to_three_site_engine_for_spc() {
        let (s, nl) = setup(WaterModel::spc(), 64);
        let multi = compute_forces_multisite(&s, &nl);
        let three = compute_forces(&s, &nl);
        assert_eq!(multi.interactions, three.interactions);
        let scale = three.forces.iter().map(|f| f.norm()).fold(1.0f64, f64::max);
        for (a, b) in multi.forces.iter().zip(&three.forces) {
            assert!((*a - *b).max_abs() < 1e-9 * scale);
        }
        assert!((multi.coulomb_energy - three.coulomb_energy).abs() < 1e-6);
        assert!((multi.lj_energy - three.lj_energy).abs() < 1e-9);
    }

    #[test]
    fn tip5p_runs_and_conserves_momentum() {
        let (s, nl) = setup(WaterModel::tip5p(), 64);
        let r = compute_forces_multisite(&s, &nl);
        let net: Vec3 = r.forces.iter().copied().sum();
        assert!(net.max_abs() < 1e-6, "net {net:?}");
        assert!(r.coulomb_energy.is_finite() && r.lj_energy.is_finite());
        assert_eq!(r.forces.len(), 64 * 5);
    }

    #[test]
    fn tip5p_oxygen_is_neutral() {
        // Row and column 0 of the charge products vanish, so the oxygen
        // pair is Lennard-Jones only; the 4 charged sites on each side
        // make 16 Coulomb pairs.
        let ff = MultiSiteField::from_model(&WaterModel::tip5p());
        for s in 0..5 {
            assert_eq!(ff.qq[s], 0.0);
            assert_eq!(ff.qq[5 * s], 0.0);
        }
        assert_eq!(ff.qq.iter().filter(|&&q| q != 0.0).count(), 16);
    }
}
