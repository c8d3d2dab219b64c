//! Rigid water models.
//!
//! The paper's GROMACS runs use an SPC-like three-site model ("a model
//! where partial charges are located at the hydrogen and oxygen atoms")
//! and its Table 5 compares SPC against TIP5P (five fixed partial
//! charges) and the polarizable PPC model. We implement the fixed-charge
//! geometries exactly; polarizability is out of scope for the force
//! kernels (documented substitution in DESIGN.md) but the PPC *enhanced*
//! static dipole is reported for the Table 5 harness.

use serde::{Deserialize, Serialize};

use crate::units::{DEBYE, MASS_H, MASS_O};
use crate::vec3::Vec3;

/// A charge site of a rigid water model, positioned relative to the
/// oxygen with the molecule in its canonical orientation (dipole along
/// +z, molecule in the xz-plane).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Position relative to the oxygen, nm.
    pub offset: Vec3,
    /// Partial charge, e.
    pub charge: f64,
    /// Mass carried by this site, u (zero for virtual sites).
    pub mass: f64,
}

/// A rigid fixed-charge water model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaterModel {
    /// Human-readable name ("SPC", "TIP3P", "TIP5P", "PPC-static").
    pub name: String,
    /// Charge/mass sites; site 0 is always the oxygen.
    pub sites: Vec<Site>,
    /// Lennard-Jones C6 for the oxygen-oxygen pair, kJ·mol⁻¹·nm⁶.
    pub c6: f64,
    /// Lennard-Jones C12 for the oxygen-oxygen pair, kJ·mol⁻¹·nm¹².
    pub c12: f64,
}

/// Place two hydrogens at bond length `b` and H-O-H angle `theta`
/// (radians), symmetric about +z in the xz-plane.
fn hydrogens(b: f64, theta: f64) -> (Vec3, Vec3) {
    let half = theta / 2.0;
    let h1 = Vec3::new(b * half.sin(), 0.0, b * half.cos());
    let h2 = Vec3::new(-b * half.sin(), 0.0, b * half.cos());
    (h1, h2)
}

/// Lennard-Jones `(C6, C12) = (4εσ⁶, 4εσ¹²)`. The powers are explicit
/// products in the association `powi`'s runtime routine uses (σ²·σ⁴ and
/// σ⁴·σ⁸): `powi` itself is folded at compile time in release builds but
/// called in debug builds, one ulp apart, which made every force bit
/// depend on the build profile.
fn lj_c6_c12(eps: f64, sigma: f64) -> (f64, f64) {
    let s2 = sigma * sigma;
    let s4 = s2 * s2;
    let s8 = s4 * s4;
    (4.0 * eps * (s2 * s4), 4.0 * eps * (s4 * s8))
}

impl WaterModel {
    /// SPC: the simple point charge model (the paper's "model used for our
    /// GROMACS tests"). Bond 0.1 nm, tetrahedral angle 109.47°,
    /// qO = −0.82 e, qH = +0.41 e; LJ from σ = 0.3166 nm, ε = 0.650 kJ/mol.
    pub fn spc() -> Self {
        let (h1, h2) = hydrogens(0.1, 109.47_f64.to_radians());
        let sigma: f64 = 0.3166;
        let eps = 0.650;
        let (c6, c12) = lj_c6_c12(eps, sigma);
        Self {
            name: "SPC".into(),
            sites: vec![
                Site {
                    offset: Vec3::ZERO,
                    charge: -0.82,
                    mass: MASS_O,
                },
                Site {
                    offset: h1,
                    charge: 0.41,
                    mass: MASS_H,
                },
                Site {
                    offset: h2,
                    charge: 0.41,
                    mass: MASS_H,
                },
            ],
            c6,
            c12,
        }
    }

    /// TIP3P: bond 0.09572 nm, angle 104.52°, qO = −0.834 e.
    pub fn tip3p() -> Self {
        let (h1, h2) = hydrogens(0.09572, 104.52_f64.to_radians());
        let sigma: f64 = 0.315_06;
        let eps = 0.6364;
        let (c6, c12) = lj_c6_c12(eps, sigma);
        Self {
            name: "TIP3P".into(),
            sites: vec![
                Site {
                    offset: Vec3::ZERO,
                    charge: -0.834,
                    mass: MASS_O,
                },
                Site {
                    offset: h1,
                    charge: 0.417,
                    mass: MASS_H,
                },
                Site {
                    offset: h2,
                    charge: 0.417,
                    mass: MASS_H,
                },
            ],
            c6,
            c12,
        }
    }

    /// TIP5P geometry: neutral oxygen, two hydrogens (+0.241 e) and two
    /// lone-pair virtual sites (−0.241 e) 0.07 nm from the oxygen at the
    /// tetrahedral angle, *behind* the molecular plane (Table 5's "five
    /// fixed partial charges" — oxygen is the uncharged fifth site).
    pub fn tip5p() -> Self {
        let (h1, h2) = hydrogens(0.09572, 104.52_f64.to_radians());
        let lp_angle = 109.47_f64.to_radians() / 2.0;
        let l = 0.07;
        let lp1 = Vec3::new(0.0, l * lp_angle.sin(), -l * lp_angle.cos());
        let lp2 = Vec3::new(0.0, -l * lp_angle.sin(), -l * lp_angle.cos());
        let sigma: f64 = 0.312;
        let eps = 0.6694;
        let (c6, c12) = lj_c6_c12(eps, sigma);
        Self {
            name: "TIP5P".into(),
            sites: vec![
                Site {
                    offset: Vec3::ZERO,
                    charge: 0.0,
                    mass: MASS_O,
                },
                Site {
                    offset: h1,
                    charge: 0.241,
                    mass: MASS_H,
                },
                Site {
                    offset: h2,
                    charge: 0.241,
                    mass: MASS_H,
                },
                Site {
                    offset: lp1,
                    charge: -0.241,
                    mass: 0.0,
                },
                Site {
                    offset: lp2,
                    charge: -0.241,
                    mass: 0.0,
                },
            ],
            c6,
            c12,
        }
    }

    /// PPC with its condensed-phase (polarization-enhanced) static charges.
    /// The true PPC model varies its charges with the dielectric
    /// environment; for Table 5 reporting we use the liquid-phase charge
    /// set that yields the published 2.52 D dipole. Geometry: bond
    /// 0.0943 nm, angle 106°.
    pub fn ppc_static() -> Self {
        let (h1, h2) = hydrogens(0.0943, 106.0_f64.to_radians());
        // Charge chosen so the dipole is 2.52 D (see tests).
        let qh = 0.4622;
        let sigma: f64 = 0.3234;
        let eps = 0.600;
        let (c6, c12) = lj_c6_c12(eps, sigma);
        Self {
            name: "PPC-static".into(),
            sites: vec![
                Site {
                    offset: Vec3::ZERO,
                    charge: -2.0 * qh,
                    mass: MASS_O,
                },
                Site {
                    offset: h1,
                    charge: qh,
                    mass: MASS_H,
                },
                Site {
                    offset: h2,
                    charge: qh,
                    mass: MASS_H,
                },
            ],
            c6,
            c12,
        }
    }

    /// Single-site Lennard-Jones atom (argon-like): no charge, one mass
    /// point at the origin. σ = 0.34 nm, ε = 0.996 kJ/mol, mass 39.948 u.
    /// This is the low-arithmetic-intensity end of the workload catalogue
    /// (MD-Bench's plain LJ fluid).
    pub fn lj_atom() -> Self {
        let sigma: f64 = 0.34;
        let eps = 0.996;
        let (c6, c12) = lj_c6_c12(eps, sigma);
        Self {
            name: "LJ-atom".into(),
            sites: vec![Site {
                offset: Vec3::ZERO,
                charge: 0.0,
                mass: 39.948,
            }],
            c6,
            c12,
        }
    }

    /// Single-site charged particle: the LJ atom carrying a partial
    /// charge, so every pair adds a Coulomb term (√ and ÷) on top of the
    /// LJ core — higher arithmetic intensity per word than the plain LJ
    /// fluid. Like-charge pairs only; the LJ core keeps the system bound
    /// enough for a force-kernel benchmark.
    pub fn charged_atom() -> Self {
        let mut m = Self::lj_atom();
        m.name = "Charged-atom".into();
        m.sites[0].charge = 0.41;
        m
    }

    /// Number of interaction sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Total mass, u.
    pub fn mass(&self) -> f64 {
        self.sites.iter().map(|s| s.mass).sum()
    }

    /// Static dipole moment in Debye, computed from the site charges
    /// about the centre of charge.
    pub fn dipole_debye(&self) -> f64 {
        let mu: Vec3 = self.sites.iter().map(|s| s.offset * s.charge).sum();
        mu.norm() / DEBYE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_are_neutral() {
        for m in [
            WaterModel::spc(),
            WaterModel::tip3p(),
            WaterModel::tip5p(),
            WaterModel::ppc_static(),
        ] {
            let net_charge: f64 = m.sites.iter().map(|s| s.charge).sum();
            assert!(net_charge.abs() < 1e-12, "{} not neutral", m.name);
        }
    }

    #[test]
    fn spc_dipole_matches_table5() {
        // Table 5 lists the SPC dipole as 2.27 D.
        let d = WaterModel::spc().dipole_debye();
        assert!((d - 2.27).abs() < 0.03, "SPC dipole = {d} D");
    }

    #[test]
    fn tip5p_dipole_is_reasonable() {
        // TIP5P's published dipole is 2.29 D.
        let d = WaterModel::tip5p().dipole_debye();
        assert!((d - 2.29).abs() < 0.15, "TIP5P dipole = {d} D");
    }

    #[test]
    fn ppc_dipole_matches_table5() {
        // Table 5 lists the PPC dipole as 2.52 D.
        let d = WaterModel::ppc_static().dipole_debye();
        assert!((d - 2.52).abs() < 0.05, "PPC dipole = {d} D");
    }

    #[test]
    fn spc_geometry() {
        let m = WaterModel::spc();
        assert_eq!(m.num_sites(), 3);
        let b1 = (m.sites[1].offset - m.sites[0].offset).norm();
        let b2 = (m.sites[2].offset - m.sites[0].offset).norm();
        assert!((b1 - 0.1).abs() < 1e-12);
        assert!((b2 - 0.1).abs() < 1e-12);
        let cos = m.sites[1].offset.dot(m.sites[2].offset) / (b1 * b2);
        assert!((cos.acos().to_degrees() - 109.47).abs() < 0.01);
    }

    #[test]
    fn lj_parameters_positive() {
        for m in [WaterModel::spc(), WaterModel::tip3p(), WaterModel::tip5p()] {
            assert!(m.c6 > 0.0 && m.c12 > 0.0);
            // C12/C6 has units nm^6; sigma^6 = C12/C6.
            let sigma6 = m.c12 / m.c6;
            let sigma = sigma6.powf(1.0 / 6.0);
            assert!(sigma > 0.25 && sigma < 0.4, "{} sigma = {sigma}", m.name);
        }
    }

    #[test]
    fn water_mass_is_18() {
        assert!((WaterModel::spc().mass() - 18.0154).abs() < 1e-3);
        assert!((WaterModel::tip5p().mass() - 18.0154).abs() < 1e-3);
    }
}
