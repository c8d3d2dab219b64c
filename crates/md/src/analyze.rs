//! Trajectory analysis: temperature, mean-square displacement,
//! self-diffusion, and radial distribution functions.
//!
//! These back the Table 5 harness: the paper compares water models by
//! dipole moment, dielectric constant and self-diffusion coefficient. We
//! compute the dipole from the model geometry (`WaterModel::dipole_debye`)
//! and the self-diffusion coefficient from the Einstein relation over a
//! short NVE trajectory; the dielectric constant needs far longer runs
//! than a harness should take and is documented as out of scope.

use crate::pbc::Pbc;
use crate::system::WaterBox;
use crate::vec3::Vec3;

/// Mean-square displacement of molecular centres of mass between two
/// snapshots of (unwrapped) positions, nm².
pub fn msd(reference: &[Vec3], current: &[Vec3]) -> f64 {
    assert_eq!(reference.len(), current.len());
    assert!(!reference.is_empty());
    let n = reference.len() as f64;
    reference
        .iter()
        .zip(current)
        .map(|(a, b)| (*b - *a).norm2())
        .sum::<f64>()
        / n
}

/// Centres of mass of every molecule (unwrapped positions).
pub fn centers_of_mass(system: &WaterBox) -> Vec<Vec3> {
    (0..system.num_molecules())
        .map(|m| system.molecule_com(m))
        .collect()
}

/// A running MSD tracker over a trajectory.
#[derive(Debug, Clone)]
pub struct MsdTracker {
    reference: Vec<Vec3>,
    samples: Vec<(f64, f64)>,
}

impl MsdTracker {
    /// Start tracking from the current configuration.
    pub fn new(system: &WaterBox) -> Self {
        Self {
            reference: centers_of_mass(system),
            samples: Vec::new(),
        }
    }

    /// Record the MSD at time `t_ps`.
    pub fn sample(&mut self, system: &WaterBox, t_ps: f64) {
        let com = centers_of_mass(system);
        self.samples.push((t_ps, msd(&self.reference, &com)));
    }

    /// Least-squares slope of MSD vs time (nm²/ps), skipping the first
    /// `skip` samples (ballistic regime).
    pub fn slope(&self, skip: usize) -> Option<f64> {
        let pts = &self.samples[skip.min(self.samples.len())..];
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let (st, sm): (f64, f64) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), &(t, m)| (a + t, b + m));
        let (tm, tt): (f64, f64) = pts
            .iter()
            .fold((0.0, 0.0), |(a, b), &(t, m)| (a + t * m, b + t * t));
        let denom = n * tt - st * st;
        if denom.abs() < 1e-30 {
            return None;
        }
        Some((n * tm - st * sm) / denom)
    }

    /// Self-diffusion coefficient in 1e-5 cm²/s from the MSD slope.
    pub fn diffusion_1e5_cm2_s(&self, skip: usize) -> Option<f64> {
        self.slope(skip).map(|s| s / 6.0 * 1.0e3)
    }

    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }
}

/// Oxygen-oxygen radial distribution function g(r).
///
/// Returns `(r, g)` pairs at `bins` radii up to `r_max`.
pub fn rdf_oo(system: &WaterBox, r_max: f64, bins: usize) -> Vec<(f64, f64)> {
    assert!(bins > 0 && r_max > 0.0);
    let pbc: Pbc = system.pbc();
    let n = system.num_molecules();
    let dr = r_max / bins as f64;
    let mut hist = vec![0u64; bins];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = pbc.min_image(system.oxygen(i), system.oxygen(j)).norm();
            if d < r_max {
                hist[(d / dr) as usize] += 1;
            }
        }
    }
    let rho = n as f64 / pbc.volume();
    let mut out = Vec::with_capacity(bins);
    for (k, &h) in hist.iter().enumerate() {
        let r_lo = k as f64 * dr;
        let r_hi = r_lo + dr;
        let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
        // Each pair counted once; ideal-gas pair count in the shell:
        let ideal = 0.5 * n as f64 * rho * shell;
        let g = if ideal > 0.0 { h as f64 / ideal } else { 0.0 };
        out.push((r_lo + 0.5 * dr, g));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::WaterBox;

    #[test]
    fn msd_of_identical_snapshots_is_zero() {
        let s = WaterBox::builder().molecules(8).seed(41).build();
        let com = centers_of_mass(&s);
        assert_eq!(msd(&com, &com), 0.0);
    }

    #[test]
    fn msd_of_uniform_translation() {
        let a = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let b = vec![Vec3::new(0.3, 0.0, 0.0), Vec3::new(1.3, 0.0, 0.0)];
        assert!((msd(&a, &b) - 0.09).abs() < 1e-12);
    }

    #[test]
    fn tracker_slope_linear_data() {
        let s = WaterBox::builder().molecules(8).seed(42).build();
        let mut t = MsdTracker::new(&s);
        // Fake linear samples.
        t.samples = (1..=10).map(|i| (i as f64, 0.5 * i as f64)).collect();
        let slope = t.slope(0).unwrap();
        assert!((slope - 0.5).abs() < 1e-9);
        let d = t.diffusion_1e5_cm2_s(0).unwrap();
        assert!((d - 0.5 / 6.0 * 1e3).abs() < 1e-6);
    }

    #[test]
    fn tracker_insufficient_samples() {
        let s = WaterBox::builder().molecules(8).seed(43).build();
        let t = MsdTracker::new(&s);
        assert!(t.slope(0).is_none());
    }

    #[test]
    fn rdf_zero_inside_core_unity_far() {
        let s = WaterBox::builder().molecules(216).seed(44).build();
        let g = rdf_oo(&s, 1.2, 60);
        // Hard core: nothing below 0.2 nm.
        for &(r, gv) in &g {
            if r < 0.2 {
                assert_eq!(gv, 0.0, "g({r}) = {gv} inside core");
            }
        }
        // Far field should be order unity (lattice structure allowed).
        let far: f64 = g
            .iter()
            .filter(|(r, _)| *r > 0.9)
            .map(|(_, gv)| *gv)
            .sum::<f64>()
            / g.iter().filter(|(r, _)| *r > 0.9).count() as f64;
        assert!(far > 0.3 && far < 3.0, "far-field g = {far}");
    }
}
