//! Water-system construction: the configuration GROMACS would hand to
//! StreamMD.
//!
//! The paper's dataset is a 900-molecule water box at liquid density
//! (Table 2). [`WaterBox::builder`] places molecules on a jittered cubic
//! lattice with random orientations — collision-free but liquid-like in
//! density — and draws molecular velocities from the Maxwell–Boltzmann
//! distribution. `positions` is the "position array containing nine
//! coordinates for each molecule" of Section 3, one `Vec3` per site.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::pbc::Pbc;
use crate::units::{KB, WATER_NUMBER_DENSITY};
use crate::vec3::Vec3;
use crate::water::WaterModel;

/// A box of rigid water molecules.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaterBox {
    model: WaterModel,
    pbc: Pbc,
    /// Site positions, `num_molecules * num_sites` long, molecule-major.
    positions: Vec<Vec3>,
    /// Site velocities, same layout (nm/ps).
    velocities: Vec<Vec3>,
}

/// Builder for [`WaterBox`].
#[derive(Debug, Clone)]
pub struct WaterBoxBuilder {
    molecules: usize,
    model: WaterModel,
    density: f64,
    temperature: f64,
    seed: u64,
}

impl WaterBox {
    /// Start building a box; defaults to the paper's configuration scaled
    /// to the requested molecule count (SPC water, liquid density, 300 K).
    pub fn builder() -> WaterBoxBuilder {
        WaterBoxBuilder {
            molecules: 900,
            model: WaterModel::spc(),
            density: WATER_NUMBER_DENSITY,
            temperature: 300.0,
            seed: 0x5eed,
        }
    }

    /// The paper's Table 2 dataset: 900 SPC molecules in a 3.0 nm box.
    pub fn paper_dataset(seed: u64) -> WaterBox {
        Self::builder().molecules(900).seed(seed).build()
    }

    pub fn model(&self) -> &WaterModel {
        &self.model
    }

    pub fn pbc(&self) -> Pbc {
        self.pbc
    }

    pub fn num_molecules(&self) -> usize {
        self.positions.len() / self.model.num_sites()
    }

    pub fn num_sites(&self) -> usize {
        self.model.num_sites()
    }

    /// All site positions, molecule-major.
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    pub fn positions_mut(&mut self) -> &mut [Vec3] {
        &mut self.positions
    }

    pub fn velocities(&self) -> &[Vec3] {
        &self.velocities
    }

    pub fn velocities_mut(&mut self) -> &mut [Vec3] {
        &mut self.velocities
    }

    /// Site positions of molecule `m`.
    pub fn molecule(&self, m: usize) -> &[Vec3] {
        let s = self.model.num_sites();
        &self.positions[m * s..(m + 1) * s]
    }

    /// Oxygen (site 0) position of molecule `m` — the reference point for
    /// neighbour searching, as in GROMACS water loops.
    pub fn oxygen(&self, m: usize) -> Vec3 {
        self.positions[m * self.model.num_sites()]
    }

    /// Centre of mass of molecule `m`.
    pub fn molecule_com(&self, m: usize) -> Vec3 {
        let sites = &self.model.sites;
        let total: f64 = self.model.mass();
        self.molecule(m)
            .iter()
            .zip(sites)
            .map(|(p, s)| *p * s.mass)
            .sum::<Vec3>()
            / total
    }

    /// Construct directly from parts (used by tests and the integrator).
    pub fn from_parts(
        model: WaterModel,
        pbc: Pbc,
        positions: Vec<Vec3>,
        velocities: Vec<Vec3>,
    ) -> Self {
        assert_eq!(positions.len() % model.num_sites(), 0);
        assert_eq!(positions.len(), velocities.len());
        Self {
            model,
            pbc,
            positions,
            velocities,
        }
    }
}

/// A uniformly random rotation matrix (as three rows) from a quaternion.
fn random_rotation(rng: &mut impl Rng) -> [Vec3; 3] {
    // Shoemake's method for uniform quaternions.
    let u1: f64 = rng.gen();
    let u2: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
    let u3: f64 = rng.gen::<f64>() * std::f64::consts::TAU;
    let a = (1.0 - u1).sqrt();
    let b = u1.sqrt();
    let (w, x, y, z) = (a * u2.sin(), a * u2.cos(), b * u3.sin(), b * u3.cos());
    [
        Vec3::new(
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ),
        Vec3::new(
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ),
        Vec3::new(
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ),
    ]
}

fn rotate(rot: &[Vec3; 3], v: Vec3) -> Vec3 {
    Vec3::new(rot[0].dot(v), rot[1].dot(v), rot[2].dot(v))
}

impl WaterBoxBuilder {
    /// Number of molecules (default 900 — the paper's dataset).
    pub fn molecules(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one molecule");
        self.molecules = n;
        self
    }

    /// Water model (default SPC).
    pub fn model(mut self, model: WaterModel) -> Self {
        self.model = model;
        self
    }

    /// Number density in molecules/nm³ (default: liquid water).
    pub fn density(mut self, d: f64) -> Self {
        assert!(d > 0.0);
        self.density = d;
        self
    }

    /// Initial temperature in K (default 300).
    pub fn temperature(mut self, t: f64) -> Self {
        assert!(t >= 0.0);
        self.temperature = t;
        self
    }

    /// RNG seed for placement, orientation and velocities.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the box.
    pub fn build(self) -> WaterBox {
        let n = self.molecules;
        let side = (n as f64 / self.density).cbrt();
        let pbc = Pbc::cubic(side);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Lattice with enough cells for every molecule.
        let cells = (n as f64).cbrt().ceil() as usize;
        let cell = side / cells as f64;
        let jitter = cell * 0.08;

        let ns = self.model.num_sites();
        let mut positions = Vec::with_capacity(n * ns);
        let mut placed = 0;
        'outer: for ix in 0..cells {
            for iy in 0..cells {
                for iz in 0..cells {
                    if placed == n {
                        break 'outer;
                    }
                    let centre = Vec3::new(
                        (ix as f64 + 0.5) * cell,
                        (iy as f64 + 0.5) * cell,
                        (iz as f64 + 0.5) * cell,
                    );
                    let wiggle = Vec3::new(
                        rng.gen_range(-jitter..jitter),
                        rng.gen_range(-jitter..jitter),
                        rng.gen_range(-jitter..jitter),
                    );
                    let rot = random_rotation(&mut rng);
                    for site in &self.model.sites {
                        let p = centre + wiggle + rotate(&rot, site.offset);
                        positions.push(pbc.wrap(p));
                    }
                    placed += 1;
                }
            }
        }
        assert_eq!(placed, n, "lattice placement failed");

        // Maxwell–Boltzmann molecular (rigid-body translational)
        // velocities: every site in a molecule moves together.
        let mol_mass = self.model.mass();
        let sigma = if self.temperature > 0.0 {
            (KB * self.temperature / mol_mass).sqrt()
        } else {
            0.0
        };
        let gauss = |rng: &mut ChaCha8Rng| -> f64 {
            // Box–Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let mut velocities = Vec::with_capacity(n * ns);
        let mut com_v = Vec3::ZERO;
        for _ in 0..n {
            let v = Vec3::new(gauss(&mut rng), gauss(&mut rng), gauss(&mut rng)) * sigma;
            com_v += v;
            for _ in 0..ns {
                velocities.push(v);
            }
        }
        // Remove centre-of-mass drift.
        let drift = com_v / n as f64;
        for v in &mut velocities {
            *v -= drift;
        }

        WaterBox::from_parts(self.model, pbc, positions, velocities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dataset_geometry() {
        let b = WaterBox::paper_dataset(1);
        assert_eq!(b.num_molecules(), 900);
        assert!((b.pbc().side() - 3.0).abs() < 0.01);
        assert_eq!(b.positions().len(), 2700);
    }

    #[test]
    fn molecules_do_not_overlap() {
        let b = WaterBox::builder().molecules(125).seed(3).build();
        let pbc = b.pbc();
        let mut min_d = f64::INFINITY;
        for i in 0..b.num_molecules() {
            for j in (i + 1)..b.num_molecules() {
                let d = pbc.min_image(b.oxygen(i), b.oxygen(j)).norm();
                min_d = min_d.min(d);
            }
        }
        // Lattice spacing at water density is ~0.31 nm; jitter is small.
        assert!(min_d > 0.2, "closest O-O distance {min_d}");
    }

    #[test]
    fn rigid_geometry_preserved_by_placement() {
        let b = WaterBox::builder().molecules(27).seed(4).build();
        let pbc = b.pbc();
        for m in 0..b.num_molecules() {
            let mol = b.molecule(m);
            let oh1 = pbc.min_image(mol[1], mol[0]).norm();
            let oh2 = pbc.min_image(mol[2], mol[0]).norm();
            assert!((oh1 - 0.1).abs() < 1e-9, "OH1 = {oh1}");
            assert!((oh2 - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn velocities_have_roughly_target_temperature() {
        let b = WaterBox::builder()
            .molecules(512)
            .temperature(300.0)
            .seed(5)
            .build();
        // Each molecule moves rigidly, so the molecular translational
        // kinetic energy should correspond to ~300 K with 3N-3 dof.
        let n = b.num_molecules();
        let mass = b.model().mass();
        let ke: f64 = (0..n)
            .map(|m| 0.5 * mass * b.velocities()[m * 3].norm2())
            .sum();
        let t = 2.0 * ke / ((3 * n - 3) as f64 * KB);
        assert!((t - 300.0).abs() < 30.0, "T = {t}");
    }

    #[test]
    fn zero_net_momentum() {
        let b = WaterBox::builder().molecules(64).seed(6).build();
        let p: Vec3 = (0..b.num_molecules())
            .map(|m| b.velocities()[m * 3] * b.model().mass())
            .sum();
        assert!(p.max_abs() < 1e-9, "net momentum {p:?}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = WaterBox::builder().molecules(27).seed(42).build();
        let b = WaterBox::builder().molecules(27).seed(42).build();
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.velocities(), b.velocities());
    }

    #[test]
    fn different_seeds_differ() {
        let a = WaterBox::builder().molecules(27).seed(1).build();
        let b = WaterBox::builder().molecules(27).seed(2).build();
        assert_ne!(a.positions(), b.positions());
    }
}
