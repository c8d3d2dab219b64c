//! Velocity-Verlet integration: rigid 3-site water under SETTLE,
//! 1-site atoms unconstrained.
//!
//! The paper's experiment is a single force step, but several of our
//! harnesses need trajectories: the energy-drift integration test, the
//! self-diffusion measurement behind the Table 5 harness, and the
//! trajectories `streammd`'s driver runs with forces from the simulated
//! machine. The integrator follows GROMACS practice: rigid water
//! constrained analytically (SETTLE for positions, a direct solve of
//! the three bond-velocity constraints after the second kick),
//! neighbour lists rebuilt every `rebuild_interval` steps with a skin,
//! and forces evaluated over all listed pairs.
//!
//! There is one loop, [`Integrator::run_with`], generic over where the
//! forces come from; [`Integrator::run`] is that loop over the reference
//! [`compute_forces`].

use std::convert::Infallible;

use crate::force::{compute_forces, ForceResult};
use crate::neighbor::{NeighborList, NeighborListParams};
use crate::system::WaterBox;
use crate::units::KB;
use crate::vec3::Vec3;
use crate::water::WaterModel;

/// SETTLE's canonical triangle (Miyamoto & Kollman 1992, in GROMACS's
/// formulation) of a rigid 3-site molecule whose hydrogens match in
/// mass and O–H length: the oxygen at `(0, ra, 0)` and the hydrogens at
/// `(∓rc, −rb, 0)` about the centre of mass.
#[derive(Debug, Clone, Copy)]
struct Settle {
    /// Mass fractions of the oxygen and of one hydrogen.
    wo: f64,
    wh: f64,
    ra: f64,
    rb: f64,
    rc: f64,
    /// Inverse masses of the oxygen and of one hydrogen.
    inv_mo: f64,
    inv_mh: f64,
}

/// How `model`'s molecules are constrained: `None` for a 1-site atom
/// (plain Verlet), SETTLE's triangle for 3-site water with equal
/// hydrogen masses and O–H lengths (to 1e-12 relative), and why not
/// for anything else.
fn settle_for(model: &WaterModel) -> Result<Option<Settle>, String> {
    let (o, h1, h2) = match &model.sites[..] {
        [_] => return Ok(None),
        [o, h1, h2] => (o, h1, h2),
        sites => {
            return Err(format!(
                "has {} interaction sites; a trajectory is integrated for 1 (plain Verlet) \
                 or 3 (SETTLE)",
                sites.len()
            ))
        }
    };
    let d_oh2 = (h1.offset - o.offset).norm2();
    let d_oh2_other = (h2.offset - o.offset).norm2();
    let same = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    if !same(h1.mass, h2.mass) || !same(d_oh2, d_oh2_other) {
        return Err(format!(
            "is not a symmetric triangle (hydrogen masses {} and {} u, O-H lengths {} and {} \
             nm); SETTLE needs both equal",
            h1.mass,
            h2.mass,
            d_oh2.sqrt(),
            d_oh2_other.sqrt()
        ));
    }
    let (mo, mh) = (o.mass, h1.mass);
    let total = mo + 2.0 * mh;
    let rc = (h2.offset - h1.offset).norm() / 2.0;
    let height = (d_oh2 - rc * rc).sqrt();
    let ra = 2.0 * mh * height / total;
    Ok(Some(Settle {
        wo: mo / total,
        wh: mh / total,
        ra,
        rb: height - ra,
        rc,
        inv_mo: 1.0 / mo,
        inv_mh: 1.0 / mh,
    }))
}

/// Whether [`Integrator::run_with`] integrates `model`: a 1-site atom,
/// or 3-site water whose two hydrogens match in mass and O–H length.
/// The error completes "model '<name>' ...".
pub fn integrable(model: &WaterModel) -> Result<(), String> {
    settle_for(model).map(drop)
}

impl Settle {
    /// Place one molecule rigidly: `new` (oxygen, hydrogens) after an
    /// unconstrained drift from the constrained `old` moves to where the
    /// constraint forces along `old`'s bonds put it, in closed form.
    fn positions(&self, old: &[Vec3], new: &mut [Vec3]) {
        let Settle {
            wo, wh, ra, rb, rc, ..
        } = *self;
        // The pre-step bonds from the oxygen, and the drifted sites
        // about their centre of mass.
        let (b0, c0) = (old[1] - old[0], old[2] - old[0]);
        let com = new[0] * wo + (new[1] + new[2]) * wh;
        let (a1, b1, c1) = (new[0] - com, new[1] - com, new[2] - com);
        // A frame with z normal to the pre-step plane and the drifted
        // oxygen in its yz-plane.
        let n0 = b0.cross(c0);
        let ex = a1.cross(n0);
        let ey = n0.cross(ex);
        let (ex, ey, ez) = (ex.normalized(), ey.normalized(), n0.normalized());
        let to_frame = |v: Vec3| Vec3::new(ex.dot(v), ey.dot(v), ez.dot(v));
        let (b0, c0) = (to_frame(b0), to_frame(c0));
        let (za1, b1, c1) = (ez.dot(a1), to_frame(b1), to_frame(c1));
        // The canonical triangle tilted to the drifted heights.
        let sin_phi = za1 / ra;
        let cos_phi = (1.0 - sin_phi * sin_phi).sqrt();
        let sin_psi = (b1.z - c1.z) / (2.0 * rc * cos_phi);
        let cos_psi = (1.0 - sin_psi * sin_psi).sqrt();
        let ya2 = ra * cos_phi;
        let xb2 = -rc * cos_psi;
        let (t1, t2) = (-rb * cos_phi, rc * sin_psi * sin_phi);
        let (yb2, yc2) = (t1 - t2, t1 + t2);
        // The turn about z that conserves angular momentum.
        let alpha = xb2 * (b0.x - c0.x) + b0.y * yb2 + c0.y * yc2;
        let beta = xb2 * (c0.y - b0.y) + b0.x * yb2 + c0.x * yc2;
        let gamma = b0.x * b1.y - b1.x * b0.y + c0.x * c1.y - c1.x * c0.y;
        let al2be2 = alpha * alpha + beta * beta;
        let sin_theta = (alpha * gamma - beta * (al2be2 - gamma * gamma).sqrt()) / al2be2;
        let cos_theta = (1.0 - sin_theta * sin_theta).sqrt();
        let placed = [
            Vec3::new(-ya2 * sin_theta, ya2 * cos_theta, za1),
            Vec3::new(
                xb2 * cos_theta - yb2 * sin_theta,
                xb2 * sin_theta + yb2 * cos_theta,
                b1.z,
            ),
            Vec3::new(
                -xb2 * cos_theta - yc2 * sin_theta,
                -xb2 * sin_theta + yc2 * cos_theta,
                c1.z,
            ),
        ];
        for (site, p) in new.iter_mut().zip(placed) {
            *site = com + ex * p.x + ey * p.y + ez * p.z;
        }
    }

    /// Remove the velocity components along one molecule's three bonds
    /// (O–H1, O–H2, H1–H2) at once: the 3×3 system of their Lagrange
    /// multipliers, solved by the adjugate.
    fn velocities(&self, pos: &[Vec3], vel: &mut [Vec3]) {
        let (io, ih) = (self.inv_mo, self.inv_mh);
        let d = [pos[0] - pos[1], pos[0] - pos[2], pos[1] - pos[2]];
        let rhs = [
            d[0].dot(vel[0] - vel[1]),
            d[1].dot(vel[0] - vel[2]),
            d[2].dot(vel[1] - vel[2]),
        ];
        // M[k][j] = Σ_i ∇_i σ_k · ∇_i σ_j / m_i over the shared sites.
        let m00 = d[0].norm2() * (io + ih);
        let m11 = d[1].norm2() * (io + ih);
        let m22 = d[2].norm2() * (2.0 * ih);
        let m01 = d[0].dot(d[1]) * io;
        let m02 = -d[0].dot(d[2]) * ih;
        let m12 = d[1].dot(d[2]) * ih;
        let c00 = m11 * m22 - m12 * m12;
        let c01 = m02 * m12 - m01 * m22;
        let c02 = m01 * m12 - m02 * m11;
        let c11 = m00 * m22 - m02 * m02;
        let c12 = m01 * m02 - m00 * m12;
        let c22 = m00 * m11 - m01 * m01;
        let det = m00 * c00 + m01 * c01 + m02 * c02;
        let l0 = (c00 * rhs[0] + c01 * rhs[1] + c02 * rhs[2]) / det;
        let l1 = (c01 * rhs[0] + c11 * rhs[1] + c12 * rhs[2]) / det;
        let l2 = (c02 * rhs[0] + c12 * rhs[1] + c22 * rhs[2]) / det;
        vel[0] -= (d[0] * l0 + d[1] * l1) * io;
        vel[1] += (d[0] * l0 - d[2] * l2) * ih;
        vel[2] += (d[1] * l1 + d[2] * l2) * ih;
    }
}

/// Per-step observables.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Potential energy (kJ/mol). Only a force provider knows it:
    /// [`Integrator::run`] fills it in, [`Integrator::run_with`] leaves
    /// it at 0.0.
    pub potential: f64,
    /// Kinetic energy (kJ/mol).
    pub kinetic: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
    /// Largest single-site displacement this step (nm).
    pub max_displacement: f64,
    /// Whether the neighbour list was rebuilt before this step's force
    /// evaluation.
    pub rebuilt_list: bool,
}

impl StepReport {
    pub fn total_energy(&self) -> f64 {
        self.potential + self.kinetic
    }
}

/// Velocity-Verlet integrator, rigid water held by SETTLE.
#[derive(Debug, Clone)]
pub struct Integrator {
    /// Time step in ps (GROMACS default for rigid water: 0.002).
    pub dt: f64,
    /// Neighbour-list policy.
    pub neighbor: NeighborListParams,
}

impl Default for Integrator {
    fn default() -> Self {
        Self {
            dt: 0.002,
            neighbor: NeighborListParams::default(),
        }
    }
}

impl Integrator {
    fn kinetic(system: &WaterBox) -> f64 {
        let masses: Vec<f64> = system.model().sites.iter().map(|s| s.mass).collect();
        system
            .velocities()
            .iter()
            .enumerate()
            .map(|(i, v)| 0.5 * masses[i % masses.len()] * v.norm2())
            .sum()
    }

    /// Degrees of freedom after constraints and COM removal: a rigid
    /// 3-site molecule keeps 6 (translation + rotation), a point
    /// particle 3; momentum conservation takes 3 off the total.
    fn dof(system: &WaterBox) -> f64 {
        let per_molecule = if system.num_sites() == 1 { 3 } else { 6 };
        (per_molecule * system.num_molecules()) as f64 - 3.0
    }

    /// Run `steps` steps over the reference force engine, returning
    /// per-step observables. The system is modified in place; positions
    /// are left unwrapped so mean-square displacements can be computed by
    /// the analysis module.
    pub fn run(&self, system: &mut WaterBox, steps: usize) -> Vec<StepReport> {
        let reference = |system: &WaterBox, list: &NeighborList| {
            let result = compute_forces(system, list);
            let potential = result.potential();
            Ok::<_, Infallible>((result.forces, potential))
        };
        match self.run_with(system, steps, reference) {
            Ok(reports) => reports
                .into_iter()
                .map(|(report, potential)| StepReport {
                    potential,
                    ..report
                })
                .collect(),
            Err(never) => match never {},
        }
    }

    /// The integration loop, over any source of forces: `steps` steps of
    /// velocity Verlet, rigid (SETTLE) for a 3-site model and plain for
    /// a 1-site one. It panics on a model [`integrable`] refuses.
    ///
    /// `forces` evaluates the per-site forces of the system over the
    /// current neighbour list, once for the initial state and once per
    /// step; what else it returns comes back beside that step's report
    /// (the initial evaluation's is dropped), and its first error ends
    /// the run with the system as far as it got. The list rebuilds run
    /// at the caller's installed host width (`rayon::ThreadPool::install`);
    /// the constraint solves run serially, molecule by molecule, since a
    /// whole box of them is too little work to fan out. The trajectory is
    /// bitwise-identical at every width.
    pub fn run_with<O, E>(
        &self,
        system: &mut WaterBox,
        steps: usize,
        mut forces: impl FnMut(&WaterBox, &NeighborList) -> Result<(Vec<Vec3>, O), E>,
    ) -> Result<Vec<(StepReport, O)>, E> {
        let model = system.model();
        let settle = settle_for(model).unwrap_or_else(|why| panic!("model '{}' {why}", model.name));
        let inv_m: Vec<f64> = model.sites.iter().map(|s| 1.0 / s.mass).collect();
        let ns = inv_m.len();
        let dof = Self::dof(system);
        let dt = self.dt;

        let mut list = NeighborList::build(system, self.neighbor);
        let (mut f, _) = forces(system, &list)?;
        let mut drift_since_rebuild = 0.0f64;
        let mut reports = Vec::with_capacity(steps);

        for step in 0..steps {
            // Half kick.
            for (i, v) in system.velocities_mut().iter_mut().enumerate() {
                *v += f[i] * (inv_m[i % ns] * dt * 0.5);
            }
            // Drift + SETTLE.
            let old_pos = system.positions().to_vec();
            let mut new_pos = old_pos.clone();
            let n_sites = new_pos.len();
            for i in 0..n_sites {
                new_pos[i] = old_pos[i] + system.velocities()[i] * dt;
            }
            if let Some(settle) = settle {
                for (old, new) in old_pos.chunks(3).zip(new_pos.chunks_mut(3)) {
                    settle.positions(old, new);
                }
            }
            // Constraint force correction folded into velocities.
            let mut max_disp = 0.0f64;
            {
                let vel = system.velocities_mut();
                for i in 0..n_sites {
                    vel[i] = (new_pos[i] - old_pos[i]) / dt;
                }
            }
            for i in 0..n_sites {
                max_disp = max_disp.max((new_pos[i] - old_pos[i]).norm());
            }
            system.positions_mut().copy_from_slice(&new_pos);
            drift_since_rebuild += max_disp;

            // Rebuild the list on schedule or when the skin is exhausted.
            let scheduled = (step + 1) % self.neighbor.rebuild_interval == 0;
            let rebuilt_list = scheduled || list.is_stale(drift_since_rebuild);
            if rebuilt_list {
                list = NeighborList::build(system, self.neighbor);
                drift_since_rebuild = 0.0;
            }
            let (new_f, out) = forces(system, &list)?;
            f = new_f;

            // Second half kick, then the bond velocities.
            for (i, v) in system.velocities_mut().iter_mut().enumerate() {
                *v += f[i] * (inv_m[i % ns] * dt * 0.5);
            }
            if let Some(settle) = settle {
                let vel = system.velocities_mut().chunks_mut(3);
                for (pos, vel) in new_pos.chunks(3).zip(vel) {
                    settle.velocities(pos, vel);
                }
            }

            let kinetic = Self::kinetic(system);
            let report = StepReport {
                potential: 0.0,
                kinetic,
                temperature: 2.0 * kinetic / (dof * KB),
                max_displacement: max_disp,
                rebuilt_list,
            };
            reports.push((report, out));
        }
        Ok(reports)
    }

    /// Rescale velocities to the target temperature (crude Berendsen-style
    /// equilibration aid; measurement runs should follow in plain NVE).
    pub fn rescale_temperature(&self, system: &mut WaterBox, target_k: f64) {
        let ke = Self::kinetic(system);
        let dof = Self::dof(system);
        let t = 2.0 * ke / (dof * KB);
        if t <= 0.0 {
            return;
        }
        let f = (target_k / t).sqrt();
        for v in system.velocities_mut() {
            *v = *v * f;
        }
    }

    /// One-off force evaluation with a fresh list (convenience for tests).
    pub fn single_point(&self, system: &WaterBox) -> ForceResult {
        let list = NeighborList::build(system, self.neighbor);
        compute_forces(system, &list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{PI, TAU};

    /// The iterative solvers SETTLE replaced, run to convergence: SHAKE
    /// (`old`'s bonds as the constraint gradients) and RATTLE over the
    /// three bonds of one water molecule.
    fn shake_oracle(model: &WaterModel, old: &[Vec3], new: &mut [Vec3]) {
        let m: Vec<f64> = model.sites.iter().map(|s| s.mass).collect();
        for _ in 0..10_000 {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                let d2 = (model.sites[b].offset - model.sites[a].offset).norm2();
                let d = new[a] - new[b];
                let r = old[a] - old[b];
                let g = (d.norm2() - d2) / (2.0 * r.dot(d) * (1.0 / m[a] + 1.0 / m[b]));
                new[a] -= r * (g / m[a]);
                new[b] += r * (g / m[b]);
            }
        }
    }

    fn rattle_oracle(model: &WaterModel, pos: &[Vec3], vel: &mut [Vec3]) {
        let m: Vec<f64> = model.sites.iter().map(|s| s.mass).collect();
        for _ in 0..10_000 {
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                let d = pos[a] - pos[b];
                let k = d.dot(vel[a] - vel[b]) / (d.norm2() * (1.0 / m[a] + 1.0 / m[b]));
                vel[a] -= d * (k / m[a]);
                vel[b] += d * (k / m[b]);
            }
        }
    }

    /// `v` turned by `angle` about the unit `axis` (Rodrigues).
    fn rotate(v: Vec3, axis: Vec3, angle: f64) -> Vec3 {
        let (s, c) = angle.sin_cos();
        v * c + axis.cross(v) * s + axis * (axis.dot(v) * (1.0 - c))
    }

    fn arb_vec(scale: f64) -> impl Strategy<Value = Vec3> {
        (-1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64)
            .prop_map(move |(x, y, z)| Vec3::new(x, y, z) * scale)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// SETTLE lands where SHAKE converges to, and the direct bond-
        /// velocity solve where RATTLE does, on every 3-site model, any
        /// orientation and thermal-scale steps.
        #[test]
        fn settle_is_shake_and_rattle_run_to_convergence(
            model in prop::sample::select(vec![WaterModel::spc(), WaterModel::tip3p(), WaterModel::ppc_static()]),
            (polar, azimuth, angle) in (0.0..PI, 0.0..TAU, 0.0..TAU),
            origin in arb_vec(2.0),
            drift in (arb_vec(0.004), arb_vec(0.004), arb_vec(0.004)),
            vel in (arb_vec(2.0), arb_vec(2.0), arb_vec(2.0)),
        ) {
            let axis = Vec3::new(polar.sin() * azimuth.cos(), polar.sin() * azimuth.sin(), polar.cos());
            let (drift, vel) = ([drift.0, drift.1, drift.2], vec![vel.0, vel.1, vel.2]);
            let settle = settle_for(&model).unwrap().unwrap();
            let old: Vec<Vec3> = model.sites.iter().map(|s| origin + rotate(s.offset, axis, angle)).collect();
            let drifted: Vec<Vec3> = old.iter().zip(&drift).map(|(r, d)| *r + *d).collect();
            let (mut got, mut want) = (drifted.clone(), drifted);
            settle.positions(&old, &mut got);
            shake_oracle(&model, &old, &mut want);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((*g - *w).max_abs() < 1e-13, "SETTLE {g:?} vs SHAKE {w:?}");
            }
            let (mut got, mut want) = (vel.clone(), vel);
            settle.velocities(&old, &mut got);
            rattle_oracle(&model, &old, &mut want);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((*g - *w).max_abs() < 1e-12, "solve {g:?} vs RATTLE {w:?}");
            }
        }
    }

    #[test]
    fn integrable_models_are_atoms_and_symmetric_3_site_water() {
        for model in [
            WaterModel::spc(),
            WaterModel::tip3p(),
            WaterModel::ppc_static(),
            WaterModel::lj_atom(),
            WaterModel::charged_atom(),
        ] {
            assert_eq!(integrable(&model), Ok(()), "{}", model.name);
        }
        let mut heavy = WaterModel::spc();
        heavy.sites[2].mass *= 2.0;
        let mut long = WaterModel::spc();
        long.sites[2].offset = long.sites[2].offset * 1.01;
        for (model, says) in [
            (WaterModel::tip5p(), "has 5 interaction sites"),
            (heavy, "is not a symmetric triangle"),
            (long, "is not a symmetric triangle"),
        ] {
            let why = integrable(&model).unwrap_err();
            assert!(why.starts_with(says), "{why}");
        }
    }

    fn small() -> WaterBox {
        WaterBox::builder()
            .molecules(64)
            .temperature(300.0)
            .seed(31)
            .build()
    }

    #[test]
    fn constraints_preserved_over_steps() {
        let mut s = small();
        let integ = Integrator {
            neighbor: NeighborListParams {
                cutoff: 0.45,
                skin: 0.1,
                rebuild_interval: 5,
            },
            ..Default::default()
        };
        integ.run(&mut s, 20);
        let model = s.model().clone();
        let d01 = (model.sites[1].offset - model.sites[0].offset).norm();
        for m in 0..s.num_molecules() {
            let mol = s.molecule(m);
            let b = (mol[1] - mol[0]).norm();
            assert!((b - d01).abs() < 1e-6, "bond length drifted to {b}");
        }
    }

    #[test]
    fn energy_is_roughly_conserved() {
        let mut s = small();
        let integ = Integrator {
            dt: 0.001,
            neighbor: NeighborListParams {
                cutoff: 0.45,
                skin: 0.12,
                rebuild_interval: 3,
            },
        };
        let reports = integ.run(&mut s, 100);
        let e0 = reports[2].total_energy();
        let e1 = reports.last().unwrap().total_energy();
        // Truncated (unshifted) cut-off forces make perfect conservation
        // impossible; demand drift below 2% of the kinetic scale.
        let scale = reports[2].kinetic.abs().max(1.0);
        assert!(
            (e1 - e0).abs() < 0.05 * scale,
            "energy drift {} vs scale {scale}",
            e1 - e0
        );
    }

    #[test]
    fn temperature_stays_physical() {
        let mut s = small();
        let integ = Integrator {
            dt: 0.001,
            neighbor: NeighborListParams {
                cutoff: 0.45,
                skin: 0.12,
                rebuild_interval: 3,
            },
        };
        let reports = integ.run(&mut s, 50);
        for r in &reports {
            assert!(
                r.temperature > 10.0 && r.temperature < 2000.0,
                "T = {}",
                r.temperature
            );
        }
    }

    #[test]
    fn single_point_matches_compute_forces() {
        let s = small();
        let integ = Integrator {
            neighbor: NeighborListParams {
                cutoff: 0.45,
                skin: 0.0,
                rebuild_interval: 1,
            },
            ..Default::default()
        };
        let a = integ.single_point(&s);
        let list = NeighborList::build(&s, integ.neighbor);
        let b = compute_forces(&s, &list);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.potential(), b.potential());
    }

    #[test]
    fn rescale_hits_target_temperature() {
        let mut s = small();
        let integ = Integrator::default();
        integ.rescale_temperature(&mut s, 150.0);
        let ke = Integrator::kinetic(&s);
        let t = 2.0 * ke / (Integrator::dof(&s) * KB);
        assert!((t - 150.0).abs() < 1.0, "T = {t}");
    }

    #[test]
    fn reports_have_expected_length() {
        let mut s = small();
        let integ = Integrator {
            neighbor: NeighborListParams {
                cutoff: 0.45,
                skin: 0.1,
                rebuild_interval: 5,
            },
            ..Default::default()
        };
        assert_eq!(integ.run(&mut s, 7).len(), 7);
    }
}
