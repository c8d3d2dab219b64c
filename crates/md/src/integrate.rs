//! Velocity-Verlet integration: rigid 3-site water under SHAKE/RATTLE
//! constraints, 1-site atoms unconstrained.
//!
//! The paper's experiment is a single force step, but several of our
//! harnesses need trajectories: the energy-drift integration test, the
//! self-diffusion measurement behind the Table 5 harness, and the
//! trajectories `streammd`'s driver runs with forces from the simulated
//! machine. The integrator follows GROMACS practice: constraint dynamics
//! for the rigid water geometry, neighbour lists rebuilt every
//! `rebuild_interval` steps with a skin, and forces evaluated over all
//! listed pairs.
//!
//! There is one loop, [`Integrator::run_with`], generic over where the
//! forces come from; [`Integrator::run`] is that loop over the reference
//! [`compute_forces`].

use std::convert::Infallible;

use rayon::prelude::*;

use crate::force::{compute_forces, ForceResult};
use crate::neighbor::{NeighborList, NeighborListParams};
use crate::system::WaterBox;
use crate::units::KB;
use crate::vec3::Vec3;

/// A distance constraint between two sites of the same molecule.
#[derive(Debug, Clone, Copy)]
struct Constraint {
    a: usize,
    b: usize,
    /// Target squared distance.
    d2: f64,
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

/// Velocity-Verlet integrator with SHAKE position constraints and RATTLE
/// velocity constraints.
#[derive(Debug, Clone)]
pub struct Integrator {
    /// Time step in ps (GROMACS default for rigid water: 0.002).
    pub dt: f64,
    /// Neighbour-list policy.
    pub neighbor: NeighborListParams,
    /// SHAKE convergence tolerance on relative squared-distance error.
    pub shake_tol: f64,
    /// Maximum SHAKE/RATTLE sweeps.
    pub max_iter: usize,
}

impl Default for Integrator {
    fn default() -> Self {
        Self {
            dt: 0.002,
            neighbor: NeighborListParams::default(),
            shake_tol: 1e-10,
            max_iter: 100,
        }
    }
}

/// Run `f` with `width` governing every parallel operation inside it.
/// What runs inside is bitwise-identical at every width, so without a
/// pool it runs at the caller's.
fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    match rayon::ThreadPoolBuilder::new()
        .num_threads(width.max(1))
        .build()
    {
        Ok(pool) => pool.install(f),
        Err(_) => f(),
    }
}

/// Solve every 3-site molecule of `sites` in place, fanned out over
/// `width` workers (1 = inline, no spawn). Molecules are independent,
/// so the result is bitwise-identical at every width.
fn per_molecule(width: usize, sites: &mut [Vec3], solve: impl Fn(usize, &mut [Vec3]) + Sync) {
    let molecules = sites.chunks_mut(3).enumerate();
    if width <= 1 {
        molecules.for_each(|(m, mol)| solve(m, mol));
    } else {
        let molecules: Vec<_> = molecules.collect();
        molecules.into_par_iter().for_each(|(m, mol)| solve(m, mol));
    }
}

impl Integrator {
    /// The three distance constraints of rigid 3-site water; none for a
    /// 1-site atom. Other site counts are not integrated.
    fn constraints(system: &WaterBox) -> Vec<Constraint> {
        let sites = &system.model().sites;
        if sites.len() == 1 {
            return Vec::new();
        }
        assert_eq!(
            sites.len(),
            3,
            "integrator supports 3-site rigid water and 1-site atoms"
        );
        [(0, 1), (0, 2), (1, 2)]
            .into_iter()
            .map(|(a, b)| Constraint {
                a,
                b,
                d2: (sites[b].offset - sites[a].offset).norm2(),
            })
            .collect()
    }

    /// SHAKE one molecule: move `new_pos` so every constraint is
    /// satisfied, using the pre-step geometry `old_pos` for the
    /// constraint gradients.
    fn shake(
        &self,
        constraints: &[Constraint],
        masses: &[f64],
        old_pos: &[Vec3],
        new_pos: &mut [Vec3],
    ) {
        for _ in 0..self.max_iter {
            let mut converged = true;
            for c in constraints {
                let d = new_pos[c.a] - new_pos[c.b];
                let diff = d.norm2() - c.d2;
                if diff.abs() > self.shake_tol * c.d2 {
                    converged = false;
                    let ref_d = old_pos[c.a] - old_pos[c.b];
                    let (ma, mb) = (masses[c.a], masses[c.b]);
                    let g = diff / (2.0 * ref_d.dot(d) * (1.0 / ma + 1.0 / mb));
                    new_pos[c.a] -= ref_d * (g / ma);
                    new_pos[c.b] += ref_d * (g / mb);
                }
            }
            if converged {
                break;
            }
        }
    }

    /// RATTLE one molecule: remove velocity components along
    /// constrained bonds.
    fn rattle(&self, constraints: &[Constraint], masses: &[f64], pos: &[Vec3], vel: &mut [Vec3]) {
        for _ in 0..self.max_iter {
            let mut converged = true;
            for c in constraints {
                let d = pos[c.a] - pos[c.b];
                let vrel = vel[c.a] - vel[c.b];
                let dv = d.dot(vrel);
                if dv.abs() > self.shake_tol * c.d2 / self.dt {
                    converged = false;
                    let (ma, mb) = (masses[c.a], masses[c.b]);
                    let k = dv / (d.norm2() * (1.0 / ma + 1.0 / mb));
                    vel[c.a] -= d * (k / ma);
                    vel[c.b] += d * (k / mb);
                }
            }
            if converged {
                break;
            }
        }
    }

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
        match self.run_with(system, steps, 1, reference) {
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
    /// velocity Verlet, constrained (SHAKE + RATTLE) for a 3-site model
    /// and plain for a 1-site one; any other site count panics.
    ///
    /// `forces` evaluates the per-site forces of the system over the
    /// current neighbour list, once for the initial state and once per
    /// step; what else it returns comes back beside that step's report
    /// (the initial evaluation's is dropped), and its first error ends
    /// the run with the system as far as it got. `width` is the host
    /// width of everything in the loop — list rebuilds, the provider's
    /// own parallel operations, and the per-molecule constraint solves
    /// (1 = inline). The trajectory is bitwise-identical at every width.
    pub fn run_with<O, E>(
        &self,
        system: &mut WaterBox,
        steps: usize,
        width: usize,
        mut forces: impl FnMut(&WaterBox, &NeighborList) -> Result<(Vec<Vec3>, O), E>,
    ) -> Result<Vec<(StepReport, O)>, E> {
        let constraints = Self::constraints(system);
        let masses: Vec<f64> = system.model().sites.iter().map(|s| s.mass).collect();
        let inv_m: Vec<f64> = masses.iter().map(|m| 1.0 / m).collect();
        let ns = masses.len();
        let dof = Self::dof(system);
        let dt = self.dt;

        at_width(width, || {
            let mut list = NeighborList::build(system, self.neighbor);
            let (mut f, _) = forces(system, &list)?;
            let mut drift_since_rebuild = 0.0f64;
            let mut reports = Vec::with_capacity(steps);

            for step in 0..steps {
                // Half kick.
                for (i, v) in system.velocities_mut().iter_mut().enumerate() {
                    *v += f[i] * (inv_m[i % ns] * dt * 0.5);
                }
                // Drift + SHAKE.
                let old_pos = system.positions().to_vec();
                let mut new_pos = old_pos.clone();
                let n_sites = new_pos.len();
                for i in 0..n_sites {
                    new_pos[i] = old_pos[i] + system.velocities()[i] * dt;
                }
                if !constraints.is_empty() {
                    per_molecule(width, &mut new_pos, |m, mol| {
                        self.shake(&constraints, &masses, &old_pos[3 * m..3 * m + 3], mol)
                    });
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

                // Second half kick + RATTLE.
                for (i, v) in system.velocities_mut().iter_mut().enumerate() {
                    *v += f[i] * (inv_m[i % ns] * dt * 0.5);
                }
                if !constraints.is_empty() {
                    per_molecule(width, system.velocities_mut(), |m, mol| {
                        self.rattle(&constraints, &masses, &new_pos[3 * m..3 * m + 3], mol)
                    });
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
        })
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
            ..Default::default()
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
            ..Default::default()
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
