//! Multi-timestep MD driven by the simulated Merrimac node.
//!
//! This is the full integration loop the paper describes: "Most of the
//! application can initially be run on the scalar processor and only the
//! time consuming computations are streamed... We are currently
//! concentrating on the force interaction of water molecules and
//! interface with the rest of GROMACS directly through Merrimac's shared
//! memory system." Here the "scalar processor" work — integration,
//! SETTLE constraints, neighbour-list construction — is `md-sim`'s
//! integrator ([`Integrator::run_with`]), stepped with every force
//! evaluation going through the stream program on the simulated machine.
//!
//! The driver also accumulates the machine-level cost of the whole
//! trajectory, which is what a capability-machine user would care about:
//! simulated Merrimac cycles per MD step, amortizing the scalar-side
//! neighbour list rebuilds exactly as GROMACS does ("the overhead of the
//! neighbor list is kept to a minimum by only generating it once every
//! several time-steps").

use md_sim::integrate::{integrable, Integrator};
use md_sim::system::WaterBox;
use merrimac_sim::machine::SimError;
use merrimac_sim::Counters;

use crate::app::{check_inputs, StreamMdApp};
use crate::variant::Variant;

/// Per-step record of a driven trajectory.
#[derive(Debug, Clone, Copy)]
pub struct DriverStep {
    /// Simulated machine cycles spent on this step's force evaluation.
    pub force_cycles: u64,
    /// Whether the neighbour list was rebuilt before this step.
    pub rebuilt_list: bool,
    /// Kinetic energy after the step (kJ/mol).
    pub kinetic: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
}

/// Result of a driven trajectory.
#[derive(Debug, Clone)]
pub struct DriverReport {
    pub steps: Vec<DriverStep>,
    /// Total simulated Merrimac cycles across all force evaluations.
    pub total_force_cycles: u64,
    /// Neighbour-list rebuilds performed.
    pub rebuilds: usize,
    /// Machine counters summed over every force evaluation. All fields
    /// are `u64` event counts, so the aggregation is lossless and
    /// independent of execution order or thread count.
    pub total_counters: Counters,
}

impl DriverReport {
    /// Mean simulated cycles per MD step.
    pub fn cycles_per_step(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.total_force_cycles as f64 / self.steps.len() as f64
        }
    }
}

/// MD driver: velocity Verlet + SETTLE on the scalar side, forces from
/// the stream unit.
#[derive(Debug, Clone)]
pub struct MerrimacDriver {
    pub app: StreamMdApp,
    pub variant: Variant,
    /// Time step (ps).
    pub dt: f64,
}

impl MerrimacDriver {
    pub fn new(app: StreamMdApp, variant: Variant) -> Self {
        Self {
            app,
            variant,
            dt: 0.002,
        }
    }

    /// Run `steps` MD steps, returning the trajectory report. The system
    /// is advanced in place, its lists and force steps on
    /// `app.host.threads` host threads (the constraint solves are
    /// serial).
    pub fn run(&self, system: &mut WaterBox, steps: usize) -> Result<DriverReport, SimError> {
        check_inputs(system, self.app.neighbor)?;
        // A force step serves any model; the integrator behind a
        // trajectory serves 1-site atoms and symmetric 3-site water (it
        // asserts what is checked here).
        let model = system.model();
        integrable(model)
            .map_err(|why| SimError::Config(format!("model '{}' {why}", model.name)))?;
        let integ = Integrator {
            dt: self.dt,
            neighbor: self.app.neighbor,
        };
        // The first list counts; every force evaluation, the initial
        // state's included, is on the machine's bill.
        let mut report = DriverReport {
            steps: Vec::with_capacity(steps),
            total_force_cycles: 0,
            rebuilds: 1,
            total_counters: Counters::default(),
        };
        let stepped = integ.run_with(system, steps, self.app.host.threads, |system, list| {
            let out = self.app.run_step_with_list(system, list, self.variant)?;
            report.total_force_cycles += out.perf.cycles;
            report.total_counters.add(&out.report.counters);
            Ok::<_, SimError>((out.forces, out.perf.cycles))
        })?;
        for (step, force_cycles) in stepped {
            report.rebuilds += step.rebuilt_list as usize;
            report.steps.push(DriverStep {
                force_cycles,
                rebuilt_list: step.rebuilt_list,
                kinetic: step.kinetic,
                temperature: step.temperature,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_sim::neighbor::NeighborListParams;

    fn driver(system: &WaterBox, variant: Variant) -> MerrimacDriver {
        let params = NeighborListParams {
            cutoff: (0.40 * system.pbc().side()).min(1.0),
            skin: 0.08,
            rebuild_interval: 3,
        };
        let app = StreamMdApp::builder().neighbor(params).build().unwrap();
        MerrimacDriver::new(app, variant)
    }

    #[test]
    fn driven_trajectory_matches_reference_integrator() {
        // Forces from the simulated machine ≈ reference forces, so short
        // trajectories must agree closely.
        let mut a = WaterBox::builder().molecules(27).seed(55).build();
        let mut b = a.clone();
        let drv = driver(&a, Variant::Variable);
        let integ = Integrator {
            dt: drv.dt,
            neighbor: drv.app.neighbor,
        };
        drv.run(&mut a, 5).expect("driven run");
        integ.run(&mut b, 5);
        let mut worst = 0.0f64;
        for (pa, pb) in a.positions().iter().zip(b.positions()) {
            worst = worst.max((*pa - *pb).max_abs());
        }
        assert!(worst < 1e-7, "trajectories diverged by {worst}");
    }

    #[test]
    fn constraints_hold_in_driven_run() {
        let mut s = WaterBox::builder().molecules(27).seed(56).build();
        let drv = driver(&s, Variant::Fixed);
        drv.run(&mut s, 6).expect("run");
        for m in 0..s.num_molecules() {
            let mol = s.molecule(m);
            assert!(((mol[1] - mol[0]).norm() - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn rebuild_policy_amortizes() {
        let mut s = WaterBox::builder().molecules(27).seed(57).build();
        let drv = driver(&s, Variant::Variable);
        let r = drv.run(&mut s, 9).expect("run");
        assert_eq!(r.steps.len(), 9);
        assert!(r.rebuilds < 9 + 1, "list must not rebuild every step");
        assert!(r.total_force_cycles > 0);
        assert!(r.cycles_per_step() > 0.0);
    }

    #[test]
    fn parallel_trajectory_is_bitwise_identical() {
        let mut a = WaterBox::builder().molecules(27).seed(60).build();
        let mut b = a.clone();
        let serial = driver(&a, Variant::Expanded);
        let mut parallel = driver(&b, Variant::Expanded);
        parallel.app.host.threads = 4;
        let ra = serial.run(&mut a, 4).expect("serial run");
        let rb = parallel.run(&mut b, 4).expect("parallel run");
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.velocities(), b.velocities());
        assert_eq!(ra.total_force_cycles, rb.total_force_cycles);
        assert_eq!(ra.total_counters, rb.total_counters);
    }

    #[test]
    fn long_lived_app_drives_the_trajectory_of_an_app_per_step() {
        // One app compiles the kernel once for the whole run; an app per
        // step compiles it every step. The trajectories must agree to
        // the bit. The list is rebuilt before every step (0 skin), so a
        // run of 20 steps and 20 runs of one step see the same lists.
        let mut a = WaterBox::builder().molecules(27).seed(58).build();
        let mut b = a.clone();
        let params = NeighborListParams {
            cutoff: (0.40 * a.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let fresh_driver = || {
            let app = StreamMdApp::builder().neighbor(params).build().unwrap();
            MerrimacDriver::new(app, Variant::Fixed)
        };
        let long = fresh_driver().run(&mut a, 20).expect("long-lived app");
        let mut cycles = Vec::new();
        for _ in 0..20 {
            let r = fresh_driver().run(&mut b, 1).expect("app per step");
            cycles.push(r.steps[0].force_cycles);
        }
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.velocities(), b.velocities());
        let long_cycles: Vec<u64> = long.steps.iter().map(|s| s.force_cycles).collect();
        assert_eq!(long_cycles, cycles);
    }

    #[test]
    fn atomic_trajectory_runs_without_constraints() {
        use md_sim::water::WaterModel;
        for model in [WaterModel::lj_atom(), WaterModel::charged_atom()] {
            let mut s = WaterBox::builder()
                .molecules(32)
                .model(model)
                .density(21.0)
                .seed(61)
                .build();
            let drv = driver(&s, Variant::Variable);
            let r = drv.run(&mut s, 4).expect("run");
            assert_eq!(r.steps.len(), 4);
            assert!(r.total_force_cycles > 0);
            for st in &r.steps {
                assert!(st.temperature.is_finite() && st.temperature > 0.0);
            }
        }
    }

    #[test]
    fn atomic_parallel_trajectory_is_bitwise_identical() {
        use md_sim::water::WaterModel;
        let mut a = WaterBox::builder()
            .molecules(32)
            .model(WaterModel::charged_atom())
            .density(21.0)
            .seed(62)
            .build();
        let mut b = a.clone();
        let serial = driver(&a, Variant::Fixed);
        let mut parallel = driver(&b, Variant::Fixed);
        parallel.app.host.threads = 4;
        serial.run(&mut a, 3).expect("serial run");
        parallel.run(&mut b, 3).expect("parallel run");
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.velocities(), b.velocities());
    }

    #[test]
    fn temperatures_stay_physical() {
        let mut s = WaterBox::builder().molecules(27).seed(58).build();
        let drv = driver(&s, Variant::Expanded);
        let r = drv.run(&mut s, 5).expect("run");
        for st in &r.steps {
            assert!(st.temperature > 1.0 && st.temperature < 3000.0);
        }
    }
}
