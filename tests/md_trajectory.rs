//! Trajectory-level physics checks of the MD substrate: rigid-body
//! constraints, equilibration, approximate NVE conservation, and the
//! Table 5 observables.

use md_sim::analyze::{rdf_oo, MsdTracker};
use md_sim::integrate::Integrator;
use md_sim::neighbor::NeighborListParams;
use md_sim::system::WaterBox;
use md_sim::water::WaterModel;

fn integrator(side: f64) -> Integrator {
    Integrator {
        dt: 0.001,
        neighbor: NeighborListParams {
            cutoff: (side / 2.0 * 0.9 - 0.1).min(1.0),
            skin: 0.1,
            rebuild_interval: 4,
        },
    }
}

#[test]
fn constraints_hold_through_equilibration() {
    let mut sys = WaterBox::builder().molecules(64).seed(31).build();
    let integ = integrator(sys.pbc().side());
    for _ in 0..4 {
        integ.run(&mut sys, 15);
        integ.rescale_temperature(&mut sys, 300.0);
    }
    for m in 0..sys.num_molecules() {
        let mol = sys.molecule(m);
        let oh1 = (mol[1] - mol[0]).norm();
        let oh2 = (mol[2] - mol[0]).norm();
        assert!((oh1 - 0.1).abs() < 1e-12, "OH1 {oh1}");
        assert!((oh2 - 0.1).abs() < 1e-12, "OH2 {oh2}");
    }
}

#[test]
fn settle_holds_bonds_and_bond_velocities_to_rounding_on_every_step() {
    // One reference step at a time, so every step's end state is seen:
    // each bond's relative squared-length error |d² − d₀²| / d₀² and the
    // cosine between the bond and its sites' relative velocity.
    let mut sys = WaterBox::builder().molecules(64).seed(31).build();
    let integ = integrator(sys.pbc().side());
    let model = sys.model().clone();
    let bonds = [(0, 1), (0, 2), (1, 2)];
    for step in 0..300 {
        integ.run(&mut sys, 1);
        let (mut bond, mut velocity) = (0.0f64, 0.0f64);
        for m in 0..sys.num_molecules() {
            let pos = sys.molecule(m);
            let vel = &sys.velocities()[3 * m..3 * m + 3];
            for (a, b) in bonds {
                let d0 = (model.sites[b].offset - model.sites[a].offset).norm2();
                let d = pos[a] - pos[b];
                let v = vel[a] - vel[b];
                bond = bond.max((d.norm2() - d0).abs() / d0);
                velocity = velocity.max(d.dot(v).abs() / (d.norm() * v.norm()));
            }
        }
        assert!(bond <= 1e-12, "step {step}: bond residual {bond:e}");
        assert!(
            velocity <= 1e-12,
            "step {step}: velocity residual {velocity:e}"
        );
    }
}

#[test]
fn rescaling_controls_temperature() {
    let mut sys = WaterBox::builder()
        .molecules(64)
        .seed(32)
        .temperature(500.0)
        .build();
    let integ = integrator(sys.pbc().side());
    integ.rescale_temperature(&mut sys, 300.0);
    let reports = integ.run(&mut sys, 5);
    let t = reports[0].temperature;
    assert!((t - 300.0).abs() < 60.0, "T after rescale = {t}");
}

#[test]
fn nve_energy_is_bounded_after_equilibration() {
    let mut sys = WaterBox::builder().molecules(64).seed(33).build();
    let integ = integrator(sys.pbc().side());
    for _ in 0..6 {
        integ.run(&mut sys, 10);
        integ.rescale_temperature(&mut sys, 300.0);
    }
    let reports = integ.run(&mut sys, 60);
    let e0 = reports[5].total_energy();
    let e1 = reports.last().unwrap().total_energy();
    let ke = reports[5].kinetic.max(1.0);
    assert!(
        (e1 - e0).abs() < 0.10 * ke,
        "drift {} vs kinetic scale {ke}",
        e1 - e0
    );
}

#[test]
fn msd_grows_in_a_liquid() {
    let mut sys = WaterBox::builder().molecules(64).seed(34).build();
    let integ = integrator(sys.pbc().side());
    for _ in 0..4 {
        integ.run(&mut sys, 10);
        integ.rescale_temperature(&mut sys, 300.0);
    }
    let mut tracker = MsdTracker::new(&sys);
    let mut t = 0.0;
    for _ in 0..6 {
        integ.run(&mut sys, 10);
        t += integ.dt * 10.0;
        tracker.sample(&sys, t);
    }
    let samples = tracker.samples();
    assert!(samples.last().unwrap().1 > samples[0].1 * 0.5);
    assert!(samples.last().unwrap().1 > 0.0);
}

#[test]
fn rdf_shows_a_first_shell() {
    // After a little dynamics, the O-O RDF should have structure: a
    // depleted core and a first peak near 0.28 nm.
    let mut sys = WaterBox::builder().molecules(125).seed(35).build();
    let integ = integrator(sys.pbc().side());
    for _ in 0..4 {
        integ.run(&mut sys, 10);
        integ.rescale_temperature(&mut sys, 300.0);
    }
    let g = rdf_oo(&sys, 0.7, 35);
    let core: f64 = g.iter().filter(|(r, _)| *r < 0.22).map(|(_, v)| *v).sum();
    assert!(core < 0.5, "hard core not depleted: {core}");
    let peak = g
        .iter()
        .filter(|(r, _)| (0.24..0.36).contains(r))
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    assert!(peak > 1.0, "no first shell: peak {peak}");
}

#[test]
fn different_models_have_different_energetics() {
    let spc = WaterBox::builder()
        .molecules(64)
        .model(WaterModel::spc())
        .seed(36)
        .build();
    let tip3p = WaterBox::builder()
        .molecules(64)
        .model(WaterModel::tip3p())
        .seed(36)
        .build();
    let integ = integrator(spc.pbc().side());
    let e_spc = integ.single_point(&spc).potential();
    let e_tip3p = integ.single_point(&tip3p).potential();
    assert_ne!(e_spc, e_tip3p);
}
