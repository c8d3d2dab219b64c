//! Run a short molecular-dynamics trajectory with the reference engine:
//! equilibration with velocity rescaling, then NVE with energy tracking
//! and a self-diffusion estimate (the physics behind Table 5).
//!
//! ```sh
//! cargo run --release --example md_simulate [molecules] [steps]
//! ```

use md_sim::analyze::MsdTracker;
use md_sim::integrate::Integrator;
use md_sim::neighbor::NeighborListParams;
use md_sim::system::WaterBox;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let molecules: usize = args.get(1).map_or(216, |s| s.parse().expect("molecules"));
    let steps: usize = args.get(2).map_or(400, |s| s.parse().expect("steps"));

    let mut system = WaterBox::builder()
        .molecules(molecules)
        .temperature(300.0)
        .seed(2026)
        .build();
    let side = system.pbc().side();
    // Largest cutoff the minimum-image convention allows for this box,
    // leaving room for the 0.08 nm list skin.
    let cutoff = (side / 2.0 * 0.96 - 0.08).min(1.0);
    println!("{molecules} SPC molecules, box {side:.2} nm, cutoff {cutoff:.2} nm");

    let integ = Integrator {
        dt: 0.002,
        neighbor: NeighborListParams {
            cutoff,
            skin: 0.08,
            rebuild_interval: 5,
        },
    };

    // Equilibrate.
    println!(
        "\nequilibrating ({} steps with velocity rescaling)...",
        steps / 2
    );
    for _ in 0..8 {
        integ.run(&mut system, steps / 16);
        integ.rescale_temperature(&mut system, 300.0);
    }

    // Production NVE.
    println!("production NVE ({steps} steps):");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>8}",
        "t (ps)", "E_pot", "E_kin", "E_tot", "T (K)"
    );
    let mut tracker = MsdTracker::new(&system);
    let chunk = steps / 10;
    let mut t = 0.0;
    let mut first_e = None;
    let mut last_e = 0.0;
    for _ in 0..10 {
        let reports = integ.run(&mut system, chunk);
        t += integ.dt * chunk as f64;
        tracker.sample(&system, t);
        let r = reports.last().unwrap();
        last_e = r.total_energy();
        first_e.get_or_insert(last_e);
        println!(
            "{:>8.2} {:>12.1} {:>12.1} {:>12.1} {:>8.1}",
            t,
            r.potential,
            r.kinetic,
            r.total_energy(),
            r.temperature
        );
    }

    let drift = (last_e - first_e.unwrap()).abs();
    println!("\nenergy drift over the production run: {drift:.2} kJ/mol");
    if let Some(d) = tracker.diffusion_1e5_cm2_s(2) {
        println!("self-diffusion estimate: {d:.2} x 1e-5 cm^2/s (experimental water: 2.3)");
    }
}
