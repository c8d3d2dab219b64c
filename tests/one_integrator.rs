//! One integration loop: `Integrator::run_with` over any force source.
//!
//! `Integrator::run` is that loop over the reference engine at width 1
//! and `MerrimacDriver::run` is it over the simulated machine, so what is
//! pinned here is the loop itself: its recorded trajectory, its
//! independence of the host width, and the unconstrained 1-site path
//! only the driver used to have.

use std::convert::Infallible;

use md_sim::atomic::compute_forces_atomic;
use md_sim::force::compute_forces;
use md_sim::integrate::{Integrator, StepReport};
use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use md_sim::water::WaterModel;

fn reference(system: &WaterBox, list: &NeighborList) -> Result<(Vec<Vec3>, f64), Infallible> {
    let result = compute_forces(system, list);
    let potential = result.potential();
    Ok((result.forces, potential))
}

fn bits(vs: &[Vec3]) -> Vec<[u64; 3]> {
    vs.iter()
        .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
        .collect()
}

fn report_bits(r: &StepReport) -> ([u64; 4], bool) {
    let floats = [r.potential, r.kinetic, r.temperature, r.max_displacement];
    (floats.map(f64::to_bits), r.rebuilt_list)
}

/// FNV-1a, 64 bit, over the bits of every component.
fn fnv(vs: &[Vec3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in bits(vs).into_iter().flatten() {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn water_64() -> (WaterBox, Integrator, usize) {
    let system = WaterBox::builder().molecules(64).seed(31).build();
    let integ = Integrator {
        neighbor: NeighborListParams {
            cutoff: 0.45,
            skin: 0.1,
            rebuild_interval: 5,
        },
        ..Default::default()
    };
    (system, integ, 20)
}

fn water_900() -> (WaterBox, Integrator, usize) {
    let integ = Integrator {
        neighbor: NeighborListParams {
            cutoff: 1.0,
            skin: 0.1,
            rebuild_interval: 10,
        },
        ..Default::default()
    };
    (WaterBox::paper_dataset(42), integ, 2)
}

#[test]
fn integrator_run_keeps_its_trajectory() {
    // Recorded when SETTLE replaced SHAKE / RATTLE (the energies moved
    // in the 12th digit); `run` has been `run_with` over the reference
    // engine since the recording before that.
    let (mut system, integ, steps) = water_64();
    let reports = integ.run(&mut system, steps);
    assert_eq!(
        (fnv(system.positions()), fnv(system.velocities())),
        (GOLDEN_POSITIONS, GOLDEN_VELOCITIES),
        "got ({:#018x}, {:#018x})",
        fnv(system.positions()),
        fnv(system.velocities())
    );
    let last = reports.last().unwrap();
    assert_eq!(
        [last.potential.to_bits(), last.kinetic.to_bits()],
        GOLDEN_LAST_ENERGIES,
        "got [{:#018x}, {:#018x}]",
        last.potential.to_bits(),
        last.kinetic.to_bits()
    );
}

const GOLDEN_POSITIONS: u64 = 0x9ee9_7fb7_d80e_bf67;
const GOLDEN_VELOCITIES: u64 = 0xb137_4f39_af9b_fd63;
const GOLDEN_LAST_ENERGIES: [u64; 2] = [0xc096_a905_11c0_a37e, 0x409a_18d0_62fd_b953];

#[test]
fn generic_loop_over_the_reference_engine_is_integrator_run_at_every_width() {
    for (name, (start, integ, steps)) in [("water-64", water_64()), ("water-900", water_900())] {
        let mut a = start.clone();
        let want = integ.run(&mut a, steps);
        assert!(
            name != "water-64" || want.iter().any(|r| !r.rebuilt_list),
            "the skin must carry some steps"
        );
        for width in [1, 4] {
            let mut b = start.clone();
            let got = match integ.run_with(&mut b, steps, width, reference) {
                Ok(got) => got,
                Err(never) => match never {},
            };
            assert_eq!(bits(a.positions()), bits(b.positions()), "{name}@{width}");
            assert_eq!(bits(a.velocities()), bits(b.velocities()), "{name}@{width}");
            assert_eq!(got.len(), want.len());
            for (step, ((report, potential), want)) in got.into_iter().zip(&want).enumerate() {
                let got = StepReport {
                    potential,
                    ..report
                };
                assert_eq!(
                    report_bits(&got),
                    report_bits(want),
                    "{name}@{width} step {step}"
                );
            }
        }
    }
}

#[test]
fn one_site_box_integrates_unconstrained_with_bounded_drift() {
    let mut system = WaterBox::builder()
        .molecules(64)
        .model(WaterModel::lj_atom())
        .density(21.0)
        .temperature(120.0)
        .seed(61)
        .build();
    let integ = Integrator {
        dt: 0.002,
        neighbor: NeighborListParams {
            cutoff: 0.45 * system.pbc().side(),
            skin: 0.05,
            rebuild_interval: 5,
        },
    };
    let atomic = |system: &WaterBox, list: &NeighborList| {
        let result = compute_forces_atomic(system, list);
        Ok::<_, Infallible>((result.forces, result.lj_energy + result.coulomb_energy))
    };
    let reports = match integ.run_with(&mut system, 200, 1, atomic) {
        Ok(reports) => reports,
        Err(never) => match never {},
    };
    assert_eq!(reports.len(), 200);
    let energy = |(r, potential): &(StepReport, f64)| potential + r.kinetic;
    let e0 = energy(&reports[0]);
    let scale = reports[0].0.kinetic.abs().max(1.0);
    for (step, r) in reports.iter().enumerate() {
        // 3 DoF per atom: equipartition puts T near where it started.
        assert!(
            r.0.temperature > 20.0 && r.0.temperature < 400.0,
            "step {step}: T = {}",
            r.0.temperature
        );
        // Truncated (unshifted) cut-off forces make perfect conservation
        // impossible; demand drift below 5% of the kinetic scale.
        assert!(
            (energy(r) - e0).abs() < 0.05 * scale,
            "step {step}: energy drifted {} on a kinetic scale of {scale}",
            energy(r) - e0
        );
    }
}
