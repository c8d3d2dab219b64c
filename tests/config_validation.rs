//! The un-runnable-configuration diagnostic, end to end.
//!
//! The ROADMAP pathology: the fixed variant with `strip_iterations(997)`
//! on the 216-molecule box used to wedge the simulated scoreboard — a
//! full 997-block strip needs more SRF words per cluster for the
//! kernel's live streams than the machine has, so the kernel could never
//! issue and the run died as an opaque `Deadlock`. Both layers of the
//! fix are pinned here: the builder rejects the strip at `build()` time,
//! and (for configurations smuggled past the builder by mutating the
//! app's public fields directly) the simulator's preflight turns the
//! deadlock into a `StripSrfOverflow` naming the strip size.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::water::WaterModel;
use merrimac_arch::MachineConfig;
use streammd::{run_multinode, MerrimacDriver, SimError, StreamMdApp, Variant};

fn box_216() -> (WaterBox, NeighborList) {
    let system = WaterBox::builder().molecules(216).seed(42).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    (system, list)
}

#[test]
fn builder_rejects_strip_997_naming_the_strip() {
    let err = StreamMdApp::builder()
        .strip_iterations(997)
        .build()
        .expect_err("a 997-block fixed strip cannot fit the SRF");
    match &err {
        SimError::StripSrfOverflow {
            strip_iterations,
            needed_words_per_cluster,
            capacity_words_per_cluster,
            ..
        } => {
            assert_eq!(*strip_iterations, 997);
            assert!(needed_words_per_cluster > capacity_words_per_cluster);
        }
        other => panic!("expected StripSrfOverflow, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("997"), "diagnostic must name the strip: {msg}");
    assert!(
        msg.contains("strip_iterations"),
        "diagnostic must point at the knob: {msg}"
    );
}

#[test]
fn unchecked_field_path_gets_the_diagnostic_at_run_time() {
    // Smuggle the bad strip past the builder by mutating the app's
    // public fields directly; the simulator preflight must still refuse
    // with the named diagnostic instead of deadlocking.
    let (system, list) = box_216();
    let mut app = StreamMdApp::new(MachineConfig::default());
    app.neighbor = list.params;
    app.strip_iterations = Some(997);
    let err = app
        .run_step_with_list(&system, &list, Variant::Fixed)
        .expect_err("fixed/997/216 molecules is un-runnable");
    let msg = err.to_string();
    assert!(
        matches!(err, SimError::StripSrfOverflow { .. }),
        "expected StripSrfOverflow, got {err:?}"
    );
    assert!(msg.contains("997"), "diagnostic must name the strip: {msg}");
    assert!(
        !msg.to_lowercase().contains("deadlock"),
        "must diagnose the cause, not the symptom: {msg}"
    );
}

#[test]
fn same_strip_is_fine_for_the_compact_variants() {
    // The rejection is per-footprint, not a blanket strip cap: 997
    // iterations of the expanded or variable variant fit comfortably.
    let (system, list) = box_216();
    let app = StreamMdApp::builder()
        .neighbor(list.params)
        .strip_iterations(997)
        .variants(&[Variant::Expanded, Variant::Variable])
        .build()
        .expect("builds for the compact variants");
    for v in [Variant::Expanded, Variant::Variable] {
        let out = app.run_step_with_list(&system, &list, v).unwrap();
        assert!(out.perf.cycles > 0, "{v}");
    }
}

#[test]
fn inputs_no_stream_program_serves_are_typed_errors_at_every_entry_point() {
    // All used to panic: a model of neither 1 nor 3 sites deep inside
    // the force field, an over-long list radius in
    // `NeighborList::build`'s minimum-image assert. N-site water is
    // served by every force step since; what is left to reject there is
    // a site count `Workload`'s charged-site mask cannot hold, and only
    // the driver (SETTLE places a 3-site triangle) still turns TIP5P away.
    let spc = WaterBox::builder().molecules(27).seed(7).build();
    let side = spc.pbc().side();
    let fits = NeighborListParams {
        cutoff: 0.4 * side,
        skin: 0.0,
        rebuild_interval: 10,
    };
    let of_model = |model| {
        WaterBox::builder()
            .molecules(27)
            .model(model)
            .seed(7)
            .build()
    };
    let mut many_sites = WaterModel::spc();
    while many_sites.num_sites() < 33 {
        many_sites.sites.push(many_sites.sites[1]);
    }
    let too_long = NeighborListParams {
        cutoff: 0.6 * side,
        ..fits
    };
    // (name, system, list parameters, error text, served by a force step)
    let cases = [
        (
            "tip5p",
            of_model(WaterModel::tip5p()),
            fits,
            "5 interaction sites",
            true,
        ),
        (
            "33 sites",
            of_model(many_sites),
            fits,
            "33 interaction sites",
            false,
        ),
        ("cutoff 0.6 side", spc, too_long, "half the box side", false),
    ];
    for (name, system, params, needle, force_step_serves) in cases {
        // The entry points that take a list get one no `build` made
        // where they must refuse before building any.
        let list = if force_step_serves {
            NeighborList::build(&system, params)
        } else {
            NeighborList::empty(params)
        };
        let app = StreamMdApp::builder().neighbor(params).build().unwrap();
        let mut force_steps = Vec::new();
        let mut driven_runs = Vec::new();
        for v in Variant::ALL {
            force_steps.push((format!("run_step/{v}"), app.run_step(&system, v).err()));
            force_steps.push((
                format!("run_step_with_list/{v}"),
                app.run_step_with_list(&system, &list, v).err(),
            ));
            force_steps.push((
                format!("run_multinode/{v}"),
                run_multinode(&app, &system, &list, v, 2).err(),
            ));
            let mut driven = system.clone();
            let run = MerrimacDriver::new(app.clone(), v).run(&mut driven, 2);
            driven_runs.push((format!("MerrimacDriver::run/{v}"), run.err()));
            assert_eq!(driven.positions(), system.positions(), "{name}/{v}");
        }
        if force_step_serves {
            for (entry, err) in force_steps.drain(..) {
                assert!(err.is_none(), "{name} via {entry}: {err:?}");
            }
        }
        for (entry, err) in force_steps.into_iter().chain(driven_runs) {
            match err {
                Some(SimError::Config(msg)) => {
                    assert!(msg.contains(needle), "{name} via {entry}: {msg}")
                }
                other => panic!("{name} via {entry}: expected SimError::Config, got {other:?}"),
            }
        }
    }
}

#[test]
fn a_driven_trajectory_needs_a_symmetric_3_site_triangle() {
    // SETTLE places the triangle of two equal hydrogens on equal O-H
    // bonds: a 3-site model unequal in either is a force step's model
    // but no trajectory's, refused before the first step. The shipped
    // 3-site models drive.
    let mut heavy = WaterModel::spc();
    heavy.sites[2].mass *= 2.0;
    let mut stretched = WaterModel::spc();
    stretched.sites[2].offset = stretched.sites[2].offset * 1.05;
    let cases = [
        (heavy, false),
        (stretched, false),
        (WaterModel::spc(), true),
        (WaterModel::tip3p(), true),
        (WaterModel::ppc_static(), true),
    ];
    for (model, drives) in cases {
        let name = model.name.clone();
        let system = WaterBox::builder()
            .molecules(27)
            .model(model)
            .seed(7)
            .build();
        let params = NeighborListParams {
            cutoff: 0.4 * system.pbc().side(),
            skin: 0.0,
            rebuild_interval: 10,
        };
        let app = StreamMdApp::builder().neighbor(params).build().unwrap();
        assert!(app.run_step(&system, Variant::Variable).is_ok(), "{name}");
        let mut driven = system.clone();
        let run = MerrimacDriver::new(app, Variant::Variable).run(&mut driven, 2);
        match (drives, run) {
            (true, Ok(report)) => assert_eq!(report.steps.len(), 2, "{name}"),
            (false, Err(SimError::Config(msg))) => {
                assert!(msg.contains("is not a symmetric triangle"), "{name}: {msg}");
                assert_eq!(driven.positions(), system.positions(), "{name}");
            }
            (_, other) => panic!("{name}: drives = {drives}, got {:?}", other.err()),
        }
    }
}

#[test]
fn a_list_built_over_another_box_is_a_config_error_on_every_list_path() {
    let system = WaterBox::builder().molecules(27).seed(42).build();
    let params = NeighborListParams {
        cutoff: 0.3,
        skin: 0.0,
        rebuild_interval: 10,
    };
    let app = StreamMdApp::builder().neighbor(params).build().unwrap();
    // Larger, its indices run past the system; smaller, it leaves
    // molecules out. Both are refused before a step program is built.
    for other in [64, 8] {
        let elsewhere = WaterBox::builder().molecules(other).seed(42).build();
        let list = NeighborList::build(&elsewhere, params);
        for v in Variant::ALL {
            let refused = [
                app.run_step_with_list(&system, &list, v).err(),
                run_multinode(&app, &system, &list, v, 2).err(),
            ];
            for err in refused {
                match err {
                    Some(SimError::Config(msg)) => assert!(
                        msg.contains(&format!("built over {other} molecules, the system has 27")),
                        "{other}/{v}: {msg}"
                    ),
                    other => panic!("{v}: expected a config error, got {other:?}"),
                }
            }
        }
    }
    let own = NeighborList::build(&system, params);
    assert_eq!(own.molecules(), 27);
    assert!(app
        .run_step_with_list(&system, &own, Variant::Variable)
        .is_ok());
}
