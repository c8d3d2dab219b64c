//! Property tests for the parallel execution engine's determinism
//! contract: for every variant and any molecule count, running the
//! StreamMD step with N worker threads must produce forces that are
//! **bitwise-identical** to the serial run, and identical cycle,
//! counter and locality metrics — parallelism is a host-side
//! implementation detail, invisible in every simulated observable.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use merrimac_arch::MachineConfig;
use proptest::prelude::*;
use streammd::{StreamMdApp, Variant};

fn run_case(molecules: usize, seed: u64, strip: usize, threads: usize) {
    let system = WaterBox::builder().molecules(molecules).seed(seed).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 1,
    };
    let list = NeighborList::build(&system, params);
    // Deliberately unchecked field construction: the sampled strips
    // include sizes (997) whose *full* strip would overflow the SRF, but
    // these boxes are small enough that the layout clamps every strip to
    // the available work — the run-time preflight stays green. The
    // builder's dataset-independent validation would reject them.
    let mut app = StreamMdApp::new(MachineConfig::default());
    app.neighbor = params;
    app.strip_iterations = Some(strip);
    for v in Variant::ALL {
        let mut serial_app = app.clone();
        serial_app.host.threads = 1;
        let serial = serial_app
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v} serial: {e}"));
        let mut parallel_app = app.clone();
        parallel_app.host.threads = threads;
        let parallel = parallel_app
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v} x{threads}: {e}"));
        // Forces bitwise-identical: Vec3 equality is exact f64 equality.
        assert_eq!(
            serial.forces, parallel.forces,
            "{v} molecules={molecules} seed={seed} strip={strip} threads={threads}: forces diverged"
        );
        // Every simulated observable identical.
        assert_eq!(serial.perf.cycles, parallel.perf.cycles, "{v}: cycles");
        assert_eq!(serial.perf.seconds, parallel.perf.seconds, "{v}: seconds");
        assert_eq!(
            serial.report.counters, parallel.report.counters,
            "{v}: counters"
        );
        assert_eq!(
            serial.perf.locality, parallel.perf.locality,
            "{v}: locality split"
        );
        assert_eq!(serial.perf.overlap, parallel.perf.overlap, "{v}: overlap");
        assert_eq!(
            serial.report.sdr_peak, parallel.report.sdr_peak,
            "{v}: SDR peak"
        );
        assert_eq!(
            serial.report.srf_peak_words_per_cluster, parallel.report.srf_peak_words_per_cluster,
            "{v}: SRF peak"
        );
        assert_eq!(serial.iterations, parallel.iterations, "{v}: iterations");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_parallel_is_bitwise_serial(
        molecules in prop::sample::select(vec![27usize, 48, 64]),
        seed in 0u64..10_000,
        strip in prop::sample::select(vec![150usize, 301, 997]),
        threads in prop::sample::select(vec![2usize, 4, 7]),
    ) {
        run_case(molecules, seed, strip, threads);
    }
}

#[test]
fn parallel_determinism_at_216_molecules() {
    // The headline configuration from the engine's acceptance bar.
    // (Strip 301 keeps the fixed variant's per-strip SRF footprint small
    // enough to double-buffer at this molecule count.)
    run_case(216, 42, 301, 4);

    // `run_step` builds its own list at the app's width: inline at
    // `threads = 1`, fanned out at 4 on a box past the list's
    // parallel-build threshold. Every width builds the same list, so
    // the step is the same.
    let system = WaterBox::builder().molecules(512).seed(42).build();
    let mut app = StreamMdApp::new(MachineConfig::default());
    app.neighbor.cutoff = (0.45 * system.pbc().side()).min(1.0);
    let step = |threads| {
        let mut app = app.clone();
        app.host.threads = threads;
        app.run_step(&system, Variant::Variable)
            .unwrap_or_else(|e| panic!("run_step x{threads}: {e}"))
    };
    let (one, four) = (step(1), step(4));
    assert_eq!(one.forces, four.forces, "run_step: forces diverged");
    assert_eq!(one.perf, four.perf, "run_step: perf");
    assert_eq!(one.report.counters, four.report.counters, "run_step");
}
