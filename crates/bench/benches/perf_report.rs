//! Machine-readable performance report: runs every StreamMD variant on
//! a 216-molecule box at host thread counts {1, 4}, verifies the
//! parallel engine's bitwise-determinism contract, and writes
//! `BENCH_streammd_216.json` (override the directory with
//! `BENCH_REPORT_DIR`). The partition report comes from the environment
//! (`HostExec::from_vars`, strict: a malformed `MERRIMAC_*` value exits
//! 1). The thread counts are pinned at 1 and 4 by design, because the
//! 1-vs-4 comparison is the report's point, so a valid
//! `MERRIMAC_HOST_THREADS` does not move them.

use std::time::Instant;

use merrimac_bench::{
    analyze, banner, run, small_system, HostExec, LintRecord, PerfReport, RunSpec, VariantRecord,
};
use streammd::Variant;

const MOLECULES: usize = 216;
const THREADS: usize = 4;

fn main() {
    banner(
        "perf report",
        "per-variant GFLOPS/intensity/locality as BENCH_*.json",
    );
    let host = HostExec::from_vars(|var| std::env::var(var).ok()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    });
    let (system, list) = small_system(MOLECULES);
    let mut report = PerfReport::new(format!("streammd_{MOLECULES}"), MOLECULES, THREADS);

    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "variant", "sol GFLOPS", "intensity", "serial (s)", "parallel(s)", "speedup"
    );
    for variant in Variant::ALL {
        let t0 = Instant::now();
        let serial = run(RunSpec::new(&system, &list, variant).host(host).threads(1));
        let serial_wall = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let parallel = run(RunSpec::new(&system, &list, variant)
            .host(host)
            .threads(THREADS));
        let parallel_wall = t1.elapsed().as_secs_f64();
        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                assert_eq!(
                    s.forces, p.forces,
                    "{variant}: parallel forces must be bitwise-identical to serial"
                );
                assert_eq!(s.perf.cycles, p.perf.cycles);
                assert_eq!(s.report.counters, p.report.counters);
                println!(
                    "{:<12} {:>12.2} {:>10.2} {:>12.3} {:>12.3} {:>9.2}x",
                    variant.name(),
                    p.perf.solution_gflops,
                    p.perf.intensity_measured,
                    serial_wall,
                    parallel_wall,
                    serial_wall / parallel_wall.max(1e-12)
                );
                report.variants.push(VariantRecord::from_outcome(
                    variant.name(),
                    &p,
                    parallel_wall,
                ));
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                report
                    .variants
                    .push(VariantRecord::from_error(variant.name(), &e.to_string()));
            }
        }
    }

    println!("\nstatic analysis (merrimac-lint passes over each step program):");
    println!(
        "{:<12} {:>7} {:>9} {:>6}",
        "variant", "errors", "warnings", "infos"
    );
    for variant in Variant::ALL {
        match analyze(RunSpec::new(&system, &list, variant)) {
            Ok(diags) => {
                let counts = LintRecord::new(variant.name(), &diags);
                println!(
                    "{:<12} {:>7} {:>9} {:>6}",
                    counts.variant, counts.errors, counts.warnings, counts.infos
                );
                report.lints.push(counts);
            }
            Err(e) => eprintln!("lint pass skipped for {variant}: {e}"),
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nhost cores available: {cores} (speedup requires > 1)");
    match report.write_default() {
        Ok(path) => println!("[ok] wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write report: {e}");
            std::process::exit(1);
        }
    }
}
