//! Perf-trend regression gate: run every StreamMD variant on the trend
//! dataset, diff the simulated metrics (GFLOPS, intensity, locality,
//! cycles, and a multi-node row's imbalance — all bit-deterministic,
//! gated at `Tolerances::default()`) against the committed baseline
//! (`bench/baselines/BENCH_<label>.json`), print the delta table, and
//! exit non-zero on regression. Host
//! wall-clock is recorded, not gated: the repo benchmark owns it. CI
//! runs the 216-molecule gate on every push and the 900-molecule
//! paper-scale gate on `main`; run either locally with `cargo trend`
//! (alias) or `cargo bench -p merrimac-bench --bench trend`.
//!
//! Environment knobs:
//!
//! * `TREND_DATASET=900` — run the paper's 900-molecule dataset (label
//!   `trend_900`) instead of the default 216-molecule box (label
//!   `trend_216`).
//! * `TREND_DATASET=multinode` — run the 216-molecule box through the
//!   end-to-end multi-node runner at several node counts (label
//!   `trend_multinode`, records like `variable@n8`); `cycles` is the
//!   simulated barrier-to-barrier multi-node step, so the gate guards
//!   the halo-exchange comm model as well as the compute path.
//! * `TREND_DATASET=lj` — run every variant on a 512-particle
//!   Lennard-Jones atomic fluid (label `trend_lj`), guarding the
//!   single-site workload path end to end.
//! * `TREND_DATASET=charged` — the same box with the charged-particle
//!   (LJ + Coulomb) model (label `trend_charged`).
//! * `MERRIMAC_HOST_THREADS`, `MERRIMAC_PARTITION_VERBOSE` — the run's
//!   `HostExec`, resolved strictly here at the edge: a malformed value
//!   (`MERRIMAC_HOST_THREADS=two`) stops the gate with exit 1. Unset,
//!   the thread count is the host's parallelism capped at 8. Simulated
//!   metrics are bitwise-identical at any count; only wall-clock moves.
//! * `TREND_REFRESH=1` — rewrite the committed baseline from this run
//!   (after an intentional perf or model change) and exit.
//! * `TREND_BASELINE_DIR` — read/write baselines here instead of the
//!   committed directory.
//! * `BENCH_REPORT_DIR` — where the current report and the
//!   `TREND_DELTA.txt` table land (default: current directory).
//! * `TREND_INJECT_GFLOPS_FACTOR` / `TREND_INJECT_VARIANT` — scale the
//!   measured GFLOPS of one variant (default: all) before diffing; a
//!   self-test hook proving the gate trips (e.g. factor `0.95`).

use std::path::Path;
use std::time::Instant;

use md_sim::neighbor::NeighborList;
use md_sim::system::WaterBox;
use merrimac_bench::{
    atomic_system, banner, env_usize, paper_system, render_table, run, small_system, trend,
    EnvOverrideError, HostExec, PerfReport, RunSpec, Tolerances, VariantRecord,
};
use streammd::Variant;

/// What one gate run executes: every variant on one processor, or
/// selected variants decomposed over several simulated node counts.
enum Mode {
    Variants,
    MultiNode(&'static [(Variant, usize)]),
}

/// The multi-node sweep: the conditional-stream variant across the
/// acceptance node counts plus one block variant for coverage.
const MULTINODE_POINTS: &[(Variant, usize)] = &[
    (Variant::Variable, 1),
    (Variant::Variable, 2),
    (Variant::Variable, 8),
    (Variant::Fixed, 8),
];

/// The dataset the gate runs, selected by `TREND_DATASET`.
struct Dataset {
    label: &'static str,
    molecules: usize,
    system: WaterBox,
    list: NeighborList,
    mode: Mode,
}

fn dataset_from_env() -> Dataset {
    match std::env::var("TREND_DATASET").as_deref() {
        Ok("900") => {
            let (system, list) = paper_system();
            Dataset {
                label: "trend_900",
                molecules: 900,
                system,
                list,
                mode: Mode::Variants,
            }
        }
        Ok("lj") => {
            let (system, list) = atomic_system(md_sim::water::WaterModel::lj_atom(), 512);
            Dataset {
                label: "trend_lj",
                molecules: 512,
                system,
                list,
                mode: Mode::Variants,
            }
        }
        Ok("charged") => {
            let (system, list) = atomic_system(md_sim::water::WaterModel::charged_atom(), 512);
            Dataset {
                label: "trend_charged",
                molecules: 512,
                system,
                list,
                mode: Mode::Variants,
            }
        }
        Ok("multinode") => {
            let (system, list) = small_system(216);
            Dataset {
                label: "trend_multinode",
                molecules: 216,
                system,
                list,
                mode: Mode::MultiNode(MULTINODE_POINTS),
            }
        }
        _ => {
            let (system, list) = small_system(216);
            Dataset {
                label: "trend_216",
                molecules: 216,
                system,
                list,
                mode: Mode::Variants,
            }
        }
    }
}

/// A strictly resolved environment value: a malformed one exits 1.
fn strict<T>(resolved: Result<T, EnvOverrideError>) -> T {
    resolved.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    })
}

fn main() {
    let ds = dataset_from_env();
    let env = |var: &str| std::env::var(var).ok();
    let host = strict(HostExec::from_vars(env));
    let threads = strict(env_usize(env, "MERRIMAC_HOST_THREADS")).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    });
    let host = HostExec { threads, ..host };
    banner(
        "trend gate",
        "per-variant perf vs. committed baseline, fail on regression",
    );
    println!(
        "dataset: {} molecules (label {}), {threads} engine thread(s)",
        ds.molecules, ds.label
    );
    let mut current = PerfReport::new(ds.label, ds.molecules, threads);
    match ds.mode {
        Mode::Variants => {
            for variant in Variant::ALL {
                let t0 = Instant::now();
                match run(RunSpec::new(&ds.system, &ds.list, variant).host(host)) {
                    Ok(out) => {
                        let wall = t0.elapsed().as_secs_f64();
                        current.variants.push(VariantRecord::from_outcome(
                            variant.name(),
                            &out,
                            wall,
                        ));
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        current
                            .variants
                            .push(VariantRecord::from_error(variant.name(), &e.to_string()));
                    }
                }
            }
        }
        Mode::MultiNode(points) => {
            for &(variant, nodes) in points {
                let name = format!("{}@n{nodes}", variant.name());
                let t0 = Instant::now();
                let spec = RunSpec::new(&ds.system, &ds.list, variant)
                    .host(host)
                    .nodes(nodes);
                match run(spec) {
                    Ok(out) => {
                        let wall = t0.elapsed().as_secs_f64();
                        // n = 1 runs the plain single-node step and has
                        // no breakdown block to print.
                        if let Some(mn) = out.perf.phases.multinode {
                            println!(
                                "  {name}: step {} cycles (compute max {}, comm max {}, \
                                 imbalance {:.2}, halo {} words)",
                                mn.step_cycles,
                                mn.compute_cycles_max,
                                mn.comm_cycles_max,
                                mn.imbalance(),
                                mn.halo_in_words
                            );
                        } else {
                            println!("  {name}: step {} cycles (single node)", out.perf.cycles);
                        }
                        current
                            .variants
                            .push(VariantRecord::from_outcome(&name, &out, wall));
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        current
                            .variants
                            .push(VariantRecord::from_error(&name, &e.to_string()));
                    }
                }
            }
        }
    }
    apply_injection(&mut current);

    match current.write_default() {
        Ok(path) => println!("[ok] wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write current report: {e}");
            std::process::exit(1);
        }
    }

    let baseline_dir = trend::baseline_dir();
    if std::env::var("TREND_REFRESH").map(|v| v == "1") == Ok(true) {
        let path = current.write(&baseline_dir).expect("write baseline");
        println!("[ok] refreshed baseline {}", path.display());
        return;
    }

    let baseline = match trend::load_baseline(&baseline_dir, ds.label) {
        Ok(Some(b)) => b,
        Ok(None) => {
            println!(
                "no baseline {}/BENCH_{}.json — nothing to diff (seed one with TREND_REFRESH=1)",
                baseline_dir.display(),
                ds.label
            );
            return;
        }
        Err(e) => {
            eprintln!("baseline unusable: {e}");
            std::process::exit(1);
        }
    };

    let diff = merrimac_bench::compare(&baseline, &current, &Tolerances::default());
    let table = render_table(&diff);
    println!("{table}");
    write_delta_table(&table);
    if diff.is_regression() {
        eprintln!(
            "trend gate FAILED: {} metric regression(s), {} structural problem(s) vs {}",
            diff.regressions().len(),
            diff.problems.len(),
            baseline_dir
                .join(format!("BENCH_{}.json", ds.label))
                .display()
        );
        eprintln!(
            "if this change is intentional, refresh the baseline: \
             TREND_REFRESH=1 cargo bench -p merrimac-bench --bench trend"
        );
        std::process::exit(1);
    }
    println!("trend gate passed: no regression beyond tolerance");
}

/// Self-test hook: scale measured GFLOPS so CI can prove the gate trips.
fn apply_injection(report: &mut PerfReport) {
    let Some(factor) = std::env::var("TREND_INJECT_GFLOPS_FACTOR")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
    else {
        return;
    };
    let only = std::env::var("TREND_INJECT_VARIANT").ok();
    for rec in &mut report.variants {
        if only.as_deref().is_none_or(|v| v == rec.variant) {
            rec.solution_gflops *= factor;
            println!(
                "[inject] {} solution_gflops scaled by {factor}",
                rec.variant
            );
        }
    }
}

fn write_delta_table(table: &str) {
    let dir = std::env::var("BENCH_REPORT_DIR").unwrap_or_else(|_| ".".to_string());
    let path = Path::new(&dir).join("TREND_DELTA.txt");
    match std::fs::write(&path, table) {
        Ok(()) => println!("[ok] wrote {}", path.display()),
        Err(e) => eprintln!("could not write delta table: {e}"),
    }
}
