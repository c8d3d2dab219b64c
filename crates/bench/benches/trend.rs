//! Perf-trend gate: run every StreamMD variant on the trend dataset and
//! hold the report to the committed baseline
//! (`bench/baselines/BENCH_<label>.json`) exactly. Every member of both
//! reports must match except the host's own, `threads` and
//! `wall_seconds`; each difference prints as one `path: baseline →
//! current` line (`variants[2].phases.kernel: 81234 → 81240`), and any
//! line, a missing baseline included, exits 1. An intended change of a
//! simulated number, better or worse, is a baseline refresh. Host
//! wall-clock is recorded, not compared: the repo benchmark owns it. CI
//! runs the 216-molecule, multi-node and LJ gates on every push and the
//! 900-molecule gate on `main`; run one locally with `cargo trend`
//! (alias) or `cargo bench -p merrimac-bench --bench trend`.
//!
//! Environment:
//!
//! * `TREND_DATASET` — the dataset, strictly; any other value exits 1:
//!   - unset or `216` — the 216-molecule water box (label `trend_216`);
//!   - `900` — the paper's 900-molecule dataset (label `trend_900`);
//!   - `lj` — a 512-particle Lennard-Jones atomic fluid (label
//!     `trend_lj`), the single-site workload path end to end;
//!   - `multinode` — the 216-molecule box through the end-to-end
//!     multi-node runner at several node counts (label
//!     `trend_multinode`, records like `variable@n8`); `cycles` is the
//!     simulated barrier-to-barrier multi-node step, so the gate holds
//!     the halo-exchange comm model as well as the compute path.
//! * `MERRIMAC_HOST_THREADS` — engine threads, resolved strictly: a
//!   malformed value (`two`) exits 1. Unset, the host's parallelism
//!   capped at 8. Simulated numbers are bitwise-identical at any count.
//! * `TREND_REFRESH=1` — rewrite the committed baseline from this run
//!   (after an intentional model change) and exit.
//! * `TREND_BASELINE_DIR` — read/write baselines here instead of the
//!   committed directory.
//! * `BENCH_REPORT_DIR` — where the current report and the
//!   `TREND_DELTA.txt` difference lines land (default: current
//!   directory).

use std::path::Path;
use std::time::Instant;

use md_sim::neighbor::NeighborList;
use md_sim::system::WaterBox;
use md_sim::water::WaterModel;
use merrimac_bench::{
    atomic_system, banner, env_usize, paper_system, run, small_system, trend, EnvOverrideError,
    HostExec, PerfReport, RunSpec, VariantRecord,
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
    system: WaterBox,
    list: NeighborList,
    mode: Mode,
}

fn dataset_from_env() -> Dataset {
    let name = std::env::var_os("TREND_DATASET")
        .map_or("216".into(), |v| v.to_string_lossy().into_owned());
    let ((system, list), label, mode) = match name.as_str() {
        "216" => (small_system(216), "trend_216", Mode::Variants),
        "900" => (paper_system(), "trend_900", Mode::Variants),
        "lj" => (
            atomic_system(WaterModel::lj_atom(), 512),
            "trend_lj",
            Mode::Variants,
        ),
        "multinode" => (
            small_system(216),
            "trend_multinode",
            Mode::MultiNode(MULTINODE_POINTS),
        ),
        _ => {
            eprintln!(
                "TREND_DATASET={name:?} is none of `216` (the default), `900`, `lj`, `multinode`"
            );
            std::process::exit(1)
        }
    };
    Dataset {
        label,
        system,
        list,
        mode,
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
    let threads = strict(env_usize(env, "MERRIMAC_HOST_THREADS")).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    });
    let host = HostExec { threads };
    banner(
        "trend gate",
        "every simulated number vs. the committed baseline, exactly",
    );
    let molecules = ds.system.num_molecules();
    println!(
        "dataset: {molecules} molecules (label {}), {threads} engine thread(s)",
        ds.label
    );
    let mut current = PerfReport::new(ds.label, molecules, threads);
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

    let refresh = "TREND_REFRESH=1 cargo bench -p merrimac-bench --bench trend";
    let path = baseline_dir.join(format!("BENCH_{}.json", ds.label));
    let lines = std::fs::read_to_string(&path)
        .map_err(|e| {
            format!(
                "cannot read {}: {e}; seed it with {refresh}",
                path.display()
            )
        })
        .and_then(|baseline| trend::diff(&baseline, &current))
        .unwrap_or_else(|e| {
            eprintln!("trend gate FAILED: {e}");
            std::process::exit(1)
        });
    let delta: String = lines.iter().map(|l| format!("{l}\n")).collect();
    print!("{delta}");
    write_delta(&delta);
    if !lines.is_empty() {
        eprintln!(
            "trend gate FAILED: {} difference(s) from {}",
            lines.len(),
            path.display()
        );
        eprintln!("if the change is intended, refresh the baseline: {refresh}");
        std::process::exit(1);
    }
    println!("trend gate passed: every simulated number equals the baseline's");
}

fn write_delta(delta: &str) {
    let dir = std::env::var("BENCH_REPORT_DIR").unwrap_or_else(|_| ".".to_string());
    let path = Path::new(&dir).join("TREND_DELTA.txt");
    match std::fs::write(&path, delta) {
        Ok(()) => println!("[ok] wrote {}", path.display()),
        Err(e) => eprintln!("could not write the difference lines: {e}"),
    }
}
