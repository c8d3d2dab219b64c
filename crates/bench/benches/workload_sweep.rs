//! Workload size sweep — the atomic workloads (LJ fluid, charged
//! particles) across the 10⁴–10⁵-particle range, per variant, with the
//! arithmetic-intensity and sustained-GFLOPS trajectory printed against
//! the water reference point. Demonstrates that the workload-generic
//! pipeline (layout, kernels, admission, execution) holds at scaling
//! sizes, not just at the sanity-harness counts.
//!
//! Environment knobs:
//!
//! * `SWEEP_SIZES` — comma-separated particle counts
//!   (default `10000,31623,100000`).
//! * `SWEEP_VARIANTS` — comma-separated variant names
//!   (default `variable`; pass e.g. `variable,fixed` for list coverage
//!   on both the half-list and block layouts).
//! * `MERRIMAC_HOST_THREADS` — host worker threads, strictly: a
//!   malformed value exits 1 (default: host parallelism capped at 8).

use std::time::Instant;

use md_sim::water::WaterModel;
use merrimac_bench::{atomic_system, banner, env_usize, run, RunSpec};
use streammd::Variant;

fn sizes_from_env() -> Vec<usize> {
    std::env::var("SWEEP_SIZES")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![10_000, 31_623, 100_000])
}

fn variants_from_env() -> Vec<Variant> {
    std::env::var("SWEEP_VARIANTS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| {
                    let t = t.trim();
                    Variant::ALL.iter().copied().find(|v| v.name() == t)
                })
                .collect::<Vec<_>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![Variant::Variable])
}

fn threads_from_env() -> usize {
    env_usize(|var| std::env::var(var).ok(), "MERRIMAC_HOST_THREADS")
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1)
        })
}

fn main() {
    banner(
        "workload sweep",
        "atomic workloads over 10⁴–10⁵ particles, intensity & GFLOPS",
    );
    let sizes = sizes_from_env();
    let variants = variants_from_env();
    let threads = threads_from_env();
    println!("sizes: {sizes:?}, {threads} engine thread(s)\n");
    println!(
        "{:<10} {:>9} {:<12} {:>13} {:>10} {:>9} {:>9}",
        "workload", "particles", "variant", "interactions", "intensity", "GFLOPS", "wall s"
    );
    let mut failures = 0;
    for (label, model) in [
        ("lj", WaterModel::lj_atom()),
        ("charged", WaterModel::charged_atom()),
    ] {
        for &n in &sizes {
            let (system, list) = atomic_system(model.clone(), n);
            for &variant in &variants {
                let t0 = Instant::now();
                match run(RunSpec::new(&system, &list, variant).threads(threads)) {
                    Ok(out) => {
                        println!(
                            "{:<10} {:>9} {:<12} {:>13} {:>10.3} {:>9.2} {:>9.2}",
                            label,
                            n,
                            variant.name(),
                            out.dataset.interactions,
                            out.perf.intensity_measured,
                            out.perf.solution_gflops,
                            t0.elapsed().as_secs_f64()
                        );
                    }
                    Err(e) => {
                        failures += 1;
                        eprintln!("{label} n={n} {variant}: {e}");
                    }
                }
            }
        }
    }
    println!("\nwater reference (216 molecules, variable): intensity 10.52, 26.7 GFLOPS");
    println!("record-word bound: water 26.0, charged 13.7, lj 11.7 flops/word");
    if failures > 0 {
        eprintln!("\nworkload sweep: {failures} run(s) failed");
        std::process::exit(1);
    }
}
