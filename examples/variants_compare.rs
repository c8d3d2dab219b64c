//! Figure 9 on demand: run all four StreamMD variants plus the Pentium 4
//! baseline on the paper's 900-molecule dataset and print solution
//! GFLOPS, all GFLOPS and memory reference counts side by side.
//!
//! ```sh
//! cargo run --release --example variants_compare
//! ```

use md_sim::neighbor::{NeighborList, NeighborListParams};
use merrimac_repro::prelude::*;

fn main() {
    let system = WaterBox::paper_dataset(42);
    let params = NeighborListParams {
        cutoff: 1.0,
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    println!(
        "dataset: {} molecules, {} interactions (Table 2)",
        system.num_molecules(),
        list.num_pairs()
    );
    println!();
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "variant", "cycles", "sol GFLOPS", "all GFLOPS", "MEM (Kref)", "time (ms)"
    );

    let app = StreamMdApp::builder()
        .machine(MachineConfig::default())
        .neighbor(params)
        .build()
        .expect("valid configuration");
    let mut results = Vec::new();
    for v in streammd::Variant::ALL {
        let out = app
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v} failed: {e}"));
        println!(
            "{:<12} {:>10} {:>12.2} {:>12.2} {:>12} {:>10.3}",
            v.name(),
            out.perf.cycles,
            out.perf.solution_gflops,
            out.perf.all_gflops,
            out.perf.mem_refs / 1000,
            out.perf.seconds * 1e3
        );
        results.push((v, out.perf));
    }

    // Pentium 4 baseline (Figure 9's right-most group).
    let p4 = p4_baseline::model::estimate(&P4Config::default(), &list);
    println!(
        "{:<12} {:>10} {:>12.2} {:>12} {:>12} {:>10.3}",
        "Pentium 4",
        "-",
        p4.solution_gflops,
        "-",
        "-",
        p4.seconds * 1e3
    );

    println!();
    let best = results
        .iter()
        .max_by(|a, b| a.1.solution_gflops.total_cmp(&b.1.solution_gflops))
        .unwrap();
    println!("fastest variant: {}", best.0);
    let expanded = results
        .iter()
        .find(|(v, _)| *v == Variant::Expanded)
        .unwrap();
    println!(
        "{} outperforms expanded by {:.0}% (paper: variable by 84%)",
        best.0,
        (best.1.solution_gflops / expanded.1.solution_gflops - 1.0) * 100.0
    );
    println!(
        "{} outperforms the Pentium 4 estimate by {:.1}x (paper: ~2x)",
        best.0,
        best.1.solution_gflops / p4.solution_gflops
    );
}
