//! Extension X2 — complex water models (paper Section 5.4): more charge
//! sites raise arithmetic intensity, so "Merrimac will provide better
//! performance for those more accurate models". SPC and TIP3P (3 sites)
//! against TIP5P (5 sites, 4 of them charged) on every variant, through
//! the one pipeline every other harness uses (`StreamMdApp::run_step`).

use md_sim::neighbor::NeighborListParams;
use md_sim::system::WaterBox;
use md_sim::water::WaterModel;
use merrimac_bench::{banner, run, small_system, RunSpec, SEED};
use streammd::{PerfSummary, StreamMdApp, Variant, Workload};

const MOLECULES: usize = 216;

/// One force step per variant (`Variant::ALL` order) on the
/// [`small_system`] box of `model`.
fn steps(model: &WaterModel) -> Vec<PerfSummary> {
    let system = WaterBox::builder()
        .molecules(MOLECULES)
        .model(model.clone())
        .seed(SEED)
        .build();
    let app = StreamMdApp::builder()
        .neighbor(NeighborListParams {
            cutoff: (0.45 * system.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 10,
        })
        .build()
        .expect("default app");
    Variant::ALL
        .iter()
        .map(|&v| match app.run_step(&system, v) {
            Ok(out) => out.perf,
            Err(e) => panic!("{} {v}: {e}", model.name),
        })
        .collect()
}

fn main() {
    banner(
        "Extension X2",
        "complex water models raise arithmetic intensity (Section 5.4)",
    );
    println!(
        "{:<8} {:>10} {:<11} {:>10} {:>11} {:>9}",
        "model", "flops/int", "variant", "intensity", "sol GFLOPS", "cycles"
    );
    let models = [WaterModel::spc(), WaterModel::tip3p(), WaterModel::tip5p()];
    let workloads = models.each_ref().map(Workload::of_model);
    let budgets = workloads.map(Workload::flops_per_interaction);
    let rows = models.each_ref().map(steps);
    for ((model, flops), perfs) in models.iter().zip(budgets).zip(&rows) {
        for (v, p) in Variant::ALL.iter().zip(perfs) {
            println!(
                "{:<8} {:>10} {:<11} {:>10.2} {:>11.2} {:>9}",
                model.name,
                flops,
                v.to_string(),
                p.intensity_measured,
                p.solution_gflops,
                p.cycles
            );
        }
    }
    println!();
    let (spc, tip5p) = (&rows[0], &rows[2]);
    println!(
        "TIP5P vs SPC: {:.2}x the flops per interaction on {:.2}x the record words",
        budgets[2] as f64 / budgets[0] as f64,
        workloads[2].width() as f64 / workloads[0].width() as f64
    );
    for (i, v) in Variant::ALL.iter().enumerate() {
        println!(
            "  {:<11} intensity x{:.3}   solution GFLOPS x{:.3}",
            v.to_string(),
            tip5p[i].intensity_measured / spc[i].intensity_measured,
            tip5p[i].solution_gflops / spc[i].solution_gflops
        );
        assert!(
            tip5p[i].intensity_measured > spc[i].intensity_measured,
            "{v}: TIP5P must have higher measured intensity"
        );
    }
    println!("(in-kernel derivation of the virtual sites would lift the intensity");
    println!(" gain to the full flop ratio — the paper's 'no additional memory");
    println!(" bandwidth' scenario; see streammd::workload.)");

    assert_eq!(budgets[2], 420);
    assert!(budgets[2] > budgets[0] * 3 / 2);
    println!("\n[ok] arithmetic intensity rises with model complexity");

    // One answer for one experiment: the SPC `expanded` row is the step
    // every other harness runs on this box.
    let (system, list) = small_system(MOLECULES);
    let main = run(RunSpec::new(&system, &list, Variant::Expanded)).expect("expanded");
    assert_eq!(spc[0].cycles, main.perf.cycles);
    println!(
        "[ok] SPC expanded is the main pipeline's step ({} cycles)",
        main.perf.cycles
    );
}
