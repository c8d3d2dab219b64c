//! Extension X1 — multi-node scaling of StreamMD over the folded-Clos
//! network ("initial results of the scaling of the algorithm to larger
//! configurations of the system", paper Section 1).
//!
//! Two parts: the analytic strong-scaling sweep on the tiled
//! 57.6M-molecule workload, and a simulated-vs-analytic comparison on
//! the paper's 900-molecule dataset — the end-to-end multi-node runner
//! (`streammd::multinode`) against the closed-form estimator, with the
//! estimator's two-phase latency and `worst_level` fixes applied. Set
//! `SCALING_MAX_SIM_NODES` (a positive integer, read strictly: a
//! malformed value exits 1) to cap the simulated node counts (CI uses
//! the default 8).

use std::time::Instant;

use merrimac_arch::{MachineConfig, NetworkConfig};
use merrimac_bench::{banner, env_usize, paper_system, run, RunSpec};
use merrimac_net::scaling::{estimate, scaling_sweep, ScalingWorkload};
use merrimac_net::topology::Topology;
use streammd::{MultiNodeBreakdown, Variant};

fn main() {
    banner(
        "Extension X1",
        "multi-node StreamMD scaling on the folded-Clos network",
    );

    // Calibrate per-molecule cost from the simulated single-node run.
    let (system, list) = paper_system();
    let out = match run(RunSpec::new(&system, &list, Variant::Variable)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let cycles_per_molecule = out.perf.cycles as f64 / system.num_molecules() as f64;
    println!(
        "single-node calibration: {:.0} cycles/molecule/step (variable variant)\n",
        cycles_per_molecule
    );

    let machine = MachineConfig::default();
    let net = NetworkConfig::default();
    // 57.6M-molecule system: the paper dataset tiled 40x40x40.
    let w = ScalingWorkload::paper_scaled(40, cycles_per_molecule);
    println!(
        "workload: {:.1}M molecules, r_c = {} nm",
        w.molecules / 1e6,
        w.cutoff_nm
    );
    println!();
    println!(
        "{:>7} {:>12} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "nodes", "mols/node", "halo/node", "compute(c)", "comm(c)", "eff", "TFLOPS"
    );
    let pts = scaling_sweep(&machine, &net, &w, 8192).expect("sweep over modeled node counts");
    for p in &pts {
        println!(
            "{:>7} {:>12.0} {:>10.0} {:>12.0} {:>12.0} {:>9.0}% {:>12.2}",
            p.nodes,
            p.molecules_per_node,
            p.halo_per_node,
            p.compute_cycles,
            p.comm_cycles,
            p.efficiency * 100.0,
            p.solution_gflops / 1e3
        );
    }

    let first = pts.first().unwrap();
    let last = pts.last().unwrap();
    assert!(last.step_seconds < first.step_seconds);
    assert!(last.efficiency < 1.0);
    println!();
    println!(
        "[ok] {}x nodes -> {:.0}x faster steps at {:.0}% efficiency",
        last.nodes,
        first.step_seconds / last.step_seconds,
        last.efficiency * 100.0
    );

    simulated_vs_analytic(&system, &list, &machine, &net, cycles_per_molecule);
}

/// Run the end-to-end multi-node runner on the real 900-molecule box
/// and put it next to the analytic estimator on the *same* workload.
/// The estimator assumes perfectly balanced compute and overlapped
/// communication; the executed runner measures what imbalance its strip
/// placement leaves and two non-overlapped exchange phases, so the gap
/// between the curves is exactly what the closed form cannot see.
/// `Σcomp/t1` is the nodes' compute summed over the single-node step:
/// what exceeds 1 is pipeline fill and drain paid once per node instead
/// of once. The pre-fix column re-adds the single-latency bug for
/// contrast (a small correction at on-board latencies, growing with the
/// level).
fn simulated_vs_analytic(
    system: &md_sim::system::WaterBox,
    list: &md_sim::neighbor::NeighborList,
    machine: &MachineConfig,
    net: &NetworkConfig,
    cycles_per_molecule: f64,
) {
    let max_nodes = env_usize(|var| std::env::var(var).ok(), "SCALING_MAX_SIM_NODES")
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1)
        })
        .unwrap_or(8);
    let n_mol = system.num_molecules() as f64;
    let side = system.pbc().side();
    let workload = ScalingWorkload {
        molecules: n_mol,
        cutoff_nm: list.params.cutoff,
        density: n_mol / side.powi(3),
        cycles_per_molecule,
        interactions_per_molecule: list.num_pairs() as f64 / n_mol,
    };
    let topo = Topology::new(net.clone());

    println!();
    banner(
        "Extension X1b",
        "simulated multi-node runner vs the (fixed) analytic estimator, 900 molecules",
    );
    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>10} {:>9} {:>10} {:>12} {:>12}",
        "nodes",
        "sim step(c)",
        "sim comm(c)",
        "sim eff",
        "imbal",
        "Σcomp/t1",
        "halo(w)",
        "analytic eff",
        "pre-fix eff"
    );
    let mut steps = Vec::new();
    let mut n = 1usize;
    while n <= max_nodes {
        let t0 = Instant::now();
        let sim = match run(RunSpec::new(system, list, Variant::Variable).nodes(n)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        // n = 1 takes the plain single-node path (no breakdown block);
        // its step is the canonical run with no communication at all.
        let mn = sim.perf.phases.multinode.unwrap_or(MultiNodeBreakdown {
            nodes: 1,
            compute_cycles_max: sim.perf.cycles,
            compute_cycles_mean: sim.perf.cycles,
            comm_cycles_max: 0,
            step_cycles: sim.perf.cycles,
            halo_in_words: 0,
            force_out_words: 0,
        });
        let sim_efficiency = sim.report.cycles as f64 / (n as f64 * mn.step_cycles.max(1) as f64);
        let ana = estimate(machine, &topo, &workload, n).expect("in-range node count");
        // What the estimator said before the two-phase latency fix:
        // identical bandwidth cycles, one latency charge instead of two.
        let level = topo.worst_level(n).expect("in-range node count");
        let prefix_comm = ana.comm_cycles - topo.latency_cycles(level) as f64;
        let prefix_step =
            ana.compute_cycles.max(prefix_comm) + 0.05 * prefix_comm.min(ana.compute_cycles);
        let single = workload.molecules * workload.cycles_per_molecule;
        let prefix_eff = single / (n as f64 * prefix_step);
        println!(
            "{:>7} {:>12} {:>12} {:>9.0}% {:>9.2} {:>9.2} {:>10} {:>11.2}% {:>11.2}% ({:.1}s)",
            n,
            mn.step_cycles,
            mn.comm_cycles_max,
            sim_efficiency * 100.0,
            mn.imbalance(),
            (n as u64 * mn.compute_cycles_mean) as f64 / sim.report.cycles as f64,
            mn.halo_in_words,
            ana.efficiency * 100.0,
            prefix_eff * 100.0,
            t0.elapsed().as_secs_f64()
        );
        assert!(sim_efficiency > 0.0 && sim_efficiency <= 1.0 + 1e-9);
        steps.push((n, mn.step_cycles, sim_efficiency));
        assert!(
            ana.efficiency <= prefix_eff + 1e-12,
            "two latency charges cannot make the analytic curve faster"
        );
        n *= 2;
    }
    println!();
    println!(
        "[ok] simulated forces are bitwise N-independent; the analytic curve assumes \
         perfect load balance and comm/compute overlap, so on a box this small the \
         executed runner sits below it — the gap is each node's own pipeline fill and \
         drain (Σcomp/t1 above 1), then what strip imbalance is left"
    );

    // The balance gate: placing strips by their cost must keep paying
    // from 2 to 4 to 8 nodes, and keep 8-node efficiency at 0.70 or
    // above. Larger node counts are printed, not gated.
    let gated: Vec<_> = steps
        .iter()
        .copied()
        .filter(|s| (2..=8).contains(&s.0))
        .collect();
    for pair in gated.windows(2) {
        let ((a, step_a, _), (b, step_b, _)) = (pair[0], pair[1]);
        assert!(
            step_b < step_a,
            "simulated step did not shrink from {a} to {b} nodes: {step_a} -> {step_b} cycles"
        );
    }
    let eff8 = steps.iter().find(|s| s.0 == 8).map(|s| s.2);
    if let Some(eff8) = eff8 {
        assert!(eff8 >= 0.70, "8-node efficiency {eff8:.3} is below 0.70");
    }
    println!(
        "[ok] the simulated step shrinks with every doubling from 2 to 8 nodes{}",
        eff8.map(|e| format!("; 8 nodes at {:.0}% efficiency (>= 70%)", e * 100.0))
            .unwrap_or_default()
    );
}
