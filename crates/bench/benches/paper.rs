//! Every table and figure of EXPERIMENTS.md, regenerated and checked:
//! Tables 1–5, Figures 7–12, Extensions X2 and X3 and the ablation
//! sweeps.
//!
//! `cargo bench -p merrimac-bench --bench paper` runs each artifact,
//! asserts the relationships the paper reports and prints its rows as
//! the markdown table EXPERIMENTS.md carries between
//! `<!-- paper:<id> -->` and `<!-- /paper:<id> -->`. Then it compares
//! every block with the document and exits 1 naming the first that
//! differs. Host-dependent output (wall seconds, thread counts) and the
//! ASCII timelines and schedules print outside the markers.

use std::time::Instant;

use blocking_model::model::{default_sizes, sweep, BlockingConfig, BlockingPoint, Calibration};
use md_sim::analyze::MsdTracker;
use md_sim::force::FLOPS_PER_INTERACTION;
use md_sim::integrate::Integrator;
use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use md_sim::water::WaterModel;
use merrimac_arch::{MachineConfig, NetworkConfig, OpCosts, P4Config};
use merrimac_bench::{atomic_system, paper_system, run, small_system, Dataset, RunSpec, SEED};
use merrimac_kernel::render::{render_pipelined, render_schedule};
use merrimac_net::scaling::{estimate, scaling_sweep, ScalingPoint, ScalingWorkload};
use merrimac_net::topology::Topology;
use merrimac_sim::timeline::Unit;
use merrimac_sim::{CompiledKernel, KernelOpt, SdrPolicy};
use streammd::kernels::variable_kernel;
use streammd::{
    run_multinode_program, AnalyticModel, PerfSummary, SimConfigBuilder, StepOutcome, StreamMdApp,
};
use streammd::{Variant, Workload};

const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// One generated table: its marker id, then its header and its rows,
/// each with the cells joined by `" | "`.
struct Block(&'static str, &'static str, Vec<String>);

impl Block {
    /// The table between its markers, as EXPERIMENTS.md holds it.
    fn marked(&self) -> String {
        let Block(id, head, rows) = self;
        let columns = head.split(" | ").count();
        let mut table = format!("| {head} |\n|{}\n", "---|".repeat(columns));
        for row in rows {
            assert_eq!(row.split(" | ").count(), columns, "block {id}: {row}");
            table += &format!("| {row} |\n");
        }
        format!("<!-- paper:{id} -->\n\n{table}\n<!-- /paper:{id} -->")
    }
}

fn commas(n: impl ToString) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The paper's 900-molecule box, its list, and one default step per
/// variant in `Variant::ALL` order.
struct Paper {
    system: WaterBox,
    list: NeighborList,
    steps: Vec<StepOutcome>,
}

impl Paper {
    fn new() -> Self {
        let (system, list) = paper_system();
        let mut paper = Self {
            system,
            list,
            steps: Vec::new(),
        };
        paper.steps = Variant::ALL.map(|v| paper.step(v, |b| b)).to_vec();
        paper
    }

    /// The app `tune` configures for `v` on the paper box.
    fn app(
        &self,
        v: Variant,
        tune: impl FnOnce(SimConfigBuilder) -> SimConfigBuilder,
    ) -> StreamMdApp {
        let app = StreamMdApp::builder()
            .neighbor(self.list.params)
            .variants(&[v]);
        tune(app).build().expect("valid config")
    }

    /// One step of `v` on the paper box, on the app `tune` configures.
    fn step(
        &self,
        v: Variant,
        tune: impl FnOnce(SimConfigBuilder) -> SimConfigBuilder,
    ) -> StepOutcome {
        let out = self
            .app(v, tune)
            .run_step_with_list(&self.system, &self.list, v);
        out.unwrap_or_else(|e| panic!("{v}: {e}"))
    }

    fn perf(&self, v: Variant) -> &PerfSummary {
        &self.steps[v as usize].perf
    }
}

fn table1() -> Block {
    let m = MachineConfig::default();
    let rows = [
        format!("stream cache banks | 8 | {}", m.cache_banks),
        format!(
            "scatter-add units/bank | 1 | {}",
            m.scatter_add_units_per_bank
        ),
        format!("scatter-add latency | 4 | {}", m.scatter_add_latency),
        format!(
            "combining store entries | 8 | {}",
            m.combining_store_entries
        ),
        format!("DRAM channels | 2 | {}", m.dram_channels),
        format!("address generators | 2 | {}", m.address_generators),
        format!("frequency | 1 GHz | {} GHz", m.clock_hz / 1e9),
        format!(
            "peak DRAM bandwidth | 38.4 GB/s (recon.) | {:.1} GB/s",
            m.dram_peak_gbps()
        ),
        format!(
            "random-access DRAM bandwidth | — | {:.0} GB/s",
            m.dram_random_gbps()
        ),
        format!(
            "stream cache bandwidth | 64 GB/s | {:.0} GB/s",
            m.cache_gbps()
        ),
        format!("clusters | 16 | {}", m.clusters),
        format!(
            "peak flops/cycle | 128 (recon.) | {}",
            m.peak_flops_per_cycle()
        ),
        format!(
            "SRF bandwidth | 512 GB/s (recon.) | {:.0} GB/s",
            m.srf_gbps()
        ),
        format!("SRF size | 1 MB | {} MB", m.srf_bytes() / (1024 * 1024)),
        format!(
            "stream cache size | 512 KB (recon.) | {} KB",
            m.cache_bytes() / 1024
        ),
    ];
    Block("table1", "parameter | paper | ours", rows.to_vec())
}

fn table2(p: &Paper) -> Block {
    let d = p.steps[Variant::Fixed as usize].dataset;
    let mean = p.list.mean_neighbors_per_molecule(p.system.num_molecules());
    // 4/3·π·r_c³·ρ/2 at liquid density, 33.327 molecules/nm³.
    let expected = 4.0 / 3.0 * std::f64::consts::PI * 33.327 / 2.0;
    let padding = d.total_neighbors_fixed as f64 / d.interactions as f64 - 1.0;
    let rows = vec![
        format!("molecules | 900 | {}", d.molecules),
        format!("interactions | ~62,000 | {}", commas(d.interactions)),
        format!(
            "repeated molecules for fixed | ~9,000 | {}",
            commas(d.repeated_molecules_fixed)
        ),
        format!(
            "total neighbors for fixed | ~72,000 | {}",
            commas(d.total_neighbors_fixed)
        ),
        format!("mean neighbours/molecule | {expected:.1} (liquid) | {mean:.1}"),
        format!("padding overhead for fixed | — | {}", pct(padding)),
    ];
    Block("table2", "quantity | paper (recon.) | ours", rows)
}

fn table4(p: &Paper) -> Block {
    let nbar = p.list.num_pairs() as f64 / p.system.num_molecules() as f64;
    let paper = [
        "4.875 (recon. 234/48) | —",
        "~9.9 (23.6 w/iter) | 8.6",
        "~12 | 9.9–12 (garbled)",
        "~17.2 (13.6 w/iter) | 17.x",
    ];
    let mut rows = Vec::new();
    for (v, paper) in Variant::ALL.into_iter().zip(paper) {
        let calc = AnalyticModel::ideal(v, 8, nbar).intensity;
        let measured = p.perf(v).intensity_measured;
        assert!(
            (measured - calc).abs() < 0.07 * calc,
            "{v}: {measured} vs {calc}"
        );
        rows.push(format!("{v} | {paper} | {calc:.2} | {measured:.2}"));
    }
    let ai = |v| p.perf(v).intensity_measured;
    assert!(ai(Variant::Duplicated) > ai(Variant::Fixed));
    assert!(ai(Variant::Fixed) > ai(Variant::Expanded));
    assert!(ai(Variant::Variable) > ai(Variant::Expanded));
    println!("[ok] measured intensity ordering matches the paper, within 7% of calculated");
    let head = "variant | paper calculated | paper measured | ours calculated | ours measured";
    Block("table4", head, rows)
}

fn fig7(p: &Paper) -> Block {
    // The flaw bites when descriptors are scarce and the kernels are the
    // bottleneck: cached gathers and a 4-register file, as in the
    // paper's original configuration.
    let cfg = MachineConfig {
        stream_descriptor_registers: 4,
        cache_allocates_gathers: true,
        ..MachineConfig::default()
    };
    let [naive, eager] = [SdrPolicy::Naive, SdrPolicy::Eager].map(|policy| {
        p.step(Variant::Duplicated, |b| {
            b.machine(cfg.clone()).policy(policy)
        })
    });
    println!("Figure 7 (a) naive allocation — register held until the SRF stream dies");
    println!("{}", naive.report.timeline.render(28));
    println!("Figure 7 (b) eager allocation — register released at transfer completion");
    println!("{}", eager.report.timeline.render(28));
    let (n, e) = (&naive.perf, &eager.perf);
    assert!(e.cycles <= n.cycles && e.overlap >= n.overlap);
    assert_eq!(naive.forces, eager.forces);
    println!("[ok] eager policy restores overlap, forces bit-identical");
    let speedup = pct(n.cycles as f64 / e.cycles as f64 - 1.0);
    let [nc, no, ec, eo] = [
        commas(n.cycles),
        pct(n.overlap),
        commas(e.cycles),
        pct(e.overlap),
    ];
    let rows = vec![
        format!("naive (register held until stream dies) | {nc} | {no}"),
        format!("eager (released at transfer completion) | {ec} | {eo}"),
        format!("fix speedup | {speedup} | —"),
    ];
    Block("fig7", "policy | cycles | overlap of memory time", rows)
}

fn fig8(p: &Paper) -> Block {
    let paper = ["~89%", "~93%", "~95%", "~96%"];
    let mut rows = Vec::new();
    for (v, paper) in Variant::ALL.into_iter().zip(paper) {
        let (l, s, m) = p.perf(v).locality;
        assert!(l > 0.85, "{v}: LRF {l}");
        assert!((s - m).abs() < 0.6 * m, "{v}: SRF {s} vs MEM {m} diverge");
        let (l, s, m) = (pct(l), s * 100.0, m * 100.0);
        rows.push(format!("{v} | {paper} | {l} | {s:.2}% | {m:.2}%"));
    }
    println!("[ok] LRF-dominated locality with SRF ≈ MEM reproduced");
    let head = "variant | paper %LRF | ours %LRF | ours %SRF | ours %MEM";
    Block("fig8", head, rows)
}

fn fig9(p: &Paper) -> [Block; 2] {
    let p4 = p4_baseline::model::estimate(&P4Config::default(), &p.list);
    let mut rows = Vec::new();
    for v in Variant::ALL {
        let f = p.perf(v);
        let (sol, all, ms) = (f.solution_gflops, f.all_gflops, f.seconds * 1e3);
        let kref = commas(f.mem_refs / 1000);
        rows.push(format!("{v} | {sol:.2} | {all:.2} | {kref} | {ms:.3}"));
    }
    let (p4_sol, p4_ms) = (p4.solution_gflops, p4.seconds * 1e3);
    rows.push(format!(
        "Pentium 4 (2.4 GHz, SSE) | {p4_sol:.2} | — | — | {p4_ms:.3}"
    ));

    let [expanded, fixed, variable, duplicated] = Variant::ALL.map(|v| p.perf(v).solution_gflops);
    assert!(variable > expanded && variable > fixed && variable > duplicated);
    assert!(
        expanded < fixed && expanded < duplicated,
        "expanded is slowest"
    );
    assert!(variable / p4_sol > 2.0, "must beat the P4 clearly");
    println!("[ok] ordering reproduced: variable > fixed, duplicated > expanded ≫ P4");
    // Section 5.1: 450 issued ops per interaction on every FPU.
    let cfg = MachineConfig::default();
    let fpu_rate = cfg.total_fpus() as f64 * cfg.clock_hz / 1e9;
    let optimal = fpu_rate / 450.0 * FLOPS_PER_INTERACTION as f64;
    let gain = |a: f64, b: f64| format!("+{:.0}%", (a / b - 1.0) * 100.0);
    let [ve, fe] = [gain(variable, expanded), gain(fixed, expanded)];
    let [vf, vd] = [gain(variable, fixed), gain(variable, duplicated)];
    let [vp4, share] = [variable / p4_sol, variable / optimal * 100.0];
    let relationships = vec![
        format!("variable vs expanded | +84% | {ve}"),
        format!("fixed vs expanded | +46% | {fe}"),
        format!("variable vs fixed | ~+26% (recon.) | {vf}"),
        format!("variable vs duplicated | — | {vd}"),
        format!("variable vs Pentium 4 | \"factor of ~2\" (OCR-ambiguous) | {vp4:.1}×"),
        format!("variable vs this kernel's optimal {optimal:.1} GFLOPS | ~34% | {share:.0}%"),
        "expanded slowest / variable fastest | yes | yes".to_string(),
    ];
    let head = "variant | sol GFLOPS | all GFLOPS | MEM (Kref) | time (ms)";
    let relationships = Block(
        "fig9-relationships",
        "relationship | paper | ours",
        relationships,
    );
    [Block("fig9", head, rows), relationships]
}

fn fig10() -> Block {
    let (cfg, costs) = (MachineConfig::default(), OpCosts::default());
    let compile = |opt| CompiledKernel::compile(variable_kernel(), &cfg, &costs, opt);
    let [unopt, opt] = [KernelOpt::unoptimized(), KernelOpt::optimized()].map(compile);
    let pipe = opt.pipelined.as_ref().expect("pipelined");
    let head = |text: String| text.lines().take(28).collect::<Vec<_>>().join("\n");
    println!("Figure 10 (a) unoptimized — one iteration per schedule, latencies exposed");
    let before = render_schedule(&unopt.lowered, &unopt.schedule);
    println!("{}\n", head(before));
    println!("Figure 10 (b) optimized — unrolled 2x, software pipelined (steady state)");
    println!("{}\n", head(render_pipelined(&opt.lowered, pipe)));

    let (before, after) = (unopt.cycles_per_iteration(), opt.cycles_per_iteration());
    let improvement = (before / after - 1.0) * 100.0;
    assert!(after < before, "optimization must help");
    assert!(improvement > 10.0, "improvement {improvement}% too small");
    assert!(pipe.issue_rate() > 0.85);
    println!("[ok] unroll + software pipelining reproduces the Figure 10 effect");
    let (issue, occupancy) = (pipe.issue_rate() * 100.0, pipe.occupancy() * 100.0);
    let rows = vec![
        "optimization | unroll 2× + software pipelining | same".to_string(),
        format!("issue-rate improvement | 28% | {improvement:.0}%"),
        format!("VLIW issue, steady state | ~90% of cycles | {issue:.0}% of cycles"),
        format!("FPU slot occupancy, steady state | — | {occupancy:.0}%"),
        format!("cycles/iteration | (not given) | {before:.1} → {after:.1}"),
    ];
    Block("fig10", "quantity | paper | ours", rows)
}

fn fig11_12(p: &Paper) -> [Block; 2] {
    // The second calibration comes from our own simulated variable step.
    let var = &p.steps[Variant::Variable as usize];
    let interactions = var.perf.solution_flops as f64 / FLOPS_PER_INTERACTION as f64;
    let busy = |unit| var.report.timeline.busy(unit) as f64;
    let ours = Calibration {
        kernel_cycles_per_interaction: busy(Unit::Kernel) / interactions,
        memory_cycles_per_word: busy(Unit::Memory) / var.perf.mem_refs as f64,
    };
    let cals = [Calibration::paper_like(), ours];
    let (config, sizes) = (BlockingConfig::default(), default_sizes());
    let curves = cals.each_ref().map(|c| sweep(&config, c, &sizes));

    // Figure 11's trends hold under both calibrations; Figure 12's dip
    // under the paper's balance.
    for pts in &curves {
        let i1 = pts.iter().position(|p| p.size >= 1.0).unwrap();
        assert!(pts.last().unwrap().kernel_rel > pts[i1].kernel_rel);
        assert!(pts.last().unwrap().memory_rel < pts[i1].memory_rel);
    }
    let by_time = |a: &&BlockingPoint, b: &&BlockingPoint| a.time_rel.total_cmp(&b.time_rel);
    let [a, b] = curves
        .each_ref()
        .map(|pts| *pts.iter().min_by(by_time).unwrap());
    assert!(a.time_rel < 1.0 && a.size > 0.9 && a.size < 2.5);
    println!(
        "[ok] Figure 11 trends hold; Figure 12 minimum at cluster size {:.1}",
        a.size
    );

    // Kernel and memory work are relative to the variable scheme, so
    // only the time column depends on the calibration.
    let [paper, ours] = &curves;
    let sweep_rows = paper.iter().zip(ours).step_by(3).map(|(p, o)| {
        let (s, m, k, w) = (p.size, p.molecules_per_cluster, p.kernel_rel, p.memory_rel);
        let (t, u) = (p.time_rel, o.time_rel);
        format!("{s:.1} | {m:.2} | {k:.2} | {w:.2} | {t:.2} | {u:.2}")
    });
    let [c0, c1] = cals.each_ref().map(|c| {
        let (k, m) = (c.kernel_cycles_per_interaction, c.memory_cycles_per_word);
        format!("{k:.2} / {m:.2}")
    });
    let [a_at, b_at] = [a, b].map(|m| {
        let (s, n) = (m.size, m.molecules_per_cluster);
        format!("cluster size {s:.1}, {n:.1} molecules")
    });
    let [a_pays, b_pays] = [a, b].map(|m| if m.time_rel < 1.0 { "yes" } else { "no" });
    let (at, bt) = (a.time_rel, b.time_rel);
    let rows = vec![
        format!("kernel cycles/interaction / memory cycles/word | — | {c0} | {c1}"),
        format!("blocking pays (minimum below 1.0×) | yes | {a_pays} | {b_pays}"),
        format!(
            "minimum | cluster size ~1.4, \"about N molecules\" (digit lost) | {a_at} | {b_at}"
        ),
        format!("time at the minimum | below 1.0× | {at:.2}× | {bt:.2}×"),
    ];
    let head = "cluster size | molecules/cluster | kernel | memory | time, paper-like | time, ours";
    let sweep = Block("fig11_12-sweep", head, sweep_rows.collect());
    [
        sweep,
        Block(
            "fig12",
            "quantity | paper | paper-like calibration | our calibration",
            rows,
        ),
    ]
}

/// Self-diffusion (1e-5 cm²/s) from a short NVE run of 216 molecules
/// after velocity-rescale equilibration (Einstein relation).
fn diffusion(model: WaterModel, steps: usize) -> f64 {
    let system = WaterBox::builder().molecules(216).model(model);
    let mut system = system.temperature(300.0).seed(7).build();
    let neighbor = NeighborListParams {
        cutoff: 0.75,
        skin: 0.08,
        rebuild_interval: 5,
    };
    let integ = Integrator {
        dt: 0.002,
        neighbor,
    };
    // The jittered lattice melts and would heat an NVE run far above
    // 300 K without the rescaling.
    for _ in 0..8 {
        integ.run(&mut system, steps / 16);
        integ.rescale_temperature(&mut system, 300.0);
    }
    let mut tracker = MsdTracker::new(&system);
    let mut t = 0.0;
    for _ in 0..steps / 20 {
        integ.run(&mut system, 20);
        t += integ.dt * 20.0;
        tracker.sample(&system, t);
    }
    tracker.diffusion_1e5_cm2_s(2).unwrap_or(0.0)
}

fn table5() -> Block {
    let [spc, ppc] = [WaterModel::spc(), WaterModel::ppc_static()].map(|m| diffusion(m, 400));
    assert!(spc > ppc, "the more polar model must diffuse slower");
    println!("[ok] self-diffusion ordering: SPC faster than PPC");
    let [d_spc, d_ppc] = [WaterModel::spc(), WaterModel::ppc_static()].map(|m| m.dipole_debye());
    let d_tip5p = WaterModel::tip5p().dipole_debye();
    let rows = vec![
        format!("SPC | 2.27 | {d_spc:.2} | 3.85 | {spc:.2}"),
        format!("TIP5P | 2.29 | {d_tip5p:.2} | 2.62 | n/a (massless virtual sites; integrator is 3-site)"),
        format!("PPC | 2.52 | {d_ppc:.2} | 2.6 | {ppc:.2}"),
        "experimental | 2.65 | — | 2.30 | —".to_string(),
    ];
    let head = "model | paper dipole (D) | ours (D) | paper self-diff (1e-5 cm²/s) | ours";
    Block("table5", head, rows)
}

/// Extension X1: the closed-form strong-scaling sweep over the paper box
/// tiled 40³ (57.6M molecules), calibrated by the simulated `variable`
/// step's cycles and solution flops per molecule.
fn x1(p: &Paper) -> Block {
    let molecules = p.system.num_molecules() as f64;
    let one = p.perf(Variant::Variable);
    let per_molecule = |x: u64| x as f64 / molecules;
    let w = ScalingWorkload::paper_scaled(
        40,
        per_molecule(one.cycles),
        per_molecule(one.solution_flops),
    );
    let (machine, net) = (MachineConfig::default(), NetworkConfig::default());
    let topo = Topology::new(net.clone());
    let pts = scaling_sweep(&machine, &net, &w, 8192).expect("modeled node counts");
    for pair in pts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert!(b.step_seconds < a.step_seconds, "{} nodes", b.nodes);
        assert!(b.comm_cycles < b.compute_cycles, "{} nodes", b.nodes);
        assert!(
            b.efficiency < 1.0,
            "{} nodes: efficiency {}",
            b.nodes,
            b.efficiency
        );
    }
    let (first, last) = (pts[0], pts[pts.len() - 1]);
    let rel = (first.solution_gflops - one.solution_gflops).abs() / one.solution_gflops;
    assert!(
        rel <= 1e-9,
        "1 node: {} GFLOPS, the calibrating step {}",
        first.solution_gflops,
        one.solution_gflops
    );
    println!("[ok] the sweep's 1-node solution GFLOPS is the calibrating variable step's");
    let speedup = |pt: &ScalingPoint| first.step_seconds / pt.step_seconds;
    println!(
        "[ok] {} nodes: {:.0}× faster steps at {:.0}% efficiency",
        last.nodes,
        speedup(&last),
        last.efficiency * 100.0
    );
    let rows = pts.iter().map(|pt| {
        let level = topo.worst_level(pt.nodes).expect("modeled node count");
        let gbps = topo.node_bandwidth_gbps(level);
        let level = format!("{level:?}").to_lowercase();
        let level = if gbps.is_finite() {
            format!("{level}, {gbps} GB/s")
        } else {
            level
        };
        let (n, h) = (pt.molecules_per_node, pt.halo_per_node);
        let [n, h, c, m] = [n, h, pt.compute_cycles, pt.comm_cycles].map(|x| commas(x.round()));
        let share = pct(pt.halo_per_node / (pt.molecules_per_node + pt.halo_per_node));
        let x = commas(speedup(pt).round());
        let (eff, tflops) = (pt.efficiency * 100.0, pt.solution_gflops / 1e3);
        let nodes = commas(pt.nodes);
        format!(
            "{nodes} | {level} | {n} | {h} | {share} | {c} | {m} | {x}× | {eff:.0}% | {tflops:.2}"
        )
    });
    let head = "nodes | network level | molecules/node | halo/node | halo share | compute (c) \
                | comm (c) | speedup | efficiency | solution TFLOPS";
    Block("x1", head, rows.collect())
}

/// Extension X1b: the executed multi-node runner beside the closed form
/// on the paper box. One build of the `variable` step is timed at every
/// node count.
fn x1_sim(p: &Paper) -> Block {
    let v = Variant::Variable;
    let app = p.app(v, |b| b);
    let step = app.build_step_program(&p.system, &p.list, v);
    let molecules = p.system.num_molecules() as f64;
    let one = &p.steps[v as usize];
    let workload = ScalingWorkload {
        molecules,
        cutoff_nm: p.list.params.cutoff,
        density: molecules / p.system.pbc().side().powi(3),
        cycles_per_molecule: one.perf.cycles as f64 / molecules,
        solution_flops_per_molecule: one.perf.solution_flops as f64 / molecules,
    };
    let topo = Topology::new(app.network.clone());
    let bits = |f: &[Vec3]| -> Vec<[u64; 3]> {
        f.iter()
            .map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
            .collect()
    };
    let (mut rows, mut steps, mut eff8) = (Vec::new(), Vec::new(), 0.0);
    for n in [1, 2, 4, 8] {
        let m = run_multinode_program(&app, &p.system, &step, n);
        let m = m.unwrap_or_else(|e| panic!("{n} nodes: {e}"));
        assert!(
            bits(&m.outcome.forces) == bits(&one.forces),
            "forces at {n} nodes differ from one node's"
        );
        let (b, t1) = (m.breakdown, m.outcome.report.cycles);
        let eff = m.efficiency();
        assert!(
            eff > 0.0 && eff <= 1.0 + 1e-9,
            "{n} nodes: efficiency {eff}"
        );
        let ana = estimate(&app.cfg, &topo, &workload, n).expect("modeled node count");
        let work = (n as u64 * b.compute_cycles_mean) as f64 / t1 as f64;
        let [step_c, comm, halo] = [b.step_cycles, b.comm_cycles_max, b.halo_in_words].map(commas);
        let (eff_pct, imbalance, ana_pct) = (eff * 100.0, b.imbalance(), ana.efficiency * 100.0);
        rows.push(format!(
            "{n} | {step_c} | {comm} | {eff_pct:.0}% | {imbalance:.2} | {work:.2} | {halo} | {ana_pct:.0}%"
        ));
        steps.push((n, b.step_cycles));
        eff8 = eff;
    }
    println!("[ok] simulated forces at 2, 4 and 8 nodes are bitwise one node's");
    // The balance gate: placing strips by their cost keeps paying from
    // 2 to 4 to 8 nodes, and 8 nodes keep 0.70 efficiency.
    for pair in steps[1..].windows(2) {
        let ((a, step_a), (b, step_b)) = (pair[0], pair[1]);
        assert!(
            step_b < step_a,
            "simulated step did not shrink from {a} to {b} nodes: {step_a} -> {step_b} cycles"
        );
    }
    assert!(eff8 >= 0.70, "8-node efficiency {eff8:.3} is below 0.70");
    println!("[ok] the simulated step shrinks from 2 to 4 to 8 nodes; 8 nodes at ≥ 70% efficiency");
    let head = "nodes | sim step (c) | sim comm (c) | sim eff | imbalance | Σ compute ÷ t₁ \
                | halo words | analytic eff";
    Block("x1-sim", head, rows)
}

/// One force step per variant on the 216-molecule box of `model`, with
/// the list policy of `small_system`'s box.
fn model_steps(model: &WaterModel, params: NeighborListParams) -> [PerfSummary; 4] {
    let system = WaterBox::builder()
        .molecules(216)
        .model(model.clone())
        .seed(SEED)
        .build();
    let app = StreamMdApp::builder()
        .neighbor(params)
        .build()
        .expect("default app");
    let step = |v| app.run_step(&system, v).map(|out| out.perf);
    Variant::ALL.map(|v| step(v).unwrap_or_else(|e| panic!("{} {v}: {e}", model.name)))
}

/// Extension X2; also returns the SPC steps, X3's water column.
fn x2() -> ([Block; 2], [PerfSummary; 4]) {
    let models = [WaterModel::spc(), WaterModel::tip3p(), WaterModel::tip5p()];
    let budgets = models
        .each_ref()
        .map(|m| Workload::of_model(m).flops_per_interaction());
    let (system, list) = small_system(216);
    let [spc, tip3p, tip5p] = models.each_ref().map(|m| model_steps(m, list.params));
    // Same sites, same list, different charges: TIP3P's rows are SPC's.
    let key = |f: &PerfSummary| (f.cycles, f.intensity_measured, f.solution_gflops);
    assert_eq!(spc.each_ref().map(key), tip3p.each_ref().map(key));
    assert_eq!(budgets[2], 420);
    assert!(budgets[2] > budgets[0] * 3 / 2);
    let mut rows = Vec::new();
    let spc_lead = format!("SPC (3 sites) | {}", budgets[0]);
    let tip5p_lead = format!("TIP5P (5 sites, 4 charged) | {}", budgets[2]);
    for (lead, perfs) in [(spc_lead, &spc), (tip5p_lead, &tip5p)] {
        let leads = std::iter::once(lead).chain(std::iter::repeat(" | ".to_string()));
        for ((lead, v), f) in leads.zip(Variant::ALL).zip(perfs) {
            let (ai, sol, cycles) = (f.intensity_measured, f.solution_gflops, commas(f.cycles));
            rows.push(format!("{lead} | {v} | {ai:.2} | {sol:.2} | {cycles}"));
        }
    }
    let mut ratios = Vec::new();
    for ((v, s), t) in Variant::ALL.iter().zip(&spc).zip(&tip5p) {
        let ai = t.intensity_measured / s.intensity_measured;
        assert!(ai > 1.0, "{v}: TIP5P must have higher measured intensity");
        let sol = t.solution_gflops / s.solution_gflops;
        ratios.push(format!("{v} | ×{ai:.3} | ×{sol:.3}"));
    }
    println!("[ok] arithmetic intensity rises with model complexity");
    // One answer for one experiment: SPC `expanded` is the step the
    // main pipeline runs on this box.
    let main = run(RunSpec::new(&system, &list, Variant::Expanded)).expect("expanded");
    assert_eq!(spc[0].cycles, main.perf.cycles);
    println!(
        "[ok] SPC expanded is the main pipeline's step ({} cycles)",
        spc[0].cycles
    );
    let head = "model | flops/interaction | variant | measured intensity | sol GFLOPS | cycles";
    let ratio_head = "variant | intensity, TIP5P ÷ SPC | sol GFLOPS, TIP5P ÷ SPC";
    let ratios = Block("x2-ratios", ratio_head, ratios);
    ([Block("x2", head, rows), ratios], spc)
}

fn x3(water: &[PerfSummary; 4]) -> [Block; 2] {
    let water_workload = Workload::of_model(&WaterModel::spc());
    let workloads = [
        ("SPC water (3 sites)", water_workload),
        ("charged particles (LJ + Coulomb)", Workload::Charged),
        ("LJ fluid", Workload::LjFluid),
    ];
    let bound = workloads.map(|(label, w)| {
        let (flops, words) = (w.flops_per_interaction(), w.width());
        let per_word = flops as f64 / words as f64;
        format!("{label} | {flops} | {words} | {per_word:.1}")
    });
    let perf = |ds: &Dataset, v| run(ds.spec(v)).unwrap_or_else(|e| panic!("{} {v}: {e}", ds.id));
    let [charged, lj] =
        [Dataset::charged(512), Dataset::lj(512)].map(|ds| Variant::ALL.map(|v| perf(&ds, v).perf));
    let mut rows = Vec::new();
    for (i, v) in Variant::ALL.iter().enumerate() {
        let [w, c, l] = [&water[i], &charged[i], &lj[i]];
        assert!(w.intensity_measured > c.intensity_measured);
        assert!(c.intensity_measured > l.intensity_measured);
        let cell = |f: &PerfSummary| {
            let (ai, sol) = (f.intensity_measured, f.solution_gflops);
            format!("{ai:.2} / {sol:.1} / {}", pct(f.locality.2))
        };
        rows.push(format!("{v} | {} | {} | {}", cell(w), cell(c), cell(l)));
    }
    println!("[ok] intensity orders water > charged > LJ on every variant");
    let head = "workload | flops/interaction | record words | flops/record word";
    let measured = Block(
        "x3",
        "variant | water (216) | charged (512) | lj (512)",
        rows,
    );
    [Block("x3-bound", head, bound.to_vec()), measured]
}

/// The atomic workloads over 10⁴–10⁵ particles on the `variable`
/// variant, at the host's parallelism (capped at 8).
fn workload_sweep() -> Block {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    println!("workload sweep on {threads} engine thread(s), wall seconds per step:");
    let mut rows = Vec::new();
    for model in [WaterModel::lj_atom(), WaterModel::charged_atom()] {
        let label = Workload::of_model(&model).name();
        for n in [10_000, 31_623, 100_000] {
            let (system, list) = atomic_system(model.clone(), n);
            let t0 = Instant::now();
            let spec = RunSpec::new(&system, &list, Variant::Variable).threads(threads);
            let out = run(spec).unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
            println!("  {label:<8} {n:>7}  {:.2} s", t0.elapsed().as_secs_f64());
            let (ai, sol) = (out.perf.intensity_measured, out.perf.solution_gflops);
            let (n, pairs) = (commas(n), commas(out.dataset.interactions));
            rows.push(format!(
                "{label} | {n} | variable | {pairs} | {ai:.3} | {sol:.2}"
            ));
        }
    }
    let head = "workload | particles | variant | interactions | intensity | sol GFLOPS";
    Block("x3-sweep", head, rows)
}

/// Design-choice sweeps on the paper box, each point against the best
/// of its sweep.
fn ablations(p: &Paper) -> Block {
    let cycles = |v, cfg: MachineConfig, policy, strip: Option<usize>, l| {
        let tune = |b: SimConfigBuilder| {
            let b = b.machine(cfg).policy(policy).block_l(l);
            match strip {
                Some(s) => b.strip_iterations(s),
                None => b,
            }
        };
        p.step(v, tune).perf.cycles
    };
    let default = MachineConfig::default;
    let eager = SdrPolicy::Eager;
    let l = [2, 4, 8, 16, 32].map(|l| (l, cycles(Variant::Fixed, default(), eager, None, l)));
    let combine = [0, 1, 8, 64].map(|e| {
        let mut cfg = default();
        cfg.combining_store_entries = e;
        (e, cycles(Variant::Expanded, cfg, eager, None, 8))
    });
    let gathers = [("bypass (default)", false), ("allocate", true)].map(|(name, alloc)| {
        let mut cfg = default();
        cfg.cache_allocates_gathers = alloc;
        (name, cycles(Variant::Variable, cfg, eager, None, 8))
    });
    let sdrs = [4, 6, 8, 16, 32].map(|s| {
        let mut cfg = default();
        cfg.stream_descriptor_registers = s;
        (
            s,
            cycles(Variant::Duplicated, cfg, SdrPolicy::Naive, None, 8),
        )
    });
    let strips = [128, 512, 2048, 4096]
        .map(|s| (s, cycles(Variant::Variable, default(), eager, Some(s), 8)));

    // Tiny L pays padding and centre replication; combining and more
    // descriptors cannot hurt.
    assert!(l[0].1 > l[2].1, "L=2 must be worse than L=8");
    assert!(combine[0].1 >= combine[2].1, "combining must not hurt");
    assert!(sdrs[0].1 >= sdrs[4].1, "more SDRs cannot hurt");
    println!("[ok] ablation sweeps complete");
    let mut rows = Vec::new();
    let mut add = |sweep: &str, points: Vec<(String, u64)>| {
        let best = points.iter().map(|pt| pt.1).min().unwrap();
        for (i, (setting, c)) in points.into_iter().enumerate() {
            let sweep = if i == 0 { sweep } else { "" };
            let vs = c as f64 / best as f64;
            rows.push(format!("{sweep} | {setting} | {} | {vs:.2}×", commas(c)));
        }
    };
    fn named<K: ToString>(pts: &[(K, u64)]) -> Vec<(String, u64)> {
        pts.iter().map(|(k, c)| (k.to_string(), *c)).collect()
    }
    add("fixed-L block length L (fixed)", named(&l));
    add("combining-store entries (expanded)", named(&combine));
    add("stream-cache gathers (variable)", named(&gathers));
    add("SDRs, naive policy (duplicated)", named(&sdrs));
    add("strip iterations (variable)", named(&strips));
    Block("ablations", "sweep | setting | cycles | vs best", rows)
}

fn main() {
    let t0 = Instant::now();
    let paper = Paper::new();
    let mut blocks = Vec::new();
    let mut emit = |generated: Vec<Block>| {
        for b in generated {
            println!("{}\n", b.marked());
            blocks.push(b);
        }
    };
    emit(vec![table1(), table2(&paper), table4(&paper)]);
    emit(vec![fig7(&paper), fig8(&paper)]);
    emit(fig9(&paper).into());
    emit(vec![fig10()]);
    emit(fig11_12(&paper).into());
    emit(vec![table5(), x1(&paper), x1_sim(&paper)]);
    let (x2, spc) = x2();
    emit(x2.into());
    emit(x3(&spc).into());
    emit(vec![workload_sweep(), ablations(&paper)]);
    let (n, secs) = (blocks.len(), t0.elapsed().as_secs_f64());
    println!("{n} blocks in {secs:.1} s");

    let doc = std::fs::read_to_string(EXPERIMENTS).unwrap_or_else(|e| panic!("{EXPERIMENTS}: {e}"));
    if let Some(b) = blocks.iter().find(|b| !doc.contains(&b.marked())) {
        let (id, generated) = (b.0, b.marked());
        eprintln!("EXPERIMENTS.md block `{id}` differs from this run; generated:\n{generated}");
        std::process::exit(1);
    }
    let in_doc = doc.lines().filter(|l| l.starts_with("<!-- paper:")).count();
    if in_doc != blocks.len() {
        eprintln!("EXPERIMENTS.md holds {in_doc} paper blocks; this run generates {n}");
        std::process::exit(1);
    }
    println!("[ok] EXPERIMENTS.md holds all {n} blocks as generated");
}
