//! The traced run: ops executed stage by stage through the layers'
//! public functions, then probes of the layers an op only reaches from
//! inside another call, then the per-layer metrics read off the spans.

use std::hint::black_box;
use std::time::Instant;

use md_sim::neighbor::NeighborList;
use merrimac_kernel::ir::{Kernel, StreamMode};
use merrimac_kernel::lower::lower_kernel;
use merrimac_kernel::unroll::unroll;
use merrimac_kernel::{list_schedule, modulo_schedule, CompiledTape, StreamData};
use merrimac_sim::cache::StreamCache;
use merrimac_sim::{partition_program, CompiledKernel, RegionId};
use streammd::kernels::{workload_kernel, workload_params};
use streammd::layout::build_layout;
use streammd::{run_multinode_program, SimError, StepOutcome, Variant};

use crate::check::Checker;
use crate::metrics::Values;
use crate::stats::{median_or_zero, percentile};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{
    build_app, run_driver, run_op, OpOutput, Prepared, Workload, NODES, THREADS,
};

/// Ops traced per workload, and rounds of layer probes after them.
pub const TRACED_OPS: u32 = 10;
/// Addresses of one `StreamCache::access_trace` probe (as `micro`).
const CACHE_TRACE_ADDRS: u64 = 65_536;

/// One op with a span around each top-level stage — the same calls
/// `run_op` makes, spelled out. Sub-stages are probed outside the op
/// span so they do not inflate it.
pub fn traced_op(p: &Prepared, t: &mut Tracer, op: u32) -> Result<OpOutput, SimError> {
    let root = t.open("op", None, op);
    let out = staged_op(p, t, root, op);
    t.close(root);
    out
}

fn staged_op(p: &Prepared, t: &mut Tracer, root: SpanId, op: u32) -> Result<OpOutput, SimError> {
    let root = Some(root);
    let variant = p.workload.variant();
    match p.workload {
        Workload::StepExpanded900 | Workload::StepFixed216 => {
            let list = t.span("md.neighbor_list", root, op, || {
                NeighborList::build(&p.system, p.params)
            });
            let app = t.span("core.app_build", root, op, || {
                build_app(p.workload, p.params)
            })?;
            let step = t.span("core.build_program", root, op, || {
                app.build_step_program(&p.system, &list, variant)
            });
            if app.analyze {
                t.span("analysis.admit", root, op, || app.admit_built(&step))?;
            }
            t.span("core.run_program", root, op, || {
                app.run_step_program(&p.system, &step)
            })
            .map(OpOutput::Step)
        }
        Workload::TrajFixed216 => t.span("core.driver_run", root, op, || run_driver(p)),
        Workload::Mn8Variable900 => {
            let step = t.span("core.build_program", root, op, || {
                p.app.build_step_program(&p.system, &p.list, variant)
            });
            t.span("core.multinode_run", root, op, || {
                run_multinode_program(&p.app, &p.system, &step, NODES)
            })
            .map(OpOutput::Multi)
        }
    }
}

/// Input streams for running `kernel` alone for `iterations`
/// iterations, shaped as `micro` shapes them: smooth positive position
/// data, zero shifts, a new centre every 8 iterations on conditional
/// streams.
fn synthetic_inputs(kernel: &Kernel, iterations: usize) -> Vec<StreamData> {
    kernel
        .inputs
        .iter()
        .enumerate()
        .map(|(s, sig)| {
            let len = sig.record_len as usize;
            let wave = |n: usize| -> Vec<f64> {
                (0..n * len)
                    .map(|i| (i as f64 * (0.011 + 0.002 * s as f64)).sin() + 2.0)
                    .collect()
            };
            let data = match sig.mode {
                StreamMode::Conditional => wave(iterations.div_ceil(8)),
                StreamMode::EveryIteration if len == 1 => (0..iterations)
                    .map(|i| if i % 8 == 0 { 1.0 } else { 0.0 })
                    .collect(),
                StreamMode::EveryIteration if sig.name.contains("shift") => {
                    vec![0.0; iterations * len]
                }
                StreamMode::EveryIteration => wave(iterations),
            };
            StreamData::new(len, data)
        })
        .collect()
}

/// Run the traced ops (each paired with an untraced one, for
/// `harness.trace_overhead`), probe the layers, and read the per-layer
/// metrics off the spans.
pub fn run(p: &Prepared, checker: &mut Checker) -> Result<(Tracer, Values), String> {
    let mut t = Tracer::new();
    let mut untraced_ms = Vec::new();
    let mut last = None;
    for op in 0..TRACED_OPS {
        let t0 = Instant::now();
        let plain = run_op(p);
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(reason) = checker.check(&plain) {
            eprintln!("untraced op {op} failed: {reason}");
        }
        drop(plain);
        let traced = traced_op(p, &mut t, op);
        if let Some(reason) = checker.check(&traced) {
            eprintln!("traced op {op} failed: {reason}");
        }
        if let Ok(out) = traced {
            last = Some(out);
        }
    }
    let last = last.ok_or("no traced op succeeded")?;

    let w = p.workload;
    let variant = w.variant();
    let app = &p.app;
    let step = app.build_step_program(&p.system, &p.list, variant);
    // `build_layout` with the largest strip of the built program cuts
    // the same strips the program's own strip size did.
    let strip = step
        .layout
        .strips
        .iter()
        .map(|s| match variant {
            Variant::Variable => s.real_interactions,
            _ => s.iterations,
        })
        .max()
        .unwrap_or(1)
        .max(1) as usize;
    let kernel = workload_kernel(step.layout.workload, variant, app.block_l);
    let kparams = workload_params(step.layout.workload, p.system.model());
    let compiled = CompiledKernel::compile(kernel.clone(), &app.cfg, &app.costs, app.kernel_opt);
    let iterations = step.layout.total_iterations() as usize;
    // The kernel alone, launched as the program launches it: once per
    // strip, over streams one strip long (the default `kernel_opt`
    // does not unroll, so tape iterations are kernel iterations).
    let strips = step.layout.strips.len();
    let launch_iterations = iterations.div_ceil(strips.max(1));
    let exec_inputs = synthetic_inputs(&compiled.ir, launch_iterations);
    let fpus = app.cfg.fpus_per_cluster;

    let mut probed_step: Option<StepOutcome> = None;
    for round in 0..TRACED_OPS {
        let op = TRACED_OPS + round;
        let root = t.open("probe", None, op);
        let s = Some(root);
        if !w.is_cold_step() {
            black_box(t.span("md.neighbor_list", s, op, || {
                NeighborList::build(&p.system, p.params)
            }));
        }
        if w == Workload::TrajFixed216 {
            black_box(t.span("core.build_program", s, op, || {
                app.build_step_program(&p.system, &p.list, variant)
            }));
        }
        let layout = t.span("core.layout", s, op, || {
            build_layout(&p.system, &p.list, variant, app.block_l, strip)
        });
        if layout.strips.len() != step.layout.strips.len()
            || layout.total_iterations() != step.layout.total_iterations()
        {
            return Err(format!(
                "strip size {strip} read back from the program rebuilds another layout"
            ));
        }
        let lowered = t.span("kernel.lower", s, op, || {
            lower_kernel(&unroll(&kernel, app.kernel_opt.unroll), &app.costs)
        });
        black_box(t.span("kernel.tape_compile", s, op, || {
            CompiledTape::compile(&compiled.ir)
        }));
        black_box(t.span("kernel.list_schedule", s, op, || {
            list_schedule(&lowered, &app.costs, fpus)
        }));
        black_box(t.span("kernel.modulo_schedule", s, op, || {
            modulo_schedule(&lowered, &app.costs, fpus)
        }));
        let source = kernel.clone();
        black_box(t.span("sim.kernelc_compile", s, op, || {
            CompiledKernel::compile(source, &app.cfg, &app.costs, app.kernel_opt)
        }));
        black_box(t.span("sim.memory_clone", s, op, || step.memory.clone()));
        black_box(t.span("sim.partition", s, op, || partition_program(&step.program)));
        if !w.is_cold_step() {
            let out = t.span("core.run_program", s, op, || {
                app.run_step_program(&p.system, &step)
            });
            probed_step = Some(out.map_err(|e| e.to_string())?);
        }
        if w == Workload::TrajFixed216 {
            black_box(t.span("core.single_step", s, op, || {
                app.run_step_with_list(&p.system, &p.list, variant)
            }))
            .map_err(|e| e.to_string())?;
        }
        t.span("kernel.exec", s, op, || {
            (0..strips).try_for_each(|_| {
                compiled
                    .tape
                    .run_batched(&exec_inputs, &kparams, launch_iterations, app.tape_batch)
                    .map(|out| drop(black_box(out)))
            })
        })
        .map_err(|e| format!("kernel-only run failed: {e}"))?;
        black_box(t.span("sim.cache_trace", s, op, || {
            StreamCache::new(&app.cfg).access_trace(0..CACHE_TRACE_ADDRS, false)
        }));
        t.close(root);
    }

    let med = |name: &str| median_or_zero(&t.durations_ms(name));
    let mut v = Values::new();
    v.insert("md.neighbor_list_ms", med("md.neighbor_list"));
    v.insert("md.pairs", p.list.num_pairs() as f64);
    v.insert("core.app_build_ms", med("core.app_build"));

    let layout_ms = med("core.layout");
    v.insert("core.layout_ms", layout_ms);
    v.insert("core.strips", step.layout.strips.len() as f64);
    v.insert("core.iterations", iterations as f64);
    v.insert(
        "core.real_interactions",
        step.layout.total_real_interactions() as f64,
    );

    v.insert("kernel.lower_ms", med("kernel.lower"));
    v.insert("kernel.tape_compile_ms", med("kernel.tape_compile"));
    v.insert("kernel.list_schedule_ms", med("kernel.list_schedule"));
    v.insert("kernel.modulo_schedule_ms", med("kernel.modulo_schedule"));
    v.insert("kernel.lowered_nodes", compiled.lowered.nodes.len() as f64);
    v.insert(
        "kernel.ii",
        compiled.pipelined.as_ref().map_or(0.0, |s| s.ii as f64),
    );
    let compile_ms = med("sim.kernelc_compile");
    v.insert("sim.kernelc_compile_ms", compile_ms);

    let build_ms = med("core.build_program");
    v.insert("core.build_program_ms", build_ms);
    // Differences of medians taken on separate calls: clamped at 0,
    // where noise would otherwise push a small remainder below it.
    v.insert(
        "core.build_self_ms",
        (build_ms - layout_ms - compile_ms).max(0.0),
    );
    v.insert("core.program_ops", step.program.ops.len() as f64);
    let memory_words: usize = (0..step.memory.num_regions())
        .map(|r| step.memory.data(RegionId(r)).len())
        .sum();
    v.insert("core.memory_words", memory_words as f64);
    v.insert("analysis.admit_ms", med("analysis.admit"));

    let clone_ms = med("sim.memory_clone");
    let partition_ms = med("sim.partition");
    let run_ms = med("core.run_program");
    v.insert("sim.memory_clone_ms", clone_ms);
    v.insert("sim.partition_ms", partition_ms);
    v.insert("core.run_program_ms", run_ms);
    v.insert(
        "sim.run_self_ms",
        (run_ms - clone_ms - partition_ms).max(0.0),
    );
    let exec_ms = med("kernel.exec");
    v.insert(
        "kernel.exec_ns_per_iter",
        exec_ms * 1e6 / (strips * launch_iterations).max(1) as f64,
    );
    // The probe runs on one thread; the run spreads strips over THREADS.
    v.insert("kernel.exec_share", exec_ms / THREADS as f64 / run_ms);
    v.insert(
        "sim.cache_trace_ns_per_addr",
        med("sim.cache_trace") * 1e6 / CACHE_TRACE_ADDRS as f64,
    );

    let (driver_overhead_ms, rebuilds, cycles_per_step) = match &last {
        OpOutput::Traj { report, .. } => (
            med("core.driver_run") / w.steps_per_op() as f64 - med("core.single_step"),
            report.rebuilds as f64,
            report.cycles_per_step(),
        ),
        _ => (0.0, 0.0, 0.0),
    };
    v.insert("core.driver_overhead_ms", driver_overhead_ms);
    v.insert("driver.rebuilds", rebuilds);
    v.insert("driver.force_cycles_per_step", cycles_per_step);

    let multi = match &last {
        OpOutput::Multi(out) => Some(out),
        _ => None,
    };
    let b = multi.map(|out| out.breakdown).unwrap_or_default();
    v.insert(
        "core.multinode_nodes_ms",
        multi.map_or(0.0, |_| med("core.multinode_run") - run_ms),
    );
    v.insert(
        "multinode.efficiency",
        multi.map_or(0.0, |out| out.efficiency()),
    );
    v.insert("multinode.imbalance", b.imbalance());
    v.insert("multinode.compute_cycles_max", b.compute_cycles_max as f64);
    v.insert(
        "multinode.compute_cycles_mean",
        b.compute_cycles_mean as f64,
    );
    v.insert("multinode.comm_cycles_max", b.comm_cycles_max as f64);
    v.insert("multinode.halo_in_words", b.halo_in_words as f64);
    v.insert("multinode.force_out_words", b.force_out_words as f64);

    // One force step's simulated statistics: the op's own outcome, or
    // on traj- the probed step on the initial state.
    let sim = match &last {
        OpOutput::Step(out) => out,
        OpOutput::Multi(out) => &out.outcome,
        OpOutput::Traj { .. } => probed_step
            .as_ref()
            .ok_or("traj- probes ran no force step")?,
    };
    let phases = &sim.perf.phases;
    let counters = &sim.report.counters;
    v.insert("sim.gather_cycles", phases.gather_cycles as f64);
    v.insert("sim.load_cycles", phases.load_cycles as f64);
    v.insert("sim.kernel_cycles", phases.kernel_cycles as f64);
    v.insert("sim.scatter_add_cycles", phases.scatter_add_cycles as f64);
    v.insert("sim.store_cycles", phases.store_cycles as f64);
    v.insert("sim.sdr_stall_cycles", phases.sdr_stall_cycles as f64);
    v.insert("sim.lrf_refs", counters.lrf_refs as f64);
    v.insert("sim.srf_refs", counters.srf_refs as f64);
    v.insert("sim.mem_refs", counters.mem_refs as f64);
    v.insert("sim.dram_words", counters.dram_words as f64);
    v.insert("sim.cache_hits", counters.cache_hits as f64);
    v.insert("sim.cache_misses", counters.cache_misses as f64);
    v.insert("sim.hardware_flops", counters.hardware_flops as f64);
    v.insert("sim.solution_gflops", sim.perf.solution_gflops);
    v.insert("sim.intensity", sim.perf.intensity_measured);
    v.insert("sim.lrf_fraction", sim.perf.locality.0);
    v.insert("sim.overlap", sim.perf.overlap);
    v.insert(
        "sim.partition_parallel",
        f64::from(u8::from(phases.partition_parallelized)),
    );
    v.insert("sim.sdr_peak", sim.report.sdr_peak as f64);
    v.insert(
        "sim.srf_peak_words",
        sim.report.srf_peak_words_per_cluster as f64,
    );

    // An op span's self time is what the harness spent between the
    // stages, so span − self is what the stages sum to.
    let stage_sums: Vec<f64> = t
        .durations_ms("op")
        .iter()
        .zip(t.self_ms("op"))
        .map(|(total, own)| total - own)
        .collect();
    v.insert("harness.stage_sum_ms", median_or_zero(&stage_sums));
    v.insert("harness.op_ms_p50", median_or_zero(&untraced_ms));
    v.insert(
        "harness.op_ms_p90",
        percentile(&untraced_ms, 0.9).unwrap_or(0.0),
    );
    v.insert(
        "harness.op_ms_max",
        percentile(&untraced_ms, 1.0).unwrap_or(0.0),
    );
    v.insert("harness.samples", untraced_ms.len() as f64);
    v.insert(
        "harness.trace_overhead",
        med("op") / median_or_zero(&untraced_ms),
    );
    Ok((t, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammd::kernels::{block_kernel, variable_kernel};

    #[test]
    fn synthetic_inputs_follow_the_kernel_signature() {
        let fixed = synthetic_inputs(&block_kernel(8, true), 40);
        let lens: Vec<(usize, usize)> = fixed
            .iter()
            .map(|d| (d.record_len, d.num_records()))
            .collect();
        assert_eq!(lens, [(9, 40), (9, 40), (72, 40)]);
        assert!(fixed[1].data.iter().all(|&x| x == 0.0), "zero shifts");

        let variable = synthetic_inputs(&variable_kernel(), 40);
        assert_eq!(variable[1].record_len, 1);
        assert_eq!(variable[1].data.iter().filter(|&&f| f == 1.0).count(), 5);
        assert_eq!(variable[2].num_records(), 5, "one centre per flag");
    }
}
