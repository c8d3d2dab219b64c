//! Micro-benchmarks of the substrate hot paths: the reference force
//! engine, the GROMACS-like single-precision loop, neighbour-list
//! construction, the stream layout, program build and admission, the
//! cache model, the VLIW schedulers and the kernel interpreter.
//!
//! Criterion is unavailable offline, so this harness times each closure
//! directly: a warm-up pass, then the median of `SAMPLES` timed runs.

use std::hint::black_box;
use std::time::Instant;

use md_sim::force::compute_forces;
use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::ir::Node;
use merrimac_kernel::lower::lower_kernel;
use merrimac_kernel::schedule::DepTable;
use merrimac_kernel::{
    list_schedule, modulo_schedule, BatchWidth, CompiledTape, Interpreter, KernelStats, StreamData,
    StreamView,
};
use merrimac_sim::cache::StreamCache;
use merrimac_sim::{CompiledKernel, KernelOpt, MemSystem, StreamOp, StreamProcessor};
use streammd::kernels::{block_kernel, expanded_kernel, variable_kernel, workload_params};
use streammd::layout::build_layout;
use streammd::{run_multinode_program, StreamMdApp, Variant};

const SAMPLES: usize = 20;
/// Alternating draws of a paired row.
const PAIRS: usize = 41;

/// Median of `SAMPLES` draws of `sample`.
fn median(sample: impl FnMut() -> f64) -> f64 {
    let mut draws: Vec<f64> = std::iter::repeat_with(sample).take(SAMPLES).collect();
    draws.sort_by(f64::total_cmp);
    draws[SAMPLES / 2]
}

/// Time `f` (warm-up pass, then median of `SAMPLES` runs) and return
/// the median in seconds.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let median = median(|| {
        let t0 = Instant::now();
        black_box(f());
        t0.elapsed().as_secs_f64()
    });
    println!(
        "{name:<32} {:>12.3} µs/iter (median of {SAMPLES})",
        median * 1e6
    );
    median
}

/// Seconds one call of `f` takes.
fn seconds<R>(f: &mut impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// `subject` against `yardstick`, each timed per its own unit count:
/// both warmed, then `PAIRS` alternating draws, yardstick first, one
/// ratio per pair. Prints the median ratio and its interquartile range:
/// the two share the container's state, so their ratio drifts far less
/// than either row.
fn paired<R, S>(
    name: &str,
    (yardstick, yard_units): (&mut impl FnMut() -> R, usize),
    (subject, units): (&mut impl FnMut() -> S, usize),
) {
    black_box((yardstick(), subject()));
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let per_yard = seconds(yardstick) / yard_units as f64;
            seconds(subject) / units as f64 / per_yard
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let quartile = |q: usize| ratios[q * (PAIRS - 1) / 4];
    println!(
        "{name:<32} {:>12.3} ratio (median of {PAIRS} pairs; IQR {:.3}–{:.3})",
        quartile(2),
        quartile(1),
        quartile(3)
    );
}

/// Report the interpreter, the batch engine at one lane
/// (`CompiledTape::run`, what a launch's remainder costs) and at its
/// full width as interactions/second plus the full-width speedup over
/// each of the other two — the numbers the
/// CI micro smoke job archives so host functional-execution throughput
/// is tracked across commits.
fn engine_summary(label: &str, interactions: usize, interp_s: f64, lane1_s: f64, batch_s: f64) {
    let rate = |s: f64| interactions as f64 / s / 1e6;
    println!(
        "{label:<24} interp {:>8.2} Mint/s | lane1 {:>8.2} Mint/s | batch {:>8.2} Mint/s | \
         batch/interp {:>5.2}x | batch/lane1 {:>5.2}x",
        rate(interp_s),
        rate(lane1_s),
        rate(batch_s),
        interp_s / batch_s,
        lane1_s / batch_s
    );
}

fn main() {
    merrimac_bench::banner("micro", "substrate hot-path micro-benchmarks");

    let system = WaterBox::builder().molecules(216).seed(1).build();
    let params = NeighborListParams {
        cutoff: 0.8,
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    let mut native = || compute_forces(&system, &list);
    bench("reference_forces_216", &mut native);
    bench("gromacs_like_f32_forces_216", || {
        p4_baseline::water_water_forces_sse_like(&system, &list)
    });

    let big = WaterBox::builder().molecules(900).seed(1).build();
    let big_params = NeighborListParams {
        cutoff: 1.0,
        skin: 0.0,
        rebuild_interval: 10,
    };
    bench("neighbor_list_216", || NeighborList::build(&system, params));
    bench("neighbor_list_900", || {
        NeighborList::build(&big, big_params)
    });

    let cfg = MachineConfig::default();
    bench("cache_trace_64k", || {
        let mut cache = StreamCache::new(&cfg);
        cache.access_trace(0..65536u64, false)
    });

    // The two loops of the memory-timing half of a run, on the paper's
    // expanded step: pricing one strip's scatter-adds against a new
    // shard, its build included (ns per word), and the scoreboard over
    // the whole program (µs per op, from `RunReport::host`).
    let (paper, paper_list) = merrimac_bench::paper_system();
    let app = StreamMdApp::builder().build().expect("defaults are valid");
    let step = app.build_step_program(&paper, &paper_list, Variant::Expanded);
    // The scalar half of that step after the list: the layout alone (cut
    // at the built program's strip size), the whole build around it
    // (kernel memoised), and the admission analysis.
    let strip_size = step.layout.strips[0].iterations as usize;
    bench("build_layout_expanded_900", || {
        build_layout(
            &paper,
            &paper_list,
            Variant::Expanded,
            app.block_l,
            strip_size,
        )
    });
    bench("build_step_program_expanded_900", || {
        app.build_step_program(&paper, &paper_list, Variant::Expanded)
    });
    bench("admit_expanded_900", || app.admit_built(&step));
    let strip = step.program.ops[0].strip;
    let scatters: Vec<_> = step
        .program
        .ops
        .iter()
        .filter(|lop| lop.strip == strip)
        .filter_map(|lop| match &lop.op {
            StreamOp::ScatterAdd {
                region,
                record_len,
                indices,
                ..
            } => Some((*region, *record_len, indices.clone())),
            _ => None,
        })
        .collect();
    let words: usize = scatters.iter().map(|(_, len, idx)| len * idx.len()).sum();
    let strip_s = bench("scatter_add_cost_expanded_strip", || {
        let mut shard = MemSystem::strip_shard(&cfg);
        for (region, len, idx) in &scatters {
            black_box(shard.scatter_add_cost(&step.memory, *region, *len, idx));
        }
    });
    println!(
        "{:<32} {:>12.3} ns/word ({words} words)",
        "",
        strip_s * 1e9 / words as f64
    );
    // The strip's two scatter-adds apart, as a phase-A worker prices
    // them: on its one shard, flushed for the strip, each after the ones
    // before it (the centre stream first, in runs of one index). Unlike
    // the row above, no shard is built and no new page is touched.
    let mut shard = MemSystem::strip_shard(&cfg);
    for (at, name) in ["centre", "neighbour"].into_iter().enumerate() {
        let s = median(|| {
            shard.flush_cache();
            for (region, len, idx) in &scatters[..at] {
                shard.scatter_add_cost(&step.memory, *region, *len, idx);
            }
            let (region, len, idx) = &scatters[at];
            let t0 = Instant::now();
            black_box(shard.scatter_add_cost(&step.memory, *region, *len, idx));
            t0.elapsed().as_secs_f64()
        });
        println!(
            "{:<32} {:>12.3} µs/iter (median of {SAMPLES})",
            format!("scatter_add_cost_expanded_{name}"),
            s * 1e6
        );
    }
    let ops = step.program.ops.len();
    let scoreboard_s = median(|| {
        let outcome = app.run_step_program(&paper, &step).expect("expanded runs");
        outcome.report.host.scoreboard.as_secs_f64()
    });
    println!(
        "{:<32} {:>12.3} µs/op (median of {SAMPLES}, {ops} ops)",
        "scoreboard_expanded_900",
        scoreboard_s * 1e6 / ops as f64
    );
    // What is left of the same step's overlay reduction on the main
    // thread (`HostPhases::reduce`): the tree nodes that straddle the
    // workers' chunks, the sum added into the force region — the workers
    // fold the rest inside phase A — and the nine scoreboard passes an
    // 8-node `variable` step makes over its one execution (the whole
    // step, then each node's share).
    let layers = step.layout.strips.len();
    let words = step.memory.data(step.forces).len();
    let reduce_s = median(|| {
        let outcome = app.run_step_program(&paper, &step).expect("expanded runs");
        outcome.report.host.reduce.as_secs_f64()
    });
    println!(
        "{:<32} {:>12.3} µs/iter (median of {SAMPLES}, {layers} layers x {words} words)",
        "reduce_finish_expanded_900",
        reduce_s * 1e6
    );
    let variable = app.build_step_program(&paper, &paper_list, Variant::Variable);
    let time_s = median(|| {
        let step = run_multinode_program(&app, &paper, &variable, 8).expect("8 nodes run");
        step.outcome.report.host.scoreboard.as_secs_f64()
    });
    println!(
        "{:<32} {:>12.3} µs/iter (median of {SAMPLES}, 9 timings of {} ops)",
        "time_8_nodes_variable_900",
        time_s * 1e6,
        variable.program.ops.len()
    );

    let costs = OpCosts::default();
    let k = lower_kernel(&expanded_kernel(), &costs);
    bench("list_schedule_expanded", || list_schedule(&k, &costs, 4));
    bench("modulo_schedule_expanded", || {
        modulo_schedule(&k, &costs, 4)
    });
    // The L=8 block kernel is 7.5× the expanded one (3,485 lowered nodes
    // against 465): the rows a superlinear scheduler shows up on. With
    // `compile_fixed_l8` below they name every part of a cold compile.
    bench("block_kernel_l8", || block_kernel(8, true));
    let fixed = block_kernel(8, true);
    bench("lower_fixed_l8", || lower_kernel(&fixed, &costs));
    let k8 = lower_kernel(&fixed, &costs);
    bench("stats_fixed_l8", || KernelStats::analyze(&fixed, &k8));
    bench("tape_fixed_l8", || CompiledTape::compile(&fixed));
    bench("dep_table_fixed_l8", || DepTable::new(&k8, &costs));
    bench("list_schedule_fixed_l8", || list_schedule(&k8, &costs, 4));
    bench("modulo_schedule_fixed_l8", || {
        modulo_schedule(&k8, &costs, 4)
    });
    bench("compile_fixed_l8", || {
        CompiledKernel::compile(fixed.clone(), &cfg, &costs, KernelOpt::default())
    });

    let kern = expanded_kernel();
    let spc = md_sim::water::WaterModel::spc();
    let kparams = workload_params(streammd::Workload::of_model(&spc), &spc);
    let n = 256usize;
    let mk = |stride: f64| {
        StreamData::new(
            9,
            (0..n * 9)
                .map(|i| (i as f64 * stride).sin() + 2.0)
                .collect(),
        )
    };
    let inputs = vec![mk(0.013), StreamData::new(9, vec![0.0; n * 9]), mk(0.017)];
    let interp_s = bench("interpret_expanded_256", || {
        Interpreter::new(&kern)
            .run(&inputs, &kparams, n)
            .expect("interp")
    });
    let tape = CompiledTape::compile(&kern);
    let lane1_s = bench("lane1_expanded_256", || {
        tape.run(&inputs, &kparams, n).expect("lane1")
    });
    let batch_s = bench("batch8_expanded_256", || {
        tape.run_batched(&inputs, &kparams, n, BatchWidth::W8)
            .expect("batch")
    });
    let batch16_s = bench("batch16_expanded_256", || {
        tape.run_batched(&inputs, &kparams, n, BatchWidth::W16)
            .expect("batch")
    });

    // `variable` exercises conditional pops (the centre stream): new
    // centre every 8 iterations.
    let vkern = variable_kernel();
    let centres = n.div_ceil(8);
    let vinputs = vec![
        mk(0.013),
        StreamData::new(
            1,
            (0..n).map(|i| if i % 8 == 0 { 1.0 } else { 0.0 }).collect(),
        ),
        StreamData::new(
            18,
            (0..centres * 18)
                .map(|i| (i as f64 * 0.011).cos() + 2.0)
                .collect(),
        ),
    ];
    let vinterp_s = bench("interpret_variable_256", || {
        Interpreter::new(&vkern)
            .run(&vinputs, &kparams, n)
            .expect("interp")
    });
    let vtape = CompiledTape::compile(&vkern);
    let vlane1_s = bench("lane1_variable_256", || {
        vtape.run(&vinputs, &kparams, n).expect("lane1")
    });
    let vbatch_s = bench("batch8_variable_256", || {
        vtape
            .run_batched(&vinputs, &kparams, n, BatchWidth::W8)
            .expect("batch")
    });

    // What a launch costs around its tape: one strip of the paper's
    // 900-molecule program through the real `exec_op` path
    // (`HostPhases::kernel` of a run of that strip alone), beside the
    // bare tape on the same streams, re-viewed at the kernel's record
    // length and launched `iterations / unroll` times, as a launch does.
    for variant in Variant::ALL {
        let step = app.build_step_program(&paper, &paper_list, variant);
        let mut program = step.program.clone();
        let strip = program.ops[0].strip;
        program.ops.retain(|lop| lop.strip == strip);
        let launch = program.ops.iter().find_map(|lop| match &lop.op {
            StreamOp::Kernel {
                kernel,
                inputs,
                params,
                iterations,
                ..
            } => Some((kernel, inputs, params, *iterations as usize)),
            _ => None,
        });
        let (kernel, inputs, params, iterations) = launch.expect("a strip launches its kernel");
        let streams: Vec<StreamData> = inputs
            .iter()
            .zip(&kernel.ir.inputs)
            .map(|(b, sig)| {
                let staged = program.ops.iter().find_map(|lop| match &lop.op {
                    StreamOp::Gather {
                        region,
                        record_len,
                        indices,
                        dst,
                    } if dst == b => {
                        let src = step.memory.data(*region);
                        let words = indices
                            .iter()
                            .flat_map(|&i| &src[i as usize * record_len..][..*record_len]);
                        Some(StreamData::new(*record_len, words.copied().collect()))
                    }
                    StreamOp::Load {
                        region,
                        record_len,
                        start,
                        records,
                        dst,
                    } if dst == b => {
                        let src = &step.memory.data(*region)[start * record_len..];
                        Some(StreamData::new(
                            *record_len,
                            src[..records * record_len].to_vec(),
                        ))
                    }
                    _ => None,
                });
                let staged = staged.expect("a gather or a load stages every kernel input");
                StreamData::new(sig.record_len as usize, staged.data)
            })
            .collect();
        let launches = iterations / kernel.opt.unroll as usize;
        let name = variant.name();
        let width = BatchWidth::default();
        let mut tape = || {
            kernel
                .tape
                .run_batched(&streams, params, launches, width)
                .expect("batch")
        };
        let tape_s = bench(&format!("tape_{name}_strip"), &mut tape);
        // The MD-Bench units beside the plan shape the speed comes from.
        let tape_ops = kernel.ir.nodes.iter();
        let tape_ops = tape_ops.filter(|n| matches!(n, Node::Op { .. } | Node::CondRead { .. }));
        let op_lanes = tape_ops.count() * launches;
        let interactions = step.layout.strips[strip].real_interactions;
        let stages = kernel.tape.batch_stage_sizes();
        let stages: Vec<String> = stages.iter().map(|(at, n)| format!("{at} {n}")).collect();
        let (slots, bytes) = kernel.tape.lane_file(width);
        println!(
            "{:<32} {:.2} ns per interaction of {interactions}, {:.3} ns per op-lane of \
             {op_lanes}; plan: {}; lane file: {slots} value slots, {:.0} KB at {width} lanes",
            "",
            tape_s * 1e9 / interactions as f64,
            tape_s * 1e9 / op_lanes as f64,
            stages.join(", "),
            bytes as f64 / 1e3
        );
        // The tape against the native f64 loop (ns per interaction over
        // ns per pair), and the host's instantiation against the
        // portable one on the same launch.
        if variant != Variant::Duplicated {
            let native = (&mut native, list.num_pairs());
            paired(
                &format!("tape_{name}_vs_native"),
                native,
                (&mut tape, interactions as usize),
            );
        }
        let views: Vec<StreamView> = streams.iter().map(StreamData::view).collect();
        let mut portable = || {
            let run = kernel.tape.run_portable(&views, params, launches, width);
            run.expect("portable batch")
        };
        paired(
            &format!("tape_{name}_vs_portable"),
            (&mut portable, 1),
            (&mut tape, 1),
        );
        let proc = StreamProcessor::new(cfg.clone());
        let launch_s = median(|| {
            let mut memory = step.memory.clone();
            let report = proc.run(&mut memory, &program).expect("strip runs");
            report.host.kernel.as_secs_f64()
        });
        println!(
            "{:<32} {:>12.3} µs/iter (median of {SAMPLES}); launch/tape {:.2}x, \
             {:.0} ns per kernel iteration of {iterations}",
            format!("launch_{name}_strip"),
            launch_s * 1e6,
            launch_s / tape_s,
            launch_s * 1e9 / iterations as f64
        );
    }

    println!();
    engine_summary(
        "expanded (every-iter)",
        n,
        interp_s,
        lane1_s,
        batch_s.min(batch16_s),
    );
    engine_summary("variable (conditional)", n, vinterp_s, vlane1_s, vbatch_s);
}
