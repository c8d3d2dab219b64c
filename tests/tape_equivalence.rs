//! Differential proof that the interpreter and the tape are the same
//! function: the reference graph-walking interpreter, the batched SoA
//! tape (at both widths, 8 and 16, as the host runs it — built for AVX2
//! where the host has it — and as built portably) and
//! `CompiledTape::run`, the same loop at one lane. Over random kernels
//! (with and without conditional streams, unrolled and not), each must
//! produce bitwise-identical outputs, records-consumed counts, final
//! registers — and identical errors when a stream underruns. The
//! interpreter stays the oracle of the shipped kernels on real data:
//! every launch of a force step on every workload and variant, replayed
//! from its strip's gathers and loads, must match it bit for bit.
//! Strip-level tests then show the processor stores the interpreter's
//! words with one `RunReport` at every lane width and thread count, and
//! that a conditional stream run dry in a real StreamMD step is the same
//! typed error everywhere, the interpreter included.

use std::sync::Arc;

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::water::WaterModel;
use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_bench::{small_system, Dataset, SEED};
use merrimac_kernel::builder::Val;
use merrimac_kernel::interp::{InterpError, InterpOutput, Interpreter, StreamData, StreamView};
use merrimac_kernel::ir::{Kernel, Node, StreamMode};
use merrimac_kernel::unroll::unroll;
use merrimac_kernel::{BatchWidth, CompiledTape, KernelBuilder};
use merrimac_sim::program::StreamOp;
use merrimac_sim::{
    AccessIntent, CompiledKernel, HostExec, KernelOpt, Memory, ProgramBuilder, RegionId, SimError,
    StreamProcessor, StreamProgram,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use streammd::{StreamMdApp, Variant};

// ---- random kernel generation -----------------------------------------

/// Build a random (but always SSA-valid) kernel: a handful of streams,
/// registers and params feeding a soup of arithmetic/logical ops, with
/// optional conditional-stream reads (predicates are sometimes genuine
/// data-dependent masks, sometimes arbitrary values), conditional and
/// unconditional writes, and register updates.
fn random_kernel(rng: &mut ChaCha8Rng, with_cond: bool) -> Kernel {
    let mut b = KernelBuilder::new("rnd");
    let n_every = rng.gen_range(1usize..3);
    let mut every = Vec::new();
    for i in 0..n_every {
        let rl = rng.gen_range(1u32..4);
        every.push((
            b.input(&format!("s{i}"), rl, StreamMode::EveryIteration),
            rl,
        ));
    }
    let cond_stream = if with_cond {
        let rl = rng.gen_range(1u32..3);
        Some((b.input("c", rl, StreamMode::Conditional), rl))
    } else {
        None
    };
    let n_out = rng.gen_range(1usize..3);
    let mut outs = Vec::new();
    for i in 0..n_out {
        let rl = rng.gen_range(1u32..3);
        outs.push((b.output(&format!("o{i}"), rl), rl));
    }
    let regs: Vec<_> = (0..rng.gen_range(0usize..3))
        .map(|_| b.reg(rng.gen_range(-2.0..2.0)))
        .collect();

    let mut avail: Vec<Val> = Vec::new();
    for _ in 0..rng.gen_range(0usize..3) {
        avail.push(b.param());
    }
    avail.push(b.constant(rng.gen_range(-3.0..3.0)));
    avail.push(b.constant(rng.gen_range(0.5..2.0)));
    for r in &regs {
        avail.push(b.read_reg(*r));
    }
    for (s, rl) in &every {
        for f in 0..*rl {
            avail.push(b.read(*s, f));
        }
    }

    let emit_ops = |b: &mut KernelBuilder, rng: &mut ChaCha8Rng, avail: &mut Vec<Val>, n: usize| {
        for _ in 0..n {
            let p = |rng: &mut ChaCha8Rng, avail: &Vec<Val>| avail[rng.gen_range(0..avail.len())];
            let x = p(rng, avail);
            let y = p(rng, avail);
            let z = p(rng, avail);
            let v = match rng.gen_range(0u32..16) {
                0 => b.add(x, y),
                1 => b.sub(x, y),
                2 => b.mul(x, y),
                3 => b.madd(x, y, z),
                4 => b.nmsub(x, y, z),
                5 => b.div(x, y),
                6 => b.cmp_eq(x, y),
                7 => b.cmp_lt(x, y),
                8 => b.cmp_le(x, y),
                9 => b.sel(x, y, z),
                10 => b.and(x, y),
                11 => b.or(x, y),
                12 => b.not(x),
                13 => b.mov(x),
                14 => {
                    let m = b.cmp_lt(x, y);
                    b.sel(m, x, y) // min via mask, keeps masks flowing
                }
                _ => b.seed_recip(x),
            };
            avail.push(v);
        }
    };

    let n_ops = rng.gen_range(4usize..16);
    emit_ops(&mut b, rng, &mut avail, n_ops);
    if let Some((cs, crl)) = cond_stream {
        for _ in 0..rng.gen_range(1usize..4) {
            let pred = if rng.gen_range(0u32..2) == 0 {
                let a = avail[rng.gen_range(0..avail.len())];
                let c = avail[rng.gen_range(0..avail.len())];
                b.cmp_lt(a, c)
            } else {
                avail[rng.gen_range(0..avail.len())]
            };
            let fallback = avail[rng.gen_range(0..avail.len())];
            let field = rng.gen_range(0..crl);
            let v = b.cond_read(cs, field, pred, fallback);
            avail.push(v);
        }
        // Mix the conditionally-read values back into arithmetic.
        let n_mix = rng.gen_range(2usize..8);
        emit_ops(&mut b, rng, &mut avail, n_mix);
    }

    for (o, rl) in &outs {
        let values: Vec<Val> = (0..*rl)
            .map(|_| avail[rng.gen_range(0..avail.len())])
            .collect();
        if rng.gen_range(0u32..2) == 0 {
            let cond = avail[rng.gen_range(0..avail.len())];
            b.write_if(*o, cond, &values);
        } else {
            b.write(*o, &values);
        }
    }
    for r in &regs {
        let v = avail[rng.gen_range(0..avail.len())];
        b.set_reg(*r, v);
    }
    b.build()
}

/// Worst-case conditional pops per iteration on stream `s`: one per
/// distinct predicate among the stream's `CondRead` nodes.
fn max_pops_per_iter(k: &Kernel, s: usize) -> usize {
    let mut preds: Vec<u32> = k
        .nodes
        .iter()
        .filter_map(|n| match n {
            Node::CondRead { stream, pred, .. } if *stream as usize == s => Some(*pred),
            _ => None,
        })
        .collect();
    preds.sort_unstable();
    preds.dedup();
    preds.len()
}

/// Generate inputs sized so `iterations` iterations cannot underrun
/// (worst case for conditional streams), plus launch params.
fn make_inputs(k: &Kernel, rng: &mut ChaCha8Rng, iterations: usize) -> (Vec<StreamData>, Vec<f64>) {
    let inputs = k
        .inputs
        .iter()
        .enumerate()
        .map(|(s, sig)| {
            let records = match sig.mode {
                StreamMode::EveryIteration => iterations + rng.gen_range(0usize..3),
                StreamMode::Conditional => {
                    iterations * max_pops_per_iter(k, s).max(1) + rng.gen_range(0usize..3)
                }
            };
            let words = records * sig.record_len as usize;
            StreamData::new(
                sig.record_len as usize,
                (0..words).map(|_| rng.gen_range(-4.0..4.0)).collect(),
            )
        })
        .collect();
    let params = (0..k.num_params)
        .map(|_| rng.gen_range(-2.0..2.0))
        .collect();
    (inputs, params)
}

// ---- bitwise comparison ------------------------------------------------

/// Exact bit-pattern comparison: `f64` `PartialEq` would call equal
/// outputs unequal if any NaN flowed through (random div/seed ops can
/// produce them), while bit equality is exactly the "bitwise-identical"
/// claim the engines make.
fn assert_bitwise_equal(tape: &InterpOutput, interp: &InterpOutput, ctx: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        tape.outputs.len(),
        interp.outputs.len(),
        "{ctx}: output stream count"
    );
    for (i, (t, r)) in tape.outputs.iter().zip(&interp.outputs).enumerate() {
        assert_eq!(t.record_len, r.record_len, "{ctx}: output {i} record_len");
        assert_eq!(bits(&t.data), bits(&r.data), "{ctx}: output {i} data");
    }
    assert_eq!(
        tape.records_consumed, interp.records_consumed,
        "{ctx}: records consumed"
    );
    assert_eq!(tape.iterations, interp.iterations, "{ctx}: iterations");
    assert_eq!(
        bits(&tape.final_regs),
        bits(&interp.final_regs),
        "{ctx}: final registers"
    );
}

/// The batched tape at both widths, each as the host runs it and as
/// built portably, labelled.
fn batched(
    tape: &CompiledTape,
    inputs: &[StreamData],
    params: &[f64],
    iterations: usize,
) -> Vec<(String, Result<InterpOutput, InterpError>)> {
    let views: Vec<StreamView> = inputs.iter().map(StreamData::view).collect();
    let runs = [BatchWidth::W8, BatchWidth::W16].map(|w| {
        [
            (
                format!("batch {w}"),
                tape.run_views(&views, params, iterations, w),
            ),
            (
                format!("portable batch {w}"),
                tape.run_portable(&views, params, iterations, w),
            ),
        ]
    });
    runs.into_iter().flatten().collect()
}

/// Run the interpreter, the scalar tape loop and the batched tape (at
/// both widths, in both builds) on `k` and require identical results
/// (or identical errors).
fn assert_engines_agree(k: &Kernel, inputs: &[StreamData], params: &[f64], iterations: usize) {
    let compiled = CompiledTape::compile(k);
    let tape = compiled.run(inputs, params, iterations);
    let interp = Interpreter::new(k).run(inputs, params, iterations);
    match (&tape, &interp) {
        (Ok(t), Ok(i)) => assert_bitwise_equal(t, i, &k.name),
        _ => assert_eq!(
            tape, interp,
            "kernel '{}': engines disagree on error",
            k.name
        ),
    }
    for (run, batch) in batched(&compiled, inputs, params, iterations) {
        match (&batch, &tape) {
            (Ok(b), Ok(t)) => assert_bitwise_equal(b, t, &format!("{} ({run})", k.name)),
            _ => assert_eq!(
                batch, tape,
                "kernel '{}': {run} disagrees with scalar tape on error",
                k.name
            ),
        }
    }
}

fn differential_case(seed: u64, with_cond: bool, unroll_factor: u32) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = random_kernel(&mut rng, with_cond);
    let k = unroll(&base, unroll_factor);
    let iterations = rng.gen_range(1usize..40);
    let (inputs, params) = make_inputs(&k, &mut rng, iterations);
    assert_engines_agree(&k, &inputs, &params, iterations);

    // Truncated-input variant: both engines must report the *same*
    // underrun (stream and iteration) or the same success.
    if !inputs.is_empty() && iterations > 1 {
        let mut short = inputs.clone();
        let victim = rng.gen_range(0..short.len());
        let keep = rng.gen_range(0..short[victim].num_records().max(1));
        short[victim] = StreamData::new(
            short[victim].record_len,
            short[victim].data[..keep * short[victim].record_len].to_vec(),
        );
        assert_engines_agree(&k, &short, &params, iterations);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast path: random kernels with every-iteration streams only.
    #[test]
    fn tape_matches_interpreter_fast_path(seed in 0u64..1_000_000) {
        differential_case(seed, false, 1);
    }

    /// General path: random kernels with conditional streams.
    #[test]
    fn tape_matches_interpreter_conditional(seed in 0u64..1_000_000) {
        differential_case(seed, true, 1);
    }

    /// Unrolled kernels (×2, ×3): duplicated conditional-pop predicates
    /// must pop independently in both engines.
    #[test]
    fn tape_matches_interpreter_unrolled(seed in 0u64..1_000_000, factor in 2u32..4) {
        differential_case(seed, true, factor);
        differential_case(seed, false, factor);
    }
}

// ---- strip-level equivalence -------------------------------------------

/// A kernel with one every-iteration stream and one conditional stream
/// popped every 2nd iteration, so strip-level execution exercises the
/// general tape path.
fn cond_kernel(cfg: &MachineConfig, opt: KernelOpt) -> Arc<CompiledKernel> {
    let mut b = KernelBuilder::new("stride2");
    let sx = b.input("x", 1, StreamMode::EveryIteration);
    let sc = b.input("centres", 1, StreamMode::Conditional);
    let o = b.output("y", 1);
    let parity = b.reg(1.0);
    let cur = b.reg(0.0);
    let want = b.read_reg(parity);
    let prev = b.read_reg(cur);
    let c = b.cond_read(sc, 0, want, prev);
    let flip = b.not(want);
    b.set_reg(parity, flip);
    b.set_reg(cur, c);
    let x = b.read(sx, 0);
    let y = b.madd(x, x, c);
    b.write(o, &[y]);
    Arc::new(CompiledKernel::compile(
        b.build(),
        cfg,
        &OpCosts::default(),
        opt,
    ))
}

/// Multi-strip load→kernel→store program over the conditional kernel.
fn strip_program(strips: usize, n: usize) -> (Memory, StreamProgram) {
    let cfg = MachineConfig::default();
    let k = cond_kernel(&cfg, KernelOpt::default());
    let mut mem = Memory::new();
    let xs = mem.region("xs", (0..strips * n).map(|i| (i as f64).sin()).collect());
    let cs = mem.region(
        "centres",
        (0..strips * n.div_ceil(2))
            .map(|i| i as f64 * 0.5)
            .collect(),
    );
    let out = mem.region("out", vec![0.0; strips * n]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::ReadOnly)
        .intent(cs, AccessIntent::ReadOnly);
    let half = n.div_ceil(2);
    for strip in 0..strips {
        pb.strip(strip);
        let bx = pb.buffer(&format!("x{strip}"), 1);
        let bc = pb.buffer(&format!("c{strip}"), 1);
        let by = pb.buffer(&format!("y{strip}"), 1);
        pb.load(format!("load x {strip}"), xs, 1, strip * n, n, bx);
        pb.load(format!("load c {strip}"), cs, 1, strip * half, half, bc);
        pb.kernel(
            format!("kernel {strip}"),
            k.clone(),
            vec![bx, bc],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.store(format!("store {strip}"), by, out, 1, strip * n);
    }
    (mem, pb.build())
}

/// One kernel launch of a stream program, with the inputs its strip's
/// gathers and loads stage for it.
struct Launch<'p> {
    strip: usize,
    label: &'p str,
    kernel: &'p CompiledKernel,
    inputs: Vec<StreamData>,
    params: &'p [f64],
    /// Iterations of the (unrolled) kernel.
    iterations: usize,
}

/// Every kernel launch of `program` the processor accepts (its unroll
/// divides its iterations), the inputs replayed from the gathers and
/// loads ahead of it over `memory` and reshaped to the kernel's record
/// lengths, as the processor hands them over.
fn launches<'p>(program: &'p StreamProgram, memory: &Memory) -> Vec<Launch<'p>> {
    let mut staged: Vec<Option<StreamData>> = vec![None; program.buffers.len()];
    let mut out = Vec::new();
    for lop in &program.ops {
        match &lop.op {
            StreamOp::Gather {
                region,
                record_len,
                indices,
                dst,
            } => {
                let src = memory.data(*region);
                let records = indices.iter().map(|&i| i as usize * record_len);
                let data = records.flat_map(|s| &src[s..s + record_len]).copied();
                staged[dst.0] = Some(StreamData::new(*record_len, data.collect()));
            }
            StreamOp::Load {
                region,
                record_len,
                start,
                records,
                dst,
            } => {
                let data = &memory.data(*region)[start * record_len..][..records * record_len];
                staged[dst.0] = Some(StreamData::new(*record_len, data.to_vec()));
            }
            StreamOp::Kernel {
                kernel,
                inputs,
                params,
                iterations,
                ..
            } => {
                let unroll = u64::from(kernel.opt.unroll);
                if !iterations.is_multiple_of(unroll) {
                    continue; // the processor refuses the launch
                }
                let inputs = inputs.iter().zip(&kernel.ir.inputs).map(|(b, sig)| {
                    let words = staged[b.0].as_ref().expect("staged before its launch");
                    StreamData::new(sig.record_len as usize, words.data.clone())
                });
                out.push(Launch {
                    strip: lop.strip,
                    label: &lop.label,
                    kernel,
                    inputs: inputs.collect(),
                    params,
                    iterations: (iterations / unroll) as usize,
                });
            }
            StreamOp::ScatterAdd { .. } | StreamOp::Store { .. } => {}
        }
    }
    out
}

impl Launch<'_> {
    fn interpret(&self) -> Result<InterpOutput, InterpError> {
        Interpreter::new(&self.kernel.ir).run(&self.inputs, self.params, self.iterations)
    }
}

/// The words the strip programs below store: each launch's one output,
/// as the interpreter computes it, in launch order.
fn interpreted_stores(program: &StreamProgram, memory: &Memory) -> Vec<f64> {
    let outputs = launches(program, memory).into_iter().map(|launch| {
        let out = launch.interpret().expect("the interpreter runs the launch");
        out.outputs.into_iter().next().expect("one output").data
    });
    outputs.flatten().collect()
}

/// The processor at lane width `width` on `threads` host threads.
fn processor(width: BatchWidth, threads: usize) -> StreamProcessor {
    let host = HostExec { threads };
    StreamProcessor::new(MachineConfig::default())
        .with_host(host)
        .with_batch_width(width)
}

/// A partitioned strip program stores, at both lane widths and every
/// thread count, exactly the words the interpreter computes for its
/// launches, with one `RunReport` — the lanes and the threads change
/// host wall-clock only, never simulated results.
#[test]
fn strip_run_reports_identical_under_all_engines() {
    let strips = 4;
    let n = 200;
    let (mem, program) = strip_program(strips, n);
    let want = interpreted_stores(&program, &mem);
    assert_eq!(want.len(), strips * n);
    let mut baseline: Option<merrimac_sim::RunReport> = None;
    for width in [BatchWidth::W8, BatchWidth::W16] {
        for threads in [1usize, 4] {
            let ctx = format!("batch {width}/{threads} threads");
            let mut mem = mem.clone();
            let report = processor(width, threads)
                .run(&mut mem, &program)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(report.partition.parallelized, "{ctx}: must partition");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                bits(mem.data(RegionId(2))),
                bits(&want),
                "{ctx}: region data"
            );
            let Some(base) = &baseline else {
                baseline = Some(report);
                continue;
            };
            assert_eq!(base.cycles, report.cycles, "{ctx}: cycles");
            assert_eq!(base.counters, report.counters, "{ctx}: counters");
            assert_eq!(base.phases, report.phases, "{ctx}: phase cycles");
            assert_eq!(base.cache_stats, report.cache_stats, "{ctx}: cache stats");
            assert_eq!(base.sdr_peak, report.sdr_peak, "{ctx}: SDR peak");
            assert_eq!(
                base.srf_peak_words_per_cluster, report.srf_peak_words_per_cluster,
                "{ctx}: SRF peak"
            );
            assert_eq!(
                base.sdr_stall_cycles, report.sdr_stall_cycles,
                "{ctx}: SDR stalls"
            );
            assert_eq!(base.partition, report.partition, "{ctx}: partition");
        }
    }
}

/// The serial scoreboard path (cross-strip buffer → fallback) stores the
/// interpreter's words too, with one report at both widths and thread
/// counts.
#[test]
fn serial_fallback_identical_under_all_engines() {
    let cfg = MachineConfig::default();
    let k = cond_kernel(&cfg, KernelOpt::default());
    let n = 128usize;
    let mut mem = Memory::new();
    let xs = mem.region("xs", (0..n).map(|i| (i as f64).cos()).collect());
    let cs = mem.region("centres", (0..n).map(|i| i as f64).collect());
    let out = mem.region("out", vec![0.0; n]);
    let mut pb = ProgramBuilder::new();
    let bx = pb.buffer("x", 1);
    let bc = pb.buffer("c", 1);
    let by = pb.buffer("y", 1);
    // Producer and consumer in different strips: serial fallback.
    pb.strip(0).load("load x", xs, 1, 0, n, bx);
    pb.strip(0).load("load c", cs, 1, 0, n.div_ceil(2), bc);
    pb.strip(1).kernel(
        "kernel",
        k,
        vec![bx, bc],
        vec![by],
        vec![],
        n as u64,
        (n as u64).div_ceil(16),
    );
    pb.strip(1).store("store", by, out, 1, 0);
    let program = pb.build();
    let want = interpreted_stores(&program, &mem);
    let mut baseline: Option<merrimac_sim::RunReport> = None;
    for width in [BatchWidth::W8, BatchWidth::W16] {
        for threads in [1usize, 2] {
            let ctx = format!("batch {width}/{threads} threads");
            let mut m = mem.clone();
            let r = processor(width, threads)
                .run(&mut m, &program)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(!r.partition.parallelized, "{ctx}");
            assert_eq!(m.data(out), &want[..], "{ctx}");
            let base = baseline.get_or_insert_with(|| r.clone());
            assert_eq!(base.cycles, r.cycles, "{ctx}");
            assert_eq!(base.counters, r.counters, "{ctx}");
            assert_eq!(base.cache_stats, r.cache_stats, "{ctx}");
        }
    }
}

/// A conditional stream run dry inside a real StreamMD step is a typed
/// error, identically everywhere. The STREAM_UNDERRUN lint is silent on
/// conditional streams by design (their consumption is data-dependent),
/// so the tape's per-pop depth check is the only guard: load too few
/// centre records into a strip of the `variable` program and every
/// width × thread count, and the interpreter on the same launch, must
/// blame the same `(stream, iteration)` — never index past the stream,
/// never return forces. One record short runs dry on the strip's last
/// iteration, in the batched tape's masked last batch; half the records
/// short runs dry mid-strip, in a full batch.
#[test]
fn truncated_centre_stream_is_the_same_typed_error_everywhere() {
    let (system, list) = small_system(216);
    let mut app = StreamMdApp::builder()
        .neighbor(list.params)
        .build()
        .expect("valid configuration");
    let sid = 0;
    let label = format!("load centers {sid}");
    for in_remainder in [true, false] {
        let mut step = app.build_step_program(&system, &list, Variant::Variable);
        let iterations = step.layout.strips[sid].iterations as usize;
        let lop = step
            .program
            .ops
            .iter_mut()
            .find(|lop| lop.label == label)
            .expect("variable strip loads its centre records");
        let StreamOp::Load { records, .. } = &mut lop.op else {
            panic!("'{label}' is a load");
        };
        *records -= if in_remainder { 1 } else { *records / 2 };
        app.admit_built(&step)
            .expect("the lint cannot see a conditional-stream shortfall");

        let launch = launches(&step.program, &step.memory)
            .into_iter()
            .find(|launch| launch.strip == sid)
            .expect("the strip launches its kernel");
        let Err(InterpError::StreamUnderrun { stream, iteration }) = launch.interpret() else {
            panic!("the interpreter must run the truncated stream dry");
        };
        // Kernel inputs are [n_pos, flags, centres].
        assert_eq!(stream, 2, "interpreter");
        let blamed = iteration;
        for width in [BatchWidth::W8, BatchWidth::W16] {
            for threads in [1usize, 4] {
                app.tape_batch = width;
                app.host.threads = threads;
                let ctx = format!("{width}/{threads} threads");
                let err = app
                    .run_step_program(&system, &step)
                    .err()
                    .unwrap_or_else(|| panic!("{ctx}: forces returned from a truncated stream"));
                let SimError::Interp(InterpError::StreamUnderrun { stream, iteration }) = err
                else {
                    panic!("{ctx}: expected a stream underrun, got {err}");
                };
                assert_eq!((stream, iteration), (2, blamed), "{ctx}");
            }
        }
        // Both check sites are exercised at both widths.
        if in_remainder {
            assert!(
                blamed >= iterations - iterations % 8,
                "{blamed}/{iterations}"
            );
        } else {
            assert!(
                blamed < iterations - iterations % 16,
                "{blamed}/{iterations}"
            );
        }
    }
}

/// The interpreter is the oracle of every shipped kernel on the data it
/// really runs on: every launch of a force step — water, LJ, charged and
/// TIP5P boxes, every variant, and `variable` unrolled ×2 on its even
/// strips — replayed from
/// its strip's gathers and loads, gives the tape at one lane and the
/// batched tape at 8 and 16 lanes, in both builds, the interpreter's
/// outputs, consumed counts, iteration count and final registers, bit
/// for bit.
#[test]
fn every_shipped_launch_matches_the_interpreter() {
    let tip5p = {
        let system = WaterBox::builder()
            .molecules(64)
            .model(WaterModel::tip5p())
            .seed(SEED)
            .build();
        let params = NeighborListParams {
            cutoff: (0.45 * system.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 10,
        };
        let list = NeighborList::build(&system, params);
        ("tip5p-64".to_string(), system, list)
    };
    let datasets = [Dataset::small(125), Dataset::lj(216), Dataset::charged(216)]
        .map(|ds| (ds.id.to_string(), ds.system, ds.list));
    let unrolled = KernelOpt {
        unroll: 2,
        software_pipeline: true,
    };
    for (name, system, list) in datasets.into_iter().chain([tip5p]) {
        let app = StreamMdApp::builder().neighbor(list.params);
        let runs = Variant::ALL.map(|v| (v, app.clone())).into_iter().chain([(
            Variant::Variable,
            app.kernel_opt(unrolled).strip_iterations(256),
        )]);
        for (variant, app) in runs {
            let app = app.variants(&[variant]).build().expect("valid");
            let step = app.build_step_program(&system, &list, variant);
            let unroll = app.kernel_opt.unroll;
            let all = launches(&step.program, &step.memory);
            // A strip's iteration count is the layout's, not a multiple
            // of the unroll: unrolled, strips are cut at most 256 long so
            // that several launch, and the even ones replay.
            let strips = step.layout.strips.len();
            assert!(
                all.len() == strips || (unroll > 1 && !all.is_empty()),
                "{name} {variant} x{unroll}: {} of {strips} launches",
                all.len()
            );
            for launch in all {
                let ctx = format!("{name} {variant} x{unroll} '{}'", launch.label);
                let (inputs, params, iters) = (&launch.inputs, launch.params, launch.iterations);
                let want = launch.interpret().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let tape = &launch.kernel.tape;
                let one_lane = tape.run(inputs, params, iters);
                let one_lane = one_lane.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_bitwise_equal(&one_lane, &want, &format!("{ctx} (1 lane)"));
                for (run, got) in batched(tape, inputs, params, iters) {
                    let got = got.unwrap_or_else(|e| panic!("{ctx} ({run}): {e}"));
                    assert_bitwise_equal(&got, &want, &format!("{ctx} ({run})"));
                }
            }
        }
    }
}

/// The StreamMD production kernels compile to fast-path tapes except
/// `variable`, whose conditional centre stream takes the general path.
#[test]
fn streammd_kernels_take_expected_tape_paths() {
    use streammd::kernels::{block_kernel, expanded_kernel, variable_kernel};
    assert!(CompiledTape::compile(&expanded_kernel()).is_fast_path());
    assert!(CompiledTape::compile(&block_kernel(4, true)).is_fast_path());
    assert!(CompiledTape::compile(&block_kernel(4, false)).is_fast_path());
    assert!(!CompiledTape::compile(&variable_kernel()).is_fast_path());
}
