//! Differential proof that the host engines are the same function: the
//! reference graph-walking interpreter, the batched SoA tape (at both
//! widths, 8 and 16) and `CompiledTape::run`, the same loop at the one
//! lane the batch remainder runs at. Over random kernels (with and without
//! conditional streams, unrolled and not), each must produce
//! bitwise-identical outputs, records-consumed counts, final registers —
//! and identical errors when a stream underruns. Strip-level tests then
//! show `run_with_threads` produces identical `RunReport`s and region
//! contents under either engine at every thread count, and that a
//! conditional stream run dry in a real StreamMD step is the same typed
//! error everywhere.

use std::sync::Arc;

use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_bench::small_system;
use merrimac_kernel::builder::Val;
use merrimac_kernel::interp::{InterpError, InterpOutput, Interpreter, StreamData};
use merrimac_kernel::ir::{Kernel, Node, StreamMode};
use merrimac_kernel::unroll::unroll;
use merrimac_kernel::{BatchWidth, CompiledTape, KernelBuilder};
use merrimac_sim::program::StreamOp;
use merrimac_sim::{
    AccessIntent, CompiledKernel, KernelEngine, KernelOpt, Memory, ProgramBuilder, RegionId,
    SimError, StreamProcessor,
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

/// Run the interpreter, the scalar tape loop and the batched tape (at
/// both widths) on `k` and require identical results (or identical
/// errors).
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
    for width in [BatchWidth::W8, BatchWidth::W16] {
        let batch = compiled.run_batched(inputs, params, iterations, width);
        match (&batch, &tape) {
            (Ok(b), Ok(t)) => assert_bitwise_equal(b, t, &format!("{} (batch {width})", k.name)),
            _ => assert_eq!(
                batch, tape,
                "kernel '{}': batch {width} disagrees with scalar tape on error",
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
fn strip_program(strips: usize, n: usize) -> (Memory, merrimac_sim::StreamProgram) {
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

/// `run_with_threads` must produce identical `RunReport`s and region
/// contents whichever engine executes the kernels, at every thread
/// count — the engines change host wall-clock only, never simulated
/// results.
#[test]
fn strip_run_reports_identical_under_all_engines() {
    let strips = 4;
    let n = 200;
    let mut baseline: Option<(Vec<f64>, merrimac_sim::RunReport)> = None;
    for engine in [KernelEngine::Interp, KernelEngine::Batch] {
        for threads in [1usize, 4] {
            let (mut mem, program) = strip_program(strips, n);
            let proc = StreamProcessor::new(MachineConfig::default()).with_engine(engine);
            let report = proc
                .run_parallel(&mut mem, &program, threads)
                .unwrap_or_else(|e| panic!("{engine:?}/{threads}: {e}"));
            assert!(report.partition.parallelized, "{engine:?}: must partition");
            let data = mem.data(RegionId(2)).to_vec();
            match &baseline {
                None => baseline = Some((data, report)),
                Some((base_data, base)) => {
                    assert_eq!(base_data, &data, "{engine:?}/{threads}: region data");
                    assert_eq!(base.cycles, report.cycles, "{engine:?}/{threads}: cycles");
                    assert_eq!(
                        base.counters, report.counters,
                        "{engine:?}/{threads}: counters"
                    );
                    assert_eq!(
                        base.phases, report.phases,
                        "{engine:?}/{threads}: phase cycles"
                    );
                    assert_eq!(
                        base.cache_stats, report.cache_stats,
                        "{engine:?}/{threads}: cache stats"
                    );
                    assert_eq!(
                        base.sdr_peak, report.sdr_peak,
                        "{engine:?}/{threads}: SDR peak"
                    );
                    assert_eq!(
                        base.srf_peak_words_per_cluster, report.srf_peak_words_per_cluster,
                        "{engine:?}/{threads}: SRF peak"
                    );
                    assert_eq!(
                        base.sdr_stall_cycles, report.sdr_stall_cycles,
                        "{engine:?}/{threads}: SDR stalls"
                    );
                    assert_eq!(
                        base.partition, report.partition,
                        "{engine:?}/{threads}: partition"
                    );
                }
            }
        }
    }
}

/// The serial scoreboard path (cross-strip buffer → fallback) must also
/// agree between engines.
#[test]
fn serial_fallback_identical_under_all_engines() {
    let cfg = MachineConfig::default();
    let k = cond_kernel(&cfg, KernelOpt::default());
    let n = 128usize;
    let build = || {
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
            k.clone(),
            vec![bx, bc],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.strip(1).store("store", by, out, 1, 0);
        (mem, pb.build())
    };
    let (mut m1, p1) = build();
    let r1 = StreamProcessor::new(cfg.clone())
        .with_engine(KernelEngine::Interp)
        .run(&mut m1, &p1)
        .expect("interp");
    assert!(!r1.partition.parallelized);
    for width in [BatchWidth::W8, BatchWidth::W16] {
        let (mut m3, p3) = build();
        let r3 = StreamProcessor::new(cfg.clone())
            .with_engine(KernelEngine::Batch)
            .with_batch_width(width)
            .run(&mut m3, &p3)
            .unwrap_or_else(|e| panic!("batch {width}: {e}"));
        assert!(!r3.partition.parallelized);
        assert_eq!(m1.data(RegionId(2)), m3.data(RegionId(2)), "batch {width}");
        assert_eq!(r1.cycles, r3.cycles, "batch {width}");
        assert_eq!(r1.counters, r3.counters, "batch {width}");
        assert_eq!(r1.cache_stats, r3.cache_stats, "batch {width}");
    }
}

/// A conditional stream run dry inside a real StreamMD step is a typed
/// error, identically everywhere. The STREAM_UNDERRUN lint is silent on
/// conditional streams by design (their consumption is data-dependent),
/// so the engines' per-pop depth check is the only guard: load too few
/// centre records into a strip of the `variable` program and every
/// engine × width × thread count must blame the same
/// `(stream, iteration)` — never index past the stream, never return
/// forces. One record short runs dry on the strip's last iteration, in
/// the batch engine's scalar remainder; half the records short runs dry
/// mid-strip, in the sequential phase of a full batch.
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

        let mut blamed = None;
        for (engine, width) in [
            (KernelEngine::Batch, BatchWidth::W8),
            (KernelEngine::Batch, BatchWidth::W16),
            (KernelEngine::Interp, BatchWidth::W8),
        ] {
            for threads in [1usize, 4] {
                app.engine = engine;
                app.tape_batch = width;
                app.threads = threads;
                let ctx = format!("{engine}/{width}/{threads} threads");
                let err = app
                    .run_step_program(&system, &step)
                    .err()
                    .unwrap_or_else(|| panic!("{ctx}: forces returned from a truncated stream"));
                let SimError::Interp(InterpError::StreamUnderrun { stream, iteration }) = err
                else {
                    panic!("{ctx}: expected a stream underrun, got {err}");
                };
                // Kernel inputs are [n_pos, flags, centres].
                assert_eq!(stream, 2, "{ctx}");
                assert_eq!(*blamed.get_or_insert(iteration), iteration, "{ctx}");
            }
        }
        // Both check sites are exercised at both widths.
        let blamed = blamed.expect("ran");
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
