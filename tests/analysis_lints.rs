//! Fixtures and properties for the `merrimac_analysis` lint pipeline.
//!
//! * One minimal fixture per lint, each triggering its lint exactly
//!   once (and nothing else).
//! * The seeded SDR-pressure fixture reproduces the paper's Section 5
//!   allocation flaw: the analysis predicts an overlap loss, and the
//!   simulator confirms it (naive policy stalls on SDRs, eager does
//!   not).
//! * Every lint documents itself: non-empty summary and `--explain`
//!   text, and a code that round-trips through `Lint::from_code`.
//! * Property: on any program the simulator actually runs, the
//!   analysis never reports an Error — errors are reserved for
//!   programs the machine would reject.
//! * STREAM_UNDERRUN against the engines: on generated chains it names
//!   the launch and iteration where the run fails, and it never fires
//!   behind a conditional write that could fill the consumer.
//! * An admission mutation table over the 216-molecule `expanded` and
//!   `variable` programs: corrupt the built program, then check the
//!   analysis, the admission gate and the run.

use std::sync::Arc;

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use merrimac_analysis::{
    analyze_kernel, analyze_program, Lint, ProgramContext, Severity, ALL_LINTS,
};
use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::interp::InterpError;
use merrimac_kernel::ir::StreamMode;
use merrimac_kernel::{Kernel, KernelBuilder};
use merrimac_sim::program::{BufferDecl, LabelledOp};
use merrimac_sim::{
    AccessIntent, BufferId, CompiledKernel, KernelOpt, Memory, ProgramBuilder, SdrPolicy, SimError,
    StreamOp, StreamProcessor, StreamProgram,
};
use proptest::prelude::*;
use streammd::{StepProgram, StreamMdApp, Variant};

fn compile(kernel: Kernel, cfg: &MachineConfig) -> Arc<CompiledKernel> {
    Arc::new(CompiledKernel::compile(
        kernel,
        cfg,
        &OpCosts::default(),
        KernelOpt::default(),
    ))
}

fn square_kernel(cfg: &MachineConfig) -> Arc<CompiledKernel> {
    let mut b = KernelBuilder::new("square");
    let s = b.input("x", 1, StreamMode::EveryIteration);
    let o = b.output("y", 1);
    let x = b.read(s, 0);
    let y = b.mul(x, x);
    b.write(o, &[y]);
    compile(b.build(), cfg)
}

fn count(diags: &[merrimac_analysis::Diagnostic], lint: Lint) -> usize {
    diags.iter().filter(|d| d.lint == lint).count()
}

/// Assert the fixture fired `lint` exactly once and nothing else.
fn assert_only(diags: &[merrimac_analysis::Diagnostic], lint: Lint) {
    assert_eq!(
        count(diags, lint),
        1,
        "{} must fire exactly once, got: {diags:#?}",
        lint.code()
    );
    assert_eq!(
        diags.len(),
        1,
        "fixture for {} must trigger nothing else, got: {diags:#?}",
        lint.code()
    );
}

/// The Section 5 fixture: 2 SDRs, 6 software-pipelined strips that
/// each gather *two* input streams. Under the naive retirement policy
/// both descriptors stay parked while the strip's kernel runs, so no
/// descriptor is ever free to prefetch the next strip — exactly the
/// allocation flaw behind Figure 7's 'original' bar.
fn sdr_fixture(cfg: &MachineConfig) -> (Memory, StreamProgram) {
    let k = {
        let mut b = KernelBuilder::new("mul2");
        let s1 = b.input("x", 1, StreamMode::EveryIteration);
        let s2 = b.input("y", 1, StreamMode::EveryIteration);
        let o = b.output("z", 1);
        let x = b.read(s1, 0);
        let y = b.read(s2, 0);
        let z = b.mul(x, y);
        b.write(o, &[z]);
        compile(b.build(), cfg)
    };
    let n = 1024usize;
    let strips = 6;
    let mut mem = Memory::new();
    let xs = mem.region("xs", (0..strips * n).map(|i| 1.0 + i as f64).collect());
    let out = mem.region("out", vec![0.0; strips * n]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::ReadOnly)
        .intent(out, AccessIntent::WriteOwned);
    for strip in 0..strips {
        pb.strip(strip);
        let bx = pb.buffer(&format!("x{strip}"), 1);
        let bx2 = pb.buffer(&format!("x2_{strip}"), 1);
        let by = pb.buffer(&format!("y{strip}"), 1);
        let idx: Vec<u32> = (0..n as u32)
            .map(|i| i + (strip as u32) * n as u32)
            .collect();
        pb.gather(format!("gather {strip}"), xs, 1, Arc::new(idx.clone()), bx);
        pb.gather(format!("gather2 {strip}"), xs, 1, Arc::new(idx), bx2);
        pb.kernel(
            format!("kernel {strip}"),
            k.clone(),
            vec![bx, bx2],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.store(format!("store {strip}"), by, out, 1, strip * n);
    }
    (mem, pb.build())
}

#[test]
fn sdr_pressure_fixture_predicts_loss_and_simulator_confirms() {
    let cfg = MachineConfig {
        stream_descriptor_registers: 2,
        ..MachineConfig::default()
    };
    let (mem, program) = sdr_fixture(&cfg);

    // Analysis: the naive policy over-subscribes the 2 SDRs.
    let diags = analyze_program(&ProgramContext {
        cfg: &cfg,
        policy: SdrPolicy::Naive,
        strip_lookahead: 1,
        program: &program,
        memory: &mem,
    });
    assert_only(&diags, Lint::SdrPressure);
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Warn);
    assert!(
        d.message.contains("predicted overlap loss"),
        "must quantify the Figure 7 loss: {}",
        d.message
    );

    // The eager policy releases descriptors at completion: silent.
    let eager_diags = analyze_program(&ProgramContext {
        cfg: &cfg,
        policy: SdrPolicy::Eager,
        strip_lookahead: 1,
        program: &program,
        memory: &mem,
    });
    assert!(
        eager_diags.is_empty(),
        "eager policy must be clean: {eager_diags:#?}"
    );

    // Simulator confirmation: the predicted stall is real.
    let (mut m1, p1) = sdr_fixture(&cfg);
    let naive = StreamProcessor::new(cfg.clone())
        .with_policy(SdrPolicy::Naive)
        .run(&mut m1, &p1)
        .expect("naive runs");
    let (mut m2, p2) = sdr_fixture(&cfg);
    let eager = StreamProcessor::new(cfg)
        .with_policy(SdrPolicy::Eager)
        .run(&mut m2, &p2)
        .expect("eager runs");
    assert!(
        naive.sdr_stall_cycles > 0,
        "naive policy must stall the memory unit on SDRs"
    );
    assert!(
        eager.cycles < naive.cycles,
        "eager ({}) must beat naive ({}) when the analysis flags pressure",
        eager.cycles,
        naive.cycles
    );
}

#[test]
fn strip_ordering_fixture_fires_once() {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let n = 64;
    let mut mem = Memory::new();
    let xs = mem.region("xs", vec![3.0; 2 * n]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::WriteOwned);
    // Strip 1 re-reads the range strip 0 stored: a real ordering hazard.
    for strip in 0..2 {
        pb.strip(strip);
        let bx = pb.buffer(&format!("x{strip}"), 1);
        let by = pb.buffer(&format!("y{strip}"), 1);
        pb.load(format!("load {strip}"), xs, 1, 0, n, bx);
        pb.kernel(
            format!("kernel {strip}"),
            k.clone(),
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.store(format!("store {strip}"), by, xs, 1, strip * n);
    }
    let program = pb.build();
    let diags = analyze_program(&ProgramContext {
        cfg: &cfg,
        policy: SdrPolicy::Eager,
        strip_lookahead: 1,
        program: &program,
        memory: &mem,
    });
    assert_only(&diags, Lint::StripOrdering);
    assert_eq!(diags[0].severity, Severity::Warn);
}

#[test]
fn srf_capacity_fixture_fires_once_as_error() {
    // Shrink the SRF so a modest kernel working set cannot
    // double-buffer: 1024-record input + output shares (64 + 64 words
    // per cluster) against a 64-word SRF.
    let cfg = MachineConfig {
        srf_words_per_cluster: 64,
        ..MachineConfig::default()
    };
    let k = square_kernel(&cfg);
    let n = 1024usize;
    let mut mem = Memory::new();
    let xs = mem.region("xs", (0..n).map(|i| i as f64).collect());
    let out = mem.region("out", vec![0.0; n]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::ReadOnly)
        .intent(out, AccessIntent::WriteOwned);
    pb.strip(0);
    let bx = pb.buffer("x", 1);
    let by = pb.buffer("y", 1);
    pb.load("load", xs, 1, 0, n, bx);
    pb.kernel(
        "kernel",
        k,
        vec![bx],
        vec![by],
        vec![],
        n as u64,
        (n as u64).div_ceil(16),
    );
    pb.store("store", by, out, 1, 0);
    let program = pb.build();
    let diags = analyze_program(&ProgramContext {
        cfg: &cfg,
        policy: SdrPolicy::Eager,
        strip_lookahead: 1,
        program: &program,
        memory: &mem,
    });
    assert_only(&diags, Lint::SrfCapacity);
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("words over") || d.message.contains("SRF"),
        "must report the overflow size: {}",
        d.message
    );

    // The error is not a false positive: the simulator rejects the
    // same program.
    let proc = StreamProcessor::new(MachineConfig {
        srf_words_per_cluster: 64,
        ..MachineConfig::default()
    });
    assert!(proc.run(&mut mem, &program).is_err());
}

#[test]
fn uninit_reg_read_fixture_fires_once() {
    let mut b = KernelBuilder::new("frozen_reg");
    let s = b.input("x", 1, StreamMode::EveryIteration);
    let o = b.output("y", 1);
    let r = b.reg(2.5);
    let x = b.read(s, 0);
    let rr = b.read_reg(r);
    let y = b.add(x, rr);
    b.write(o, &[y]);
    let diags = analyze_kernel(&b.build());
    assert_only(&diags, Lint::UninitRegRead);
    assert!(diags[0].message.contains("never updated"));
}

#[test]
fn dead_value_fixture_fires_once() {
    let mut b = KernelBuilder::new("dead_mul");
    let s = b.input("x", 1, StreamMode::EveryIteration);
    let o = b.output("y", 1);
    let x = b.read(s, 0);
    let _dead = b.mul(x, x);
    b.write(o, &[x]);
    let diags = analyze_kernel(&b.build());
    assert_only(&diags, Lint::DeadValue);
}

#[test]
fn stream_imbalance_fixture_fires_once() {
    let mut b = KernelBuilder::new("half_record");
    let s = b.input("xy", 2, StreamMode::EveryIteration);
    let o = b.output("z", 1);
    let x = b.read(s, 0); // field 1 never read
    let z = b.mul(x, x);
    b.write(o, &[z]);
    let diags = analyze_kernel(&b.build());
    assert_only(&diags, Lint::StreamImbalance);
    assert!(diags[0].message.contains("1 of 2"));
}

#[test]
fn unused_output_fixture_fires_once() {
    let mut b = KernelBuilder::new("spare_output");
    let s = b.input("x", 1, StreamMode::EveryIteration);
    let o = b.output("y", 1);
    let _unused = b.output("spare", 1);
    let x = b.read(s, 0);
    let y = b.mul(x, x);
    b.write(o, &[y]);
    let diags = analyze_kernel(&b.build());
    assert_only(&diags, Lint::UnusedOutput);
    assert!(diags[0].location.contains("spare"));
}

/// Shared harness for the program-level verifier fixtures: one strip,
/// load n records -> square kernel over `iterations` -> store. The
/// closure customizes intents/compiled kernel before the program is
/// analyzed.
fn verifier_program(
    _cfg: &MachineConfig,
    n: usize,
    iterations: u64,
    kernel: Arc<CompiledKernel>,
    declare: impl FnOnce(&mut ProgramBuilder, merrimac_sim::RegionId, merrimac_sim::RegionId),
) -> (Memory, StreamProgram) {
    let mut mem = Memory::new();
    let xs = mem.region("xs", (0..n).map(|i| 1.0 + i as f64).collect());
    let out = mem.region("out", vec![0.0; n]);
    let mut pb = ProgramBuilder::new();
    declare(&mut pb, xs, out);
    pb.strip(0);
    let bx = pb.buffer("x", 1);
    let by = pb.buffer("y", 1);
    pb.load("load", xs, 1, 0, n, bx);
    pb.kernel(
        "kernel",
        kernel,
        vec![bx],
        vec![by],
        vec![],
        iterations,
        iterations.div_ceil(16),
    );
    pb.store("store", by, out, 1, 0);
    (mem, pb.build())
}

fn analyze_fixture(
    cfg: &MachineConfig,
    mem: &Memory,
    program: &StreamProgram,
) -> Vec<merrimac_analysis::Diagnostic> {
    analyze_program(&ProgramContext {
        cfg,
        policy: SdrPolicy::Eager,
        strip_lookahead: 1,
        program,
        memory: mem,
    })
}

#[test]
fn intent_mismatch_fixture_fires_once_as_error() {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let n = 64usize;
    // `out` is stored to but declared ReadOnly: the static mirror of
    // validate_program's dynamic intent rejection.
    let (mut mem, program) = verifier_program(&cfg, n, n as u64, k, |pb, xs, out| {
        pb.intent(xs, AccessIntent::ReadOnly)
            .intent(out, AccessIntent::ReadOnly);
    });
    let diags = analyze_fixture(&cfg, &mem, &program);
    assert_only(&diags, Lint::IntentMismatch);
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("read-only") && d.message.contains("write"),
        "must name the declared intent and the offending kind: {}",
        d.message
    );
    // Not a false positive: the simulator rejects the same program.
    let proc = StreamProcessor::new(cfg);
    assert!(proc.run(&mut mem, &program).is_err());
}

#[test]
fn intent_undeclared_fixture_fires_once_as_warning() {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let n = 64usize;
    // `out` carries no declaration at all.
    let (mut mem, program) = verifier_program(&cfg, n, n as u64, k, |pb, xs, _out| {
        pb.intent(xs, AccessIntent::ReadOnly);
    });
    let diags = analyze_fixture(&cfg, &mem, &program);
    assert_only(&diags, Lint::IntentUndeclared);
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Warn);
    assert!(
        d.message.contains("out"),
        "must name the undeclared region: {}",
        d.message
    );
    // Only a warning: the simulator still runs the program.
    let proc = StreamProcessor::new(cfg);
    assert!(proc.run(&mut mem, &program).is_ok());
}

#[test]
fn stream_underrun_fixture_fires_once_as_error() {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    // 32 staged records, 64 iterations: a certain underrun the pass
    // must pinpoint at iteration 32.
    let (mut mem, program) = verifier_program(&cfg, 32, 64, k, |pb, xs, out| {
        pb.intent(xs, AccessIntent::ReadOnly)
            .intent(out, AccessIntent::WriteOwned);
    });
    let diags = analyze_fixture(&cfg, &mem, &program);
    assert_only(&diags, Lint::StreamUnderrun);
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.notes.iter().any(|n| n.contains("iteration 32")),
        "must pinpoint the first offending iteration: {:#?}",
        d.notes
    );
    // The engines blame exactly the iteration the pass predicted.
    let proc = StreamProcessor::new(cfg);
    let err = proc.run(&mut mem, &program).expect_err("must underrun");
    assert!(
        err.to_string().contains("32"),
        "simulator must blame iteration 32: {err}"
    );
}

/// `x * x` over one every-iteration input, unrolled `unroll` times; with
/// a `threshold` the write is conditional on `x < threshold`.
fn square_unrolled(
    cfg: &MachineConfig,
    unroll: u32,
    threshold: Option<f64>,
) -> Arc<CompiledKernel> {
    let mut b = KernelBuilder::new("square");
    let s = b.input("x", 1, StreamMode::EveryIteration);
    let o = b.output("y", 1);
    let x = b.read(s, 0);
    let y = b.mul(x, x);
    match threshold {
        Some(t) => {
            let t = b.constant(t);
            let keep = b.cmp_lt(x, t);
            b.write_if(o, keep, &[y]);
        }
        None => b.write(o, &[y]),
    }
    let opt = KernelOpt {
        unroll,
        ..KernelOpt::default()
    };
    Arc::new(CompiledKernel::compile(
        b.build(),
        cfg,
        &OpCosts::default(),
        opt,
    ))
}

/// One strip: load the first `n` of the records 1, 2, …, 40, square
/// them in a `first` launch and, given a `second`, square that launch's
/// output again as an every-iteration stream; a launch is
/// `(iterations, unroll)`, and `threshold` makes the first one's write
/// conditional. The last output is stored.
fn underrun_chain(
    cfg: &MachineConfig,
    n: usize,
    first: (u64, u32),
    second: Option<(u64, u32)>,
    threshold: Option<f64>,
) -> (Memory, StreamProgram) {
    let mut mem = Memory::new();
    let xs = mem.region("xs", (1..=40).map(f64::from).collect());
    let out = mem.region("out", vec![0.0; 40]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::ReadOnly)
        .intent(out, AccessIntent::WriteOwned);
    pb.strip(0);
    let mut src = pb.buffer("x", 1);
    pb.load("load", xs, 1, 0, n, src);
    let launches = [Some((first, threshold)), second.map(|s| (s, None))];
    for (i, ((iterations, unroll), threshold)) in launches.into_iter().flatten().enumerate() {
        let dst = pb.buffer(&format!("y{i}"), 1);
        pb.kernel(
            format!("kernel {i}"),
            square_unrolled(cfg, unroll, threshold),
            vec![src],
            vec![dst],
            vec![],
            iterations,
            iterations.div_ceil(16),
        );
        src = dst;
    }
    pb.store("store", src, out, 1, 0);
    (mem, pb.build())
}

/// Run the first `ops` ops of `program` on a copy of `mem`.
fn run_prefix(
    cfg: &MachineConfig,
    mem: &Memory,
    program: &StreamProgram,
    ops: usize,
) -> Result<(), SimError> {
    let mut prefix = program.clone();
    prefix.ops.truncate(ops);
    StreamProcessor::new(cfg.clone())
        .run(&mut mem.clone(), &prefix)
        .map(|_| ())
}

/// The engines' `StreamUnderrun` as the pass words it in its first note.
fn blamed(run: &Result<(), SimError>) -> Option<String> {
    match run {
        Err(SimError::Interp(InterpError::StreamUnderrun { stream, iteration })) => Some(format!(
            "StreamUnderrun {{ stream: {stream}, iteration: {iteration} }}"
        )),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pass against the engines on a one- or two-launch chain: the
    /// first STREAM_UNDERRUN in op order names the launch, and the
    /// iteration, where `StreamProcessor::run` fails with
    /// `StreamUnderrun`; no diagnostic means the run succeeds. Counts
    /// are drawn so every reshape an unroll needs is whole (a word
    /// count the unroll does not divide is a different rejection).
    #[test]
    fn prop_stream_underrun_is_where_the_engines_fail(
        n in 0usize..41,
        first in (1u64..21, 1u32..3),
        second in (0u64..21, 1u32..3),
    ) {
        let cfg = MachineConfig::default();
        let ((m1, u1), (m2, u2)) = (first, second);
        let n = n - n % u1 as usize;
        let first = (m1 * u64::from(u1.max(u2)), u1);
        let second = (m2 > 0).then_some((m2 * u64::from(u2), u2));
        let (mem, program) = underrun_chain(&cfg, n, first, second, None);
        let case = format!("n={n} first={first:?} second={second:?}");
        let diags = analyze_fixture(&cfg, &mem, &program);
        let run = run_prefix(&cfg, &mem, &program, program.ops.len());
        let Some(d) = diags.iter().find(|d| d.lint == Lint::StreamUnderrun) else {
            prop_assert!(run.is_ok(), "{case}: no diagnostic, but the run failed: {run:?}");
            return Ok(());
        };
        let launch = program
            .ops
            .iter()
            .position(|lop| d.location == format!("op '{}' (strip 0)", lop.label))
            .expect("the diagnostic names a launch");
        let before = run_prefix(&cfg, &mem, &program, launch);
        prop_assert!(before.is_ok(), "{case}: the ops before {} fail: {before:?}", d.location);
        let blamed = blamed(&run);
        prop_assert!(
            blamed.as_ref().is_some_and(|b| d.notes[0].contains(b)),
            "{case}: the pass predicts {:?}, the run gives {run:?}",
            d.notes[0]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No false positives: behind a conditional write, how many records
    /// the consumer finds is data-dependent. When the write could fill
    /// the consumer, the pass stays silent, whether or not the data
    /// leaves it short (that is the engines' typed `StreamUnderrun`).
    #[test]
    fn prop_a_conditional_write_never_draws_stream_underrun(
        m1 in 1u64..21,
        m2 in 1u64..21,
        unrolls in (1u32..3, 1u32..3),
        threshold in 0.0f64..45.0,
    ) {
        let cfg = MachineConfig::default();
        let (u1, u2) = unrolls;
        let k1 = m1 * u64::from(u1.max(u2));
        let k2 = (m2 * u64::from(u2)).min(k1);
        let (mem, program) = underrun_chain(&cfg, 40, (k1, u1), Some((k2, u2)), Some(threshold));
        let diags = analyze_fixture(&cfg, &mem, &program);
        prop_assert!(
            diags.iter().all(|d| d.lint != Lint::StreamUnderrun),
            "k1={k1} x{u1} k2={k2} x{u2} threshold={threshold}: {diags:#?}"
        );
    }
}

#[test]
fn malformed_programs_analyze_without_panicking() {
    let cfg = MachineConfig::default();
    let intents = |pb: &mut ProgramBuilder, xs, out| {
        pb.intent(xs, AccessIntent::ReadOnly)
            .intent(out, AccessIntent::WriteOwned);
    };
    let underrun_fixture = || verifier_program(&cfg, 32, 64, square_kernel(&cfg), intents);

    // A launch listing one more input buffer than its kernel declares:
    // the declared input is still judged, the extra one is not.
    let (mem, mut program) = underrun_fixture();
    let StreamOp::Kernel { inputs, .. } = &mut program.ops[1].op else {
        unreachable!("op 1 is the launch")
    };
    inputs.push(inputs[0]);
    let diags = analyze_fixture(&cfg, &mem, &program);
    assert_eq!(count(&diags, Lint::StreamUnderrun), 1, "{diags:#?}");

    // A store from a buffer id past `program.buffers`.
    let (mem, mut program) = underrun_fixture();
    let ghost = BufferId(program.buffers.len());
    let StreamOp::Store { src, .. } = &mut program.ops[2].op else {
        unreachable!("op 2 is the store")
    };
    *src = ghost;
    assert_eq!(
        count(&analyze_fixture(&cfg, &mem, &program), Lint::StreamUnderrun),
        1
    );

    // That id loaded, popped and written: a buffer the program never
    // declared is skipped, not indexed, by the underrun pass and the SRF
    // floor, and the run rejects the program as malformed.
    let (mut mem, mut program) = underrun_fixture();
    for lop in &mut program.ops {
        match &mut lop.op {
            StreamOp::Load { dst, .. } => *dst = ghost,
            StreamOp::Kernel {
                inputs, outputs, ..
            } => {
                inputs[0] = ghost;
                outputs[0] = ghost;
            }
            _ => {}
        }
    }
    let ctx = ProgramContext {
        cfg: &cfg,
        policy: SdrPolicy::Eager,
        strip_lookahead: 1,
        program: &program,
        memory: &mem,
    };
    assert!(merrimac_analysis::underrun::check(&ctx).is_empty());
    let diags = analyze_fixture(&cfg, &mem, &program);
    assert_eq!(count(&diags, Lint::StreamUnderrun), 0, "{diags:#?}");
    assert_eq!(count(&diags, Lint::SrfCapacity), 0, "{diags:#?}");
    let run = StreamProcessor::new(cfg).run(&mut mem, &program);
    assert!(
        matches!(&run, Err(SimError::Program(why)) if why.contains("names buffer")),
        "{run:?}"
    );
}

#[test]
fn batch_plan_split_fixture_fires_once_as_error() {
    let cfg = MachineConfig::default();
    let n = 64usize;
    // Adversarial fixture: hand-corrupt the compiled kernel's cached
    // batch plan, then analyze a program that launches it.
    let k = {
        let mut b = KernelBuilder::new("square_corrupt");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let y = b.mul(x, x);
        b.write(o, &[y]);
        let mut ck =
            CompiledKernel::compile(b.build(), &cfg, &OpCosts::default(), KernelOpt::default());
        ck.tape.corrupt_batch_plan_for_tests();
        Arc::new(ck)
    };
    let (mem, program) = verifier_program(&cfg, n, n as u64, k, |pb, xs, out| {
        pb.intent(xs, AccessIntent::ReadOnly)
            .intent(out, AccessIntent::WriteOwned);
    });
    let diags = analyze_fixture(&cfg, &mem, &program);
    assert_only(&diags, Lint::BatchPlanSplit);
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.notes.iter().any(|n| n.contains("no phase")),
        "must name the violated invariant: {:#?}",
        d.notes
    );
    // The batched tape is the only kernel engine on the run path, so the
    // help must not send users to another.
    let help = d.help.as_deref().expect("a help line");
    assert!(!help.contains("engine"), "help names an engine: {help}");
}

/// Mislabel the force reduction region `ReadOnly`.
fn forces_read_only(step: &mut StepProgram) {
    step.program
        .intents
        .insert(step.forces.0, AccessIntent::ReadOnly);
}

/// Add a gather from the force reduction region to strip 0.
fn gather_forces_in_strip_0(step: &mut StepProgram) {
    let width = step.layout.width;
    let dst = BufferId(step.program.buffers.len());
    step.program.buffers.push(BufferDecl {
        name: "probe.0".into(),
        record_len: width,
    });
    let gather = StreamOp::Gather {
        region: step.forces,
        record_len: width,
        indices: vec![0u32].into(),
        dst,
    };
    step.program.ops.insert(
        0,
        LabelledOp {
            op: gather,
            label: "gather probe 0".into(),
            strip: 0,
        },
    );
}

fn clear_intents(step: &mut StepProgram) {
    step.program.intents.clear();
}

/// Drop the last index of strip 0's neighbour-position gather.
fn shorten_n_pos_gather(step: &mut StepProgram) {
    let lop = step
        .program
        .ops
        .iter_mut()
        .find(|lop| lop.label == "gather n_pos 0")
        .expect("strip 0 gathers n_pos");
    let StreamOp::Gather { indices, .. } = &mut lop.op else {
        unreachable!("a gather")
    };
    *indices = indices[..indices.len() - 1].to_vec().into();
}

#[test]
fn admission_mutation_table_on_the_216_molecule_programs() {
    // Corrupt a real shipped step program after building it, then check
    // the Error codes `analyze_built` reports, whether `admit_built` (the
    // analyze() gate) admits it, and how the ungated run ends.
    let system = WaterBox::builder().molecules(216).seed(7).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    let app = StreamMdApp::builder()
        .neighbor(params)
        .analyze()
        .build()
        .expect("valid configuration");
    type Row = (
        &'static str,
        fn(&mut StepProgram),
        &'static [&'static str],
        bool,
        &'static str,
    );
    let rows: [Row; 5] = [
        ("no mutation", |_| {}, &[], true, "parallel"),
        (
            "forces ReadOnly",
            forces_read_only,
            &["INTENT_MISMATCH"],
            false,
            "malformed program",
        ),
        (
            "gather from forces",
            gather_forces_in_strip_0,
            &["INTENT_MISMATCH"],
            false,
            "malformed program",
        ),
        // Undeclared regions are only warned about; the partitioner
        // infers read-shared positions and a scatter-add-only force
        // region from the footprint, which is safe to run in parallel.
        ("intents cleared", clear_intents, &[], true, "parallel"),
        (
            "n_pos one short",
            shorten_n_pos_gather,
            &["STREAM_UNDERRUN"],
            false,
            "kernel execution failed",
        ),
    ];
    for variant in [Variant::Expanded, Variant::Variable] {
        for (name, mutate, errors, admitted, run) in rows {
            let mut step = app.build_step_program(&system, &list, variant);
            mutate(&mut step);
            let diags = app.analyze_built(&step);
            let got: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.lint.code())
                .collect();
            assert_eq!(got, errors, "{variant} / {name}: {diags:#?}");
            assert_eq!(
                app.admit_built(&step).is_ok(),
                admitted,
                "{variant} / {name}"
            );
            let outcome = app.run_step_program(&system, &step);
            let described = match &outcome {
                Ok(o) if o.report.partition.parallelized => "parallel".to_string(),
                Ok(o) => format!("serial: {:?}", o.report.partition.fallback),
                Err(e) => e.to_string(),
            };
            assert!(
                described.starts_with(run),
                "{variant} / {name}: {described}"
            );
            // A certain underrun fails in the engines where the pass said.
            if let Some(d) = diags.iter().find(|d| d.lint == Lint::StreamUnderrun) {
                let outcome = outcome.map(|_| ());
                let blamed = blamed(&outcome).expect("a StreamUnderrun");
                assert!(
                    d.notes[0].contains(&blamed),
                    "{variant}: {blamed} vs {d:#?}"
                );
            }
        }
    }
}

#[test]
fn every_lint_documents_itself() {
    for lint in ALL_LINTS {
        assert!(!lint.code().is_empty());
        assert!(
            !lint.summary().trim().is_empty(),
            "{} has no summary",
            lint.code()
        );
        assert!(
            lint.explain().trim().len() > 80,
            "{} has no real --explain text",
            lint.code()
        );
        assert_eq!(Lint::from_code(lint.code()), Some(lint));
        assert_eq!(
            Lint::from_code(&lint.code().to_lowercase()),
            Some(lint),
            "codes must match case-insensitively"
        );
    }
    assert_eq!(Lint::from_code("NOT_A_LINT"), None);
}

#[test]
fn analyze_hook_passes_clean_programs_through() {
    // `SimConfigBuilder::analyze()` arms a pre-run gate on
    // Error-severity diagnostics; a clean shipped variant must run
    // unchanged with the gate armed.
    let system = WaterBox::builder().molecules(27).seed(7).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    let gated = StreamMdApp::builder()
        .neighbor(params)
        .analyze()
        .build()
        .expect("valid configuration");
    let plain = StreamMdApp::builder()
        .neighbor(params)
        .build()
        .expect("valid configuration");
    for v in Variant::ALL {
        let a = gated
            .run_step_with_list(&system, &list, v)
            .unwrap_or_else(|e| panic!("{v} must pass the analyze gate: {e}"));
        let b = plain.run_step_with_list(&system, &list, v).unwrap();
        assert_eq!(a.forces, b.forces, "{v}: gate must not perturb results");
        assert_eq!(
            a.perf.cycles, b.perf.cycles,
            "{v}: gate must not perturb timing"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Errors are reserved for programs the machine rejects: any
    /// StreamMD step program the simulator runs serially must analyze
    /// with zero Error diagnostics.
    #[test]
    fn prop_no_errors_on_runnable_programs(
        molecules in prop::sample::select(vec![27usize, 48, 64]),
        seed in 0u64..10_000,
    ) {
        let system = WaterBox::builder().molecules(molecules).seed(seed).build();
        let params = NeighborListParams {
            cutoff: (0.45 * system.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 10,
        };
        let list = NeighborList::build(&system, params);
        let app = StreamMdApp::builder()
            .neighbor(params)
            .build()
            .expect("valid configuration");
        for v in Variant::ALL {
            app.run_step_with_list(&system, &list, v)
                .unwrap_or_else(|e| panic!("{v} must run serially: {e}"));
            let diags = app.analyze_built(&app.build_step_program(&system, &list, v));
            let errors: Vec<_> = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            prop_assert!(
                errors.is_empty(),
                "{v} molecules={molecules} seed={seed}: runnable program \
                 reported errors: {errors:#?}"
            );
        }
    }
}
