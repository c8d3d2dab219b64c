//! Integration tests for the region access-intent contract: programs
//! whose declared intents admit them to the parallel engine must be
//! bitwise-identical at every thread count (data, cycles, counters and
//! cache statistics alike), programs with genuine write-write conflicts
//! must fall back to the serial scoreboard with a typed reason, and ops
//! that violate a declared intent must be rejected up front.

use std::sync::Arc;
/// `proc` on `threads` host threads.
fn on(proc: &StreamProcessor, threads: usize) -> StreamProcessor {
    let host = HostExec { threads };
    proc.clone().with_host(host)
}

use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::ir::StreamMode;
use merrimac_kernel::KernelBuilder;
use merrimac_sim::machine::SimError;
use merrimac_sim::{
    partition_program, AccessIntent, CompiledKernel, FallbackKind, FallbackReason, HostExec,
    KernelOpt, Memory, ProgramBuilder, RegionId, StreamProcessor, StreamProgram,
};
use proptest::prelude::*;

fn square_kernel(cfg: &MachineConfig) -> Arc<CompiledKernel> {
    let mut b = KernelBuilder::new("square");
    let s = b.input("x", 1, StreamMode::EveryIteration);
    let o = b.output("y", 1);
    let x = b.read(s, 0);
    let y = b.mul(x, x);
    b.write(o, &[y]);
    Arc::new(CompiledKernel::compile(
        b.build(),
        cfg,
        &OpCosts::default(),
        KernelOpt::default(),
    ))
}

/// A read-shared gather→kernel→scatter-add program: every strip gathers
/// an arbitrary slice of the shared `xs` region (slices overlap freely —
/// the region is declared read-only) and accumulates squared values into
/// the shared `acc` region.
fn read_shared_program(strips: usize, n: usize, salt: u64) -> (Memory, StreamProgram) {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let mut mem = Memory::new();
    let words = strips * n;
    let xs = mem.region(
        "xs",
        (0..words)
            .map(|i| ((i as u64 + salt) as f64).sin())
            .collect(),
    );
    let acc = mem.region("acc", vec![0.0; n]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::ReadOnly)
        .intent(acc, AccessIntent::ReduceAdd);
    for strip in 0..strips {
        pb.strip(strip);
        let bx = pb.buffer(&format!("x{strip}"), 1);
        let by = pb.buffer(&format!("y{strip}"), 1);
        // Overlapping reads: each strip starts at a salt-dependent
        // offset, so most words are read by several strips.
        let base = ((salt as usize).wrapping_mul(strip + 1)) % words;
        let idx: Vec<u32> = (0..n).map(|i| ((base + i) % words) as u32).collect();
        pb.gather(format!("gather {strip}"), xs, 1, Arc::new(idx), bx);
        pb.kernel(
            format!("kernel {strip}"),
            k.clone(),
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        let tgt: Vec<u32> = (0..n as u32).collect();
        pb.scatter_add(format!("scatter {strip}"), by, acc, 1, Arc::new(tgt));
    }
    (mem, pb.build())
}

fn run_case(strips: usize, n: usize, salt: u64) {
    let mut baseline = None;
    for threads in [1usize, 2, 8] {
        let (mut mem, program) = read_shared_program(strips, n, salt);
        let proc = StreamProcessor::new(MachineConfig::default());
        let report = on(&proc, threads)
            .run(&mut mem, &program)
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        assert!(
            report.partition.parallelized,
            "read-shared program must partition (strips={strips} salt={salt})"
        );
        assert_eq!(report.partition.strips as usize, strips);
        let acc = mem.data(RegionId(1)).to_vec();
        match &baseline {
            None => baseline = Some((acc, report)),
            Some((base_acc, base)) => {
                // Bitwise equality: f64 Vec equality is exact.
                assert_eq!(base_acc, &acc, "threads={threads}: data diverged");
                assert_eq!(base.cycles, report.cycles, "threads={threads}: cycles");
                assert_eq!(
                    base.counters, report.counters,
                    "threads={threads}: counters"
                );
                assert_eq!(
                    base.cache_stats, report.cache_stats,
                    "threads={threads}: cache stats"
                );
                assert_eq!(
                    base.sdr_stall_cycles, report.sdr_stall_cycles,
                    "threads={threads}: stalls"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any read-shared program is admitted to the parallel engine and is
    /// bitwise-identical — data, cycles, counters, cache statistics — at
    /// 1, 2 and 8 worker threads.
    #[test]
    fn prop_read_shared_is_bitwise_identical_across_threads(
        strips in prop::sample::select(vec![2usize, 3, 5, 8]),
        n in prop::sample::select(vec![33usize, 129, 257]),
        salt in 0u64..100_000,
    ) {
        run_case(strips, n, salt);
    }
}

/// Two strips storing overlapping ranges of the same region — a true
/// write-write conflict — must fall back to the serial scoreboard and
/// name the overlap, not race or silently serialize.
#[test]
fn write_write_conflict_falls_back_with_typed_reason() {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let mut mem = Memory::new();
    let n = 64usize;
    let xs = mem.region("xs", (0..2 * n).map(|i| i as f64 * 0.25).collect());
    let out = mem.region("out", vec![0.0; n + n / 2]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::ReadOnly)
        .intent(out, AccessIntent::WriteOwned);
    for strip in 0..2usize {
        pb.strip(strip);
        let bx = pb.buffer(&format!("x{strip}"), 1);
        let by = pb.buffer(&format!("y{strip}"), 1);
        pb.load(format!("load {strip}"), xs, 1, strip * n, n, bx);
        pb.kernel(
            format!("kernel {strip}"),
            k.clone(),
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        // Strip 1 starts halfway into strip 0's output: overlap.
        pb.store(format!("store {strip}"), by, out, 1, strip * (n / 2));
    }
    let program = pb.build();

    let part = partition_program(&program);
    assert!(!part.is_parallel());
    match part.fallback {
        Some(FallbackReason::WriteWriteOverlap { region, strips }) => {
            assert_eq!(region, out);
            assert_eq!(strips, (0, 1));
        }
        other => panic!("expected WriteWriteOverlap, got {other:?}"),
    }
    assert_eq!(
        part.summary().fallback,
        Some(FallbackKind::WriteWriteOverlap)
    );

    // The serial fallback still executes the program exactly: the later
    // store (op order) wins in the overlap window.
    let proc = StreamProcessor::new(MachineConfig::default());
    let report = on(&proc, 8).run(&mut mem, &program).expect("runs");
    assert!(!report.partition.parallelized);
    assert_eq!(
        report.partition.fallback,
        Some(FallbackKind::WriteWriteOverlap)
    );
    let data = mem.data(out).to_vec();
    for (i, v) in data.iter().enumerate().take(n / 2) {
        let x = i as f64 * 0.25;
        assert_eq!(*v, x * x, "word {i} before the overlap");
    }
    for (i, v) in data.iter().enumerate().skip(n / 2) {
        let x = (n + (i - n / 2)) as f64 * 0.25;
        assert_eq!(*v, x * x, "word {i} in/after the overlap");
    }
}

/// An op that violates a declared intent (a store to a read-only region)
/// is a program error caught by validation, not a partitioner fallback.
#[test]
fn intent_violation_is_a_program_error() {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let mut mem = Memory::new();
    let xs = mem.region("xs", (0..32).map(|i| i as f64).collect());
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::ReadOnly);
    let bx = pb.buffer("x", 1);
    let by = pb.buffer("y", 1);
    pb.load("load", xs, 1, 0, 32, bx);
    pb.kernel("kernel", k, vec![bx], vec![by], vec![], 32, 2);
    pb.store("store back", by, xs, 1, 0);
    let program = pb.build();
    let proc = StreamProcessor::new(MachineConfig::default());
    let err = on(&proc, 2)
        .run(&mut mem, &program)
        .expect_err("a write to a read-only region must be rejected");
    match &err {
        SimError::Program(msg) => {
            assert!(msg.contains("store back"), "{msg}");
            assert!(msg.contains("read-only"), "{msg}");
        }
        other => panic!("expected SimError::Program, got {other:?}"),
    }
}
