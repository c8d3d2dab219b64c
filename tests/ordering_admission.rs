//! Regression tests for the per-strip read/write ordering admission.
//!
//! The partitioner used to reject any `WriteOwned` region where a read
//! followed a store anywhere in the program (`read_after_write`),
//! which spuriously serialized the software-pipelined in-place update
//! pattern: each strip loads its own slice, transforms it, and stores
//! it back, with later strips' loads *textually* after earlier strips'
//! stores but touching disjoint word ranges. The ordering analysis in
//! `merrimac_analysis` / `merrimac_sim::read_write_hazards` admits that
//! pattern by checking actual word-range overlap; these tests pin the
//! admission, the bitwise determinism contract at 1/2/8 threads, and
//! the still-correct fallback for genuinely overlapping reads.

use std::sync::Arc;
/// `proc` on `threads` host threads.
fn on(proc: &StreamProcessor, threads: usize) -> StreamProcessor {
    let host = HostExec {
        threads,
        ..HostExec::default()
    };
    proc.clone().with_host(host)
}

use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::ir::StreamMode;
use merrimac_kernel::KernelBuilder;
use merrimac_sim::{
    partition_program, read_write_hazards, AccessIntent, CompiledKernel, FallbackKind, HostExec,
    KernelOpt, Memory, ProgramBuilder, RegionId, StreamProcessor, StreamProgram,
};

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

/// The software-pipelined in-place pattern: `strips` strips, each
/// loading its own disjoint `n`-word slice of `xs`, squaring it, and
/// storing it back in place. Later strips' loads follow earlier strips'
/// stores in program order but never overlap them.
fn in_place_program(strips: usize, n: usize) -> (Memory, StreamProgram) {
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let mut mem = Memory::new();
    let xs = mem.region("xs", (1..=strips * n).map(|i| i as f64).collect());
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::WriteOwned);
    for strip in 0..strips {
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
        pb.store(format!("store {strip}"), by, xs, 1, strip * n);
    }
    (mem, pb.build())
}

#[test]
fn in_place_pipelined_pattern_is_admitted() {
    let (_, program) = in_place_program(4, 128);
    assert!(
        read_write_hazards(&program).is_empty(),
        "disjoint per-strip slices must produce no ordering hazards"
    );
    let part = partition_program(&program);
    assert!(
        part.is_parallel(),
        "in-place pattern must partition, got fallback {:?}",
        part.fallback
    );
    assert_eq!(part.strips.len(), 4);
    assert_eq!(part.owned_write_regions, vec![RegionId(0)]);
}

#[test]
fn in_place_results_bitwise_identical_across_thread_counts() {
    let strips = 4;
    let n = 257;
    let proc = StreamProcessor::new(MachineConfig::default());
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let (mut mem, program) = in_place_program(strips, n);
        let report = on(&proc, threads)
            .run(&mut mem, &program)
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        assert!(
            report.partition.parallelized,
            "threads={threads}: must stay on the parallel engine \
             (fallback {:?})",
            report.partition.fallback
        );
        let bits: Vec<u64> = mem.data(RegionId(0)).iter().map(|v| v.to_bits()).collect();
        runs.push((threads, report, bits));
    }
    // Values are the squared initial slice, in place.
    let (_, _, ref bits1) = runs[0];
    for (i, b) in bits1.iter().enumerate() {
        let expect = ((i + 1) as f64 * (i + 1) as f64).to_bits();
        assert_eq!(*b, expect, "word {i} wrong under serial run");
    }
    // Every simulated observable and every result bit identical across
    // thread counts.
    let (_, ref base, ref base_bits) = runs[0];
    for (threads, report, bits) in &runs[1..] {
        assert_eq!(bits, base_bits, "threads={threads}: result bits diverged");
        assert_eq!(report.cycles, base.cycles, "threads={threads}: cycles");
        assert_eq!(
            report.counters, base.counters,
            "threads={threads}: counters"
        );
        assert_eq!(
            report.sdr_peak, base.sdr_peak,
            "threads={threads}: SDR peak"
        );
        assert_eq!(
            report.srf_peak_words_per_cluster, base.srf_peak_words_per_cluster,
            "threads={threads}: SRF peak"
        );
    }
}

#[test]
fn overlapping_read_still_falls_back_and_stays_correct() {
    // Both strips read the full first slice — strip 1's load genuinely
    // overlaps strip 0's store, so the conservative serial order is the
    // only correct one.
    let n = 64;
    let cfg = MachineConfig::default();
    let k = square_kernel(&cfg);
    let mut mem = Memory::new();
    let xs = mem.region("xs", vec![3.0; 2 * n]);
    let mut pb = ProgramBuilder::new();
    pb.intent(xs, AccessIntent::WriteOwned);
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

    let hazards = read_write_hazards(&program);
    assert_eq!(hazards.len(), 1, "exactly one store→read overlap");
    assert_eq!(hazards[0].write_strip, 0);
    assert_eq!(hazards[0].read_strip, 1);

    let part = partition_program(&program);
    assert_eq!(
        part.summary().fallback,
        Some(FallbackKind::ReadAfterWrite),
        "overlapping read must keep the serial fallback"
    );

    let proc = StreamProcessor::new(cfg);
    let report = on(&proc, 8).run(&mut mem, &program).expect("runs");
    assert!(!report.partition.parallelized);
    // Strip 0 squares the first slice once; strip 1 reads the squared
    // values and stores their squares into the second slice.
    let data = mem.data(RegionId(0));
    assert_eq!(data[0], 9.0);
    assert_eq!(data[n], 81.0);
}
