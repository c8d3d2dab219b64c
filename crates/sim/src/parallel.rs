//! Functional execution of a stream program, and the parallel engine
//! around it: fan per-strip functional work *and* per-strip memory
//! timing across host threads ([`StreamProcessor::execute`]), then run
//! the (inherently sequential) scoreboard over the per-op records
//! ([`StreamProcessor::time`]) — once for a run, any number of times
//! over subsets of one execution's ops.
//!
//! The split is sound because every cost function in [`crate::memsys`]
//! and [`crate::cluster`] depends only on *addresses, indices and
//! static op shapes* — never on region data values — so the scoreboard
//! ([`StreamProcessor::schedule`]) executes nothing: `exec_op` here is
//! the one functional implementation of gather, load, kernel,
//! scatter-add and store, for partitioned programs and the serial
//! fallback alike. A strip's SRF buffers are one dense table indexed by
//! [`BufferId`]; a kernel launch borrows its inputs from it — as wider
//! records of the same words when the kernel is unrolled — and copies
//! nothing.
//!
//! Which programs take the parallel path is [`crate::partition`]'s
//! decision; anything it refuses runs serially, op by op in program
//! order against the live regions, through the same `exec_op`.
//!
//! ## Determinism contract
//!
//! For a partitioned program, execution produces bitwise-identical
//! region contents, forces, cycles and counters at **every** thread
//! count (including 1). Four properties guarantee it:
//!
//! 1. the per-strip map is order-preserving and each strip's execution
//!    is pure given the (read-only) input regions;
//! 2. scatter-add contributions are accumulated into per-strip overlay
//!    buffers and merged by a *fixed-shape* pairwise tree over strip
//!    index — the tree's shape depends only on the strip count, never
//!    on the worker count or completion order;
//! 3. each strip's memory ops are costed in op-index order against a
//!    private cold [`MemSystem`] shard ([`MemSystem::strip_shard`]), so
//!    a strip's costs are a pure function of its own address trace — of
//!    neither the thread that ran it nor the other strips run with it;
//!    a report's [`crate::CacheAccessStats`] are the merge (`u64` sums
//!    and a max) of the costs of the ops it schedules;
//! 4. the timing pass is serial and the same scoreboard call as the
//!    fallback path's; it reads the per-op records and no region data,
//!    so nothing phase A did on another thread can reach it except
//!    through those records.

use std::collections::BTreeMap;
use std::time::Instant;

use merrimac_arch::MachineConfig;
use merrimac_kernel::interp::{Interpreter, StreamData, StreamView};
use merrimac_kernel::BatchWidth;
use rayon::prelude::*;

use crate::kernelc::CompiledKernel;
use crate::machine::{HostPhases, KernelEngine, OpRecord, RunReport, SimError, StreamProcessor};
use crate::memsys::MemSystem;
use crate::partition::{partition_program, PartitionReport};
use crate::program::{BufferId, LabelledOp, Memory, RegionId, StreamOp, StreamProgram};

/// Everything one strip's functional execution produced.
struct StripOutcome {
    /// `(op index, record)` for ops the timing pass needs facts about:
    /// kernels, and every memory op (which carries its precomputed
    /// [`crate::memsys::MemOpCost`]).
    records: Vec<(usize, OpRecord)>,
    /// Per-region scatter-add overlays: contributions accumulated into
    /// a zero-initialized image of the region, in op order.
    scatter: Vec<(usize, Vec<f64>)>,
    /// Sequential stores: `(region, start word, data)`, in op order.
    stores: Vec<(usize, usize, Vec<f64>)>,
    /// Host time of this strip's ops by kind, and of pricing them.
    host: HostPhases,
}

/// What [`StreamProcessor::execute`] leaves for the timing pass: one
/// record per op, the partitioner's verdict and where the host's time
/// went. [`StreamProcessor::time`] reads it any number of times.
#[derive(Debug)]
pub struct Executed {
    pub(crate) records: Vec<OpRecord>,
    pub partition: PartitionReport,
    /// Every phase but `scoreboard`, which each timing adds.
    pub host: HostPhases,
}

impl StreamProcessor {
    /// Execute `program` with the functional *and* memory-timing phases
    /// fanned across `threads` worker threads. See the module docs for
    /// the determinism contract; ineligible programs fall back to the
    /// serial scoreboard with a typed [`crate::FallbackReason`].
    pub fn run_parallel(
        &self,
        memory: &mut Memory,
        program: &StreamProgram,
        threads: usize,
    ) -> Result<RunReport, SimError> {
        self.run_with_threads(memory, program, threads)
    }

    /// The single engine behind [`StreamProcessor::run`] and
    /// [`StreamProcessor::run_parallel`]: execute, then time every op.
    /// Cycle numbers depend only on whether the program partitions —
    /// never on the entry point or thread count.
    pub(crate) fn run_with_threads(
        &self,
        memory: &mut Memory,
        program: &StreamProgram,
        threads: usize,
    ) -> Result<RunReport, SimError> {
        let executed = self.execute(memory, program, threads)?;
        self.time(memory, program, &executed, |_| true)
    }

    /// Everything up to the scoreboard: validate, partition, fan the
    /// strips out (phase A), merge their records and fold their writes
    /// into `memory`.
    pub fn execute(
        &self,
        memory: &mut Memory,
        program: &StreamProgram,
        threads: usize,
    ) -> Result<Executed, SimError> {
        // Reject un-runnable programs before burning functional work on
        // them; the scoreboard relies on this having passed.
        let t = Instant::now();
        self.validate_program(program)?;
        let partition = partition_program(program);
        let mut host = HostPhases {
            validate_partition: t.elapsed(),
            ..HostPhases::default()
        };
        if self.partition_verbose {
            eprintln!("{}", partition.describe(program, memory));
        }
        if !partition.is_parallel() {
            let t = Instant::now();
            let records = exec_serial(memory, program, self.kernel_engine, self.tape_batch)?;
            host.phase_a_wall = t.elapsed();
            return Ok(Executed {
                records,
                partition,
                host,
            });
        }

        // ---- phase A: per-strip functional execution + memory costs ----
        let t = Instant::now();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads.max(1))
            .build()
            .map_err(|e| SimError::Program(format!("thread pool: {e}")))?;
        let shared: &Memory = memory;
        let cfg = &self.cfg;
        let engine = self.kernel_engine;
        let batch = self.tape_batch;
        let outcomes: Result<Vec<StripOutcome>, SimError> = pool.install(|| {
            (&partition.strips)
                .into_par_iter()
                .map(|ops| exec_strip(cfg, shared, program, ops, engine, batch))
                .collect()
        });
        let outcomes = outcomes?;
        host.phase_a_wall = t.elapsed();

        // ---- deterministic merge --------------------------------------
        let t = Instant::now();
        let mut records: Vec<OpRecord> = vec![OpRecord::default(); program.ops.len()];
        // Scatter overlays, grouped by region in strip order, reduced by
        // a fixed-shape pairwise tree, then added into the base region.
        let mut by_region: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
        let mut stores: Vec<(usize, usize, Vec<f64>)> = Vec::new();
        for o in outcomes {
            for (i, r) in o.records {
                records[i] = r;
            }
            host.add(&o.host);
            for (region, overlay) in o.scatter {
                by_region.entry(region).or_default().push(overlay);
            }
            stores.extend(o.stores);
        }
        host.merge = t.elapsed();
        let t = Instant::now();
        for (region, mut overlays) in by_region {
            let total = tree_sum(&mut overlays);
            for (d, v) in memory.data_mut(RegionId(region)).iter_mut().zip(total) {
                *d += *v;
            }
        }
        for (region, start, data) in stores {
            let dst = memory.data_mut(RegionId(region));
            dst[start..start + data.len()].copy_from_slice(&data);
        }
        host.reduce = t.elapsed();
        Ok(Executed {
            records,
            partition,
            host,
        })
    }

    /// Phase B, the serial timing pass: the scoreboard over the ops
    /// `keep` selects and their records. For a partitioned execution the
    /// report equals, in every field but `host` and `partition`, what
    /// [`StreamProcessor::run_parallel`] returns for the kept ops as a
    /// program of their own on a fresh memory image — a record depends
    /// on its own strip only — so one execution can be timed whole and
    /// once per node; `execute` already validated and partitioned it.
    /// An unpartitioned execution can only be timed whole: its memory
    /// ops are priced here, on one warm cache in issue order, which a
    /// subset run on its own would not reproduce.
    pub fn time(
        &self,
        memory: &Memory,
        program: &StreamProgram,
        executed: &Executed,
        keep: impl Fn(&LabelledOp) -> bool,
    ) -> Result<RunReport, SimError> {
        let t = Instant::now();
        if let Some(reason) = &executed.partition.fallback {
            if !program.ops.iter().all(&keep) {
                return Err(SimError::Program(format!(
                    "a subset of an unpartitioned execution cannot be timed ({}): {}",
                    reason.kind().code(),
                    reason.describe(program, memory)
                )));
            }
        }
        let mut report = self.schedule(memory, program, &executed.records, keep)?;
        report.partition = executed.partition.summary();
        report.host = HostPhases {
            scoreboard: t.elapsed(),
            ..executed.host
        };
        Ok(report)
    }
}

/// The serial fallback's functional pass: every op in program order,
/// each write applied straight to the live region — so a later read
/// sees it, and scatter-adds accumulate in program order with no
/// overlay in between.
fn exec_serial(
    memory: &mut Memory,
    program: &StreamProgram,
    engine: KernelEngine,
    batch: BatchWidth,
) -> Result<Vec<OpRecord>, SimError> {
    let mut buffers = vec![None; program.buffers.len()];
    let mut records = Vec::with_capacity(program.ops.len());
    for lop in &program.ops {
        let (rec, src) = exec_op(memory, lop, &mut buffers, engine, batch)?;
        records.push(rec);
        match (&lop.op, src) {
            (
                StreamOp::ScatterAdd {
                    region,
                    record_len,
                    indices,
                    ..
                },
                Some(src),
            ) => scatter_add_into(memory.data_mut(*region), src, *record_len, indices),
            (
                StreamOp::Store {
                    region,
                    record_len,
                    start,
                    ..
                },
                Some(src),
            ) => {
                let s = start * record_len;
                memory.data_mut(*region)[s..s + src.data.len()].copy_from_slice(&src.data);
            }
            _ => {}
        }
    }
    Ok(records)
}

/// Functionally execute one op. Gathers, loads and kernels fill
/// `buffers` — one entry per declared buffer, indexed by [`BufferId`],
/// which `validate_program` has checked to be in range; a kernel borrows
/// its inputs from there. A scatter-add or a store changes nothing here
/// and hands back its checked source stream for the caller to fold into
/// a strip overlay or the live region. The record carries no memory cost.
fn exec_op<'b>(
    memory: &Memory,
    lop: &LabelledOp,
    buffers: &'b mut [Option<StreamData>],
    engine: KernelEngine,
    batch: BatchWidth,
) -> Result<(OpRecord, Option<&'b StreamData>), SimError> {
    let mut rec = OpRecord::default();
    match &lop.op {
        StreamOp::Gather {
            region,
            record_len,
            indices,
            dst,
        } => {
            let src = memory.data(*region);
            let mut data = Vec::with_capacity(indices.len() * record_len);
            for &idx in indices.iter() {
                let s = idx as usize * record_len;
                data.extend_from_slice(&src[s..s + record_len]);
            }
            buffers[dst.0] = Some(StreamData::new(*record_len, data));
        }
        StreamOp::Load {
            region,
            record_len,
            start,
            records,
            dst,
        } => {
            let s = start * record_len;
            let data = memory.data(*region)[s..s + records * record_len].to_vec();
            buffers[dst.0] = Some(StreamData::new(*record_len, data));
        }
        StreamOp::Kernel {
            kernel,
            inputs,
            outputs,
            params,
            iterations,
            ..
        } => {
            let views = inputs
                .iter()
                .map(|b| produced(buffers, lop, *b, "input").map(StreamData::view))
                .collect::<Result<_, _>>()?;
            let (outs, srf_words) = kernel_functional(
                &lop.label,
                kernel,
                views,
                params,
                *iterations,
                engine,
                batch,
            )?;
            for (o, b) in outs.into_iter().zip(outputs) {
                buffers[b.0] = Some(o);
            }
            rec.kernel_srf_words = srf_words;
        }
        StreamOp::ScatterAdd { src, indices, .. } => {
            let data = produced(buffers, lop, *src, "source")?;
            if data.num_records() != indices.len() {
                return Err(SimError::Program(format!(
                    "scatter-add '{}': {} records vs {} indices",
                    lop.label,
                    data.num_records(),
                    indices.len()
                )));
            }
            return Ok((rec, Some(data)));
        }
        StreamOp::Store { src, .. } => {
            let data = produced(buffers, lop, *src, "source")?;
            rec.store_records = data.num_records();
            return Ok((rec, Some(data)));
        }
    }
    Ok((rec, None))
}

/// The stream an earlier op of the same program left in buffer `b`.
fn produced<'b>(
    buffers: &'b [Option<StreamData>],
    lop: &LabelledOp,
    b: BufferId,
    what: &str,
) -> Result<&'b StreamData, SimError> {
    buffers[b.0].as_ref().ok_or_else(|| {
        SimError::Program(format!(
            "{} '{}': {what} buffer never produced",
            lop.op.mnemonic(),
            lop.label
        ))
    })
}

/// `dst[index record] += src record`, record by record in stream order.
fn scatter_add_into(dst: &mut [f64], src: &StreamData, record_len: usize, indices: &[u32]) {
    for (r, &idx) in indices.iter().enumerate() {
        let base = idx as usize * record_len;
        for (d, x) in dst[base..base + record_len].iter_mut().zip(src.record(r)) {
            *d += *x;
        }
    }
}

/// Run a kernel op's dataflow graph: unroll check, input reshape,
/// execution on the selected engine. Returns the output streams and the
/// SRF words moved (inputs consumed + outputs written).
fn kernel_functional(
    label: &str,
    kernel: &CompiledKernel,
    mut inputs: Vec<StreamView>,
    params: &[f64],
    iterations: u64,
    engine: KernelEngine,
    batch: BatchWidth,
) -> Result<(Vec<StreamData>, u64), SimError> {
    let unroll = kernel.opt.unroll as u64;
    if !iterations.is_multiple_of(unroll) {
        return Err(SimError::Program(format!(
            "kernel '{label}': {iterations} iterations not divisible by unroll {unroll}"
        )));
    }
    // An unrolled kernel reads the same words as records `unroll` times
    // as long: re-view them, moving nothing.
    for (d, sig) in inputs.iter_mut().zip(&kernel.ir.inputs) {
        let record_len = sig.record_len as usize;
        if d.record_len != record_len {
            if d.data.len() % record_len != 0 {
                return Err(SimError::Program(format!(
                    "kernel '{label}': input not reshapeable to {record_len} words"
                )));
            }
            d.record_len = record_len;
        }
    }
    let unrolled_iters = (iterations / unroll) as usize;
    let out = match engine {
        KernelEngine::Batch => kernel
            .tape
            .run_views(&inputs, params, unrolled_iters, batch)?,
        // The oracle keeps its owned-stream signature, and pays a copy.
        KernelEngine::Interp => {
            let owned = inputs
                .iter()
                .map(|d| StreamData::new(d.record_len, d.data.to_vec()));
            Interpreter::new(&kernel.ir).run(&owned.collect::<Vec<_>>(), params, unrolled_iters)?
        }
    };
    let mut srf_words = 0u64;
    for (s, d) in out.records_consumed.iter().zip(&inputs) {
        srf_words += (*s * d.record_len) as u64;
    }
    for o in &out.outputs {
        srf_words += o.data.len() as u64;
    }
    Ok((out.outputs, srf_words))
}

/// Functionally execute one strip's ops against the (read-only) input
/// regions, accumulating writes into private overlays and costing every
/// memory op in op-index order against a private cold [`MemSystem`]
/// shard.
fn exec_strip(
    cfg: &MachineConfig,
    memory: &Memory,
    program: &StreamProgram,
    ops: &[usize],
    engine: KernelEngine,
    batch: BatchWidth,
) -> Result<StripOutcome, SimError> {
    let mut buffers = vec![None; program.buffers.len()];
    let mut memsys = MemSystem::strip_shard(cfg);
    let mut out = StripOutcome {
        records: Vec::new(),
        scatter: Vec::new(),
        stores: Vec::new(),
        host: HostPhases::default(),
    };
    for &i in ops {
        let lop = &program.ops[i];
        let t = Instant::now();
        let (mut rec, src) = exec_op(memory, lop, &mut buffers, engine, batch)?;
        match (&lop.op, src) {
            (
                StreamOp::ScatterAdd {
                    region,
                    record_len,
                    indices,
                    ..
                },
                Some(src),
            ) => {
                let pos = match out.scatter.iter().position(|(r, _)| *r == region.0) {
                    Some(p) => p,
                    None => {
                        out.scatter
                            .push((region.0, vec![0.0; memory.data(*region).len()]));
                        out.scatter.len() - 1
                    }
                };
                scatter_add_into(&mut out.scatter[pos].1, src, *record_len, indices);
            }
            (
                StreamOp::Store {
                    region,
                    record_len,
                    start,
                    ..
                },
                Some(src),
            ) => out
                .stores
                .push((region.0, start * record_len, src.data.clone())),
            _ => {}
        }
        *match &lop.op {
            StreamOp::Gather { .. } => &mut out.host.gather,
            StreamOp::Load { .. } => &mut out.host.load,
            StreamOp::Kernel { .. } => &mut out.host.kernel,
            StreamOp::ScatterAdd { .. } | StreamOp::Store { .. } => &mut out.host.scatter,
        } += t.elapsed();
        if lop.op.is_memory() {
            let t = Instant::now();
            rec.mem_cost = Some(memsys.op_cost(memory, &lop.op, rec.store_records));
            out.host.op_cost += t.elapsed();
        }
        out.records.push((i, rec));
    }
    Ok(out)
}

/// Pairwise tree reduction of equally-sized accumulators, in place,
/// into the first one: at stride 1, 2, 4, … layer `i` (a multiple of
/// twice the stride) takes layer `i + stride`, and a layer without a
/// partner passes through. The tree's shape — so every bit of the sum —
/// is a function of `layers.len()` alone.
fn tree_sum(layers: &mut [Vec<f64>]) -> &[f64] {
    let mut stride = 1;
    while stride < layers.len() {
        for i in (0..layers.len() - stride).step_by(2 * stride) {
            let (head, tail) = layers.split_at_mut(i + stride);
            for (x, y) in head[i].iter_mut().zip(&tail[0]) {
                *x += *y;
            }
        }
        stride *= 2;
    }
    layers.first().map_or(&[], Vec::as_slice)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use merrimac_arch::{MachineConfig, OpCosts};
    use merrimac_kernel::ir::StreamMode;
    use merrimac_kernel::KernelBuilder;

    use super::*;
    use crate::kernelc::{CompiledKernel, KernelOpt};
    use crate::partition::{read_write_hazards, FallbackKind, FallbackReason};
    use crate::program::{AccessIntent, AccessKind, ProgramBuilder};

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

    /// Multi-strip gather→kernel→scatter-add program where several
    /// strips read-share `xs` and accumulate into the same records of
    /// `acc`.
    fn scatter_setup(strips: usize, n: usize) -> (Memory, StreamProgram) {
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg);
        let mut mem = Memory::new();
        let xs = mem.region("xs", (0..strips * n).map(|i| (i as f64).sin()).collect());
        let acc = mem.region("acc", vec![0.0; n]);
        let mut pb = ProgramBuilder::new();
        pb.intent(xs, AccessIntent::ReadOnly)
            .intent(acc, AccessIntent::ReduceAdd);
        for strip in 0..strips {
            pb.strip(strip);
            let bx = pb.buffer(&format!("x{strip}"), 1);
            let by = pb.buffer(&format!("y{strip}"), 1);
            let idx: Vec<u32> = (0..n as u32).map(|i| i + (strip * n) as u32).collect();
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
            // All strips accumulate into the same n records.
            let tgt: Vec<u32> = (0..n as u32).collect();
            pb.scatter_add(format!("scatter {strip}"), by, acc, 1, Arc::new(tgt));
        }
        (mem, pb.build())
    }

    #[test]
    fn parallel_matches_expected_sums() {
        let (mut mem, program) = scatter_setup(4, 257);
        let proc = StreamProcessor::new(MachineConfig::default());
        let r = proc.run_parallel(&mut mem, &program, 4).expect("runs");
        assert!(r.partition.parallelized);
        assert_eq!(r.partition.strips, 4);
        let acc = mem.data(RegionId(1));
        for (i, v) in acc.iter().enumerate() {
            let expect: f64 = (0..4)
                .map(|s| {
                    let x = ((s * 257 + i) as f64).sin();
                    x * x
                })
                .sum::<f64>();
            assert!((v - expect).abs() < 1e-12, "word {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn partitioner_classifies_shared_and_reduce_regions() {
        let (mem, program) = scatter_setup(3, 64);
        let part = partition_program(&program);
        assert!(part.is_parallel());
        assert_eq!(part.strips.len(), 3);
        assert_eq!(part.read_shared_regions, vec![RegionId(0)]);
        assert_eq!(part.reduce_regions, vec![RegionId(1)]);
        assert!(part.owned_write_regions.is_empty());
        let text = part.describe(&program, &mem);
        assert!(text.contains("parallel across 3 strips"), "{text}");
        assert!(text.contains("xs"), "{text}");
        assert!(text.contains("acc"), "{text}");
    }

    #[test]
    fn thread_count_does_not_change_results_or_timing() {
        let run = |threads: usize| {
            let (mut mem, program) = scatter_setup(5, 129);
            let proc = StreamProcessor::new(MachineConfig::default());
            let r = proc
                .run_parallel(&mut mem, &program, threads)
                .expect("runs");
            (mem.data(RegionId(1)).to_vec(), r)
        };
        let (base_data, base) = run(1);
        assert!(base.partition.parallelized);
        for threads in [2, 3, 4, 8] {
            let (data, r) = run(threads);
            assert_eq!(base_data, data, "region data diverged at {threads} threads");
            assert_eq!(base.cycles, r.cycles);
            assert_eq!(base.counters, r.counters);
            assert_eq!(base.sdr_peak, r.sdr_peak);
            assert_eq!(base.sdr_stall_cycles, r.sdr_stall_cycles);
            assert_eq!(base.cache_stats, r.cache_stats);
            assert_eq!(base.partition, r.partition);
        }
    }

    #[test]
    fn timing_identical_to_serial_scoreboard() {
        let (mut m1, p1) = scatter_setup(3, 200);
        let (mut m2, p2) = scatter_setup(3, 200);
        let proc = StreamProcessor::new(MachineConfig::default());
        let serial = proc.run(&mut m1, &p1).expect("serial");
        let parallel = proc.run_parallel(&mut m2, &p2, 4).expect("parallel");
        assert_eq!(serial.cycles, parallel.cycles);
        assert_eq!(serial.counters, parallel.counters);
        assert_eq!(serial.sdr_peak, parallel.sdr_peak);
        assert_eq!(
            serial.srf_peak_words_per_cluster,
            parallel.srf_peak_words_per_cluster
        );
        assert_eq!(serial.cache_stats, parallel.cache_stats);
        // Scatter sums agree to reduction-order rounding.
        for (a, b) in m1.data(RegionId(1)).iter().zip(m2.data(RegionId(1))) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
        }
    }

    #[test]
    fn store_programs_round_trip() {
        // load → kernel → store with two strips; results must be exact.
        // The stores target disjoint halves of a shared region with no
        // declared intent: ownership is inferred from the ranges.
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg);
        let n = 300usize;
        let build = || {
            let mut mem = Memory::new();
            let xs = mem.region("xs", (0..2 * n).map(|i| i as f64).collect());
            let out = mem.region("out", vec![0.0; 2 * n]);
            let mut pb = ProgramBuilder::new();
            for strip in 0..2 {
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
                pb.store(format!("store {strip}"), by, out, 1, strip * n);
            }
            (mem, pb.build())
        };
        let proc = StreamProcessor::new(cfg);
        let (mut m1, p1) = build();
        let part = partition_program(&p1);
        assert!(part.is_parallel(), "disjoint stores must partition");
        assert_eq!(part.owned_write_regions, vec![RegionId(1)]);
        let serial = proc.run(&mut m1, &p1).expect("serial");
        let (mut m2, p2) = build();
        let parallel = proc.run_parallel(&mut m2, &p2, 4).expect("parallel");
        assert_eq!(
            m1.data(RegionId(1)),
            m2.data(RegionId(1)),
            "store-only programs must be bitwise identical"
        );
        assert_eq!(serial.cycles, parallel.cycles);
        assert_eq!(serial.counters, parallel.counters);
        assert!(parallel.partition.parallelized);
    }

    #[test]
    fn overlapping_cross_strip_stores_fall_back() {
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg);
        let n = 64usize;
        let mut mem = Memory::new();
        let xs = mem.region("xs", (0..2 * n).map(|i| i as f64).collect());
        let out = mem.region("out", vec![0.0; 2 * n]);
        let mut pb = ProgramBuilder::new();
        for strip in 0..2 {
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
            // Both strips store to word 0: observable merge order.
            pb.store(format!("store {strip}"), by, out, 1, 0);
        }
        let program = pb.build();
        let part = partition_program(&program);
        assert!(matches!(
            part.fallback,
            Some(FallbackReason::WriteWriteOverlap {
                region: RegionId(1),
                strips: (0, 1),
            })
        ));
        assert_eq!(
            part.summary().fallback,
            Some(FallbackKind::WriteWriteOverlap)
        );
        // Fallback still executes correctly (serial scoreboard).
        let proc = StreamProcessor::new(cfg);
        let r = proc.run_parallel(&mut mem, &program, 4).expect("fallback");
        assert!(!r.partition.parallelized);
    }

    #[test]
    fn write_owned_in_place_update_partitions() {
        // Strips load a shared region and store updated values back to
        // their own slices: read+write of one region, previously an
        // unconditional serial fallback, now parallel under a declared
        // `WriteOwned` intent (reads precede writes, slices disjoint).
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg);
        let n = 200usize;
        let build = |declare: bool| {
            let mut mem = Memory::new();
            let xs = mem.region("xs", (1..=2 * n).map(|i| i as f64).collect());
            let mut pb = ProgramBuilder::new();
            if declare {
                pb.intent(xs, AccessIntent::WriteOwned);
            }
            // All loads first (so every read precedes every write)…
            let mut bufs = Vec::new();
            for strip in 0..2 {
                pb.strip(strip);
                let bx = pb.buffer(&format!("x{strip}"), 1);
                pb.load(format!("load {strip}"), xs, 1, strip * n, n, bx);
                bufs.push(bx);
            }
            // …then per-strip kernel + store back in place.
            for (strip, &bx) in bufs.iter().enumerate() {
                pb.strip(strip);
                let by = pb.buffer(&format!("y{strip}"), 1);
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
        };
        // Undeclared: read+write conflict, serial fallback.
        let (_, undeclared) = build(false);
        let part = partition_program(&undeclared);
        assert!(matches!(
            part.fallback,
            Some(FallbackReason::RegionConflict {
                region: RegionId(0),
                kinds: (AccessKind::Read, AccessKind::Write),
                ..
            })
        ));
        // Declared write-owned: partitions, and matches the serial result.
        let (mut m1, p1) = build(true);
        let part = partition_program(&p1);
        assert!(part.is_parallel(), "{:?}", part.fallback);
        assert_eq!(part.owned_write_regions, vec![RegionId(0)]);
        let proc = StreamProcessor::new(cfg);
        let r1 = proc.run_parallel(&mut m1, &p1, 4).expect("parallel");
        assert!(r1.partition.parallelized);
        let (mut m2, _) = build(true);
        let (_, undeclared2) = build(false);
        let r2 = proc
            .run_with_threads(&mut m2, &undeclared2, 1)
            .expect("serial");
        assert!(!r2.partition.parallelized);
        assert_eq!(m1.data(RegionId(0)), m2.data(RegionId(0)));
        for (i, v) in m1.data(RegionId(0)).iter().enumerate() {
            let x = (i + 1) as f64;
            assert_eq!(*v, x * x);
        }
    }

    /// Software-pipelined in-place update: each strip loads, transforms
    /// and stores back its own slice, with strips interleaved in program
    /// order (strip 1's load *follows* strip 0's store). The ranges are
    /// disjoint, so the per-strip ordering analysis finds no hazard and
    /// the program partitions — previously a spurious `read_after_write`
    /// fallback under the program-wide ordering rule.
    fn pipelined_in_place_setup(n: usize) -> (Memory, StreamProgram) {
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg);
        let mut mem = Memory::new();
        let xs = mem.region("xs", (1..=2 * n).map(|i| i as f64).collect());
        let mut pb = ProgramBuilder::new();
        pb.intent(xs, AccessIntent::WriteOwned);
        for strip in 0..2 {
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
    fn write_owned_pipelined_in_place_update_partitions() {
        let (mut mem, program) = pipelined_in_place_setup(32);
        assert!(read_write_hazards(&program).is_empty());
        let part = partition_program(&program);
        assert!(part.is_parallel(), "{:?}", part.fallback);
        assert_eq!(part.owned_write_regions, vec![RegionId(0)]);
        let proc = StreamProcessor::new(MachineConfig::default());
        let r = proc.run_parallel(&mut mem, &program, 4).expect("parallel");
        assert!(r.partition.parallelized);
        for (i, v) in mem.data(RegionId(0)).iter().enumerate() {
            let x = (i + 1) as f64;
            assert_eq!(*v, x * x);
        }
    }

    #[test]
    fn write_owned_read_after_write_falls_back() {
        // Declared write-owned, but strip 1 re-reads strip 0's slice
        // *after* strip 0's store in program order: phase A would read
        // stale data.
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg);
        let n = 32usize;
        let mut mem = Memory::new();
        let xs = mem.region("xs", (0..2 * n).map(|i| i as f64).collect());
        let mut pb = ProgramBuilder::new();
        pb.intent(xs, AccessIntent::WriteOwned);
        for strip in 0..2 {
            pb.strip(strip);
            let bx = pb.buffer(&format!("x{strip}"), 1);
            let by = pb.buffer(&format!("y{strip}"), 1);
            // Every strip reads strip 0's slice, so strip 1's load
            // overlaps strip 0's earlier store.
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
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].region, RegionId(0));
        assert_eq!(hazards[0].write_strip, 0);
        assert_eq!(hazards[0].read_strip, 1);
        assert!(hazards[0].write_range.0 < hazards[0].read_range.1);
        let part = partition_program(&program);
        assert!(matches!(
            part.fallback,
            Some(FallbackReason::ReadAfterWrite {
                region: RegionId(0),
                strips: (1, 0),
            })
        ));
        // The fallback path still computes the update exactly: strip 1
        // squares strip 0's already-squared slice.
        let proc = StreamProcessor::new(cfg);
        let r = proc.run_parallel(&mut mem, &program, 4).expect("fallback");
        assert!(!r.partition.parallelized);
        assert_eq!(r.partition.fallback, Some(FallbackKind::ReadAfterWrite));
        assert_eq!(mem.data(RegionId(0))[5], 25.0);
        assert_eq!(mem.data(RegionId(0))[n + 5], 25.0 * 25.0);
    }

    #[test]
    fn cross_strip_buffer_falls_back_to_serial() {
        // Producer in strip 0, consumer in strip 1: ineligible, must
        // still execute correctly via the serial path.
        let cfg = MachineConfig::default();
        let k = square_kernel(&cfg);
        let n = 64usize;
        let mut mem = Memory::new();
        let xs = mem.region("xs", (0..n).map(|i| i as f64).collect());
        let out = mem.region("out", vec![0.0; n]);
        let mut pb = ProgramBuilder::new();
        let bx = pb.buffer("x", 1);
        let by = pb.buffer("y", 1);
        pb.strip(0).load("load", xs, 1, 0, n, bx);
        pb.strip(1).kernel(
            "kernel",
            k,
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.strip(1).store("store", by, out, 1, 0);
        let program = pb.build();
        let part = partition_program(&program);
        assert!(matches!(
            part.fallback,
            Some(FallbackReason::BufferCrossesStrips {
                buffer: BufferId(0),
                strips: (0, 1),
            })
        ));
        let text = part.describe(&program, &mem);
        assert!(text.contains("serial fallback"), "{text}");
        assert!(text.contains("'x'"), "{text}");
        let proc = StreamProcessor::new(cfg);
        let r = proc
            .run_parallel(&mut mem, &program, 4)
            .expect("fallback runs");
        assert!(!r.partition.parallelized);
        assert_eq!(
            r.partition.fallback,
            Some(FallbackKind::BufferCrossesStrips)
        );
        assert_eq!(mem.data(RegionId(1))[5], 25.0);
    }

    #[test]
    fn fallback_kind_codes_round_trip() {
        for kind in [
            FallbackKind::BufferCrossesStrips,
            FallbackKind::RegionConflict,
            FallbackKind::WriteWriteOverlap,
            FallbackKind::ReadAfterWrite,
        ] {
            assert_eq!(FallbackKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(FallbackKind::from_code("nonsense"), None);
    }

    /// The level-by-level reduction `tree_sum` replaced, kept as its
    /// reference: a fresh list of pairs per level, each pair summed into
    /// its left member.
    fn tree_sum_by_levels(mut layers: Vec<Vec<f64>>) -> Vec<f64> {
        while layers.len() > 1 {
            let mut next = Vec::new();
            let mut it = layers.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += *y;
                    }
                }
                next.push(a);
            }
            layers = next;
        }
        layers.pop().unwrap_or_default()
    }

    #[test]
    fn in_place_tree_sum_is_the_level_by_level_sum_bit_for_bit() {
        // Magnitudes spread over 22 decades make the association show in
        // the low bits. Each special keeps a column to itself, so no word
        // ever adds two different NaN bit patterns (which payload that
        // keeps is the compiler's choice of operand order).
        for n in (0..=9).chain([31, 73]) {
            let layers: Vec<Vec<f64>> = (0..n)
                .map(|s| {
                    (0..40)
                        .map(|i| match i {
                            0 => -0.0,
                            1 if s % 3 == 0 => f64::NAN,
                            2 if s % 4 == 1 => f64::INFINITY,
                            3 if s % 5 == 2 => f64::NEG_INFINITY,
                            4 if s % 2 == 0 => -0.0,
                            _ => {
                                let decade = (s * 7 + i) % 23 - 15;
                                ((s * 40 + i) as f64).sin() * 10f64.powi(decade)
                            }
                        })
                        .collect()
                })
                .collect();
            let want = tree_sum_by_levels(layers.clone());
            let mut layers = layers;
            let got = tree_sum(&mut layers);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "{n} layers");
        }
    }
}
