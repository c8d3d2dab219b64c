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
//! 1. each worker runs a contiguous chunk of strips in strip order, and
//!    each strip's execution is pure given the (read-only) input
//!    regions;
//! 2. a strip's scatter-adds into a region accumulate into an overlay —
//!    one *layer* of the region, ranked among the strips that scatter
//!    into it — and a region's layers are summed by a *fixed-shape*
//!    pairwise tree (at stride 1, 2, 4, … layer `i`, a multiple of twice
//!    the stride, takes layer `i + stride`, `x += y`). Every node of the
//!    fixed-shape tree is computed once, by whichever side holds both
//!    children: a worker inside its chunk, the main thread across chunks;
//! 3. each strip's memory ops are costed in op-index order against a
//!    cold [`MemSystem`] shard ([`MemSystem::strip_shard`], which a
//!    worker flushes before each of its strips), so a strip's costs are a
//!    pure function of its own address trace — of neither the thread
//!    that ran it nor the other strips run with it; a report's
//!    [`crate::CacheAccessStats`] are the merge (`u64` sums and a max) of
//!    the costs of the ops it schedules;
//! 4. the timing pass is serial and the same scoreboard call as the
//!    fallback path's; it reads the per-op records and no region data,
//!    so nothing phase A did on another thread can reach it except
//!    through those records.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use merrimac_kernel::interp::{StreamData, StreamView};
use merrimac_kernel::BatchWidth;
use rayon::prelude::*;

use crate::kernelc::CompiledKernel;
use crate::machine::{HostPhases, OpRecord, RunReport, SimError, StreamProcessor};
use crate::memsys::MemSystem;
use crate::partition::{partition_program, PartitionReport};
use crate::program::{AccessKind, BufferId, LabelledOp, Memory, RegionId, StreamOp, StreamProgram};

/// One phase-A worker: the contiguous chunk of strips it runs in order
/// on one memory-system shard (made at its first strip), and what they
/// leave.
#[derive(Default)]
struct Worker {
    memsys: Option<MemSystem>,
    /// Per scatter-add region, the stack of reduction-tree nodes the
    /// chunk finished and no node of the chunk takes, in layer order.
    nodes: BTreeMap<usize, Vec<Node>>,
    /// Overlays the folds merged away, for later strips.
    spare: Vec<Vec<f64>>,
    /// `(op index, record)` of every op: a memory op's carries its cost.
    records: Vec<(usize, OpRecord)>,
    /// Sequential stores: `(op index, source stream)`, in op order.
    stores: Vec<(usize, StreamData)>,
    /// Host time of the chunk's ops by kind, and of pricing them.
    host: HostPhases,
}

/// A node of a region's reduction tree: the sum of its `layers`.
struct Node {
    layers: Range<usize>,
    sum: Vec<f64>,
}

/// Push `node`, the one after the last on `stack`, into a region's tree
/// of `layers` layers, and compute each node whose children are now on
/// top: at stride `s`, `i..i + s` (`i` a multiple of `2s`) takes the
/// rest up to `i + 2s` or the last layer. Merged-away buffers go to
/// `spare`.
fn fold(stack: &mut Vec<Node>, layers: usize, node: Node, spare: &mut Vec<Vec<f64>>) {
    stack.push(node);
    while let [.., left, right] = &mut stack[..] {
        let (i, s) = (left.layers.start, left.layers.len());
        if i % (2 * s) != 0 || right.layers.end != (i + 2 * s).min(layers) {
            break;
        }
        for (x, y) in left.sum.iter_mut().zip(&right.sum) {
            *x += *y;
        }
        left.layers.end = right.layers.end;
        spare.extend(stack.pop().map(|right| right.sum));
    }
}

/// Per strip, `(region, layer)` for each region it scatter-adds into —
/// the layer its rank among the strips that do — and per region the
/// number of layers.
type Layers = (Vec<Vec<(usize, usize)>>, BTreeMap<usize, usize>);

fn layers(program: &StreamProgram, strips: &[Vec<usize>]) -> Layers {
    let mut count: BTreeMap<usize, usize> = BTreeMap::new();
    let of_strip = strips.iter().map(|ops| {
        let mut mine: Vec<(usize, usize)> = Vec::new();
        for &i in ops {
            if let StreamOp::ScatterAdd { region, .. } = &program.ops[i].op {
                if mine.iter().all(|&(r, _)| r != region.0) {
                    let next = count.entry(region.0).or_default();
                    mine.push((region.0, *next));
                    *next += 1;
                }
            }
        }
        mine
    });
    (of_strip.collect(), count)
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
    /// Everything up to the scoreboard: validate, partition, fan the
    /// strips out across `self.host.threads` workers (phase A), merge
    /// their records and fold their writes into `memory`.
    pub fn execute(
        &self,
        memory: &mut Memory,
        program: &StreamProgram,
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
        if self.host.partition_verbose {
            eprintln!("{}", partition.describe(program, memory));
        }
        if !partition.is_parallel() {
            let t = Instant::now();
            let records = exec_serial(memory, program, self.tape_batch)?;
            host.phase_a_wall = t.elapsed();
            return Ok(Executed {
                records,
                partition,
                host,
            });
        }

        // ---- phase A: contiguous chunks of strips, one per worker -------
        let t = Instant::now();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.host.threads.max(1))
            .build()
            .map_err(|e| SimError::Program(format!("thread pool: {e}")))?;
        let (of_strip, count) = layers(program, &partition.strips);
        let shared: &Memory = memory;
        let workers: Vec<Result<Worker, SimError>> = pool.install(|| {
            (0..partition.strips.len())
                .into_par_iter()
                .fold(
                    || Ok(Worker::default()),
                    |worker, s| {
                        let (ops, targets) = (&partition.strips[s], &of_strip[s]);
                        worker?.run_strip(self, shared, program, ops, targets, &count)
                    },
                )
                .collect()
        });
        let mut workers = workers.into_iter().collect::<Result<Vec<_>, _>>()?;
        host.phase_a_wall = t.elapsed();

        // ---- deterministic merge --------------------------------------
        let t = Instant::now();
        let mut records: Vec<OpRecord> = vec![OpRecord::default(); program.ops.len()];
        for w in &mut workers {
            for (i, r) in w.records.drain(..) {
                records[i] = r;
            }
            host.add(&w.host);
        }
        host.merge = t.elapsed();
        // Per region the tree nodes across chunks, the sum into the region.
        let t = Instant::now();
        let mut spare = Vec::new();
        for (region, layers) in count {
            let mut stack = Vec::new();
            for w in &mut workers {
                for node in w.nodes.remove(&region).unwrap_or_default() {
                    fold(&mut stack, layers, node, &mut spare);
                }
            }
            debug_assert_eq!(stack.len(), 1, "region {region}'s tree is whole");
            for root in stack {
                for (d, v) in memory.data_mut(RegionId(region)).iter_mut().zip(&root.sum) {
                    *d += *v;
                }
            }
        }
        for (i, src) in workers.iter().flat_map(|w| &w.stores) {
            if let Some((region, _)) = program.ops[*i].op.region_use() {
                write_into(memory.data_mut(region), &program.ops[*i].op, src);
            }
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
    /// [`StreamProcessor::run`] returns for the kept ops as a
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
    batch: BatchWidth,
) -> Result<Vec<OpRecord>, SimError> {
    let mut buffers = vec![None; program.buffers.len()];
    let mut records = Vec::with_capacity(program.ops.len());
    for lop in &program.ops {
        let (rec, src) = exec_op(memory, lop, &mut buffers, batch)?;
        records.push(rec);
        if let (Some(src), Some((region, _))) = (src, lop.op.region_use()) {
            write_into(memory.data_mut(region), &lop.op, src);
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
            let (outs, srf_words) =
                kernel_functional(&lop.label, kernel, views, params, *iterations, batch)?;
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

/// A scatter-add's or a store's checked source stream `src` written
/// into `dst`, an image of the op's region — the live region or a
/// strip's overlay: `dst[index record] += src record` in stream order,
/// or the records copied in from the store's start.
fn write_into(dst: &mut [f64], op: &StreamOp, src: &StreamData) {
    match op {
        StreamOp::ScatterAdd {
            record_len,
            indices,
            ..
        } => {
            for (r, &idx) in indices.iter().enumerate() {
                let base = idx as usize * record_len;
                for (d, x) in dst[base..base + record_len].iter_mut().zip(src.record(r)) {
                    *d += *x;
                }
            }
        }
        StreamOp::Store {
            record_len, start, ..
        } => dst[start * record_len..][..src.data.len()].copy_from_slice(&src.data),
        _ => {}
    }
}

/// Run a kernel op: unroll check, input reshape, its compiled tape at
/// lane width `batch`. Returns the output streams and the SRF words
/// moved (inputs consumed + outputs written).
fn kernel_functional(
    label: &str,
    kernel: &CompiledKernel,
    mut inputs: Vec<StreamView>,
    params: &[f64],
    iterations: u64,
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
    let out = kernel
        .tape
        .run_views(&inputs, params, unrolled_iters, batch)?;
    let mut srf_words = 0u64;
    for (s, d) in out.records_consumed.iter().zip(&inputs) {
        srf_words += (*s * d.record_len) as u64;
    }
    for o in &out.outputs {
        srf_words += o.data.len() as u64;
    }
    Ok((out.outputs, srf_words))
}

impl Worker {
    /// Execute one strip's `ops` on the (read-only) input regions, its
    /// scatter-adds into an overlay per `(region, layer)` of its `targets`,
    /// pricing each memory op in op-index order on the flushed shard;
    /// then fold the overlays into their trees, of `count` layers.
    fn run_strip(
        mut self,
        proc: &StreamProcessor,
        memory: &Memory,
        program: &StreamProgram,
        ops: &[usize],
        targets: &[(usize, usize)],
        count: &BTreeMap<usize, usize>,
    ) -> Result<Self, SimError> {
        let t = Instant::now();
        let mut overlays: Vec<Vec<f64>> = targets
            .iter()
            .map(|&(region, _)| {
                let mut overlay = self.spare.pop().unwrap_or_default();
                overlay.clear();
                overlay.resize(memory.data(RegionId(region)).len(), 0.0);
                overlay
            })
            .collect();
        self.host.scatter += t.elapsed();
        let t = Instant::now();
        let memsys = self
            .memsys
            .get_or_insert_with(|| MemSystem::strip_shard(&proc.cfg));
        memsys.flush_cache();
        self.host.op_cost += t.elapsed();
        let mut buffers = vec![None; program.buffers.len()];
        let batch = proc.tape_batch;
        for &i in ops {
            let lop = &program.ops[i];
            let t = Instant::now();
            let (mut rec, src) = exec_op(memory, lop, &mut buffers, batch)?;
            match (src, lop.op.region_use()) {
                (Some(src), Some((region, AccessKind::Reduce))) => {
                    if let Some(at) = targets.iter().position(|&(r, _)| r == region.0) {
                        write_into(&mut overlays[at], &lop.op, src);
                    }
                }
                (Some(src), _) => self.stores.push((i, src.clone())),
                _ => {}
            }
            *match &lop.op {
                StreamOp::Gather { .. } => &mut self.host.gather,
                StreamOp::Load { .. } => &mut self.host.load,
                StreamOp::Kernel { .. } => &mut self.host.kernel,
                StreamOp::ScatterAdd { .. } | StreamOp::Store { .. } => &mut self.host.scatter,
            } += t.elapsed();
            if lop.op.is_memory() {
                let t = Instant::now();
                rec.mem_cost = Some(memsys.op_cost(memory, &lop.op, rec.store_records));
                self.host.op_cost += t.elapsed();
            }
            self.records.push((i, rec));
        }
        let t = Instant::now();
        for (&(region, layer), sum) in targets.iter().zip(overlays) {
            let (stack, layers) = (self.nodes.entry(region).or_default(), layer..layer + 1);
            fold(stack, count[&region], Node { layers, sum }, &mut self.spare);
        }
        self.host.scatter += t.elapsed();
        Ok(self)
    }
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
    use crate::HostExec;

    /// `proc` on `threads` host threads.
    fn on(proc: &StreamProcessor, threads: usize) -> StreamProcessor {
        let host = HostExec {
            threads,
            ..HostExec::default()
        };
        proc.clone().with_host(host)
    }

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
        let r = on(&proc, 4).run(&mut mem, &program).expect("runs");
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
            let r = on(&proc, threads).run(&mut mem, &program).expect("runs");
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
        let parallel = on(&proc, 4).run(&mut m2, &p2).expect("parallel");
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
        let parallel = on(&proc, 4).run(&mut m2, &p2).expect("parallel");
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
        let r = on(&proc, 4).run(&mut mem, &program).expect("fallback");
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
        let r1 = on(&proc, 4).run(&mut m1, &p1).expect("parallel");
        assert!(r1.partition.parallelized);
        let (mut m2, _) = build(true);
        let (_, undeclared2) = build(false);
        let r2 = proc.run(&mut m2, &undeclared2).expect("serial");
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
        let r = on(&proc, 4).run(&mut mem, &program).expect("parallel");
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
        let r = on(&proc, 4).run(&mut mem, &program).expect("fallback");
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
        let r = on(&proc, 4).run(&mut mem, &program).expect("fallback runs");
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

    /// The level-by-level reduction the folds replaced, kept as their
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

    /// `layers` summed the way `execute` sums a region's overlays when
    /// its strips split into `chunks`: each chunk folds its own layers,
    /// then one more fold takes every chunk's nodes in order.
    fn chunked_fold(layers: &[Vec<f64>], chunks: &[Vec<usize>]) -> Vec<f64> {
        let (n, mut spare, mut main) = (layers.len(), Vec::new(), Vec::new());
        for chunk in chunks {
            let mut stack = Vec::new();
            for &i in chunk {
                let (layers, sum) = (i..i + 1, layers[i].clone());
                fold(&mut stack, n, Node { layers, sum }, &mut spare);
            }
            for node in stack {
                fold(&mut main, n, node, &mut spare);
            }
        }
        assert!(main.len() <= 1, "{} nodes left", main.len());
        main.pop().map_or_else(Vec::new, |root| root.sum)
    }

    #[test]
    fn in_place_tree_sum_is_the_level_by_level_sum_bit_for_bit() {
        // Magnitudes spread over 22 decades make the association show in
        // the low bits. Each special keeps a column to itself, so no word
        // ever adds two different NaN bit patterns (which payload that
        // keeps is the compiler's choice of operand order). The fold is
        // held at every worker count (`execute`'s chunks) and every chunk
        // size.
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
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let n = layers.len();
            for k in 1..=n.max(1) {
                // `execute`'s split over `k` workers: `rayon`'s fold.
                let pool = rayon::ThreadPoolBuilder::new().num_threads(k).build();
                let by_workers: Vec<Vec<usize>> = pool.expect("a pool").install(|| {
                    let take = |mut chunk: Vec<usize>, i| (chunk.push(i), chunk).1;
                    (0..n).into_par_iter().fold(Vec::new, take).collect()
                });
                let got = chunked_fold(&layers, &by_workers);
                assert_eq!(bits(&got), bits(&want), "{n} layers, {k} workers");
                let by_size: Vec<Vec<usize>> = (0..n)
                    .step_by(k)
                    .map(|s| (s..(s + k).min(n)).collect())
                    .collect();
                let got = chunked_fold(&layers, &by_size);
                assert_eq!(bits(&got), bits(&want), "{n} layers, chunks of {k}");
            }
        }
    }

    /// `strips` strips over `n`-record regions `a` and `b`: every strip
    /// squares its slice of `xs` and scatter-adds it into `a`, the even
    /// ones into `b` as well, so a strip's layer in `b` is not its index.
    /// The squares are all of one magnitude, so every sum rounds and its
    /// association shows in its bits.
    fn two_region_setup(strips: usize, n: usize) -> (Memory, StreamProgram, Vec<Vec<u32>>) {
        let k = square_kernel(&MachineConfig::default());
        let x = |i: usize| (i as f64).sin() + 1.5;
        let mut mem = Memory::new();
        let xs = mem.region("xs", (0..strips * n).map(x).collect());
        let a = mem.region("a", vec![0.0; n]);
        let b = mem.region("b", vec![0.0; n]);
        let mut pb = ProgramBuilder::new();
        pb.intent(xs, AccessIntent::ReadOnly)
            .intent(a, AccessIntent::ReduceAdd)
            .intent(b, AccessIntent::ReduceAdd);
        let targets: Vec<Vec<u32>> = (0..strips)
            .map(|s| (0..n).map(|i| ((i * 7 + s) % n) as u32).collect())
            .collect();
        for (strip, tgt) in targets.iter().enumerate() {
            pb.strip(strip);
            let bx = pb.buffer(&format!("x{strip}"), 1);
            let by = pb.buffer(&format!("y{strip}"), 1);
            let idx: Vec<u32> = (0..n).map(|i| (strip * n + i) as u32).collect();
            pb.gather(format!("gather {strip}"), xs, 1, Arc::new(idx), bx);
            let (k, iterations) = (k.clone(), n as u64);
            let per_cluster = iterations.div_ceil(16);
            pb.kernel(
                format!("kernel {strip}"),
                k,
                vec![bx],
                vec![by],
                vec![],
                iterations,
                per_cluster,
            );
            pb.scatter_add(format!("a {strip}"), by, a, 1, Arc::new(tgt.clone()));
            if strip % 2 == 0 {
                pb.scatter_add(format!("b {strip}"), by, b, 1, Arc::new(tgt.clone()));
            }
        }
        (mem, pb.build(), targets)
    }

    #[test]
    fn a_strip_that_skips_a_region_is_no_layer_of_it() {
        let (strips, n) = (9, 64);
        let (_, _, targets) = two_region_setup(strips, n);
        let x = |i: usize| (i as f64).sin() + 1.5;
        let overlay = |s: usize| {
            let mut o = vec![0.0; n];
            for (i, &t) in targets[s].iter().enumerate() {
                o[t as usize] += x(s * n + i) * x(s * n + i);
            }
            o
        };
        let bits = |v: &[f64]| v.iter().map(|x| (0.0 + x).to_bits()).collect::<Vec<_>>();
        let want_a = bits(&tree_sum_by_levels((0..strips).map(overlay).collect()));
        let want_b = bits(&tree_sum_by_levels(
            (0..strips).step_by(2).map(overlay).collect(),
        ));
        for threads in [1, 2, 3, 8] {
            let (mut mem, program, _) = two_region_setup(strips, n);
            let proc = StreamProcessor::new(MachineConfig::default());
            let r = on(&proc, threads).run(&mut mem, &program).expect("runs");
            assert!(r.partition.parallelized, "{:?}", r.partition.fallback);
            let got = |r| {
                mem.data(RegionId(r))
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(got(1), want_a, "region a at {threads} threads");
            assert_eq!(got(2), want_b, "region b at {threads} threads");
        }
    }
}
