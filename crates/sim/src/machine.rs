//! The stream processor scoreboard: issues stream operations onto the
//! memory system and the cluster array, enforcing data dependencies,
//! SRF capacity and stream-descriptor-register availability.
//!
//! The model has one memory pipeline and one cluster array (matching the
//! two-column execution plots of Figure 7); software pipelining across
//! strips emerges from the dependence structure: while the clusters run
//! strip *i*'s kernel, the memory unit gathers strip *i+1* and scatters
//! strip *i−1*, exactly as in Figure 5 — provided enough stream
//! descriptor registers are free, which is where [`SdrPolicy`] bites.
//!
//! The scoreboard is pure timing: every cost is a function of addresses,
//! indices and op shapes, so it never reads or writes region data or SRF
//! buffers. The functional execution of a program happens before it, in
//! [`crate::parallel`], and reaches it as one [`OpRecord`] per op.

use std::collections::BTreeMap;
use std::time::Duration;

use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::interp::InterpError;
use merrimac_kernel::BatchWidth;

use crate::cache::CacheAccessStats;
use crate::counters::{Counters, PhaseCycles};
use crate::host::HostExec;
use crate::memsys::{MemOpCost, MemSystem};
use crate::partition::PartitionSummary;
use crate::program::{AccessKind, BufferId, LabelledOp, Memory, StreamOp, StreamProgram};
use crate::sdr::{SdrFile, SdrPolicy};
use crate::srf::SrfAllocator;
use crate::timeline::{Timeline, Unit};

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    Interp(InterpError),
    /// A single buffer exceeds SRF capacity — no schedule can run it.
    SrfImpossible(String),
    /// A kernel launch over its SRF floor ([`srf_overflows`]): reported
    /// up front, naming the strip size, instead of a deadlock.
    StripSrfOverflow {
        /// Label of the kernel op that can never issue.
        label: String,
        /// Strip size (kernel iterations) that produced the working set.
        strip_iterations: u64,
        /// SRF words per cluster the working set needs.
        needed_words_per_cluster: usize,
        /// SRF words per cluster the machine has.
        capacity_words_per_cluster: usize,
    },
    /// Invalid configuration rejected before any simulation ran.
    Config(String),
    /// A multi-node configuration outside the modeled network, rejected
    /// at build time like the other preflight errors.
    NodesOutOfRange {
        nodes: usize,
        total: usize,
    },
    /// The scoreboard wedged (a bug or an impossible program).
    Deadlock(String),
    /// Program shape error (e.g. iterations not divisible by unroll).
    Program(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Interp(e) => write!(f, "kernel execution failed: {e}"),
            SimError::SrfImpossible(s) => write!(f, "SRF cannot hold buffer: {s}"),
            SimError::StripSrfOverflow {
                label,
                strip_iterations,
                needed_words_per_cluster,
                capacity_words_per_cluster,
            } => write!(
                f,
                "strip size {strip_iterations} is un-runnable: kernel '{label}' needs \
                 {needed_words_per_cluster} SRF words/cluster for its live streams but the \
                 machine has {capacity_words_per_cluster}; reduce strip_iterations"
            ),
            SimError::Config(s) => write!(f, "invalid configuration: {s}"),
            SimError::NodesOutOfRange { nodes, total } => write!(
                f,
                "multi-node preflight: {nodes} node(s) requested but the modeled network \
                 supports 1..={total}"
            ),
            SimError::Deadlock(s) => write!(f, "scoreboard deadlock: {s}"),
            SimError::Program(s) => write!(f, "malformed program: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<InterpError> for SimError {
    fn from(e: InterpError) -> Self {
        SimError::Interp(e)
    }
}

/// Host wall-clock of one program run by pipeline phase: plain
/// `Instant` deltas, so unlike every other field of a [`RunReport`] they
/// differ from run to run and determinism checks must not compare them.
/// The per-op phases are accumulated per worker and summed in chunk
/// order. On the serial fallback they stay zero: `phase_a_wall` is the
/// whole functional pass and `scoreboard` includes pricing the memory
/// ops. Everything but `scoreboard` belongs to the execution; a report
/// timed from a shared [`crate::Executed`] repeats it.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostPhases {
    /// `validate_program` + `partition_program`.
    pub validate_partition: Duration,
    /// Phase A as the caller saw it: every strip's functional execution
    /// and memory pricing, across the worker threads.
    pub phase_a_wall: Duration,
    /// Gathers materialised into strip buffers (summed over threads).
    pub gather: Duration,
    /// Sequential loads (summed over threads).
    pub load: Duration,
    /// Kernel launches, marshalling included (summed over threads).
    pub kernel: Duration,
    /// Scatter-adds and stores folded into the strip's overlays, and the
    /// overlays folded into their regions' reduction trees as far as the
    /// worker's chunk of strips allows (summed over threads).
    pub scatter: Duration,
    /// `MemSystem::op_cost` on the worker's shard, flushed before each
    /// strip (summed over threads).
    pub op_cost: Duration,
    /// Chunk outcomes merged into per-op records.
    pub merge: Duration,
    /// The main thread's finish: the tree nodes across chunks, each sum
    /// added into its region, then the buffered stores.
    pub reduce: Duration,
    /// The timing scoreboard.
    pub scoreboard: Duration,
}

impl HostPhases {
    /// Add another run's (or strip's) phases to this one's.
    pub fn add(&mut self, o: &HostPhases) {
        self.validate_partition += o.validate_partition;
        self.phase_a_wall += o.phase_a_wall;
        self.gather += o.gather;
        self.load += o.load;
        self.kernel += o.kernel;
        self.scatter += o.scatter;
        self.op_cost += o.op_cost;
        self.merge += o.merge;
        self.reduce += o.reduce;
        self.scoreboard += o.scoreboard;
    }

    /// Every phase with its field name, in pipeline order.
    pub fn named(&self) -> [(&'static str, Duration); 10] {
        [
            ("validate_partition", self.validate_partition),
            ("phase_a_wall", self.phase_a_wall),
            ("gather", self.gather),
            ("load", self.load),
            ("kernel", self.kernel),
            ("scatter", self.scatter),
            ("op_cost", self.op_cost),
            ("merge", self.merge),
            ("reduce", self.reduce),
            ("scoreboard", self.scoreboard),
        ]
    }
}

/// Report of one program run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total run time in cycles.
    pub cycles: u64,
    pub timeline: Timeline,
    pub counters: Counters,
    /// Busy cycles by stream-operation class (gather/load/kernel/
    /// scatter-add/store).
    pub phases: PhaseCycles,
    /// Peak stream descriptor registers in use.
    pub sdr_peak: usize,
    /// Peak SRF words per cluster.
    pub srf_peak_words_per_cluster: usize,
    /// Cycles the memory unit sat idle with work ready but no SDR free.
    pub sdr_stall_cycles: u64,
    /// How the strip partitioner classified this program (parallelized
    /// vs serial fallback, with a typed reason).
    pub partition: PartitionSummary,
    /// Aggregate stream-cache behaviour of the ops timed: the merge of
    /// their memory costs' stats.
    pub cache_stats: CacheAccessStats,
    /// Where the host's time went (not a simulated quantity).
    pub host: HostPhases,
}

impl RunReport {
    /// Seconds at the configured clock.
    pub fn seconds(&self, cfg: &MachineConfig) -> f64 {
        cfg.cycles_to_seconds(self.cycles)
    }
}

/// What the timing scoreboard needs to know about one op that comes
/// from *executing* it rather than from its static description.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OpRecord {
    /// SRF words a kernel op moved (records consumed + outputs written).
    pub kernel_srf_words: u64,
    /// Records a store op wrote (its source stream's length).
    pub store_records: usize,
    /// Memory-system cost of this op, when the op's strip shard priced
    /// it in phase A — every memory op of a partitioned program. `None`
    /// leaves the pricing to the scoreboard's one shared cache, at issue
    /// time (the serial fallback).
    pub mem_cost: Option<MemOpCost>,
}

/// A Merrimac node ready to execute stream programs.
#[derive(Debug, Clone)]
pub struct StreamProcessor {
    pub cfg: MachineConfig,
    pub costs: OpCosts,
    pub policy: SdrPolicy,
    /// How many strips ahead of the oldest incomplete strip the memory
    /// unit may prefetch, counted in the scheduled strips' order, not in
    /// strip ids. One strip of lookahead is the double-buffering
    /// discipline of the paper's stream scheduler (Figure 5); unbounded
    /// lookahead can deadlock the SRF allocator, exactly the hazard
    /// static stream scheduling exists to prevent.
    pub strip_lookahead: usize,
    /// How the host executes a run: worker threads, and whether the
    /// strip partitioner's report goes to stderr before each run.
    /// Simulated results are bitwise-identical under every value.
    pub(crate) host: HostExec,
    /// Lane width of the batched tape. Results are bitwise-identical at
    /// either width.
    pub tape_batch: BatchWidth,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpState {
    Waiting,
    Running,
    Done,
}

impl StreamProcessor {
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            cfg,
            costs: OpCosts::default(),
            policy: SdrPolicy::Eager,
            strip_lookahead: 1,
            host: HostExec::default(),
            tape_batch: BatchWidth::default(),
        }
    }

    pub fn with_policy(mut self, policy: SdrPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set how the host executes runs (default: [`HostExec::default`]).
    pub fn with_host(mut self, host: HostExec) -> Self {
        self.host = host;
        self
    }

    /// Select the lane width of the batched tape (default: 8).
    pub fn with_batch_width(mut self, width: BatchWidth) -> Self {
        self.tape_batch = width;
        self
    }

    pub fn with_costs(mut self, costs: OpCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Execute `program` against `memory` on `self.host.threads` worker
    /// threads, mutating regions written by scatter-add/store ops, then
    /// time every op. See [`crate::parallel`] for the determinism
    /// contract: cycle numbers depend only on whether the program
    /// partitions, never on the thread count. Ineligible programs fall
    /// back to the serial scoreboard with a typed
    /// [`crate::FallbackReason`].
    pub fn run(&self, memory: &mut Memory, program: &StreamProgram) -> Result<RunReport, SimError> {
        let executed = self.execute(memory, program)?;
        self.time(memory, program, &executed, |_| true)
    }

    /// Preflight: reject programs the scoreboard can never complete,
    /// among them a kernel over its SRF floor
    /// ([`SimError::StripSrfOverflow`]).
    pub fn validate_program(&self, program: &StreamProgram) -> Result<(), SimError> {
        // Declared access intents must cover every op touching the
        // region: an op of a kind the intent forbids is a contract
        // violation, not a partitioner fallback.
        for lop in &program.ops {
            if let Some((region, kind)) = lop.op.region_use() {
                if let Some(intent) = program.declared_intent(region) {
                    if !intent.permits(kind) {
                        return Err(SimError::Program(format!(
                            "op '{}' performs a {kind} on region {} declared {intent}",
                            lop.label, region.0
                        )));
                    }
                }
            }
        }
        // Buffer ids are public integers, and every table indexed by one
        // (here, in the scoreboard, in the strips' buffer tables) relies
        // on this check. A kernel op names one buffer per kernel output,
        // or a stream would be dropped on the floor.
        let declared = program.buffers.len();
        for lop in &program.ops {
            let mut ids = produced_buffers(&lop.op)
                .into_iter()
                .chain(consumed_buffers(&lop.op));
            let mut wrong = ids
                .find(|b| b.0 >= declared)
                .map(|b| format!("names buffer {} of {declared} declared", b.0));
            if let StreamOp::Kernel {
                kernel, outputs, ..
            } = &lop.op
            {
                let (named, n) = (outputs.len(), kernel.ir.outputs.len());
                if named != n {
                    wrong = Some(format!(
                        "lists {named} buffers for its kernel's {n} outputs"
                    ));
                }
            }
            if let Some(wrong) = wrong {
                return Err(SimError::Program(format!("op '{}' {wrong}", lop.label)));
            }
        }
        if let Some(over) = srf_overflows(&self.cfg, program).into_iter().next() {
            let StreamOp::Kernel { iterations, .. } = over.op.op else {
                unreachable!("only kernel launches have an SRF floor")
            };
            return Err(SimError::StripSrfOverflow {
                label: over.op.label.clone(),
                strip_iterations: iterations,
                needed_words_per_cluster: over.needed,
                capacity_words_per_cluster: self.cfg.srf_words_per_cluster,
            });
        }
        Ok(())
    }

    /// The scoreboard: schedules the ops `keep` selects onto the memory
    /// pipeline and the cluster array. A pure function of those ops, the
    /// region layout of `memory` (addresses only) and their `records`
    /// (one per program op, in program order); the caller has validated
    /// the program. Dependencies are built over the kept ops alone, so
    /// the result is what the kept ops would schedule to as a program of
    /// their own.
    pub(crate) fn schedule(
        &self,
        memory: &Memory,
        program: &StreamProgram,
        records: &[OpRecord],
        keep: impl Fn(&LabelledOp) -> bool,
    ) -> Result<RunReport, SimError> {
        let n_bufs = program.buffers.len();
        if records.len() < program.ops.len() {
            return Err(SimError::Program(format!(
                "{} op records for a program of {} ops",
                records.len(),
                program.ops.len()
            )));
        }
        let (ops, recs): (Vec<&LabelledOp>, Vec<&OpRecord>) = program
            .ops
            .iter()
            .zip(records)
            .filter(|(lop, _)| keep(lop))
            .unzip();
        let n_ops = ops.len();
        let table = OpTable::new(program, &ops)?;

        // ---- dynamic state ----------------------------------------------
        let mut state = vec![OpState::Waiting; n_ops];
        // Every op below this index is done.
        let mut first_open = 0usize;
        // Ops in flight as `(op, end)`: one per unit, plus any zero-cost
        // ops started in the same cycle.
        let mut running: Vec<(usize, u64)> = Vec::new();
        // The prefetch window counts strips, not strip ids: `rank[i]` is
        // the position of op `i`'s strip among the distinct ids scheduled,
        // so a node's share of a program (ids 3, 11, 17, …) double-buffers
        // like 0, 1, 2. The oldest rank with open ops bounds the window.
        let mut strip_ids: Vec<usize> = ops.iter().map(|lop| lop.strip).collect();
        strip_ids.sort_unstable();
        strip_ids.dedup();
        let rank: Vec<usize> = ops
            .iter()
            .map(|lop| strip_ids.partition_point(|&s| s < lop.strip))
            .collect();
        let mut open_in_strip = vec![0usize; strip_ids.len()];
        for &r in &rank {
            open_in_strip[r] += 1;
        }
        let mut oldest_open = 0usize;
        let mut buffer_released = vec![false; n_bufs];
        let mut consumers_left = table.consumers.clone();
        let mut srf = SrfAllocator::new(&self.cfg);
        let srf_words = srf.capacity_words_per_cluster() * self.cfg.clusters;
        let mut sdr = SdrFile::new(self.cfg.stream_descriptor_registers);
        // SDRs held by memory op i awaiting a late (naive-policy) release:
        // maps buffer -> count of SDRs released when that buffer dies.
        let mut sdr_held_on_buffer: Vec<usize> = vec![0; n_bufs];
        let mut releases_at_completion: Vec<bool> = vec![false; n_ops];
        // Built at the first unpriced record: a partitioned program's
        // ops all arrive priced and need no cache here.
        let mut memsys: Option<MemSystem> = None;
        let mut cache_stats = CacheAccessStats::default();
        let mut timeline = Timeline::default();
        let mut counters = Counters::default();
        let mut phases = PhaseCycles::default();
        let mut mem_free_at: u64 = 0;
        let mut kernel_free_at: u64 = 0;
        let mut now: u64 = 0;
        let mut done_count = 0usize;
        let mut sdr_stall_cycles = 0u64;

        // Release a buffer's SRF space and any naive-policy SDRs parked
        // on it.
        macro_rules! release_buffer {
            ($b:expr) => {{
                let b: usize = $b;
                if !buffer_released[b] {
                    buffer_released[b] = true;
                    srf.release(b);
                    for _ in 0..sdr_held_on_buffer[b] {
                        sdr.release();
                    }
                    sdr_held_on_buffer[b] = 0;
                }
            }};
        }

        while done_count < n_ops {
            let mut started_something = false;
            let mut mem_blocked_on_sdr = false;

            while open_in_strip.get(oldest_open) == Some(&0) {
                oldest_open += 1;
            }
            let horizon = oldest_open.saturating_add(self.strip_lookahead);
            while state.get(first_open) == Some(&OpState::Done) {
                first_open += 1;
            }

            for i in first_open..n_ops {
                if state[i] != OpState::Waiting {
                    continue;
                }
                let (lop, rec) = (ops[i], recs[i]);
                if rank[i] > horizon {
                    continue;
                }
                let is_mem = lop.op.is_memory();
                let unit_free = if is_mem {
                    mem_free_at <= now
                } else {
                    kernel_free_at <= now
                };
                if !unit_free {
                    continue;
                }
                // Completion is processed as time advances, so a done
                // dependency ended at or before `now`.
                if !table.deps(i).iter().all(|&d| state[d] == OpState::Done) {
                    continue;
                }
                // Resources: SRF for produced buffers.
                let produced = table.produced(i);
                let mut allocated = 0;
                for &(b, words) in produced {
                    if words > srf_words {
                        return Err(SimError::SrfImpossible(format!(
                            "buffer {} needs {} words",
                            program.buffers[b].name, words
                        )));
                    }
                    if srf.alloc(b, words).is_err() {
                        break;
                    }
                    allocated += 1;
                }
                // SDR for memory ops, asked for only once the SRF fits. A
                // refused candidate gives its SRF space back, but the
                // allocator's peak has seen it.
                let srf_ok = allocated == produced.len();
                let sdr_ok = srf_ok && (!is_mem || sdr.try_alloc());
                if !sdr_ok {
                    for &(b, _) in &produced[..allocated] {
                        srf.release(b);
                    }
                    mem_blocked_on_sdr |= srf_ok;
                    continue;
                }

                // ---- start the op: cost ---------------------------------
                let (cost_cycles, unit) = match &lop.op {
                    StreamOp::Kernel {
                        kernel,
                        iterations,
                        max_cluster_iterations,
                        ..
                    } => {
                        let unroll = kernel.opt.unroll as u64;
                        if iterations % unroll != 0 {
                            return Err(SimError::Program(format!(
                                "kernel '{}': {} iterations not divisible by unroll {}",
                                lop.label, iterations, unroll
                            )));
                        }
                        let unrolled_iters = iterations / unroll;
                        counters.srf_refs += rec.kernel_srf_words;
                        counters.lrf_refs += kernel.stats.lrf_refs * unrolled_iters;
                        counters.hardware_flops += kernel.stats.hardware_flops * unrolled_iters;
                        counters.hardware_ops += kernel.stats.hardware_ops * unrolled_iters;
                        counters.kernel_iterations += iterations;
                        let c = crate::cluster::kernel_cost(
                            &self.cfg,
                            kernel,
                            *iterations,
                            *max_cluster_iterations,
                        );
                        (c.cycles, Unit::Kernel)
                    }
                    mem_op => {
                        // Unpriced ops meet the one shared, warm cache in
                        // issue order — which interleaves strips, so it
                        // cannot be precomputed in program order.
                        let cost = rec.mem_cost.unwrap_or_else(|| {
                            memsys
                                .get_or_insert_with(|| MemSystem::new(&self.cfg))
                                .op_cost(memory, mem_op, rec.store_records)
                        });
                        cache_stats.merge(&cost.cache);
                        counters.mem_refs += cost.words;
                        counters.dram_words += cost.dram_words;
                        counters.cache_hits += cost.cache.hits;
                        counters.cache_misses += cost.cache.misses;
                        (self.cfg.memory_op_startup + cost.cycles, Unit::Memory)
                    }
                };

                let end = now + cost_cycles;
                state[i] = OpState::Running;
                running.push((i, end));
                match &lop.op {
                    StreamOp::Gather { .. } => phases.gather += cost_cycles,
                    StreamOp::Load { .. } => phases.load += cost_cycles,
                    StreamOp::Kernel { .. } => phases.kernel += cost_cycles,
                    StreamOp::ScatterAdd { .. } => phases.scatter_add += cost_cycles,
                    StreamOp::Store { .. } => phases.store += cost_cycles,
                }
                timeline.record(unit, now, end, &lop.label, lop.strip);
                match unit {
                    Unit::Memory => {
                        mem_free_at = end;
                        // SDR retirement policy: the naive allocator parks
                        // the register on the produced SRF stream and only
                        // frees it when that stream dies; the eager one
                        // (and ops with no produced stream) free it at
                        // operation completion.
                        match produced.first() {
                            Some(&(b, _)) if self.policy == SdrPolicy::Naive => {
                                sdr_held_on_buffer[b] += 1
                            }
                            _ => releases_at_completion[i] = true,
                        }
                    }
                    Unit::Kernel => kernel_free_at = end,
                }
                started_something = true;
                break; // rescan from the top (unit states changed)
            }

            if started_something {
                continue;
            }

            // Advance time to the next completion.
            let Some(next) = running.iter().map(|&(_, end)| end).min() else {
                return Err(SimError::Deadlock(format!(
                    "{} of {} ops done, nothing running",
                    done_count, n_ops
                )));
            };
            if mem_blocked_on_sdr && mem_free_at <= now {
                sdr_stall_cycles += next - now;
            }
            now = next;
            // Complete everything ending at or before `now`, in op order.
            running.sort_unstable();
            while let Some(at) = running.iter().position(|&(_, end)| end <= now) {
                let (i, _) = running.remove(at);
                if releases_at_completion[i] {
                    sdr.release();
                }
                state[i] = OpState::Done;
                done_count += 1;
                open_in_strip[rank[i]] -= 1;
                // Consumption bookkeeping: each buffer this op consumed
                // loses one consumer; at zero the buffer dies.
                for &b in table.consumed(i) {
                    consumers_left[b] -= 1;
                    if consumers_left[b] == 0 {
                        release_buffer!(b);
                    }
                }
                // Buffers produced but never consumed die immediately.
                for &(b, _) in table.produced(i) {
                    if table.consumers[b] == 0 {
                        release_buffer!(b);
                    }
                }
            }
        }

        Ok(RunReport {
            cycles: timeline.makespan(),
            timeline,
            counters,
            phases,
            sdr_peak: sdr.peak(),
            srf_peak_words_per_cluster: srf.peak_words_per_cluster(),
            sdr_stall_cycles,
            cache_stats,
            // `StreamProcessor::time` fills these in from the execution.
            partition: PartitionSummary::default(),
            host: HostPhases::default(),
        })
    }
}

/// What the scoreboard reads of a program's static shape, built once
/// per schedule: each op's produced buffers (with their worst-case SRF
/// words), consumed buffers and dependencies, as ranges of three flat
/// arrays.
struct OpTable {
    /// `(buffer, capacity words)` of every produced buffer, op by op.
    produced: Vec<(usize, usize)>,
    consumed: Vec<usize>,
    deps: Vec<usize>,
    /// Where each op's slice of `[produced, consumed, deps]` starts; one
    /// more entry than ops, so op `i` owns `bounds[i]..bounds[i + 1]`.
    bounds: Vec<[usize; 3]>,
    /// Consumer ops per buffer.
    consumers: Vec<usize>,
}

impl OpTable {
    /// The table of `ops`, a subset of `program`'s in program order; op
    /// numbers are positions in `ops`.
    fn new(program: &StreamProgram, ops: &[&LabelledOp]) -> Result<Self, SimError> {
        let n_bufs = program.buffers.len();
        let mut t = OpTable {
            produced: Vec::new(),
            consumed: Vec::new(),
            deps: Vec::new(),
            bounds: vec![[0; 3]],
            consumers: vec![0; n_bufs],
        };
        // Producer of each buffer.
        let mut producer: Vec<Option<usize>> = vec![None; n_bufs];
        for (i, lop) in ops.iter().enumerate() {
            for b in produced_buffers(&lop.op) {
                if producer[b.0].is_some() {
                    return Err(SimError::Program(format!(
                        "buffer {} has two producers",
                        program.buffers[b.0].name
                    )));
                }
                producer[b.0] = Some(i);
            }
        }
        // Region hazards. An op must follow every earlier op that writes
        // a region it touches and every earlier op that reads a region it
        // writes; depending on the region's last writer and the reads
        // since is enough, because that writer could only issue once
        // everything before it on the region had completed.
        #[derive(Default)]
        struct RegionOrder {
            last_writer: Option<usize>,
            reads_since: Vec<usize>,
        }
        let mut regions: BTreeMap<usize, RegionOrder> = BTreeMap::new();
        for (i, lop) in ops.iter().enumerate() {
            for b in produced_buffers(&lop.op) {
                let words = buffer_capacity_words(program, &lop.op, b);
                t.produced.push((b.0, words));
            }
            for b in consumed_buffers(&lop.op) {
                let Some(p) = producer[b.0] else {
                    return Err(SimError::Program(format!(
                        "buffer {} consumed but never produced",
                        program.buffers[b.0].name
                    )));
                };
                t.consumed.push(b.0);
                t.consumers[b.0] += 1;
                t.deps.push(p);
            }
            if let Some((region, kind)) = lop.op.region_use() {
                let order = regions.entry(region.0).or_default();
                t.deps.extend(order.last_writer);
                if kind == AccessKind::Read {
                    order.reads_since.push(i);
                } else {
                    t.deps.append(&mut order.reads_since);
                    order.last_writer = Some(i);
                }
            }
            t.bounds
                .push([t.produced.len(), t.consumed.len(), t.deps.len()]);
        }
        Ok(t)
    }

    fn span(&self, op: usize, array: usize) -> std::ops::Range<usize> {
        self.bounds[op][array]..self.bounds[op + 1][array]
    }

    fn produced(&self, op: usize) -> &[(usize, usize)] {
        &self.produced[self.span(op, 0)]
    }

    fn consumed(&self, op: usize) -> &[usize] {
        &self.consumed[self.span(op, 1)]
    }

    fn deps(&self, op: usize) -> &[usize] {
        &self.deps[self.span(op, 2)]
    }
}

/// Buffers an op produces.
pub fn produced_buffers(op: &StreamOp) -> Vec<BufferId> {
    match op {
        StreamOp::Gather { dst, .. } | StreamOp::Load { dst, .. } => vec![*dst],
        StreamOp::Kernel { outputs, .. } => outputs.clone(),
        _ => vec![],
    }
}

/// Buffers an op consumes.
pub(crate) fn consumed_buffers(op: &StreamOp) -> Vec<BufferId> {
    match op {
        StreamOp::Kernel { inputs, .. } => inputs.clone(),
        StreamOp::ScatterAdd { src, .. } | StreamOp::Store { src, .. } => vec![*src],
        _ => vec![],
    }
}

/// A kernel launch over its SRF floor: the words per cluster it needs,
/// and its distinct buffers, first use first, with their worst-case words.
pub struct KernelOverSrf<'p> {
    pub op: &'p LabelledOp,
    pub needed: usize,
    pub buffers: Vec<(BufferId, usize)>,
}

/// The SRF floor, shared by [`StreamProcessor::validate_program`] and the
/// analysis preflight: a kernel issues only once its inputs are live and
/// its outputs allocated, so it needs the sum of its distinct buffers'
/// shares (each producer's worst-case words spread across clusters).
pub fn srf_overflows<'p>(
    cfg: &MachineConfig,
    program: &'p StreamProgram,
) -> Vec<KernelOverSrf<'p>> {
    // Undeclared ids are skipped: `validate_program` rejects them first.
    let mut words = vec![0usize; program.buffers.len()];
    for lop in &program.ops {
        for b in produced_buffers(&lop.op) {
            if let Some(w) = words.get_mut(b.0) {
                *w = buffer_capacity_words(program, &lop.op, b);
            }
        }
    }
    let mut overflows = Vec::new();
    for lop in &program.ops {
        let StreamOp::Kernel {
            inputs, outputs, ..
        } = &lop.op
        else {
            continue;
        };
        let mut buffers: Vec<(BufferId, usize)> = Vec::new();
        for &b in inputs.iter().chain(outputs) {
            let Some(&w) = words.get(b.0) else { continue };
            if buffers.iter().all(|&(seen, _)| seen != b) {
                buffers.push((b, w));
            }
        }
        let needed = buffers.iter().map(|(_, w)| w.div_ceil(cfg.clusters)).sum();
        if needed > cfg.srf_words_per_cluster {
            overflows.push(KernelOverSrf {
                op: lop,
                needed,
                buffers,
            });
        }
    }
    overflows
}

/// Worst-case SRF words a produced buffer can hold.
pub fn buffer_capacity_words(program: &StreamProgram, op: &StreamOp, b: BufferId) -> usize {
    match op {
        StreamOp::Gather {
            indices,
            record_len,
            ..
        } => indices.len() * record_len,
        StreamOp::Load {
            records,
            record_len,
            ..
        } => records * record_len,
        StreamOp::Kernel {
            kernel,
            iterations,
            outputs,
            ..
        } => {
            let record_len = program.buffers[b.0].record_len;
            // Writes per unrolled iteration to this output stream.
            let out_idx = outputs
                .iter()
                .position(|o| *o == b)
                .expect("output belongs to kernel");
            let writes = kernel
                .ir
                .writes
                .iter()
                .filter(|w| w.stream as usize == out_idx)
                .count()
                .max(1);
            let unrolled = (*iterations as usize).div_ceil(kernel.opt.unroll as usize);
            unrolled * writes * record_len
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelc::{CompiledKernel, KernelOpt};
    use crate::program::ProgramBuilder;
    use merrimac_kernel::ir::StreamMode;
    use merrimac_kernel::KernelBuilder;
    use std::sync::Arc;

    /// y = x*x kernel.
    fn square_kernel(cfg: &MachineConfig, opt: KernelOpt) -> Arc<CompiledKernel> {
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
            opt,
        ))
    }

    fn run_square(n: usize) -> (Vec<f64>, RunReport) {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let src = mem.region("xs", xs);
        let out = mem.region("ys", vec![0.0; n]);
        let k = square_kernel(&cfg, KernelOpt::default());
        let mut pb = ProgramBuilder::new();
        let bx = pb.buffer("x", 1);
        let by = pb.buffer("y", 1);
        pb.load("load x", src, 1, 0, n, bx);
        pb.kernel(
            "square",
            k,
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.store("store y", by, out, 1, 0);
        let program = pb.build();
        let proc = StreamProcessor::new(cfg);
        let report = proc.run(&mut mem, &program).expect("runs");
        (mem.data(out).to_vec(), report)
    }

    #[test]
    fn functional_execution_is_exact() {
        let (ys, _) = run_square(100);
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(*y, (i * i) as f64);
        }
    }

    #[test]
    fn counters_track_traffic() {
        let (_, r) = run_square(64);
        assert_eq!(r.counters.kernel_iterations, 64);
        // load 64 + store 64 words.
        assert_eq!(r.counters.mem_refs, 128);
        // SRF references count the kernel-side stream I/O (64 in + 64
        // out); the memory-transfer side is the MEM count.
        assert_eq!(r.counters.srf_refs, 128);
        assert!(r.counters.lrf_refs > 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn phase_cycles_partition_unit_busy_time() {
        let (_, r) = run_square(256);
        assert_eq!(
            r.phases.memory(),
            r.timeline.busy(crate::timeline::Unit::Memory),
            "memory phases must sum to the memory unit's busy time"
        );
        assert_eq!(
            r.phases.kernel,
            r.timeline.busy(crate::timeline::Unit::Kernel)
        );
        assert!(r.phases.load > 0 && r.phases.store > 0 && r.phases.kernel > 0);
        assert_eq!(r.phases.gather, 0);
        assert_eq!(r.phases.scatter_add, 0);
    }

    #[test]
    fn oversized_kernel_working_set_is_rejected_up_front() {
        // One kernel whose input + output streams exceed the whole SRF:
        // previously this wedged the scoreboard; now the preflight names
        // the strip size.
        let cfg = MachineConfig::default();
        let capacity = cfg.srf_words_per_cluster * cfg.clusters;
        let n = capacity / 2 + cfg.clusters; // in + out > capacity
        let mut mem = Memory::new();
        let src = mem.region("xs", vec![1.0; n]);
        let out = mem.region("ys", vec![0.0; n]);
        let k = square_kernel(&cfg, KernelOpt::default());
        let mut pb = ProgramBuilder::new();
        let bx = pb.buffer("x", 1);
        let by = pb.buffer("y", 1);
        pb.load("load x", src, 1, 0, n, bx);
        pb.kernel(
            "square huge",
            k,
            vec![bx],
            vec![by],
            vec![],
            n as u64,
            (n as u64).div_ceil(16),
        );
        pb.store("store y", by, out, 1, 0);
        let program = pb.build();
        let err = StreamProcessor::new(cfg)
            .run(&mut mem, &program)
            .expect_err("must be rejected");
        match &err {
            SimError::StripSrfOverflow {
                strip_iterations,
                needed_words_per_cluster,
                capacity_words_per_cluster,
                ..
            } => {
                assert_eq!(*strip_iterations, n as u64);
                assert!(needed_words_per_cluster > capacity_words_per_cluster);
            }
            other => panic!("expected StripSrfOverflow, got {other:?}"),
        }
        // The diagnostic must name the strip size.
        assert!(err.to_string().contains(&n.to_string()), "{err}");
    }

    /// The load → square → store program over 8 words, its buffers and
    /// ops left open for a test to bend.
    fn square_program() -> (Memory, StreamProgram) {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let src = mem.region("xs", vec![1.0; 8]);
        let out = mem.region("ys", vec![0.0; 8]);
        let mut pb = ProgramBuilder::new();
        let (bx, by) = (pb.buffer("x", 1), pb.buffer("y", 1));
        pb.load("load x", src, 1, 0, 8, bx);
        let k = square_kernel(&cfg, KernelOpt::default());
        pb.kernel("square", k, vec![bx], vec![by], vec![], 8, 1);
        pb.store("store y", by, out, 1, 0);
        (mem, pb.build())
    }

    #[test]
    fn out_of_range_buffer_id_is_a_program_error_naming_the_op() {
        // `BufferId` is a public integer: a hand-built id past the
        // declared buffers used to index out of bounds in this very
        // preflight, wherever in the program it appears.
        for op in 0..3 {
            let (mut mem, mut program) = square_program();
            let stray = crate::program::BufferId(7);
            match &mut program.ops[op].op {
                StreamOp::Load { dst, .. } => *dst = stray,
                StreamOp::Kernel { inputs, .. } => inputs[0] = stray,
                StreamOp::Store { src, .. } => *src = stray,
                other => panic!("unexpected {}", other.mnemonic()),
            }
            let err = StreamProcessor::new(MachineConfig::default())
                .run(&mut mem, &program)
                .expect_err("must be rejected");
            assert!(matches!(err, SimError::Program(_)), "{err}");
            let label = &program.ops[op].label;
            assert!(err.to_string().contains(label.as_str()), "{err}");
            assert!(err.to_string().contains("buffer 7"), "{err}");
        }
    }

    #[test]
    fn kernel_op_must_name_a_buffer_per_kernel_output() {
        // Fewer buffers than the kernel has outputs used to drop the
        // unnamed streams silently; more would name buffers nothing
        // fills.
        for outputs in [vec![], vec![1, 1]] {
            let (mut mem, mut program) = square_program();
            let StreamOp::Kernel { outputs: o, .. } = &mut program.ops[1].op else {
                panic!("op 1 is the kernel");
            };
            *o = outputs.into_iter().map(crate::program::BufferId).collect();
            let err = StreamProcessor::new(MachineConfig::default())
                .run(&mut mem, &program)
                .expect_err("must be rejected");
            assert!(matches!(err, SimError::Program(_)), "{err}");
            assert!(err.to_string().contains("'square'"), "{err}");
            assert!(err.to_string().contains("output"), "{err}");
        }
    }

    #[test]
    fn scoreboard_rejects_a_short_record_slice() {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let vals = mem.region("vals", vec![1.0; 4]);
        let mut pb = ProgramBuilder::new();
        let bv = pb.buffer("v", 1);
        pb.load("load", vals, 1, 0, 4, bv);
        let err = StreamProcessor::new(cfg)
            .schedule(&mem, &pb.build(), &[], |_| true)
            .expect_err("one op, no record");
        assert!(matches!(err, SimError::Program(_)), "{err}");
    }

    #[test]
    fn scatter_add_accumulates() {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let vals = mem.region("vals", vec![1.0, 2.0, 3.0, 4.0]);
        let acc = mem.region("acc", vec![0.0; 2]);
        let mut pb = ProgramBuilder::new();
        let bv = pb.buffer("v", 1);
        pb.load("load", vals, 1, 0, 4, bv);
        pb.scatter_add("scatter", bv, acc, 1, Arc::new(vec![0, 1, 0, 1]));
        let program = pb.build();
        StreamProcessor::new(cfg).run(&mut mem, &program).unwrap();
        assert_eq!(mem.data(acc), &[4.0, 6.0]);
    }

    /// gather → square → store over `n` words per strip, one strip per
    /// entry of `ids` (its strip id), labelled by position.
    fn pipelined_program(cfg: &MachineConfig, n: usize, ids: &[usize]) -> (Memory, StreamProgram) {
        let k = square_kernel(cfg, KernelOpt::default());
        let mut mem = Memory::new();
        let xs = mem.region("xs", (0..ids.len() * n).map(|i| i as f64).collect());
        let out = mem.region("out", vec![0.0; ids.len() * n]);
        let mut pb = ProgramBuilder::new();
        for (pos, &strip) in ids.iter().enumerate() {
            pb.strip(strip);
            let bx = pb.buffer(&format!("x{pos}"), 1);
            let by = pb.buffer(&format!("y{pos}"), 1);
            let idx: Vec<u32> = (0..n as u32).map(|i| i + (pos * n) as u32).collect();
            pb.gather(format!("gather {pos}"), xs, 1, Arc::new(idx), bx);
            pb.kernel(
                format!("kernel {pos}"),
                k.clone(),
                vec![bx],
                vec![by],
                vec![],
                n as u64,
                (n as u64).div_ceil(16),
            );
            pb.store(format!("store {pos}"), by, out, 1, pos * n);
        }
        (mem, pb.build())
    }

    #[test]
    fn strip_pipelining_overlaps_memory_and_compute() {
        // Two strips: gather(1) should overlap kernel(0).
        let cfg = MachineConfig::default();
        let n = 4096usize;
        let (mut mem, program) = pipelined_program(&cfg, n, &[0, 1]);
        let r = StreamProcessor::new(cfg).run(&mut mem, &program).unwrap();
        assert!(
            r.timeline.overlap() > 0,
            "expected memory/compute overlap, got none:\n{}",
            r.timeline.render(24)
        );
        // Functional correctness across strips.
        use crate::program::RegionId;
        assert_eq!(
            mem.data(RegionId(1))[2 * n - 1],
            ((2 * n - 1) * (2 * n - 1)) as f64
        );
    }

    #[test]
    fn the_prefetch_window_counts_strips_not_strip_ids() {
        // A node's share of a multi-node step keeps canonical strip ids:
        // gaps between them must not switch the double-buffering off.
        let cfg = MachineConfig::default();
        let run = |ids: &[usize]| {
            let (mut mem, program) = pipelined_program(&cfg, 4096, ids);
            let proc = StreamProcessor::new(cfg.clone());
            proc.run(&mut mem, &program).unwrap()
        };
        let (dense, sparse) = (run(&[0, 1, 2]), run(&[0, 5, 9]));
        assert!(dense.timeline.overlap() > 0);
        assert_eq!(dense.cycles, sparse.cycles);
        assert_eq!(dense.phases, sparse.phases);
        let spans = |r: &RunReport| -> Vec<_> {
            let spans = r.timeline.intervals.iter();
            spans
                .map(|i| (i.unit, i.start, i.end, i.label.clone()))
                .collect()
        };
        assert_eq!(spans(&dense), spans(&sparse));
        // Ids dense from another base are the same window as before.
        assert_eq!(spans(&dense), spans(&run(&[7, 8, 9])));
    }

    #[test]
    fn naive_sdr_policy_hurts_overlap_when_registers_scarce() {
        let cfg = MachineConfig {
            stream_descriptor_registers: 2,
            ..MachineConfig::default()
        };
        let build = || pipelined_program(&cfg, 4096, &[0, 1, 2, 3, 4, 5]);
        let (mut m1, p1) = build();
        let naive = StreamProcessor::new(cfg.clone())
            .with_policy(SdrPolicy::Naive)
            .run(&mut m1, &p1)
            .unwrap();
        let (mut m2, p2) = build();
        let eager = StreamProcessor::new(cfg.clone())
            .with_policy(SdrPolicy::Eager)
            .run(&mut m2, &p2)
            .unwrap();
        assert!(
            eager.cycles <= naive.cycles,
            "eager {} should not exceed naive {}",
            eager.cycles,
            naive.cycles
        );
        // Both policies must compute identical results.
        use crate::program::RegionId;
        assert_eq!(m1.data(RegionId(1)), m2.data(RegionId(1)));
    }
}
