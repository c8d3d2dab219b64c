//! Batched structure-of-arrays execution of a compiled tape — the one
//! loop that runs a [`CompiledTape`].
//!
//! The tape ([`crate::tape`]) retired the interpreter's per-iteration
//! graph walk; executed one iteration at a time it still dispatches one
//! opcode per iteration. This module executes it over batches of `B`
//! iterations (16 by default, or 8) held in `[f64; B]` lane arrays, so
//! each op becomes one tight loop the compiler can autovectorize and the
//! per-op dispatch cost is amortized over the whole batch — the same
//! shape MD-Bench gives its SIMD force kernels, and a faithful host-side
//! echo of Merrimac running one kernel across parallel cluster lanes.
//!
//! Bitwise identity with the interpreter is the hard constraint. It is
//! preserved by a plan built at compile time ([`BatchPlan`]) in one of
//! two shapes. A **staged** plan partitions the tape into stages, each
//! reading only what an earlier stage (or, in tape order, its own) has
//! written for every lane. A batch runs:
//!
//! 1. **`vec_pre`** — ops on this iteration's own stream records,
//!    constants and params: lane-independent, so vectorized. For the
//!    every-iteration StreamMD variants this is nearly the entire tape.
//! 2. **`pops`** — the conditional reads, every one of whose pop
//!    predicates and fallbacks is a `vec_pre` value. Which lanes pop is
//!    then known for the whole batch: one lane-order scan walks only
//!    each pop slot's *leading* read — iteration-major, tape order within
//!    an iteration, so each pop sees the cursor the interpreter's would
//!    and the first dry one is the one it blames — and records the
//!    offset of the record each live lane pops. Each read then gathers
//!    its field, or its fallback, op-major across the lanes; a batch in
//!    which no lane pops copies the fallbacks whole. This is the
//!    compress side of the paper's conditional streams; it advances
//!    integers and copies words, so it is exact.
//! 3. **`vec_pop`** — vectorized ops on the popped values.
//! 4. **`latches`** — a register whose one update is
//!    `Sel(p, x, ReadReg(r))`, `p` and `x` known by now, never computes:
//!    lane `l` of its read holds the `x` of the last earlier lane with
//!    `p ≠ 0`, or the value carried into the batch. That forward fill is
//!    moves only, so no bit can change; the `Sel` itself stays an
//!    ordinary vector op on the filled read.
//! 5. **`vec_latch`** — vectorized ops on the latched values: for
//!    `variable`, the whole interaction.
//! 6. **`sums`** — a register whose one update is `Add(x, base)` (either
//!    operand order), `base` its own read or `Sel(p, k, ReadReg(r))`,
//!    `x`, `p` and `k` known by now: one loop over the lanes, with no
//!    dispatch, writes its reads, the `Sel` and the `Add` — the same
//!    `f64` expressions as the interpreter, in its operand order.
//! 7. **`vec_post`** — vectorized ops on the summed values.
//!
//! A plan is staged only when a latch or a sum carries every register
//! and every conditional read resolves; then nothing is left to run lane
//! by lane. (A register no update changes is no register by then:
//! [`CompiledTape::compile`] folds its reads into constants.) Any other
//! tape — a register of another shape, a pop whose predicate or fallback
//! is lane-coupled, an unrolled register chain — has a **serial** plan:
//! the whole tape in order at one lane, register reads first, pops
//! inline, register updates last, as the interpreter walks an
//! iteration. [`CompiledTape::run_views`] runs a serial plan at one lane
//! whatever the width asked for.
//!
//! A staged plan's **lane file is register-allocated**, as a Merrimac
//! cluster's working set is in its LRFs: interval colouring over the
//! plan's execution order (stream reads, stages, writes) gives a value a
//! lane array, or slot, from its write to its last read only, never one
//! of its op's operands'; constants and params keep theirs (`fixed` at
//! L = 8: 1,829 values, 219 slots). A serial plan's slots are node ids.
//!
//! Every op still computes the same `f64` expression on the same
//! operand values, so reordering between stages cannot change a single
//! bit. Writes to fixed offsets drain slot by slot; an output with a
//! conditional write drains lane-major (iteration order), which expands
//! conditionally-written records in exactly the interpreter's append
//! order. A launch's last `iterations % B` iterations are one masked
//! batch: the vector stages compute every lane, while the stream reads,
//! the pop scan, the latch and sum fills, the writes and the cursors
//! see only the live ones. [`CompiledTape::run`] is that loop at one
//! lane: there is no second iteration body. An every-iteration stream
//! that cannot cover the launch bounds the loop and is blamed once,
//! after it. The loop is built portably and, picked per launch where the
//! host has it, for AVX2 (not FMA: a fused multiply-add rounds once).
//! `tests/tape_equivalence.rs` and `tests/conditional_batch.rs` pin all
//! of this differentially against the interpreter.

use std::fmt;

use crate::interp::{InterpError, InterpOutput, StreamData, StreamView};
use crate::tape::{mask, Code, CompiledTape, TapeOp, APPEND, NO_COND};

/// Lane count of the batched SoA engine: 8 or 16 iterations per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchWidth {
    /// 8 lanes: a lane array is four SSE2 registers, two AVX2 ones.
    W8,
    /// 16 lanes — the default: half the dispatch per iteration, and the
    /// packed lane file stays in L1 (28 KB for the largest kernel).
    #[default]
    W16,
}

impl BatchWidth {
    /// Iterations per batch.
    pub fn lanes(self) -> usize {
        match self {
            BatchWidth::W8 => 8,
            BatchWidth::W16 => 16,
        }
    }
}

impl std::fmt::Display for BatchWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

/// A register that only ever latches: its one update is
/// `Sel(pred, fresh, ReadReg(reg))`.
#[derive(Debug, Clone)]
pub(crate) struct Latch {
    pub(crate) reg: u32,
    /// Every `ReadReg(reg)` slot.
    pub(crate) reads: Vec<u32>,
    pub(crate) pred: u32,
    pub(crate) fresh: u32,
}

/// A register that only ever accumulates: its one update, slot `add`,
/// is `Add(x, base)` (`x_first`) or `Add(base, x)`, `base` one of its
/// `reads` or `Sel(p, k, ReadReg(reg))` with `reset` = `(p, k)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sum {
    pub(crate) reg: u32,
    pub(crate) reads: Vec<u32>,
    pub(crate) x: u32,
    pub(crate) base: u32,
    pub(crate) reset: Option<(u32, u32)>,
    pub(crate) add: u32,
    pub(crate) x_first: bool,
}

/// Compile-time plan of a tape's execution (see the module docs):
/// staged, its ops partitioned in execution order, or serial, listing
/// nothing. Built once in [`CompiledTape::compile`] and cached on the
/// tape, so every launch reuses the analysis.
#[derive(Debug, Clone, Default)]
pub struct BatchPlan {
    /// The whole tape runs in order at one lane.
    pub(crate) serial: bool,
    pub(crate) vec_pre: Vec<TapeOp>,
    /// The conditional reads, in tape order.
    pub(crate) pops: Vec<TapeOp>,
    pub(crate) vec_pop: Vec<TapeOp>,
    pub(crate) latches: Vec<Latch>,
    pub(crate) vec_latch: Vec<TapeOp>,
    pub(crate) sums: Vec<Sum>,
    pub(crate) vec_post: Vec<TapeOp>,
    /// Node id → lane slot (the identity when serial), of `slots`.
    pub(crate) slot: Vec<u32>,
    pub(crate) slots: usize,
    /// The vector stages through `slot`: the ops a batch runs.
    pub(crate) lane_ops: [Vec<TapeOp>; 4],
}

/// The stage from which a slot holds its value for every lane of a
/// batch: at once, after the pop scan, after the latch fill, after the
/// sum scan, or only lane by lane — in a serial plan.
const PRE: u8 = 0;
const POP: u8 = 1;
const LATCH: u8 = 2;
const SUM: u8 = 3;
const COUPLED: u8 = 4;

impl BatchPlan {
    pub(crate) fn analyze(tape: &CompiledTape) -> Self {
        let n = tape.num_nodes;
        // A slot is lane-coupled when its value is not a pure function
        // of this iteration's own stream records: register reads carry
        // state from earlier lanes, conditional reads depend on the
        // shared pop cursor. Coupling propagates forward through use —
        // but only from the pops and registers that do not resolve
        // without arithmetic, which the next two steps take out.
        let mut stage = vec![PRE; n];
        for &(dst, _) in &tape.reg_reads {
            stage[dst as usize] = COUPLED;
        }
        let mut resolved = vec![false; tape.input_every_iter.len()];
        let propagate = |stage: &mut [u8], resolved: &[bool]| {
            for op in &tape.ops {
                stage[op.dst as usize] = if op.code != Code::CondRead {
                    let args = tape.operands(op).into_iter().flatten();
                    args.map(|a| stage[a as usize]).max().unwrap_or(PRE)
                } else if resolved[tape.cond_reads[op.a as usize].stream as usize] {
                    POP
                } else {
                    COUPLED
                };
            }
        };
        propagate(&mut stage, &resolved);
        // A stream resolves when every pop on it is decided by `vec_pre`
        // values alone.
        resolved.fill(true);
        for cr in &tape.cond_reads {
            if stage[cr.pred as usize] != PRE || stage[cr.fallback as usize] != PRE {
                resolved[cr.stream as usize] = false;
            }
        }
        propagate(&mut stage, &resolved);
        let mut plan = BatchPlan::default();
        for &(reg, v) in &tape.reg_updates {
            let sel = tape.ops.iter().find(|op| {
                (op.dst, op.code) == (v, Code::Sel)
                    && stage[op.a as usize] <= POP
                    && stage[op.b as usize] <= POP
                    && tape.reg_reads.contains(&(op.c, reg))
                    && tape.reg_updates.iter().filter(|u| u.0 == reg).count() == 1
            });
            if let Some(op) = sel {
                let reads = tape.reg_reads.iter().filter(|rr| rr.1 == reg);
                let reads: Vec<u32> = reads.map(|rr| rr.0).collect();
                for &slot in &reads {
                    stage[slot as usize] = LATCH;
                }
                let (pred, fresh) = (op.a, op.b);
                plan.latches.push(Latch {
                    reg,
                    reads,
                    pred,
                    fresh,
                });
            }
        }
        propagate(&mut stage, &resolved);
        // A running sum adds a value known after the latch fill to its
        // own read, or to a select between it and a reset known as early.
        let early = |slot: u32| stage[slot as usize] <= LATCH;
        let sums = tape
            .reg_updates
            .iter()
            .filter_map(|u| tape.sum_of(u.0, early));
        plan.sums = sums.collect();
        // Compile folded every register the tape reads but never changes,
        // so a register to carry is one the tape updates.
        let carried = tape.reg_updates.iter().all(|u| plan.carries(u.0));
        if !(carried && resolved.iter().all(|&r| r)) {
            return BatchPlan {
                serial: true,
                ..BatchPlan::default()
            };
        }
        let mut summed = vec![false; n];
        for sum in &plan.sums {
            summed[sum.add as usize] = true;
            summed[sum.base as usize] |= sum.reset.is_some();
            for &slot in &sum.reads {
                stage[slot as usize] = SUM;
            }
        }
        propagate(&mut stage, &resolved);
        for op in tape.ops.iter().filter(|op| !summed[op.dst as usize]) {
            match stage[op.dst as usize] {
                PRE => &mut plan.vec_pre,
                POP if op.code == Code::CondRead => &mut plan.pops,
                POP => &mut plan.vec_pop,
                LATCH => &mut plan.vec_latch,
                _ => &mut plan.vec_post,
            }
            .push(*op);
        }
        plan
    }

    /// Whether a latch or a sum carries `reg`.
    fn carries(&self, reg: u32) -> bool {
        self.latches.iter().any(|la| la.reg == reg) || self.sums.iter().any(|s| s.reg == reg)
    }

    /// `tape`'s lane slots by liveness, and its vector ops through them.
    pub(crate) fn pack(tape: &CompiledTape) -> (Vec<u32>, usize, [Vec<TapeOp>; 4]) {
        let n = tape.num_nodes;
        if tape.batch.serial {
            return ((0..n as u32).collect(), n, Default::default());
        }
        // Step (from 1) of each value's last read, 0 if it has none,
        // `u32::MAX` once freed.
        let (mut last, mut step) = (vec![0u32; n], 0);
        tape.walk(|reads, _| {
            step += 1;
            reads.iter().for_each(|&r| last[r as usize] = step);
        });
        let (mut slot, mut slots) = (vec![u32::MAX; n], 0u32);
        let pinned = tape.const_inits.iter().map(|c| c.0);
        for x in pinned.chain(tape.param_inits.iter().map(|p| p.0)) {
            (slot[x as usize], last[x as usize], slots) = (slots, u32::MAX, slots + 1);
        }
        let (mut free, mut step) = (Vec::new(), 0);
        tape.walk(|reads, writes| {
            step += 1;
            // Only an unsound plan reads a value before writing it.
            for &w in writes.iter().chain(reads) {
                if slot[w as usize] == u32::MAX {
                    slot[w as usize] = free.pop().unwrap_or_else(|| {
                        slots += 1;
                        slots - 1
                    });
                }
            }
            // What this step reads for the last time, or writes for no
            // one, is free from the next step on.
            for &x in reads.iter().chain(writes) {
                if last[x as usize] <= step {
                    last[x as usize] = u32::MAX;
                    free.push(slot[x as usize]);
                }
            }
        });
        let packed = |&op: &TapeOp| {
            let mut op = op;
            for x in [&mut op.dst, &mut op.a, &mut op.b, &mut op.c] {
                *x = slot[*x as usize];
            }
            op
        };
        let lists = tape
            .stages()
            .map(|(_, _, ops)| ops.iter().map(packed).collect());
        let [pre, _, pop, latch, post] = lists;
        (slot, slots as usize, [pre, pop, latch, post])
    }
}

/// One violated invariant of the batch plan, as found by
/// [`CompiledTape::audit_batch_plan`]. A correct [`BatchPlan`] never
/// produces any of these; each variant names the op slot or register
/// that breaks the contract the batch engine's correctness proof rests
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPlanViolation {
    /// A tape op's destination slot appears in no phase: the batch
    /// engine would simply never compute it.
    MissingOp { dst: u32 },
    /// A destination slot appears in more than one phase (or twice in
    /// one): the op would execute multiple times per iteration.
    DuplicateOp { dst: u32 },
    /// A conditional read in a vector stage, where no pop cursor
    /// resolves in lane order, or an arithmetic op in the pop scan — or
    /// any op listed beside a serial plan, which runs the tape whole.
    MisplacedOp { dst: u32, phase: &'static str },
    /// An op reads a slot no earlier stage (nor, in tape order, its
    /// own) has written for its lane: a `vec_pre` op or a pop's
    /// predicate or fallback reading lane-coupled state, an op ahead of
    /// the latch fill reading a latched value, any op or write reading a
    /// register no latch or sum carries. In the `writes` phase `dst` is
    /// the write's index.
    ReadsUnready {
        phase: &'static str,
        dst: u32,
        arg: u32,
    },
    /// A latch whose register's one update is not
    /// `Sel(pred, fresh, ReadReg(reg))` with `pred` and `fresh` written
    /// before the fill — a forward fill would not compute it — or a
    /// latch beside a serial plan.
    NotALatch { reg: u32 },
    /// A sum whose register's one update is not `Add(x, base)` over one
    /// of its reads, or over `Sel(p, k, ReadReg(reg))`, with `x`, `p`
    /// and `k` written before the sum scan — or whose reads are not all
    /// listed, or whose `Sel` or `Add` is also left in a stage list, or
    /// which sits beside a serial plan.
    NotASum { reg: u32 },
    /// A staged plan's updated register that no latch or sum carries:
    /// its reads and updates would run nowhere.
    Uncarried { reg: u32 },
    /// Ops inside one phase are out of tape (SSA) order, so an op could
    /// read an operand slot before the phase has written it.
    PhaseOrder { phase: &'static str, dst: u32 },
    /// Value `by` takes the lane slot of value `arg` while a later step
    /// reads `arg`, or is the result of an op reading `arg` there.
    SlotReused { arg: u32, by: u32 },
}

impl fmt::Display for BatchPlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::MissingOp { dst } => write!(f, "op slot {dst} is scheduled in no phase"),
            Self::DuplicateOp { dst } => write!(f, "op slot {dst} is scheduled more than once"),
            Self::MisplacedOp { dst, phase } => write!(
                f,
                "slot {dst} cannot run in {phase}: conditional reads, and only they, belong \
                 to pops, and a serial plan lists no op"
            ),
            Self::ReadsUnready { phase, dst, arg } => write!(
                f,
                "{phase} op at slot {dst} reads slot {arg}, which is lane-coupled or written \
                 by a later stage"
            ),
            Self::NotALatch { reg } => write!(
                f,
                "register {reg} is filled as a latch, but its update is not one select \
                 between a resolved value and its own read, or the plan is serial"
            ),
            Self::NotASum { reg } => write!(
                f,
                "register {reg} is scanned as a running sum, but its update is not one add \
                 of a resolved value to its own read or reset, or the plan is serial"
            ),
            Self::Uncarried { reg } => write!(
                f,
                "register {reg} is neither latched nor summed, but the plan is staged"
            ),
            Self::PhaseOrder { phase, dst } => write!(f, "{phase} breaks tape order at slot {dst}"),
            Self::SlotReused { arg, by } => write!(
                f,
                "value {by} takes the lane slot of value {arg} before its last read"
            ),
        }
    }
}

impl CompiledTape {
    /// The slots an op reads: a conditional read's are its predicate
    /// and fallback. Unused slots default to 0 in [`TapeOp`] and must
    /// not leak into the dependence analysis, or node 0 would falsely
    /// couple every unary op.
    fn operands(&self, op: &TapeOp) -> [Option<u32>; 3] {
        match op.code {
            Code::Sqrt
            | Code::Rsqrt
            | Code::SeedRecip
            | Code::SeedRsqrt
            | Code::Not
            | Code::Mov => [Some(op.a), None, None],
            Code::Madd | Code::Nmsub | Code::Sel => [Some(op.a), Some(op.b), Some(op.c)],
            Code::CondRead => {
                let cr = &self.cond_reads[op.a as usize];
                [Some(cr.pred), Some(cr.fallback), None]
            }
            _ => [Some(op.a), Some(op.b), None],
        }
    }

    /// Register `reg` as a running sum, if its one update has the shape
    /// with `x`, `p` and `k` slots `early` says are written in time.
    fn sum_of(&self, reg: u32, early: impl Fn(u32) -> bool) -> Option<Sum> {
        let at = |dst: u32| self.ops.binary_search_by_key(&dst, |op| op.dst).ok();
        let op_at = |dst: u32| at(dst).map(|i| self.ops[i]);
        let own = |slot: u32| self.reg_reads.contains(&(slot, reg));
        let mut updates = self.reg_updates.iter().filter(|u| u.0 == reg);
        let (Some(&(_, v)), None) = (updates.next(), updates.next()) else {
            return None;
        };
        let add = op_at(v).filter(|op| op.code == Code::Add)?;
        let orders = [(add.a, add.b, true), (add.b, add.a, false)];
        orders.into_iter().find_map(|(x, base, x_first)| {
            let reset = match op_at(base) {
                _ if own(base) => None,
                Some(sel) if sel.code == Code::Sel && own(sel.c) => Some((sel.a, sel.b)),
                _ => return None,
            };
            let resolved = reset.is_none_or(|(p, k)| early(p) && early(k));
            let reads = self.reg_reads.iter().filter(|rr| rr.1 == reg);
            (early(x) && resolved).then(|| Sum {
                reg,
                reads: reads.map(|rr| rr.0).collect(),
                x,
                base,
                reset,
                add: v,
                x_first,
            })
        })
    }

    /// A staged batch step by step, as the values each reads and then
    /// writes: stream reads, stage ops (a pop reads its predicate and
    /// fallback), latch fill and sum scan in their places, then writes.
    fn walk(&self, mut step: impl FnMut(&[u32], &[u32])) {
        for &(dst, _) in self.stream_reads.iter().flat_map(|g| &g.reads) {
            step(&[], &[dst]);
        }
        for (_, at, ops) in self.stages() {
            for op in ops {
                let (mut args, mut len) = ([0; 3], 0);
                for a in self.operands(op).into_iter().flatten() {
                    (args[len], len) = (a, len + 1);
                }
                step(&args[..len], &[op.dst]);
            }
            for la in self.batch.latches.iter().filter(|_| at == 2) {
                step(&[la.pred, la.fresh], &la.reads);
            }
            for sum in self.batch.sums.iter().filter(|_| at == 4) {
                let (p, k) = sum.reset.unzip();
                let x: Vec<u32> = [Some(sum.x), p, k].into_iter().flatten().collect();
                step(&x, &[&sum.reads[..], &[sum.base, sum.add]].concat());
            }
        }
        for w in &self.writes {
            let values = &self.write_values[w.start as usize..(w.start + w.len) as usize];
            let cond = (w.cond != NO_COND).then_some(w.cond);
            step(&[values, &Vec::from_iter(cond)].concat(), &[]);
        }
    }

    /// The plan's op lists in execution order, each with its name and
    /// its position among the stages (the latch fill is position 3,
    /// the sum scan 5).
    fn stages(&self) -> [(&'static str, u8, &[TapeOp]); 5] {
        let p = &self.batch;
        [
            ("vec_pre", 0, &p.vec_pre),
            ("pops", 1, &p.pops),
            ("vec_pop", 2, &p.vec_pop),
            ("vec_latch", 4, &p.vec_latch),
            ("vec_post", 6, &p.vec_post),
        ]
    }

    /// Ops per stage of the cached plan, in execution order; `latches`
    /// and `sums` count registers. A serial plan is one entry, `serial`,
    /// counting the whole tape.
    pub fn batch_stage_sizes(&self) -> Vec<(&'static str, usize)> {
        if self.batch.serial {
            return vec![("serial", self.ops.len())];
        }
        let mut sizes = self
            .stages()
            .map(|(name, _, ops)| (name, ops.len()))
            .to_vec();
        sizes.insert(3, ("latches", self.batch.latches.len()));
        sizes.insert(5, ("sums", self.batch.sums.len()));
        sizes
    }

    /// Re-derive every invariant the batch engine assumes of its cached
    /// [`BatchPlan`] and report each breach. Independent of
    /// [`BatchPlan::analyze`]'s own bookkeeping on purpose: the audit
    /// checks the *plan artifact* against the tape, so a bug in the
    /// analysis (or a hand-corrupted plan in tests) is caught rather
    /// than re-trusted. Returns an empty vector for a sound plan.
    pub fn audit_batch_plan(&self) -> Vec<BatchPlanViolation> {
        use BatchPlanViolation as V;
        let plan = &self.batch;
        let mut out = Vec::new();
        if plan.serial {
            // A serial plan runs the tape whole, so it lists nothing.
            for (phase, _, ops) in self.stages() {
                out.extend(ops.iter().map(|op| V::MisplacedOp { dst: op.dst, phase }));
            }
            out.extend(plan.latches.iter().map(|la| V::NotALatch { reg: la.reg }));
            out.extend(plan.sums.iter().map(|sum| V::NotASum { reg: sum.reg }));
            return out;
        }
        let n = self.num_nodes;

        // When each slot is written, by stage position (constants,
        // params and stream reads at 0), plus the multi-set count for
        // exactly-once coverage. A register read is written by the
        // latch fill if a latch lists it, by the sum scan (with the
        // sum's `Sel` and `Add`) if a sum does, else never.
        let mut ready = vec![0u8; n];
        let mut count = vec![0usize; n];
        for (_, at, ops) in self.stages() {
            for op in ops {
                ready[op.dst as usize] = at;
                count[op.dst as usize] += 1;
            }
        }
        for &(dst, _) in &self.reg_reads {
            ready[dst as usize] = 7;
        }
        for &slot in plan.latches.iter().flat_map(|la| &la.reads) {
            ready[slot as usize] = 3;
        }
        for sum in &plan.sums {
            for &slot in sum.reads.iter().chain([&sum.base, &sum.add]) {
                ready[slot as usize] = 5;
            }
            count[sum.add as usize] += 1;
            count[sum.base as usize] += usize::from(sum.reset.is_some());
        }
        for op in &self.ops {
            match count[op.dst as usize] {
                0 => out.push(V::MissingOp { dst: op.dst }),
                1 => {}
                _ => out.push(V::DuplicateOp { dst: op.dst }),
            }
        }

        // Pops take the shared cursor in lane order, which only the scan
        // provides. Every op reads only what is already written for its
        // lane; the pop scan runs for the whole batch at once, so its
        // reads must be lane-independent from the start.
        for (phase, at, ops) in self.stages() {
            for op in ops {
                let dst = op.dst;
                if (op.code == Code::CondRead) != (phase == "pops") {
                    out.push(V::MisplacedOp { dst, phase });
                    continue;
                }
                let limit = if phase == "pops" { 0 } else { at };
                for arg in self.operands(op).into_iter().flatten() {
                    if ready[arg as usize] > limit {
                        out.push(V::ReadsUnready { phase, dst, arg });
                    }
                }
            }
            // Tape order within each phase: dsts are strictly increasing
            // in tape order (SSA), so any inversion means an op could
            // read a slot its own phase has not written yet.
            for w in ops.windows(2) {
                if w[1].dst <= w[0].dst {
                    let dst = w[1].dst;
                    out.push(V::PhaseOrder { phase, dst });
                }
            }
        }
        // The writes run after every stage, so each value and condition
        // they read must be written by one of them.
        for (i, w) in self.writes.iter().enumerate() {
            let values = &self.write_values[w.start as usize..(w.start + w.len) as usize];
            let reads = values.iter().chain((w.cond != NO_COND).then_some(&w.cond));
            for &arg in reads.filter(|&&a| ready[a as usize] > 6) {
                let (phase, dst) = ("writes", i as u32);
                out.push(V::ReadsUnready { phase, dst, arg });
            }
        }

        // A latch's register is filled once and has one update, a select
        // between a value written before the fill and one of the
        // register's own reads — all of which the latch lists.
        for la in &plan.latches {
            let reads = self.reg_reads.iter().filter(|rr| rr.1 == la.reg);
            let mut updates = self.reg_updates.iter().filter(|u| u.0 == la.reg);
            let sound = match (updates.next(), updates.next()) {
                (Some(&(_, v)), None) => self.ops.iter().any(|op| {
                    (op.dst, op.code, op.a, op.b) == (v, Code::Sel, la.pred, la.fresh)
                        && la.reads.contains(&op.c)
                        && ready[la.pred as usize] <= 2
                        && ready[la.fresh as usize] <= 2
                }),
                _ => false,
            };
            let once = plan.latches.iter().filter(|o| o.reg == la.reg).count() == 1;
            if !(sound && once && reads.map(|rr| rr.0).eq(la.reads.iter().copied())) {
                out.push(V::NotALatch { reg: la.reg });
            }
        }
        // A sum is scanned once, is the shape `sum_of` re-derives from the
        // slots written before the scan, and leaves its ops to no list.
        for sum in &plan.sums {
            let once = plan.sums.iter().filter(|o| o.reg == sum.reg).count() == 1
                && !plan.latches.iter().any(|la| la.reg == sum.reg);
            let unlisted = count[sum.add as usize] == 1
                && count[sum.base as usize] == usize::from(sum.reset.is_some());
            let shape = self.sum_of(sum.reg, |slot| ready[slot as usize] <= 4);
            if !(once && unlisted && shape.as_ref() == Some(sum)) {
                out.push(V::NotASum { reg: sum.reg });
            }
        }
        // Nothing updates a register lane by lane in a staged plan.
        for reg in 0..self.reg_init.len() as u32 {
            if self.reg_updates.iter().any(|u| u.0 == reg) && !plan.carries(reg) {
                out.push(V::Uncarried { reg });
            }
        }
        // A value written before it is read (the checks above cover the
        // rest) is in its lane slot when read; no step writes what it reads.
        let slot = |x: u32| plan.slot.get(x as usize).map_or(0, |&s| s as usize);
        let mut held = vec![u32::MAX; plan.slot.iter().max().map_or(1, |&s| s as usize + 1)];
        let mut written = vec![false; n];
        let pinned = self.const_inits.iter().map(|c| c.0);
        for x in pinned.chain(self.param_inits.iter().map(|p| p.0)) {
            (held[slot(x)], written[x as usize]) = (x, true);
        }
        self.walk(|reads, writes| {
            for &arg in reads {
                let by = held[slot(arg)];
                if by != arg && written.get(arg as usize) == Some(&true) {
                    out.push(V::SlotReused { arg, by });
                }
            }
            for &by in writes {
                let arg = reads.iter().find(|&&arg| slot(arg) == slot(by));
                out.extend(arg.map(|&arg| V::SlotReused { arg, by }));
                (held[slot(by)], written[by as usize]) = (by, true);
            }
        });
        out
    }

    /// Drop the last op of the first non-empty phase, leaving a plan
    /// the audit must flag with exactly one `MissingOp`. Test-only
    /// sabotage hook for the BATCH_PLAN_SPLIT fixtures — never called
    /// by production code; the rest of the corruption table needs the
    /// plan's private fields and lives in this module's tests.
    #[doc(hidden)]
    pub fn corrupt_batch_plan_for_tests(&mut self) {
        let p = &mut self.batch;
        let phases = [
            &mut p.vec_pre,
            &mut p.pops,
            &mut p.vec_pop,
            &mut p.vec_latch,
            &mut p.vec_post,
        ];
        if let Some(ops) = phases.into_iter().find(|ops| !ops.is_empty()) {
            ops.pop();
        }
    }

    /// Execute the tape in SoA batches of `width` lanes. Bitwise
    /// identical to [`crate::interp::Interpreter::run`]: same outputs,
    /// consumed counts, final registers, and the same [`InterpError`]
    /// values on failure — `tests/tape_equivalence.rs` holds this engine
    /// at 1, 8 and 16 lanes to the interpreter differentially.
    pub fn run_batched(
        &self,
        inputs: &[StreamData],
        params: &[f64],
        iterations: usize,
        width: BatchWidth,
    ) -> Result<InterpOutput, InterpError> {
        let views: Vec<StreamView> = inputs.iter().map(StreamData::view).collect();
        self.run_views(&views, params, iterations, width)
    }

    /// [`CompiledTape::run_batched`] on borrowed words: what a caller
    /// that keeps its streams elsewhere launches without copying them.
    /// A serial plan runs at one lane; an x86-64 host with AVX2 runs
    /// the loop as built for it.
    pub fn run_views(
        &self,
        inputs: &[StreamView],
        params: &[f64],
        iterations: usize,
        width: BatchWidth,
    ) -> Result<InterpOutput, InterpError> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host has just been found to support AVX2.
            return unsafe { self.run_avx2(inputs, params, iterations, width) };
        }
        self.run_portable(inputs, params, iterations, width)
    }

    /// [`CompiledTape::run_views`] as built for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(
        &self,
        inputs: &[StreamView],
        params: &[f64],
        iterations: usize,
        width: BatchWidth,
    ) -> Result<InterpOutput, InterpError> {
        self.run_portable(inputs, params, iterations, width)
    }

    /// [`CompiledTape::run_views`] as built for any host of the target,
    /// whatever it supports: what the tests hold beside the AVX2 build.
    #[doc(hidden)]
    #[inline(always)]
    pub fn run_portable(
        &self,
        inputs: &[StreamView],
        params: &[f64],
        iterations: usize,
        width: BatchWidth,
    ) -> Result<InterpOutput, InterpError> {
        match width {
            _ if self.batch.serial => self.run_lanes::<1>(inputs, params, iterations),
            BatchWidth::W8 => self.run_lanes::<8>(inputs, params, iterations),
            BatchWidth::W16 => self.run_lanes::<16>(inputs, params, iterations),
        }
    }

    /// Execute `iterations` loop iterations over `inputs` with launch
    /// `params`, one iteration per batch. Semantically identical to
    /// [`crate::interp::Interpreter::run`] on the same kernel, including
    /// error values.
    pub fn run(
        &self,
        inputs: &[StreamData],
        params: &[f64],
        iterations: usize,
    ) -> Result<InterpOutput, InterpError> {
        let views: Vec<StreamView> = inputs.iter().map(StreamData::view).collect();
        self.run_lanes::<1>(&views, params, iterations)
    }

    /// The lane file's value slots, and its bytes at `width` (one lane if serial).
    pub fn lane_file(&self, width: BatchWidth) -> (usize, usize) {
        let lanes = if self.batch.serial { 1 } else { width.lanes() };
        (self.batch.slots, self.batch.slots * lanes * 8)
    }

    /// The launch loop: batches of `B` lanes, the last one masked, and
    /// constants and params broadcast once into slots of their own.
    #[inline(always)]
    fn run_lanes<const B: usize>(
        &self,
        inputs: &[StreamView],
        params: &[f64],
        iterations: usize,
    ) -> Result<InterpOutput, InterpError> {
        self.validate_signature(inputs, params)?;
        let mut outputs = self.make_outputs(iterations);
        let mut regs = self.reg_init.clone();

        // Every-iteration streams pop once per iteration, so the first
        // of them (in index order) to hold fewer records than the launch
        // has iterations bounds the loop, and takes the blame below.
        let num_records: Vec<usize> = inputs.iter().map(|d| d.data.len() / d.record_len).collect();
        let mut runnable = iterations;
        let mut dry = None;
        for (s, every) in self.input_every_iter.iter().enumerate() {
            if *every && num_records[s] < runnable {
                runnable = num_records[s];
                dry = Some(s);
            }
        }

        let mut st = StreamState::new(self, inputs.len(), B);
        let slot = |x: u32| self.batch.slot[x as usize] as usize;
        let mut lanes = vec![[0.0; B]; self.batch.slots];
        for &(x, c) in &self.const_inits {
            lanes[slot(x)] = [c; B];
        }
        for &(x, p) in &self.param_inits {
            lanes[slot(x)] = [params[p as usize]; B];
        }
        for base in (0..runnable).step_by(B) {
            let live = B.min(runnable - base);
            let batch = (base, live);
            self.exec_batch(
                inputs,
                &num_records,
                &mut lanes,
                &mut regs,
                &mut outputs,
                &mut st,
                batch,
            )?;
        }
        // The interpreter checks every-iteration streams at the top of
        // an iteration, before any conditional pop of that iteration; a
        // conditional stream that ran dry earlier already returned.
        if let Some(stream) = dry {
            return Err(InterpError::StreamUnderrun {
                stream,
                iteration: runnable,
            });
        }

        Ok(InterpOutput {
            outputs,
            records_consumed: st.cursors,
            iterations,
            final_regs: regs,
        })
    }

    /// One batch of `live ≤ B` iterations, lane 0 at absolute iteration
    /// `base` (for underrun blame): SoA gather, the plan, the write
    /// drain, cursor advance. Every every-iteration stream must hold
    /// `live` more records. (A lane loop's `l` picks one lane out of
    /// every lane array it touches, so it is a genuine index.)
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[inline(always)]
    fn exec_batch<const B: usize>(
        &self,
        inputs: &[StreamView],
        num_records: &[usize],
        lanes: &mut [[f64; B]],
        regs: &mut [f64],
        outputs: &mut [StreamData],
        st: &mut StreamState,
        (base, live): (usize, usize),
    ) -> Result<(), InterpError> {
        let plan = &self.batch;
        let slot = |x: u32| plan.slot[x as usize] as usize;
        // SoA gather: transpose the live lanes' records of each
        // every-iteration stream into the read slots' lane arrays.
        for g in &self.stream_reads {
            let s = g.stream as usize;
            let rl = self.input_record_len[s];
            let rows = &inputs[s].data[st.row_base[s]..][..live * rl];
            for &(dst, f) in &g.reads {
                let lane = lanes[slot(dst)].iter_mut();
                for (v, row) in lane.zip(rows.chunks_exact(rl)) {
                    *v = row[f as usize];
                }
            }
        }
        if plan.serial {
            // The whole tape in order at one lane, as the interpreter
            // walks an iteration: register reads, every op with its
            // pops inline, then the register updates. Its slots are its
            // node ids.
            debug_assert_eq!(B, 1, "a serial plan runs at one lane");
            for &(dst, r) in &self.reg_reads {
                lanes[dst as usize] = [regs[r as usize]; B];
            }
            for op in &self.ops {
                if op.code != Code::CondRead {
                    exec_vec::<B>(op, lanes);
                    continue;
                }
                // A pop slot's first read in tape order pops; its other
                // reads share the predicate, so they are live with it.
                let cr = &self.cond_reads[op.a as usize];
                let (s, slot) = (cr.stream as usize, cr.slot as usize);
                lanes[op.dst as usize][0] = if lanes[cr.pred as usize][0] == 0.0 {
                    lanes[cr.fallback as usize][0]
                } else {
                    if cr.leads {
                        if st.cursors[s] >= num_records[s] {
                            return Err(self.underrun(op, base));
                        }
                        st.pop_rows[slot] = st.row_base[s];
                        st.cursors[s] += 1;
                        st.row_base[s] += self.input_record_len[s];
                    }
                    inputs[s].data[st.pop_rows[slot] + cr.field as usize]
                };
            }
            for &(r, v) in &self.reg_updates {
                regs[r as usize] = lanes[v as usize][0];
            }
        } else {
            let [pre, pop, latch, post] = &plan.lane_ops;
            for op in pre {
                exec_vec::<B>(op, lanes);
            }
            // The pop scan: each slot's leading read pops the records of its
            // live lanes, in the interpreter's order, so the first dry pop
            // it meets is the interpreter's blame.
            let mut popped = false;
            for l in 0..live {
                for op in &st.scan {
                    let cr = &self.cond_reads[op.a as usize];
                    let (s, row) = (cr.stream as usize, cr.slot as usize * B + l);
                    st.pop_rows[row] = NO_ROW;
                    if lanes[slot(cr.pred)][l] == 0.0 {
                        continue;
                    }
                    if st.cursors[s] >= num_records[s] {
                        return Err(self.underrun(op, base + l));
                    }
                    st.pop_rows[row] = st.row_base[s];
                    st.cursors[s] += 1;
                    st.row_base[s] += self.input_record_len[s];
                    popped = true;
                }
            }
            // Then every read gathers its field where its slot popped.
            for op in &plan.pops {
                let cr = &self.cond_reads[op.a as usize];
                let mut v = lanes[slot(cr.fallback)];
                if popped {
                    let rows = &st.pop_rows[cr.slot as usize * B..][..live];
                    let (data, field) = (inputs[cr.stream as usize].data, cr.field as usize);
                    for (v, &row) in v.iter_mut().zip(rows) {
                        if row != NO_ROW {
                            *v = data[row + field];
                        }
                    }
                }
                lanes[slot(op.dst)] = v;
            }
            for op in pop {
                exec_vec::<B>(op, lanes);
            }
            // The latch fill: each lane reads what the lane before latched.
            for la in &plan.latches {
                let (pred, fresh) = (lanes[slot(la.pred)], lanes[slot(la.fresh)]);
                let mut read = [0.0f64; B];
                let held = &mut regs[la.reg as usize];
                for l in 0..live {
                    read[l] = *held;
                    if pred[l] != 0.0 {
                        *held = fresh[l];
                    }
                }
                for &x in &la.reads {
                    lanes[slot(x)] = read;
                }
            }
            for op in latch {
                exec_vec::<B>(op, lanes);
            }
            // The sum scan: each lane reads what the lane before summed.
            for sum in &plan.sums {
                let x = lanes[slot(sum.x)];
                let (pred, reset) = match sum.reset {
                    Some((p, k)) => (lanes[slot(p)], lanes[slot(k)]),
                    None => ([0.0; B], [0.0; B]),
                };
                let (mut read, mut base, mut out) = ([0.0f64; B], [0.0f64; B], [0.0f64; B]);
                let held = &mut regs[sum.reg as usize];
                for l in 0..live {
                    read[l] = *held;
                    base[l] = if pred[l] != 0.0 { reset[l] } else { *held };
                    // The kernel's operand order, though Rust leaves which of
                    // two NaN payloads a sum keeps unspecified.
                    #[allow(clippy::if_same_then_else)]
                    let next = if sum.x_first {
                        x[l] + base[l]
                    } else {
                        base[l] + x[l]
                    };
                    *held = next;
                    out[l] = *held;
                }
                for &x in &sum.reads {
                    lanes[slot(x)] = read;
                }
                lanes[slot(sum.base)] = base;
                lanes[slot(sum.add)] = out;
            }
            for op in post {
                exec_vec::<B>(op, lanes);
            }
        }
        // Writes at fixed offsets drain slot by slot, each value's live
        // lanes to their iterations' blocks.
        for w in self.writes.iter().filter(|w| w.at != APPEND) {
            let words = self.out_words_per_iter[w.stream as usize];
            let out = &mut outputs[w.stream as usize].data[base * words..][..live * words];
            let values = &self.write_values[w.start as usize..(w.start + w.len) as usize];
            for (at, &v) in (w.at as usize..).zip(values) {
                let lane = &lanes[slot(v)][..live];
                for (d, x) in out[at..].iter_mut().step_by(words).zip(lane) {
                    *d = *x;
                }
            }
        }
        // Appended writes drain lane-major so records interleave exactly
        // as the interpreter's per-iteration writes — the expand side:
        // conditional writes scatter only their active lanes.
        for l in 0..live {
            for w in self.writes.iter().filter(|w| w.at == APPEND) {
                if w.cond != NO_COND && lanes[slot(w.cond)][l] == 0.0 {
                    continue;
                }
                let values = &self.write_values[w.start as usize..(w.start + w.len) as usize];
                let values = values.iter().map(|&v| lanes[slot(v)][l]);
                outputs[w.stream as usize].data.extend(values);
            }
        }
        // Every-iteration streams advance once per live lane, as a block.
        for (s, every) in self.input_every_iter.iter().enumerate() {
            if *every {
                st.cursors[s] += live;
                st.row_base[s] += live * self.input_record_len[s];
            }
        }
        Ok(())
    }

    /// The error of conditional read `op` finding its stream dry.
    fn underrun(&self, op: &TapeOp, iteration: usize) -> InterpError {
        let stream = self.cond_reads[op.a as usize].stream as usize;
        InterpError::StreamUnderrun { stream, iteration }
    }
}

/// State of one launch, carried across its batches: cursors and
/// conditional-pop bookkeeping.
#[derive(Debug)]
pub(crate) struct StreamState {
    /// Records consumed so far per input stream.
    cursors: Vec<usize>,
    /// Word offset of each stream's next record.
    row_base: Vec<usize>,
    /// The pop scan's leading reads, in tape order.
    scan: Vec<TapeOp>,
    /// At `s * B + l`, the word offset of the record pop slot `s` took
    /// in lane `l` of this batch, or (in the scan) [`NO_ROW`].
    pop_rows: Vec<usize>,
}

/// A lane whose pop slot did not pop: its reads take their fallback.
const NO_ROW: usize = usize::MAX;

impl StreamState {
    fn new(tape: &CompiledTape, num_inputs: usize, lanes: usize) -> Self {
        let leads = tape
            .batch
            .pops
            .iter()
            .filter(|op| tape.cond_reads[op.a as usize].leads);
        Self {
            cursors: vec![0; num_inputs],
            row_base: vec![0; num_inputs],
            scan: leads.copied().collect(),
            pop_rows: vec![NO_ROW; tape.pop_slots * lanes],
        }
    }
}

/// Execute one lane-independent op, its operands and result in lane
/// slots, over all `B` lanes: the result array is written in place while
/// the operand arrays are borrowed beside it (a result in the slot of
/// its own operand panics on the split), so each arm is one flat loop
/// the compiler can autovectorize. Same `f64` expressions as the
/// interpreter's `Node::Op` arm, lane by lane.
#[inline(always)]
fn exec_vec<const B: usize>(op: &TapeOp, lanes: &mut [[f64; B]]) {
    let (below, rest) = lanes.split_at_mut(op.dst as usize);
    let (d, above) = rest.split_first_mut().expect("a result slot");
    let arg = |s: u32| match (s as usize).checked_sub(below.len() + 1) {
        Some(i) => &above[i],
        None => &below[s as usize],
    };
    let sel = |p: f64, b, c| if p != 0.0 { b } else { c };
    match op.code {
        Code::Add => lanes2(d, arg(op.a), arg(op.b), |a, b| a + b),
        Code::Sub => lanes2(d, arg(op.a), arg(op.b), |a, b| a - b),
        Code::Mul => lanes2(d, arg(op.a), arg(op.b), |a, b| a * b),
        Code::Madd => lanes3(d, arg(op.a), arg(op.b), arg(op.c), |a, b, c| a * b + c),
        Code::Nmsub => lanes3(d, arg(op.a), arg(op.b), arg(op.c), |a, b, c| c - a * b),
        Code::Div => lanes2(d, arg(op.a), arg(op.b), |a, b| a / b),
        Code::Sqrt => lanes1(d, arg(op.a), |a| a.sqrt()),
        Code::Rsqrt => lanes1(d, arg(op.a), |a| 1.0 / a.sqrt()),
        Code::SeedRecip => lanes1(d, arg(op.a), |a| (1.0 / a) as f32 as f64),
        Code::SeedRsqrt => lanes1(d, arg(op.a), |a| (1.0 / a.sqrt()) as f32 as f64),
        Code::CmpEq => lanes2(d, arg(op.a), arg(op.b), |a, b| mask(a == b)),
        Code::CmpLt => lanes2(d, arg(op.a), arg(op.b), |a, b| mask(a < b)),
        Code::CmpLe => lanes2(d, arg(op.a), arg(op.b), |a, b| mask(a <= b)),
        Code::Sel => lanes3(d, arg(op.a), arg(op.b), arg(op.c), sel),
        Code::And => lanes2(d, arg(op.a), arg(op.b), |a, b| mask(a != 0.0 && b != 0.0)),
        Code::Or => lanes2(d, arg(op.a), arg(op.b), |a, b| mask(a != 0.0 || b != 0.0)),
        Code::Not => lanes1(d, arg(op.a), |a| mask(a == 0.0)),
        Code::Min => lanes2(d, arg(op.a), arg(op.b), f64::min),
        Code::Max => lanes2(d, arg(op.a), arg(op.b), f64::max),
        Code::Mov => *d = *arg(op.a),
        Code::CondRead => unreachable!("conditional read in a vector phase"),
    }
}

/// `d[l] = f(a[l], …)` for every lane, at one, two and three operands.
#[inline(always)]
fn lanes1<const B: usize>(d: &mut [f64; B], a: &[f64; B], f: impl Fn(f64) -> f64) {
    for l in 0..B {
        d[l] = f(a[l]);
    }
}

#[inline(always)]
fn lanes2<const B: usize>(
    d: &mut [f64; B],
    a: &[f64; B],
    b: &[f64; B],
    f: impl Fn(f64, f64) -> f64,
) {
    for l in 0..B {
        d[l] = f(a[l], b[l]);
    }
}

#[inline(always)]
fn lanes3<const B: usize>(
    d: &mut [f64; B],
    a: &[f64; B],
    b: &[f64; B],
    c: &[f64; B],
    f: impl Fn(f64, f64, f64) -> f64,
) {
    for l in 0..B {
        d[l] = f(a[l], b[l], c[l]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::interp::Interpreter;
    use crate::ir::{Kernel, StreamMode};

    const WIDTHS: [BatchWidth; 2] = [BatchWidth::W8, BatchWidth::W16];

    fn assert_matches_scalar(k: &Kernel, inputs: &[StreamData], params: &[f64], iterations: usize) {
        let tape = CompiledTape::compile(k);
        let scalar = tape.run(inputs, params, iterations);
        assert_eq!(
            scalar,
            Interpreter::new(k).run(inputs, params, iterations),
            "one-lane tape vs interpreter diverged on kernel '{}' over {iterations} iterations",
            k.name
        );
        for w in WIDTHS {
            let batched = tape.run_batched(inputs, params, iterations, w);
            assert_eq!(
                batched, scalar,
                "batch({w}) vs one-lane tape diverged on kernel '{}' over {iterations} iterations",
                k.name
            );
        }
    }

    #[test]
    fn width_reports_lanes() {
        assert_eq!(BatchWidth::default().lanes(), 16);
        assert_eq!(BatchWidth::W8.lanes(), 8);
        assert_eq!(BatchWidth::W16.lanes(), 16);
        assert_eq!(BatchWidth::W16.to_string(), "16");
    }

    /// An accumulator kernel with a long uncoupled arithmetic chain:
    /// the shape of the StreamMD interaction kernels.
    fn accum_kernel() -> Kernel {
        let mut b = KernelBuilder::new("accum");
        let s = b.input("x", 2, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let r = b.reg(0.0);
        let x0 = b.read(s, 0);
        let x1 = b.read(s, 1);
        let d = b.sub(x0, x1);
        let d2 = b.mul(d, d);
        let inv = b.rsqrt(d2);
        let contrib = b.madd(inv, d2, d);
        let acc = b.read_reg(r);
        let sum = b.add(acc, contrib);
        b.set_reg(r, sum);
        b.write(o, &[contrib]);
        b.build()
    }

    /// A decaying accumulator, `acc · decay + contrib`: a register
    /// update that is no sum, so its plan is serial.
    fn decay_kernel() -> Kernel {
        let mut b = KernelBuilder::new("decay");
        let s = b.input("x", 2, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let r = b.reg(0.0);
        let decay = b.constant(0.5);
        let x0 = b.read(s, 0);
        let x1 = b.read(s, 1);
        let contrib = b.sub(x0, x1);
        let acc = b.read_reg(r);
        let next = b.madd(acc, decay, contrib);
        b.set_reg(r, next);
        b.write(o, &[contrib]);
        b.build()
    }

    #[test]
    fn plan_keeps_the_arithmetic_slice_vectorized() {
        let tape = CompiledTape::compile(&accum_kernel());
        // Only the accumulate add (coupled via the register read AND
        // feeding the register update) is left out of the vector
        // stages, and it runs as a sum scan: the plan is staged.
        assert!(!tape.batch.serial, "plan: {:?}", tape.batch);
        assert_eq!(tape.batch.sums.len(), 1, "plan: {:?}", tape.batch);
        assert_eq!(
            tape.batch.vec_pre.len() + tape.batch.vec_post.len() + 1,
            tape.ops.len()
        );
        assert!(tape.batch.vec_pre.len() >= 4);
    }

    #[test]
    fn accumulator_matches_scalar_including_remainder_lanes() {
        let k = accum_kernel();
        for n in [0usize, 1, 7, 8, 9, 16, 23, 48, 100] {
            let data: Vec<f64> = (0..2 * n).map(|i| 1.0 + 0.25 * i as f64).collect();
            assert_matches_scalar(&k, &[StreamData::new(2, data)], &[], n);
        }
    }

    #[test]
    fn conditional_compress_expand_matches_scalar() {
        // Conditional pop (compress) driven by a register parity chain,
        // plus a conditional write (expand) — both sides of the batch
        // mask machinery, over enough iterations for several batches.
        let k = parity_kernel();
        let data: Vec<f64> = (0..40).map(|i| 10.0 * (i + 1) as f64).collect();
        for n in [0usize, 5, 8, 16, 19, 33, 80] {
            assert_matches_scalar(&k, &[StreamData::new(1, data.clone())], &[], n);
        }
    }

    #[test]
    fn fast_path_underrun_error_matches_scalar() {
        let k = accum_kernel();
        // 10 records, 32 iterations: the bound on the loop must blame
        // the same (stream, iteration) as the interpreter.
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert_matches_scalar(&k, &[StreamData::new(2, data)], &[], 32);

        // Two every-iteration streams tied at the minimum: the lower
        // index is blamed, whichever way round the longer stream sits.
        let mut b = KernelBuilder::new("tied");
        let streams: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|n| b.input(n, 1, StreamMode::EveryIteration))
            .collect();
        let o = b.output("y", 1);
        let reads: Vec<_> = streams.iter().map(|s| b.read(*s, 0)).collect();
        let ab = b.add(reads[0], reads[1]);
        let abc = b.add(ab, reads[2]);
        b.write(o, &[abc]);
        let k = b.build();
        let stream = |n: usize| StreamData::new(1, (0..n).map(|i| i as f64).collect());
        for (lens, blamed) in [([30, 11, 11], 1), ([11, 30, 11], 0), ([11, 11, 30], 0)] {
            let inputs = lens.map(stream);
            assert_matches_scalar(&k, &inputs, &[], 24);
            assert_eq!(
                CompiledTape::compile(&k).run_batched(&inputs, &[], 24, BatchWidth::W8),
                Err(InterpError::StreamUnderrun {
                    stream: blamed,
                    iteration: 11
                })
            );
        }
    }

    #[test]
    fn conditional_underrun_mid_batch_matches_scalar() {
        // Every iteration pops, but only 11 records exist: the underrun
        // lands mid-batch (lane 3 of batch 1 at width 8) and must carry
        // the absolute iteration index.
        let mut b = KernelBuilder::new("under");
        let s = b.input("v", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let v = b.cond_read(s, 0, one, zero);
        b.write(o, &[v]);
        let k = b.build();
        let data: Vec<f64> = (0..11).map(|i| i as f64).collect();
        assert_matches_scalar(&k, &[StreamData::new(1, data)], &[], 24);
        let tape = CompiledTape::compile(&k);
        let err = tape
            .run_batched(
                &[StreamData::new(1, (0..11).map(|i| i as f64).collect())],
                &[],
                24,
                BatchWidth::W8,
            )
            .unwrap_err();
        assert_eq!(
            err,
            InterpError::StreamUnderrun {
                stream: 0,
                iteration: 11
            }
        );
    }

    #[test]
    fn every_iteration_underrun_in_general_path_matches_scalar() {
        // Mixed modes: the every-iteration stream runs dry first, so
        // the loop must stop at the limit and blame it afterwards.
        let mut b = KernelBuilder::new("mixed");
        let se = b.input("e", 1, StreamMode::EveryIteration);
        let sc = b.input("c", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let x = b.read(se, 0);
        let t = b.constant(2.0);
        let p = b.cmp_lt(t, x);
        let zero = b.constant(0.0);
        let v = b.cond_read(sc, 0, p, zero);
        let sum = b.add(x, v);
        b.write(o, &[sum]);
        let k = b.build();
        let every: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let cond: Vec<f64> = (0..40).map(|i| 100.0 + i as f64).collect();
        for n in [0usize, 8, 13, 20, 40] {
            assert_matches_scalar(
                &k,
                &[
                    StreamData::new(1, every.clone()),
                    StreamData::new(1, cond.clone()),
                ],
                &[],
                n,
            );
        }
        // A conditional stream that pops every iteration, at the lower
        // index, as long as the every-iteration stream: both are dry in
        // iteration 11, and the every-iteration stream — checked at the
        // top of the iteration, before any pop — is blamed. One
        // conditional record fewer and the pop in iteration 10 is.
        let mut b = KernelBuilder::new("same_iteration");
        let sc = b.input("c", 1, StreamMode::Conditional);
        let se = b.input("e", 1, StreamMode::EveryIteration);
        let o = b.output("out", 1);
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let v = b.cond_read(sc, 0, one, zero);
        let x = b.read(se, 0);
        let sum = b.add(x, v);
        b.write(o, &[sum]);
        let k = b.build();
        for (cond_records, stream, iteration) in [(11, 1, 11), (10, 0, 10)] {
            let inputs = [
                StreamData::new(1, cond[..cond_records].to_vec()),
                StreamData::new(1, every[..11].to_vec()),
            ];
            assert_matches_scalar(&k, &inputs, &[], 24);
            assert_eq!(
                CompiledTape::compile(&k).run_batched(&inputs, &[], 24, BatchWidth::W8),
                Err(InterpError::StreamUnderrun { stream, iteration })
            );
        }
    }

    #[test]
    fn params_and_seed_ops_broadcast_bitwise() {
        let mut b = KernelBuilder::new("seeded");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 2);
        let p = b.param();
        let x = b.read(s, 0);
        let sr = b.seed_recip(x);
        let sq = b.seed_rsqrt(x);
        let a = b.mul(sr, p);
        let c = b.mul(sq, p);
        b.write(o, &[a, c]);
        let k = b.build();
        let data: Vec<f64> = (0..27).map(|i| 0.5 + i as f64).collect();
        assert_matches_scalar(&k, &[StreamData::new(1, data)], &[3.25], 27);
    }

    #[test]
    fn audit_passes_on_analyzed_plans() {
        let k = accum_kernel();
        let tape = CompiledTape::compile(&k);
        assert_eq!(tape.audit_batch_plan(), vec![], "kernel '{}'", k.name);
        // Conditional kernel: the constant predicate resolves its pops
        // in the scan; the audit must still find nothing to complain
        // about.
        let mut b = KernelBuilder::new("cond_audit");
        let s = b.input("v", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let v = b.cond_read(s, 0, one, zero);
        let doubled = b.add(v, v);
        b.write(o, &[doubled]);
        let tape = CompiledTape::compile(&b.build());
        assert_eq!(tape.audit_batch_plan(), vec![]);
    }

    #[test]
    fn audit_flags_a_dropped_op_exactly_once() {
        let mut tape = CompiledTape::compile(&accum_kernel());
        tape.corrupt_batch_plan_for_tests();
        let violations = tape.audit_batch_plan();
        assert_eq!(violations.len(), 1, "violations: {violations:?}");
        assert!(
            matches!(violations[0], BatchPlanViolation::MissingOp { .. }),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn audit_flags_duplicates_misphased_condreads_and_order() {
        let tape = CompiledTape::compile(&latch_kernel());
        assert!(!tape.batch.serial, "plan: {:?}", tape.batch);
        // Duplicate: replay the first vec_pre op at the end of vec_pre.
        // That both duplicates the op and breaks tape order.
        let mut dup = tape.clone();
        let first = dup.batch.vec_pre[0];
        dup.batch.vec_pre.push(first);
        let v = dup.audit_batch_plan();
        assert!(
            v.iter()
                .any(|x| matches!(x, BatchPlanViolation::DuplicateOp { .. })),
            "violations: {v:?}"
        );
        assert!(
            v.iter().any(|x| matches!(
                x,
                BatchPlanViolation::PhaseOrder {
                    phase: "vec_pre",
                    ..
                }
            )),
            "violations: {v:?}"
        );

        // Hoisting the latch's select into vec_pre: it reads the latched
        // register, so the audit must reject it.
        let mut hoist = tape.clone();
        let sel = hoist.batch.vec_latch.remove(0);
        hoist.batch.vec_pre.push(sel);
        hoist.batch.vec_pre.sort_by_key(|op| op.dst);
        let v = hoist.audit_batch_plan();
        assert!(
            v.iter().any(|x| matches!(
                x,
                BatchPlanViolation::ReadsUnready {
                    phase: "vec_pre",
                    ..
                }
            )),
            "violations: {v:?}"
        );

        // A CondRead outside the pop scan is always wrong.
        let mut b = KernelBuilder::new("cond_misphase");
        let s = b.input("v", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let val = b.cond_read(s, 0, one, zero);
        b.write(o, &[val]);
        let mut mis = CompiledTape::compile(&b.build());
        let cr = mis.batch.pops.remove(0);
        mis.batch.vec_post.push(cr);
        let v = mis.audit_batch_plan();
        assert!(
            v.iter().any(|x| matches!(
                x,
                BatchPlanViolation::MisplacedOp {
                    phase: "vec_post",
                    ..
                }
            )),
            "violations: {v:?}"
        );
    }

    /// The shape of the `variable` kernels: a flag stream decides when
    /// a centre record is popped and latched and the accumulator is
    /// flushed; the arithmetic reads the latched centre.
    fn latch_kernel() -> Kernel {
        let mut b = KernelBuilder::new("latch");
        let sx = b.input("x", 1, StreamMode::EveryIteration);
        let sf = b.input("flag", 1, StreamMode::EveryIteration);
        let sc = b.input("centres", 2, StreamMode::Conditional);
        let flushed = b.output("flushed", 1);
        let o = b.output("y", 1);
        let zero = b.constant(0.0);
        let flag = b.read(sf, 0);
        let is_new = b.cmp_lt(zero, flag);
        let acc_reg = b.reg(0.0);
        let acc_prev = b.read_reg(acc_reg);
        b.write_if(flushed, is_new, &[acc_prev]);
        let centre_reg = b.reg(0.5);
        let prev = b.read_reg(centre_reg);
        let pos = b.cond_read(sc, 0, is_new, zero);
        let shift = b.cond_read(sc, 1, is_new, zero);
        let fresh = b.add(pos, shift);
        let centre = b.sel(is_new, fresh, prev);
        b.set_reg(centre_reg, centre);
        let x = b.read(sx, 0);
        let d = b.sub(x, centre);
        let f = b.mul(d, d);
        let kept = b.sel(is_new, zero, acc_prev);
        let acc = b.add(f, kept);
        b.set_reg(acc_reg, acc);
        b.write(o, &[f]);
        b.build()
    }

    /// Inputs for [`latch_kernel`]: `n` iterations, a new centre every
    /// `every`-th, `centres` centre records.
    fn latch_inputs(n: usize, every: usize, centres: usize) -> [StreamData; 3] {
        let flag = |i: usize| if i.is_multiple_of(every) { 1.0 } else { 0.0 };
        [
            StreamData::new(1, (0..n).map(|i| 0.5 * i as f64).collect()),
            StreamData::new(1, (0..n).map(flag).collect()),
            StreamData::new(2, (0..2 * centres).map(|i| 1.0 + i as f64).collect()),
        ]
    }

    #[test]
    fn flag_driven_pops_and_latches_leave_seq_the_accumulator() {
        let k = latch_kernel();
        let tape = CompiledTape::compile(&k);
        assert_eq!(
            tape.batch_stage_sizes(),
            [
                ("vec_pre", 1),
                ("pops", 2),
                ("vec_pop", 1),
                ("latches", 1),
                ("vec_latch", 3),
                ("sums", 1),
                ("vec_post", 0)
            ]
        );
        assert_eq!(tape.audit_batch_plan(), vec![]);
        for (n, every) in [
            (0, 1),
            (1, 1),
            (7, 3),
            (8, 8),
            (9, 1),
            (23, 5),
            (48, 7),
            (100, 3),
        ] {
            assert_matches_scalar(&k, &latch_inputs(n, every, n.div_ceil(every)), &[], n);
        }
        let k = decay_kernel();
        for n in [0usize, 1, 8, 9, 31] {
            let data: Vec<f64> = (0..2 * n).map(|i| 0.75 * i as f64 - 3.0).collect();
            assert_matches_scalar(&k, &[StreamData::new(2, data)], &[], n);
        }
        // No new centre at all: the register's initial value is latched.
        let mut inputs = latch_inputs(20, 1, 0);
        inputs[1].data.fill(0.0);
        assert_matches_scalar(&k, &inputs, &[], 20);
    }

    /// A conditional pop driven by a register parity chain: genuinely
    /// lane-coupled, so its plan is serial.
    fn parity_kernel() -> Kernel {
        let mut b = KernelBuilder::new("cond_batch");
        let s = b.input("vals", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let parity = b.reg(1.0);
        let cur = b.reg(0.0);
        let want = b.read_reg(parity);
        let prev = b.read_reg(cur);
        let v = b.cond_read(s, 0, want, prev);
        let flip = b.not(want);
        b.set_reg(parity, flip);
        b.set_reg(cur, v);
        b.write_if(o, want, &[v]);
        b.build()
    }

    /// Move the first op `pick` takes from one phase into another, kept
    /// in tape order.
    fn hand(from: &mut Vec<TapeOp>, to: &mut Vec<TapeOp>, pick: fn(&TapeOp) -> bool) -> bool {
        let Some(i) = from.iter().position(pick) else {
            return false;
        };
        to.push(from.remove(i));
        to.sort_by_key(|op| op.dst);
        true
    }

    /// The corruption table (ROADMAP 6c): each entry breaks a sound plan
    /// one way — `false` when the plan has nothing of that kind to break
    /// — and names the violation the audit must answer with.
    type Corruption = (
        &'static str,
        fn(&mut CompiledTape) -> bool,
        fn(&BatchPlanViolation) -> bool,
    );
    const CORRUPTIONS: [Corruption; 13] = [
        (
            "drop an op",
            |t| {
                t.corrupt_batch_plan_for_tests();
                !t.batch.serial
            },
            |v| matches!(v, BatchPlanViolation::MissingOp { .. }),
        ),
        (
            "duplicate an op",
            |t| {
                let Some(&first) = t.batch.vec_pre.first() else {
                    return false;
                };
                t.batch.vec_pre.push(first);
                true
            },
            |v| matches!(v, BatchPlanViolation::DuplicateOp { .. }),
        ),
        (
            "mark a data-dependent pop resolved",
            |t| t.ops.iter().any(|op| op.code == Code::CondRead) && stage_whole(t),
            |v| matches!(v, BatchPlanViolation::ReadsUnready { phase: "pops", .. }),
        ),
        (
            "mark an arithmetic register a latch",
            |t| {
                let op_at = |v: u32| t.ops.iter().find(|op| op.dst == v);
                let mut updates = t.reg_updates.iter();
                let arith = updates.find_map(|&(reg, v)| {
                    let op = op_at(v).filter(|op| op.code != Code::Sel)?;
                    Some((reg, *op))
                });
                let Some((reg, op)) = arith else {
                    return false;
                };
                let reads = t.reg_reads.iter().filter(|rr| rr.1 == reg);
                let reads = reads.map(|rr| rr.0).collect();
                let (pred, fresh) = (op.a, op.b);
                t.batch.latches.push(Latch {
                    reg,
                    reads,
                    pred,
                    fresh,
                });
                true
            },
            |v| matches!(v, BatchPlanViolation::NotALatch { .. }),
        ),
        (
            "move an interaction op ahead of the latch fill",
            |t| {
                let p = &mut t.batch;
                hand(&mut p.vec_latch, &mut p.vec_pop, |_| true)
            },
            |v| {
                matches!(
                    v,
                    BatchPlanViolation::ReadsUnready {
                        phase: "vec_pop",
                        ..
                    }
                )
            },
        ),
        (
            "mark a summing plan serial",
            |t| {
                let summing = !t.batch.sums.is_empty();
                t.batch.serial |= summing;
                summing
            },
            |v| matches!(v, BatchPlanViolation::NotASum { .. }),
        ),
        (
            "resolve a sum's addend only in vec_post",
            |t| {
                let x = t.batch.sums.first().map(|s| s.x);
                let Some(&op) = t.ops.iter().find(|op| Some(op.dst) == x) else {
                    return false;
                };
                let p = &mut t.batch;
                for ops in [
                    &mut p.vec_pre,
                    &mut p.pops,
                    &mut p.vec_pop,
                    &mut p.vec_latch,
                ] {
                    ops.retain(|o| o.dst != op.dst);
                }
                hand(&mut vec![op], &mut p.vec_post, |_| true)
            },
            |v| matches!(v, BatchPlanViolation::NotASum { .. }),
        ),
        (
            "record a sum's operands in the other order",
            |t| {
                let Some(sum) = t.batch.sums.first_mut() else {
                    return false;
                };
                sum.x_first = !sum.x_first;
                true
            },
            |v| matches!(v, BatchPlanViolation::NotASum { .. }),
        ),
        (
            "leave one of a sum's read slots out",
            |t| {
                let Some(sum) = t.batch.sums.iter_mut().find(|s| !s.reads.is_empty()) else {
                    return false;
                };
                sum.reads.pop();
                true
            },
            |v| matches!(v, BatchPlanViolation::NotASum { .. }),
        ),
        (
            "leave a sum's add in vec_latch too",
            |t| {
                let Some(add) = t.batch.sums.first().map(|s| s.add) else {
                    return false;
                };
                let op = *t.ops.iter().find(|op| op.dst == add).expect("the add");
                let p = &mut t.batch;
                hand(&mut vec![op], &mut p.vec_latch, |_| true)
            },
            |v| matches!(v, BatchPlanViolation::DuplicateOp { .. }),
        ),
        (
            "list an op beside a serial plan",
            |t| {
                if t.batch.serial {
                    t.batch.vec_pre.push(t.ops[0]);
                }
                t.batch.serial
            },
            |v| {
                matches!(
                    v,
                    BatchPlanViolation::MisplacedOp {
                        phase: "vec_pre",
                        ..
                    }
                )
            },
        ),
        (
            "stage a tape with an uncarried register",
            |t| !t.reg_updates.is_empty() && stage_whole(t),
            |v| matches!(v, BatchPlanViolation::Uncarried { .. }),
        ),
        (
            "write a register read no latch or sum lists",
            |t| {
                // A read of a register nothing updates, which compile
                // folds to a constant, left as a read for a write alone.
                let Some(w) = t.writes.first().filter(|_| !t.batch.serial) else {
                    return false;
                };
                let slot = t.num_nodes as u32;
                t.num_nodes += 1;
                t.reg_reads.push((slot, t.reg_init.len() as u32));
                t.reg_init.push(0.0);
                t.write_values[w.start as usize] = slot;
                true
            },
            |v| {
                matches!(
                    v,
                    BatchPlanViolation::ReadsUnready {
                        phase: "writes",
                        ..
                    }
                )
            },
        ),
    ];

    /// Turn a serial plan staged as it stands: its pops into the scan,
    /// every other op into `vec_post`; `false` on a staged plan.
    fn stage_whole(t: &mut CompiledTape) -> bool {
        if !t.batch.serial {
            return false;
        }
        t.batch.serial = false;
        for op in &t.ops {
            let p = &mut t.batch;
            let cond = op.code == Code::CondRead;
            if cond { &mut p.pops } else { &mut p.vec_post }.push(*op);
        }
        true
    }

    #[test]
    fn audit_flags_a_slot_reused_one_step_early_exactly_once() {
        // `madd(inv, d2, d)` reads `d` for the last time; packing `inv`,
        // the op one step before it, into `d`'s slot overwrites `d` early.
        let mut tape = CompiledTape::compile(&accum_kernel());
        assert_eq!(tape.audit_batch_plan(), vec![]);
        let pre = &tape.batch.vec_pre;
        let at = pre
            .iter()
            .position(|op| op.code == Code::Madd)
            .expect("a madd");
        let (inv, d) = (pre[at - 1].dst, pre[at].c);
        assert_eq!(pre[at].a, inv);
        tape.batch.slot[inv as usize] = tape.batch.slot[d as usize];
        let v = tape.audit_batch_plan();
        assert_eq!(v, [BatchPlanViolation::SlotReused { arg: d, by: inv }]);
    }

    #[test]
    fn audit_flags_every_corruption_in_the_table() {
        // A stream with one resolvable read and one whose fallback is a
        // register read: the plan is serial, and handing the scan its
        // reads is flagged.
        let mut b = KernelBuilder::new("mixed_slots");
        let sf = b.input("flag", 1, StreamMode::EveryIteration);
        let sc = b.input("c", 1, StreamMode::Conditional);
        let o = b.output("y", 2);
        let zero = b.constant(0.0);
        let flag = b.read(sf, 0);
        let live = b.cmp_lt(zero, flag);
        let r = b.reg(0.0);
        let prev = b.read_reg(r);
        let plain = b.cond_read(sc, 0, live, zero);
        let other = b.not(live);
        let coupled = b.cond_read(sc, 0, other, prev);
        b.set_reg(r, coupled);
        b.write(o, &[plain, coupled]);
        let mixed = b.build();
        let tape = CompiledTape::compile(&mixed);
        assert!(tape.batch.serial, "plan: {:?}", tape.batch);
        assert_eq!(tape.audit_batch_plan(), vec![]);

        for (name, corrupt, answers) in CORRUPTIONS {
            let mut applied = 0;
            for k in [
                accum_kernel(),
                decay_kernel(),
                latch_kernel(),
                parity_kernel(),
                mixed.clone(),
            ] {
                let mut tape = CompiledTape::compile(&k);
                if corrupt(&mut tape) {
                    applied += 1;
                    let v = tape.audit_batch_plan();
                    assert!(v.iter().any(answers), "{name} on '{}': {v:?}", k.name);
                }
            }
            assert!(applied >= 1, "{name}: no kernel to corrupt");
        }
    }
}
