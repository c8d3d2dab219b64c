//! Batched structure-of-arrays execution of a compiled tape — the one
//! loop that runs a [`CompiledTape`].
//!
//! The tape ([`crate::tape`]) retired the interpreter's per-iteration
//! graph walk; executed one iteration at a time it still dispatches one
//! opcode per iteration. This module executes it over batches of
//! `B ∈ {8, 16}` iterations held in `[f64; B]` lane arrays, so each op
//! becomes one tight loop the compiler can autovectorize and the per-op
//! dispatch cost is amortized over the whole batch — the same shape
//! MD-Bench gives its SIMD force kernels, and a faithful host-side echo
//! of Merrimac running one kernel across parallel cluster lanes.
//!
//! Bitwise identity with the interpreter is the hard constraint. It is
//! preserved by partitioning the tape at compile time ([`BatchPlan`])
//! into three dataflow-ordered phases:
//!
//! 1. **`vec_pre`** — ops with no transitive dependence on loop-carried
//!    registers or conditional reads. Lane-independent, so they run
//!    vectorized over the whole batch first. For the arithmetic-heavy
//!    StreamMD variants this is nearly the entire tape.
//! 2. **`seq`** — the loop-carried core: every conditional read plus
//!    the lane-coupled backward slice feeding register updates and pop
//!    predicates/fallbacks. These run scalar, lane by lane in iteration
//!    order, so conditional pops happen in exactly the interpreter's
//!    order (iteration-major, op order within an iteration) and
//!    register chains thread through the batch unchanged. This is the
//!    compress side of the paper's conditional-stream semantics: a pop
//!    fills only the lanes whose predicate is live; inactive lanes take
//!    their fallback value.
//! 3. **`vec_post`** — lane-coupled consumers that feed neither
//!    register updates nor pops; once phase 2 has materialized per-lane
//!    register and conditional-read values they vectorize too.
//!
//! Every op still computes the same `f64` expression on the same
//! operand values, so reordering between phases cannot change a single
//! bit. Writes drain lane-major (iteration order) at batch end, which
//! expands conditionally-written records in exactly the interpreter's
//! append order. The remainder — `iterations % B` — runs through the
//! *same* `exec_batch` at one lane, carrying the same stream state, and
//! [`CompiledTape::run`] is that loop from iteration zero: there is no
//! second iteration body. An
//! every-iteration stream that cannot cover the launch bounds the loop
//! and is blamed once, after it. `tests/tape_equivalence.rs` pins all of
//! this differentially against the interpreter.

use std::fmt;

use crate::interp::{InterpError, InterpOutput, StreamData};
use crate::tape::{mask, Code, CompiledTape, TapeOp, NO_COND};

/// Lane count of the batched SoA engine: 8 or 16 iterations per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchWidth {
    /// 8 lanes — the default: one AVX-512 register (or two AVX2
    /// registers) per operand, and a short scalar remainder.
    #[default]
    W8,
    /// 16 lanes — more dispatch amortization on long arithmetic tapes
    /// at twice the lane-array footprint.
    W16,
}

impl BatchWidth {
    /// The width a `MERRIMAC_TAPE_BATCH` value names, if any. Typed
    /// rejection of malformed values happens at the validated front
    /// door (`merrimac_bench::RunSpec::from_env_overrides`), which
    /// calls this.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "8" => Some(BatchWidth::W8),
            "16" => Some(BatchWidth::W16),
            _ => None,
        }
    }

    /// Resolve from the `MERRIMAC_TAPE_BATCH` environment variable
    /// (`8` or `16`; anything else, including unset, means 8). Lenient
    /// legacy default for raw construction — results are
    /// bitwise-identical at either width, only host wall-clock differs.
    pub fn from_env() -> Self {
        std::env::var("MERRIMAC_TAPE_BATCH")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

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

/// Compile-time phase partition of a tape's ops (see the module docs).
/// Built once in [`CompiledTape::compile`] and cached on the tape, so
/// every launch reuses the analysis.
#[derive(Debug, Clone, Default)]
pub struct BatchPlan {
    /// Phase 1: lane-independent ops, vectorized before any lane state.
    pub(crate) vec_pre: Vec<TapeOp>,
    /// Phase 2: the scalar per-lane core, in original tape order.
    pub(crate) seq: Vec<TapeOp>,
    /// Phase 3: lane-coupled but state-free consumers, vectorized after
    /// phase 2 resolves the per-lane register/conditional values.
    pub(crate) vec_post: Vec<TapeOp>,
}

impl BatchPlan {
    pub(crate) fn analyze(tape: &CompiledTape) -> Self {
        let n = tape.num_nodes;
        // A slot is lane-coupled when its value is not a pure function
        // of this iteration's own stream records: register reads carry
        // state from earlier lanes, conditional reads depend on the
        // shared pop cursor. Coupling propagates forward through use.
        let mut coupled = vec![false; n];
        for &(dst, _) in &tape.reg_reads {
            coupled[dst as usize] = true;
        }
        for op in &tape.ops {
            if op.code == Code::CondRead
                || used_args(op)
                    .into_iter()
                    .flatten()
                    .any(|a| coupled[a as usize])
            {
                coupled[op.dst as usize] = true;
            }
        }
        // `needed` marks the backward slice that must resolve before
        // the next lane may start: register-update sources plus pop
        // predicates and fallbacks.
        let mut needed = vec![false; n];
        for &(_, v) in &tape.reg_updates {
            needed[v as usize] = true;
        }
        for cr in &tape.cond_reads {
            needed[cr.pred as usize] = true;
            needed[cr.fallback as usize] = true;
        }
        for op in tape.ops.iter().rev() {
            if op.code != Code::CondRead && needed[op.dst as usize] {
                for a in used_args(op).into_iter().flatten() {
                    needed[a as usize] = true;
                }
            }
        }
        // Uncoupled ops never observe lane state, so hoisting them to
        // phase 1 is dataflow-safe even when `needed` (their results are
        // ready before any lane of phase 2 reads them). Coupled ops stay
        // sequential only while something per-lane depends on them.
        let mut plan = BatchPlan::default();
        for op in &tape.ops {
            if op.code == Code::CondRead {
                plan.seq.push(*op);
            } else if !coupled[op.dst as usize] {
                plan.vec_pre.push(*op);
            } else if needed[op.dst as usize] {
                plan.seq.push(*op);
            } else {
                plan.vec_post.push(*op);
            }
        }
        plan
    }
}

/// The operand slots an op actually reads. Unused slots default to 0 in
/// [`TapeOp`] and must not leak into the dependence analysis, or node 0
/// would falsely couple every unary op.
fn used_args(op: &TapeOp) -> [Option<u32>; 3] {
    match op.code {
        Code::Sqrt | Code::Rsqrt | Code::SeedRecip | Code::SeedRsqrt | Code::Not | Code::Mov => {
            [Some(op.a), None, None]
        }
        Code::Madd | Code::Nmsub | Code::Sel => [Some(op.a), Some(op.b), Some(op.c)],
        Code::CondRead => [None, None, None],
        _ => [Some(op.a), Some(op.b), None],
    }
}

/// One violated invariant of the three-phase batch split, as found by
/// [`CompiledTape::audit_batch_plan`]. A correct [`BatchPlan`] never
/// produces any of these; each variant names the op slot (and where
/// relevant the phase or operand) that breaks the contract the batch
/// engine's correctness proof rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPlanViolation {
    /// A tape op's destination slot appears in no phase: the batch
    /// engine would simply never compute it.
    MissingOp { dst: u32 },
    /// A destination slot appears in more than one phase (or twice in
    /// one): the op would execute multiple times per iteration.
    DuplicateOp { dst: u32 },
    /// A conditional read was scheduled outside the sequential phase,
    /// where the shared pop cursor cannot resolve in lane order.
    CondReadOutsideSeq { dst: u32, phase: &'static str },
    /// A phase-1 (pre-vectorized) op reads a lane-coupled slot — a
    /// register read, a sequential result, or a phase-3 result — whose
    /// per-lane value does not exist yet when phase 1 runs.
    PreReadsCoupled { dst: u32, arg: u32 },
    /// A sequential op reads a slot that only resolves in phase 3,
    /// which runs after the whole sequential phase.
    SeqReadsPost { dst: u32, arg: u32 },
    /// A register-update source or a pop predicate/fallback resolves
    /// only in phase 3 — the next lane would observe a stale value.
    NeededInPost { dst: u32 },
    /// Ops inside one phase are out of tape (SSA) order, so an op could
    /// read an operand slot before the phase has written it.
    PhaseOrder { phase: &'static str, dst: u32 },
}

impl fmt::Display for BatchPlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BatchPlanViolation::MissingOp { dst } => {
                write!(f, "op slot {dst} is scheduled in no phase")
            }
            BatchPlanViolation::DuplicateOp { dst } => {
                write!(f, "op slot {dst} is scheduled more than once")
            }
            BatchPlanViolation::CondReadOutsideSeq { dst, phase } => {
                write!(
                    f,
                    "conditional read at slot {dst} scheduled in {phase} instead of seq"
                )
            }
            BatchPlanViolation::PreReadsCoupled { dst, arg } => {
                write!(f, "vec_pre op at slot {dst} reads lane-coupled slot {arg}")
            }
            BatchPlanViolation::SeqReadsPost { dst, arg } => {
                write!(f, "seq op at slot {dst} reads vec_post slot {arg}")
            }
            BatchPlanViolation::NeededInPost { dst } => {
                write!(
                    f,
                    "slot {dst} feeds a register update or pop control but resolves in vec_post"
                )
            }
            BatchPlanViolation::PhaseOrder { phase, dst } => {
                write!(f, "{phase} breaks tape order at slot {dst}")
            }
        }
    }
}

impl CompiledTape {
    /// Re-derive every invariant the batch engine assumes of its cached
    /// [`BatchPlan`] and report each breach. Independent of
    /// [`BatchPlan::analyze`]'s own bookkeeping on purpose: the audit
    /// checks the *plan artifact* against the tape, so a bug in the
    /// analysis (or a hand-corrupted plan in tests) is caught rather
    /// than re-trusted. Returns an empty vector for a sound plan.
    pub fn audit_batch_plan(&self) -> Vec<BatchPlanViolation> {
        let plan = &self.batch;
        let mut out = Vec::new();
        let n = self.num_nodes;

        // Phase membership by destination slot, plus the multi-set
        // count for exactly-once coverage.
        let mut in_pre = vec![false; n];
        let mut in_seq = vec![false; n];
        let mut in_post = vec![false; n];
        let mut count = vec![0usize; n];
        for op in &plan.vec_pre {
            in_pre[op.dst as usize] = true;
            count[op.dst as usize] += 1;
        }
        for op in &plan.seq {
            in_seq[op.dst as usize] = true;
            count[op.dst as usize] += 1;
        }
        for op in &plan.vec_post {
            in_post[op.dst as usize] = true;
            count[op.dst as usize] += 1;
        }
        for op in &self.ops {
            match count[op.dst as usize] {
                0 => out.push(BatchPlanViolation::MissingOp { dst: op.dst }),
                1 => {}
                _ => out.push(BatchPlanViolation::DuplicateOp { dst: op.dst }),
            }
        }

        // Conditional reads must resolve the shared pop cursor in lane
        // order — only the sequential phase provides that.
        for (phase, ops) in [("vec_pre", &plan.vec_pre), ("vec_post", &plan.vec_post)] {
            for op in ops.iter() {
                if op.code == Code::CondRead {
                    out.push(BatchPlanViolation::CondReadOutsideSeq { dst: op.dst, phase });
                }
            }
        }

        // Lane-coupled slots: register reads carry prior-lane state;
        // seq and post results are per-lane by construction.
        let mut coupled = vec![false; n];
        for &(dst, _) in &self.reg_reads {
            coupled[dst as usize] = true;
        }
        for s in 0..n {
            if in_seq[s] || in_post[s] {
                coupled[s] = true;
            }
        }
        for op in &plan.vec_pre {
            for a in used_args(op).into_iter().flatten() {
                if coupled[a as usize] {
                    out.push(BatchPlanViolation::PreReadsCoupled {
                        dst: op.dst,
                        arg: a,
                    });
                }
            }
        }

        // The sequential phase runs strictly before phase 3.
        for op in &plan.seq {
            for a in used_args(op).into_iter().flatten() {
                if in_post[a as usize] {
                    out.push(BatchPlanViolation::SeqReadsPost {
                        dst: op.dst,
                        arg: a,
                    });
                }
            }
        }

        // Everything the next lane depends on — register-update sources
        // and pop predicates/fallbacks — must resolve by end of seq.
        let mut needed_now = vec![false; n];
        for &(_, v) in &self.reg_updates {
            needed_now[v as usize] = true;
        }
        for cr in &self.cond_reads {
            needed_now[cr.pred as usize] = true;
            needed_now[cr.fallback as usize] = true;
        }
        for s in 0..n {
            if needed_now[s] && in_post[s] {
                out.push(BatchPlanViolation::NeededInPost { dst: s as u32 });
            }
        }

        // Tape order within each phase: dsts are strictly increasing in
        // tape order (SSA), so any inversion means an op could read a
        // slot its own phase has not written yet.
        for (phase, ops) in [
            ("vec_pre", &plan.vec_pre),
            ("seq", &plan.seq),
            ("vec_post", &plan.vec_post),
        ] {
            for w in ops.windows(2) {
                if w[1].dst <= w[0].dst {
                    out.push(BatchPlanViolation::PhaseOrder {
                        phase,
                        dst: w[1].dst,
                    });
                }
            }
        }

        out
    }

    /// Drop the last op of the first non-empty phase, leaving a plan
    /// the audit must flag with exactly one `MissingOp`. Test-only
    /// sabotage hook for the BATCH_PLAN_SPLIT fixtures — never called
    /// by production code.
    #[doc(hidden)]
    pub fn corrupt_batch_plan_for_tests(&mut self) {
        for ops in [
            &mut self.batch.vec_pre,
            &mut self.batch.seq,
            &mut self.batch.vec_post,
        ] {
            if !ops.is_empty() {
                ops.pop();
                return;
            }
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
        match width {
            BatchWidth::W8 => self.run_lanes::<8>(inputs, params, iterations),
            BatchWidth::W16 => self.run_lanes::<16>(inputs, params, iterations),
        }
    }

    /// Execute `iterations` loop iterations over `inputs` with launch
    /// `params`, one iteration per batch — the loop
    /// [`CompiledTape::run_batched`] runs its remainder through.
    /// Semantically identical to [`crate::interp::Interpreter::run`] on
    /// the same kernel, including error values.
    pub fn run(
        &self,
        inputs: &[StreamData],
        params: &[f64],
        iterations: usize,
    ) -> Result<InterpOutput, InterpError> {
        self.run_lanes::<1>(inputs, params, iterations)
    }

    /// One [f64; B] lane array per value slot. Constants and params
    /// broadcast once per launch; SSA guarantees phase results overwrite
    /// their slots before any lane reads them.
    fn init_lanes<const B: usize>(&self, params: &[f64]) -> Vec<[f64; B]> {
        let mut lanes = vec![[0.0; B]; self.num_nodes];
        for &(slot, c) in &self.const_inits {
            lanes[slot as usize] = [c; B];
        }
        for &(slot, p) in &self.param_inits {
            lanes[slot as usize] = [params[p as usize]; B];
        }
        lanes
    }

    /// The launch loop: full batches at `B` lanes, the remainder at one.
    fn run_lanes<const B: usize>(
        &self,
        inputs: &[StreamData],
        params: &[f64],
        iterations: usize,
    ) -> Result<InterpOutput, InterpError> {
        self.validate_signature(inputs, params)?;
        let mut outputs = self.make_outputs(iterations);
        let mut regs = self.reg_init.clone();

        // Every-iteration streams pop once per iteration, so the first
        // of them (in index order) to hold fewer records than the launch
        // has iterations bounds the loop, and takes the blame below.
        let num_records: Vec<usize> = inputs.iter().map(|d| d.num_records()).collect();
        let mut runnable = iterations;
        let mut dry = None;
        for (s, every) in self.input_every_iter.iter().enumerate() {
            if *every && num_records[s] < runnable {
                runnable = num_records[s];
                dry = Some(s);
            }
        }

        let mut st = StreamState::new(self, inputs.len());
        let full = runnable - runnable % B;
        let mut lanes = self.init_lanes::<B>(params);
        for base in (0..full).step_by(B) {
            self.exec_batch::<B>(
                inputs,
                &num_records,
                &mut lanes,
                &mut regs,
                &mut outputs,
                &mut st,
                base,
            )?;
        }
        if full < runnable {
            let mut lane = self.init_lanes::<1>(params);
            for base in full..runnable {
                self.exec_batch::<1>(
                    inputs,
                    &num_records,
                    &mut lane,
                    &mut regs,
                    &mut outputs,
                    &mut st,
                    base,
                )?;
            }
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

    /// One full batch of `B` iterations: SoA gather, the three phases,
    /// lane-major write drain, cursor advance. `base` is the absolute
    /// iteration index of lane 0 (for underrun blame). Every
    /// every-iteration stream must hold `B` more records.
    #[allow(clippy::too_many_arguments)]
    fn exec_batch<const B: usize>(
        &self,
        inputs: &[StreamData],
        num_records: &[usize],
        lanes: &mut [[f64; B]],
        regs: &mut [f64],
        outputs: &mut [StreamData],
        st: &mut StreamState,
        base: usize,
    ) -> Result<(), InterpError> {
        // SoA gather: transpose B consecutive records of each
        // every-iteration stream into the read slots' lane arrays.
        for g in &self.stream_reads {
            let s = g.stream as usize;
            let rl = self.input_record_len[s];
            let rows = &inputs[s].data[st.row_base[s]..st.row_base[s] + B * rl];
            for &(dst, f) in &g.reads {
                let mut lane = [0.0f64; B];
                for (l, v) in lane.iter_mut().enumerate() {
                    *v = rows[l * rl + f as usize];
                }
                lanes[dst as usize] = lane;
            }
        }
        // Phase 1: lane-independent arithmetic, vectorized.
        for op in &self.batch.vec_pre {
            exec_vec::<B>(op, lanes);
        }
        // Phase 2: scalar per lane, in iteration order — register chains
        // and conditional pops resolve exactly as in the interpreter.
        for l in 0..B {
            st.generation += 1;
            for &(dst, r) in &self.reg_reads {
                lanes[dst as usize][l] = regs[r as usize];
            }
            for op in &self.batch.seq {
                let v = match op.code {
                    Code::CondRead => {
                        let cr = &self.cond_reads[op.a as usize];
                        if lanes[cr.pred as usize][l] != 0.0 {
                            let s = cr.stream as usize;
                            let slot = cr.slot as usize;
                            if st.pop_gen[slot] != st.generation {
                                if st.cursors[s] >= num_records[s] {
                                    return Err(InterpError::StreamUnderrun {
                                        stream: s,
                                        iteration: base + l,
                                    });
                                }
                                st.pop_gen[slot] = st.generation;
                                st.pop_base[slot] = st.row_base[s];
                                st.cursors[s] += 1;
                                st.row_base[s] += self.input_record_len[s];
                            }
                            inputs[s].data[st.pop_base[slot] + cr.field as usize]
                        } else {
                            lanes[cr.fallback as usize][l]
                        }
                    }
                    _ => eval_arith_lane::<B>(op, lanes, l),
                };
                lanes[op.dst as usize][l] = v;
            }
            for &(r, v) in &self.reg_updates {
                regs[r as usize] = lanes[v as usize][l];
            }
        }
        // Phase 3: vectorized consumers of the resolved lane state.
        for op in &self.batch.vec_post {
            exec_vec::<B>(op, lanes);
        }
        // Drain writes lane-major so appends interleave exactly as the
        // interpreter's per-iteration writes — the expand side: conditional
        // writes scatter only their active lanes. (`l` picks one lane
        // out of every referenced lane array, so it is a genuine index.)
        #[allow(clippy::needless_range_loop)]
        for l in 0..B {
            for w in &self.writes {
                if w.cond != NO_COND && lanes[w.cond as usize][l] == 0.0 {
                    continue;
                }
                let out = &mut outputs[w.stream as usize].data;
                let range = w.start as usize..(w.start + w.len) as usize;
                out.extend(
                    self.write_values[range]
                        .iter()
                        .map(|&v| lanes[v as usize][l]),
                );
            }
        }
        // Every-iteration streams advance once per lane, as a block.
        for (s, every) in self.input_every_iter.iter().enumerate() {
            if *every {
                st.cursors[s] += B;
                st.row_base[s] += B * self.input_record_len[s];
            }
        }
        Ok(())
    }
}

/// Mutable stream state of one launch, carried across its batches:
/// cursors and conditional-pop bookkeeping.
#[derive(Debug)]
pub(crate) struct StreamState {
    /// Records consumed so far per input stream.
    cursors: Vec<usize>,
    /// Word offset of each stream's next record.
    row_base: Vec<usize>,
    /// Generation stamp of each pop slot's last pop.
    pop_gen: Vec<u64>,
    /// Word offset of each pop slot's current record.
    pop_base: Vec<usize>,
    /// Iterations started so far — the pop-slot reset generation.
    generation: u64,
}

impl StreamState {
    fn new(tape: &CompiledTape, num_inputs: usize) -> Self {
        Self {
            cursors: vec![0; num_inputs],
            row_base: vec![0; num_inputs],
            pop_gen: vec![0; tape.pop_slots],
            pop_base: vec![0; tape.pop_slots],
            generation: 0,
        }
    }
}

/// Execute one lane-independent op over all `B` lanes. Operand arrays
/// are copied out by value (`[f64; B]` is `Copy`) so the destination
/// store borrows cleanly and each match arm is one flat loop the
/// compiler can autovectorize. Same `f64` expressions as the
/// interpreter's `Node::Op` arm, lane by lane.
#[inline(always)]
fn exec_vec<const B: usize>(op: &TapeOp, lanes: &mut [[f64; B]]) {
    let a = lanes[op.a as usize];
    let mut d = [0.0f64; B];
    match op.code {
        Code::Add => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = a[l] + b[l];
            }
        }
        Code::Sub => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = a[l] - b[l];
            }
        }
        Code::Mul => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = a[l] * b[l];
            }
        }
        Code::Madd => {
            let b = lanes[op.b as usize];
            let c = lanes[op.c as usize];
            for l in 0..B {
                d[l] = a[l] * b[l] + c[l];
            }
        }
        Code::Nmsub => {
            let b = lanes[op.b as usize];
            let c = lanes[op.c as usize];
            for l in 0..B {
                d[l] = c[l] - a[l] * b[l];
            }
        }
        Code::Div => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = a[l] / b[l];
            }
        }
        Code::Sqrt => {
            for l in 0..B {
                d[l] = a[l].sqrt();
            }
        }
        Code::Rsqrt => {
            for l in 0..B {
                d[l] = 1.0 / a[l].sqrt();
            }
        }
        Code::SeedRecip => {
            for l in 0..B {
                d[l] = (1.0 / a[l]) as f32 as f64;
            }
        }
        Code::SeedRsqrt => {
            for l in 0..B {
                d[l] = (1.0 / a[l].sqrt()) as f32 as f64;
            }
        }
        Code::CmpEq => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = mask(a[l] == b[l]);
            }
        }
        Code::CmpLt => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = mask(a[l] < b[l]);
            }
        }
        Code::CmpLe => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = mask(a[l] <= b[l]);
            }
        }
        Code::Sel => {
            let b = lanes[op.b as usize];
            let c = lanes[op.c as usize];
            for l in 0..B {
                d[l] = if a[l] != 0.0 { b[l] } else { c[l] };
            }
        }
        Code::And => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = mask(a[l] != 0.0 && b[l] != 0.0);
            }
        }
        Code::Or => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = mask(a[l] != 0.0 || b[l] != 0.0);
            }
        }
        Code::Not => {
            for l in 0..B {
                d[l] = mask(a[l] == 0.0);
            }
        }
        Code::Min => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = a[l].min(b[l]);
            }
        }
        Code::Max => {
            let b = lanes[op.b as usize];
            for l in 0..B {
                d[l] = a[l].max(b[l]);
            }
        }
        Code::Mov => d = a,
        Code::CondRead => unreachable!("conditional read in a vector phase"),
    }
    lanes[op.dst as usize] = d;
}

/// Scalar evaluation of one op at lane `l` — the phase-2 twin of
/// [`exec_vec`], bit-for-bit the same `f64` expressions.
#[inline(always)]
fn eval_arith_lane<const B: usize>(op: &TapeOp, lanes: &[[f64; B]], l: usize) -> f64 {
    let a = lanes[op.a as usize][l];
    match op.code {
        Code::Add => a + lanes[op.b as usize][l],
        Code::Sub => a - lanes[op.b as usize][l],
        Code::Mul => a * lanes[op.b as usize][l],
        Code::Madd => a * lanes[op.b as usize][l] + lanes[op.c as usize][l],
        Code::Nmsub => lanes[op.c as usize][l] - a * lanes[op.b as usize][l],
        Code::Div => a / lanes[op.b as usize][l],
        Code::Sqrt => a.sqrt(),
        Code::Rsqrt => 1.0 / a.sqrt(),
        Code::SeedRecip => (1.0 / a) as f32 as f64,
        Code::SeedRsqrt => (1.0 / a.sqrt()) as f32 as f64,
        Code::CmpEq => mask(a == lanes[op.b as usize][l]),
        Code::CmpLt => mask(a < lanes[op.b as usize][l]),
        Code::CmpLe => mask(a <= lanes[op.b as usize][l]),
        Code::Sel => {
            if a != 0.0 {
                lanes[op.b as usize][l]
            } else {
                lanes[op.c as usize][l]
            }
        }
        Code::And => mask(a != 0.0 && lanes[op.b as usize][l] != 0.0),
        Code::Or => mask(a != 0.0 || lanes[op.b as usize][l] != 0.0),
        Code::Not => mask(a == 0.0),
        Code::Min => a.min(lanes[op.b as usize][l]),
        Code::Max => a.max(lanes[op.b as usize][l]),
        Code::Mov => a,
        Code::CondRead => unreachable!("conditional read reached eval_arith_lane"),
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
    fn width_knob_parses_and_reports_lanes() {
        assert_eq!(BatchWidth::parse("8"), Some(BatchWidth::W8));
        assert_eq!(BatchWidth::parse("16"), Some(BatchWidth::W16));
        assert_eq!(BatchWidth::parse("12"), None);
        assert_eq!(BatchWidth::parse(""), None);
        assert_eq!(BatchWidth::default().lanes(), 8);
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

    #[test]
    fn plan_keeps_the_arithmetic_slice_vectorized() {
        let tape = CompiledTape::compile(&accum_kernel());
        // Only the accumulate add (coupled via the register read AND
        // feeding the register update) must run sequentially.
        assert_eq!(tape.batch.seq.len(), 1, "plan: {:?}", tape.batch);
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
        let k = b.build();
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
        // Conditional kernel: CondReads pin ops into seq; the audit
        // must still find nothing to complain about.
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
        let tape = CompiledTape::compile(&accum_kernel());
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

        // Hoisting the coupled seq op into vec_pre: its register-read
        // operand makes it lane-coupled, so the audit must reject it.
        let mut hoist = tape.clone();
        let seq_op = hoist.batch.seq.remove(0);
        hoist.batch.vec_pre.push(seq_op);
        let v = hoist.audit_batch_plan();
        assert!(
            v.iter()
                .any(|x| matches!(x, BatchPlanViolation::PreReadsCoupled { .. })),
            "violations: {v:?}"
        );

        // Demoting it to vec_post instead starves the register update.
        let mut demote = tape.clone();
        let seq_op = demote.batch.seq.remove(0);
        demote.batch.vec_post.push(seq_op);
        let v = demote.audit_batch_plan();
        assert!(
            v.iter()
                .any(|x| matches!(x, BatchPlanViolation::NeededInPost { .. })),
            "violations: {v:?}"
        );

        // A CondRead outside seq is always wrong.
        let mut b = KernelBuilder::new("cond_misphase");
        let s = b.input("v", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let val = b.cond_read(s, 0, one, zero);
        b.write(o, &[val]);
        let mut mis = CompiledTape::compile(&b.build());
        let cr = mis.batch.seq.remove(0);
        mis.batch.vec_post.push(cr);
        let v = mis.audit_batch_plan();
        assert!(
            v.iter().any(|x| matches!(
                x,
                BatchPlanViolation::CondReadOutsideSeq {
                    phase: "vec_post",
                    ..
                }
            )),
            "violations: {v:?}"
        );
    }
}
