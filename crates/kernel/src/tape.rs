//! Bytecode kernel-execution engine: compile a dataflow graph once into
//! a flat tape, then execute the tape with no per-iteration allocation.
//!
//! [`crate::interp::Interpreter`] re-walks the node graph every
//! iteration — enum dispatch over `Vec<NodeId>` argument lists, a fresh
//! `Vec<HashMap>` of conditional-pop bookkeeping per iteration, and
//! push-grown output vectors. That is pure host overhead on the hottest
//! path in the simulator (every simulated interaction funnels through
//! it). The paper's kernel story is the same one in miniature: issue
//! rate is won by compiling once and executing a dense schedule.
//!
//! [`CompiledTape::compile`] runs once per kernel and produces:
//!
//! * a linear [`TapeOp`] array with pre-resolved operand/destination
//!   value slots (no `Vec<NodeId>` pointer chases at run time), with
//!   register and stream-record reads batched into a dispatch-free
//!   per-iteration prologue so the tape itself is pure arithmetic (plus
//!   conditional reads);
//! * loop-invariant constants and parameters hoisted into an init plan
//!   executed once per launch, not once per iteration — with the reads
//!   of every register no update changes, folded to its initial value;
//! * a flat conditional-pop table with one slot per distinct
//!   `(stream, predicate)` pair, popped by the slot's first read in
//!   tape order, instead of a fresh `HashMap` per iteration;
//! * a write plan: an output whose writes are all unconditional is
//!   sized once per launch and written by offset; one with a conditional
//!   write is reserved at its worst case and appended to;
//! * the [`BatchPlan`] the execution loop runs: the stage split, and
//!   lane slots packed by liveness.
//!
//! This module only compiles. The one loop that executes a tape is
//! [`crate::batch`]'s, over lanes of 16 (or 8) iterations
//! ([`CompiledTape::run_batched`], or [`CompiledTape::run_views`] on
//! borrowed words) or one ([`CompiledTape::run`]).
//!
//! The tape is semantically bitwise-identical to the interpreter — same
//! `f64` operations in the same order, same pop semantics, same error
//! values — which `tests/tape_equivalence.rs` proves differentially
//! over random kernels. The interpreter remains the reference oracle.

use crate::batch::BatchPlan;
use crate::interp::{InterpError, StreamData, StreamView};
use crate::ir::{Kernel, Node, OpKind, StreamMode};

/// Sentinel for "no condition" in a [`WritePlan`].
pub(crate) const NO_COND: u32 = u32::MAX;
/// [`WritePlan::at`] of a write to an output that is appended to.
pub(crate) const APPEND: u32 = u32::MAX;

/// Tape opcodes. Plain register/stream reads never appear here: they
/// are source nodes with no operands, so the compiler batches them into
/// a per-iteration read prologue ([`StreamReads`]/`reg_reads`) executed
/// without opcode dispatch. Constants and parameters are hoisted
/// further, into the once-per-launch init plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Code {
    /// `dst = cond_reads[a]` (see [`CondReadSlot`])
    CondRead,
    Add,
    Sub,
    Mul,
    Madd,
    Nmsub,
    Div,
    Sqrt,
    Rsqrt,
    SeedRecip,
    SeedRsqrt,
    CmpEq,
    CmpLt,
    CmpLe,
    Sel,
    And,
    Or,
    Not,
    Min,
    Max,
    Mov,
}

/// One tape instruction: opcode plus pre-resolved value slots. `a`, `b`
/// and `c` are operand slots for arithmetic ops; for conditional reads
/// `a` indexes the [`CondReadSlot`] table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeOp {
    pub(crate) code: Code,
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
}

/// Iteration-prologue reads from one every-iteration input stream:
/// `vals[dst] = current_record[field]`. Grouped per stream so the
/// record row is sliced once and shared by all its field reads.
#[derive(Debug, Clone)]
pub(crate) struct StreamReads {
    pub(crate) stream: u32,
    /// `(value slot, field)` pairs.
    pub(crate) reads: Vec<(u32, u32)>,
}

/// Pre-resolved conditional-stream read. `slot` indexes the flat pop
/// table: all `CondRead`s guarded by the same predicate on the same
/// stream share one popped record per iteration, while distinct
/// predicates (e.g. the copies introduced by unrolling) pop
/// independently — exactly the interpreter's per-predicate `HashMap`
/// semantics, but with the slot assignment done at compile time.
/// `leads` marks the slot's first read in tape order: the one that pops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CondReadSlot {
    pub(crate) stream: u32,
    pub(crate) field: u32,
    pub(crate) pred: u32,
    pub(crate) fallback: u32,
    pub(crate) slot: u32,
    pub(crate) leads: bool,
}

/// One output write per iteration: `write_values[start..start+len]`
/// put to `outputs[stream]` when `cond` (a value slot, or [`NO_COND`])
/// is non-zero — at word `at` of the iteration's block of
/// `out_words_per_iter` words, or appended when `at` is [`APPEND`]
/// (some write to the stream is conditional, so blocks vary in length).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WritePlan {
    pub(crate) stream: u32,
    pub(crate) cond: u32,
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) at: u32,
}

/// A kernel compiled to a flat execution tape. Immutable and shareable
/// across threads; all mutable execution state lives on the stack of
/// the launch that runs it.
#[derive(Debug, Clone)]
pub struct CompiledTape {
    pub(crate) name: String,
    pub(crate) num_nodes: usize,
    /// `(value slot, constant)` — loop-invariant, applied once per run:
    /// the kernel's constants, then the reads of its held registers.
    pub(crate) const_inits: Vec<(u32, f64)>,
    /// `(value slot, param index)` — loop-invariant.
    pub(crate) param_inits: Vec<(u32, u32)>,
    /// `(value slot, register)` — iteration prologue. Registers only
    /// change in the iteration epilogue (`reg_updates`), so every
    /// register read can run before the arithmetic tape.
    pub(crate) reg_reads: Vec<(u32, u32)>,
    /// Per-stream iteration-prologue reads (every-iteration streams
    /// only; `validate_ssa` rejects plain reads of conditional streams).
    pub(crate) stream_reads: Vec<StreamReads>,
    /// The arithmetic/conditional-read tape proper.
    pub(crate) ops: Vec<TapeOp>,
    pub(crate) cond_reads: Vec<CondReadSlot>,
    /// Number of distinct `(stream, predicate)` pop slots.
    pub(crate) pop_slots: usize,
    pub(crate) input_record_len: Vec<usize>,
    pub(crate) input_every_iter: Vec<bool>,
    pub(crate) num_params: usize,
    pub(crate) reg_init: Vec<f64>,
    /// `(register, value slot)` — iteration epilogue; a held register's
    /// updates are dropped with its reads.
    pub(crate) reg_updates: Vec<(u32, u32)>,
    pub(crate) writes: Vec<WritePlan>,
    pub(crate) write_values: Vec<u32>,
    pub(crate) out_record_len: Vec<usize>,
    /// Worst-case words appended per iteration to each output — exact
    /// for outputs with only unconditional writes.
    pub(crate) out_words_per_iter: Vec<usize>,
    /// Dataflow phase partition of `ops` for the batched SoA engine
    /// ([`crate::batch`]), precomputed here so every launch reuses it.
    pub(crate) batch: BatchPlan,
}

impl CompiledTape {
    /// Compile `kernel` into a tape. Validates the kernel once here so
    /// no launch re-validates.
    pub fn compile(kernel: &Kernel) -> Self {
        kernel.validate_ssa();
        let mut const_inits = Vec::new();
        let mut param_inits = Vec::new();
        let mut reg_reads = Vec::new();
        let mut stream_reads: Vec<StreamReads> = Vec::new();
        let mut ops = Vec::new();
        let mut cond_reads: Vec<CondReadSlot> = Vec::new();
        // (stream, pred) -> pop slot. Kernels have few conditional
        // reads, so a linear scan beats hashing at compile time too.
        let mut slot_keys: Vec<(u32, u32)> = Vec::new();
        for (i, node) in kernel.nodes.iter().enumerate() {
            let dst = i as u32;
            match node {
                Node::Const(c) => const_inits.push((dst, *c)),
                Node::Param(p) => param_inits.push((dst, *p)),
                Node::ReadReg(r) => reg_reads.push((dst, *r)),
                Node::Read { stream, field } => {
                    let group = match stream_reads.iter_mut().find(|g| g.stream == *stream) {
                        Some(g) => g,
                        None => {
                            stream_reads.push(StreamReads {
                                stream: *stream,
                                reads: Vec::new(),
                            });
                            stream_reads.last_mut().unwrap()
                        }
                    };
                    group.reads.push((dst, *field));
                }
                Node::CondRead {
                    stream,
                    field,
                    pred,
                    fallback,
                } => {
                    let key = (*stream, *pred);
                    let seen = slot_keys.iter().position(|k| *k == key);
                    let slot = seen.unwrap_or(slot_keys.len());
                    if seen.is_none() {
                        slot_keys.push(key);
                    }
                    cond_reads.push(CondReadSlot {
                        stream: *stream,
                        field: *field,
                        pred: *pred,
                        fallback: *fallback,
                        slot: slot as u32,
                        leads: seen.is_none(),
                    });
                    ops.push(TapeOp {
                        code: Code::CondRead,
                        dst,
                        a: (cond_reads.len() - 1) as u32,
                        b: 0,
                        c: 0,
                    });
                }
                Node::Op { op, args } => {
                    let code = match op {
                        OpKind::Add => Code::Add,
                        OpKind::Sub => Code::Sub,
                        OpKind::Mul => Code::Mul,
                        OpKind::Madd => Code::Madd,
                        OpKind::Nmsub => Code::Nmsub,
                        OpKind::Div => Code::Div,
                        OpKind::Sqrt => Code::Sqrt,
                        OpKind::Rsqrt => Code::Rsqrt,
                        OpKind::SeedRecip => Code::SeedRecip,
                        OpKind::SeedRsqrt => Code::SeedRsqrt,
                        OpKind::CmpEq => Code::CmpEq,
                        OpKind::CmpLt => Code::CmpLt,
                        OpKind::CmpLe => Code::CmpLe,
                        OpKind::Sel => Code::Sel,
                        OpKind::And => Code::And,
                        OpKind::Or => Code::Or,
                        OpKind::Not => Code::Not,
                        OpKind::Min => Code::Min,
                        OpKind::Max => Code::Max,
                        OpKind::Mov => Code::Mov,
                    };
                    ops.push(TapeOp {
                        code,
                        dst,
                        a: args[0],
                        b: args.get(1).copied().unwrap_or(0),
                        c: args.get(2).copied().unwrap_or(0),
                    });
                }
            }
        }

        // A register no update changes — it has none, or each stores one
        // of its own reads back — holds its initial value: its reads are
        // constants and its updates are moves of what it already holds.
        let held = |r: u32| {
            let mut updates = kernel.reg_updates.iter();
            updates.all(|&(u, v)| u != r || kernel.nodes[v as usize] == Node::ReadReg(r))
        };
        reg_reads.retain(|&(dst, r)| {
            if held(r) {
                const_inits.push((dst, kernel.reg_init[r as usize]));
            }
            !held(r)
        });
        let reg_updates = kernel.reg_updates.iter().filter(|u| !held(u.0)).copied();

        let mut write_values = Vec::new();
        let mut writes = Vec::new();
        let mut out_words_per_iter = vec![0usize; kernel.outputs.len()];
        for w in &kernel.writes {
            let start = write_values.len() as u32;
            write_values.extend_from_slice(&w.values);
            let appended = kernel
                .writes
                .iter()
                .any(|o| o.stream == w.stream && o.cond.is_some());
            writes.push(WritePlan {
                stream: w.stream,
                cond: w.cond.unwrap_or(NO_COND),
                start,
                len: w.values.len() as u32,
                at: if appended {
                    APPEND
                } else {
                    out_words_per_iter[w.stream as usize] as u32
                },
            });
            out_words_per_iter[w.stream as usize] += w.values.len();
        }

        let mut tape = Self {
            name: kernel.name.clone(),
            num_nodes: kernel.nodes.len(),
            const_inits,
            param_inits,
            reg_reads,
            stream_reads,
            ops,
            cond_reads,
            pop_slots: slot_keys.len(),
            input_record_len: kernel
                .inputs
                .iter()
                .map(|s| s.record_len as usize)
                .collect(),
            input_every_iter: kernel
                .inputs
                .iter()
                .map(|s| s.mode == StreamMode::EveryIteration)
                .collect(),
            num_params: kernel.num_params as usize,
            reg_init: kernel.reg_init.clone(),
            reg_updates: reg_updates.collect(),
            writes,
            write_values,
            out_record_len: kernel
                .outputs
                .iter()
                .map(|s| s.record_len as usize)
                .collect(),
            out_words_per_iter,
            batch: BatchPlan::default(),
        };
        tape.batch = BatchPlan::analyze(&tape);
        (tape.batch.slot, tape.batch.slots, tape.batch.lane_ops) = BatchPlan::pack(&tape);
        tape
    }

    /// True when the kernel has no conditional input streams: every
    /// stream pops exactly once per iteration.
    pub fn is_fast_path(&self) -> bool {
        self.input_every_iter.iter().all(|every| *every)
    }

    /// Worst-case records popped from input stream `s` in one
    /// iteration: exactly one for every-iteration streams, one per
    /// distinct `(stream, predicate)` pop slot for conditional streams
    /// (each slot pops at most once per iteration; the lower bound for
    /// a conditional stream is zero).
    pub fn max_pops_per_iter(&self, s: usize) -> usize {
        if self.input_every_iter[s] {
            1
        } else {
            let mut slots: Vec<u32> = self
                .cond_reads
                .iter()
                .filter(|cr| cr.stream as usize == s)
                .map(|cr| cr.slot)
                .collect();
            slots.sort_unstable();
            slots.dedup();
            slots.len()
        }
    }

    /// Check the launch signature: stream count, per-stream record
    /// length and param count. Shared by every engine that executes
    /// this tape so mismatch messages are identical.
    pub(crate) fn validate_signature(
        &self,
        inputs: &[StreamView],
        params: &[f64],
    ) -> Result<(), InterpError> {
        if inputs.len() != self.input_record_len.len() {
            return Err(InterpError::SignatureMismatch(format!(
                "kernel {} expects {} input streams, got {}",
                self.name,
                self.input_record_len.len(),
                inputs.len()
            )));
        }
        for (i, (rl, data)) in self.input_record_len.iter().zip(inputs).enumerate() {
            if *rl != data.record_len {
                return Err(InterpError::SignatureMismatch(format!(
                    "input {i} record length {} != kernel {}",
                    data.record_len, rl
                )));
            }
        }
        if params.len() != self.num_params {
            return Err(InterpError::SignatureMismatch(format!(
                "kernel {} expects {} params, got {}",
                self.name,
                self.num_params,
                params.len()
            )));
        }
        Ok(())
    }

    /// Output streams for a launch of `iterations`: at full length when
    /// every write lands at a fixed offset, else empty with the worst
    /// case (`iterations × words appended per iteration`) reserved.
    pub(crate) fn make_outputs(&self, iterations: usize) -> Vec<StreamData> {
        (0..self.out_record_len.len())
            .map(|o| {
                let words = iterations * self.out_words_per_iter[o];
                let mut s = StreamData::empty(self.out_record_len[o]);
                if self
                    .writes
                    .iter()
                    .any(|w| w.stream as usize == o && w.at == APPEND)
                {
                    s.data.reserve_exact(words);
                } else {
                    s.data = vec![0.0; words];
                }
                s
            })
            .collect()
    }
}

#[inline]
pub(crate) fn mask(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::interp::Interpreter;

    fn assert_matches_interp(k: &Kernel, inputs: &[StreamData], params: &[f64], iterations: usize) {
        let tape = CompiledTape::compile(k);
        let t = tape.run(inputs, params, iterations);
        let i = Interpreter::new(k).run(inputs, params, iterations);
        assert_eq!(t, i, "tape vs interpreter diverged on kernel '{}'", k.name);
    }

    #[test]
    fn scaling_kernel_matches() {
        let mut b = KernelBuilder::new("scale");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let p = b.param();
        let x = b.read(s, 0);
        let y = b.mul(x, p);
        b.write(o, &[y]);
        let k = b.build();
        let tape = CompiledTape::compile(&k);
        assert!(tape.is_fast_path());
        let out = tape
            .run(&[StreamData::new(1, vec![1.0, 2.0, 3.0])], &[10.0], 3)
            .unwrap();
        assert_eq!(out.outputs[0].data, vec![10.0, 20.0, 30.0]);
        assert_eq!(out.records_consumed, vec![3]);
        assert_matches_interp(&k, &[StreamData::new(1, vec![1.0, 2.0, 3.0])], &[10.0], 3);
    }

    #[test]
    fn loop_carried_accumulator_matches() {
        let mut b = KernelBuilder::new("sum");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("running", 1);
        let r = b.reg(0.0);
        let acc = b.read_reg(r);
        let x = b.read(s, 0);
        let sum = b.add(acc, x);
        b.set_reg(r, sum);
        b.write(o, &[sum]);
        let k = b.build();
        let out = CompiledTape::compile(&k)
            .run(&[StreamData::new(1, vec![1.0, 2.0, 3.0, 4.0])], &[], 4)
            .unwrap();
        assert_eq!(out.outputs[0].data, vec![1.0, 3.0, 6.0, 10.0]);
        assert_eq!(out.final_regs, vec![10.0]);
        assert_matches_interp(&k, &[StreamData::new(1, vec![1.0, 2.0, 3.0, 4.0])], &[], 4);
    }

    #[test]
    fn conditional_stream_pops_on_demand() {
        let mut b = KernelBuilder::new("cond");
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
        b.write(o, &[v]);
        let k = b.build();
        let tape = CompiledTape::compile(&k);
        assert!(!tape.is_fast_path());
        let out = tape
            .run(&[StreamData::new(1, vec![10.0, 20.0, 30.0])], &[], 6)
            .unwrap();
        assert_eq!(
            out.outputs[0].data,
            vec![10.0, 10.0, 20.0, 20.0, 30.0, 30.0]
        );
        assert_eq!(out.records_consumed, vec![3]);
        assert_matches_interp(&k, &[StreamData::new(1, vec![10.0, 20.0, 30.0])], &[], 6);
    }

    #[test]
    fn shared_predicate_pops_once_distinct_preds_pop_independently() {
        // Two CondReads with the same predicate share one pop; a third
        // with a distinct (but equal-valued) predicate pops separately.
        let mut b = KernelBuilder::new("pops");
        let s = b.input("v", 2, StreamMode::Conditional);
        let o = b.output("out", 3);
        let one = b.constant(1.0);
        let one2 = b.mov(one); // distinct node, same value
        let zero = b.constant(0.0);
        let a = b.cond_read(s, 0, one, zero);
        let c = b.cond_read(s, 1, one, zero); // shares the pop with `a`
        let d = b.cond_read(s, 0, one2, zero); // independent pop
        b.write(o, &[a, c, d]);
        let k = b.build();
        let data = StreamData::new(2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let out = CompiledTape::compile(&k)
            .run(std::slice::from_ref(&data), &[], 2)
            .unwrap();
        // iter 0: `a`/`c` pop record 0, `d` pops record 1;
        // iter 1: `a`/`c` pop record 2, `d` pops record 3.
        assert_eq!(out.outputs[0].data, vec![1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
        assert_eq!(out.records_consumed, vec![4]);
        assert_matches_interp(&k, &[data], &[], 2);
    }

    #[test]
    fn conditional_write_filters_records() {
        let mut b = KernelBuilder::new("filter");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("big", 1);
        let x = b.read(s, 0);
        let t = b.constant(5.0);
        let big = b.cmp_lt(t, x);
        b.write_if(o, big, &[x]);
        let k = b.build();
        let out = CompiledTape::compile(&k)
            .run(&[StreamData::new(1, vec![3.0, 7.0, 4.0, 9.0])], &[], 4)
            .unwrap();
        assert_eq!(out.outputs[0].data, vec![7.0, 9.0]);
        assert_matches_interp(&k, &[StreamData::new(1, vec![3.0, 7.0, 4.0, 9.0])], &[], 4);
    }

    #[test]
    fn underrun_error_matches_interpreter() {
        let mut b = KernelBuilder::new("u");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        b.write(o, &[x]);
        let k = b.build();
        let err = CompiledTape::compile(&k)
            .run(&[StreamData::new(1, vec![1.0])], &[], 2)
            .unwrap_err();
        assert_eq!(
            err,
            InterpError::StreamUnderrun {
                stream: 0,
                iteration: 1
            }
        );
        assert_matches_interp(&k, &[StreamData::new(1, vec![1.0])], &[], 2);
    }

    #[test]
    fn signature_mismatch_matches_interpreter() {
        let mut b = KernelBuilder::new("sig");
        let _s = b.input("x", 2, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let c = b.constant(1.0);
        b.write(o, &[c]);
        let k = b.build();
        let bad = [StreamData::new(1, vec![1.0])];
        let t = CompiledTape::compile(&k).run(&bad, &[], 1);
        let i = Interpreter::new(&k).run(&bad, &[], 1);
        assert_eq!(t, i);
        assert!(matches!(t.unwrap_err(), InterpError::SignatureMismatch(_)));
    }

    #[test]
    fn seed_ops_are_f32_precision() {
        let mut b = KernelBuilder::new("seed");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let y = b.seed_recip(x);
        b.write(o, &[y]);
        let k = b.build();
        let out = CompiledTape::compile(&k)
            .run(&[StreamData::new(1, vec![3.0])], &[], 1)
            .unwrap();
        assert_eq!(out.outputs[0].data[0], (1.0f64 / 3.0) as f32 as f64);
    }

    #[test]
    fn output_capacity_is_reserved_exactly_for_unconditional_writes() {
        let mut b = KernelBuilder::new("cap");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 2);
        let x = b.read(s, 0);
        b.write(o, &[x, x]);
        let k = b.build();
        let n = 1000usize;
        let out = CompiledTape::compile(&k)
            .run(
                &[StreamData::new(1, (0..n).map(|i| i as f64).collect())],
                &[],
                n,
            )
            .unwrap();
        assert_eq!(out.outputs[0].data.len(), 2 * n);
        // reserve_exact(iterations × words/iter) means no re-allocation
        // ever grew the vector past the exact requirement.
        assert_eq!(out.outputs[0].data.capacity(), 2 * n);
    }
}
