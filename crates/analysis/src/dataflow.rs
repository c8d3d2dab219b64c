//! Shared dataflow facts for the whole-program verification passes.
//!
//! The paper's thesis (Sections 4–5) is that a stream program's
//! behaviour is *statically analyzable* from its kernel/stream
//! structure. This module computes the two families of facts the
//! verifier passes share, by abstract interpretation rather than
//! execution:
//!
//! * **Per-stream consumption/production intervals** ([`KernelFlow`]) —
//!   for each kernel input stream, the interval of records popped per
//!   unrolled iteration (`[1,1]` for every-iteration streams, `[0,k]`
//!   for conditional streams with `k` distinct pop predicates — the
//!   tape pops once per distinct `(stream, predicate)` slot per
//!   iteration), and for each output stream the interval of words
//!   appended per iteration (conditional writes contribute only to the
//!   upper bound). Iteration counts are unroll-aware: flows are
//!   computed over the *unrolled* IR, the form the engines execute.
//!
//! * **Per-region word-range access summaries**
//!   (`merrimac_sim::region_accesses`) — for every stream-level op
//!   touching node memory, the access kind plus a word-range bounding
//!   box: exact for sequential loads, an index bounding box for gathers
//!   and scatter-adds, the producer buffer's capacity for stores. They
//!   are the partitioner's own, so the passes and `partition_program`
//!   cannot disagree about footprints.
//!
//! A forward walk ([`buffer_flow`]) propagates these per-op facts
//! through the SRF buffers in program order, yielding an interval of
//! words available in each input buffer of every kernel launch —
//! the fixpoint the STREAM_UNDERRUN pass consumes. (Programs are
//! straight-line per strip, so one forward pass *is* the fixpoint; the
//! interval join is still here for re-produced buffers.)

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use merrimac_sim::kernelc::CompiledKernel;
use merrimac_sim::program::{BufferId, StreamOp, StreamProgram};

/// Closed interval `[lo, hi]` over word/record counts — the lattice
/// element of every flow fact. `lo` is a guaranteed minimum, `hi` a
/// worst-case maximum; both saturate rather than wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub lo: usize,
    pub hi: usize,
}

impl Interval {
    pub fn new(lo: usize, hi: usize) -> Self {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// The interval `[n, n]`.
    pub fn exact(n: usize) -> Self {
        Interval { lo: n, hi: n }
    }

    /// Lattice join: the smallest interval containing both.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Pointwise sum (saturating).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    /// Scale by an iteration count (saturating).
    pub fn scale(self, k: usize) -> Interval {
        Interval {
            lo: self.lo.saturating_mul(k),
            hi: self.hi.saturating_mul(k),
        }
    }
}

/// Per-iteration stream consumption/production bounds for one compiled
/// kernel, over its *unrolled* IR.
#[derive(Debug, Clone)]
pub struct KernelFlow {
    /// Records popped per unrolled iteration, per input stream.
    pub pops_per_iter: Vec<Interval>,
    /// Words appended per unrolled iteration, per output stream.
    pub out_words_per_iter: Vec<Interval>,
    /// Is each input stream consumed every iteration (vs conditionally)?
    pub every_iter: Vec<bool>,
}

/// Compute [`KernelFlow`] from a compiled kernel's tape. Every-iteration
/// streams pop exactly one record; a conditional stream pops at most
/// once per distinct `(stream, predicate)` pop slot and possibly not at
/// all, hence `[0, k]`. Output words come from the write plan:
/// unconditional writes are exact, conditional writes raise only the
/// upper bound.
pub fn kernel_flow(kernel: &CompiledKernel) -> KernelFlow {
    let tape = &kernel.tape;
    let num_inputs = kernel.ir.inputs.len();
    let mut pops = Vec::with_capacity(num_inputs);
    let mut every = Vec::with_capacity(num_inputs);
    for s in 0..num_inputs {
        let max = tape.max_pops_per_iter(s);
        let is_every = max == 1 && {
            use merrimac_kernel::StreamMode;
            kernel.ir.inputs[s].mode == StreamMode::EveryIteration
        };
        every.push(is_every);
        if is_every {
            pops.push(Interval::exact(1));
        } else {
            pops.push(Interval::new(0, max));
        }
    }
    let mins = tape.min_out_words_per_iter();
    let maxs = tape.max_out_words_per_iter();
    let out_words = mins
        .into_iter()
        .zip(maxs)
        .map(|(lo, hi)| Interval::new(lo, hi))
        .collect();
    KernelFlow {
        pops_per_iter: pops,
        out_words_per_iter: out_words,
        every_iter: every,
    }
}

/// What one kernel launch finds, from a forward abstract interpretation
/// in program order.
#[derive(Debug, Clone)]
pub struct LaunchState {
    /// `buffer id -> [lo, hi]` words available in each of the launch's
    /// input buffers. Absent means never produced (or bounds unknown
    /// after a rejected launch).
    pub words: BTreeMap<usize, Interval>,
    /// The launched kernel's flow: one per distinct kernel, shared by
    /// all its launches.
    pub flow: Rc<KernelFlow>,
}

/// Forward-propagate buffer availability through the program. Returns,
/// for each kernel op index, the state of its inputs *at launch* — what
/// the STREAM_UNDERRUN pass judges pops against. Transfer functions:
/// gathers and loads produce exact word counts (availability is
/// replaced — the executors overwrite re-produced buffers); kernel
/// outputs produce `unrolled_iters × out_words_per_iter`; launches
/// whose iteration count the unroll factor does not divide poison
/// their outputs (the simulator rejects them before any words move).
pub fn buffer_flow(program: &StreamProgram) -> BTreeMap<usize, LaunchState> {
    let mut state: BTreeMap<usize, Interval> = BTreeMap::new();
    let mut flows: BTreeMap<*const CompiledKernel, Rc<KernelFlow>> = BTreeMap::new();
    let mut at_launch = BTreeMap::new();
    for (i, lop) in program.ops.iter().enumerate() {
        match &lop.op {
            StreamOp::Gather {
                record_len,
                indices,
                dst,
                ..
            } => {
                state.insert(dst.0, Interval::exact(indices.len() * record_len));
            }
            StreamOp::Load {
                record_len,
                records,
                dst,
                ..
            } => {
                state.insert(dst.0, Interval::exact(records * record_len));
            }
            StreamOp::Kernel {
                kernel,
                inputs,
                outputs,
                iterations,
                ..
            } => {
                let flow = flows
                    .entry(Arc::as_ptr(kernel))
                    .or_insert_with(|| Rc::new(kernel_flow(kernel)));
                let held = |b: &BufferId| state.get(&b.0).map(|&words| (b.0, words));
                let launch = LaunchState {
                    words: inputs.iter().filter_map(held).collect(),
                    flow: flow.clone(),
                };
                at_launch.insert(i, launch);
                let unroll = kernel.opt.unroll as u64;
                if unroll == 0 || *iterations % unroll != 0 {
                    for b in outputs {
                        state.remove(&b.0);
                    }
                    continue;
                }
                let unrolled = (*iterations / unroll) as usize;
                for (o, b) in outputs.iter().enumerate() {
                    let per_iter = flow
                        .out_words_per_iter
                        .get(o)
                        .copied()
                        .unwrap_or(Interval::exact(0));
                    state.insert(b.0, per_iter.scale(unrolled));
                }
            }
            StreamOp::ScatterAdd { .. } | StreamOp::Store { .. } => {}
        }
    }
    at_launch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_lattice_ops() {
        let a = Interval::new(1, 3);
        let b = Interval::exact(5);
        assert_eq!(a.join(b), Interval::new(1, 5));
        assert_eq!(a.add(b), Interval::new(6, 8));
        assert_eq!(a.scale(4), Interval::new(4, 12));
        assert_eq!(Interval::exact(usize::MAX).scale(2).hi, usize::MAX);
    }
}
