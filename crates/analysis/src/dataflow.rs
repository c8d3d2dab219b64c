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
//! * **Per-region word-range access summaries** ([`RegionAccess`],
//!   [`region_accesses`]) — for every stream-level op touching node
//!   memory, the access kind plus a word-range bounding box: exact for
//!   sequential loads/stores, an index bounding box for gathers and
//!   scatter-adds. Store extents use the producer buffer's capacity,
//!   the same accounting `partition_program` admits on, so the passes
//!   and the partitioner cannot disagree about footprints.
//!
//! A forward walk ([`BufferState`], [`buffer_flow`]) propagates these
//! per-op facts through the SRF buffers in program order, yielding an
//! interval of words available in each buffer at every kernel launch —
//! the fixpoint the STREAM_UNDERRUN pass consumes. (Programs are
//! straight-line per strip, so one forward pass *is* the fixpoint; the
//! interval join is still here for re-produced buffers.)

use std::collections::BTreeMap;

use merrimac_sim::kernelc::CompiledKernel;
use merrimac_sim::program::{AccessKind, StreamOp, StreamProgram};

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

/// One stream-level op's touch on a memory region: the kind plus a
/// word-range bounding box `[start, end)`.
#[derive(Debug, Clone)]
pub struct RegionAccess {
    /// Index of the op in `program.ops`.
    pub op_index: usize,
    pub kind: AccessKind,
    /// First word possibly touched.
    pub start: usize,
    /// One past the last word possibly touched.
    pub end: usize,
}

/// Word-range access summaries per region (keyed by `RegionId.0`), in
/// op order. Gather/scatter-add footprints are index bounding boxes;
/// loads are exact; store extents use the producer buffer's capacity —
/// the identical accounting the strip partitioner ranges stores with.
pub fn region_accesses(program: &StreamProgram) -> BTreeMap<usize, Vec<RegionAccess>> {
    // Producer op of each buffer bounds store ranges, as in
    // `partition_program`.
    let mut producer: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, lop) in program.ops.iter().enumerate() {
        for b in merrimac_sim::machine::produced_buffers(&lop.op) {
            producer.entry(b.0).or_insert(i);
        }
    }
    let mut map: BTreeMap<usize, Vec<RegionAccess>> = BTreeMap::new();
    for (i, lop) in program.ops.iter().enumerate() {
        let Some((region, kind)) = lop.op.region_use() else {
            continue;
        };
        let (start, end) = match &lop.op {
            StreamOp::Gather {
                record_len,
                indices,
                ..
            }
            | StreamOp::ScatterAdd {
                record_len,
                indices,
                ..
            } => match (indices.iter().min(), indices.iter().max()) {
                (Some(&lo), Some(&hi)) => {
                    (lo as usize * record_len, (hi as usize + 1) * record_len)
                }
                _ => (0, 0),
            },
            StreamOp::Load {
                record_len,
                start,
                records,
                ..
            } => (start * record_len, (start + records) * record_len),
            StreamOp::Store {
                src,
                record_len,
                start,
                ..
            } => {
                let cap = producer
                    .get(&src.0)
                    .map(|&p| {
                        merrimac_sim::machine::buffer_capacity_words(
                            program,
                            &program.ops[p].op,
                            *src,
                        )
                    })
                    .unwrap_or(0);
                let s = start * record_len;
                (s, s + cap)
            }
            StreamOp::Kernel { .. } => unreachable!("kernels have no region use"),
        };
        map.entry(region.0).or_default().push(RegionAccess {
            op_index: i,
            kind,
            start,
            end,
        });
    }
    map
}

/// Interval of words available in each SRF buffer immediately before
/// each op, from a forward abstract interpretation in program order.
#[derive(Debug, Clone, Default)]
pub struct BufferState {
    /// `buffer id -> [lo, hi]` words. Absent means never produced (or
    /// bounds unknown after a rejected launch).
    pub words: BTreeMap<usize, Interval>,
}

/// Forward-propagate buffer availability through the program. Returns,
/// for each kernel op index, the buffer state *at launch* — what the
/// STREAM_UNDERRUN pass judges pops against. Transfer functions:
/// gathers and loads produce exact word counts (availability is
/// replaced — the executors overwrite re-produced buffers); kernel
/// outputs produce `unrolled_iters × out_words_per_iter`; launches
/// whose iteration count the unroll factor does not divide poison
/// their outputs (the simulator rejects them before any words move).
pub fn buffer_flow(program: &StreamProgram) -> BTreeMap<usize, BufferState> {
    let mut state = BufferState::default();
    let mut at_launch = BTreeMap::new();
    for (i, lop) in program.ops.iter().enumerate() {
        match &lop.op {
            StreamOp::Gather {
                record_len,
                indices,
                dst,
                ..
            } => {
                state
                    .words
                    .insert(dst.0, Interval::exact(indices.len() * record_len));
            }
            StreamOp::Load {
                record_len,
                records,
                dst,
                ..
            } => {
                state
                    .words
                    .insert(dst.0, Interval::exact(records * record_len));
            }
            StreamOp::Kernel {
                kernel,
                outputs,
                iterations,
                ..
            } => {
                at_launch.insert(i, state.clone());
                let unroll = kernel.opt.unroll as u64;
                if unroll == 0 || *iterations % unroll != 0 {
                    for b in outputs {
                        state.words.remove(&b.0);
                    }
                    continue;
                }
                let unrolled = (*iterations / unroll) as usize;
                let flow = kernel_flow(kernel);
                for (o, b) in outputs.iter().enumerate() {
                    let per_iter = flow
                        .out_words_per_iter
                        .get(o)
                        .copied()
                        .unwrap_or(Interval::exact(0));
                    state.words.insert(b.0, per_iter.scale(unrolled));
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
