//! The lint registry: every diagnostic the analysis pipeline can emit,
//! with stable codes, one-line summaries, and rustc-style long-form
//! explanations (`merrimac-lint --explain <CODE>`).

use crate::diag::Severity;

/// Every lint the analysis pipeline knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// Stream-descriptor-register demand exceeds the SDR file in some
    /// strip window, serializing memory/kernel overlap (paper Figure 7).
    SdrPressure,
    /// A read overlaps an earlier store of the same region in program
    /// order, forcing the parallel engine into a serial fallback.
    StripOrdering,
    /// A kernel's SRF working set exceeds per-cluster capacity; the
    /// scoreboard can never issue it.
    SrfCapacity,
    /// A loop-carried register is read but never updated.
    UninitRegRead,
    /// A computed value is never written out or consumed.
    DeadValue,
    /// A kernel reads fewer record fields than the input stream's
    /// declared record length.
    StreamImbalance,
    /// A declared kernel output stream is never written.
    UnusedOutput,
    /// An op performs an access kind the region's declared intent
    /// forbids (e.g. a store to a `ReadOnly` region); the simulator
    /// rejects the program.
    IntentMismatch,
    /// A region is accessed but carries no declared access intent, so
    /// the partitioner must treat it conservatively.
    IntentUndeclared,
    /// The whole-program dataflow prover found a kernel launch whose
    /// guaranteed consumption exceeds the records its input buffers can
    /// ever hold — a certain stream underrun at run time.
    StreamUnderrun,
    /// A compiled tape's three-phase batch plan violates the
    /// compress/expand split invariants (missing/duplicated ops or an
    /// illegal cross-phase dependence).
    BatchPlanSplit,
}

/// All registered lints, in report order.
pub const ALL_LINTS: [Lint; 11] = [
    Lint::SdrPressure,
    Lint::StripOrdering,
    Lint::SrfCapacity,
    Lint::UninitRegRead,
    Lint::DeadValue,
    Lint::StreamImbalance,
    Lint::UnusedOutput,
    Lint::IntentMismatch,
    Lint::IntentUndeclared,
    Lint::StreamUnderrun,
    Lint::BatchPlanSplit,
];

impl Lint {
    /// Stable identifier, used in rendered diagnostics and `--explain`.
    pub fn code(&self) -> &'static str {
        match self {
            Lint::SdrPressure => "SDR_PRESSURE",
            Lint::StripOrdering => "STRIP_ORDERING",
            Lint::SrfCapacity => "SRF_CAPACITY",
            Lint::UninitRegRead => "UNINIT_REG_READ",
            Lint::DeadValue => "DEAD_VALUE",
            Lint::StreamImbalance => "STREAM_IMBALANCE",
            Lint::UnusedOutput => "UNUSED_OUTPUT",
            Lint::IntentMismatch => "INTENT_MISMATCH",
            Lint::IntentUndeclared => "INTENT_UNDECLARED",
            Lint::StreamUnderrun => "STREAM_UNDERRUN",
            Lint::BatchPlanSplit => "BATCH_PLAN_SPLIT",
        }
    }

    /// Inverse of [`Lint::code`] (case-insensitive).
    pub fn from_code(code: &str) -> Option<Self> {
        ALL_LINTS
            .into_iter()
            .find(|l| l.code().eq_ignore_ascii_case(code))
    }

    /// Severity the pass assigns unless it has a reason to deviate.
    /// Errors name programs the simulator rejects outright (or whose
    /// runtime machinery is provably broken): SRF overflow, intent
    /// contract violations, certain stream underruns, and corrupted
    /// batch plans. Everything else is a performance or hygiene warning
    /// on programs that still execute correctly.
    pub fn default_severity(&self) -> Severity {
        match self {
            Lint::SrfCapacity
            | Lint::IntentMismatch
            | Lint::StreamUnderrun
            | Lint::BatchPlanSplit => Severity::Error,
            _ => Severity::Warn,
        }
    }

    /// One-line summary for lint listings.
    pub fn summary(&self) -> &'static str {
        match self {
            Lint::SdrPressure => {
                "stream-descriptor demand exceeds the SDR file; memory/kernel overlap serializes"
            }
            Lint::StripOrdering => {
                "a read overlaps an earlier store in program order; the parallel engine falls back to serial"
            }
            Lint::SrfCapacity => {
                "a kernel's SRF working set exceeds per-cluster capacity; it can never issue"
            }
            Lint::UninitRegRead => "a loop-carried register is read but never updated",
            Lint::DeadValue => "a computed value is never written out or consumed",
            Lint::StreamImbalance => {
                "a kernel reads fewer record fields than the stream's declared record length"
            }
            Lint::UnusedOutput => "a declared kernel output stream is never written",
            Lint::IntentMismatch => {
                "an op's access kind violates the region's declared intent; the simulator rejects the program"
            }
            Lint::IntentUndeclared => {
                "a region is accessed without a declared intent; the partitioner treats it conservatively"
            }
            Lint::StreamUnderrun => {
                "a kernel launch is statically proven to underrun one of its input streams"
            }
            Lint::BatchPlanSplit => {
                "a compiled tape's staged batch plan violates the compress/expand split invariants"
            }
        }
    }

    /// Long-form explanation, shown by `merrimac-lint --explain`.
    pub fn explain(&self) -> &'static str {
        match self {
            Lint::SdrPressure => {
                "The Merrimac memory unit needs a free stream descriptor register (SDR,\n\
                 called MAR in the paper) to issue any stream memory operation. Under\n\
                 the naive allocation policy the descriptor stays parked on the produced\n\
                 SRF stream until that stream dies — i.e. until the consuming kernel has\n\
                 finished with it — so during software-pipelined execution the registers\n\
                 of the current strip AND every prefetched strip are held at once.\n\
                 \n\
                 When that demand exceeds the SDR file size, the memory unit stalls with\n\
                 work ready: the next strip's gathers cannot start while the current\n\
                 strip's kernel runs, and the perfect memory/kernel overlap of the\n\
                 stream schedule degrades to partial overlap. This is precisely the\n\
                 allocation flaw of the paper's Section 5, visible as the gap between\n\
                 the 'original' and 'fixed' bars of Figure 7.\n\
                 \n\
                 The diagnostic reports the strip window where demand peaks and the\n\
                 predicted overlap loss (the fraction of the prefetch window that\n\
                 serializes). Fix it by releasing descriptors eagerly at operation\n\
                 completion (SdrPolicy::Eager), by reducing the number of concurrent\n\
                 streams per strip, or by shrinking the prefetch lookahead."
            }
            Lint::StripOrdering => {
                "The parallel strip engine executes every strip's functional work\n\
                 against pre-state: stores are buffered and applied only after all\n\
                 strips finish. A read that follows an overlapping store in program\n\
                 order would therefore observe stale data under parallel execution,\n\
                 so the partitioner refuses the program and runs it on the serial\n\
                 scoreboard (fallback reason `read_after_write`).\n\
                 \n\
                 The per-strip ordering analysis only flags reads whose word ranges\n\
                 actually overlap an earlier store's range. Reads of disjoint ranges\n\
                 compose freely — the software-pipelined in-place update pattern, where\n\
                 strip k loads, transforms and stores back its own slice before strip\n\
                 k+1 starts, is admitted to the parallel path.\n\
                 \n\
                 Fix a flagged program by reordering the read before the store, or by\n\
                 restructuring the access so each strip reads only ranges no earlier\n\
                 strip stores."
            }
            Lint::SrfCapacity => {
                "A kernel operation can only issue once every input stream is live in\n\
                 the stream register file and every output stream has been allocated,\n\
                 so the sum of the per-cluster shares of its inputs and outputs is a\n\
                 hard floor on SRF occupancy at issue time. If that floor exceeds the\n\
                 per-cluster capacity the kernel can never issue and the scoreboard\n\
                 deadlocks — the classic symptom of a strip sized past what the SRF\n\
                 can double-buffer.\n\
                 \n\
                 This diagnostic names the offending kernel launch, each buffer in its\n\
                 working set with its per-cluster share, and how many words over\n\
                 capacity the total lands. Fix it by reducing the strip size\n\
                 (fewer iterations staged per strip) or by splitting the kernel's\n\
                 working set across more, smaller strips."
            }
            Lint::UninitRegRead => {
                "A kernel reads a loop-carried register that no register update ever\n\
                 writes. The register keeps its initial value for every iteration, so\n\
                 the read is equivalent to a constant — almost always a sign that a\n\
                 register update was forgotten (e.g. a force accumulator that never\n\
                 accumulates).\n\
                 \n\
                 If the constant value is intended, replace the register read with a\n\
                 Const node; otherwise add the missing entry to the kernel's\n\
                 reg_updates."
            }
            Lint::DeadValue => {
                "A kernel computes a value that is never written to an output stream,\n\
                 never feeds a register update, and is not a side-effecting\n\
                 conditional-stream read. The cluster burns a VLIW issue slot (and\n\
                 schedule length) on arithmetic whose result is unobservable.\n\
                 \n\
                 Remove the dead computation, or wire its result into a write or\n\
                 register update if it was meant to be observable."
            }
            Lint::StreamImbalance => {
                "An input stream pops one full record per iteration regardless of how\n\
                 many of its fields the kernel actually reads. When a kernel reads\n\
                 fewer distinct fields than the stream's declared record length, the\n\
                 unread words still cross the memory system and occupy SRF space —\n\
                 pure wasted bandwidth every iteration.\n\
                 \n\
                 Narrow the stream's record (gather only the fields the kernel uses)\n\
                 or read the remaining fields if they were meant to be consumed."
            }
            Lint::UnusedOutput => {
                "A kernel declares an output stream but has no write targeting it.\n\
                 The launch allocates SRF space for a stream that stays empty, and\n\
                 downstream ops consuming it will see no records.\n\
                 \n\
                 Drop the unused output from the kernel signature, or add the missing\n\
                 write."
            }
            Lint::IntentMismatch => {
                "Every memory region may declare an access intent — `ReadOnly`,\n\
                 `WriteOwned` or `ReduceAdd` — and the strip partitioner admits\n\
                 parallel execution on the strength of that declaration: read-only\n\
                 regions are shared freely, write-owned regions parallelize when the\n\
                 stored ranges are disjoint, reduce-add regions merge through the\n\
                 deterministic tree reduction. An op whose access kind the declared\n\
                 intent forbids (a store to a `ReadOnly` region, a gather from a\n\
                 `ReduceAdd` target, a scatter-add into a `WriteOwned` slice) breaks\n\
                 the contract the partitioner trusted; depending on the direction of\n\
                 the lie it either unsoundly parallelizes racing accesses or silently\n\
                 forces a serial fallback. The simulator's `validate_program` rejects\n\
                 such programs at run time; this pass proves the same violation\n\
                 statically from the whole-program access footprint, naming the op,\n\
                 the access kind and the word range it touches.\n\
                 \n\
                 Fix it by declaring the intent the ops actually need (e.g. promote\n\
                 the region to `WriteOwned`) or by removing the offending access."
            }
            Lint::IntentUndeclared => {
                "A memory region is gathered, loaded, stored or scatter-added but no\n\
                 access intent was declared for it at `ProgramBuilder` level. The\n\
                 partitioner then has no contract to admit the region on, so it falls\n\
                 back to conservative rules: mixed reads and writes serialize the\n\
                 whole program even when every strip touches a disjoint slice, and\n\
                 the analysis passes cannot prove cross-strip disjointness claims on\n\
                 the region's behalf.\n\
                 \n\
                 The diagnostic reports the access kinds the program actually\n\
                 performs and the intent they imply. Declare that intent with\n\
                 `ProgramBuilder::intent` so the partitioner can admit the region\n\
                 deliberately instead of conservatively."
            }
            Lint::StreamUnderrun => {
                "One pass in program order books each SRF buffer at the most words\n\
                 its producer can write — the simulator's own buffer capacity, the\n\
                 figure its SRF floor and scoreboard use: `indices.len()` records for\n\
                 a gather, `records` for a load, and for a kernel output its writes\n\
                 per unrolled iteration (conditional ones included) times the\n\
                 iterations. A launch pops one record per iteration from every\n\
                 every-iteration stream; when even that capacity holds fewer records\n\
                 than the launch's unrolled iterations, the launch will underrun no\n\
                 matter what data flows at run time — the engines would stop at the\n\
                 reported iteration with a `StreamUnderrun` error.\n\
                 \n\
                 The lint is silent on conditional streams by design: their\n\
                 consumption is data-dependent, so neither an underrun nor its\n\
                 absence can be proven from record counts. It is also silent on the\n\
                 consumer of an output its kernel never writes, which capacity books\n\
                 at one record per iteration (that kernel draws UNUSED_OUTPUT). The\n\
                 engines keep their per-pop depth checks on every launch, so a\n\
                 stream that does run dry is still a typed `StreamUnderrun`, never a\n\
                 panic.\n\
                 \n\
                 Fix a flagged launch by sizing the producer (gather index list or\n\
                 load record count) to at least the iteration count, or by reducing\n\
                 the launch's iterations to what the buffer holds."
            }
            Lint::BatchPlanSplit => {
                "The batched SoA engine executes each compiled tape by one of two\n\
                 plans. A staged plan runs it in dataflow-ordered stages: `vec_pre`\n\
                 (lane-independent ops), `pops` (one lane-order scan resolving every\n\
                 conditional read, whose predicates and fallbacks are `vec_pre`\n\
                 values), `vec_pop`, the latch fill (registers whose one update is\n\
                 `Sel(p, x, own read)`), `vec_latch`, the sum scan (updates\n\
                 `Add(x, own read or Sel(p, k, own read))`) and `vec_post`. A tape\n\
                 with any other register or a lane-coupled pop gets a serial plan:\n\
                 the whole tape in order at one lane, listing no stage. Bitwise\n\
                 identity with the interpreter holds only while a staged split\n\
                 satisfies its invariants: every tape op lands in exactly one stage;\n\
                 every conditional read is in `pops`, its predicate and fallback\n\
                 lane-independent; every register is a latch or a sum, its update of\n\
                 that shape with its operands written before its scan; no op reads a\n\
                 slot a later stage writes; and each stage preserves tape (SSA) order.\n\
                 \n\
                 This pass audits the plan cached on every compiled kernel against\n\
                 those invariants and reports each violation with the offending op,\n\
                 phase or register. A violation means the batch engine would compute\n\
                 wrong values or pop streams out of order — the program must not run\n\
                 until the kernel is recompiled and its plan rebuilt."
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for lint in ALL_LINTS {
            assert_eq!(Lint::from_code(lint.code()), Some(lint));
            assert_eq!(Lint::from_code(&lint.code().to_lowercase()), Some(lint));
        }
        assert_eq!(Lint::from_code("NOT_A_LINT"), None);
    }

    #[test]
    fn every_lint_documented() {
        for lint in ALL_LINTS {
            assert!(!lint.summary().is_empty(), "{:?} summary", lint);
            assert!(
                lint.explain().len() > lint.summary().len(),
                "{:?} explanation should be long-form",
                lint
            );
        }
    }

    #[test]
    fn error_lints_name_programs_the_machine_rejects() {
        // Errors are reserved for contract violations the simulator (or
        // the batch engine's own invariants) would refuse to run.
        for lint in ALL_LINTS {
            let expect = matches!(
                lint,
                Lint::SrfCapacity
                    | Lint::IntentMismatch
                    | Lint::StreamUnderrun
                    | Lint::BatchPlanSplit
            );
            assert_eq!(
                lint.default_severity() == Severity::Error,
                expect,
                "{:?}",
                lint
            );
        }
    }
}
