//! Static analysis over Kernel IR and StreamPrograms.
//!
//! The paper's Section 5 bug — a stream-descriptor-register allocation
//! flaw that silently degraded perfect memory/kernel overlap into the
//! partial overlap of Figure 7 — is exactly the class of defect a
//! static pass over the stream program can catch before a single
//! simulated cycle runs. This crate runs a pipeline of such passes and
//! returns structured [`Diagnostic`]s:
//!
//! * [`sdr_pressure`] — walk the program's stream ops against the SDR
//!   register-file model and flag op windows where descriptor demand
//!   exceeds capacity, reporting the predicted overlap loss;
//! * [`ordering`] — the per-strip read/write ordering analysis
//!   (`merrimac_sim::read_write_hazards`, which the strip
//!   partitioner itself consumes for `WriteOwned` admission) rendered
//!   as diagnostics;
//! * [`srf_preflight`] — the SRF capacity floor check, naming which
//!   buffers and how many words over capacity;
//! * [`kernel_lints`] — dataflow lints over each kernel's IR:
//!   uninitialized register reads, dead values, stream consumption
//!   imbalance, unused outputs;
//! * [`intent`] — proves declared region access intents against the
//!   actual footprint the strip partitioner admits on
//!   (INTENT_MISMATCH / INTENT_UNDECLARED);
//! * [`underrun`] — flags kernel launches certain to underrun an
//!   input stream, and pinpoints the first offending iteration
//!   (STREAM_UNDERRUN);
//! * [`batch_split`] — audits each kernel's cached staged batch
//!   plan against the SoA engine's invariants (BATCH_PLAN_SPLIT).
//!
//! No pass keeps its own count of what the simulator accounts:
//! [`srf_preflight`] reads its SRF floor, [`ordering`] and [`intent`]
//! its region footprints, [`underrun`] its buffer capacities.
//!
//! Entry points: [`analyze_program`] for a built [`StreamProgram`] (all
//! four passes), [`analyze_kernel`] for one [`Kernel`] in isolation.
//! Only [`Severity::Error`] diagnostics describe programs the simulator
//! will reject; warnings flag performance hazards that still execute
//! correctly.

pub mod batch_split;
pub mod diag;
pub mod intent;
pub mod kernel_lints;
pub mod lints;
pub mod ordering;
pub mod sdr_pressure;
pub mod srf_preflight;
pub mod underrun;

use std::collections::BTreeSet;

use merrimac_arch::MachineConfig;
use merrimac_kernel::Kernel;
use merrimac_sim::program::{Memory, StreamOp, StreamProgram};
use merrimac_sim::SdrPolicy;

pub use diag::{Diagnostic, Severity};
pub use lints::{Lint, ALL_LINTS};
pub use sdr_pressure::SdrWindow;

/// Everything the program-level passes need to know about how a
/// [`StreamProgram`] will run.
pub struct ProgramContext<'a> {
    pub cfg: &'a MachineConfig,
    /// SDR retirement policy ([`SdrPolicy::Naive`] reproduces the
    /// paper's Section 5 flaw).
    pub policy: SdrPolicy,
    /// Strips the memory unit may prefetch ahead of the oldest
    /// incomplete strip (`StreamProcessor::strip_lookahead`).
    pub strip_lookahead: usize,
    pub program: &'a StreamProgram,
    /// For region names in diagnostics.
    pub memory: &'a Memory,
}

/// Run the full pipeline over a built program: the three program-level
/// passes plus the kernel lints over every distinct kernel the program
/// launches.
pub fn analyze_program(ctx: &ProgramContext) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(srf_preflight::check(ctx));
    diags.extend(sdr_pressure::check(ctx));
    diags.extend(ordering::check(ctx));
    diags.extend(intent::check(ctx));
    diags.extend(underrun::check(ctx));
    diags.extend(batch_split::check(ctx));
    // Each distinct kernel once, however many strips launch it.
    let mut seen: BTreeSet<*const u8> = BTreeSet::new();
    for lop in &ctx.program.ops {
        if let StreamOp::Kernel { kernel, .. } = &lop.op {
            if seen.insert(std::sync::Arc::as_ptr(kernel) as *const u8) {
                diags.extend(analyze_kernel(&kernel.source));
            }
        }
    }
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// Run the kernel dataflow lints over one kernel in isolation.
pub fn analyze_kernel(kernel: &Kernel) -> Vec<Diagnostic> {
    kernel_lints::check(kernel)
}

/// Counts by severity: `(errors, warnings, infos)`.
pub fn severity_counts(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => c.0 += 1,
            Severity::Warn => c.1 += 1,
            Severity::Info => c.2 += 1,
        }
    }
    c
}

/// Render every diagnostic, blank-line separated, rustc-style.
pub fn render_all(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::render)
        .collect::<Vec<_>>()
        .join("\n\n")
}
