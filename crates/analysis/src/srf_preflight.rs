//! SRF capacity preflight pass: the `StripSrfOverflow` floor check of
//! `StreamProcessor::validate_program`, upgraded from a single opaque
//! error to a diagnostic naming *which* buffers and how many words over
//! capacity each offending kernel launch lands.
//!
//! The accounting is the simulator's own ([`srf_overflows`]: per-buffer
//! share = worst-case capacity spread across clusters; a kernel needs
//! the sum of its distinct input/output shares at issue time), so this
//! pass errors exactly when the simulator would refuse to run the
//! program.

use merrimac_sim::machine::srf_overflows;
use merrimac_sim::program::StreamOp;

use crate::diag::Diagnostic;
use crate::lints::Lint;
use crate::ProgramContext;

/// One Error diagnostic per kernel launch whose SRF working-set floor
/// exceeds per-cluster capacity.
pub fn check(ctx: &ProgramContext) -> Vec<Diagnostic> {
    let program = ctx.program;
    let capacity = ctx.cfg.srf_words_per_cluster;
    let mut diags = Vec::new();
    for over in srf_overflows(ctx.cfg, program) {
        let (lop, needed) = (over.op, over.needed);
        let StreamOp::Kernel { iterations, .. } = lop.op else {
            continue;
        };
        let mut d = Diagnostic::new(
            Lint::SrfCapacity,
            format!("op '{}' (strip {})", lop.label, lop.strip),
            format!(
                "kernel working set needs {needed} SRF words/cluster but the machine \
                 has {capacity} ({} words over); the scoreboard can never issue it",
                needed - capacity
            ),
        );
        for (b, words) in over.buffers {
            d = d.note(format!(
                "buffer '{}': {words} words total, {} words/cluster at issue time",
                program.buffers[b.0].name,
                words.div_ceil(ctx.cfg.clusters)
            ));
        }
        diags.push(
            d.note(format!(
                "this launch stages {iterations} iterations; the floor scales with strip size"
            ))
            .help(
                "reduce strip_iterations so the strip's streams double-buffer within the SRF, \
             or split the kernel's working set across more strips",
            ),
        );
    }
    diags
}
