//! STREAM_UNDERRUN: flag every kernel launch certain to underrun an
//! input stream, and pinpoint the first offending iteration.
//!
//! One forward pass in program order books each produced buffer at the
//! simulator's own worst-case capacity ([`buffer_capacity_words`], the
//! words the SRF floor, the scoreboard and `region_accesses` use). A
//! launch pops each every-iteration input once per unrolled iteration;
//! when even that capacity cannot cover every iteration, the underrun is
//! certain and the pass errors with the first iteration the engines
//! will blame. Conditional streams consume a data-dependent count, so
//! neither an underrun nor its absence follows from record counts: this
//! pass stays silent about them and the engines' always-on per-pop depth
//! check turns a shortfall into a typed `StreamUnderrun`.

use merrimac_kernel::StreamMode;
use merrimac_sim::machine::{buffer_capacity_words, produced_buffers};
use merrimac_sim::program::StreamOp;

use crate::diag::Diagnostic;
use crate::lints::Lint;
use crate::ProgramContext;

/// One Error per `(kernel launch, input stream)` that certainly
/// underruns.
pub fn check(ctx: &ProgramContext) -> Vec<Diagnostic> {
    let program = ctx.program;
    // Words each buffer holds as of the op being visited; `None` until
    // produced. Admission runs before validation, so ids out of range
    // are skipped, never indexed.
    let mut held: Vec<Option<usize>> = vec![None; program.buffers.len()];
    let mut diags = Vec::new();
    for lop in &program.ops {
        if let StreamOp::Kernel {
            kernel,
            inputs,
            outputs,
            iterations,
            ..
        } = &lop.op
        {
            let unroll = kernel.opt.unroll as u64;
            if unroll == 0 || *iterations % unroll != 0 {
                // A different rejection (iteration/unroll mismatch) the
                // simulator reports before any words move; not an
                // underrun, and the outputs hold nothing known.
                for b in outputs {
                    if let Some(words) = held.get_mut(b.0) {
                        *words = None;
                    }
                }
                continue;
            }
            let unrolled = (*iterations / unroll) as usize;
            for (s, b) in inputs.iter().enumerate() {
                let Some(sig) = kernel.ir.inputs.get(s) else {
                    continue;
                };
                // Never-produced inputs are a program error the
                // executors report as such, not an underrun.
                let Some(words) = held.get(b.0).copied().flatten() else {
                    continue;
                };
                let rl = sig.record_len as usize;
                if sig.mode != StreamMode::EveryIteration || rl == 0 {
                    continue;
                }
                // Records after the unroll reshape: if even the capacity
                // cannot cover every iteration, the pop at iteration
                // `available` must fail.
                let available = words / rl;
                if available >= unrolled {
                    continue;
                }
                diags.push(
                    Diagnostic::new(
                        Lint::StreamUnderrun,
                        format!("op '{}' (strip {})", lop.label, lop.strip),
                        format!(
                            "every-iteration stream '{}' holds at most {available} records but \
                             the launch pops one per iteration for {unrolled} iterations",
                            sig.name
                        ),
                    )
                    .note(format!(
                        "first underrun at iteration {available}: the engines will fail with \
                         StreamUnderrun {{ stream: {s}, iteration: {available} }}"
                    ))
                    .note(format!(
                        "buffer '{}' provably holds at most {words} words ({rl} per record after \
                         unroll x{})",
                        program.buffers[b.0].name, kernel.opt.unroll
                    ))
                    .help(
                        "stage enough records for the full launch, or reduce the launch's \
                         iteration count to the staged record count",
                    ),
                );
            }
        }
        for b in produced_buffers(&lop.op) {
            if b.0 < held.len() {
                held[b.0] = Some(buffer_capacity_words(program, &lop.op, b));
            }
        }
    }
    diags
}
