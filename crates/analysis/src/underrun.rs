//! STREAM_UNDERRUN: statically prove underrun-freedom for every kernel
//! launch, or pinpoint the first offending iteration.
//!
//! Consumes the [`buffer_flow`](crate::dataflow::buffer_flow) fixpoint:
//! an interval of words available in each SRF buffer at every launch.
//! A launch pops each every-iteration input once per unrolled
//! iteration; when even the *upper bound* of availability cannot cover
//! that, the underrun is certain and the pass errors with the first
//! iteration the engines will blame. Conditional streams (pop interval
//! `[0, k]`) consume a data-dependent count, so neither an underrun nor
//! its absence is provable from record counts: this pass stays silent
//! about them and the engines' always-on per-pop depth check turns a
//! shortfall into a typed `StreamUnderrun`.

use merrimac_sim::program::StreamOp;

use crate::dataflow::buffer_flow;
use crate::diag::Diagnostic;
use crate::lints::Lint;
use crate::ProgramContext;

/// One Error per `(kernel launch, input stream)` that provably
/// underruns.
pub fn check(ctx: &ProgramContext) -> Vec<Diagnostic> {
    let program = ctx.program;
    let states = buffer_flow(program);
    let mut diags = Vec::new();
    for (i, lop) in program.ops.iter().enumerate() {
        let StreamOp::Kernel {
            kernel,
            inputs,
            iterations,
            ..
        } = &lop.op
        else {
            continue;
        };
        let unroll = kernel.opt.unroll as u64;
        if unroll == 0 || *iterations % unroll != 0 {
            // A different rejection (iteration/unroll mismatch) the
            // simulator reports on its own; not an underrun.
            continue;
        }
        let unrolled = (*iterations / unroll) as usize;
        let Some(state) = states.get(&i) else {
            continue;
        };
        let flow = &state.flow;
        for (s, b) in inputs.iter().enumerate() {
            if !flow.every_iter.get(s).copied().unwrap_or(false) {
                continue;
            }
            let Some(words) = state.words.get(&b.0) else {
                // Never-produced inputs are a program error the
                // executors report as such, not an underrun.
                continue;
            };
            let rl = kernel.ir.inputs[s].record_len as usize;
            if rl == 0 {
                continue;
            }
            // Upper bound on records after the unroll reshape: if even
            // that cannot cover every iteration, the pop at iteration
            // `available` must fail.
            let available = words.hi / rl;
            if available >= unrolled {
                continue;
            }
            let sig = &kernel.ir.inputs[s];
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
                    "buffer '{}' provably holds at most {} words ({} per record after \
                     unroll x{})",
                    program.buffers[b.0].name, words.hi, rl, kernel.opt.unroll
                ))
                .help(
                    "stage enough records for the full launch, or reduce the launch's \
                     iteration count to the staged record count",
                ),
            );
        }
    }
    diags
}
