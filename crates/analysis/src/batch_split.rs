//! BATCH_PLAN_SPLIT: audit every launched kernel's batch plan against
//! the invariants the SoA engine's correctness rests on.
//!
//! `BatchPlan::analyze` gives a tape one of two plans. A *staged* plan
//! splits it into vector stages around a pop scan, a latch fill and a
//! sum scan (`vec_pre`, `pops`, `vec_pop`, the fill, `vec_latch`, the
//! sums, `vec_post`); a *serial* plan lists nothing and runs the whole
//! tape in order at one lane. A staged plan is bitwise-identical to the
//! interpreter *only if* every op lands in exactly one stage, every
//! conditional read is in `pops` with its predicate and fallback
//! lane-independent, every register is a latch — its update
//! `Sel(p, x, ReadReg(r))` — or a sum — `Add(x, ReadReg(r))` or
//! `Add(x, Sel(p, k, ReadReg(r)))`, either order — with their operands
//! written before their scan, no op reads a slot a later stage writes,
//! each stage preserves tape (SSA) order, and no lane slot is reused
//! before its value's last read.
//!
//! `CompiledTape::audit_batch_plan` re-derives those invariants from
//! the tape — independently of the analysis that built the plan — and
//! this pass renders each kernel's violations as one Error diagnostic.
//! A clean audit is the expected (and, for every shipped kernel,
//! asserted) outcome; any finding means the cached plan is unsound and
//! the batch engine must not be trusted with the kernel.

use std::collections::BTreeSet;

use merrimac_sim::program::StreamOp;

use crate::diag::Diagnostic;
use crate::lints::Lint;
use crate::ProgramContext;

/// One Error per distinct kernel whose cached batch plan violates the
/// split invariants, listing every violation as a note.
pub fn check(ctx: &ProgramContext) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut seen: BTreeSet<*const u8> = BTreeSet::new();
    for lop in &ctx.program.ops {
        let StreamOp::Kernel { kernel, .. } = &lop.op else {
            continue;
        };
        if !seen.insert(std::sync::Arc::as_ptr(kernel) as *const u8) {
            continue;
        }
        let violations = kernel.tape.audit_batch_plan();
        if violations.is_empty() {
            continue;
        }
        let mut d = Diagnostic::new(
            Lint::BatchPlanSplit,
            format!("kernel '{}' (op '{}')", kernel.source.name, lop.label),
            format!(
                "batch plan violates {} split invariant{}; the SoA engine is not \
                 bitwise-equivalent to the interpreter for this kernel",
                violations.len(),
                if violations.len() == 1 { "" } else { "s" }
            ),
        );
        for v in &violations {
            d = d.note(v.to_string());
        }
        diags.push(d.help(
            "the cached BatchPlan is unsound — recompile the kernel (CompiledTape::compile \
             rebuilds it with BatchPlan::analyze) before launching it",
        ));
    }
    diags
}
