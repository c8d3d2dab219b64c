//! INTENT_MISMATCH / INTENT_UNDECLARED: prove declared region access
//! intents against the actual access footprint.
//!
//! The strip partitioner (`merrimac_sim::partition_program`)
//! admits parallel execution *on trust* in the declared
//! `ReadOnly`/`WriteOwned`/`ReduceAdd` intents; the simulator's
//! `validate_program` rejects intent-violating ops only at run time.
//! This pass closes the gap statically, from the
//! [`region_accesses`] summaries:
//!
//! * **INTENT_MISMATCH** (Error) — a region's declared intent does not
//!   permit an access the program actually performs (e.g. a store to a
//!   `ReadOnly` region). Exactly what `validate_program` will reject,
//!   diagnosed before a single simulated cycle, with the op and word
//!   range named.
//! * **INTENT_UNDECLARED** (Warn) — a region is accessed but carries no
//!   declaration. The partitioner handles such regions conservatively:
//!   read-only, store-only and reduce-only footprints are still
//!   admitted, but a mixed read+write footprint forces the whole
//!   program into serial fallback. The warning names the intent the
//!   footprint implies.

use std::collections::BTreeSet;

use merrimac_sim::program::{AccessIntent, AccessKind, RegionId};
use merrimac_sim::region_accesses;

use crate::diag::Diagnostic;
use crate::lints::Lint;
use crate::ProgramContext;

/// The narrowest intent a set of access kinds admits, if any single
/// intent covers them all.
fn inferred_intent(kinds: &BTreeSet<AccessKind>) -> Option<AccessIntent> {
    [
        AccessIntent::ReadOnly,
        AccessIntent::WriteOwned,
        AccessIntent::ReduceAdd,
    ]
    .into_iter()
    .find(|intent| kinds.iter().all(|&k| intent.permits(k)))
}

/// One Error per `(region, access kind)` the declared intent forbids;
/// one Warn per accessed-but-undeclared region.
pub fn check(ctx: &ProgramContext) -> Vec<Diagnostic> {
    let program = ctx.program;
    let mut diags = Vec::new();
    for (rid, accs) in region_accesses(program) {
        let region = RegionId(rid);
        let name = ctx.memory.name(region);
        let kinds: BTreeSet<AccessKind> = accs.iter().map(|a| a.kind).collect();
        match program.declared_intent(region) {
            Some(intent) => {
                // One diagnostic per offending kind, anchored at the
                // first op performing it — mirroring the simulator's
                // dynamic rejection, which blames the first such op.
                for &kind in &kinds {
                    if intent.permits(kind) {
                        continue;
                    }
                    let a = accs
                        .iter()
                        .find(|a| a.kind == kind)
                        .expect("kind collected from accesses");
                    let lop = &program.ops[a.op_index];
                    let mut d = Diagnostic::new(
                        Lint::IntentMismatch,
                        format!("op '{}' (strip {})", lop.label, lop.strip),
                        format!(
                            "region '{name}' is declared {intent} but op performs a {kind} \
                             over words {}..{}",
                            a.start, a.end
                        ),
                    )
                    .note(format!(
                        "the simulator's validate_program will reject this program at run \
                         time; the strip partitioner admits parallelism on the {intent} \
                         declaration it cannot honor"
                    ));
                    if let Some(fix) = inferred_intent(&kinds) {
                        d = d.help(format!(
                            "the region's actual footprint ({}) fits {fix}; declare that \
                             intent, or drop the offending op",
                            render_kinds(&kinds)
                        ));
                    } else {
                        d = d.help(format!(
                            "no single intent covers this footprint ({}); split the region \
                             or restructure the accesses",
                            render_kinds(&kinds)
                        ));
                    }
                    diags.push(d);
                }
            }
            None => {
                let a = &accs[0];
                let lop = &program.ops[a.op_index];
                let mut d = Diagnostic::new(
                    Lint::IntentUndeclared,
                    format!("op '{}' (strip {})", lop.label, lop.strip),
                    format!(
                        "region '{name}' is accessed ({}) but declares no intent",
                        render_kinds(&kinds)
                    ),
                );
                match inferred_intent(&kinds) {
                    Some(fix) => {
                        d = d
                            .note(
                                "the partitioner handles undeclared regions conservatively; \
                                 a declared intent documents the contract it admits on"
                                    .to_string(),
                            )
                            .help(format!(
                                "the footprint fits {fix}; declare it with \
                                 ProgramBuilder::intent"
                            ));
                    }
                    None => {
                        d = d
                            .note(
                                "a mixed footprint with no declaration forces the whole \
                                 program into serial fallback"
                                    .to_string(),
                            )
                            .help(
                                "declare WriteOwned if strips own disjoint slices, or \
                                 restructure so one intent covers the region",
                            );
                    }
                }
                diags.push(d);
            }
        }
    }
    diags
}

fn render_kinds(kinds: &BTreeSet<AccessKind>) -> String {
    kinds
        .iter()
        .map(|k| k.to_string())
        .collect::<Vec<_>>()
        .join("+")
}
