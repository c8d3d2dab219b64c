//! Per-strip read/write ordering pass: surface every read that overlaps
//! an earlier store of the same region in program order.
//!
//! The analysis itself lives in `merrimac_sim::read_write_hazards`
//! — the partitioner consumes it directly for `WriteOwned` admission, so
//! this pass and the engine can never disagree about what falls back.
//! Here each hazard becomes a diagnostic naming both ops, their strips
//! and the overlapping word ranges.

use merrimac_sim::read_write_hazards;

use crate::diag::Diagnostic;
use crate::lints::Lint;
use crate::ProgramContext;

/// One diagnostic per (store, later overlapping read) pair.
pub fn check(ctx: &ProgramContext) -> Vec<Diagnostic> {
    read_write_hazards(ctx.program)
        .into_iter()
        .map(|h| {
            let region = if h.region.0 < ctx.memory.num_regions() {
                format!("'{}'", ctx.memory.name(h.region))
            } else {
                format!("#{}", h.region.0)
            };
            let read = &ctx.program.ops[h.read_op];
            let write = &ctx.program.ops[h.write_op];
            Diagnostic::new(
                Lint::StripOrdering,
                format!("op '{}' (strip {})", read.label, h.read_strip),
                format!(
                    "read of region {region} words {}..{} overlaps the earlier store \
                     '{}' (strip {}, words {}..{}); the parallel engine falls back to serial",
                    h.read_range.0,
                    h.read_range.1,
                    write.label,
                    h.write_strip,
                    h.write_range.0,
                    h.write_range.1
                ),
            )
            .note(
                "phase A of the parallel engine reads pre-state (stores apply after all \
                 strips finish), so this read would observe stale data in parallel"
                    .to_string(),
            )
            .note(format!(
                "reads of ranges disjoint from every earlier store are admitted; only the \
                 overlap {}..{} forces the fallback",
                h.read_range.0.max(h.write_range.0),
                h.read_range.1.min(h.write_range.1)
            ))
            .help(
                "reorder the read before the store, or restructure the strip so it reads \
                 only ranges no earlier op stores",
            )
        })
        .collect()
}
