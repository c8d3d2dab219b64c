//! The strip partitioner: decides, from op shapes and declared access
//! intents alone, whether a program's strips are independent units of
//! work. Pure analysis — [`crate::parallel`] executes what it admits,
//! and `merrimac_analysis` reports what it finds.
//!
//! ## The access-intent partition contract
//!
//! [`partition_program`] admits a program to the parallel path when
//! every strip's work is independent under the declared (or safely
//! inferable) per-region access intents:
//!
//! * regions that are only **read** (gather/load) may be shared by any
//!   number of strips — read sharing is always safe;
//! * regions that are only **scatter-added** ([`AccessIntent::ReduceAdd`])
//!   accumulate into per-strip overlays merged by the deterministic
//!   tree reduction;
//! * regions that are **stored** (and, if declared
//!   [`AccessIntent::WriteOwned`], also read) parallelize when each
//!   strip owns a provably disjoint slice and no read *overlaps* an
//!   earlier store's word range in program order
//!   ([`read_write_hazards`]) — the phase-A pass reads pre-state, so a
//!   read that follows an overlapping write would observe stale data.
//!   Reads of ranges disjoint from every earlier store compose freely,
//!   which is what admits software-pipelined in-place update patterns
//!   (strip *k* loads, transforms and stores back its own slice before
//!   strip *k+1* starts).
//!
//! Anything else produces a typed [`FallbackReason`] and the program
//! executes serially, op by op in program order against the live
//! regions, and is timed with the shared-cache memory model (still
//! exact, just not parallel).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::machine::{buffer_capacity_words, consumed_buffers, produced_buffers};
use crate::program::{
    AccessIntent, AccessKind, BufferId, Memory, RegionId, StreamOp, StreamProgram,
};

/// Why a program could not be partitioned across strips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// An SRF buffer is produced in one strip and consumed in another,
    /// so the strips are not independent units of work.
    BufferCrossesStrips {
        buffer: BufferId,
        strips: (usize, usize),
    },
    /// A region is accessed with incompatible kinds (e.g. read in one
    /// strip, stored in another without a `WriteOwned` declaration).
    RegionConflict {
        region: RegionId,
        strips: (usize, usize),
        kinds: (AccessKind, AccessKind),
    },
    /// Two strips store overlapping word ranges of the same region, so
    /// the merge order would be observable.
    WriteWriteOverlap {
        region: RegionId,
        strips: (usize, usize),
    },
    /// A `WriteOwned` region is read *after* an overlapping store in
    /// program order; the phase-A pass reads pre-state and would
    /// observe stale data.
    ReadAfterWrite {
        region: RegionId,
        strips: (usize, usize),
    },
}

impl FallbackReason {
    /// The reason's kind, for compact summaries.
    pub fn kind(&self) -> FallbackKind {
        match self {
            FallbackReason::BufferCrossesStrips { .. } => FallbackKind::BufferCrossesStrips,
            FallbackReason::RegionConflict { .. } => FallbackKind::RegionConflict,
            FallbackReason::WriteWriteOverlap { .. } => FallbackKind::WriteWriteOverlap,
            FallbackReason::ReadAfterWrite { .. } => FallbackKind::ReadAfterWrite,
        }
    }

    /// Human-readable description naming the buffer/region involved.
    pub fn describe(&self, program: &StreamProgram, memory: &Memory) -> String {
        let region_name = |r: &RegionId| {
            if r.0 < memory.num_regions() {
                format!("'{}'", memory.name(*r))
            } else {
                format!("#{}", r.0)
            }
        };
        match self {
            FallbackReason::BufferCrossesStrips { buffer, strips } => {
                let name = program
                    .buffers
                    .get(buffer.0)
                    .map(|b| b.name.clone())
                    .unwrap_or_else(|| format!("#{}", buffer.0));
                format!(
                    "buffer '{name}' is used by strips {} and {}",
                    strips.0, strips.1
                )
            }
            FallbackReason::RegionConflict {
                region,
                strips,
                kinds,
            } => format!(
                "region {} is {} by strip {} and {} by strip {} (no compatible intent)",
                region_name(region),
                kinds.0,
                strips.0,
                kinds.1,
                strips.1
            ),
            FallbackReason::WriteWriteOverlap { region, strips } => format!(
                "strips {} and {} store overlapping ranges of region {}",
                strips.0,
                strips.1,
                region_name(region)
            ),
            FallbackReason::ReadAfterWrite { region, strips } => format!(
                "write-owned region {} is written by strip {} before strip {} reads an overlapping range",
                region_name(region),
                strips.1,
                strips.0
            ),
        }
    }
}

/// Compact classification of [`FallbackReason`], suitable for reports
/// and the benchmark JSON schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FallbackKind {
    BufferCrossesStrips,
    RegionConflict,
    WriteWriteOverlap,
    ReadAfterWrite,
}

impl FallbackKind {
    /// Stable string code used in `BENCH_*.json` (since schema 3).
    pub fn code(&self) -> &'static str {
        match self {
            FallbackKind::BufferCrossesStrips => "buffer_crosses_strips",
            FallbackKind::RegionConflict => "region_conflict",
            FallbackKind::WriteWriteOverlap => "write_write_overlap",
            FallbackKind::ReadAfterWrite => "read_after_write",
        }
    }

    /// Inverse of [`FallbackKind::code`].
    pub fn from_code(code: &str) -> Option<Self> {
        match code {
            "buffer_crosses_strips" => Some(FallbackKind::BufferCrossesStrips),
            "region_conflict" => Some(FallbackKind::RegionConflict),
            "write_write_overlap" => Some(FallbackKind::WriteWriteOverlap),
            "read_after_write" => Some(FallbackKind::ReadAfterWrite),
            _ => None,
        }
    }
}

/// Copyable digest of a [`PartitionReport`], carried on every
/// [`crate::RunReport`] and surfaced through `PhaseBreakdown` into the bench
/// schema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionSummary {
    /// Did the program run on the parallel per-strip engine?
    pub parallelized: bool,
    /// Number of strip groups the partitioner formed.
    pub strips: u32,
    /// Why the program fell back to serial, if it did.
    pub fallback: Option<FallbackKind>,
}

/// The strip partitioner's full verdict on a program.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Op indices grouped by strip, in ascending strip order.
    pub strips: Vec<Vec<usize>>,
    /// Regions read by two or more strips (the read-shared positions
    /// table of StreamMD is the motivating case).
    pub read_shared_regions: Vec<RegionId>,
    /// Scatter-add reduction targets merged across strips.
    pub reduce_regions: Vec<RegionId>,
    /// Regions stored (and possibly read, under `WriteOwned`) in
    /// provably disjoint per-strip slices.
    pub owned_write_regions: Vec<RegionId>,
    /// `None` iff the program parallelizes.
    pub fallback: Option<FallbackReason>,
}

impl PartitionReport {
    /// Did the partitioner admit the program to the parallel path?
    pub fn is_parallel(&self) -> bool {
        self.fallback.is_none()
    }

    /// Copyable digest for reports.
    pub fn summary(&self) -> PartitionSummary {
        PartitionSummary {
            parallelized: self.fallback.is_none(),
            strips: self.strips.len() as u32,
            fallback: self.fallback.as_ref().map(FallbackReason::kind),
        }
    }

    /// Human-readable description, printed under
    /// [`crate::HostExec::partition_verbose`].
    pub fn describe(&self, program: &StreamProgram, memory: &Memory) -> String {
        match &self.fallback {
            Some(reason) => format!(
                "partition: serial fallback ({}) — {}",
                reason.kind().code(),
                reason.describe(program, memory)
            ),
            None => {
                let names = |rs: &[RegionId]| {
                    rs.iter()
                        .map(|r| memory.name(*r).to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                format!(
                    "partition: parallel across {} strips; read-shared: [{}]; reduce: [{}]; owned-write: [{}]",
                    self.strips.len(),
                    names(&self.read_shared_regions),
                    names(&self.reduce_regions),
                    names(&self.owned_write_regions)
                )
            }
        }
    }
}

/// One stream-level op's touch on a memory region: the kind plus a
/// word-range bounding box `[start, end)`.
#[derive(Debug, Clone)]
pub struct RegionAccess {
    /// Index of the op in `program.ops`.
    pub op_index: usize,
    pub strip: usize,
    pub kind: AccessKind,
    /// First word possibly touched.
    pub start: usize,
    /// One past the last word possibly touched.
    pub end: usize,
}

/// A read that follows an overlapping store of the same region in
/// program order — the pair the per-strip ordering analysis flags.
///
/// The phase-A parallel pass reads *pre-state* (stores are buffered and
/// applied after every strip finishes), so such a read would observe
/// stale data under parallel execution even though the serial
/// scoreboard handles it correctly. Word ranges are conservative upper
/// bounds: stores via the source buffer's capacity, gathers via the
/// bounding box of their indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingHazard {
    pub region: RegionId,
    /// Op index of the earlier store.
    pub write_op: usize,
    pub write_strip: usize,
    /// Word range `[start, end)` the store writes.
    pub write_range: (usize, usize),
    /// Op index of the later, overlapping read.
    pub read_op: usize,
    pub read_strip: usize,
    /// Word range `[start, end)` the read covers.
    pub read_range: (usize, usize),
}

/// Per-strip read/write ordering analysis: every (store, later
/// overlapping read) pair on the same region, in program order.
///
/// An empty result means the program is free of read-after-write
/// hazards and `WriteOwned` regions are eligible for the parallel
/// path (subject to the cross-strip store-disjointness check). Reads
/// whose ranges are disjoint from every earlier store — the
/// software-pipelined in-place update pattern — produce no hazard.
/// Same-strip pairs count too: phase A buffers stores and reads
/// pre-state even within one strip.
pub fn read_write_hazards(program: &StreamProgram) -> Vec<OrderingHazard> {
    hazards(&region_accesses(program))
}

/// Every region's accesses (keyed by `RegionId.0`) in op order, each
/// with the word range it can touch: the one footprint accounting the
/// partitioner admits on and the analysis passes prove intents against.
/// Loads are exact; a gather or scatter-add is ranged by the bounding
/// box its index stream carries (nothing, for no indices); a store by
/// its source buffer's worst-case capacity.
pub fn region_accesses(program: &StreamProgram) -> BTreeMap<usize, Vec<RegionAccess>> {
    let mut producer: HashMap<usize, usize> = HashMap::new();
    for (i, lop) in program.ops.iter().enumerate() {
        for b in produced_buffers(&lop.op) {
            producer.entry(b.0).or_insert(i);
        }
    }
    let mut map: BTreeMap<usize, Vec<RegionAccess>> = BTreeMap::new();
    for (op_index, lop) in program.ops.iter().enumerate() {
        let Some((region, kind)) = lop.op.region_use() else {
            continue;
        };
        let (start, end) = match &lop.op {
            StreamOp::Load {
                record_len,
                start,
                records,
                ..
            } => (start * record_len, (start + records) * record_len),
            StreamOp::Gather {
                record_len,
                indices,
                ..
            }
            | StreamOp::ScatterAdd {
                record_len,
                indices,
                ..
            } => indices.word_range(*record_len).unwrap_or((0, 0)),
            StreamOp::Store {
                src,
                record_len,
                start,
                ..
            } => {
                let cap = producer
                    .get(&src.0)
                    .map(|&p| buffer_capacity_words(program, &program.ops[p].op, *src))
                    .unwrap_or(0);
                (start * record_len, start * record_len + cap)
            }
            StreamOp::Kernel { .. } => unreachable!("kernels have no region use"),
        };
        map.entry(region.0).or_default().push(RegionAccess {
            op_index,
            strip: lop.strip,
            kind,
            start,
            end,
        });
    }
    map
}

/// Every read against every earlier overlapping store of its region.
fn hazards(accesses: &BTreeMap<usize, Vec<RegionAccess>>) -> Vec<OrderingHazard> {
    let mut hazards = Vec::new();
    for (&region, accs) in accesses {
        let mut stores: Vec<&RegionAccess> = Vec::new();
        for a in accs {
            let overlaps = |w: &&&RegionAccess| w.start < a.end && a.start < w.end;
            match a.kind {
                AccessKind::Write => stores.push(a),
                AccessKind::Read => {
                    hazards.extend(stores.iter().filter(overlaps).map(|w| OrderingHazard {
                        region: RegionId(region),
                        write_op: w.op_index,
                        write_strip: w.strip,
                        write_range: (w.start, w.end),
                        read_op: a.op_index,
                        read_strip: a.strip,
                        read_range: (a.start, a.end),
                    }))
                }
                AccessKind::Reduce => {}
            }
        }
    }
    // Program order, whatever the region.
    hazards.sort_by_key(|h| (h.read_op, h.write_op));
    hazards
}

/// Classify `program` for parallel strip execution under the declared
/// access intents. See the module docs for the full contract.
pub fn partition_program(program: &StreamProgram) -> PartitionReport {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, lop) in program.ops.iter().enumerate() {
        groups.entry(lop.strip).or_default().push(i);
    }
    let strips: Vec<Vec<usize>> = groups.into_values().collect();
    let fail = |fallback: FallbackReason| PartitionReport {
        strips: Vec::new(),
        read_shared_regions: Vec::new(),
        reduce_regions: Vec::new(),
        owned_write_regions: Vec::new(),
        fallback: Some(fallback),
    };

    // Every SRF buffer must live within one strip.
    let mut buffer_strip: HashMap<usize, usize> = HashMap::new();
    for lop in &program.ops {
        for buffer in consumed_buffers(&lop.op)
            .into_iter()
            .chain(produced_buffers(&lop.op))
        {
            let home = *buffer_strip.entry(buffer.0).or_insert(lop.strip);
            if home != lop.strip {
                return fail(FallbackReason::BufferCrossesStrips {
                    buffer,
                    strips: (home, lop.strip),
                });
            }
        }
    }

    // Per-strip ordering analysis, consumed by the `WriteOwned`
    // admission below: only reads that *overlap* an earlier store's
    // range are hazards.
    let accesses = region_accesses(program);
    let hazards = hazards(&accesses);

    let mut read_shared_regions = Vec::new();
    let mut reduce_regions = Vec::new();
    let mut owned_write_regions = Vec::new();
    for (region, accs) in &accesses {
        let region = RegionId(*region);
        let first = |k: AccessKind| accs.iter().find(|a| a.kind == k);
        let reads: Vec<&RegionAccess> =
            accs.iter().filter(|a| a.kind == AccessKind::Read).collect();
        let has_reduce = accs.iter().any(|a| a.kind == AccessKind::Reduce);
        let writes: Vec<&RegionAccess> = accs
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .collect();

        // Reductions compose with nothing else: a read would observe
        // pre-reduction state, a store would race the merge.
        if has_reduce {
            let reduce = first(AccessKind::Reduce).expect("reduce access present");
            if let Some(r) = reads.first() {
                return fail(FallbackReason::RegionConflict {
                    region,
                    strips: (r.strip, reduce.strip),
                    kinds: (AccessKind::Read, AccessKind::Reduce),
                });
            }
            if let Some(w) = writes.first() {
                return fail(FallbackReason::RegionConflict {
                    region,
                    strips: (reduce.strip, w.strip),
                    kinds: (AccessKind::Reduce, AccessKind::Write),
                });
            }
        }

        // Reads and writes mix only under a declared `WriteOwned`
        // intent, and only when no read overlaps an earlier store's
        // word range (phase A reads pre-state). Disjoint-range reads
        // after a store — the software-pipelined in-place update
        // pattern — are admitted.
        if !reads.is_empty() && !writes.is_empty() {
            if program.declared_intent(region) != Some(AccessIntent::WriteOwned) {
                return fail(FallbackReason::RegionConflict {
                    region,
                    strips: (reads[0].strip, writes[0].strip),
                    kinds: (AccessKind::Read, AccessKind::Write),
                });
            }
            if let Some(h) = hazards.iter().find(|h| h.region == region) {
                return fail(FallbackReason::ReadAfterWrite {
                    region,
                    strips: (h.read_strip, h.write_strip),
                });
            }
        }

        // Stores from different strips must target provably disjoint
        // word ranges (same-strip stores are ordered by the scoreboard's
        // WAW hazard and replayed in op order).
        for (ai, a) in writes.iter().enumerate() {
            for b in &writes[ai + 1..] {
                if a.strip != b.strip && a.start < b.end && b.start < a.end {
                    return fail(FallbackReason::WriteWriteOverlap {
                        region,
                        strips: (a.strip, b.strip),
                    });
                }
            }
        }

        if !writes.is_empty() {
            owned_write_regions.push(region);
        } else if has_reduce {
            reduce_regions.push(region);
        } else {
            let strips_reading: BTreeSet<usize> = reads.iter().map(|r| r.strip).collect();
            if strips_reading.len() >= 2 {
                read_shared_regions.push(region);
            }
        }
    }

    PartitionReport {
        strips,
        read_shared_regions,
        reduce_regions,
        owned_write_regions,
        fallback: None,
    }
}
