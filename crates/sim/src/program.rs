//! Stream programs: the instruction sequence the scalar core issues to
//! the stream unit.
//!
//! A stream program is a list of stream-level operations over (a) named
//! memory *regions* (arrays in node DRAM — StreamMD's position array,
//! index streams, and force array) and (b) SRF *buffers* (strips staged
//! on chip). The StreamMD pseudo-code of Section 3.1 maps directly:
//!
//! ```text
//! c_positions = gather(positions, i_central);     // StreamOp::Gather
//! n_positions = gather(positions, i_neighbor);    // StreamOp::Gather
//! partial_forces = compute_force(c_… , n_…);      // StreamOp::Kernel
//! forces = scatter_add(partial_forces, i_forces); // StreamOp::ScatterAdd
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::kernelc::CompiledKernel;

/// Handle to a memory region (an array in node DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// Declared access intent for a memory region, set at `ProgramBuilder`
/// level. The strip partitioner uses intents to decide whether strips
/// touching the same region can execute in parallel:
///
/// - `ReadOnly` regions may be gathered/loaded from any number of
///   strips concurrently (read sharing is always safe).
/// - `WriteOwned` regions may be read and stored, provided no read
///   overlaps an earlier store's word range in program order (reads of
///   disjoint ranges compose freely, admitting software-pipelined
///   in-place updates) and the stored ranges of different strips are
///   disjoint (each strip "owns" its slice).
/// - `ReduceAdd` regions accept scatter-adds from many strips; partial
///   contributions are merged with the deterministic tree reduction.
///
/// Declaring an intent the ops then violate (e.g. storing to a region
/// declared `ReadOnly`) is a program validation error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessIntent {
    /// Only gathered/loaded; never written.
    ReadOnly,
    /// Read and sequentially stored; strips own disjoint slices.
    WriteOwned,
    /// Scatter-add reduction target; merged across strips.
    ReduceAdd,
}

impl AccessIntent {
    /// Does this intent permit an op of the given access kind?
    pub fn permits(self, kind: AccessKind) -> bool {
        match self {
            AccessIntent::ReadOnly => kind == AccessKind::Read,
            AccessIntent::WriteOwned => matches!(kind, AccessKind::Read | AccessKind::Write),
            AccessIntent::ReduceAdd => kind == AccessKind::Reduce,
        }
    }
}

impl fmt::Display for AccessIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessIntent::ReadOnly => "read-only",
            AccessIntent::WriteOwned => "write-owned",
            AccessIntent::ReduceAdd => "reduce-add",
        })
    }
}

/// How a single stream op touches a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Gather or sequential load.
    Read,
    /// Hardware scatter-add (commutative accumulation).
    Reduce,
    /// Sequential store.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Reduce => "reduce",
            AccessKind::Write => "write",
        })
    }
}

/// Handle to an SRF buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub usize);

/// Node memory: named f64 regions with word-addressable layout.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    regions: Vec<Vec<f64>>,
    names: Vec<String>,
    /// Base word address of each region in the flat node address space
    /// (used by the cache model).
    bases: Vec<u64>,
    next_base: u64,
}

impl Memory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a region initialized with `data`.
    pub fn region(&mut self, name: &str, data: Vec<f64>) -> RegionId {
        let id = RegionId(self.regions.len());
        self.bases.push(self.next_base);
        // Align regions to line boundaries (8 words) and leave a gap so
        // traces from different regions do not alias.
        let len = data.len() as u64;
        self.next_base += len.div_ceil(8) * 8 + 64;
        self.regions.push(data);
        self.names.push(name.to_string());
        id
    }

    pub fn data(&self, r: RegionId) -> &[f64] {
        &self.regions[r.0]
    }

    pub fn data_mut(&mut self, r: RegionId) -> &mut [f64] {
        &mut self.regions[r.0]
    }

    pub fn name(&self, r: RegionId) -> &str {
        &self.names[r.0]
    }

    /// Flat word address of `region[word]` for the cache model.
    pub fn word_address(&self, r: RegionId, word: u64) -> u64 {
        self.bases[r.0] + word
    }

    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }
}

/// A stream of record indices, shared (not copied) by everything that
/// uses the same words — a layout, a gather, the scatter-add back to the
/// same records — with its bounding box taken once, where it is made:
/// the partitioner and the analysis passes range an indexed op by it.
#[derive(Debug, Clone, Default)]
pub struct IndexStream {
    words: Arc<Vec<u32>>,
    /// Smallest and largest index (`None` for an empty stream).
    bounds: Option<(u32, u32)>,
}

impl IndexStream {
    /// Word range `[start, end)` the stream's records of `record_len`
    /// words can touch (`None`: it touches nothing).
    pub fn word_range(&self, record_len: usize) -> Option<(usize, usize)> {
        let (lo, hi) = self.bounds?;
        Some((lo as usize * record_len, (hi as usize + 1) * record_len))
    }
}

impl From<Arc<Vec<u32>>> for IndexStream {
    fn from(words: Arc<Vec<u32>>) -> Self {
        let span = |(lo, hi): (u32, u32), &i: &u32| (lo.min(i), hi.max(i));
        let bounds = words.first().map(|&i| words.iter().fold((i, i), span));
        Self { words, bounds }
    }
}

impl From<Vec<u32>> for IndexStream {
    fn from(words: Vec<u32>) -> Self {
        Arc::new(words).into()
    }
}

impl std::ops::Deref for IndexStream {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.words
    }
}

/// One stream-level operation.
#[derive(Debug, Clone)]
pub enum StreamOp {
    /// Indexed gather: for each record index `i` in `indices`, copy
    /// `region[i*record_len .. +record_len]` into `dst`.
    Gather {
        region: RegionId,
        record_len: usize,
        indices: IndexStream,
        dst: BufferId,
    },
    /// Sequential (unit-stride) load of `records` records starting at
    /// record `start`.
    Load {
        region: RegionId,
        record_len: usize,
        start: usize,
        records: usize,
        dst: BufferId,
    },
    /// Kernel launch over SRF buffers.
    Kernel {
        kernel: Arc<CompiledKernel>,
        inputs: Vec<BufferId>,
        outputs: Vec<BufferId>,
        params: Vec<f64>,
        /// Total loop iterations.
        iterations: u64,
        /// Iterations executed by the busiest cluster (SIMD completion is
        /// governed by the slowest cluster; callers compute this from
        /// their data distribution).
        max_cluster_iterations: u64,
    },
    /// Atomic scatter-add of `src` records into `region` at the given
    /// record indices (Merrimac's hardware scatter-add, Section 2.2).
    ScatterAdd {
        src: BufferId,
        region: RegionId,
        record_len: usize,
        indices: IndexStream,
    },
    /// Sequential store of a buffer into a region at record `start`.
    Store {
        src: BufferId,
        region: RegionId,
        record_len: usize,
        start: usize,
    },
}

impl StreamOp {
    /// Is this a memory-system operation (vs a cluster kernel)?
    pub fn is_memory(&self) -> bool {
        !matches!(self, StreamOp::Kernel { .. })
    }

    /// Short human-readable mnemonic for timelines.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            StreamOp::Gather { .. } => "gather",
            StreamOp::Load { .. } => "load",
            StreamOp::Kernel { .. } => "kernel",
            StreamOp::ScatterAdd { .. } => "scatter+",
            StreamOp::Store { .. } => "store",
        }
    }

    /// Which region this op touches and how (`None` for kernels, which
    /// operate purely on SRF buffers).
    pub fn region_use(&self) -> Option<(RegionId, AccessKind)> {
        match self {
            StreamOp::Gather { region, .. } | StreamOp::Load { region, .. } => {
                Some((*region, AccessKind::Read))
            }
            StreamOp::ScatterAdd { region, .. } => Some((*region, AccessKind::Reduce)),
            StreamOp::Store { region, .. } => Some((*region, AccessKind::Write)),
            StreamOp::Kernel { .. } => None,
        }
    }
}

/// Declared SRF buffer.
#[derive(Debug, Clone)]
pub struct BufferDecl {
    pub name: String,
    pub record_len: usize,
}

/// A labelled operation with its strip id (for timeline grouping).
#[derive(Debug, Clone)]
pub struct LabelledOp {
    pub op: StreamOp,
    pub label: String,
    pub strip: usize,
}

/// A full stream program.
#[derive(Debug, Clone, Default)]
pub struct StreamProgram {
    pub buffers: Vec<BufferDecl>,
    pub ops: Vec<LabelledOp>,
    /// Declared access intents, keyed by `RegionId.0`. Regions without a
    /// declared intent are handled conservatively by the partitioner.
    pub intents: BTreeMap<usize, AccessIntent>,
}

impl StreamProgram {
    /// The declared intent for `region`, if any.
    pub fn declared_intent(&self, region: RegionId) -> Option<AccessIntent> {
        self.intents.get(&region.0).copied()
    }
}

/// Builder for stream programs.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: StreamProgram,
    strip: usize,
}

impl ProgramBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an SRF buffer.
    pub fn buffer(&mut self, name: &str, record_len: usize) -> BufferId {
        self.program.buffers.push(BufferDecl {
            name: name.into(),
            record_len,
        });
        BufferId(self.program.buffers.len() - 1)
    }

    /// Set the strip id attached to subsequently pushed ops.
    pub fn strip(&mut self, strip: usize) -> &mut Self {
        self.strip = strip;
        self
    }

    /// Declare the access intent for a region. The partitioner uses the
    /// declaration to admit read-shared and owner-write regions into
    /// parallel execution; `validate_program` rejects ops that violate it.
    pub fn intent(&mut self, region: RegionId, intent: AccessIntent) -> &mut Self {
        self.program.intents.insert(region.0, intent);
        self
    }

    pub fn push(&mut self, label: impl Into<String>, op: StreamOp) -> &mut Self {
        self.program.ops.push(LabelledOp {
            op,
            label: label.into(),
            strip: self.strip,
        });
        self
    }

    pub fn gather(
        &mut self,
        label: impl Into<String>,
        region: RegionId,
        record_len: usize,
        indices: impl Into<IndexStream>,
        dst: BufferId,
    ) -> &mut Self {
        self.push(
            label,
            StreamOp::Gather {
                region,
                record_len,
                indices: indices.into(),
                dst,
            },
        )
    }

    pub fn load(
        &mut self,
        label: impl Into<String>,
        region: RegionId,
        record_len: usize,
        start: usize,
        records: usize,
        dst: BufferId,
    ) -> &mut Self {
        self.push(
            label,
            StreamOp::Load {
                region,
                record_len,
                start,
                records,
                dst,
            },
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub fn kernel(
        &mut self,
        label: impl Into<String>,
        kernel: Arc<CompiledKernel>,
        inputs: Vec<BufferId>,
        outputs: Vec<BufferId>,
        params: Vec<f64>,
        iterations: u64,
        max_cluster_iterations: u64,
    ) -> &mut Self {
        self.push(
            label,
            StreamOp::Kernel {
                kernel,
                inputs,
                outputs,
                params,
                iterations,
                max_cluster_iterations,
            },
        )
    }

    pub fn scatter_add(
        &mut self,
        label: impl Into<String>,
        src: BufferId,
        region: RegionId,
        record_len: usize,
        indices: impl Into<IndexStream>,
    ) -> &mut Self {
        self.push(
            label,
            StreamOp::ScatterAdd {
                src,
                region,
                record_len,
                indices: indices.into(),
            },
        )
    }

    pub fn store(
        &mut self,
        label: impl Into<String>,
        src: BufferId,
        region: RegionId,
        record_len: usize,
        start: usize,
    ) -> &mut Self {
        self.push(
            label,
            StreamOp::Store {
                src,
                region,
                record_len,
                start,
            },
        )
    }

    pub fn build(self) -> StreamProgram {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_region_addresses_do_not_overlap() {
        let mut m = Memory::new();
        let a = m.region("a", vec![0.0; 100]);
        let b = m.region("b", vec![0.0; 50]);
        let a_end = m.word_address(a, 99);
        let b_start = m.word_address(b, 0);
        assert!(a_end < b_start);
    }

    #[test]
    fn region_data_round_trip() {
        let mut m = Memory::new();
        let r = m.region("r", vec![1.0, 2.0, 3.0]);
        m.data_mut(r)[1] = 20.0;
        assert_eq!(m.data(r), &[1.0, 20.0, 3.0]);
        assert_eq!(m.name(r), "r");
    }

    #[test]
    fn builder_assembles_program() {
        let mut m = Memory::new();
        let pos = m.region("positions", vec![0.0; 90]);
        let mut b = ProgramBuilder::new();
        let buf = b.buffer("c_positions", 9);
        b.strip(0).gather("g", pos, 9, Arc::new(vec![0, 1, 2]), buf);
        let p = b.build();
        assert_eq!(p.buffers.len(), 1);
        assert_eq!(p.ops.len(), 1);
        assert!(p.ops[0].op.is_memory());
        assert_eq!(p.ops[0].op.mnemonic(), "gather");
        assert_eq!(p.ops[0].strip, 0);
        assert_eq!(p.ops[0].op.region_use(), Some((pos, AccessKind::Read)));
    }

    #[test]
    fn an_index_streams_cached_box_is_its_min_and_max() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut streams = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![7, 7, 7],
            vec![5, 0, 9],
        ];
        for len in [2usize, 3, 64, 1000] {
            let spread = draw() % 5000 + 1;
            streams.push((0..len).map(|_| draw() % spread).collect());
        }
        for words in streams {
            let stream = IndexStream::from(words.clone());
            assert_eq!(&*stream, &words[..]);
            let want = (words.iter().min().copied()).zip(words.iter().max().copied());
            for record_len in [1usize, 9] {
                let range =
                    want.map(|(lo, hi)| (lo as usize * record_len, (hi as usize + 1) * record_len));
                assert_eq!(stream.word_range(record_len), range, "{words:?}");
            }
            // A clone shares the words and carries the box.
            let clone = stream.clone();
            assert_eq!(clone.as_ptr(), stream.as_ptr());
            assert_eq!(clone.word_range(1), stream.word_range(1));
        }
    }

    #[test]
    fn intents_round_trip_through_builder() {
        let mut m = Memory::new();
        let pos = m.region("positions", vec![0.0; 8]);
        let forces = m.region("forces", vec![0.0; 8]);
        let mut b = ProgramBuilder::new();
        b.intent(pos, AccessIntent::ReadOnly)
            .intent(forces, AccessIntent::ReduceAdd);
        let p = b.build();
        assert_eq!(p.declared_intent(pos), Some(AccessIntent::ReadOnly));
        assert_eq!(p.declared_intent(forces), Some(AccessIntent::ReduceAdd));
        assert_eq!(p.declared_intent(RegionId(99)), None);
    }

    #[test]
    fn intent_permissions_match_contract() {
        use AccessIntent::*;
        use AccessKind::*;
        assert!(ReadOnly.permits(Read));
        assert!(!ReadOnly.permits(Write));
        assert!(!ReadOnly.permits(Reduce));
        assert!(WriteOwned.permits(Read));
        assert!(WriteOwned.permits(Write));
        assert!(!WriteOwned.permits(Reduce));
        assert!(ReduceAdd.permits(Reduce));
        assert!(!ReduceAdd.permits(Read));
        assert!(!ReduceAdd.permits(Write));
    }
}
