//! Stream-level simulator of a Merrimac node.
//!
//! The simulator is *timing-first, functionally exact*: every stream
//! memory operation really moves `f64` data between the node memory and
//! SRF buffers, every kernel launch really executes its dataflow graph
//! (as its compiled tape, in lanes), and scatter-add really performs
//! the atomic summations — so the forces StreamMD computes here are compared
//! against the reference MD engine to tight tolerances. On top of the
//! functional execution sits a cycle model with the paper's architectural
//! parameters:
//!
//! * [`memsys`] — address generators, the 8-bank line-interleaved stream
//!   cache, DRDRAM channels, and the scatter-add units with their
//!   combining store;
//! * [`cluster`] — SIMD kernel execution timed by the VLIW schedule from
//!   `merrimac-kernel` (pipelined II in steady state, start-up costs);
//! * [`sdr`] — the stream-descriptor-register file whose allocation
//!   policy is the subject of Figure 7;
//! * [`machine`] — the scoreboard that issues stream operations onto the
//!   memory system and cluster array, exposing the software-pipelined
//!   overlap of Figure 5;
//! * [`partition`]/[`parallel`] — which strips are independent, and the
//!   functional execution fanned across host threads ([`host`]: the one
//!   value that says how);
//! * [`timeline`]/[`counters`] — the measurement layer behind Figures
//!   7–9 and Table 4.

pub mod cache;
pub mod cluster;
pub mod counters;
pub mod host;
pub mod kernelc;
pub mod machine;
pub mod memsys;
pub mod parallel;
pub mod partition;
pub mod program;
pub mod sdr;
pub mod srf;
pub mod timeline;

pub use cache::CacheAccessStats;
pub use counters::{Counters, PhaseCycles};
pub use host::{env_usize, EnvOverrideError, HostExec};
pub use kernelc::{CompiledKernel, KernelOpt};
pub use machine::{HostPhases, RunReport, SimError, StreamProcessor};
pub use memsys::{MemOpCost, MemSystem};
pub use merrimac_kernel::BatchWidth;
pub use parallel::Executed;
pub use partition::{
    partition_program, read_write_hazards, region_accesses, FallbackKind, FallbackReason,
    OrderingHazard, PartitionReport, PartitionSummary, RegionAccess,
};
pub use program::{
    AccessIntent, AccessKind, BufferId, IndexStream, Memory, ProgramBuilder, RegionId, StreamOp,
    StreamProgram,
};
pub use sdr::SdrPolicy;
pub use timeline::Timeline;
