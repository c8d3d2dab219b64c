//! StreamMD — the paper's primary contribution.
//!
//! StreamMD performs the water-water non-bonded force calculation of
//! GROMACS as a stream program on the Merrimac node: positions are
//! gathered into the SRF by neighbour-list index streams, a single
//! interaction kernel computes the 9 atom-pair forces of every molecule
//! pair on the 16 SIMD clusters, and the partial forces are reduced into
//! the force array by the hardware scatter-add. The interface to the
//! rest of GROMACS (our `md-sim` substrate) is exactly the paper's: the
//! molecule position array, the neighbour-list index streams, and the
//! force array.
//!
//! Four implementation variants trade bandwidth against computation and
//! SIMD regularity (paper Table 3):
//!
//! | variant      | mechanism                                            |
//! |--------------|------------------------------------------------------|
//! | `expanded`   | fully expanded interaction list, one molecule pair per iteration |
//! | `fixed`      | fixed-length (L = 8) neighbour blocks, centres replicated, dummy padding |
//! | `variable`   | conditional streams: variable-length per-centre lists |
//! | `duplicated` | fixed blocks with every interaction computed twice, no neighbour partials |
//!
//! [`StreamMdApp::run_step`] runs one force step of any variant on the
//! `merrimac-sim` node and returns both the forces (validated against
//! the reference engine in tests) and the performance/locality metrics
//! behind the paper's Table 4 and Figures 8–9.

pub mod app;
pub mod config;
pub mod driver;
pub mod kernels;
pub mod layout;
pub mod metrics;
pub mod multinode;
pub mod variant;
pub mod workload;

pub use app::{check_inputs, PerfSummary, StepOutcome, StepProgram, StreamMdApp};
pub use config::SimConfigBuilder;
pub use driver::{DriverReport, MerrimacDriver};
pub use merrimac_sim::machine::SimError;
pub use merrimac_sim::{AccessIntent, BatchWidth, FallbackKind, PartitionSummary};
pub use metrics::{AnalyticModel, MultiNodeBreakdown, PhaseBreakdown};
pub use multinode::{run_multinode, run_multinode_program, MultiNodeOutcome, NodeRun};
pub use variant::{DatasetStats, Variant};
pub use workload::Workload;
