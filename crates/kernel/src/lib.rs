//! Kernel intermediate representation and VLIW compilation for Merrimac
//! arithmetic clusters.
//!
//! A Merrimac *kernel* is a loop body applied to stream records: each
//! cluster executes the same VLIW instruction word (4 FPU slots) every
//! cycle, reading record fields from its SRF bank through stream buffers
//! and writing output records back. This crate models the whole path the
//! paper's compiler takes:
//!
//! 1. [`ir`]/[`builder`] — kernels are built as SSA dataflow graphs over
//!    stream reads, loop-carried registers and conditional-stream
//!    accesses.
//! 2. [`lower`] — divides and square roots are expanded into
//!    seed + Newton–Raphson sequences of MADD-class operations ("divides
//!    and square-roots are computed iteratively and require several
//!    operations", Section 5.1).
//! 3. [`schedule`] — critical-path list scheduling onto the 4 FPU slots
//!    with full latency modelling (the "communication scheduling" result
//!    the paper relies on).
//! 4. [`unroll`] + [`pipeline`] — loop unrolling and modulo software
//!    pipelining, the two optimizations Figure 10 shows improving the
//!    `variable` interaction kernel's issue rate by 28%.
//! 5. [`interp`] — a functional interpreter that executes kernels over
//!    real stream data; [`validate`] proves a schedule preserves the
//!    dataflow semantics.
//! 6. [`render`] — ASCII rendering of schedules in the style of
//!    Figure 10.

pub mod batch;
pub mod builder;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod pipeline;
pub mod render;
pub mod schedule;
pub mod stats;
pub mod tape;
pub mod unroll;
pub mod validate;

pub use batch::{BatchPlanViolation, BatchWidth};
pub use builder::KernelBuilder;
pub use interp::{InterpOutput, Interpreter, StreamData, StreamView};
pub use ir::{Kernel, Node, NodeId, OpKind, StreamMode};
pub use pipeline::{modulo_schedule, PipelinedSchedule};
pub use schedule::{list_schedule, Schedule};
pub use stats::KernelStats;
pub use tape::CompiledTape;
