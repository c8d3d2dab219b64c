//! Batch campaigns over the StreamMD harness.
//!
//! The one-shot entry point (`merrimac_bench::run`) rebuilds and
//! re-analyzes the step program on every call. A parameter sweep — the
//! kind behind the paper's Tables 3–5 and the scaling study — runs the
//! *same* `(dataset, variant, machine)` combination many times over
//! while only the execution knobs (host threads, node count)
//! vary, so the expensive build work is pure duplication.
//!
//! This crate turns those sweeps into **campaigns**: [`run_campaign`]
//! runs a batch of [`Job`]s, highest priority first, on a bounded pool
//! of scoped host threads. Each job is admitted through the
//! static-analysis pipeline (rejections surface as the same structured
//! `Diagnostics` that `merrimac-lint` prints), compiled artifacts — the
//! built `StepProgram` plus its analysis verdict — are shared across
//! jobs through a keyed [`ArtifactCache`], and one [`JobResult`] per job
//! comes back in dispatch order. A job that panics comes back as
//! `RunError::Panicked` with the panic's message; the other jobs still
//! run. The campaign's rates (jobs/s, aggregate kernel iterations/s,
//! cache hit rate) are the additive `campaign` block of `BENCH_*.json`,
//! [`merrimac_bench::CampaignRecord`].
//!
//! Determinism is inherited, not re-proven: execution works on a clone
//! of the cached memory image (`StreamMdApp::run_step_program`), so a
//! cache hit is bitwise-identical — forces and cycles — to a fresh
//! one-shot `bench::run` of the same spec, at any worker/thread count.
//! `tests/campaign_cache.rs` holds the property test.
//!
//! ```
//! use std::sync::Arc;
//! use merrimac_bench::Dataset;
//! use merrimac_campaign::{run_campaign, Job};
//! use streammd::Variant;
//!
//! let ds = Arc::new(Dataset::small(27));
//! let mut jobs = Vec::new();
//! for variant in [Variant::Variable, Variant::Fixed] {
//!     for _ in 0..2 {
//!         jobs.push(Job::new(ds.clone(), variant));
//!     }
//! }
//! let outcome = run_campaign(jobs, 2);
//! assert_eq!(outcome.metrics.completed, 4);
//! assert_eq!(outcome.metrics.cache_hits, 2);
//! ```

pub mod cache;
pub mod service;

pub use cache::{ArtifactCache, CacheKey, CacheStats, CacheStatus, StepArtifact};
pub use service::{run_campaign, CampaignOutcome, Job, JobId, JobResult};
