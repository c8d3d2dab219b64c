//! Shared helpers for the bench harnesses.
//!
//! `cargo bench --bench paper` regenerates every paper table and figure
//! (and checks EXPERIMENTS.md against them); `trend` holds every
//! simulated number of a report exactly to a committed baseline, and
//! `micro` times the host's hot paths. This library centralizes dataset construction and
//! variant execution so harnesses stay small and consistent.
//!
//! Variant execution goes through one entry point: describe the run
//! with a [`RunSpec`] — dataset, variant, simulated node count and the
//! host's [`HostExec`] — and pass it to [`run`]. The
//! configuration is validated by `StreamMdApp::builder()`, so
//! un-runnable setups (e.g. a strip too large to double-buffer in the
//! SRF, or a node count outside the modeled network) surface as a
//! typed [`RunError`] naming the offending knob instead of wedging the
//! simulated scoreboard. A spec never reads the environment: a binary or
//! test that takes host settings from it resolves them at its edge
//! (`HostExec::from_vars`, [`env_usize`]).

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::water::WaterModel;
use merrimac_analysis::Diagnostic;
use merrimac_sim::machine::SimError;
pub use merrimac_sim::{env_usize, EnvOverrideError, HostExec};
use streammd::{run_multinode, StepOutcome, StreamMdApp, Variant};

pub mod json;
pub mod report;
pub mod trend;
pub use report::{LintRecord, PerfReport, VariantRecord, SCHEMA_VERSION};

/// Default seed for the paper dataset across harnesses (deterministic
/// output).
pub const SEED: u64 = 42;

/// The Table 2 neighbour-list policy.
pub fn paper_params() -> NeighborListParams {
    NeighborListParams {
        cutoff: 1.0,
        skin: 0.0,
        rebuild_interval: 10,
    }
}

/// The paper's 900-molecule dataset plus its neighbour list.
pub fn paper_system() -> (WaterBox, NeighborList) {
    let system = WaterBox::paper_dataset(SEED);
    let list = NeighborList::build(&system, paper_params());
    (system, list)
}

/// A smaller dataset for fast sanity harnesses.
pub fn small_system(molecules: usize) -> (WaterBox, NeighborList) {
    let system = WaterBox::builder().molecules(molecules).seed(SEED).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    (system, list)
}

/// A single-site atomic dataset (LJ fluid or charged particles) of `n`
/// particles at liquid-argon-like number density, with the same
/// cutoff policy as [`small_system`]. The size knob sweeps 10⁴–10⁵
/// particles for scaling studies; small counts serve sanity harnesses.
pub fn atomic_system(model: WaterModel, particles: usize) -> (WaterBox, NeighborList) {
    let system = WaterBox::builder()
        .molecules(particles)
        .model(model)
        .density(21.0)
        .seed(SEED)
        .build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    (system, list)
}

/// The one failure type a [`run`] can produce: a variant that failed to
/// simulate, or whose configuration the preflight refused, with the
/// simulator's context.
#[derive(Debug)]
pub struct RunError {
    pub variant: Variant,
    pub source: SimError,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "variant {} failed: {}", self.variant, self.source)
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A named dataset a [`RunSpec`] can run over: the recipe that
/// reproduces its box and list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// The paper's 900-molecule box ([`paper_system`], seed [`SEED`]).
    Paper,
    /// A jittered-lattice box of `n` water molecules ([`small_system`]).
    Small(usize),
    /// A plain Lennard-Jones atomic fluid of `n` particles
    /// ([`atomic_system`] with [`WaterModel::lj_atom`]).
    Lj(usize),
    /// A charged-particle LJ+Coulomb box of `n` particles
    /// ([`atomic_system`] with [`WaterModel::charged_atom`]).
    Charged(usize),
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetId::Paper => write!(f, "paper-900"),
            DatasetId::Small(n) => write!(f, "small-{n}"),
            DatasetId::Lj(n) => write!(f, "lj-{n}"),
            DatasetId::Charged(n) => write!(f, "charged-{n}"),
        }
    }
}

/// A materialized dataset: the water box and its neighbour list, tagged
/// with the [`DatasetId`] that reproduces them. Harnesses and tests
/// borrow from it via [`Dataset::spec`].
#[derive(Debug, Clone)]
pub struct Dataset {
    pub id: DatasetId,
    pub system: WaterBox,
    pub list: NeighborList,
}

impl Dataset {
    /// Materialize a dataset from its id (deterministic: same id, same
    /// box, same list).
    pub fn materialize(id: DatasetId) -> Self {
        let (system, list) = match id {
            DatasetId::Paper => paper_system(),
            DatasetId::Small(n) => small_system(n),
            DatasetId::Lj(n) => atomic_system(WaterModel::lj_atom(), n),
            DatasetId::Charged(n) => atomic_system(WaterModel::charged_atom(), n),
        };
        Self { id, system, list }
    }

    pub fn paper() -> Self {
        Self::materialize(DatasetId::Paper)
    }

    pub fn small(molecules: usize) -> Self {
        Self::materialize(DatasetId::Small(molecules))
    }

    /// A Lennard-Jones atomic fluid of `particles` single-site atoms.
    pub fn lj(particles: usize) -> Self {
        Self::materialize(DatasetId::Lj(particles))
    }

    /// A charged-particle (LJ + Coulomb) box of `particles` atoms.
    pub fn charged(particles: usize) -> Self {
        Self::materialize(DatasetId::Charged(particles))
    }

    /// A default run over this dataset.
    pub fn spec(&self, variant: Variant) -> RunSpec<'_> {
        RunSpec::new(&self.system, &self.list, variant)
    }
}

/// One execution, fully described: the dataset, its neighbour list, the
/// variant, the simulated node count and how the host executes it.
/// Extend with the builder methods; execute with [`run`].
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    pub system: &'a WaterBox,
    pub list: &'a NeighborList,
    pub variant: Variant,
    /// Simulated Merrimac nodes; `1` runs the single-node step, larger
    /// counts the end-to-end multi-node runner (validated against the
    /// modeled network at build time).
    pub nodes: usize,
    /// Host threads and partition report (simulated results
    /// are identical under every value).
    pub host: HostExec,
}

impl<'a> RunSpec<'a> {
    pub fn new(system: &'a WaterBox, list: &'a NeighborList, variant: Variant) -> Self {
        Self {
            system,
            list,
            variant,
            nodes: 1,
            host: HostExec::default(),
        }
    }

    pub fn host(mut self, host: HostExec) -> Self {
        self.host = host;
        self
    }

    /// Shorthand for the host's worker-thread count alone.
    pub fn threads(mut self, threads: usize) -> Self {
        self.host.threads = threads;
        self
    }

    /// Simulated node count (default 1).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// The validated application this spec describes.
    pub fn build_app(&self) -> Result<StreamMdApp, RunError> {
        StreamMdApp::builder()
            .neighbor(self.list.params)
            .host(self.host)
            .variants(&[self.variant])
            .nodes(self.nodes)
            .build()
            .map_err(|source| RunError {
                variant: self.variant,
                source,
            })
    }
}

/// Run one fully-specified step — the single execution entry point
/// behind every harness. `spec.nodes == 1` runs the single-node step;
/// larger counts run the end-to-end multi-node runner and return its
/// canonical [`StepOutcome`] (forces bitwise node-count-independent,
/// `perf` rewritten to the barrier-to-barrier step, the breakdown in
/// `perf.phases.multinode`).
pub fn run(spec: RunSpec) -> Result<StepOutcome, RunError> {
    let app = spec.build_app()?;
    let (system, list, variant) = (spec.system, spec.list, spec.variant);
    let out = if spec.nodes > 1 {
        run_multinode(&app, system, list, variant, spec.nodes).map(|m| m.outcome)
    } else {
        app.run_step_with_list(system, list, variant)
    };
    out.map_err(|source| RunError { variant, source })
}

/// Run the static analysis pipeline over one variant's step program
/// without executing it. Same configuration path as [`run`], so the
/// diagnostics describe exactly the program the harnesses simulate.
pub fn analyze(spec: RunSpec) -> Result<Vec<Diagnostic>, RunError> {
    let app = spec.build_app()?;
    let step = app.build_step_program(spec.system, spec.list, spec.variant);
    Ok(app.analyze_built(&step))
}

/// Print a header banner naming the paper artifact.
pub fn banner(artifact: &str, description: &str) {
    println!("================================================================");
    println!("{artifact} — {description}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_system_runs_every_variant() {
        let (system, list) = small_system(27);
        for v in Variant::ALL {
            let out = run(RunSpec::new(&system, &list, v)).unwrap_or_else(|e| panic!("{e}"));
            assert!(out.perf.cycles > 0, "{v} produced no cycles");
        }
    }

    #[test]
    fn atomic_datasets_run_every_variant() {
        for ds in [Dataset::lj(64), Dataset::charged(64)] {
            for v in Variant::ALL {
                let out = run(ds.spec(v)).unwrap_or_else(|e| panic!("{} {v}: {e}", ds.id));
                assert!(out.perf.cycles > 0, "{} {v} produced no cycles", ds.id);
                assert_eq!(out.forces.len(), 64);
            }
        }
    }

    #[test]
    fn dataset_ids_name_their_datasets() {
        assert_eq!(DatasetId::Lj(100).to_string(), "lj-100");
        assert_eq!(DatasetId::Charged(100).to_string(), "charged-100");
        // Distinct workloads at the same size are distinct datasets.
        assert_ne!(DatasetId::Lj(100), DatasetId::Charged(100));
    }

    #[test]
    fn paper_system_statistics() {
        let (system, list) = paper_system();
        assert_eq!(system.num_molecules(), 900);
        assert!(list.num_pairs() > 50_000);
    }

    #[test]
    fn run_error_chains_to_sim_error() {
        use std::error::Error;
        let e = RunError {
            variant: Variant::Fixed,
            source: SimError::Config("bad knob".into()),
        };
        assert!(e.to_string().contains("fixed"));
        assert!(e.source().is_some());
    }
}
