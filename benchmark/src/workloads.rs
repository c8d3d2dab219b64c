//! The four closed-loop workloads: how each makes its inputs from the
//! seed, what its set-up keeps alive, and what one op is.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use streammd::{
    run_multinode, DriverReport, MerrimacDriver, MultiNodeOutcome, SimError, StepOutcome,
    StreamMdApp, Variant,
};

/// Host worker threads of every app (= `nproc` of the 2-core container
/// the bounds were sized on).
pub const THREADS: usize = 2;
/// Untimed ops at the end of each set-up.
pub const WARMUP_OPS: usize = 5;
/// MD steps of one `traj-fixed-216` op (so 21 force steps).
pub const TRAJ_STEPS: usize = 20;
/// Simulated nodes of `mn8-variable-900`.
pub const NODES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StepExpanded900,
    StepFixed216,
    TrajFixed216,
    Mn8Variable900,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StepExpanded900,
        Workload::StepFixed216,
        Workload::TrajFixed216,
        Workload::Mn8Variable900,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StepExpanded900 => "step-expanded-900",
            Workload::StepFixed216 => "step-fixed-216",
            Workload::TrajFixed216 => "traj-fixed-216",
            Workload::Mn8Variable900 => "mn8-variable-900",
        }
    }

    /// Why the workload is in the benchmark (the `why` of
    /// `BENCHMARK.json`; a unit test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            // The run path does most of the work (gather/scatter
            // materialisation, stream-cache trace, scoreboard, memory
            // clone) and kernel compile is a few percent, so a
            // scheduler or memoisation change must leave it flat.
            Workload::StepExpanded900 => {
                "Cold expanded step on the paper's 900 molecules: run_step_program dominates (gather/scatter, cache trace, scoreboard, memory clone); kernel compile is a few percent and must stay flat."
            }
            // The mirror image: list_schedule + modulo_schedule on the
            // 3,485-node L = 8 block kernel are most of the op and the
            // app is new every op, as every `merrimac_bench::run`
            // caller's is, so only a faster scheduler (or a cache that
            // outlives the app) helps; run-path work must leave it flat.
            Workload::StepFixed216 => {
                "Cold fixed (L=8) step on 216 molecules with a new app per op: scheduling the block kernel dominates, so only a faster scheduler or a cache outliving the app helps; run-path work stays flat."
            }
            // Uses the same compile layer warm and repeated instead of
            // cold: per-app kernel memoisation and the
            // step-invariant/positions split show here and not on
            // step-fixed-216.
            Workload::TrajFixed216 => {
                "20-step driven trajectory on one long-lived app: recompiles every step today, so per-app memoisation shows here and not on step-fixed-216; the only use of integrator, SHAKE and list rebuilds."
            }
            // sim_cycles is the barrier-to-barrier step, so strip
            // balance shows as a simulated gain here and nowhere else.
            Workload::Mn8Variable900 => {
                "8-node variable step on 900 molecules, one long-lived app: the only workload on conditional streams, core::multinode and net; sim_cycles is barrier-to-barrier, so strip balance shows here only."
            }
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn variant(self) -> Variant {
        match self {
            Workload::StepExpanded900 => Variant::Expanded,
            Workload::StepFixed216 | Workload::TrajFixed216 => Variant::Fixed,
            Workload::Mn8Variable900 => Variant::Variable,
        }
    }

    /// Force steps one op completes.
    pub fn steps_per_op(self) -> u64 {
        match self {
            Workload::TrajFixed216 => TRAJ_STEPS as u64 + 1,
            _ => 1,
        }
    }

    /// The step- workloads rebuild list and app inside every op.
    pub fn is_cold_step(self) -> bool {
        matches!(self, Workload::StepExpanded900 | Workload::StepFixed216)
    }

    fn molecules(self) -> usize {
        match self {
            Workload::StepExpanded900 | Workload::Mn8Variable900 => 900,
            Workload::StepFixed216 | Workload::TrajFixed216 => 216,
        }
    }
}

/// Everything the measured program receives: the generated box and the
/// neighbour-list policy. The seed itself stops here.
pub fn inputs(workload: Workload, seed: u64) -> (WaterBox, NeighborListParams) {
    match workload.molecules() {
        900 => (
            WaterBox::paper_dataset(seed),
            merrimac_bench::paper_params(),
        ),
        n => {
            let system = WaterBox::builder().molecules(n).seed(seed).build();
            // The cutoff rule of `merrimac_bench::small_system`, which
            // pins its own seed and so cannot be called here.
            let params = NeighborListParams {
                cutoff: (0.45 * system.pbc().side()).min(1.0),
                skin: 0.0,
                rebuild_interval: 10,
            };
            (system, params)
        }
    }
}

/// The app a workload runs on; engine and batch width stay at the
/// library defaults (batch, 8).
pub fn build_app(workload: Workload, params: NeighborListParams) -> Result<StreamMdApp, SimError> {
    let builder = StreamMdApp::builder().neighbor(params).threads(THREADS);
    match workload {
        Workload::StepExpanded900 | Workload::StepFixed216 => builder.analyze(),
        Workload::TrajFixed216 => builder,
        Workload::Mn8Variable900 => builder.nodes(NODES),
    }
    .build()
}

/// What one set-up leaves behind for the ops.
pub struct Prepared {
    pub workload: Workload,
    pub system: WaterBox,
    pub params: NeighborListParams,
    /// List of the initial state: an input of the mn8- op, and what
    /// the reference forces and the layer probes are computed over.
    pub list: NeighborList,
    /// Long-lived on traj- and mn8-. The step- workloads build their
    /// own per op and use this one only for layer probes.
    pub app: StreamMdApp,
    /// The long-lived driver of traj-.
    driver: MerrimacDriver,
}

impl Prepared {
    /// Materialise the dataset, its first neighbour list and the app.
    /// Warm-up ops are the caller's, so it can time them with this.
    pub fn new(workload: Workload, seed: u64) -> Result<Self, SimError> {
        let (system, params) = inputs(workload, seed);
        let list = NeighborList::build(&system, params);
        let app = build_app(workload, params)?;
        let driver = MerrimacDriver::new(app.clone(), workload.variant());
        Ok(Self {
            workload,
            system,
            params,
            list,
            app,
            driver,
        })
    }
}

/// What one op hands back, kept until it has been checked. One value
/// is alive at a time, and a `Box` would put an allocation inside the
/// timed op.
#[allow(clippy::large_enum_variant)]
pub enum OpOutput {
    Step(StepOutcome),
    Traj {
        report: DriverReport,
        final_positions: Vec<Vec3>,
    },
    Multi(MultiNodeOutcome),
}

impl OpOutput {
    /// Simulated Merrimac cycles of the op: `perf.cycles` of the step,
    /// Σ force cycles of the trajectory, barrier-to-barrier on mn8-.
    pub fn sim_cycles(&self) -> u64 {
        match self {
            OpOutput::Step(out) => out.perf.cycles,
            OpOutput::Traj { report, .. } => report.total_force_cycles,
            OpOutput::Multi(out) => out.outcome.perf.cycles,
        }
    }

    /// The vectors whose bits must repeat on every op: forces, or the
    /// final positions of a trajectory.
    pub fn checked_vectors(&self) -> &[Vec3] {
        match self {
            OpOutput::Step(out) => &out.forces,
            OpOutput::Traj {
                final_positions, ..
            } => final_positions,
            OpOutput::Multi(out) => &out.outcome.forces,
        }
    }

    /// Forces of the initial state, where the op computes them.
    pub fn forces(&self) -> Option<&[Vec3]> {
        match self {
            OpOutput::Traj { .. } => None,
            _ => Some(self.checked_vectors()),
        }
    }
}

/// One op, as a user would call it.
pub fn run_op(p: &Prepared) -> Result<OpOutput, SimError> {
    match p.workload {
        Workload::StepExpanded900 | Workload::StepFixed216 => {
            let list = NeighborList::build(&p.system, p.params);
            let app = build_app(p.workload, p.params)?;
            app.run_step_with_list(&p.system, &list, p.workload.variant())
                .map(OpOutput::Step)
        }
        Workload::TrajFixed216 => run_driver(p),
        Workload::Mn8Variable900 => {
            run_multinode(&p.app, &p.system, &p.list, p.workload.variant(), NODES)
                .map(OpOutput::Multi)
        }
    }
}

pub fn run_driver(p: &Prepared) -> Result<OpOutput, SimError> {
    let mut system = p.system.clone();
    let report = p.driver.run(&mut system, TRAJ_STEPS)?;
    Ok(OpOutput::Traj {
        report,
        final_positions: system.positions().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_fit_the_contract_alphabet() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::metrics::is_contract_name(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::parse("step-expanded"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, pa) = inputs(Workload::StepFixed216, 7);
        let (b, pb) = inputs(Workload::StepFixed216, 7);
        let (c, _) = inputs(Workload::StepFixed216, 8);
        assert_eq!(a.positions(), b.positions());
        assert_eq!(pa, pb);
        assert_ne!(a.positions(), c.positions());
        assert_eq!(a.num_molecules(), 216);
        assert!(pa.cutoff <= 1.0 && pa.cutoff <= 0.45 * a.pbc().side());
        let (paper, params) = inputs(Workload::Mn8Variable900, 42);
        assert_eq!(paper.num_molecules(), 900);
        assert_eq!(params, merrimac_bench::paper_params());
    }
}
