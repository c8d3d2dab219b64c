//! End-to-end StreamMD: neighbour list → stream layout → stream program
//! → Merrimac simulation → forces + performance report.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use md_sim::vec3::Vec3;
use merrimac_analysis::{Diagnostic, ProgramContext};
use merrimac_arch::{MachineConfig, NetworkConfig, OpCosts};
use merrimac_sim::machine::SimError;
use merrimac_sim::program::Memory;
use merrimac_sim::{
    AccessIntent, BatchWidth, CompiledKernel, HostExec, IndexStream, KernelOpt, ProgramBuilder,
    RegionId, RunReport, SdrPolicy, StreamProcessor, StreamProgram,
};

use crate::kernels;
use crate::layout::{build_layout, Layout, Strip};
use crate::metrics::PhaseBreakdown;
use crate::variant::{DatasetStats, Variant};
use crate::workload::Workload;

/// Figure 9-style performance summary of one force step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSummary {
    pub cycles: u64,
    pub seconds: f64,
    /// Useful flops (workload flops/interaction × real interactions;
    /// 234 for three-site water, 420 for TIP5P, 35 for the LJ fluid, 41
    /// for charged particles).
    pub solution_flops: u64,
    pub solution_gflops: f64,
    /// All executed hardware flops (including dummies/duplicates).
    pub all_gflops: f64,
    /// Words moved by stream memory operations.
    pub mem_refs: u64,
    /// Measured arithmetic intensity: computed interaction flops per
    /// memory word (the Table 4 "measured" column).
    pub intensity_measured: f64,
    /// Figure 8 locality split (LRF, SRF, MEM fractions).
    pub locality: (f64, f64, f64),
    /// Fraction of the cheaper unit's busy time overlapped (Figure 7).
    pub overlap: f64,
    /// Per-phase cycle breakdown (gather/load/kernel/scatter-add/store
    /// plus scoreboard stalls) — the trend harness's structured view.
    pub phases: PhaseBreakdown,
}

/// Output of one StreamMD force step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Per-site forces (kJ·mol⁻¹·nm⁻¹), `sites × molecules` entries
    /// (3 per molecule for SPC water, 5 for TIP5P, 1 for atomic
    /// workloads).
    pub forces: Vec<Vec3>,
    pub perf: PerfSummary,
    pub report: RunReport,
    pub dataset: DatasetStats,
    /// Kernel iterations executed (incl. padding/sentinels).
    pub iterations: u64,
}

/// StreamMD application configuration.
#[derive(Debug, Clone)]
pub struct StreamMdApp {
    pub cfg: MachineConfig,
    pub costs: OpCosts,
    pub policy: SdrPolicy,
    pub kernel_opt: KernelOpt,
    pub neighbor: NeighborListParams,
    /// Fixed-list length L (paper: 8).
    pub block_l: usize,
    /// Strip size override (kernel iterations per strip).
    pub strip_iterations: Option<usize>,
    /// How the host executes every step: worker threads (lists, strips,
    /// memory timing, integrator) and the partitioner's stderr report.
    /// Forces, cycles and counters are bitwise-identical under every
    /// value (see `merrimac_sim::parallel`). Set through
    /// [`crate::SimConfigBuilder::host`] or `threads`.
    pub host: HostExec,
    /// Run the Error-severity static analysis passes
    /// (`merrimac_analysis`) over every built step program before
    /// executing it, refusing programs with Error diagnostics. Enabled
    /// via `SimConfigBuilder::analyze`.
    pub analyze: bool,
    /// The interconnection network the multi-node runner prices
    /// messages over (paper Section 2.3 folded Clos).
    pub network: NetworkConfig,
    /// Simulated node count for [`crate::multinode::run_multinode`]
    /// (validated against `network` at build time; 1 = single node).
    pub nodes: usize,
    /// Lane width of the batched tape (8 or 16 iterations per SoA
    /// batch); irrelevant to results, which are bitwise-identical at
    /// either width.
    pub tape_batch: BatchWidth,
    /// Kernels this app (and every clone of it) has compiled, so a
    /// driven trajectory, a multi-node run or a repeated
    /// [`StreamMdApp::build_step_program`] schedules each kernel once.
    pub(crate) kernels: KernelMemo,
}

/// Everything [`StreamMdApp::compile`] reads. The fields it comes from
/// are public and mutable, so the key — not the app's identity — decides
/// whether a compiled kernel can be reused.
#[derive(Debug, Clone, PartialEq)]
struct KernelKey {
    workload: Workload,
    variant: Variant,
    block_l: usize,
    kernel_opt: KernelOpt,
    fpus_per_cluster: usize,
    costs: OpCosts,
}

/// Compiled kernels by [`KernelKey`], shared between the clones of an
/// app. An app meets a handful of keys in its life (one per variant it
/// runs), so a scanned list serves.
#[derive(Clone, Default)]
pub(crate) struct KernelMemo(Arc<Mutex<Vec<MemoEntry>>>);

type MemoEntry = (KernelKey, Arc<CompiledKernel>);

impl KernelMemo {
    fn get_or_compile(
        &self,
        key: KernelKey,
        compile: impl FnOnce() -> CompiledKernel,
    ) -> Arc<CompiledKernel> {
        // Entries are only ever appended whole, so the list is valid
        // even if a thread panicked while holding the lock.
        let lock = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let find = |entries: &[MemoEntry]| {
            entries
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, kernel)| kernel.clone())
        };
        if let Some(hit) = find(&lock()) {
            return hit;
        }
        // Compile outside the lock: other variants need not wait, and a
        // panicking compile poisons nothing. If another thread compiled
        // the same key meanwhile, its kernel is the one everybody shares.
        let compiled = Arc::new(compile());
        let mut entries = lock();
        if let Some(hit) = find(&entries) {
            return hit;
        }
        entries.push((key, compiled.clone()));
        compiled
    }
}

impl fmt::Debug for KernelMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_list()
            .entries(entries.iter().map(|(key, _)| key))
            .finish()
    }
}

/// A built (but not yet executed) StreamMD step: the stream program,
/// its memory image, and the layout that produced them. This is the
/// input the static analysis pipeline (`merrimac_analysis`) consumes;
/// [`StreamMdApp::run_step_with_list`] builds one and runs it.
pub struct StepProgram {
    pub memory: Memory,
    pub program: StreamProgram,
    pub layout: Layout,
    /// The force-array region (scatter-add reduction target).
    pub forces: RegionId,
}

impl StreamMdApp {
    /// Validated construction — the preferred entry point. See
    /// [`crate::config::SimConfigBuilder`].
    pub fn builder() -> crate::config::SimConfigBuilder {
        crate::config::SimConfigBuilder::new()
    }

    /// The defaults every construction path starts from, unchecked:
    /// [`crate::SimConfigBuilder`] validates what is set on top of them.
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            host: HostExec::default(),
            cfg,
            costs: OpCosts::default(),
            policy: SdrPolicy::Eager,
            kernel_opt: KernelOpt {
                unroll: 1,
                software_pipeline: true,
            },
            neighbor: NeighborListParams {
                cutoff: 1.0,
                skin: 0.0,
                rebuild_interval: 10,
            },
            block_l: 8,
            strip_iterations: None,
            analyze: false,
            network: NetworkConfig::default(),
            nodes: 1,
            tape_batch: BatchWidth::default(),
            kernels: KernelMemo::default(),
        }
    }

    /// Default strip size: fill roughly a third of the SRF with live
    /// strip state so double buffering fits. `width` is the molecule
    /// record width in words (9 for three-site water, 3 for atomic
    /// workloads).
    fn default_strip(&self, variant: Variant, width: usize) -> usize {
        let budget = self.cfg.srf_words_per_cluster * self.cfg.clusters / 3;
        let w = width;
        // Live SRF words per kernel iteration: position/shift/force
        // records plus index and flag words (width 9 reproduces the
        // water sizes 48, 29+19L, 29+10L, 20).
        let words_per_iter = match variant {
            Variant::Expanded => 5 * w + 3,
            Variant::Fixed => (3 * w + 2) + (2 * w + 1) * self.block_l,
            Variant::Duplicated => (3 * w + 2) + (w + 1) * self.block_l,
            Variant::Variable => 2 * w + 2,
        };
        (budget / words_per_iter).clamp(16, 4096)
    }

    fn compile(&self, workload: Workload, variant: Variant) -> Arc<CompiledKernel> {
        let key = KernelKey {
            workload,
            variant,
            block_l: self.block_l,
            kernel_opt: self.kernel_opt,
            fpus_per_cluster: self.cfg.fpus_per_cluster,
            costs: self.costs.clone(),
        };
        self.kernels.get_or_compile(key, || {
            let k = kernels::workload_kernel(workload, variant, self.block_l);
            CompiledKernel::compile(k, &self.cfg, &self.costs, self.kernel_opt)
        })
    }

    /// Run one force step of `variant` over `system`, the neighbour
    /// list built on `host.threads` host threads like the step itself.
    pub fn run_step(&self, system: &WaterBox, variant: Variant) -> Result<StepOutcome, SimError> {
        check_inputs(system, self.neighbor)?;
        let list = rayon::ThreadPoolBuilder::new()
            .num_threads(self.host.threads.max(1))
            .build()
            .map_err(|e| SimError::Program(format!("thread pool: {e}")))?
            .install(|| NeighborList::build(system, self.neighbor));
        self.run_step_with_list(system, &list, variant)
    }

    /// Build one force step's stream program without executing it —
    /// the layout, memory image, access intents and op sequence exactly
    /// as [`StreamMdApp::run_step_with_list`] would run them. This is
    /// the entry point for static analysis (`merrimac-lint`).
    ///
    /// The list radius must fit the box and the model the charged-site
    /// mask ([`Workload::of_model`] asserts it) — the `run_*` entry
    /// points check both and return an error instead.
    pub fn build_step_program(
        &self,
        system: &WaterBox,
        list: &NeighborList,
        variant: Variant,
    ) -> StepProgram {
        let workload = Workload::of_model(system.model());
        let w = workload.width();
        let strip = self
            .strip_iterations
            .unwrap_or_else(|| self.default_strip(variant, w));
        let layout = build_layout(system, list, variant, self.block_l, strip);
        let kernel = self.compile(workload, variant);
        let params = kernels::workload_params(workload, system.model());

        let mut mem = Memory::new();
        let positions = mem.region("positions", layout.positions.clone());
        let shifts = mem.region("shift_table", layout.shift_table.clone());
        let forces = mem.region("forces", vec![0.0; layout.force_records * w]);

        let mut pb = ProgramBuilder::new();
        // Access intents: the positions table and shift table are
        // read-shared across every strip; the force array is a
        // cross-strip scatter-add reduction target. Declaring them lets
        // the partitioner run strips (and their memory timing) in
        // parallel.
        pb.intent(positions, AccessIntent::ReadOnly)
            .intent(shifts, AccessIntent::ReadOnly)
            .intent(forces, AccessIntent::ReduceAdd);
        for (sid, s) in layout.strips.iter().enumerate() {
            pb.strip(sid);
            let streams = StripStreams::of(variant, s, w, positions, shifts);
            emit_strip(
                &mut pb, &mut mem, sid, s, w, streams, &kernel, &params, forces,
            );
        }
        StepProgram {
            program: pb.build(),
            memory: mem,
            layout,
            forces,
        }
    }

    /// Run the full analysis pipeline (see `merrimac_analysis`: SRF
    /// capacity preflight, SDR pressure, per-strip ordering and the
    /// kernel dataflow lints) over a built step program, so one
    /// `build_step_program` serves both the admission verdict
    /// ([`StreamMdApp::admit_built`]) and the run.
    pub fn analyze_built(&self, step: &StepProgram) -> Vec<Diagnostic> {
        merrimac_analysis::analyze_program(&ProgramContext {
            cfg: &self.cfg,
            policy: self.policy,
            strip_lookahead: self.processor().strip_lookahead,
            program: &step.program,
            memory: &step.memory,
        })
    }

    /// Run with a pre-built neighbour list.
    pub fn run_step_with_list(
        &self,
        system: &WaterBox,
        list: &NeighborList,
        variant: Variant,
    ) -> Result<StepOutcome, SimError> {
        check_list(system, list)?;
        let step = self.build_step_program(system, list, variant);
        if self.analyze {
            self.admit_built(&step)?;
        }
        self.run_step_program(system, &step)
    }

    /// Admission gate over an already-built step program: run the static
    /// analysis pipeline and reject on any `Error`-severity diagnostic.
    pub fn admit_built(&self, step: &StepProgram) -> Result<(), SimError> {
        let diags = self.analyze_built(step);
        let errors: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.severity == merrimac_analysis::Severity::Error)
            .collect();
        if let Some(first) = errors.first() {
            return Err(SimError::Program(format!(
                "static analysis rejected the program ({} error(s)):\n{}",
                errors.len(),
                first.render()
            )));
        }
        Ok(())
    }

    /// The stream processor every execution path of this app runs on
    /// (single-node steps and each node of a multi-node step).
    pub(crate) fn processor(&self) -> StreamProcessor {
        StreamProcessor::new(self.cfg.clone())
            .with_costs(self.costs.clone())
            .with_policy(self.policy)
            .with_host(self.host)
            .with_batch_width(self.tape_batch)
    }

    /// Execute an already-built step program — the per-run half of the
    /// build / run split. The [`StepProgram`] stays pristine: execution
    /// works on a clone of its memory image, so the same build can be
    /// run any number of times (under any host) with bitwise-identical
    /// results to a fresh [`StreamMdApp::run_step_with_list`] build.
    pub fn run_step_program(
        &self,
        system: &WaterBox,
        step: &StepProgram,
    ) -> Result<StepOutcome, SimError> {
        let mut mem = step.memory.clone();
        let report = self.processor().run(&mut mem, &step.program)?;
        Ok(self.summarise_step(system, step, &mem, report))
    }

    /// The outcome of a step whose program ran on `mem` and was timed as
    /// `report`: the real molecules' forces and the Figure 9 summary.
    pub(crate) fn summarise_step(
        &self,
        system: &WaterBox,
        step: &StepProgram,
        mem: &Memory,
        report: RunReport,
    ) -> StepOutcome {
        // Extract forces for the real molecules (one Vec3 per site).
        let layout = &step.layout;
        let n = system.num_molecules();
        let sites = layout.width / 3;
        let raw = mem.data(step.forces);
        let mut out = Vec::with_capacity(n * sites);
        for site in 0..n * sites {
            out.push(Vec3::new(
                raw[site * 3],
                raw[site * 3 + 1],
                raw[site * 3 + 2],
            ));
        }

        let flops_per = layout.workload.flops_per_interaction();
        let real = layout.total_real_interactions();
        let computed = computed_interactions(layout);
        let solution_flops = real * flops_per;
        let seconds = report.seconds(&self.cfg);
        let perf = PerfSummary {
            cycles: report.cycles,
            seconds,
            solution_flops,
            solution_gflops: self.cfg.gflops(solution_flops, report.cycles),
            all_gflops: self
                .cfg
                .gflops(report.counters.hardware_flops, report.cycles),
            mem_refs: report.counters.mem_refs,
            intensity_measured: report.counters.arithmetic_intensity(computed * flops_per),
            locality: report.counters.locality_split(),
            overlap: report.timeline.overlap_fraction(),
            phases: PhaseBreakdown::from_report(&report),
        };
        StepOutcome {
            forces: out,
            perf,
            report,
            dataset: layout.stats,
            iterations: layout.total_iterations(),
        }
    }
}

/// What a step needs of its inputs, checked where they enter and before
/// any list is built: a site count [`Workload`]'s charged-site mask can
/// hold, and a list radius the minimum-image convention can serve (the
/// invariants `Workload::of_model` and `NeighborList::build` assert).
pub fn check_inputs(system: &WaterBox, neighbor: NeighborListParams) -> Result<(), SimError> {
    let sites = system.num_sites();
    if sites > Workload::MAX_SITES {
        return Err(SimError::Config(format!(
            "model '{}' has {sites} interaction sites; stream programs are generated for up to {}",
            system.model().name,
            Workload::MAX_SITES
        )));
    }
    let (radius, side) = (neighbor.list_radius(), system.pbc().side());
    if radius * 2.0 > side + 1e-12 {
        return Err(SimError::Config(format!(
            "cutoff + skin = {radius} nm is more than half the box side {side} nm; \
             the minimum image would be ambiguous"
        )));
    }
    Ok(())
}

/// [`check_inputs`], and that `list` was built over this system: one
/// built over another box would index past its molecules or skip some.
pub(crate) fn check_list(system: &WaterBox, list: &NeighborList) -> Result<(), SimError> {
    check_inputs(system, list.params)?;
    let (built, n) = (list.molecules(), system.num_molecules());
    let msg = || format!("the neighbour list was built over {built} molecules, the system has {n}");
    (built == n)
        .then_some(())
        .ok_or_else(|| SimError::Config(msg()))
}

/// One variant's streams for one strip, each list in declaration order.
/// Names are per strip: regions `name[sid]`, buffers `name.sid`.
struct StripStreams<'a> {
    /// Index streams `(name, record indices)`: they live in memory and
    /// are loaded through the SRF before the address generators can use
    /// them.
    index: Vec<(&'static str, &'a IndexStream)>,
    /// Streams the kernel reads as loaded `(region name, buffer name,
    /// words, record width)`.
    loaded: Vec<(&'static str, &'static str, &'a [f64], usize)>,
    /// Streams the kernel reads through a gather `(buffer name, label
    /// name, source region, record indices)`, ahead of the loaded ones.
    gathered: Vec<(&'static str, &'static str, RegionId, &'a IndexStream)>,
    /// Streams the kernel writes, each scatter-added into the force
    /// array `(buffer name, label name, record indices)`.
    outputs: Vec<(&'static str, &'static str, &'a IndexStream)>,
}

impl<'a> StripStreams<'a> {
    fn of(variant: Variant, s: &'a Strip, w: usize, positions: RegionId, shifts: RegionId) -> Self {
        let n_pos = ("n_pos", "n_pos", positions, &s.i_neighbor);
        let c_force = ("c_force", "c", &s.c_scatter);
        let n_partial = ("n_partial", "n", &s.n_scatter);
        if variant == Variant::Variable {
            // Centre records are sequential (prepared in list order by
            // the scalar core): position + shift, 2·width words.
            return Self {
                index: vec![("i_neighbor", &s.i_neighbor)],
                loaded: vec![
                    ("flags", "flags", &s.flags, 1),
                    ("center_recs", "centers", &s.center_records, 2 * w),
                ],
                gathered: vec![n_pos],
                outputs: vec![c_force, n_partial],
            };
        }
        Self {
            index: vec![
                ("i_central", &s.i_central),
                ("i_neighbor", &s.i_neighbor),
                ("i_shift", &s.i_shift),
            ],
            loaded: Vec::new(),
            gathered: vec![
                ("c_pos", "c_pos", positions, &s.i_central),
                ("c_shift", "shift", shifts, &s.i_shift),
                n_pos,
            ],
            outputs: match variant {
                Variant::Expanded => vec![("c_partial", "c", &s.c_scatter), n_partial],
                Variant::Fixed => vec![c_force, n_partial],
                // `duplicated` computes every interaction from both
                // sides, so there are no neighbour partials.
                _ => vec![c_force],
            },
        }
    }
}

/// Emit one strip: loads, gathers, the kernel launch, scatter-adds.
#[allow(clippy::too_many_arguments)]
fn emit_strip(
    pb: &mut ProgramBuilder,
    mem: &mut Memory,
    sid: usize,
    s: &Strip,
    w: usize,
    streams: StripStreams,
    kernel: &Arc<CompiledKernel>,
    params: &[f64],
    forces: RegionId,
) {
    let mut load = |region: &str, buffer: &str, words: Vec<f64>, record_len: usize| {
        let records = words.len() / record_len;
        let r = mem.region(&format!("{region}[{sid}]"), words);
        pb.intent(r, AccessIntent::ReadOnly);
        let buf = pb.buffer(&format!("{buffer}.{sid}"), record_len);
        pb.load(
            format!("load {buffer} {sid}"),
            r,
            record_len,
            0,
            records,
            buf,
        );
        buf
    };
    for &(name, idx) in &streams.index {
        load(name, name, idx.iter().map(|&i| i as f64).collect(), 1);
    }
    let loaded: Vec<_> = streams
        .loaded
        .iter()
        .map(|&(region, buffer, words, record_len)| {
            load(region, buffer, words.to_vec(), record_len)
        })
        .collect();
    let gathered: Vec<_> = streams
        .gathered
        .iter()
        .map(|&(buffer, ..)| pb.buffer(&format!("{buffer}.{sid}"), w))
        .collect();
    let outputs: Vec<_> = streams
        .outputs
        .iter()
        .map(|&(buffer, ..)| pb.buffer(&format!("{buffer}.{sid}"), w))
        .collect();
    for (&(_, label, region, idx), &buf) in streams.gathered.iter().zip(&gathered) {
        let label = format!("gather {label} {sid}");
        pb.gather(label, region, w, idx.clone(), buf);
    }
    pb.kernel(
        format!("interact {sid}"),
        kernel.clone(),
        gathered.into_iter().chain(loaded).collect(),
        outputs.clone(),
        params.to_vec(),
        s.iterations,
        s.max_cluster_iterations,
    );
    for (&(_, label, idx), buf) in streams.outputs.iter().zip(outputs) {
        let label = format!("scatter+ {label} {sid}");
        pb.scatter_add(label, buf, forces, w, idx.clone());
    }
}

/// Interactions evaluated by the hardware (incl. dummies/duplicates).
fn computed_interactions(layout: &Layout) -> u64 {
    match layout.variant {
        Variant::Expanded => layout.total_iterations(),
        Variant::Fixed | Variant::Duplicated => layout.total_iterations() * layout.block_l as u64,
        Variant::Variable => layout.total_iterations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_sim::force::compute_forces;

    fn small_system() -> (WaterBox, NeighborList, StreamMdApp) {
        let system = WaterBox::builder().molecules(64).seed(99).build();
        let params = NeighborListParams {
            cutoff: (0.45 * system.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let list = NeighborList::build(&system, params);
        let app = StreamMdApp::builder().neighbor(params).build().unwrap();
        (system, list, app)
    }

    fn assert_forces_match(system: &WaterBox, list: &NeighborList, outcome: &StepOutcome) {
        let reference = compute_forces(system, list);
        let scale = reference
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(0.0f64, f64::max)
            .max(1.0);
        for (i, (got, want)) in outcome.forces.iter().zip(&reference.forces).enumerate() {
            let err = (*got - *want).max_abs();
            assert!(
                err < 1e-8 * scale,
                "site {i}: got {got:?} want {want:?} (err {err:.3e}, scale {scale:.3e})"
            );
        }
    }

    #[test]
    fn expanded_matches_reference() {
        let (system, list, app) = small_system();
        let out = app
            .run_step_with_list(&system, &list, Variant::Expanded)
            .unwrap();
        assert_forces_match(&system, &list, &out);
        assert!(out.perf.solution_gflops > 0.0);
    }

    #[test]
    fn fixed_matches_reference() {
        let (system, list, app) = small_system();
        let out = app
            .run_step_with_list(&system, &list, Variant::Fixed)
            .unwrap();
        assert_forces_match(&system, &list, &out);
    }

    #[test]
    fn duplicated_matches_reference() {
        let (system, list, app) = small_system();
        let out = app
            .run_step_with_list(&system, &list, Variant::Duplicated)
            .unwrap();
        assert_forces_match(&system, &list, &out);
    }

    #[test]
    fn variable_matches_reference() {
        let (system, list, app) = small_system();
        let out = app
            .run_step_with_list(&system, &list, Variant::Variable)
            .unwrap();
        assert_forces_match(&system, &list, &out);
    }

    fn atomic_system(model: md_sim::water::WaterModel) -> (WaterBox, NeighborList, StreamMdApp) {
        let system = WaterBox::builder()
            .molecules(64)
            .model(model)
            .density(21.0)
            .seed(99)
            .build();
        let params = NeighborListParams {
            cutoff: (0.45 * system.pbc().side()).min(1.0),
            skin: 0.0,
            rebuild_interval: 1,
        };
        let list = NeighborList::build(&system, params);
        let app = StreamMdApp::builder().neighbor(params).build().unwrap();
        (system, list, app)
    }

    #[test]
    fn atomic_workloads_match_reference_for_all_variants() {
        use md_sim::atomic::compute_forces_atomic;
        use md_sim::water::WaterModel;
        for model in [WaterModel::lj_atom(), WaterModel::charged_atom()] {
            let (system, list, app) = atomic_system(model.clone());
            let reference = compute_forces_atomic(&system, &list);
            let scale = reference
                .forces
                .iter()
                .map(|f| f.norm())
                .fold(0.0f64, f64::max)
                .max(1.0);
            for variant in Variant::ALL {
                let out = app.run_step_with_list(&system, &list, variant).unwrap();
                assert_eq!(out.forces.len(), system.num_molecules());
                for (i, (got, want)) in out.forces.iter().zip(&reference.forces).enumerate() {
                    let err = (*got - *want).max_abs();
                    assert!(
                        err < 1e-8 * scale,
                        "{}/{variant} atom {i}: got {got:?} want {want:?} (err {err:.3e})",
                        model.name
                    );
                }
                // Flop accounting follows the workload, not water's 234.
                let w = crate::workload::Workload::of_model(&model);
                assert_eq!(
                    out.perf.solution_flops,
                    reference.interactions * w.flops_per_interaction(),
                    "{}/{variant} solution flops",
                    model.name
                );
                assert!(out.perf.intensity_measured > 0.0);
            }
        }
    }

    #[test]
    fn atomic_intensity_orders_charged_above_lj() {
        use md_sim::water::WaterModel;
        // Same variant, same dataset shape: the charged kernel does more
        // arithmetic per word moved than the plain LJ kernel.
        let (lj_sys, lj_list, app) = atomic_system(WaterModel::lj_atom());
        let (ch_sys, ch_list, _) = atomic_system(WaterModel::charged_atom());
        let lj = app
            .run_step_with_list(&lj_sys, &lj_list, Variant::Variable)
            .unwrap();
        let ch = app
            .run_step_with_list(&ch_sys, &ch_list, Variant::Variable)
            .unwrap();
        assert!(
            ch.perf.intensity_measured > lj.perf.intensity_measured,
            "charged {} <= lj {}",
            ch.perf.intensity_measured,
            lj.perf.intensity_measured
        );
    }

    #[test]
    fn locality_is_lrf_dominated() {
        let (system, list, app) = small_system();
        let out = app
            .run_step_with_list(&system, &list, Variant::Variable)
            .unwrap();
        let (lrf, srf, mem) = out.perf.locality;
        assert!(lrf > 0.85, "LRF fraction {lrf}");
        // Paper Figure 8: "the relatively small difference between the
        // number of references made to the SRF and to memory indicates
        // the use of the SRF as a staging area for memory".
        let rel = (srf - mem).abs() / mem.max(1e-12);
        assert!(rel < 0.25, "SRF {srf} and MEM {mem} should be close");
    }

    #[test]
    fn thread_count_is_invisible_in_results() {
        let (system, list, app) = small_system();
        let base = StreamMdApp::builder()
            .neighbor(app.neighbor)
            .strip_iterations(200);
        for variant in Variant::ALL {
            let serial = base
                .clone()
                .threads(1)
                .build()
                .unwrap()
                .run_step_with_list(&system, &list, variant)
                .unwrap();
            let parallel = base
                .clone()
                .threads(4)
                .build()
                .unwrap()
                .run_step_with_list(&system, &list, variant)
                .unwrap();
            assert_eq!(
                serial.forces, parallel.forces,
                "{variant}: forces must be bitwise-identical"
            );
            assert_eq!(serial.perf.cycles, parallel.perf.cycles);
            assert_eq!(serial.report.counters, parallel.report.counters);
            assert_eq!(serial.perf.locality, parallel.perf.locality);
        }
    }

    #[test]
    fn stream_md_programs_partition_across_strips() {
        // All four paper variants read-share positions/shifts and
        // reduce into forces: the declared intents must admit them to
        // the parallel engine, strips and memory timing included.
        let (system, list, app) = small_system();
        // Small enough that even the block variants (whose iteration
        // count is pairs/L, not pairs) mine more than one strip.
        let app = StreamMdApp::builder()
            .neighbor(app.neighbor)
            .strip_iterations(40)
            .build()
            .unwrap();
        for variant in Variant::ALL {
            let out = app.run_step_with_list(&system, &list, variant).unwrap();
            assert!(
                out.perf.phases.partition_parallelized,
                "{variant}: fell back with {:?}",
                out.perf.phases.partition_fallback
            );
            assert!(
                out.perf.phases.partition_strips >= 2,
                "{variant}: only {} strip(s)",
                out.perf.phases.partition_strips
            );
        }
    }

    fn kernel_of(step: &StepProgram) -> Arc<CompiledKernel> {
        step.program
            .ops
            .iter()
            .find_map(|op| match &op.op {
                merrimac_sim::StreamOp::Kernel { kernel, .. } => Some(kernel.clone()),
                _ => None,
            })
            .expect("a step program launches a kernel")
    }

    /// Everything of a compile but the tape, which does not compare.
    fn assert_same_compile(a: &CompiledKernel, b: &CompiledKernel, what: &str) {
        assert!(a.ir == b.ir, "{what}: ir");
        assert!(a.lowered == b.lowered, "{what}: lowered");
        assert!(a.schedule == b.schedule, "{what}: schedule");
        assert!(a.pipelined == b.pipelined, "{what}: pipelined");
        assert_eq!(a.stats, b.stats, "{what}: stats");
        assert_eq!(a.opt, b.opt, "{what}: opt");
    }

    #[test]
    fn an_app_compiles_each_kernel_once() {
        let (system, list, app) = small_system();
        let first = kernel_of(&app.build_step_program(&system, &list, Variant::Fixed));
        let second = kernel_of(&app.build_step_program(&system, &list, Variant::Fixed));
        assert!(Arc::ptr_eq(&first, &second));
        // A clone shares what the original compiled; another variant is
        // another kernel.
        let cloned = kernel_of(
            &app.clone()
                .build_step_program(&system, &list, Variant::Fixed),
        );
        assert!(Arc::ptr_eq(&first, &cloned));
        let other = kernel_of(&app.build_step_program(&system, &list, Variant::Duplicated));
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn one_app_serves_two_water_models_from_two_kernels() {
        // The site structure is in the key: SPC → TIP5P → SPC on an app
        // and its clone compiles one kernel per model, and neither
        // model is ever handed the other's.
        use md_sim::water::WaterModel;
        let (spc, _, app) = small_system();
        let tip5p = WaterBox::builder()
            .molecules(64)
            .model(WaterModel::tip5p())
            .seed(99)
            .build();
        let clone = app.clone();
        for (app, system) in [
            (&app, &spc),
            (&app, &tip5p),
            (&clone, &spc),
            (&clone, &tip5p),
            (&app, &spc),
        ] {
            let got = app.run_step(system, Variant::Variable).unwrap();
            let fresh = StreamMdApp::builder()
                .neighbor(app.neighbor)
                .build()
                .unwrap()
                .run_step(system, Variant::Variable)
                .unwrap();
            assert_eq!(got.forces.len(), system.num_sites() * 64);
            assert_eq!(got.forces, fresh.forces, "{}", system.model().name);
            assert_eq!(got.perf, fresh.perf, "{}", system.model().name);
        }
        assert_eq!(app.kernels.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn the_key_not_the_app_decides_a_memo_hit() {
        // Every field the compile reads is public and mutable: changing
        // one between calls must yield what a fresh app with that value
        // compiles, never the kernel memoised under the old value.
        type Mutation = (&'static str, fn(&mut StreamMdApp));
        let mutations: [Mutation; 4] = [
            ("block_l", |app| app.block_l = 4),
            ("kernel_opt", |app| app.kernel_opt = KernelOpt::optimized()),
            ("costs", |app| app.costs.madd_latency = 6),
            ("cfg.fpus_per_cluster", |app| app.cfg.fpus_per_cluster = 2),
        ];
        let (system, list, base) = small_system();
        for (field, mutate) in mutations {
            let mut app = base.clone();
            let stale = kernel_of(&app.build_step_program(&system, &list, Variant::Fixed));
            mutate(&mut app);
            let got = kernel_of(&app.build_step_program(&system, &list, Variant::Fixed));
            assert!(!Arc::ptr_eq(&stale, &got), "{field}: stale kernel reused");

            let mut fresh = StreamMdApp::builder()
                .neighbor(base.neighbor)
                .build()
                .unwrap();
            mutate(&mut fresh);
            let want = kernel_of(&fresh.build_step_program(&system, &list, Variant::Fixed));
            assert_same_compile(&got, &want, field);
            assert!(
                got.schedule != stale.schedule || got.ir != stale.ir,
                "{field}: the mutation does not reach the compile"
            );

            // Back to the old value: the old kernel, still memoised.
            app.block_l = base.block_l;
            app.kernel_opt = base.kernel_opt;
            app.costs = base.costs.clone();
            app.cfg.fpus_per_cluster = base.cfg.fpus_per_cluster;
            let again = kernel_of(&app.build_step_program(&system, &list, Variant::Fixed));
            assert!(Arc::ptr_eq(&stale, &again), "{field}: old key forgotten");
        }
    }

    #[test]
    fn clones_of_an_app_build_different_variants_on_two_threads() {
        fn assert_shareable<T: Clone + std::fmt::Debug + Send + Sync>() {}
        assert_shareable::<StreamMdApp>();

        let (system, list, app) = small_system();
        let start = std::sync::Barrier::new(2);
        let build = |variant| {
            let (app, system, list, start) = (app.clone(), &system, &list, &start);
            move || {
                start.wait();
                kernel_of(&app.build_step_program(system, list, variant))
            }
        };
        let (fixed, variable) = std::thread::scope(|s| {
            let fixed = s.spawn(build(Variant::Fixed));
            let variable = s.spawn(build(Variant::Variable));
            (
                fixed.join().expect("fixed build"),
                variable.join().expect("variable build"),
            )
        });
        // Both landed in the memo the clones share with `app`.
        for (variant, built) in [(Variant::Fixed, fixed), (Variant::Variable, variable)] {
            let hit = kernel_of(&app.build_step_program(&system, &list, variant));
            assert!(Arc::ptr_eq(&built, &hit), "{variant}");
        }
    }

    #[test]
    fn strip_mining_produces_multiple_strips() {
        let (system, list, app) = small_system();
        let app = StreamMdApp::builder()
            .neighbor(app.neighbor)
            .strip_iterations(200)
            .build()
            .unwrap();
        let out = app
            .run_step_with_list(&system, &list, Variant::Expanded)
            .unwrap();
        assert!(out.report.timeline.intervals.len() > 10);
        assert_forces_match(&system, &list, &out);
    }
}
