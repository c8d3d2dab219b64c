//! Compiled kernels: IR + lowered form + schedules + static statistics,
//! bundled for launch by the stream unit.

use merrimac_arch::{MachineConfig, OpCosts};
use merrimac_kernel::{
    lower::lower_kernel, schedule::DepTable, unroll::unroll, CompiledTape, Kernel, KernelStats,
    PipelinedSchedule, Schedule,
};

/// Compilation options — the knobs Figure 10 turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOpt {
    /// Loop unroll factor (Figure 10b uses 2).
    pub unroll: u32,
    /// Software pipelining on/off (off = the Figure 10a schedule).
    pub software_pipeline: bool,
}

impl Default for KernelOpt {
    fn default() -> Self {
        Self {
            unroll: 1,
            software_pipeline: true,
        }
    }
}

impl KernelOpt {
    /// The unoptimized configuration of Figure 10a.
    pub fn unoptimized() -> Self {
        Self {
            unroll: 1,
            software_pipeline: false,
        }
    }

    /// The optimized configuration of Figure 10b.
    pub fn optimized() -> Self {
        Self {
            unroll: 2,
            software_pipeline: true,
        }
    }
}

/// A kernel ready to launch: functional IR plus timing schedules.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Original (pre-unroll, pre-lowering) kernel.
    pub source: Kernel,
    /// Unrolled (if requested) high-level kernel — the form the tape is
    /// compiled from, and the reference interpreter's input in tests.
    pub ir: Kernel,
    /// Bytecode tape compiled from [`CompiledKernel::ir`] — the form
    /// every kernel launch executes. Compiled once here and
    /// shared across strips/threads through the `Arc<CompiledKernel>`
    /// every stream program holds.
    pub tape: CompiledTape,
    /// Lowered form the schedules refer to.
    pub lowered: Kernel,
    /// Non-pipelined schedule.
    pub schedule: Schedule,
    /// Modulo schedule (present when software pipelining is enabled).
    pub pipelined: Option<PipelinedSchedule>,
    /// Static statistics of the *unrolled* kernel (per unrolled
    /// iteration).
    pub stats: KernelStats,
    /// Statistics of one source iteration.
    pub source_stats: KernelStats,
    pub opt: KernelOpt,
}

impl CompiledKernel {
    /// Compile `kernel` for the given machine.
    pub fn compile(kernel: Kernel, cfg: &MachineConfig, costs: &OpCosts, opt: KernelOpt) -> Self {
        kernel.validate_ssa();
        let source_lowered = lower_kernel(&kernel, costs);
        let source_stats = KernelStats::analyze(&kernel, &source_lowered);
        // `unroll(k, 1)` is `k.clone()`, so its lowering and stats are known.
        let (ir, lowered, stats) = if opt.unroll == 1 {
            (kernel.clone(), source_lowered, source_stats.clone())
        } else {
            let ir = unroll(&kernel, opt.unroll);
            let lowered = lower_kernel(&ir, costs);
            let stats = KernelStats::analyze(&ir, &lowered);
            (ir, lowered, stats)
        };
        let tape = CompiledTape::compile(&ir);
        // One dependence table and one serial schedule serve both forms.
        let table = DepTable::new(&lowered, costs);
        let schedule = table.list_schedule(cfg.fpus_per_cluster);
        let pipelined = opt
            .software_pipeline
            .then(|| table.modulo_schedule(&schedule));
        Self {
            source: kernel,
            ir,
            tape,
            lowered,
            schedule,
            pipelined,
            stats,
            source_stats,
            opt,
        }
    }

    /// Cycles for `source_iterations` original loop iterations on one
    /// cluster (excluding kernel start-up, which the machine model adds).
    pub fn cluster_cycles(&self, source_iterations: u64) -> u64 {
        let unrolled_iters = source_iterations.div_ceil(self.opt.unroll as u64);
        match &self.pipelined {
            Some(p) => p.cycles_for(unrolled_iters),
            None => unrolled_iters * self.schedule.length,
        }
    }

    /// Steady-state cycles per *source* iteration.
    pub fn cycles_per_iteration(&self) -> f64 {
        let per_unrolled = match &self.pipelined {
            Some(p) => p.ii as f64,
            None => self.schedule.length as f64,
        };
        per_unrolled / self.opt.unroll as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merrimac_kernel::ir::StreamMode;
    use merrimac_kernel::KernelBuilder;

    fn demo_kernel() -> Kernel {
        let mut b = KernelBuilder::new("demo");
        let s = b.input("xy", 2, StreamMode::EveryIteration);
        let o = b.output("z", 1);
        let x = b.read(s, 0);
        let y = b.read(s, 1);
        let r = b.rsqrt(x);
        let d = b.div(y, x);
        let m = b.madd(r, d, y);
        b.write(o, &[m]);
        b.build()
    }

    #[test]
    fn optimized_beats_unoptimized_per_iteration() {
        let cfg = MachineConfig::default();
        let costs = OpCosts::default();
        let unopt = CompiledKernel::compile(demo_kernel(), &cfg, &costs, KernelOpt::unoptimized());
        let opt = CompiledKernel::compile(demo_kernel(), &cfg, &costs, KernelOpt::optimized());
        assert!(
            opt.cycles_per_iteration() < unopt.cycles_per_iteration(),
            "optimized {} !< unoptimized {}",
            opt.cycles_per_iteration(),
            unopt.cycles_per_iteration()
        );
    }

    #[test]
    fn cluster_cycles_scale_linearly_in_steady_state() {
        let cfg = MachineConfig::default();
        let costs = OpCosts::default();
        let k = CompiledKernel::compile(demo_kernel(), &cfg, &costs, KernelOpt::default());
        let c100 = k.cluster_cycles(100);
        let c200 = k.cluster_cycles(200);
        let ii = k.pipelined.as_ref().unwrap().ii;
        assert_eq!(c200 - c100, 100 * ii);
    }

    #[test]
    fn unroll_preserves_per_source_stats() {
        let cfg = MachineConfig::default();
        let costs = OpCosts::default();
        let k = CompiledKernel::compile(demo_kernel(), &cfg, &costs, KernelOpt::optimized());
        assert_eq!(k.stats.solution_flops, 2 * k.source_stats.solution_flops);
    }

    #[test]
    fn zero_iterations_cost_nothing_steady() {
        let cfg = MachineConfig::default();
        let costs = OpCosts::default();
        let k = CompiledKernel::compile(demo_kernel(), &cfg, &costs, KernelOpt::default());
        assert_eq!(k.cluster_cycles(0), 0);
    }
}
