//! Static kernel statistics: flop accounting and word traffic.
//!
//! Two flop conventions coexist in the paper and therefore here:
//!
//! * *solution flops* — programmer-visible operations counted on the
//!   **unlowered** kernel (div and sqrt count once); Figure 9's "Solution
//!   GFLOPS" uses these.
//! * *hardware flops* — operations counted on the **lowered** kernel
//!   (madd = 2, seeds/compares/selects = 0); Figure 9's "All GFLOPS" uses
//!   these.

use merrimac_arch::FpuOpClass;

use crate::ir::{Kernel, StreamMode};
use crate::schedule::live_set;

/// Per-iteration statistics of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Kernel these stats describe.
    pub name: String,
    /// Floating point ops in the paper's solution accounting.
    pub solution_flops: u64,
    /// Flops after lowering (madd = 2).
    pub hardware_flops: u64,
    /// Issued ops after lowering (slots consumed).
    pub hardware_ops: u64,
    /// Count of divides (before lowering).
    pub divides: u64,
    /// Count of square roots, including reciprocal square roots.
    pub square_roots: u64,
    /// Local-register-file references per iteration: operand reads plus
    /// the result write of every issued op (Figure 8's LRF count).
    pub lrf_refs: u64,
    /// Words read per iteration from unconditional input streams.
    pub words_in_unconditional: u64,
    /// Words read per conditional-stream pop (cost when the pop fires).
    pub words_in_conditional: u64,
    /// Words written per iteration by unconditional writes.
    pub words_out_unconditional: u64,
    /// Words written per fired conditional write.
    pub words_out_conditional: u64,
}

impl KernelStats {
    /// Analyze `kernel` (unlowered) together with its lowered form.
    pub fn analyze(kernel: &Kernel, lowered: &Kernel) -> Self {
        assert!(lowered.is_lowered());
        let live_hi = live_set(kernel);
        let mut solution_flops = 0;
        let mut divides = 0;
        let mut square_roots = 0;
        for (i, node) in kernel.nodes.iter().enumerate() {
            if !live_hi[i] {
                continue;
            }
            if let Some(class) = node.fpu_class() {
                solution_flops += class.solution_flops();
                match class {
                    FpuOpClass::Div => divides += 1,
                    FpuOpClass::Sqrt | FpuOpClass::Rsqrt => square_roots += 1,
                    _ => {}
                }
            }
        }

        let live_lo = live_set(lowered);
        let mut hardware_flops = 0;
        let mut hardware_ops = 0;
        let mut lrf_refs = 0;
        for (i, node) in lowered.nodes.iter().enumerate() {
            if !live_lo[i] || !node.issues() {
                continue;
            }
            let class = node.fpu_class().expect("issuing node has a class");
            hardware_ops += 1;
            hardware_flops += class.solution_flops();
            lrf_refs += node.deps().len() as u64 + 1;
        }

        let mut words_in_unconditional = 0;
        let mut words_in_conditional = 0;
        for s in &kernel.inputs {
            match s.mode {
                StreamMode::EveryIteration => words_in_unconditional += s.record_len as u64,
                StreamMode::Conditional => words_in_conditional += s.record_len as u64,
            }
        }
        let mut words_out_unconditional = 0;
        let mut words_out_conditional = 0;
        for w in &kernel.writes {
            let len = w.values.len() as u64;
            if w.cond.is_some() {
                words_out_conditional += len;
            } else {
                words_out_unconditional += len;
            }
        }

        Self {
            name: kernel.name.clone(),
            solution_flops,
            lrf_refs,
            hardware_flops,
            hardware_ops,
            divides,
            square_roots,
            words_in_unconditional,
            words_in_conditional,
            words_out_unconditional,
            words_out_conditional,
        }
    }

    /// Static arithmetic intensity assuming every conditional access fires
    /// once every `cond_period` iterations.
    pub fn arithmetic_intensity(&self, cond_period: f64) -> f64 {
        let words = self.words_in_unconditional as f64
            + self.words_out_unconditional as f64
            + (self.words_in_conditional + self.words_out_conditional) as f64 / cond_period;
        if words == 0.0 {
            return 0.0;
        }
        self.solution_flops as f64 / words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::lower::lower_kernel;
    use merrimac_arch::OpCosts;

    fn sample() -> (Kernel, Kernel) {
        let mut b = KernelBuilder::new("s");
        let s = b.input("x", 2, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let y = b.read(s, 1);
        let d = b.div(x, y);
        let r = b.rsqrt(d);
        let m = b.madd(r, x, y);
        b.write(o, &[m]);
        let k = b.build();
        let l = lower_kernel(&k, &OpCosts::default());
        (k, l)
    }

    #[test]
    fn solution_flop_convention() {
        let (k, l) = sample();
        let st = KernelStats::analyze(&k, &l);
        // div (1) + rsqrt (1) + madd (2) = 4.
        assert_eq!(st.solution_flops, 4);
        assert_eq!(st.divides, 1);
        assert_eq!(st.square_roots, 1);
    }

    #[test]
    fn hardware_ops_exceed_solution_ops() {
        let (k, l) = sample();
        let st = KernelStats::analyze(&k, &l);
        assert!(st.hardware_ops > 10, "ops = {}", st.hardware_ops);
        assert!(st.hardware_flops > st.solution_flops);
    }

    #[test]
    fn word_traffic() {
        let (k, l) = sample();
        let st = KernelStats::analyze(&k, &l);
        assert_eq!(st.words_in_unconditional, 2);
        assert_eq!(st.words_out_unconditional, 1);
        assert_eq!(st.words_in_conditional, 0);
        assert!((st.arithmetic_intensity(1.0) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hardware_ops_are_the_live_issuing_nodes_of_the_lowered_kernel() {
        let mut b = KernelBuilder::new("dead");
        let s = b.input("x", 2, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let y = b.read(s, 1);
        let _dead = b.div(y, x);
        let r = b.rsqrt(x);
        b.write(o, &[r]);
        let k = b.build();
        let l = lower_kernel(&k, &OpCosts::default());
        let st = KernelStats::analyze(&k, &l);
        let live = live_set(&l);
        let issuing = l.issuing_nodes().filter(|&(i, _)| live[i as usize]);
        assert_eq!(st.hardware_ops, issuing.count() as u64);
        assert!(st.hardware_ops < l.issuing_nodes().count() as u64);
    }
}
