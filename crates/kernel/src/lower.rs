//! Lowering of iterative operations.
//!
//! Merrimac's FPUs are multiply-add units; divide and square root are
//! implemented in software as a low-precision hardware *seed* followed by
//! Newton–Raphson refinement (Section 5.1: "divides and square-roots are
//! computed iteratively and require several operations"). This pass
//! rewrites every `Div`/`Sqrt`/`Rsqrt` node into that sequence so the
//! scheduler only ever sees single-cycle-throughput ops.
//!
//! Expansion shapes (N = iterations from [`OpCosts`]):
//!
//! * `rsqrt(x)`  → seed, `hx = 0.5·x`, then N × { `t = y·y`,
//!   `w = 1.5 − hx·t`, `y = y·w` } — `2 + 3N` issued ops.
//! * `div(a,b)`  → seed, N × { `e = 2 − b·y`, `y = y·e` }, `q = a·y`,
//!   plus a final correction `q' = q + y·(a − b·q)` — `4 + 2N` issued ops.
//! * `sqrt(x)`   → `x · rsqrt(x)` — `3 + 3N` issued ops.

use merrimac_arch::OpCosts;

use crate::ir::{Kernel, Node, NodeId, OpKind};

/// Rewrites all iterative ops; returns the lowered kernel. Idempotent on
/// already-lowered kernels.
pub fn lower_kernel(kernel: &Kernel, costs: &OpCosts) -> Kernel {
    let mut out = Kernel {
        name: kernel.name.clone(),
        inputs: kernel.inputs.clone(),
        outputs: kernel.outputs.clone(),
        reg_init: kernel.reg_init.clone(),
        num_params: kernel.num_params,
        nodes: Vec::with_capacity(kernel.nodes.len() * 2),
        reg_updates: Vec::new(),
        writes: Vec::new(),
    };
    // Map from old node id to new node id.
    let mut remap: Vec<NodeId> = Vec::with_capacity(kernel.nodes.len());

    let push = |nodes: &mut Vec<Node>, n: Node| -> NodeId {
        nodes.push(n);
        (nodes.len() - 1) as NodeId
    };

    for node in &kernel.nodes {
        let new_id = match node {
            Node::Op {
                op: OpKind::Rsqrt,
                args,
            } => {
                let x = remap[args[0] as usize];
                emit_rsqrt(&mut out.nodes, x, costs.rsqrt_iterations)
            }
            Node::Op {
                op: OpKind::Sqrt,
                args,
            } => {
                let x = remap[args[0] as usize];
                let r = emit_rsqrt(&mut out.nodes, x, costs.rsqrt_iterations);
                push(
                    &mut out.nodes,
                    Node::Op {
                        op: OpKind::Mul,
                        args: [x, r].into(),
                    },
                )
            }
            Node::Op {
                op: OpKind::Div,
                args,
            } => {
                let a = remap[args[0] as usize];
                let b = remap[args[1] as usize];
                emit_div(&mut out.nodes, a, b, costs.recip_iterations)
            }
            Node::Op { op, args } => {
                let args = args.iter().map(|a| remap[*a as usize]).collect();
                push(&mut out.nodes, Node::Op { op: *op, args })
            }
            Node::CondRead {
                stream,
                field,
                pred,
                fallback,
            } => push(
                &mut out.nodes,
                Node::CondRead {
                    stream: *stream,
                    field: *field,
                    pred: remap[*pred as usize],
                    fallback: remap[*fallback as usize],
                },
            ),
            other => push(&mut out.nodes, *other),
        };
        remap.push(new_id);
    }

    out.reg_updates = kernel
        .reg_updates
        .iter()
        .map(|(r, v)| (*r, remap[*v as usize]))
        .collect();
    out.writes = kernel
        .writes
        .iter()
        .map(|w| crate::ir::WriteSpec {
            stream: w.stream,
            values: w.values.iter().map(|v| remap[*v as usize]).collect(),
            cond: w.cond.map(|c| remap[c as usize]),
        })
        .collect();
    out.validate_ssa();
    debug_assert!(out.is_lowered());
    out
}

fn emit_rsqrt(nodes: &mut Vec<Node>, x: NodeId, iters: u32) -> NodeId {
    let mut push = |n: Node| -> NodeId {
        nodes.push(n);
        (nodes.len() - 1) as NodeId
    };
    let half = push(Node::Const(0.5));
    let three_half = push(Node::Const(1.5));
    let mut y = push(Node::Op {
        op: OpKind::SeedRsqrt,
        args: [x].into(),
    });
    let hx = push(Node::Op {
        op: OpKind::Mul,
        args: [x, half].into(),
    });
    for _ in 0..iters {
        let t = push(Node::Op {
            op: OpKind::Mul,
            args: [y, y].into(),
        });
        // w = 1.5 - hx*t
        let w = push(Node::Op {
            op: OpKind::Nmsub,
            args: [hx, t, three_half].into(),
        });
        y = push(Node::Op {
            op: OpKind::Mul,
            args: [y, w].into(),
        });
    }
    y
}

fn emit_div(nodes: &mut Vec<Node>, a: NodeId, b: NodeId, iters: u32) -> NodeId {
    let mut push = |n: Node| -> NodeId {
        nodes.push(n);
        (nodes.len() - 1) as NodeId
    };
    let two = push(Node::Const(2.0));
    let mut y = push(Node::Op {
        op: OpKind::SeedRecip,
        args: [b].into(),
    });
    for _ in 0..iters {
        // e = 2 - b*y ; y = y*e
        let e = push(Node::Op {
            op: OpKind::Nmsub,
            args: [b, y, two].into(),
        });
        y = push(Node::Op {
            op: OpKind::Mul,
            args: [y, e].into(),
        });
    }
    let q = push(Node::Op {
        op: OpKind::Mul,
        args: [a, y].into(),
    });
    // Correction: q' = q + y*(a - b*q)
    let r = push(Node::Op {
        op: OpKind::Nmsub,
        args: [b, q, a].into(),
    });
    push(Node::Op {
        op: OpKind::Madd,
        args: [r, y, q].into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::interp::{Interpreter, StreamData};
    use crate::ir::StreamMode;

    fn one_op_kernel(
        f: impl FnOnce(
            &mut KernelBuilder,
            crate::builder::Val,
            crate::builder::Val,
        ) -> crate::builder::Val,
    ) -> Kernel {
        let mut b = KernelBuilder::new("t");
        let s = b.input("in", 2, StreamMode::EveryIteration);
        let o = b.output("out", 1);
        let x = b.read(s, 0);
        let y = b.read(s, 1);
        let r = f(&mut b, x, y);
        b.write(o, &[r]);
        b.build()
    }

    fn run_unary(k: &Kernel, inputs: &[(f64, f64)]) -> Vec<f64> {
        let data: Vec<f64> = inputs.iter().flat_map(|&(a, b)| [a, b]).collect();
        let out = Interpreter::new(k)
            .run(&[StreamData::new(2, data)], &[], inputs.len())
            .expect("interp");
        out.outputs[0].data.clone()
    }

    #[test]
    fn lowered_kernel_has_no_iterative_ops() {
        let k = one_op_kernel(|b, x, _| b.rsqrt(x));
        let l = lower_kernel(&k, &OpCosts::default());
        assert!(l.is_lowered());
        assert!(
            !k.is_lowered()
                || k.nodes
                    .iter()
                    .all(|n| !matches!(n, Node::Op { op, .. } if op.is_iterative()))
        );
    }

    #[test]
    fn rsqrt_accuracy() {
        let k = one_op_kernel(|b, x, _| b.rsqrt(x));
        let l = lower_kernel(&k, &OpCosts::default());
        let inputs: Vec<(f64, f64)> = [0.01, 0.5, 1.0, 2.0, 123.456, 9.9e6]
            .iter()
            .map(|&x| (x, 0.0))
            .collect();
        let got = run_unary(&l, &inputs);
        for (i, &(x, _)) in inputs.iter().enumerate() {
            let want = 1.0 / x.sqrt();
            let rel = ((got[i] - want) / want).abs();
            assert!(rel < 1e-14, "rsqrt({x}) rel error {rel}");
        }
    }

    #[test]
    fn sqrt_accuracy() {
        let k = one_op_kernel(|b, x, _| b.sqrt(x));
        let l = lower_kernel(&k, &OpCosts::default());
        let inputs: Vec<(f64, f64)> = [0.04, 1.0, 3.0, 777.0].iter().map(|&x| (x, 0.0)).collect();
        let got = run_unary(&l, &inputs);
        for (i, &(x, _)) in inputs.iter().enumerate() {
            let rel = ((got[i] - x.sqrt()) / x.sqrt()).abs();
            assert!(rel < 1e-15, "sqrt({x}) rel error {rel}");
        }
    }

    #[test]
    fn div_accuracy() {
        let k = one_op_kernel(|b, x, y| b.div(x, y));
        let l = lower_kernel(&k, &OpCosts::default());
        let inputs = vec![
            (1.0, 3.0),
            (10.0, 7.0),
            (-2.5, 0.3),
            (5.0, 1e-3),
            (0.0, 2.0),
        ];
        let got = run_unary(&l, &inputs);
        for (i, &(a, b)) in inputs.iter().enumerate() {
            let want = a / b;
            let err = if want == 0.0 {
                got[i].abs()
            } else {
                ((got[i] - want) / want).abs()
            };
            assert!(err < 1e-15, "div({a},{b}) error {err}");
        }
    }

    #[test]
    fn expansion_op_counts_match_cost_model() {
        type BuildFn =
            fn(&mut KernelBuilder, crate::builder::Val, crate::builder::Val) -> crate::builder::Val;
        let costs = OpCosts::default();
        let cases: [(BuildFn, merrimac_arch::FpuOpClass); 3] = [
            (|b, x, _| b.rsqrt(x), merrimac_arch::FpuOpClass::Rsqrt),
            (|b, x, _| b.sqrt(x), merrimac_arch::FpuOpClass::Sqrt),
            (|b, x, y| b.div(x, y), merrimac_arch::FpuOpClass::Div),
        ];
        for (build, class) in cases {
            let k = one_op_kernel(build);
            let l = lower_kernel(&k, &costs);
            let issued = l.issuing_nodes().count() as u64;
            assert_eq!(
                issued,
                costs.expansion_ops(class),
                "expansion count mismatch for {class:?}"
            );
        }
    }

    #[test]
    fn lowering_is_idempotent() {
        let k = one_op_kernel(|b, x, y| b.div(x, y));
        let costs = OpCosts::default();
        let l1 = lower_kernel(&k, &costs);
        let l2 = lower_kernel(&l1, &costs);
        assert_eq!(l1.nodes, l2.nodes);
    }

    #[test]
    fn plain_ops_pass_through() {
        let k = one_op_kernel(|b, x, y| b.madd(x, y, x));
        let l = lower_kernel(&k, &OpCosts::default());
        assert_eq!(l.nodes.len(), k.nodes.len());
    }
}
