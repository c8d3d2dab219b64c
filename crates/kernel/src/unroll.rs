//! Loop unrolling.
//!
//! Unrolling by U turns one kernel iteration into U consecutive original
//! iterations: per-iteration input streams are re-packed as U-records
//! (the flat SRF data is unchanged), loop-carried registers are chained
//! through the copies, and conditional streams keep independent pop
//! predicates per copy. Figure 10's optimized `variable` kernel is
//! "unrolled twice and software pipelined".

use crate::ir::{Kernel, Node, NodeId, StreamMode, StreamSig, WriteSpec};

/// Unroll `kernel` by `factor`. The resulting kernel performs `factor`
/// original iterations per loop iteration; callers must divide their
/// iteration counts accordingly (and pad streams when the trip count is
/// not a multiple of the factor).
pub fn unroll(kernel: &Kernel, factor: u32) -> Kernel {
    assert!(factor >= 1, "unroll factor must be at least 1");
    kernel.validate_ssa();
    if factor == 1 {
        return kernel.clone();
    }

    let inputs: Vec<StreamSig> = kernel
        .inputs
        .iter()
        .map(|s| match s.mode {
            StreamMode::EveryIteration => StreamSig {
                name: s.name.clone(),
                record_len: s.record_len * factor,
                mode: s.mode,
            },
            StreamMode::Conditional => s.clone(),
        })
        .collect();
    let outputs = kernel.outputs.clone();

    let mut out = Kernel {
        name: format!("{}_x{}", kernel.name, factor),
        inputs,
        outputs,
        reg_init: kernel.reg_init.clone(),
        num_params: kernel.num_params,
        nodes: Vec::with_capacity(kernel.nodes.len() * factor as usize),
        reg_updates: Vec::new(),
        writes: Vec::new(),
    };

    // Current SSA value of each register inside the unrolled body; None
    // means "still the iteration-entry register value".
    let mut reg_val: Vec<Option<NodeId>> = vec![None; kernel.reg_init.len()];

    for u in 0..factor {
        let mut remap: Vec<NodeId> = Vec::with_capacity(kernel.nodes.len());
        for node in &kernel.nodes {
            let mapped: NodeId = match node {
                Node::ReadReg(r) => {
                    if let Some(v) = reg_val[*r as usize] {
                        // Alias straight to the previous copy's update.
                        remap.push(v);
                        continue;
                    }
                    out.nodes.push(Node::ReadReg(*r));
                    (out.nodes.len() - 1) as NodeId
                }
                Node::Read { stream, field } => {
                    let base = kernel.inputs[*stream as usize].record_len;
                    out.nodes.push(Node::Read {
                        stream: *stream,
                        field: u * base + field,
                    });
                    (out.nodes.len() - 1) as NodeId
                }
                Node::CondRead {
                    stream,
                    field,
                    pred,
                    fallback,
                } => {
                    out.nodes.push(Node::CondRead {
                        stream: *stream,
                        field: *field,
                        pred: remap[*pred as usize],
                        fallback: remap[*fallback as usize],
                    });
                    (out.nodes.len() - 1) as NodeId
                }
                Node::Op { op, args } => {
                    out.nodes.push(Node::Op {
                        op: *op,
                        args: args.iter().map(|a| remap[*a as usize]).collect(),
                    });
                    (out.nodes.len() - 1) as NodeId
                }
                other => {
                    out.nodes.push(*other);
                    (out.nodes.len() - 1) as NodeId
                }
            };
            remap.push(mapped);
        }
        // Writes of this copy, in original order.
        for w in &kernel.writes {
            out.writes.push(WriteSpec {
                stream: w.stream,
                values: w.values.iter().map(|v| remap[*v as usize]).collect(),
                cond: w.cond.map(|c| remap[c as usize]),
            });
        }
        // Register chain for the next copy.
        for (r, v) in &kernel.reg_updates {
            reg_val[*r as usize] = Some(remap[*v as usize]);
        }
    }

    for (r, v) in reg_val.iter().enumerate() {
        if let Some(v) = v {
            out.reg_updates.push((r as u32, *v));
        }
    }
    out.validate_ssa();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::interp::{Interpreter, StreamData};
    use crate::ir::StreamMode;

    /// sum += x; out <- sum — a kernel with a recurrence.
    fn acc_kernel() -> Kernel {
        let mut b = KernelBuilder::new("acc");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("sum", 1);
        let r = b.reg(0.0);
        let a = b.read_reg(r);
        let x = b.read(s, 0);
        let sum = b.add(a, x);
        b.set_reg(r, sum);
        b.write(o, &[sum]);
        b.build()
    }

    #[test]
    fn unroll_by_one_is_identity() {
        let k = acc_kernel();
        let u = unroll(&k, 1);
        assert_eq!(k, u);
    }

    #[test]
    fn unrolled_kernel_matches_original_semantics() {
        let k = acc_kernel();
        let u = unroll(&k, 2);
        let data: Vec<f64> = (1..=8).map(|x| x as f64).collect();
        let base = Interpreter::new(&k)
            .run(&[StreamData::new(1, data.clone())], &[], 8)
            .unwrap();
        let unrolled = Interpreter::new(&u)
            .run(&[StreamData::new(2, data)], &[], 4)
            .unwrap();
        assert_eq!(base.outputs[0].data, unrolled.outputs[0].data);
        assert_eq!(base.final_regs, unrolled.final_regs);
    }

    #[test]
    fn unrolled_input_records_are_wider() {
        let k = acc_kernel();
        let u = unroll(&k, 4);
        assert_eq!(u.inputs[0].record_len, 4);
        assert_eq!(u.outputs[0].record_len, 1);
        assert_eq!(u.writes.len(), 4);
    }

    #[test]
    fn conditional_streams_unroll_with_independent_pops() {
        // Pop a record when the every-iteration control value is > 0.
        let mut b = KernelBuilder::new("cpop");
        let ctl = b.input("ctl", 1, StreamMode::EveryIteration);
        let s = b.input("vals", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let r = b.reg(-1.0);
        let prev = b.read_reg(r);
        let c = b.read(ctl, 0);
        let zero = b.constant(0.0);
        let want = b.cmp_lt(zero, c);
        let v = b.cond_read(s, 0, want, prev);
        b.set_reg(r, v);
        b.write(o, &[v]);
        let k = b.build();
        let u = unroll(&k, 2);

        let ctl_data = vec![1.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let vals = vec![10.0, 20.0, 30.0];
        let base = Interpreter::new(&k)
            .run(
                &[
                    StreamData::new(1, ctl_data.clone()),
                    StreamData::new(1, vals.clone()),
                ],
                &[],
                6,
            )
            .unwrap();
        let unrolled = Interpreter::new(&u)
            .run(
                &[StreamData::new(2, ctl_data), StreamData::new(1, vals)],
                &[],
                3,
            )
            .unwrap();
        assert_eq!(base.outputs[0].data, unrolled.outputs[0].data);
        assert_eq!(base.records_consumed[1], unrolled.records_consumed[1]);
    }

    #[test]
    fn unrolled_kernel_has_scaled_op_count() {
        let k = acc_kernel();
        let u3 = unroll(&k, 3);
        let base_ops = k.issuing_nodes().count();
        assert_eq!(u3.issuing_nodes().count(), base_ops * 3);
    }
}
