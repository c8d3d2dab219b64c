//! Ergonomic construction of kernel dataflow graphs.
//!
//! The StreamMD interaction kernels are a few hundred nodes; building
//! them by hand-indexing `Vec<Node>` would be unmaintainable. The builder
//! hands out copyable [`Val`] handles and provides one method per op, plus
//! small vector helpers ([`V3`]) since almost everything in the water
//! kernel is 3-vector arithmetic.

use crate::ir::{Kernel, Node, NodeId, OpKind, RegId, StreamMode, StreamSig, WriteSpec};

/// A handle to an SSA value inside a kernel being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Val(pub NodeId);

/// A triple of values — a 3-vector in the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct V3 {
    pub x: Val,
    pub y: Val,
    pub z: Val,
}

/// Kernel graph builder.
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    inputs: Vec<StreamSig>,
    outputs: Vec<StreamSig>,
    reg_init: Vec<f64>,
    num_params: u32,
    nodes: Vec<Node>,
    reg_updates: Vec<(RegId, NodeId)>,
    writes: Vec<WriteSpec>,
}

impl KernelBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            reg_init: Vec::new(),
            num_params: 0,
            nodes: Vec::new(),
            reg_updates: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Declare an input stream; returns its index.
    pub fn input(&mut self, name: &str, record_len: u32, mode: StreamMode) -> u32 {
        self.inputs.push(StreamSig {
            name: name.into(),
            record_len,
            mode,
        });
        (self.inputs.len() - 1) as u32
    }

    /// Declare an output stream; returns its index.
    pub fn output(&mut self, name: &str, record_len: u32) -> u32 {
        self.outputs.push(StreamSig {
            name: name.into(),
            record_len,
            mode: StreamMode::EveryIteration,
        });
        (self.outputs.len() - 1) as u32
    }

    /// Declare a loop-carried register with an initial value.
    pub fn reg(&mut self, init: f64) -> RegId {
        self.reg_init.push(init);
        (self.reg_init.len() - 1) as RegId
    }

    /// Declare a scalar launch parameter; returns its value handle.
    pub fn param(&mut self) -> Val {
        let p = self.num_params;
        self.num_params += 1;
        self.push(Node::Param(p))
    }

    fn push(&mut self, n: Node) -> Val {
        self.nodes.push(n);
        Val((self.nodes.len() - 1) as NodeId)
    }

    pub fn constant(&mut self, v: f64) -> Val {
        self.push(Node::Const(v))
    }

    pub fn read(&mut self, stream: u32, field: u32) -> Val {
        self.push(Node::Read { stream, field })
    }

    /// Read a whole 3-vector starting at `field`.
    pub fn read_v3(&mut self, stream: u32, field: u32) -> V3 {
        V3 {
            x: self.read(stream, field),
            y: self.read(stream, field + 1),
            z: self.read(stream, field + 2),
        }
    }

    pub fn read_reg(&mut self, r: RegId) -> Val {
        self.push(Node::ReadReg(r))
    }

    pub fn cond_read(&mut self, stream: u32, field: u32, pred: Val, fallback: Val) -> Val {
        self.push(Node::CondRead {
            stream,
            field,
            pred: pred.0,
            fallback: fallback.0,
        })
    }

    fn op(&mut self, op: OpKind, args: &[Val]) -> Val {
        debug_assert_eq!(args.len(), op.arity());
        self.push(Node::Op {
            op,
            args: args.iter().map(|v| v.0).collect(),
        })
    }

    pub fn add(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::Add, &[a, b])
    }

    pub fn sub(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::Sub, &[a, b])
    }

    pub fn mul(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::Mul, &[a, b])
    }

    /// `a*b + c`
    pub fn madd(&mut self, a: Val, b: Val, c: Val) -> Val {
        self.op(OpKind::Madd, &[a, b, c])
    }

    /// `c - a*b`
    pub fn nmsub(&mut self, a: Val, b: Val, c: Val) -> Val {
        self.op(OpKind::Nmsub, &[a, b, c])
    }

    pub fn div(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::Div, &[a, b])
    }

    pub fn sqrt(&mut self, a: Val) -> Val {
        self.op(OpKind::Sqrt, &[a])
    }

    pub fn rsqrt(&mut self, a: Val) -> Val {
        self.op(OpKind::Rsqrt, &[a])
    }

    pub fn cmp_eq(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::CmpEq, &[a, b])
    }

    pub fn cmp_lt(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::CmpLt, &[a, b])
    }

    pub fn cmp_le(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::CmpLe, &[a, b])
    }

    pub fn sel(&mut self, mask: Val, a: Val, b: Val) -> Val {
        self.op(OpKind::Sel, &[mask, a, b])
    }

    pub fn and(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::And, &[a, b])
    }

    pub fn or(&mut self, a: Val, b: Val) -> Val {
        self.op(OpKind::Or, &[a, b])
    }

    pub fn not(&mut self, a: Val) -> Val {
        self.op(OpKind::Not, &[a])
    }

    pub fn mov(&mut self, a: Val) -> Val {
        self.op(OpKind::Mov, &[a])
    }

    /// Low-precision reciprocal seed (normally emitted by the lowering
    /// pass; exposed for tests).
    pub fn seed_recip(&mut self, a: Val) -> Val {
        self.op(OpKind::SeedRecip, &[a])
    }

    /// Low-precision reciprocal-square-root seed.
    pub fn seed_rsqrt(&mut self, a: Val) -> Val {
        self.op(OpKind::SeedRsqrt, &[a])
    }

    // ---- 3-vector helpers -------------------------------------------------

    pub fn v3_add(&mut self, a: V3, b: V3) -> V3 {
        V3 {
            x: self.add(a.x, b.x),
            y: self.add(a.y, b.y),
            z: self.add(a.z, b.z),
        }
    }

    pub fn v3_sub(&mut self, a: V3, b: V3) -> V3 {
        V3 {
            x: self.sub(a.x, b.x),
            y: self.sub(a.y, b.y),
            z: self.sub(a.z, b.z),
        }
    }

    pub fn v3_scale(&mut self, a: V3, s: Val) -> V3 {
        V3 {
            x: self.mul(a.x, s),
            y: self.mul(a.y, s),
            z: self.mul(a.z, s),
        }
    }

    /// Squared norm via mul + 2 madds.
    pub fn v3_norm2(&mut self, a: V3) -> Val {
        let xx = self.mul(a.x, a.x);
        let xy = self.madd(a.y, a.y, xx);
        self.madd(a.z, a.z, xy)
    }

    // ---- side effects -----------------------------------------------------

    /// Update register `r` to `v` at the end of each iteration.
    pub fn set_reg(&mut self, r: RegId, v: Val) {
        self.reg_updates.push((r, v.0));
    }

    /// Append a record to `stream` each iteration.
    pub fn write(&mut self, stream: u32, values: &[Val]) {
        self.writes.push(WriteSpec {
            stream,
            values: values.iter().map(|v| v.0).collect(),
            cond: None,
        });
    }

    /// Append a record to `stream` only when `cond` is non-zero.
    pub fn write_if(&mut self, stream: u32, cond: Val, values: &[Val]) {
        self.writes.push(WriteSpec {
            stream,
            values: values.iter().map(|v| v.0).collect(),
            cond: Some(cond.0),
        });
    }

    /// Finish and validate.
    pub fn build(self) -> Kernel {
        let k = Kernel {
            name: self.name,
            inputs: self.inputs,
            outputs: self.outputs,
            reg_init: self.reg_init,
            num_params: self.num_params,
            nodes: self.nodes,
            reg_updates: self.reg_updates,
            writes: self.writes,
        };
        k.validate_ssa();
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_dot_product_kernel() {
        let mut b = KernelBuilder::new("dot");
        let s = b.input("ab", 6, StreamMode::EveryIteration);
        let o = b.output("dot", 1);
        let a = b.read_v3(s, 0);
        let c = b.read_v3(s, 3);
        let xx = b.mul(a.x, c.x);
        let xy = b.madd(a.y, c.y, xx);
        let d = b.madd(a.z, c.z, xy);
        b.write(o, &[d]);
        let k = b.build();
        assert_eq!(k.nodes.len(), 9);
        assert_eq!(k.writes.len(), 1);
    }

    #[test]
    fn registers_and_conditionals() {
        let mut b = KernelBuilder::new("cond");
        let s = b.input("data", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let r = b.reg(0.0);
        let prev = b.read_reg(r);
        let limit = b.constant(10.0);
        let need = b.cmp_lt(prev, limit);
        let v = b.cond_read(s, 0, need, prev);
        b.set_reg(r, v);
        b.write_if(o, need, &[v]);
        let k = b.build();
        assert_eq!(k.reg_init, vec![0.0]);
        assert_eq!(k.writes[0].cond, Some(need.0));
    }

    #[test]
    fn v3_helpers_generate_madds() {
        let mut b = KernelBuilder::new("v3");
        let s = b.input("p", 3, StreamMode::EveryIteration);
        let o = b.output("n2", 1);
        let p = b.read_v3(s, 0);
        let n2 = b.v3_norm2(p);
        b.write(o, &[n2]);
        let k = b.build();
        let madds = k
            .nodes
            .iter()
            .filter(|n| {
                matches!(
                    n,
                    Node::Op {
                        op: OpKind::Madd,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(madds, 2);
    }

    #[test]
    fn params_are_counted() {
        let mut b = KernelBuilder::new("p");
        let _o = b.output("o", 1);
        let p1 = b.param();
        let p2 = b.param();
        let s = b.add(p1, p2);
        b.write(0, &[s]);
        let k = b.build();
        assert_eq!(k.num_params, 2);
    }
}
