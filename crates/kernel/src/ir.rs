//! Kernel IR: an SSA dataflow graph over stream I/O and loop-carried
//! registers.
//!
//! One [`Kernel`] describes the *loop body* a cluster runs once per
//! iteration. Everything the four StreamMD variants need is expressible:
//!
//! * plain stream reads (`Read`) — the stream buffer pops one record per
//!   iteration;
//! * conditional stream reads (`CondRead`) — Merrimac's conditional
//!   streams: the pop happens only when a predicate is true, otherwise a
//!   fallback value (usually a loop-carried register) is produced;
//! * loop-carried registers (`ReadReg` + [`Kernel::reg_updates`]) — force
//!   accumulators and the "current centre molecule" state;
//! * conditional output writes — partial-force records appended only when
//!   a condition holds.

use serde::{Deserialize, Serialize};

use merrimac_arch::FpuOpClass;

/// Index of a node in [`Kernel::nodes`].
pub type NodeId = u32;

/// Index of a loop-carried register.
pub type RegId = u32;

/// Arithmetic/logical operation kinds at the IR level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a * b + c`
    Madd,
    /// `c - a * b` (negated multiply-subtract, used by Newton steps)
    Nmsub,
    /// `a / b` — must be lowered before scheduling.
    Div,
    /// `sqrt(a)` — must be lowered before scheduling.
    Sqrt,
    /// `1/sqrt(a)` — must be lowered before scheduling.
    Rsqrt,
    /// Hardware reciprocal seed (low-precision table lookup).
    SeedRecip,
    /// Hardware reciprocal-square-root seed.
    SeedRsqrt,
    /// `a == b` as a 0.0/1.0 mask.
    CmpEq,
    /// `a < b` as a mask.
    CmpLt,
    /// `a <= b` as a mask.
    CmpLe,
    /// `mask != 0 ? a : b` — args (mask, a, b).
    Sel,
    /// Logical AND of masks.
    And,
    /// Logical OR of masks.
    Or,
    /// `1 - mask`.
    Not,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// Register move (copy).
    Mov,
}

impl OpKind {
    /// Number of arguments the op takes.
    pub fn arity(self) -> usize {
        match self {
            OpKind::Sqrt
            | OpKind::Rsqrt
            | OpKind::SeedRecip
            | OpKind::SeedRsqrt
            | OpKind::Not
            | OpKind::Mov => 1,
            OpKind::Madd | OpKind::Nmsub | OpKind::Sel => 3,
            _ => 2,
        }
    }

    /// The functional-unit class used for scheduling and flop counting.
    pub fn fpu_class(self) -> FpuOpClass {
        match self {
            OpKind::Add | OpKind::Sub => FpuOpClass::Add,
            OpKind::Mul => FpuOpClass::Mul,
            OpKind::Madd | OpKind::Nmsub => FpuOpClass::Madd,
            OpKind::Div => FpuOpClass::Div,
            OpKind::Sqrt => FpuOpClass::Sqrt,
            OpKind::Rsqrt => FpuOpClass::Rsqrt,
            OpKind::SeedRecip | OpKind::SeedRsqrt => FpuOpClass::Seed,
            OpKind::CmpEq | OpKind::CmpLt | OpKind::CmpLe => FpuOpClass::Cmp,
            OpKind::Sel => FpuOpClass::Sel,
            OpKind::And | OpKind::Or | OpKind::Not => FpuOpClass::Logic,
            OpKind::Min | OpKind::Max => FpuOpClass::Cmp,
            OpKind::Mov => FpuOpClass::Mov,
        }
    }

    /// True for ops that must be expanded by the lowering pass.
    pub fn is_iterative(self) -> bool {
        matches!(self, OpKind::Div | OpKind::Sqrt | OpKind::Rsqrt)
    }
}

/// The operands of a node: up to three ids held inline, so a node owns
/// no heap memory. Reads as a `[NodeId]` slice and prints as one; built
/// by `.collect()` (a fourth id panics) or from an array.
#[derive(Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Args {
    ids: [NodeId; 3], // `ids[len..]` stay 0: the derived `==` is the slices'
    len: u8,
}

impl std::ops::Deref for Args {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }
}

impl FromIterator<NodeId> for Args {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut args = Args::default();
        for id in iter {
            assert!(args.len < 3, "a node takes at most 3 operands");
            args.ids[args.len as usize] = id;
            args.len += 1;
        }
        args
    }
}

impl<const N: usize> From<[NodeId; N]> for Args {
    fn from(ids: [NodeId; N]) -> Self {
        ids.into_iter().collect()
    }
}

impl IntoIterator for Args {
    type Item = NodeId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NodeId, 3>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

impl std::fmt::Debug for Args {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A node of the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// A compile-time constant.
    Const(f64),
    /// A kernel scalar parameter (set at launch from the microcontroller,
    /// e.g. the qq charge table and LJ coefficients).
    Param(u32),
    /// Value of loop-carried register `0` at the top of the iteration.
    ReadReg(RegId),
    /// Read field `field` of the record popped this iteration from input
    /// stream `stream`. The stream must have [`StreamMode::EveryIteration`].
    Read { stream: u32, field: u32 },
    /// Conditional-stream read: when `pred` is non-zero the stream pops a
    /// record (once per iteration regardless of how many fields are read)
    /// and the field value is produced; otherwise `fallback` is produced.
    /// The stream must have [`StreamMode::Conditional`].
    CondRead {
        stream: u32,
        field: u32,
        pred: NodeId,
        fallback: NodeId,
    },
    /// An arithmetic/logical operation.
    Op { op: OpKind, args: Args },
}

impl Node {
    /// Data dependencies of this node: an op's arguments, a conditional
    /// read's `[pred, fallback]`. Inline: walking edges allocates nothing.
    pub fn deps(&self) -> Args {
        match self {
            Node::CondRead { pred, fallback, .. } => [*pred, *fallback].into(),
            Node::Op { args, .. } => *args,
            _ => Args::default(),
        }
    }

    /// Does this node occupy a VLIW issue slot? Reads — including
    /// conditional-stream reads — constants, parameters and register
    /// reads are serviced by the stream buffers / LRF and are free;
    /// arithmetic issues. The paper notes the conditional-stream
    /// bookkeeping has "little detrimental effect on the overall kernel
    /// efficiency"; kernels that want to model conditional-write
    /// instruction overhead insert explicit `Mov` guards (see the
    /// `variable` StreamMD kernel).
    pub fn issues(&self) -> bool {
        matches!(self, Node::Op { .. })
    }

    /// Functional-unit class for scheduling (`None` for non-issuing nodes).
    pub fn fpu_class(&self) -> Option<FpuOpClass> {
        match self {
            Node::Op { op, .. } => Some(op.fpu_class()),
            _ => None,
        }
    }
}

/// How an input stream's cursor advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamMode {
    /// One record popped every iteration.
    EveryIteration,
    /// Records popped only when the predicate of the stream's `CondRead`
    /// nodes fires (Merrimac conditional streams).
    Conditional,
}

/// Signature of an input or output stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSig {
    /// Descriptive name ("n_positions", "partial_forces", ...).
    pub name: String,
    /// Words per record.
    pub record_len: u32,
    pub mode: StreamMode,
}

/// One output write performed each iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteSpec {
    /// Output stream index.
    pub stream: u32,
    /// Values written, one per record field.
    pub values: Vec<NodeId>,
    /// When present, the record is appended only if the condition is
    /// non-zero (conditional output stream).
    pub cond: Option<NodeId>,
}

/// A complete kernel loop body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    pub name: String,
    pub inputs: Vec<StreamSig>,
    pub outputs: Vec<StreamSig>,
    /// Initial values of the loop-carried registers.
    pub reg_init: Vec<f64>,
    /// Scalar parameter count (values supplied at launch).
    pub num_params: u32,
    /// Dataflow nodes in SSA order: a node may only reference earlier
    /// nodes (checked by [`Kernel::validate_ssa`]).
    pub nodes: Vec<Node>,
    /// Register updates applied at the end of every iteration.
    pub reg_updates: Vec<(RegId, NodeId)>,
    /// Output writes performed every iteration.
    pub writes: Vec<WriteSpec>,
}

impl Kernel {
    /// Check SSA ordering, arities and index bounds; panics with a
    /// description on malformed kernels.
    pub fn validate_ssa(&self) {
        for (i, n) in self.nodes.iter().enumerate() {
            for d in n.deps() {
                assert!(
                    (d as usize) < i,
                    "kernel {}: node {i} depends on later/own node {d}",
                    self.name
                );
            }
            match n {
                Node::Op { op, args } => {
                    assert_eq!(
                        args.len(),
                        op.arity(),
                        "kernel {}: node {i} op {op:?} arity mismatch",
                        self.name
                    );
                }
                Node::Read { stream, field } => {
                    let s = &self.inputs[*stream as usize];
                    assert_eq!(s.mode, StreamMode::EveryIteration);
                    assert!(*field < s.record_len);
                }
                Node::CondRead { stream, field, .. } => {
                    let s = &self.inputs[*stream as usize];
                    assert_eq!(s.mode, StreamMode::Conditional);
                    assert!(*field < s.record_len);
                }
                Node::ReadReg(r) => {
                    assert!((*r as usize) < self.reg_init.len());
                }
                Node::Param(p) => assert!(*p < self.num_params),
                Node::Const(_) => {}
            }
        }
        for (r, v) in &self.reg_updates {
            assert!((*r as usize) < self.reg_init.len());
            assert!((*v as usize) < self.nodes.len());
        }
        for w in &self.writes {
            let s = &self.outputs[w.stream as usize];
            assert_eq!(w.values.len() as u32, s.record_len);
            for v in &w.values {
                assert!((*v as usize) < self.nodes.len());
            }
            if let Some(c) = w.cond {
                assert!((c as usize) < self.nodes.len());
            }
        }
    }

    /// True if no iterative (div/sqrt/rsqrt) nodes remain.
    pub fn is_lowered(&self) -> bool {
        !self
            .nodes
            .iter()
            .any(|n| matches!(n, Node::Op { op, .. } if op.is_iterative()))
    }

    /// Nodes that occupy VLIW issue slots.
    pub fn issuing_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.issues())
            .map(|(i, n)| (i as NodeId, n))
    }

    /// All nodes whose values are observable (written, or feeding a
    /// register update) — the roots for dead-code analysis.
    pub fn live_roots(&self) -> Vec<NodeId> {
        let mut roots: Vec<NodeId> = self
            .writes
            .iter()
            .flat_map(|w| w.values.iter().copied().chain(w.cond))
            .chain(self.reg_updates.iter().map(|(_, v)| *v))
            .collect();
        // Conditional reads have the side effect of advancing the stream,
        // so their predicates are live too.
        for (i, n) in self.nodes.iter().enumerate() {
            if matches!(n, Node::CondRead { .. }) {
                roots.push(i as NodeId);
            }
        }
        roots.sort_unstable();
        roots.dedup();
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_kernel() -> Kernel {
        // out[0] = in[0] * in[1] + reg; reg' = out value
        Kernel {
            name: "tiny".into(),
            inputs: vec![StreamSig {
                name: "a".into(),
                record_len: 2,
                mode: StreamMode::EveryIteration,
            }],
            outputs: vec![StreamSig {
                name: "o".into(),
                record_len: 1,
                mode: StreamMode::EveryIteration,
            }],
            reg_init: vec![0.0],
            num_params: 0,
            nodes: vec![
                Node::Read {
                    stream: 0,
                    field: 0,
                },
                Node::Read {
                    stream: 0,
                    field: 1,
                },
                Node::ReadReg(0),
                Node::Op {
                    op: OpKind::Madd,
                    args: [0, 1, 2].into(),
                },
            ],
            reg_updates: vec![(0, 3)],
            writes: vec![WriteSpec {
                stream: 0,
                values: vec![3],
                cond: None,
            }],
        }
    }

    #[test]
    fn tiny_kernel_validates() {
        tiny_kernel().validate_ssa();
    }

    #[test]
    fn ssa_violation_detected() {
        let mut k = tiny_kernel();
        k.nodes[0] = Node::Op {
            op: OpKind::Mov,
            args: [3].into(),
        };
        assert!(std::panic::catch_unwind(move || {
            k.validate_ssa();
        })
        .is_err());
    }

    #[test]
    fn arity_violation_detected() {
        let mut k = tiny_kernel();
        k.nodes[3] = Node::Op {
            op: OpKind::Madd,
            args: [0, 1].into(),
        };
        assert!(std::panic::catch_unwind(move || {
            k.validate_ssa();
        })
        .is_err());
    }

    #[test]
    fn issuing_nodes_excludes_reads() {
        let k = tiny_kernel();
        let issuing: Vec<NodeId> = k.issuing_nodes().map(|(i, _)| i).collect();
        assert_eq!(issuing, vec![3]);
    }

    #[test]
    fn live_roots_cover_writes_and_regs() {
        let k = tiny_kernel();
        assert_eq!(k.live_roots(), vec![3]);
    }

    #[test]
    fn op_arities() {
        assert_eq!(OpKind::Madd.arity(), 3);
        assert_eq!(OpKind::Sel.arity(), 3);
        assert_eq!(OpKind::Sqrt.arity(), 1);
        assert_eq!(OpKind::Add.arity(), 2);
    }

    #[test]
    fn iterative_flags() {
        assert!(OpKind::Div.is_iterative());
        assert!(OpKind::Rsqrt.is_iterative());
        assert!(!OpKind::Madd.is_iterative());
    }

    #[test]
    fn is_lowered_detects_iterative_nodes() {
        let mut k = tiny_kernel();
        assert!(k.is_lowered());
        k.nodes.push(Node::Op {
            op: OpKind::Rsqrt,
            args: [3].into(),
        });
        assert!(!k.is_lowered());
    }

    #[test]
    fn args_read_and_print_as_a_vec_does() {
        let args: Args = [4, 2, 4].into();
        assert_eq!(&*args, &[4, 2, 4]);
        assert_eq!(args.into_iter().collect::<Vec<_>>(), vec![4, 2, 4]);
        assert_eq!(format!("{args:?}"), format!("{:?}", vec![4u32, 2, 4]));
        assert_eq!(
            format!("{:#?}", Args::default()),
            format!("{:#?}", Vec::<u32>::new())
        );
        assert_eq!(Args::from([1, 2]), [1, 2].into_iter().collect());
    }
}
