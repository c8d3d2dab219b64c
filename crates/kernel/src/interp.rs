//! Functional interpreter for kernel dataflow graphs.
//!
//! Executes a kernel's loop body over real stream data, with exact
//! conditional-stream semantics: a conditional input stream pops at most
//! one record per iteration (when any of its `CondRead` predicates fires),
//! and conditional writes append only when their condition holds. The
//! interpreter is the functional half of the simulator — the timing half
//! (`merrimac-sim`) consumes the same kernels but only counts cycles.
//!
//! Seed operations model the hardware's low-precision lookup as a value
//! rounded to `f32`, so Newton–Raphson refinement converges exactly as it
//! would on the machine.

use crate::ir::{Kernel, Node, OpKind, StreamMode};

/// A flat stream of fixed-length records.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamData {
    pub record_len: usize,
    pub data: Vec<f64>,
}

impl StreamData {
    pub fn new(record_len: usize, data: Vec<f64>) -> Self {
        assert!(record_len > 0);
        assert_eq!(
            data.len() % record_len,
            0,
            "data not a whole number of records"
        );
        Self { record_len, data }
    }

    pub fn empty(record_len: usize) -> Self {
        Self {
            record_len,
            data: Vec::new(),
        }
    }

    pub fn num_records(&self) -> usize {
        self.data.len() / self.record_len
    }

    pub fn record(&self, i: usize) -> &[f64] {
        &self.data[i * self.record_len..(i + 1) * self.record_len]
    }

    pub fn view(&self) -> StreamView<'_> {
        StreamView {
            record_len: self.record_len,
            data: &self.data,
        }
    }
}

/// Borrowed words read as records of `record_len` — what a tape launch
/// takes, so a caller holding its streams elsewhere (or at another
/// record length: an unrolled kernel reads the same words as wider
/// records) launches without copying them.
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    pub record_len: usize,
    pub data: &'a [f64],
}

/// Errors the interpreter can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// An input stream ran out of records at the given iteration.
    StreamUnderrun { stream: usize, iteration: usize },
    /// Input stream count/shape does not match the kernel signature.
    SignatureMismatch(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::StreamUnderrun { stream, iteration } => {
                write!(f, "input stream {stream} underran at iteration {iteration}")
            }
            InterpError::SignatureMismatch(s) => write!(f, "signature mismatch: {s}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Result of running a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpOutput {
    /// One stream per kernel output.
    pub outputs: Vec<StreamData>,
    /// Records consumed from each input stream.
    pub records_consumed: Vec<usize>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final register values.
    pub final_regs: Vec<f64>,
}

/// Kernel interpreter.
#[derive(Debug, Clone)]
pub struct Interpreter<'k> {
    kernel: &'k Kernel,
}

impl<'k> Interpreter<'k> {
    pub fn new(kernel: &'k Kernel) -> Self {
        kernel.validate_ssa();
        Self { kernel }
    }

    /// Run `iterations` loop iterations over `inputs` with launch
    /// `params`.
    pub fn run(
        &self,
        inputs: &[StreamData],
        params: &[f64],
        iterations: usize,
    ) -> Result<InterpOutput, InterpError> {
        let k = self.kernel;
        if inputs.len() != k.inputs.len() {
            return Err(InterpError::SignatureMismatch(format!(
                "kernel {} expects {} input streams, got {}",
                k.name,
                k.inputs.len(),
                inputs.len()
            )));
        }
        for (i, (sig, data)) in k.inputs.iter().zip(inputs).enumerate() {
            if sig.record_len as usize != data.record_len {
                return Err(InterpError::SignatureMismatch(format!(
                    "input {i} record length {} != kernel {}",
                    data.record_len, sig.record_len
                )));
            }
        }
        if params.len() != k.num_params as usize {
            return Err(InterpError::SignatureMismatch(format!(
                "kernel {} expects {} params, got {}",
                k.name,
                k.num_params,
                params.len()
            )));
        }

        let mut outputs: Vec<StreamData> = k
            .outputs
            .iter()
            .map(|s| StreamData::empty(s.record_len as usize))
            .collect();
        // Worst-case words appended per iteration per output (exact for
        // unconditional writes), so the loop never re-grows a vector.
        let mut words_per_iter = vec![0usize; k.outputs.len()];
        for w in &k.writes {
            words_per_iter[w.stream as usize] += w.values.len();
        }
        for (o, w) in outputs.iter_mut().zip(&words_per_iter) {
            o.data.reserve(iterations * w);
        }
        let mut regs = k.reg_init.clone();
        let mut cursors = vec![0usize; inputs.len()];
        let mut vals = vec![0.0f64; k.nodes.len()];
        // Conditional streams pop at most once per iteration *per
        // predicate node*: all `CondRead`s guarded by the same predicate
        // share one popped record (they are the fields of a single
        // conditional record access), while distinct predicates — e.g.
        // the copies introduced by loop unrolling — pop independently.
        // Allocated once and cleared per iteration.
        let mut popped: Vec<std::collections::HashMap<u32, usize>> =
            vec![std::collections::HashMap::new(); inputs.len()];

        for iter in 0..iterations {
            for p in popped.iter_mut() {
                p.clear();
            }
            // Check unconditional stream availability up front.
            for (s, sig) in k.inputs.iter().enumerate() {
                if sig.mode == StreamMode::EveryIteration && cursors[s] >= inputs[s].num_records() {
                    return Err(InterpError::StreamUnderrun {
                        stream: s,
                        iteration: iter,
                    });
                }
            }

            for (i, node) in k.nodes.iter().enumerate() {
                vals[i] = match node {
                    Node::Const(c) => *c,
                    Node::Param(p) => params[*p as usize],
                    Node::ReadReg(r) => regs[*r as usize],
                    Node::Read { stream, field } => {
                        let s = *stream as usize;
                        inputs[s].record(cursors[s])[*field as usize]
                    }
                    Node::CondRead {
                        stream,
                        field,
                        pred,
                        fallback,
                    } => {
                        let s = *stream as usize;
                        if vals[*pred as usize] != 0.0 {
                            let rec = match popped[s].get(pred) {
                                Some(&rec) => rec,
                                None => {
                                    let rec = cursors[s];
                                    if rec >= inputs[s].num_records() {
                                        return Err(InterpError::StreamUnderrun {
                                            stream: s,
                                            iteration: iter,
                                        });
                                    }
                                    popped[s].insert(*pred, rec);
                                    cursors[s] += 1;
                                    rec
                                }
                            };
                            inputs[s].record(rec)[*field as usize]
                        } else {
                            vals[*fallback as usize]
                        }
                    }
                    Node::Op { op, args } => {
                        let a = |j: usize| vals[args[j] as usize];
                        match op {
                            OpKind::Add => a(0) + a(1),
                            OpKind::Sub => a(0) - a(1),
                            OpKind::Mul => a(0) * a(1),
                            OpKind::Madd => a(0) * a(1) + a(2),
                            OpKind::Nmsub => a(2) - a(0) * a(1),
                            OpKind::Div => a(0) / a(1),
                            OpKind::Sqrt => a(0).sqrt(),
                            OpKind::Rsqrt => 1.0 / a(0).sqrt(),
                            OpKind::SeedRecip => (1.0 / a(0)) as f32 as f64,
                            OpKind::SeedRsqrt => (1.0 / a(0).sqrt()) as f32 as f64,
                            OpKind::CmpEq => mask(a(0) == a(1)),
                            OpKind::CmpLt => mask(a(0) < a(1)),
                            OpKind::CmpLe => mask(a(0) <= a(1)),
                            OpKind::Sel => {
                                if a(0) != 0.0 {
                                    a(1)
                                } else {
                                    a(2)
                                }
                            }
                            OpKind::And => mask(a(0) != 0.0 && a(1) != 0.0),
                            OpKind::Or => mask(a(0) != 0.0 || a(1) != 0.0),
                            OpKind::Not => mask(a(0) == 0.0),
                            OpKind::Min => a(0).min(a(1)),
                            OpKind::Max => a(0).max(a(1)),
                            OpKind::Mov => a(0),
                        }
                    }
                };
            }

            // Writes.
            for w in &k.writes {
                let fire = w.cond.is_none_or(|c| vals[c as usize] != 0.0);
                if fire {
                    let out = &mut outputs[w.stream as usize];
                    for v in &w.values {
                        out.data.push(vals[*v as usize]);
                    }
                }
            }

            // Register updates (all based on this iteration's values).
            for (r, v) in &k.reg_updates {
                regs[*r as usize] = vals[*v as usize];
            }

            // Cursor advances (conditional streams advanced at pop time).
            for (s, sig) in k.inputs.iter().enumerate() {
                if sig.mode == StreamMode::EveryIteration {
                    cursors[s] += 1;
                }
            }
        }

        Ok(InterpOutput {
            outputs,
            records_consumed: cursors,
            iterations,
            final_regs: regs,
        })
    }
}

#[inline]
fn mask(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    #[test]
    fn runs_a_scaling_kernel() {
        let mut b = KernelBuilder::new("scale");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let p = b.param();
        let x = b.read(s, 0);
        let y = b.mul(x, p);
        b.write(o, &[y]);
        let k = b.build();
        let out = Interpreter::new(&k)
            .run(&[StreamData::new(1, vec![1.0, 2.0, 3.0])], &[10.0], 3)
            .unwrap();
        assert_eq!(out.outputs[0].data, vec![10.0, 20.0, 30.0]);
        assert_eq!(out.records_consumed, vec![3]);
    }

    #[test]
    fn loop_carried_accumulator() {
        let mut b = KernelBuilder::new("sum");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("running", 1);
        let r = b.reg(0.0);
        let acc = b.read_reg(r);
        let x = b.read(s, 0);
        let sum = b.add(acc, x);
        b.set_reg(r, sum);
        b.write(o, &[sum]);
        let k = b.build();
        let out = Interpreter::new(&k)
            .run(&[StreamData::new(1, vec![1.0, 2.0, 3.0, 4.0])], &[], 4)
            .unwrap();
        assert_eq!(out.outputs[0].data, vec![1.0, 3.0, 6.0, 10.0]);
        assert_eq!(out.final_regs, vec![10.0]);
    }

    #[test]
    fn conditional_stream_pops_on_demand() {
        // Pop a new value from the conditional stream every 2nd iteration.
        let mut b = KernelBuilder::new("cond");
        let s = b.input("vals", 1, StreamMode::Conditional);
        let o = b.output("out", 1);
        let parity = b.reg(1.0); // 1 on iterations that pop
        let cur = b.reg(0.0);
        let want = b.read_reg(parity);
        let prev = b.read_reg(cur);
        let v = b.cond_read(s, 0, want, prev);
        let flip = b.not(want);
        b.set_reg(parity, flip);
        b.set_reg(cur, v);
        b.write(o, &[v]);
        let k = b.build();
        let out = Interpreter::new(&k)
            .run(&[StreamData::new(1, vec![10.0, 20.0, 30.0])], &[], 6)
            .unwrap();
        assert_eq!(
            out.outputs[0].data,
            vec![10.0, 10.0, 20.0, 20.0, 30.0, 30.0]
        );
        assert_eq!(out.records_consumed, vec![3]);
    }

    #[test]
    fn conditional_write_filters_records() {
        // Emit only values above a threshold.
        let mut b = KernelBuilder::new("filter");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("big", 1);
        let x = b.read(s, 0);
        let t = b.constant(5.0);
        let big = b.cmp_lt(t, x);
        b.write_if(o, big, &[x]);
        let k = b.build();
        let out = Interpreter::new(&k)
            .run(&[StreamData::new(1, vec![3.0, 7.0, 4.0, 9.0])], &[], 4)
            .unwrap();
        assert_eq!(out.outputs[0].data, vec![7.0, 9.0]);
    }

    #[test]
    fn underrun_detected() {
        let mut b = KernelBuilder::new("u");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        b.write(o, &[x]);
        let k = b.build();
        let err = Interpreter::new(&k)
            .run(&[StreamData::new(1, vec![1.0])], &[], 2)
            .unwrap_err();
        assert_eq!(
            err,
            InterpError::StreamUnderrun {
                stream: 0,
                iteration: 1
            }
        );
    }

    #[test]
    fn signature_mismatch_detected() {
        let mut b = KernelBuilder::new("sig");
        let _s = b.input("x", 2, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let c = b.constant(1.0);
        b.write(o, &[c]);
        let k = b.build();
        let err = Interpreter::new(&k)
            .run(&[StreamData::new(1, vec![1.0])], &[], 1)
            .unwrap_err();
        assert!(matches!(err, InterpError::SignatureMismatch(_)));
    }

    #[test]
    fn select_and_masks() {
        let mut b = KernelBuilder::new("sel");
        let s = b.input("xy", 2, StreamMode::EveryIteration);
        let o = b.output("max", 1);
        let x = b.read(s, 0);
        let y = b.read(s, 1);
        let m = b.cmp_lt(x, y);
        let r = b.sel(m, y, x);
        b.write(o, &[r]);
        let k = b.build();
        let out = Interpreter::new(&k)
            .run(&[StreamData::new(2, vec![1.0, 2.0, 5.0, 3.0])], &[], 2)
            .unwrap();
        assert_eq!(out.outputs[0].data, vec![2.0, 5.0]);
    }

    #[test]
    fn seed_ops_are_f32_precision() {
        let mut b = KernelBuilder::new("seed");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let y = b.seed_recip(x);
        b.write(o, &[y]);
        let k = b.build();
        let out = Interpreter::new(&k)
            .run(&[StreamData::new(1, vec![3.0])], &[], 1)
            .unwrap();
        let want = (1.0f64 / 3.0) as f32 as f64;
        assert_eq!(out.outputs[0].data[0], want);
    }
}
