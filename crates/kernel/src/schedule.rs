//! Critical-path list scheduling onto the cluster's VLIW slots.
//!
//! Each cluster executes one VLIW word per cycle with one slot per FPU
//! (4 in the Table 1 configuration). The scheduler places every *live*
//! issuing node (arithmetic and conditional-stream bookkeeping; plain
//! stream reads are serviced by stream buffers and are free) so that all
//! data dependencies are satisfied with full pipeline latencies — the
//! static scheduling discipline the paper's "communication scheduling"
//! compiler implements.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use merrimac_arch::OpCosts;

use crate::ir::{Kernel, Node, NodeId, RegId};

/// A scheduled loop body (non-pipelined: one iteration completes before
/// the next begins, as in the left half of Figure 10).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `slots[cycle][slot]` — issued node, if any.
    pub slots: Vec<Vec<Option<NodeId>>>,
    /// Issue cycle per node (None for non-issuing or dead nodes).
    pub issue_cycle: Vec<Option<u64>>,
    /// Cycle at which each node's *value* is available.
    pub value_ready: Vec<Option<u64>>,
    pub num_slots: usize,
    /// Completion time: all values (including latencies) available.
    pub length: u64,
}

impl Schedule {
    /// Number of ops issued.
    pub fn issued_ops(&self) -> usize {
        self.issue_cycle.iter().flatten().count()
    }

    /// Last cycle in which anything issues, plus one.
    pub fn issue_span(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Fraction of slot-cycles filled over the issue span.
    pub fn occupancy(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.issued_ops() as f64 / (self.slots.len() * self.num_slots) as f64
    }

    /// Fraction of cycles (over the issue span) in which at least one op
    /// issues — the paper's "a new instruction is issued on X% of cycles".
    pub fn issue_rate(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        let busy = self
            .slots
            .iter()
            .filter(|row| row.iter().any(|s| s.is_some()))
            .count();
        busy as f64 / self.slots.len() as f64
    }
}

/// Compute the set of live nodes: transitive dependencies of the kernel's
/// observable roots.
pub fn live_set(kernel: &Kernel) -> Vec<bool> {
    let mut live = vec![false; kernel.nodes.len()];
    let mut stack = kernel.live_roots();
    while let Some(n) = stack.pop() {
        if live[n as usize] {
            continue;
        }
        live[n as usize] = true;
        stack.extend(kernel.nodes[n as usize].deps());
    }
    live
}

/// Live issuing nodes: what a schedule has to place.
pub(crate) fn live_ops(kernel: &Kernel, live: &[bool]) -> usize {
    (0..kernel.nodes.len())
        .filter(|&i| live[i] && kernel.nodes[i].issues())
        .count()
}

/// The dependence structure of one lowered kernel, built once and read
/// by every scheduling pass: the list scheduler here and the MII bounds
/// and modulo placement in [`crate::pipeline`].
pub struct DepTable<'k> {
    pub(crate) kernel: &'k Kernel,
    /// Node `i`'s dependencies are `dep_edges[dep_start[i]..dep_start[i + 1]]`,
    /// in [`crate::ir::Node::deps`] order (a repeated argument is a repeated
    /// edge).
    dep_start: Vec<usize>,
    dep_edges: Vec<NodeId>,
    /// The reverse edges, laid out the same way.
    user_start: Vec<usize>,
    user_edges: Vec<NodeId>,
    /// The `ReadReg` nodes of each register, in ascending id order.
    reg_reads: Vec<Vec<NodeId>>,
    pub(crate) live: Vec<bool>,
    /// Issue-to-use latency per node (0 for non-issuing nodes).
    pub(crate) latency: Vec<u64>,
    /// Longest-latency path from each live node to any live root — the
    /// classic list-scheduling priority.
    pub(crate) height: Vec<u64>,
    /// [`live_ops`] of the kernel.
    pub(crate) ops: usize,
}

impl<'k> DepTable<'k> {
    /// Panics if the kernel still contains iterative ops (run
    /// [`crate::lower::lower_kernel`] first).
    pub fn new(kernel: &'k Kernel, costs: &OpCosts) -> Self {
        assert!(
            kernel.is_lowered(),
            "kernel {} must be lowered before scheduling",
            kernel.name
        );
        let n = kernel.nodes.len();
        let mut dep_start = Vec::with_capacity(n + 1);
        let mut dep_edges = Vec::new();
        let mut user_start = vec![0usize; n + 1];
        let mut reg_reads: Vec<Vec<NodeId>> = Vec::new();
        for (i, node) in kernel.nodes.iter().enumerate() {
            dep_start.push(dep_edges.len());
            for d in node.deps() {
                dep_edges.push(d);
                user_start[d as usize + 1] += 1;
            }
            if let Node::ReadReg(r) = *node {
                reg_reads.resize_with(reg_reads.len().max(r as usize + 1), Vec::new);
                reg_reads[r as usize].push(i as NodeId);
            }
        }
        dep_start.push(dep_edges.len());
        for i in 0..n {
            user_start[i + 1] += user_start[i];
        }
        // Users fill in ascending id order, as a scan over the nodes
        // would list them.
        let mut fill = user_start.clone();
        let mut user_edges = vec![0; dep_edges.len()];
        for i in 0..n {
            for &d in &dep_edges[dep_start[i]..dep_start[i + 1]] {
                user_edges[fill[d as usize]] = i as NodeId;
                fill[d as usize] += 1;
            }
        }

        let live = live_set(kernel);
        let latency: Vec<u64> = kernel
            .nodes
            .iter()
            .map(|node| node.fpu_class().map_or(0, |c| costs.latency(c)))
            .collect();
        let mut table = Self {
            kernel,
            dep_start,
            dep_edges,
            user_start,
            user_edges,
            reg_reads,
            ops: live_ops(kernel, &live),
            live,
            latency,
            height: vec![0; n],
        };
        for i in (0..n).rev() {
            if table.live[i] {
                let above = table.users(i).iter().map(|&u| table.height[u as usize]);
                table.height[i] = table.latency[i] + above.max().unwrap_or(0);
            }
        }
        table
    }

    pub(crate) fn deps(&self, i: usize) -> &[NodeId] {
        &self.dep_edges[self.dep_start[i]..self.dep_start[i + 1]]
    }

    pub(crate) fn users(&self, i: usize) -> &[NodeId] {
        &self.user_edges[self.user_start[i]..self.user_start[i + 1]]
    }

    pub(crate) fn reg_reads(&self, reg: RegId) -> &[NodeId] {
        self.reg_reads.get(reg as usize).map_or(&[], Vec::as_slice)
    }

    /// List-schedule the kernel onto `num_slots` FPU slots.
    ///
    /// Event-driven, O((n + e) log n) plus one row per cycle: a node
    /// waits on a count of unsettled dependencies; when the count
    /// reaches zero it enters a queue ordered by the cycle its operands
    /// are ready, and from there a ready heap. Each cycle issues the
    /// `num_slots` ready ops of greatest height, the smaller node id
    /// first among equals — a total order, so the schedule is a function
    /// of kernel, costs and slot count alone. An op issued at cycle `t`
    /// releases its users at `t + latency` and never before `t + 1`: a
    /// word is complete before anything that reads it is chosen.
    /// Non-issuing nodes (conditional-stream reads over op results)
    /// settle the moment their last operand does and pass its time on.
    pub fn list_schedule(&self, num_slots: usize) -> Schedule {
        assert!(num_slots > 0);
        let n = self.kernel.nodes.len();
        let mut issue_cycle: Vec<Option<u64>> = vec![None; n];
        let mut slots: Vec<Vec<Option<NodeId>>> = Vec::new();
        let mut ready: BinaryHeap<(u64, Reverse<NodeId>)> = BinaryHeap::new();
        let mut wait = Waiting::new(self);

        let mut scheduled = 0usize;
        let mut t: u64 = 0;
        while scheduled < self.ops {
            while let Some(&Reverse((at, node))) = wait.released.peek() {
                if at > t {
                    break;
                }
                wait.released.pop();
                ready.push((self.height[node as usize], Reverse(node)));
            }
            if ready.is_empty() {
                // Nothing can issue until the next release: stall rows.
                // With ops left and nothing in flight the dependence
                // graph has a cycle, which SSA order rules out.
                let Some(&Reverse((at, _))) = wait.released.peek() else {
                    panic!("kernel {}: dependence cycle", self.kernel.name);
                };
                slots.resize(slots.len() + (at - t) as usize, vec![None; num_slots]);
                t = at;
                continue;
            }
            let mut row = vec![None; num_slots];
            for slot in row.iter_mut() {
                let Some((_, Reverse(node))) = ready.pop() else {
                    break;
                };
                *slot = Some(node);
                issue_cycle[node as usize] = Some(t);
                let value = t + self.latency[node as usize];
                wait.settle(node as usize, value, value.max(t + 1));
                scheduled += 1;
            }
            slots.push(row);
            t += 1;
        }

        let value_ready = wait.value_ready;
        let length = value_ready
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
            .max(slots.len() as u64);

        Schedule {
            slots,
            issue_cycle,
            value_ready,
            num_slots,
            length,
        }
    }
}

/// The not-yet-released part of a list schedule in progress.
struct Waiting<'t, 'k> {
    table: &'t DepTable<'k>,
    /// Dependencies of each node not yet settled.
    pending: Vec<usize>,
    /// While a node waits: the latest value time and release cycle among
    /// its settled dependencies. Once it settles: its own.
    value_at: Vec<u64>,
    release_at: Vec<u64>,
    value_ready: Vec<Option<u64>>,
    /// Issuing nodes with every operand settled, by release cycle.
    released: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Settled nodes whose users are still to be told (scratch).
    settled: Vec<usize>,
}

impl<'t, 'k> Waiting<'t, 'k> {
    /// Everything that waits on no op is settled at cycle 0.
    fn new(table: &'t DepTable<'k>) -> Self {
        let n = table.kernel.nodes.len();
        let mut wait = Self {
            table,
            pending: (0..n).map(|i| table.deps(i).len()).collect(),
            value_at: vec![0; n],
            release_at: vec![0; n],
            value_ready: vec![None; n],
            released: BinaryHeap::new(),
            settled: Vec::new(),
        };
        for i in 0..n {
            if table.live[i] && table.deps(i).is_empty() {
                if table.kernel.nodes[i].issues() {
                    wait.released.push(Reverse((0, i as NodeId)));
                } else {
                    wait.settle(i, 0, 0);
                }
            }
        }
        wait
    }

    /// Node `node` has its value at cycle `value`, and its users may
    /// issue from cycle `release` on.
    fn settle(&mut self, node: usize, value: u64, release: u64) {
        self.value_at[node] = value;
        self.release_at[node] = release;
        self.value_ready[node] = Some(value);
        self.settled.push(node);
        while let Some(d) = self.settled.pop() {
            let (value, release) = (self.value_at[d], self.release_at[d]);
            for &u in self.table.users(d) {
                let u = u as usize;
                if !self.table.live[u] {
                    continue;
                }
                self.value_at[u] = self.value_at[u].max(value);
                self.release_at[u] = self.release_at[u].max(release);
                self.pending[u] -= 1;
                if self.pending[u] > 0 {
                    continue;
                }
                if self.table.kernel.nodes[u].issues() {
                    self.released
                        .push(Reverse((self.release_at[u], u as NodeId)));
                } else {
                    self.value_ready[u] = Some(self.value_at[u]);
                    self.settled.push(u);
                }
            }
        }
    }
}

/// List-schedule the kernel onto `num_slots` FPU slots (see
/// [`DepTable::list_schedule`]).
///
/// Panics if the kernel still contains iterative ops (run
/// [`crate::lower::lower_kernel`] first).
pub fn list_schedule(kernel: &Kernel, costs: &OpCosts, num_slots: usize) -> Schedule {
    DepTable::new(kernel, costs).list_schedule(num_slots)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::StreamMode;
    use crate::lower::lower_kernel;

    fn chain_kernel(len: usize) -> Kernel {
        // x -> +1 -> +1 -> ... serial chain (no ILP).
        let mut b = KernelBuilder::new("chain");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let one = b.constant(1.0);
        let mut v = b.read(s, 0);
        for _ in 0..len {
            v = b.add(v, one);
        }
        b.write(o, &[v]);
        b.build()
    }

    fn wide_kernel(width: usize) -> Kernel {
        // independent multiplies, all ILP.
        let mut b = KernelBuilder::new("wide");
        let s = b.input("x", width as u32, StreamMode::EveryIteration);
        let o = b.output("y", width as u32);
        let vals: Vec<_> = (0..width)
            .map(|i| {
                let x = b.read(s, i as u32);
                b.mul(x, x)
            })
            .collect();
        b.write(o, &vals);
        b.build()
    }

    #[test]
    fn serial_chain_is_latency_bound() {
        let costs = OpCosts::default();
        let k = lower_kernel(&chain_kernel(5), &costs);
        let s = list_schedule(&k, &costs, 4);
        // 5 serial adds with latency 4: completion at 5*4 = 20.
        assert_eq!(s.length, 5 * costs.madd_latency);
        assert_eq!(s.issued_ops(), 5);
    }

    #[test]
    fn wide_kernel_is_throughput_bound() {
        let costs = OpCosts::default();
        let k = lower_kernel(&wide_kernel(16), &costs);
        let s = list_schedule(&k, &costs, 4);
        // 16 independent muls on 4 slots: 4 issue cycles, last result at
        // 3 + latency.
        assert_eq!(s.issue_span(), 4);
        assert_eq!(s.length, 3 + costs.madd_latency);
        assert!((s.occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dependencies_respected() {
        let costs = OpCosts::default();
        let k = lower_kernel(&chain_kernel(8), &costs);
        let s = list_schedule(&k, &costs, 4);
        for (i, node) in k.nodes.iter().enumerate() {
            if let Some(t) = s.issue_cycle[i] {
                for d in node.deps() {
                    let r = s.value_ready[d as usize].expect("dep resolved");
                    assert!(r <= t, "node {i} issued at {t} before dep {d} ready at {r}");
                }
            }
        }
    }

    #[test]
    fn dead_nodes_not_scheduled() {
        let mut b = KernelBuilder::new("dead");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let _dead = b.mul(x, x); // never written
        let live = b.add(x, x);
        b.write(o, &[live]);
        let k = b.build();
        let costs = OpCosts::default();
        let sch = list_schedule(&lower_kernel(&k, &costs), &costs, 4);
        assert_eq!(sch.issued_ops(), 1);
    }

    #[test]
    #[should_panic(expected = "lowered")]
    fn unlowered_kernel_rejected() {
        let mut b = KernelBuilder::new("bad");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x = b.read(s, 0);
        let r = b.rsqrt(x);
        b.write(o, &[r]);
        let k = b.build();
        list_schedule(&k, &OpCosts::default(), 4);
    }

    /// A serial chain of `len` register moves.
    pub(crate) fn mov_chain(len: usize) -> Kernel {
        let mut b = KernelBuilder::new("mov-chain");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let mut v = b.read(s, 0);
        for _ in 0..len {
            v = b.mov(v);
        }
        b.write(o, &[v]);
        b.build()
    }

    #[test]
    fn a_class_slower_than_madd_schedules() {
        // The scan loop bounded its cycles by (ops + 1)·(madd_latency + 2)
        // + 64 = 670 here and panicked "failed to converge" at the 34th
        // mov: any `OpCosts` is a valid input.
        let costs = OpCosts {
            simple_latency: 20,
            ..OpCosts::default()
        };
        let s = list_schedule(&mov_chain(100), &costs, 4);
        assert_eq!(s.issued_ops(), 100);
        assert_eq!(s.issue_span(), 99 * 20 + 1);
        assert_eq!(s.length, 100 * 20);
        assert!((s.issue_rate() - 100.0 / 1981.0).abs() < 1e-12);
    }

    #[test]
    fn issue_rate_of_dense_schedule_is_one() {
        let costs = OpCosts::default();
        let k = lower_kernel(&wide_kernel(8), &costs);
        let s = list_schedule(&k, &costs, 4);
        assert!((s.issue_rate() - 1.0).abs() < 1e-12);
    }
}
