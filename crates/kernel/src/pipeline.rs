//! Modulo software pipelining.
//!
//! The optimized half of Figure 10: the loop body is scheduled into an
//! initiation interval (II) so a new iteration starts every II cycles,
//! overlapping the latency shadows of earlier iterations. We implement a
//! simplified iterative modulo scheduler:
//!
//! 1. MII = max(resource MII, recurrence MII);
//! 2. schedule nodes in priority (critical-path) order with a modulo
//!    resource table;
//! 3. verify loop-carried recurrences fit within II; otherwise retry with
//!    II + 1.

use merrimac_arch::OpCosts;

use crate::ir::{Kernel, NodeId};
use crate::schedule::{live_ops, live_set, DepTable, Schedule};

/// A modulo-scheduled loop.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinedSchedule {
    /// Initiation interval in cycles.
    pub ii: u64,
    /// Flat issue time of each node within one iteration's schedule
    /// (the modulo row is `time % ii`).
    pub issue_time: Vec<Option<u64>>,
    /// Value-availability time per node.
    pub value_ready: Vec<Option<u64>>,
    /// Modulo reservation table: `rows[time % ii][slot]`.
    pub rows: Vec<Vec<Option<NodeId>>>,
    pub num_slots: usize,
    /// Depth of one iteration's schedule (prologue length).
    pub depth: u64,
}

impl PipelinedSchedule {
    /// Number of pipeline stages.
    pub fn stages(&self) -> u64 {
        self.depth.div_ceil(self.ii)
    }

    /// Ops issued per iteration.
    pub fn issued_ops(&self) -> usize {
        self.issue_time.iter().flatten().count()
    }

    /// Steady-state slot occupancy.
    pub fn occupancy(&self) -> f64 {
        self.issued_ops() as f64 / (self.ii as usize * self.num_slots) as f64
    }

    /// Fraction of steady-state cycles issuing at least one op.
    pub fn issue_rate(&self) -> f64 {
        let busy = self
            .rows
            .iter()
            .filter(|r| r.iter().any(|s| s.is_some()))
            .count();
        busy as f64 / self.ii as f64
    }

    /// Total cycles for `n` iterations including pipeline fill/drain.
    pub fn cycles_for(&self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            (n - 1) * self.ii + self.depth
        }
    }
}

fn res_mii_of(ops: usize, num_slots: usize) -> u64 {
    (ops as u64).div_ceil(num_slots as u64).max(1)
}

/// Resource-constrained minimum II.
pub fn res_mii(kernel: &Kernel, num_slots: usize) -> u64 {
    res_mii_of(live_ops(kernel, &live_set(kernel)), num_slots)
}

/// Recurrence-constrained minimum II: for every loop-carried register,
/// the latency of the path from its `ReadReg` to its update value must
/// fit in one II (dependence distance 1).
pub fn rec_mii(kernel: &Kernel, costs: &OpCosts) -> u64 {
    DepTable::new(kernel, costs).rec_mii()
}

/// Modulo-schedule `kernel` onto `num_slots` slots. Panics on unlowered
/// kernels; always succeeds (II grows until the schedule fits).
pub fn modulo_schedule(kernel: &Kernel, costs: &OpCosts, num_slots: usize) -> PipelinedSchedule {
    let table = DepTable::new(kernel, costs);
    table.modulo_schedule(&table.list_schedule(num_slots))
}

impl DepTable<'_> {
    /// See [`rec_mii`]. Only the nodes a register's reads reach through
    /// `users` lie on its recurrence: each register visits those in SSA
    /// order, `dist[i]` the longest path from a read to node `i`'s value.
    fn rec_mii(&self) -> u64 {
        let mut dist = vec![0u64; self.kernel.nodes.len()];
        // `reached[i] == k`: node `i` is reached from the k-th update's reads.
        let mut reached = vec![usize::MAX; self.kernel.nodes.len()];
        let mut best = 1u64;
        for (k, (reg, update)) in self.kernel.reg_updates.iter().enumerate() {
            let mut order = self.reg_reads(*reg).to_vec();
            let mut next = 0;
            while let Some(&i) = order.get(next) {
                next += 1;
                reached[i as usize] = k; // a read is no node's user
                for &u in self.users(i as usize) {
                    if reached[u as usize] != k {
                        reached[u as usize] = k;
                        order.push(u);
                    }
                }
            }
            order.sort_unstable();
            for &i in &order {
                let i = i as usize;
                // A register read has no dependencies: its path starts at 0.
                dist[i] = self
                    .deps(i)
                    .iter()
                    .filter(|&&d| reached[d as usize] == k)
                    .map(|&d| dist[d as usize])
                    .max()
                    .map_or(0, |base| base + self.latency[i]);
            }
            if reached.get(*update as usize) == Some(&k) {
                best = best.max(dist[*update as usize]);
            }
        }
        best
    }

    /// Modulo-schedule the kernel given its serial schedule
    /// ([`DepTable::list_schedule`] of this table), onto the same slots.
    pub fn modulo_schedule(&self, serial: &Schedule) -> PipelinedSchedule {
        let num_slots = serial.num_slots;
        let mut ii = res_mii_of(self.ops, num_slots).max(self.rec_mii());
        // Pipelining can never be useful past the serial schedule length; if
        // the simple placement heuristic cannot fit a smaller II (pathological
        // recurrence shapes), degrade gracefully to the serial schedule
        // expressed as a modulo schedule with II = serial length.
        while ii < serial.length {
            if let Some(s) = self.try_schedule(num_slots, ii, serial.length) {
                return s;
            }
            ii += 1;
        }
        from_serial(serial)
    }

    fn try_schedule(
        &self,
        num_slots: usize,
        ii: u64,
        depth_target: u64,
    ) -> Option<PipelinedSchedule> {
        if self.ops > ii as usize * num_slots {
            return None; // some node would find every row full
        }
        let nodes = &self.kernel.nodes;
        let n = nodes.len();

        // Nodes are placed in SSA (topological) order so dependencies are
        // resolved first. Placement is ALAP-biased: a node starts its slot
        // search at `depth_target − height`, i.e. as late as its remaining
        // critical path allows. Critical-path nodes therefore place ASAP,
        // while shallow side chains — in particular the consumers of
        // loop-carried registers (conditional-write guards, accumulator
        // select/add chains) — drift to the end of the schedule, which keeps
        // the cross-iteration recurrence margin `ready(update) ≤ t_use + II`
        // satisfiable at the resource-bound II.
        let mut issue_time: Vec<Option<u64>> = vec![None; n];
        let mut value_ready: Vec<Option<u64>> = vec![None; n];
        let mut rows: Vec<Vec<Option<NodeId>>> = vec![vec![None; num_slots]; ii as usize];
        let mut used: Vec<usize> = vec![0; ii as usize];
        // The rows as a union-find (Rau's iterative modulo scheduling): a row
        // with a free slot is a root; a full row points at a later one.
        let mut next_free: Vec<u32> = (0..ii as u32).collect();

        for i in 0..n {
            if !self.live[i] {
                continue;
            }
            // Deps are earlier in SSA order, already resolved.
            let earliest = self
                .deps(i)
                .iter()
                .map(|&d| value_ready[d as usize].unwrap_or(0))
                .max()
                .unwrap_or(0);
            if !nodes[i].issues() {
                value_ready[i] = Some(earliest);
                continue;
            }
            let alap_start = depth_target.saturating_sub(self.height[i]);
            let earliest = earliest.max(alap_start);
            // The first cycle >= earliest with a free modulo slot. Slots
            // of a row fill left to right.
            let start = earliest % ii;
            let row = first_free_row(&mut next_free, start as usize);
            let t = earliest + (row as u64 + ii - start) % ii;
            rows[row][used[row]] = Some(i as NodeId);
            used[row] += 1;
            if used[row] == num_slots {
                next_free[row] = ((row as u64 + 1) % ii) as u32;
            }
            issue_time[i] = Some(t);
            value_ready[i] = Some(t + self.latency[i]);
        }

        // Verify recurrences: update value of register r (iteration k) must be
        // ready by the time iteration k+1 needs it. A ReadReg consumer at
        // flat time t in iteration k+1 executes at absolute time t + II
        // relative to iteration k, so we need ready(update) <= t_use + II for
        // every use.
        for (reg, update) in &self.kernel.reg_updates {
            let Some(ready) = value_ready[*update as usize] else {
                continue;
            };
            for &i in self
                .reg_reads(*reg)
                .iter()
                .filter(|&&i| self.live[i as usize])
            {
                for &j in self.users(i as usize) {
                    let j = j as usize;
                    if !self.live[j] {
                        continue;
                    }
                    let t_use = issue_time[j].or(value_ready[j]).unwrap_or(0);
                    if ready > t_use + ii {
                        return None;
                    }
                }
            }
        }

        let depth = value_ready
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
            .max(ii);

        Some(PipelinedSchedule {
            ii,
            issue_time,
            value_ready,
            rows,
            num_slots,
            depth,
        })
    }
}

/// The first row at or after `row` with a free slot, wrapping from the
/// last row to row 0: `next_free` (see `try_schedule`) with path splitting,
/// near-constant time where a scan walks up to II rows.
fn first_free_row(next_free: &mut [u32], mut row: usize) -> usize {
    while next_free[row] as usize != row {
        let up = next_free[row] as usize;
        next_free[row] = next_free[up];
        row = up;
    }
    row
}

/// Express a serial list schedule as a (degenerate) modulo schedule with
/// II equal to the schedule length.
fn from_serial(serial: &Schedule) -> PipelinedSchedule {
    let ii = serial.length.max(1);
    let mut rows: Vec<Vec<Option<NodeId>>> = vec![vec![None; serial.num_slots]; ii as usize];
    rows[..serial.slots.len()].clone_from_slice(&serial.slots);
    PipelinedSchedule {
        ii,
        issue_time: serial.issue_cycle.clone(),
        value_ready: serial.value_ready.clone(),
        rows,
        num_slots: serial.num_slots,
        depth: serial.length,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::StreamMode;
    use crate::lower::lower_kernel;
    use crate::schedule::list_schedule;

    fn body(ops: usize) -> Kernel {
        // `ops` independent multiplies per iteration.
        let mut b = KernelBuilder::new("body");
        let s = b.input("x", ops as u32, StreamMode::EveryIteration);
        let o = b.output("y", ops as u32);
        let vals: Vec<_> = (0..ops)
            .map(|i| {
                let x = b.read(s, i as u32);
                b.mul(x, x)
            })
            .collect();
        b.write(o, &vals);
        b.build()
    }

    #[test]
    fn ii_is_resource_bound_for_parallel_body() {
        let costs = OpCosts::default();
        let k = lower_kernel(&body(13), &costs);
        let p = modulo_schedule(&k, &costs, 4);
        assert_eq!(p.ii, 4); // ceil(13/4)
        assert_eq!(p.issued_ops(), 13);
    }

    #[test]
    fn pipelining_beats_list_schedule_throughput() {
        let costs = OpCosts::default();
        // A body with both width and a latency chain.
        let mut b = KernelBuilder::new("mix");
        let s = b.input("x", 4, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let x0 = b.read(s, 0);
        let x1 = b.read(s, 1);
        let x2 = b.read(s, 2);
        let x3 = b.read(s, 3);
        let m0 = b.mul(x0, x1);
        let m1 = b.mul(x2, x3);
        let a = b.add(m0, m1);
        let c = b.mul(a, a);
        let d = b.add(c, m0);
        b.write(o, &[d]);
        let k = lower_kernel(&b.build(), &costs);
        let sch = list_schedule(&k, &costs, 4);
        let pipe = modulo_schedule(&k, &costs, 4);
        // Per-iteration cost in steady state must be strictly better than
        // the serial schedule length.
        assert!(
            pipe.ii < sch.length,
            "II {} !< length {}",
            pipe.ii,
            sch.length
        );
    }

    #[test]
    fn recurrence_limits_ii() {
        let costs = OpCosts::default();
        // acc = acc * x + 1: recurrence through a madd (latency 4).
        let mut b = KernelBuilder::new("rec");
        let s = b.input("x", 1, StreamMode::EveryIteration);
        let o = b.output("y", 1);
        let r = b.reg(0.0);
        let acc = b.read_reg(r);
        let x = b.read(s, 0);
        let one = b.constant(1.0);
        let upd = b.madd(acc, x, one);
        b.set_reg(r, upd);
        b.write(o, &[upd]);
        let k = lower_kernel(&b.build(), &costs);
        assert_eq!(rec_mii(&k, &costs), costs.madd_latency);
        let p = modulo_schedule(&k, &costs, 4);
        assert!(p.ii >= costs.madd_latency);
    }

    #[test]
    fn cycles_for_accounts_fill_and_drain() {
        let costs = OpCosts::default();
        let k = lower_kernel(&body(8), &costs);
        let p = modulo_schedule(&k, &costs, 4);
        assert_eq!(p.cycles_for(0), 0);
        assert_eq!(p.cycles_for(1), p.depth);
        assert_eq!(p.cycles_for(10), 9 * p.ii + p.depth);
    }

    #[test]
    fn modulo_rows_have_no_conflicts() {
        let costs = OpCosts::default();
        let k = lower_kernel(&body(10), &costs);
        let p = modulo_schedule(&k, &costs, 4);
        // Each row holds at most num_slots ops and every issued op appears
        // exactly once.
        let mut seen = std::collections::HashSet::new();
        for row in &p.rows {
            assert!(row.len() == 4);
            for op in row.iter().flatten() {
                assert!(seen.insert(*op));
            }
        }
        assert_eq!(seen.len(), p.issued_ops());
    }

    #[test]
    fn a_class_slower_than_madd_pipelines() {
        // `modulo_schedule` used to die in the serial schedule it starts
        // from (see `schedule::tests::a_class_slower_than_madd_schedules`).
        let costs = OpCosts {
            simple_latency: 20,
            ..OpCosts::default()
        };
        let k = crate::schedule::tests::mov_chain(100);
        let p = modulo_schedule(&k, &costs, 4);
        assert_eq!(p.ii, 25, "no recurrence: 100 ops on 4 slots");
        assert_eq!(p.issued_ops(), 100);
        assert!(p.depth >= 100 * 20, "the chain is serial");
        crate::validate::validate_pipelined(&k, &p, &costs).expect("valid");
    }

    /// Row `row` has lost its last free slot: point it at the next row.
    fn fill(next_free: &mut [u32], row: usize) {
        next_free[row] = ((row + 1) % next_free.len()) as u32;
    }

    #[test]
    fn a_search_from_the_last_row_wraps_to_row_0_as_the_scan_did() {
        let (ii, earliest) = (4u64, 7u64);
        let start = earliest % ii;
        assert_eq!(start, 3, "the search starts at the last row");
        let mut next_free = vec![0, 1, 2, 3];
        fill(&mut next_free, 3);
        let row = first_free_row(&mut next_free, start as usize);
        let t = earliest + (row as u64 + ii - start) % ii;
        let want = (earliest..earliest + ii).find(|t| t % ii != 3);
        assert_eq!((row, Some(t)), (0, want));
    }

    #[test]
    fn first_free_row_is_the_row_the_scan_finds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(30);
        for ii in 1..12 {
            let mut next_free: Vec<u32> = (0..ii as u32).collect();
            let mut full = vec![false; ii];
            for _ in 0..ii {
                for start in 0..ii {
                    let scan = (start..start + ii).map(|r| r % ii).find(|&r| !full[r]);
                    assert_eq!(Some(first_free_row(&mut next_free, start)), scan);
                }
                let row = first_free_row(&mut next_free, rng.gen_range(0..ii));
                full[row] = true;
                fill(&mut next_free, row);
            }
        }
    }

    #[test]
    fn with_every_row_full_placement_fails_and_ii_grows() {
        let costs = OpCosts::default();
        let k = lower_kernel(&body(13), &costs);
        let table = DepTable::new(&k, &costs);
        let serial = table.list_schedule(4);
        // 13 ops on 4 slots fill all 12 slot-cycles of II 3.
        assert!(table.try_schedule(4, 3, serial.length).is_none());
        assert!(table.try_schedule(4, 4, serial.length).is_some());
        assert_eq!(table.modulo_schedule(&serial).ii, 4);
    }

    #[test]
    #[should_panic(expected = "at most 3 operands")]
    fn a_fourth_operand_panics_naming_the_arity() {
        let _: crate::ir::Args = [0, 1, 2, 3].into_iter().collect();
    }

    #[test]
    fn res_mii_matches_op_count() {
        let k = body(9);
        let costs = OpCosts::default();
        let k = lower_kernel(&k, &costs);
        assert_eq!(res_mii(&k, 4), 3);
        assert_eq!(res_mii(&k, 1), 9);
    }
}
