//! Differential test of the event-driven list scheduler and the
//! table-driven pipeliner against the scan-loop implementations they
//! replaced (PR 14), kept here verbatim as the reference.
//!
//! The reference lives in this test target rather than in
//! `merrimac-kernel` because the sweep needs StreamMD's real kernels,
//! which the kernel crate cannot depend on.

use merrimac_arch::OpCosts;
use merrimac_kernel::ir::{Kernel, Node, NodeId, OpKind, StreamMode, StreamSig, WriteSpec};
use merrimac_kernel::lower::lower_kernel;
use merrimac_kernel::pipeline::{rec_mii, res_mii};
use merrimac_kernel::unroll::unroll;
use merrimac_kernel::{list_schedule, modulo_schedule, KernelBuilder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use streammd::kernels::workload_kernel;
use streammd::{Variant, Workload};

/// `schedule.rs` and `pipeline.rs` as of the parent of PR 14: an
/// O(cycles × nodes) scan per schedule, a second serial schedule inside
/// `modulo_schedule`, an O(ReadReg × n) user search per II tried.
mod reference {
    use merrimac_arch::OpCosts;
    use merrimac_kernel::ir::{Kernel, Node, NodeId};
    use merrimac_kernel::{PipelinedSchedule, Schedule};

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

    fn latency_of(node: &Node, costs: &OpCosts) -> u64 {
        node.fpu_class().map_or(0, |c| costs.latency(c))
    }

    /// Longest-latency path from each node to any live root (the classic list
    /// scheduling priority).
    pub fn heights(kernel: &Kernel, costs: &OpCosts, live: &[bool]) -> Vec<u64> {
        let n = kernel.nodes.len();
        let mut height = vec![0u64; n];
        // users: reverse edges.
        let mut users: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, node) in kernel.nodes.iter().enumerate() {
            for d in node.deps() {
                users[d as usize].push(i as NodeId);
            }
        }
        for i in (0..n).rev() {
            if !live[i] {
                continue;
            }
            let max_user = users[i]
                .iter()
                .map(|&u| height[u as usize])
                .max()
                .unwrap_or(0);
            height[i] = latency_of(&kernel.nodes[i], costs) + max_user;
        }
        height
    }

    /// List-schedule the kernel onto `num_slots` FPU slots.
    ///
    /// Panics if the kernel still contains iterative ops (run
    /// [`merrimac_kernel::lower::lower_kernel`] first).
    pub fn list_schedule(kernel: &Kernel, costs: &OpCosts, num_slots: usize) -> Schedule {
        assert!(
            kernel.is_lowered(),
            "kernel {} must be lowered before scheduling",
            kernel.name
        );
        assert!(num_slots > 0);
        let n = kernel.nodes.len();
        let live = live_set(kernel);
        let height = heights(kernel, costs, &live);

        let mut value_ready: Vec<Option<u64>> = vec![None; n];
        let mut issue_cycle: Vec<Option<u64>> = vec![None; n];
        // Seed non-issuing nodes whose deps are all non-issuing (transitively):
        // resolved lazily below.
        let mut slots: Vec<Vec<Option<NodeId>>> = Vec::new();

        // Resolve value_ready for non-issuing nodes whose deps are known.
        fn try_resolve(kernel: &Kernel, i: usize, value_ready: &mut [Option<u64>]) -> Option<u64> {
            if let Some(v) = value_ready[i] {
                return Some(v);
            }
            let node = &kernel.nodes[i];
            if node.issues() {
                return None; // set when scheduled
            }
            let mut ready = 0u64;
            for d in node.deps() {
                match value_ready[d as usize] {
                    Some(r) => ready = ready.max(r),
                    None => return None,
                }
            }
            value_ready[i] = Some(ready);
            Some(ready)
        }

        // Initial pass: resolve pure chains of non-issuing nodes.
        for (i, &alive) in live.iter().enumerate() {
            if alive {
                try_resolve(kernel, i, &mut value_ready);
            }
        }

        let total_to_schedule = (0..n)
            .filter(|&i| live[i] && kernel.nodes[i].issues())
            .count();
        let mut scheduled = 0usize;
        let mut t: u64 = 0;
        // Safety bound: every op takes at most latency+1 cycles serialized.
        let bound = (total_to_schedule as u64 + 1) * (costs.madd_latency + 2) + 64;

        while scheduled < total_to_schedule {
            assert!(
                t < bound,
                "list scheduler failed to converge for {}",
                kernel.name
            );
            // Gather ready nodes at cycle t.
            let mut ready: Vec<(u64, NodeId)> = Vec::new();
            for i in 0..n {
                if !live[i] || issue_cycle[i].is_some() || !kernel.nodes[i].issues() {
                    continue;
                }
                let mut ok = true;
                let mut earliest = 0u64;
                for d in kernel.nodes[i].deps() {
                    match try_resolve(kernel, d as usize, &mut value_ready) {
                        Some(r) => earliest = earliest.max(r),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && earliest <= t {
                    ready.push((height[i], i as NodeId));
                }
            }
            // Highest priority first; stable tiebreak on node id for
            // determinism.
            ready.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

            let mut row = vec![None; num_slots];
            for (slot, &(_, node)) in ready.iter().take(num_slots).enumerate() {
                row[slot] = Some(node);
                issue_cycle[node as usize] = Some(t);
                let lat = latency_of(&kernel.nodes[node as usize], costs);
                value_ready[node as usize] = Some(t + lat);
                scheduled += 1;
            }
            slots.push(row);
            t += 1;
        }

        // Trim trailing empty rows (can appear if the last ready set was
        // empty while waiting on latencies — they still represent stall
        // cycles, so only rows after the final issue are trimmed).
        while slots
            .last()
            .is_some_and(|row| row.iter().all(|s| s.is_none()))
        {
            slots.pop();
        }

        // Final resolution of all live non-issuing nodes.
        for (i, &alive) in live.iter().enumerate() {
            if alive {
                try_resolve(kernel, i, &mut value_ready);
            }
        }
        let length = (0..n)
            .filter(|&i| live[i])
            .filter_map(|i| value_ready[i])
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

    /// Resource-constrained minimum II.
    pub fn res_mii(kernel: &Kernel, num_slots: usize) -> u64 {
        let live = live_set(kernel);
        let ops = kernel
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| live[*i] && n.issues())
            .count() as u64;
        ops.div_ceil(num_slots as u64).max(1)
    }

    /// Recurrence-constrained minimum II: for every loop-carried register,
    /// the latency of the path from its `ReadReg` to its update value must
    /// fit in one II (dependence distance 1).
    pub fn rec_mii(kernel: &Kernel, costs: &OpCosts) -> u64 {
        // Longest path from each ReadReg(r) node to the update node of r.
        // Computed by DP over SSA order: dist[n] = max latency path from any
        // ReadReg of interest to n's *value availability*.
        let n = kernel.nodes.len();
        let mut best = 1u64;
        for (reg, update) in &kernel.reg_updates {
            let mut dist: Vec<Option<u64>> = vec![None; n];
            for (i, node) in kernel.nodes.iter().enumerate() {
                if matches!(node, Node::ReadReg(r) if r == reg) {
                    dist[i] = Some(0);
                } else {
                    let mut d = None;
                    for dep in node.deps() {
                        if let Some(x) = dist[dep as usize] {
                            d = Some(d.unwrap_or(0).max(x));
                        }
                    }
                    if let Some(base) = d {
                        dist[i] = Some(base + latency_of(node, costs));
                    }
                }
            }
            if let Some(Some(d)) = dist.get(*update as usize) {
                best = best.max(*d);
            }
        }
        best
    }

    /// Modulo-schedule `kernel` onto `num_slots` slots. Panics on unlowered
    /// kernels; always succeeds (II grows until the schedule fits).
    pub fn modulo_schedule(
        kernel: &Kernel,
        costs: &OpCosts,
        num_slots: usize,
    ) -> PipelinedSchedule {
        assert!(
            kernel.is_lowered(),
            "kernel {} must be lowered before pipelining",
            kernel.name
        );
        let serial = list_schedule(kernel, costs, num_slots);
        let mii = res_mii(kernel, num_slots).max(rec_mii(kernel, costs));
        let mut ii = mii;
        // Pipelining can never be useful past the serial schedule length; if
        // the simple placement heuristic cannot fit a smaller II (pathological
        // recurrence shapes), degrade gracefully to the serial schedule
        // expressed as a modulo schedule with II = serial length.
        while ii < serial.length {
            if let Some(s) = try_schedule(kernel, costs, num_slots, ii, serial.length) {
                return s;
            }
            ii += 1;
        }
        from_serial(kernel, &serial)
    }

    /// Express a serial list schedule as a (degenerate) modulo schedule with
    /// II equal to the schedule length.
    fn from_serial(kernel: &Kernel, serial: &Schedule) -> PipelinedSchedule {
        let ii = serial.length.max(1);
        let mut rows: Vec<Vec<Option<NodeId>>> = vec![vec![None; serial.num_slots]; ii as usize];
        for (t, row) in serial.slots.iter().enumerate() {
            for (s, op) in row.iter().enumerate() {
                rows[t][s] = *op;
            }
        }
        let _ = kernel;
        PipelinedSchedule {
            ii,
            issue_time: serial.issue_cycle.clone(),
            value_ready: serial.value_ready.clone(),
            rows,
            num_slots: serial.num_slots,
            depth: serial.length,
        }
    }

    fn try_schedule(
        kernel: &Kernel,
        costs: &OpCosts,
        num_slots: usize,
        ii: u64,
        depth_target: u64,
    ) -> Option<PipelinedSchedule> {
        let n = kernel.nodes.len();
        let live = live_set(kernel);
        let height = heights(kernel, costs, &live);

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

        for i in 0..n {
            if !live[i] {
                continue;
            }
            let node = &kernel.nodes[i];
            let mut earliest = 0u64;
            for d in node.deps() {
                // Deps are earlier in SSA order, already resolved.
                earliest = earliest.max(value_ready[d as usize].unwrap_or(0));
            }
            if !node.issues() {
                value_ready[i] = Some(earliest);
                continue;
            }
            let alap_start = depth_target.saturating_sub(height[i]);
            let earliest = earliest.max(alap_start);
            // Find the first cycle >= earliest with a free modulo slot,
            // searching at most II consecutive cycles (after that the pattern
            // repeats and the row set is full).
            let mut placed = false;
            for t in earliest..earliest + ii {
                let row = (t % ii) as usize;
                if used[row] < num_slots {
                    let slot = rows[row].iter().position(|s| s.is_none()).unwrap();
                    rows[row][slot] = Some(i as NodeId);
                    used[row] += 1;
                    issue_time[i] = Some(t);
                    value_ready[i] = Some(t + latency_of(node, costs));
                    placed = true;
                    break;
                }
            }
            if !placed {
                return None;
            }
        }

        // Verify recurrences: update value of register r (iteration k) must be
        // ready by the time iteration k+1 needs it. A ReadReg consumer at
        // flat time t in iteration k+1 executes at absolute time t + II
        // relative to iteration k, so we need ready(update) <= t_use + II for
        // every use.
        for (reg, update) in &kernel.reg_updates {
            let ready = match value_ready[*update as usize] {
                Some(r) => r,
                None => continue,
            };
            for (i, node) in kernel.nodes.iter().enumerate() {
                if !live[i] || !matches!(node, Node::ReadReg(r) if r == reg) {
                    continue;
                }
                // Consumers of this ReadReg node.
                for (j, user) in kernel.nodes.iter().enumerate() {
                    if !live[j] || !user.deps().contains(&(i as NodeId)) {
                        continue;
                    }
                    let t_use = issue_time[j].or(value_ready[j]).unwrap_or(0);
                    if ready > t_use + ii {
                        return None;
                    }
                }
            }
        }

        let depth = (0..n)
            .filter(|&i| live[i])
            .filter_map(|i| value_ready[i])
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

fn assert_same(kernel: &Kernel, costs: &OpCosts, slots: usize, what: &str) {
    let serial = list_schedule(kernel, costs, slots);
    assert!(
        serial == reference::list_schedule(kernel, costs, slots),
        "{what}: list schedules differ"
    );
    let pipelined = modulo_schedule(kernel, costs, slots);
    assert!(
        pipelined == reference::modulo_schedule(kernel, costs, slots),
        "{what}: modulo schedules differ"
    );
}

/// One variant's share of the sweep: 3 workloads × L ∈ {1, 4, 8, 16} ×
/// unroll ∈ {1, 2} × slots ∈ {1, 2, 4} = 72 combinations, 288 over the
/// four variants (a test each, so they run side by side). `expanded`
/// and `variable` ignore L, so their kernels repeat; a kernel already
/// compared is not compared again.
fn sweep(variant: Variant) {
    let costs = OpCosts::default();
    let mut combinations = 0;
    for workload in Workload::ALL {
        let mut seen: Vec<Kernel> = Vec::new();
        for block_l in [1, 4, 8, 16] {
            for factor in [1, 2] {
                let source = workload_kernel(workload, variant, block_l);
                let lowered = lower_kernel(&unroll(&source, factor), &costs);
                combinations += 3;
                if seen.contains(&lowered) {
                    continue;
                }
                for slots in [1, 2, 4] {
                    let what = format!(
                        "{}/{variant} L={block_l} unroll={factor} slots={slots}",
                        workload.name()
                    );
                    assert_same(&lowered, &costs, slots, &what);
                }
                seen.push(lowered);
            }
        }
    }
    assert_eq!(combinations, 72);
}

#[test]
fn expanded_kernels_schedule_as_the_scan_loop_did() {
    sweep(Variant::Expanded);
}

#[test]
fn fixed_kernels_schedule_as_the_scan_loop_did() {
    sweep(Variant::Fixed);
}

#[test]
fn duplicated_kernels_schedule_as_the_scan_loop_did() {
    sweep(Variant::Duplicated);
}

#[test]
fn variable_kernels_schedule_as_the_scan_loop_did() {
    sweep(Variant::Variable);
}

/// Non-iterative op kinds by arity, across every latency class a lowered
/// kernel can hold (MADD-class, simple, seed).
const UNARY: [OpKind; 4] = [
    OpKind::Mov,
    OpKind::Not,
    OpKind::SeedRecip,
    OpKind::SeedRsqrt,
];
const BINARY: [OpKind; 8] = [
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::CmpLt,
    OpKind::CmpEq,
    OpKind::And,
    OpKind::Min,
    OpKind::Max,
];
const TERNARY: [OpKind; 3] = [OpKind::Madd, OpKind::Nmsub, OpKind::Sel];

/// A random lowered kernel: leaves of every kind, ops of arity 1–3 over
/// any earlier nodes (repeated arguments included), conditional-stream
/// reads, loop-carried registers, and roots chosen so part of the graph
/// is dead.
///
/// One shape is left out. The scan loop resolved a non-issuing node only
/// when an issuing user visited it, one level per visit, so a `CondRead`
/// fed by another `CondRead` that itself waits on an op was released by
/// an accident of node order — or never, see
/// [`cond_read_chain_behind_an_op_defeated_the_scan_loop`]. The generator
/// feeds a `CondRead` only from ops, leaves and op-free `CondRead`s.
fn random_lowered_kernel(seed: u64, size: usize) -> Kernel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let regs = rng.gen_range(1..4u32);
    let mut nodes = vec![
        Node::Const(1.5),
        Node::Param(0),
        Node::Read {
            stream: 0,
            field: 0,
        },
        Node::Read {
            stream: 0,
            field: 1,
        },
    ];
    nodes.extend((0..regs).map(Node::ReadReg));
    // Whether a node may feed a `CondRead` (see above).
    let mut feeds_cond_read = vec![true; nodes.len()];
    for _ in 0..size {
        let n = nodes.len() as NodeId;
        let pick = |rng: &mut ChaCha8Rng| rng.gen_range(0..n);
        let node = if rng.gen_range(0..8) == 0 {
            let dep = |rng: &mut ChaCha8Rng| loop {
                let d = pick(rng);
                if feeds_cond_read[d as usize] {
                    break d;
                }
            };
            Node::CondRead {
                stream: 1,
                field: rng.gen_range(0..2),
                pred: dep(&mut rng),
                fallback: dep(&mut rng),
            }
        } else {
            let (op, arity) = match rng.gen_range(0..3) {
                0 => (UNARY[rng.gen_range(0..UNARY.len())], 1),
                1 => (BINARY[rng.gen_range(0..BINARY.len())], 2),
                _ => (TERNARY[rng.gen_range(0..TERNARY.len())], 3),
            };
            Node::Op {
                op,
                args: (0..arity).map(|_| pick(&mut rng)).collect(),
            }
        };
        feeds_cond_read.push(match &node {
            Node::CondRead { pred, fallback, .. } => [*pred, *fallback]
                .iter()
                .all(|&d| !nodes[d as usize].issues()),
            _ => true,
        });
        nodes.push(node);
    }
    let n = nodes.len() as NodeId;
    let stream = |name: &str, mode| StreamSig {
        name: name.into(),
        record_len: 2,
        mode,
    };
    let kernel = Kernel {
        name: format!("random-{seed}"),
        inputs: vec![
            stream("every", StreamMode::EveryIteration),
            stream("cond", StreamMode::Conditional),
        ],
        outputs: vec![stream("out", StreamMode::EveryIteration)],
        reg_init: vec![0.0; regs as usize],
        num_params: 1,
        reg_updates: (0..regs).map(|r| (r, rng.gen_range(0..n))).collect(),
        writes: vec![WriteSpec {
            stream: 0,
            values: vec![rng.gen_range(0..n), rng.gen_range(0..n)],
            cond: (rng.gen_range(0..2) == 0).then(|| rng.gen_range(0..n)),
        }],
        nodes,
    };
    kernel.validate_ssa();
    kernel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn prop_random_dags_schedule_as_the_scan_loop_did(
        seed in 0u64..1_000_000,
        size in 1usize..120,
        slots in 1usize..5,
        madd_latency in 1u64..7,
        simple_latency in 0u64..4,
        seed_latency in 1u64..4,
        cond_latency in 1u64..3,
    ) {
        // The scan loop's convergence bound assumes no class is slower
        // than MADD + 2 (the panic the event-driven loop cannot have).
        let costs = OpCosts {
            madd_latency,
            simple_latency: simple_latency.min(madd_latency + 1),
            seed_latency: seed_latency.min(madd_latency + 1),
            cond_latency,
            ..OpCosts::default()
        };
        let kernel = random_lowered_kernel(seed, size);
        prop_assert_eq!(rec_mii(&kernel, &costs), reference::rec_mii(&kernel, &costs));
        prop_assert_eq!(res_mii(&kernel, slots), reference::res_mii(&kernel, slots));
        let serial = list_schedule(&kernel, &costs, slots);
        prop_assert!(serial == reference::list_schedule(&kernel, &costs, slots));
        let pipelined = modulo_schedule(&kernel, &costs, slots);
        prop_assert!(pipelined == reference::modulo_schedule(&kernel, &costs, slots));
    }
}

/// The next-cycle rule: a VLIW word is chosen whole, so an op issued at
/// cycle `t` releases its users no earlier than `t + 1` — at latency 1,
/// and at latency 0, where `t + latency` alone would say `t`.
#[test]
fn an_issued_op_releases_its_users_no_earlier_than_the_next_cycle() {
    let mut b = KernelBuilder::new("next-cycle");
    let s = b.input("x", 1, StreamMode::EveryIteration);
    let o = b.output("y", 1);
    let x = b.read(s, 0);
    let first = b.mov(x);
    let second = b.mov(first);
    b.write(o, &[second]);
    let kernel = b.build();
    for simple_latency in [1, 0] {
        let costs = OpCosts {
            simple_latency,
            ..OpCosts::default()
        };
        let sch = list_schedule(&kernel, &costs, 4);
        assert_eq!(sch.issue_cycle[first.0 as usize], Some(0));
        assert_eq!(sch.issue_cycle[second.0 as usize], Some(1));
        assert_eq!(sch.value_ready[second.0 as usize], Some(1 + simple_latency));
        assert_eq!(sch.issue_span(), 2, "no free slot of cycle 0 is taken");
        assert_same(&kernel, &costs, 4, "next-cycle");
    }
}

/// The shape the random generator leaves out: `outer` reads a
/// conditional stream behind `inner`, which waits on an op, and only
/// `outer` has an issuing user. No visit of the scan loop ever resolved
/// `inner`, so it spun to its bound; the event-driven scheduler settles
/// both the cycle the predicate is ready.
#[test]
fn cond_read_chain_behind_an_op_defeated_the_scan_loop() {
    let mut b = KernelBuilder::new("cond-chain");
    let ctl = b.input("ctl", 1, StreamMode::EveryIteration);
    let s = b.input("vals", 1, StreamMode::Conditional);
    let o = b.output("out", 1);
    let c = b.read(ctl, 0);
    let zero = b.constant(0.0);
    let want = b.cmp_lt(zero, c);
    let inner = b.cond_read(s, 0, want, zero);
    let outer = b.cond_read(s, 0, want, inner);
    let sum = b.add(outer, c);
    b.write(o, &[sum]);
    let kernel = b.build();
    let costs = OpCosts::default();

    let scan = std::panic::catch_unwind(|| reference::list_schedule(&kernel, &costs, 4));
    assert!(scan.is_err(), "the scan loop schedules the chain after all");

    let sch = list_schedule(&kernel, &costs, 4);
    assert_eq!(sch.issue_cycle[want.0 as usize], Some(0));
    assert_eq!(
        sch.value_ready[outer.0 as usize],
        Some(costs.simple_latency)
    );
    assert_eq!(sch.issue_cycle[sum.0 as usize], Some(costs.simple_latency));
}
