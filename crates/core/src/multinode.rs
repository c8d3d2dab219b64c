//! End-to-end simulated multi-node execution (paper Section 2.2).
//!
//! The water box is spatially decomposed over N simulated Merrimac
//! nodes ([`merrimac_net::NodeGrid`]). Every strip of the canonical
//! step program has a home, the node that owns its first centre
//! molecule, and is placed by its busiest cluster's iterations: heaviest
//! first, it stays home while the home's load stays within ⌈total ÷ N⌉,
//! and otherwise goes to the least-loaded node (`place_strips`). The
//! step is timed as three dependent phases over the folded-Clos
//! [`Topology`]:
//!
//! 1. **halo import** — each node pulls the position records (10 words:
//!    9 coordinates + index) of every remote molecule its strips
//!    reference, one message per owning peer, priced at the
//!    peer-pair's [`Topology::level`] bandwidth/latency;
//! 2. **local compute** — the node's strips are *timed*, not run: the
//!    scoreboard schedules the node's ops over the records of the one
//!    canonical execution (below);
//! 3. **force return** — accumulated partial forces for remote
//!    molecules (9 words each) return to their owners as network
//!    scatter-add messages.
//!
//! ## A strip executes once
//!
//! Merrimac's nodes run the same strips whichever node they land on,
//! and the simulator says so: a strip's functional result and the cost
//! of each of its memory ops are a function of that strip alone (a
//! private cold cache shard per strip, `merrimac_sim::parallel`,
//! determinism contract 3). So the canonical program is executed once,
//! on one clone of the step's memory image
//! ([`StreamProcessor::execute`](merrimac_sim::StreamProcessor::execute)),
//! and that execution is timed N + 1 times
//! ([`StreamProcessor::time`](merrimac_sim::StreamProcessor::time)):
//! whole, for t₁ and the forces' report, and once per node over the ops
//! of the node's strips. The contract `tests/multinode_execution.rs`
//! holds: a node's timing equals, in every simulated field, what
//! running its sub-program (its ops over the same buffer and intent
//! declarations) on a fresh clone of the memory image reports. A node's
//! ops keep their canonical strip ids in its timeline; the scoreboard's
//! prefetch window counts strips, so the gaps between them cost nothing.
//!
//! ## Deterministic cross-node reduction
//!
//! Forces are **bitwise-identical at any node count and any host
//! thread count**. The strip structure is canonical — built once from
//! the global system, independent of N — and the cross-node force
//! reduction merges per-strip scatter overlays in canonical global
//! strip order with the engine's fixed-shape pairwise tree (whose shape
//! depends only on the strip count). A hierarchical per-node merge
//! would re-associate the floating-point sums and make the result drift
//! with N; reducing in canonical order makes the strip → node
//! assignment invisible to the arithmetic, exactly like the thread
//! count already is. The node count reaches only the *timing*.

use std::collections::BTreeMap;

use md_sim::neighbor::NeighborList;
use md_sim::system::WaterBox;
use merrimac_net::multinode::{
    halo_force_words, halo_position_words, phase_cycles, MultiNodeTiming, NodeGrid, NodeLoad,
    PhaseMessage,
};
use merrimac_net::topology::{NetError, Topology};
use merrimac_sim::machine::SimError;
use merrimac_sim::program::LabelledOp;
use merrimac_sim::PhaseCycles;

use crate::app::{check_list, StepOutcome, StepProgram, StreamMdApp};
use crate::layout::Strip;
use crate::metrics::MultiNodeBreakdown;
use crate::variant::Variant;

/// One node's share of the step: its strips, their timing on the
/// node's stream processor (all zero for a node without strips), and the
/// molecules it owns.
#[derive(Debug, Clone, Default)]
pub struct NodeRun {
    pub node: usize,
    /// Canonical strip ids this node holds.
    pub strips: Vec<usize>,
    /// Molecules whose force records this node owns.
    pub owned_molecules: usize,
    /// Cycles the node's strips take on its stream processor.
    pub compute_cycles: u64,
    /// Those cycles' busy time by stream-operation class.
    pub phases: PhaseCycles,
    /// Cycles the node's memory unit idled for want of an SDR.
    pub sdr_stall_cycles: u64,
    /// Memory/compute overlap of the node's timeline (Figure 7), as
    /// [`merrimac_sim::Timeline::overlap_fraction`].
    pub overlap: f64,
}

/// Result of one simulated multi-node force step.
#[derive(Debug, Clone)]
pub struct MultiNodeOutcome {
    pub nodes: usize,
    /// The canonical step outcome. `forces` come from the canonical
    /// global reduction (bitwise N-independent); `perf` is rewritten to
    /// the multi-node step: `cycles`/`seconds` are barrier-to-barrier,
    /// `solution_gflops` is the aggregate rate, and
    /// `perf.phases.multinode` carries the breakdown.
    pub outcome: StepOutcome,
    /// Per-node three-phase timing over the topology.
    pub timing: MultiNodeTiming,
    pub per_node: Vec<NodeRun>,
    pub breakdown: MultiNodeBreakdown,
}

impl MultiNodeOutcome {
    /// Parallel efficiency vs running the whole step on one node:
    /// `t₁ / (N · t_N)` in cycles. The single-node step equals the
    /// canonical run by construction.
    pub fn efficiency(&self) -> f64 {
        self.outcome.report.cycles as f64
            / (self.nodes as f64 * self.breakdown.step_cycles.max(1) as f64)
    }
}

fn net_err(e: NetError) -> SimError {
    match e {
        NetError::NodeCountOutOfRange { nodes, total } => {
            SimError::NodesOutOfRange { nodes, total }
        }
        other => SimError::Config(other.to_string()),
    }
}

/// A strip's home node: the owner of its first real centre
/// molecule (`i_central` for the gather variants, the first real
/// `c_scatter` target for `variable`, whose centres travel embedded in
/// the strip's centre records).
fn strip_owner(s: &Strip, owner: &[usize], n_real: usize) -> usize {
    if let Some(&c) = s.i_central.iter().find(|&&c| (c as usize) < n_real) {
        return owner[c as usize];
    }
    s.c_scatter
        .iter()
        .find(|&&c| (c as usize) < n_real)
        .map(|&c| owner[c as usize])
        .unwrap_or(0)
}

/// The node that times each strip. Strips are taken heaviest first
/// (ties by strip id) by `weight`, the iterations of the strip's
/// busiest cluster, which the node's kernel time follows. A strip stays
/// on its `home` node while that node's load stays within ⌈total ÷
/// nodes⌉; each strip that does not fit then goes to the least-loaded
/// node, its home winning a tie, then the lowest node id.
fn place_strips(weight: &[u64], home: &[usize], nodes: usize) -> Vec<usize> {
    let cap = weight.iter().sum::<u64>().div_ceil(nodes as u64);
    let mut order: Vec<usize> = (0..weight.len()).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(weight[s]), s));
    let mut load = vec![0u64; nodes];
    let mut placed = home.to_vec();
    let mut rest = Vec::new();
    for s in order {
        if load[home[s]] + weight[s] <= cap {
            load[home[s]] += weight[s];
        } else {
            rest.push(s);
        }
    }
    for s in rest {
        let to = (0..nodes)
            .min_by_key(|&n| (load[n], n != home[s], n))
            .expect("at least one node");
        load[to] += weight[s];
        placed[s] = to;
    }
    placed
}

/// Run one force step decomposed over `nodes` simulated nodes. See the
/// module docs for the execution and timing model. Builds the canonical
/// step program once and delegates to [`run_multinode_program`].
pub fn run_multinode(
    app: &StreamMdApp,
    system: &WaterBox,
    list: &NeighborList,
    variant: Variant,
    nodes: usize,
) -> Result<MultiNodeOutcome, SimError> {
    check_list(system, list)?;
    let step = app.build_step_program(system, list, variant);
    if app.analyze {
        app.admit_built(&step)?;
    }
    run_multinode_program(app, system, &step, nodes)
}

/// Run one force step decomposed over `nodes` simulated nodes from an
/// already-built canonical step program — the multi-node half of the
/// compile-once / run-many split. The built [`StepProgram`] is shared
/// untouched: the one canonical execution works on a clone of its
/// memory image, so the same build serves any node count (the strip
/// structure is canonical and N-independent).
pub fn run_multinode_program(
    app: &StreamMdApp,
    system: &WaterBox,
    step: &StepProgram,
    nodes: usize,
) -> Result<MultiNodeOutcome, SimError> {
    let topo = Topology::new(app.network.clone());
    topo.worst_level(nodes).map_err(net_err)?;
    let variant = step.layout.variant;
    let w = step.layout.width;

    // The canonical execution: the N-independent strip structure and
    // the global fixed-shape reduction. This *is* the deterministic
    // cross-node force merge (module docs); timed whole it is the
    // single-node step.
    let proc = app.processor();
    let mut mem = step.memory.clone();
    let executed = proc.execute(&mut mem, &step.program)?;
    let whole = proc.time(&mem, &step.program, &executed, |_| true)?;
    let mut outcome = app.summarise_step(system, step, &mem, whole);
    let n_real = system.num_molecules();

    // Spatial decomposition: molecules → nodes by the wrapped position
    // of each record's first site (word 0..3 of the canonical record).
    let grid = NodeGrid::new(nodes, system.pbc().side()).map_err(net_err)?;
    let owner: Vec<usize> = (0..n_real)
        .map(|m| {
            grid.node_of([
                step.layout.positions[m * w],
                step.layout.positions[m * w + 1],
                step.layout.positions[m * w + 2],
            ])
        })
        .collect();
    let strips = &step.layout.strips;
    let weight: Vec<u64> = strips.iter().map(|s| s.max_cluster_iterations).collect();
    let home: Vec<usize> = strips
        .iter()
        .map(|s| strip_owner(s, &owner, n_real))
        .collect();
    let strip_node = place_strips(&weight, &home, nodes);

    let mut per_node = Vec::with_capacity(nodes);
    let mut loads = Vec::with_capacity(nodes);
    for node in 0..nodes {
        let mut run = NodeRun {
            node,
            strips: (0..strips.len())
                .filter(|&sid| strip_node[sid] == node)
                .collect(),
            owned_molecules: owner.iter().filter(|&&o| o == node).count(),
            ..NodeRun::default()
        };
        // The node's compute phase: its strips' ops over the canonical
        // records (its halo arrives by message, so its memory simply
        // has the imported positions in place). No strips, no cycles.
        if !run.strips.is_empty() {
            let keep = |op: &LabelledOp| strip_node[op.strip] == node;
            let timed = proc.time(&mem, &step.program, &executed, keep)?;
            outcome.report.host.scoreboard += timed.host.scoreboard;
            run.compute_cycles = timed.cycles;
            run.phases = timed.phases;
            run.sdr_stall_cycles = timed.sdr_stall_cycles;
            run.overlap = timed.timeline.overlap_fraction();
        }

        // Halo traffic: positions referenced but not owned come in;
        // scatter targets not owned go back out. Distinct molecules per
        // peer — the node accumulates locally and exchanges one record
        // per remote molecule, as Section 2.2's network scatter-add.
        let mut referenced = vec![false; n_real];
        let mut scattered = vec![false; n_real];
        let mark = |v: &mut Vec<bool>, idx: u32| {
            if (idx as usize) < n_real {
                v[idx as usize] = true;
            }
        };
        for &sid in &run.strips {
            let s = &strips[sid];
            for &i in s.i_central.iter().chain(s.i_neighbor.iter()) {
                mark(&mut referenced, i);
            }
            if variant == Variant::Variable {
                // Centre positions travel inside the strip's centre
                // records rather than through a gather, but they are
                // remote data all the same.
                for &c in s.c_scatter.iter() {
                    mark(&mut referenced, c);
                }
            }
            for &t in s.c_scatter.iter().chain(s.n_scatter.iter()) {
                mark(&mut scattered, t);
            }
        }
        let mut halo_by_peer: BTreeMap<usize, u64> = BTreeMap::new();
        let mut force_by_peer: BTreeMap<usize, u64> = BTreeMap::new();
        for m in 0..n_real {
            if owner[m] != node {
                if referenced[m] {
                    *halo_by_peer.entry(owner[m]).or_default() += 1;
                }
                if scattered[m] {
                    *force_by_peer.entry(owner[m]).or_default() += 1;
                }
            }
        }
        let imports: Vec<PhaseMessage> = halo_by_peer
            .iter()
            .map(|(&peer, &count)| PhaseMessage {
                src: peer,
                dst: node,
                words: count * halo_position_words(w as u64),
            })
            .collect();
        let returns: Vec<PhaseMessage> = force_by_peer
            .iter()
            .map(|(&peer, &count)| PhaseMessage {
                src: node,
                dst: peer,
                words: count * halo_force_words(w as u64),
            })
            .collect();
        let import_cycles = phase_cycles(&topo, &app.cfg, &imports).map_err(net_err)?;
        let return_cycles = phase_cycles(&topo, &app.cfg, &returns).map_err(net_err)?;

        loads.push(NodeLoad {
            node,
            compute_cycles: run.compute_cycles,
            import_cycles,
            return_cycles,
            halo_in_words: imports.iter().map(|m| m.words).sum(),
            force_out_words: returns.iter().map(|m| m.words).sum(),
        });
        per_node.push(run);
    }

    let timing = MultiNodeTiming { nodes: loads };
    let breakdown = MultiNodeBreakdown {
        nodes: nodes as u32,
        compute_cycles_max: timing.compute_cycles_max(),
        compute_cycles_mean: timing.compute_cycles_mean().round() as u64,
        comm_cycles_max: timing.comm_cycles_max(),
        step_cycles: timing.step_cycles(),
        halo_in_words: timing.total_halo_in_words(),
        force_out_words: timing.total_force_out_words(),
    };

    // Rewrite the summary to the multi-node step: barrier-to-barrier
    // cycles and the aggregate solution rate over them.
    let step_cycles = breakdown.step_cycles;
    outcome.perf.cycles = step_cycles;
    outcome.perf.seconds = app.cfg.cycles_to_seconds(step_cycles);
    outcome.perf.solution_gflops =
        outcome.perf.solution_flops as f64 / outcome.perf.seconds.max(f64::MIN_POSITIVE) / 1e9;
    outcome.perf.phases.multinode = Some(breakdown);

    Ok(MultiNodeOutcome {
        nodes,
        outcome,
        timing,
        per_node,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::place_strips;
    use proptest::prelude::*;

    #[test]
    fn strips_that_overfill_their_home_go_to_the_least_loaded_node() {
        // Cap ⌈16 ÷ 3⌉ = 6: node 0 keeps 5 + 1, the 4, 3, 2 and second 1
        // go where the load is least.
        let placed = place_strips(&[5, 4, 3, 2, 1, 1], &[0; 6], 3);
        assert_eq!(placed, [0, 1, 2, 2, 0, 1]);
    }

    #[test]
    fn a_tie_goes_home_first_then_to_the_lowest_node() {
        // The 5 fits nowhere; nodes 0 and 1 both carry 1, and 1 is home.
        assert_eq!(place_strips(&[5, 1, 1], &[1, 1, 0], 2), [1, 1, 0]);
        // Home (node 2) carries 2, so the tie at 1 goes to node 0.
        assert_eq!(
            place_strips(&[6, 1, 1, 1, 1], &[2, 0, 1, 2, 2], 3),
            [0, 0, 1, 2, 2]
        );
    }

    proptest! {
        #[test]
        fn prop_placement_is_home_first_and_bounded(
            nodes in 1usize..17,
            strips in prop::collection::vec((0u64..500, 0usize..16), 0..64),
        ) {
            let weight: Vec<u64> = strips.iter().map(|s| s.0).collect();
            let home: Vec<usize> = strips.iter().map(|s| s.1 % nodes).collect();
            let placed = place_strips(&weight, &home, nodes);
            prop_assert_eq!(placed.len(), weight.len());
            prop_assert!(placed.iter().all(|&n| n < nodes));
            if nodes == 1 {
                prop_assert_eq!(&placed, &home);
            }
            let total: u64 = weight.iter().sum();
            let cap = total.div_ceil(nodes as u64);
            let (mut load, mut home_load) = (vec![0; nodes], vec![0; nodes]);
            for (s, &w) in weight.iter().enumerate() {
                load[placed[s]] += w;
                home_load[home[s]] += w;
            }
            let max_weight = weight.iter().copied().max().unwrap_or(0);
            prop_assert!(load.iter().all(|&l| l <= cap + max_weight), "{:?}", load);
            for (s, &h) in home.iter().enumerate() {
                if home_load[h] <= cap {
                    prop_assert!(placed[s] == h, "strip {s} left a home under the cap");
                }
            }
        }
    }
}
