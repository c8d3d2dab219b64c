//! End-to-end simulated multi-node execution: the spatial decomposition
//! places every strip on one node over the folded-Clos topology, and
//! the acceptance contract is that the total forces are
//! **bitwise-identical at any node count and any host thread count**
//! (the cross-node reduction runs in canonical global strip order; see
//! `streammd::multinode`). Each strip executes once: a node's compute
//! phase is the one execution *timed* over that node's ops, held here to
//! what running the node's sub-program on its own reports.
//!
//! The CI host-thread matrix extends here: `MERRIMAC_NODES` adds one
//! extra node count to the identity sweep, so one matrix job covers a
//! multi-node configuration.

use md_sim::neighbor::{NeighborList, NeighborListParams};
use md_sim::system::WaterBox;
use merrimac_bench::paper_system;
use merrimac_sim::env_usize;
use merrimac_sim::program::{BufferDecl, LabelledOp};
use merrimac_sim::{BufferId, RunReport, StreamOp, StreamProcessor, StreamProgram};
use streammd::multinode::MultiNodeOutcome;
use streammd::{
    run_multinode, run_multinode_program, SimConfigBuilder, SimError, StreamMdApp, Variant,
};

fn setup(molecules: usize) -> (WaterBox, NeighborList) {
    let system = WaterBox::builder().molecules(molecules).seed(7).build();
    let params = NeighborListParams {
        cutoff: (0.45 * system.pbc().side()).min(1.0),
        skin: 0.0,
        rebuild_interval: 10,
    };
    let list = NeighborList::build(&system, params);
    (system, list)
}

fn run_nodes(
    system: &WaterBox,
    list: &NeighborList,
    variant: Variant,
    nodes: usize,
    threads: usize,
) -> MultiNodeOutcome {
    let app = SimConfigBuilder::new()
        .neighbor(list.params)
        .variants(&[variant])
        .threads(threads)
        .nodes(nodes)
        .build()
        .unwrap_or_else(|e| panic!("{variant} nodes={nodes}: {e}"));
    run_multinode(&app, system, list, variant, nodes)
        .unwrap_or_else(|e| panic!("{variant} nodes={nodes} threads={threads}: {e}"))
}

/// Acceptance: bitwise-identical total forces for N ∈ {1, 2, 8} (plus
/// the CI matrix's `MERRIMAC_NODES`) and across host threads within
/// each node count.
#[test]
fn forces_bitwise_identical_across_nodes_and_threads() {
    let (system, list) = setup(64);
    let mut node_counts = vec![1usize, 2, 8];
    // `MERRIMAC_NODES` is parsed strictly, so a malformed matrix entry
    // fails loudly here instead of being silently ignored.
    let env = |var: &str| std::env::var(var).ok();
    let nodes = env_usize(env, "MERRIMAC_NODES").unwrap_or_else(|e| panic!("{e}"));
    if let Some(n) = nodes.filter(|n| !node_counts.contains(n)) {
        node_counts.push(n);
    }
    for variant in [Variant::Variable, Variant::Fixed] {
        let reference = run_nodes(&system, &list, variant, 1, 2);
        for &nodes in &node_counts {
            for threads in [1usize, 4] {
                let m = run_nodes(&system, &list, variant, nodes, threads);
                assert_eq!(
                    reference.outcome.forces, m.outcome.forces,
                    "{variant}: forces diverged at nodes={nodes} threads={threads}"
                );
            }
        }
    }
}

/// The processor an app's steps run on, rebuilt from its public fields.
fn processor(app: &StreamMdApp) -> StreamProcessor {
    StreamProcessor::new(app.cfg.clone())
        .with_costs(app.costs.clone())
        .with_policy(app.policy)
        .with_host(app.host)
        .with_batch_width(app.tape_batch)
}

/// Every simulated field of a report (`host` is wall-clock; `partition`
/// describes the execution, which for a timed node is the whole step).
fn assert_same_timing(want: &RunReport, got: &RunReport, ctx: &str) {
    assert_eq!(want.cycles, got.cycles, "{ctx}: cycles");
    assert_eq!(want.timeline, got.timeline, "{ctx}: timeline");
    assert_eq!(want.counters, got.counters, "{ctx}: counters");
    assert_eq!(want.phases, got.phases, "{ctx}: phases");
    assert_eq!(want.sdr_peak, got.sdr_peak, "{ctx}: SDR peak");
    assert_eq!(
        want.srf_peak_words_per_cluster, got.srf_peak_words_per_cluster,
        "{ctx}: SRF peak"
    );
    assert_eq!(
        want.sdr_stall_cycles, got.sdr_stall_cycles,
        "{ctx}: SDR stalls"
    );
    assert_eq!(want.cache_stats, got.cache_stats, "{ctx}: cache stats");
}

/// The contract of `StreamProcessor::time`, on the programs the
/// multi-node runner gives it: timing one execution over a node's ops
/// reports what running the node's sub-program — those ops over the same
/// buffer and intent declarations — on a fresh memory image does, and a
/// `NodeRun` is read off that report. The hand runs also show that every
/// strip runs on exactly one node and nothing is dropped: their force
/// images sum to the canonical forces up to floating-point association.
#[test]
fn timing_a_nodes_ops_equals_running_its_sub_program() {
    for (molecules, strip) in [(64, Some(96)), (216, None)] {
        let (system, list) = setup(molecules);
        for variant in [Variant::Variable, Variant::Fixed, Variant::Expanded] {
            for threads in [1usize, 4] {
                let mut builder = SimConfigBuilder::new()
                    .neighbor(list.params)
                    .variants(&[variant])
                    .threads(threads);
                if let Some(iterations) = strip {
                    builder = builder.strip_iterations(iterations);
                }
                let app = builder.build().expect("valid");
                let step = app.build_step_program(&system, &list, variant);
                let proc = processor(&app);
                let mut mem = step.memory.clone();
                let executed = proc.execute(&mut mem, &step.program).expect("executes");
                for nodes in [2usize, 4, 8] {
                    let ctx =
                        format!("water-{molecules} {variant} nodes={nodes} threads={threads}");
                    let m = run_multinode_program(&app, &system, &step, nodes)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let mut summed = vec![0.0f64; mem.data(step.forces).len()];
                    for run in &m.per_node {
                        let ctx = format!("{ctx} node {}", run.node);
                        let keep = |op: &LabelledOp| run.strips.contains(&op.strip);
                        let sub = StreamProgram {
                            buffers: step.program.buffers.clone(),
                            ops: step
                                .program
                                .ops
                                .iter()
                                .filter(|op| keep(op))
                                .cloned()
                                .collect(),
                            intents: step.program.intents.clone(),
                        };
                        let mut node_mem = step.memory.clone();
                        let want = proc
                            .run(&mut node_mem, &sub)
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        for (acc, w) in summed.iter_mut().zip(node_mem.data(step.forces)) {
                            *acc += w;
                        }
                        let got = proc
                            .time(&mem, &step.program, &executed, keep)
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_same_timing(&want, &got, &ctx);
                        assert_eq!(run.compute_cycles, got.cycles, "{ctx}: NodeRun cycles");
                        assert_eq!(run.phases, got.phases, "{ctx}: NodeRun phases");
                        assert_eq!(run.sdr_stall_cycles, got.sdr_stall_cycles, "{ctx}");
                        assert_eq!(run.overlap, got.timeline.overlap_fraction(), "{ctx}");
                        assert_eq!(run.strips.is_empty(), run.compute_cycles == 0, "{ctx}");
                    }
                    for (word, (s, c)) in summed.iter().zip(mem.data(step.forces)).enumerate() {
                        assert!(
                            (s - c).abs() <= 1e-9 * c.abs().max(1.0),
                            "{ctx}: force word {word}: node sum {s} vs canonical {c}"
                        );
                    }
                    // Every strip landed on exactly one node.
                    let mut assigned: Vec<usize> =
                        m.per_node.iter().flat_map(|n| n.strips.clone()).collect();
                    assigned.sort_unstable();
                    let all: Vec<usize> = (0..step.layout.strips.len()).collect();
                    assert_eq!(assigned, all, "{ctx}");
                    let owned: usize = m.per_node.iter().map(|n| n.owned_molecules).sum();
                    assert_eq!(owned, system.num_molecules(), "{ctx}");
                }
            }
        }
    }
}

/// The paper's box on 8 nodes, which the CI trend gate does not run (its
/// 216-molecule box leaves most nodes a single strip — how a prefetch
/// window counted in strip ids went unseen): 31 strips, three or four to
/// a node, with gaps between a node's canonical strip ids. The placement
/// packs the strips by their busiest cluster's iterations, so the
/// busiest node is within 10% of the mean; forces are one node's.
#[test]
fn paper_box_on_eight_nodes_matches_recorded_cycles() {
    let (system, list) = paper_system();
    let m = run_nodes(&system, &list, Variant::Variable, 8, 2);
    assert_eq!(m.outcome.report.cycles, 482_387, "single-node step");
    assert_eq!(m.breakdown.step_cycles, 80_637);
    assert_eq!(m.breakdown.comm_cycles_max, 5_134);
    let compute: Vec<u64> = m.per_node.iter().map(|n| n.compute_cycles).collect();
    assert_eq!(
        compute,
        [62_629, 76_542, 75_701, 75_676, 68_828, 75_423, 75_503, 75_759]
    );
    assert!(
        m.breakdown.imbalance() <= 0.10,
        "{}",
        m.breakdown.imbalance()
    );
    assert!(m.efficiency() >= 0.70, "{}", m.efficiency());
    let one = run_nodes(&system, &list, Variant::Variable, 1, 2);
    assert_eq!(one.outcome.forces, m.outcome.forces, "8-node forces");
}

/// An execution the partitioner refused can only be timed whole: its
/// memory ops are priced by the scoreboard on one warm cache in issue
/// order, which no subset run on its own would see. The program is the
/// forced fallback of `tests/fallback_goldens.rs`: intents cleared, plus
/// a load of the scatter-added `forces` region.
#[test]
fn a_subset_of_an_unpartitioned_execution_is_a_typed_error() {
    let (system, list) = setup(64);
    let app = SimConfigBuilder::new()
        .neighbor(list.params)
        .strip_iterations(96)
        .threads(2)
        .build()
        .expect("valid");
    let mut step = app.build_step_program(&system, &list, Variant::Variable);
    step.program.intents.clear();
    step.program.buffers.push(BufferDecl {
        name: "forces readback".into(),
        record_len: 3,
    });
    step.program.ops.push(LabelledOp {
        op: StreamOp::Load {
            region: step.forces,
            record_len: 3,
            start: 0,
            records: 32,
            dst: BufferId(step.program.buffers.len() - 1),
        },
        label: "load forces readback".into(),
        strip: step.program.ops.last().expect("non-empty program").strip,
    });
    let proc = processor(&app);
    let mut mem = step.memory.clone();
    let executed = proc.execute(&mut mem, &step.program).expect("executes");
    assert!(!executed.partition.is_parallel());

    let err = proc
        .time(&mem, &step.program, &executed, |op| op.strip == 0)
        .expect_err("a subset of unpriced records");
    assert!(matches!(err, SimError::Program(_)), "{err}");
    let text = err.to_string();
    assert!(text.contains("region_conflict"), "{text}");
    assert!(text.contains("'forces'"), "{text}");

    // The whole program still runs through the fallback, as `run` does.
    let whole = proc
        .time(&mem, &step.program, &executed, |_| true)
        .expect("the whole program");
    let mut fresh = step.memory.clone();
    let run = proc.run(&mut fresh, &step.program).expect("runs");
    assert_same_timing(&run, &whole, "forced fallback");
    assert_eq!(run.partition, whole.partition);
    assert_eq!(fresh.data(step.forces), mem.data(step.forces));
}

/// One node is exactly the single-processor step: same cycles, no
/// communication.
#[test]
fn single_node_degenerates_to_the_canonical_step() {
    let (system, list) = setup(64);
    let m = run_nodes(&system, &list, Variant::Variable, 1, 2);
    assert_eq!(m.breakdown.step_cycles, m.outcome.report.cycles);
    assert_eq!(m.breakdown.comm_cycles_max, 0);
    assert_eq!(m.breakdown.halo_in_words, 0);
    assert_eq!(m.breakdown.force_out_words, 0);
    assert!((m.efficiency() - 1.0).abs() < 1e-12);
    assert_eq!(m.outcome.perf.phases.multinode, Some(m.breakdown));
}

/// Beyond one node the halo exchange must appear: positions in, partial
/// forces out, both phases priced into the step.
#[test]
fn multi_node_steps_pay_for_the_halo_exchange() {
    let (system, list) = setup(64);
    let m = run_nodes(&system, &list, Variant::Variable, 8, 2);
    assert_eq!(m.per_node.len(), 8);
    assert!(m.breakdown.halo_in_words > 0, "no halo imported");
    assert!(m.breakdown.force_out_words > 0, "no forces returned");
    assert!(m.breakdown.comm_cycles_max > 0);
    assert!(m.breakdown.step_cycles > m.breakdown.compute_cycles_max);
    assert!(m.breakdown.imbalance() >= 0.0);
    // Distributing strips cannot make the busiest node slower than the
    // whole program on one node.
    assert!(m.breakdown.compute_cycles_max <= m.outcome.report.cycles);
    // The summary reflects the multi-node step, not the canonical run.
    assert_eq!(m.outcome.perf.cycles, m.breakdown.step_cycles);
}

/// Builder preflight: out-of-range node counts are typed errors, in the
/// same family as the SRF strip overflow.
#[test]
fn builder_rejects_node_counts_outside_the_network() {
    for nodes in [0usize, 8193] {
        let err = SimConfigBuilder::new().nodes(nodes).build().unwrap_err();
        match err {
            SimError::NodesOutOfRange { nodes: n, total } => {
                assert_eq!(n, nodes);
                assert_eq!(total, 8192);
            }
            other => panic!("expected NodesOutOfRange, got {other}"),
        }
        assert!(err.to_string().contains("8192"), "{err}");
    }
}
