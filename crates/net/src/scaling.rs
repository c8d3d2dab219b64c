//! Multi-node StreamMD scaling estimate (extension experiment X1).
//!
//! The box is spatially decomposed into equal sub-volumes, one per node.
//! Each step a node must:
//!
//! 1. import halo positions — molecules within r_c of its boundary on
//!    neighbouring nodes (9 words each plus index);
//! 2. compute its share of the interactions (the single-node `variable`
//!    cost scaled by molecules/node);
//! 3. export remote partial forces with the network scatter-add (the
//!    "floating-point streaming add-and-store operations across multiple
//!    nodes" of Section 2.2).
//!
//! Communication lands on the network level that separates spatial
//! neighbours, so small node counts stay on one board and large systems
//! pay backplane/system bandwidth for part of the halo. The exchange is
//! two *dependent* message phases — positions must land before compute,
//! forces return after — so each phase is charged its own network
//! latency (they cannot be pipelined into one another across the
//! compute barrier).
//!
//! For an executed (rather than closed-form) version of this model see
//! [`crate::multinode`], which times real per-strip traffic over the
//! same [`Topology`].

use merrimac_arch::{MachineConfig, NetworkConfig};
use serde::{Deserialize, Serialize};

use crate::multinode::{HALO_FORCE_WORDS, HALO_POSITION_WORDS};
use crate::topology::{NetError, Topology};

/// One point of the strong-scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    pub nodes: usize,
    pub molecules_per_node: f64,
    /// Halo molecules imported per node.
    pub halo_per_node: f64,
    /// Compute cycles per step per node.
    pub compute_cycles: f64,
    /// Communication cycles per step per node (bandwidth + one latency
    /// per message phase).
    pub comm_cycles: f64,
    /// Step time in seconds (compute and communication overlap like
    /// kernels and memory do on the node).
    pub step_seconds: f64,
    /// Parallel efficiency vs a single node.
    pub efficiency: f64,
    /// Aggregate solution GFLOPS.
    pub solution_gflops: f64,
}

/// Workload description for the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalingWorkload {
    /// Total molecules in the system.
    pub molecules: f64,
    /// Cut-off radius in nm.
    pub cutoff_nm: f64,
    /// Number density in molecules/nm³.
    pub density: f64,
    /// Single-node cycles per molecule per step, calibrated from the
    /// simulated `variable` run (cycles / molecules).
    pub cycles_per_molecule: f64,
    /// Solution flops per molecule per step, from the same run (its
    /// solution flops / molecules).
    pub solution_flops_per_molecule: f64,
}

impl ScalingWorkload {
    /// The paper's 900-molecule dataset replicated `factor³` times so it
    /// can spread over many nodes (weak-ish scaling base), at the cost
    /// and flops per molecule of a calibrating step on one copy.
    pub fn paper_scaled(
        factor: usize,
        cycles_per_molecule: f64,
        solution_flops_per_molecule: f64,
    ) -> Self {
        let molecules = 900.0 * (factor * factor * factor) as f64;
        Self {
            molecules,
            cutoff_nm: 1.0,
            density: 33.327,
            cycles_per_molecule,
            solution_flops_per_molecule,
        }
    }
}

/// Estimate one node count.
pub fn estimate(
    machine: &MachineConfig,
    topo: &Topology,
    w: &ScalingWorkload,
    nodes: usize,
) -> Result<ScalingPoint, NetError> {
    // Single source of truth for the level an N-node job pays — the
    // same helper the executed runner uses (`Topology::worst_level`),
    // instead of re-deriving board/backplane thresholds here.
    let level = topo.worst_level(nodes)?;
    let n_node = w.molecules / nodes as f64;
    // Sub-volume edge (cubic decomposition).
    let volume = w.molecules / w.density;
    let edge = (volume / nodes as f64).cbrt();
    // Halo shell: molecules within r_c outside the sub-volume.
    let shell_volume = ((edge + 2.0 * w.cutoff_nm).powi(3) - edge.powi(3)).max(0.0);
    let halo = if nodes == 1 {
        0.0
    } else {
        shell_volume * w.density
    };

    // Compute: calibrated single-node cost.
    let compute_cycles = n_node * w.cycles_per_molecule;

    // Communication: two dependent phases, each paying serialization at
    // the level's per-node bandwidth plus one network latency. Phase 1
    // imports halo positions (10 words each) before compute can start;
    // phase 2 returns remote partial forces (9 words each, bounded by
    // halo size) after compute finishes — so the latencies do not
    // pipeline and must be charged per phase.
    let gbps = topo.node_bandwidth_gbps(level);
    let phase_cycles = |words: f64| {
        if gbps.is_infinite() {
            0.0
        } else {
            words * 8.0 / (gbps * 1e9) * machine.clock_hz
        }
    };
    let latency = topo.latency_cycles(level) as f64;
    let comm_cycles = phase_cycles(halo * HALO_POSITION_WORDS as f64)
        + phase_cycles(halo * HALO_FORCE_WORDS as f64)
        + 2.0 * latency;

    // Overlap: the SRF decoupling hides communication under compute the
    // same way it hides DRAM; the step takes the max plus a small
    // non-overlapped synchronization tail.
    let step_cycles = compute_cycles.max(comm_cycles) + 0.05 * comm_cycles.min(compute_cycles);
    let step_seconds = step_cycles / machine.clock_hz;

    let single_node_seconds = w.molecules * w.cycles_per_molecule / machine.clock_hz;
    let efficiency = single_node_seconds / (nodes as f64 * step_seconds);
    let flops = w.molecules * w.solution_flops_per_molecule;
    Ok(ScalingPoint {
        nodes,
        molecules_per_node: n_node,
        halo_per_node: halo,
        compute_cycles,
        comm_cycles,
        step_seconds,
        efficiency,
        solution_gflops: flops / step_seconds / 1e9,
    })
}

/// Sweep power-of-two node counts.
pub fn scaling_sweep(
    machine: &MachineConfig,
    net: &NetworkConfig,
    w: &ScalingWorkload,
    max_nodes: usize,
) -> Result<Vec<ScalingPoint>, NetError> {
    let topo = Topology::new(net.clone());
    let mut out = Vec::new();
    let mut n = 1usize;
    while n <= max_nodes && n <= topo.nodes() {
        out.push(estimate(machine, &topo, w, n)?);
        n *= 2;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MachineConfig, NetworkConfig, ScalingWorkload) {
        (
            MachineConfig::default(),
            NetworkConfig::default(),
            // 57.6M molecules (factor 40), ~7 cycles per interaction and
            // the paper box's ~73 pairs × 234 flops per molecule.
            ScalingWorkload::paper_scaled(40, 500.0, 17_000.0),
        )
    }

    #[test]
    fn single_node_has_full_efficiency() {
        let (m, n, w) = setup();
        let pts = scaling_sweep(&m, &n, &w, 1).unwrap();
        assert_eq!(pts.len(), 1);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        assert_eq!(pts[0].halo_per_node, 0.0);
    }

    #[test]
    fn step_time_decreases_with_nodes() {
        let (m, n, w) = setup();
        let pts = scaling_sweep(&m, &n, &w, 1024).unwrap();
        for pair in pts.windows(2) {
            assert!(
                pair[1].step_seconds < pair[0].step_seconds,
                "{} nodes: {} !< {}",
                pair[1].nodes,
                pair[1].step_seconds,
                pair[0].step_seconds
            );
        }
    }

    #[test]
    fn efficiency_degrades_as_halo_dominates() {
        let (m, n, w) = setup();
        let pts = scaling_sweep(&m, &n, &w, 8192).unwrap();
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(last.efficiency < first.efficiency);
        assert!(
            last.efficiency > 0.01,
            "efficiency collapsed: {}",
            last.efficiency
        );
    }

    #[test]
    fn halo_fraction_grows_with_node_count() {
        let (m, n, w) = setup();
        let topo = Topology::new(n);
        let few = estimate(&m, &topo, &w, 8).unwrap();
        let many = estimate(&m, &topo, &w, 4096).unwrap();
        assert!(
            many.halo_per_node / many.molecules_per_node
                > few.halo_per_node / few.molecules_per_node
        );
    }

    #[test]
    fn aggregate_gflops_scales_sublinearly() {
        let (m, n, w) = setup();
        let pts = scaling_sweep(&m, &n, &w, 4096).unwrap();
        let f0 = pts[0].solution_gflops;
        let fl = pts.last().unwrap().solution_gflops;
        let nodes = pts.last().unwrap().nodes as f64;
        assert!(fl > f0, "more nodes must be faster overall");
        assert!(fl < f0 * nodes, "no superlinear scaling");
    }

    /// Regression for the single-latency-charge bug: the halo exchange
    /// is two dependent phases, so comm must strictly exceed the old
    /// one-phase value (all bytes + one latency) whenever nodes > 1.
    #[test]
    fn two_phase_latency_exceeds_one_phase_charge() {
        let (m, n, w) = setup();
        let topo = Topology::new(n);
        for nodes in [2usize, 16, 64, 4096] {
            let p = estimate(&m, &topo, &w, nodes).unwrap();
            let level = topo.worst_level(nodes).unwrap();
            let gbps = topo.node_bandwidth_gbps(level);
            let bytes = p.halo_per_node * (HALO_POSITION_WORDS + HALO_FORCE_WORDS) as f64 * 8.0;
            let bw_cycles = bytes / (gbps * 1e9) * m.clock_hz;
            let latency = topo.latency_cycles(level) as f64;
            let one_phase = bw_cycles + latency;
            assert!(
                p.comm_cycles > one_phase,
                "{nodes} nodes: comm {} must exceed one-phase {one_phase}",
                p.comm_cycles
            );
            let two_phase = bw_cycles + 2.0 * latency;
            assert!(
                (p.comm_cycles - two_phase).abs() < 1e-6 * two_phase,
                "{nodes} nodes: comm {} != {two_phase}",
                p.comm_cycles
            );
        }
    }

    /// The estimator must not re-derive the level from raw node counts;
    /// `Topology::worst_level` is the single source of truth, so an
    /// out-of-range count is a typed error rather than a panic.
    #[test]
    fn estimate_rejects_out_of_range_counts() {
        let (m, n, w) = setup();
        let topo = Topology::new(n);
        assert_eq!(
            estimate(&m, &topo, &w, 0).unwrap_err(),
            NetError::NodeCountOutOfRange {
                nodes: 0,
                total: 8192
            }
        );
        assert_eq!(
            estimate(&m, &topo, &w, 8193).unwrap_err(),
            NetError::NodeCountOutOfRange {
                nodes: 8193,
                total: 8192
            }
        );
    }
}
