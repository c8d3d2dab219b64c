//! Folded-Clos topology model.

use std::fmt;

use merrimac_arch::NetworkConfig;
use serde::{Deserialize, Serialize};

/// Communication locality levels between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetLevel {
    /// Same node (no network traversal).
    Local,
    /// Same board: one on-board router hop.
    Board,
    /// Same backplane (cabinet): board → backplane → board.
    Backplane,
    /// Across the system-level switch (optical).
    System,
}

/// Typed preflight errors for the network model.
///
/// These replace the former `assert!`s so callers (in particular the
/// `SimConfigBuilder` validation path in `merrimac-core`) can surface
/// bad multi-node configurations the same way `StripSrfOverflow`-style
/// preflight errors are surfaced, instead of panicking mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetError {
    /// A node id addressed a node outside the modeled system.
    NodeOutOfRange { node: usize, total: usize },
    /// A node *count* (for contiguous packing) outside `1..=total`.
    NodeCountOutOfRange { nodes: usize, total: usize },
    /// A spatial decomposition that cannot be built (zero nodes or a
    /// degenerate box).
    InvalidGrid { nodes: usize, side: f64 },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NodeOutOfRange { node, total } => {
                write!(f, "node id {node} outside the modeled network (0..{total})")
            }
            NetError::NodeCountOutOfRange { nodes, total } => {
                write!(
                    f,
                    "node count {nodes} outside the modeled network (1..={total})"
                )
            }
            NetError::InvalidGrid { nodes, side } => {
                write!(
                    f,
                    "cannot build a {nodes}-node spatial grid over a box of side {side}"
                )
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A concrete folded-Clos instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    pub cfg: NetworkConfig,
}

impl Topology {
    pub fn new(cfg: NetworkConfig) -> Self {
        assert!(cfg.nodes_per_board > 0 && cfg.boards_per_backplane > 0 && cfg.backplanes > 0);
        Self { cfg }
    }

    /// Total nodes in the system.
    pub fn nodes(&self) -> usize {
        self.cfg.total_nodes()
    }

    /// Which level connects nodes `a` and `b`?
    pub fn level(&self, a: usize, b: usize) -> Result<NetLevel, NetError> {
        let total = self.nodes();
        for node in [a, b] {
            if node >= total {
                return Err(NetError::NodeOutOfRange { node, total });
            }
        }
        if a == b {
            return Ok(NetLevel::Local);
        }
        let per_board = self.cfg.nodes_per_board;
        let per_backplane = per_board * self.cfg.boards_per_backplane;
        Ok(if a / per_board == b / per_board {
            NetLevel::Board
        } else if a / per_backplane == b / per_backplane {
            NetLevel::Backplane
        } else {
            NetLevel::System
        })
    }

    /// The worst (farthest) level any pair inside a contiguously packed
    /// block of `nodes` nodes has to cross. Single source of truth for
    /// "what level does an N-node job pay?" — used by both the analytic
    /// estimator and the multi-node runner so they cannot diverge.
    pub fn worst_level(&self, nodes: usize) -> Result<NetLevel, NetError> {
        if nodes == 0 || nodes > self.nodes() {
            return Err(NetError::NodeCountOutOfRange {
                nodes,
                total: self.nodes(),
            });
        }
        self.level(0, nodes - 1)
    }

    /// Router hops between two nodes (for latency estimates).
    pub fn hops(&self, level: NetLevel) -> u32 {
        match level {
            NetLevel::Local => 0,
            NetLevel::Board => 1,
            NetLevel::Backplane => 3,
            NetLevel::System => 5,
        }
    }

    /// One-way latency in core cycles for a short message.
    pub fn latency_cycles(&self, level: NetLevel) -> u64 {
        let hops = self.hops(level) as u64 * self.cfg.hop_latency_cycles;
        match level {
            NetLevel::Local => 0,
            NetLevel::Board => hops + self.cfg.board_wire_latency_cycles,
            NetLevel::Backplane => hops + 2 * self.cfg.board_wire_latency_cycles,
            NetLevel::System => {
                hops + 2 * self.cfg.board_wire_latency_cycles + self.cfg.system_wire_latency_cycles
            }
        }
    }

    /// Per-node bandwidth (GB/s) available to traffic that terminates at
    /// the given level. The paper: 20 GB/s flat on board; the top level
    /// provides 2.5 GB/s per node.
    pub fn node_bandwidth_gbps(&self, level: NetLevel) -> f64 {
        match level {
            NetLevel::Local => f64::INFINITY,
            NetLevel::Board => self.cfg.node_injection_gbps(),
            // Each board's 32 uplinks are shared by its 16 nodes.
            NetLevel::Backplane => self.cfg.board_uplink_gbps() / self.cfg.nodes_per_board as f64,
            // One optical channel per board reaches each far cabinet
            // group; budget one channel per node at the top.
            NetLevel::System => self.cfg.channel_gbps,
        }
    }

    /// Bisection bandwidth of the full system in GB/s (each backplane's
    /// optical uplinks carry half the system's traffic in the worst
    /// case).
    pub fn bisection_gbps(&self) -> f64 {
        let uplinks_per_backplane =
            self.cfg.boards_per_backplane as f64 * self.cfg.routers_per_board as f64;
        self.cfg.backplanes as f64 / 2.0 * uplinks_per_backplane * self.cfg.channel_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(NetworkConfig::default())
    }

    #[test]
    fn default_system_size() {
        let t = topo();
        assert_eq!(t.nodes(), 8192);
    }

    #[test]
    fn levels_classified() {
        let t = topo();
        assert_eq!(t.level(0, 0).unwrap(), NetLevel::Local);
        assert_eq!(t.level(0, 1).unwrap(), NetLevel::Board);
        assert_eq!(t.level(0, 16).unwrap(), NetLevel::Backplane);
        assert_eq!(t.level(0, 16 * 32).unwrap(), NetLevel::System);
    }

    #[test]
    fn worst_level_tracks_contiguous_packing() {
        let t = topo();
        assert_eq!(t.worst_level(1).unwrap(), NetLevel::Local);
        assert_eq!(t.worst_level(2).unwrap(), NetLevel::Board);
        assert_eq!(t.worst_level(16).unwrap(), NetLevel::Board);
        assert_eq!(t.worst_level(17).unwrap(), NetLevel::Backplane);
        assert_eq!(t.worst_level(512).unwrap(), NetLevel::Backplane);
        assert_eq!(t.worst_level(513).unwrap(), NetLevel::System);
        assert_eq!(t.worst_level(8192).unwrap(), NetLevel::System);
    }

    #[test]
    fn latency_ordering() {
        let t = topo();
        let l = |lvl| t.latency_cycles(lvl);
        assert!(l(NetLevel::Local) < l(NetLevel::Board));
        assert!(l(NetLevel::Board) < l(NetLevel::Backplane));
        assert!(l(NetLevel::Backplane) < l(NetLevel::System));
    }

    #[test]
    fn latency_monotone_for_nondefault_wire_costs() {
        // Monotonicity must hold for any positive hop/wire costs, not
        // just the defaults: hops and wire crossings both strictly
        // increase with level.
        for (hop, board_wire, system_wire) in [(1, 1, 1), (5, 200, 100), (100, 1, 2000)] {
            let cfg = NetworkConfig {
                hop_latency_cycles: hop,
                board_wire_latency_cycles: board_wire,
                system_wire_latency_cycles: system_wire,
                ..NetworkConfig::default()
            };
            let t = Topology::new(cfg);
            let l = |lvl| t.latency_cycles(lvl);
            assert!(l(NetLevel::Local) < l(NetLevel::Board));
            assert!(
                l(NetLevel::Board) < l(NetLevel::Backplane),
                "hop={hop} board={board_wire}"
            );
            assert!(
                l(NetLevel::Backplane) < l(NetLevel::System),
                "hop={hop} system={system_wire}"
            );
        }
    }

    #[test]
    fn bandwidth_matches_paper_figures() {
        let t = topo();
        // 20 GB/s per node on board.
        assert!((t.node_bandwidth_gbps(NetLevel::Board) - 20.0).abs() < 1e-9);
        // Top level: 2.5 GB/s channels.
        assert!((t.node_bandwidth_gbps(NetLevel::System) - 2.5).abs() < 1e-9);
        // Bandwidth tapers with distance.
        assert!(
            t.node_bandwidth_gbps(NetLevel::Board) > t.node_bandwidth_gbps(NetLevel::Backplane)
        );
        assert!(
            t.node_bandwidth_gbps(NetLevel::Backplane) >= t.node_bandwidth_gbps(NetLevel::System)
        );
    }

    #[test]
    fn bisection_is_terabytes_per_second() {
        // The paper's Figure 4 table: several TB/s across the system.
        let t = topo();
        let b = t.bisection_gbps();
        assert!(b > 1000.0, "bisection {b} GB/s");
    }

    #[test]
    fn bisection_consistent_with_backplane_node_bandwidth() {
        // Both quantities derive from the same `NetworkConfig` link
        // counts. Algebraically:
        //   node_bw(Backplane) = R·U·C / nodes_per_board
        //   bisection          = (BP/2)·Bpb·R·C
        // so  bisection · U == node_bw(Backplane) · nodes_per_board ·
        //                      Bpb · BP / 2.
        for cfg in [
            NetworkConfig::default(),
            NetworkConfig {
                uplinks_per_router: 4,
                boards_per_backplane: 16,
                backplanes: 8,
                ..NetworkConfig::default()
            },
        ] {
            let t = Topology::new(cfg.clone());
            let lhs = t.bisection_gbps() * cfg.uplinks_per_router as f64;
            let rhs = t.node_bandwidth_gbps(NetLevel::Backplane)
                * cfg.nodes_per_board as f64
                * cfg.boards_per_backplane as f64
                * cfg.backplanes as f64
                / 2.0;
            assert!(
                (lhs - rhs).abs() < 1e-6 * lhs.abs().max(1.0),
                "lhs {lhs} rhs {rhs}"
            );
        }
    }

    #[test]
    fn out_of_range_node_is_a_typed_error() {
        let t = topo();
        assert_eq!(
            t.level(0, 1_000_000),
            Err(NetError::NodeOutOfRange {
                node: 1_000_000,
                total: 8192
            })
        );
        assert_eq!(
            t.worst_level(0),
            Err(NetError::NodeCountOutOfRange {
                nodes: 0,
                total: 8192
            })
        );
        assert_eq!(
            t.worst_level(8193),
            Err(NetError::NodeCountOutOfRange {
                nodes: 8193,
                total: 8192
            })
        );
    }
}
