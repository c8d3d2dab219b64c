//! Validated construction of [`StreamMdApp`] — the front door of the
//! experiment API.
//!
//! [`SimConfigBuilder`] replaces the grab-bag of `with_*` knobs on
//! [`StreamMdApp`]: every knob is set on the builder and checked once,
//! together, in [`SimConfigBuilder::build`], which returns
//! `Err(SimError)` instead of panicking or — worse — handing back a
//! configuration that wedges the simulated scoreboard mid-run. The
//! canonical example of the latter is an over-sized strip: a fixed-L
//! strip of 997 blocks needs more SRF space for its live streams than
//! the machine owns, so the old API deadlocked after the functional
//! work was done. `build()` rejects it up front, naming the strip size.
//!
//! ```
//! use streammd::{SimConfigBuilder, Variant};
//!
//! let app = SimConfigBuilder::new()
//!     .block_l(8)
//!     .threads(4)
//!     .build()
//!     .expect("valid configuration");
//! # let _ = app;
//!
//! // An un-runnable strip is caught at build time:
//! let err = SimConfigBuilder::new()
//!     .strip_iterations(997)
//!     .build()
//!     .unwrap_err();
//! assert!(err.to_string().contains("997"));
//!
//! // ...unless the run is scoped to variants whose footprint fits:
//! SimConfigBuilder::new()
//!     .strip_iterations(997)
//!     .variants(&[Variant::Variable, Variant::Expanded])
//!     .build()
//!     .expect("997-iteration strips fit for the compact variants");
//! ```

use md_sim::neighbor::NeighborListParams;
use merrimac_arch::{MachineConfig, NetworkConfig, OpCosts};
use merrimac_net::topology::{NetError, Topology};
use merrimac_sim::machine::SimError;
use merrimac_sim::{HostExec, KernelOpt, SdrPolicy};

use crate::app::StreamMdApp;
use crate::variant::Variant;
use crate::workload::Workload;

/// Builder for a validated [`StreamMdApp`]. Construct with
/// [`SimConfigBuilder::new`] or [`StreamMdApp::builder`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    /// The app under construction; it starts as [`StreamMdApp::new`]'s
    /// defaults, so the two constructors cannot drift apart.
    app: StreamMdApp,
    variants: Vec<Variant>,
    workloads: Vec<Workload>,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimConfigBuilder {
    pub fn new() -> Self {
        Self {
            app: StreamMdApp::new(MachineConfig::default()),
            variants: Variant::ALL.to_vec(),
            workloads: Workload::ALL.to_vec(),
        }
    }

    /// Machine parameters (Table 1 defaults).
    pub fn machine(mut self, cfg: MachineConfig) -> Self {
        self.app.cfg = cfg;
        self
    }

    /// Per-op cycle cost overrides.
    pub fn costs(mut self, costs: OpCosts) -> Self {
        self.app.costs = costs;
        self
    }

    /// Stream-descriptor-register retirement policy (Figure 7).
    pub fn policy(mut self, policy: SdrPolicy) -> Self {
        self.app.policy = policy;
        self
    }

    /// Kernel compilation options (unroll, software pipelining).
    pub fn kernel_opt(mut self, opt: KernelOpt) -> Self {
        self.app.kernel_opt = opt;
        self
    }

    /// Neighbour-list policy.
    pub fn neighbor(mut self, params: NeighborListParams) -> Self {
        self.app.neighbor = params;
        self
    }

    /// Fixed-list block length L (paper: 8).
    pub fn block_l(mut self, l: usize) -> Self {
        self.app.block_l = l;
        self
    }

    /// Strip size override (kernel iterations per strip). Validated at
    /// build time against the SRF footprint of every variant in scope.
    pub fn strip_iterations(mut self, iters: usize) -> Self {
        self.app.strip_iterations = Some(iters);
        self
    }

    /// How the host executes the run (default [`HostExec::default`]:
    /// 1 thread, quiet). Simulated results are bitwise-identical under
    /// every value.
    pub fn host(mut self, host: HostExec) -> Self {
        self.app.host = host;
        self
    }

    /// Shorthand for the host's worker-thread count alone.
    pub fn threads(mut self, threads: usize) -> Self {
        self.app.host.threads = threads;
        self
    }

    /// Restrict the variants this configuration is expected to run.
    /// Strip-size validation only covers the variants in scope, so a
    /// strip too large for `fixed` can still be built for `variable`.
    pub fn variants(mut self, variants: &[Variant]) -> Self {
        self.variants = variants.to_vec();
        self
    }

    /// Restrict the workloads this configuration is expected to run.
    /// Strip-size validation uses the widest record in scope, so a
    /// strip too large for 9-word water records can still be built for
    /// the 3-word atomic workloads.
    pub fn workloads(mut self, workloads: &[Workload]) -> Self {
        self.workloads = workloads.to_vec();
        self
    }

    /// The interconnection network multi-node steps are priced over
    /// (paper Section 2.3; Table defaults give the 8,192-node system).
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.app.network = network;
        self
    }

    /// Simulated node count for the multi-node runner
    /// (`streammd::multinode`). Validated at build time against the
    /// network size — an out-of-range count is a typed preflight error,
    /// not a mid-run panic.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.app.nodes = nodes;
        self
    }

    /// Run the Error-severity static analysis passes
    /// (`merrimac_analysis`) over every built step program before
    /// executing it. Knob-level validation still happens in
    /// [`SimConfigBuilder::build`]; the program-level passes need the
    /// dataset and so run per step, refusing programs with Error
    /// diagnostics before a single simulated cycle.
    pub fn analyze(mut self) -> Self {
        self.app.analyze = true;
        self
    }

    /// Validate every knob and produce the application.
    pub fn build(self) -> Result<StreamMdApp, SimError> {
        let app = self.app;
        if app.block_l == 0 {
            return Err(SimError::Config("block_l must be at least 1".into()));
        }
        if app.kernel_opt.unroll == 0 {
            return Err(SimError::Config("kernel unroll must be at least 1".into()));
        }
        if app.host.threads == 0 {
            return Err(SimError::Config("threads must be at least 1".into()));
        }
        if app.strip_iterations == Some(0) {
            return Err(SimError::Config(
                "strip_iterations must be at least 1".into(),
            ));
        }
        if app.cfg.clusters == 0 || app.cfg.srf_words_per_cluster == 0 {
            return Err(SimError::Config(
                "machine needs at least one cluster and a non-empty SRF".into(),
            ));
        }
        if !app.neighbor.cutoff.is_finite() || app.neighbor.cutoff <= 0.0 {
            return Err(SimError::Config(format!(
                "neighbour cutoff must be positive and finite, got {}",
                app.neighbor.cutoff
            )));
        }
        if !app.neighbor.skin.is_finite() || app.neighbor.skin < 0.0 {
            return Err(SimError::Config(format!(
                "neighbour skin must be non-negative and finite, got {}",
                app.neighbor.skin
            )));
        }
        if app.neighbor.rebuild_interval == 0 {
            return Err(SimError::Config(
                "neighbour rebuild_interval must be at least 1".into(),
            ));
        }
        if self.workloads.is_empty() {
            return Err(SimError::Config(
                "workload scope must name at least one workload".into(),
            ));
        }
        if let Some(strip) = app.strip_iterations {
            // Validate at the widest record in scope: any strip that
            // fits the widest workload fits the narrower ones too.
            let width = self
                .workloads
                .iter()
                .map(|w| w.width())
                .max()
                .expect("non-empty workload scope");
            for &variant in &self.variants {
                let needed = strip_working_set_per_cluster(
                    variant,
                    app.block_l,
                    strip,
                    app.cfg.clusters.max(1),
                    width,
                );
                if needed > app.cfg.srf_words_per_cluster {
                    return Err(SimError::StripSrfOverflow {
                        label: format!("variant {variant}, L = {}", app.block_l),
                        strip_iterations: strip as u64,
                        needed_words_per_cluster: needed,
                        capacity_words_per_cluster: app.cfg.srf_words_per_cluster,
                    });
                }
            }
        }
        if app.network.nodes_per_board == 0
            || app.network.boards_per_backplane == 0
            || app.network.backplanes == 0
        {
            return Err(SimError::Config(
                "network needs at least one node per board, board and backplane".into(),
            ));
        }
        // The multi-node preflight: reject node counts the modeled
        // network cannot hold, via the same `Topology::worst_level`
        // helper the runner and the analytic estimator use.
        let topo = Topology::new(app.network.clone());
        topo.worst_level(app.nodes).map_err(|e| match e {
            NetError::NodeCountOutOfRange { nodes, total } => {
                SimError::NodesOutOfRange { nodes, total }
            }
            other => SimError::Config(other.to_string()),
        })?;
        Ok(app)
    }
}

/// SRF words per cluster a *full* strip's kernel working set needs —
/// the same accounting the scoreboard preflight
/// (`StreamProcessor::validate_program`) applies to the real program,
/// evaluated on the buffers each variant's emitter creates. The kernel
/// can only issue with all input streams live and all output streams
/// allocated, so this is a hard floor; a strip whose floor exceeds the
/// per-cluster SRF capacity can never run once the dataset is large
/// enough to fill the strip.
///
/// The `variable` variant's centre-record stream is dataset-dependent
/// (one 2·width-word record per centre run); the estimate uses the
/// minimum (a single centre plus the sentinel), so it only rejects
/// strips that are infeasible for *every* dataset. `width` is the
/// molecule record width (9 for water, 3 for atomic workloads).
pub(crate) fn strip_working_set_per_cluster(
    variant: Variant,
    block_l: usize,
    strip_iterations: usize,
    clusters: usize,
    width: usize,
) -> usize {
    let s = strip_iterations;
    let l = block_l;
    let w = width;
    let buffers: Vec<usize> = match variant {
        // c_pos, shift, n_pos in; c_partial, n_partial out.
        Variant::Expanded => vec![w * s; 5],
        // c_pos, shift, n_pos(L per block) in; c_force, n_partial out.
        Variant::Fixed => vec![w * s, w * s, w * l * s, w * s, w * l * s],
        // As fixed but no neighbour partials.
        Variant::Duplicated => vec![w * s, w * s, w * l * s, w * s],
        // n_pos, flags, centre records in; c_force, n_partial out.
        Variant::Variable => vec![w * s, s, 2 * w * 2, w * s, w * s],
    };
    buffers.iter().map(|b| b.div_ceil(clusters)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_lands_on_the_app_last_call_winning() {
        let app = SimConfigBuilder::new().build().expect("defaults are valid");
        assert_eq!(app.host, HostExec::default());
        assert_eq!(app.block_l, 8);
        assert!(app.strip_iterations.is_none());

        let h = HostExec { threads: 3 };
        let app = SimConfigBuilder::new().host(h).build().unwrap();
        assert_eq!(app.host, h);
        let app = SimConfigBuilder::new().host(h).threads(5).build().unwrap();
        assert_eq!(app.host, HostExec { threads: 5 });
        let app = SimConfigBuilder::new().threads(5).host(h).build().unwrap();
        assert_eq!(app.host, h);
    }

    #[test]
    fn rejects_degenerate_knobs() {
        for (b, what) in [
            (SimConfigBuilder::new().block_l(0), "block_l"),
            (SimConfigBuilder::new().threads(0), "threads"),
            (SimConfigBuilder::new().strip_iterations(0), "strip"),
            (
                SimConfigBuilder::new().kernel_opt(KernelOpt {
                    unroll: 0,
                    software_pipeline: false,
                }),
                "unroll",
            ),
            (
                SimConfigBuilder::new().neighbor(NeighborListParams {
                    cutoff: -1.0,
                    skin: 0.0,
                    rebuild_interval: 1,
                }),
                "cutoff",
            ),
            (
                SimConfigBuilder::new().neighbor(NeighborListParams {
                    cutoff: 1.0,
                    skin: f64::NAN,
                    rebuild_interval: 1,
                }),
                "skin",
            ),
            (
                SimConfigBuilder::new().neighbor(NeighborListParams {
                    cutoff: 1.0,
                    skin: 0.0,
                    rebuild_interval: 0,
                }),
                "rebuild",
            ),
        ] {
            let err = b.build().expect_err(what);
            assert!(matches!(err, SimError::Config(_)), "{what}: {err}");
        }
    }

    #[test]
    fn unrunnable_strip_is_rejected_naming_the_size() {
        // The ROADMAP deadlock configuration: fixed variant, strip 997.
        let err = SimConfigBuilder::new()
            .strip_iterations(997)
            .build()
            .expect_err("997-block fixed strips cannot be double-buffered");
        let msg = err.to_string();
        assert!(msg.contains("997"), "{msg}");
        assert!(msg.contains("fixed"), "{msg}");
    }

    #[test]
    fn variant_scope_limits_strip_validation() {
        // The same strip is fine for the compact per-interaction
        // variants.
        SimConfigBuilder::new()
            .strip_iterations(997)
            .variants(&[Variant::Variable, Variant::Expanded])
            .build()
            .expect("fits for variable/expanded");
        // And the variable variant tolerates very large strips (the
        // ablation sweep uses 4096).
        SimConfigBuilder::new()
            .strip_iterations(4096)
            .variants(&[Variant::Variable])
            .build()
            .expect("ablation-sized variable strips fit");
    }

    #[test]
    fn working_set_matches_scoreboard_floor_for_fixed_997() {
        // 997 blocks at L = 8: five buffers of 8973/8973/71784/8973/71784
        // words → 561+561+4487+561+4487 = 10657 words/cluster, over the
        // 8192-word bank.
        let w = strip_working_set_per_cluster(Variant::Fixed, 8, 997, 16, 9);
        assert_eq!(w, 10657);
        assert!(w > MachineConfig::default().srf_words_per_cluster);
    }

    #[test]
    fn workload_scope_limits_strip_validation() {
        // 997-block fixed strips overflow the SRF with 9-word water
        // records but fit the 3-word atomic records.
        let atomic = strip_working_set_per_cluster(Variant::Fixed, 8, 997, 16, 3);
        assert!(atomic <= MachineConfig::default().srf_words_per_cluster);
        SimConfigBuilder::new()
            .strip_iterations(997)
            .workloads(&[Workload::LjFluid, Workload::Charged])
            .build()
            .expect("atomic records keep the strip within the SRF");
        // Unscoped, water is in scope and the strip is rejected.
        SimConfigBuilder::new()
            .strip_iterations(997)
            .build()
            .expect_err("water in scope rejects the strip");
        // An empty scope is a config error, not a silent pass.
        let err = SimConfigBuilder::new()
            .workloads(&[])
            .build()
            .expect_err("empty workload scope");
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn node_count_validated_against_the_network() {
        // In range: the default network holds 8192 nodes.
        SimConfigBuilder::new().nodes(8192).build().unwrap();
        // Out of range is the typed multi-node preflight error.
        for nodes in [0usize, 8193] {
            let err = SimConfigBuilder::new().nodes(nodes).build().unwrap_err();
            match err {
                SimError::NodesOutOfRange { nodes: n, total } => {
                    assert_eq!(n, nodes);
                    assert_eq!(total, 8192);
                }
                other => panic!("expected NodesOutOfRange, got {other}"),
            }
        }
        // A degenerate network is rejected before building a topology.
        let err = SimConfigBuilder::new()
            .network(NetworkConfig {
                backplanes: 0,
                ..NetworkConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }
}
