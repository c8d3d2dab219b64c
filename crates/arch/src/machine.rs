//! Merrimac node and system parameters (paper Table 1 and Section 2).
//!
//! All rates are expressed per core clock cycle so the simulator never has
//! to convert units mid-flight; helper methods derive the GB/s figures the
//! paper quotes.

use serde::{Deserialize, Serialize};

use crate::WORD_BYTES;

/// Configuration of a single Merrimac node (stream processor + DRAM).
///
/// Defaults reproduce Table 1 of the paper:
///
/// ```text
/// Number of stream cache banks          8
/// Number of scatter-add units per bank  1
/// Latency of scatter-add functional unit 4
/// Number of combining store entries     8
/// Number of DRAM interface channels     2
/// Number of address generators          2
/// Operating frequency                   1 GHz
/// Peak DRAM bandwidth                   38.4 GB/s
/// Stream cache bandwidth                64 GB/s
/// Number of clusters                    16
/// Peak floating point operations/cycle  128
/// SRF bandwidth                         512 GB/s
/// SRF size                              1 MB
/// Stream cache size                     0.5 MB
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core clock frequency in Hz (1 GHz in the 90 nm design sketch).
    pub clock_hz: f64,
    /// Number of arithmetic clusters operated in SIMD (16).
    pub clusters: usize,
    /// 64-bit multiply-add FPUs per cluster (4).
    pub fpus_per_cluster: usize,
    /// Local register file words per cluster (768 words).
    pub lrf_words_per_cluster: usize,
    /// LRF read ports per FPU per cycle (3 operand reads sustained).
    pub lrf_reads_per_fpu: usize,
    /// Stream register file bank size per cluster, in words (8 KWords).
    pub srf_words_per_cluster: usize,
    /// SRF words readable per cluster per cycle (4).
    pub srf_words_per_cluster_cycle: usize,
    /// Stream cache capacity in words (64 KWords = 512 KB).
    pub cache_words: usize,
    /// Stream cache banks, line interleaved (8).
    pub cache_banks: usize,
    /// Cache line length in words.
    pub cache_line_words: usize,
    /// Cache associativity (ways per set).
    pub cache_ways: usize,
    /// Words per cycle the stream cache sustains across all banks (8).
    pub cache_words_per_cycle: usize,
    /// Stream address generators per node (2).
    pub address_generators: usize,
    /// Single-word addresses all generators produce per cycle (8).
    pub addresses_per_cycle: usize,
    /// External DRAM interface channels (2 Rambus DRDRAM groups).
    pub dram_channels: usize,
    /// Peak (streaming) DRAM bandwidth in words per cycle (4.8 w/c = 38.4 GB/s).
    pub dram_peak_words_per_cycle: f64,
    /// Random-access DRAM bandwidth in words per cycle (2 w/c = 16 GB/s).
    pub dram_random_words_per_cycle: f64,
    /// Scatter-add functional units per cache bank (1).
    pub scatter_add_units_per_bank: usize,
    /// Pipeline latency of a scatter-add functional unit in cycles (4).
    pub scatter_add_latency: u64,
    /// Combining-store entries in front of each scatter-add unit (8).
    pub combining_store_entries: usize,
    /// Hardware stream descriptor registers (MARs) available to the stream
    /// unit. Figure 7 of the paper hinges on how these are allocated.
    pub stream_descriptor_registers: usize,
    /// Fixed start-up overhead of a stream memory operation in cycles
    /// (descriptor issue + pipeline fill to DRAM and back).
    pub memory_op_startup: u64,
    /// Fixed overhead of launching a kernel in cycles (microcode dispatch
    /// plus pipeline priming; Section 5.1 lists kernel start-up among the
    /// reasons sustained rate is below optimal).
    pub kernel_startup: u64,
    /// Node DRAM capacity in bytes (2 GB).
    pub dram_capacity_bytes: u64,
    /// Whether bulk gathers allocate in the stream cache. Default false:
    /// gathers stream past the cache at DRDRAM random-access bandwidth,
    /// matching the paper's near-equal SRF/MEM reference counts
    /// (Figure 8). Enabling it is the cache ablation of the benches.
    pub cache_allocates_gathers: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            clock_hz: 1.0e9,
            clusters: 16,
            fpus_per_cluster: 4,
            lrf_words_per_cluster: 768,
            lrf_reads_per_fpu: 3,
            srf_words_per_cluster: 8 * 1024,
            srf_words_per_cluster_cycle: 4,
            cache_words: 64 * 1024,
            cache_banks: 8,
            cache_line_words: 8,
            cache_ways: 4,
            cache_words_per_cycle: 8,
            address_generators: 2,
            addresses_per_cycle: 8,
            dram_channels: 2,
            dram_peak_words_per_cycle: 4.8,
            dram_random_words_per_cycle: 2.0,
            scatter_add_units_per_bank: 1,
            scatter_add_latency: 4,
            combining_store_entries: 8,
            stream_descriptor_registers: 16,
            memory_op_startup: 200,
            kernel_startup: 150,
            dram_capacity_bytes: 2 * 1024 * 1024 * 1024,
            cache_allocates_gathers: false,
        }
    }
}

impl MachineConfig {
    /// Total MADD FPUs on the chip (64 for the default configuration).
    pub fn total_fpus(&self) -> usize {
        self.clusters * self.fpus_per_cluster
    }

    /// Peak floating-point operations per cycle (128: one multiply-add per
    /// FPU per cycle counts as two flops).
    pub fn peak_flops_per_cycle(&self) -> usize {
        self.total_fpus() * 2
    }

    /// Peak performance in GFLOPS (128 GFLOPS at 1 GHz).
    pub fn peak_gflops(&self) -> f64 {
        self.peak_flops_per_cycle() as f64 * self.clock_hz / 1e9
    }

    /// Total SRF capacity in bytes (1 MB).
    pub fn srf_bytes(&self) -> u64 {
        (self.srf_words_per_cluster * self.clusters) as u64 * WORD_BYTES
    }

    /// Total SRF bandwidth in GB/s (512 GB/s: 4 words/cluster/cycle).
    pub fn srf_gbps(&self) -> f64 {
        (self.srf_words_per_cluster_cycle * self.clusters) as u64 as f64
            * WORD_BYTES as f64
            * self.clock_hz
            / 1e9
    }

    /// Stream cache bandwidth in GB/s (64 GB/s).
    pub fn cache_gbps(&self) -> f64 {
        self.cache_words_per_cycle as f64 * WORD_BYTES as f64 * self.clock_hz / 1e9
    }

    /// Stream cache capacity in bytes (512 KB).
    pub fn cache_bytes(&self) -> u64 {
        self.cache_words as u64 * WORD_BYTES
    }

    /// Peak DRAM bandwidth in GB/s (38.4 GB/s).
    pub fn dram_peak_gbps(&self) -> f64 {
        self.dram_peak_words_per_cycle * WORD_BYTES as f64 * self.clock_hz / 1e9
    }

    /// Random-access DRAM bandwidth in GB/s (16 GB/s).
    pub fn dram_random_gbps(&self) -> f64 {
        self.dram_random_words_per_cycle * WORD_BYTES as f64 * self.clock_hz / 1e9
    }

    /// Cache sets implied by capacity, line length, associativity and
    /// banking. Lines are interleaved across banks.
    pub fn cache_sets(&self) -> usize {
        self.cache_words / (self.cache_line_words * self.cache_ways)
    }

    /// Convert a cycle count at the node clock into seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// GFLOPS achieved by `flops` useful operations in `cycles` cycles.
    pub fn gflops(&self, flops: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        flops as f64 / self.cycles_to_seconds(cycles) / 1e9
    }
}

/// Parameters of the Merrimac interconnection network (paper Section 2.3).
///
/// The network is a five-stage folded Clos: on-board routers form the first
/// and last stage, backplane routers the second and fourth, and the
/// system-level switch the middle stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Nodes (stream processors) per board (16).
    pub nodes_per_board: usize,
    /// Router chips per board (4).
    pub routers_per_board: usize,
    /// Channels from each on-board router to each processor (2).
    pub channels_per_node_per_router: usize,
    /// Payload bandwidth of one channel in GB/s (2.5 GB/s).
    pub channel_gbps: f64,
    /// Channels from each board router up to the backplane (8).
    pub uplinks_per_router: usize,
    /// Boards per backplane (cabinet) (32).
    pub boards_per_backplane: usize,
    /// Backplanes connected by the system-level switch (up to 16 for the
    /// 2 PFLOPS configuration; the topology admits 48).
    pub backplanes: usize,
    /// Per-hop router latency in core cycles.
    pub hop_latency_cycles: u64,
    /// One-way wire/serialization latency between boards in core cycles
    /// (includes the optical OE/EO crossing at the system level).
    pub board_wire_latency_cycles: u64,
    pub system_wire_latency_cycles: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            nodes_per_board: 16,
            routers_per_board: 4,
            channels_per_node_per_router: 2,
            channel_gbps: 2.5,
            uplinks_per_router: 8,
            boards_per_backplane: 32,
            backplanes: 16,
            hop_latency_cycles: 20,
            board_wire_latency_cycles: 50,
            system_wire_latency_cycles: 500,
        }
    }
}

impl NetworkConfig {
    /// Flat on-board memory bandwidth available to each node in GB/s
    /// (paper: 20 GB/s per node — 2 channels to each of 4 routers).
    pub fn node_injection_gbps(&self) -> f64 {
        self.routers_per_board as f64 * self.channels_per_node_per_router as f64 * self.channel_gbps
    }

    /// Total nodes in the configured system.
    pub fn total_nodes(&self) -> usize {
        self.nodes_per_board * self.boards_per_backplane * self.backplanes
    }

    /// Aggregate uplink bandwidth leaving one board, GB/s.
    pub fn board_uplink_gbps(&self) -> f64 {
        self.routers_per_board as f64 * self.uplinks_per_router as f64 * self.channel_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let m = MachineConfig::default();
        assert_eq!(m.clusters, 16);
        assert_eq!(m.total_fpus(), 64);
        assert_eq!(m.peak_flops_per_cycle(), 128);
        assert!((m.peak_gflops() - 128.0).abs() < 1e-9);
        assert_eq!(m.cache_banks, 8);
        assert_eq!(m.address_generators, 2);
        assert_eq!(m.addresses_per_cycle, 8);
        assert_eq!(m.scatter_add_latency, 4);
        assert_eq!(m.combining_store_entries, 8);
        assert_eq!(m.dram_channels, 2);
    }

    #[test]
    fn derived_bandwidths_match_section2() {
        let m = MachineConfig::default();
        assert!(
            (m.srf_gbps() - 512.0).abs() < 1e-9,
            "SRF bw {}",
            m.srf_gbps()
        );
        assert!((m.cache_gbps() - 64.0).abs() < 1e-9);
        assert!((m.dram_peak_gbps() - 38.4).abs() < 1e-9);
        assert!((m.dram_random_gbps() - 16.0).abs() < 1e-9);
        assert_eq!(m.srf_bytes(), 1024 * 1024);
        assert_eq!(m.cache_bytes(), 512 * 1024);
    }

    #[test]
    fn cache_geometry_is_consistent() {
        let m = MachineConfig::default();
        let sets = m.cache_sets();
        assert_eq!(sets * m.cache_line_words * m.cache_ways, m.cache_words);
        assert!(sets.is_power_of_two());
    }

    #[test]
    fn gflops_helper() {
        let m = MachineConfig::default();
        // 128 flops every cycle for 1000 cycles = peak.
        assert!((m.gflops(128_000, 1000) - 128.0).abs() < 1e-9);
        assert_eq!(m.gflops(1, 0), 0.0);
    }

    #[test]
    fn network_defaults_match_section23() {
        let n = NetworkConfig::default();
        assert!((n.node_injection_gbps() - 20.0).abs() < 1e-9);
        assert_eq!(n.total_nodes(), 8192);
        assert!((n.board_uplink_gbps() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn clone_and_eq() {
        let m = MachineConfig::default();
        assert_eq!(m.clone(), m);
        let n = NetworkConfig::default();
        assert_eq!(n.clone(), n);
    }
}
