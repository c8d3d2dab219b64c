//! Memory-system timing: address generators, stream cache, DRDRAM
//! channels and the scatter-add pipeline.
//!
//! Every stream memory operation is costed from first principles:
//!
//! * the two address generators produce up to 8 single-word addresses per
//!   cycle (Table 1), bounding any gather/scatter to 8 words/cycle;
//! * the stream cache sustains 8 words per cycle across its banks; the
//!   actual address trace is run through the [`StreamCache`] model to
//!   split hits from misses;
//! * misses and writebacks move whole lines over the DRDRAM interface at
//!   the random-access rate for gathers/scatters (2 words/cycle) or the
//!   streaming rate for unit-stride transfers (4.8 words/cycle);
//! * scatter-add funnels through one functional unit per cache bank, with
//!   a combining store that merges adds to the same word within a sliding
//!   window (Section 2.2), relieving both bank pressure and read-modify-
//!   write traffic.
//!
//! The returned cost is the max of the bottleneck terms — the standard
//! throughput composition for decoupled stream memory systems.

use merrimac_arch::MachineConfig;

use crate::cache::{CacheAccessStats, StreamCache};
use crate::program::{Memory, RegionId, StreamOp};

/// Cost and traffic of one stream memory operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemOpCost {
    /// Occupancy of the memory pipeline in cycles (excluding the fixed
    /// stream start-up the machine model adds).
    pub cycles: u64,
    /// Words transferred between SRF and the memory system.
    pub words: u64,
    /// Single-word addresses generated.
    pub addresses: u64,
    /// Cache behaviour of the trace.
    pub cache: CacheAccessStats,
    /// Words moved on the DRAM pins (line fills + writebacks).
    pub dram_words: u64,
}

/// The node memory system (shared cache state across operations).
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MachineConfig,
    cache: StreamCache,
    /// Cumulative cache behaviour over every op costed so far.
    stats: CacheAccessStats,
}

impl MemSystem {
    pub fn new(cfg: &MachineConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            cache: StreamCache::new(cfg),
            stats: CacheAccessStats::default(),
        }
    }

    /// A per-strip shard of the memory system for the parallel timing
    /// pass: a cold cache whose state is private to one strip.
    ///
    /// Sharding contract: each strip's memory ops are costed against its
    /// own shard in op-index order, so a strip's costs depend only on
    /// that strip's address trace — never on which thread ran it or when.
    /// The shards' [`CacheAccessStats`] are merged in ascending strip
    /// order with [`CacheAccessStats::merge`] (plain `u64` sums plus a
    /// max, both order-insensitive), making the aggregate bitwise-
    /// identical at every host thread count.
    pub fn strip_shard(cfg: &MachineConfig) -> Self {
        Self::new(cfg)
    }

    /// Cumulative cache behaviour over every op costed so far.
    pub fn stats(&self) -> CacheAccessStats {
        self.stats
    }

    /// Reset cache contents.
    pub fn flush_cache(&mut self) {
        self.cache.flush();
    }

    /// Price one stream op against this memory system's cache state.
    /// Address-based throughout: region data is never read. A store
    /// moves as many records as its source stream held when it ran
    /// (`store_records`); a kernel moves nothing through the memory
    /// system.
    pub(crate) fn op_cost(
        &mut self,
        mem: &Memory,
        op: &StreamOp,
        store_records: usize,
    ) -> MemOpCost {
        match op {
            StreamOp::Gather {
                region,
                record_len,
                indices,
                ..
            } => self.gather_cost(mem, *region, *record_len, indices, false),
            StreamOp::Load {
                region,
                record_len,
                start,
                records,
                ..
            } => self.sequential_cost(mem, *region, *record_len, *start, *records, false),
            StreamOp::ScatterAdd {
                region,
                record_len,
                indices,
                ..
            } => self.scatter_add_cost(mem, *region, *record_len, indices),
            StreamOp::Store {
                region,
                record_len,
                start,
                ..
            } => self.sequential_cost(mem, *region, *record_len, *start, store_records, true),
            StreamOp::Kernel { .. } => MemOpCost {
                cycles: 0,
                words: 0,
                addresses: 0,
                cache: CacheAccessStats::default(),
                dram_words: 0,
            },
        }
    }

    fn line_words(&self) -> u64 {
        self.cfg.cache_line_words as u64
    }

    fn throughput_cycles(&self, words: u64, addresses: u64, dram_words: u64, random: bool) -> u64 {
        let ag = addresses.div_ceil(self.cfg.addresses_per_cycle as u64);
        let cache = words.div_ceil(self.cfg.cache_words_per_cycle as u64);
        let dram_rate = if random {
            self.cfg.dram_random_words_per_cycle
        } else {
            self.cfg.dram_peak_words_per_cycle
        };
        let dram = (dram_words as f64 / dram_rate).ceil() as u64;
        ag.max(cache).max(dram)
    }

    /// Cost an indexed gather of `indices.len()` records of `record_len`
    /// words.
    ///
    /// By default gathers are *non-allocating*: bulk position streams
    /// have no short-term reuse inside one stream memory operation, so
    /// they bypass the stream cache and pay the DRDRAM random-access
    /// bandwidth. This matches the paper's measurement that memory and
    /// SRF reference counts are nearly equal (Figure 8) — the hierarchy
    /// captures no long-term producer-consumer locality for StreamMD.
    /// Set [`MachineConfig::cache_allocates_gathers`] for the cached
    /// ablation.
    pub fn gather_cost(
        &mut self,
        mem: &Memory,
        region: RegionId,
        record_len: usize,
        indices: &[u32],
        write: bool,
    ) -> MemOpCost {
        let words = (indices.len() * record_len) as u64;
        if self.cfg.cache_allocates_gathers {
            let addrs = indices.iter().flat_map(|&i| {
                let base = i as u64 * record_len as u64;
                (0..record_len as u64).map(move |f| base + f)
            });
            let trace = addrs.map(|w| mem.word_address(region, w));
            let cache = self.cache.access_trace(trace, write);
            self.stats.merge(&cache);
            let dram_words = (cache.misses + cache.writebacks) * self.line_words();
            let cycles = self.throughput_cycles(words, words, dram_words, true);
            return MemOpCost {
                cycles,
                words,
                addresses: words,
                cache,
                dram_words,
            };
        }
        let cache = crate::cache::CacheAccessStats {
            accesses: words,
            misses: words / self.line_words().max(1),
            ..Default::default()
        };
        self.stats.merge(&cache);
        let cycles = self.throughput_cycles(words, words, words, true);
        MemOpCost {
            cycles,
            words,
            addresses: words,
            cache,
            dram_words: words,
        }
    }

    /// Cost a unit-stride load/store of `records` records starting at
    /// record `start`.
    pub fn sequential_cost(
        &mut self,
        mem: &Memory,
        region: RegionId,
        record_len: usize,
        start: usize,
        records: usize,
        write: bool,
    ) -> MemOpCost {
        let words = (records * record_len) as u64;
        let base = (start * record_len) as u64;
        let trace = (base..base + words).map(|w| mem.word_address(region, w));
        let cache = self.cache.access_trace(trace, write);
        self.stats.merge(&cache);
        let dram_words = (cache.misses + cache.writebacks) * self.line_words();
        // Strided transfers need one address per record, not per word.
        let addresses = records as u64;
        let cycles = self.throughput_cycles(words, addresses, dram_words, false);
        MemOpCost {
            cycles,
            words,
            addresses,
            cache,
            dram_words,
        }
    }

    /// Cost a scatter-add of `indices.len()` records. Bank pressure and
    /// combining are modelled per word address.
    pub fn scatter_add_cost(
        &mut self,
        mem: &Memory,
        region: RegionId,
        record_len: usize,
        indices: &[u32],
    ) -> MemOpCost {
        let words = (indices.len() * record_len) as u64;
        // Cache trace (read-modify-write marks lines dirty).
        let addrs: Vec<u64> = indices
            .iter()
            .flat_map(|&i| {
                let base = i as u64 * record_len as u64;
                (0..record_len as u64).map(move |f| base + f)
            })
            .map(|w| mem.word_address(region, w))
            .collect();
        let cache = self.cache.access_trace(addrs.iter().copied(), true);
        self.stats.merge(&cache);
        let dram_words = (cache.misses + cache.writebacks) * self.line_words();

        // Per-bank scatter-add pressure with a combining window: an add
        // matching an address already in the bank's combining store merges
        // for free.
        let banks = self.cfg.cache_banks;
        let window = self.cfg.combining_store_entries;
        let units = self.cfg.scatter_add_units_per_bank.max(1) as u64;
        let mut bank_load = vec![0u64; banks];
        let mut windows: Vec<std::collections::VecDeque<u64>> =
            vec![std::collections::VecDeque::with_capacity(window); banks];
        for &a in &addrs {
            let b = ((a / self.line_words()) % banks as u64) as usize;
            if window > 0 && windows[b].contains(&a) {
                continue; // combined
            }
            if window > 0 {
                if windows[b].len() == window {
                    windows[b].pop_front();
                }
                windows[b].push_back(a);
            }
            bank_load[b] += 1;
        }
        let bank_cycles = bank_load
            .iter()
            .map(|&l| l.div_ceil(units))
            .max()
            .unwrap_or(0);
        let base = self.throughput_cycles(words, words, dram_words, true);
        let cycles = base.max(bank_cycles) + self.cfg.scatter_add_latency;
        MemOpCost {
            cycles,
            words,
            addresses: words,
            cache,
            dram_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(words: usize) -> (MemSystem, Memory, RegionId) {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let r = mem.region("r", vec![0.0; words]);
        (MemSystem::new(&cfg), mem, r)
    }

    #[test]
    fn gather_bounded_by_address_rate_when_cached() {
        // With the cached-gather ablation enabled, a warm gather runs at
        // the 8 words/cycle cache rate.
        let cfg = MachineConfig {
            cache_allocates_gathers: true,
            ..MachineConfig::default()
        };
        let mut ms = MemSystem::new(&cfg);
        let mut mem = Memory::new();
        let r = mem.region("r", vec![0.0; 8192]);
        let idx: Vec<u32> = (0..512u32).collect();
        ms.gather_cost(&mem, r, 9, &idx, false);
        let cost = ms.gather_cost(&mem, r, 9, &idx, false);
        assert_eq!(cost.cache.misses, 0);
        assert_eq!(cost.cycles, cost.words.div_ceil(8));
    }

    #[test]
    fn default_gather_pays_dram_random_bandwidth() {
        // Non-allocating default: every gathered word crosses the DRAM
        // pins at 2 words/cycle regardless of reuse.
        let (mut ms, mem, r) = setup(8192);
        let idx: Vec<u32> = (0..512u32).collect();
        ms.gather_cost(&mem, r, 9, &idx, false);
        let cost = ms.gather_cost(&mem, r, 9, &idx, false);
        assert_eq!(cost.dram_words, cost.words);
        assert_eq!(cost.cycles, (cost.words as f64 / 2.0).ceil() as u64);
    }

    #[test]
    fn cold_gather_bounded_by_dram() {
        let (mut ms, mem, r) = setup(100_000);
        let idx: Vec<u32> = (0..10_000u32).collect();
        let cost = ms.gather_cost(&mem, r, 9, &idx, false);
        assert!(cost.cache.misses > 0);
        // DRAM term must exceed the pure cache term.
        assert!(cost.cycles > cost.words.div_ceil(8));
    }

    #[test]
    fn sequential_uses_peak_dram_rate() {
        let (mut ms, mem, r) = setup(100_000);
        let seq = ms.sequential_cost(&mem, r, 8, 0, 12_500, false);
        ms.flush_cache();
        let idx: Vec<u32> = (0..12_500u32).collect();
        let gat = ms.gather_cost(&mem, r, 8, &idx, false);
        assert_eq!(seq.words, gat.words);
        assert!(
            seq.cycles < gat.cycles,
            "sequential {} should beat random {}",
            seq.cycles,
            gat.cycles
        );
    }

    #[test]
    fn scatter_add_combining_reduces_hot_spot_cost() {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        let r = mem.region("f", vec![0.0; 1024]);
        // All adds to the same record: combining should collapse them.
        let hot: Vec<u32> = vec![7; 4096];
        let mut with = MemSystem::new(&cfg);
        let c_with = with.scatter_add_cost(&mem, r, 1, &hot);

        let mut cfg_no = cfg.clone();
        cfg_no.combining_store_entries = 0;
        let mut without = MemSystem::new(&cfg_no);
        let c_without = without.scatter_add_cost(&mem, r, 1, &hot);
        assert!(
            c_with.cycles * 4 < c_without.cycles,
            "combining {} vs none {}",
            c_with.cycles,
            c_without.cycles
        );
    }

    #[test]
    fn scatter_add_includes_unit_latency() {
        let (mut ms, mem, r) = setup(64);
        let cost = ms.scatter_add_cost(&mem, r, 1, &[0]);
        assert!(cost.cycles >= MachineConfig::default().scatter_add_latency);
    }

    #[test]
    fn cumulative_stats_sum_per_op_cache_behaviour() {
        let (mut ms, mem, r) = setup(65_536);
        let a = ms.sequential_cost(&mem, r, 8, 0, 512, false);
        let b = ms.sequential_cost(&mem, r, 8, 512, 512, true);
        let mut expect = CacheAccessStats::default();
        expect.merge(&a.cache);
        expect.merge(&b.cache);
        assert_eq!(ms.stats(), expect);
        // A fresh strip shard starts with zeroed stats and a cold cache.
        let shard = MemSystem::strip_shard(&MachineConfig::default());
        assert_eq!(shard.stats(), CacheAccessStats::default());
    }

    #[test]
    fn costs_scale_with_words() {
        let (mut ms, mem, r) = setup(65_536);
        let small: Vec<u32> = (0..64u32).collect();
        let large: Vec<u32> = (0..4096u32).collect();
        let cs = ms.gather_cost(&mem, r, 9, &small, false);
        ms.flush_cache();
        let cl = ms.gather_cost(&mem, r, 9, &large, false);
        assert!(cl.cycles > cs.cycles * 16);
        assert_eq!(cl.words, 4096 * 9);
    }
}
