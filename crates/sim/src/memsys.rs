//! Memory-system timing: address generators, stream cache, DRDRAM
//! channels and the scatter-add pipeline.
//!
//! Every stream memory operation is costed from first principles:
//!
//! * the two address generators produce up to 8 single-word addresses per
//!   cycle (Table 1), bounding any gather/scatter to 8 words/cycle;
//! * the stream cache sustains 8 words per cycle across its banks; the
//!   op's address trace — one contiguous run of words per record — is
//!   run through the [`StreamCache`] model to split hits from misses;
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
//!
//! Cache and combining store are both priced per *line segment* of a
//! record, never per word; the per-word model they must reproduce op
//! for op is the test-only `reference` module at the end of this file.

use merrimac_arch::MachineConfig;

use crate::cache::{CacheAccessStats, Segment, StreamCache};
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
    combining: CombiningStore,
}

/// The scatter-add units' combining stores: per bank, a FIFO window of
/// the last `window` word addresses that bank's unit added to. An add
/// to an address still in its bank's window merges for free; any other
/// add occupies the unit and enters the window, evicting the oldest
/// entry of a full one. `window == 0` disables combining. The windows
/// live for one scatter-add op.
///
/// A window is held as a ring of the bank's last `window` pushed runs,
/// one per performed segment add, each `(first address, position)` —
/// the words performed before it. Only those runs can still be in the
/// window, and one is wholly in it iff `position + window ≥ load`
/// (DESIGN.md, "Memory timing").
#[derive(Debug, Clone)]
struct CombiningStore {
    window: usize,
    /// `window` run slots per bank; bank `b` owns `b * window ..`.
    slots: Vec<(u64, u64)>,
    /// Runs each bank's unit pushed: the next goes to slot `runs % window`.
    runs: Vec<usize>,
    /// Adds each bank's unit performed (the ones that did not merge).
    load: Vec<u64>,
}

impl CombiningStore {
    fn new(banks: usize, window: usize) -> Self {
        Self {
            window,
            slots: vec![(0, 0); banks * window],
            runs: vec![0; banks],
            load: vec![0; banks],
        }
    }

    /// Empty every window and zero the loads, for the next op.
    fn reset(&mut self) {
        self.runs.fill(0);
        self.load.fill(0);
    }

    /// Adds to the consecutive words of one line segment: all merge if a
    /// run of the segment is wholly in its bank's window, else all are
    /// performed and pushed as a run. Returns whether they merged. Whole
    /// segments are exact: within one op a segment's words are fixed by
    /// its record and line, enter the window together in address order
    /// and leave it oldest — lowest — first. So the window holds all,
    /// none, or (full, as its oldest entries) a proper suffix of them,
    /// which the per-word rule evicts ahead of each lookup while it
    /// pushes the absent prefix.
    fn add_segment(&mut self, segment: Segment) -> bool {
        let (bank, first, window) = (segment.bank, segment.first, self.window);
        let (load, pushed) = (self.load[bank], self.runs[bank]);
        let ring = &mut self.slots[bank * window..][..window];
        let whole = |&(f, at): &(u64, u64)| f == first && at + window as u64 >= load;
        if ring[..pushed.min(window)].iter().any(whole) {
            return true;
        }
        if window > 0 {
            ring[pushed % window] = (first, load);
        }
        self.runs[bank] += 1;
        self.load[bank] += segment.words;
        false
    }
}

impl MemSystem {
    pub fn new(cfg: &MachineConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            cache: StreamCache::new(cfg),
            stats: CacheAccessStats::default(),
            combining: CombiningStore::new(cfg.cache_banks, cfg.combining_store_entries),
        }
    }

    /// A per-strip shard of the memory system for the parallel timing
    /// pass: a cold cache whose state is private to one strip.
    ///
    /// Sharding contract: each strip's memory ops are costed in op-index
    /// order against a cold shard (a worker's, [`Self::flush_cache`]d
    /// first), so its costs depend only on its own address trace. Each
    /// cost carries its own [`CacheAccessStats`]; a report merges those
    /// of the ops it times (`u64` sums and a max, order-insensitive).
    pub fn strip_shard(cfg: &MachineConfig) -> Self {
        Self::new(cfg)
    }

    /// Cumulative cache behaviour over every op costed so far.
    pub fn stats(&self) -> CacheAccessStats {
        self.stats
    }

    /// Back to a new memory system's state, a cold cache and zero
    /// statistics, keeping the storage.
    pub fn flush_cache(&mut self) {
        self.cache.flush();
        self.stats = CacheAccessStats::default();
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

    /// Fold one op's cache trace into the running stats and price it:
    /// misses and writebacks move whole lines over the DRAM pins.
    fn traced_cost(
        &mut self,
        cache: CacheAccessStats,
        words: u64,
        addresses: u64,
        random: bool,
    ) -> MemOpCost {
        self.stats.merge(&cache);
        let dram_words = (cache.misses + cache.writebacks) * self.line_words();
        MemOpCost {
            cycles: self.throughput_cycles(words, addresses, dram_words, random),
            words,
            addresses,
            cache,
            dram_words,
        }
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
            let cache = self.cache.access_runs(
                record_runs(mem, region, record_len, indices),
                write,
                |_| true,
            );
            return self.traced_cost(cache, words, words, true);
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
        let first = mem.word_address(region, (start * record_len) as u64);
        let cache = self
            .cache
            .access_runs(std::iter::once((first, words, 1)), write, |_| true);
        // Strided transfers need one address per record, not per word.
        self.traced_cost(cache, words, records as u64, false)
    }

    /// Cost a scatter-add of `indices.len()` records. Each line segment
    /// of each record goes once through the cache (read-modify-write
    /// marks lines dirty) and then its bank's combining store, where an
    /// add to an address still in the window merges for free. A run of
    /// equal consecutive indices is settled — repeated in bulk — once an
    /// add of its record hits every line and merges every word.
    pub fn scatter_add_cost(
        &mut self,
        mem: &Memory,
        region: RegionId,
        record_len: usize,
        indices: &[u32],
    ) -> MemOpCost {
        let words = (indices.len() * record_len) as u64;
        let combining = &mut self.combining;
        combining.reset();
        let runs = record_runs(mem, region, record_len, indices);
        let cache = self
            .cache
            .access_runs(runs, true, |segment| combining.add_segment(segment));
        let mut cost = self.traced_cost(cache, words, words, true);

        let units = self.cfg.scatter_add_units_per_bank.max(1) as u64;
        let bank_cycles = self
            .combining
            .load
            .iter()
            .map(|&l| l.div_ceil(units))
            .max()
            .unwrap_or(0);
        cost.cycles = cost.cycles.max(bank_cycles) + self.cfg.scatter_add_latency;
        cost
    }
}

/// The word runs `(first address, record_len, copies)` of an indexed op's
/// records, in index order, equal consecutive indices as one run.
fn record_runs<'a>(
    mem: &'a Memory,
    region: RegionId,
    record_len: usize,
    indices: &'a [u32],
) -> impl Iterator<Item = (u64, u64, u64)> + 'a {
    let len = record_len as u64;
    indices.chunk_by(|a, b| a == b).map(move |run| {
        let first = mem.word_address(region, run[0] as u64 * len);
        (first, len, run.len() as u64)
    })
}

/// The per-word pricing the production methods above must reproduce
/// op for op: every word address goes through the per-word cache model
/// ([`crate::cache::reference`]) and a double-ended-queue combining window.
/// Test-only; `tests::run_pricing_equals_per_word_model` is the
/// differential test against it.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::*;
    use crate::cache::reference::access_trace;

    fn word_addresses<'a>(
        mem: &'a Memory,
        region: RegionId,
        record_len: usize,
        indices: &'a [u32],
    ) -> impl Iterator<Item = u64> + 'a {
        indices
            .iter()
            .flat_map(move |&i| {
                let base = i as u64 * record_len as u64;
                (0..record_len as u64).map(move |f| base + f)
            })
            .map(move |w| mem.word_address(region, w))
    }

    impl MemSystem {
        pub(super) fn gather_cost_per_word(
            &mut self,
            mem: &Memory,
            region: RegionId,
            record_len: usize,
            indices: &[u32],
            write: bool,
        ) -> MemOpCost {
            if !self.cfg.cache_allocates_gathers {
                // Non-allocating gathers never reach the cache.
                return self.gather_cost(mem, region, record_len, indices, write);
            }
            let words = (indices.len() * record_len) as u64;
            let trace = word_addresses(mem, region, record_len, indices);
            let cache = access_trace(&mut self.cache, trace, write);
            self.traced_cost(cache, words, words, true)
        }

        pub(super) fn sequential_cost_per_word(
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
            let cache = access_trace(&mut self.cache, trace, write);
            self.traced_cost(cache, words, records as u64, false)
        }

        pub(super) fn scatter_add_cost_per_word(
            &mut self,
            mem: &Memory,
            region: RegionId,
            record_len: usize,
            indices: &[u32],
        ) -> MemOpCost {
            let words = (indices.len() * record_len) as u64;
            let addrs: Vec<u64> = word_addresses(mem, region, record_len, indices).collect();
            let cache = access_trace(&mut self.cache, addrs.iter().copied(), true);
            let mut cost = self.traced_cost(cache, words, words, true);

            let banks = self.cfg.cache_banks;
            let window = self.cfg.combining_store_entries;
            let units = self.cfg.scatter_add_units_per_bank.max(1) as u64;
            let mut bank_load = vec![0u64; banks];
            let mut windows: Vec<VecDeque<u64>> = vec![VecDeque::with_capacity(window); banks];
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
            cost.cycles = cost.cycles.max(bank_cycles) + self.cfg.scatter_add_latency;
            cost
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    #[test]
    fn empty_index_streams_cost_only_the_fixed_latency() {
        let (mut ms, mem, r) = setup(64);
        let gather = ms.gather_cost(&mem, r, 9, &[], false);
        assert_eq!((gather.cycles, gather.words), (0, 0));
        let scatter = ms.scatter_add_cost(&mem, r, 9, &[]);
        assert_eq!(scatter.cycles, MachineConfig::default().scatter_add_latency);
        assert_eq!(scatter.cache, CacheAccessStats::default());
        assert_eq!(ms.sequential_cost(&mem, r, 9, 3, 0, true).words, 0);
        assert_eq!(ms.stats(), CacheAccessStats::default());
    }

    /// One memory op of the differential test, over a region of
    /// `RECORDS` records: an index stream or a `(start, records)` range.
    #[derive(Debug, Clone)]
    enum Op {
        Gather(Vec<u32>, bool),
        ScatterAdd(Vec<u32>),
        Sequential(usize, usize, bool),
    }

    const RECORDS: u32 = 96;

    /// Index streams with repeats (a small range), hot spots (half the
    /// draws land on three records) and runs of one index 1–40 long (a
    /// quarter of the draws), which take the bulk-repeat path.
    fn indices() -> impl Strategy<Value = Vec<u32>> {
        let draw = (0u32..RECORDS, 0u32..6, 0u32..4, 1usize..41);
        prop::collection::vec(draw, 0..120).prop_map(|draws| {
            draws
                .into_iter()
                .flat_map(|(i, hot, runs, len)| {
                    let i = if hot < 3 { 7 + hot } else { i };
                    std::iter::repeat_n(i, if runs == 0 { len } else { 1 })
                })
                .collect()
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..4, indices(), 0usize..RECORDS as usize, 0u32..2).prop_map(
            |(kind, idx, start, write)| match kind {
                0 => Op::Gather(idx, write == 1),
                1 | 2 => Op::ScatterAdd(idx),
                _ => Op::Sequential(start, idx.len().min(RECORDS as usize - start), write == 1),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Sequences of gather / load / scatter-add / store ops on one
        /// warm `MemSystem` price exactly as the per-word model does, op
        /// by op, and leave the same cache lines, LRU stamps included
        /// (a bulk repeat shifts stamps without reordering them, which
        /// no later cost would show).
        #[test]
        fn run_pricing_equals_per_word_model(
            // 3-word lines (and most bank counts) take the dividing
            // arm of the address → line → bank mapping, not the shift.
            line_words in prop::sample::select(vec![1usize, 3, 4, 8]),
            (ways, banks) in (prop::sample::select(vec![1usize, 2, 4]), 1usize..9),
            window in prop::sample::select(vec![0usize, 1, 8, 16]),
            units in 1usize..3,
            // Up to 20 words: a record spans three or more 3-, 4- or
            // 8-word lines and can put two segments in one bank.
            record_len in 1usize..21,
            ops in prop::collection::vec(op(), 1..10),
            // Unbounded address, cache and DRAM rates leave a scatter-add
            // costing its busiest bank's load, which the other terms
            // would otherwise often hide.
            bank_bound in 0u32..2,
        ) {
            // A 16-set cache: small enough that the traces evict.
            let fast = |rate| if bank_bound == 1 { 1 << 30 } else { rate };
            let cfg = MachineConfig {
                cache_line_words: line_words,
                cache_ways: ways,
                cache_words: 16 * ways * line_words,
                cache_banks: banks,
                combining_store_entries: window,
                scatter_add_units_per_bank: units,
                cache_allocates_gathers: true,
                addresses_per_cycle: fast(8),
                cache_words_per_cycle: fast(8),
                dram_random_words_per_cycle: fast(2) as f64,
                ..MachineConfig::default()
            };
            let mut mem = Memory::new();
            mem.region("pad", vec![0.0; 13]);
            let r = mem.region("r", vec![0.0; RECORDS as usize * record_len]);
            let (mut ms, mut oracle) = (MemSystem::new(&cfg), MemSystem::new(&cfg));
            for op in &ops {
                let (got, want) = match op {
                    Op::Gather(idx, write) => (
                        ms.gather_cost(&mem, r, record_len, idx, *write),
                        oracle.gather_cost_per_word(&mem, r, record_len, idx, *write),
                    ),
                    Op::ScatterAdd(idx) => (
                        ms.scatter_add_cost(&mem, r, record_len, idx),
                        oracle.scatter_add_cost_per_word(&mem, r, record_len, idx),
                    ),
                    Op::Sequential(start, n, write) => (
                        ms.sequential_cost(&mem, r, record_len, *start, *n, *write),
                        oracle.sequential_cost_per_word(&mem, r, record_len, *start, *n, *write),
                    ),
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(ms.stats(), oracle.stats());
                prop_assert!(ms.cache.same_state(&oracle.cache));
            }
        }
    }

    /// The memory ops of strip `strip` of a program shaped like the paper
    /// box's `expanded` one, priced in op order on `ms`: three index
    /// loads of 910 words, three gathers and two scatter-adds of 910
    /// nine-word records into 902 molecules' forces — the centre stream
    /// eight runs of one index, the neighbour stream over 284 molecules
    /// with no index twice in a row.
    fn price_paper_strip(ms: &mut MemSystem, mem: &Memory, strip: u32) -> Vec<MemOpCost> {
        let (index, positions, forces) = (RegionId(0), RegionId(1), RegionId(2));
        let centre: Vec<u32> = (0..910).map(|k| (8 * strip + k / 114) % 900).collect();
        let neighbour: Vec<u32> = (0..910).map(|k| (k * 37 + strip * 101) % 284 * 3).collect();
        let mut costs: Vec<MemOpCost> = (0..3)
            .map(|s| ms.sequential_cost(mem, index, 1, (3 * strip as usize + s) * 910, 910, false))
            .collect();
        for idx in [&centre, &centre, &neighbour] {
            costs.push(ms.gather_cost(mem, positions, 9, idx, false));
        }
        costs.push(ms.scatter_add_cost(mem, forces, 9, &centre));
        costs.push(ms.scatter_add_cost(mem, forces, 9, &neighbour));
        costs
    }

    #[test]
    fn a_reset_shard_prices_a_strip_as_a_fresh_one_does() {
        let cfg = MachineConfig::default();
        let mut mem = Memory::new();
        mem.region("index", vec![0.0; 18 * 910]);
        mem.region("positions", vec![0.0; 900 * 9]);
        mem.region("forces", vec![0.0; 902 * 9]);
        let mut worker = MemSystem::strip_shard(&cfg);
        for strip in 0..6 {
            worker.flush_cache();
            let mut fresh = MemSystem::strip_shard(&cfg);
            let want = price_paper_strip(&mut fresh, &mem, strip);
            assert_eq!(price_paper_strip(&mut worker, &mem, strip), want);
            assert_eq!(worker.stats(), fresh.stats());
            assert!(
                want[7].cache.hits > 0,
                "the neighbour scatter revisits lines"
            );
        }
    }
}
