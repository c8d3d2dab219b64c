//! The node's stream cache: 64 KWords, 8 line-interleaved banks,
//! set-associative with LRU replacement.
//!
//! The cache sits between the address generators and the external DRDRAM
//! (Section 2.2). Gathers whose indices revisit recently-touched
//! molecules hit in the cache and avoid DRAM traffic; the simulator runs
//! every stream memory operation's address trace through this model to
//! obtain hit/miss counts and per-bank pressure.
//!
//! Stream memory operations move *records* — runs of contiguous words —
//! so the model is priced per **line segment** (the words of one run on
//! one line): one lookup that advances the LRU clock, the counts and the
//! bank load by the segment's `k` words leaves exactly the state and the
//! statistics of `k` single-word lookups (DESIGN.md, "Memory timing").
//! The per-word model survives as the test-only `reference` module.

use merrimac_arch::MachineConfig;

/// Statistics of one address-trace pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheAccessStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    /// Dirty lines written back to DRAM.
    pub writebacks: u64,
    /// Largest number of accesses landing on a single bank (for the bank
    /// conflict bound).
    pub max_bank_load: u64,
}

impl CacheAccessStats {
    pub fn merge(&mut self, o: &CacheAccessStats) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.misses += o.misses;
        self.writebacks += o.writebacks;
        self.max_bank_load = self.max_bank_load.max(o.max_bank_load);
    }
}

/// Line state. A line is valid while its generation is the cache's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    generation: u32,
    dirty: bool,
    /// LRU stamp.
    used: u64,
}

/// Division by a cache-shape constant. A line lookup is a handful of
/// instructions, so the two `div`s that map an address to its line and
/// bank would dominate it; every shipped shape is a power of two, where
/// a shift or a mask does the same, and any other shape divides.
#[derive(Debug, Clone, Copy)]
struct ShapeDiv {
    by: u64,
    shift: Option<u32>,
}

impl ShapeDiv {
    fn new(by: usize) -> Self {
        let by = by as u64;
        Self {
            by,
            shift: by.is_power_of_two().then(|| by.trailing_zeros()),
        }
    }

    fn quot(self, x: u64) -> u64 {
        match self.shift {
            Some(shift) => x >> shift,
            None => x / self.by,
        }
    }

    fn rem(self, x: u64) -> u64 {
        match self.shift {
            Some(_) => x & (self.by - 1),
            None => x % self.by,
        }
    }
}

/// The words of one run that fall on one line: at least one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    /// Line address (word address ÷ line words).
    pub line: u64,
    /// Bank the line lives in.
    pub bank: usize,
    /// First word address.
    pub first: u64,
    pub words: u64,
}

/// A set-associative, line-interleaved cache model.
#[derive(Debug, Clone)]
pub struct StreamCache {
    line_words: ShapeDiv,
    banks: ShapeDiv,
    ways: usize,
    sets: usize,
    lines: Vec<Line>,
    /// The valid lines' generation (0 is none's); a flush starts a new one.
    generation: u32,
    clock: u64,
    /// Accesses per bank of the trace in progress; every trace zeroes it
    /// first, so it carries nothing from one trace to the next.
    bank_load: Vec<u64>,
}

impl StreamCache {
    pub fn new(cfg: &MachineConfig) -> Self {
        let sets = cfg.cache_sets();
        assert!(sets > 0 && sets.is_power_of_two());
        Self {
            line_words: ShapeDiv::new(cfg.cache_line_words),
            banks: ShapeDiv::new(cfg.cache_banks),
            ways: cfg.cache_ways,
            sets,
            lines: vec![
                Line {
                    tag: 0,
                    generation: 0,
                    dirty: false,
                    used: 0
                };
                sets * cfg.cache_ways
            ],
            generation: 1,
            clock: 0,
            bank_load: vec![0; cfg.cache_banks],
        }
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> u64 {
        (self.sets * self.ways) as u64 * self.line_words.by
    }

    /// The line segments of the word run `start..start + len`, in
    /// address order.
    pub(crate) fn segments(&self, start: u64, len: u64) -> impl Iterator<Item = Segment> {
        let (line_words, banks) = (self.line_words, self.banks);
        let mut line = line_words.quot(start);
        let (mut first, end) = (start, start + len);
        std::iter::from_fn(move || {
            (first < end).then(|| {
                let words = (end - first).min((line + 1) * line_words.by - first);
                let bank = banks.rem(line) as usize;
                let segment = Segment {
                    line,
                    bank,
                    first,
                    words,
                };
                line += 1;
                first += words;
                segment
            })
        })
    }

    /// Run a word-address trace through the cache. `write` marks lines
    /// dirty (stores and scatter-adds). Consecutive ascending addresses
    /// are priced as one run.
    pub fn access_trace(
        &mut self,
        addrs: impl Iterator<Item = u64>,
        write: bool,
    ) -> CacheAccessStats {
        let mut addrs = addrs.peekable();
        let runs = std::iter::from_fn(|| {
            let start = addrs.next()?;
            let mut len = 1;
            while addrs.next_if_eq(&(start + len)).is_some() {
                len += 1;
            }
            Some((start, len, 1))
        });
        self.access_runs(runs, write, |_| true)
    }

    /// Run word runs `(start, len, copies)`, each `copies` times in a row,
    /// through the cache: the result of a single-word access to every
    /// word of every copy in order, at one lookup per line segment.
    /// `settled` sees each segment next and says whether repeating it
    /// would leave the caller's own state (a combining window) as is.
    /// Once a copy hits every line and is settled, so is every later one,
    /// changing only the clock, the counts, the bank loads and the run's
    /// lines' LRU stamps: the rest is one bulk update of those.
    pub(crate) fn access_runs(
        &mut self,
        runs: impl Iterator<Item = (u64, u64, u64)>,
        write: bool,
        mut settled: impl FnMut(Segment) -> bool,
    ) -> CacheAccessStats {
        let mut st = CacheAccessStats::default();
        self.bank_load.fill(0);
        for (start, len, copies) in runs {
            for left in (0..copies).rev() {
                let mut fixed = true;
                for segment in self.segments(start, len) {
                    fixed &= self.touch_line(segment, write, &mut st);
                    fixed &= settled(segment);
                }
                if fixed && left > 0 {
                    let shift = left * len;
                    (self.clock, st.accesses, st.hits) =
                        (self.clock + shift, st.accesses + shift, st.hits + shift);
                    for segment in self.segments(start, len) {
                        self.bank_load[segment.bank] += left * segment.words;
                        let base = self.set_base(segment.line);
                        let (generation, line) = (self.generation, segment.line);
                        let ways = self.lines[base..base + self.ways].iter_mut();
                        ways.filter(|l| l.generation == generation && l.tag == line)
                            .for_each(|l| l.used += shift);
                    }
                    break;
                }
            }
        }
        st.max_bank_load = self.bank_load.iter().copied().max().unwrap_or(0);
        st
    }

    /// The index of the first way of the set `line_addr` maps to.
    fn set_base(&self, line_addr: u64) -> usize {
        // `sets` is a power of two (asserted in `new`).
        (line_addr as usize & (self.sets - 1)) * self.ways
    }

    /// `k ≥ 1` consecutive accesses to one line (only the segment's line,
    /// bank and word count matter). The first one hits, or misses and
    /// replaces the set's LRU victim; the other `k − 1` hit the line it
    /// left most-recently-used, so they only advance the clock, the
    /// counts and the line's LRU stamp. Returns whether the first hit.
    fn touch_line(&mut self, segment: Segment, write: bool, st: &mut CacheAccessStats) -> bool {
        let (line_addr, k) = (segment.line, segment.words);
        self.clock += k;
        st.accesses += k;
        self.bank_load[segment.bank] += k;
        let (base, generation) = (self.set_base(line_addr), self.generation);
        let ways = &mut self.lines[base..base + self.ways];
        let valid = |l: &Line| l.generation == generation;
        if let Some(l) = ways.iter_mut().find(|l| valid(l) && l.tag == line_addr) {
            st.hits += k;
            l.used = self.clock;
            l.dirty |= write;
            return true;
        }
        st.misses += 1;
        st.hits += k - 1;
        // LRU victim.
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if valid(l) { l.used } else { 0 })
            .expect("at least one way");
        if valid(victim) && victim.dirty {
            st.writebacks += 1;
        }
        *victim = Line {
            tag: line_addr,
            generation,
            dirty: write,
            used: self.clock,
        };
        false
    }

    /// Forget all contents (e.g. between independent experiments): from
    /// here on the cache behaves as a new one. A new generation does it,
    /// unless the generations wrap.
    pub fn flush(&mut self) {
        self.generation = self.generation.checked_add(1).unwrap_or_else(|| {
            self.lines.iter_mut().for_each(|l| l.generation = 0);
            1
        });
        self.clock = 0;
    }
}

/// The per-word model the segment pricing must reproduce: every word
/// address is looked up on its own. Test-only; the differential tests
/// here and in [`crate::memsys`] compare the production trace against it.
#[cfg(test)]
pub(crate) mod reference {
    use super::{CacheAccessStats, Line, StreamCache};

    pub(crate) fn access_trace(
        cache: &mut StreamCache,
        addrs: impl Iterator<Item = u64>,
        write: bool,
    ) -> CacheAccessStats {
        let mut st = CacheAccessStats::default();
        let banks = cache.bank_load.len();
        let mut bank_load = vec![0u64; banks];
        for addr in addrs {
            cache.clock += 1;
            st.accesses += 1;
            let line_addr = addr / cache.line_words.by;
            bank_load[(line_addr % banks as u64) as usize] += 1;
            let set = line_addr as usize % cache.sets;
            let tag = line_addr;
            let base = set * cache.ways;
            let generation = cache.generation;
            let ways = &mut cache.lines[base..base + cache.ways];
            let valid = |l: &Line| l.generation == generation;
            if let Some(l) = ways.iter_mut().find(|l| valid(l) && l.tag == tag) {
                st.hits += 1;
                l.used = cache.clock;
                l.dirty |= write;
                continue;
            }
            st.misses += 1;
            // LRU victim.
            let victim = ways
                .iter_mut()
                .min_by_key(|l| if valid(l) { l.used } else { 0 })
                .expect("at least one way");
            if valid(victim) && victim.dirty {
                st.writebacks += 1;
            }
            *victim = Line {
                tag,
                generation,
                dirty: write,
                used: cache.clock,
            };
        }
        st.max_bank_load = bank_load.iter().copied().max().unwrap_or(0);
        st
    }
}

#[cfg(test)]
impl StreamCache {
    /// Whether two caches hold the same valid lines — tags, dirty bits
    /// and LRU stamps, way by way — at the same clock: what equal later
    /// costs cannot show when stamps differ by a shift that keeps their
    /// order.
    pub(crate) fn same_state(&self, other: &Self) -> bool {
        let valid = |c: &Self| {
            let lines = c.lines.iter();
            let line =
                |l: &Line| (l.generation == c.generation).then_some((l.tag, l.dirty, l.used));
            lines.map(line).collect::<Vec<_>>()
        };
        valid(self) == valid(other) && self.clock == other.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> StreamCache {
        StreamCache::new(&MachineConfig::default())
    }

    #[test]
    fn capacity_matches_config() {
        let cfg = MachineConfig::default();
        assert_eq!(cache().capacity_words(), cfg.cache_words as u64);
    }

    #[test]
    fn sequential_trace_hits_within_lines() {
        let mut c = cache();
        let st = c.access_trace(0..64, false);
        // 64 words over 8-word lines: 8 misses, 56 hits.
        assert_eq!(st.misses, 8);
        assert_eq!(st.hits, 56);
    }

    #[test]
    fn repeat_trace_hits_fully() {
        let mut c = cache();
        c.access_trace(0..1024, false);
        let st = c.access_trace(0..1024, false);
        assert_eq!(st.misses, 0);
        assert_eq!(st.hits, 1024);
    }

    #[test]
    fn capacity_eviction() {
        let mut c = cache();
        let cap = c.capacity_words();
        // Touch 2x capacity sequentially, then re-touch the first half:
        // every *line* was evicted, so only intra-line locality hits.
        c.access_trace(0..(2 * cap), false);
        let st = c.access_trace(0..cap / 2, false);
        assert_eq!(st.misses, cap / 2 / 8, "expected every line evicted");
        assert_eq!(st.hits, cap / 2 - cap / 2 / 8);
    }

    #[test]
    fn writebacks_counted() {
        let mut c = cache();
        let cap = c.capacity_words();
        c.access_trace((0..cap).step_by(8), true); // dirty every line
        let st = c.access_trace((cap..2 * cap).step_by(8), false);
        assert_eq!(st.writebacks, (cap / 8), "every victim was dirty");
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = cache();
        c.access_trace(0..256, false);
        c.flush();
        let st = c.access_trace(0..256, false);
        assert_eq!(st.hits, 256 - 32);
        assert_eq!(st.misses, 32);
    }

    #[test]
    fn a_flush_that_wraps_the_generation_still_empties_the_cache() {
        // Lines of generation 1, left 2³² − 2 flushes ago, would be
        // valid again after the wrap unless the flush clears them.
        let mut c = cache();
        c.access_trace(0..256, true);
        c.generation = u32::MAX;
        c.flush();
        assert_eq!(c.generation, 1);
        let mut fresh = cache();
        let want = fresh.access_trace(0..256, false);
        assert_eq!(c.access_trace(0..256, false), want);
        assert!(c.same_state(&fresh));
    }

    #[test]
    fn bank_load_balanced_for_sequential_lines() {
        let mut c = cache();
        let st = c.access_trace((0..512).step_by(8), false);
        // 64 lines over 8 banks: 8 per bank.
        assert_eq!(st.max_bank_load, 8);
    }

    #[test]
    fn single_line_hammer_loads_one_bank() {
        let mut c = cache();
        let st = c.access_trace(std::iter::repeat_n(3, 100), false);
        assert_eq!(st.max_bank_load, 100);
        assert_eq!(st.misses, 1);
    }

    /// Both production entry points against the per-word reference on
    /// two caches fed the same traces; comparing `lines` and `clock`
    /// pins the state, not only the statistics.
    fn assert_matches_reference(cfg: &MachineConfig, traces: &[(Vec<(u64, u64)>, bool)]) {
        let words = |runs: &[(u64, u64)]| -> Vec<u64> {
            runs.iter().flat_map(|&(s, l)| s..s + l).collect()
        };
        let (mut by_run, mut by_word, mut oracle) = (
            StreamCache::new(cfg),
            StreamCache::new(cfg),
            StreamCache::new(cfg),
        );
        for (runs, write) in traces {
            let want = reference::access_trace(&mut oracle, words(runs).into_iter(), *write);
            let triples = runs.iter().map(|&(s, l)| (s, l, 1));
            assert_eq!(by_run.access_runs(triples, *write, |_| true), want);
            assert_eq!(by_word.access_trace(words(runs).into_iter(), *write), want);
            assert!(by_run.same_state(&oracle) && by_word.same_state(&oracle));
        }
    }

    #[test]
    fn record_longer_than_a_line_matches_per_word() {
        // 20-word records on 8-word lines: three or four lines each,
        // starting at every offset within a line.
        let runs: Vec<(u64, u64)> = (0..40u64).map(|i| (i * 21, 20)).collect();
        assert_matches_reference(
            &MachineConfig::default(),
            &[(runs.clone(), true), (runs, false)],
        );
    }

    #[test]
    fn non_contiguous_iterator_matches_per_word() {
        // Repeats, descending addresses, same-line neighbours that are
        // not adjacent words, and a tiny 2-set cache so victims and
        // writebacks occur.
        let cfg = MachineConfig {
            cache_words: 64,
            ..MachineConfig::default()
        };
        let addrs = [3u64, 3, 5, 1, 64, 66, 2, 130, 129, 128, 7, 8, 200, 0, 65];
        let runs: Vec<(u64, u64)> = addrs.iter().map(|&a| (a, 1)).collect();
        assert_matches_reference(&cfg, &[(runs.clone(), true), (runs, false)]);
        assert_matches_reference(&cfg, &[(vec![], true), (vec![(9, 0)], false)]);
    }
}
