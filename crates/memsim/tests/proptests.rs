//! Property tests for the memory-system model: cache bookkeeping, DRAM
//! timing monotonicity, and system-level conservation laws; and oracle
//! tests that hold the recency-ordered [`Cache`] and [`MetadataCache`]
//! and the shift-and-mask [`Dram`] to straightforward reference models
//! (tick-stamped LRU lines, per-operation divisions) kept in this file.

use muse_memsim::{
    spec2017_profiles, Cache, CacheAccess, Dram, DramConfig, DramStats, EccLatency, MetadataCache,
    PagePolicy, System, SystemConfig, TagStorage, Workload,
};
use proptest::prelude::*;

/// Reference LRU cache: every line carries a valid flag, a dirty flag and
/// the tick of its last use; a miss fills the first invalid way, else the
/// way with the oldest tick.
struct RefCache {
    /// `(tag, valid, dirty, last_use)` per way, per set.
    sets: Vec<Vec<(u64, bool, bool, u64)>>,
    set_bits: u32,
    line_bits: u32,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(n_sets: usize, ways: usize, line_bytes: u64) -> Self {
        Self {
            sets: vec![vec![(0, false, false, 0); ways]; n_sets],
            set_bits: n_sets.trailing_zeros(),
            line_bits: line_bytes.trailing_zeros(),
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_bits;
        let set_idx = (line_addr & ((1 << self.set_bits) - 1)) as usize;
        (set_idx, line_addr >> self.set_bits)
    }

    fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        let (set_idx, tag) = self.locate(addr);
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.1 && l.0 == tag) {
            line.3 = self.tick;
            line.2 |= is_write;
            self.hits += 1;
            return CacheAccess::Hit;
        }
        self.misses += 1;
        let victim_idx = set.iter().position(|l| !l.1).unwrap_or_else(|| {
            (0..set.len())
                .min_by_key(|&i| set[i].3)
                .expect("nonzero ways")
        });
        let (victim_tag, valid, dirty, _) = set[victim_idx];
        let writeback = (valid && dirty).then(|| {
            self.writebacks += 1;
            ((victim_tag << self.set_bits) | set_idx as u64) << self.line_bits
        });
        set[victim_idx] = (tag, true, is_write, self.tick);
        CacheAccess::Miss { writeback }
    }

    fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.sets[set_idx].iter().any(|l| l.1 && l.0 == tag)
    }
}

/// An address stream that keeps a few sets under pressure: each access
/// lands in one of up to four sets, and usually re-references one of the
/// `ways + ways / 4 + 1` tags that compete for it, so hits land in every
/// recency slot (the tail one included) and full sets evict.
fn cache_stream(draws: &[u64], sets: usize, ways: usize, line_bytes: u64) -> Vec<(u64, bool)> {
    let set_bits = sets.trailing_zeros();
    let hot_tags = (ways + ways / 4 + 1) as u64;
    draws
        .iter()
        .map(|&r| {
            let set = (r >> 56).wrapping_add((r >> 54 & 3) * (sets as u64 / 4).max(1));
            let set = set & (sets as u64 - 1);
            let tag = if r & 3 == 0 {
                (r >> 8) % (1 << 20)
            } else {
                (r >> 8) % hot_tags
            };
            let offset = (r >> 32) % line_bytes;
            (
                (((tag << set_bits) | set) * line_bytes) + offset,
                r & 4 == 0,
            )
        })
        .collect()
}

/// Reference DRAM: the same timing model, with the bank, the row and the
/// refresh count found by division on every operation.
struct RefDram {
    config: DramConfig,
    ecc: EccLatency,
    banks: Vec<(Option<u64>, u64)>,
    bus_free_at: u64,
    refresh_done: u64,
    stats: DramStats,
}

impl RefDram {
    fn new(config: DramConfig, ecc: EccLatency) -> Self {
        Self {
            banks: vec![(None, 0); config.banks],
            config,
            ecc,
            bus_free_at: 0,
            refresh_done: 0,
            stats: DramStats::default(),
        }
    }

    fn read(&mut self, addr: u64, now: u64) -> u64 {
        let done = self.operate(addr, now);
        self.stats.reads += 1;
        done + self.ecc.correct
    }

    fn write(&mut self, addr: u64, now: u64) -> u64 {
        let done = self.operate(addr, now + self.ecc.encode);
        self.stats.writes += 1;
        done + self.config.t_wr
    }

    fn operate(&mut self, addr: u64, now: u64) -> u64 {
        let c = self.config;
        let due = now / c.t_refi;
        if due > self.stats.refreshes {
            self.stats.refreshes = due;
            self.refresh_done = due * c.t_refi + c.t_rfc;
        }
        let start = now.max(self.refresh_done);
        let row_addr = addr / c.row_bytes;
        let (bank_idx, row) = (
            (row_addr % c.banks as u64) as usize,
            row_addr / c.banks as u64,
        );
        let (open_row, busy_until) = &mut self.banks[bank_idx];
        let mut t = start.max(*busy_until);
        match *open_row {
            Some(open) if open == row => self.stats.row_hits += 1,
            Some(_) => {
                t += c.t_rp + c.t_rcd;
                self.stats.activates += 1;
            }
            None => {
                t += c.t_rcd;
                self.stats.activates += 1;
            }
        }
        *open_row = (c.page_policy == PagePolicy::Open).then_some(row);
        t += c.t_cas;
        let done = t.max(self.bus_free_at) + c.t_burst;
        self.bus_free_at = done;
        *busy_until = done;
        done
    }
}

fn dram_stats(s: DramStats) -> [u64; 5] {
    [s.reads, s.writes, s.activates, s.row_hits, s.refreshes]
}

proptest! {
    #[test]
    fn cache_accounting_conserves(addrs in prop::collection::vec(0u64..1 << 20, 1..300)) {
        let mut cache = Cache::new("t", 16 * 1024, 4, 64, 1);
        let mut writebacks = 0u64;
        for (i, &addr) in addrs.iter().enumerate() {
            if let CacheAccess::Miss { writeback: Some(_) } = cache.access(addr, i % 3 == 0) {
                writebacks += 1;
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, addrs.len() as u64);
        prop_assert_eq!(stats.writebacks, writebacks);
        prop_assert!(stats.miss_ratio() <= 1.0);
    }

    #[test]
    fn cache_hit_after_fill_always(addr: u64) {
        let mut cache = Cache::new("t", 16 * 1024, 4, 64, 1);
        let _ = cache.access(addr, false);
        prop_assert!(cache.access(addr, false).is_hit());
        prop_assert!(cache.probe(addr));
    }

    #[test]
    fn dram_time_flows_forward(addrs in prop::collection::vec(0u64..1 << 24, 1..100)) {
        let mut dram = Dram::new(DramConfig::default(), EccLatency::NONE);
        let mut now = 0u64;
        for (i, &addr) in addrs.iter().enumerate() {
            let done = if i % 4 == 0 {
                dram.write(addr, now)
            } else {
                dram.read(addr, now)
            };
            prop_assert!(done > now, "completion after issue");
            now = done;
        }
        let stats = dram.stats();
        prop_assert_eq!(stats.operations(), addrs.len() as u64);
        prop_assert!(stats.row_hits <= stats.operations());
        prop_assert!(stats.activates <= stats.operations());
    }

    #[test]
    fn ecc_latency_is_monotone(extra in 0u64..16) {
        // More interface latency can never make a run faster.
        let profile = spec2017_profiles()[4];
        let run = |ecc: EccLatency| {
            let mut system = System::new(SystemConfig { ecc, ..SystemConfig::default() });
            let mut w = Workload::new(profile, 3);
            system.run(&mut w, 4_000).cycles
        };
        let base = run(EccLatency::NONE);
        let slower = run(EccLatency { encode: extra, correct: extra });
        prop_assert!(slower >= base);
    }

    #[test]
    fn closed_page_never_counts_row_hits(seed: u64) {
        let config = DramConfig { page_policy: PagePolicy::Closed, ..DramConfig::default() };
        let mut dram = Dram::new(config, EccLatency::NONE);
        let mut now = 0;
        for i in 0..50u64 {
            now = dram.read(seed.wrapping_add(i * 64) % (1 << 30), now);
        }
        prop_assert_eq!(dram.stats().row_hits, 0);
    }

    #[test]
    fn metadata_traffic_only_with_disjoint_tags(bench in 0usize..22) {
        let run = |tagging| {
            let mut system = System::new(SystemConfig { tagging, ..SystemConfig::default() });
            let mut w = Workload::new(spec2017_profiles()[bench], 9);
            system.run(&mut w, 3_000)
        };
        prop_assert_eq!(run(TagStorage::None).metadata_dram_reads, 0);
        prop_assert_eq!(run(TagStorage::InlineEcc).metadata_dram_reads, 0);
        let disjoint = run(TagStorage::Disjoint { cache_entries: None });
        prop_assert_eq!(disjoint.metadata_dram_reads, disjoint.llc_misses);
    }

    #[test]
    fn instructions_count_includes_gaps(bench in 0usize..22, ops in 100u64..2_000) {
        let mut system = System::new(SystemConfig::default());
        let mut w = Workload::new(spec2017_profiles()[bench], 5);
        let stats = system.run(&mut w, ops);
        // At least one instruction per memory op; cycles at least 1 per inst.
        prop_assert!(stats.instructions >= ops);
        prop_assert!(stats.cycles >= stats.instructions);
    }

    #[test]
    fn cache_matches_lru_reference(
        ways_log in 0usize..6,
        sets_log in 0u32..7,
        draws in prop::collection::vec(any::<u64>(), 1..3000),
    ) {
        let ways = [1, 2, 4, 8, 16, 64][ways_log];
        let sets = 1usize << sets_log;
        let line = 64;
        let mut cache = Cache::new("t", (sets * ways) as u64 * line, ways, line, 1);
        let mut reference = RefCache::new(sets, ways, line);
        for (addr, is_write) in cache_stream(&draws, sets, ways, line) {
            prop_assert_eq!(cache.probe(addr), reference.probe(addr));
            prop_assert_eq!(cache.access(addr, is_write), reference.access(addr, is_write));
        }
        let s = cache.stats();
        prop_assert_eq!(
            [s.hits, s.misses, s.writebacks],
            [reference.hits, reference.misses, reference.writebacks]
        );
    }

    #[test]
    fn metadata_cache_matches_lru_reference(
        capacity in 1usize..40,
        lines in prop::collection::vec(0u64..48, 1..800),
    ) {
        // A fully associative cache is one set of `capacity` ways.
        let mut cache = MetadataCache::new(capacity);
        let mut reference = RefCache::new(1, capacity, 1);
        for &line in &lines {
            prop_assert_eq!(cache.access(line), reference.access(line, false).is_hit());
        }
        let s = cache.stats();
        prop_assert_eq!([s.hits, s.misses], [reference.hits, reference.misses]);
    }

    #[test]
    fn dram_matches_division_reference(
        banks_log in 0u32..6,
        row_log in 6u32..15,
        closed: bool,
        t_refi in 500u64..30_000,
        ecc in (0u64..8, 0u64..8),
        draws in prop::collection::vec(any::<u64>(), 1..400),
    ) {
        let config = DramConfig {
            banks: 1 << banks_log,
            row_bytes: 1 << row_log,
            t_refi,
            page_policy: if closed { PagePolicy::Closed } else { PagePolicy::Open },
            ..DramConfig::default()
        };
        let ecc = EccLatency { encode: ecc.0, correct: ecc.1 };
        let mut dram = Dram::new(config, ecc);
        let mut reference = RefDram::new(config, ecc);
        // Issue times wander: back-to-back, short gaps, jumps across several
        // refresh intervals, and steps back in time.
        let mut now = 0u64;
        for &r in &draws {
            let step = (r >> 8) % (5 * t_refi);
            now = match r & 3 {
                0 => now + step % 200,
                1 => now + step,
                2 => now.saturating_sub(step / 2),
                _ => now,
            };
            // A few rows per bank, so row hits and conflicts both occur.
            let addr = (r >> 32) % (8 << (banks_log + row_log));
            let (got, want) = if r & 4 == 0 {
                (dram.write(addr, now), reference.write(addr, now))
            } else {
                (dram.read(addr, now), reference.read(addr, now))
            };
            prop_assert_eq!(got, want);
            if r & 8 == 0 {
                now = got;
            }
        }
        prop_assert_eq!(dram_stats(dram.stats()), dram_stats(reference.stats));
    }
}
