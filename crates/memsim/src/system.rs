//! The full-system timing model: in-order 1-IPC CPU, three-level cache
//! hierarchy, DRAM, ECC interface latency, and memory-tagging metadata
//! traffic (the gem5 substitute: a timing model in place of gem5's CPU).

use std::cell::Cell;

use crate::pipeline::pipeline;
use crate::{
    Cache, CacheAccess, CacheStats, Dram, DramConfig, DramStats, EccLatency, MetadataCache,
    Workload,
};

/// Where memory-tagging metadata lives (Section VII-D's three systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagStorage {
    /// No memory tagging.
    None,
    /// Tags ride in the ECC spare bits (MT with MUSE): zero extra traffic.
    InlineEcc,
    /// Tags in a disjoint memory region; every LLC data miss fetches a
    /// metadata line, optionally through a small metadata cache.
    Disjoint {
        /// Metadata cache entries (`None` = uncached, the paper's "Base MT").
        cache_entries: Option<usize>,
    },
}

/// System configuration (defaults follow the paper's Haswell-like gem5
/// setup: 3.4 GHz, 64 kB split L1, 256 kB L2, 8 MB L3, DDR4).
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// CPU clock, GHz.
    pub cpu_ghz: f64,
    /// L1 data cache size, bytes.
    pub l1_bytes: u64,
    /// L1 hit latency, cycles.
    pub l1_latency: u64,
    /// L2 size, bytes.
    pub l2_bytes: u64,
    /// L2 hit latency, cycles.
    pub l2_latency: u64,
    /// L3 size, bytes.
    pub l3_bytes: u64,
    /// L3 hit latency, cycles.
    pub l3_latency: u64,
    /// Cache line size, bytes.
    pub line_bytes: u64,
    /// DRAM timing.
    pub dram: DramConfig,
    /// ECC latency on the memory interface.
    pub ecc: EccLatency,
    /// Memory-tagging metadata placement.
    pub tagging: TagStorage,
    /// Next-line prefetch into the LLC on demand misses.
    pub prefetch_next_line: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cpu_ghz: 3.4,
            l1_bytes: 32 * 1024, // data half of the 64 kB split L1
            l1_latency: 4,
            l2_bytes: 256 * 1024,
            l2_latency: 12,
            l3_bytes: 8 * 1024 * 1024,
            l3_latency: 38,
            line_bytes: 64,
            dram: DramConfig::default(),
            ecc: EccLatency::NONE,
            tagging: TagStorage::None,
            prefetch_next_line: false,
        }
    }
}

/// Aggregate results of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions executed (memory + non-memory).
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// DRAM counters (includes metadata traffic).
    pub dram: DramStats,
    /// Metadata reads that reached DRAM.
    pub metadata_dram_reads: u64,
    /// Metadata lookups that hit the metadata cache.
    pub metadata_cache_hits: u64,
    /// LLC demand misses.
    pub llc_misses: u64,
    /// Next-line prefetches issued to DRAM.
    pub prefetches: u64,
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles as f64
    }

    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        self.llc_misses as f64 * 1000.0 / self.instructions as f64
    }

    /// The difference of two cumulative snapshots (measurement window after
    /// a warm-up run).
    pub fn since(&self, earlier: &RunStats) -> RunStats {
        RunStats {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            dram: DramStats {
                reads: self.dram.reads - earlier.dram.reads,
                writes: self.dram.writes - earlier.dram.writes,
                activates: self.dram.activates - earlier.dram.activates,
                row_hits: self.dram.row_hits - earlier.dram.row_hits,
                refreshes: self.dram.refreshes - earlier.dram.refreshes,
            },
            metadata_dram_reads: self.metadata_dram_reads - earlier.metadata_dram_reads,
            metadata_cache_hits: self.metadata_cache_hits - earlier.metadata_cache_hits,
            llc_misses: self.llc_misses - earlier.llc_misses,
            prefetches: self.prefetches - earlier.prefetches,
        }
    }
}

/// Base byte address of the disjoint metadata region.
const META_BASE: u64 = 0x8_0000_0000;

/// Data lines covered by one 64-byte metadata line (4-bit tag per 16 bytes
/// ⇒ 2 bytes of tags per 64-byte line ⇒ 32 lines per metadata line).
const LINES_PER_META: u64 = 32;

/// Metadata-cache entry granularity: the paper's cache is "32-entry 16 kB",
/// i.e. 512-byte entries, each covering 256 data lines (16 kB of data).
const META_LINES_PER_ENTRY: u64 = 8;

/// One L1 miss, as stage 1 of a run hands it to stage 2.
#[derive(Debug, Clone, Copy)]
struct L1Miss {
    /// The demand address.
    addr: u64,
    /// The dirty L1 victim to write back, or `addr` for none: a victim
    /// always lies on another line than the demand that evicted it, so
    /// `addr` is free as the marker and the event stays 24 bytes.
    victim: u64,
    /// Cycles since the previous miss: instruction gaps and L1 latency.
    cycles: u64,
}

impl L1Miss {
    fn victim(&self) -> Option<u64> {
        (self.victim != self.addr).then_some(self.victim)
    }
}

/// Stage 1: the L1 data cache and the counters only it advances.
///
/// Nothing in it depends on the cycle count or on the levels below: there
/// is no back-invalidation and no inclusion, and the prefetcher probes
/// only the L3. It is aligned to cache lines of its own so that, while
/// [`System::run`] drives it from the producer thread, none of its
/// counters shares a line with a field stage 2 writes.
#[derive(Debug, Clone)]
#[repr(align(128))]
struct L1Stage {
    cache: Cache,
    instructions: u64,
    /// Cycles not yet handed to stage 2.
    cycles: u64,
}

impl L1Stage {
    /// Advances time by the op's instruction gap and the L1 latency, then
    /// looks the op up in L1; a miss carries the elapsed cycles along.
    #[inline]
    fn access(&mut self, op: crate::MemOp) -> Option<L1Miss> {
        self.instructions += op.gap_insts + 1;
        self.cycles += op.gap_insts + 1 + self.cache.latency();
        match self.cache.access(op.addr, op.is_write) {
            CacheAccess::Hit => None,
            CacheAccess::Miss { writeback } => Some(L1Miss {
                addr: op.addr,
                victim: writeback.unwrap_or(op.addr),
                cycles: std::mem::take(&mut self.cycles),
            }),
        }
    }
}

/// Stage 2: every level below L1, the DRAM and the metadata traffic, and
/// the cycle count they drive.
#[derive(Debug, Clone)]
struct BelowL1 {
    config: SystemConfig,
    l2: Cache,
    l3: Cache,
    dram: Dram,
    meta_cache: Option<MetadataCache>,
    cycle: u64,
    metadata_dram_reads: u64,
    llc_misses: u64,
    prefetches: u64,
}

thread_local! {
    /// Batch buffers of [`System::run`]'s pipeline, reused by every run on
    /// the calling thread.
    static BATCHES: Cell<Vec<Vec<L1Miss>>> = const { Cell::new(Vec::new()) };
}

/// The simulated system.
#[derive(Debug, Clone)]
pub struct System {
    l1: L1Stage,
    below: BelowL1,
}

impl System {
    /// Builds a fresh system.
    pub fn new(config: SystemConfig) -> Self {
        let line = config.line_bytes;
        let meta_cache = match config.tagging {
            TagStorage::Disjoint {
                cache_entries: Some(n),
            } => Some(MetadataCache::new(n)),
            _ => None,
        };
        Self {
            l1: L1Stage {
                cache: Cache::new("L1D", config.l1_bytes, 8, line, config.l1_latency),
                instructions: 0,
                cycles: 0,
            },
            below: BelowL1 {
                l2: Cache::new("L2", config.l2_bytes, 8, line, config.l2_latency),
                l3: Cache::new("L3", config.l3_bytes, 16, line, config.l3_latency),
                dram: Dram::new(config.dram, config.ecc),
                meta_cache,
                config,
                cycle: 0,
                metadata_dram_reads: 0,
                llc_misses: 0,
                prefetches: 0,
            },
        }
    }

    /// Runs `mem_ops` memory operations from the workload (plus their
    /// surrounding non-memory instructions) and reports the stats.
    ///
    /// The run is a two-stage pipeline over the same two stages as
    /// [`step`](Self::step). Stage 1 runs on a scoped producer thread: it
    /// draws each op from the workload and looks it up in L1, and for each
    /// L1 miss it sends one event (the demand address, the dirty victim,
    /// and the cycles elapsed since the previous miss) into a FIFO. Stage
    /// 2 runs on the calling thread: it adds those cycles and takes the
    /// miss through L2, L3, DRAM, the tag fetch and the prefetcher.
    ///
    /// The split is exact. In this blocking in-order model, L1's contents
    /// depend only on the order of accesses, and nothing in L1 reads the
    /// cycle count or the levels below it. The FIFO keeps the order, so
    /// every counter is bit-identical to running the ops one by one
    /// through [`step`](Self::step).
    ///
    /// # Panics
    ///
    /// A panic in either stage stops both and is resumed on the caller:
    /// the producer stops at its next full batch once the consumer has
    /// unwound.
    pub fn run(&mut self, workload: &mut Workload, mem_ops: u64) -> RunStats {
        let Self { l1, below } = self;
        let mut batches = BATCHES.take();
        pipeline(
            &mut batches,
            |misses| {
                // A copy on this thread's stack keeps the generator's state
                // off the cache lines stage 2 writes.
                let mut stream = workload.clone();
                for _ in 0..mem_ops {
                    if let Some(miss) = l1.access(stream.next_op()) {
                        if !misses.send(miss) {
                            break;
                        }
                    }
                }
                *workload = stream;
            },
            |miss| below.below_l1(miss),
        );
        BATCHES.set(batches);
        self.settle();
        self.stats()
    }

    /// Executes a single externally supplied memory operation (the
    /// trace-replay entry point): advances time by the op's instruction
    /// gap, then performs the access. It runs [`run`](Self::run)'s two
    /// stages back to back on the calling thread.
    pub fn step(&mut self, op: crate::MemOp) {
        if let Some(miss) = self.l1.access(op) {
            self.below.below_l1(&miss);
        }
        self.settle();
    }

    /// Hands stage 2 the cycles of L1 hits since the last miss.
    fn settle(&mut self) {
        self.below.cycle += std::mem::take(&mut self.l1.cycles);
    }

    /// Stats snapshot.
    pub fn stats(&self) -> RunStats {
        let below = &self.below;
        RunStats {
            instructions: self.l1.instructions,
            cycles: below.cycle,
            dram: below.dram.stats(),
            metadata_dram_reads: below.metadata_dram_reads,
            metadata_cache_hits: below.meta_cache.as_ref().map_or(0, |m| m.stats().hits),
            llc_misses: below.llc_misses,
            prefetches: below.prefetches,
        }
    }

    /// Per-level cache statistics `(L1, L2, L3)`.
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (
            self.l1.cache.stats(),
            self.below.l2.stats(),
            self.below.l3.stats(),
        )
    }
}

impl BelowL1 {
    /// The rest of one blocking memory access after an L1 miss.
    fn below_l1(&mut self, miss: &L1Miss) {
        self.cycle += miss.cycles;
        if let Some(victim) = miss.victim() {
            self.writeback_to_l2(victim);
        }
        let addr = miss.addr;
        self.cycle += self.config.l2_latency;
        match self.l2.access(addr, false) {
            CacheAccess::Hit => return,
            CacheAccess::Miss { writeback } => {
                if let Some(victim) = writeback {
                    self.writeback_to_l3(victim);
                }
            }
        }
        self.cycle += self.config.l3_latency;
        match self.l3.access(addr, false) {
            CacheAccess::Hit => return,
            CacheAccess::Miss { writeback } => {
                if let Some(victim) = writeback {
                    self.dram_writeback(victim);
                }
            }
        }
        // LLC demand miss: the blocking demand fetch goes first (the
        // controller prioritizes demands); the metadata fetch then occupies
        // banks/bus behind it, delaying *later* misses — that contention is
        // the cost of disjoint tags.
        self.llc_misses += 1;
        self.cycle = self.dram.read(addr, self.cycle);
        self.fetch_tags_for(addr);
        if self.config.prefetch_next_line {
            self.prefetch(addr + self.config.line_bytes);
        }
    }

    /// Next-line prefetch: fills the LLC in the background (bank/bus
    /// occupancy is modelled; the CPU does not wait).
    fn prefetch(&mut self, addr: u64) {
        if self.l3.probe(addr) {
            return;
        }
        self.prefetches += 1;
        if let CacheAccess::Miss { writeback: Some(v) } = self.l3.access(addr, false) {
            self.dram_writeback(v);
        }
        let _ = self.dram.read(addr, self.cycle);
    }

    /// Write-back path L1 → L2 (allocating).
    fn writeback_to_l2(&mut self, victim: u64) {
        if let CacheAccess::Miss { writeback: Some(v) } = self.l2.access(victim, true) {
            self.writeback_to_l3(v);
        }
    }

    /// Write-back path L2 → L3 (allocating).
    fn writeback_to_l3(&mut self, victim: u64) {
        if let CacheAccess::Miss { writeback: Some(v) } = self.l3.access(victim, true) {
            self.dram_writeback(v);
        }
    }

    /// Asynchronous DRAM write: occupies bank/bus but does not block the CPU.
    fn dram_writeback(&mut self, addr: u64) {
        let _ = self.dram.write(addr, self.cycle);
    }

    /// Disjoint-metadata fetch on an LLC data miss.
    fn fetch_tags_for(&mut self, addr: u64) {
        if !matches!(self.config.tagging, TagStorage::Disjoint { .. }) {
            return;
        }
        let meta_line = addr / self.config.line_bytes / LINES_PER_META;
        if let Some(cache) = &mut self.meta_cache {
            // The cache holds 512-byte entries (8 metadata lines each).
            if cache.access(meta_line / META_LINES_PER_ENTRY) {
                return; // tag present on-chip
            }
        }
        self.metadata_dram_reads += 1;
        let meta_addr = META_BASE + meta_line * self.config.line_bytes;
        let _ = self.dram.read(meta_addr, self.cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec2017_profiles;

    fn small_run(config: SystemConfig, bench: usize, ops: u64) -> RunStats {
        let mut system = System::new(config);
        let mut workload = Workload::new(spec2017_profiles()[bench], 42);
        system.run(&mut workload, ops)
    }

    #[test]
    fn cache_resident_workload_rarely_misses() {
        // 548.exchange2_r: tiny footprint, ~everything hits on-chip after
        // warm-up.
        let mut system = System::new(SystemConfig::default());
        let mut workload = Workload::new(spec2017_profiles()[18], 42);
        let warm = system.run(&mut workload, 30_000);
        let steady = system.run(&mut workload, 30_000).since(&warm);
        assert!(steady.llc_mpki() < 1.0, "mpki {}", steady.llc_mpki());
        assert!(steady.ipc() > 0.2);
    }

    #[test]
    fn streaming_workload_hits_dram_hard() {
        // 519.lbm_r: large streaming footprint (small L3 so the run fills
        // it and produces dirty evictions).
        let config = SystemConfig {
            l3_bytes: 1024 * 1024,
            ..SystemConfig::default()
        };
        let mut system = System::new(config);
        let mut workload = Workload::new(spec2017_profiles()[8], 42);
        let warm = system.run(&mut workload, 40_000);
        let steady = system.run(&mut workload, 40_000).since(&warm);
        assert!(steady.llc_mpki() > 5.0, "mpki {}", steady.llc_mpki());
        assert!(steady.dram.reads > 1_000);
        assert!(steady.dram.writes > 0, "dirty evictions reach DRAM");
    }

    #[test]
    fn ecc_write_latency_barely_affects_runtime() {
        // Figure 6's core claim: encoder latency on (asynchronous) writes is
        // almost free.
        let base = small_run(SystemConfig::default(), 8, 30_000);
        let ecc = small_run(
            SystemConfig {
                ecc: EccLatency {
                    encode: 4,
                    correct: 0,
                },
                ..SystemConfig::default()
            },
            8,
            30_000,
        );
        let slowdown = ecc.cycles as f64 / base.cycles as f64;
        assert!((0.999..1.01).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn always_correction_costs_a_little_more() {
        let base = small_run(SystemConfig::default(), 8, 30_000);
        let corr = small_run(
            SystemConfig {
                ecc: EccLatency {
                    encode: 4,
                    correct: 4,
                },
                ..SystemConfig::default()
            },
            8,
            30_000,
        );
        let slowdown = corr.cycles as f64 / base.cycles as f64;
        assert!((1.0..1.05).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn disjoint_tags_add_metadata_traffic() {
        let inline = small_run(
            SystemConfig {
                tagging: TagStorage::InlineEcc,
                ..SystemConfig::default()
            },
            8,
            30_000,
        );
        let disjoint = small_run(
            SystemConfig {
                tagging: TagStorage::Disjoint {
                    cache_entries: None,
                },
                ..SystemConfig::default()
            },
            8,
            30_000,
        );
        assert_eq!(inline.metadata_dram_reads, 0);
        assert_eq!(disjoint.metadata_dram_reads, disjoint.llc_misses);
        assert!(disjoint.dram.reads > inline.dram.reads);
        assert!(
            disjoint.cycles > inline.cycles,
            "contention slows the demand path"
        );
    }

    #[test]
    fn metadata_cache_filters_most_fetches() {
        // Streaming workloads hit the same metadata line for 32 consecutive
        // data lines: a 32-entry cache absorbs most fetches (the paper's
        // 67% -> 12% reduction).
        let cached = small_run(
            SystemConfig {
                tagging: TagStorage::Disjoint {
                    cache_entries: Some(32),
                },
                ..SystemConfig::default()
            },
            8,
            30_000,
        );
        assert!(cached.metadata_dram_reads < cached.llc_misses / 2);
        assert!(cached.metadata_cache_hits > 0);
    }

    #[test]
    fn metadata_orderings_match_figure7() {
        // rd+wr traffic: MUSE (inline) < cached MT < uncached MT.
        let mk = |tagging| {
            small_run(
                SystemConfig {
                    tagging,
                    ..SystemConfig::default()
                },
                4,
                25_000,
            )
        };
        let inline = mk(TagStorage::InlineEcc);
        let cached = mk(TagStorage::Disjoint {
            cache_entries: Some(32),
        });
        let uncached = mk(TagStorage::Disjoint {
            cache_entries: None,
        });
        let ops = |s: &RunStats| s.dram.operations();
        assert!(ops(&inline) < ops(&cached));
        assert!(ops(&cached) < ops(&uncached));
    }

    #[test]
    fn prefetch_helps_streaming() {
        // 519.lbm_r streams: the next-line prefetcher converts most demand
        // misses into LLC hits.
        let base_cfg = SystemConfig {
            l3_bytes: 1024 * 1024,
            ..SystemConfig::default()
        };
        let run = |prefetch| {
            let mut system = System::new(SystemConfig {
                prefetch_next_line: prefetch,
                ..base_cfg
            });
            let mut w = Workload::new(spec2017_profiles()[8], 42);
            let warm = system.run(&mut w, 30_000);
            system.run(&mut w, 30_000).since(&warm)
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.prefetches, 0);
        assert!(on.prefetches > 0);
        assert!(on.llc_misses < off.llc_misses, "prefetch absorbs misses");
        assert!(
            on.cycles < off.cycles,
            "and saves time on a streaming workload"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = small_run(SystemConfig::default(), 2, 5_000);
        let b = small_run(SystemConfig::default(), 2, 5_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dram.reads, b.dram.reads);
    }
}
