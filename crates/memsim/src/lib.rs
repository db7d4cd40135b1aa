//! Memory-hierarchy timing and power simulator with ECC and memory-tagging
//! hooks — the substitute for the paper's gem5 + SPEC 2017 evaluation
//! (Figures 6 & 7, Table VI): a timing model driven by synthetic
//! SPEC-shaped workloads, since SPEC is proprietary.
//!
//! Components:
//!
//! * [`Cache`] / [`MetadataCache`] — LRU write-back caches. Each set
//!   keeps its tags in recency order (most recently used first) in one
//!   flat set-major array, with a per-set dirty bitmask and a marker tag
//!   for empty ways, so a hit moves its tag to the front and a miss evicts
//!   the tail; 8- and 16-way sets are scanned at a fixed length. The
//!   metadata cache is one fully associative, recency-ordered set.
//! * [`Dram`] — DDR4-like banks, row buffers, shared bus, refresh, and
//!   [`EccLatency`] injection on the memory interface. Row size and bank
//!   count are powers of two, so the bank and row of an address are
//!   shifts and masks, and refresh is checked against a stored deadline.
//! * [`System`] — in-order 1-IPC CPU (gem5 `TimingSimpleCPU`-like) wiring
//!   the levels together, with [`TagStorage`] controlling where memory-
//!   tagging metadata lives.
//! * Two stages per access: stage 1 is the L1 lookup, and stage 2 is
//!   everything below L1 (L2, L3, DRAM, tag fetches, prefetches).
//!   [`System::run`] pipelines them across two threads: the op generator
//!   and L1 run on a scoped producer thread, which sends each L1 miss
//!   (with the cycles elapsed since the previous one) through a FIFO in
//!   batches of [`PIPELINE_BATCH`], while the calling thread runs stage 2.
//!   The split is exact: in this blocking in-order model, cache contents
//!   depend only on the order of accesses, and nothing in L1 reads the
//!   cycle count or the levels below it (no back-invalidation, no
//!   inclusion, and prefetches probe only L3). [`System::step`], and so
//!   [`Trace::replay`], runs the same two stages back to back on one
//!   thread, and every counter comes out bit-identical either way.
//! * [`Workload`] — deterministic SPEC-2017-shaped access generators.
//! * [`DramPowerModel`] — IDD-style power reporting.
//!
//! # Examples
//!
//! ```
//! use muse_memsim::{spec2017_profiles, System, SystemConfig, Workload};
//!
//! let mut system = System::new(SystemConfig::default());
//! let mut workload = Workload::new(spec2017_profiles()[0], 1);
//! let stats = system.run(&mut workload, 10_000);
//! assert!(stats.ipc() > 0.0);
//! ```

mod cache;
mod dram;
mod pipeline;
mod power;
mod system;
mod trace;
mod workload;

pub use cache::{Cache, CacheAccess, CacheStats, MetadataCache};
pub use dram::{Dram, DramConfig, DramStats, EccLatency, PagePolicy};
pub use pipeline::PIPELINE_BATCH;
pub use power::{DramPowerModel, PowerReport};
pub use system::{RunStats, System, SystemConfig, TagStorage};
pub use trace::{ParseTraceError, Trace};
pub use workload::{spec2017_profiles, MemOp, Workload, WorkloadProfile};

/// SplitMix64: the small deterministic generator used by the workload
/// streams.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix::new(9);
        let mut b = SplitMix::new(9);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_below_in_range() {
        let mut rng = SplitMix::new(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
