//! Deterministic fleet sharding: a fixed partition of the DIMM index
//! space into contiguous, near-equal ranges.
//!
//! Because every `(DIMM, epoch)` draws from its own counter-based stream
//! ([`muse_faultsim::Rng::for_cell`]), shard boundaries carry no
//! randomness: a shard's tally is bit-identical to the same DIMM range of
//! an unsharded run, and merging shard tallies (plain field-wise sums)
//! reproduces the unsharded total exactly — in any execution order, at
//! any thread count, across any interrupt/resume pattern.

use std::ops::Range;

/// A fixed partition of `dimms` DIMMs into `count` contiguous shards.
///
/// Shard `s` covers `dimms/count` DIMMs, with the first `dimms % count`
/// shards one DIMM larger — every shard is nonempty and the ranges tile
/// `0..dimms` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    dimms: u64,
    count: u32,
}

impl ShardPlan {
    /// DIMMs per shard of the default plan ([`Self::new`] with
    /// `count == 0`), before its clamp to
    /// [`Self::MIN_DEFAULT_COUNT`]`..=`[`Self::MAX_DEFAULT_COUNT`] shards.
    pub const DIMMS_PER_SHARD: u64 = 256;
    /// Fewest shards of the default plan: one interior boundary.
    pub const MIN_DEFAULT_COUNT: u32 = 2;
    /// Most shards of the default plan.
    pub const MAX_DEFAULT_COUNT: u32 = 16;

    /// A plan splitting `dimms` into `count` shards; any `count` is
    /// clamped to `[1, dimms]` so no shard is empty.
    ///
    /// `count == 0` picks the default: one shard per
    /// [`Self::DIMMS_PER_SHARD`] DIMMs, at least
    /// [`Self::MIN_DEFAULT_COUNT`] and at most [`Self::MAX_DEFAULT_COUNT`].
    /// Each shard costs one checkpoint save, so a shard should hold
    /// enough work that its save is a small share of it. The rule counts
    /// DIMMs, not DIMM-epochs, so that share holds at the default 12-hour
    /// scrub and 5-year horizon only: there a 256-DIMM shard is about
    /// 0.94M DIMM-epochs, a few ms of walk, against a save of a fraction
    /// of a ms. A shorter horizon or longer scrub interval makes saves a
    /// larger share again, and a longer horizon makes each shard (and
    /// the work a crash loses) larger. The floor of 2 keeps one interior
    /// boundary, so a drain, `stop_after_shards` or an injected crash can
    /// stop a default run halfway.
    pub fn new(dimms: u64, count: u32) -> Self {
        let want = match count {
            0 => (dimms / Self::DIMMS_PER_SHARD).clamp(
                u64::from(Self::MIN_DEFAULT_COUNT),
                u64::from(Self::MAX_DEFAULT_COUNT),
            ),
            k => u64::from(k),
        };
        Self {
            dimms,
            count: want.clamp(1, dimms.max(1)) as u32,
        }
    }

    /// Number of shards.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Total DIMMs the plan partitions.
    pub fn dimms(&self) -> u64 {
        self.dimms
    }

    /// The global DIMM-index range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.count()`.
    pub fn range(&self, shard: u32) -> Range<u64> {
        assert!(shard < self.count, "shard {shard} of {}", self.count);
        let base = self.dimms / self.count as u64;
        let rem = self.dimms % self.count as u64;
        let s = shard as u64;
        let lo = s * base + s.min(rem);
        lo..lo + base + u64::from(s < rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_exactly() {
        for (dimms, count) in [(10u64, 4u32), (5, 4), (1, 16), (1024, 16), (7, 7), (96, 5)] {
            let plan = ShardPlan::new(dimms, count);
            let mut cursor = 0u64;
            for s in 0..plan.count() {
                let r = plan.range(s);
                assert_eq!(r.start, cursor, "dimms={dimms} count={count} s={s}");
                assert!(r.end > r.start, "empty shard {s}");
                cursor = r.end;
            }
            assert_eq!(cursor, dimms);
        }
    }

    #[test]
    fn zero_count_defaults_and_clamps() {
        for (dimms, count) in [
            (0u64, 1u32),
            (1, 1),
            (3, 2),
            (64, 2),
            (511, 2),
            (512, 2),
            (1024, 4),
            (4095, 15),
            (4096, 16),
            (1 << 20, 16),
        ] {
            assert_eq!(ShardPlan::new(dimms, 0).count(), count, "dimms={dimms}");
        }
        assert_eq!(ShardPlan::new(3, 100).count(), 3);
        assert_eq!(ShardPlan::new(1024, 16).count(), 16);
    }

    #[test]
    fn default_plan_bounds_shard_size_and_count() {
        for dimms in 0..=10_000u64 {
            let count = u64::from(ShardPlan::new(dimms, 0).count());
            // One shard even for an empty fleet, else at least two.
            let floor = dimms.clamp(1, 2);
            assert!(count >= floor && count <= 16, "dimms={dimms} count={count}");
            if count > floor {
                // The smallest shard of the plan.
                assert!(
                    dimms / count >= ShardPlan::DIMMS_PER_SHARD,
                    "dimms={dimms} count={count}"
                );
            }
        }
    }
}
