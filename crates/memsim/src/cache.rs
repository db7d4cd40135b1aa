//! Set-associative write-back, write-allocate cache with LRU replacement,
//! kept as recency-ordered sets.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The line was present.
    Hit,
    /// The line was filled; a dirty victim (line-aligned address) may need
    /// writing back.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

impl CacheAccess {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Self::Hit)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1].
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Moves `tag` to slot 0 of a recency-ordered set (most recently used
/// first), shifting the tags ahead of it one slot towards the tail, in one
/// pass. Returns `Ok(slot)` with the slot `tag` was found in; if it was
/// absent, every tag has shifted and `Err` holds the one pushed out of the
/// last slot.
#[inline]
fn touch(set: &mut [u64], tag: u64) -> Result<usize, u64> {
    let mut carried = tag;
    for (slot, t) in set.iter_mut().enumerate() {
        let held = std::mem::replace(t, carried);
        if held == tag {
            return Ok(slot);
        }
        carried = held;
    }
    Err(carried)
}

/// The tag of an empty way. A tag is a line address shifted right by the
/// set-index bits, so it stays below `u64::MAX` whenever a line and its
/// set index span at least one address bit, which [`Cache::new`] requires.
const EMPTY: u64 = u64::MAX;

/// A single cache level.
///
/// Each set keeps its tags in recency order, most recently used first, in
/// one set-major tag array: a hit moves its tag to slot 0, and a miss
/// shifts every slot one towards the tail and pushes out the last one.
/// Empty ways hold a tag no line can have, so no lookup matches them. They
/// start at the tail and stay behind every line, so the slot pushed out is
/// either an empty way or the true LRU line.
///
/// # Examples
///
/// ```
/// use muse_memsim::{Cache, CacheAccess};
///
/// let mut l1 = Cache::new("L1D", 32 * 1024, 8, 64, 4);
/// assert!(matches!(l1.access(0x1000, false), CacheAccess::Miss { .. }));
/// assert!(l1.access(0x1000, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    /// `ways` tags per set, set after set.
    tags: Vec<u64>,
    /// Per set: bit `i` set means the line in slot `i` is dirty.
    dirty: Vec<u64>,
    ways: usize,
    set_bits: u32,
    line_bits: u32,
    latency: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `ways` associativity and
    /// `line_bytes` lines; `latency` is the hit latency in CPU cycles.
    ///
    /// # Panics
    ///
    /// Panics unless sizes are powers of two and consistent, unless `ways`
    /// is between 1 and 64, and unless each way holds at least two bytes
    /// (`size_bytes / ways >= 2`).
    pub fn new(
        name: &'static str,
        size_bytes: u64,
        ways: usize,
        line_bytes: u64,
        latency: u64,
    ) -> Self {
        assert!(size_bytes.is_power_of_two() && line_bytes.is_power_of_two());
        assert!((1..=64).contains(&ways), "ways must be between 1 and 64");
        let n_lines = size_bytes / line_bytes;
        assert!(
            (n_lines as usize).is_multiple_of(ways),
            "lines not divisible by ways"
        );
        let n_sets = n_lines as usize / ways;
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            n_sets as u64 * line_bytes >= 2,
            "each way must hold at least two bytes"
        );
        Self {
            name,
            tags: vec![EMPTY; n_sets * ways],
            dirty: vec![0; n_sets],
            ways,
            set_bits: n_sets.trailing_zeros(),
            line_bits: line_bytes.trailing_zeros(),
            latency,
            stats: CacheStats::default(),
        }
    }

    /// The cache's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Hit latency in CPU cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set index and tag of `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_bits;
        let set_idx = (line_addr & ((1 << self.set_bits) - 1)) as usize;
        (set_idx, line_addr >> self.set_bits)
    }

    /// Accesses `addr`; on a miss the line is filled (write-allocate) and a
    /// dirty victim may be returned for write-back.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        // The hierarchy's associativities get a set of fixed length, whose
        // scan the compiler unrolls.
        match self.ways {
            8 => self.access_set::<8>(addr, is_write),
            16 => self.access_set::<16>(addr, is_write),
            _ => self.access_set::<0>(addr, is_write),
        }
    }

    /// [`access`](Self::access) on sets of `WAYS` ways, or of `self.ways`
    /// when `WAYS` is 0.
    #[inline(always)]
    fn access_set<const WAYS: usize>(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        let ways = if WAYS == 0 { self.ways } else { WAYS };
        let (set_idx, tag) = self.locate(addr);
        let set = &mut self.tags[set_idx * ways..][..ways];
        let dirty = &mut self.dirty[set_idx];
        let d = *dirty;
        let tail = match touch(set, tag) {
            Ok(slot) => {
                // The dirty bits of slots `..slot` shift one slot towards
                // the tail, and `slot`'s bit moves to slot 0.
                let below = (1u64 << slot) - 1;
                let moved = (d >> slot) & 1 | is_write as u64;
                *dirty = (d & !(below << 1 | 1)) | (d & below) << 1 | moved;
                self.stats.hits += 1;
                return CacheAccess::Hit;
            }
            Err(tail) => tail,
        };
        // Every line shifts one slot towards the tail. The tail's bit moves
        // past the last way, where no lookup reads it and it only ever
        // shifts further out; an empty way's bit is always clear.
        *dirty = d << 1 | is_write as u64;
        self.stats.misses += 1;
        let writeback = (tail != EMPTY && (d >> (ways - 1)) & 1 == 1).then(|| {
            self.stats.writebacks += 1;
            ((tail << self.set_bits) | set_idx as u64) << self.line_bits
        });
        CacheAccess::Miss { writeback }
    }

    /// Whether `addr` is currently resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.locate(addr);
        self.tags[set_idx * self.ways..][..self.ways].contains(&tag)
    }
}

/// A tiny fully-associative metadata cache (the 32-entry, 16 kB tag cache of
/// Section VII-D): one recency-ordered set, as in [`Cache`].
#[derive(Debug, Clone)]
pub struct MetadataCache {
    /// Resident line addresses, most recently used first.
    entries: Vec<u64>,
    capacity: usize,
    stats: CacheStats,
}

impl MetadataCache {
    /// A fully-associative cache of `capacity` metadata lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "metadata cache needs at least one entry");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Looks up (and on miss, fills) the metadata line `line_addr`.
    /// Returns `true` on hit.
    pub fn access(&mut self, line_addr: u64) -> bool {
        match touch(&mut self.entries, line_addr) {
            Ok(_) => {
                self.stats.hits += 1;
                true
            }
            Err(tail) => {
                self.stats.misses += 1;
                if self.entries.len() < self.capacity {
                    self.entries.push(tail);
                }
                false
            }
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new("t", 4096, 4, 64, 1);
        assert!(!c.access(0x40, false).is_hit());
        assert!(c.access(0x40, false).is_hit());
        assert!(c.access(0x7F, false).is_hit()); // same line
        assert!(!c.access(0x80, false).is_hit()); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, line 64, size 256 -> 2 sets. Same set: addresses with the
        // same line-index bit.
        let mut c = Cache::new("t", 256, 2, 64, 1);
        let set0 = |i: u64| i * 128; // stride over sets: bit 6 is the set bit
        assert!(!c.access(set0(0), false).is_hit());
        assert!(!c.access(set0(1), false).is_hit());
        // Touch line 0 so line 1 is LRU.
        assert!(c.access(set0(0), false).is_hit());
        // Fill a third line: evicts line 1.
        assert!(!c.access(set0(2), false).is_hit());
        assert!(c.access(set0(0), false).is_hit());
        assert!(!c.access(set0(1), false).is_hit());
    }

    #[test]
    fn dirty_writeback_address() {
        let mut c = Cache::new("t", 128, 1, 64, 1); // direct-mapped, 2 sets
        assert!(!c.access(0x000, true).is_hit());
        // Same set (set 0): 0x000 and 0x080 collide.
        match c.access(0x080, false) {
            CacheAccess::Miss {
                writeback: Some(victim),
            } => assert_eq!(victim, 0x000),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction produces no writeback.
        match c.access(0x100, false) {
            CacheAccess::Miss { writeback } => assert_eq!(writeback, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = Cache::new("t", 128, 1, 64, 1);
        c.access(0x000, false);
        c.access(0x000, true); // dirty via hit
        match c.access(0x080, false) {
            CacheAccess::Miss { writeback: Some(_) } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = Cache::new("t", 4096, 4, 64, 1);
        c.access(0x40, false);
        assert!(c.probe(0x40));
        assert!(!c.probe(0x4000));
        assert_eq!(c.stats().hits + c.stats().misses, 1);
    }

    #[test]
    fn sixty_four_ways_keep_lru_order() {
        // One set of 64 ways: the first line filled sits in the tail slot
        // once the set is full, a hit there moves it to the front, and the
        // next miss evicts the second line instead.
        let mut c = Cache::new("t", 64 * 64, 64, 64, 1);
        for i in 0..64u64 {
            assert!(!c.access(i * 64, i < 2).is_hit());
        }
        assert!(c.access(0, false).is_hit());
        assert_eq!(
            c.access(64 * 64, false),
            CacheAccess::Miss {
                writeback: Some(64)
            }
        );
        assert!(c.probe(0) && !c.probe(64));
    }

    #[test]
    #[should_panic(expected = "ways must be between 1 and 64")]
    fn more_than_sixty_four_ways_panics() {
        Cache::new("t", 128 * 64, 128, 64, 1);
    }

    #[test]
    #[should_panic(expected = "each way must hold at least two bytes")]
    fn one_byte_ways_panic() {
        // One set of one-byte lines: every address would be its own tag,
        // `u64::MAX` (the empty-way marker) included.
        Cache::new("t", 4, 4, 1, 1);
    }

    #[test]
    fn metadata_cache_lru() {
        let mut m = MetadataCache::new(2);
        assert!(!m.access(1));
        assert!(!m.access(2));
        assert!(m.access(1)); // 2 is now LRU
        assert!(!m.access(3)); // evicts 2
        assert!(m.access(1));
        assert!(!m.access(2));
        assert!((m.stats().miss_ratio() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn miss_ratio_empty_is_zero() {
        let c = Cache::new("t", 4096, 4, 64, 1);
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }
}
