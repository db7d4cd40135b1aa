//! The on-disk result cache: one-shard `lifetime-ckpt/v2` records.
//!
//! One record caches the complete [`LifetimeTally`] of one finished
//! run, keyed — in the file name *and* inside the CRC-protected payload
//! — by the run's [`config_hash`](muse_lifetime::config_hash). The record
//! at `<hash:016x>.res` is a [`Checkpoint`] holding exactly shard 0 of 1,
//! so the cache shares the checkpoint's byte layout, CRCs and decoder
//! rather than keeping a format of its own; the header's generation,
//! DIMM count and epoch cursor are written as fixed values and ignored
//! on read.
//!
//! A lookup only ever returns a tally whose embedded hash matches the
//! request and whose CRCs verify; anything else (truncation, bit rot, a
//! record renamed over the wrong key, a record in an older format) is
//! reported as [`CacheLookup::Corrupt`] and treated as a miss. **A
//! corrupt cache can cost a recompute, never a wrong number.**
//!
//! Writes go through [`write_durable`], the same path as checkpoint
//! saves, keyed by the config hash — so the chaos suite can tear,
//! starve, or rot cache records at exact, reproducible keys. A failed
//! cache write is a warning for the caller, never a job failure: the
//! cache is an optimization, correctness lives in the run itself.

use std::path::{Path, PathBuf};

use muse_lifetime::{write_durable, Checkpoint, IoFaultPlan, LifetimeTally};

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// A valid record for exactly this config hash.
    Hit(LifetimeTally),
    /// No record on disk.
    Miss,
    /// A record exists but failed validation (CRC, magic, version,
    /// length, embedded-hash mismatch, or not exactly shard 0 of 1).
    /// Callers count it and recompute.
    Corrupt,
}

/// The config-hash-keyed result cache of one service root.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    faults: Option<IoFaultPlan>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `dir`, with an
    /// optional I/O chaos seam whose decisions are keyed by the record's
    /// config hash.
    ///
    /// # Errors
    ///
    /// Directory creation failure.
    pub fn open(dir: &Path, faults: Option<IoFaultPlan>) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            faults: faults.filter(IoFaultPlan::any_storage_faults),
        })
    }

    /// The record path for a config hash.
    pub fn record_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.res"))
    }

    /// Looks up `hash`. Corruption of any kind is reported, not
    /// returned: a [`CacheLookup::Hit`] tally is bit-exact by
    /// construction.
    pub fn get(&self, hash: u64) -> CacheLookup {
        let Ok(bytes) = std::fs::read(self.record_path(hash)) else {
            return CacheLookup::Miss;
        };
        match Checkpoint::decode(&bytes) {
            Ok(c) if c.config_hash == hash && c.shard_count == 1 => match c.done[..] {
                [(0, tally)] => CacheLookup::Hit(tally),
                _ => CacheLookup::Corrupt,
            },
            _ => CacheLookup::Corrupt,
        }
    }

    /// Atomically persists the record for `hash` through
    /// [`write_durable`], with every step subject to the attached
    /// [`IoFaultPlan`] (keyed by `hash`). A post-commit `corrupt_record`
    /// fault flips one bit in the committed file — the bit-rot case
    /// [`Self::get`]'s CRC exists to catch.
    ///
    /// # Errors
    ///
    /// Real or injected I/O failure; the previous record (if any) is
    /// intact either way.
    pub fn put(&self, hash: u64, tally: &LifetimeTally) -> std::io::Result<()> {
        let record = Checkpoint {
            config_hash: hash,
            generation: 1,
            shard_count: 1,
            dimms: 0,
            epoch_cursor: 0,
            done: vec![(0, *tally)],
        };
        write_durable(
            &self.dir.join(format!("{hash:016x}.tmp")),
            &self.record_path(hash),
            &record.encode(),
            self.faults.as_ref(),
            hash,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let mut dir = std::env::temp_dir();
            dir.push(format!("muse-cache-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample() -> LifetimeTally {
        let mut t = LifetimeTally {
            epochs: 9000,
            due_words: 17,
            sdc_words: 1,
            corrected_words: 230,
            erasure_reads: 400,
            ..LifetimeTally::default()
        };
        t.due_weighted.push(2.5);
        t.weight_sum.push(1.0);
        t
    }

    #[test]
    fn roundtrip_and_miss() {
        let dir = TempDir::new("roundtrip");
        let cache = ResultCache::open(&dir.0, None).unwrap();
        assert_eq!(cache.get(42), CacheLookup::Miss);
        cache.put(42, &sample()).unwrap();
        assert_eq!(cache.get(42), CacheLookup::Hit(sample()));
        // A different hash is a miss even with a record on disk.
        assert_eq!(cache.get(43), CacheLookup::Miss);
    }

    #[test]
    fn every_truncation_and_bitflip_is_corrupt_never_wrong() {
        let dir = TempDir::new("mangle");
        let cache = ResultCache::open(&dir.0, None).unwrap();
        cache.put(7, &sample()).unwrap();
        let path = cache.record_path(7);
        let good = std::fs::read(&path).unwrap();
        for len in 0..good.len() {
            std::fs::write(&path, &good[..len]).unwrap();
            assert_eq!(cache.get(7), CacheLookup::Corrupt, "prefix {len} accepted");
        }
        for bit in 0..good.len() * 8 {
            let mut mangled = good.clone();
            mangled[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &mangled).unwrap();
            assert_eq!(cache.get(7), CacheLookup::Corrupt, "bit {bit} accepted");
        }
        // Restored bytes hit again.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(cache.get(7), CacheLookup::Hit(sample()));
    }

    #[test]
    fn hash_fencing_rejects_renamed_records() {
        // A record copied over another key carries its own hash inside
        // the CRC'd payload — the fence catches the swap.
        let dir = TempDir::new("fence");
        let cache = ResultCache::open(&dir.0, None).unwrap();
        cache.put(1, &sample()).unwrap();
        std::fs::copy(cache.record_path(1), cache.record_path(2)).unwrap();
        assert_eq!(cache.get(2), CacheLookup::Corrupt);
    }

    #[test]
    fn injected_faults_fail_loudly_or_detectably() {
        let dir = TempDir::new("faults");
        let loud = |plan: IoFaultPlan| {
            let cache = ResultCache::open(&dir.0, Some(plan)).unwrap();
            cache.put(5, &sample()).unwrap_err();
            // Nothing half-written became visible.
            assert_eq!(cache.get(5), CacheLookup::Miss);
        };
        loud(IoFaultPlan {
            enospc_prob: 1.0,
            ..IoFaultPlan::default()
        });
        loud(IoFaultPlan {
            fsync_fail_prob: 1.0,
            ..IoFaultPlan::default()
        });
        loud(IoFaultPlan {
            rename_fail_prob: 1.0,
            ..IoFaultPlan::default()
        });
        // Torn write: commit "succeeds" but the CRC refuses the record.
        let torn = ResultCache::open(
            &dir.0,
            Some(IoFaultPlan {
                short_write_prob: 1.0,
                ..IoFaultPlan::default()
            }),
        )
        .unwrap();
        torn.put(6, &sample()).unwrap();
        assert_eq!(torn.get(6), CacheLookup::Corrupt);
        // Post-commit rot: same detection.
        let rot = ResultCache::open(
            &dir.0,
            Some(IoFaultPlan {
                corrupt_record_prob: 1.0,
                ..IoFaultPlan::default()
            }),
        )
        .unwrap();
        rot.put(8, &sample()).unwrap();
        assert_eq!(rot.get(8), CacheLookup::Corrupt);
    }
}
