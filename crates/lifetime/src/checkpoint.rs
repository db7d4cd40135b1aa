//! Durable, crash-safe fleet checkpoints: the `lifetime-ckpt/v2` format.
//!
//! A checkpoint captures everything the sharded runner
//! ([`run_sharded`](crate::run_sharded)) needs to continue an interrupted
//! fleet run bit-identically: the shard completion map with each completed
//! shard's [`LifetimeTally`] partial, the shard-plan geometry, and a
//! [`config_hash`] fingerprint of the full `(FleetCode, Environment,
//! FleetConfig)` triple so a checkpoint can never silently resume under
//! different parameters.
//!
//! This is the only on-disk format of a [`LifetimeTally`]: the service's
//! result cache stores each finished run as a one-shard checkpoint
//! (shard 0 of 1), so [`Checkpoint::encode`] and [`Checkpoint::decode`]
//! are the one serializer and the one parser of a tally.
//!
//! # On-disk layout (`lifetime-ckpt/v2`)
//!
//! One checkpoint file is a fixed header followed by one record per
//! completed shard, every piece independently CRC-32 checksummed:
//!
//! ```text
//! header (56 bytes):
//!   0   8  magic  b"MLCKPT1\n"
//!   8   4  format version (u32 LE) = 2
//!   12  4  shard count of the run's shard plan (u32 LE)
//!   16  8  config_hash (u64 LE)
//!   24  8  generation (u64 LE, monotonically increasing per save)
//!   32  8  fleet dimms (u64 LE)
//!   40  8  epoch cursor: DIMM-epochs covered by the records (u64 LE)
//!   48  4  record count (u32 LE)
//!   52  4  CRC-32 of bytes 0..52
//! record (192 bytes, repeated `record count` times, ascending shard index):
//!   0    4  shard index (u32 LE)
//!   4   88  the 11 raw LifetimeTally counters (u64 LE, declaration order)
//!   92  96  the 3 WeightedCount accumulators — due_weighted,
//!           sdc_weighted, weight_sum — each as sum_q64 then sumsq_q32
//!           (u128 LE); all zero under the naive estimator
//!   188  4  CRC-32 of bytes 0..188
//! ```
//!
//! Any other version — including the 96-byte-record `v1` layout of older
//! builds — decodes as [`CheckpointError::BadFormat`]. Checkpoints are
//! transient run state, so a resume that finds only such files warns and
//! starts over rather than carrying a second reader.
//!
//! The string `"lifetime-ckpt/v1"` that opens every [`config_hash`] is a
//! frozen domain separator, not a format version: the hash fingerprints
//! the *run configuration*, and it is kept so that service job ids and
//! existing v2 checkpoints stay valid.
//!
//! # Generation policy and corruption fallback
//!
//! A [`CheckpointStore`] keeps **two generations** in alternating slot
//! files (`<prefix>.g0` / `<prefix>.g1`, slot = generation mod 2). Every
//! save is atomic — [`write_durable`] writes `<prefix>.tmp`, `fsync`s it
//! and renames it over the slot — so a crash mid-write can at worst
//! corrupt the *newest* generation, never the previous one.
//! [`CheckpointStore::load`] decodes both slots and returns the valid
//! checkpoint with the highest generation; if the newest slot is
//! truncated or bit-flipped (any CRC, magic, or length check fails) it
//! **falls back to the previous generation** and reports the fallback,
//! and the resumed run simply recomputes the shards that generation had
//! not yet recorded. Only when both slots are unreadable does a resume
//! start from scratch, with a warning.

use std::path::{Path, PathBuf};

use crate::estimator::WeightedCount;
use crate::iofault::{write_durable, IoFaultPlan};
use crate::{Environment, FleetCode, FleetConfig, LifetimeTally};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"MLCKPT1\n";
/// The checkpoint format version, the only one this build reads or writes.
pub const FORMAT_VERSION: u32 = 2;
const HEADER_LEN: usize = 56;
const RECORD_LEN: usize = 192;
const TALLY_FIELDS: usize = 11;

/// Why a checkpoint payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The payload is shorter than its header and records claim.
    Truncated,
    /// The magic bytes or format version do not match `lifetime-ckpt/v2`.
    BadFormat,
    /// A CRC-32 check failed (bit rot or a torn write).
    BadChecksum,
    /// Structurally invalid contents (shard indexes out of range or not
    /// strictly ascending).
    BadStructure,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::BadFormat => write!(f, "not a lifetime-ckpt/v2 payload"),
            Self::BadChecksum => write!(f, "checkpoint CRC mismatch"),
            Self::BadStructure => write!(f, "checkpoint structurally invalid"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `bytes` — the per-record
/// integrity check of the checkpoint format.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
        }
    }
    !crc
}

fn tally_fields(t: &LifetimeTally) -> [u64; TALLY_FIELDS] {
    [
        t.epochs,
        t.degraded_epochs,
        t.corrected_words,
        t.due_words,
        t.sdc_words,
        t.erasure_reads,
        t.devices_retired,
        t.rows_retired,
        t.spare_rebuilds,
        t.data_loss_events,
        t.dimm_replacements,
    ]
}

fn tally_from_fields(f: [u64; TALLY_FIELDS]) -> LifetimeTally {
    LifetimeTally {
        epochs: f[0],
        degraded_epochs: f[1],
        corrected_words: f[2],
        due_words: f[3],
        sdc_words: f[4],
        erasure_reads: f[5],
        devices_retired: f[6],
        rows_retired: f[7],
        spare_rebuilds: f[8],
        data_loss_events: f[9],
        dimm_replacements: f[10],
        ..LifetimeTally::default()
    }
}

/// The three weighted accumulators in their on-disk order.
fn weighted_fields(t: &LifetimeTally) -> [WeightedCount; 3] {
    [t.due_weighted, t.sdc_weighted, t.weight_sum]
}

/// An in-memory checkpoint: the durable state of one sharded fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// [`config_hash`] of the `(code, environment, config)` under
    /// simulation. Resume refuses a checkpoint whose hash differs.
    pub config_hash: u64,
    /// Monotonically increasing save counter (starts at 1).
    pub generation: u64,
    /// Shard count of the run's [`ShardPlan`](crate::ShardPlan); resume
    /// adopts this plan so a different `--shards` value cannot misalign
    /// the recorded ranges.
    pub shard_count: u32,
    /// Fleet size the plan splits (consistency check against the config).
    pub dimms: u64,
    /// Fleet epoch cursor: DIMM-epochs covered by `done` (drives the
    /// resume banner's machine-years figure).
    pub epoch_cursor: u64,
    /// Completed shards, ascending by shard index, with their tally
    /// partials.
    pub done: Vec<(u32, LifetimeTally)>,
}

impl Checkpoint {
    /// Serializes to the `lifetime-ckpt/v2` byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + RECORD_LEN * self.done.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.shard_count.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.dimms.to_le_bytes());
        out.extend_from_slice(&self.epoch_cursor.to_le_bytes());
        out.extend_from_slice(&(self.done.len() as u32).to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        for &(shard, ref tally) in &self.done {
            let start = out.len();
            out.extend_from_slice(&shard.to_le_bytes());
            for field in tally_fields(tally) {
                out.extend_from_slice(&field.to_le_bytes());
            }
            for wc in weighted_fields(tally) {
                out.extend_from_slice(&wc.sum_q64.to_le_bytes());
                out.extend_from_slice(&wc.sumsq_q32.to_le_bytes());
            }
            let crc = crc32(&out[start..]);
            out.extend_from_slice(&crc.to_le_bytes());
        }
        out
    }

    /// Decodes and fully validates a `lifetime-ckpt/v2` payload: magic,
    /// version, exact length, header and per-record CRCs, and shard-index
    /// structure. Any corruption — truncation anywhere, any flipped bit —
    /// yields an error rather than a partial checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::Truncated);
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let u128_at = |off: usize| u128::from_le_bytes(bytes[off..off + 16].try_into().unwrap());
        if bytes[..8] != MAGIC || u32_at(8) != FORMAT_VERSION {
            return Err(CheckpointError::BadFormat);
        }
        if crc32(&bytes[..52]) != u32_at(52) {
            return Err(CheckpointError::BadChecksum);
        }
        let shard_count = u32_at(12);
        let records = u32_at(48) as usize;
        if bytes.len() != HEADER_LEN + RECORD_LEN * records {
            return Err(CheckpointError::Truncated);
        }
        let mut done = Vec::with_capacity(records);
        let mut prev: Option<u32> = None;
        for r in 0..records {
            let base = HEADER_LEN + RECORD_LEN * r;
            let crc_off = base + RECORD_LEN - 4;
            if crc32(&bytes[base..crc_off]) != u32_at(crc_off) {
                return Err(CheckpointError::BadChecksum);
            }
            let shard = u32_at(base);
            if shard >= shard_count || prev.is_some_and(|p| shard <= p) {
                return Err(CheckpointError::BadStructure);
            }
            prev = Some(shard);
            let mut fields = [0u64; TALLY_FIELDS];
            for (i, field) in fields.iter_mut().enumerate() {
                *field = u64_at(base + 4 + 8 * i);
            }
            let wbase = base + 4 + 8 * TALLY_FIELDS;
            let wc = |i: usize| WeightedCount {
                sum_q64: u128_at(wbase + 32 * i),
                sumsq_q32: u128_at(wbase + 32 * i + 16),
            };
            let tally = LifetimeTally {
                due_weighted: wc(0),
                sdc_weighted: wc(1),
                weight_sum: wc(2),
                ..tally_from_fields(fields)
            };
            done.push((shard, tally));
        }
        Ok(Self {
            config_hash: u64_at(16),
            generation: u64_at(24),
            shard_count,
            dimms: u64_at(32),
            epoch_cursor: u64_at(40),
            done,
        })
    }
}

/// How an injected fault mangles a checkpoint file (see
/// [`FaultPlan`](crate::FaultPlan)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the file to half its length (a torn write / full disk).
    Truncate,
    /// Flip one bit in the middle of the payload (bit rot).
    BitFlip,
}

/// A checkpoint read back from disk.
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The newest valid checkpoint.
    pub checkpoint: Checkpoint,
    /// True when a *newer* slot existed but was corrupt, so this is the
    /// previous-generation fallback.
    pub fell_back: bool,
}

/// The two-generation on-disk store of one sharded run's checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    slots: [PathBuf; 2],
    tmp: PathBuf,
    faults: Option<IoFaultPlan>,
}

impl CheckpointStore {
    /// Opens (creating the directory if needed) the store for `prefix`
    /// under `dir`. Distinct runs sharing a directory must use distinct
    /// prefixes.
    pub fn open(dir: &Path, prefix: &str) -> std::io::Result<Self> {
        Self::open_with_faults(dir, prefix, None)
    }

    /// [`Self::open`] with an [`IoFaultPlan`] seam: every [`Self::save`]
    /// consults the plan, keyed by the checkpoint's **generation** (a
    /// natural, deterministic op index), so chaos tests can inject
    /// ENOSPC / torn writes / fsync / rename failures at exact,
    /// reproducible points in a run.
    pub fn open_with_faults(
        dir: &Path,
        prefix: &str,
        faults: Option<IoFaultPlan>,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            slots: [
                dir.join(format!("{prefix}.g0")),
                dir.join(format!("{prefix}.g1")),
            ],
            tmp: dir.join(format!("{prefix}.tmp")),
            faults: faults.filter(IoFaultPlan::any_storage_faults),
        })
    }

    /// The slot file a given generation lands in.
    pub fn slot_path(&self, generation: u64) -> &Path {
        &self.slots[(generation % 2) as usize]
    }

    /// Atomically persists `checkpoint` into its generation's slot through
    /// [`write_durable`]. The previous generation's slot is untouched, so a
    /// crash at any instant leaves at least one valid checkpoint behind.
    ///
    /// With an [`IoFaultPlan`] attached ([`Self::open_with_faults`]),
    /// injected ENOSPC / fsync / rename faults surface here as `Err` —
    /// the previous generation stays intact and resumable — while an
    /// injected short write commits a torn payload that [`Self::load`]'s
    /// CRC validation rejects (fallback generation loads instead). A
    /// post-commit `corrupt_record` fault flips one bit in the slot
    /// (bit rot), exercising the same fallback.
    pub fn save(&self, checkpoint: &Checkpoint) -> std::io::Result<()> {
        let generation = checkpoint.generation;
        write_durable(
            &self.tmp,
            self.slot_path(generation),
            &checkpoint.encode(),
            self.faults.as_ref(),
            generation,
        )
    }

    /// Loads the newest valid checkpoint, falling back to the previous
    /// generation when the newest slot is corrupt. `None` when neither
    /// slot holds a valid checkpoint.
    pub fn load(&self) -> Option<Loaded> {
        let mut valid: Vec<Checkpoint> = Vec::new();
        let mut corrupt = 0u32;
        for slot in &self.slots {
            // An unreadable slot is "not yet written"; only a slot that
            // exists but fails validation counts as corruption.
            if let Ok(bytes) = std::fs::read(slot) {
                match Checkpoint::decode(&bytes) {
                    Ok(c) => valid.push(c),
                    Err(_) => corrupt += 1,
                }
            }
        }
        valid.sort_by_key(|c| c.generation);
        let checkpoint = valid.pop()?;
        Some(Loaded {
            checkpoint,
            fell_back: corrupt > 0,
        })
    }

    /// Deletes both generations (a non-resuming run starts clean).
    pub fn clear(&self) -> std::io::Result<()> {
        for path in self.slots.iter().chain([&self.tmp]) {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Applies an injected [`Corruption`] to `generation`'s slot file.
    /// Returns `false` when the slot does not exist. Used by the fault
    /// plan (and tests) to prove the fallback path works.
    pub fn corrupt(&self, generation: u64, kind: Corruption) -> std::io::Result<bool> {
        let path = self.slot_path(generation);
        let Ok(mut bytes) = std::fs::read(path) else {
            return Ok(false);
        };
        match kind {
            Corruption::Truncate => bytes.truncate(bytes.len() / 2),
            Corruption::BitFlip => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
            }
        }
        std::fs::write(path, &bytes)?;
        Ok(true)
    }
}

/// FNV-1a 64-bit over the canonical encodings of the full run
/// configuration — the stable fingerprint stored in every checkpoint (and
/// the service's job id and result-cache key): a checkpoint resumes only
/// under the exact `(code, environment, config)` that produced it.
///
/// [`FleetConfig::threads`] is deliberately **excluded** (via
/// [`FleetConfig::canonical_bytes`]): tallies are bit-identical at any
/// thread count, so moving a checkpoint to a machine with different
/// parallelism must not invalidate it.
///
/// The leading `"lifetime-ckpt/v1"` is a frozen domain separator, not the
/// container format version: changing it would change every hash and so
/// invalidate service job ids and existing v2 checkpoints.
pub fn config_hash(code: &FleetCode, env: &Environment, config: &FleetConfig) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(b"lifetime-ckpt/v1");
    eat(&code.canonical_bytes());
    eat(&env.canonical_bytes());
    eat(&config.canonical_bytes());
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn sample() -> Checkpoint {
        let mut t = LifetimeTally {
            epochs: 123,
            due_words: 4,
            sdc_words: 1,
            ..LifetimeTally::default()
        };
        t.due_weighted.push(3.75);
        t.sdc_weighted.push(0.015625);
        t.weight_sum.push(1.0);
        Checkpoint {
            config_hash: 0xDEAD_BEEF_0BAD_F00D,
            generation: 7,
            shard_count: 9,
            dimms: 1000,
            epoch_cursor: 246,
            done: vec![(0, t), (3, LifetimeTally::default()), (8, t)],
        }
    }

    #[test]
    fn roundtrip() {
        let c = sample();
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn v2_layout_is_pinned() {
        assert_eq!(sample().encode().len(), 56 + 192 * 3);
    }

    #[test]
    fn other_versions_are_bad_format() {
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(Checkpoint::decode(&bytes), Err(CheckpointError::BadFormat));
    }

    #[test]
    fn every_truncation_fails() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn every_single_bitflip_fails() {
        let bytes = sample().encode();
        for bit in 0..bytes.len() * 8 {
            let mut mangled = bytes.clone();
            mangled[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Checkpoint::decode(&mangled).is_err(),
                "flip of bit {bit} decoded"
            );
        }
    }

    #[test]
    fn unsorted_or_out_of_range_shards_fail() {
        let mut c = sample();
        c.done[1].0 = 0; // duplicate/descending
        assert_eq!(
            Checkpoint::decode(&c.encode()),
            Err(CheckpointError::BadStructure)
        );
        let mut c = sample();
        c.done[2].0 = 9; // == shard_count
        assert_eq!(
            Checkpoint::decode(&c.encode()),
            Err(CheckpointError::BadStructure)
        );
    }
}
