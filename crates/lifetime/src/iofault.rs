//! Deterministic I/O chaos: [`IoFaultPlan`].
//!
//! Where [`FaultPlan`](crate::FaultPlan) injects *execution* failures
//! (shard kills, completion delays, a corrupted checkpoint generation),
//! an `IoFaultPlan` injects *storage and sink* failures: into
//! [`write_durable`], the one durable-write path (behind both the
//! checkpoint store and the service result cache), and into wrapped
//! telemetry sinks. Every decision is a
//! pure function of `(seed ⊕ domain, op index)` through the same
//! counter-based [`Rng`] streams the simulator uses, so a chaos run is
//! exactly reproducible: the same seed injects the same ENOSPC at the
//! same generation on every machine, every time.
//!
//! The op index is whatever natural counter the call site already has —
//! checkpoint saves key by **generation**, cache writes by
//! **config hash**, sink writes by **write ordinal** — so no mutable
//! injection state exists anywhere.
//!
//! # Fault classes and their contracts
//!
//! The first five rows are injected by [`write_durable`], in this order.
//!
//! | Fault | Effect | Contract under chaos |
//! |---|---|---|
//! | `enospc` | `write_durable` fails before any byte lands | loud `Err`, previous state intact |
//! | `short_write` | only half the payload reaches the temp file | silent torn record; CRC rejects it on read, fallback loads |
//! | `fsync_fail` | `fsync` reports failure after the write | loud `Err`, previous state intact |
//! | `rename_fail` | atomic rename into place fails | loud `Err`, previous state intact |
//! | `corrupt_record` | one bit flips *after* a successful commit | CRC rejects on read → treated as missing, recompute |
//! | `sink_fail` / `sink_block` | telemetry sink write errors / stalls | counted + warned, never affects tallies, never blocks the run |
//!
//! "Never wrong numbers, never a hang": a fault either surfaces as an
//! error with resumable prior state, or is detected by CRC and treated
//! as absence. No path returns corrupted data as if it were valid.

use std::io::{self, Write};
use std::path::Path;

use muse_faultsim::Rng;

// Domain salts keep each fault class on a disjoint stream (same idiom as
// `Rng::for_shard` / `for_bias`): one seed drives independent decisions.
const D_ENOSPC: u64 = 0xE005_BCE0_05BC_E005;
const D_SHORT: u64 = 0x5407_5407_5407_5407;
const D_FSYNC: u64 = 0xF5FC_F5FC_F5FC_F5FC;
const D_RENAME: u64 = 0x2EBA_BE2E_BABE_2EBA;
const D_CORRUPT: u64 = 0xC0DE_C0DE_C0DE_C0DE;
const D_SINK: u64 = 0x51BB_51BB_51BB_51BB;

/// Deterministic I/O failure injection. All probabilities default to
/// zero (inject nothing); each decision method is a pure function of
/// `(seed, op)`.
#[derive(Debug, Clone, Copy)]
pub struct IoFaultPlan {
    /// Seed of the injection streams (domain-salted per fault class).
    pub seed: u64,
    /// Probability a durable write fails up front with an injected
    /// "no space left on device".
    pub enospc_prob: f64,
    /// Probability a durable write is torn: only half the payload
    /// reaches the file, which then commits "successfully" — the CRC
    /// layer must catch it on read.
    pub short_write_prob: f64,
    /// Probability `fsync` reports failure after a complete write.
    pub fsync_fail_prob: f64,
    /// Probability the atomic rename into place fails.
    pub rename_fail_prob: f64,
    /// Probability one bit of a record flips *after* a successful
    /// commit (bit rot between write and read-back).
    pub corrupt_record_prob: f64,
    /// Probability a wrapped telemetry-sink write returns an error.
    pub sink_fail_prob: f64,
    /// Stall per wrapped-sink write, in milliseconds (`0` disables) — a
    /// slow or blocked telemetry consumer.
    pub sink_block_ms: u64,
}

impl Default for IoFaultPlan {
    fn default() -> Self {
        Self {
            seed: 0x10FA_0171,
            enospc_prob: 0.0,
            short_write_prob: 0.0,
            fsync_fail_prob: 0.0,
            rename_fail_prob: 0.0,
            corrupt_record_prob: 0.0,
            sink_fail_prob: 0.0,
            sink_block_ms: 0,
        }
    }
}

fn decide(seed: u64, domain: u64, op: u64, p: f64) -> bool {
    p > 0.0 && Rng::for_cell(seed ^ domain, op, 0).chance(p)
}

impl IoFaultPlan {
    /// Does durable-write `op` fail with injected ENOSPC?
    pub fn enospc(&self, op: u64) -> bool {
        decide(self.seed, D_ENOSPC, op, self.enospc_prob)
    }

    /// Is durable-write `op` torn to half its payload?
    pub fn short_write(&self, op: u64) -> bool {
        decide(self.seed, D_SHORT, op, self.short_write_prob)
    }

    /// Does `fsync` fail for durable-write `op`?
    pub fn fsync_fails(&self, op: u64) -> bool {
        decide(self.seed, D_FSYNC, op, self.fsync_fail_prob)
    }

    /// Does the commit rename fail for durable-write `op`?
    pub fn rename_fails(&self, op: u64) -> bool {
        decide(self.seed, D_RENAME, op, self.rename_fail_prob)
    }

    /// Does record `op` rot after commit?
    pub fn corrupts_record(&self, op: u64) -> bool {
        decide(self.seed, D_CORRUPT, op, self.corrupt_record_prob)
    }

    /// Does the `op`-th wrapped-sink write fail?
    pub fn sink_fails(&self, op: u64) -> bool {
        decide(self.seed, D_SINK, op, self.sink_fail_prob)
    }

    /// True when any durable-write fault class is armed (used to skip
    /// the injection bookkeeping entirely on the common path).
    pub fn any_storage_faults(&self) -> bool {
        self.enospc_prob > 0.0
            || self.short_write_prob > 0.0
            || self.fsync_fail_prob > 0.0
            || self.rename_fail_prob > 0.0
            || self.corrupt_record_prob > 0.0
    }

    /// Wraps a telemetry sink in the chaos layer: per-write deterministic
    /// failures ([`Self::sink_fail_prob`]) and stalls
    /// ([`Self::sink_block_ms`]). The wrapper is what a chaos harness
    /// hands to `Tracer::new` to prove a misbehaving consumer can slow
    /// or lose telemetry but never corrupt tallies or hang the run.
    pub fn wrap_sink(&self, inner: Box<dyn Write + Send>) -> Box<dyn Write + Send> {
        Box::new(ChaosSink {
            inner,
            plan: *self,
            writes: 0,
        })
    }
}

/// The injected error for durable-write faults — message carries the
/// fault class and op index so test assertions and logs are precise.
fn injected_io_error(kind: &str, op: u64) -> io::Error {
    io::Error::other(format!("injected {kind} (io chaos, op {op})"))
}

/// The one durable-write path: writes `bytes` to `tmp`, `fsync`s it and
/// renames it over `dest`, so a crash at any instant leaves either the old
/// `dest` or the complete new one. Checkpoint saves and result-cache
/// records both commit through here.
///
/// With a plan attached, each fault class is decided on `op` in write
/// order: ENOSPC before any byte lands, a torn (half-length) payload,
/// an `fsync` failure, a rename failure, and finally single-bit rot of
/// the committed `dest`. Injected failures return `Err` with `dest`
/// untouched; torn and rotted payloads commit "successfully" and are left
/// for the reader's CRC checks to reject.
///
/// # Errors
///
/// Real or injected I/O failure.
pub fn write_durable(
    tmp: &Path,
    dest: &Path,
    bytes: &[u8],
    faults: Option<&IoFaultPlan>,
    op: u64,
) -> io::Result<()> {
    let inject = |fires: fn(&IoFaultPlan, u64) -> bool| faults.is_some_and(|f| fires(f, op));
    if inject(IoFaultPlan::enospc) {
        return Err(injected_io_error("ENOSPC", op));
    }
    let write_len = if inject(IoFaultPlan::short_write) {
        bytes.len() / 2
    } else {
        bytes.len()
    };
    let mut file = std::fs::File::create(tmp)?;
    file.write_all(&bytes[..write_len])?;
    if inject(IoFaultPlan::fsync_fails) {
        return Err(injected_io_error("fsync failure", op));
    }
    file.sync_all()?;
    drop(file);
    if inject(IoFaultPlan::rename_fails) {
        return Err(injected_io_error("rename failure", op));
    }
    std::fs::rename(tmp, dest)?;
    if inject(IoFaultPlan::corrupts_record) {
        let mut committed = std::fs::read(dest)?;
        let mid = committed.len() / 2;
        committed[mid] ^= 0x10;
        std::fs::write(dest, &committed)?;
    }
    Ok(())
}

struct ChaosSink {
    inner: Box<dyn Write + Send>,
    plan: IoFaultPlan,
    writes: u64,
}

impl Write for ChaosSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let op = self.writes;
        self.writes += 1;
        if self.plan.sink_block_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.plan.sink_block_ms));
        }
        if self.plan.sink_fails(op) {
            return Err(injected_io_error("sink failure", op));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_domain_separated() {
        let plan = IoFaultPlan {
            seed: 42,
            enospc_prob: 0.5,
            short_write_prob: 0.5,
            fsync_fail_prob: 0.5,
            rename_fail_prob: 0.5,
            corrupt_record_prob: 0.5,
            sink_fail_prob: 0.5,
            ..IoFaultPlan::default()
        };
        // Same plan, same op → same answer, across every class.
        for op in 0..64 {
            assert_eq!(plan.enospc(op), plan.enospc(op));
            assert_eq!(plan.short_write(op), plan.short_write(op));
            assert_eq!(plan.fsync_fails(op), plan.fsync_fails(op));
            assert_eq!(plan.rename_fails(op), plan.rename_fails(op));
            assert_eq!(plan.corrupts_record(op), plan.corrupts_record(op));
            assert_eq!(plan.sink_fails(op), plan.sink_fails(op));
        }
        // The classes draw from disjoint streams: at p=0.5 over 64 ops
        // two identical streams would agree everywhere; salted streams
        // must not.
        let classes: [&dyn Fn(u64) -> bool; 5] = [
            &|op| plan.enospc(op),
            &|op| plan.short_write(op),
            &|op| plan.fsync_fails(op),
            &|op| plan.rename_fails(op),
            &|op| plan.corrupts_record(op),
        ];
        for (i, a) in classes.iter().enumerate() {
            for b in &classes[i + 1..] {
                assert!((0..64).any(|op| a(op) != b(op)));
            }
        }
    }

    #[test]
    fn zero_probabilities_inject_nothing() {
        let plan = IoFaultPlan::default();
        for op in 0..256 {
            assert!(!plan.enospc(op));
            assert!(!plan.short_write(op));
            assert!(!plan.fsync_fails(op));
            assert!(!plan.rename_fails(op));
            assert!(!plan.corrupts_record(op));
            assert!(!plan.sink_fails(op));
        }
        assert!(!plan.any_storage_faults());
    }

    #[test]
    fn chaos_sink_fails_deterministically_and_passes_data_through() {
        let plan = IoFaultPlan {
            seed: 7,
            sink_fail_prob: 0.5,
            ..IoFaultPlan::default()
        };
        let run = || {
            let mut ok = Vec::new();
            let buf: Vec<u8> = Vec::new();
            let mut sink = ChaosSink {
                inner: Box::new(buf),
                plan,
                writes: 0,
            };
            for i in 0u8..32 {
                ok.push(sink.write(&[i]).is_ok());
            }
            ok
        };
        let a = run();
        assert_eq!(a, run(), "sink failures must be deterministic");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }
}
