//! `muse-service`: the crash-only fleet-lifetime daemon.
//!
//! A long-running service that accepts lifetime-run jobs (code ×
//! environment × horizon × estimator), executes them through the
//! sharded supervisor, and serves repeated configurations from a
//! CRC-checked, `config_hash`-fenced on-disk result cache — a repeated
//! config never recomputes.
//!
//! A shard attempt is a pure, bounded computation, so the supervisor
//! sets no per-shard timeout and retries a killed attempt at once; a
//! daemon that dies or is killed mid-job is recovered by the crash-only
//! path below (checkpoint, orphan adoption, resume), not by a watchdog.
//!
//! # Crash-only design: the spool directory
//!
//! There is no network protocol and no in-memory queue that can be
//! lost: the queue **is** the filesystem. A service root holds
//!
//! ```text
//! <root>/queue/<id>.job         submitted, waiting (JSON job spec)
//! <root>/active/<id>.job        claimed by a daemon (rename from queue/)
//! <root>/done/<id>.result       finished (JSON result, muse-result/v1)
//! <root>/failed/<id>.job|.err   failed loudly (spec kept + error text)
//! <root>/cache/<hash>.res       result cache (one-shard lifetime-ckpt/v2 records)
//! <root>/checkpoints/<id>/      per-job lifetime-ckpt/v2 checkpoints
//! ```
//!
//! where `<id>` is the 16-hex [`config_hash`](muse_lifetime::config_hash)
//! of the resolved job — submission is idempotent and deduplication is
//! structural. Claims are single `rename`s (atomic on POSIX); queued
//! specs, results and error texts are written temp-then-`fsync`-then-rename
//! through [`write_durable`](muse_lifetime::write_durable), so a power loss
//! never leaves an empty result behind a removed job; and every startup
//! *adopts* whatever a previous process left in `active/` by renaming it
//! back to `queue/`: recovery and normal startup are the same code path. A drained or
//! killed daemon therefore never needs a shutdown protocol to preserve
//! state — the state was never anywhere volatile to begin with.
//!
//! # Graceful drain
//!
//! [`ServiceConfig::drain`] is a shared flag (the CLI's `serve` wires it
//! to SIGTERM/SIGINT). It is checked between jobs and — via
//! [`RunnerConfig::stop`](muse_lifetime::RunnerConfig) — at every shard
//! boundary inside a running job, so the drain window is bounded by one
//! shard plus one checkpoint write. The in-flight job checkpoints,
//! returns to `queue/`, and the daemon exits cleanly; a restart adopts
//! the checkpoint and resumes **bit-identically** (`tests/chaos.rs`
//! pins this against an uninterrupted run).
//!
//! # Chaos coverage
//!
//! Checkpoints and cache records commit through the same `write_durable`,
//! which threads an [`IoFaultPlan`](muse_lifetime::IoFaultPlan) (the
//! spool's own files pass none); `tests/chaos.rs` sweeps
//! injected kills, ENOSPC, torn writes, rename and fsync failures,
//! cache-record corruption, and failing/blocked telemetry sinks,
//! asserting the invariant the whole crate is built around:
//! **bit-identical tallies or a loud, resumable failure — never wrong
//! numbers.**

#![deny(missing_docs)]

mod cache;
mod daemon;
mod job;

pub use cache::{CacheLookup, ResultCache};
pub use daemon::{
    serve, JobResult, ServiceConfig, ServiceReport, ServiceTelemetry, Spool, SpoolStatus,
};
pub use job::{JobSpec, JOB_SCHEMA, MAX_DIMM_EPOCHS};
