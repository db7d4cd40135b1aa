//! # muse-telemetry
//!
//! Zero-dependency observability for the MUSE simulation fleet: a
//! structured trace layer, a lock-free metrics registry, and live
//! progress rendering.  Everything here is *strictly observational* —
//! instruments never touch simulation RNG streams or tallies, so runs
//! with telemetry enabled are bit-identical to runs without it (the
//! `lifetime` crate's determinism tests enforce this).
//!
//! ## Trace layer (`muse-trace/v1`)
//!
//! [`TraceEvent`]s — run/shard lifecycle, checkpoint writes, shard
//! retries, resume adoption, estimator weight-cap
//! saturation, heartbeats — are encoded as flat, schema-versioned JSON
//! lines and fed through a *bounded* channel to a writer thread by
//! [`Tracer`].  Emission never blocks: under backpressure events are
//! dropped and counted ([`Tracer::dropped`]), and the per-event sequence
//! number still advances, so gaps in the file pinpoint where drops
//! happened.  Sink write errors are likewise counted
//! ([`Tracer::io_errors`]) rather than panicked over or silently
//! swallowed.  [`Tracer::finish`] returns a [`TraceSummary`] whose
//! counts account for every event exactly once:
//! `emitted == written + dropped + io_errors`.
//!
//! ## Metrics registry
//!
//! [`Metrics`] hands out `Arc`-shared [`Counter`]s, [`Gauge`]s, and
//! fixed-bucket log2 [`Histogram`]s by name.  The hot path is plain
//! relaxed atomics — the registry lock is only taken at registration and
//! render time.  [`Metrics::render`] produces Prometheus text exposition
//! format; [`Metrics::write_textfile`] writes it atomically
//! (temp + rename) for textfile collectors.
//!
//! ## Progress
//!
//! [`ProgressSnapshot`] renders the supervisor heartbeat line: shards
//! done, machine-years covered, ETA, and the live 95% CI half-width per
//! tracked rate — the hook a future "run until CI < target" stopping
//! rule needs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod progress;
pub mod trace;

pub use json::{parse_object, JsonBuilder, JsonError, JsonObject, JsonValue};
pub use metrics::{Counter, Gauge, Histogram, Metrics, HISTOGRAM_BUCKETS};
pub use progress::{estimate_eta_ms, render_duration_ms, ProgressSnapshot};
pub use trace::{TraceEvent, TraceSummary, Tracer, DEFAULT_CAPACITY, TRACE_SCHEMA};
