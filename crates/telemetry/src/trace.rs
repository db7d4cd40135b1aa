//! The `muse-trace/v1` structured trace layer.
//!
//! A [`Tracer`] accepts [`TraceEvent`]s from any thread through a *bounded*
//! channel and writes them as JSON-lines from a dedicated writer thread.
//! Emission never waits on the sink: when the channel is full the event is
//! counted as dropped instead.  Every line carries the schema tag and a
//! monotonically increasing sequence number; the sequence is advanced even
//! for dropped events, so gaps in a trace file show exactly where
//! backpressure hit.  Concurrent emitters take a short lock around
//! numbering and enqueueing, so lines reach the sink in sequence order.

use crate::json::{parse_object, JsonBuilder, JsonError, JsonObject};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Schema tag written into every trace line.
pub const TRACE_SCHEMA: &str = "muse-trace/v1";

/// Default bound on the emit channel.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One discrete trace event.
///
/// Variants map 1:1 to the `event` field of a `muse-trace/v1` line; each
/// field below becomes one flat JSON field of the same name.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A sharded run began (fresh or resumed).
    RunStart {
        /// Human-readable run label (e.g. `code@env` cell prefix).
        label: String,
        /// Total shards in the plan.
        total_shards: u32,
        /// DIMMs simulated per shard.
        dimms_per_shard: u64,
        /// Estimator in use (`naive` or `importance`).
        estimator: String,
        /// Engine threads of the run; every shard runs on all of them.
        threads: u32,
    },
    /// A previous checkpoint was adopted at startup.
    ResumeAdopted {
        /// Checkpoint generation the run resumed from.
        generation: u64,
        /// Shards already complete at resume.
        shards_done: u32,
        /// Total shards in the adopted plan.
        total_shards: u32,
        /// True when the newest generation was corrupt and the run fell
        /// back to the older one.
        fell_back: bool,
    },
    /// A shard started executing. Shards run concurrently, so the
    /// `shard_start`/`shard_end` pairs of different shards may interleave;
    /// a shard's own start always precedes its end.
    ShardStart {
        /// Shard index within the plan.
        shard: u32,
        /// First DIMM index (inclusive) of the shard's range.
        dimm_lo: u64,
        /// Last DIMM index (exclusive) of the shard's range.
        dimm_hi: u64,
    },
    /// A shard finished (successfully).
    ShardEnd {
        /// Shard index within the plan.
        shard: u32,
        /// Wall-clock duration of the shard in milliseconds.
        wall_ms: u64,
        /// DIMMs simulated by the shard.
        dimms: u64,
    },
    /// A shard attempt failed and will be retried at once.
    ShardRetry {
        /// Shard index within the plan.
        shard: u32,
        /// Attempt number that just failed (0-based).
        attempt: u32,
        /// The failure message.
        error: String,
    },
    /// A checkpoint generation was durably written.
    CheckpointWritten {
        /// Generation number written.
        generation: u64,
        /// Shards complete as of this checkpoint.
        shards_done: u32,
        /// Write+rename latency in milliseconds.
        write_ms: u64,
    },
    /// The importance-sampling estimator's per-event extra probability hit
    /// its cap, so the effective bias is lower than requested.
    WeightCapSaturated {
        /// What was biased (e.g. `single`, `multi`, `whole`).
        channel: String,
        /// Bias multiplier that was requested.
        requested_bias: f64,
        /// Per-event probability cap that clipped it.
        cap: f64,
    },
    /// Periodic progress heartbeat.
    Heartbeat {
        /// Shards complete.
        shards_done: u32,
        /// Total shards.
        total_shards: u32,
        /// Machine-years of operation simulated so far.
        machine_years: f64,
        /// Current 95% CI half-width of the DUE rate (per machine-year).
        due_ci_half: f64,
        /// Current 95% CI half-width of the SDC rate (per machine-year).
        sdc_ci_half: f64,
    },
    /// The run finished.
    RunEnd {
        /// Shards completed.
        shards_done: u32,
        /// Total wall-clock of the run in milliseconds.
        wall_ms: u64,
        /// Shard attempts that failed and were retried.
        retries: u64,
    },
}

impl TraceEvent {
    /// The value of the `event` field for this variant.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::ResumeAdopted { .. } => "resume_adopted",
            TraceEvent::ShardStart { .. } => "shard_start",
            TraceEvent::ShardEnd { .. } => "shard_end",
            TraceEvent::ShardRetry { .. } => "shard_retry",
            TraceEvent::CheckpointWritten { .. } => "checkpoint_written",
            TraceEvent::WeightCapSaturated { .. } => "weight_cap_saturated",
            TraceEvent::Heartbeat { .. } => "heartbeat",
            TraceEvent::RunEnd { .. } => "run_end",
        }
    }

    /// Encodes the event as one `muse-trace/v1` JSON line (no trailing
    /// newline) with the given sequence number.
    pub fn to_json_line(&self, seq: u64) -> String {
        let mut b = JsonBuilder::new();
        b.str("schema", TRACE_SCHEMA);
        b.u64("seq", seq);
        b.str("event", self.kind());
        match self {
            TraceEvent::RunStart {
                label,
                total_shards,
                dimms_per_shard,
                estimator,
                threads,
            } => {
                b.str("label", label)
                    .u64("total_shards", u64::from(*total_shards))
                    .u64("dimms_per_shard", *dimms_per_shard)
                    .str("estimator", estimator)
                    .u64("threads", u64::from(*threads));
            }
            TraceEvent::ResumeAdopted {
                generation,
                shards_done,
                total_shards,
                fell_back,
            } => {
                b.u64("generation", *generation)
                    .u64("shards_done", u64::from(*shards_done))
                    .u64("total_shards", u64::from(*total_shards))
                    .bool("fell_back", *fell_back);
            }
            TraceEvent::ShardStart {
                shard,
                dimm_lo,
                dimm_hi,
            } => {
                b.u64("shard", u64::from(*shard))
                    .u64("dimm_lo", *dimm_lo)
                    .u64("dimm_hi", *dimm_hi);
            }
            TraceEvent::ShardEnd {
                shard,
                wall_ms,
                dimms,
            } => {
                b.u64("shard", u64::from(*shard))
                    .u64("wall_ms", *wall_ms)
                    .u64("dimms", *dimms);
            }
            TraceEvent::ShardRetry {
                shard,
                attempt,
                error,
            } => {
                b.u64("shard", u64::from(*shard))
                    .u64("attempt", u64::from(*attempt))
                    .str("error", error);
            }
            TraceEvent::CheckpointWritten {
                generation,
                shards_done,
                write_ms,
            } => {
                b.u64("generation", *generation)
                    .u64("shards_done", u64::from(*shards_done))
                    .u64("write_ms", *write_ms);
            }
            TraceEvent::WeightCapSaturated {
                channel,
                requested_bias,
                cap,
            } => {
                b.str("channel", channel)
                    .f64("requested_bias", *requested_bias)
                    .f64("cap", *cap);
            }
            TraceEvent::Heartbeat {
                shards_done,
                total_shards,
                machine_years,
                due_ci_half,
                sdc_ci_half,
            } => {
                b.u64("shards_done", u64::from(*shards_done))
                    .u64("total_shards", u64::from(*total_shards))
                    .f64("machine_years", *machine_years)
                    .f64("due_ci_half", *due_ci_half)
                    .f64("sdc_ci_half", *sdc_ci_half);
            }
            TraceEvent::RunEnd {
                shards_done,
                wall_ms,
                retries,
            } => {
                b.u64("shards_done", u64::from(*shards_done))
                    .u64("wall_ms", *wall_ms)
                    .u64("retries", *retries);
            }
        }
        b.finish()
    }

    /// Decodes one trace line back into `(seq, event)`.
    ///
    /// Rejects lines whose `schema` field is not [`TRACE_SCHEMA`] or whose
    /// `event` field names an unknown variant.
    pub fn parse_line(line: &str) -> Result<(u64, TraceEvent), JsonError> {
        let obj = parse_object(line)?;
        let schema = obj.str("schema")?;
        if schema != TRACE_SCHEMA {
            return Err(JsonError(format!(
                "schema mismatch: expected {TRACE_SCHEMA:?}, got {schema:?}"
            )));
        }
        let seq = obj.u64("seq")?;
        let event = Self::from_object(&obj)?;
        Ok((seq, event))
    }

    fn from_object(obj: &JsonObject) -> Result<TraceEvent, JsonError> {
        let kind = obj.str("event")?;
        Ok(match kind {
            "run_start" => TraceEvent::RunStart {
                label: obj.str("label")?.to_string(),
                total_shards: obj.u32("total_shards")?,
                dimms_per_shard: obj.u64("dimms_per_shard")?,
                estimator: obj.str("estimator")?.to_string(),
                threads: obj.u32("threads")?,
            },
            "resume_adopted" => TraceEvent::ResumeAdopted {
                generation: obj.u64("generation")?,
                shards_done: obj.u32("shards_done")?,
                total_shards: obj.u32("total_shards")?,
                fell_back: obj.bool("fell_back")?,
            },
            "shard_start" => TraceEvent::ShardStart {
                shard: obj.u32("shard")?,
                dimm_lo: obj.u64("dimm_lo")?,
                dimm_hi: obj.u64("dimm_hi")?,
            },
            "shard_end" => TraceEvent::ShardEnd {
                shard: obj.u32("shard")?,
                wall_ms: obj.u64("wall_ms")?,
                dimms: obj.u64("dimms")?,
            },
            "shard_retry" => TraceEvent::ShardRetry {
                shard: obj.u32("shard")?,
                attempt: obj.u32("attempt")?,
                error: obj.str("error")?.to_string(),
            },
            "checkpoint_written" => TraceEvent::CheckpointWritten {
                generation: obj.u64("generation")?,
                shards_done: obj.u32("shards_done")?,
                write_ms: obj.u64("write_ms")?,
            },
            "weight_cap_saturated" => TraceEvent::WeightCapSaturated {
                channel: obj.str("channel")?.to_string(),
                requested_bias: obj.f64("requested_bias")?,
                cap: obj.f64("cap")?,
            },
            "heartbeat" => TraceEvent::Heartbeat {
                shards_done: obj.u32("shards_done")?,
                total_shards: obj.u32("total_shards")?,
                machine_years: obj.f64("machine_years")?,
                due_ci_half: obj.f64("due_ci_half")?,
                sdc_ci_half: obj.f64("sdc_ci_half")?,
            },
            "run_end" => TraceEvent::RunEnd {
                shards_done: obj.u32("shards_done")?,
                wall_ms: obj.u64("wall_ms")?,
                retries: obj.u64("retries")?,
            },
            other => return Err(JsonError(format!("unknown event kind {other:?}"))),
        })
    }
}

/// Counters describing what a finished [`Tracer`] did. Every emitted
/// event is accounted for exactly once:
/// `emitted == written + dropped + io_errors`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Events accepted by `emit` (dropped or not).
    pub emitted: u64,
    /// Events actually written to the sink.
    pub written: u64,
    /// Events dropped because the channel was full.
    pub dropped: u64,
    /// Events lost because the sink's write failed (counted, never
    /// panicked over — a broken sink must not take the run down).
    pub io_errors: u64,
}

struct Shared {
    /// Next sequence number; held while a line is numbered and enqueued.
    seq: Mutex<u64>,
    dropped: AtomicU64,
    io_errors: AtomicU64,
}

impl Shared {
    /// The sequence counter. Every update leaves it valid, so a panic
    /// elsewhere under the lock cannot corrupt it.
    fn seq(&self) -> std::sync::MutexGuard<'_, u64> {
        self.seq
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Non-blocking trace emitter backed by a writer thread.
///
/// Cloning is cheap; all clones feed the same writer.  Call
/// [`Tracer::finish`] on the last handle (or let every clone drop) to
/// flush the sink and join the writer thread.
pub struct Tracer {
    tx: Option<SyncSender<String>>,
    shared: Arc<Shared>,
    writer: Option<JoinHandle<u64>>,
}

impl Tracer {
    /// Creates a tracer writing JSONL to `sink` through a channel bounded
    /// at `capacity` events.
    pub fn new(sink: Box<dyn Write + Send>, capacity: usize) -> Self {
        let (tx, rx) = sync_channel::<String>(capacity.max(1));
        let shared = Arc::new(Shared {
            seq: Mutex::new(0),
            dropped: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("muse-trace".into())
            .spawn(move || {
                // Lines go to the sink unbuffered: a slow sink must show up
                // as channel backpressure (and dropped events), not hide
                // behind an in-memory buffer that defers the stall. A
                // *failing* sink is counted per lost line — never a panic,
                // never silent — so callers can surface the loss.
                let mut sink = sink;
                let mut written = 0u64;
                for mut line in rx {
                    line.push('\n');
                    if sink.write_all(line.as_bytes()).is_ok() {
                        written += 1;
                    } else {
                        writer_shared.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = sink.flush();
                written
            })
            .expect("spawn trace writer thread");
        Self {
            tx: Some(tx),
            shared,
            writer: Some(writer),
        }
    }

    /// Emits an event without waiting on the sink.
    ///
    /// The sequence number is assigned unconditionally; if the channel is
    /// full the event is dropped and counted, leaving a visible gap in the
    /// written sequence.
    pub fn emit(&self, event: &TraceEvent) {
        let mut seq = self.shared.seq();
        let line = event.to_json_line(*seq);
        *seq += 1;
        if let Some(tx) = &self.tx {
            match tx.try_send(line) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Events dropped so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Events lost to sink write errors so far. (The count trails the
    /// writer thread slightly; [`Tracer::finish`] returns the settled
    /// total.)
    pub fn io_errors(&self) -> u64 {
        self.shared.io_errors.load(Ordering::Relaxed)
    }

    /// Closes the channel, joins the writer thread, and returns the final
    /// counters.  Clones of this tracer become inert (their emits count as
    /// dropped).
    pub fn finish(mut self) -> TraceSummary {
        self.tx = None;
        let written = match self.writer.take() {
            Some(handle) => handle.join().unwrap_or(0),
            None => 0,
        };
        TraceSummary {
            emitted: *self.shared.seq(),
            written,
            dropped: self.shared.dropped.load(Ordering::Relaxed),
            io_errors: self.shared.io_errors.load(Ordering::Relaxed),
        }
    }
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
            writer: None,
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("seq", &*self.shared.seq())
            .field("dropped", &self.shared.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` sink that appends into a shared buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                label: "rs64@ddr5".into(),
                total_shards: 8,
                dimms_per_shard: 1000,
                estimator: "importance".into(),
                threads: 4,
            },
            TraceEvent::ResumeAdopted {
                generation: 3,
                shards_done: 2,
                total_shards: 8,
                fell_back: true,
            },
            TraceEvent::ShardStart {
                shard: 2,
                dimm_lo: 2000,
                dimm_hi: 3000,
            },
            TraceEvent::ShardRetry {
                shard: 2,
                attempt: 0,
                error: "injected fault: \"io\"".into(),
            },
            TraceEvent::ShardEnd {
                shard: 2,
                wall_ms: 1234,
                dimms: 1000,
            },
            TraceEvent::CheckpointWritten {
                generation: 4,
                shards_done: 3,
                write_ms: 7,
            },
            TraceEvent::WeightCapSaturated {
                channel: "single".into(),
                requested_bias: 1e6,
                cap: 0.5,
            },
            TraceEvent::Heartbeat {
                shards_done: 3,
                total_shards: 8,
                machine_years: 750.25,
                due_ci_half: 1.5e-3,
                sdc_ci_half: 2.5e-4,
            },
            TraceEvent::RunEnd {
                shards_done: 8,
                wall_ms: 9876,
                retries: 1,
            },
        ]
    }

    #[test]
    fn events_round_trip_through_json_lines() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let line = event.to_json_line(i as u64);
            let (seq, back) = TraceEvent::parse_line(&line).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(back, event, "line was {line}");
        }
    }

    #[test]
    fn a_shard_retry_line_with_the_dropped_backoff_field_still_parses() {
        // Earlier traces also carry `backoff_ms`; extra fields are ignored.
        let line = r#"{"schema":"muse-trace/v1","seq":7,"event":"shard_retry","shard":2,"attempt":0,"backoff_ms":50,"error":"injected kill"}"#;
        let expected = TraceEvent::ShardRetry {
            shard: 2,
            attempt: 0,
            error: "injected kill".into(),
        };
        assert_eq!(TraceEvent::parse_line(line).unwrap(), (7, expected));
    }

    #[test]
    fn schema_and_kind_are_validated() {
        let line = sample_events()[0].to_json_line(0);
        let wrong_schema = line.replace("muse-trace/v1", "muse-trace/v0");
        assert!(TraceEvent::parse_line(&wrong_schema).is_err());
        let wrong_kind = line.replace("run_start", "run_begin");
        assert!(TraceEvent::parse_line(&wrong_kind).is_err());
    }

    #[test]
    fn concurrent_emitters_write_lines_in_sequence_order() {
        let buf = SharedBuf::default();
        let tracer = Tracer::new(Box::new(buf.clone()), 4096);
        let events = sample_events();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        for event in &events {
                            tracer.emit(event);
                        }
                    }
                });
            }
        });
        let summary = tracer.finish();
        assert_eq!(summary.dropped, 0);
        let body = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let mut lines = 0;
        for (i, line) in body.lines().enumerate() {
            assert_eq!(TraceEvent::parse_line(line).unwrap().0, i as u64);
            lines += 1;
        }
        assert_eq!(lines, 4 * 100 * events.len());
    }

    #[test]
    fn tracer_writes_all_events_in_order() {
        let buf = SharedBuf::default();
        let tracer = Tracer::new(Box::new(buf.clone()), 64);
        let events = sample_events();
        for event in &events {
            tracer.emit(event);
        }
        let summary = tracer.finish();
        assert_eq!(summary.emitted, events.len() as u64);
        assert_eq!(summary.written, events.len() as u64);
        assert_eq!(summary.dropped, 0);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (i, (line, event)) in lines.iter().zip(&events).enumerate() {
            let (seq, back) = TraceEvent::parse_line(line).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(&back, event);
        }
    }

    #[test]
    fn full_channel_drops_instead_of_blocking() {
        // A sink that blocks forever would hang the writer thread; emulate
        // sustained backpressure with a slow sink and a capacity-1 channel.
        struct SlowSink;
        impl Write for SlowSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let tracer = Tracer::new(Box::new(SlowSink), 1);
        let start = std::time::Instant::now();
        let n = 200u64;
        for i in 0..n {
            tracer.emit(&TraceEvent::ShardStart {
                shard: i as u32,
                dimm_lo: 0,
                dimm_hi: 1,
            });
        }
        // 200 emits against a 20 ms/line sink must return almost instantly
        // if emit never blocks.
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "emit blocked on a slow sink"
        );
        let summary = tracer.finish();
        assert_eq!(summary.emitted, n);
        assert!(summary.dropped > 0, "expected drops under backpressure");
        assert_eq!(summary.written + summary.dropped, n);
    }

    #[test]
    fn failing_sink_counts_io_errors_instead_of_panicking() {
        // Every write fails: nothing lands, nothing panics, every event
        // is accounted for as an io_error.
        struct FailingSink;
        impl Write for FailingSink {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink is broken"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("sink is broken"))
            }
        }
        let tracer = Tracer::new(Box::new(FailingSink), 64);
        let events = sample_events();
        for event in &events {
            tracer.emit(event);
        }
        let summary = tracer.finish();
        assert_eq!(summary.emitted, events.len() as u64);
        assert_eq!(summary.written, 0);
        assert_eq!(summary.io_errors + summary.dropped, events.len() as u64);
        assert!(summary.io_errors > 0);
        assert_eq!(
            summary.emitted,
            summary.written + summary.dropped + summary.io_errors,
            "every event must be accounted for exactly once"
        );
    }

    #[test]
    fn intermittent_sink_failures_account_for_every_event() {
        // The sink fails on every third line; written + io_errors must
        // still cover everything that reached the writer.
        struct Flaky(u64);
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                if self.0.is_multiple_of(3) {
                    Err(std::io::Error::other("intermittent"))
                } else {
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let tracer = Tracer::new(Box::new(Flaky(0)), 256);
        for i in 0..30u32 {
            tracer.emit(&TraceEvent::ShardStart {
                shard: i,
                dimm_lo: 0,
                dimm_hi: 1,
            });
        }
        let summary = tracer.finish();
        assert_eq!(summary.emitted, 30);
        assert_eq!(summary.written + summary.dropped + summary.io_errors, 30);
        assert!(summary.io_errors > 0 && summary.written > 0);
    }

    #[test]
    fn clones_share_sequence_and_drop_counters() {
        let buf = SharedBuf::default();
        let tracer = Tracer::new(Box::new(buf.clone()), 64);
        let clone = tracer.clone();
        tracer.emit(&TraceEvent::RunEnd {
            shards_done: 1,
            wall_ms: 1,
            retries: 0,
        });
        clone.emit(&TraceEvent::RunEnd {
            shards_done: 2,
            wall_ms: 2,
            retries: 0,
        });
        drop(clone);
        let summary = tracer.finish();
        assert_eq!(summary.emitted, 2);
        assert_eq!(summary.written, 2);
    }
}
