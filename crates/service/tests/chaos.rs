//! The chaos sweep: every fault class the service threads an
//! [`IoFaultPlan`] (or [`FaultPlan`]) through, swept against one pinned
//! baseline tally.
//!
//! The invariant under test, for every class — injected kills, ENOSPC,
//! torn writes, fsync and rename failures, cache-record corruption,
//! blocked/failing telemetry sinks, and a mid-run drain-and-restart:
//! **the job either completes with tallies bit-identical to an
//! unperturbed [`simulate_fleet`], or fails loudly with resumable state
//! in the spool — never wrong numbers.**

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use muse_lifetime::{simulate_fleet, FaultPlan, IoFaultPlan, LifetimeTally};
use muse_service::{
    serve, JobResult, JobSpec, ServiceConfig, ServiceReport, ServiceTelemetry, Spool,
};

/// The swept job: small enough to run in milliseconds, sharded enough
/// that checkpoints, retries, and drains all have boundaries to land on.
fn chaos_spec() -> JobSpec {
    JobSpec {
        code: "muse80_69".to_string(),
        env: "transient-dominant".to_string(),
        dimms: 24,
        years: 0.5,
        scrub_hours: 24.0,
        seed: 0xC4A05,
        shards: 4,
        ..JobSpec::default()
    }
}

/// The unperturbed truth every chaos run must reproduce bit-for-bit.
fn baseline() -> LifetimeTally {
    let (code, env, config) = chaos_spec().resolve().unwrap();
    simulate_fleet(&code, &env, &config).tally
}

struct Harness {
    root: PathBuf,
    spool: Spool,
    warns: Arc<Mutex<Vec<String>>>,
}

impl Harness {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("muse-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spool = Spool::open(&root).unwrap();
        Self {
            root,
            spool,
            warns: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn submit(&self) -> String {
        let (id, _) = self.spool.submit(&chaos_spec()).unwrap();
        id
    }

    fn config(&self, faults: Option<FaultPlan>) -> ServiceConfig {
        ServiceConfig {
            root: self.root.clone(),
            once: true,
            max_retries: 10,
            faults,
            ..ServiceConfig::default()
        }
    }

    fn serve(&self, config: &ServiceConfig) -> ServiceReport {
        let warns = Arc::clone(&self.warns);
        let telemetry = ServiceTelemetry {
            warn: Some(Box::new(move |line: &str| {
                warns.lock().unwrap().push(line.to_string())
            })),
            ..ServiceTelemetry::default()
        };
        serve(config, &telemetry).unwrap()
    }

    fn warned(&self, needle: &str) -> bool {
        self.warns
            .lock()
            .unwrap()
            .iter()
            .any(|w| w.contains(needle))
    }

    fn result(&self, id: &str) -> JobResult {
        JobResult::from_json(&self.spool.result_json(id).unwrap()).unwrap()
    }

    fn failed_error(&self, id: &str) -> String {
        std::fs::read_to_string(self.spool.failed_dir().join(format!("{id}.err"))).unwrap()
    }

    /// Moves a failed job back into the queue (the operator's retry).
    fn requeue_failed(&self, id: &str) {
        std::fs::rename(
            self.spool.failed_dir().join(format!("{id}.job")),
            self.spool.queue_dir().join(format!("{id}.job")),
        )
        .unwrap();
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn io_plan() -> IoFaultPlan {
    IoFaultPlan::default()
}

#[test]
fn injected_kills_retry_to_a_bit_identical_result() {
    let h = Harness::new("kill");
    let id = h.submit();
    let report = h.serve(&h.config(Some(FaultPlan {
        kill_prob: 0.4,
        ..FaultPlan::default()
    })));
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert_eq!(h.result(&id).tally, baseline());
}

#[test]
fn enospc_fsync_and_rename_failures_fail_loudly_then_recover() {
    for (tag, plan) in [
        (
            "enospc",
            IoFaultPlan {
                enospc_prob: 1.0,
                ..io_plan()
            },
        ),
        (
            "fsync",
            IoFaultPlan {
                fsync_fail_prob: 1.0,
                ..io_plan()
            },
        ),
        (
            "rename",
            IoFaultPlan {
                rename_fail_prob: 1.0,
                ..io_plan()
            },
        ),
    ] {
        let h = Harness::new(tag);
        let id = h.submit();
        let report = h.serve(&h.config(Some(FaultPlan {
            io: Some(plan),
            ..FaultPlan::default()
        })));
        // The first checkpoint save fails => the job fails loudly with
        // the injected error preserved as evidence.
        assert_eq!(report.jobs_failed, 1, "{tag}: {report:?}");
        assert!(
            h.failed_error(&id).contains("injected"),
            "{tag}: {}",
            h.failed_error(&id)
        );
        // A retry on a healthy disk completes bit-identically.
        h.requeue_failed(&id);
        let report = h.serve(&h.config(None));
        assert_eq!(report.jobs_completed, 1, "{tag}: {report:?}");
        assert_eq!(h.result(&id).tally, baseline(), "{tag}");
    }
}

#[test]
fn torn_writes_complete_bit_identically_and_never_poison_the_cache() {
    let h = Harness::new("torn");
    let id = h.submit();
    // Every checkpoint and cache write is torn in half. The in-memory
    // run is unaffected — the job completes with exact tallies; the torn
    // cache record is caught by its CRC on the next lookup.
    let faults = Some(FaultPlan {
        io: Some(IoFaultPlan {
            short_write_prob: 1.0,
            ..io_plan()
        }),
        ..FaultPlan::default()
    });
    let report = h.serve(&h.config(faults));
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert_eq!(h.result(&id).tally, baseline());
    // Resubmit: the torn record must read as corrupt (a recompute), not
    // as a hit and never as wrong numbers.
    h.spool.submit(&chaos_spec()).unwrap();
    let report = h.serve(&h.config(None));
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert_eq!(report.cache_hits, 0, "torn record must not hit");
    assert_eq!(report.cache_corrupt, 1, "{report:?}");
    assert!(h.warned("CRC/config-hash fence"));
    assert_eq!(h.result(&id).tally, baseline());
    // Third time: the healthy rewrite serves from cache.
    h.spool.submit(&chaos_spec()).unwrap();
    let report = h.serve(&h.config(None));
    assert_eq!(report.cache_hits, 1, "{report:?}");
    assert_eq!(h.result(&id).tally, baseline());
}

#[test]
fn cache_record_rot_is_detected_and_recomputed_bit_identically() {
    let h = Harness::new("rot");
    let id = h.submit();
    let faults = Some(FaultPlan {
        io: Some(IoFaultPlan {
            corrupt_record_prob: 1.0,
            ..io_plan()
        }),
        ..FaultPlan::default()
    });
    let report = h.serve(&h.config(faults.clone()));
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert_eq!(h.result(&id).tally, baseline());
    // The committed record was bit-flipped after the rename: the next
    // serve detects it and recomputes — same numbers, never the rotten
    // record's.
    h.spool.submit(&chaos_spec()).unwrap();
    let report = h.serve(&h.config(faults));
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.cache_corrupt, 1, "{report:?}");
    assert_eq!(h.result(&id).tally, baseline());
}

#[test]
fn blocked_and_failing_telemetry_sinks_never_touch_the_tallies() {
    let h = Harness::new("sink");
    let id = h.submit();
    // A sink that blocks 1ms per write and fails half the time, wrapped
    // around a black hole — the worst telemetry backend imaginable.
    let sink = IoFaultPlan {
        sink_fail_prob: 0.5,
        sink_block_ms: 1,
        ..io_plan()
    }
    .wrap_sink(Box::new(std::io::sink()));
    let tracer = muse_telemetry::Tracer::new(sink, 16);
    let metrics = muse_telemetry::Metrics::new();
    let telemetry = ServiceTelemetry {
        metrics: Some(&metrics),
        metrics_path: Some(h.root.join("metrics.prom")),
        tracer: Some(&tracer),
        warn: None,
    };
    let report = serve(&h.config(None), &telemetry).unwrap();
    drop(telemetry);
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert_eq!(h.result(&id).tally, baseline());
    // Full accounting: every emitted event is written, dropped, or a
    // counted sink error — nothing vanishes silently.
    let summary = tracer.finish();
    assert!(summary.io_errors > 0, "sink_fail 0.5 counted no errors");
    assert_eq!(
        summary.emitted,
        summary.written + summary.dropped + summary.io_errors,
        "{summary:?}"
    );
    assert_eq!(
        metrics
            .counter("muse_service_jobs_completed_total", "")
            .get(),
        1
    );
}

#[test]
fn drain_mid_run_checkpoints_and_restart_resumes_bit_identically() {
    let h = Harness::new("drain");
    let id = h.submit();
    // Slow each shard down so the drain lands mid-run, then trip the
    // flag from another thread — exactly what the SIGTERM handler does.
    let config = h.config(Some(FaultPlan {
        delay_ms_max: 60,
        ..FaultPlan::default()
    }));
    let drain = Arc::clone(&config.drain);
    let trip = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        drain.store(true, Ordering::Relaxed);
    });
    let report = h.serve(&config);
    trip.join().unwrap();
    assert!(report.drained, "{report:?}");
    assert_eq!(report.jobs_completed, 0, "{report:?}");
    assert_eq!(report.jobs_failed, 0, "drain is not a failure: {report:?}");
    // The job went back to the queue with its checkpoints persisted.
    let status = h.spool.status().unwrap();
    assert_eq!((status.queued, status.active), (1, 0), "{status:?}");
    // A fresh daemon (drain flag clear) adopts and completes; the
    // resumed tallies are bit-identical to the never-interrupted run.
    let report = h.serve(&h.config(None));
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert!(h.warned("drain: job"), "{:?}", h.warns.lock().unwrap());
    assert_eq!(h.result(&id).tally, baseline());
}
