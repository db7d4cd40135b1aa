//! End-to-end spool semantics: submission idempotence, orphan adoption,
//! the job-id fence, and cross-config cache fencing.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use muse_lifetime::simulate_fleet;
use muse_service::{
    serve, JobResult, JobSpec, ServiceConfig, ServiceReport, ServiceTelemetry, Spool,
    MAX_DIMM_EPOCHS,
};

fn small_spec(seed: u64) -> JobSpec {
    JobSpec {
        code: "muse80_69".to_string(),
        env: "chipkill-heavy".to_string(),
        dimms: 16,
        years: 0.5,
        scrub_hours: 24.0,
        seed,
        shards: 2,
        ..JobSpec::default()
    }
}

struct Harness {
    root: PathBuf,
    spool: Spool,
    warns: Arc<Mutex<Vec<String>>>,
}

impl Harness {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("muse-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spool = Spool::open(&root).unwrap();
        Self {
            root,
            spool,
            warns: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn serve_once(&self) -> ServiceReport {
        let config = ServiceConfig {
            root: self.root.clone(),
            once: true,
            ..ServiceConfig::default()
        };
        let warns = Arc::clone(&self.warns);
        let telemetry = ServiceTelemetry {
            warn: Some(Box::new(move |line: &str| {
                warns.lock().unwrap().push(line.to_string())
            })),
            ..ServiceTelemetry::default()
        };
        serve(&config, &telemetry).unwrap()
    }

    fn warned(&self, needle: &str) -> bool {
        self.warns
            .lock()
            .unwrap()
            .iter()
            .any(|w| w.contains(needle))
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn submission_is_idempotent_and_status_tracks_stages() {
    let h = Harness::new("idempotent");
    let (id, enqueued) = h.spool.submit(&small_spec(1)).unwrap();
    assert!(enqueued);
    // Same config resubmitted: same id, silently deduplicated.
    let (id2, enqueued) = h.spool.submit(&small_spec(1)).unwrap();
    assert_eq!(id, id2);
    assert!(!enqueued);
    // A different seed is a different configuration — its own id.
    let (id3, enqueued) = h.spool.submit(&small_spec(2)).unwrap();
    assert_ne!(id, id3);
    assert!(enqueued);
    let status = h.spool.status().unwrap();
    assert_eq!((status.queued, status.done), (2, 0), "{status:?}");
    let report = h.serve_once();
    assert_eq!(report.jobs_completed, 2, "{report:?}");
    let status = h.spool.status().unwrap();
    assert_eq!((status.queued, status.done), (0, 2), "{status:?}");
    // Each id's result is fenced to its own configuration: the two runs
    // differ only by seed, and their tallies must be their own.
    let r1 = JobResult::from_json(&h.spool.result_json(&id).unwrap()).unwrap();
    let r3 = JobResult::from_json(&h.spool.result_json(&id3).unwrap()).unwrap();
    let (c1, e1, f1) = small_spec(1).resolve().unwrap();
    let (c3, e3, f3) = small_spec(2).resolve().unwrap();
    assert_eq!(r1.tally, simulate_fleet(&c1, &e1, &f1).tally);
    assert_eq!(r3.tally, simulate_fleet(&c3, &e3, &f3).tally);
    assert_ne!(r1.tally, r3.tally, "distinct seeds must not share tallies");
}

#[test]
fn startup_adopts_orphans_left_by_a_dead_daemon() {
    let h = Harness::new("orphans");
    // Simulate a daemon that died mid-claim: the job sits in active/.
    let spec = small_spec(7);
    let id = spec.job_id().unwrap();
    std::fs::write(
        h.spool.active_dir().join(format!("{id}.job")),
        spec.to_json(),
    )
    .unwrap();
    let report = h.serve_once();
    assert_eq!(report.adopted, 1, "{report:?}");
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert!(h.warned("resume: adopted"), "{:?}", h.warns.lock().unwrap());
    let (code, env, config) = spec.resolve().unwrap();
    let result = JobResult::from_json(&h.spool.result_json(&id).unwrap()).unwrap();
    assert_eq!(result.tally, simulate_fleet(&code, &env, &config).tally);
}

#[test]
fn the_job_id_fence_rejects_misnamed_job_files() {
    let h = Harness::new("fence");
    let (id, _) = h.spool.submit(&small_spec(3)).unwrap();
    // An operator (or a bug) renames the job onto a different id: the
    // spec inside hashes to the original, and the daemon refuses to run
    // it under the wrong identity.
    let wrong = "f".repeat(16);
    std::fs::rename(
        h.spool.queue_dir().join(format!("{id}.job")),
        h.spool.queue_dir().join(format!("{wrong}.job")),
    )
    .unwrap();
    let report = h.serve_once();
    assert_eq!(report.jobs_failed, 1, "{report:?}");
    let error = std::fs::read_to_string(h.spool.failed_dir().join(format!("{wrong}.err"))).unwrap();
    assert!(error.contains("job id mismatch"), "{error}");
    assert!(error.contains(&id), "error names the real id: {error}");
}

#[test]
fn completed_jobs_clean_up_their_checkpoints_and_serve_from_cache() {
    let h = Harness::new("cleanup");
    let (id, _) = h.spool.submit(&small_spec(9)).unwrap();
    let report = h.serve_once();
    assert_eq!(report.jobs_completed, 1, "{report:?}");
    assert!(
        !h.spool.checkpoint_dir(&id).exists(),
        "checkpoints must not outlive a completed job"
    );
    assert!(h.spool.cache_dir().join(format!("{id}.res")).exists());
    // The rerun never recomputes: zero shards run, cache hit recorded.
    h.spool.submit(&small_spec(9)).unwrap();
    let report = h.serve_once();
    assert_eq!(
        (report.jobs_completed, report.cache_hits),
        (1, 1),
        "{report:?}"
    );
    let result = JobResult::from_json(&h.spool.result_json(&id).unwrap()).unwrap();
    assert!(result.cache_hit);
    assert_eq!(result.shards_run, 0, "cache hits must not recompute");
}

#[test]
fn jobs_with_an_invalid_bias_fail_without_taking_the_daemon_down() {
    let h = Harness::new("poisoned");
    let (good, _) = h.spool.submit(&small_spec(11)).unwrap();
    // `submit` refuses these specs, so they are written straight into the
    // queue, as a hand-edited or older job file would be.
    let poisoned = [("00000000000000b1", 0.5), ("00000000000000b2", -2.0)];
    for (id, bias) in poisoned {
        let spec = JobSpec {
            estimator: "is".to_string(),
            bias,
            ..small_spec(11)
        };
        assert!(h.spool.submit(&spec).is_err(), "bias {bias}");
        std::fs::write(
            h.spool.queue_dir().join(format!("{id}.job")),
            spec.to_json(),
        )
        .unwrap();
    }
    let report = h.serve_once();
    assert_eq!(
        (report.jobs_completed, report.jobs_failed),
        (1, 2),
        "{report:?}"
    );
    for (id, _) in poisoned {
        let error =
            std::fs::read_to_string(h.spool.failed_dir().join(format!("{id}.err"))).unwrap();
        assert!(error.contains("bias"), "{error}");
    }
    let status = h.spool.status().unwrap();
    assert_eq!((status.active, status.failed, status.done), (0, 2, 1));
    assert!(h.spool.result_json(&good).is_ok());
}

#[test]
fn jobs_over_the_horizon_budget_fail_without_running() {
    // `lifetime --dimms 1 --years 1 --scrub-hours 0.000001`: 8.8e9
    // epochs, which would keep a worker busy for minutes.
    let h = Harness::new("over-budget");
    let spec = JobSpec {
        dimms: 1,
        years: 1.0,
        scrub_hours: 0.000001,
        ..small_spec(12)
    };
    let refused = h.spool.submit(&spec).unwrap_err();
    assert!(
        refused.contains("1 dimms x 8766000000 epochs")
            && refused.contains(&MAX_DIMM_EPOCHS.to_string()),
        "{refused}"
    );
    // Written straight into the queue, as a hand-edited job file would
    // be, it fails at once and leaves the daemon serving.
    let id = "00000000000000e9";
    std::fs::write(
        h.spool.queue_dir().join(format!("{id}.job")),
        spec.to_json(),
    )
    .unwrap();
    let report = h.serve_once();
    assert_eq!(
        (report.jobs_completed, report.jobs_failed),
        (0, 1),
        "{report:?}"
    );
    let error = std::fs::read_to_string(h.spool.failed_dir().join(format!("{id}.err"))).unwrap();
    assert!(error.contains("exceeds the budget"), "{error}");
}

#[test]
fn a_result_with_the_dropped_watchdog_field_still_decodes() {
    // Earlier `muse-result/v1` files also carry `watchdog_kills`; the
    // reader looks fields up by name, so a `done/` result written then
    // still reads back.
    let result = JobResult {
        id: "00000000000000aa".to_string(),
        code: "MUSE(80,69)".to_string(),
        env: "smoke".to_string(),
        machine_years: 2.5,
        due_per_machine_year: 0.25,
        sdc_per_machine_year: 0.0,
        cache_hit: false,
        shards_run: 4,
        retries: 3,
        tally: muse_lifetime::LifetimeTally::default(),
    };
    let json = result.to_json();
    let old = json.replace("\"retries\":3,", "\"retries\":3,\"watchdog_kills\":0,");
    assert_ne!(old, json);
    assert_eq!(JobResult::from_json(&old).unwrap(), result);
}
