//! The spool daemon: claim, run (or serve from cache), persist, repeat.
//!
//! [`serve`] is the whole daemon — a loop over the spool directory that
//! can be run once (`once: true`, drain the queue and return) or
//! forever (poll until the drain flag trips). See the crate docs for
//! the spool layout and the crash-only rationale.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use muse_lifetime::telemetry::WarnFn;
use muse_lifetime::{
    cell_label, run_sharded_with, write_durable, FaultPlan, FleetTelemetry, LifetimeReport,
    LifetimeTally, RunStats, RunnerConfig, ShardedOutcome,
};
use muse_telemetry::{parse_object, Counter, Gauge, JsonBuilder, Metrics, Tracer};

use crate::cache::{CacheLookup, ResultCache};
use crate::job::{triple_id, JobSpec};

/// Schema tag of every result file in `done/`.
pub const RESULT_JSON_SCHEMA: &str = "muse-result/v1";

/// The spool directory of one service root: submission, claiming, and
/// status live here; [`serve`] is its consumer.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

/// Queue-depth counts across the spool, for `status` output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoolStatus {
    /// Jobs waiting in `queue/`.
    pub queued: u32,
    /// Jobs claimed in `active/` (normally 0 or 1 per daemon).
    pub active: u32,
    /// Results in `done/`.
    pub done: u32,
    /// Jobs in `failed/`.
    pub failed: u32,
}

fn count_ext(dir: &Path, ext: &str) -> std::io::Result<u32> {
    let mut n = 0;
    for entry in std::fs::read_dir(dir)? {
        if entry?.path().extension().is_some_and(|e| e == ext) {
            n += 1;
        }
    }
    Ok(n)
}

fn jobs_in(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "job") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                ids.push(stem.to_string());
            }
        }
    }
    // Deterministic claim order regardless of readdir order.
    ids.sort();
    Ok(ids)
}

impl Spool {
    /// Opens (creating if needed) the spool under `root`.
    ///
    /// # Errors
    ///
    /// Directory creation failure.
    pub fn open(root: &Path) -> std::io::Result<Self> {
        for sub in ["queue", "active", "done", "failed", "cache", "checkpoints"] {
            std::fs::create_dir_all(root.join(sub))?;
        }
        Ok(Self {
            root: root.to_path_buf(),
        })
    }

    /// The `queue/` directory.
    pub fn queue_dir(&self) -> PathBuf {
        self.root.join("queue")
    }
    /// The `active/` directory.
    pub fn active_dir(&self) -> PathBuf {
        self.root.join("active")
    }
    /// The `done/` directory.
    pub fn done_dir(&self) -> PathBuf {
        self.root.join("done")
    }
    /// The `failed/` directory.
    pub fn failed_dir(&self) -> PathBuf {
        self.root.join("failed")
    }
    /// The `cache/` directory.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }
    /// The checkpoint directory of one job.
    pub fn checkpoint_dir(&self, id: &str) -> PathBuf {
        self.root.join("checkpoints").join(id)
    }

    /// Submits a job: resolves its id and atomically writes
    /// `queue/<id>.job`. Returns `(id, enqueued)`; `enqueued` is false
    /// when the id is already queued or active (submission is
    /// idempotent — the duplicate is simply dropped). A job whose id is
    /// already in `done/` is still re-enqueued: re-running it is free
    /// by construction, the daemon serves it from the result cache.
    ///
    /// # Errors
    ///
    /// Invalid specs (unknown names, bad parameters) and spool I/O,
    /// both as displayable strings.
    pub fn submit(&self, spec: &JobSpec) -> Result<(String, bool), String> {
        let id = spec.job_id()?;
        let queued = self.queue_dir().join(format!("{id}.job"));
        if queued.exists() || self.active_dir().join(format!("{id}.job")).exists() {
            return Ok((id, false));
        }
        write_durable(
            &queued.with_extension("tmp"),
            &queued,
            spec.to_json().as_bytes(),
            None,
            0,
        )
        .map_err(|e| format!("submit {id}: {e}"))?;
        Ok((id, true))
    }

    /// Counts jobs per stage.
    ///
    /// # Errors
    ///
    /// Spool I/O.
    pub fn status(&self) -> std::io::Result<SpoolStatus> {
        Ok(SpoolStatus {
            queued: count_ext(&self.queue_dir(), "job")?,
            active: count_ext(&self.active_dir(), "job")?,
            done: count_ext(&self.done_dir(), "result")?,
            failed: count_ext(&self.failed_dir(), "job")?,
        })
    }

    /// Reads the `done/` result JSON of a job id.
    ///
    /// # Errors
    ///
    /// Missing or unreadable result file.
    pub fn result_json(&self, id: &str) -> std::io::Result<String> {
        std::fs::read_to_string(self.done_dir().join(format!("{id}.result")))
    }

    /// Renames every `active/` orphan back into `queue/` — the adoption
    /// step that makes recovery identical to startup. Returns the ids
    /// adopted.
    ///
    /// # Errors
    ///
    /// Spool I/O.
    pub fn adopt_orphans(&self) -> std::io::Result<Vec<String>> {
        let ids = jobs_in(&self.active_dir())?;
        for id in &ids {
            std::fs::rename(
                self.active_dir().join(format!("{id}.job")),
                self.queue_dir().join(format!("{id}.job")),
            )?;
        }
        Ok(ids)
    }
}

/// Policy knobs of one [`serve`] invocation.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Spool root directory.
    pub root: PathBuf,
    /// Drain the queue and return instead of polling forever.
    pub once: bool,
    /// Idle poll interval in milliseconds (ignored with `once`).
    pub poll_ms: u64,
    /// Cooperative shutdown flag: set (by a signal handler or a test)
    /// to drain — finish the current shard, checkpoint, re-queue the
    /// in-flight job, and return cleanly.
    pub drain: Arc<AtomicBool>,
    /// Retries per shard before a job fails loudly.
    pub max_retries: u32,
    /// Chaos injection (kills, delays, and the nested I/O plan applied
    /// to checkpoints and the result cache).
    pub faults: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            root: PathBuf::from("muse-spool"),
            once: false,
            poll_ms: 200,
            drain: Arc::new(AtomicBool::new(false)),
            max_retries: 4,
            faults: None,
        }
    }
}

/// Observability sinks for [`serve`] — the service-level analog of
/// [`FleetTelemetry`], forwarded into each job's run.
#[derive(Default)]
pub struct ServiceTelemetry<'a> {
    /// Metrics registry (service counters plus the per-run instruments).
    pub metrics: Option<&'a Metrics>,
    /// Prometheus textfile snapshot path.
    pub metrics_path: Option<PathBuf>,
    /// Structured `muse-trace/v1` event sink.
    pub tracer: Option<&'a Tracer>,
    /// Warning sink (resume banners, drain notices, retries, cache
    /// corruption).
    pub warn: Option<Box<WarnFn<'a>>>,
}

impl ServiceTelemetry<'_> {
    fn warn(&self, line: &str) {
        if let Some(warn) = &self.warn {
            warn(line);
        }
    }

    fn snapshot(&self, io_errors: Option<&Counter>) {
        if let (Some(metrics), Some(path)) = (self.metrics, &self.metrics_path) {
            if let Err(e) = metrics.write_textfile(path) {
                self.warn(&format!(
                    "warning: metrics snapshot to {} failed: {e}",
                    path.display()
                ));
                if let Some(counter) = io_errors {
                    counter.inc();
                }
            }
        }
    }
}

/// What one [`serve`] invocation did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceReport {
    /// Jobs that produced a `done/` result (cache hits included).
    pub jobs_completed: u32,
    /// Jobs moved to `failed/`.
    pub jobs_failed: u32,
    /// Jobs served from the result cache without recomputing.
    pub cache_hits: u32,
    /// Cache records rejected by the CRC/hash fence (recomputed).
    pub cache_corrupt: u32,
    /// `active/` orphans adopted back into the queue at startup.
    pub adopted: u32,
    /// The loop exited via the drain flag (in-flight work checkpointed
    /// and re-queued).
    pub drained: bool,
}

/// One finished job, as written to `done/<id>.result` (flat
/// `muse-result/v1` JSON).
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job id (16-hex config hash).
    pub id: String,
    /// Code display name.
    pub code: String,
    /// Environment name.
    pub env: String,
    /// Machine-years covered.
    pub machine_years: f64,
    /// DUE events per machine-year.
    pub due_per_machine_year: f64,
    /// SDC words per machine-year.
    pub sdc_per_machine_year: f64,
    /// Served from the result cache (no recompute).
    pub cache_hit: bool,
    /// Shards computed in the finishing invocation.
    pub shards_run: u32,
    /// Shard attempts lost to injected kills.
    pub retries: u32,
    /// The raw tally counters (weighted accumulators live only in the
    /// binary cache record; the rates above already incorporate them).
    pub tally: LifetimeTally,
}

impl JobResult {
    fn new(id: &str, report: &LifetimeReport, cache_hit: bool, stats: &RunStats) -> Self {
        Self {
            id: id.to_string(),
            code: report.code.clone(),
            env: report.environment.clone(),
            machine_years: report.machine_years,
            due_per_machine_year: report.due_per_machine_year,
            sdc_per_machine_year: report.sdc_per_machine_year,
            cache_hit,
            shards_run: stats.shards_run,
            retries: stats.retries,
            tally: report.tally,
        }
    }

    /// Serializes to one `muse-result/v1` JSON line.
    pub fn to_json(&self) -> String {
        let t = &self.tally;
        let mut b = JsonBuilder::new();
        b.str("schema", RESULT_JSON_SCHEMA)
            .str("id", &self.id)
            .str("code", &self.code)
            .str("env", &self.env)
            .f64("machine_years", self.machine_years)
            .f64("due_per_machine_year", self.due_per_machine_year)
            .f64("sdc_per_machine_year", self.sdc_per_machine_year)
            .bool("cache_hit", self.cache_hit)
            .u64("shards_run", u64::from(self.shards_run))
            .u64("retries", u64::from(self.retries))
            .u64("epochs", t.epochs)
            .u64("degraded_epochs", t.degraded_epochs)
            .u64("corrected_words", t.corrected_words)
            .u64("due_words", t.due_words)
            .u64("sdc_words", t.sdc_words)
            .u64("erasure_reads", t.erasure_reads)
            .u64("devices_retired", t.devices_retired)
            .u64("rows_retired", t.rows_retired)
            .u64("spare_rebuilds", t.spare_rebuilds)
            .u64("data_loss_events", t.data_loss_events)
            .u64("dimm_replacements", t.dimm_replacements);
        b.finish()
    }

    /// Parses a `muse-result/v1` JSON line. The weighted accumulators
    /// are not carried in JSON and parse back as zero.
    ///
    /// # Errors
    ///
    /// Malformed or missing fields; wrong `schema` tags are rejected.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let obj = parse_object(line).map_err(|e| format!("job result: {e}"))?;
        let get = |e: muse_telemetry::JsonError| format!("job result: {e}");
        let schema = obj.str("schema").map_err(get)?;
        if schema != RESULT_JSON_SCHEMA {
            return Err(format!(
                "job result: schema mismatch: expected {RESULT_JSON_SCHEMA:?}, got {schema:?}"
            ));
        }
        let tally = LifetimeTally {
            epochs: obj.u64("epochs").map_err(get)?,
            degraded_epochs: obj.u64("degraded_epochs").map_err(get)?,
            corrected_words: obj.u64("corrected_words").map_err(get)?,
            due_words: obj.u64("due_words").map_err(get)?,
            sdc_words: obj.u64("sdc_words").map_err(get)?,
            erasure_reads: obj.u64("erasure_reads").map_err(get)?,
            devices_retired: obj.u64("devices_retired").map_err(get)?,
            rows_retired: obj.u64("rows_retired").map_err(get)?,
            spare_rebuilds: obj.u64("spare_rebuilds").map_err(get)?,
            data_loss_events: obj.u64("data_loss_events").map_err(get)?,
            dimm_replacements: obj.u64("dimm_replacements").map_err(get)?,
            ..LifetimeTally::default()
        };
        Ok(Self {
            id: obj.str("id").map_err(get)?.to_string(),
            code: obj.str("code").map_err(get)?.to_string(),
            env: obj.str("env").map_err(get)?.to_string(),
            machine_years: obj.f64("machine_years").map_err(get)?,
            due_per_machine_year: obj.f64("due_per_machine_year").map_err(get)?,
            sdc_per_machine_year: obj.f64("sdc_per_machine_year").map_err(get)?,
            cache_hit: obj.bool("cache_hit").map_err(get)?,
            shards_run: obj.u32("shards_run").map_err(get)?,
            retries: obj.u32("retries").map_err(get)?,
            tally,
        })
    }
}

/// The daemon's own instruments (the per-run supervisor instruments are
/// resolved separately inside each job).
struct ServiceInstruments {
    jobs_claimed: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_corrupt: Arc<Counter>,
    drains: Arc<Counter>,
    io_errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl ServiceInstruments {
    fn resolve(metrics: &Metrics) -> Self {
        Self {
            jobs_claimed: metrics.counter(
                "muse_service_jobs_claimed_total",
                "Jobs claimed from the spool queue",
            ),
            jobs_completed: metrics.counter(
                "muse_service_jobs_completed_total",
                "Jobs that produced a done/ result",
            ),
            jobs_failed: metrics.counter(
                "muse_service_jobs_failed_total",
                "Jobs moved to failed/ (parse, resolve, or run failure)",
            ),
            cache_hits: metrics.counter(
                "muse_service_cache_hits_total",
                "Jobs served from the result cache without recomputing",
            ),
            cache_misses: metrics.counter(
                "muse_service_cache_misses_total",
                "Jobs whose config hash had no cached result",
            ),
            cache_corrupt: metrics.counter(
                "muse_service_cache_corrupt_total",
                "Cache records rejected by the CRC/config-hash fence",
            ),
            drains: metrics.counter(
                "muse_service_drains_total",
                "Graceful drains (signal-initiated shutdowns)",
            ),
            io_errors: metrics.counter(
                "muse_io_errors_total",
                "Telemetry-writer I/O errors (metrics snapshots that failed to land)",
            ),
            queue_depth: metrics.gauge(
                "muse_service_queue_depth",
                "Jobs waiting in the spool queue",
            ),
        }
    }
}

enum JobOutcome {
    Done { cache_hit: bool },
    Failed,
    Drained,
}

/// Cache-lookup accounting threaded back into the [`ServiceReport`]
/// (the metrics counters are bumped at the lookup site).
#[derive(Default)]
struct CacheCounts {
    corrupt: u32,
}

/// Runs the daemon until the queue drains (`once`) or the drain flag
/// trips. See the crate docs for semantics; `tests/` and the CI
/// `service-smoke` job pin them.
///
/// # Errors
///
/// Spool/cache directory creation only. Per-job failures (bad specs,
/// exhausted retries, checkpoint I/O faults) are recorded in `failed/`
/// and [`ServiceReport::jobs_failed`], never returned — one poisoned
/// job must not take the daemon down.
pub fn serve(
    config: &ServiceConfig,
    telemetry: &ServiceTelemetry<'_>,
) -> std::io::Result<ServiceReport> {
    let spool = Spool::open(&config.root)?;
    let cache = ResultCache::open(
        &spool.cache_dir(),
        config.faults.as_ref().and_then(|f| f.io),
    )?;
    let instruments = telemetry.metrics.map(ServiceInstruments::resolve);
    let mut report = ServiceReport::default();

    let adopted = spool.adopt_orphans()?;
    report.adopted = adopted.len() as u32;
    for id in &adopted {
        telemetry.warn(&format!(
            "resume: adopted orphaned job {id} from active/ back into the queue"
        ));
    }

    'serve: loop {
        if config.drain.load(Ordering::Relaxed) {
            report.drained = true;
            break 'serve;
        }
        let queued = jobs_in(&spool.queue_dir())?;
        if let Some(ins) = &instruments {
            ins.queue_depth.set(queued.len() as f64);
        }
        let Some(id) = queued.into_iter().next() else {
            if config.once {
                break 'serve;
            }
            std::thread::sleep(std::time::Duration::from_millis(config.poll_ms));
            continue 'serve;
        };

        // Claim: a single atomic rename. A concurrent daemon losing the
        // race just sees ENOENT and re-polls.
        let active = spool.active_dir().join(format!("{id}.job"));
        if std::fs::rename(spool.queue_dir().join(format!("{id}.job")), &active).is_err() {
            continue 'serve;
        }
        if let Some(ins) = &instruments {
            ins.jobs_claimed.inc();
        }

        let mut counts = CacheCounts::default();
        let outcome = run_job(
            &spool,
            &cache,
            config,
            telemetry,
            &instruments,
            &id,
            &mut counts,
        );
        report.cache_corrupt += counts.corrupt;
        match outcome {
            JobOutcome::Done { cache_hit } => {
                report.jobs_completed += 1;
                if cache_hit {
                    report.cache_hits += 1;
                }
            }
            JobOutcome::Failed => report.jobs_failed += 1,
            JobOutcome::Drained => {
                report.drained = true;
                break 'serve;
            }
        }
        telemetry.snapshot(instruments.as_ref().map(|i| &*i.io_errors));
    }

    if report.drained {
        if let Some(ins) = &instruments {
            ins.drains.inc();
        }
        telemetry.warn("drain: queue state persisted; restart resumes from checkpoints");
    }
    telemetry.snapshot(instruments.as_ref().map(|i| &*i.io_errors));
    Ok(report)
}

/// Runs one claimed job to a terminal spool state. Every failure path
/// lands in `failed/` with the error text beside the spec; the drain
/// path re-queues.
fn run_job(
    spool: &Spool,
    cache: &ResultCache,
    config: &ServiceConfig,
    telemetry: &ServiceTelemetry<'_>,
    instruments: &Option<ServiceInstruments>,
    id: &str,
    counts: &mut CacheCounts,
) -> JobOutcome {
    let active = spool.active_dir().join(format!("{id}.job"));
    let fail = |error: String| {
        telemetry.warn(&format!("job {id} failed: {error}"));
        let _ = std::fs::rename(&active, spool.failed_dir().join(format!("{id}.job")));
        let err = spool.failed_dir().join(format!("{id}.err"));
        let _ = write_durable(&err.with_extension("tmp"), &err, error.as_bytes(), None, 0);
        if let Some(ins) = instruments {
            ins.jobs_failed.inc();
        }
        JobOutcome::Failed
    };

    let spec = match std::fs::read_to_string(&active)
        .map_err(|e| e.to_string())
        .and_then(|text| JobSpec::from_json(&text))
    {
        Ok(spec) => spec,
        Err(e) => return fail(e),
    };
    let (code, env, fleet_config) = match spec.resolve() {
        Ok(triple) => triple,
        Err(e) => return fail(e),
    };
    // Fence the file name against its contents: a record renamed onto
    // the wrong id would otherwise cache under a hash it doesn't have.
    let actual = triple_id(&code, &env, &fleet_config);
    if actual != id {
        return fail(format!(
            "job id mismatch: file {id}, spec hashes to {actual}"
        ));
    }
    let hash = u64::from_str_radix(id, 16).expect("job id is 16-hex by construction");

    let finish = |tally: LifetimeTally, cache_hit: bool, stats: &RunStats| {
        let report = LifetimeReport::from_tally(&code, &env, &fleet_config, tally);
        let result = JobResult::new(id, &report, cache_hit, stats);
        let done = spool.done_dir().join(format!("{id}.result"));
        let written = write_durable(
            &done.with_extension("tmp"),
            &done,
            result.to_json().as_bytes(),
            None,
            0,
        );
        if let Err(e) = written {
            return fail(format!("writing result: {e}"));
        }
        let _ = std::fs::remove_file(&active);
        if let Some(ins) = instruments {
            ins.jobs_completed.inc();
        }
        JobOutcome::Done { cache_hit }
    };

    match cache.get(hash) {
        CacheLookup::Hit(tally) => {
            telemetry.warn(&format!("job {id}: result cache hit, not recomputing"));
            if let Some(ins) = instruments {
                ins.cache_hits.inc();
            }
            return finish(tally, true, &RunStats::default());
        }
        CacheLookup::Corrupt => {
            telemetry.warn(&format!(
                "warning: job {id}: cache record failed its CRC/config-hash fence; recomputing"
            ));
            counts.corrupt += 1;
            if let Some(ins) = instruments {
                ins.cache_corrupt.inc();
            }
        }
        CacheLookup::Miss => {
            if let Some(ins) = instruments {
                ins.cache_misses.inc();
            }
        }
    }

    let runner = RunnerConfig {
        shards: spec.shards,
        checkpoint_dir: Some(spool.checkpoint_dir(id)),
        checkpoint_prefix: "job".to_string(),
        resume: true,
        max_retries: config.max_retries,
        stop: Some(Arc::clone(&config.drain)),
        ..RunnerConfig::default()
    };
    let fleet_telemetry = FleetTelemetry {
        tracer: telemetry.tracer,
        metrics: telemetry.metrics,
        metrics_path: telemetry.metrics_path.clone(),
        label: cell_label(&code.name(), env.name),
        warn: telemetry
            .warn
            .as_ref()
            .map(|w| Box::new(move |line: &str| w(line)) as Box<WarnFn<'_>>),
        heartbeat: None,
    };
    match run_sharded_with(
        &code,
        &env,
        &fleet_config,
        &runner,
        config.faults.as_ref(),
        &fleet_telemetry,
    ) {
        Ok(ShardedOutcome::Complete { report, stats }) => {
            if let Some(info) = &stats.resume {
                telemetry.warn(&format!(
                    "resume: job {id} adopted checkpoint generation {} ({} of {} shards)",
                    info.generation, info.shards_done, info.total_shards
                ));
            }
            // The cache is an optimization: a failed put is a warning,
            // the (already computed, already correct) result still lands.
            if let Err(e) = cache.put(hash, &report.tally) {
                telemetry.warn(&format!("warning: job {id}: cache write failed: {e}"));
            }
            let _ = std::fs::remove_dir_all(spool.checkpoint_dir(id));
            finish(report.tally, false, &stats)
        }
        Ok(ShardedOutcome::Interrupted { stats }) => {
            telemetry.warn(&format!(
                "drain: job {id} checkpointed at a shard boundary ({} of {} shards done); \
                 re-queued for the next daemon",
                stats.shards_resumed + stats.shards_run,
                stats.total_shards
            ));
            let _ = std::fs::rename(&active, spool.queue_dir().join(format!("{id}.job")));
            JobOutcome::Drained
        }
        Err(e) => fail(e.to_string()),
    }
}
