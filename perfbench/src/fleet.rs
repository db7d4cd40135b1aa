//! `fleet_service`: one closed-loop client driving `muse-service` in
//! process. Each job is submitted to the spool and served with
//! `serve(once)` before the next is sent. Every scenario-matrix cell runs
//! cold under both estimators; some jobs resume from a half-finished
//! checkpoint; every cold job is then resubmitted and served from the
//! result cache.

use std::path::{Path, PathBuf};
use std::time::Instant;

use muse_lifetime::{
    all_environments, run_sharded, simulate_fleet, verify_smoke, CheckpointStore, Environment,
    FleetCode, FleetConfig, LifetimeReport, LifetimeTally, RunnerConfig, ShardPlan, ShardedOutcome,
};
use muse_service::{
    serve, CacheLookup, JobResult, JobSpec, ResultCache, ServiceConfig, ServiceTelemetry, Spool,
};

use crate::spans::Recorder;
use crate::stats::{self, Digest};
use crate::{input_seed, pins, Checks, PassOut, Size, Workload, DEFAULT_SEED};

/// The scenario-matrix codes, by service registry name.
const CODES: [&str; 4] = ["muse144_132", "muse80_69", "rs144_128_t1", "rs144_112_t2"];
/// Naive Monte Carlo and importance sampling at 16x.
const ESTIMATORS: [(&str, f64); 2] = [("naive", 1.0), ("importance", 16.0)];
/// Environment of the resumed jobs (the erasure-mode stress case).
const RESUME_ENV: &str = "chipkill-heavy";
/// Makes the resumed jobs' configurations distinct from the cold ones.
const RESUME_SEED_SALT: u64 = 0x5E5_0BE5;

struct Job {
    spec: JobSpec,
    id: String,
    code: FleetCode,
    env: Environment,
    config: FleetConfig,
    reference: Option<LifetimeReport>,
    /// Host seconds of the direct run that produced `reference`.
    reference_secs: f64,
}

impl Job {
    fn importance(&self) -> bool {
        self.spec.estimator != "naive"
    }

    fn dimm_epochs(&self) -> u64 {
        self.config.dimms * self.config.epochs()
    }

    fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.spec.code, self.spec.env, self.spec.estimator
        )
    }

    fn simulate_span(&self) -> &'static str {
        if self.importance() {
            "lifetime.simulate_fleet.is"
        } else {
            "lifetime.simulate_fleet.naive"
        }
    }
}

/// Per-pass service counts, which must repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    cache_hits: u64,
    cache_misses: u64,
    resumed: u64,
    retries: u64,
}

pub struct FleetService {
    size: Size,
    benchmark_seed: u64,
    seed: u64,
    threads: usize,
    root: PathBuf,
    cold: Vec<Job>,
    resumed: Vec<Job>,
    passes: usize,
    counts: Option<Counts>,
}

impl FleetService {
    pub fn new(size: Size, benchmark_seed: u64, threads: usize, out_dir: &Path) -> Self {
        let tag = match size {
            Size::Full => "full",
            Size::Probe => "probe",
        };
        Self {
            size,
            benchmark_seed,
            seed: input_seed(FleetConfig::default().seed, benchmark_seed),
            threads,
            root: out_dir.join(format!("fleet-{}-{tag}", std::process::id())),
            cold: Vec::new(),
            resumed: Vec::new(),
            passes: 0,
            counts: None,
        }
    }

    fn spec(&self, code: &str, env: &str, (estimator, bias): (&str, f64), seed: u64) -> JobSpec {
        let (dimms, years) = match self.size {
            Size::Full => (512, 5.0),
            Size::Probe => (64, 1.0),
        };
        JobSpec {
            code: code.to_string(),
            env: env.to_string(),
            dimms,
            years,
            seed,
            estimator: estimator.to_string(),
            bias,
            threads: self.threads,
            ..JobSpec::default()
        }
    }

    fn half_shards(&self, job: &Job) -> u64 {
        u64::from(ShardPlan::new(job.config.dimms, job.spec.shards).count() / 2)
    }

    /// Interrupts a checkpointed `run_sharded` of `job` halfway, leaving
    /// its checkpoint in `dir` under `prefix`.
    fn run_half(&self, rec: &mut Recorder, job: &Job, dir: &Path, prefix: &str) -> bool {
        let runner = RunnerConfig {
            shards: job.spec.shards,
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_prefix: prefix.to_string(),
            stop_after_shards: Some(self.half_shards(job)),
            ..RunnerConfig::default()
        };
        let outcome = rec.span("lifetime.run_sharded.half", job.dimm_epochs() / 2, |_| {
            run_sharded(&job.code, &job.env, &job.config, &runner, None)
        });
        matches!(outcome, Ok(ShardedOutcome::Interrupted { .. }))
    }
}

/// Submits one job, serves the queue once and reads the result back:
/// the client's submit-to-done span.
fn run_job(
    rec: &mut Recorder,
    span: &'static str,
    spool: &Spool,
    config: &ServiceConfig,
    spec: &JobSpec,
) -> Result<JobResult, String> {
    rec.span(span, 0, |rec| {
        let (id, _) = rec.span("service.submit", 0, |_| spool.submit(spec))?;
        let report = rec
            .span("service.serve", 0, |_| {
                serve(config, &ServiceTelemetry::default())
            })
            .map_err(|e| format!("serve: {e}"))?;
        if report.jobs_completed != 1 || report.jobs_failed != 0 {
            return Err(format!("serve report {report:?}"));
        }
        let json = spool
            .result_json(&id)
            .map_err(|e| format!("result {id}: {e}"))?;
        JobResult::from_json(&json)
    })
}

/// Whether a service result is bit-identical to the direct run.
fn same(result: &JobResult, reference: &LifetimeReport) -> bool {
    counters(&result.tally) == counters(&reference.tally)
        && result.machine_years.to_bits() == reference.machine_years.to_bits()
        && result.due_per_machine_year.to_bits() == reference.due_per_machine_year.to_bits()
        && result.sdc_per_machine_year.to_bits() == reference.sdc_per_machine_year.to_bits()
}

fn counters(t: &LifetimeTally) -> [u64; 11] {
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

impl Workload for FleetService {
    fn name(&self) -> &'static str {
        "fleet_service"
    }

    fn op_name(&self) -> &'static str {
        "job"
    }

    fn work_name(&self) -> &'static str {
        "dimm_years_per_s"
    }

    fn nominal_pass_s(&self) -> f64 {
        3.3
    }

    fn setup(&mut self, _rec: &mut Recorder) {
        let envs: Vec<&'static str> = match self.size {
            Size::Full => all_environments().iter().map(|e| e.name).collect(),
            Size::Probe => vec![RESUME_ENV],
        };
        let resolve = |spec: JobSpec| {
            let (code, env, config) = spec.resolve().expect("benchmark job specs resolve");
            Job {
                id: spec.job_id().expect("benchmark job specs resolve"),
                spec,
                code,
                env,
                config,
                reference: None,
                reference_secs: 0.0,
            }
        };
        let mut cold = Vec::new();
        let mut resumed = Vec::new();
        for code in CODES {
            for &env in &envs {
                for estimator in ESTIMATORS {
                    cold.push(resolve(self.spec(code, env, estimator, self.seed)));
                }
            }
            for estimator in ESTIMATORS {
                let seed = self.seed ^ RESUME_SEED_SALT;
                resumed.push(resolve(self.spec(code, RESUME_ENV, estimator, seed)));
            }
        }
        Spool::open(&self.root.join("setup")).expect("open the setup spool");
        // A repeated setup builds the same jobs: keep their references.
        let old = self.cold.drain(..).chain(self.resumed.drain(..));
        for (new, old) in cold.iter_mut().chain(resumed.iter_mut()).zip(old) {
            if new.id == old.id {
                new.reference = old.reference;
                new.reference_secs = old.reference_secs;
            }
        }
        self.cold = cold;
        self.resumed = resumed;
    }

    fn prepare(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        // Reference results: a direct `simulate_fleet` of every job.
        for job in self.cold.iter_mut().chain(self.resumed.iter_mut()) {
            let units = job.dimm_epochs();
            let t0 = Instant::now();
            let report = rec.span(job.simulate_span(), units, |_| {
                simulate_fleet(&job.code, &job.env, &job.config)
            });
            job.reference_secs = t0.elapsed().as_secs_f64();
            job.reference = Some(report);
        }
        if self.size == Size::Probe {
            return;
        }
        // The pinned smoke fleet, through the service.
        let spool = Spool::open(&self.root.join("smoke"));
        let config = ServiceConfig {
            root: self.root.join("smoke"),
            once: true,
            ..ServiceConfig::default()
        };
        let smoke = || -> Result<(), String> {
            let spool = spool.map_err(|e| e.to_string())?;
            let mut jobs = Vec::new();
            for code in CODES {
                let spec = JobSpec {
                    code: code.to_string(),
                    smoke: true,
                    threads: self.threads,
                    ..JobSpec::default()
                };
                jobs.push((spool.submit(&spec)?.0, spec));
            }
            serve(&config, &ServiceTelemetry::default()).map_err(|e| e.to_string())?;
            let mut reports = Vec::new();
            for (id, spec) in jobs {
                let json = spool.result_json(&id).map_err(|e| e.to_string())?;
                let (code, env, config) = spec.resolve()?;
                let tally = JobResult::from_json(&json)?.tally;
                reports.push(LifetimeReport::from_tally(&code, &env, &config, tally));
            }
            verify_smoke(&reports)
        };
        let result = smoke();
        checks.check(result.is_ok(), || {
            format!("smoke fleet through the service: {result:?}")
        });
    }

    fn pass(&mut self, rec: &mut Recorder, checks: &mut Checks) -> PassOut {
        let root = self.root.join(format!("pass{}", self.passes));
        self.passes += 1;
        let _ = std::fs::remove_dir_all(&root);
        let mut out = PassOut::default();
        let spool = out
            .time("other", 0.0, || Spool::open(&root))
            .expect("open the pass spool");
        let config = ServiceConfig {
            root: root.clone(),
            once: true,
            ..ServiceConfig::default()
        };
        let mut counts = Counts::default();
        let mut record = |job: &Job, result: &Result<JobResult, String>, cache_hit: bool| {
            let ok = match (result, &job.reference) {
                (Ok(r), Some(reference)) => {
                    counts.retries += u64::from(r.retries);
                    if r.cache_hit {
                        counts.cache_hits += 1;
                    } else {
                        counts.cache_misses += 1;
                    }
                    r.cache_hit == cache_hit && same(r, reference)
                }
                _ => false,
            };
            (ok, result.as_ref().map_or(0, |r| r.shards_run))
        };
        rec.span("bench.workload", 0, |rec| {
            for job in &self.cold {
                let dimm_years = job.config.dimms as f64 * job.config.years;
                let result = out.time("op", dimm_years, || {
                    run_job(rec, "service.job.cold", &spool, &config, &job.spec)
                });
                let (ok, _) = record(job, &result, false);
                checks.check(ok, || format!("cold {}: {result:?}", job.label()));
            }
            for job in &self.resumed {
                let dir = spool.checkpoint_dir(&job.id);
                let interrupted = out.time("other", 0.0, || self.run_half(rec, job, &dir, "job"));
                checks.check(interrupted, || format!("pre-checkpoint of {}", job.label()));
                let result = out.time("resume", 0.0, || {
                    run_job(rec, "service.job.resumed", &spool, &config, &job.spec)
                });
                let (ok, shards_run) = record(job, &result, false);
                let resumed = u64::from(shards_run) == self.half_shards(job);
                counts.resumed += u64::from(resumed);
                checks.check(ok && resumed, || {
                    format!("resumed {}: {result:?}", job.label())
                });
            }
            for job in &self.cold {
                let result = out.time("cache_hit", 0.0, || {
                    run_job(rec, "service.job.cache_hit", &spool, &config, &job.spec)
                });
                let (ok, _) = record(job, &result, true);
                checks.check(ok, || format!("cache hit {}: {result:?}", job.label()));
            }
        });
        match self.counts {
            None => self.counts = Some(counts),
            Some(first) => checks.check(first == counts, || {
                format!("service counts changed between passes: {first:?} vs {counts:?}")
            }),
        }
        let _ = std::fs::remove_dir_all(&root);
        out
    }

    fn layer_probe(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        let dir = self.root.join("layers");
        let _ = std::fs::remove_dir_all(&dir);
        // Sharded overhead: checkpointed `run_sharded` against a direct
        // `simulate_fleet` of the same configurations, back to back.
        for (i, job) in self.resumed.iter().enumerate() {
            let units = job.dimm_epochs();
            let direct = rec.span("lifetime.simulate_fleet.direct", units, |_| {
                simulate_fleet(&job.code, &job.env, &job.config)
            });
            let runner = RunnerConfig {
                shards: job.spec.shards,
                checkpoint_dir: Some(dir.join("sharded")),
                checkpoint_prefix: format!("full{i}"),
                ..RunnerConfig::default()
            };
            let sharded = rec.span("lifetime.run_sharded", units, |_| {
                run_sharded(&job.code, &job.env, &job.config, &runner, None)
            });
            let same_tally = sharded
                .as_ref()
                .ok()
                .and_then(|o| o.report())
                .is_some_and(|r| r.tally == direct.tally);
            checks.check(same_tally, || {
                format!("run_sharded of {} differs", job.label())
            });

            // Checkpoint store: load the half-run checkpoint, save a copy.
            let prefix = format!("half{i}");
            let ckpt_dir = dir.join("checkpoints");
            let ok = self.run_half(rec, job, &ckpt_dir, &prefix)
                && CheckpointStore::open(&ckpt_dir, &prefix).is_ok_and(|store| {
                    let loaded = rec.span("lifetime.checkpoint_load", 1, |_| store.load());
                    let Some(loaded) = loaded else { return false };
                    CheckpointStore::open(&ckpt_dir, &format!("copy{i}")).is_ok_and(|copy| {
                        let saved = rec.span("lifetime.checkpoint_save", 1, |_| {
                            copy.save(&loaded.checkpoint)
                        });
                        saved.is_ok()
                            && copy
                                .load()
                                .is_some_and(|l| l.checkpoint == loaded.checkpoint)
                    })
                });
            checks.check(ok, || format!("checkpoint load/save of {}", job.label()));
        }
        // Result cache: put and get every cold tally.
        let cache = ResultCache::open(&dir.join("cache"), None);
        checks.check(cache.is_ok(), || {
            format!("open result cache: {:?}", cache.as_ref().err())
        });
        if let Ok(cache) = cache {
            for job in &self.cold {
                let hash = u64::from_str_radix(&job.id, 16).expect("job ids are 16-hex");
                let Some(reference) = &job.reference else {
                    continue;
                };
                let put = rec.span("service.cache_put", 1, |_| {
                    cache.put(hash, &reference.tally)
                });
                let got = rec.span("service.cache_get", 1, |_| cache.get(hash));
                checks.check(
                    put.is_ok() && got == CacheLookup::Hit(reference.tally),
                    || {
                        format!(
                            "result cache round trip of {}: {put:?} {got:?}",
                            job.label()
                        )
                    },
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn finish(&mut self, checks: &mut Checks) -> Vec<String> {
        let mut digest = Digest::default();
        let mut lines = vec![format!(
            "fidelity (fleet, {} DIMMs x {} y per job; the paper publishes no fleet rates, so these are unvalidated):",
            self.cold.first().map_or(0, |j| j.config.dimms),
            self.cold.first().map_or(0.0, |j| j.config.years),
        )];
        for job in self.cold.iter().chain(&self.resumed) {
            let Some(r) = &job.reference else { continue };
            for v in counters(&r.tally) {
                digest.push(v);
            }
            digest.push(r.due_per_machine_year.to_bits());
            digest.push(r.sdc_per_machine_year.to_bits());
            lines.push(format!(
                "  sim.fleet.{:<42} due/machine-year {:>12.6e}  sdc/machine-year {:>12.6e}  erasure_reads {}",
                job.label(),
                r.due_per_machine_year,
                r.sdc_per_machine_year,
                r.tally.erasure_reads
            ));
        }
        lines.push(format!("  sim.fleet.digest {:#018x}", digest.value()));
        if self.size == Size::Full && self.benchmark_seed == DEFAULT_SEED {
            checks.check(digest.value() == pins::FLEET_DIGEST, || {
                format!(
                    "fleet tallies digest {:#018x} does not match its pin {:#018x}",
                    digest.value(),
                    pins::FLEET_DIGEST
                )
            });
        }
        lines
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let w = self.name();
        let naive = rec.total(w, "lifetime.simulate_fleet.naive");
        let is = rec.total(w, "lifetime.simulate_fleet.is");
        let direct = rec.total(w, "lifetime.simulate_fleet.direct");
        let sharded = rec.total(w, "lifetime.run_sharded");
        // The service's own time per cold job: its serve span minus the
        // direct simulation of the same configuration.
        let serve = rec.total_under(w, "service.job.cold", "service.serve");
        let cold_sim_s: f64 = self.cold.iter().map(|j| j.reference_secs).sum();
        let serve_self_ms = serve.ms_per_call() - cold_sim_s * 1e3 / self.cold.len() as f64;
        let p50_ms = |name| {
            let d = rec.durations_s(w, name);
            if d.is_empty() {
                0.0
            } else {
                stats::median(&d) * 1e3
            }
        };
        let references = || self.cold.iter().filter_map(|j| j.reference.as_ref());
        let counts = self.counts.unwrap_or_default();
        vec![
            ("lifetime.ns_per_dimm_epoch.naive", naive.ns_per_unit()),
            ("lifetime.ns_per_dimm_epoch.is", is.ns_per_unit()),
            (
                "lifetime.sharded_overhead_pct",
                100.0 * (sharded.ns as f64 - direct.ns as f64) / direct.ns.max(1) as f64,
            ),
            (
                "lifetime.checkpoint_save_ms",
                rec.total(w, "lifetime.checkpoint_save").ms_per_call(),
            ),
            (
                "lifetime.checkpoint_load_ms",
                rec.total(w, "lifetime.checkpoint_load").ms_per_call(),
            ),
            (
                "lifetime.epochs",
                references().map(|r| r.tally.epochs).sum::<u64>() as f64,
            ),
            (
                "lifetime.erasure_reads",
                references().map(|r| r.tally.erasure_reads).sum::<u64>() as f64,
            ),
            (
                "service.submit_ms",
                rec.total(w, "service.submit").ms_per_call(),
            ),
            (
                "service.cache_get_us",
                rec.total(w, "service.cache_get").ms_per_call() * 1e3,
            ),
            (
                "service.cache_put_ms",
                rec.total(w, "service.cache_put").ms_per_call(),
            ),
            ("service.serve_self_ms", serve_self_ms),
            ("service.resume_p50_ms", p50_ms("service.job.resumed")),
            ("service.cache_hit_p50_ms", p50_ms("service.job.cache_hit")),
            ("service.cache_hits", counts.cache_hits as f64),
            ("service.cache_misses", counts.cache_misses as f64),
            ("service.resumed", counts.resumed as f64),
            ("service.retries", counts.retries as f64),
        ]
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
