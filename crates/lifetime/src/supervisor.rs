//! The resumable sharded runner: a supervisor that executes a
//! [`ShardPlan`]'s shards concurrently, one per worker, retries shards
//! whose attempts were killed, persists a two-generation
//! [`CheckpointStore`] after every completed shard, and resumes
//! bit-identically after any interruption.
//!
//! Workers pull pending shards in ascending index order through
//! [`muse_faultsim::pull_units`]; each shard's attempts (injected kills
//! and their retries) run on the worker that claimed it. Everything
//! else — the completion map, checkpoint saves, warnings, metrics,
//! heartbeats and stop checks — happens on the calling thread, which
//! commits each shard as it lands. A checkpoint therefore holds
//! whichever shards had finished when it was written, not necessarily
//! a contiguous prefix.
//!
//! A shard attempt is a pure, bounded computation: [`run_fleet_range`]
//! over a fixed DIMM range, returning no error and waiting on no shared
//! resource. So there is no per-attempt watchdog and no retry backoff —
//! a retried attempt recomputes its range at once, and recovery from a
//! crash or a stall is the crash-only path: checkpoint, resume, drain.
//!
//! # Guarantees
//!
//! * **Equivalence.** The merged tally of a sharded run — interrupted at
//!   any shard boundary any number of times, resumed on any machine with
//!   any thread count, with any shards recomputed after injected kills —
//!   is bit-identical to [`simulate_fleet`](crate::simulate_fleet)'s
//!   uninterrupted run (`tests/resume.rs` sweeps every boundary).
//! * **Crash safety.** Saves are atomic (write-temp, `fsync`, rename)
//!   and alternate between two generation slots, so the previous
//!   generation survives a crash mid-save; a corrupt newest generation
//!   falls back to the previous one and only recomputes what it lacked.
//! * **Config fencing.** Every checkpoint stores
//!   [`config_hash`](crate::config_hash); resuming under a different
//!   `(code, environment, config)` fails loudly instead of silently
//!   restarting or mixing tallies. Thread count is excluded from the
//!   hash — it must not invalidate a checkpoint.
//!
//! Failure injection ([`FaultPlan`]) is deterministic: every decision is
//! a pure function of `(fault seed, shard, attempt)` via
//! [`Rng::for_shard`], so the recovery paths are exercised reproducibly
//! by the test suite and CI rather than trusted.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use muse_faultsim::{pull_units, Rng, SimEngine, Tally};
use muse_telemetry::{estimate_eta_ms, ProgressSnapshot, TraceEvent, Tracer};

use crate::checkpoint::{config_hash, Checkpoint, CheckpointStore, Corruption};
use crate::iofault::IoFaultPlan;
use crate::shard::ShardPlan;
use crate::sim::{arrival_probabilities, run_fleet_range};
use crate::telemetry::{
    ci_half_widths, elapsed_ms, saturated_channels, FleetTelemetry, RunInstruments,
};
use crate::{Environment, FleetCode, FleetConfig, LifetimeReport, LifetimeTally};

/// Supervisor policy for one sharded run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Shard count (`0` ⇒ the [`ShardPlan`] default). A resumed run
    /// adopts the checkpoint's shard count instead.
    pub shards: u32,
    /// Directory for checkpoints; `None` runs sharded but unpersisted.
    pub checkpoint_dir: Option<PathBuf>,
    /// File-name prefix inside the directory (one prefix per concurrent
    /// run — e.g. per scenario-matrix cell).
    pub checkpoint_prefix: String,
    /// Resume from the newest valid checkpoint instead of starting clean
    /// (slot files that all fail to decode draw a warning, then a clean
    /// start).
    pub resume: bool,
    /// Retries per shard before the run fails (injected kills consume
    /// attempts).
    pub max_retries: u32,
    /// Run only this many shards *in this invocation* — the
    /// lowest-indexed pending ones — then checkpoint and return
    /// [`ShardedOutcome::Interrupted`]: the interruption hook used by the
    /// boundary-sweep tests and the CLI's crash injection.
    pub stop_after_shards: Option<u64>,
    /// Cooperative drain flag, checked before a worker starts a shard
    /// and after every commit: once set, no further shard starts, the
    /// shards in flight finish and are checkpointed, and the run returns
    /// [`ShardedOutcome::Interrupted`] exactly like
    /// [`Self::stop_after_shards`]. The service daemon points this at
    /// its SIGTERM/SIGINT flag so an in-flight job drains to resumable
    /// state within one shard per worker.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            checkpoint_dir: None,
            checkpoint_prefix: "fleet".to_string(),
            resume: false,
            max_retries: 5,
            stop_after_shards: None,
            stop: None,
        }
    }
}

/// Deterministic failure injection for the sharded runner. Every decision
/// derives from [`Rng::for_shard`]`(seed, shard, attempt)` — disjoint
/// from the simulation's own `(DIMM, epoch)` streams, so injection never
/// perturbs tallies, only the path taken to compute them.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the injection streams.
    pub seed: u64,
    /// Probability that a given (shard, attempt) is killed mid-flight
    /// (half the shard's work is done, then discarded).
    pub kill_prob: f64,
    /// Upper bound (exclusive, in milliseconds) of a uniform completion
    /// delay per shard; `0` disables delays.
    pub delay_ms_max: u64,
    /// Corrupt this generation's checkpoint file right after it is
    /// written — the next resume must fall back to the previous one.
    pub corrupt_generation: Option<(u64, Corruption)>,
    /// Deterministic I/O chaos threaded into the checkpoint store (and,
    /// via the service daemon, the result cache): injected ENOSPC, torn
    /// writes, fsync/rename failures, post-commit bit rot.
    pub io: Option<IoFaultPlan>,
}

impl FaultPlan {
    /// Seed of the injection streams of [`FaultPlan::default`].
    pub const DEFAULT_SEED: u64 = 0xFA17;
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: Self::DEFAULT_SEED,
            kill_prob: 0.0,
            delay_ms_max: 0,
            corrupt_generation: None,
            io: None,
        }
    }
}

impl FaultPlan {
    /// Does this plan kill `shard`'s `attempt`-th execution?
    pub fn kills(&self, shard: u32, attempt: u32) -> bool {
        self.kill_prob > 0.0
            && Rng::for_shard(self.seed, shard as u64, attempt as u64).chance(self.kill_prob)
    }

    /// Injected completion delay for `shard`, in milliseconds.
    pub fn delay_ms(&self, shard: u32) -> u64 {
        if self.delay_ms_max == 0 {
            return 0;
        }
        Rng::for_shard(self.seed ^ 0xDE1A_DE1A_DE1A_DE1A, shard as u64, 0).below(self.delay_ms_max)
    }
}

/// What a resumed run found on disk.
#[derive(Debug, Clone)]
pub struct ResumeInfo {
    /// Generation of the checkpoint actually loaded.
    pub generation: u64,
    /// Shards already completed by the loaded checkpoint.
    pub shards_done: u32,
    /// Total shards of the (adopted) plan.
    pub total_shards: u32,
    /// DIMMs covered by the completed shards.
    pub dimms_done: u64,
    /// Machine-years already covered (drives the resume banner).
    pub machine_years_done: f64,
    /// True when the newest generation was corrupt and the previous one
    /// was used instead.
    pub fell_back: bool,
}

/// Counters describing how a sharded run executed.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Shards in the plan.
    pub total_shards: u32,
    /// Shards whose tallies came from the loaded checkpoint.
    pub shards_resumed: u32,
    /// Shards computed in this invocation.
    pub shards_run: u32,
    /// Attempts lost to injected kills (each retried at once).
    pub retries: u32,
    /// Checkpoint generations written in this invocation.
    pub checkpoint_writes: u32,
    /// Resume details when a checkpoint was loaded.
    pub resume: Option<ResumeInfo>,
}

/// Result of [`run_sharded`]: either the fleet report, or a clean
/// interruption with all completed shards persisted.
///
/// The variants are deliberately unboxed: one outcome exists per fleet
/// cell, so the size gap between them never matters.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum ShardedOutcome {
    /// The run finished; tallies are bit-identical to an uninterrupted
    /// [`simulate_fleet`](crate::simulate_fleet).
    Complete {
        /// The fleet report.
        report: LifetimeReport,
        /// Execution counters.
        stats: RunStats,
    },
    /// The run stopped at a shard boundary ([`RunnerConfig::
    /// stop_after_shards`] or a drain via [`RunnerConfig::stop`]); every
    /// completed shard is checkpointed.
    Interrupted {
        /// Execution counters up to the interruption.
        stats: RunStats,
    },
}

impl ShardedOutcome {
    /// The execution counters of either outcome.
    pub fn stats(&self) -> &RunStats {
        match self {
            Self::Complete { stats, .. } | Self::Interrupted { stats } => stats,
        }
    }

    /// The report, when the run completed.
    pub fn report(&self) -> Option<&LifetimeReport> {
        match self {
            Self::Complete { report, .. } => Some(report),
            Self::Interrupted { .. } => None,
        }
    }
}

/// Why a sharded run could not produce a result.
#[derive(Debug)]
pub enum RunnerError {
    /// The checkpoint on disk was produced by a different
    /// `(code, environment, config)`; resuming would mix incompatible
    /// tallies. Delete the checkpoint or restore the original
    /// parameters.
    ConfigHashMismatch {
        /// Hash of the parameters this run was invoked with.
        expected: u64,
        /// Hash stored in the checkpoint.
        found: u64,
    },
    /// A shard exhausted [`RunnerConfig::max_retries`] attempts.
    ShardFailed {
        /// The failing shard.
        shard: u32,
        /// Attempts made.
        attempts: u32,
    },
    /// Checkpoint I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ConfigHashMismatch { expected, found } => write!(
                f,
                "checkpoint config-hash mismatch: run configured as {expected:#018x} but the \
                 checkpoint was written under {found:#018x}; refusing to resume (delete the \
                 checkpoint directory to start over, or restore the original parameters)"
            ),
            Self::ShardFailed { shard, attempts } => {
                write!(f, "shard {shard} failed after {attempts} attempts")
            }
            Self::Io(e) => write!(f, "checkpoint I/O: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<std::io::Error> for RunnerError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Executes one fleet run through the resumable sharded supervisor.
///
/// The fleet is split by a [`ShardPlan`] and pending shards run
/// concurrently, one per worker, on [`FleetConfig::threads`] workers in
/// total: workers pull shards in ascending index order, and a shard runs
/// on `threads / workers` engine threads of its own (serially when there
/// are at least as many pending shards as threads). Each finished
/// shard's tally partial is recorded in a completion map on the calling
/// thread. With a checkpoint directory configured, the map is persisted
/// after every completed shard (atomic two-generation writes), and
/// `resume: true` continues from the newest valid checkpoint —
/// recomputing nothing that was persisted, and everything that was not.
///
/// # Errors
///
/// [`RunnerError::ConfigHashMismatch`] when resuming under changed
/// parameters, [`RunnerError::ShardFailed`] when a shard exhausts its
/// retries, [`RunnerError::Io`] on checkpoint I/O failure.
///
/// # Examples
///
/// ```
/// use muse_lifetime::{run_sharded, FleetCode, FleetConfig, RunnerConfig};
///
/// let code = FleetCode::muse(muse_core::presets::muse_80_69());
/// let env = muse_lifetime::chipkill_heavy();
/// let config = FleetConfig { dimms: 48, years: 1.0, ..FleetConfig::default() };
/// let outcome = run_sharded(&code, &env, &config,
///     &RunnerConfig { shards: 6, ..RunnerConfig::default() }, None).unwrap();
/// // Sharded execution is bit-identical to the plain run.
/// let plain = muse_lifetime::simulate_fleet(&code, &env, &config);
/// assert_eq!(outcome.report().unwrap().tally, plain.tally);
/// ```
pub fn run_sharded(
    code: &FleetCode,
    env: &Environment,
    config: &FleetConfig,
    runner: &RunnerConfig,
    faults: Option<&FaultPlan>,
) -> Result<ShardedOutcome, RunnerError> {
    run_sharded_with(
        code,
        env,
        config,
        runner,
        faults,
        &FleetTelemetry::disabled(),
    )
}

/// [`run_sharded`] with observability hooks: trace events, metrics, and
/// heartbeats flow through the given [`FleetTelemetry`].
///
/// Telemetry is strictly observational — it reads wall clocks and
/// completed tallies but never touches an RNG stream, so the outcome
/// (tallies, weighted sums, checkpoint contents) is bit-identical to a
/// telemetry-off run at any thread count (`tests/telemetry.rs`). Warning
/// and heartbeat callbacks run only on the calling thread; trace events
/// of a shard (`ShardStart`, `ShardRetry`, `ShardEnd`) come from the
/// worker running it, so events of different shards may interleave,
/// while each shard's start still precedes its end.
///
/// # Errors
///
/// Exactly those of [`run_sharded`]; telemetry sink failures degrade to
/// warnings, never errors.
pub fn run_sharded_with(
    code: &FleetCode,
    env: &Environment,
    config: &FleetConfig,
    runner: &RunnerConfig,
    faults: Option<&FaultPlan>,
    telemetry: &FleetTelemetry<'_>,
) -> Result<ShardedOutcome, RunnerError> {
    let mut run = ShardedRun::adopt(code, env, config, runner, faults, telemetry)?;
    // `stop_after_shards = N` dispatches only the N lowest-indexed
    // pending shards.
    let pending: Vec<u32> = (0..run.plan.count())
        .filter(|shard| !run.done.contains_key(shard))
        .take(
            runner
                .stop_after_shards
                .map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX)),
        )
        .collect();
    let threads = SimEngine::new(config.threads).threads();
    let workers = threads.min(pending.len()).max(1);
    // Never oversubscribe: a shard gets the threads its siblings leave.
    let shard_config = FleetConfig {
        threads: (threads / workers).max(1),
        ..*config
    };
    run.announce(workers * shard_config.threads);

    let work = ShardWork {
        code,
        env,
        config: &shard_config,
        runner,
        faults,
        plan: run.plan,
        tracer: telemetry.tracer,
    };
    let mut error = None;
    pull_units(
        workers,
        pending.len(),
        |unit| work.run(pending[unit]),
        |_, finished| {
            // `None`: the worker saw the drain flag and declined its shard.
            let Some(finished) = finished else {
                return false;
            };
            if let Err(e) = run.commit(finished) {
                error.get_or_insert(e);
            }
            error.is_none() && !drain_requested(runner)
        },
    );
    match error {
        Some(e) => Err(e),
        None => run.finish(),
    }
}

/// `true` once the cooperative drain flag ([`RunnerConfig::stop`]) is set.
fn drain_requested(runner: &RunnerConfig) -> bool {
    runner
        .stop
        .as_ref()
        .is_some_and(|stop| stop.load(Ordering::Relaxed))
}

/// The worker side of a sharded run: everything a shard attempt reads,
/// all of it shareable across threads.
struct ShardWork<'r> {
    code: &'r FleetCode,
    env: &'r Environment,
    /// The run's config at the per-shard engine thread count.
    config: &'r FleetConfig,
    runner: &'r RunnerConfig,
    faults: Option<&'r FaultPlan>,
    plan: ShardPlan,
    tracer: Option<&'r Tracer>,
}

/// A shard as it leaves its worker.
struct FinishedShard {
    shard: u32,
    /// The shard's tally; `None` once the retry budget ran out.
    tally: Option<LifetimeTally>,
    /// The error of each failed attempt, in attempt order.
    failures: Vec<String>,
    wall_ms: u64,
}

impl ShardWork<'_> {
    fn emit(&self, event: &TraceEvent) {
        if let Some(tracer) = self.tracer {
            tracer.emit(event);
        }
    }

    /// Runs `shard` to completion on the current worker: attempts, with
    /// kills injected as the fault plan says, retried at once until one
    /// succeeds or the budget runs out. Returns `None` without running
    /// anything once a drain is requested.
    fn run(&self, shard: u32) -> Option<FinishedShard> {
        if drain_requested(self.runner) {
            return None;
        }
        let range = self.plan.range(shard);
        self.emit(&TraceEvent::ShardStart {
            shard,
            dimm_lo: range.start,
            dimm_hi: range.end,
        });
        let started = Instant::now();
        let mut failures = Vec::new();
        let tally = loop {
            let attempt = failures.len() as u32;
            match self.attempt(shard, attempt, range.clone()) {
                Ok(tally) => break Some(tally),
                Err(error) if attempt < self.runner.max_retries => {
                    self.emit(&TraceEvent::ShardRetry {
                        shard,
                        attempt,
                        error: error.clone(),
                    });
                    failures.push(error);
                }
                Err(error) => {
                    failures.push(error);
                    break None;
                }
            }
        };
        if tally.is_some() {
            if let Some(delay) = self.faults.map(|f| f.delay_ms(shard)).filter(|&d| d > 0) {
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
        }
        let wall_ms = elapsed_ms(started);
        if tally.is_some() {
            self.emit(&TraceEvent::ShardEnd {
                shard,
                wall_ms,
                dimms: range.end - range.start,
            });
        }
        Some(FinishedShard {
            shard,
            tally,
            failures,
            wall_ms,
        })
    }

    /// One attempt at `shard`: its tally, or why the attempt failed.
    fn attempt(
        &self,
        shard: u32,
        attempt: u32,
        range: std::ops::Range<u64>,
    ) -> Result<LifetimeTally, String> {
        let (code, env, config) = (self.code, self.env, self.config);
        if self.faults.is_some_and(|f| f.kills(shard, attempt)) {
            // Killed mid-flight: half the shard's work happens, then the
            // worker dies and its partial tally is discarded — the retry
            // recomputes the shard from its streams.
            let mid = range.start + (range.end - range.start) / 2;
            let _ = run_fleet_range(code, env, config, range.start..mid);
            return Err("injected kill".to_string());
        }
        Ok(run_fleet_range(code, env, config, range))
    }
}

/// The calling thread's side of a sharded run: the adopted plan, the
/// completion map and checkpoint store, and every telemetry sink that is
/// not safe to share with workers.
struct ShardedRun<'r> {
    code: &'r FleetCode,
    env: &'r Environment,
    config: &'r FleetConfig,
    faults: Option<&'r FaultPlan>,
    telemetry: &'r FleetTelemetry<'r>,
    hash: u64,
    plan: ShardPlan,
    store: Option<CheckpointStore>,
    done: BTreeMap<u32, LifetimeTally>,
    generation: u64,
    stats: RunStats,
    started: Instant,
    instruments: Option<RunInstruments>,
    trials_prev: u64,
}

impl<'r> ShardedRun<'r> {
    /// Plans the run: opens the checkpoint store and, when resuming,
    /// adopts the newest valid checkpoint's shard plan and partials.
    fn adopt(
        code: &'r FleetCode,
        env: &'r Environment,
        config: &'r FleetConfig,
        runner: &RunnerConfig,
        faults: Option<&'r FaultPlan>,
        telemetry: &'r FleetTelemetry<'r>,
    ) -> Result<Self, RunnerError> {
        let hash = config_hash(code, env, config);
        let store = match &runner.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::open_with_faults(
                dir,
                &runner.checkpoint_prefix,
                faults.and_then(|f| f.io),
            )?),
            None => None,
        };
        let mut run = Self {
            code,
            env,
            config,
            faults,
            telemetry,
            hash,
            plan: ShardPlan::new(config.dimms, runner.shards),
            store,
            done: BTreeMap::new(),
            generation: 0,
            stats: RunStats::default(),
            started: Instant::now(),
            instruments: telemetry.metrics.map(RunInstruments::resolve),
            trials_prev: muse_faultsim::trials_completed(),
        };
        if let Some(store) = &run.store {
            if !runner.resume {
                store.clear()?;
            } else if let Some(loaded) = store.load() {
                let ckpt = loaded.checkpoint;
                if ckpt.config_hash != hash {
                    return Err(RunnerError::ConfigHashMismatch {
                        expected: hash,
                        found: ckpt.config_hash,
                    });
                }
                // The stored plan wins: shard boundaries must match the
                // recorded partials (the hash already fenced `dimms`).
                run.plan = ShardPlan::new(ckpt.dimms, ckpt.shard_count);
                run.generation = ckpt.generation;
                run.done.extend(ckpt.done.iter().copied());
                let dimms_done = run.dimms_done();
                run.stats.resume = Some(ResumeInfo {
                    generation: run.generation,
                    shards_done: run.done.len() as u32,
                    total_shards: run.plan.count(),
                    dimms_done,
                    machine_years_done: dimms_done as f64 * config.years
                        / config.dimms_per_machine as f64,
                    fell_back: loaded.fell_back,
                });
            } else if (0..2).any(|g| store.slot_path(g).exists()) {
                telemetry.warn(
                    "warning: no checkpoint slot holds a readable lifetime-ckpt/v2 \
                     checkpoint (corrupt, or written in an older format); \
                     starting over from shard 0",
                );
            }
        }
        run.stats.total_shards = run.plan.count();
        run.stats.shards_resumed = run.done.len() as u32;
        Ok(run)
    }

    /// Emits the run's opening events: `RunStart` (reporting `threads`,
    /// the run's total worker threads), weight-cap saturations, and the
    /// adopted checkpoint.
    fn announce(&self, threads: usize) {
        let (config, plan) = (self.config, self.plan);
        self.emit(&TraceEvent::RunStart {
            label: self.telemetry.label.clone(),
            total_shards: plan.count(),
            dimms_per_shard: if plan.count() == 0 {
                0
            } else {
                len_of(&plan, 0)
            },
            estimator: config.estimator.name().to_string(),
            threads: threads as u32,
        });
        for (channel, requested_bias, cap) in
            saturated_channels(&arrival_probabilities(self.env, config), config.estimator)
        {
            self.emit(&TraceEvent::WeightCapSaturated {
                channel: channel.to_string(),
                requested_bias,
                cap,
            });
            self.telemetry.warn(&format!(
                "warning: importance-sampling bias {requested_bias} saturates the \
                 per-epoch extra-arrival cap ({cap}) on the {channel} channel; \
                 effective inflation is lower than requested"
            ));
        }
        if let Some(resume) = &self.stats.resume {
            self.emit(&TraceEvent::ResumeAdopted {
                generation: resume.generation,
                shards_done: resume.shards_done,
                total_shards: resume.total_shards,
                fell_back: resume.fell_back,
            });
            if resume.fell_back {
                self.telemetry.warn(&format!(
                    "warning: newest checkpoint generation was corrupt; fell back \
                     to generation {} ({}/{} shards), recomputing the rest",
                    resume.generation, resume.shards_done, resume.total_shards
                ));
            }
        }
    }

    /// Records a finished shard: retry accounting and warnings, the
    /// completion map, metrics and heartbeat, and a checkpoint.
    fn commit(&mut self, finished: FinishedShard) -> Result<(), RunnerError> {
        let FinishedShard {
            shard,
            tally,
            failures,
            wall_ms,
        } = finished;
        let ins = self.instruments.as_ref();
        // The last failure of a failed shard exhausted the budget and
        // was not retried.
        let retried = failures.len() - usize::from(tally.is_none());
        for (attempt, error) in failures[..retried].iter().enumerate() {
            if let Some(ins) = ins {
                ins.shard_retries.inc();
            }
            self.telemetry.warn(&format!(
                "warning: shard {shard} attempt {attempt} failed ({error}); retrying"
            ));
        }
        let attempts = failures.len() as u32;
        self.stats.retries += attempts;
        let tally = tally.ok_or(RunnerError::ShardFailed { shard, attempts })?;
        self.done.insert(shard, tally);
        self.stats.shards_run += 1;

        let dimms = len_of(&self.plan, shard);
        if let Some(ins) = ins {
            // The engine's trial counter is process-wide: its delta since
            // the last commit spreads other in-flight shards' work across
            // commits, but it sums to the run's total.
            let trials_now = muse_faultsim::trials_completed();
            ins.sim_trials
                .add(trials_now.saturating_sub(self.trials_prev));
            self.trials_prev = trials_now;
            ins.shards_completed.inc();
            ins.dimms_simulated.add(dimms);
            ins.due_events.add(tally.due_words + tally.data_loss_events);
            ins.sdc_events.add(tally.sdc_words);
            ins.shard_wall_ms.observe(wall_ms);
            if wall_ms > 0 {
                let dimm_epochs = dimms * self.config.epochs();
                ins.trials_per_sec
                    .set(dimm_epochs as f64 * 1000.0 / wall_ms as f64);
            }
        }
        self.report_progress();
        self.save()
    }

    /// Heartbeat event, progress gauges and heartbeat callback for the
    /// shards committed so far.
    fn report_progress(&self) {
        let telemetry = self.telemetry;
        let ins = self.instruments.as_ref();
        if telemetry.tracer.is_none() && telemetry.heartbeat.is_none() && ins.is_none() {
            return;
        }
        let config = self.config;
        let mut merged = LifetimeTally::default();
        for t in self.done.values() {
            merged.merge(*t);
        }
        let dimms_done = self.dimms_done();
        let machine_years_done =
            dimms_done as f64 * config.years / f64::from(config.dimms_per_machine);
        let (due_ci_half, sdc_ci_half) = ci_half_widths(config, &merged, dimms_done);
        self.emit(&TraceEvent::Heartbeat {
            shards_done: self.done.len() as u32,
            total_shards: self.plan.count(),
            machine_years: machine_years_done,
            due_ci_half,
            sdc_ci_half,
        });
        if let Some(ins) = ins {
            ins.machine_years.set(machine_years_done);
            ins.due_weighted_sum.set(merged.due_weighted.sum());
            ins.sdc_weighted_sum.set(merged.sdc_weighted.sum());
            ins.trace_dropped.set(telemetry.dropped_events() as f64);
            ins.trace_io_errors.set(telemetry.io_errors() as f64);
        }
        if let Some(heartbeat) = &telemetry.heartbeat {
            heartbeat(&ProgressSnapshot {
                label: telemetry.label.clone(),
                shards_done: self.done.len() as u32,
                total_shards: self.plan.count(),
                machine_years_done,
                machine_years_total: config.machine_years(),
                eta_ms: estimate_eta_ms(
                    elapsed_ms(self.started),
                    u64::from(self.stats.shards_run),
                    u64::from(self.plan.count() - self.stats.shards_resumed),
                ),
                due_ci_half,
                sdc_ci_half,
                dropped_events: telemetry.dropped_events(),
            });
        }
        self.snapshot();
    }

    /// Writes the next checkpoint generation (a no-op without a store).
    fn save(&mut self) -> Result<(), RunnerError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        self.generation += 1;
        let write_started = Instant::now();
        store.save(&Checkpoint {
            config_hash: self.hash,
            generation: self.generation,
            shard_count: self.plan.count(),
            dimms: self.plan.dimms(),
            epoch_cursor: self.dimms_done() * self.config.epochs(),
            done: self.done.iter().map(|(&s, &t)| (s, t)).collect(),
        })?;
        let write_ms = elapsed_ms(write_started);
        self.stats.checkpoint_writes += 1;
        self.emit(&TraceEvent::CheckpointWritten {
            generation: self.generation,
            shards_done: self.done.len() as u32,
            write_ms,
        });
        if let Some(ins) = &self.instruments {
            ins.checkpoint_writes.inc();
            ins.checkpoint_write_ms.observe(write_ms);
        }
        if let Some((target, kind)) = self.faults.and_then(|f| f.corrupt_generation) {
            if self.generation == target {
                store.corrupt(target, kind)?;
            }
        }
        Ok(())
    }

    /// Closes the run: complete when every shard is done, interrupted
    /// (at a shard boundary) otherwise.
    fn finish(self) -> Result<ShardedOutcome, RunnerError> {
        self.emit(&TraceEvent::RunEnd {
            shards_done: self.done.len() as u32,
            wall_ms: elapsed_ms(self.started),
            retries: u64::from(self.stats.retries),
        });
        if let Some(ins) = &self.instruments {
            ins.trace_dropped
                .set(self.telemetry.dropped_events() as f64);
            ins.trace_io_errors.set(self.telemetry.io_errors() as f64);
        }
        self.snapshot();
        if self.done.len() < self.plan.count() as usize {
            return Ok(ShardedOutcome::Interrupted { stats: self.stats });
        }
        // Merge in ascending shard order (pure field-wise sums — identical
        // to the unsharded run's DIMM-order merge).
        let mut total = LifetimeTally::default();
        for tally in self.done.values() {
            total.merge(*tally);
        }
        Ok(ShardedOutcome::Complete {
            report: LifetimeReport::from_tally(self.code, self.env, self.config, total),
            stats: self.stats,
        })
    }

    fn emit(&self, event: &TraceEvent) {
        if let Some(tracer) = self.telemetry.tracer {
            tracer.emit(event);
        }
    }

    /// Snapshots the metrics textfile. A failure warns; the io_errors
    /// counter makes it visible to scrapers of whatever snapshot lands.
    fn snapshot(&self) {
        if !self.telemetry.snapshot_metrics() {
            if let Some(ins) = &self.instruments {
                ins.io_errors.inc();
            }
        }
    }

    /// DIMMs covered by the completed shards.
    fn dimms_done(&self) -> u64 {
        self.done.keys().map(|&s| len_of(&self.plan, s)).sum()
    }
}

fn len_of(plan: &ShardPlan, shard: u32) -> u64 {
    let r = plan.range(shard);
    r.end - r.start
}
