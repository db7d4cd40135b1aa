//! The sharded runner's hard guarantee: interrupt at any point and
//! resume — at any thread count, with any shard count, through injected
//! kills, drains and corrupted checkpoints — and the
//! merged tallies are bit-identical to an uninterrupted [`simulate_fleet`]
//! run. [`setup`] pins one thread; the `concurrent_shards_*` tests rerun
//! the same guarantees with shards in flight at 2 and 4 threads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use muse_lifetime::{
    run_sharded, run_sharded_with, simulate_fleet, smoke_setup, CheckpointStore, Corruption,
    Environment, Estimator, FaultPlan, FleetCode, FleetConfig, FleetTelemetry, RunnerConfig,
    RunnerError, ShardedOutcome,
};

/// A small degraded fleet under the aggressive smoke environment so every
/// classification path is hit, shrunk further so the boundary sweep stays
/// fast in debug builds.
fn setup() -> (FleetCode, Environment, FleetConfig) {
    let (env, config) = smoke_setup();
    (
        FleetCode::muse(muse_core::presets::muse_80_69()),
        env,
        FleetConfig {
            dimms: 24,
            threads: 1,
            ..config
        },
    )
}

/// A fresh per-test checkpoint directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("muse-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn runner(dir: &TempDir) -> RunnerConfig {
    RunnerConfig {
        shards: 6,
        checkpoint_dir: Some(dir.0.clone()),
        ..RunnerConfig::default()
    }
}

fn complete(outcome: ShardedOutcome) -> muse_lifetime::LifetimeReport {
    match outcome {
        ShardedOutcome::Complete { report, .. } => report,
        ShardedOutcome::Interrupted { .. } => panic!("run did not complete"),
    }
}

#[test]
fn sharded_equals_unsharded_at_any_shard_and_thread_count() {
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    for shards in [1u32, 3, 6, 0] {
        for threads in [1usize, 4] {
            let config = FleetConfig { threads, ..config };
            let outcome = run_sharded(
                &code,
                &env,
                &config,
                &RunnerConfig {
                    shards,
                    ..RunnerConfig::default()
                },
                None,
            )
            .expect("sharded run");
            assert_eq!(
                complete(outcome).tally,
                baseline,
                "shards={shards} threads={threads}"
            );
        }
    }
}

/// Interrupts after every shard boundary with the first leg on
/// `first_threads` workers, resumes at 1 and 4 threads, and requires the
/// resumed tallies — weighted accumulators included — to be bit-identical
/// to an uninterrupted run.
fn sweep_every_boundary(config: FleetConfig, first_threads: usize) {
    let (code, env, _) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let first_config = FleetConfig {
        threads: first_threads,
        ..config
    };
    for stop_after in 0..6u64 {
        for &resume_threads in &[1usize, 4] {
            let dir = TempDir::new(&format!(
                "sweep-{}-{first_threads}-{stop_after}-{resume_threads}",
                config.estimator.name()
            ));
            let first = run_sharded(
                &code,
                &env,
                &first_config,
                &RunnerConfig {
                    stop_after_shards: Some(stop_after),
                    ..runner(&dir)
                },
                None,
            )
            .expect("interrupted run");
            assert!(
                matches!(first, ShardedOutcome::Interrupted { .. }),
                "stop_after={stop_after} should interrupt"
            );
            // Only the lowest-indexed pending shards were dispatched.
            let saved: Vec<u32> = CheckpointStore::open(&dir.0, "fleet")
                .expect("store")
                .load()
                .map(|loaded| loaded.checkpoint.done.iter().map(|&(s, _)| s).collect())
                .unwrap_or_default();
            assert_eq!(
                saved,
                (0..stop_after as u32).collect::<Vec<_>>(),
                "first_threads={first_threads}"
            );
            // Resume at a different thread count than the first leg ran.
            let resumed_config = FleetConfig {
                threads: resume_threads,
                ..config
            };
            let outcome = run_sharded(
                &code,
                &env,
                &resumed_config,
                &RunnerConfig {
                    resume: true,
                    ..runner(&dir)
                },
                None,
            )
            .expect("resumed run");
            let stats = outcome.stats().clone();
            let resumed = complete(outcome).tally;
            let context = format!(
                "stop_after={stop_after} first_threads={first_threads} \
                 resume_threads={resume_threads}"
            );
            assert_eq!(resumed, baseline, "{context}");
            assert_eq!(
                resumed.sdc_weighted, baseline.sdc_weighted,
                "weighted SDC accumulator drifted across the resume: {context}"
            );
            if stop_after > 0 {
                let info = stats.resume.expect("checkpoint was loaded");
                assert_eq!(info.shards_done as u64, stop_after, "{context}");
                assert_eq!(info.total_shards, 6);
                assert!(!info.fell_back);
                assert_eq!(stats.shards_resumed as u64, stop_after);
                assert_eq!(stats.shards_run as u64, 6 - stop_after);
            }
        }
    }
}

/// The importance-sampling variant of [`setup`]'s config.
fn is_config(config: FleetConfig) -> FleetConfig {
    FleetConfig {
        estimator: Estimator::importance(16.0),
        ..config
    }
}

#[test]
fn interrupt_at_every_shard_boundary_resumes_bit_identically() {
    let (_, _, config) = setup();
    sweep_every_boundary(config, 1);
}

#[test]
fn is_interrupt_at_every_shard_boundary_resumes_bit_identically() {
    // The weighted (importance-sampling) path rides the same
    // `lifetime-ckpt/v2` records: interrupting after every shard
    // boundary and resuming — at a different thread count — must
    // reproduce the uninterrupted run's weighted accumulators bit for
    // bit, not just the raw counters.
    let (code, env, config) = setup();
    let config = is_config(config);
    let baseline = simulate_fleet(&code, &env, &config).tally;
    assert!(
        baseline.weight_sum.sum() > 0.0,
        "the biased run recorded weights"
    );
    sweep_every_boundary(config, 1);
}

#[test]
fn concurrent_shards_interrupt_at_every_boundary_and_resume_bit_identically() {
    // With 2 and 4 workers the first leg runs shards concurrently and
    // may commit them out of order; `stop_after_shards` still dispatches
    // exactly the lowest-indexed pending shards.
    let (_, _, config) = setup();
    for threads in [2, 4] {
        sweep_every_boundary(config, threads);
        sweep_every_boundary(is_config(config), threads);
    }
}

#[test]
fn unreadable_checkpoints_warn_then_start_over() {
    // Slot files that all fail to decode — here both slots carry a
    // version-1 header, the layout of older builds — must not restart
    // silently: the resume warns once, then recomputes every shard.
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let dir = TempDir::new("old-format");
    let first = run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            stop_after_shards: Some(3),
            ..runner(&dir)
        },
        None,
    )
    .expect("interrupted run");
    assert!(matches!(first, ShardedOutcome::Interrupted { .. }));
    let store = CheckpointStore::open(&dir.0, "fleet").expect("store");
    let mut bytes = store
        .load()
        .expect("checkpoint present")
        .checkpoint
        .encode();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    for generation in 0..2 {
        std::fs::write(store.slot_path(generation), &bytes).expect("write v1 header");
    }
    assert!(store.load().is_none(), "a v1 header must not decode");
    let warnings = std::cell::RefCell::new(Vec::new());
    let telemetry = FleetTelemetry {
        warn: Some(Box::new(|line: &str| {
            warnings.borrow_mut().push(line.to_string())
        })),
        ..FleetTelemetry::disabled()
    };
    let outcome = run_sharded_with(
        &code,
        &env,
        &config,
        &RunnerConfig {
            resume: true,
            ..runner(&dir)
        },
        None,
        &telemetry,
    )
    .expect("restarted run");
    assert!(outcome.stats().resume.is_none());
    assert_eq!(outcome.stats().shards_run, 6);
    assert_eq!(complete(outcome).tally, baseline);
    let warnings = warnings.borrow();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(warnings[0].contains("starting over"), "{warnings:?}");
}

#[test]
fn repeated_interruptions_still_converge() {
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let dir = TempDir::new("repeat");
    // One shard per invocation: six interruptions, then completion.
    let mut resume = false;
    for _ in 0..6 {
        let outcome = run_sharded(
            &code,
            &env,
            &config,
            &RunnerConfig {
                resume,
                stop_after_shards: Some(1),
                ..runner(&dir)
            },
            None,
        )
        .expect("leg");
        resume = true;
        if let ShardedOutcome::Complete { report, .. } = outcome {
            assert_eq!(report.tally, baseline);
            return;
        }
    }
    let outcome = run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            resume: true,
            ..runner(&dir)
        },
        None,
    )
    .expect("final leg");
    assert_eq!(complete(outcome).tally, baseline);
}

#[test]
fn injected_kills_retry_and_preserve_tallies() {
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let faults = FaultPlan {
        seed: 0xDEAD,
        kill_prob: 0.6,
        ..FaultPlan::default()
    };
    let outcome = run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            shards: 6,
            max_retries: 16,
            ..RunnerConfig::default()
        },
        Some(&faults),
    )
    .expect("kills within the retry budget");
    let stats = outcome.stats().clone();
    assert!(stats.retries > 0, "kill_prob=0.6 over 6 shards never fired");
    assert_eq!(complete(outcome).tally, baseline);
}

#[test]
fn concurrent_shards_retry_kills_like_one_thread() {
    // Kill decisions are pure functions of (shard, attempt), so every
    // thread count retries the same attempts: `retries` matches the
    // 1-thread run, and so do the tallies.
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let faults = FaultPlan {
        seed: 0xDEAD,
        kill_prob: 0.4,
        ..FaultPlan::default()
    };
    let run = |threads: usize| {
        let outcome = run_sharded(
            &code,
            &env,
            &FleetConfig { threads, ..config },
            &RunnerConfig {
                shards: 6,
                max_retries: 16,
                ..RunnerConfig::default()
            },
            Some(&faults),
        )
        .expect("failures within the retry budget");
        let retries = outcome.stats().retries;
        assert_eq!(complete(outcome).tally, baseline, "threads={threads}");
        retries
    };
    let serial = run(1);
    assert!(serial > 0, "no injected kill fired");
    for threads in [2, 4] {
        assert_eq!(run(threads), serial, "threads={threads}");
    }
}

#[test]
fn kill_every_attempt_exhausts_retries() {
    let (code, env, config) = setup();
    let faults = FaultPlan {
        kill_prob: 1.0,
        ..FaultPlan::default()
    };
    let err = run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            shards: 2,
            max_retries: 2,
            ..RunnerConfig::default()
        },
        Some(&faults),
    )
    .expect_err("every attempt is killed");
    match err {
        RunnerError::ShardFailed { shard: 0, attempts } => assert_eq!(attempts, 3),
        other => panic!("expected ShardFailed, got {other}"),
    }
}

/// Runs four shards on `threads` workers with generation 4 corrupted
/// right after its save, as a crash mid-write would; the resume must
/// fall back to generation 3, which holds three shards, and recompute
/// the other three.
fn corrupt_generation_falls_back(threads: usize) {
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let config = FleetConfig { threads, ..config };
    for kind in [Corruption::Truncate, Corruption::BitFlip] {
        let dir = TempDir::new(&format!("corrupt-{kind:?}-{threads}"));
        let faults = FaultPlan {
            corrupt_generation: Some((4, kind)),
            ..FaultPlan::default()
        };
        let first = run_sharded(
            &code,
            &env,
            &config,
            &RunnerConfig {
                stop_after_shards: Some(4),
                ..runner(&dir)
            },
            Some(&faults),
        )
        .expect("interrupted run");
        assert!(matches!(first, ShardedOutcome::Interrupted { .. }));
        let outcome = run_sharded(
            &code,
            &env,
            &config,
            &RunnerConfig {
                resume: true,
                ..runner(&dir)
            },
            None,
        )
        .expect("resumed run");
        let stats = outcome.stats().clone();
        let context = format!("{kind:?} threads={threads}");
        let info = stats.resume.expect("fell back to generation 3");
        assert!(info.fell_back, "{context}: newest generation was corrupt");
        assert_eq!(info.generation, 3, "{context}");
        assert_eq!(info.shards_done, 3, "{context}");
        assert_eq!(
            stats.shards_run, 3,
            "{context}: the lost shard is recomputed"
        );
        assert_eq!(complete(outcome).tally, baseline, "{context}");
    }
}

#[test]
fn corrupt_newest_generation_falls_back_and_recomputes() {
    corrupt_generation_falls_back(1);
}

#[test]
fn concurrent_shards_corrupt_newest_generation_falls_back() {
    // Concurrent commits may land out of shard order, so generation 3
    // can hold a non-contiguous set; it still holds exactly three.
    corrupt_generation_falls_back(2);
    corrupt_generation_falls_back(4);
}

#[test]
fn drain_commits_every_finished_shard_and_resumes_bit_identically() {
    // The stop flag is raised at the first commit. Workers stop
    // claiming, the shards in flight finish, and every committed shard
    // reaches disk in its own checkpoint generation. Shards sleep an
    // injected delay so they overlap in time.
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let faults = FaultPlan {
        delay_ms_max: 30,
        ..FaultPlan::default()
    };
    for threads in [1usize, 2, 4] {
        let dir = TempDir::new(&format!("drain-{threads}"));
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = FleetTelemetry {
            heartbeat: Some(Box::new(|_| stop.store(true, Ordering::Relaxed))),
            ..FleetTelemetry::disabled()
        };
        let drained = run_sharded_with(
            &code,
            &env,
            &FleetConfig { threads, ..config },
            &RunnerConfig {
                shards: 24,
                stop: Some(Arc::clone(&stop)),
                ..runner(&dir)
            },
            Some(&faults),
            &telemetry,
        )
        .expect("drained run");
        let ShardedOutcome::Interrupted { stats } = drained else {
            panic!("threads={threads}: the drain did not interrupt");
        };
        // The caller commits between its own shards, so other workers
        // may finish several before the first commit; a lone caller
        // stops right after it.
        assert!(stats.shards_run >= 1, "threads={threads}");
        if threads == 1 {
            assert_eq!(stats.shards_run, 1);
        }
        assert_eq!(
            stats.checkpoint_writes, stats.shards_run,
            "threads={threads}"
        );
        let on_disk = CheckpointStore::open(&dir.0, "fleet")
            .expect("store")
            .load()
            .expect("the drain checkpointed")
            .checkpoint;
        assert_eq!(
            on_disk.done.len(),
            stats.shards_run as usize,
            "threads={threads}"
        );
        let outcome = run_sharded(
            &code,
            &env,
            &config,
            &RunnerConfig {
                shards: 24,
                resume: true,
                ..runner(&dir)
            },
            None,
        )
        .expect("resumed run");
        assert_eq!(outcome.stats().shards_resumed, stats.shards_run);
        assert_eq!(complete(outcome).tally, baseline, "threads={threads}");
    }
}

#[test]
fn both_generations_corrupt_restarts_clean() {
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let dir = TempDir::new("both-corrupt");
    let first = run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            stop_after_shards: Some(4),
            ..runner(&dir)
        },
        None,
    )
    .expect("interrupted run");
    assert!(matches!(first, ShardedOutcome::Interrupted { .. }));
    let store = CheckpointStore::open(&dir.0, "fleet").expect("store");
    store.corrupt(3, Corruption::Truncate).expect("corrupt g3");
    store.corrupt(4, Corruption::BitFlip).expect("corrupt g4");
    let outcome = run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            resume: true,
            ..runner(&dir)
        },
        None,
    )
    .expect("resumed run");
    let stats = outcome.stats().clone();
    assert!(stats.resume.is_none(), "nothing valid to resume from");
    assert_eq!(stats.shards_run, 6, "everything recomputed");
    assert_eq!(complete(outcome).tally, baseline);
}

#[test]
fn config_change_is_refused_but_thread_change_is_not() {
    let (code, env, config) = setup();
    let dir = TempDir::new("hash");
    run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            stop_after_shards: Some(2),
            ..runner(&dir)
        },
        None,
    )
    .expect("interrupted run");
    // A different seed is a different experiment: refuse.
    let reseeded = FleetConfig {
        seed: config.seed ^ 1,
        ..config
    };
    let err = run_sharded(
        &code,
        &env,
        &reseeded,
        &RunnerConfig {
            resume: true,
            ..runner(&dir)
        },
        None,
    )
    .expect_err("seed change must not resume");
    assert!(
        matches!(err, RunnerError::ConfigHashMismatch { .. }),
        "got {err}"
    );
    // A different thread count is the same experiment: resume fine.
    let rethreaded = FleetConfig {
        threads: 4,
        ..config
    };
    let outcome = run_sharded(
        &code,
        &env,
        &rethreaded,
        &RunnerConfig {
            resume: true,
            ..runner(&dir)
        },
        None,
    )
    .expect("thread change resumes");
    assert_eq!(
        complete(outcome).tally,
        simulate_fleet(&code, &env, &config).tally
    );
}

#[test]
fn resume_adopts_the_checkpoints_shard_plan() {
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config).tally;
    let dir = TempDir::new("adopt");
    run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            stop_after_shards: Some(3),
            ..runner(&dir)
        },
        None,
    )
    .expect("interrupted at 3 of 6");
    // Ask for a different shard count on resume; the stored plan wins so
    // the recorded partials stay aligned to their DIMM ranges.
    let outcome = run_sharded(
        &code,
        &env,
        &config,
        &RunnerConfig {
            shards: 2,
            resume: true,
            checkpoint_dir: Some(dir.0.clone()),
            ..RunnerConfig::default()
        },
        None,
    )
    .expect("resumed run");
    let stats = outcome.stats().clone();
    assert_eq!(stats.total_shards, 6, "checkpoint's plan adopted");
    assert_eq!(complete(outcome).tally, baseline);
}
