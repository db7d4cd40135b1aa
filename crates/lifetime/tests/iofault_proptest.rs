//! Property tests over the checkpoint store's I/O-chaos contract, plus
//! supervisor-level integration under the same faults.
//!
//! The property: drive [`CheckpointStore::save`] through an arbitrary
//! [`IoFaultPlan`] (ENOSPC, torn writes, fsync failures, rename
//! failures, post-commit bit rot at arbitrary probabilities) and at
//! every step [`CheckpointStore::load`] returns either a **bit-exact
//! previously committed checkpoint** (possibly the fallback generation,
//! flagged `fell_back`) or **nothing** (clean restart) — never a torn,
//! merged, or otherwise wrong checkpoint. A faulted save either fails
//! loudly with an `injected` error and leaves prior state intact, or
//! commits something the CRC layer later adjudicates.
//!
//! The integration tests then close the loop the satellite asks for:
//! a run whose checkpoints are torn or rotted still resumes to tallies
//! bit-identical to an uninterrupted [`simulate_fleet`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use muse_lifetime::{
    run_sharded, simulate_fleet, smoke_setup, Checkpoint, CheckpointStore, Environment, FaultPlan,
    FleetCode, FleetConfig, IoFaultPlan, LifetimeTally, RunnerConfig, ShardedOutcome,
    WeightedCount,
};
use proptest::prelude::*;

/// A fresh per-test checkpoint directory (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("muse-iofault-{tag}-{case}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A distinct, fully populated checkpoint per generation so that a
/// wrong-checkpoint load cannot masquerade as the right one.
fn checkpoint_for(generation: u64) -> Checkpoint {
    let tally = |salt: u64| LifetimeTally {
        epochs: generation * 1_000 + salt,
        degraded_epochs: generation * 31 + salt,
        corrected_words: generation ^ (salt << 8),
        due_words: salt,
        sdc_words: generation,
        erasure_reads: generation * 7 + salt,
        devices_retired: salt * 3,
        rows_retired: generation + 11,
        spare_rebuilds: salt + 13,
        data_loss_events: generation & salt,
        dimm_replacements: generation | salt,
        due_weighted: WeightedCount {
            sum_q64: u128::from(generation) << 64 | u128::from(salt),
            sumsq_q32: u128::from(salt) << 32,
        },
        sdc_weighted: WeightedCount {
            sum_q64: u128::from(generation * 5 + salt),
            sumsq_q32: u128::from(generation) << 64,
        },
        weight_sum: WeightedCount {
            sum_q64: u128::from(salt) << 96,
            sumsq_q32: u128::from(generation + salt),
        },
    };
    Checkpoint {
        config_hash: 0xC0FF_EE00_0000_0000 | generation,
        generation,
        shard_count: 3,
        dimms: 64,
        epoch_cursor: generation * 17,
        done: (0..3).map(|s| (s, tally(u64::from(s) + 1))).collect(),
    }
}

/// The slot-level model of [`CheckpointStore::save`] under faults:
/// per parity slot, the last committed generation and whether its
/// record is still valid (not torn by a short write, not bit-rotted).
#[derive(Default)]
struct SlotModel {
    slots: [Option<(u64, bool, Checkpoint)>; 2],
}

impl SlotModel {
    /// Mirrors the fault ordering inside `save`: ENOSPC before any byte
    /// lands, fsync/rename failures before the commit, short writes and
    /// bit rot silently corrupting the committed record.
    fn save(&mut self, plan: &IoFaultPlan, ckpt: &Checkpoint) -> Result<(), ()> {
        let g = ckpt.generation;
        if plan.enospc(g) || plan.fsync_fails(g) || plan.rename_fails(g) {
            return Err(());
        }
        let valid = !plan.short_write(g) && !plan.corrupts_record(g);
        self.slots[(g % 2) as usize] = Some((g, valid, ckpt.clone()));
        Ok(())
    }

    /// What `load` must return: the newest valid committed checkpoint,
    /// `fell_back` when any existing slot is corrupt, `None` when no
    /// valid slot exists.
    fn expect_load(&self) -> (Option<&Checkpoint>, bool) {
        let corrupt = self.slots.iter().flatten().any(|&(_, valid, _)| !valid);
        let newest = self
            .slots
            .iter()
            .flatten()
            .filter(|&&(_, valid, _)| valid)
            .max_by_key(|&&(g, _, _)| g)
            .map(|(_, _, c)| c);
        (newest, corrupt)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary fault probabilities, arbitrary seed, a realistic
    /// monotone generation sequence: after every save the store agrees
    /// with the model exactly — loud failure with prior state intact,
    /// or a committed record the CRC layer adjudicates on load. Never a
    /// wrong checkpoint, never silent loss of a committed one.
    #[test]
    fn faulted_saves_load_a_committed_checkpoint_or_nothing(
        seed in any::<u64>(),
        enospc in 0.0f64..1.0,
        short_write in 0.0f64..1.0,
        fsync_fail in 0.0f64..1.0,
        rename_fail in 0.0f64..1.0,
        corrupt_record in 0.0f64..1.0,
        generations in 1u64..10,
    ) {
        let plan = IoFaultPlan {
            seed,
            enospc_prob: enospc,
            short_write_prob: short_write,
            fsync_fail_prob: fsync_fail,
            rename_fail_prob: rename_fail,
            corrupt_record_prob: corrupt_record,
            ..IoFaultPlan::default()
        };
        let dir = TempDir::new("prop");
        let store = CheckpointStore::open_with_faults(&dir.0, "run", Some(plan))
            .expect("open store");
        let mut model = SlotModel::default();
        for g in 1..=generations {
            let ckpt = checkpoint_for(g);
            let real = store.save(&ckpt);
            let expected = model.save(&plan, &ckpt);
            prop_assert_eq!(real.is_ok(), expected.is_ok(),
                "save(gen {}) outcome diverged from the model: {:?}", g, real);
            if let Err(e) = real {
                prop_assert!(e.to_string().contains("injected"),
                    "only injected faults may fail a save in a temp dir: {}", e);
            }
            let (want, fell_back) = model.expect_load();
            match (store.load(), want) {
                (Some(loaded), Some(want)) => {
                    prop_assert_eq!(&loaded.checkpoint, want,
                        "load after gen {} returned the wrong checkpoint", g);
                    prop_assert_eq!(loaded.fell_back, fell_back);
                }
                (None, None) => {}
                (got, want) => prop_assert!(false,
                    "load after gen {}: got {:?}, model wants {:?}",
                    g, got.map(|l| l.checkpoint.generation),
                    want.map(|c| c.generation)),
            }
        }
    }

    /// A plan with every probability at zero is bit-for-bit the
    /// fault-free store: each save commits, each load returns the
    /// newest generation with no fallback.
    #[test]
    fn zero_probability_plans_are_transparent(
        seed in any::<u64>(),
        generations in 1u64..8,
    ) {
        let plan = IoFaultPlan { seed, ..IoFaultPlan::default() };
        let dir = TempDir::new("zero");
        let store = CheckpointStore::open_with_faults(&dir.0, "run", Some(plan))
            .expect("open store");
        for g in 1..=generations {
            store.save(&checkpoint_for(g)).expect("fault-free save");
            let loaded = store.load().expect("fault-free load");
            prop_assert_eq!(loaded.checkpoint, checkpoint_for(g));
            prop_assert!(!loaded.fell_back);
        }
    }
}

/// A small degraded fleet under the aggressive smoke environment, kept
/// tiny so the chaos runs stay fast in debug builds.
fn setup() -> (FleetCode, Environment, FleetConfig) {
    let (env, config) = smoke_setup();
    (
        FleetCode::muse(muse_core::presets::muse_80_69()),
        env,
        FleetConfig {
            dimms: 16,
            threads: 1,
            ..config
        },
    )
}

fn runner(dir: &TempDir) -> RunnerConfig {
    RunnerConfig {
        shards: 4,
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_prefix: "chaos".to_string(),
        resume: true,
        ..RunnerConfig::default()
    }
}

/// ENOSPC on every checkpoint write: the run fails loudly with the
/// injected error (never silently dropping durability), and a rerun
/// against a healthy disk produces tallies bit-identical to an
/// uninterrupted run.
#[test]
fn enospc_fails_loudly_and_a_healthy_rerun_is_bit_identical() {
    let (code, env, config) = setup();
    let dir = TempDir::new("enospc-run");
    let faults = FaultPlan {
        io: Some(IoFaultPlan {
            enospc_prob: 1.0,
            ..IoFaultPlan::default()
        }),
        ..FaultPlan::default()
    };
    let err = run_sharded(&code, &env, &config, &runner(&dir), Some(&faults))
        .expect_err("a full disk must fail the run, not corrupt it");
    assert!(err.to_string().contains("injected"), "{err}");

    let outcome = run_sharded(&code, &env, &config, &runner(&dir), None).unwrap();
    let baseline = simulate_fleet(&code, &env, &config);
    assert_eq!(outcome.report().unwrap().tally, baseline.tally);
}

/// Torn and bit-rotted checkpoints across an interrupt: the resume
/// either falls back to an older valid generation or starts clean, and
/// in every case the merged tallies are bit-identical to an
/// uninterrupted run — corrupted durability costs recompute time, never
/// correctness.
#[test]
fn torn_and_rotted_checkpoints_resume_bit_identically() {
    let (code, env, config) = setup();
    let baseline = simulate_fleet(&code, &env, &config);
    let io = IoFaultPlan {
        seed: 0x7047_B17F,
        short_write_prob: 0.5,
        corrupt_record_prob: 0.5,
        ..IoFaultPlan::default()
    };
    let faults = FaultPlan {
        io: Some(io),
        ..FaultPlan::default()
    };
    let dir = TempDir::new("torn-resume");
    let first = RunnerConfig {
        stop_after_shards: Some(2),
        ..runner(&dir)
    };
    let outcome = run_sharded(&code, &env, &config, &first, Some(&faults)).unwrap();
    assert!(
        matches!(outcome, ShardedOutcome::Interrupted { .. }),
        "stop_after_shards must interrupt"
    );
    let outcome = run_sharded(&code, &env, &config, &runner(&dir), Some(&faults)).unwrap();
    assert_eq!(
        outcome.report().unwrap().tally,
        baseline.tally,
        "resume through torn/rotted checkpoints must stay bit-identical"
    );
}
