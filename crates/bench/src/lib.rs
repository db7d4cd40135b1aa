//! Experiment harness: shared runners and formatting for the binaries that
//! regenerate every table and figure of the paper.
//!
//! Each `src/bin/*.rs` target reproduces one artifact (run with
//! `--release`):
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1` | Table I — code parameters via multiplier search |
//! | `appendix_search` | Appendix F — full multiplier lists |
//! | `fig1b` | Figure 1(b) — error-value histograms |
//! | `table3` | Table III — fast-modulo inverse constants |
//! | `table4` | Table IV — MSED rates vs extra bits |
//! | `table5` | Table V — VLSI cost model |
//! | `fig6` | Figure 6 — ECC latency slowdowns on SPEC-shaped workloads |
//! | `fig7` | Figure 7 + Table VI — memory tagging study |
//! | `pim` | Section VI-B — the MUSE(268,256) PIM code |
//! | `rowhammer` | Section VI-A — hash-protected lines vs Rowhammer |
//! | `fit` | extension — FIT-rate projection over field failure modes |
//! | `ablation` | extension — design-choice ablations |
//! | `ondie` | extension — on-die SEC × rank MUSE co-design |
//! | `repro_all` | Everything above in sequence ([`ARTIFACT_BINARIES`]) |
//!
//! `bench_lifetime` writes the fleet-lifetime rate snapshot described
//! below. Speed is not measured here: `perfbench/` (declared in
//! `BENCHMARK.json`) times every layer, end to end.
//!
//! # The `BENCH_lifetime.json` rate snapshot
//!
//! `cargo run --release -p muse-bench --bin bench_lifetime` runs the
//! fleet-lifetime scenario matrix (`muse-lifetime`) and (over)writes
//! `BENCH_lifetime.json`, schema `lifetime-bench/v5`:
//!
//! ```json
//! {
//!   "schema": "lifetime-bench/v5",
//!   "fleet": {                  // the scenario-matrix configuration
//!     "dimms": 1024, "years": 5, "scrub_interval_hours": 12,
//!     "spares_per_dimm": 0, "dimms_per_machine": 8
//!   },
//!   "scenarios": [              // one row per code x environment x estimator
//!     {
//!       "code": "MUSE(144,132)", "environment": "chipkill-heavy",
//!       "machine_years": 640.0,
//!       "estimator": "is",      // "naive" or "is" (importance sampling)
//!       "bias": 16,             // rate-inflation factor (1 for naive)
//!       "due_per_machine_year": 2.5,
//!       "due_events": 1600,     // observed (unweighted) DUE events
//!       "due_ci95": [2.1, 2.9], // 95% confidence interval on the rate
//!       "due_display": "2.5e0 [2.1e0,2.9e0]",
//!       "sdc_per_machine_year": 1.3e-4,
//!       "sdc_events": 3,
//!       "sdc_ci95": [0.0, 3.2e-4],
//!       "sdc_display": "1.3e-4 [0.0e0,3.2e-4]",
//!       "repairs_per_machine_year": 0.4, "degraded_fraction": 0.08,
//!       "erasure_reads": 1583, "data_loss_events": 0
//!     }
//!   ]
//! }
//! ```
//!
//! The matrix runs twice — once per estimator — so every snapshot holds
//! both the unbiased naive counts and the importance-sampled rates whose
//! likelihood-ratio reweighting resolves rare SDC events with error bars.
//! When a row observed zero events its `*_display` string is the
//! rule-of-three 95% upper bound (`"<4.7e-3 @95%"`), never a bare zero.
//! Every field is deterministic — bit-identical at any worker count and on
//! any host — so CI regenerates the file and fails on any diff against
//! the committed copy.
//!
//! # Observability artifacts: `muse-trace/v1` and the Prometheus textfile
//!
//! `muse-tool lifetime --trace <file> --metrics <file> [--progress]`
//! (any of the three routes cells through the sharded supervisor)
//! produces two machine-readable artifacts alongside the matrix. Both
//! are strictly observational: tallies and weighted sums are
//! bit-identical with telemetry on or off, at any thread count
//! (`crates/lifetime/tests/telemetry.rs` pins this).
//!
//! **Trace (`--trace`)** is JSONL, one flat object per line, schema
//! `muse-trace/v1`. Every line carries `schema`, a monotonically
//! increasing `seq`, and `event`; the remaining fields depend on the
//! event kind:
//!
//! ```json
//! {"schema": "muse-trace/v1", "seq": 0, "event": "run_start",
//!  "label": "MUSE(144,132)@smoke", "total_shards": 8,
//!  "dimms_per_shard": 4, "estimator": "naive", "threads": 1}
//! ```
//!
//! | `event` | fields |
//! |---|---|
//! | `run_start` | `label`, `total_shards`, `dimms_per_shard`, `estimator`, `threads` |
//! | `resume_adopted` | `generation`, `shards_done`, `total_shards`, `fell_back` |
//! | `shard_start` | `shard`, `dimm_lo`, `dimm_hi` |
//! | `shard_end` | `shard`, `wall_ms`, `dimms` |
//! | `shard_retry` | `shard`, `attempt`, `error` |
//! | `checkpoint_written` | `generation`, `shards_done`, `write_ms` |
//! | `weight_cap_saturated` | `channel`, `requested_bias`, `cap` |
//! | `heartbeat` | `shards_done`, `total_shards`, `machine_years`, `due_ci_half`, `sdc_ci_half` |
//! | `run_end` | `shards_done`, `wall_ms`, `retries` |
//!
//! Events flow through a bounded channel to a writer thread and are
//! **dropped, never blocked on**, under backpressure; `seq` still
//! advances on a drop, so a gap in the file locates exactly where
//! pressure hit, and the CLI's final `trace: N events written,
//! D dropped` banner (plus the `muse_trace_dropped_events` gauge)
//! reports the count — CI asserts it is zero on the smoke run.
//!
//! **Metrics (`--metrics`)** is the Prometheus text exposition format
//! (`# HELP`/`# TYPE` comments; counters, gauges, and cumulative
//! log2-bucket histograms with `_bucket{le="..."}`/`_sum`/`_count`
//! series), written atomically (temp + rename) after every shard so a
//! node-exporter textfile collector can scrape mid-run. Instruments:
//! `muse_lifetime_shards_completed_total`,
//! `muse_lifetime_shard_retries_total`,
//! `muse_lifetime_checkpoint_writes_total`,
//! `muse_lifetime_dimms_simulated_total`, `muse_sim_trials_total`,
//! `muse_lifetime_due_events_total`, `muse_lifetime_sdc_events_total`,
//! histograms `muse_lifetime_shard_wall_ms` /
//! `muse_lifetime_checkpoint_write_ms`, and gauges
//! `muse_sim_trials_per_second`, `muse_lifetime_machine_years`,
//! `muse_lifetime_due_weighted_sum`, `muse_lifetime_sdc_weighted_sum`,
//! `muse_trace_dropped_events`.
//!
//! # Ops runbook: running the batch service (`muse-service`)
//!
//! The scenario matrix also runs as a crash-only daemon (`muse-tool
//! serve`) over a spool directory — the deployment shape for unattended
//! sweeps. The short version for operators:
//!
//! **Spool layout** (`--root`, default `muse-spool/`): `queue/` holds
//! `<id>.job` specs (`muse-job/v1` JSON; the 16-hex id *is* the config
//! hash, so identical submissions dedup structurally), `active/` the one
//! claimed job, `done/` `<id>.result` (`muse-result/v1`), `failed/` the
//! spec plus `<id>.err`, `cache/` `<id>.res` finished tallies stored as
//! one-shard `lifetime-ckpt/v2` records (CRC-32 + embedded-hash fenced;
//! anything unreadable is recomputed), and
//! `checkpoints/<id>/` the in-flight two-generation checkpoint store.
//! Every transition is an atomic rename; there is no other state.
//!
//! **Lifecycle**: `submit` (enqueue; prints `submitted <id>` or
//! `duplicate <id>`), `serve [--once]` (claim → run sharded, retrying
//! killed shard attempts → cache + `done/`), `status`, `result <id>`,
//! `smoke-check` (asserts the four pinned smoke tallies from `done/`).
//!
//! **Drain**: SIGTERM/SIGINT sets a flag the runner checks at every
//! shard boundary — the in-flight job checkpoints, returns to `queue/`,
//! and the daemon exits `0` after printing `drained cleanly`. A
//! restarted daemon adopts `active/` orphans (a daemon that died without
//! draining), resumes from the checkpoint (`resume: job <id> adopted
//! checkpoint generation N`), and reproduces bit-identical tallies.
//!
//! **Exit codes**: `0` — all jobs done or a clean drain; nonzero — any
//! job failed (evidence in `failed/`) or the spool itself errored. Cache
//! hits recompute nothing (`shards_run: 0` in the result); a cache
//! record that fails its CRC or hash fence is discarded loudly and the
//! job recomputes.
//!
//! **Chaos**: `serve --inject
//! kill=p,delay=n,enospc=p,short-write=p,fsync-fail=p,rename-fail=p,`
//! `corrupt-record=p,sink-fail=p,sink-block-ms=n` (probabilities `p`
//! in `[0, 1]`, each key at most once) drives the deterministic fault plans (`FaultPlan` + `IoFaultPlan`) —
//! the same seams `crates/service/tests/chaos.rs` uses to prove every
//! fault class either completes bit-identically or fails loudly with
//! resumable state. The CI `service-smoke` job runs the full drill:
//! submit, SIGTERM mid-run, restart-resume, pinned tallies, cache-served
//! resubmit.

pub mod experiments;
pub mod format;

pub use experiments::*;
pub use format::{bar, print_table};

/// The artifact binaries `repro_all` runs, in its order: one per paper
/// table, figure or extension study. Every binary in `src/bin/` is here
/// except `repro_all` itself and `bench_lifetime`, which writes
/// `BENCH_lifetime.json` instead.
pub const ARTIFACT_BINARIES: [&str; 13] = [
    "table1",
    "appendix_search",
    "fig1b",
    "table3",
    "table4",
    "table5",
    "fig6",
    "fig7",
    "pim",
    "rowhammer",
    "fit",
    "ablation",
    "ondie",
];

/// Reads an artifact binary's one optional argument: a positive count
/// (memory operations or trials), or `default` when there is none.
///
/// A malformed or zero count, or a second argument, prints the error and
/// a usage line to stderr and exits with status 1 before any work runs.
pub fn count_arg(default: u64) -> u64 {
    let mut args = std::env::args();
    let exe = args.next().unwrap_or_default();
    parse_count(args, default).unwrap_or_else(|err| {
        let name = std::path::Path::new(&exe)
            .file_stem()
            .map_or(exe.clone(), |s| s.to_string_lossy().into_owned());
        eprintln!("{name}: {err}");
        eprintln!("usage: {name} [COUNT]  (COUNT a positive integer, default {default})");
        std::process::exit(1);
    })
}

fn parse_count(mut args: impl Iterator<Item = String>, default: u64) -> Result<u64, String> {
    let Some(arg) = args.next() else {
        return Ok(default);
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected second argument `{extra}`"));
    }
    match arg.parse::<u64>() {
        Ok(0) => Err("the count must be positive, got 0".into()),
        Ok(count) => Ok(count),
        Err(_) => Err(format!("`{arg}` is not a count")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_binaries_are_every_bin_but_repro_all_and_bench_lifetime() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut stems: Vec<String> = std::fs::read_dir(dir)
            .expect("src/bin")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|stem| stem != "repro_all" && stem != "bench_lifetime")
            .collect();
        stems.sort();
        let mut listed: Vec<String> = ARTIFACT_BINARIES.iter().map(|s| s.to_string()).collect();
        listed.sort();
        assert_eq!(listed, stems);
    }

    #[test]
    fn count_argument_is_one_positive_integer() {
        let parse = |args: &[&str]| parse_count(args.iter().map(|a| a.to_string()), 7);
        assert_eq!(parse(&[]), Ok(7));
        assert_eq!(parse(&["500"]), Ok(500));
        for bad in [&["0"][..], &["abc"], &["-3"], &["1.5"], &[""], &["1", "2"]] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
