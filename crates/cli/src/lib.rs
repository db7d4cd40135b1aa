//! `muse-tool`: a command-line interface to the MUSE ECC library.
//!
//! Subcommands:
//!
//! * `presets` — list the built-in codes.
//! * `inspect <preset>` — parameters, ELC size, detection headroom.
//! * `encode <preset> <hex-data> [--meta <hex>]` — produce a codeword.
//! * `decode <preset> <hex-codeword>` — decode/correct a codeword.
//! * `search --bits N [--symbol S] [--redundancy R] [--interleaved]
//!   [--asym] [--single-bit] [--limit K]` — run Algorithm 1.
//! * `msed <preset> [--trials N] [--devices K] [--threads T]` —
//!   Monte-Carlo detection rate (parallel; bit-identical at any `T`).
//! * `rsmsed [--t 1|2] [--symbol-bits S] [--device-bits D] [--trials N]
//!   [--devices K] [--threads T]` — the Reed-Solomon comparator on the
//!   144-bit channel (`D` must divide 144), classified in the GF-syndrome
//!   domain for both `t` values (no wide decode per trial).
//! * `lifetime [--dimms N] [--years Y] [--scrub-hours H] [--spares S]
//!   [--seed X] [--threads T] [--estimator naive|is] [--bias F]
//!   [--shards K] [--checkpoint-dir D] [--resume] [--inject SPEC]
//!   [--trace FILE] [--metrics FILE] [--progress] [--smoke]` — the
//!   fleet-lifetime scenario matrix: DUE/SDC/repair
//!   rates per machine-year for every code × environment (three
//!   synthetic plus two field-calibrated rate sets), with erasure-mode
//!   degraded operation (see the `muse-lifetime` crate). DUE/SDC
//!   columns quote 95% confidence intervals; zero observed events print
//!   the rule-of-three upper bound (`<x @95%`), never a bare zero.
//!   `--estimator is` switches to importance sampling with
//!   likelihood-ratio reweighting (`--bias` sets the rate-inflation
//!   factor and implies `is`; default 16). With `--checkpoint-dir`
//!   every cell runs through the crash-safe sharded supervisor
//!   (checkpoints survive interruption; `--resume` continues
//!   bit-identically); `--inject` drives the deterministic fault plan
//!   (`kill=<p>,crash-after=<n>,corrupt=<gen>:<truncate|bitflip>,`
//!   `delay=<ms>,fault-seed=<x>`); `--smoke` checks the pinned CI
//!   tallies instead of printing the matrix. Observability (strictly
//!   observational — tallies stay bit-identical): `--trace` streams
//!   `muse-trace/v1` JSONL events, `--metrics` snapshots a Prometheus
//!   textfile after every shard, `--progress` prints heartbeat lines
//!   (shards done, machine-years, ETA, live 95% CI half-widths) to
//!   stderr; any of the three routes cells through the sharded
//!   supervisor. Shard retries and checkpoint-corruption fallbacks are
//!   warned on stderr as they happen.
//! * `submit` / `serve` / `status` / `result` / `smoke-check` — the
//!   `muse-service` spool daemon (see that crate's docs for the spool
//!   layout and drain semantics). `submit` enqueues lifetime-run jobs
//!   (`--smoke` enqueues the four pinned smoke cells); `serve` runs the
//!   daemon — `--once` drains the queue and exits, otherwise it polls
//!   until SIGTERM/SIGINT trips a graceful drain (finish the shard,
//!   checkpoint, re-queue, exit 0; a restart adopts the checkpoints and
//!   resumes bit-identically). Repeated configurations are served from
//!   the CRC-checked result cache without recomputing. `--watchdog-ms`
//!   arms the per-shard watchdog; `--inject` accepts the lifetime fault
//!   keys plus `hang=<p>`, `hang-ms=<n>` and the I/O chaos keys
//!   (`enospc`, `short-write`, `fsync-fail`, `rename-fail`,
//!   `corrupt-record`, `sink-fail`, `sink-block-ms`, `io-seed`).
//!   `smoke-check` verifies finished smoke results against the pinned
//!   tallies.
//!
//! The command layer is a plain function from parsed arguments to a
//! [`String`], so every path is unit-testable without spawning processes.

use muse_core::analysis::remainder_profile;
use muse_core::{presets, CodeBuilder, Decoded, MuseCode, SearchOptions, Shuffle, Word};
use muse_faultsim::{muse_msed, MsedConfig};

/// Error surfaced to the CLI user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
muse-tool — residue codes for modern memories

USAGE:
  muse-tool presets
  muse-tool inspect <preset>
  muse-tool encode <preset> <hex-data> [--meta <hex>]
  muse-tool decode <preset> <hex-codeword>
  muse-tool search --bits <n> [--symbol <s>] [--redundancy <r>]
                   [--interleaved] [--asym] [--single-bit] [--limit <k>]
  muse-tool msed <preset> [--trials <n>] [--devices <k>] [--threads <t>]
  muse-tool rsmsed [--t <1|2>] [--symbol-bits <s>] [--device-bits <d>]
                   [--trials <n>] [--devices <k>] [--threads <t>]
  muse-tool lifetime [--dimms <n>] [--years <y>] [--scrub-hours <h>]
                     [--spares <s>] [--seed <x>] [--threads <t>]
                     [--estimator <naive|is>] [--bias <factor>]
                     [--shards <k>] [--checkpoint-dir <dir>] [--resume]
                     [--inject <spec>] [--trace <file>] [--metrics <file>]
                     [--progress] [--smoke]
  muse-tool submit [--root <dir>] (--smoke | [--code <name>] [--env <name>]
                   [--dimms <n>] [--years <y>] [--scrub-hours <h>]
                   [--spares <s>] [--seed <x>] [--estimator <naive|is>]
                   [--bias <f>]) [--shards <k>] [--threads <t>]
  muse-tool serve [--root <dir>] [--once] [--poll-ms <n>] [--watchdog-ms <n>]
                  [--max-retries <n>] [--backoff-ms <n>]
                  [--checkpoint-every <n>] [--inject <spec>]
                  [--trace <file>] [--metrics <file>]
  muse-tool status [--root <dir>]
  muse-tool result <id> [--root <dir>]
  muse-tool smoke-check [--root <dir>]
  muse-tool verilog <preset> [--syndrome-only|--corrector]
  muse-tool spec <preset>

PRESETS: muse144_132 muse80_69 muse80_67 muse80_70 muse268_256 muse144_128";

/// Resolves a preset name.
pub fn preset(name: &str) -> Result<MuseCode, CliError> {
    match name {
        "muse144_132" => Ok(presets::muse_144_132()),
        "muse80_69" => Ok(presets::muse_80_69()),
        "muse80_67" => Ok(presets::muse_80_67()),
        "muse80_70" => Ok(presets::muse_80_70()),
        "muse268_256" => Ok(presets::muse_268_256()),
        "muse144_128" => Ok(presets::muse_144_128()),
        other => Err(err(format!(
            "unknown preset {other:?}; try `muse-tool presets`"
        ))),
    }
}

/// Runs one parsed command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for any invalid
/// invocation.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help" | "--help" | "-h") => Ok(USAGE.to_string()),
        Some("presets") => Ok([
            "muse144_132  DDR4 x4 ChipKill, m=4065, 4 spare bits over 2x64b",
            "muse80_69    DDR5 x4 ChipKill, m=2005, 5 spare bits",
            "muse80_67    DDR5 x8 retention (C8A), m=5621, 3 spare bits",
            "muse80_70    hybrid C4A_U1B, m=821, 6 spare bits",
            "muse268_256  PIM/HBM2, m=3621, 12 check bits",
            "muse144_128  max-detection variant, m=65519",
        ]
        .join("\n")),
        Some("inspect") => {
            let code = preset(it.next().ok_or_else(|| err("inspect needs a preset"))?)?;
            let profile = remainder_profile(&code);
            Ok(format!(
                "{name}\n  class        {class}\n  multiplier   {m}\n  n/k/r        {n}/{k}/{r} bits\n  devices      {devs} x{s}\n  spare bits   {spare}\n  ELC entries  {elc}\n  headroom     {head:.1}% of remainders unused",
                name = code.name(),
                class = code.class_name(),
                m = code.multiplier(),
                n = code.n_bits(),
                k = code.k_bits(),
                r = code.r_bits(),
                devs = code.symbol_map().num_symbols(),
                s = code.symbol_map().bits_of(0).len(),
                spare = code.spare_bits(),
                elc = code.elc().len(),
                head = 100.0 * profile.headroom,
            ))
        }
        Some("encode") => {
            let code = preset(it.next().ok_or_else(|| err("encode needs a preset"))?)?;
            let data = parse_hex(it.next().ok_or_else(|| err("encode needs hex data"))?)?;
            let rest: Vec<&str> = it.collect();
            let meta = match flag_value(&rest, "--meta")? {
                Some(v) => parse_hex(v)?
                    .to_u64()
                    .ok_or_else(|| err("metadata too wide"))?,
                None => 0,
            };
            let payload = if meta != 0 || code.spare_bits() > 0 && data.bit_len() <= 64 {
                let d = data.to_u64().ok_or_else(|| {
                    err("data wider than 64 bits; omit --meta and pass a full payload")
                })?;
                code.pack_metadata(d, meta)
            } else {
                data
            };
            if payload.bit_len() > code.k_bits() {
                return Err(err(format!("payload exceeds {} bits", code.k_bits())));
            }
            Ok(format!("{:#x}", code.encode(&payload)))
        }
        Some("decode") => {
            let code = preset(it.next().ok_or_else(|| err("decode needs a preset"))?)?;
            let cw = parse_hex(
                it.next()
                    .ok_or_else(|| err("decode needs a hex codeword"))?,
            )?;
            if cw.bit_len() > code.n_bits() {
                return Err(err(format!("codeword exceeds {} bits", code.n_bits())));
            }
            Ok(match code.decode(&cw) {
                Decoded::Clean { payload } => format!("clean: payload {payload:#x}"),
                Decoded::Corrected {
                    payload,
                    symbol,
                    error,
                } => {
                    format!("corrected device {symbol} (error {error}): payload {payload:#x}")
                }
                Decoded::Detected => "UNCORRECTABLE: multi-device error detected".to_string(),
            })
        }
        Some("search") => {
            let rest: Vec<&str> = it.collect();
            let bits: u32 = require_parsed(&rest, "--bits")?;
            let symbol: u32 = parse_or(&rest, "--symbol", 4)?;
            let redundancy: u32 = parse_or(&rest, "--redundancy", 12)?;
            let limit: usize = parse_or(&rest, "--limit", 0)?;
            let mut builder = CodeBuilder::new(bits)
                .symbol_bits(symbol)
                .redundancy_bits(redundancy)
                .search_options(SearchOptions { threads: 0, limit });
            if has_flag(&rest, "--interleaved") {
                builder = builder.shuffle(Shuffle::Interleaved);
            }
            if has_flag(&rest, "--asym") {
                builder = builder.direction(muse_core::Direction::OneToZero);
            }
            if has_flag(&rest, "--single-bit") {
                builder = builder.with_single_bit_errors(muse_core::Direction::Bidirectional);
            }
            let map = builder.layout().map_err(|e| err(e.to_string()))?;
            let model = builder.model();
            let found = muse_core::find_multipliers(
                &map,
                &model,
                redundancy,
                SearchOptions { threads: 0, limit },
            );
            if found.is_empty() {
                Ok(format!(
                    "no valid {redundancy}-bit multiplier for {bits}b/{symbol}-bit {}",
                    model.name(symbol)
                ))
            } else {
                Ok(format!(
                    "{} multiplier(s) for {bits}b/{symbol}-bit {}: {found:?}",
                    found.len(),
                    model.name(symbol)
                ))
            }
        }
        Some("verilog") => {
            let code = preset(it.next().ok_or_else(|| err("verilog needs a preset"))?)?;
            let rest: Vec<&str> = it.collect();
            let name = code
                .name()
                .replace(['(', ')'], "_")
                .replace(',', "_")
                .to_lowercase();
            if has_flag(&rest, "--syndrome-only") {
                Ok(muse_hw::emit_remainder_module(&code, &format!("{name}rem")))
            } else if has_flag(&rest, "--corrector") {
                Ok(muse_hw::emit_corrector_module(
                    &code,
                    &format!("{name}corr"),
                ))
            } else {
                Ok(muse_hw::emit_encoder_module(&code, &format!("{name}enc")))
            }
        }
        Some("spec") => {
            let code = preset(it.next().ok_or_else(|| err("spec needs a preset"))?)?;
            Ok(code.to_spec_string())
        }
        Some("msed") => {
            let code = preset(it.next().ok_or_else(|| err("msed needs a preset"))?)?;
            let rest: Vec<&str> = it.collect();
            let trials: u64 = parse_or(&rest, "--trials", 10_000)?;
            let devices = parse_devices(&rest, code.symbol_map().num_symbols())?;
            let threads: usize = parse_or(&rest, "--threads", 0)?;
            let stats = muse_msed(
                &code,
                MsedConfig {
                    trials,
                    failing_devices: devices,
                    threads,
                    ..MsedConfig::default()
                },
            );
            Ok(format!(
                "{}: {:.2}% of {} {}-device errors detected ({} miscorrected, {} silent)",
                code.name(),
                stats.detection_rate(),
                trials,
                devices,
                stats.miscorrected,
                stats.silent
            ))
        }
        Some("rsmsed") => {
            let rest: Vec<&str> = it.collect();
            let t: usize = parse_or(&rest, "--t", 1)?;
            let symbol_bits: u32 = parse_or(&rest, "--symbol-bits", 8)?;
            let device_bits: u32 = parse_or(&rest, "--device-bits", 4)?;
            if !(1..=16).contains(&device_bits) {
                return Err(err("--device-bits must be in 1..=16"));
            }
            // Devices must tile the channel: a remainder would be bits
            // no device strike ever reaches.
            const CHANNEL_BITS: u32 = 144;
            if !CHANNEL_BITS.is_multiple_of(device_bits) {
                return Err(err(format!(
                    "--device-bits {device_bits} does not tile the {CHANNEL_BITS}-bit channel"
                )));
            }
            let trials: u64 = parse_or(&rest, "--trials", 10_000)?;
            let threads: usize = parse_or(&rest, "--threads", 0)?;
            let code = muse_rs::RsMemoryCode::new(symbol_bits, CHANNEL_BITS, t)
                .map_err(|e| err(format!("bad RS geometry: {e}")))?;
            let devices = parse_devices(&rest, (code.n_bits() / device_bits) as usize)?;
            let stats = muse_faultsim::rs_msed(
                &code,
                device_bits,
                muse_faultsim::RsDetectMode::DeviceConfined,
                MsedConfig {
                    trials,
                    failing_devices: devices,
                    threads,
                    ..MsedConfig::default()
                },
            );
            Ok(format!(
                "{} t={}: {:.2}% of {} {}-device errors detected \
                 ({} corrected, {} miscorrected, {} silent)",
                code.name(),
                t,
                stats.detection_rate(),
                trials,
                devices,
                stats.corrected,
                stats.miscorrected,
                stats.silent
            ))
        }
        Some("lifetime") => {
            let rest: Vec<&str> = it.collect();
            let smoke = has_flag(&rest, "--smoke");
            let (smoke_env, smoke_config) = muse_lifetime::smoke_setup();
            let mut config = if smoke {
                smoke_config
            } else {
                muse_lifetime::FleetConfig {
                    dimms: parse_or(&rest, "--dimms", 1024)?,
                    years: parse_or(&rest, "--years", 5.0)?,
                    scrub_interval_hours: parse_or(&rest, "--scrub-hours", 12.0)?,
                    spares_per_dimm: parse_or(&rest, "--spares", 0)?,
                    ..muse_lifetime::FleetConfig::default()
                }
            };
            // Seed/threads stay overridable even under --smoke: threads
            // never changes tallies, and a seed change is exactly what the
            // config-hash fencing tests need to provoke.
            config.seed = parse_or(&rest, "--seed", config.seed)?;
            config.threads = parse_or(&rest, "--threads", config.threads)?;
            config.estimator = parse_estimator(&rest)?;
            let shards: u32 = parse_or(&rest, "--shards", 0)?;
            let checkpoint_dir =
                flag_value(&rest, "--checkpoint-dir")?.map(std::path::PathBuf::from);
            let resume = has_flag(&rest, "--resume");
            let (faults, crash_after) = match flag_value(&rest, "--inject")? {
                Some(spec) => {
                    let (plan, crash) = parse_inject(spec)?;
                    (Some(plan), crash)
                }
                None => (None, None),
            };
            let envs = if smoke {
                vec![smoke_env]
            } else {
                muse_lifetime::all_environments()
            };
            let trace = flag_value(&rest, "--trace")?.map(std::path::PathBuf::from);
            let metrics = flag_value(&rest, "--metrics")?.map(std::path::PathBuf::from);
            let progress = has_flag(&rest, "--progress");
            // Any observability flag routes cells through the sharded
            // supervisor — that is where the events live.
            let sharded = checkpoint_dir.is_some()
                || shards != 0
                || faults.is_some()
                || trace.is_some()
                || metrics.is_some()
                || progress;
            let (reports, banners) = run_lifetime_cells(
                &muse_lifetime::scenario_codes(),
                &envs,
                &config,
                LifetimeRun {
                    sharded,
                    shards,
                    checkpoint_dir,
                    resume,
                    faults,
                    crash_after,
                    trace,
                    metrics,
                    progress,
                },
            )?;
            let mut out = String::new();
            for banner in &banners {
                out.push_str(banner);
                out.push('\n');
            }
            if smoke {
                muse_lifetime::verify_smoke(&reports)
                    .map_err(|drift| err(format!("smoke pin mismatch: {drift}")))?;
                out.push_str(&format!(
                    "smoke tallies match the pins for all {} codes",
                    reports.len()
                ));
                return Ok(out);
            }
            let est_label = match config.estimator {
                muse_lifetime::Estimator::Naive => "naive".to_string(),
                muse_lifetime::Estimator::Importance { bias } => {
                    format!("is bias={bias}")
                }
            };
            out.push_str(&format!(
                "fleet: {} DIMMs x {} years ({:.0} machine-years), scrub every {}h, {} spares/DIMM, estimator {}, epoch screen {}\n\n{:<16} {:<21} {:>22} {:>22} {:>11} {:>9} {:>9}\n",
                config.dimms,
                config.years,
                config.machine_years(),
                config.scrub_interval_hours,
                config.spares_per_dimm,
                est_label,
                muse_faultsim::screen_kernel(),
                "code",
                "environment",
                "DUE/m-yr [95% CI]",
                "SDC/m-yr [95% CI]",
                "repairs/yr",
                "degraded",
                "era-reads",
            ));
            for r in &reports {
                out.push_str(&format!(
                    "{:<16} {:<21} {:>22} {:>22} {:>11.4} {:>8.2}% {:>9}\n",
                    r.code,
                    r.environment,
                    r.due_estimate.render(),
                    r.sdc_estimate.render(),
                    r.repairs_per_machine_year,
                    100.0 * r.degraded_fraction,
                    r.tally.erasure_reads,
                ));
            }
            out.push_str(
                "\nDUE/SDC are per machine-year (word DUEs + data-loss events) with 95% \
                 confidence intervals; `<x @95%` marks the rule-of-three upper bound when zero \
                 events were observed; degraded = fraction of DIMM-epochs in erasure-mode \
                 operation.\nDeterministic: tallies are bit-identical at any --threads value.",
            );
            Ok(out)
        }
        Some("submit") => {
            let rest: Vec<&str> = it.collect();
            let spool = open_spool(&rest)?;
            let shards: u32 = parse_or(&rest, "--shards", 0)?;
            let threads: usize = parse_or(&rest, "--threads", 0)?;
            let default = muse_service::JobSpec::default();
            let specs: Vec<muse_service::JobSpec> = if has_flag(&rest, "--smoke") {
                smoke_specs(shards, threads)
            } else {
                vec![muse_service::JobSpec {
                    code: flag_value(&rest, "--code")?.unwrap_or("muse144_132").into(),
                    env: flag_value(&rest, "--env")?
                        .unwrap_or("transient-dominant")
                        .into(),
                    smoke: false,
                    dimms: parse_or(&rest, "--dimms", default.dimms)?,
                    years: parse_or(&rest, "--years", default.years)?,
                    scrub_hours: parse_or(&rest, "--scrub-hours", default.scrub_hours)?,
                    spares: parse_or(&rest, "--spares", default.spares)?,
                    seed: parse_or(&rest, "--seed", default.seed)?,
                    estimator: flag_value(&rest, "--estimator")?.unwrap_or("naive").into(),
                    bias: parse_or(&rest, "--bias", default.bias)?,
                    shards,
                    threads,
                }]
            };
            let mut out = String::new();
            for spec in &specs {
                match spool.submit(spec).map_err(err)? {
                    (id, true) => {
                        out.push_str(&format!("submitted {id} ({} @ {})\n", spec.code, spec.env));
                    }
                    (id, false) => out.push_str(&format!(
                        "duplicate {id} ({} @ {}) — already queued\n",
                        spec.code, spec.env
                    )),
                }
            }
            Ok(out.trim_end().to_string())
        }
        Some("serve") => {
            let rest: Vec<&str> = it.collect();
            let drain = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            #[cfg(unix)]
            install_drain_handler(&drain);
            let faults = match flag_value(&rest, "--inject")? {
                Some(spec) => Some(parse_inject(spec)?.0),
                None => None,
            };
            let config = muse_service::ServiceConfig {
                root: std::path::PathBuf::from(
                    flag_value(&rest, "--root")?.unwrap_or("muse-spool"),
                ),
                once: has_flag(&rest, "--once"),
                poll_ms: parse_or(&rest, "--poll-ms", 200)?,
                drain,
                watchdog_ms: match flag_value(&rest, "--watchdog-ms")? {
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| err(format!("--watchdog-ms: cannot parse {v:?}")))?,
                    ),
                    None => None,
                },
                max_retries: parse_or(&rest, "--max-retries", 4)?,
                backoff_base_ms: parse_or(&rest, "--backoff-ms", 20)?,
                checkpoint_every: parse_or(&rest, "--checkpoint-every", 1)?,
                faults,
            };
            let trace = flag_value(&rest, "--trace")?.map(std::path::PathBuf::from);
            let tracer = match &trace {
                Some(path) => Some(
                    muse_telemetry::Tracer::to_file(path, muse_telemetry::DEFAULT_CAPACITY)
                        .map_err(|e| err(format!("--trace {}: {e}", path.display())))?,
                ),
                None => None,
            };
            let metrics_path = flag_value(&rest, "--metrics")?.map(std::path::PathBuf::from);
            let registry = metrics_path.is_some().then(muse_telemetry::Metrics::new);
            let telemetry = muse_service::ServiceTelemetry {
                metrics: registry.as_ref(),
                metrics_path,
                tracer: tracer.as_ref(),
                warn: Some(Box::new(|line: &str| eprintln!("{line}"))),
            };
            let report =
                muse_service::serve(&config, &telemetry).map_err(|e| err(format!("serve: {e}")))?;
            drop(telemetry);
            if let Some(tracer) = tracer {
                let summary = tracer.finish();
                eprintln!(
                    "trace: {} events written, {} dropped, {} sink errors",
                    summary.written, summary.dropped, summary.io_errors
                );
            }
            let summary = format!(
                "serve: {} job(s) completed ({} from cache), {} failed, {} orphan(s) adopted{}",
                report.jobs_completed,
                report.cache_hits,
                report.jobs_failed,
                report.adopted,
                if report.drained {
                    "; drained cleanly — queue and checkpoints persisted, restart resumes"
                } else {
                    ""
                },
            );
            if report.jobs_failed > 0 {
                // Loud failure: chaos runs and CI must see a nonzero exit,
                // with the per-job evidence preserved in failed/.
                return Err(err(format!("{summary}\nsee failed/ for specs and errors")));
            }
            Ok(summary)
        }
        Some("status") => {
            let rest: Vec<&str> = it.collect();
            let spool = open_spool(&rest)?;
            let s = spool.status().map_err(|e| err(format!("status: {e}")))?;
            Ok(format!(
                "queued: {}\nactive: {}\ndone: {}\nfailed: {}",
                s.queued, s.active, s.done, s.failed
            ))
        }
        Some("result") => {
            let id = it.next().ok_or_else(|| err("result needs a job id"))?;
            let rest: Vec<&str> = it.collect();
            let spool = open_spool(&rest)?;
            spool
                .result_json(id)
                .map(|json| json.trim_end().to_string())
                .map_err(|e| err(format!("result {id}: {e} (is the job done?)")))
        }
        Some("smoke-check") => {
            let rest: Vec<&str> = it.collect();
            let spool = open_spool(&rest)?;
            let pins = muse_lifetime::smoke_expected();
            let mut checked = 0;
            for spec in smoke_specs(0, 0) {
                let id = spec.job_id().map_err(err)?;
                let json = spool
                    .result_json(&id)
                    .map_err(|e| err(format!("smoke-check: job {id} ({}): {e}", spec.code)))?;
                let result = muse_service::JobResult::from_json(&json).map_err(err)?;
                let pin = pins
                    .iter()
                    .find(|p| p.code == result.code)
                    .ok_or_else(|| err(format!("smoke-check: no pin for code {}", result.code)))?;
                pin.check(&result.tally)
                    .map_err(|drift| err(format!("smoke-check: tallies drifted: {drift}")))?;
                checked += 1;
            }
            Ok(format!(
                "service smoke results match the pins for all {checked} codes"
            ))
        }
        Some(other) => Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// The four pinned smoke cells, in scenario order: what `submit --smoke`
/// enqueues and `smoke-check` verifies.
fn smoke_specs(shards: u32, threads: usize) -> Vec<muse_service::JobSpec> {
    ["muse144_132", "muse80_69", "rs144_128_t1", "rs144_112_t2"]
        .into_iter()
        .map(|code| muse_service::JobSpec {
            code: code.to_string(),
            env: "smoke".to_string(),
            smoke: true,
            shards,
            threads,
            ..muse_service::JobSpec::default()
        })
        .collect()
}

/// Opens the spool at `--root` (default `muse-spool`).
fn open_spool(rest: &[&str]) -> Result<muse_service::Spool, CliError> {
    let root = std::path::PathBuf::from(flag_value(rest, "--root")?.unwrap_or("muse-spool"));
    muse_service::Spool::open(&root).map_err(|e| err(format!("spool {}: {e}", root.display())))
}

/// Wires SIGTERM/SIGINT to the daemon's drain flag. The handler only
/// flips a static (async-signal-safe); a detached watcher thread
/// forwards it into the `Arc` the service polls at shard boundaries.
#[cfg(unix)]
fn install_drain_handler(drain: &std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static SIGNALED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    let drain = std::sync::Arc::clone(drain);
    let _ = std::thread::Builder::new()
        .name("muse-drain".to_string())
        .spawn(move || loop {
            if SIGNALED.load(Ordering::Relaxed) {
                drain.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
}

/// How the `lifetime` subcommand should execute its matrix cells.
struct LifetimeRun {
    /// Route cells through the sharded supervisor (any of the sharding
    /// flags present) instead of the plain simulator.
    sharded: bool,
    shards: u32,
    checkpoint_dir: Option<std::path::PathBuf>,
    resume: bool,
    faults: Option<muse_lifetime::FaultPlan>,
    crash_after: Option<u64>,
    /// Stream `muse-trace/v1` JSONL events to this file.
    trace: Option<std::path::PathBuf>,
    /// Snapshot a Prometheus textfile here after every shard.
    metrics: Option<std::path::PathBuf>,
    /// Print heartbeat progress lines to stderr.
    progress: bool,
}

/// One checkpoint prefix per matrix cell, so every cell's generations
/// live in their own slot files inside the shared directory.
fn cell_prefix(code: &muse_lifetime::FleetCode, env: &muse_lifetime::Environment) -> String {
    format!("{}-{}", code.name(), env.name)
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Runs every `codes × envs` cell, through the crash-safe sharded
/// supervisor when requested, returning the reports plus any resume
/// banners. An injected crash (`crash-after=<n>`) surfaces as an error so
/// the process exits nonzero with the checkpoint safely on disk.
/// Telemetry sinks (trace writer, metrics registry) are shared across
/// all cells: one JSONL stream and one Prometheus textfile cover the
/// whole matrix.
fn run_lifetime_cells(
    codes: &[muse_lifetime::FleetCode],
    envs: &[muse_lifetime::Environment],
    config: &muse_lifetime::FleetConfig,
    run: LifetimeRun,
) -> Result<(Vec<muse_lifetime::LifetimeReport>, Vec<String>), CliError> {
    let mut reports = Vec::with_capacity(codes.len() * envs.len());
    let mut banners = Vec::new();
    let tracer = match &run.trace {
        Some(path) => Some(
            muse_telemetry::Tracer::to_file(path, muse_telemetry::DEFAULT_CAPACITY)
                .map_err(|e| err(format!("--trace {}: {e}", path.display())))?,
        ),
        None => None,
    };
    let registry = (run.metrics.is_some() || run.progress).then(muse_telemetry::Metrics::new);
    for code in codes {
        for env in envs {
            if !run.sharded {
                reports.push(muse_lifetime::simulate_fleet(code, env, config));
                continue;
            }
            let runner = muse_lifetime::RunnerConfig {
                shards: run.shards,
                checkpoint_dir: run.checkpoint_dir.clone(),
                checkpoint_prefix: cell_prefix(code, env),
                resume: run.resume,
                stop_after_shards: run.crash_after,
                ..muse_lifetime::RunnerConfig::default()
            };
            let telemetry = muse_lifetime::FleetTelemetry {
                tracer: tracer.as_ref(),
                metrics: registry.as_ref(),
                metrics_path: run.metrics.clone(),
                label: muse_lifetime::cell_label(&code.name(), env.name),
                warn: Some(Box::new(|line: &str| eprintln!("{line}"))),
                heartbeat: run.progress.then(|| {
                    let f: Box<muse_lifetime::telemetry::HeartbeatFn<'_>> =
                        Box::new(|snap: &muse_telemetry::ProgressSnapshot| {
                            eprintln!("{}", snap.render());
                        });
                    f
                }),
            };
            let outcome = muse_lifetime::run_sharded_with(
                code,
                env,
                config,
                &runner,
                run.faults.as_ref(),
                &telemetry,
            )
            .map_err(|e| err(e.to_string()))?;
            let stats = outcome.stats();
            if let Some(info) = &stats.resume {
                banners.push(format!(
                    "resume: {} x {} — generation {}, {}/{} shards done, {:.1} machine-years \
                     covered{}",
                    code.name(),
                    env.name,
                    info.generation,
                    info.shards_done,
                    info.total_shards,
                    info.machine_years_done,
                    if info.fell_back {
                        " (newest checkpoint corrupt; fell back to previous generation)"
                    } else {
                        ""
                    },
                ));
            }
            match outcome {
                muse_lifetime::ShardedOutcome::Complete { report, .. } => reports.push(report),
                muse_lifetime::ShardedOutcome::Interrupted { stats } => {
                    return Err(err(format!(
                        "injected crash in cell {} x {} after {} shards ({} checkpoint writes); \
                         rerun with --resume to continue bit-identically",
                        code.name(),
                        env.name,
                        stats.shards_run,
                        stats.checkpoint_writes,
                    )));
                }
            }
        }
    }
    if let Some(tracer) = tracer {
        let path = run.trace.as_ref().expect("tracer implies --trace path");
        let summary = tracer.finish();
        banners.push(format!(
            "trace: {} events written, {} dropped ({})",
            summary.written,
            summary.dropped,
            path.display(),
        ));
    }
    if let (Some(registry), Some(path)) = (&registry, &run.metrics) {
        registry
            .write_textfile(path)
            .map_err(|e| err(format!("--metrics {}: {e}", path.display())))?;
        banners.push(format!(
            "metrics: Prometheus textfile at {}",
            path.display()
        ));
    }
    Ok((reports, banners))
}

/// Parses an `--inject` spec: comma-separated `key=value` pairs from
/// `kill=<prob>`, `crash-after=<shards>`,
/// `corrupt=<generation>:<truncate|bitflip>`, `delay=<ms>`,
/// `fault-seed=<seed>`, the watchdog keys `hang=<prob>` / `hang-ms=<ms>`,
/// and the I/O chaos keys `enospc`/`short-write`/`fsync-fail`/
/// `rename-fail`/`corrupt-record`/`sink-fail` (probabilities),
/// `sink-block-ms=<ms>`, and `io-seed=<seed>`.
fn parse_inject(spec: &str) -> Result<(muse_lifetime::FaultPlan, Option<u64>), CliError> {
    let mut plan = muse_lifetime::FaultPlan::default();
    let mut crash_after = None;
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err(format!("--inject: {part:?} is not key=value")))?;
        let bad = |what: &str| err(format!("--inject {key}: cannot parse {what}"));
        match key {
            "kill" => plan.kill_prob = value.parse().map_err(|_| bad(value))?,
            "crash-after" => crash_after = Some(value.parse().map_err(|_| bad(value))?),
            "delay" => plan.delay_ms_max = value.parse().map_err(|_| bad(value))?,
            "fault-seed" => plan.seed = value.parse().map_err(|_| bad(value))?,
            "hang" => plan.hang_prob = value.parse().map_err(|_| bad(value))?,
            "hang-ms" => plan.hang_ms = value.parse().map_err(|_| bad(value))?,
            "corrupt" => {
                let (generation, kind) = value
                    .split_once(':')
                    .ok_or_else(|| err("--inject corrupt needs <generation>:<truncate|bitflip>"))?;
                let kind = match kind {
                    "truncate" => muse_lifetime::Corruption::Truncate,
                    "bitflip" => muse_lifetime::Corruption::BitFlip,
                    other => return Err(err(format!("--inject corrupt: unknown kind {other:?}"))),
                };
                plan.corrupt_generation =
                    Some((generation.parse().map_err(|_| bad(generation))?, kind));
            }
            "enospc" | "short-write" | "fsync-fail" | "rename-fail" | "corrupt-record"
            | "sink-fail" => {
                let p: f64 = value.parse().map_err(|_| bad(value))?;
                let io = plan
                    .io
                    .get_or_insert_with(muse_lifetime::IoFaultPlan::default);
                match key {
                    "enospc" => io.enospc_prob = p,
                    "short-write" => io.short_write_prob = p,
                    "fsync-fail" => io.fsync_fail_prob = p,
                    "rename-fail" => io.rename_fail_prob = p,
                    "corrupt-record" => io.corrupt_record_prob = p,
                    _ => io.sink_fail_prob = p,
                }
            }
            "sink-block-ms" => {
                plan.io
                    .get_or_insert_with(muse_lifetime::IoFaultPlan::default)
                    .sink_block_ms = value.parse().map_err(|_| bad(value))?;
            }
            "io-seed" => {
                plan.io
                    .get_or_insert_with(muse_lifetime::IoFaultPlan::default)
                    .seed = value.parse().map_err(|_| bad(value))?;
            }
            other => {
                return Err(err(format!(
                    "--inject: unknown key {other:?} (kill, crash-after, corrupt, delay, \
                     fault-seed, hang, hang-ms, enospc, short-write, fsync-fail, rename-fail, \
                     corrupt-record, sink-fail, sink-block-ms, io-seed)"
                )))
            }
        }
    }
    Ok((plan, crash_after))
}

fn parse_hex(s: &str) -> Result<Word, CliError> {
    let trimmed = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    Word::from_str_radix(trimmed, 16).map_err(|e| err(format!("bad hex {s:?}: {e}")))
}

fn flag_value<'a>(rest: &[&'a str], flag: &str) -> Result<Option<&'a str>, CliError> {
    match rest.iter().position(|&a| a == flag) {
        None => Ok(None),
        Some(i) => rest
            .get(i + 1)
            .copied()
            .map(Some)
            .ok_or_else(|| err(format!("{flag} needs a value"))),
    }
}

fn has_flag(rest: &[&str], flag: &str) -> bool {
    rest.contains(&flag)
}

fn require_parsed<T: std::str::FromStr>(rest: &[&str], flag: &str) -> Result<T, CliError> {
    let v = flag_value(rest, flag)?.ok_or_else(|| err(format!("{flag} is required")))?;
    v.parse()
        .map_err(|_| err(format!("{flag}: cannot parse {v:?}")))
}

fn parse_or<T: std::str::FromStr>(rest: &[&str], flag: &str, default: T) -> Result<T, CliError> {
    match flag_value(rest, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("{flag}: cannot parse {v:?}"))),
    }
}

/// `--devices <k>` (default 2): how many of the code's `count` devices
/// fail at once in an MSED experiment.
fn parse_devices(rest: &[&str], count: usize) -> Result<usize, CliError> {
    let devices = parse_or(rest, "--devices", 2)?;
    if !(1..=count).contains(&devices) {
        return Err(err(format!(
            "--devices must be in 1..={count} (the code has {count} devices)"
        )));
    }
    Ok(devices)
}

/// `--estimator naive|is` plus `--bias <factor>`; `--bias` implies `is`,
/// and `is` without `--bias` defaults to a 16x rate inflation.
fn parse_estimator(rest: &[&str]) -> Result<muse_lifetime::Estimator, CliError> {
    let bias: Option<f64> = match flag_value(rest, "--bias")? {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| err(format!("--bias: cannot parse {v:?}")))?,
        ),
    };
    match (flag_value(rest, "--estimator")?, bias) {
        (None, None) | (Some("naive"), None) => Ok(muse_lifetime::Estimator::Naive),
        (Some("naive"), Some(_)) => Err(err(
            "--bias only applies to importance sampling (--estimator is)",
        )),
        (Some("is"), bias) | (None, bias @ Some(_)) => {
            let factor = bias.unwrap_or(16.0);
            if !factor.is_finite() || factor < 1.0 {
                return Err(err(format!(
                    "--bias: factor must be finite and >= 1, got {factor}"
                )));
            }
            Ok(muse_lifetime::Estimator::importance(factor))
        }
        (Some(other), _) => Err(err(format!(
            "--estimator: unknown estimator {other:?} (expected naive or is)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(line: &str) -> Result<String, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&args)
    }

    #[test]
    fn help_and_presets() {
        assert!(run_str("help").unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run_str("presets").unwrap().contains("muse80_69"));
    }

    #[test]
    fn inspect_shows_parameters() {
        let out = run_str("inspect muse80_69").unwrap();
        assert!(out.contains("MUSE(80,69)"));
        assert!(out.contains("2005"));
        assert!(out.contains("C4B"));
        assert!(run_str("inspect nope").is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cw = run_str("encode muse80_69 0xDEADBEEF --meta 0x1F").unwrap();
        let out = run_str(&format!("decode muse80_69 {cw}")).unwrap();
        assert!(out.starts_with("clean:"), "{out}");

        // Corrupt one device and decode again.
        let word = parse_hex(&cw).unwrap();
        let code = preset("muse80_69").unwrap();
        let corrupted = word ^ *code.symbol_map().mask(7);
        let out = run_str(&format!("decode muse80_69 {corrupted:#x}")).unwrap();
        assert!(out.starts_with("corrected device 7"), "{out}");
    }

    #[test]
    fn decode_flags_uncorrectable() {
        let cw = run_str("encode muse80_69 0x1").unwrap();
        let word = parse_hex(&cw).unwrap();
        let code = preset("muse80_69").unwrap();
        let corrupted = word ^ *code.symbol_map().mask(1) ^ *code.symbol_map().mask(9);
        let out = run_str(&format!("decode muse80_69 {corrupted:#x}")).unwrap();
        assert!(out.contains("UNCORRECTABLE"), "{out}");
    }

    #[test]
    fn search_finds_table1_values() {
        let out = run_str("search --bits 80 --symbol 4 --redundancy 11").unwrap();
        assert!(out.contains("2005"), "{out}");
        let out = run_str("search --bits 80 --symbol 8 --redundancy 13 --asym").unwrap();
        assert!(out.contains("no valid"), "{out}");
        let out =
            run_str("search --bits 80 --symbol 8 --redundancy 13 --asym --interleaved").unwrap();
        assert!(out.contains("5621"), "{out}");
    }

    #[test]
    fn msed_reports_rate() {
        let out = run_str("msed muse80_69 --trials 500").unwrap();
        assert!(out.contains("% of 500 2-device errors detected"), "{out}");
    }

    #[test]
    fn msed_devices_outside_the_code_are_rejected() {
        // MUSE(144,132) has 36 x4 devices: 0 would inject nothing, and 37
        // cannot fail at once.
        for devices in [0, 37, 40] {
            let e = run_str(&format!("msed muse144_132 --trials 10 --devices {devices}"));
            assert!(e.unwrap_err().0.contains("1..=36"), "--devices {devices}");
        }
        let out = run_str("msed muse144_132 --trials 10 --devices 36").unwrap();
        assert!(out.contains("36-device errors"), "{out}");
    }

    #[test]
    fn rsmsed_devices_outside_the_code_are_rejected() {
        // 144 bits over x4 devices = 36 devices; over x8, 18.
        for (devices, bits) in [(0, 4), (37, 4), (19, 8)] {
            let e = run_str(&format!(
                "rsmsed --trials 10 --devices {devices} --device-bits {bits}"
            ));
            assert!(e.is_err(), "--devices {devices} --device-bits {bits}");
        }
        let out = run_str("rsmsed --trials 10 --devices 18 --device-bits 8").unwrap();
        assert!(out.contains("18-device errors"), "{out}");
    }

    #[test]
    fn rsmsed_device_widths_must_tile_the_channel() {
        // 144 = 28 x5 + 4 and 20 x7 + 4: the top 4 bits would never be
        // struck.
        for bits in [5, 7] {
            let e = run_str(&format!("rsmsed --trials 10 --device-bits {bits}")).unwrap_err();
            assert!(e.0.contains("does not tile the 144-bit channel"), "{}", e.0);
        }
        let out = run_str("rsmsed --trials 10 --device-bits 6").unwrap();
        assert!(out.contains("of 10 2-device errors"), "{out}");
    }

    #[test]
    fn rsmsed_covers_both_t_values() {
        let out = run_str("rsmsed --trials 400").unwrap();
        assert!(out.contains("RS(144,128) t=1"), "{out}");
        let out = run_str("rsmsed --t 2 --trials 400").unwrap();
        assert!(out.contains("RS(144,112) t=2"), "{out}");
        // x8 devices nest whole symbols: every 2-device error is in-model
        // for t = 2 and corrects.
        let out = run_str("rsmsed --t 2 --device-bits 8 --trials 300").unwrap();
        assert!(out.contains("(300 corrected"), "{out}");
        // An x8 device straddling three 5-bit symbols folds correctly too.
        let out = run_str("rsmsed --t 2 --symbol-bits 5 --device-bits 8 --trials 300").unwrap();
        assert!(out.contains("RS(144,124) t=2"), "{out}");
        assert!(run_str("rsmsed --t 3").is_err());
        assert!(run_str("rsmsed --device-bits 0").is_err());
    }

    #[test]
    fn lifetime_reports_matrix() {
        // A tiny fleet keeps the test fast; the matrix still covers all
        // 4 codes x 5 environments (3 synthetic + 2 field-calibrated).
        let out = run_str("lifetime --dimms 24 --years 1 --scrub-hours 48").unwrap();
        assert!(out.contains("MUSE(144,132)"), "{out}");
        assert!(out.contains("RS(144,112) t=2"), "{out}");
        assert!(out.contains("transient-dominant"), "{out}");
        assert!(out.contains("retention-asymmetric"), "{out}");
        assert_eq!(out.matches("chipkill-heavy").count(), 4);
        assert_eq!(out.matches("field-ddr3").count(), 4);
        assert_eq!(out.matches("field-ddr4").count(), 4);
        assert!(out.contains("estimator naive"), "{out}");
        let screen = format!("epoch screen {}", muse_faultsim::screen_kernel());
        assert!(out.contains(&screen), "{out}");
        // Deterministic across thread counts.
        let serial = run_str("lifetime --dimms 24 --years 1 --scrub-hours 48 --threads 1").unwrap();
        assert_eq!(
            out.replace("--threads", ""),
            serial.replace("--threads", ""),
            "thread count must not change the rates"
        );
        assert!(run_str("lifetime --dimms zzz").is_err());
    }

    #[test]
    fn lifetime_zero_events_render_as_upper_bounds() {
        // Regression pin for the silent-zero bug: a fleet too small to
        // observe any SDC must print the rule-of-three bound, not 0.000000.
        let out = run_str("lifetime --dimms 8 --years 1 --scrub-hours 48").unwrap();
        assert!(out.contains("@95%"), "rule-of-three bound missing: {out}");
        assert!(
            !out.contains("0.00000 "),
            "bare zero rate leaked through: {out}"
        );
        // The exact formatted shape: `<` glued to a scientific-notation
        // bound — 3 / machine-years, here exactly 1 machine-year.
        assert!(out.contains("<3.00e0 @95%"), "{out}");
    }

    #[test]
    fn lifetime_importance_sampling_quotes_cis() {
        let base = "lifetime --dimms 24 --years 1 --scrub-hours 48";
        let out = run_str(&format!("{base} --estimator is --bias 8")).unwrap();
        assert!(out.contains("estimator is bias=8"), "{out}");
        assert!(out.contains("["), "no CI bracket in IS output: {out}");
        // --bias alone implies importance sampling.
        let implied = run_str(&format!("{base} --bias 8")).unwrap();
        assert_eq!(out, implied);
        // is without --bias picks the default inflation.
        let default = run_str(&format!("{base} --estimator is")).unwrap();
        assert!(default.contains("estimator is bias=16"), "{default}");
        // Bad estimator configs are rejected up front.
        assert!(run_str(&format!("{base} --estimator zzz")).is_err());
        assert!(run_str(&format!("{base} --estimator naive --bias 4")).is_err());
        assert!(run_str(&format!("{base} --bias 0.5")).is_err());
        assert!(run_str(&format!("{base} --bias nan")).is_err());
    }

    #[test]
    fn lifetime_smoke_checks_the_pins() {
        let out = run_str("lifetime --smoke").unwrap();
        assert!(
            out.contains("smoke tallies match the pins for all 4 codes"),
            "{out}"
        );
    }

    #[test]
    fn lifetime_crash_resume_cycle() {
        let dir = std::env::temp_dir().join(format!("muse-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = format!(
            "lifetime --smoke --checkpoint-dir {} --shards 4",
            dir.display()
        );
        // Injected crash after one shard: nonzero exit, checkpoint on disk.
        let crashed = run_str(&format!("{base} --inject crash-after=1")).unwrap_err();
        assert!(crashed.0.contains("injected crash"), "{crashed}");
        assert!(crashed.0.contains("--resume"), "{crashed}");
        // Resume completes, prints the banner, and still matches the pins.
        let out = run_str(&format!("{base} --resume")).unwrap();
        assert!(out.contains("resume: MUSE(144,132) x smoke"), "{out}");
        assert!(out.contains("1/4 shards done"), "{out}");
        assert!(out.contains("machine-years covered"), "{out}");
        assert!(
            out.contains("smoke tallies match the pins for all 4 codes"),
            "{out}"
        );
        // Resuming under a different seed is refused with a clear message.
        run_str(&format!("{base} --inject crash-after=1")).unwrap_err();
        let mismatch = run_str(&format!("{base} --resume --seed 1")).unwrap_err();
        assert!(mismatch.0.contains("config-hash mismatch"), "{mismatch}");
        assert!(mismatch.0.contains("refusing to resume"), "{mismatch}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lifetime_telemetry_flags_emit_artifacts() {
        let dir = std::env::temp_dir().join(format!("muse-cli-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let metrics = dir.join("metrics.prom");
        let out = run_str(&format!(
            "lifetime --smoke --trace {} --metrics {}",
            trace.display(),
            metrics.display()
        ))
        .unwrap();
        // Telemetry must not perturb the pinned tallies.
        assert!(
            out.contains("smoke tallies match the pins for all 4 codes"),
            "{out}"
        );
        // Banners report the artifacts and a greppable drop count.
        assert!(out.contains("trace:"), "{out}");
        assert!(out.contains("0 dropped"), "{out}");
        assert!(out.contains("metrics: Prometheus textfile"), "{out}");
        // Every JSONL line parses as a schema-valid muse-trace/v1 event,
        // seq is gap-free (nothing was dropped, so it is the line index),
        // and the stream is bracketed by run_start/run_end per cell.
        let body = std::fs::read_to_string(&trace).unwrap();
        let mut kinds = Vec::new();
        for (i, line) in body.lines().enumerate() {
            let (seq, event) = muse_telemetry::TraceEvent::parse_line(line).unwrap();
            assert_eq!(seq, i as u64, "{line}");
            kinds.push(event.kind());
        }
        assert_eq!(kinds.iter().filter(|k| **k == "run_start").count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == "run_end").count(), 4);
        assert_eq!(kinds.first(), Some(&"run_start"), "{kinds:?}");
        assert_eq!(kinds.last(), Some(&"run_end"), "{kinds:?}");
        assert!(kinds.contains(&"shard_start"), "{kinds:?}");
        assert!(kinds.contains(&"heartbeat"), "{kinds:?}");
        // The Prometheus textfile carries the core instruments, typed, with
        // a zero drop count and a histogram whose +Inf bucket is its count.
        let prom = std::fs::read_to_string(&metrics).unwrap();
        for typed in [
            "# TYPE muse_lifetime_shards_completed_total counter",
            "# TYPE muse_lifetime_shard_wall_ms histogram",
            "# TYPE muse_trace_dropped_events gauge",
        ] {
            assert!(prom.lines().any(|l| l == typed), "{typed}\n{prom}");
        }
        assert!(prom.contains("muse_sim_trials_total"));
        let sample = |name: &str| -> f64 {
            prom.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no sample {name}\n{prom}"))
        };
        assert_eq!(sample("muse_trace_dropped_events"), 0.0);
        let count = sample("muse_lifetime_shard_wall_ms_count");
        assert!(count > 0.0, "{prom}");
        assert_eq!(
            sample("muse_lifetime_shard_wall_ms_bucket{le=\"+Inf\"}"),
            count
        );
        // A bad trace path fails fast instead of running the matrix.
        assert!(run_str("lifetime --smoke --trace /nonexistent-dir/t.jsonl").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lifetime_inject_spec_is_validated() {
        assert!(run_str("lifetime --smoke --inject kill=zzz").is_err());
        assert!(run_str("lifetime --smoke --inject crash-after").is_err());
        assert!(run_str("lifetime --smoke --inject corrupt=3").is_err());
        assert!(run_str("lifetime --smoke --inject corrupt=3:melt").is_err());
        assert!(run_str("lifetime --smoke --inject nope=1").is_err());
    }

    #[test]
    fn service_spool_cycle() {
        let root = std::env::temp_dir().join(format!("muse-cli-spool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let base = format!("--root {}", root.display());
        // Submit the four smoke cells; a second submit is deduplicated.
        let out = run_str(&format!("submit {base} --smoke --shards 4")).unwrap();
        assert_eq!(out.matches("submitted").count(), 4, "{out}");
        let dup = run_str(&format!("submit {base} --smoke --shards 4")).unwrap();
        assert_eq!(dup.matches("duplicate").count(), 4, "{dup}");
        let status = run_str(&format!("status {base}")).unwrap();
        assert!(status.contains("queued: 4"), "{status}");
        // Drain the queue once: all four compute (cache is cold).
        let out = run_str(&format!("serve {base} --once")).unwrap();
        assert!(out.contains("4 job(s) completed (0 from cache)"), "{out}");
        let status = run_str(&format!("status {base}")).unwrap();
        assert!(status.contains("done: 4"), "{status}");
        assert!(status.contains("queued: 0"), "{status}");
        // The results match the pinned smoke tallies.
        let check = run_str(&format!("smoke-check {base}")).unwrap();
        assert!(check.contains("match the pins for all 4 codes"), "{check}");
        // `result` prints the schema-tagged JSON for a known id.
        let id = muse_service::JobSpec {
            code: "muse144_132".into(),
            env: "smoke".into(),
            smoke: true,
            ..muse_service::JobSpec::default()
        }
        .job_id()
        .unwrap();
        let json = run_str(&format!("result {id} {base}")).unwrap();
        assert!(json.contains("muse-result/v1"), "{json}");
        assert!(json.contains("\"cache_hit\":false"), "{json}");
        // Re-submit and serve again: every job is a cache hit.
        run_str(&format!("submit {base} --smoke --shards 4")).unwrap();
        let out = run_str(&format!("serve {base} --once")).unwrap();
        assert!(out.contains("4 job(s) completed (4 from cache)"), "{out}");
        let json = run_str(&format!("result {id} {base}")).unwrap();
        assert!(json.contains("\"cache_hit\":true"), "{json}");
        // A garbage job fails loudly: nonzero exit, evidence in failed/.
        std::fs::write(root.join("queue/deadbeef.job"), "not json").unwrap();
        let failure = run_str(&format!("serve {base} --once")).unwrap_err();
        assert!(failure.0.contains("1 failed"), "{failure}");
        assert!(failure.0.contains("failed/"), "{failure}");
        let status = run_str(&format!("status {base}")).unwrap();
        assert!(status.contains("failed: 1"), "{status}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn service_flags_are_validated() {
        assert!(run_str("serve --watchdog-ms zzz").is_err());
        assert!(run_str("result").is_err());
        assert!(run_str("submit --code bogus --root /tmp/muse-cli-bad-spool").is_err());
        assert!(run_str("serve --once --inject sink-fail=zzz").is_err());
        let _ = std::fs::remove_dir_all("/tmp/muse-cli-bad-spool");
    }

    #[test]
    fn verilog_and_spec_subcommands() {
        let v = run_str("verilog muse80_69").unwrap();
        assert!(v.contains("module muse_80_69_enc"));
        let v = run_str("verilog muse80_69 --syndrome-only").unwrap();
        assert!(v.contains("remainder"));
        assert!(!v.contains("_enc ("));
        let v = run_str("verilog muse80_69 --corrector").unwrap();
        assert!(v.contains("uncorrectable"));
        assert_eq!(v.matches(": begin err_val").count(), 600); // 20 devices x 30
        let s = run_str("spec muse80_67").unwrap();
        assert!(s.contains("multiplier 5621"));
        // The printed spec loads back into an identical code.
        let code = muse_core::MuseCode::from_spec_string(&s).unwrap();
        assert_eq!(code.multiplier(), 5621);
    }

    #[test]
    fn error_paths() {
        assert!(run_str("encode muse80_69").is_err());
        assert!(run_str("encode muse80_69 zzz").is_err());
        assert!(run_str("decode muse80_69").is_err());
        assert!(run_str("search --symbol 4").is_err()); // --bits required
        assert!(run_str("bogus").is_err());
        // Oversized inputs rejected.
        let too_wide = format!("decode muse80_69 0x{}", "f".repeat(30));
        assert!(run_str(&too_wide).is_err());
    }
}
