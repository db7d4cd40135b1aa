//! `muse-tool`: a command-line interface to the MUSE ECC library.
//!
//! Each subcommand is declared once, in usage syntax: its positional
//! arguments and its flags, each a switch or taking a value. The parser
//! and the usage text (`muse-tool help`) both read that declaration, so
//! an unknown or repeated flag, a value flag without its value, or a
//! wrong number of positional arguments is an error naming the
//! subcommand and the flag.
//!
//! * `msed` and `rsmsed` estimate the Monte-Carlo detection rate of a
//!   MUSE preset and of the Reed-Solomon comparator on the 144-bit
//!   channel (whose devices must tile it), bit-identical at any
//!   `--threads`; RS trials classify in the GF-syndrome domain.
//! * `lifetime` runs the fleet-lifetime scenario matrix: DUE/SDC/repair
//!   rates per machine-year for every code × environment (three
//!   synthetic plus two field-calibrated rate sets), with erasure-mode
//!   degraded operation (see the `muse-lifetime` crate). DUE/SDC
//!   columns quote 95% confidence intervals; zero observed events print
//!   the rule-of-three upper bound (`<x @95%`), never a bare zero. Its
//!   fleet flags are `submit`'s, read and checked by one function with
//!   a job's rules: `--bias` implies importance sampling (`is`), and
//!   `is` alone runs at bias 16. Checkpoints (`--checkpoint-dir`),
//!   `--resume`, `--shards`, fault injection (`--inject`) and
//!   observability (`--trace` JSONL events, a `--metrics` Prometheus
//!   textfile, `--progress` heartbeats on stderr) route every cell
//!   through the crash-safe sharded supervisor; tallies stay
//!   bit-identical. `--smoke` checks the pinned CI tallies instead; it
//!   keeps `--seed`, `--estimator`/`--bias`, `--shards` and `--threads`,
//!   and refuses the fleet flags the pinned smoke fleet would ignore.
//! * `submit` / `serve` / `status` / `result` / `smoke-check` drive the
//!   `muse-service` spool daemon (see that crate's docs). `serve --once`
//!   drains the queue and exits; otherwise SIGTERM/SIGINT trips a
//!   graceful drain that a restart resumes bit-identically. `--inject`
//!   takes comma-separated `key=value` pairs (see `parse_inject`); its
//!   `sink-*` keys act on the `--trace` file. `lifetime` and `serve`
//!   check that a `--metrics` file can be written before any work
//!   starts.
//!
//! The command layer is a plain function from parsed arguments to a
//! [`String`], so every path is unit-testable without spawning processes.

use std::path::PathBuf;

use muse_core::analysis::remainder_profile;
use muse_core::{presets, CodeBuilder, Decoded, MuseCode, SearchOptions, Shuffle, Word};
use muse_faultsim::{muse_msed, MsedConfig};
use muse_service::JobSpec;

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

/// One subcommand, declared in usage syntax: `<name>` is a positional
/// argument, `--flag` a switch, `--flag <value>` a flag taking a value,
/// and `[…]` marks a flag optional. The parser and the usage text both
/// read this declaration and nothing else.
struct Command {
    name: &'static str,
    /// Declaration fragments: one usage line each.
    syntax: &'static [&'static str],
    run: fn(&Args) -> Result<String, CliError>,
}

/// The fleet flags of `lifetime` and `submit` (read by [`fleet_spec`]).
const FLEET: &[&str] = &[
    "[--dimms <n>] [--years <y>] [--scrub-hours <h>] [--spares <s>]",
    "[--seed <x>] [--estimator <naive|is>] [--bias <factor>]",
    "[--shards <k>] [--threads <t>]",
];
/// The telemetry flags of `lifetime` and `serve`.
const TELEMETRY: &str = "[--inject <spec>] [--trace <file>] [--metrics <file>]";

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "presets", syntax: &[], run: list_presets },
    Command { name: "inspect", syntax: &["<preset>"], run: inspect },
    Command { name: "encode", syntax: &["<preset> <hex-data> [--meta <hex>]"], run: encode },
    Command { name: "decode", syntax: &["<preset> <hex-codeword>"], run: decode },
    Command { name: "search", syntax: &["--bits <n> [--symbol <s>] [--redundancy <r>] [--interleaved]",
        "[--asym] [--single-bit] [--limit <k>]"], run: search },
    Command { name: "msed", syntax: &["<preset> [--trials <n>] [--devices <k>] [--threads <t>]"],
        run: msed },
    Command { name: "rsmsed", syntax: &["[--t <1|2>] [--symbol-bits <s>] [--device-bits <d>]",
        "[--trials <n>] [--devices <k>] [--threads <t>]"], run: rsmsed },
    Command { name: "lifetime", syntax: &[FLEET[0], FLEET[1], FLEET[2],
        "[--checkpoint-dir <dir>] [--resume] [--progress] [--smoke]", TELEMETRY], run: lifetime },
    Command { name: "submit", syntax: &["[--root <dir>] [--smoke] [--code <name>] [--env <name>]",
        FLEET[0], FLEET[1], FLEET[2]], run: submit },
    Command { name: "serve", syntax: &["[--root <dir>] [--once] [--poll-ms <n>] [--max-retries <n>]",
        TELEMETRY], run: serve },
    Command { name: "status", syntax: &["[--root <dir>]"], run: status },
    Command { name: "result", syntax: &["<id> [--root <dir>]"], run: result },
    Command { name: "smoke-check", syntax: &["[--root <dir>]"], run: smoke_check },
    Command { name: "verilog", syntax: &["<preset> [--syndrome-only] [--corrector]"], run: verilog },
    Command { name: "spec", syntax: &["<preset>"], run: spec },
];

/// A declared flag: its name, and what its value is (`n`, `file`, …;
/// `None` for a switch).
type Flag = (&'static str, Option<&'static str>);

impl Command {
    /// The declared positional argument names and flags. A `<value>`
    /// right after a flag that leaves its `[` open (or has none) is that
    /// flag's value.
    fn syntax(&self) -> (Vec<&'static str>, Vec<Flag>) {
        let (mut positional, mut flags) = (Vec::new(), Vec::new());
        let mut open = false;
        for word in self.syntax.iter().flat_map(|s| s.split_whitespace()) {
            let bare = word.trim_matches(['[', ']', '<', '>']);
            if bare.starts_with("--") {
                flags.push((bare, None));
                open = !word.ends_with(']');
            } else if open {
                flags.last_mut().expect("an open flag precedes").1 = Some(bare);
                open = false;
            } else {
                positional.push(bare);
            }
        }
        (positional, flags)
    }

    /// `muse-tool <name> <declaration>`, a fragment per line.
    fn usage(&self) -> String {
        let indent = format!("\n{}", " ".repeat("muse-tool  ".len() + self.name.len()));
        let usage = format!("muse-tool {} {}", self.name, self.syntax.join(&indent));
        usage.trim_end().to_string()
    }
}

/// The usage text: every subcommand's declaration, then the preset
/// names.
pub fn usage() -> String {
    let commands: Vec<String> = COMMANDS.iter().map(Command::usage).collect();
    let presets: Vec<&str> = presets::ALL.iter().map(|p| p.0).collect();
    format!(
        "muse-tool — residue codes for modern memories\n\nUSAGE:\n  {}\n\nPRESETS: {}",
        commands.join("\n").replace('\n', "\n  "),
        presets.join(" ")
    )
}

/// A command line parsed against its subcommand's declaration.
struct Args<'a> {
    command: &'static Command,
    positional: Vec<&'a str>,
    /// Each flag given, with its value if it takes one.
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Parses `tokens`, the arguments after the subcommand's name.
    ///
    /// # Errors
    ///
    /// An unknown or repeated flag, a value flag with no value (or with
    /// a flag where its value should be), or a wrong number of
    /// positional arguments.
    fn parse(command: &'static Command, tokens: &'a [String]) -> Result<Self, CliError> {
        let misuse = |what: String| {
            let usage = command.usage();
            err(format!("{}: {what}\nusage: {usage}", command.name))
        };
        let (positional, declared) = command.syntax();
        let mut args = Self {
            command,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut tokens = tokens.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            let Some(&(name, meta)) = declared.iter().find(|f| f.0 == token) else {
                if token.starts_with("--") {
                    return Err(misuse(format!("unknown flag {token}")));
                }
                args.positional.push(token);
                continue;
            };
            if args.has(token) {
                return Err(misuse(format!("{token} given twice")));
            }
            let value = meta.map(|meta| {
                let value = tokens.next().filter(|v| !v.starts_with("--"));
                value.ok_or_else(|| misuse(format!("{token} needs a value <{meta}>")))
            });
            args.flags.push((name, value.transpose()?));
        }
        if args.positional.len() != positional.len() {
            return Err(misuse(format!(
                "expected {} positional argument(s), got {:?}",
                positional.len(),
                args.positional
            )));
        }
        Ok(args)
    }

    /// The given value of `flag` (`Some(None)` for a switch), or `None`.
    fn lookup(&self, flag: &str) -> Option<Option<&'a str>> {
        debug_assert!(
            self.command.syntax().1.iter().any(|f| f.0 == flag),
            "{} reads undeclared flag {flag}",
            self.command.name
        );
        self.flags.iter().find(|f| f.0 == flag).map(|f| f.1)
    }

    fn has(&self, flag: &str) -> bool {
        self.lookup(flag).is_some()
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.lookup(flag).flatten()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| err(format!("{} {flag}: cannot parse {v:?}", self.command.name)))
        };
        self.value(flag).map(parse).transpose()
    }

    fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.get(flag)?.unwrap_or(default))
    }
}

/// Runs one command line (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for any invalid
/// invocation.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Ok(usage());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| err(format!("unknown command {name:?}\n\n{}", usage())))?;
    (command.run)(&Args::parse(command, rest)?)
}

/// Resolves a preset name.
pub fn preset(name: &str) -> Result<MuseCode, CliError> {
    let (_, build, _) = presets::ALL
        .iter()
        .find(|p| p.0 == name)
        .ok_or_else(|| err(format!("unknown preset {name:?}; try `muse-tool presets`")))?;
    Ok(build())
}

fn list_presets(_: &Args) -> Result<String, CliError> {
    let lines: Vec<String> = presets::ALL
        .iter()
        .map(|(name, _, summary)| format!("{name:<12} {summary}"))
        .collect();
    Ok(lines.join("\n"))
}

fn inspect(a: &Args) -> Result<String, CliError> {
    let code = preset(a.positional[0])?;
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

fn encode(a: &Args) -> Result<String, CliError> {
    let code = preset(a.positional[0])?;
    let data = parse_hex(a.positional[1])?;
    let meta = match a.value("--meta") {
        Some(v) => parse_hex(v)?
            .to_u64()
            .ok_or_else(|| err("metadata too wide"))?,
        None => 0,
    };
    let payload = if meta != 0 || code.spare_bits() > 0 && data.bit_len() <= 64 {
        let d = data
            .to_u64()
            .ok_or_else(|| err("data wider than 64 bits; omit --meta and pass a full payload"))?;
        code.pack_metadata(d, meta)
    } else {
        data
    };
    if payload.bit_len() > code.k_bits() {
        return Err(err(format!("payload exceeds {} bits", code.k_bits())));
    }
    Ok(format!("{:#x}", code.encode(&payload)))
}

fn decode(a: &Args) -> Result<String, CliError> {
    let code = preset(a.positional[0])?;
    let cw = parse_hex(a.positional[1])?;
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

fn search(a: &Args) -> Result<String, CliError> {
    let bits: u32 = a
        .get("--bits")?
        .ok_or_else(|| err("search: --bits is required"))?;
    let symbol: u32 = a.get_or("--symbol", 4)?;
    let redundancy: u32 = a.get_or("--redundancy", 12)?;
    let limit: usize = a.get_or("--limit", 0)?;
    let mut builder = CodeBuilder::new(bits)
        .symbol_bits(symbol)
        .redundancy_bits(redundancy)
        .search_options(SearchOptions { threads: 0, limit });
    if a.has("--interleaved") {
        builder = builder.shuffle(Shuffle::Interleaved);
    }
    if a.has("--asym") {
        builder = builder.direction(muse_core::Direction::OneToZero);
    }
    if a.has("--single-bit") {
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

fn verilog(a: &Args) -> Result<String, CliError> {
    let code = preset(a.positional[0])?;
    let name = code
        .name()
        .replace(['(', ')'], "_")
        .replace(',', "_")
        .to_lowercase();
    if a.has("--syndrome-only") {
        Ok(muse_hw::emit_remainder_module(&code, &format!("{name}rem")))
    } else if a.has("--corrector") {
        Ok(muse_hw::emit_corrector_module(
            &code,
            &format!("{name}corr"),
        ))
    } else {
        Ok(muse_hw::emit_encoder_module(&code, &format!("{name}enc")))
    }
}

fn spec(a: &Args) -> Result<String, CliError> {
    Ok(preset(a.positional[0])?.to_spec_string())
}

fn msed(a: &Args) -> Result<String, CliError> {
    let code = preset(a.positional[0])?;
    let config = msed_config(a, code.symbol_map().num_symbols())?;
    let stats = muse_msed(&code, config);
    Ok(format!(
        "{}: {:.2}% of {} {}-device errors detected ({} miscorrected, {} silent)",
        code.name(),
        stats.detection_rate(),
        config.trials,
        config.failing_devices,
        stats.miscorrected,
        stats.silent
    ))
}

fn rsmsed(a: &Args) -> Result<String, CliError> {
    let t: usize = a.get_or("--t", 1)?;
    let symbol_bits: u32 = a.get_or("--symbol-bits", 8)?;
    let device_bits: u32 = a.get_or("--device-bits", 4)?;
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
    let code = muse_rs::RsMemoryCode::new(symbol_bits, CHANNEL_BITS, t)
        .map_err(|e| err(format!("bad RS geometry: {e}")))?;
    let config = msed_config(a, (code.n_bits() / device_bits) as usize)?;
    let mode = muse_faultsim::RsDetectMode::DeviceConfined;
    let stats = muse_faultsim::rs_msed(&code, device_bits, mode, config);
    Ok(format!(
        "{} t={}: {:.2}% of {} {}-device errors detected \
         ({} corrected, {} miscorrected, {} silent)",
        code.name(),
        t,
        stats.detection_rate(),
        config.trials,
        config.failing_devices,
        stats.corrected,
        stats.miscorrected,
        stats.silent
    ))
}

/// Reads the Monte-Carlo flags `msed` and `rsmsed` share: `--trials`,
/// `--threads`, and `--devices` (default 2), how many of the code's
/// `count` devices fail at once.
fn msed_config(a: &Args, count: usize) -> Result<MsedConfig, CliError> {
    let devices = a.get_or("--devices", 2)?;
    if !(1..=count).contains(&devices) {
        return Err(err(format!(
            "--devices must be in 1..={count} (the code has {count} devices)"
        )));
    }
    Ok(MsedConfig {
        trials: a.get_or("--trials", 10_000)?,
        failing_devices: devices,
        threads: a.get_or("--threads", 0)?,
        ..MsedConfig::default()
    })
}

/// Reads the fleet flags `lifetime` and `submit` share into a job spec,
/// taking what is not given from `base`. The estimator follows
/// [`muse_lifetime::Estimator::select`]; the other values are checked
/// where the spec resolves ([`JobSpec::fleet_config`]), as for any job.
fn fleet_spec(a: &Args, base: JobSpec) -> Result<JobSpec, CliError> {
    let estimator = muse_lifetime::Estimator::select(a.value("--estimator"), a.get("--bias")?)
        .map_err(|e| err(format!("{}: {e}", a.command.name)))?;
    Ok(JobSpec {
        dimms: a.get_or("--dimms", base.dimms)?,
        years: a.get_or("--years", base.years)?,
        scrub_hours: a.get_or("--scrub-hours", base.scrub_hours)?,
        spares: a.get_or("--spares", base.spares)?,
        seed: a.get_or("--seed", base.seed)?,
        estimator: estimator.name().to_string(),
        bias: estimator.bias(),
        shards: a.get_or("--shards", base.shards)?,
        threads: a.get_or("--threads", base.threads)?,
        ..base
    })
}

/// Under `--smoke`, refuses each flag of `ignored`: the smoke cells are
/// pinned, so such a flag would change nothing the run prints.
fn refuse_under_smoke(a: &Args, ignored: &[&str]) -> Result<(), CliError> {
    if !a.has("--smoke") {
        return Ok(());
    }
    match ignored.iter().find(|&&flag| a.has(flag)) {
        Some(flag) => Err(err(format!(
            "{} --smoke: {flag} does not apply to the pinned smoke cells",
            a.command.name
        ))),
        None => Ok(()),
    }
}

fn lifetime(a: &Args) -> Result<String, CliError> {
    refuse_under_smoke(a, &["--dimms", "--years", "--scrub-hours", "--spares"])?;
    let smoke = a.has("--smoke");
    let (smoke_env, smoke_config) = muse_lifetime::smoke_setup();
    let mut base = JobSpec::default();
    if smoke {
        base.seed = smoke_config.seed;
    }
    let fleet = fleet_spec(a, base)?;
    let checked = fleet
        .fleet_config()
        .map_err(|e| err(format!("lifetime: {e}")))?;
    let (envs, config) = if smoke {
        // Seed/threads stay overridable even under --smoke: threads
        // never changes tallies, and a seed change is exactly what the
        // config-hash fencing tests need to provoke.
        let config = muse_lifetime::FleetConfig {
            seed: checked.seed,
            threads: checked.threads,
            estimator: checked.estimator,
            ..smoke_config
        };
        (vec![smoke_env], config)
    } else {
        (muse_lifetime::all_environments(), checked)
    };
    let (reports, banners) = run_lifetime_cells(a, &envs, &config, fleet.shards)?;
    let mut out: String = banners.iter().map(|b| format!("{b}\n")).collect();
    if smoke {
        muse_lifetime::verify_smoke(&reports)
            .map_err(|drift| err(format!("smoke pin mismatch: {drift}")))?;
        out.push_str(&format!(
            "smoke tallies match the pins for all {} codes",
            reports.len()
        ));
    } else {
        out.push_str(&render_matrix(&config, &reports));
    }
    Ok(out)
}

/// The `lifetime` table: a header naming the fleet, one row per cell,
/// and the legend.
fn render_matrix(
    config: &muse_lifetime::FleetConfig,
    reports: &[muse_lifetime::LifetimeReport],
) -> String {
    let est_label = match config.estimator {
        muse_lifetime::Estimator::Naive => "naive".to_string(),
        muse_lifetime::Estimator::Importance { bias } => {
            format!("is bias={bias}")
        }
    };
    let mut out = format!(
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
    );
    for r in reports {
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
    out
}

fn submit(a: &Args) -> Result<String, CliError> {
    refuse_under_smoke(
        a,
        &[
            "--code",
            "--env",
            "--dimms",
            "--years",
            "--scrub-hours",
            "--spares",
            "--seed",
            "--estimator",
            "--bias",
        ],
    )?;
    let mut spec = fleet_spec(a, JobSpec::default())?;
    let specs = if a.has("--smoke") {
        smoke_specs(spec.shards, spec.threads)
    } else {
        if let Some(code) = a.value("--code") {
            spec.code = code.to_string();
        }
        if let Some(env) = a.value("--env") {
            spec.env = env.to_string();
        }
        vec![spec]
    };
    let spool = open_spool(a)?;
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

fn serve(a: &Args) -> Result<String, CliError> {
    let (faults, crash_after) = a.value("--inject").map(parse_inject).transpose()?.unzip();
    if crash_after.flatten().is_some() {
        return Err(err(
            "serve --inject: crash-after stops a lifetime run; use kill=<p>",
        ));
    }
    let d = muse_service::ServiceConfig::default();
    let config = muse_service::ServiceConfig {
        root: spool_root(a),
        once: a.has("--once"),
        poll_ms: a.get_or("--poll-ms", d.poll_ms)?,
        max_retries: a.get_or("--max-retries", d.max_retries)?,
        faults,
        ..d
    };
    let telemetry = open_telemetry(a, config.faults.as_ref())?;
    #[cfg(unix)]
    install_drain_handler(&config.drain);
    let registry = telemetry
        .metrics
        .as_ref()
        .map(|_| muse_telemetry::Metrics::new());
    let service_telemetry = muse_service::ServiceTelemetry {
        metrics: registry.as_ref(),
        metrics_path: telemetry.metrics.clone(),
        tracer: telemetry.tracer.as_ref().map(|(tracer, _)| tracer),
        warn: Some(Box::new(|line: &str| eprintln!("{line}"))),
    };
    let report =
        muse_service::serve(&config, &service_telemetry).map_err(|e| err(format!("serve: {e}")))?;
    drop(service_telemetry);
    // The service wrote the metrics file after every job.
    for banner in telemetry.finish(None)? {
        eprintln!("{banner}");
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

fn status(a: &Args) -> Result<String, CliError> {
    let s = open_spool(a)?
        .status()
        .map_err(|e| err(format!("status: {e}")))?;
    Ok(format!(
        "queued: {}\nactive: {}\ndone: {}\nfailed: {}",
        s.queued, s.active, s.done, s.failed
    ))
}

fn result(a: &Args) -> Result<String, CliError> {
    let id = a.positional[0];
    open_spool(a)?
        .result_json(id)
        .map(|json| json.trim_end().to_string())
        .map_err(|e| err(format!("result {id}: {e} (is the job done?)")))
}

fn smoke_check(a: &Args) -> Result<String, CliError> {
    let spool = open_spool(a)?;
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

/// The four pinned smoke cells, in scenario order: what `submit --smoke`
/// enqueues and `smoke-check` verifies.
fn smoke_specs(shards: u32, threads: usize) -> Vec<JobSpec> {
    ["muse144_132", "muse80_69", "rs144_128_t1", "rs144_112_t2"]
        .into_iter()
        .map(|code| JobSpec {
            code: code.to_string(),
            env: "smoke".to_string(),
            smoke: true,
            shards,
            threads,
            ..JobSpec::default()
        })
        .collect()
}

/// The spool root: `--root`, default `muse-spool`.
fn spool_root(a: &Args) -> PathBuf {
    a.path("--root")
        .unwrap_or_else(|| muse_service::ServiceConfig::default().root)
}

fn open_spool(a: &Args) -> Result<muse_service::Spool, CliError> {
    let root = spool_root(a);
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

/// The `--trace` writer and the `--metrics` path of `lifetime` and
/// `serve`.
struct Telemetry {
    tracer: Option<(muse_telemetry::Tracer, PathBuf)>,
    metrics: Option<PathBuf>,
}

impl Telemetry {
    /// Closes the trace and writes `registry` to the metrics file,
    /// returning a banner for each.
    fn finish(self, registry: Option<&muse_telemetry::Metrics>) -> Result<Vec<String>, CliError> {
        let mut banners = Vec::new();
        if let Some((tracer, path)) = self.tracer {
            let summary = tracer.finish();
            banners.push(format!(
                "trace: {} events written, {} dropped, {} sink errors ({})",
                summary.written,
                summary.dropped,
                summary.io_errors,
                path.display(),
            ));
        }
        if let (Some(registry), Some(path)) = (registry, &self.metrics) {
            registry
                .write_textfile(path)
                .map_err(|e| err(format!("--metrics {}: {e}", path.display())))?;
            banners.push(format!(
                "metrics: Prometheus textfile at {}",
                path.display()
            ));
        }
        Ok(banners)
    }
}

/// Opens `--trace` and checks that `--metrics` can be written, before
/// any work starts. The trace file's sink carries the `sink-*` faults of
/// `faults`' I/O plan, if it has one.
fn open_telemetry(
    a: &Args,
    faults: Option<&muse_lifetime::FaultPlan>,
) -> Result<Telemetry, CliError> {
    let metrics = a.path("--metrics");
    if let Some(path) = &metrics {
        if !muse_lifetime::telemetry::parent_exists(path) {
            return Err(err(format!(
                "--metrics {}: its directory does not exist",
                path.display()
            )));
        }
    }
    let tracer = match a.path("--trace") {
        Some(path) => {
            let file = std::fs::File::create(&path)
                .map_err(|e| err(format!("--trace {}: {e}", path.display())))?;
            let sink: Box<dyn std::io::Write + Send> = Box::new(file);
            let sink = match faults.and_then(|plan| plan.io) {
                Some(io) => io.wrap_sink(sink),
                None => sink,
            };
            let tracer = muse_telemetry::Tracer::new(sink, muse_telemetry::DEFAULT_CAPACITY);
            Some((tracer, path))
        }
        None => None,
    };
    Ok(Telemetry { tracer, metrics })
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

/// Runs every scenario code × `envs` cell, through the crash-safe
/// sharded supervisor when a `lifetime` flag asks for it, returning the
/// reports plus any resume and telemetry banners. An injected crash
/// (`crash-after=<n>`) surfaces as an error so the process exits nonzero
/// with the checkpoint safely on disk. Telemetry sinks (trace writer,
/// metrics registry) are shared across all cells: one JSONL stream and
/// one Prometheus textfile cover the whole matrix.
fn run_lifetime_cells(
    a: &Args,
    envs: &[muse_lifetime::Environment],
    config: &muse_lifetime::FleetConfig,
    shards: u32,
) -> Result<(Vec<muse_lifetime::LifetimeReport>, Vec<String>), CliError> {
    let (faults, crash_after) = a.value("--inject").map(parse_inject).transpose()?.unzip();
    let telemetry = open_telemetry(a, faults.as_ref())?;
    let progress = a.has("--progress");
    let runner = muse_lifetime::RunnerConfig {
        shards,
        checkpoint_dir: a.path("--checkpoint-dir"),
        resume: a.has("--resume"),
        stop_after_shards: crash_after.flatten(),
        ..muse_lifetime::RunnerConfig::default()
    };
    // Any observability flag routes cells through the sharded
    // supervisor — that is where the events live.
    let sharded = runner.checkpoint_dir.is_some()
        || shards != 0
        || faults.is_some()
        || telemetry.tracer.is_some()
        || telemetry.metrics.is_some()
        || progress;
    let registry = (telemetry.metrics.is_some() || progress).then(muse_telemetry::Metrics::new);
    let mut reports = Vec::new();
    let mut banners = Vec::new();
    for code in &muse_lifetime::scenario_codes() {
        for env in envs {
            if !sharded {
                reports.push(muse_lifetime::simulate_fleet(code, env, config));
                continue;
            }
            let runner = muse_lifetime::RunnerConfig {
                checkpoint_prefix: cell_prefix(code, env),
                ..runner.clone()
            };
            let cell_telemetry = muse_lifetime::FleetTelemetry {
                tracer: telemetry.tracer.as_ref().map(|(tracer, _)| tracer),
                metrics: registry.as_ref(),
                metrics_path: telemetry.metrics.clone(),
                label: muse_lifetime::cell_label(&code.name(), env.name),
                warn: Some(Box::new(|line: &str| eprintln!("{line}"))),
                heartbeat: progress.then(|| {
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
                faults.as_ref(),
                &cell_telemetry,
            )
            .map_err(|e| err(e.to_string()))?;
            if let Some(info) = &outcome.stats().resume {
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
    banners.extend(telemetry.finish(registry.as_ref())?);
    Ok((reports, banners))
}

/// Parses an `--inject` spec: comma-separated `key=value` pairs, each
/// key at most once, from `kill=<prob>`, `crash-after=<shards>`,
/// `corrupt=<generation>:<truncate|bitflip>`, `delay=<ms>`,
/// `fault-seed=<seed>`, and the I/O chaos keys `enospc`/`short-write`/
/// `fsync-fail`/`rename-fail`/`corrupt-record`/`sink-fail`
/// (probabilities), `sink-block-ms=<ms>`, and `io-seed=<seed>`. A
/// probability must be a finite number in `[0, 1]`.
fn parse_inject(spec: &str) -> Result<(muse_lifetime::FaultPlan, Option<u64>), CliError> {
    fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, CliError> {
        value
            .parse()
            .map_err(|_| err(format!("--inject {key}: cannot parse {value}")))
    }
    fn prob(key: &str, value: &str) -> Result<f64, CliError> {
        let p = num(key, value)?;
        // Rejects NaN and the infinities too.
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(err(format!(
                "--inject {key}: {value} is not a probability in [0, 1]"
            )))
        }
    }
    fn io(plan: &mut muse_lifetime::FaultPlan) -> &mut muse_lifetime::IoFaultPlan {
        plan.io.get_or_insert_with(Default::default)
    }
    let mut plan = muse_lifetime::FaultPlan::default();
    let mut crash_after = None;
    let mut seen = Vec::new();
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err(format!("--inject: {part:?} is not key=value")))?;
        if seen.contains(&key) {
            return Err(err(format!("--inject: {key} given twice")));
        }
        seen.push(key);
        match key {
            "kill" => plan.kill_prob = prob(key, value)?,
            "crash-after" => crash_after = Some(num(key, value)?),
            "delay" => plan.delay_ms_max = num(key, value)?,
            "fault-seed" => plan.seed = num(key, value)?,
            "corrupt" => {
                let (generation, kind) = value
                    .split_once(':')
                    .ok_or_else(|| err("--inject corrupt needs <generation>:<truncate|bitflip>"))?;
                let kind = match kind {
                    "truncate" => muse_lifetime::Corruption::Truncate,
                    "bitflip" => muse_lifetime::Corruption::BitFlip,
                    other => return Err(err(format!("--inject corrupt: unknown kind {other:?}"))),
                };
                plan.corrupt_generation = Some((num(key, generation)?, kind));
            }
            "enospc" => io(&mut plan).enospc_prob = prob(key, value)?,
            "short-write" => io(&mut plan).short_write_prob = prob(key, value)?,
            "fsync-fail" => io(&mut plan).fsync_fail_prob = prob(key, value)?,
            "rename-fail" => io(&mut plan).rename_fail_prob = prob(key, value)?,
            "corrupt-record" => io(&mut plan).corrupt_record_prob = prob(key, value)?,
            "sink-fail" => io(&mut plan).sink_fail_prob = prob(key, value)?,
            "sink-block-ms" => io(&mut plan).sink_block_ms = num(key, value)?,
            "io-seed" => io(&mut plan).seed = num(key, value)?,
            other => {
                return Err(err(format!(
                    "--inject: unknown key {other:?} (kill, crash-after, corrupt, delay, \
                     fault-seed, enospc, short-write, fsync-fail, rename-fail, corrupt-record, \
                     sink-fail, sink-block-ms, io-seed)"
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
        // The removed hang keys are unknown now.
        assert!(run_str("lifetime --smoke --inject hang=0.5").is_err());
        // A probability must be finite and in [0, 1].
        for bad in [
            "kill=NaN",
            "kill=1.5",
            "kill=-0.1",
            "enospc=-3",
            "sink-fail=inf",
        ] {
            let e = run_str(&format!("lifetime --smoke --inject {bad}")).unwrap_err();
            assert!(e.0.contains("not a probability"), "{bad}: {e}");
        }
        // A repeated key is named, not silently overridden.
        let e = run_str("lifetime --smoke --inject kill=0.1,kill=0.9").unwrap_err();
        assert!(e.0.contains("kill given twice"), "{e}");
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
        let e = run_str("serve --watchdog-ms 5").unwrap_err();
        assert!(e.0.contains("unknown flag --watchdog-ms"), "{e}");
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

    /// A fresh directory under the system temp dir, unique to `tag`.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("muse-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A valid invocation of `command` without `skip`: a filler for each
    /// positional argument, the required flags, `--root` on `root`, and
    /// `--once` so a `serve` that parsed could not poll forever.
    fn base_line(command: &Command, skip: &str, root: &str) -> String {
        let (positional, flags) = command.syntax();
        let mut line = vec![command.name.to_string()];
        for p in positional {
            let filler = match p {
                "preset" => "muse80_69",
                "id" => "0",
                _ => "0x1",
            };
            line.push(filler.to_string());
        }
        for &(name, _) in flags.iter().filter(|f| f.0 != skip) {
            match name {
                "--root" => line.push(format!("--root {root}")),
                "--once" => line.push("--once".to_string()),
                "--bits" => line.push("--bits 80".to_string()),
                _ => {}
            }
        }
        line.join(" ")
    }

    #[test]
    fn every_subcommand_rejects_malformed_flags_naming_them() {
        let root = scratch_dir("malformed");
        let root_str = root.display().to_string();
        let rejects = |line: &str, needle: &str| {
            let e = run_str(line).expect_err(line);
            let name = line.split(' ').next().unwrap();
            assert!(e.0.contains(needle), "{line}: {e}");
            assert!(e.0.starts_with(name), "{line}: {e}");
        };
        for command in COMMANDS {
            let base = base_line(command, "", &root_str);
            rejects(&format!("{base} --bogus"), "--bogus");
            rejects(&format!("{base} extra"), "\"extra\"");
            let (positional, flags) = command.syntax();
            for (name, value) in flags {
                let base = base_line(command, name, &root_str);
                let given = match value {
                    Some(_) => format!("{name} 1"),
                    None => name.to_string(),
                };
                rejects(&format!("{base} {given} {given}"), name);
                let Some(meta) = value else { continue };
                rejects(&format!("{base} {name}"), name);
                rejects(&format!("{base} {name} --bogus"), name);
                if !matches!(meta, "dir" | "file") {
                    let line = format!("{base} {name} zzz");
                    assert!(run_str(&line).is_err(), "{line}");
                }
            }
            if let Some(first) = positional.first() {
                rejects(command.name, first);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mistyped_and_invalid_fleet_flags_fail_before_running() {
        for line in [
            "msed muse80_69 --trails 500",
            "msed muse80_69 --trials 500 --trials 7",
            "rsmsed --trials 10 --threds 1",
            "lifetime --years -1",
            "lifetime --years nan",
            "lifetime --scrub-hours 0",
            "lifetime --dimms 0",
            // 8.8e9 epochs, past the per-job DIMM-epoch budget.
            "lifetime --dimms 1 --years 1 --scrub-hours 0.000001",
        ] {
            assert!(run_str(line).is_err(), "{line}");
        }
        // `submit` queues what `lifetime` would run with the same flags.
        let root = scratch_dir("submit-estimator");
        let submit = |flags: &str| run_str(&format!("submit --root {} {flags}", root.display()));
        let serve = format!(
            "serve --root {} --once --inject crash-after=1",
            root.display()
        );
        assert!(run_str(&serve).unwrap_err().0.contains("crash-after"));
        assert!(submit("--estimator is --bias 0.5").is_err());
        assert!(submit("--estimator naive --bias 4").is_err());
        for (flags, bias) in [("--bias 8", 8.0), ("--estimator is", 16.0)] {
            let out = submit(flags).unwrap();
            let id = out.split(' ').nth(1).unwrap();
            let job = std::fs::read_to_string(root.join(format!("queue/{id}.job"))).unwrap();
            let (_, _, config) = JobSpec::from_json(&job).unwrap().resolve().unwrap();
            let want = muse_lifetime::Estimator::importance(bias);
            assert_eq!(config.estimator, want, "{flags}: {job}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Asserts that `line` fails with an error naming `command --smoke`
    /// and `flag`.
    fn refused_under_smoke(line: &str, command: &str, flag: &str) {
        let e = run_str(line).unwrap_err().0;
        assert!(
            e.contains(&format!("{command} --smoke: {flag} ")),
            "{line}: {e}"
        );
    }

    #[test]
    fn lifetime_smoke_refuses_the_fleet_flags_it_ignores() {
        for flag in ["--dimms 5", "--years 3", "--scrub-hours 24", "--spares 1"] {
            let line = format!("lifetime --smoke {flag}");
            refused_under_smoke(&line, "lifetime", flag.split(' ').next().unwrap());
        }
    }

    #[test]
    fn submit_smoke_refuses_the_fleet_flags_it_ignores() {
        let root = scratch_dir("submit-smoke-flags");
        for flag in [
            "--code muse80_69",
            "--env chipkill-heavy",
            "--dimms 5",
            "--years 3",
            "--scrub-hours 24",
            "--spares 1",
            "--seed 7",
            "--estimator is",
            "--bias 4",
        ] {
            let line = format!("submit --root {} --smoke {flag}", root.display());
            refused_under_smoke(&line, "submit", flag.split(' ').next().unwrap());
        }
        let queued = std::fs::read_dir(root.join("queue")).map_or(0, |d| d.count());
        assert_eq!(queued, 0, "a refused submit queued a job");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn lifetime_trace_sink_faults_reach_the_trace_file() {
        let dir = scratch_dir("sink-fail");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let out = run_str(&format!(
            "lifetime --smoke --trace {} --inject sink-fail=1",
            trace.display()
        ))
        .unwrap();
        assert!(
            out.contains("smoke tallies match the pins for all 4 codes"),
            "{out}"
        );
        assert!(out.contains("trace: 0 events written"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_paths_are_checked_before_any_work() {
        let dir = scratch_dir("metrics-first");
        let ckpt = dir.join("ckpt");
        let bad = "--metrics /nonexistent-dir/m.prom";
        let e = run_str(&format!(
            "lifetime --smoke --checkpoint-dir {} {bad}",
            ckpt.display()
        ))
        .unwrap_err();
        assert!(e.0.contains("/nonexistent-dir/m.prom"), "{e}");
        assert!(!ckpt.exists(), "a shard ran before --metrics was checked");
        let root = format!("--root {}", dir.join("spool").display());
        run_str(&format!("submit {root} --smoke")).unwrap();
        let e = run_str(&format!("serve {root} --once {bad}")).unwrap_err();
        assert!(e.0.contains("/nonexistent-dir/m.prom"), "{e}");
        let status = run_str(&format!("status {root}")).unwrap();
        assert!(status.contains("queued: 4"), "a job ran: {status}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
