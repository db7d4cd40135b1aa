//! The repository benchmark: three workloads, timed end to end with
//! tracing off, and split per layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload msed_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The lines before
//! it are the human-readable report: host and build stamp, every metric
//! with its spread, and the simulated-statistics fidelity report. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod classify;
mod fleet;
mod host;
mod memtag;
mod msed;
mod pins;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spans::Recorder;

/// The seed whose inputs are the repository's canonical configurations
/// (the pins and the paper comparison hold there).
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for the acceptance runs.
pub const HELD_OUT_SEED: u64 = 20_261_016;

/// Seconds of repeated setups per run, `setup_s` being the fastest of
/// them. They are spread over the run, a share before the first pass and
/// after each pass, so they sample the host over the whole run.
const SETUP_SECONDS: f64 = 1.0;

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics, reported by the traced run.
const PER_LAYER: [(&str, &str); 47] = [
    ("faultsim.ns_per_trial.muse_144_132_k2", "ns"),
    ("faultsim.ns_per_trial.muse_268_256_k2", "ns"),
    ("faultsim.ns_per_trial.muse_80_67_k2", "ns"),
    ("faultsim.ns_per_trial.muse_144_132_k3", "ns"),
    ("faultsim.ns_per_trial.rs_144_128_t1", "ns"),
    ("faultsim.ns_per_trial.rs_144_112_t2", "ns"),
    ("faultsim.thread_efficiency", "ratio"),
    ("muse_core.kernel_build_ms", "ms"),
    ("muse_core.classify_healthy_ns", "ns"),
    ("muse_core.classify_degraded_ns", "ns"),
    ("muse_core.resolve_us", "us"),
    ("rs_ecc.classify_healthy_ns.t1", "ns"),
    ("rs_ecc.classify_degraded_ns.t1", "ns"),
    ("rs_ecc.resolve_us.t1", "us"),
    ("rs_ecc.classify_healthy_ns.t2", "ns"),
    ("rs_ecc.classify_degraded_ns.t2", "ns"),
    ("rs_ecc.resolve_us.t2", "us"),
    ("lifetime.ns_per_dimm_epoch.naive", "ns"),
    ("lifetime.ns_per_dimm_epoch.is", "ns"),
    ("lifetime.sharded_overhead_pct", "%"),
    ("lifetime.checkpoint_save_ms", "ms"),
    ("lifetime.checkpoint_load_ms", "ms"),
    ("lifetime.epochs", "count"),
    ("lifetime.erasure_reads", "count"),
    ("service.submit_ms", "ms"),
    ("service.cache_get_us", "us"),
    ("service.cache_put_ms", "ms"),
    ("service.serve_self_ms", "ms"),
    ("service.resume_p50_ms", "ms"),
    ("service.cache_hit_p50_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.resumed", "count"),
    ("service.retries", "count"),
    ("memsim.workload_ns_per_op", "ns"),
    ("memsim.system_ns_per_op", "ns"),
    ("memsim.cache_ns_per_access", "ns"),
    ("memsim.dram_ns_per_access", "ns"),
    ("memsim.llc_misses", "count"),
    ("memsim.dram_ops", "count"),
    ("memsim.metadata_dram_reads", "count"),
    ("memsim.metadata_cache_hit_ratio", "ratio"),
    ("bench.trace_overhead_s", "s"),
    ("bench.self_share.faultsim", "ratio"),
    ("bench.self_share.lifetime", "ratio"),
    ("bench.self_share.service", "ratio"),
    ("bench.self_share.memsim", "ratio"),
];

/// How much work a workload instance does: the measured size, or the
/// small probe that fills in layers a traced workload does not exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Probe,
}

/// Operation checks: every one counts as attempted, mismatches as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// One timed piece of a pass. Every pass is made of the same segments in
/// the same order, so segment `i` of each pass times the same work.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// `"op"` for the workload's unit operation, a secondary operation
    /// class (`"resume"`, `"cache_hit"`), or `"other"`.
    pub class: &'static str,
    pub wall: f64,
    pub cpu: f64,
    /// Simulated work behind `work_per_s` (0 for none).
    pub work: f64,
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct PassOut {
    pub segments: Vec<Segment>,
}

impl PassOut {
    /// Runs `f` as the pass's next segment.
    pub fn time<T>(&mut self, class: &'static str, work: f64, f: impl FnOnce() -> T) -> T {
        let (t0, c0) = (Instant::now(), host::cpu_time_s());
        let out = f();
        self.segments.push(Segment {
            class,
            wall: t0.elapsed().as_secs_f64(),
            cpu: host::cpu_time_s() - c0,
            work,
        });
        out
    }
}

/// Runs the benchmark's side of one workload: fixed work per pass, with
/// spans around every call into a layer.
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Name of the unit operation and of the work unit, for the report.
    fn op_name(&self) -> &'static str;
    fn work_name(&self) -> &'static str;
    /// Seconds one full pass takes on the reference host; fixes the pass
    /// count (and so the sample count) for a given `--seconds`.
    fn nominal_pass_s(&self) -> f64;
    /// Builds codes, tables and systems; repeated between passes, each
    /// time building the same state.
    fn setup(&mut self, rec: &mut Recorder);
    /// Untimed work the checks need (reference results).
    fn prepare(&mut self, rec: &mut Recorder, checks: &mut Checks);
    /// One pass of the fixed work, every output checked.
    fn pass(&mut self, rec: &mut Recorder, checks: &mut Checks) -> PassOut;
    /// Traced-only calls that time layers the pass reaches only inside
    /// the crates.
    fn layer_probe(&mut self, rec: &mut Recorder, checks: &mut Checks);
    /// Default-seed pins and the fidelity report (`sim.*` lines).
    fn finish(&mut self, checks: &mut Checks) -> Vec<String>;
    /// This workload's per-layer metrics, from its spans.
    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)>;
}

/// Derives a workload's input seed from the benchmark seed: the
/// canonical seed at [`DEFAULT_SEED`], an unrelated one elsewhere.
pub fn input_seed(canonical: u64, seed: u64) -> u64 {
    canonical ^ mix(seed) ^ mix(DEFAULT_SEED)
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const WORKLOADS: [&str; 3] = ["msed_sweep", "fleet_service", "memtag_figures"];

fn make(name: &str, size: Size, seed: u64, threads: usize, out: &Path) -> Box<dyn Workload> {
    match name {
        "msed_sweep" => Box::new(msed::MsedSweep::new(size, seed, threads)),
        "fleet_service" => Box::new(fleet::FleetService::new(size, seed, threads, out)),
        "memtag_figures" => Box::new(memtag::MemtagFigures::new(size, seed)),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from("perfbench").join("out");
    std::fs::create_dir_all(&out_dir).expect("create perfbench/out");
    let threads = host::logical_cores();

    println!("== perfbench {} seed={} ==", args.workload, args.seed);
    for line in host::stamp(threads) {
        println!("{line}");
    }
    let mut checks = Checks::default();
    let metrics = if args.trace {
        run_traced(&args, threads, &out_dir, &mut checks)
    } else {
        run_untraced(&args, threads, &out_dir, &mut checks)
    };
    println!(
        "error_rate          {:.6} ({} failed of {} checked operations)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    print_result(&checks, &metrics);
}

/// Repeats the workload's setup, at least once, until `budget` seconds
/// have gone into it; adds each repetition's seconds to `times`.
fn time_setup(wl: &mut dyn Workload, rec: &mut Recorder, budget: f64, times: &mut Vec<f64>) {
    let mut spent = 0.0;
    while spent == 0.0 || spent < budget {
        let t0 = Instant::now();
        wl.setup(rec);
        let secs = t0.elapsed().as_secs_f64();
        times.push(secs);
        spent += secs;
    }
}

fn passes_for(wl: &dyn Workload, seconds: f64) -> usize {
    ((seconds / wl.nominal_pass_s()).round() as usize).max(3)
}

/// Prints `name  median unit  (spread, n)` for a set of samples.
fn print_samples(name: &str, unit: &str, samples: &[f64]) {
    println!(
        "{name:<19} {:.6} {unit}  (IQR/median {:.3}, n={})",
        stats::median(samples),
        stats::spread(samples),
        samples.len()
    );
}

fn run_untraced(
    args: &Args,
    threads: usize,
    out_dir: &Path,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let mut wl = make(&args.workload, Size::Full, args.seed, threads, out_dir);
    let mut rec = Recorder::new(false);
    let pass_count = passes_for(wl.as_ref(), args.seconds);
    let setup_budget = SETUP_SECONDS / (pass_count + 1) as f64;
    let mut setups = Vec::new();
    time_setup(wl.as_mut(), &mut rec, setup_budget, &mut setups);
    wl.prepare(&mut rec, checks);

    let mut passes: Vec<Vec<Segment>> = Vec::new();
    for _ in 0..pass_count {
        let segments = wl.pass(&mut rec, checks).segments;
        time_setup(wl.as_mut(), &mut rec, setup_budget, &mut setups);
        checks.check(
            passes.first().is_none_or(|p| p.len() == segments.len()),
            || "passes differ in their segments".to_string(),
        );
        passes.push(segments);
    }
    let report = wl.finish(checks);
    let peak = host::peak_rss_mb();

    // A pass's time is estimated segment by segment: the sum over its
    // segments of each one's fastest time across passes. Interference from
    // the rest of the host only ever adds time, and it comes and goes on a
    // scale of seconds to minutes, so the fastest repetition of each piece
    // of work varies far less between runs than its median does.
    let column = |i: usize, f: fn(&Segment) -> f64| -> Vec<f64> {
        passes.iter().map(|p| f(&p[i])).collect()
    };
    let fastest = |f: fn(&Segment) -> f64| -> Vec<f64> {
        (0..passes[0].len())
            .map(|i| column(i, f).into_iter().fold(f64::INFINITY, f64::min))
            .collect()
    };
    let wall_fastest = fastest(|s| s.wall);
    let setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let wall: f64 = wall_fastest.iter().sum();
    let cpu: f64 = fastest(|s| s.cpu).iter().sum();
    let first = &passes[0];
    let work: f64 = first.iter().map(|s| s.work).sum();
    let work_secs: f64 = first
        .iter()
        .zip(&wall_fastest)
        .filter(|(s, _)| s.work > 0.0)
        .map(|(_, m)| m)
        .sum();
    let pass_walls: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|s| s.wall).sum())
        .collect();
    let mut latencies: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in passes.iter().flatten() {
        latencies.entry(s.class).or_default().push(s.wall * 1e3);
    }
    let ms = latencies.remove("op").unwrap_or_default();
    latencies.remove("other");
    let (tail_pct, tail_ms) = stats::tail(&ms);

    println!(
        "wall_s              {wall:.6} s  (sum of per-segment minima over {} passes)",
        passes.len()
    );
    print_samples("pass wall_s", "s", &pass_walls);
    println!("cpu_s               {cpu:.6} s  (sum of per-segment minima)");
    println!(
        "setup_s             {setup:.6} s  (fastest of n={}; median {:.6} s)",
        setups.len(),
        stats::median(&setups)
    );
    println!("peak_rss_mb         {peak:.3} MB");
    println!(
        "{:<19} {:.6e} 1/s  (work_per_s)",
        wl.work_name(),
        work / work_secs
    );
    print_samples(&format!("{}_p50_ms", wl.op_name()), "ms", &ms);
    println!(
        "{}_tail_ms{:<6} {tail_ms:.6} ms  (p{tail_pct} of n={})",
        wl.op_name(),
        "",
        ms.len()
    );
    for (class, ms) in &latencies {
        print_samples(&format!("{class}_p50_ms"), "ms", ms);
    }
    for line in report {
        println!("{line}");
    }
    vec![
        ("wall_s", wall),
        ("cpu_s", cpu),
        ("setup_s", setup),
        ("peak_rss_mb", peak),
        ("work_per_s", work / work_secs),
        ("op_p50_ms", stats::median(&ms)),
        ("op_tail_ms", tail_ms),
    ]
}

fn run_traced(
    args: &Args,
    threads: usize,
    out_dir: &Path,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let mut wl = make(&args.workload, Size::Full, args.seed, threads, out_dir);
    let mut rec = Recorder::new(true);
    rec.set_workload(wl.name());
    wl.setup(&mut rec);
    wl.prepare(&mut rec, checks);

    // Untraced and traced passes alternate.
    let pairs = (passes_for(wl.as_ref(), args.seconds) / 2).max(2);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        for (enabled, walls) in [(false, &mut untraced), (true, &mut traced)] {
            rec.set_enabled(enabled);
            let segments = wl.pass(&mut rec, checks).segments;
            walls.push(segments.iter().map(|s| s.wall).sum::<f64>());
        }
    }
    let overhead = stats::median(&traced) - stats::median(&untraced);
    wl.layer_probe(&mut rec, checks);
    let report = wl.finish(checks);

    // Self time by layer over the traced passes.
    let self_ns = rec.self_ns_by_layer(wl.name(), "bench.workload");
    let total_ns: u64 = self_ns.values().sum();
    let share = |layer: &str| *self_ns.get(layer).unwrap_or(&0) as f64 / total_ns.max(1) as f64;

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    rec.set_workload("classify");
    metrics.extend(classify::measure(&mut rec, args.seed, checks));
    for other in WORKLOADS.iter().filter(|&&w| w != wl.name()) {
        let mut probe = make(other, Size::Probe, args.seed, threads, out_dir);
        rec.set_workload(probe.name());
        probe.setup(&mut rec);
        probe.prepare(&mut rec, checks);
        probe.pass(&mut rec, checks);
        probe.layer_probe(&mut rec, checks);
        metrics.extend(probe.layer_metrics(&rec));
    }
    metrics.extend(wl.layer_metrics(&rec));
    metrics.insert("bench.trace_overhead_s", overhead);
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_prefix("bench.self_share.") {
            metrics.insert(name, share(layer));
        }
    }

    println!(
        "traced passes       {} (+{} untraced)",
        traced.len(),
        untraced.len()
    );
    print_samples("traced wall_s", "s", &traced);
    print_samples("untraced wall_s", "s", &untraced);
    println!("trace_overhead_s    {overhead:.6} s");
    println!("self time by layer ({}):", wl.name());
    for (layer, ns) in &self_ns {
        println!(
            "  {layer:<12} {:>10.3} ms  {:>6.2}%",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total_ns.max(1) as f64
        );
    }
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", wl.name(), args.seed));
    if let Err(e) = rec.write_jsonl(&spans_path) {
        checks.check(false, || format!("writing {}: {e}", spans_path.display()));
    } else {
        println!("spans               {}", spans_path.display());
    }
    for line in report {
        println!("{line}");
    }
    let own: Vec<&str> = wl.layer_metrics(&rec).iter().map(|(n, _)| *n).collect();
    let source = |name: &str| {
        if own.contains(&name) || name.starts_with("bench.") {
            wl.name()
        } else if name.starts_with("muse_core.") || name.starts_with("rs_ecc.") {
            "classify"
        } else {
            "probe"
        }
    };
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = metrics.remove(name);
        checks.check(value.is_some(), || {
            format!("per-layer metric {name} missing")
        });
        let value = value.unwrap_or(0.0);
        println!("{name:<40} {value:>16.6} {unit:<6} [{}]", source(name));
        out.push((name, value));
    }
    checks.check(metrics.is_empty(), || {
        format!("unlisted per-layer metrics {:?}", metrics.keys())
    });
    out
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every reported metric is listed")
}

/// The final line: the machine-readable result.
fn print_result(checks: &Checks, metrics: &[(&'static str, f64)]) {
    let mut checks_ok = checks.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            let value = if value.is_finite() {
                value
            } else {
                checks_ok = false;
                eprintln!("metric {name} is not finite");
                0.0
            };
            format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {checks_ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
}
