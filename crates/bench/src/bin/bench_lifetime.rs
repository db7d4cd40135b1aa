//! Machine-readable fleet-lifetime rate snapshot.
//!
//! Runs the full scenario matrix at the default fleet configuration —
//! once with the naive estimator and once with importance sampling (16x)
//! — prints the table, and writes `BENCH_lifetime.json` (schema
//! `lifetime-bench/v5`, field reference in the `muse-bench` crate docs).
//! Every scenario row carries its estimator, 95% confidence intervals,
//! and a rendered rate string that reports zero observed events as the
//! rule-of-three upper bound rather than a bare zero.
//!
//! The file is deterministic — bit-identical at any worker count, on any
//! host — so CI regenerates it and diffs it against the committed copy.
//! Speed is measured elsewhere (`perfbench/`, declared in
//! `BENCHMARK.json`).
//!
//! Usage: `cargo run --release -p muse-bench --bin bench_lifetime`.

use muse_lifetime::{Estimator, FleetConfig, LifetimeReport};

fn scenario_json(r: &LifetimeReport) -> String {
    format!(
        concat!(
            "    {{\"code\": \"{}\", \"environment\": \"{}\", ",
            "\"machine_years\": {:.1}, ",
            "\"estimator\": \"{}\", \"bias\": {}, ",
            "\"due_per_machine_year\": {:.6e}, \"due_events\": {}, ",
            "\"due_ci95\": [{:.6e}, {:.6e}], \"due_display\": \"{}\", ",
            "\"sdc_per_machine_year\": {:.6e}, \"sdc_events\": {}, ",
            "\"sdc_ci95\": [{:.6e}, {:.6e}], \"sdc_display\": \"{}\", ",
            "\"repairs_per_machine_year\": {:.6}, \"degraded_fraction\": {:.6}, ",
            "\"erasure_reads\": {}, \"data_loss_events\": {}}}"
        ),
        r.code,
        r.environment,
        r.machine_years,
        r.estimator.name(),
        r.estimator.bias(),
        r.due_estimate.mean,
        r.due_estimate.events,
        r.due_estimate.lo,
        r.due_estimate.hi,
        r.due_estimate.render(),
        r.sdc_estimate.mean,
        r.sdc_estimate.events,
        r.sdc_estimate.lo,
        r.sdc_estimate.hi,
        r.sdc_estimate.render(),
        r.repairs_per_machine_year,
        r.degraded_fraction,
        r.tally.erasure_reads,
        r.tally.data_loss_events,
    )
}

fn main() {
    // The full code x environment grid, once with the naive counter and
    // once with importance sampling (16x inflation), so the snapshot always
    // contains SDC rows with usable error bars.
    let config = FleetConfig::default();
    let mut reports = muse_lifetime::run_matrix(&config);
    reports.extend(muse_lifetime::run_matrix(&FleetConfig {
        estimator: Estimator::importance(16.0),
        ..config
    }));
    println!(
        "{:<16} {:<21} {:>6} {:>22} {:>22} {:>9}",
        "code", "environment", "est", "DUE/m-yr [95% CI]", "SDC/m-yr [95% CI]", "degraded"
    );
    for r in &reports {
        println!(
            "{:<16} {:<21} {:>6} {:>22} {:>22} {:>8.2}%",
            r.code,
            r.environment,
            r.estimator.name(),
            r.due_estimate.render(),
            r.sdc_estimate.render(),
            100.0 * r.degraded_fraction
        );
    }

    let fleet = format!(
        concat!(
            "{{\"dimms\": {}, \"years\": {}, ",
            "\"scrub_interval_hours\": {}, \"spares_per_dimm\": {}, ",
            "\"dimms_per_machine\": {}}}"
        ),
        config.dimms,
        config.years,
        config.scrub_interval_hours,
        config.spares_per_dimm,
        config.dimms_per_machine,
    );
    let body: Vec<String> = reports.iter().map(scenario_json).collect();
    let json = format!(
        "{{\n  \"schema\": \"lifetime-bench/v5\",\n  \"fleet\": {fleet},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write("BENCH_lifetime.json", json).expect("write BENCH_lifetime.json");
    println!("\nwrote BENCH_lifetime.json");
}
