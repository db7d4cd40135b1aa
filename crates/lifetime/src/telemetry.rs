//! Observability hooks for the sharded supervisor.
//!
//! A [`FleetTelemetry`] bundles everything
//! [`run_sharded_with`](crate::run_sharded_with) may report through:
//! a `muse-trace/v1` [`Tracer`], a [`Metrics`] registry (plus an optional
//! textfile path snapshotted after every shard), a warning callback
//! (shard retries, corruption fallbacks), and a heartbeat callback fed
//! [`ProgressSnapshot`]s. Every hook is optional and **strictly
//! observational**: nothing here touches an RNG stream or a tally, so
//! runs with telemetry enabled stay bit-identical to runs without it
//! (`tests/telemetry.rs` enforces this at 1 and 4 threads).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use muse_telemetry::{Counter, Gauge, Histogram, Metrics, ProgressSnapshot, Tracer};

use crate::estimator::EXTRA_P_CAP;
use crate::{Estimator, FleetConfig, LifetimeTally};

/// Callback invoked with one warning line (shard retry, corruption
/// fallback).
pub type WarnFn<'a> = dyn Fn(&str) + 'a;

/// Callback invoked with each progress heartbeat.
pub type HeartbeatFn<'a> = dyn Fn(&ProgressSnapshot) + 'a;

/// Observability sinks for one sharded run. All fields optional;
/// [`FleetTelemetry::default`] observes nothing.
#[derive(Default)]
pub struct FleetTelemetry<'a> {
    /// Structured `muse-trace/v1` event sink.
    pub tracer: Option<&'a Tracer>,
    /// Metrics registry to record counters/histograms into.
    pub metrics: Option<&'a Metrics>,
    /// Snapshot the registry to this Prometheus textfile after every
    /// shard and at run end (requires [`Self::metrics`]).
    pub metrics_path: Option<PathBuf>,
    /// Run label used in trace events and heartbeat lines (e.g. the
    /// `code@env` cell prefix).
    pub label: String,
    /// Warning sink (shard retries, checkpoint corruption fallbacks).
    pub warn: Option<Box<WarnFn<'a>>>,
    /// Heartbeat sink, called after every completed shard.
    pub heartbeat: Option<Box<HeartbeatFn<'a>>>,
}

impl std::fmt::Debug for FleetTelemetry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTelemetry")
            .field("tracer", &self.tracer.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("metrics_path", &self.metrics_path)
            .field("label", &self.label)
            .field("warn", &self.warn.is_some())
            .field("heartbeat", &self.heartbeat.is_some())
            .finish()
    }
}

impl<'a> FleetTelemetry<'a> {
    /// A telemetry bundle that observes nothing (what plain
    /// [`run_sharded`](crate::run_sharded) uses).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Emits one warning line, if a sink is attached.
    pub(crate) fn warn(&self, line: &str) {
        if let Some(warn) = &self.warn {
            warn(line);
        }
    }

    /// Trace events dropped so far (0 without a tracer).
    pub(crate) fn dropped_events(&self) -> u64 {
        self.tracer.map_or(0, |t| t.dropped())
    }

    /// Trace-sink write errors so far (0 without a tracer).
    pub(crate) fn io_errors(&self) -> u64 {
        self.tracer.map_or(0, |t| t.io_errors())
    }

    /// Writes the metrics textfile snapshot, when configured. Snapshot
    /// failures are reported as warnings, never as run failures; the
    /// `false` return lets the supervisor bump its `io_errors` counter
    /// so the loss is visible in the metrics themselves.
    pub(crate) fn snapshot_metrics(&self) -> bool {
        if let (Some(metrics), Some(path)) = (self.metrics, &self.metrics_path) {
            if let Err(e) = metrics.write_textfile(path) {
                self.warn(&format!(
                    "warning: metrics snapshot to {} failed: {e}",
                    path.display()
                ));
                return false;
            }
        }
        true
    }
}

/// The supervisor's instruments, resolved once per run from the registry
/// (resolution takes the registry lock; the instruments themselves are
/// lock-free).
pub(crate) struct RunInstruments {
    pub shards_completed: Arc<Counter>,
    pub shard_retries: Arc<Counter>,
    pub io_errors: Arc<Counter>,
    pub checkpoint_writes: Arc<Counter>,
    pub dimms_simulated: Arc<Counter>,
    pub sim_trials: Arc<Counter>,
    pub due_events: Arc<Counter>,
    pub sdc_events: Arc<Counter>,
    pub shard_wall_ms: Arc<Histogram>,
    pub checkpoint_write_ms: Arc<Histogram>,
    pub trials_per_sec: Arc<Gauge>,
    pub machine_years: Arc<Gauge>,
    pub due_weighted_sum: Arc<Gauge>,
    pub sdc_weighted_sum: Arc<Gauge>,
    pub trace_dropped: Arc<Gauge>,
    pub trace_io_errors: Arc<Gauge>,
}

impl RunInstruments {
    pub fn resolve(metrics: &Metrics) -> Self {
        Self {
            shards_completed: metrics.counter(
                "muse_lifetime_shards_completed_total",
                "Shards completed by the sharded supervisor",
            ),
            shard_retries: metrics.counter(
                "muse_lifetime_shard_retries_total",
                "Shard attempts that failed and were retried",
            ),
            io_errors: metrics.counter(
                "muse_io_errors_total",
                "Telemetry-writer I/O errors (metrics snapshots that failed to land)",
            ),
            checkpoint_writes: metrics.counter(
                "muse_lifetime_checkpoint_writes_total",
                "Checkpoint generations durably written",
            ),
            dimms_simulated: metrics.counter(
                "muse_lifetime_dimms_simulated_total",
                "DIMM lifetimes simulated by completed shards",
            ),
            sim_trials: metrics.counter(
                "muse_sim_trials_total",
                "Monte-Carlo trials completed by the simulation engine",
            ),
            due_events: metrics.counter(
                "muse_lifetime_due_events_total",
                "Detected-uncorrectable events (word DUEs plus data-loss events)",
            ),
            sdc_events: metrics.counter(
                "muse_lifetime_sdc_events_total",
                "Silent-data-corruption words observed",
            ),
            shard_wall_ms: metrics.histogram(
                "muse_lifetime_shard_wall_ms",
                "Wall-clock per completed shard, milliseconds",
            ),
            checkpoint_write_ms: metrics.histogram(
                "muse_lifetime_checkpoint_write_ms",
                "Checkpoint write+rename latency, milliseconds",
            ),
            trials_per_sec: metrics.gauge(
                "muse_sim_trials_per_second",
                "DIMM-epochs per second simulated by the last committed shard",
            ),
            machine_years: metrics.gauge(
                "muse_lifetime_machine_years",
                "Machine-years covered by completed shards",
            ),
            due_weighted_sum: metrics.gauge(
                "muse_lifetime_due_weighted_sum",
                "Likelihood-weighted DUE total of completed shards",
            ),
            sdc_weighted_sum: metrics.gauge(
                "muse_lifetime_sdc_weighted_sum",
                "Likelihood-weighted SDC total of completed shards",
            ),
            trace_dropped: metrics.gauge(
                "muse_trace_dropped_events",
                "Trace events dropped under backpressure this run",
            ),
            trace_io_errors: metrics.gauge(
                "muse_trace_io_errors",
                "Trace-sink write errors this run (events lost to a failing sink)",
            ),
        }
    }
}

/// The biased arrival channels whose requested inflation exceeds
/// [`EXTRA_P_CAP`]: `(channel, requested_bias, cap)` triples ready for
/// `weight_cap_saturated` events. Empty under the naive estimator.
pub(crate) fn saturated_channels(
    arrivals: &[(&'static str, f64)],
    estimator: Estimator,
) -> Vec<(&'static str, f64, f64)> {
    match estimator {
        Estimator::Naive => Vec::new(),
        Estimator::Importance { bias } => arrivals
            .iter()
            .filter(|&&(_, p)| (bias - 1.0) * p > EXTRA_P_CAP)
            .map(|&(name, _)| (name, bias, EXTRA_P_CAP))
            .collect(),
    }
}

/// The 95% CI half-widths `(due, sdc)` per machine-year of a partial
/// tally over `dimms_done` DIMMs — the live convergence signal of the
/// heartbeat (a future "run until CI < target" stopping rule reads the
/// same numbers).
pub(crate) fn ci_half_widths(
    config: &FleetConfig,
    tally: &LifetimeTally,
    dimms_done: u64,
) -> (f64, f64) {
    let machine_years = dimms_done as f64 * config.years / f64::from(config.dimms_per_machine);
    if machine_years <= 0.0 {
        return (f64::INFINITY, f64::INFINITY);
    }
    let (due, sdc) = tally.rate_estimates(config.estimator, dimms_done, machine_years);
    ((due.hi - due.lo) / 2.0, (sdc.hi - sdc.lo) / 2.0)
}

/// Standard per-cell trace/metrics label: `<code>@<env>` with whitespace
/// collapsed — also used as the heartbeat prefix.
pub fn cell_label(code: &str, env: &str) -> String {
    format!("{}@{}", code.replace(' ', ""), env)
}

/// Duration in whole milliseconds, saturating.
pub(crate) fn elapsed_ms(since: std::time::Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// `true` when `path`'s parent directory exists (used to fail fast on
/// metrics/trace paths before a long run starts).
pub fn parent_exists(path: &Path) -> bool {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.is_dir(),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_flags_only_clipped_channels() {
        let arrivals = [("single", 0.2), ("multi", 1e-6), ("whole", 0.4)];
        assert!(saturated_channels(&arrivals, Estimator::Naive).is_empty());
        // bias 4: extra p = 3·p → single 0.6 > 0.5 (clipped), multi tiny,
        // whole 1.2 > 0.5 (clipped).
        let sat = saturated_channels(&arrivals, Estimator::importance(4.0));
        assert_eq!(sat.len(), 2);
        assert_eq!(sat[0].0, "single");
        assert_eq!(sat[1].0, "whole");
        assert_eq!(sat[0].2, EXTRA_P_CAP);
        // bias 1.0 never saturates anything.
        assert!(saturated_channels(&arrivals, Estimator::importance(1.0)).is_empty());
    }

    #[test]
    fn ci_half_widths_shrink_with_coverage() {
        let config = FleetConfig {
            dimms: 1000,
            years: 1.0,
            dimms_per_machine: 4,
            ..FleetConfig::default()
        };
        let tally = LifetimeTally {
            due_words: 40,
            sdc_words: 4,
            ..LifetimeTally::default()
        };
        let (due_early, sdc_early) = ci_half_widths(&config, &tally, 100);
        let (due_late, sdc_late) = ci_half_widths(&config, &tally, 1000);
        assert!(due_late < due_early, "{due_late} !< {due_early}");
        assert!(sdc_late < sdc_early);
        // Zero coverage: no estimate yet.
        let (due, _) = ci_half_widths(&config, &tally, 0);
        assert!(due.is_infinite());
    }

    /// At full coverage the heartbeat's half-widths are the final
    /// report's `(hi − lo) / 2`, under both estimators.
    #[test]
    fn ci_half_widths_match_the_report_at_full_coverage() {
        let code = crate::FleetCode::muse(muse_core::presets::muse_144_132());
        let env = crate::transient_dominant();
        let mut weighted = crate::WeightedCount::default();
        for w in [0.5, 2.0, 0.25] {
            weighted.push(w);
        }
        let tally = LifetimeTally {
            due_words: 40,
            data_loss_events: 3,
            sdc_words: 4,
            due_weighted: weighted,
            sdc_weighted: weighted,
            ..LifetimeTally::default()
        };
        for estimator in [Estimator::Naive, Estimator::importance(16.0)] {
            let config = FleetConfig {
                dimms: 1000,
                years: 2.0,
                dimms_per_machine: 4,
                estimator,
                ..FleetConfig::default()
            };
            let report = crate::LifetimeReport::from_tally(&code, &env, &config, tally);
            let half = |r: crate::RateEstimate| (r.hi - r.lo) / 2.0;
            assert_eq!(
                ci_half_widths(&config, &tally, config.dimms),
                (half(report.due_estimate), half(report.sdc_estimate)),
                "{estimator:?}"
            );
        }
    }

    #[test]
    fn labels_are_whitespace_free() {
        assert_eq!(
            cell_label("RS(144,128) t=1", "smoke"),
            "RS(144,128)t=1@smoke"
        );
    }
}
