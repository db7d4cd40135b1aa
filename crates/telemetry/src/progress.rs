//! Live progress/heartbeat rendering for long fleet runs.

/// A point-in-time snapshot of a sharded run, renderable as one
/// heartbeat line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Run label (e.g. the `code@env` cell prefix).
    pub label: String,
    /// Shards complete.
    pub shards_done: u32,
    /// Total shards in the plan.
    pub total_shards: u32,
    /// Machine-years simulated so far.
    pub machine_years_done: f64,
    /// Machine-years the full plan covers.
    pub machine_years_total: f64,
    /// Estimated milliseconds remaining (`None` until one shard finishes).
    pub eta_ms: Option<u64>,
    /// Current 95% CI half-width of the DUE rate, per machine-year.
    pub due_ci_half: f64,
    /// Current 95% CI half-width of the SDC rate, per machine-year.
    pub sdc_ci_half: f64,
    /// Trace events dropped so far (0 unless backpressure hit).
    pub dropped_events: u64,
}

impl ProgressSnapshot {
    /// Renders the one-line heartbeat, e.g.
    ///
    /// ```text
    /// [rs64@ddr5] 3/8 shards · 750.2/2000.0 machine-years · ETA 12.3s · 95% CI half-width DUE 1.5e-3 SDC 2.5e-4 /machine-year
    /// ```
    pub fn render(&self) -> String {
        let eta = match self.eta_ms {
            Some(ms) => format!(" · ETA {}", render_duration_ms(ms)),
            None => String::new(),
        };
        let dropped = if self.dropped_events > 0 {
            format!(" · {} trace events dropped", self.dropped_events)
        } else {
            String::new()
        };
        format!(
            "[{}] {}/{} shards · {:.1}/{:.1} machine-years{} · 95% CI half-width DUE {:.1e} SDC {:.1e} /machine-year{}",
            self.label,
            self.shards_done,
            self.total_shards,
            self.machine_years_done,
            self.machine_years_total,
            eta,
            self.due_ci_half,
            self.sdc_ci_half,
            dropped,
        )
    }
}

/// Formats a millisecond duration compactly (`850ms`, `12.3s`, `4m08s`,
/// `2h05m`).
pub fn render_duration_ms(ms: u64) -> String {
    if ms < 1_000 {
        format!("{ms}ms")
    } else if ms < 60_000 {
        format!("{:.1}s", ms as f64 / 1000.0)
    } else if ms < 3_600_000 {
        let mins = ms / 60_000;
        let secs = (ms % 60_000) / 1000;
        format!("{mins}m{secs:02}s")
    } else {
        let hours = ms / 3_600_000;
        let mins = (ms % 3_600_000) / 60_000;
        format!("{hours}h{mins:02}m")
    }
}

/// Estimates remaining milliseconds from elapsed time and completed/total
/// work.  Returns `None` until any work completes.
pub fn estimate_eta_ms(elapsed_ms: u64, done: u64, total: u64) -> Option<u64> {
    if done == 0 || total <= done {
        return if total <= done { Some(0) } else { None };
    }
    let per_unit = elapsed_ms as f64 / done as f64;
    Some((per_unit * (total - done) as f64).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_render_compactly() {
        assert_eq!(render_duration_ms(850), "850ms");
        assert_eq!(render_duration_ms(12_340), "12.3s");
        assert_eq!(render_duration_ms(248_000), "4m08s");
        assert_eq!(render_duration_ms(7_500_000), "2h05m");
    }

    #[test]
    fn eta_is_proportional_to_remaining_work() {
        assert_eq!(estimate_eta_ms(1000, 0, 8), None);
        assert_eq!(estimate_eta_ms(1000, 2, 8), Some(3000));
        assert_eq!(estimate_eta_ms(1000, 8, 8), Some(0));
        assert_eq!(estimate_eta_ms(1000, 9, 8), Some(0));
    }

    #[test]
    fn heartbeat_line_mentions_the_essentials() {
        let snap = ProgressSnapshot {
            label: "rs64@ddr5".into(),
            shards_done: 3,
            total_shards: 8,
            machine_years_done: 750.25,
            machine_years_total: 2000.0,
            eta_ms: Some(12_340),
            due_ci_half: 1.5e-3,
            sdc_ci_half: 2.5e-4,
            dropped_events: 0,
        };
        let line = snap.render();
        assert!(line.contains("[rs64@ddr5]"), "{line}");
        assert!(line.contains("3/8 shards"), "{line}");
        assert!(line.contains("750.2/2000.0 machine-years"), "{line}");
        assert!(line.contains("ETA 12.3s"), "{line}");
        assert!(line.contains("DUE 1.5e-3"), "{line}");
        assert!(line.contains("SDC 2.5e-4"), "{line}");
        assert!(!line.contains("dropped"), "{line}");

        let noisy = ProgressSnapshot {
            dropped_events: 4,
            eta_ms: None,
            ..snap
        };
        let line = noisy.render();
        assert!(line.contains("4 trace events dropped"), "{line}");
        assert!(!line.contains("ETA"), "{line}");
    }
}
