//! Lock-free metrics registry with Prometheus textfile export.
//!
//! Three instrument kinds, all backed by atomics so the hot path never
//! takes a lock: [`Counter`] (monotone u64), [`Gauge`] (f64 stored as
//! bits), and [`Histogram`] (fixed log2 buckets over u64 observations).
//! A [`Metrics`] registry hands out `Arc`-shared instruments by name and
//! renders the whole set in Prometheus text exposition format, either to a
//! string or atomically to a textfile (`*.prom`) via temp-file + rename.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets in a [`Histogram`]: bucket `i` counts
/// observations with `value < 2^i`, plus an overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log2 histogram over `u64` observations.
///
/// Bucket boundaries are `1, 2, 4, …, 2^31`, with one final `+Inf`
/// bucket, which keeps `observe` allocation- and branch-cheap: the bucket
/// index is just the bit length of the value.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        // Bit length: 0 -> bucket 0 (< 1 is impossible for u64 except 0,
        // which lands in "< 1"), value in [2^(i-1), 2^i) -> bucket i.
        let idx = (u64::BITS - value.leading_zeros()).min(HISTOGRAM_BUCKETS as u32) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-cumulative bucket counts (`buckets()[i]` counts observations in
    /// `[2^(i-1), 2^i)`; index 0 counts zeros; the last index overflows).
    pub fn buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The instrument kinds a registry can hold.
#[derive(Debug)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of instruments, renderable as Prometheus text.
#[derive(Debug, Default)]
pub struct Metrics {
    // The map is only locked at registration and render time, never on the
    // instrument hot path (callers hold `Arc<Counter>` etc. directly).
    inner: Mutex<BTreeMap<String, (String, Instrument)>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it (with `help`) on
    /// first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        let mut map = self.inner.lock().unwrap();
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Instrument::Counter(Arc::default())));
        match &entry.1 {
            Instrument::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is a {}, not a counter", other.type_name()),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut map = self.inner.lock().unwrap();
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Instrument::Gauge(Arc::default())));
        match &entry.1 {
            Instrument::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is a {}, not a gauge", other.type_name()),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut map = self.inner.lock().unwrap();
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Instrument::Histogram(Arc::default())));
        match &entry.1 {
            Instrument::Histogram(h) => Arc::clone(h),
            other => panic!(
                "metric {name:?} is a {}, not a histogram",
                other.type_name()
            ),
        }
    }

    /// Renders every instrument in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers; histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let map = self.inner.lock().unwrap();
        let mut out = String::new();
        for (name, (help, instrument)) in map.iter() {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {}", instrument.type_name());
            match instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let v = g.get();
                    if v.is_finite() {
                        let _ = writeln!(out, "{name} {v:?}");
                    } else {
                        let _ = writeln!(out, "{name} NaN");
                    }
                }
                Instrument::Histogram(h) => {
                    let buckets = h.buckets();
                    let mut cumulative = 0u64;
                    for (i, count) in buckets.iter().enumerate() {
                        cumulative += count;
                        if i < HISTOGRAM_BUCKETS {
                            let le = 1u64 << i;
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                        } else {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// Atomically writes the rendered metrics to `path` (textfile-collector
    /// style: write to a sibling temp file, then rename into place).
    pub fn write_textfile(&self, path: &Path) -> std::io::Result<()> {
        let rendered = self.render();
        let tmp = path.with_extension("prom.tmp");
        std::fs::write(&tmp, rendered)?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_basics() {
        let m = Metrics::new();
        let c = m.counter("muse_test_total", "test counter");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Same name returns the same underlying counter.
        assert_eq!(m.counter("muse_test_total", "ignored").get(), 42);

        let g = m.gauge("muse_test_ratio", "test gauge");
        g.set(0.25);
        assert_eq!(g.get(), 0.25);

        let h = m.histogram("muse_test_ms", "test histogram");
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(1 + 2 + 3 + 4 + 1000)
                .wrapping_add(u64::MAX)
        );
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1); // the zero
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[3], 1); // 4
        assert_eq!(buckets[10], 1); // 1000 in [512, 1024)
        assert_eq!(buckets[HISTOGRAM_BUCKETS], 1); // u64::MAX overflow
    }

    #[test]
    fn render_is_valid_prometheus_text() {
        let m = Metrics::new();
        m.counter("muse_events_total", "Total events").add(3);
        m.gauge("muse_progress", "Fraction done").set(0.5);
        let h = m.histogram("muse_wall_ms", "Wall clock");
        h.observe(5);
        h.observe(100);
        let text = m.render();
        assert!(text.contains("# HELP muse_events_total Total events\n"));
        assert!(text.contains("# TYPE muse_events_total counter\n"));
        assert!(
            text.contains("\nmuse_events_total 3\n")
                || text.starts_with("muse_events_total 3\n")
                || text.contains("muse_events_total 3\n")
        );
        assert!(text.contains("# TYPE muse_wall_ms histogram\n"));
        assert!(text.contains("muse_wall_ms_bucket{le=\"8\"} 1\n"));
        assert!(text.contains("muse_wall_ms_bucket{le=\"128\"} 2\n"));
        assert!(text.contains("muse_wall_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("muse_wall_ms_sum 105\n"));
        assert!(text.contains("muse_wall_ms_count 2\n"));
        // Cumulative buckets must be monotone.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("muse_wall_ms_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket series not cumulative: {line}");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let m = Metrics::new();
        m.counter("muse_thing", "a counter");
        m.gauge("muse_thing", "now a gauge?");
    }

    #[test]
    fn textfile_write_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("muse-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let m = Metrics::new();
        m.counter("muse_x_total", "x").add(7);
        m.write_textfile(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("muse_x_total 7\n"));
        assert!(!dir.join("metrics.prom.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
