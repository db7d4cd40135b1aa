//! In-memory span recorder for the traced run.
//!
//! A span wraps one call from the benchmark into a layer's public API
//! (`faultsim.*`, `muse_core.*`, `lifetime.*`, `service.*`, ...). The
//! layer is the name's first dot-separated component. Spans nest through
//! a parent stack, are kept in memory, and are written out as JSON lines
//! when the run ends. A disabled recorder runs the wrapped calls without
//! reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units the call performed (trials, reads, DIMM-epochs, ...).
    pub units: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span totals for one name: summed duration, units and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    pub ns: u64,
    pub units: u64,
    pub calls: u64,
}

impl Total {
    /// Nanoseconds per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        self.ns as f64 / self.units.max(1) as f64
    }

    /// Mean milliseconds per call.
    pub fn ms_per_call(&self) -> f64 {
        self.ns as f64 / 1e6 / self.calls.max(1) as f64
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            workload: "",
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags every following span with `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` that did `units` of work.
    pub fn span<T>(&mut self, name: &'static str, units: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            workload: self.workload,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            units,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Spans of `workload`.
    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.workload == workload)
    }

    fn sum<'a>(spans: impl Iterator<Item = &'a Span>) -> Total {
        spans.fold(Total::default(), |t, s| Total {
            ns: t.ns + s.ns(),
            units: t.units + s.units,
            calls: t.calls + 1,
        })
    }

    /// Totals of the spans named `name` in `workload`.
    pub fn total(&self, workload: &str, name: &str) -> Total {
        Self::sum(self.of(workload).filter(|s| s.name == name))
    }

    /// Totals of the spans named `name` whose parent is named `parent`.
    pub fn total_under(&self, workload: &str, parent: &str, name: &str) -> Total {
        Self::sum(
            self.of(workload).filter(|s| {
                s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent)
            }),
        )
    }

    /// Durations in seconds of each span named `name` in `workload`.
    pub fn durations_s(&self, workload: &str, name: &str) -> Vec<f64> {
        self.of(workload)
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 * 1e-9)
            .collect()
    }

    /// Self time per layer in `workload`, over the spans named `root` and
    /// their descendants: each span's duration minus the time its child
    /// spans cover (children run inside their parent, one at a time).
    pub fn self_ns_by_layer(&self, workload: &str, root: &str) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // A parent is recorded before its children, so one forward sweep
        // marks every descendant of a root.
        let mut under = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
            under[i] = s.name == root || s.parent.is_some_and(|p| under[p]);
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.workload == workload && under[i] {
                *out.entry(s.layer()).or_insert(0) += s.ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"units\": {}}}",
                s.name, s.workload, s.start_ns, s.end_ns, s.units
            )?;
        }
        out.flush()
    }
}
