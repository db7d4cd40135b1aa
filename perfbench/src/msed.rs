//! `msed_sweep`: the Table IV Monte-Carlo cells through `muse_msed` and
//! `rs_msed`, at one worker thread per logical core.

use muse_core::{presets, MuseCode};
use muse_faultsim::{muse_msed, rs_msed, MsedConfig, MsedStats, RsDetectMode};
use muse_rs::RsMemoryCode;

use crate::spans::Recorder;
use crate::{input_seed, pins, Checks, PassOut, Size, Workload, DEFAULT_SEED};

/// Trials per cell per pass.
const TRIALS_FULL: u64 = 1_000_000;
const TRIALS_PROBE: u64 = 200_000;

enum Code {
    Muse(Box<MuseCode>),
    Rs(RsMemoryCode),
}

struct Cell {
    /// Cell name; also the suffix of its per-layer metric.
    name: &'static str,
    /// Span around the cell's `muse_msed`/`rs_msed` call.
    span: &'static str,
    metric: &'static str,
    code: Code,
    failing_devices: usize,
    /// Table IV's detection rate, where the paper gives one.
    paper_pct: Option<f64>,
}

impl Cell {
    fn run(&self, config: MsedConfig) -> MsedStats {
        match &self.code {
            Code::Muse(code) => muse_msed(code, config),
            Code::Rs(code) => rs_msed(code, 4, RsDetectMode::DeviceConfined, config),
        }
    }
}

fn cells() -> Vec<Cell> {
    let rs = |t| RsMemoryCode::new(8, 144, t).expect("RS(144,*) geometry");
    let cell = |name, span, metric, code, failing_devices, paper_pct| Cell {
        name,
        span,
        metric,
        code,
        failing_devices,
        paper_pct,
    };
    vec![
        cell(
            "muse_144_132_k2",
            "faultsim.msed.muse_144_132_k2",
            "faultsim.ns_per_trial.muse_144_132_k2",
            Code::Muse(Box::new(presets::muse_144_132())),
            2,
            Some(86.71),
        ),
        cell(
            "muse_268_256_k2",
            "faultsim.msed.muse_268_256_k2",
            "faultsim.ns_per_trial.muse_268_256_k2",
            Code::Muse(Box::new(presets::muse_268_256())),
            2,
            None,
        ),
        // Interleaved layout: the lane kernel refuses it, so this cell
        // takes the scalar columnar route.
        cell(
            "muse_80_67_k2",
            "faultsim.msed.muse_80_67_k2",
            "faultsim.ns_per_trial.muse_80_67_k2",
            Code::Muse(Box::new(presets::muse_80_67())),
            2,
            None,
        ),
        // k = 3: the per-strike columnar route.
        cell(
            "muse_144_132_k3",
            "faultsim.msed.muse_144_132_k3",
            "faultsim.ns_per_trial.muse_144_132_k3",
            Code::Muse(Box::new(presets::muse_144_132())),
            3,
            None,
        ),
        cell(
            "rs_144_128_t1",
            "faultsim.msed.rs_144_128_t1",
            "faultsim.ns_per_trial.rs_144_128_t1",
            Code::Rs(rs(1)),
            2,
            Some(99.36),
        ),
        cell(
            "rs_144_112_t2",
            "faultsim.msed.rs_144_112_t2",
            "faultsim.ns_per_trial.rs_144_112_t2",
            Code::Rs(rs(2)),
            2,
            None,
        ),
    ]
}

pub struct MsedSweep {
    size: Size,
    benchmark_seed: u64,
    seed: u64,
    threads: usize,
    trials: u64,
    cells: Vec<Cell>,
    /// Tallies of the first pass; every later pass must repeat them.
    first: Option<Vec<MsedStats>>,
}

impl MsedSweep {
    pub fn new(size: Size, benchmark_seed: u64, threads: usize) -> Self {
        Self {
            size,
            benchmark_seed,
            seed: input_seed(MsedConfig::default().seed, benchmark_seed),
            threads,
            trials: match size {
                Size::Full => TRIALS_FULL,
                Size::Probe => TRIALS_PROBE,
            },
            cells: Vec::new(),
            first: None,
        }
    }

    fn config(&self, cell: &Cell, threads: usize) -> MsedConfig {
        MsedConfig {
            failing_devices: cell.failing_devices,
            trials: self.trials,
            seed: self.seed,
            threads,
        }
    }
}

impl Workload for MsedSweep {
    fn name(&self) -> &'static str {
        "msed_sweep"
    }

    fn op_name(&self) -> &'static str {
        "sweep"
    }

    fn work_name(&self) -> &'static str {
        "trials_per_s"
    }

    fn nominal_pass_s(&self) -> f64 {
        0.2
    }

    fn setup(&mut self, _rec: &mut Recorder) {
        self.cells = cells();
    }

    fn prepare(&mut self, _rec: &mut Recorder, _checks: &mut Checks) {}

    fn pass(&mut self, rec: &mut Recorder, checks: &mut Checks) -> PassOut {
        // The unit operation is one sweep of all six cells.
        let mut out = PassOut::default();
        let work = (self.cells.len() as u64 * self.trials) as f64;
        let tallies: Vec<MsedStats> = out.time("op", work, || {
            rec.span("bench.workload", 0, |rec| {
                self.cells
                    .iter()
                    .map(|cell| {
                        let config = self.config(cell, self.threads);
                        rec.span(cell.span, self.trials, |_| cell.run(config))
                    })
                    .collect()
            })
        });
        for (cell, stats) in self.cells.iter().zip(&tallies) {
            checks.check(stats.total() == self.trials, || {
                format!(
                    "{}: outcomes sum to {} of {} trials",
                    cell.name,
                    stats.total(),
                    self.trials
                )
            });
        }
        match &self.first {
            None => self.first = Some(tallies),
            Some(first) => {
                for ((cell, a), b) in self.cells.iter().zip(first).zip(&tallies) {
                    checks.check(a == b, || {
                        format!(
                            "{}: tallies changed between passes: {a:?} vs {b:?}",
                            cell.name
                        )
                    });
                }
            }
        }
        out
    }

    fn layer_probe(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        // Thread efficiency on the flagship cell: the same call at one
        // thread and at one per core, whose tallies must agree.
        let cell = &self.cells[0];
        let one = rec.span("faultsim.msed.efficiency_1t", self.trials, |_| {
            cell.run(self.config(cell, 1))
        });
        let all = rec.span("faultsim.msed.efficiency_nt", self.trials, |_| {
            cell.run(self.config(cell, self.threads))
        });
        checks.check(one == all, || {
            format!(
                "{}: 1-thread {one:?} != {}-thread {all:?}",
                cell.name, self.threads
            )
        });
    }

    fn finish(&mut self, checks: &mut Checks) -> Vec<String> {
        let Some(first) = &self.first else {
            return Vec::new();
        };
        let pinned = self.size == Size::Full && self.benchmark_seed == DEFAULT_SEED;
        let mut lines = vec![format!(
            "fidelity (MSED, {} trials per cell; the model is validated only against the paper values shown):",
            self.trials
        )];
        for (cell, stats) in self.cells.iter().zip(first) {
            let tally = [
                stats.detected,
                stats.corrected,
                stats.miscorrected,
                stats.silent,
            ];
            if pinned {
                let pin = pins::MSED.iter().find(|(name, _)| *name == cell.name);
                checks.check(pin.is_some_and(|(_, p)| *p == tally), || {
                    format!(
                        "{}: tally {tally:?} does not match its pin {pin:?}",
                        cell.name
                    )
                });
            }
            lines.push(format!(
                "  sim.msed.{:<16} {:>8.4}%  paper {:<7}  (detected, corrected, miscorrected, silent) = {tally:?}",
                cell.name,
                stats.detection_rate(),
                cell.paper_pct.map_or("-".to_string(), |p| format!("{p:.2}%")),
            ));
        }
        lines
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = self
            .cells
            .iter()
            .map(|cell| (cell.metric, rec.total(self.name(), cell.span).ns_per_unit()))
            .collect();
        let one = rec.total(self.name(), "faultsim.msed.efficiency_1t");
        let all = rec.total(self.name(), "faultsim.msed.efficiency_nt");
        out.push((
            "faultsim.thread_efficiency",
            one.ns as f64 / (all.ns as f64 * self.threads as f64),
        ));
        out
    }
}
