//! `memtag_figures`: the cells of Figure 6 (ECC latency) and Figure 7
//! (memory-tagging placement) over the 22 SPEC-shaped profiles, at the
//! figure binaries' default window. `muse_bench::figure6`/`figure7` fix
//! the workload seed, so the benchmark drives `muse-memsim` through its
//! public API as `muse_bench::measure` does, with the workload seed taken
//! from the benchmark seed, and at the default seed checks every figure
//! row against those two functions.

use muse_bench::{study_config, study_latencies};
use muse_memsim::{
    spec2017_profiles, Cache, CacheAccess, Dram, EccLatency, RunStats, System, SystemConfig,
    TagStorage, Trace, Workload as OpStream, WorkloadProfile,
};

use crate::spans::Recorder;
use crate::stats::Digest;
use crate::{input_seed, pins, Checks, PassOut, Size, Workload, DEFAULT_SEED};

/// Measured memory operations per cell (after a warm-up of half as many):
/// the `fig6`/`fig7` binaries' default.
const WINDOW_FULL: u64 = 150_000;
const WINDOW_PROBE: u64 = 20_000;
const PROBE_PROFILES: usize = 2;
/// The workload seed `muse_bench::measure` uses.
const CANONICAL_WORKLOAD_SEED: u64 = 0xF16;
/// Figure 6 uses the first five system configurations, Figure 7 the rest.
const FIG6_CONFIGS: usize = 5;

/// One cell's window statistics as plain counters.
type Cell = [u64; 11];

fn counters(s: &RunStats) -> Cell {
    [
        s.instructions,
        s.cycles,
        s.dram.reads,
        s.dram.writes,
        s.dram.activates,
        s.dram.row_hits,
        s.dram.refreshes,
        s.metadata_dram_reads,
        s.metadata_cache_hits,
        s.llc_misses,
        s.prefetches,
    ]
}

const INSTRUCTIONS: usize = 0;
const CYCLES: usize = 1;
const DRAM_READS: usize = 2;
const DRAM_WRITES: usize = 3;
const METADATA_DRAM_READS: usize = 7;
const METADATA_CACHE_HITS: usize = 8;
const LLC_MISSES: usize = 9;

pub struct MemtagFigures {
    size: Size,
    benchmark_seed: u64,
    seed: u64,
    window: u64,
    profiles: Vec<WorkloadProfile>,
    /// Figure 6's five ECC configurations, then Figure 7's three tag
    /// placements, each with a freshly built system to clone per cell.
    systems: Vec<(SystemConfig, System)>,
    /// Cells of the first pass, per profile; later passes must repeat them.
    first: Option<Vec<Vec<Cell>>>,
}

impl MemtagFigures {
    pub fn new(size: Size, benchmark_seed: u64) -> Self {
        Self {
            size,
            benchmark_seed,
            seed: input_seed(CANONICAL_WORKLOAD_SEED, benchmark_seed),
            window: match size {
                Size::Full => WINDOW_FULL,
                Size::Probe => WINDOW_PROBE,
            },
            profiles: Vec::new(),
            systems: Vec::new(),
            first: None,
        }
    }

    /// Warm up, then measure one window, as `muse_bench::measure` does.
    fn cell(&self, rec: &mut Recorder, profile: WorkloadProfile, system: &System) -> Cell {
        let mut system = system.clone();
        let mut stream = OpStream::new(profile, self.seed);
        let (warm, window) = (self.window / 2, self.window);
        rec.span("memsim.run", warm + window, |_| {
            let warm = system.run(&mut stream, warm);
            counters(&system.run(&mut stream, window).since(&warm))
        })
    }

    /// At the canonical seed, the cells must reproduce `muse_bench`'s
    /// Figure 6 and Figure 7 rows bit for bit.
    fn check_figures(&self, first: &[Vec<Cell>], checks: &mut Checks) {
        let cpi = |c: &Cell| c[CYCLES] as f64 / c[INSTRUCTIONS] as f64;
        let opspi = |c: &Cell| (c[DRAM_READS] + c[DRAM_WRITES]) as f64 / c[INSTRUCTIONS] as f64;
        let fig6 = muse_bench::figure6(self.window);
        let (fig7, _) = muse_bench::figure7(self.window);
        checks.check(
            fig6.len() == first.len() && fig7.len() == first.len(),
            || {
                format!(
                    "{} profiles, muse_bench gave {} and {} rows",
                    first.len(),
                    fig6.len(),
                    fig7.len()
                )
            },
        );
        for (((profile, row), f6), f7) in self.profiles.iter().zip(first).zip(&fig6).zip(&fig7) {
            let slowdown = |i: usize| row[i][CYCLES] as f64 / row[0][CYCLES] as f64;
            let fig7_cells = &row[FIG6_CONFIGS..];
            let ours = [
                slowdown(1),
                slowdown(2),
                slowdown(3),
                slowdown(4),
                cpi(&fig7_cells[2]) / cpi(&fig7_cells[0]),
                cpi(&fig7_cells[1]) / cpi(&fig7_cells[0]),
                opspi(&fig7_cells[2]) / opspi(&fig7_cells[0]),
                opspi(&fig7_cells[1]) / opspi(&fig7_cells[0]),
            ];
            let theirs = [
                f6.muse,
                f6.rs,
                f6.muse_always,
                f6.rs_always,
                f7.slowdown_base,
                f7.slowdown_cached,
                f7.ops_base,
                f7.ops_cached,
            ];
            let same_rows = f6.name == profile.name && f7.name == profile.name;
            checks.check(
                same_rows && ours.map(f64::to_bits) == theirs.map(f64::to_bits),
                || {
                    format!(
                        "{}: {ours:?} != muse_bench::figure6/figure7 rows {} {} {theirs:?}",
                        profile.name, f6.name, f7.name
                    )
                },
            );
        }
    }
}

impl Workload for MemtagFigures {
    fn name(&self) -> &'static str {
        "memtag_figures"
    }

    fn op_name(&self) -> &'static str {
        "cell"
    }

    fn work_name(&self) -> &'static str {
        "mem_ops_per_s"
    }

    fn nominal_pass_s(&self) -> f64 {
        4.4
    }

    fn setup(&mut self, _rec: &mut Recorder) {
        let (muse, rs) = study_latencies(3.4);
        let no_correct = |ecc: EccLatency| EccLatency { correct: 0, ..ecc };
        let fig6 = [EccLatency::NONE, no_correct(muse), no_correct(rs), muse, rs].map(|ecc| {
            SystemConfig {
                ecc,
                ..study_config()
            }
        });
        let fig7 = [
            (muse, TagStorage::InlineEcc),
            (
                rs,
                TagStorage::Disjoint {
                    cache_entries: Some(32),
                },
            ),
            (
                rs,
                TagStorage::Disjoint {
                    cache_entries: None,
                },
            ),
        ]
        .map(|(ecc, tagging)| SystemConfig {
            ecc,
            tagging,
            ..study_config()
        });
        self.systems = fig6
            .into_iter()
            .chain(fig7)
            .map(|config| (config, System::new(config)))
            .collect();
        self.profiles = spec2017_profiles();
        if self.size == Size::Probe {
            self.profiles.truncate(PROBE_PROFILES);
        }
    }

    fn prepare(&mut self, _rec: &mut Recorder, _checks: &mut Checks) {}

    fn pass(&mut self, rec: &mut Recorder, checks: &mut Checks) -> PassOut {
        let mut out = PassOut::default();
        let mut cells = Vec::with_capacity(self.profiles.len());
        rec.span("bench.workload", 0, |rec| {
            let ops = (self.window + self.window / 2) as f64;
            for &profile in &self.profiles {
                let row: Vec<Cell> = rec.span("bench.profile", 0, |rec| {
                    self.systems
                        .iter()
                        .map(|(_, system)| out.time("op", ops, || self.cell(rec, profile, system)))
                        .collect()
                });
                cells.push(row);
            }
        });
        match &self.first {
            None => {
                for (profile, row) in self.profiles.iter().zip(&cells) {
                    let sane = row
                        .iter()
                        .all(|c| c[INSTRUCTIONS] > 0 && c[CYCLES] >= c[INSTRUCTIONS]);
                    checks.check(sane, || {
                        format!("{}: implausible cells {row:?}", profile.name)
                    });
                }
                self.first = Some(cells);
            }
            Some(first) => {
                for ((profile, a), b) in self.profiles.iter().zip(first).zip(&cells) {
                    for (fig, range) in [(6, 0..FIG6_CONFIGS), (7, FIG6_CONFIGS..a.len())] {
                        checks.check(a[range.clone()] == b[range], || {
                            format!("{}: figure {fig} row changed between passes", profile.name)
                        });
                    }
                }
            }
        }
        out
    }

    fn layer_probe(&mut self, rec: &mut Recorder, checks: &mut Checks) {
        // The generator and the system apart: each profile's cell under
        // MT with MUSE, its op stream generated first and then replayed.
        // Then the hierarchy's parts on their own: the L1 on the op
        // stream, and DRAM on the stream of misses and write-backs
        // leaving an LLC.
        let config = study_config();
        let line = config.line_bytes;
        let (warm, window) = (self.window / 2, self.window);
        for (i, &profile) in self.profiles.iter().enumerate() {
            let mut stream = OpStream::new(profile, self.seed);
            let (warm_trace, trace) = rec.span("memsim.workload", warm + window, |_| {
                let mut take = |n| Trace::from_ops((0..n).map(|_| stream.next_op()).collect());
                (take(warm), take(window))
            });
            let mut system = self.systems[FIG6_CONFIGS].1.clone();
            let replayed = rec.span("memsim.system", warm + window, |_| {
                let warm = warm_trace.replay(&mut system);
                counters(&trace.replay(&mut system).since(&warm))
            });
            if let Some(first) = &self.first {
                checks.check(replayed == first[i][FIG6_CONFIGS], || {
                    format!(
                        "{}: replayed cell differs from the streamed one",
                        profile.name
                    )
                });
            }
            let ops = trace.ops();
            let mut l1 = Cache::new("L1D", config.l1_bytes, 8, line, config.l1_latency);
            let l1_misses: Vec<(u64, bool)> = rec.span("memsim.cache", ops.len() as u64, |_| {
                let mut misses = Vec::new();
                for op in ops {
                    if let CacheAccess::Miss { writeback } = l1.access(op.addr, op.is_write) {
                        misses.push((op.addr, false));
                        misses.extend(writeback.map(|victim| (victim, true)));
                    }
                }
                misses
            });
            let mut llc = Cache::new("L3", config.l3_bytes, 16, line, config.l3_latency);
            let mut to_dram = Vec::new();
            for (addr, is_write) in l1_misses {
                if let CacheAccess::Miss { writeback } = llc.access(addr, is_write) {
                    if !is_write {
                        to_dram.push((addr, false));
                    }
                    to_dram.extend(writeback.map(|victim| (victim, true)));
                }
            }
            let mut dram = Dram::new(config.dram, config.ecc);
            rec.span("memsim.dram", to_dram.len() as u64, |_| {
                let mut now = 0;
                for (addr, is_write) in to_dram {
                    if is_write {
                        dram.write(addr, now);
                    } else {
                        now = dram.read(addr, now);
                    }
                }
                std::hint::black_box(now)
            });
        }
    }

    fn finish(&mut self, checks: &mut Checks) -> Vec<String> {
        let Some(first) = &self.first else {
            return Vec::new();
        };
        let mut digest = Digest::default();
        for cell in first.iter().flatten() {
            for &v in cell {
                digest.push(v);
            }
        }
        if self.size == Size::Full && self.benchmark_seed == DEFAULT_SEED {
            self.check_figures(first, checks);
            checks.check(digest.value() == pins::MEMTAG_DIGEST, || {
                format!(
                    "figure cells digest {:#018x} does not match its pin {:#018x}",
                    digest.value(),
                    pins::MEMTAG_DIGEST
                )
            });
        }
        let n = first.len() as f64;
        let mean = |f: &dyn Fn(&[Cell]) -> f64| first.iter().map(|row| f(row)).sum::<f64>() / n;
        let slowdown = |i: usize| move |row: &[Cell]| row[i][CYCLES] as f64 / row[0][CYCLES] as f64;
        // Figure 7 normalizes per instruction to MT with MUSE (config 5).
        let per_inst = |row: &[Cell], i: usize, f: fn(&Cell) -> u64| {
            f(&row[i]) as f64 / row[i][INSTRUCTIONS] as f64
        };
        let fig7 = |i: usize, f: fn(&Cell) -> u64| {
            move |row: &[Cell]| per_inst(row, i, f) / per_inst(row, FIG6_CONFIGS, f)
        };
        let cycles = |c: &Cell| c[CYCLES];
        let dram_ops = |c: &Cell| c[DRAM_READS] + c[DRAM_WRITES];
        let rows = [
            ("fig6.avg_muse", mean(&slowdown(1)), None),
            ("fig6.avg_rs", mean(&slowdown(2)), None),
            ("fig6.avg_muse_always", mean(&slowdown(3)), Some(1.002)),
            ("fig6.avg_rs_always", mean(&slowdown(4)), Some(1.0009)),
            (
                "fig7.avg_slowdown_base",
                mean(&fig7(FIG6_CONFIGS + 2, cycles)),
                None,
            ),
            (
                "fig7.avg_slowdown_cached",
                mean(&fig7(FIG6_CONFIGS + 1, cycles)),
                None,
            ),
            (
                "fig7.avg_ops_base",
                mean(&fig7(FIG6_CONFIGS + 2, dram_ops)),
                Some(1.67),
            ),
            (
                "fig7.avg_ops_cached",
                mean(&fig7(FIG6_CONFIGS + 1, dram_ops)),
                Some(1.12),
            ),
        ];
        let mut lines = vec![format!(
            "fidelity (memory system, {} profiles, {} ops per window; the model is validated only against the paper values shown):",
            first.len(),
            self.window
        )];
        for (name, value, paper) in rows {
            lines.push(format!(
                "  sim.{name:<26} {value:>10.4}  paper {}",
                paper.map_or("-".to_string(), |p: f64| format!("{p}"))
            ));
        }
        lines.push(format!("  sim.memtag.digest {:#018x}", digest.value()));
        lines
    }

    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)> {
        let w = self.name();
        let rows = || self.first.iter().flatten();
        let sum = |i: usize| rows().flatten().map(|c| c[i]).sum::<u64>() as f64;
        // Lookups of the one configuration with a metadata cache.
        let cached = |i: usize| rows().map(|row| row[FIG6_CONFIGS + 1][i]).sum::<u64>() as f64;
        let meta_lookups = cached(METADATA_CACHE_HITS) + cached(METADATA_DRAM_READS);
        vec![
            (
                "memsim.workload_ns_per_op",
                rec.total(w, "memsim.workload").ns_per_unit(),
            ),
            (
                "memsim.system_ns_per_op",
                rec.total(w, "memsim.system").ns_per_unit(),
            ),
            (
                "memsim.cache_ns_per_access",
                rec.total(w, "memsim.cache").ns_per_unit(),
            ),
            (
                "memsim.dram_ns_per_access",
                rec.total(w, "memsim.dram").ns_per_unit(),
            ),
            ("memsim.llc_misses", sum(LLC_MISSES)),
            ("memsim.dram_ops", sum(DRAM_READS) + sum(DRAM_WRITES)),
            ("memsim.metadata_dram_reads", sum(METADATA_DRAM_READS)),
            (
                "memsim.metadata_cache_hit_ratio",
                cached(METADATA_CACHE_HITS) / meta_lookups.max(1.0),
            ),
        ]
    }
}
