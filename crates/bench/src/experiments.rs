//! Shared experiment runners for the performance and power studies
//! (Figures 6 & 7, Table VI).

use muse_hw::{muse_hardware, rs_hardware, CodeHardware, TechParams};
use muse_memsim::{
    spec2017_profiles, DramPowerModel, EccLatency, RunStats, System, SystemConfig, TagStorage,
    Workload, WorkloadProfile,
};
use muse_rs::RsMemoryCode;

/// Converts a modelled circuit latency into CPU-clock interface cycles.
pub fn ecc_latency_cpu(hw: &CodeHardware, cpu_ghz: f64) -> EccLatency {
    let cycles = |ps: f64| (ps * cpu_ghz / 1000.0).ceil() as u64;
    EccLatency {
        encode: cycles(hw.encoder.delay_ps),
        correct: cycles(hw.corrector.delay_ps),
    }
}

/// The ECC latency pairs used by the performance studies: (MUSE, RS),
/// derived from the hardware model at the simulated CPU clock.
pub fn study_latencies(cpu_ghz: f64) -> (EccLatency, EccLatency) {
    let tech = TechParams::default();
    let muse = muse_hardware(&muse_core::presets::muse_144_132(), &tech);
    let rs = rs_hardware(&RsMemoryCode::new(8, 144, 1).expect("RS(144,128)"), &tech);
    (
        ecc_latency_cpu(&muse, cpu_ghz),
        ecc_latency_cpu(&rs, cpu_ghz),
    )
}

/// The hierarchy used by the performance studies: the paper's latencies,
/// but with L2/L3 capacities scaled down so the short synthetic windows
/// reach the same steady state (write-backs flowing, LLC behaving like a
/// warmed 8 MB cache under 10B-instruction SPEC runs).
pub fn study_config() -> SystemConfig {
    SystemConfig {
        l2_bytes: 128 * 1024,
        l3_bytes: 1024 * 1024,
        ..SystemConfig::default()
    }
}

/// Warm up, then measure: returns the steady-state window stats.
pub fn measure(profile: WorkloadProfile, config: SystemConfig, mem_ops: u64) -> RunStats {
    let mut system = System::new(config);
    let mut workload = Workload::new(profile, 0xF16);
    let warm = system.run(&mut workload, mem_ops / 2);
    system.run(&mut workload, mem_ops).since(&warm)
}

/// One Figure 6 row: normalized slowdown of each ECC configuration.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// MUSE, error-free path (encode-only).
    pub muse: f64,
    /// Reed-Solomon, error-free path.
    pub rs: f64,
    /// MUSE with correction on every read.
    pub muse_always: f64,
    /// Reed-Solomon with correction on every read.
    pub rs_always: f64,
}

/// Runs the Figure 6 sweep: 22 benchmarks × 4 ECC configurations,
/// normalized to a no-ECC baseline.
pub fn figure6(mem_ops: u64) -> Vec<Fig6Row> {
    let (muse_lat, rs_lat) = study_latencies(3.4);
    let configs = [
        EccLatency::NONE,
        EccLatency {
            correct: 0,
            ..muse_lat
        },
        EccLatency {
            correct: 0,
            ..rs_lat
        },
        muse_lat,
        rs_lat,
    ];
    spec2017_profiles()
        .into_iter()
        .map(|profile| {
            let cycles: Vec<u64> = configs
                .iter()
                .map(|&ecc| {
                    measure(
                        profile,
                        SystemConfig {
                            ecc,
                            ..study_config()
                        },
                        mem_ops,
                    )
                    .cycles
                })
                .collect();
            let base = cycles[0] as f64;
            Fig6Row {
                name: profile.name,
                muse: cycles[1] as f64 / base,
                rs: cycles[2] as f64 / base,
                muse_always: cycles[3] as f64 / base,
                rs_always: cycles[4] as f64 / base,
            }
        })
        .collect()
}

/// One Figure 7 row: the three memory-tagging systems, normalized to
/// MT-with-MUSE.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Normalized slowdown: base MT (no metadata cache) / MUSE.
    pub slowdown_base: f64,
    /// Normalized slowdown: MT with 32-entry metadata cache / MUSE.
    pub slowdown_cached: f64,
    /// Normalized DRAM power: base MT / MUSE.
    pub power_base: f64,
    /// Normalized DRAM power: cached MT / MUSE.
    pub power_cached: f64,
    /// Normalized DRAM rd+wr operations: base MT / MUSE.
    pub ops_base: f64,
    /// Normalized rd+wr: cached MT / MUSE.
    pub ops_cached: f64,
}

/// Aggregate power summary — Table VI.
#[derive(Debug, Clone, Copy)]
pub struct Table6 {
    /// MT w/ MUSE: (DRAM mW, ECC mW, total mW).
    pub muse: (f64, f64, f64),
    /// MT w/ 16 kB metadata cache: same triple.
    pub cached: (f64, f64, f64),
    /// MT w/o cache: same triple.
    pub uncached: (f64, f64, f64),
}

/// Runs the Figure 7 / Table VI memory-tagging study.
pub fn figure7(mem_ops: u64) -> (Vec<Fig7Row>, Table6) {
    let (muse_lat, rs_lat) = study_latencies(3.4);
    let tech = TechParams::default();
    // ECC engine power per channel (encoder + corrector), two channels.
    let muse_hw = muse_hardware(&muse_core::presets::muse_144_132(), &tech);
    let rs_hw = rs_hardware(&RsMemoryCode::new(8, 144, 1).expect("geometry"), &tech);
    let muse_ecc_mw = 2.0 * (muse_hw.encoder.power_mw + muse_hw.corrector.power_mw);
    let rs_ecc_mw = 2.0 * (rs_hw.encoder.power_mw + rs_hw.corrector.power_mw);

    let power_model = DramPowerModel::default();
    let mk_config = |ecc, tagging| SystemConfig {
        ecc,
        tagging,
        ..study_config()
    };

    let mut rows = Vec::new();
    let mut totals = [[0.0f64; 2]; 3]; // [config][dram_mw, cycles-weight]
    let mut count = 0.0;
    for profile in spec2017_profiles() {
        let muse = measure(profile, mk_config(muse_lat, TagStorage::InlineEcc), mem_ops);
        let cached = measure(
            profile,
            mk_config(
                rs_lat,
                TagStorage::Disjoint {
                    cache_entries: Some(32),
                },
            ),
            mem_ops,
        );
        let uncached = measure(
            profile,
            mk_config(
                rs_lat,
                TagStorage::Disjoint {
                    cache_entries: None,
                },
            ),
            mem_ops,
        );
        let power = |s: &RunStats, ecc_mw: f64| {
            power_model.report(&s.dram, s.cycles, 3.4, ecc_mw).dram_mw()
        };
        let p_muse = power(&muse, muse_ecc_mw);
        let p_cached = power(&cached, rs_ecc_mw);
        let p_uncached = power(&uncached, rs_ecc_mw);
        // Normalize per-instruction (runs execute the same instruction
        // window, but cycles differ).
        let cpi = |s: &RunStats| s.cycles as f64 / s.instructions as f64;
        let opspi = |s: &RunStats| s.dram.operations() as f64 / s.instructions as f64;
        rows.push(Fig7Row {
            name: profile.name,
            slowdown_base: cpi(&uncached) / cpi(&muse),
            slowdown_cached: cpi(&cached) / cpi(&muse),
            power_base: p_uncached / p_muse,
            power_cached: p_cached / p_muse,
            ops_base: opspi(&uncached) / opspi(&muse),
            ops_cached: opspi(&cached) / opspi(&muse),
        });
        totals[0][0] += p_muse;
        totals[1][0] += p_cached;
        totals[2][0] += p_uncached;
        count += 1.0;
    }
    let table6 = Table6 {
        muse: (
            totals[0][0] / count,
            muse_ecc_mw,
            totals[0][0] / count + muse_ecc_mw,
        ),
        cached: (
            totals[1][0] / count,
            rs_ecc_mw,
            totals[1][0] / count + rs_ecc_mw,
        ),
        uncached: (
            totals[2][0] / count,
            rs_ecc_mw,
            totals[2][0] / count + rs_ecc_mw,
        ),
    };
    (rows, table6)
}

/// Geometric mean.
pub fn gmean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Arithmetic mean.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_derivation() {
        let (muse, rs) = study_latencies(3.4);
        // MUSE: ~1.1-1.6 ns encode → 4-6 CPU cycles at 3.4 GHz; RS ≈ 1.
        assert!(
            (3..=6).contains(&muse.encode),
            "muse encode {}",
            muse.encode
        );
        assert!(muse.correct >= muse.encode);
        assert!(rs.encode <= 2, "rs encode {}", rs.encode);
        assert!(rs.correct < muse.correct);
    }

    /// Figure 6's five ECC settings, then Figure 7's three tag placements,
    /// as `figure6` and `figure7` build them.
    fn figure_systems() -> Vec<SystemConfig> {
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
        fig6.into_iter().chain(fig7).collect()
    }

    /// The figures' exact cells come out the same from `System::run`,
    /// which pipelines each run across two threads, as from stepping the
    /// same ops one at a time: `measure`'s warm-up and window at the
    /// binaries' default of 150k ops, every profile, every system. Slow in
    /// debug builds; CI runs it in release with `--ignored`.
    #[test]
    #[ignore]
    fn figure_cells_match_serial_steps() {
        let window = 150_000;
        for profile in spec2017_profiles() {
            for (i, config) in figure_systems().into_iter().enumerate() {
                let mut piped = System::new(config);
                let mut stepped = System::new(config);
                let mut piped_ops = Workload::new(profile, 0xF16);
                let mut stepped_ops = Workload::new(profile, 0xF16);
                for mem_ops in [window / 2, window] {
                    let got = piped.run(&mut piped_ops, mem_ops);
                    for _ in 0..mem_ops {
                        stepped.step(stepped_ops.next_op());
                    }
                    let at = format!("{}, system {i}, run of {mem_ops} ops", profile.name);
                    assert_eq!(got, stepped.stats(), "{at}: run stats");
                    assert_eq!(piped.cache_stats(), stepped.cache_stats(), "{at}: caches");
                }
            }
        }
    }

    #[test]
    fn means() {
        assert!((gmean([1.0, 4.0].into_iter()) - 2.0).abs() < 1e-12);
        assert!((mean([1.0, 3.0].into_iter()) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(std::iter::empty()), 1.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn figure6_shape_small() {
        // Tiny run on a subset: slowdowns hover near 1.0 and never explode.
        let (muse_lat, _) = study_latencies(3.4);
        let profile = spec2017_profiles()[8]; // lbm
        let base = measure(profile, SystemConfig::default(), 20_000);
        let ecc = measure(
            profile,
            SystemConfig {
                ecc: muse_lat,
                ..SystemConfig::default()
            },
            20_000,
        );
        let slowdown = (ecc.cycles as f64 / ecc.instructions as f64)
            / (base.cycles as f64 / base.instructions as f64);
        assert!((0.98..1.06).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn figure7_orderings_small() {
        // One benchmark, small window: traffic ordering must hold.
        let (muse_lat, rs_lat) = study_latencies(3.4);
        let profile = spec2017_profiles()[4]; // cactuBSSN
        let muse = measure(
            profile,
            SystemConfig {
                ecc: muse_lat,
                tagging: TagStorage::InlineEcc,
                ..SystemConfig::default()
            },
            20_000,
        );
        let uncached = measure(
            profile,
            SystemConfig {
                ecc: rs_lat,
                tagging: TagStorage::Disjoint {
                    cache_entries: None,
                },
                ..SystemConfig::default()
            },
            20_000,
        );
        let opspi_muse = muse.dram.operations() as f64 / muse.instructions as f64;
        let opspi_unc = uncached.dram.operations() as f64 / uncached.instructions as f64;
        assert!(opspi_unc > opspi_muse);
    }
}
