//! DRAM and ECC-engine power model (Figure 7b, Table VI).
//!
//! IDD-style decomposition: static background + refresh power, plus
//! per-operation activate/read/write energies divided by wall-clock time.
//! Constants are shaped after DDR4 datasheet currents scaled to the paper's
//! 32 GB configuration, landing total power in the ~6.5 W regime of
//! Table VI: a datasheet-shaped estimate in place of the paper's gem5 power
//! figures.

use crate::DramStats;

/// Energy/power constants for the memory subsystem.
#[derive(Debug, Clone, Copy)]
pub struct DramPowerModel {
    /// Always-on background power (activation of peripheral logic, DLL,
    /// leakage) for the full capacity, mW.
    pub background_mw: f64,
    /// Self/auto-refresh average power, mW.
    pub refresh_mw: f64,
    /// Energy per row activation (ACT+PRE pair), nJ.
    pub act_nj: f64,
    /// Energy per 64-byte read burst (core + I/O), nJ.
    pub read_nj: f64,
    /// Energy per 64-byte write burst, nJ.
    pub write_nj: f64,
}

impl Default for DramPowerModel {
    fn default() -> Self {
        Self {
            background_mw: 5_750.0,
            refresh_mw: 450.0,
            act_nj: 22.0,
            read_nj: 14.0,
            write_nj: 15.0,
        }
    }
}

/// Power breakdown of one simulation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerReport {
    /// DRAM background + refresh, mW.
    pub dram_static_mw: f64,
    /// DRAM dynamic (ACT/RD/WR), mW.
    pub dram_dynamic_mw: f64,
    /// ECC engine power (both channels), mW.
    pub ecc_mw: f64,
}

impl PowerReport {
    /// DRAM total, mW.
    pub fn dram_mw(&self) -> f64 {
        self.dram_static_mw + self.dram_dynamic_mw
    }

    /// System total (DRAM + ECC engines), mW.
    pub fn total_mw(&self) -> f64 {
        self.dram_mw() + self.ecc_mw
    }
}

impl DramPowerModel {
    /// Computes the report for a run of `cycles` CPU cycles at `cpu_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn report(&self, stats: &DramStats, cycles: u64, cpu_ghz: f64, ecc_mw: f64) -> PowerReport {
        assert!(cycles > 0, "cannot compute power over zero time");
        let seconds = cycles as f64 / (cpu_ghz * 1e9);
        let dynamic_nj = stats.activates as f64 * self.act_nj
            + stats.reads as f64 * self.read_nj
            + stats.writes as f64 * self.write_nj;
        PowerReport {
            dram_static_mw: self.background_mw + self.refresh_mw,
            dram_dynamic_mw: dynamic_nj * 1e-9 / seconds * 1e3,
            ecc_mw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_power_without_traffic() {
        let model = DramPowerModel::default();
        let report = model.report(&DramStats::default(), 1_000_000, 3.4, 0.0);
        assert_eq!(report.dram_dynamic_mw, 0.0);
        assert!((report.dram_mw() - 6_200.0).abs() < 1e-9);
    }

    #[test]
    fn more_traffic_more_power() {
        let model = DramPowerModel::default();
        let light = DramStats {
            reads: 1_000,
            activates: 500,
            ..Default::default()
        };
        let heavy = DramStats {
            reads: 100_000,
            activates: 50_000,
            ..Default::default()
        };
        let p_light = model.report(&light, 10_000_000, 3.4, 0.0);
        let p_heavy = model.report(&heavy, 10_000_000, 3.4, 0.0);
        assert!(p_heavy.dram_mw() > p_light.dram_mw());
        assert_eq!(p_heavy.dram_static_mw, p_light.dram_static_mw);
    }

    #[test]
    fn table6_regime() {
        // A busy workload: ~20 DRAM ops per 1k cycles keeps total power in
        // the 5.5–7 W band the paper reports for its 32 GB system.
        let model = DramPowerModel::default();
        let cycles = 100_000_000u64;
        let stats = DramStats {
            reads: 1_300_000,
            writes: 650_000,
            activates: 1_000_000,
            ..Default::default()
        };
        let report = model.report(&stats, cycles, 3.4, 28.0);
        let total = report.total_mw();
        assert!((6_000.0..8_500.0).contains(&total), "total {total} mW");
        assert_eq!(report.ecc_mw, 28.0);
    }

    #[test]
    fn ecc_power_adds_to_total() {
        let model = DramPowerModel::default();
        let stats = DramStats {
            reads: 10,
            ..Default::default()
        };
        let a = model.report(&stats, 1000, 3.4, 0.0);
        let b = model.report(&stats, 1000, 3.4, 28.0);
        assert!((b.total_mw() - a.total_mw() - 28.0).abs() < 1e-9);
    }
}
