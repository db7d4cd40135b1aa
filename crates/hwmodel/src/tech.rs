//! Technology parameters: a 15 nm-class standard-cell library model.
//!
//! Substitute for the NanGate OpenCell 15 nm library + Synopsys DC flow the
//! paper uses, a commercial flow. Delay/area/power constants are calibrated so
//! the modelled circuits land in the same regime as Table V; relative
//! comparisons (MUSE vs Reed-Solomon) are the meaningful output.

/// Per-gate delay/area/power constants and operating conditions.
#[derive(Debug, Clone, Copy)]
pub struct TechParams {
    /// 2-input XOR delay, ps.
    pub xor2_ps: f64,
    /// Full-adder (3:2 compressor) delay, ps.
    pub fa_ps: f64,
    /// Booth encoder + partial-product mux delay, ps.
    pub booth_mux_ps: f64,
    /// One parallel-prefix adder stage, ps.
    pub prefix_stage_ps: f64,
    /// CAM tag-compare delay (per level of the match tree), ps.
    pub cam_level_ps: f64,
    /// ROM/LUT access delay per address bit (decode tree level), ps.
    pub lut_level_ps: f64,
    /// Average standard-cell area, µm².
    pub cell_area_um2: f64,
    /// Dynamic energy per gate toggle, fJ (at nominal voltage).
    pub gate_energy_fj: f64,
    /// Switching activity factor.
    pub activity: f64,
    /// Clock frequency the power is reported at, GHz.
    pub clock_ghz: f64,
}

impl Default for TechParams {
    fn default() -> Self {
        Self {
            xor2_ps: 28.0,
            fa_ps: 42.0,
            booth_mux_ps: 45.0,
            prefix_stage_ps: 26.0,
            cam_level_ps: 22.0,
            lut_level_ps: 18.0,
            cell_area_um2: 0.33,
            gate_energy_fj: 0.45,
            activity: 0.15,
            clock_ghz: 2.4,
        }
    }
}

impl TechParams {
    /// Clock period in ps.
    pub fn clock_ps(&self) -> f64 {
        1000.0 / self.clock_ghz
    }

    /// Pipeline cycles needed for a combinational delay.
    pub fn cycles(&self, delay_ps: f64) -> u32 {
        (delay_ps / self.clock_ps()).ceil() as u32
    }

    /// Dynamic power of `cells` gates at this activity/frequency, mW.
    pub fn dynamic_power_mw(&self, cells: u64) -> f64 {
        // P = α · N · E_gate · f ; fJ × GHz = µW.
        self.activity * cells as f64 * self.gate_energy_fj * self.clock_ghz / 1000.0
    }
}

/// Cost summary of one circuit block.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CircuitCost {
    /// Critical-path delay, ps.
    pub delay_ps: f64,
    /// Standard-cell count.
    pub cells: u64,
    /// Area, µm².
    pub area_um2: f64,
    /// Power, mW.
    pub power_mw: f64,
}

impl CircuitCost {
    /// Sequential composition: delays add, resources add.
    pub fn then(self, next: CircuitCost) -> CircuitCost {
        CircuitCost {
            delay_ps: self.delay_ps + next.delay_ps,
            cells: self.cells + next.cells,
            area_um2: self.area_um2 + next.area_um2,
            power_mw: self.power_mw + next.power_mw,
        }
    }

    /// Parallel composition: max delay, resources add.
    pub fn alongside(self, other: CircuitCost) -> CircuitCost {
        CircuitCost {
            delay_ps: self.delay_ps.max(other.delay_ps),
            cells: self.cells + other.cells,
            area_um2: self.area_um2 + other.area_um2,
            power_mw: self.power_mw + other.power_mw,
        }
    }

    /// Delay in nanoseconds.
    pub fn delay_ns(&self) -> f64 {
        self.delay_ps / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_round_up() {
        let tech = TechParams::default();
        assert_eq!(tech.clock_ps().round() as u64, 417);
        assert_eq!(tech.cycles(100.0), 1);
        assert_eq!(tech.cycles(416.0), 1);
        assert_eq!(tech.cycles(418.0), 2);
        assert_eq!(tech.cycles(1100.0), 3);
    }

    #[test]
    fn composition() {
        let a = CircuitCost {
            delay_ps: 100.0,
            cells: 10,
            area_um2: 3.3,
            power_mw: 0.1,
        };
        let b = CircuitCost {
            delay_ps: 50.0,
            cells: 5,
            area_um2: 1.65,
            power_mw: 0.05,
        };
        let seq = a.then(b);
        assert_eq!(seq.delay_ps, 150.0);
        assert_eq!(seq.cells, 15);
        let par = a.alongside(b);
        assert_eq!(par.delay_ps, 100.0);
        assert_eq!(par.cells, 15);
    }

    #[test]
    fn power_scales_with_cells() {
        let tech = TechParams::default();
        assert!(tech.dynamic_power_mw(20_000) > tech.dynamic_power_mw(1_000));
        assert!(tech.dynamic_power_mw(30_000) > 0.3); // milliwatt regime
    }
}
