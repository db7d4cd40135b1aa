//! Cost models for the building blocks of Figure 5: constant multipliers
//! (Booth + Wallace + final adder), the Lemire fast-modulo unit, the ELC
//! CAM, XOR trees, and GF lookup tables.

use muse_wideint::U320;

use crate::{BoothEncoding, CircuitCost, TechParams};

/// Wallace-tree reduction schedule: number of 3:2 compressor levels to go
/// from `n` operands to 2 (0 when `n <= 2`).
pub fn wallace_levels(n: usize) -> u32 {
    let mut n = n;
    let mut levels = 0;
    while n > 2 {
        n -= n / 3; // each full group of 3 becomes 2
        levels += 1;
    }
    levels
}

/// Full-adder count of a Wallace reduction of `n` operands of `width` bits.
pub fn wallace_adders(n: usize, width: u32) -> u64 {
    let mut n = n;
    let mut adders = 0u64;
    while n > 2 {
        let groups = n / 3;
        adders += groups as u64 * width as u64;
        n -= groups;
    }
    adders
}

/// A multiplier by a design-time constant (Figure 5a): Booth encoding with
/// zero-PP elimination, a Wallace tree, and a parallel-prefix final adder.
#[derive(Debug, Clone)]
pub struct ConstMultiplier {
    operand_bits: u32,
    product_bits: u32,
    booth: BoothEncoding,
}

impl ConstMultiplier {
    /// Models `operand (operand_bits wide) × constant`.
    ///
    /// # Panics
    ///
    /// Panics if the constant is zero.
    pub fn new(operand_bits: u32, constant: &U320) -> Self {
        let booth = BoothEncoding::of(constant);
        Self {
            operand_bits,
            product_bits: operand_bits + constant.bit_len(),
            booth,
        }
    }

    /// The Booth recoding driving the tree.
    pub fn booth(&self) -> &BoothEncoding {
        &self.booth
    }

    /// Width of the full product.
    pub fn product_bits(&self) -> u32 {
        self.product_bits
    }

    /// Wallace levels after zero-PP elimination.
    pub fn tree_levels(&self) -> u32 {
        wallace_levels(self.booth.nonzero_partial_products())
    }

    /// Synthesis-model cost.
    pub fn cost(&self, tech: &TechParams) -> CircuitCost {
        let pps = self.booth.nonzero_partial_products();
        let width = self.product_bits;
        // Partial-product generation: one mux row per nonzero PP.
        let mux_cells = pps as u64 * (self.operand_bits as u64 + 1);
        // Wallace tree of 3:2 compressors (≈1.5 cells per FA once the
        // synthesizer maps shared majority/XOR structure).
        let fas = wallace_adders(pps, width);
        // Final parallel-prefix adder.
        let prefix_stages = (width.max(2) as f64).log2().ceil() as u32;
        let adder_cells = 3 * width as u64 + prefix_stages as u64 * width as u64 / 2;

        let delay_ps = tech.booth_mux_ps
            + self.tree_levels() as f64 * tech.fa_ps
            + prefix_stages as f64 * tech.prefix_stage_ps;
        let cells = mux_cells + 3 * fas / 2 + adder_cells;
        CircuitCost {
            delay_ps,
            cells,
            area_um2: cells as f64 * tech.cell_area_um2,
            power_mw: tech.dynamic_power_mw(cells),
        }
    }
}

/// The two-multiplier direct remainder unit of Figure 5(b): multiply by the
/// scaled inverse, keep the fraction, multiply by `m`, keep the top bits.
#[derive(Debug, Clone)]
pub struct FastModuloUnit {
    mul_inverse: ConstMultiplier,
    mul_modulus: ConstMultiplier,
}

impl FastModuloUnit {
    /// Models the remainder circuit for `input_bits`-wide values, modulus
    /// `m` with scaled inverse `inverse` and fraction width `shift`.
    pub fn new(input_bits: u32, m: u64, inverse: &U320, shift: u32) -> Self {
        Self {
            mul_inverse: ConstMultiplier::new(input_bits, inverse),
            mul_modulus: ConstMultiplier::new(shift, &U320::from(m)),
        }
    }

    /// The first (wide) multiplier.
    #[cfg(test)]
    fn inverse_multiplier(&self) -> &ConstMultiplier {
        &self.mul_inverse
    }

    /// The second (narrow) multiplier.
    #[cfg(test)]
    fn modulus_multiplier(&self) -> &ConstMultiplier {
        &self.mul_modulus
    }

    /// Serial composition of the two multiplies.
    pub fn cost(&self, tech: &TechParams) -> CircuitCost {
        self.mul_inverse
            .cost(tech)
            .then(self.mul_modulus.cost(tech))
    }
}

/// The Error Lookup Circuit as a match-line CAM: `entries` rows of
/// `tag_bits` compare + `payload_bits` readout (Section V-A sizes each
/// MUSE(144,132) row at 157 bits: 12 remainder + 144 value + sign).
pub fn elc_cam_cost(
    entries: usize,
    tag_bits: u32,
    payload_bits: u32,
    tech: &TechParams,
) -> CircuitCost {
    // Compare tree per row (XNOR + AND reduce) with the constant payload
    // folded into shared read-out logic (it synthesizes to ROM-like planes,
    // not per-row flops).
    let row_cells = tag_bits as u64 / 2 + payload_bits as u64 / 16;
    let cells = entries as u64 * row_cells;
    let match_levels = (entries.max(2) as f64).log2().ceil();
    let delay_ps = (tag_bits.max(2) as f64).log2().ceil() * tech.cam_level_ps
        + match_levels * tech.cam_level_ps;
    CircuitCost {
        delay_ps,
        cells,
        area_um2: cells as f64 * tech.cell_area_um2,
        power_mw: tech.dynamic_power_mw(cells / 4), // match-line gating: most rows idle
    }
}

/// A wide adder/subtractor (the correction stage): parallel-prefix.
pub fn adder_cost(width: u32, tech: &TechParams) -> CircuitCost {
    let prefix_stages = (width.max(2) as f64).log2().ceil() as u32;
    let cells = 3 * width as u64 + prefix_stages as u64 * width as u64 / 2;
    CircuitCost {
        delay_ps: prefix_stages as f64 * tech.prefix_stage_ps + tech.xor2_ps,
        cells,
        area_um2: cells as f64 * tech.cell_area_um2,
        power_mw: tech.dynamic_power_mw(cells),
    }
}

/// An XOR tree forest: `outputs` parity bits, each XORing `inputs_per_output`
/// source bits (the Reed-Solomon encoder shape).
pub fn xor_tree_cost(outputs: u32, inputs_per_output: f64, tech: &TechParams) -> CircuitCost {
    let per_tree = (inputs_per_output - 1.0).max(0.0);
    let cells = (outputs as f64 * per_tree).round() as u64;
    let depth = inputs_per_output.max(2.0).log2().ceil();
    CircuitCost {
        delay_ps: depth * tech.xor2_ps,
        cells,
        area_um2: cells as f64 * tech.cell_area_um2,
        power_mw: tech.dynamic_power_mw(cells),
    }
}

/// A GF(2^s) log or antilog ROM (2^s entries × s bits).
pub fn gf_lut_cost(symbol_bits: u32, tech: &TechParams) -> CircuitCost {
    let entries = 1u64 << symbol_bits;
    let cells = entries * symbol_bits as u64 / 2; // ROM bit-cell ≈ half a gate
    CircuitCost {
        delay_ps: symbol_bits as f64 * tech.lut_level_ps,
        cells,
        area_um2: cells as f64 * tech.cell_area_um2,
        power_mw: tech.dynamic_power_mw(cells / 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wallace_schedule_classic_sequence() {
        // The Dadda/Wallace reduction sequence: 3->2 in one level,
        // 4->3->2 in two, 6->4->3->2 in three, ...
        assert_eq!(wallace_levels(1), 0);
        assert_eq!(wallace_levels(2), 0);
        assert_eq!(wallace_levels(3), 1);
        assert_eq!(wallace_levels(4), 2);
        assert_eq!(wallace_levels(6), 3);
        assert_eq!(wallace_levels(9), 4);
        assert_eq!(wallace_levels(13), 5);
        assert_eq!(wallace_levels(19), 6);
        assert_eq!(wallace_levels(28), 7);
        assert_eq!(wallace_levels(42), 8);
        assert_eq!(wallace_levels(50), 9);
        assert_eq!(wallace_levels(63), 9);
        assert_eq!(wallace_levels(64), 10);
    }

    #[test]
    fn zero_pp_elimination_saves_a_level() {
        // The paper's example: 73 PPs need one more level than 50.
        assert_eq!(wallace_levels(73), 10);
        assert_eq!(wallace_levels(50), 9);
    }

    #[test]
    fn wallace_adder_count_grows_with_width() {
        assert!(wallace_adders(50, 300) > wallace_adders(50, 100));
        assert_eq!(wallace_adders(2, 64), 0);
    }

    #[test]
    fn const_multiplier_monotone_in_constant_size() {
        let tech = TechParams::default();
        let small = ConstMultiplier::new(80, &U320::from(2005u64)).cost(&tech);
        let big_const = *muse_core::FastMod::minimal(2005, 80).unwrap().inverse();
        let big = ConstMultiplier::new(80, &big_const).cost(&tech);
        assert!(big.cells > small.cells);
        assert!(big.delay_ps >= small.delay_ps);
    }

    #[test]
    fn fast_modulo_is_two_multipliers() {
        let tech = TechParams::default();
        let fm = muse_core::FastMod::minimal(4065, 144).unwrap();
        let unit = FastModuloUnit::new(144, 4065, fm.inverse(), fm.shift());
        let cost = unit.cost(&tech);
        let a = unit.inverse_multiplier().cost(&tech);
        let b = unit.modulus_multiplier().cost(&tech);
        assert_eq!(cost.cells, a.cells + b.cells);
        assert!((cost.delay_ps - (a.delay_ps + b.delay_ps)).abs() < 1e-9);
        // The second multiplier is much faster than the first (paper V-B).
        assert!(b.delay_ps < a.delay_ps);
    }

    #[test]
    fn elc_cam_sized_like_paper() {
        // MUSE(144,132): 1080 entries × 157 bits.
        let tech = TechParams::default();
        let cam = elc_cam_cost(1080, 12, 145, &tech);
        assert!(cam.cells > 8_000 && cam.cells < 40_000);
        assert!(cam.delay_ps < 500.0);
    }

    #[test]
    fn xor_tree_depth_is_logarithmic() {
        let tech = TechParams::default();
        let shallow = xor_tree_cost(16, 8.0, &tech);
        let deep = xor_tree_cost(16, 64.0, &tech);
        assert!(deep.delay_ps > shallow.delay_ps);
        assert_eq!(shallow.delay_ps, 3.0 * tech.xor2_ps);
        assert_eq!(deep.delay_ps, 6.0 * tech.xor2_ps);
    }
}
