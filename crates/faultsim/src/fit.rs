//! Field-reliability projection: FIT-rate accounting over published DRAM
//! failure modes (an extension beyond the paper's evaluation; the per-mode
//! rates follow the shape of large-scale field studies à la Sridharan et
//! al., not any specific deployment).
//!
//! A failure mode is a *pattern generator* (how a fault corrupts a
//! codeword) plus a *rate* (FIT per device = failures per 10⁹ device-
//! hours). For each mode the Monte-Carlo engine measures the probability
//! that the code corrects / detects / miscorrects the resulting word
//! errors, and the projection combines them into DIMM-level rates of
//! detected-uncorrectable errors (DUE) and silent data corruptions (SDC).

use muse_core::{MuseClassifier, MuseCode, WordRead};

use crate::engine::{SimEngine, Tally};
use crate::fastpath::{HalfDraws, TrialPlan};
use crate::rng::Bounded32;

/// A DRAM device failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// One stuck/flipped bit in one device.
    SingleBit,
    /// A multi-bit fault confined to one device (row/column/sense-amp).
    SingleDeviceMultiBit,
    /// An entire device returns garbage (chip kill).
    WholeDevice,
    /// Two independent devices fault in the same word (the rare
    /// overlapping-fault case a single-symbol-correct code cannot fix).
    TwoDevices,
}

impl FailureMode {
    /// Representative field rate, FIT per device.
    ///
    /// Shaped after published field studies: single-bit faults dominate;
    /// whole-chip faults are rare; overlapping faults are derived from the
    /// others (see [`FitProjection`]) and given here as a per-word residual.
    pub fn fit_per_device(self) -> f64 {
        match self {
            Self::SingleBit => 35.0,
            Self::SingleDeviceMultiBit => 20.0,
            Self::WholeDevice => 5.0,
            Self::TwoDevices => 0.05,
        }
    }

    /// All modes.
    pub fn all() -> [FailureMode; 4] {
        [
            Self::SingleBit,
            Self::SingleDeviceMultiBit,
            Self::WholeDevice,
            Self::TwoDevices,
        ]
    }
}

/// Measured per-mode outcome probabilities.
#[derive(Debug, Clone, Copy)]
pub struct ModeOutcome {
    /// The mode.
    pub mode: FailureMode,
    /// P(corrected back to the right data).
    pub p_correct: f64,
    /// P(detected uncorrectable).
    pub p_due: f64,
    /// P(silent corruption or miscorrection).
    pub p_sdc: f64,
}

/// Internal tally for one mode measurement.
#[derive(Debug, Clone, Copy, Default)]
struct ModeTally {
    correct: u64,
    due: u64,
    sdc: u64,
}

impl Tally for ModeTally {
    fn merge(&mut self, other: Self) {
        self.correct += other.correct;
        self.due += other.due;
        self.sdc += other.sdc;
    }
}

/// Monte-Carlo per-mode outcome measurement for a MUSE code.
///
/// Trials run in residue space on the [`SimEngine`] with `threads` workers
/// (0 ⇒ one per CPU); results are bit-identical at any thread count.
pub fn measure_mode(
    code: &MuseCode,
    mode: FailureMode,
    trials: u64,
    seed: u64,
    threads: usize,
) -> ModeOutcome {
    let kernel = crate::require_kernel(code, "FIT");
    let plan = TrialPlan::new(kernel, 2);
    // Multi-bit mode samples a pattern *value* in [2, 2^w): excludes only
    // the lowest single-bit flip, matching the seed's sampling (some
    // single-bit patterns remain).
    let multibit: Vec<Bounded32> = (0..kernel.num_symbols())
        .map(|s| Bounded32::new(((1u32 << kernel.symbol_bits(s)) - 2).max(1)))
        .collect();
    let tally: ModeTally = SimEngine::new(threads).run_blocked(
        seed ^ 0xF17,
        trials,
        || (MuseClassifier::new(kernel), Vec::new()),
        |range, rng, (classifier, strikes), tally: &mut ModeTally| {
            for _ in range {
                classifier.begin_read();
                strikes.clear();
                let mut halves = HalfDraws::default();
                match mode {
                    FailureMode::SingleBit => {
                        let sym = plan.pick_symbol(rng, &mut halves);
                        let bit = plan.pick_bit(rng, &mut halves, sym) as u16;
                        strikes.push((sym, 1 << bit));
                    }
                    FailureMode::WholeDevice => {
                        let sym = plan.pick_symbol(rng, &mut halves);
                        let pattern = plan.pick_pattern(rng, &mut halves, sym);
                        strikes.push((sym, pattern));
                    }
                    FailureMode::SingleDeviceMultiBit => {
                        let sym = plan.pick_symbol(rng, &mut halves);
                        let half = halves.next(rng);
                        let pattern = 2 + multibit[sym].of_half(rng, half) as u16;
                        strikes.push((sym, pattern));
                    }
                    FailureMode::TwoDevices => {
                        plan.inject_distinct(strikes, rng, 2);
                    }
                }
                match WordRead::from(classifier.read_healthy(rng, strikes)) {
                    WordRead::Correct => tally.correct += 1,
                    WordRead::Due => tally.due += 1,
                    WordRead::Sdc => tally.sdc += 1,
                }
            }
        },
    );
    let t = trials as f64;
    ModeOutcome {
        mode,
        p_correct: tally.correct as f64 / t,
        p_due: tally.due as f64 / t,
        p_sdc: tally.sdc as f64 / t,
    }
}

/// DIMM-level projection.
#[derive(Debug, Clone)]
pub struct FitProjection {
    /// Per-mode measured outcomes.
    pub outcomes: Vec<ModeOutcome>,
    /// Detected-uncorrectable FIT per DIMM.
    pub due_fit: f64,
    /// Silent-corruption FIT per DIMM.
    pub sdc_fit: f64,
}

/// Projects DIMM-level DUE/SDC FIT rates for a code with `devices` DRAM
/// chips, weighting each mode's measured outcome by its field rate.
pub fn project_fit(code: &MuseCode, devices: u32, trials: u64, seed: u64) -> FitProjection {
    let mut outcomes = Vec::new();
    let mut due_fit = 0.0;
    let mut sdc_fit = 0.0;
    for mode in FailureMode::all() {
        let outcome = measure_mode(code, mode, trials, seed ^ mode as u64, 0);
        let rate = mode.fit_per_device() * devices as f64;
        due_fit += rate * outcome.p_due;
        sdc_fit += rate * outcome.p_sdc;
        outcomes.push(outcome);
    }
    FitProjection {
        outcomes,
        due_fit,
        sdc_fit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::presets;

    #[test]
    fn in_model_modes_always_correct() {
        let code = presets::muse_144_132();
        for mode in [
            FailureMode::SingleBit,
            FailureMode::SingleDeviceMultiBit,
            FailureMode::WholeDevice,
        ] {
            let o = measure_mode(&code, mode, 400, 11, 0);
            assert_eq!(o.p_correct, 1.0, "{mode:?}");
            assert_eq!(o.p_due + o.p_sdc, 0.0, "{mode:?}");
        }
    }

    #[test]
    fn two_device_mode_splits_due_and_sdc() {
        let code = presets::muse_144_132();
        let o = measure_mode(&code, FailureMode::TwoDevices, 2_000, 13, 0);
        assert_eq!(o.p_correct, 0.0, "two-device errors never restore data");
        assert!(o.p_due > 0.8, "most are detected: {}", o.p_due);
        assert!(o.p_sdc < 0.2);
        assert!((o.p_due + o.p_sdc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn projection_dominated_by_overlap_residual() {
        // A ChipKill code's DUE/SDC FIT comes only from the overlap mode.
        let proj = project_fit(&presets::muse_144_132(), 36, 800, 17);
        assert!(proj.due_fit > 0.0);
        assert!(
            proj.due_fit < 36.0 * 0.05 * 1.01,
            "bounded by the overlap rate"
        );
        assert!(proj.sdc_fit < proj.due_fit);
        assert_eq!(proj.outcomes.len(), 4);
    }

    #[test]
    fn stronger_code_has_lower_sdc_fit() {
        let weak = project_fit(&presets::muse_144_132(), 36, 2_000, 23);
        let strong = project_fit(&presets::muse_144_128(), 36, 2_000, 23);
        assert!(
            strong.sdc_fit < weak.sdc_fit,
            "m=65519 detects more than m=4065"
        );
    }
}
