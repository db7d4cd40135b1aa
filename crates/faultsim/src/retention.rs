//! DRAM retention-error modelling for the asymmetric-code use case
//! (paper Sections III-C and IV).
//!
//! Retention failures are one-directional: a leaky cell discharges, so a
//! stored charge reads as the *discharged* level — modelled here as 1→0
//! flips (the paper: "without loss of generality, we assume 1→0 errors
//! only"). Refreshing less often saves power but raises the per-cell
//! failure probability; an asymmetric MUSE code like MUSE(80,67) corrects
//! any such pattern confined to one device, letting the system hold the
//! same reliability at a longer refresh interval.

use muse_core::{MuseClassifier, MuseCode, ReadOutcome};

use crate::engine::{SimEngine, Tally};
use crate::fastpath::{HalfDraws, TrialPlan};
use crate::rng::CountCdf;

/// Per-cell retention-failure model.
///
/// The probability that a weak cell loses its charge within a refresh
/// interval `t` (ms) follows an exponential tail:
/// `p(t) = weak_fraction · (1 − exp(−max(t − t_nominal, 0) / tau))`.
/// At the nominal 64 ms interval every cell holds (p = 0), matching the
/// observation that retention errors only appear when refresh is relaxed.
#[derive(Debug, Clone, Copy)]
pub struct RetentionModel {
    /// Fraction of cells that are retention-weak (typ. ~1e-6..1e-4).
    pub weak_fraction: f64,
    /// Nominal (safe) refresh interval in ms (DDR4: 64 ms).
    pub nominal_ms: f64,
    /// Tail time-constant in ms.
    pub tau_ms: f64,
}

impl Default for RetentionModel {
    fn default() -> Self {
        Self {
            weak_fraction: 1e-4,
            nominal_ms: 64.0,
            tau_ms: 512.0,
        }
    }
}

impl RetentionModel {
    /// Per-cell failure probability at refresh interval `t_ms`.
    pub fn cell_failure_probability(&self, t_ms: f64) -> f64 {
        let overtime = (t_ms - self.nominal_ms).max(0.0);
        self.weak_fraction * (1.0 - (-overtime / self.tau_ms).exp())
    }
}

/// Outcome tallies of a retention Monte-Carlo run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RetentionStats {
    /// Words read back with no failing cell.
    pub clean: u64,
    /// Words healed by the asymmetric code.
    pub corrected: u64,
    /// Words with detected-but-uncorrectable loss.
    pub uncorrectable: u64,
    /// Beyond-model (multi-device) losses "corrected" to wrong data.
    pub miscorrected: u64,
    /// Words whose corruption aliased to a zero remainder (truly silent).
    pub silent_corruptions: u64,
}

impl RetentionStats {
    /// Total words simulated.
    pub fn total(&self) -> u64 {
        self.clean
            + self.corrected
            + self.uncorrectable
            + self.miscorrected
            + self.silent_corruptions
    }

    /// Words read back wrong without any flag (miscorrected or silent).
    pub fn undetected_corruptions(&self) -> u64 {
        self.miscorrected + self.silent_corruptions
    }

    /// Uncorrectable-word rate.
    pub fn uber(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.uncorrectable as f64 / self.total() as f64
    }
}

impl Tally for RetentionStats {
    fn merge(&mut self, other: Self) {
        self.clean += other.clean;
        self.corrected += other.corrected;
        self.uncorrectable += other.uncorrectable;
        self.miscorrected += other.miscorrected;
        self.silent_corruptions += other.silent_corruptions;
    }
}

/// Simulates `words` stored words at refresh interval `t_ms`: every stored
/// 1-bit independently discharges with the model's probability; each word is
/// then decoded.
///
/// Runs on the [`SimEngine`] (one worker per CPU) with residue-space
/// decoding — see [`simulate_retention_threaded`] for explicit thread
/// control. Results are bit-identical at any thread count.
pub fn simulate_retention(
    code: &MuseCode,
    model: &RetentionModel,
    t_ms: f64,
    words: u64,
    seed: u64,
) -> RetentionStats {
    simulate_retention_threaded(code, model, t_ms, words, seed, 0)
}

/// [`simulate_retention`] with an explicit worker count (0 ⇒ all CPUs).
pub fn simulate_retention_threaded(
    code: &MuseCode,
    model: &RetentionModel,
    t_ms: f64,
    words: u64,
    seed: u64,
    threads: usize,
) -> RetentionStats {
    let p = model.cell_failure_probability(t_ms);
    let engine = SimEngine::new(threads);
    let kernel = crate::require_kernel(code, "retention");
    // Per-symbol *candidate* counts: a cell is a leak candidate with
    // probability `p` independent of its stored value; only candidates over
    // stored 1-bits actually flip (`mask & content`). Sampling the count
    // from its binomial CDF and then placing it costs one raw draw for the
    // common zero case, instead of `width` Bernoulli draws per symbol —
    // and symbols without candidates never observe their content, so most
    // trials draw no payload limbs at all.
    let n_sym = kernel.num_symbols();
    let plan = TrialPlan::new(kernel, 1);
    let max_width = (0..n_sym).map(|s| kernel.symbol_bits(s)).max().unwrap_or(0);
    let candidate_counts: Vec<CountCdf> =
        (0..=max_width).map(|w| CountCdf::binomial(w, p)).collect();
    let widths: Vec<u32> = (0..n_sym).map(|s| kernel.symbol_bits(s)).collect();
    engine.run_blocked(
        seed,
        words,
        || (MuseClassifier::new(kernel), Vec::new()),
        |range, rng, (classifier, strikes), stats: &mut RetentionStats| {
            for _ in range {
                classifier.begin_read();
                strikes.clear();
                for sym in 0..n_sym {
                    let k = candidate_counts[widths[sym] as usize].sample(rng.next_u64());
                    if k == 0 {
                        continue;
                    }
                    // k distinct candidate positions within the symbol.
                    let mut halves = HalfDraws::default();
                    let mut mask = 0u16;
                    for _ in 0..k {
                        loop {
                            let bit = plan.pick_bit(rng, &mut halves, sym);
                            if mask & (1 << bit) == 0 {
                                mask |= 1 << bit;
                                break;
                            }
                        }
                    }
                    // A leaked bit is a 1→0 flip: candidates only bite on
                    // stored 1-bits.
                    let pattern = mask & classifier.content(rng, sym);
                    if pattern != 0 {
                        strikes.push((sym, pattern));
                    }
                }
                if strikes.is_empty() {
                    stats.clean += 1;
                    continue;
                }
                match classifier.read_healthy(rng, strikes) {
                    // Flips confined to check bits read back as the right
                    // payload; a nonzero pattern aliasing to remainder 0
                    // over payload bits is a silent corruption.
                    ReadOutcome::CleanIntact => stats.clean += 1,
                    ReadOutcome::CleanCorrupted => stats.silent_corruptions += 1,
                    ReadOutcome::CorrectedRight => stats.corrected += 1,
                    ReadOutcome::Miscorrected => stats.miscorrected += 1,
                    ReadOutcome::Detected => stats.uncorrectable += 1,
                }
            }
        },
    )
}

/// Relative refresh power at interval `t_ms` versus the nominal interval
/// (refresh power scales with refresh frequency).
pub fn relative_refresh_power(model: &RetentionModel, t_ms: f64) -> f64 {
    model.nominal_ms / t_ms
}

/// One row of a refresh-interval sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Refresh interval in ms.
    pub t_ms: f64,
    /// Per-cell failure probability at this interval.
    pub cell_p: f64,
    /// Measured stats.
    pub stats: RetentionStats,
    /// Refresh power relative to nominal.
    pub refresh_power: f64,
}

/// Sweeps refresh intervals, measuring correction coverage and refresh
/// power (the Section III-C trade-off).
pub fn sweep_refresh_intervals(
    code: &MuseCode,
    model: &RetentionModel,
    intervals_ms: &[f64],
    words: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    intervals_ms
        .iter()
        .enumerate()
        .map(|(i, &t_ms)| SweepPoint {
            t_ms,
            cell_p: model.cell_failure_probability(t_ms),
            stats: simulate_retention(code, model, t_ms, words, seed ^ (i as u64) << 32),
            refresh_power: relative_refresh_power(model, t_ms),
        })
        .collect()
}

/// Word-level uncorrectable probability predicted analytically: at least two
/// devices each losing at least one stored 1-bit (per-word expectation,
/// assuming half the bits store 1s).
pub fn analytic_uncorrectable_probability(code: &MuseCode, cell_p: f64) -> f64 {
    let s = code.symbol_map().bits_of(0).len() as f64;
    // P(device has >= 1 failing stored one) with ~s/2 ones per device.
    let p_dev = 1.0 - (1.0 - cell_p).powf(s / 2.0);
    let n = code.symbol_map().num_symbols() as f64;
    // 1 - P(0 devices) - P(exactly 1 device)
    let p0 = (1.0 - p_dev).powf(n);
    let p1 = n * p_dev * (1.0 - p_dev).powf(n - 1.0);
    (1.0 - p0 - p1).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::presets;

    #[test]
    fn model_is_zero_at_nominal() {
        let m = RetentionModel::default();
        assert_eq!(m.cell_failure_probability(64.0), 0.0);
        assert_eq!(m.cell_failure_probability(32.0), 0.0);
        assert!(m.cell_failure_probability(256.0) > 0.0);
        // Monotone in t.
        assert!(m.cell_failure_probability(512.0) > m.cell_failure_probability(128.0));
        // Bounded by the weak fraction.
        assert!(m.cell_failure_probability(1e9) <= m.weak_fraction * 1.0001);
    }

    #[test]
    fn nominal_interval_is_error_free() {
        let code = presets::muse_80_67();
        let stats = simulate_retention(&code, &RetentionModel::default(), 64.0, 200, 3);
        assert_eq!(stats.clean, 200);
        assert_eq!(stats.uber(), 0.0);
    }

    #[test]
    fn relaxed_refresh_errors_are_healed() {
        // Crank the weak fraction so errors are common, then verify the
        // asymmetric code corrects all single-device patterns and never
        // corrupts silently.
        let code = presets::muse_80_67();
        let model = RetentionModel {
            weak_fraction: 2e-3,
            ..RetentionModel::default()
        };
        let stats = simulate_retention(&code, &model, 2048.0, 2_000, 7);
        assert!(stats.corrected > 50, "expected many corrected words");
        // Single-device losses always heal; only the rare multi-device
        // coincidences may miscorrect, and nothing slips through silently.
        assert!(stats.undetected_corruptions() * 100 < stats.total());
        assert_eq!(stats.silent_corruptions, 0);
    }

    #[test]
    fn sweep_is_monotone_in_power() {
        let code = presets::muse_80_67();
        let model = RetentionModel::default();
        let points = sweep_refresh_intervals(&code, &model, &[64.0, 128.0, 256.0, 512.0], 100, 11);
        assert_eq!(points.len(), 4);
        for pair in points.windows(2) {
            assert!(pair[1].refresh_power < pair[0].refresh_power);
            assert!(pair[1].cell_p >= pair[0].cell_p);
        }
        assert!((points[0].refresh_power - 1.0).abs() < 1e-12);
    }

    #[test]
    fn analytic_matches_simulation_order_of_magnitude() {
        let code = presets::muse_80_67();
        let model = RetentionModel {
            weak_fraction: 5e-3,
            ..RetentionModel::default()
        };
        let t = 4096.0;
        let cell_p = model.cell_failure_probability(t);
        let analytic = analytic_uncorrectable_probability(&code, cell_p);
        let stats = simulate_retention(&code, &model, t, 4_000, 13);
        let measured = stats.uber();
        assert!(
            measured <= analytic * 4.0 + 0.01 && analytic <= measured * 4.0 + 0.01,
            "analytic {analytic} vs measured {measured}"
        );
    }
}
