//! Multi-Symbol Error Detection (MSED) rate estimation — the Monte-Carlo
//! simulator behind Table IV.
//!
//! Following Section VII-A: sample `trials` random `k`-device error
//! patterns; corrupt each chosen device with a uniformly random non-identity
//! pattern; run the decoder; the error counts as *detected* when the decoder
//! reports an uncorrectable error. Clean decodes (syndrome aliased to zero)
//! and miscorrections are undetected.
//!
//! The MUSE path runs on the [`SimEngine`] with the incremental
//! residue-syndrome kernel: no codeword is ever built — a trial draws the
//! contents of the symbols it corrupts, accumulates the syndrome with
//! per-symbol table lookups, and finishes like every MUSE read in
//! [`SyndromeKernel::finish_read`]. [`muse_msed`] picks one of three
//! routes:
//!
//! * **k = 2, one symbol width** (every preset): fully columnar — each
//!   engine block pre-fills four flat draw columns (one *quad* draw packing
//!   both distinct symbol indices and both nonzero patterns into a single
//!   bounded integer, two raw contents, an unconditional check value, and
//!   an outside-strike correction content), and the structure-of-arrays
//!   lane kernel ([`crate::lanes`]) classifies the block with no live PRNG
//!   in the hot loop;
//! * **other k up to `MAX_STRIKES`**: per-strike columns from the shared
//!   strike sampler, one trial at a time, with the check value drawn
//!   lazily in trial order;
//! * **k past `MAX_STRIKES`, or mixed widths**: the generic
//!   [`MuseClassifier`] loop.
//!
//! Every route draws from per-block streams, so tallies are bit-identical
//! at any `threads` setting. [`rs_msed`] draws its device strikes through
//! the same sampler as the per-strike MUSE route. A healthy RS read is a
//! pure function of its strike, so a two-device RS run with at least as
//! many trials as distinct strikes (`C(n, 2)·(2^w − 1)²`, 141 750 for x4
//! devices) classifies each strike once into an outcome table and looks
//! its trials up; the draws, and so the tallies, are the per-trial loop's.
//! [`rs_msed_exact`] counts the same table: exact Table IV RS rates.

#[cfg(test)]
use muse_core::Word;
use muse_core::{Classifier, Entropy, MuseClassifier, MuseCode, ReadOutcome, SyndromeKernel};
#[cfg(test)]
use muse_rs::RsMemoryDecoded;
use muse_rs::{RsClassifier, RsMemoryCode};

use crate::engine::{pull_units, SimEngine, Tally};
use crate::fastpath::{
    self, msed_inline_trial, InlineTrial, StrikeColumns, StrikeSampler, TrialPlan,
};
use crate::lanes::{self, LaneBuffers, LaneKernel};
use crate::rng::Bounded32;
use crate::Rng;

/// Classification of one injected error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The decoder flagged an uncorrectable error (the good case for
    /// beyond-model errors).
    Detected,
    /// The decoder corrected the word back to the original payload (only
    /// possible for in-model errors, e.g. `failing_devices = 1`).
    Corrected,
    /// The decoder "corrected" the word — into the wrong data.
    Miscorrected,
    /// The syndrome aliased to zero; the corruption passed silently.
    Silent,
}

/// Aggregated Monte-Carlo tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsedStats {
    /// Errors flagged uncorrectable.
    pub detected: u64,
    /// In-model errors corrected back to the original data.
    pub corrected: u64,
    /// Errors miscorrected to wrong data.
    pub miscorrected: u64,
    /// Errors aliasing to a zero syndrome.
    pub silent: u64,
}

impl MsedStats {
    /// Total injected errors.
    pub fn total(&self) -> u64 {
        self.detected + self.corrected + self.miscorrected + self.silent
    }

    /// The multi-symbol error detection rate, in percent: detected out of
    /// all *beyond-model* outcomes (proper corrections excluded).
    pub fn detection_rate(&self) -> f64 {
        let beyond = self.detected + self.miscorrected + self.silent;
        if beyond == 0 {
            return 0.0;
        }
        100.0 * self.detected as f64 / beyond as f64
    }

    fn record(&mut self, outcome: Outcome) {
        self.record_many(outcome, 1);
    }

    /// Tallies from per-outcome counts indexed by `Outcome as usize`.
    fn from_counts(counts: [u64; 4]) -> Self {
        Self {
            detected: counts[Outcome::Detected as usize],
            corrected: counts[Outcome::Corrected as usize],
            miscorrected: counts[Outcome::Miscorrected as usize],
            silent: counts[Outcome::Silent as usize],
        }
    }

    /// Tallies a batch of identical outcomes in one addition — the lane
    /// kernel delivers its bulk-Detected majority this way.
    fn record_many(&mut self, outcome: Outcome, count: u64) {
        match outcome {
            Outcome::Detected => self.detected += count,
            Outcome::Corrected => self.corrected += count,
            Outcome::Miscorrected => self.miscorrected += count,
            Outcome::Silent => self.silent += count,
        }
    }
}

impl Tally for MsedStats {
    fn merge(&mut self, other: Self) {
        self.detected += other.detected;
        self.corrected += other.corrected;
        self.miscorrected += other.miscorrected;
        self.silent += other.silent;
    }
}

/// Configuration of one MSED experiment.
#[derive(Debug, Clone, Copy)]
pub struct MsedConfig {
    /// Number of simultaneously failing devices (the paper's `k`; 2 is the
    /// canonical "two DRAMs at the same time" case).
    pub failing_devices: usize,
    /// Monte-Carlo sample count (the paper uses 10 000).
    pub trials: u64,
    /// PRNG seed.
    pub seed: u64,
    /// Worker threads (0 ⇒ one per available CPU). Tallies are
    /// bit-identical at any value.
    pub threads: usize,
}

impl Default for MsedConfig {
    fn default() -> Self {
        Self {
            failing_devices: 2,
            trials: 10_000,
            seed: 0x4D53_4544,
            threads: 0,
        }
    }
}

/// Estimates the MSED rate of a MUSE code.
///
/// Devices are the code's symbols. Each trial corrupts `failing_devices`
/// distinct symbols with independent uniform non-identity bit patterns.
///
/// # Panics
///
/// Panics if `failing_devices` is 0 or exceeds the code's symbol count,
/// or if the code carries no syndrome kernel.
///
/// # Examples
///
/// ```
/// use muse_core::presets;
/// use muse_faultsim::{muse_msed, MsedConfig};
///
/// let stats = muse_msed(&presets::muse_144_132(), MsedConfig {
///     trials: 2_000, ..MsedConfig::default()
/// });
/// // Table IV reports 86.71% for this code; the estimate lands nearby.
/// assert!(stats.detection_rate() > 75.0 && stats.detection_rate() < 95.0);
/// ```
pub fn muse_msed(code: &MuseCode, config: MsedConfig) -> MsedStats {
    let kernel = crate::require_kernel(code, "MSED");
    let k = config.failing_devices;
    let n_sym = kernel.num_symbols();
    assert!(
        (1..=n_sym).contains(&k),
        "cannot corrupt {k} of {n_sym} devices: failing_devices must be in 1..={n_sym}"
    );
    let sampler = StrikeSampler::new((0..n_sym).map(|s| kernel.symbol_bits(s)).collect(), k);
    if !sampler.is_columnar() {
        // Beyond the fixed-capacity arrays, or mixed symbol widths
        // (patterns cannot be column-filled ahead of the symbol draw).
        let plan = (k <= fastpath::MAX_STRIKES).then(|| TrialPlan::new(kernel, k));
        return muse_msed_generic(kernel, config, |strikes, rng| match &plan {
            Some(plan) => plan.inject_distinct(strikes, rng, k),
            None => sampler.draw(rng, strikes),
        });
    }
    if k == 2 && lanes::quad_bound(kernel).is_some() {
        muse_msed_lanes(kernel, config)
    } else {
        muse_msed_columnar(kernel, &sampler, config)
    }
}

/// The generic content-space route: `inject` pushes one trial's strikes,
/// and a [`MuseClassifier`] samples contents and classifies the read in
/// the syndrome domain — no codeword is ever materialized on any strike
/// count or layout.
fn muse_msed_generic(
    kernel: &SyndromeKernel,
    config: MsedConfig,
    inject: impl Fn(&mut Vec<(usize, u16)>, &mut Rng) + Sync,
) -> MsedStats {
    SimEngine::new(config.threads).run_blocked(
        config.seed,
        config.trials,
        || (MuseClassifier::new(kernel), Vec::new()),
        |range, rng, (classifier, strikes), stats: &mut MsedStats| {
            for _ in range {
                classifier.begin_read();
                strikes.clear();
                inject(strikes, rng);
                stats.record(outcome_of(classifier.read_healthy(rng, strikes)));
            }
        },
    )
}

/// The k = 2 route: four bulk-filled draw columns per engine block (see
/// [`LaneKernel::run_block`] for the scheme), classified by the lane
/// kernel. The columns hold every draw, so tallies are bit-identical at
/// any thread count.
fn muse_msed_lanes(kernel: &SyndromeKernel, config: MsedConfig) -> MsedStats {
    const BLOCK: usize = SimEngine::TRIAL_BLOCK as usize;
    let lanes = LaneKernel::new(kernel);
    let quad_pick = Bounded32::new(lanes.quad_bound);
    let x_pick = x_sampler(kernel);
    SimEngine::new(config.threads).run_blocked(
        config.seed,
        config.trials,
        || {
            (
                vec![0u32; 4 * BLOCK], // the four draw columns, back to back
                LaneBuffers::default(),
            )
        },
        |range, rng, (cols, buf), stats: &mut MsedStats| {
            let len = (range.end - range.start) as usize;
            let (quad_col, rest) = cols.split_at_mut(len);
            let (cnt_col, rest) = rest.split_at_mut(len);
            let (x_col, rest) = rest.split_at_mut(len);
            let extra_col = &mut rest[..len];
            quad_pick.fill(rng, quad_col);
            rng.fill_u32s(cnt_col);
            x_pick.fill(rng, x_col);
            rng.fill_u32s(extra_col);
            lanes.run_block(
                buf,
                len,
                quad_col,
                cnt_col,
                x_col,
                extra_col,
                |outcome, count| stats.record_many(outcome_of(outcome), count),
            );
        },
    )
}

/// The check-value sampler, uniform over `[0, m)`.
fn x_sampler(kernel: &SyndromeKernel) -> Bounded32 {
    Bounded32::new(u32::try_from(kernel.modulus()).expect("kernel moduli fit u32"))
}

/// Maps a read outcome onto the MSED tally class. The decoder reads a zero
/// syndrome as "no error": any corruption landing there passes silently,
/// payload-intact or not.
#[inline]
fn outcome_of(outcome: ReadOutcome) -> Outcome {
    match outcome {
        ReadOutcome::CleanIntact | ReadOutcome::CleanCorrupted => Outcome::Silent,
        ReadOutcome::Detected => Outcome::Detected,
        ReadOutcome::CorrectedRight => Outcome::Corrected,
        ReadOutcome::Miscorrected => Outcome::Miscorrected,
    }
}

/// The per-strike columnar route, for strike counts other than 2 (and
/// k = 2 past the quad bound): the sampler's strike columns plus one raw
/// content column, consumed one trial at a time through
/// [`msed_inline_trial`] with lazily drawn check values.
fn muse_msed_columnar(
    kernel: &SyndromeKernel,
    sampler: &StrikeSampler,
    config: MsedConfig,
) -> MsedStats {
    let k = config.failing_devices;
    let x_pick = x_sampler(kernel);
    let content16 = Bounded32::new(1 << 16);
    SimEngine::new(config.threads).run_blocked(
        config.seed,
        config.trials,
        || (StrikeColumns::default(), Vec::new()),
        |range, rng, (cols, cnt_col), stats: &mut MsedStats| {
            let len = (range.end - range.start) as usize;
            let block = sampler.fill(rng, cols, len);
            cnt_col.resize(k * len, 0);
            content16.fill(rng, cnt_col);
            let cnt_col = &cnt_col[..];
            for t in 0..len {
                // Fresh per-trial records: local and non-escaping, so their
                // stores stay in registers.
                let mut strikes = [(0, 0); fastpath::MAX_STRIKES];
                let mut trial = InlineTrial::default();
                stats.record(outcome_of(msed_inline_trial(
                    kernel,
                    x_pick,
                    rng,
                    &mut trial,
                    block.strikes(t, &mut strikes),
                    |i| cnt_col[i * len + t] as u16,
                )));
            }
        },
    )
}

/// How an RS "correction" of a beyond-model error is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsDetectMode {
    /// Any successful correction into wrong data counts as a (silent)
    /// miscorrection — the plain symbol-domain reading of the decoder.
    SymbolSyndromes,
    /// A miscorrection counts only when every located error value lies
    /// within one physical device; a correction spanning devices is
    /// impossible under the ChipKill single-device error model, so the
    /// controller flags it as detected.
    DeviceConfined,
}

/// Estimates the MSED rate of a Reed-Solomon memory code against
/// `device_bits`-wide physical device failures (x4 ⇒ 4).
///
/// Each trial draws its device strikes through the shared strike sampler
/// and classifies them with [`RsClassifier::read_healthy`], the one RS
/// read classifier: the strikes fold into per-symbol error values (a
/// device may straddle symbols), and the read ends in the error-value
/// domain without ever encoding a codeword. The `mode` then judges
/// miscorrections ([`RsDetectMode`]). The wide encode/decode pipeline
/// survives as the property-test oracle only.
///
/// Two-device runs with at least as many trials as there are distinct
/// strikes — `C(n, 2)·(2^w − 1)²` for `n` devices of `w` bits, 141 750 for
/// x4 devices on 144 bits — classify every strike once into an outcome
/// table (of at most 2^24 one-byte cases, built on `config.threads`
/// workers) and look each trial up instead of decoding it. Smaller runs
/// decode trial by trial, since the table would cost more decodes than
/// the run itself. Both routes draw
/// the same strikes from the same per-block streams, so their tallies are
/// bit-identical: after a block's strike columns fill, its stream feeds
/// only the shortened-top range check, whose verdict does not depend on
/// the content it draws, and no later block reads it.
///
/// # Panics
///
/// Panics if `device_bits`-wide devices do not tile the code's channel
/// (as [`RsClassifier::new`] does), or if `failing_devices` is 0 or
/// exceeds the code's `device_bits`-wide device count.
pub fn rs_msed(
    code: &RsMemoryCode,
    device_bits: u32,
    mode: RsDetectMode,
    config: MsedConfig,
) -> MsedStats {
    let n_devices = RsClassifier::new(code, device_bits).devices();
    let k = config.failing_devices;
    assert!(
        (1..=n_devices).contains(&k),
        "cannot corrupt {k} of {n_devices} devices: failing_devices must be in 1..={n_devices}"
    );
    let sampler = StrikeSampler::new(vec![device_bits; n_devices], k);
    if !sampler.is_columnar() {
        // Beyond the fixed-capacity arrays: live draws into a Vec.
        return SimEngine::new(config.threads).run_blocked(
            config.seed,
            config.trials,
            || (RsClassifier::new(code, device_bits), Vec::new()),
            |range, rng, (classifier, strikes), stats: &mut MsedStats| {
                for _ in range {
                    strikes.clear();
                    sampler.draw(rng, strikes);
                    stats.record(rs_outcome(classifier, mode, rng, strikes));
                }
            },
        );
    }
    let cases = PairOutcomes::case_count(n_devices, device_bits);
    if k == 2 && cases <= config.trials && cases <= PairOutcomes::MAX_CASES {
        rs_msed_table(code, device_bits, mode, &sampler, config)
    } else {
        rs_msed_per_trial(code, device_bits, mode, &sampler, config)
    }
}

/// The exact two-device MSED tallies of a Reed-Solomon memory code: one
/// count per distinct strike — every device pair, every pair of nonzero
/// `device_bits`-wide patterns — over the `C(n, 2)·(2^w − 1)²` cases, from
/// the outcome table [`rs_msed`] samples (so the same decision, not a
/// second one). A uniformly drawn strike hits each case with equal
/// probability, so each count over [`MsedStats::total`] is the exact
/// probability `rs_msed` estimates at `failing_devices = 2`.
///
/// # Panics
///
/// Panics if `device_bits`-wide devices do not tile the code's channel,
/// or if the table would exceed 2^24 cases (devices wider than 8 bits).
pub fn rs_msed_exact(code: &RsMemoryCode, device_bits: u32, mode: RsDetectMode) -> MsedStats {
    let table = PairOutcomes::build(code, device_bits, mode, 0);
    let mut counts = [0u64; 4];
    for &outcome in &table.cases {
        counts[usize::from(outcome)] += 1;
    }
    MsedStats::from_counts(counts)
}

/// The per-trial columnar route: whole strike columns fill per 1024-trial
/// block, like the MUSE fast path, and each trial is decoded. The live
/// block RNG is touched per trial only by the shortened-top range check.
fn rs_msed_per_trial(
    code: &RsMemoryCode,
    device_bits: u32,
    mode: RsDetectMode,
    sampler: &StrikeSampler,
    config: MsedConfig,
) -> MsedStats {
    SimEngine::new(config.threads).run_blocked(
        config.seed,
        config.trials,
        || {
            (
                RsClassifier::new(code, device_bits),
                StrikeColumns::default(),
            )
        },
        |range, rng, (classifier, cols), stats: &mut MsedStats| {
            let len = (range.end - range.start) as usize;
            let block = sampler.fill(rng, cols, len);
            let mut strikes = [(0, 0); fastpath::MAX_STRIKES];
            for t in 0..len {
                let strikes = block.strikes(t, &mut strikes);
                stats.record(rs_outcome(classifier, mode, rng, strikes));
            }
        },
    )
}

/// The table route for two-device runs: the same strike columns as
/// [`rs_msed_per_trial`], each trial looked up in a [`PairOutcomes`]
/// table instead of decoded. The block RNG draws nothing after the fill.
fn rs_msed_table(
    code: &RsMemoryCode,
    device_bits: u32,
    mode: RsDetectMode,
    sampler: &StrikeSampler,
    config: MsedConfig,
) -> MsedStats {
    let table = PairOutcomes::build(code, device_bits, mode, config.threads);
    SimEngine::new(config.threads).run_blocked(
        config.seed,
        config.trials,
        StrikeColumns::default,
        |range, rng, cols, stats: &mut MsedStats| {
            let len = (range.end - range.start) as usize;
            let block = sampler.fill(rng, cols, len);
            let mut counts = [0u64; 4];
            for t in 0..len {
                counts[usize::from(table.get(block.pair(t)))] += 1;
            }
            stats.merge(MsedStats::from_counts(counts));
        },
    )
}

/// The outcome of every two-device strike on one RS geometry and detect
/// mode: one byte (`Outcome as u8`) per unordered case `(d0 < d1, pattern
/// of d0, pattern of d1)`, row `d0` after row `d0 − 1`, patterns `1..=P`
/// stored at `0..P` (`P = 2^w − 1`).
struct PairOutcomes {
    devices: usize,
    patterns: usize,
    cases: Vec<u8>,
}

impl PairOutcomes {
    /// The largest table built, in cases (bytes): x8 devices on 144 bits
    /// take 9.9M; x16 devices would take 1.5·10^11.
    const MAX_CASES: u64 = 1 << 24;

    /// `C(n, 2)·(2^w − 1)²`: the distinct strikes of `n` devices of `w`
    /// bits.
    fn case_count(devices: usize, device_bits: u32) -> u64 {
        let patterns = (1u64 << device_bits) - 1;
        (devices * (devices - 1) / 2) as u64 * patterns * patterns
    }

    /// Classifies every case, one device row per [`pull_units`] unit on
    /// `threads` workers (`0` ⇒ one per CPU).
    fn build(code: &RsMemoryCode, device_bits: u32, mode: RsDetectMode, threads: usize) -> Self {
        let devices = RsClassifier::new(code, device_bits).devices();
        let cases = Self::case_count(devices, device_bits);
        assert!(
            cases <= Self::MAX_CASES,
            "{cases} two-device cases exceed the {}-case outcome table",
            Self::MAX_CASES
        );
        let patterns = (1u16 << device_bits) - 1;
        let mut rows = vec![Vec::new(); devices - 1];
        pull_units(
            SimEngine::new(threads).threads(),
            devices - 1,
            |lo| {
                let mut classifier = RsClassifier::new(code, device_bits);
                let mut row = Vec::new();
                for hi in lo + 1..devices {
                    for a in 1..=patterns {
                        for b in 1..=patterns {
                            let strikes = [(lo, a), (hi, b)];
                            let outcome =
                                rs_outcome(&mut classifier, mode, &mut ZeroContent, &strikes);
                            row.push(outcome as u8);
                        }
                    }
                }
                row
            },
            |lo, row| {
                rows[lo] = row;
                true
            },
        );
        Self {
            devices,
            patterns: usize::from(patterns),
            cases: rows.concat(),
        }
    }

    /// The position of case `(lo, hi, a, b)`, `lo < hi`, patterns less one.
    #[inline]
    fn index(&self, (lo, hi, a, b): (usize, usize, usize, usize)) -> usize {
        // Rows before `lo` hold Σ_{i<lo} (n − 1 − i) = lo·(2n − 1 − lo)/2
        // pairs; `hi` is the (hi − lo − 1)-th pair of its row.
        let pair = lo * (2 * self.devices - 3 - lo) / 2 + hi - 1;
        (pair * self.patterns + a) * self.patterns + b
    }

    /// The outcome byte of case `(lo, hi, a, b)`.
    #[inline]
    fn get(&self, case: (usize, usize, usize, usize)) -> u8 {
        self.cases[self.index(case)]
    }
}

/// The stored content every [`PairOutcomes`] read draws: zero. A healthy
/// RS read's verdict does not depend on it (the shortened-top range check
/// sees only the injected and corrected bits above the top symbol's
/// width), so any constant gives the outcome every drawn content gives.
struct ZeroContent;

impl Entropy for ZeroContent {
    fn next_u64(&mut self) -> u64 {
        0
    }
}

/// Classifies one RS MSED trial: the read's outcome, with `mode` applied
/// to miscorrections.
#[inline]
fn rs_outcome<E: Entropy>(
    classifier: &mut RsClassifier,
    mode: RsDetectMode,
    entropy: &mut E,
    strikes: &[(usize, u16)],
) -> Outcome {
    let read = classifier.read_healthy(entropy, strikes);
    if read == ReadOutcome::Miscorrected && mode == RsDetectMode::DeviceConfined {
        let device_bits = classifier.device_width(0); // every device is as wide
        if !classifier.corrections().iter().all(|&(symbol, value)| {
            error_confined_to_device(classifier.code(), device_bits, symbol, value)
        }) {
            return Outcome::Detected;
        }
    }
    outcome_of(read)
}

/// Wide-decode outcome classification: the property-test oracle the
/// error-domain path is validated against (the retired runtime fallback).
#[cfg(test)]
fn classify_rs_wide(
    code: &RsMemoryCode,
    device_bits: u32,
    mode: RsDetectMode,
    payload: &Word,
    corrupted: &Word,
) -> Outcome {
    match code.decode(corrupted) {
        RsMemoryDecoded::Detected => Outcome::Detected,
        RsMemoryDecoded::Clean { .. } => Outcome::Silent,
        RsMemoryDecoded::Corrected {
            payload: p,
            ref errors,
        } => {
            if p == *payload {
                Outcome::Corrected
            } else {
                match mode {
                    RsDetectMode::SymbolSyndromes => Outcome::Miscorrected,
                    RsDetectMode::DeviceConfined => {
                        if errors.iter().all(|&(sym, val)| {
                            error_confined_to_device(code, device_bits, sym, val)
                        }) {
                            Outcome::Miscorrected
                        } else {
                            Outcome::Detected
                        }
                    }
                }
            }
        }
    }
}

/// Whether an RS symbol-error value only touches bits of one
/// `device_bits`-wide physical device: its lowest and highest set bits
/// fall in the same device (zero touches none and counts as confined).
fn error_confined_to_device(
    code: &RsMemoryCode,
    device_bits: u32,
    symbol: usize,
    value: u16,
) -> bool {
    debug_assert!(
        u32::from(value) >> code.symbol_bits() == 0,
        "value fits its symbol"
    );
    if value == 0 {
        return true;
    }
    let base = symbol as u32 * code.symbol_bits();
    let low = base + value.trailing_zeros();
    let high = base + (u16::BITS - 1 - value.leading_zeros());
    low / device_bits == high / device_bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::presets;

    fn quick(trials: u64) -> MsedConfig {
        MsedConfig {
            trials,
            ..MsedConfig::default()
        }
    }

    #[test]
    fn stats_accounting() {
        let mut s = MsedStats::default();
        s.record(Outcome::Detected);
        s.record(Outcome::Detected);
        s.record(Outcome::Miscorrected);
        s.record(Outcome::Silent);
        s.record(Outcome::Corrected); // excluded from the rate
        assert_eq!(s.total(), 5);
        assert!((s.detection_rate() - 50.0).abs() < 1e-9);
        assert_eq!(MsedStats::default().detection_rate(), 0.0);
    }

    #[test]
    fn muse_single_device_never_counts() {
        // With k = 1 every injected error is in-model: corrected, never
        // detected as uncorrectable. (Sanity check on the harness itself.)
        let stats = muse_msed(
            &presets::muse_80_69(),
            MsedConfig {
                failing_devices: 1,
                trials: 300,
                seed: 1,
                threads: 0,
            },
        );
        assert_eq!(stats.corrected, 300);
        assert_eq!(stats.detected, 0);
        assert_eq!(stats.miscorrected, 0);
        assert_eq!(stats.silent, 0);
    }

    #[test]
    fn muse_double_device_rate_near_table4() {
        // Table IV: MUSE(144,132) (extra bits = 4) detects 86.71% of
        // double-device errors.
        let stats = muse_msed(&presets::muse_144_132(), quick(4_000));
        let rate = stats.detection_rate();
        assert!((80.0..93.0).contains(&rate), "rate {rate}");
        assert_eq!(stats.total(), 4_000);
        assert_eq!(
            stats.silent, 0,
            "odd multipliers cannot alias nibble sums to zero"
        );
    }

    #[test]
    fn muse_large_multiplier_detects_more() {
        // Table IV's headline trade-off: MUSE(144,128) with m = 65519
        // detects ~99.17%, far above MUSE(144,132)'s ~86.71%.
        let big = muse_msed(&presets::muse_144_128(), quick(3_000));
        let small = muse_msed(&presets::muse_144_132(), quick(3_000));
        assert!(big.detection_rate() > small.detection_rate() + 5.0);
        assert!(big.detection_rate() > 97.0, "got {}", big.detection_rate());
    }

    #[test]
    fn rs_device_confined_beats_symbol_mode() {
        let code = RsMemoryCode::new(8, 144, 1).unwrap();
        let symbol = rs_msed(&code, 4, RsDetectMode::SymbolSyndromes, quick(3_000));
        let device = rs_msed(&code, 4, RsDetectMode::DeviceConfined, quick(3_000));
        assert!(device.detection_rate() >= symbol.detection_rate());
        // Long-run estimate is ~96.8%; leave ~4σ of Monte-Carlo headroom.
        assert!(
            device.detection_rate() > 95.5,
            "got {}",
            device.detection_rate()
        );
    }

    #[test]
    fn rs_small_symbols_detect_much_less() {
        // The Table IV trend: 5-bit-symbol RS loses most of its detection.
        let rs8 = rs_msed(
            &RsMemoryCode::new(8, 144, 1).unwrap(),
            4,
            RsDetectMode::DeviceConfined,
            quick(2_000),
        );
        let rs5 = rs_msed(
            &RsMemoryCode::new(5, 144, 1).unwrap(),
            4,
            RsDetectMode::DeviceConfined,
            quick(2_000),
        );
        assert!(
            rs5.detection_rate() < rs8.detection_rate() - 10.0,
            "rs5 {} vs rs8 {}",
            rs5.detection_rate(),
            rs8.detection_rate()
        );
    }

    /// Entropy recording the last raw draw it passed on: the top-symbol
    /// content a read sampled, if any.
    struct Observed<'a>(&'a mut Rng, Option<u64>);

    impl Entropy for Observed<'_> {
        fn next_u64(&mut self) -> u64 {
            let raw = self.0.next_u64();
            self.1 = Some(raw);
            raw
        }
    }

    /// The error-domain RS classification against the wide reference: a
    /// trial's device strikes plus its (lazily sampled) top-symbol content
    /// fully determine the outcome, so reconstruct a payload consistent
    /// with the observation, run the real encode → corrupt → decode
    /// pipeline, and compare — across geometries, shortened tops, both
    /// detect modes, and both `t` values (the `t = 2` wide fallback is
    /// retired; this oracle is all that remains of it).
    #[test]
    fn rs_fast_classification_matches_wide() {
        for (sym_bits, device_bits, t) in [
            (8u32, 4u32, 1usize),
            (5, 4, 1),
            (8, 8, 1),
            (6, 4, 1),
            (5, 8, 1), // x8 device straddles THREE 5-bit symbols
            (8, 4, 2),
            (8, 8, 2),
            (5, 4, 2),
            (5, 8, 2),
        ] {
            let code = RsMemoryCode::new(sym_bits, 144, t).unwrap();
            for mode in [RsDetectMode::SymbolSyndromes, RsDetectMode::DeviceConfined] {
                let mut classifier = RsClassifier::new(&code, device_bits);
                let mut rng = Rng::seeded(0x5EED ^ sym_bits as u64 ^ (t as u64) << 32);
                for trial in 0..400u64 {
                    let k = 1 + (trial % 4) as usize;
                    let mut strikes: Vec<(usize, u16)> = Vec::new();
                    while strikes.len() < k {
                        let dev = rng.below(classifier.devices() as u64) as usize;
                        if strikes.iter().any(|&(d, _)| d == dev) {
                            continue;
                        }
                        let pattern = rng.nonzero_below(1 << device_bits) as u16;
                        strikes.push((dev, pattern));
                    }
                    let mut observed = Observed(&mut rng, None);
                    let fast = rs_outcome(&mut classifier, mode, &mut observed, &strikes);
                    let top_content = observed.1.map(|raw| raw as u16);

                    // A payload consistent with the observation: the top
                    // symbol holds the sampled content (or anything, when
                    // none was sampled), everything else zero.
                    let top_offset = code.data_bits() - code.top_symbol_bits();
                    let payload = (Word::from(top_content.unwrap_or(0) as u64) << top_offset)
                        & Word::mask(code.data_bits());
                    let cw = code.encode(&payload);
                    let mut corrupted = cw;
                    for &(dev, pattern) in &strikes {
                        corrupted =
                            corrupted ^ (Word::from(pattern as u64) << (dev as u32 * device_bits));
                    }
                    let wide = classify_rs_wide(&code, device_bits, mode, &payload, &corrupted);
                    assert_eq!(
                        fast, wide,
                        "s={sym_bits} db={device_bits} t={t} {mode:?} trial {trial}: {strikes:?}"
                    );
                }
            }
        }
    }

    /// Runs the table route and the per-trial decodes on the same seed
    /// and demands bit-identical tallies: the table at 1 and 3 threads,
    /// and the public dispatch, which must pick the table here.
    fn assert_routes_agree(code: &RsMemoryCode, device_bits: u32, trials: u64, seed: u64) {
        let devices = code.n_bits() as usize / device_bits as usize;
        let cases = PairOutcomes::case_count(devices, device_bits);
        assert!(trials >= cases, "{trials} trials take the per-trial route");
        let sampler = StrikeSampler::new(vec![device_bits; devices], 2);
        for mode in [RsDetectMode::SymbolSyndromes, RsDetectMode::DeviceConfined] {
            let config = |threads| MsedConfig {
                failing_devices: 2,
                trials,
                seed,
                threads,
            };
            let decoded = rs_msed_per_trial(code, device_bits, mode, &sampler, config(3));
            assert_eq!(decoded.total(), trials);
            let name = format!("{} x{device_bits} {mode:?}", code.name());
            for threads in [1, 3] {
                let looked_up = rs_msed_table(code, device_bits, mode, &sampler, config(threads));
                assert_eq!(looked_up, decoded, "{name} threads={threads}");
            }
            assert_eq!(
                rs_msed(code, device_bits, mode, config(3)),
                decoded,
                "{name}"
            );
        }
    }

    /// The table route equals the per-trial decodes bit for bit on cheap
    /// geometries: x1 (10 296 cases) and x2 (23 004 cases, devices
    /// straddling 7- and 5-bit symbols) devices under whole and shortened
    /// top symbols, at trials just past the case count (a partial last
    /// block included).
    #[test]
    fn rs_table_route_matches_per_trial_decodes() {
        for device_bits in [1u32, 2] {
            for symbol_bits in [8u32, 7, 5] {
                let code = RsMemoryCode::new(symbol_bits, 144, 1).unwrap();
                let devices = 144 / device_bits as usize;
                let trials = PairOutcomes::case_count(devices, device_bits) + 77;
                assert_routes_agree(&code, device_bits, trials, 11);
            }
        }
    }

    /// The same equivalence at depth: every Table IV RS row on x4 devices
    /// (141 750 cases) and the t = 2 code, at 1M trials.
    #[test]
    #[ignore = "release-mode depth check; CI runs it with --ignored"]
    fn rs_table_route_matches_per_trial_decodes_at_depth() {
        for (symbol_bits, t) in [(8u32, 1usize), (7, 1), (6, 1), (5, 1), (8, 2)] {
            let code = RsMemoryCode::new(symbol_bits, 144, t).unwrap();
            assert_routes_agree(&code, 4, 1_000_000, MsedConfig::default().seed);
        }
    }

    #[test]
    fn many_failing_devices_take_the_generic_content_path() {
        // k beyond the fixed-capacity inline arrays routes through the
        // Vec-based distinct sampler — still syndrome-domain, no wide
        // words, no panic.
        let config = MsedConfig {
            failing_devices: 10,
            trials: 200,
            seed: 3,
            threads: 1,
        };
        let stats = muse_msed(&presets::muse_144_132(), config);
        // Exact tallies pin the generic route's draw stream.
        assert_eq!(
            stats,
            MsedStats {
                detected: 172,
                corrected: 0,
                miscorrected: 28,
                silent: 0
            }
        );
        // ~1080/4065 ≈ 27% of random syndromes alias into the ELC; the
        // rest are detected.
        let rate = stats.detection_rate();
        assert!((60.0..95.0).contains(&rate), "rate {rate}");
        for t in [1usize, 2] {
            let rs = RsMemoryCode::new(8, 144, t).unwrap();
            let stats = rs_msed(&rs, 4, RsDetectMode::DeviceConfined, config);
            assert_eq!(stats.total(), 200, "t={t}");
        }
    }

    #[test]
    fn rs_t2_corrects_double_device_errors_in_syndrome_space() {
        // A t = 2 code corrects any two-device strike nested inside two RS
        // symbols — the case the retired wide-PGZ fallback used to decode
        // per trial.
        let code = RsMemoryCode::new(8, 144, 2).unwrap();
        let stats = rs_msed(
            &code,
            8, // x8 devices == whole symbols: every 2-device error in-model
            RsDetectMode::SymbolSyndromes,
            quick(2_000),
        );
        assert_eq!(stats.corrected, 2_000, "{stats:?}");
    }

    #[test]
    #[should_panic(expected = "failing_devices must be in 1..=36")]
    fn muse_zero_failing_devices_panics() {
        // Zero strikes would tally every trial as a silent corruption.
        let config = MsedConfig {
            failing_devices: 0,
            ..quick(10)
        };
        muse_msed(&presets::muse_144_132(), config);
    }

    #[test]
    #[should_panic(expected = "failing_devices must be in 1..=36")]
    fn rs_zero_failing_devices_panics() {
        let config = MsedConfig {
            failing_devices: 0,
            ..quick(10)
        };
        let code = RsMemoryCode::new(8, 144, 1).unwrap();
        rs_msed(&code, 4, RsDetectMode::DeviceConfined, config);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = muse_msed(&presets::muse_80_69(), quick(500));
        let b = muse_msed(&presets::muse_80_69(), quick(500));
        assert_eq!(a, b);
    }

    #[test]
    fn triple_device_errors_still_mostly_detected() {
        let stats = muse_msed(
            &presets::muse_144_128(),
            MsedConfig {
                failing_devices: 3,
                trials: 2_000,
                seed: 9,
                threads: 0,
            },
        );
        assert!(stats.detection_rate() > 95.0);
    }
}
