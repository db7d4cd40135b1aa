//! Rare-event estimation: importance sampling with exact
//! likelihood-ratio reweighting.
//!
//! At realistic fault rates the silent-corruption floor of a ChipKill
//! code sits at `1e-5`/machine-year and below; a naive Monte-Carlo fleet
//! run covering a few hundred machine-years observes **zero** SDC events
//! and reports an uninformative `0.000000`. This module supplies the two
//! halves of the fix:
//!
//! 1. **A biased sampler** ([`BiasedCount`], [`boosted_chance`]) that
//!    inflates the *rare* ingredients of an SDC — permanent-fault
//!    arrivals and multi-fault coincidences — while tracking the exact
//!    likelihood ratio of every biased decision, so each observed event
//!    carries the weight that maps it back to the nominal measure.
//! 2. **Weighted accumulators and interval estimates**
//!    ([`WeightedCount`], [`RateEstimate`]) that turn the reweighted
//!    tallies into variance-carrying rates with 95% confidence
//!    intervals, including the rule-of-three upper bound when zero
//!    events were observed.
//!
//! # Design constraints
//!
//! * **Bias 1.0 is the naive run, bit for bit.** The biased sampler
//!   reuses every nominal draw verbatim (same stream, same order) and
//!   layers its *extra* draws on the domain-separated
//!   [`Rng::for_bias`] stream, consumed only when the inflation is
//!   active. All likelihood factors are exactly `1.0` at bias 1.0.
//! * **Bit-identical at any thread count and shard partition.**
//!   Per-DIMM weighted totals are accumulated in `f64` along the DIMM's
//!   (sequential, deterministic) epoch walk, then quantized once into
//!   saturating fixed-point integers ([`WeightedCount`]). Integer
//!   addition is associative, so merging shards in any grouping yields
//!   the same sums — float summation order never varies across
//!   partitions.
//! * **Unbiased weights.** For each arrival mode the biased count is
//!   `X + Y` with `X` the nominal binomial (main stream) and `Y` an
//!   extra binomial on the bias stream; the likelihood table is the
//!   exact ratio `pmf_nominal / (pmf_nominal ⊛ pmf_extra)`, so
//!   `E[weight] = 1` under the biased measure (property-tested in
//!   `tests/estimator_proptest.rs`; the `CountCdf` samplers quantize
//!   probabilities at `2⁻⁶⁴`, far below any statistical tolerance).

use muse_faultsim::{CountCdf, Rng};

/// Largest probability the *extra*-arrival inflation may add per device
/// per epoch (keeps the likelihood ratios, and thus the weight variance,
/// bounded however large the bias factor). Public so the supervisor's
/// telemetry can flag the saturated channels — when
/// `(bias − 1) · p > EXTRA_P_CAP` the effective inflation is lower than
/// requested.
pub const EXTRA_P_CAP: f64 = 0.5;

/// Largest probability a boosted coincidence may be forced to
/// (a forced-certain event would make the miss branch unreachable and
/// its likelihood ratio degenerate).
const BOOST_CAP: f64 = 0.5;

/// 97.5% standard-normal quantile: the half-width multiplier of every
/// 95% confidence interval quoted by the estimators.
const Z_95: f64 = 1.959_964;

/// Which estimator a fleet run uses for its DUE/SDC rates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Estimator {
    /// Naive Monte Carlo: raw event counts over the covered exposure,
    /// with exact Poisson confidence intervals.
    #[default]
    Naive,
    /// Importance sampling: permanent-fault arrivals and multi-fault
    /// coincidences are inflated by `bias`, every event is reweighted by
    /// its exact likelihood ratio, and the confidence interval comes from
    /// the per-DIMM weighted-total variance.
    Importance {
        /// Rate-inflation factor (`>= 1`; `1.0` reproduces the naive run
        /// bit-identically).
        bias: f64,
    },
}

impl Estimator {
    /// Rate-inflation factor of an importance-sampling run that names no
    /// bias.
    pub const DEFAULT_BIAS: f64 = 16.0;

    /// The importance-sampling estimator at `bias`.
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is finite and `>= 1`.
    pub fn importance(bias: f64) -> Self {
        Self::try_importance(bias).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The importance-sampling estimator at `bias`.
    ///
    /// # Errors
    ///
    /// Unless `bias` is finite and `>= 1`.
    pub fn try_importance(bias: f64) -> Result<Self, String> {
        if bias.is_finite() && bias >= 1.0 {
            Ok(Self::Importance { bias })
        } else {
            Err(format!("bias factor {bias} must be finite and >= 1"))
        }
    }

    /// The estimator an optional name (`naive`, or `is`/`importance`)
    /// and an optional bias select: a bias implies importance sampling,
    /// importance sampling without one runs at [`Self::DEFAULT_BIAS`],
    /// and `naive` takes no bias.
    ///
    /// # Errors
    ///
    /// An unknown name, a bias given with `naive`, or an invalid bias
    /// (see [`Self::try_importance`]).
    pub fn select(name: Option<&str>, bias: Option<f64>) -> Result<Self, String> {
        match (name, bias) {
            (None | Some("naive"), None) => Ok(Self::Naive),
            (Some("naive"), Some(_)) => {
                Err("a bias only applies to importance sampling (estimator is)".to_string())
            }
            (None | Some("is" | "importance"), bias) => {
                Self::try_importance(bias.unwrap_or(Self::DEFAULT_BIAS))
            }
            (Some(other), _) => Err(format!(
                "unknown estimator {other:?} (expected naive or is)"
            )),
        }
    }

    /// The rate-inflation factor (1.0 for the naive estimator).
    pub fn bias(&self) -> f64 {
        match self {
            Self::Naive => 1.0,
            Self::Importance { bias } => *bias,
        }
    }

    /// Short display/schema name: `naive` or `is`.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Naive => "naive",
            Self::Importance { .. } => "is",
        }
    }

    /// Canonical encoding for
    /// [`config_hash`](crate::config_hash): a variant tag plus the bias
    /// factor's IEEE-754 bit pattern. The naive estimator encodes as
    /// **no bytes at all** and a biased one always adds some, so naive
    /// and biased runs never share a hash.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        match self {
            Self::Naive => Vec::new(),
            Self::Importance { bias } => {
                let mut out = vec![1u8];
                out.extend_from_slice(&bias.to_bits().to_le_bytes());
                out
            }
        }
    }
}

/// Deterministic accumulator of per-DIMM weighted totals: the sum and the
/// sum of squares, in saturating fixed point.
///
/// Each DIMM's trajectory produces one `f64` total (computed in fixed
/// program order along its epoch walk, so it is identical no matter which
/// worker ran it); [`Self::push`] quantizes that total once — the sum at
/// `Q64.64`, the square at `Q96.32` — and from there everything is
/// associative integer addition. Any partition of the fleet into shards
/// or threads therefore merges to bit-identical accumulators, which is
/// what lets weighted tallies ride the existing determinism and
/// checkpoint/resume contracts unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedCount {
    /// Σ per-DIMM totals, as `Q64.64` fixed point (value × 2⁶⁴),
    /// saturating.
    pub sum_q64: u128,
    /// Σ squared per-DIMM totals, as `Q96.32` fixed point (value × 2³²),
    /// saturating.
    pub sumsq_q32: u128,
}

/// Quantizes a non-negative `f64` to fixed point with `frac_bits`
/// fractional bits, saturating at `u128::MAX`.
fn fixed_point(value: f64, frac_bits: i32) -> u128 {
    let scaled = value.max(0.0) * 2f64.powi(frac_bits);
    if scaled >= 2f64.powi(128) {
        u128::MAX
    } else {
        scaled as u128
    }
}

impl WeightedCount {
    /// Folds one DIMM's weighted total into the accumulator.
    pub fn push(&mut self, total: f64) {
        self.sum_q64 = self.sum_q64.saturating_add(fixed_point(total, 64));
        self.sumsq_q32 = self
            .sumsq_q32
            .saturating_add(fixed_point(total * total, 32));
    }

    /// Merges another accumulator (saturating).
    pub fn merge(&mut self, other: Self) {
        self.sum_q64 = self.sum_q64.saturating_add(other.sum_q64);
        self.sumsq_q32 = self.sumsq_q32.saturating_add(other.sumsq_q32);
    }

    /// The accumulated sum of per-DIMM totals.
    pub fn sum(&self) -> f64 {
        self.sum_q64 as f64 / 2f64.powi(64)
    }

    /// The accumulated sum of squared per-DIMM totals.
    pub fn sum_sq(&self) -> f64 {
        self.sumsq_q32 as f64 / 2f64.powi(32)
    }

    /// Kish effective sample size `(Σw)² / Σw²` — how many unweighted
    /// DIMM trajectories the weighted sample is worth. `0` when empty.
    pub fn effective_n(&self) -> f64 {
        let ss = self.sum_sq();
        if ss <= 0.0 {
            0.0
        } else {
            let s = self.sum();
            s * s / ss
        }
    }
}

/// The full (untruncated) `Binomial(n, p)` probability mass function,
/// `pmf[k] = P(count = k)` for `k in 0..=n` — the exact reference
/// distribution of the likelihood-ratio tables.
pub fn binomial_pmf(n: u32, p: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    let mut pmf = vec![0.0; n as usize + 1];
    if p >= 1.0 {
        pmf[n as usize] = 1.0;
        return pmf;
    }
    // pmf(k+1) = pmf(k) · (n−k)/(k+1) · p/(1−p), seeded at (1−p)^n — the
    // same recurrence `CountCdf::binomial` integrates, so sampler and
    // likelihood table agree to the last bit of the shared prefix.
    let odds = p / (1.0 - p);
    let mut mass = (1.0 - p).powi(n as i32);
    for k in 0..=n {
        pmf[k as usize] = mass;
        if k < n {
            mass *= (n - k) as f64 / (k + 1) as f64 * odds;
        }
    }
    pmf
}

/// The rate-inflated arrival-count sampler for one failure mode.
///
/// The biased count is `total = nominal + extra`: the nominal binomial
/// count keeps coming off the main per-cell stream exactly as in the
/// naive run, and `extra ~ Binomial(n, min((bias−1)·p, 0.5))` rides the
/// domain-separated bias stream. [`Self::likelihood`] maps the total back
/// to the nominal measure via the precomputed exact ratio
/// `pmf_nominal(k) / pmf_biased(k)`, where `pmf_biased` is the
/// convolution of the two binomials. With bias 1.0 the extra sampler
/// vanishes (no bias-stream draws, all ratios exactly 1.0).
#[derive(Debug, Clone)]
pub struct BiasedCount {
    /// The extra-arrival sampler; `None` when the inflation is inactive.
    pub(crate) extra: Option<CountCdf>,
    lr: Vec<f64>,
}

impl BiasedCount {
    /// Builds the sampler for `Binomial(n, p)` arrivals under `bias`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `bias` is not finite and
    /// `>= 1`.
    pub fn new(n: u32, p: f64, bias: f64) -> Self {
        assert!(
            bias.is_finite() && bias >= 1.0,
            "bias factor {bias} must be finite and >= 1"
        );
        let p_extra = ((bias - 1.0) * p).min(EXTRA_P_CAP);
        if p_extra <= 0.0 {
            return Self {
                extra: None,
                lr: Vec::new(),
            };
        }
        let nominal = binomial_pmf(n, p);
        let extra = binomial_pmf(n, p_extra);
        let mut biased = vec![0.0; nominal.len() + extra.len() - 1];
        for (i, &a) in nominal.iter().enumerate() {
            for (j, &b) in extra.iter().enumerate() {
                biased[i + j] += a * b;
            }
        }
        let lr = biased
            .iter()
            .enumerate()
            .map(|(k, &pb)| {
                if pb > 0.0 {
                    nominal.get(k).copied().unwrap_or(0.0) / pb
                } else {
                    0.0
                }
            })
            .collect();
        Self {
            extra: Some(CountCdf::binomial(n, p_extra)),
            lr,
        }
    }

    /// Samples the *extra* arrivals off the bias stream (zero draws, zero
    /// arrivals when the inflation is inactive).
    pub fn sample_extra(&self, bias_rng: &mut Rng) -> u32 {
        match &self.extra {
            Some(cdf) => cdf.sample(bias_rng.next_u64()),
            None => 0,
        }
    }

    /// The extra sampler's raw-draw zero threshold
    /// ([`CountCdf::zero_threshold`]), or `None` when the inflation is
    /// inactive and [`Self::sample_extra`] draws nothing.
    pub fn zero_threshold(&self) -> Option<u64> {
        self.extra.as_ref().map(CountCdf::zero_threshold)
    }

    /// The likelihood ratio `pmf_nominal(total) / pmf_biased(total)` for
    /// a sampled total count (exactly `1.0` when the inflation is
    /// inactive).
    pub fn likelihood(&self, total: u32) -> f64 {
        if self.extra.is_none() {
            return 1.0;
        }
        self.lr.get(total as usize).copied().unwrap_or(0.0)
    }
}

/// One biased Bernoulli coincidence: draws the event at the boosted
/// probability `min(p·bias, 0.5).max(p)` off the **main** stream (the
/// same single draw the naive path makes at `p`), returning the outcome
/// and its likelihood-ratio factor.
///
/// This is the "forced multi-fault coincidence" half of the sampler: a
/// per-word collision probability of `1e-7` boosted by `bias = 1e4`
/// becomes `1e-3`, so transient × stuck-bit and transient × transient
/// overlaps — the words a ChipKill code can actually miscorrect — appear
/// often enough to measure, each weighted by `p / p_boosted`. At bias
/// 1.0 the boosted probability equals `p` and the factor is exactly
/// `1.0`; an impossible event (`p = 0`) is never forced.
pub fn boosted_chance(rng: &mut Rng, p: f64, bias: f64) -> (bool, f64) {
    debug_assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
    let boosted = (p * bias).min(BOOST_CAP).max(p);
    let hit = rng.chance(boosted);
    let factor = if hit {
        p / boosted
    } else {
        (1.0 - p) / (1.0 - boosted)
    };
    (hit, factor)
}

/// A per-machine-year rate with a 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimate {
    /// Raw (unweighted) events observed in the run — under the biased
    /// measure for importance-sampling runs.
    pub events: u64,
    /// Point estimate, events per machine-year (likelihood-reweighted
    /// for importance-sampling runs).
    pub mean: f64,
    /// 95% CI lower bound per machine-year.
    pub lo: f64,
    /// 95% CI upper bound per machine-year. With zero observed events
    /// this is the rule-of-three bound `3 / machine_years`.
    pub hi: f64,
}

/// Wilson–Hilferty approximation to the `χ²` quantile at standard-normal
/// deviate `z` with `df` degrees of freedom (relative error `< 1e-3` for
/// the `df >= 2` range the Poisson intervals use).
fn chi2_quantile(z: f64, df: f64) -> f64 {
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + z * a.sqrt()).powi(3).max(0.0)
}

impl RateEstimate {
    /// Naive estimate: `events` observed over `machine_years`, with the
    /// exact-Poisson (Garwood) 95% interval via the Wilson–Hilferty
    /// `χ²` quantile — and the rule-of-three upper bound
    /// `3 / machine_years` when zero events were observed, instead of a
    /// silent `0.000000`.
    pub fn from_count(events: u64, machine_years: f64) -> Self {
        if events == 0 {
            return Self {
                events,
                mean: 0.0,
                lo: 0.0,
                hi: 3.0 / machine_years,
            };
        }
        let k = events as f64;
        Self {
            events,
            mean: k / machine_years,
            lo: chi2_quantile(-Z_95, 2.0 * k) / 2.0 / machine_years,
            hi: chi2_quantile(Z_95, 2.0 * k + 2.0) / 2.0 / machine_years,
        }
    }

    /// Importance-sampling estimate from the weighted accumulator over
    /// `dimms` independent per-DIMM totals: the mean is the weighted sum
    /// over the exposure, the interval is the CLT interval from the
    /// across-DIMM sample variance. Falls back to the conservative
    /// rule-of-three bound of [`Self::from_count`] when no event was
    /// observed at all.
    pub fn from_weighted(
        events: u64,
        weighted: WeightedCount,
        dimms: u64,
        machine_years: f64,
    ) -> Self {
        if events == 0 {
            return Self::from_count(0, machine_years);
        }
        let d = dimms as f64;
        let sum = weighted.sum();
        let variance = if dimms > 1 {
            (d / (d - 1.0)) * (weighted.sum_sq() - sum * sum / d).max(0.0)
        } else {
            0.0
        };
        let half = Z_95 * variance.sqrt();
        Self {
            events,
            mean: sum / machine_years,
            lo: (sum - half).max(0.0) / machine_years,
            hi: (sum + half) / machine_years,
        }
    }

    /// Compact human-readable form, pinned by regression tests:
    /// `"<4.69e-3 @95%"` for zero observed events (the rule-of-three
    /// upper bound — never a bare `0.000000`), otherwise
    /// `"<mean> [<lo>,<hi>]"`.
    pub fn render(&self) -> String {
        if self.events == 0 {
            format!("<{:.2e} @95%", self.hi)
        } else {
            format!("{:.2e} [{:.1e},{:.1e}]", self.mean, self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(1u32, 0.5f64), (18, 1e-4), (36, 0.3), (7, 0.0), (5, 1.0)] {
            let pmf = binomial_pmf(n, p);
            assert_eq!(pmf.len(), n as usize + 1);
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n} p={p} total={total}");
            assert!(pmf.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn biased_count_is_inert_at_bias_one() {
        let bc = BiasedCount::new(18, 1e-4, 1.0);
        let mut rng = Rng::seeded(1);
        let before = rng.clone();
        assert_eq!(bc.sample_extra(&mut rng), 0);
        // No draw was consumed.
        assert_eq!(rng.next_u64(), before.clone().next_u64());
        for k in 0..40 {
            assert_eq!(bc.likelihood(k), 1.0);
        }
    }

    #[test]
    fn biased_count_expected_weight_is_one() {
        // Analytic check: Σ pmf_biased(k) · lr(k) = Σ pmf_nominal(k) = 1.
        for &(n, p, bias) in &[(18u32, 1e-4f64, 64.0f64), (36, 1e-3, 8.0), (9, 0.05, 300.0)] {
            let bc = BiasedCount::new(n, p, bias);
            let nominal = binomial_pmf(n, p);
            let p_extra = ((bias - 1.0) * p).min(EXTRA_P_CAP);
            let extra = binomial_pmf(n, p_extra);
            let mut total = 0.0;
            for (i, &a) in nominal.iter().enumerate() {
                for (j, &b) in extra.iter().enumerate() {
                    total += a * b * bc.likelihood((i + j) as u32);
                }
            }
            assert!(
                (total - 1.0).abs() < 1e-9,
                "n={n} p={p} bias={bias}: E[w]={total}"
            );
        }
    }

    #[test]
    fn boosted_chance_weights_are_exact() {
        let mut rng = Rng::seeded(2);
        // E[w] = p_b·(p/p_b) + (1−p_b)·((1−p)/(1−p_b)) = 1 identically;
        // check the two branch factors directly.
        let p: f64 = 1e-6;
        let bias: f64 = 1e4;
        let boosted = (p * bias).min(BOOST_CAP);
        let (mut hits, mut draws) = (0u32, 0u32);
        for _ in 0..200_000 {
            let (hit, w) = boosted_chance(&mut rng, p, bias);
            assert!(w.is_finite() && w > 0.0);
            if hit {
                assert!((w - p / boosted).abs() < 1e-18);
                hits += 1;
            }
            draws += 1;
        }
        let rate = f64::from(hits) / f64::from(draws);
        assert!((rate - boosted).abs() < 0.002, "hit rate {rate}");
        // Impossible events are never forced, and bias 1.0 is inert.
        let (hit, w) = boosted_chance(&mut rng, 0.0, 1e6);
        assert!(!hit && w == 1.0);
        let (_, w) = boosted_chance(&mut rng, 0.3, 1.0);
        assert_eq!(w, 1.0);
    }

    #[test]
    fn weighted_count_fixed_point_roundtrip() {
        let mut acc = WeightedCount::default();
        acc.push(1.0);
        acc.push(2.5);
        assert!((acc.sum() - 3.5).abs() < 1e-12);
        assert!((acc.sum_sq() - 7.25).abs() < 1e-9);
        // Integer totals quantize exactly.
        assert_eq!(acc.sum_q64 >> 64, 3);
        let mut other = WeightedCount::default();
        other.push(4.0);
        acc.merge(other);
        assert!((acc.sum() - 7.5).abs() < 1e-12);
        // Saturation instead of overflow.
        let mut big = WeightedCount {
            sum_q64: u128::MAX,
            sumsq_q32: u128::MAX,
        };
        big.push(1e30);
        assert_eq!(big.sum_q64, u128::MAX);
    }

    #[test]
    fn effective_n_matches_kish() {
        let mut acc = WeightedCount::default();
        for _ in 0..8 {
            acc.push(1.0);
        }
        assert!((acc.effective_n() - 8.0).abs() < 1e-9);
        acc.push(8.0);
        // (16)² / (8 + 64) = 256/72
        assert!((acc.effective_n() - 256.0 / 72.0).abs() < 1e-9);
        assert_eq!(WeightedCount::default().effective_n(), 0.0);
    }

    #[test]
    fn poisson_interval_brackets_the_count() {
        let e = RateEstimate::from_count(100, 10.0);
        assert!((e.mean - 10.0).abs() < 1e-12);
        // Exact Garwood interval for k=100: [81.36, 121.63] events.
        assert!((e.lo * 10.0 - 81.36).abs() < 0.2, "lo {}", e.lo);
        assert!((e.hi * 10.0 - 121.63).abs() < 0.2, "hi {}", e.hi);
        assert!(e.lo < e.mean && e.mean < e.hi);
    }

    #[test]
    fn zero_events_render_rule_of_three() {
        let e = RateEstimate::from_count(0, 640.0);
        assert_eq!(e.mean, 0.0);
        assert!((e.hi - 3.0 / 640.0).abs() < 1e-15);
        assert_eq!(e.render(), "<4.69e-3 @95%");
        let weighted = RateEstimate::from_weighted(0, WeightedCount::default(), 64, 640.0);
        assert_eq!(weighted.render(), "<4.69e-3 @95%");
    }

    #[test]
    fn weighted_interval_covers_known_variance() {
        // 4 DIMM totals: 1, 1, 1, 5 → mean 2, sample var 4.
        let mut acc = WeightedCount::default();
        for &t in &[1.0, 1.0, 1.0, 5.0] {
            acc.push(t);
        }
        let e = RateEstimate::from_weighted(8, acc, 4, 2.0);
        assert!((e.mean - 4.0).abs() < 1e-9);
        // Var(total) = 4 · 4 = 16 → se 4, half-width 1.96·4 = 7.84 over
        // 2 machine-years.
        let half = (e.hi - e.lo) / 2.0;
        assert!((half - Z_95 * 2.0).abs() < 1e-6, "half-width {half}");
        assert!(e.lo >= 0.0 && e.hi > e.mean);
    }
}
