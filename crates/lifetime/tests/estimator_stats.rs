//! Statistical correctness of the importance-sampling estimator.
//!
//! Everything here runs on rate-inflated configurations where naive
//! Monte-Carlo *can* resolve the DUE/SDC rates, so the IS estimates have
//! a trustworthy reference:
//!
//! - **Agreement**: the IS point estimates match the naive ones within
//!   3 sigma of the combined confidence intervals.
//! - **Coverage**: over ≥100 seeded replications, the 95% CI contains
//!   the (independently measured) true rate at least as often as a
//!   4-sigma binomial lower bound on 95% coverage allows.
//! - **Weight conservation**: the mean final trajectory weight is 1
//!   within sampling error, and the effective sample size is sane.
//!
//! All tests are seeded and deterministic — they either always pass or
//! always fail for a given build, so they can gate CI.

use muse_lifetime::{
    scenario_codes, simulate_fleet, smoke_setup, Estimator, FleetCode, RateEstimate,
};

/// The inflated-rate reference code: RS(144,128) t=1 produces plenty of
/// both DUEs and SDCs under the smoke environment, so naive MC resolves
/// the very rates IS re-estimates.
fn rs_t1() -> FleetCode {
    scenario_codes()
        .into_iter()
        .find(|c| c.name() == "RS(144,128) t=1")
        .expect("RS t=1 in scenario_codes")
}

/// The 95% interval's half-width as a standard error: `(hi − lo) / 2·1.96`.
fn std_error(e: &RateEstimate) -> f64 {
    (e.hi - e.lo) / (2.0 * 1.959_964)
}

fn combined_sigma(a: &RateEstimate, b: &RateEstimate) -> f64 {
    (std_error(a).powi(2) + std_error(b).powi(2)).sqrt()
}

#[test]
fn is_agrees_with_naive_within_three_sigma() {
    let (env, mut config) = smoke_setup();
    config.dimms = 48;
    let code = rs_t1();

    let naive = simulate_fleet(&code, &env, &config);
    config.estimator = Estimator::importance(8.0);
    let is = simulate_fleet(&code, &env, &config);

    // The reference must actually resolve both rates.
    assert!(naive.due_estimate.events > 100, "naive DUEs too sparse");
    assert!(naive.sdc_estimate.events > 10, "naive SDCs too sparse");
    assert!(is.sdc_estimate.events > 0, "IS saw no SDC events");

    for (n, i, label) in [
        (&naive.due_estimate, &is.due_estimate, "due"),
        (&naive.sdc_estimate, &is.sdc_estimate, "sdc"),
    ] {
        let sigma = combined_sigma(n, i);
        assert!(
            (n.mean - i.mean).abs() <= 3.0 * sigma,
            "{label}: naive {} vs IS {} differ by more than 3 sigma ({sigma})",
            n.mean,
            i.mean,
        );
    }
}

#[test]
fn ci_coverage_over_replications() {
    let (env, base) = smoke_setup();
    let code = rs_t1();

    // Ground truth from one large naive fleet: ~60k DUE events, so the
    // truth's own relative error (<1%) is negligible next to the width
    // of each replication's CI.
    let mut big = base;
    big.dimms = 1024;
    let truth = simulate_fleet(&code, &env, &big).due_estimate.mean;

    const REPS: u32 = 110;
    let mut covered = 0u32;
    for rep in 0..REPS {
        let mut c = base;
        c.dimms = 32;
        c.seed = 0xC0FF_EE00 + u64::from(rep);
        c.estimator = Estimator::importance(4.0);
        let e = simulate_fleet(&code, &env, &c).due_estimate;
        assert!(e.lo.is_finite() && e.hi.is_finite() && e.lo <= e.hi);
        if e.lo <= truth && truth <= e.hi {
            covered += 1;
        }
    }
    // Binomial bound: at nominal 95% coverage the count is
    // Bin(110, 0.95) — mean 104.5, sd ≈ 2.3. Requiring ≥ 94 sits more
    // than 4 sigma below the mean (false-alarm < 1e-5) while still
    // catching any estimator whose true coverage drops below ~85%.
    assert!(covered >= 94, "only {covered}/{REPS} CIs covered the truth");
}

#[test]
fn trajectory_weights_are_conserved() {
    let (env, mut config) = smoke_setup();
    config.estimator = Estimator::importance(16.0);
    let r = simulate_fleet(&rs_t1(), &env, &config);

    let d = config.dimms as f64;
    let ws = &r.tally.weight_sum;
    let mean_w = ws.sum() / d;
    // Sample variance of the per-DIMM final weights, then the standard
    // error of their mean; E[w] = 1 exactly under the biased measure.
    let var = ((ws.sum_sq() - ws.sum().powi(2) / d) / (d - 1.0)).max(0.0);
    let se = (var / d).sqrt().max(1e-9);
    assert!(
        (mean_w - 1.0).abs() <= 4.0 * se,
        "mean weight {mean_w} is not 1 within 4 sigma ({se})"
    );
    // Kish effective sample size: positive, at most the DIMM count.
    let eff = ws.effective_n();
    assert!(eff > 1.0 && eff <= d, "effective n {eff} out of range");
}
