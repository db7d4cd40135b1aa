//! Reproducibility pins: exact fleet tallies for the fixed smoke
//! configuration ([`muse_lifetime::smoke_setup`] — the same setup the
//! CLI's `lifetime --smoke` and the service's `smoke-check` assert in CI).
//!
//! The pinned values live in [`muse_lifetime::smoke_expected`] and pin the
//! composed behaviour of the per-cell RNG streams, the arrival sampling,
//! and the erasure-mode classification. If you change any of them *on
//! purpose*, re-baseline `smoke_expected` and say so in CHANGES.md.

use muse_lifetime::{scenario_codes, simulate_fleet, smoke_setup, verify_smoke};

#[test]
fn smoke_tallies_are_pinned() {
    let (env, config) = smoke_setup();
    let reports: Vec<_> = scenario_codes()
        .iter()
        .map(|code| simulate_fleet(code, &env, &config))
        .collect();
    if let Err(drift) = verify_smoke(&reports) {
        panic!(
            "pinned fleet tally changed ({drift}): RNG streams, arrival \
             sampling, or erasure classification drifted"
        );
    }
    for r in &reports {
        assert_eq!(r.tally.epochs, config.dimms * config.epochs());
        assert_eq!(r.degraded_fraction, 1.0);
    }
}

#[test]
fn smoke_shows_the_code_reliability_ordering() {
    // The differentiators the matrix exists for: combined error-and-
    // erasure decoding lets the t=2 RS correct every transient under one
    // erased chip (zero degraded DUEs, zero SDCs) where the t=1 budget is
    // already spent, and MUSE's odd multipliers leak fewer silent
    // corruptions than same-redundancy RS.
    let (env, config) = smoke_setup();
    let reports: Vec<_> = scenario_codes()
        .iter()
        .map(|c| simulate_fleet(c, &env, &config))
        .collect();
    let row = |name: &str| {
        &reports
            .iter()
            .find(|r| r.code == name)
            .expect("scenario present")
            .tally
    };
    assert_eq!(row("RS(144,112) t=2").sdc_words, 0);
    assert_eq!(
        row("RS(144,112) t=2").due_words,
        0,
        "2e + ν ≤ 2t: one transient under one erasure is correctable"
    );
    assert!(row("RS(144,112) t=2").due_words < row("RS(144,128) t=1").due_words);
    assert!(row("MUSE(80,69)").sdc_words < row("RS(144,128) t=1").sdc_words);
    // MUSE's combined mode recovers its unique-explanation fraction.
    assert!(row("MUSE(144,132)").corrected_words > 0);
}
