//! Reproducibility pins: exact fleet tallies for the fixed smoke
//! configuration ([`muse_lifetime::smoke_setup`] — the same setup the
//! CLI's `lifetime --smoke` and the service's `smoke-check` assert in CI).
//!
//! The pinned values live in [`muse_lifetime::smoke_expected`] and pin the
//! composed behaviour of the per-cell RNG streams, the arrival sampling,
//! and the erasure-mode classification. If you change any of them *on
//! purpose*, re-baseline `smoke_expected` and say so in CHANGES.md.
//!
//! The smoke configuration draws faults on most epochs. The
//! [`QUIET_PINS`] cover the opposite regime — realistic rates over a
//! default-length horizon, where nearly every DIMM-epoch draws no arrival
//! and the fleet walk's quiet-epoch screen does the work.

use muse_lifetime::{
    all_environments, scenario_codes, simulate_fleet, smoke_setup, verify_smoke, Estimator,
    FleetConfig, LifetimeTally, WeightedCount,
};

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

/// One exact tally of a quiet-dominated cell.
struct QuietPin {
    env: &'static str,
    code: &'static str,
    /// Importance-sampling bias factor; `None` for the naive estimator.
    bias: Option<f64>,
    /// `epochs, degraded_epochs, corrected_words, due_words, sdc_words,
    /// erasure_reads, devices_retired, rows_retired, spare_rebuilds,
    /// data_loss_events, dimm_replacements`.
    counts: [u64; 11],
    /// `due_weighted`, `sdc_weighted`, `weight_sum`, each as
    /// `sum_q64, sumsq_q32`.
    weighted: [u128; 6],
}

impl QuietPin {
    fn tally(&self) -> LifetimeTally {
        let [epochs, degraded_epochs, corrected_words, due_words, sdc_words, erasure_reads, devices_retired, rows_retired, spare_rebuilds, data_loss_events, dimm_replacements] =
            self.counts;
        let w = |i: usize| WeightedCount {
            sum_q64: self.weighted[i],
            sumsq_q32: self.weighted[i + 1],
        };
        LifetimeTally {
            epochs,
            degraded_epochs,
            corrected_words,
            due_words,
            sdc_words,
            erasure_reads,
            devices_retired,
            rows_retired,
            spare_rebuilds,
            data_loss_events,
            dimm_replacements,
            due_weighted: w(0),
            sdc_weighted: w(2),
            weight_sum: w(4),
        }
    }
}

/// 64 DIMMs × 5 years at the default 12-hour scrub interval and seed.
const QUIET_PINS: [QuietPin; 8] = [
    QuietPin {
        env: "field-ddr4",
        code: "MUSE(144,132)",
        bias: None,
        counts: [233792, 1220, 6, 0, 0, 0, 2, 0, 0, 0, 0],
        weighted: [0, 0, 0, 0, 0, 0],
    },
    QuietPin {
        env: "field-ddr4",
        code: "MUSE(144,132)",
        bias: Some(16.0),
        counts: [233792, 10932, 6676, 0, 0, 0, 6, 13, 0, 0, 0],
        weighted: [0, 0, 0, 0, 1266023248266198981660, 490353332939],
    },
    QuietPin {
        env: "field-ddr4",
        code: "RS(144,112) t=2",
        bias: None,
        counts: [233792, 1220, 6, 0, 0, 0, 2, 0, 0, 0, 0],
        weighted: [0, 0, 0, 0, 0, 0],
    },
    QuietPin {
        env: "field-ddr4",
        code: "RS(144,112) t=2",
        bias: Some(16.0),
        counts: [233792, 10932, 6676, 0, 0, 0, 6, 13, 0, 0, 0],
        weighted: [0, 0, 0, 0, 1266023248266198981660, 490353332939],
    },
    QuietPin {
        env: "chipkill-heavy",
        code: "MUSE(144,132)",
        bias: None,
        counts: [233792, 12307, 2082, 0, 0, 0, 11, 4, 0, 0, 0],
        weighted: [0, 0, 0, 0, 0, 0],
    },
    QuietPin {
        env: "chipkill-heavy",
        code: "MUSE(144,132)",
        bias: Some(16.0),
        counts: [233792, 133899, 16547, 17023, 297, 18473, 186, 66, 0, 40, 40],
        weighted: [
            2888343739593762274532,
            13940457896741,
            1573246129856888887,
            11005923,
            326705270683505637856,
            440415755874,
        ],
    },
    QuietPin {
        env: "chipkill-heavy",
        code: "RS(144,112) t=2",
        bias: None,
        counts: [233792, 12307, 2082, 0, 0, 0, 11, 4, 0, 0, 0],
        weighted: [0, 0, 0, 0, 0, 0],
    },
    QuietPin {
        env: "chipkill-heavy",
        code: "RS(144,112) t=2",
        bias: Some(16.0),
        counts: [233792, 156042, 29250, 3077, 1027, 21549, 186, 65, 0, 8, 8],
        weighted: [
            1195955669976686033,
            4537995,
            62171443596558977,
            28312,
            326705270683729332151,
            440415755874,
        ],
    },
];

#[test]
fn quiet_cell_tallies_are_pinned() {
    let envs = all_environments();
    let codes = scenario_codes();
    for pin in &QUIET_PINS {
        let env = envs
            .iter()
            .find(|e| e.name == pin.env)
            .expect("environment");
        let code = codes.iter().find(|c| c.name() == pin.code).expect("code");
        let config = FleetConfig {
            dimms: 64,
            years: 5.0,
            estimator: pin.bias.map_or(Estimator::Naive, Estimator::importance),
            ..FleetConfig::default()
        };
        assert_eq!(
            simulate_fleet(code, env, &config).tally,
            pin.tally(),
            "{} / {} / {:?}",
            pin.env,
            pin.code,
            pin.bias
        );
    }
}
