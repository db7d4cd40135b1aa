//! Exact two-device RS MSED (Table IV) and the first test of the RS
//! *sampler*: `rs_msed_exact` enumerates every x4 double-device strike on
//! a 144-bit channel (C(36, 2)·15² = 141 750 cases), and `rs_msed`'s
//! sampled tallies must land inside a binomial acceptance region around
//! those exact probabilities. Every other MSED test checks a
//! classification against an oracle fed the same draws, so only this one
//! can catch a biased strike sampler.

use muse_faultsim::{rs_msed, rs_msed_exact, MsedConfig, MsedStats, RsDetectMode};
use muse_rs::RsMemoryCode;

/// Distinct x4 double-device strikes on 144 bits.
const CASES: u64 = 141_750;

/// One Table IV RS row: `(symbol_bits, t)`, then its exact counts
/// `[detected, corrected, miscorrected, silent]` over [`CASES`] under
/// `DeviceConfined` and `SymbolSyndromes`.
type ExactRow = ((u32, usize), [u64; 4], [u64; 4]);

const EXACT: &[ExactRow] = &[
    ((8, 1), [133350, 4050, 4350, 0], [128827, 4050, 8873, 0]),
    ((7, 1), [134823, 1680, 5247, 0], [118860, 1680, 21210, 0]),
    ((6, 1), [123538, 1080, 17132, 0], [91523, 1080, 49147, 0]),
    ((5, 1), [88849, 504, 52377, 20], [20784, 504, 120442, 20]),
    // t = 2 corrects every strike nested in at most two symbols.
    ((8, 2), [0, CASES, 0, 0], [0, CASES, 0, 0]),
];

fn counts(stats: MsedStats) -> [u64; 4] {
    [
        stats.detected,
        stats.corrected,
        stats.miscorrected,
        stats.silent,
    ]
}

/// Each row's code with its exact counts per mode.
fn rows() -> impl Iterator<Item = (RsMemoryCode, RsDetectMode, [u64; 4])> {
    EXACT
        .iter()
        .flat_map(|&((symbol_bits, t), confined, symbol)| {
            let code = RsMemoryCode::new(symbol_bits, 144, t).expect("RS(144, ·) geometry");
            [
                (code.clone(), RsDetectMode::DeviceConfined, confined),
                (code, RsDetectMode::SymbolSyndromes, symbol),
            ]
        })
}

#[test]
fn exact_table4_rs_counts() {
    for (code, mode, want) in rows() {
        let exact = rs_msed_exact(&code, 4, mode);
        assert_eq!(counts(exact), want, "{} {mode:?}", code.name());
    }
}

#[test]
fn exact_counts_reproduce_the_measured_rates() {
    // Device-confined and symbol-only MSED %, s = 8/7/6/5.
    let confined = [96.841, 96.254, 87.821, 62.904];
    let symbol = [93.556, 84.858, 65.062, 14.715];
    for (i, &(_, c, s)) in EXACT[..4].iter().enumerate() {
        for (count, want) in [(c, confined[i]), (s, symbol[i])] {
            let rate = MsedStats {
                detected: count[0],
                corrected: count[1],
                miscorrected: count[2],
                silent: count[3],
            }
            .detection_rate();
            assert!((rate - want).abs() < 5e-4, "row {i}: {rate} vs {want}");
        }
    }
}

/// The 99.9% two-sided binomial acceptance region for `n` draws at
/// probability `p`: the narrowest `[lo, hi]` leaving at most 0.05% of the
/// mass in each tail. The pmf is walked outward from the mode by its term
/// ratio, dropping terms below 1e-30 of the mode's.
fn acceptance_region(n: u64, p: f64) -> (u64, u64) {
    const TAIL: f64 = 0.0005;
    if p == 0.0 {
        return (0, 0);
    }
    if p == 1.0 {
        return (n, n);
    }
    let odds = p / (1.0 - p);
    let mode = (((n + 1) as f64 * p) as u64).min(n);
    // `up[j]` weighs `mode + 1 + j`, `down[j]` weighs `mode − 1 − j`,
    // relative to the mode.
    let (mut up, mut w) = (Vec::new(), 1.0);
    for k in mode..n {
        w *= (n - k) as f64 / (k + 1) as f64 * odds;
        if w < 1e-30 {
            break;
        }
        up.push(w);
    }
    let (mut down, mut w) = (Vec::new(), 1.0);
    for k in (1..=mode).rev() {
        w *= k as f64 / (n - k + 1) as f64 / odds;
        if w < 1e-30 {
            break;
        }
        down.push(w);
    }
    let total = 1.0 + up.iter().sum::<f64>() + down.iter().sum::<f64>();
    // Trims a tail from its far end while it stays within `TAIL`,
    // returning how many terms stay.
    let keep = |tail: &[f64]| {
        let mut mass = 0.0;
        let mut kept = tail.len();
        for &w in tail.iter().rev() {
            if mass + w > TAIL * total {
                break;
            }
            mass += w;
            kept -= 1;
        }
        kept as u64
    };
    (mode - keep(&down), mode + keep(&up))
}

#[test]
fn acceptance_region_brackets_the_binomial() {
    // n = 10, p = 1/2: P(X ≤ 0) = 1/1024 ≈ 0.098% > 0.05%, so 0 stays.
    assert_eq!(acceptance_region(10, 0.5), (0, 10));
    // n = 20, p = 1/2: P(X ≤ 2) ≈ 0.020%, P(X ≤ 3) ≈ 0.13%.
    assert_eq!(acceptance_region(20, 0.5), (3, 17));
    // A near-normal case: ±3.29σ around 5000 (σ = 50).
    let (lo, hi) = acceptance_region(10_000, 0.5);
    assert!(
        (4834..=4837).contains(&lo) && (5163..=5166).contains(&hi),
        "{lo}..{hi}"
    );
    assert_eq!(acceptance_region(50, 0.0), (0, 0));
    assert_eq!(acceptance_region(50, 1.0), (50, 50));
}

/// `rs_msed` at a fixed seed lands every outcome count inside the
/// acceptance region around its exact probability, for every Table IV RS
/// row and mode, on both routes: 10 000 trials (below the 141 750-case
/// threshold, decoded per trial) and 200 000 (looked up in the outcome
/// table).
#[test]
fn rs_msed_samples_the_exact_probabilities() {
    for trials in [10_000, 200_000] {
        let config = MsedConfig {
            trials,
            ..MsedConfig::default()
        };
        for (code, mode, exact) in rows() {
            let sampled = counts(rs_msed(&code, 4, mode, config));
            for (class, (&got, &cases)) in sampled.iter().zip(&exact).enumerate() {
                let (lo, hi) = acceptance_region(trials, cases as f64 / CASES as f64);
                assert!(
                    (lo..=hi).contains(&got),
                    "{} {mode:?} {trials} trials, class {class}: {got} outside [{lo}, {hi}]",
                    code.name()
                );
            }
        }
    }
}
