//! Reproducibility pins: exact Monte-Carlo tallies for fixed seeds.
//!
//! These values are not "correct" in any absolute sense — they pin the
//! composed behaviour of the PRNG, the error injection, and the decoder so
//! that any unintended change to one of them is caught immediately. If you
//! change the PRNG stream or injection order *on purpose*, update the pins
//! and say so in the changelog.
//!
//! (The pins were re-baselined when the simulators moved to the parallel
//! engine's counter-based per-trial streams, again when trial generation
//! moved to content space on blocked streams, and again when the k = 2
//! MSED path moved to the fully-columnar quad-packed draw scheme for the
//! lane kernel — see CHANGES.md.)

use muse_core::{presets, MuseCode};
use muse_faultsim::{
    measure_mode, muse_msed, rs_msed, simulate_stack, FailureMode, MsedConfig, MsedStats, Rng,
    RsDetectMode, Stack,
};
use muse_rs::RsMemoryCode;

#[test]
fn rng_stream_pin() {
    let mut rng = Rng::seeded(0);
    let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    // xoshiro256++ seeded through SplitMix64(0): a fixed, documented stream.
    assert_eq!(
        first,
        vec![
            5987356902031041503,
            7051070477665621255,
            6633766593972829180,
            211316841551650330
        ]
    );
}

#[test]
fn trial_stream_pin() {
    // The engine's counter-based derivation is part of the reproducibility
    // contract: every simulator's results are a pure function of it.
    let mut rng = Rng::for_trial(0x4D53_4544, 7);
    let first: Vec<u64> = (0..2).map(|_| rng.next_u64()).collect();
    assert_eq!(first, vec![12351991322932307205, 9471953404896583451]);
}

#[test]
fn block_stream_pin() {
    // The blocked engine's per-block stream derivation is part of the
    // reproducibility contract, and must stay domain-separated from the
    // per-trial streams.
    let mut rng = Rng::for_block(0x4D53_4544, 7);
    let first: Vec<u64> = (0..2).map(|_| rng.next_u64()).collect();
    assert_eq!(first, vec![2424275038829968809, 17581779019344070349]);
    let mut trial = Rng::for_trial(0x4D53_4544, 7);
    assert_ne!(rng.next_u64(), trial.next_u64());
}

#[test]
fn msed_tally_pin_muse_144_132() {
    let stats = muse_msed(
        &presets::muse_144_132(),
        MsedConfig {
            failing_devices: 2,
            trials: 2_000,
            seed: 0x4D53_4544,
            threads: 0,
        },
    );
    assert_eq!(stats.total(), 2_000);
    assert_eq!(stats.silent, 0);
    assert_eq!(
        (stats.detected, stats.miscorrected),
        (1_746, 254),
        "pinned Monte-Carlo tally changed: PRNG, injection, or decoder drifted"
    );
}

#[test]
fn msed_tally_pin_muse_80_69() {
    let stats = muse_msed(
        &presets::muse_80_69(),
        MsedConfig {
            failing_devices: 2,
            trials: 2_000,
            seed: 0x4D53_4544,
            threads: 0,
        },
    );
    assert_eq!(stats.silent, 0);
    assert_eq!(stats.detected + stats.miscorrected, 2_000);
    let rate = stats.detection_rate();
    assert!(
        (80.0..90.0).contains(&rate),
        "rate {rate} left the plausible band"
    );
}

/// A preset and its `(failing_devices, trials, tally)` pins.
type MsedPins = (fn() -> MuseCode, &'static [(usize, u64, [u64; 4])]);

/// Exact `muse_msed` tallies `[detected, corrected, miscorrected, silent]`
/// at the default seed, per preset and `(failing_devices, trials)`: every
/// preset on every MSED route it takes (k = 2 on the lane kernel, k = 1
/// and 3 on the per-strike columnar route), at one trial, one whole
/// engine block, and two blocks plus a 452-trial tail. Captured before
/// MUSE(80,67) k = 2 moved from a scalar walk onto the lane kernel, so
/// they prove every route draws and classifies bit-identically.
const MSED_PINS: &[MsedPins] = &[
    (
        presets::muse_144_132,
        &[
            (1, 1, [0, 1, 0, 0]),
            (1, 1024, [0, 1024, 0, 0]),
            (1, 2500, [0, 2500, 0, 0]),
            (2, 1, [1, 0, 0, 0]),
            (2, 1024, [890, 0, 134, 0]),
            (2, 2500, [2150, 0, 350, 0]),
            (3, 1, [0, 0, 1, 0]),
            (3, 1024, [875, 0, 149, 0]),
            (3, 2500, [2157, 0, 342, 1]),
        ],
    ),
    (
        presets::muse_144_128,
        &[
            (1, 1, [0, 1, 0, 0]),
            (1, 1024, [0, 1024, 0, 0]),
            (1, 2500, [0, 2500, 0, 0]),
            (2, 1, [1, 0, 0, 0]),
            (2, 1024, [1008, 0, 16, 0]),
            (2, 2500, [2462, 0, 38, 0]),
            (3, 1, [1, 0, 0, 0]),
            (3, 1024, [1015, 0, 9, 0]),
            (3, 2500, [2473, 0, 27, 0]),
        ],
    ),
    (
        presets::muse_80_67,
        &[
            (1, 1, [1, 0, 0, 0]),
            (1, 1024, [900, 91, 33, 0]),
            (1, 2500, [2208, 226, 66, 0]),
            (2, 1, [1, 0, 0, 0]),
            (2, 1024, [969, 0, 55, 0]),
            (2, 2500, [2384, 0, 116, 0]),
            (3, 1, [0, 0, 1, 0]),
            (3, 1024, [975, 0, 48, 1]),
            (3, 2500, [2385, 0, 114, 1]),
        ],
    ),
    (
        presets::muse_80_69,
        &[
            (1, 1, [0, 1, 0, 0]),
            (1, 1024, [0, 1024, 0, 0]),
            (1, 2500, [0, 2500, 0, 0]),
            (2, 1, [1, 0, 0, 0]),
            (2, 1024, [865, 0, 159, 0]),
            (2, 2500, [2117, 0, 383, 0]),
            (3, 1, [1, 0, 0, 0]),
            (3, 1024, [862, 0, 158, 4]),
            (3, 2500, [2104, 0, 391, 5]),
        ],
    ),
    (
        presets::muse_80_70,
        &[
            (1, 1, [0, 0, 1, 0]),
            (1, 1024, [518, 408, 98, 0]),
            (1, 2500, [1316, 979, 205, 0]),
            (2, 1, [1, 0, 0, 0]),
            (2, 1024, [872, 0, 151, 1]),
            (2, 2500, [2122, 0, 377, 1]),
            (3, 1, [1, 0, 0, 0]),
            (3, 1024, [898, 0, 126, 0]),
            (3, 2500, [2140, 0, 359, 1]),
        ],
    ),
    (
        presets::muse_268_256,
        &[
            (1, 1, [0, 1, 0, 0]),
            (1, 1024, [0, 1024, 0, 0]),
            (1, 2500, [0, 2500, 0, 0]),
            (2, 1, [1, 0, 0, 0]),
            (2, 1024, [703, 0, 321, 0]),
            (2, 2500, [1743, 0, 757, 0]),
            (3, 1, [1, 0, 0, 0]),
            (3, 1024, [753, 0, 271, 0]),
            (3, 2500, [1821, 0, 679, 0]),
        ],
    ),
];

#[test]
fn msed_tally_pins_every_preset_and_route() {
    for &(preset, pins) in MSED_PINS {
        let code = preset();
        for &(k, trials, [detected, corrected, miscorrected, silent]) in pins {
            let want = MsedStats {
                detected,
                corrected,
                miscorrected,
                silent,
            };
            for threads in [1, 3] {
                let config = MsedConfig {
                    failing_devices: k,
                    trials,
                    threads,
                    ..MsedConfig::default()
                };
                assert_eq!(
                    muse_msed(&code, config),
                    want,
                    "{} k={k} trials={trials} threads={threads}",
                    code.name()
                );
            }
        }
    }
}

/// One RS(144, ·) MSED cell: `(symbol_bits, device_bits, t,
/// failing_devices)`, then its tallies `[detected, corrected,
/// miscorrected, silent]` under `SymbolSyndromes` and `DeviceConfined`.
type RsMsedPin = ((u32, u32, usize, usize), [u64; 4], [u64; 4]);

/// Exact `rs_msed` tallies at the default seed and 2500 trials (two
/// engine blocks plus a tail): Table IV's four x4 rows with whole
/// (s = 8, 6) and shortened (s = 7, 5) top symbols and devices straddling
/// symbols (s = 7, 6, 5), the t = 2 code, x8 devices each straddling up to
/// three 5-bit symbols, and one k = 9 cell on the live-draw route.
const RS_MSED_PINS: &[RsMsedPin] = &[
    ((8, 4, 1, 1), [0, 2500, 0, 0], [0, 2500, 0, 0]),
    ((8, 4, 1, 2), [2272, 63, 165, 0], [2353, 63, 84, 0]),
    ((8, 4, 1, 3), [2338, 0, 161, 1], [2460, 0, 39, 1]),
    ((7, 4, 1, 1), [525, 1942, 33, 0], [558, 1942, 0, 0]),
    ((7, 4, 1, 2), [2098, 31, 371, 0], [2379, 31, 90, 0]),
    ((7, 4, 1, 3), [2114, 0, 386, 0], [2417, 0, 83, 0]),
    ((6, 4, 1, 1), [276, 1976, 248, 0], [524, 1976, 0, 0]),
    ((6, 4, 1, 2), [1614, 18, 868, 0], [2170, 18, 312, 0]),
    ((6, 4, 1, 3), [1599, 0, 899, 2], [2229, 0, 269, 2]),
    ((5, 4, 1, 1), [88, 1729, 683, 0], [678, 1729, 93, 0]),
    ((5, 4, 1, 2), [368, 9, 2122, 1], [1575, 9, 915, 1]),
    ((5, 4, 1, 3), [342, 0, 2157, 1], [1546, 0, 953, 1]),
    ((8, 4, 2, 1), [0, 2500, 0, 0], [0, 2500, 0, 0]),
    ((8, 4, 2, 2), [0, 2500, 0, 0], [0, 2500, 0, 0]),
    ((8, 4, 2, 3), [2282, 217, 1, 0], [2283, 217, 0, 0]),
    ((5, 8, 1, 1), [318, 334, 1848, 0], [862, 334, 1304, 0]),
    ((5, 8, 1, 2), [341, 1, 2157, 1], [942, 1, 1556, 1]),
    ((5, 8, 1, 3), [341, 0, 2156, 3], [977, 0, 1520, 3]),
    ((5, 4, 1, 9), [378, 0, 2119, 3], [1573, 0, 924, 3]),
];

#[test]
fn rs_msed_tally_pins() {
    let stats = |[detected, corrected, miscorrected, silent]: [u64; 4]| MsedStats {
        detected,
        corrected,
        miscorrected,
        silent,
    };
    for &((symbol_bits, device_bits, t, k), symbol, device) in RS_MSED_PINS {
        let code = RsMemoryCode::new(symbol_bits, 144, t).expect("RS(144, ·) geometry");
        for (mode, want) in [
            (RsDetectMode::SymbolSyndromes, symbol),
            (RsDetectMode::DeviceConfined, device),
        ] {
            for threads in [1, 3] {
                let config = MsedConfig {
                    failing_devices: k,
                    trials: 2_500,
                    threads,
                    ..MsedConfig::default()
                };
                assert_eq!(
                    rs_msed(&code, device_bits, mode, config),
                    stats(want),
                    "s={symbol_bits} x{device_bits} t={t} k={k} {mode:?} threads={threads}"
                );
            }
        }
    }
}

// The two content-space simulators outside MSED, pinned exactly: each
// draws symbol contents lazily mid-injection, so these tallies pin the
// order of every content and check-value draw, not only the decoder.

#[test]
fn fit_tally_pins_muse_80_67() {
    let code = presets::muse_80_67();
    let trials = 3_000u64;
    let counts = |mode| {
        let o = measure_mode(&code, mode, trials, 17, 2);
        let n = |p: f64| (p * trials as f64).round() as u64;
        (n(o.p_correct), n(o.p_due), n(o.p_sdc))
    };
    assert_eq!(
        counts(FailureMode::SingleBit),
        (1_494, 1_506, 0),
        "SingleBit"
    );
    assert_eq!(
        counts(FailureMode::SingleDeviceMultiBit),
        (255, 2_652, 93),
        "SingleDeviceMultiBit"
    );
    assert_eq!(
        counts(FailureMode::WholeDevice),
        (262, 2_644, 94),
        "WholeDevice"
    );
    assert_eq!(
        counts(FailureMode::TwoDevices),
        (0, 2_871, 129),
        "TwoDevices"
    );
}

#[test]
fn ondie_tally_pin_muse_144_132() {
    let s = simulate_stack(
        Stack::Stacked,
        Some(&presets::muse_144_132()),
        2e-3,
        3_000,
        5,
        2,
    );
    assert_eq!(
        (s.intact, s.due, s.sdc),
        (2_990, 9, 1),
        "pinned on-die + rank tally changed"
    );
}
