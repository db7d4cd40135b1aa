//! Lane kernel ⇄ scalar oracle equivalence: `muse_msed` (lane-parallel
//! where the layout allows) must produce tallies identical to
//! `muse_msed_scalar` (the draw-for-draw scalar reference) on every preset,
//! trial count, and thread count. Both consume the same pre-filled draw
//! columns, so any divergence is a lane-kernel bug, never a sampling
//! difference.

use muse_core::{presets, MuseCode};
use muse_faultsim::{muse_msed, muse_msed_scalar, MsedConfig};
use proptest::prelude::*;

fn all_presets() -> Vec<MuseCode> {
    vec![
        presets::muse_144_132(),
        presets::muse_144_128(),
        presets::muse_80_67(),
        presets::muse_80_69(),
        presets::muse_80_70(),
        presets::muse_268_256(),
    ]
}

#[test]
fn lane_matches_scalar_on_every_preset() {
    for code in all_presets() {
        if code.kernel().is_none() {
            continue;
        }
        // 2500 is deliberately not a multiple of the engine block (1024):
        // two full blocks plus a 452-trial tail exercise the partial-block
        // path through the lanes.
        for trials in [1, 1024, 2500] {
            let config = MsedConfig {
                trials,
                threads: 1,
                ..MsedConfig::default()
            };
            assert_eq!(
                muse_msed(&code, config),
                muse_msed_scalar(&code, config),
                "{} trials={trials}",
                code.name()
            );
        }
    }
}

#[test]
fn lane_matches_scalar_across_thread_counts() {
    let code = presets::muse_144_132();
    for threads in [1, 2, 5] {
        let config = MsedConfig {
            trials: 5_000,
            threads,
            ..MsedConfig::default()
        };
        assert_eq!(
            muse_msed(&code, config),
            muse_msed_scalar(&code, config),
            "threads={threads}"
        );
    }
}

#[test]
fn lane_matches_scalar_beyond_double_strikes() {
    // k ≠ 2 rides the per-strike columnar path on both sides; the contract
    // (same stream, same tallies) must hold there too.
    let code = presets::muse_144_132();
    for k in [1, 3] {
        let config = MsedConfig {
            failing_devices: k,
            trials: 2_048,
            threads: 1,
            ..MsedConfig::default()
        };
        assert_eq!(
            muse_msed(&code, config),
            muse_msed_scalar(&code, config),
            "k={k}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds and deliberately awkward trial counts (block
    /// fractions, off-by-ones around the block size) never separate the
    /// lane kernel from its scalar oracle.
    #[test]
    fn lane_matches_scalar_on_random_workloads(
        seed in any::<u64>(),
        trials in 1u64..4_200,
        threads in 1usize..4,
    ) {
        let code = presets::muse_144_128();
        let config = MsedConfig {
            trials,
            seed,
            threads,
            ..MsedConfig::default()
        };
        prop_assert_eq!(muse_msed(&code, config), muse_msed_scalar(&code, config));
    }
}
