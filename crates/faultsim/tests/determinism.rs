//! The engine's determinism contract: every simulator produces
//! bit-identical tallies at any worker count, because randomness comes
//! exclusively from counter-based streams over fixed boundaries —
//! `Rng::for_trial(seed, i)` for per-trial runs, `Rng::for_block(seed, b)`
//! for blocked runs.

use muse_core::presets;
use muse_faultsim::{
    measure_mode, muse_msed, rs_msed, simulate_attacks, simulate_stack, FailureMode, LineHasher,
    MsedConfig, RsDetectMode, Stack,
};
use muse_rs::RsMemoryCode;

#[test]
fn msed_identical_across_thread_counts() {
    let code = presets::muse_144_132();
    let config = |threads| MsedConfig {
        trials: 3_000,
        threads,
        ..MsedConfig::default()
    };
    let serial = muse_msed(&code, config(1));
    assert_eq!(serial.total(), 3_000);
    for threads in [2, 4, 7] {
        assert_eq!(
            serial,
            muse_msed(&code, config(threads)),
            "threads={threads}"
        );
    }
}

#[test]
fn msed_identical_with_auto_threads() {
    let code = presets::muse_80_69();
    let serial = muse_msed(
        &code,
        MsedConfig {
            trials: 2_000,
            threads: 1,
            ..MsedConfig::default()
        },
    );
    let auto = muse_msed(
        &code,
        MsedConfig {
            trials: 2_000,
            threads: 0,
            ..MsedConfig::default()
        },
    );
    assert_eq!(serial, auto);
}

#[test]
fn msed_lane_path_identical_across_thread_counts() {
    // The k = 2 lane kernel consumes pre-filled per-block draw columns,
    // so worker count must never show: exercise a non-multiple-of-block
    // trial count (4 blocks + 904-trial tail) on MUSE(144,132), on the
    // Eq. 6 layout of MUSE(80,70) and on the interleaved Eq. 5 layout of
    // MUSE(80,67).
    for code in [
        presets::muse_144_132(),
        presets::muse_80_70(),
        presets::muse_80_67(),
    ] {
        if code.kernel().is_none() {
            continue;
        }
        let config = |threads| MsedConfig {
            trials: 5_000,
            seed: 0x51D,
            threads,
            ..MsedConfig::default()
        };
        let serial = muse_msed(&code, config(1));
        assert_eq!(serial.total(), 5_000);
        for threads in [2, 5] {
            assert_eq!(
                serial,
                muse_msed(&code, config(threads)),
                "{} threads={threads}",
                code.name()
            );
        }
    }
}

#[test]
fn rs_msed_identical_across_thread_counts() {
    let code = RsMemoryCode::new(8, 144, 1).expect("geometry");
    let config = |threads| MsedConfig {
        trials: 1_000,
        threads,
        ..MsedConfig::default()
    };
    let serial = rs_msed(&code, 4, RsDetectMode::DeviceConfined, config(1));
    let parallel = rs_msed(&code, 4, RsDetectMode::DeviceConfined, config(4));
    assert_eq!(serial, parallel);
}

#[test]
fn rowhammer_identical_across_thread_counts() {
    let code = presets::muse_80_69();
    let hasher = LineHasher::new(0x5117, 0x1d3a);
    let run = |threads| simulate_attacks(&code, &hasher, 8, 1_500, 99, threads);
    let serial = run(1);
    assert_eq!(serial.total(), 1_500);
    for threads in [3, 4] {
        let parallel = run(threads);
        assert_eq!(
            serial.blocked_by_ecc, parallel.blocked_by_ecc,
            "threads={threads}"
        );
        assert_eq!(serial.blocked_by_hash, parallel.blocked_by_hash);
        assert_eq!(serial.harmless, parallel.harmless);
        assert_eq!(serial.successful, parallel.successful);
    }
}

#[test]
fn ondie_identical_across_thread_counts() {
    let code = presets::muse_144_132();
    let run = |threads| simulate_stack(Stack::Stacked, Some(&code), 2e-3, 3_000, 5, threads);
    let serial = run(1);
    assert_eq!(serial.total(), 3_000);
    assert!(serial.due + serial.sdc > 0, "exercise failure paths");
    for threads in [2, 4, 7] {
        let parallel = run(threads);
        assert_eq!(
            (serial.intact, serial.due, serial.sdc),
            (parallel.intact, parallel.due, parallel.sdc),
            "threads={threads}"
        );
    }
    // The rank-less fast path too.
    let serial = simulate_stack(Stack::OnDieOnly, None, 2e-3, 2_000, 6, 1);
    let parallel = simulate_stack(Stack::OnDieOnly, None, 2e-3, 2_000, 6, 4);
    assert_eq!(
        (serial.intact, serial.due, serial.sdc),
        (parallel.intact, parallel.due, parallel.sdc)
    );
}

#[test]
fn fit_identical_across_thread_counts() {
    let code = presets::muse_144_132();
    let run = |threads| measure_mode(&code, FailureMode::TwoDevices, 3_000, 17, threads);
    let serial = run(1);
    for threads in [2, 4] {
        let parallel = run(threads);
        assert_eq!(
            (serial.p_correct, serial.p_due, serial.p_sdc),
            (parallel.p_correct, parallel.p_due, parallel.p_sdc),
            "threads={threads}"
        );
    }
}

#[test]
fn beyond_capacity_strike_counts_stay_deterministic() {
    // Strike counts beyond the fixed-capacity inline arrays route through
    // the Vec-based distinct sampler (the wide-word fallbacks are retired):
    // still syndrome-domain, still bit-identical across thread counts.
    let muse = presets::muse_144_132();
    let config = |threads| MsedConfig {
        failing_devices: 10,
        trials: 2_000,
        seed: 0xB16,
        threads,
    };
    let serial = muse_msed(&muse, config(1));
    assert_eq!(serial, muse_msed(&muse, config(4)));
    assert_eq!(serial.total(), 2_000);

    for t in [1usize, 2] {
        let rs = RsMemoryCode::new(8, 144, t).expect("geometry");
        let serial = rs_msed(&rs, 4, RsDetectMode::DeviceConfined, config(1));
        assert_eq!(
            serial,
            rs_msed(&rs, 4, RsDetectMode::DeviceConfined, config(4)),
            "t={t}"
        );
        assert_eq!(serial.total(), 2_000);
    }
}

#[test]
fn rs_t2_msed_identical_across_thread_counts() {
    // The t = 2 syndrome-domain path (the retired wide-PGZ fallback's
    // replacement) obeys the same determinism contract as everything else.
    let code = RsMemoryCode::new(8, 144, 2).expect("geometry");
    let config = |threads| MsedConfig {
        trials: 1_500,
        threads,
        ..MsedConfig::default()
    };
    let serial = rs_msed(&code, 4, RsDetectMode::DeviceConfined, config(1));
    for threads in [2, 4] {
        assert_eq!(
            serial,
            rs_msed(&code, 4, RsDetectMode::DeviceConfined, config(threads)),
            "threads={threads}"
        );
    }
}
