//! Word-read classification per read, through `muse_core::Classifier`
//! (MUSE) and `muse_rs::RsClassifier` (RS t=1, t=2), on a strike stream
//! drawn from the fleet environments. Runs in every traced run: the
//! fleet simulator reaches these backends only inside `muse-lifetime`.

use muse_core::{presets, Classifier, MuseClassifier, Strike, WordRead};
use muse_faultsim::{FailureMode, Rng};
use muse_lifetime::{all_environments, Environment};
use muse_rs::{RsClassifier, RsMemoryCode};

use crate::spans::Recorder;
use crate::{input_seed, Checks};

/// Reads per code, healthy and degraded each.
const READS: usize = 128_000;
/// Distinct single-device erased sets per code.
const ERASED_SETS: usize = 32;
/// Preset constructions timed for `kernel_build_ms`.
const BUILDS: usize = 4;

/// Span names of one backend family.
struct Names {
    healthy: &'static str,
    degraded: &'static str,
    resolve: &'static str,
}

const MUSE: Names = Names {
    healthy: "muse_core.classify_healthy",
    degraded: "muse_core.classify_degraded",
    resolve: "muse_core.resolve",
};
const RS_T1: Names = Names {
    healthy: "rs_ecc.classify_healthy.t1",
    degraded: "rs_ecc.classify_degraded.t1",
    resolve: "rs_ecc.resolve.t1",
};
const RS_T2: Names = Names {
    healthy: "rs_ecc.classify_healthy.t2",
    degraded: "rs_ecc.classify_degraded.t2",
    resolve: "rs_ecc.resolve.t2",
};

/// One device disturbance drawn from `env`'s rates: a transient upset
/// (one bit; a `1→0` discharge in retention-style environments) or a
/// permanent fault of one of the three single-device modes.
fn draw_strike(rng: &mut Rng, env: &Environment, width: u32) -> Strike {
    let modes = [
        FailureMode::SingleBit,
        FailureMode::SingleDeviceMultiBit,
        FailureMode::WholeDevice,
    ];
    let permanent: Vec<f64> = modes
        .iter()
        .zip(env.permanent_scale)
        .map(|(m, scale)| m.fit_per_device() * scale)
        .collect();
    let mut u = rng.f64() * (env.transient_fit_per_device + permanent.iter().sum::<f64>());
    let bit = rng.below(u64::from(width)) as u8;
    if u < env.transient_fit_per_device {
        return if env.asymmetric_transients {
            Strike::AsymBit(bit)
        } else {
            Strike::Xor(1 << bit)
        };
    }
    u -= env.transient_fit_per_device;
    if u < permanent[0] {
        Strike::Xor(1 << bit)
    } else {
        Strike::Xor(rng.nonzero_below(1 << width) as u16)
    }
}

/// Classifies `READS` healthy reads and `READS` reads under single-device
/// erasures; every healthy single-device read must come back correct.
fn run<C: Classifier>(
    rec: &mut Recorder,
    backend: &mut C,
    names: &Names,
    label: &str,
    seed: u64,
    checks: &mut Checks,
) {
    let envs = all_environments();
    let mut strikes = Rng::seeded(seed);
    let mut entropy = Rng::seeded(!seed);
    let devices = backend.devices() as u64;
    let draw = |rng: &mut Rng, backend: &C, i: usize, erased: Option<u16>| loop {
        let dev = rng.below(devices) as u16;
        if Some(dev) != erased {
            let strike = draw_strike(rng, &envs[i % envs.len()], backend.device_width(dev));
            return [(dev, strike)];
        }
    };

    let healthy = backend.resolve(&[]).expect("the empty erased set resolves");
    let reads: Vec<_> = (0..READS)
        .map(|i| draw(&mut strikes, backend, i, None))
        .collect();
    let outcomes = rec.span(names.healthy, READS as u64, |_| {
        reads
            .iter()
            .filter(|read| backend.classify(&healthy, &read[..], &mut entropy) == WordRead::Correct)
            .count()
    });
    checks.check(outcomes == READS, || {
        format!(
            "{label}: {} of {READS} healthy single-device reads not corrected",
            READS - outcomes
        )
    });

    let per_set = READS / ERASED_SETS;
    for set in 0..ERASED_SETS {
        let erased = strikes.below(devices) as u16;
        let ctx = rec.span(names.resolve, 1, |_| backend.resolve(&[erased]));
        let Some(ctx) = ctx else {
            checks.check(false, || {
                format!("{label}: erased device {erased} does not resolve")
            });
            continue;
        };
        let reads: Vec<_> = (0..per_set)
            .map(|i| draw(&mut strikes, backend, set * per_set + i, Some(erased)))
            .collect();
        rec.span(names.degraded, per_set as u64, |_| {
            for read in &reads {
                std::hint::black_box(backend.classify(&ctx, &read[..], &mut entropy));
            }
        });
    }
}

/// Times preset construction and both backend families; returns the
/// `muse_core.*` and `rs_ecc.*` per-layer metrics.
pub fn measure(rec: &mut Recorder, seed: u64, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let seed = input_seed(0xC1A5_5EED, seed);
    let mut muse = Vec::new();
    for _ in 0..BUILDS {
        muse = vec![
            rec.span("muse_core.preset", 1, |_| presets::muse_144_132()),
            rec.span("muse_core.preset", 1, |_| presets::muse_80_69()),
        ];
    }
    for (i, code) in muse.iter().enumerate() {
        let kernel = code.kernel().expect("presets carry a syndrome kernel");
        run(
            rec,
            &mut MuseClassifier::new(kernel),
            &MUSE,
            code.name(),
            seed ^ i as u64,
            checks,
        );
    }
    for (t, names) in [(1, &RS_T1), (2, &RS_T2)] {
        let code = RsMemoryCode::new(8, 144, t).expect("RS(144,*) geometry");
        run(
            rec,
            &mut RsClassifier::new(&code, 4),
            names,
            &code.name(),
            seed ^ t as u64,
            checks,
        );
    }

    let w = "classify";
    let per_read = |name| rec.total(w, name).ns_per_unit();
    let resolve_us = |name| rec.total(w, name).ms_per_call() * 1e3;
    vec![
        (
            "muse_core.kernel_build_ms",
            rec.total(w, "muse_core.preset").ms_per_call(),
        ),
        ("muse_core.classify_healthy_ns", per_read(MUSE.healthy)),
        ("muse_core.classify_degraded_ns", per_read(MUSE.degraded)),
        ("muse_core.resolve_us", resolve_us(MUSE.resolve)),
        ("rs_ecc.classify_healthy_ns.t1", per_read(RS_T1.healthy)),
        ("rs_ecc.classify_degraded_ns.t1", per_read(RS_T1.degraded)),
        ("rs_ecc.resolve_us.t1", resolve_us(RS_T1.resolve)),
        ("rs_ecc.classify_healthy_ns.t2", per_read(RS_T2.healthy)),
        ("rs_ecc.classify_degraded_ns.t2", per_read(RS_T2.degraded)),
        ("rs_ecc.resolve_us.t2", resolve_us(RS_T2.resolve)),
    ]
}
