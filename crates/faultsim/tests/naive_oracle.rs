//! The independent wide-path MUSE MSED oracle: one serial RNG stream and a
//! full wide-word encode and decode per trial — the simulator as first
//! written, before the parallel residue-space engine. It shares no draw
//! scheme and no classification code with `muse_msed`, so agreement
//! between the two within Monte-Carlo error checks the fast path's
//! sampling model, not only its arithmetic.

use muse_core::{presets, Decoded, MuseCode, Word};
use muse_faultsim::{muse_msed, MsedConfig, MsedStats, Outcome, Rng};

/// A payload with uniformly random low `bits`: five raw limbs, masked.
fn random_payload(rng: &mut Rng, bits: u32) -> Word {
    let limbs = [(); 5].map(|()| rng.next_u64());
    Word::from_limbs(limbs) & Word::mask(bits)
}

/// Serial wide-path MSED estimation. `config.threads` is ignored — this
/// path is single-threaded by construction.
fn naive_msed(code: &MuseCode, config: MsedConfig) -> MsedStats {
    let mut rng = Rng::seeded(config.seed);
    let mut stats = MsedStats::default();
    let n_sym = code.symbol_map().num_symbols();
    for _ in 0..config.trials {
        let payload = random_payload(&mut rng, code.k_bits());
        let cw = code.encode(&payload);
        let mut corrupted = cw;
        for sym in rng.choose_k(n_sym, config.failing_devices) {
            let pattern = rng.nonzero_below(1 << code.symbol_map().bits_of(sym).len());
            code.symbol_map()
                .apply_xor_pattern(&mut corrupted, sym, pattern);
        }
        let outcome = match code.decode(&corrupted) {
            Decoded::Detected => Outcome::Detected,
            Decoded::Clean { .. } => Outcome::Silent,
            Decoded::Corrected { payload: p, .. } => {
                if p == payload {
                    Outcome::Corrected
                } else {
                    Outcome::Miscorrected
                }
            }
        };
        match outcome {
            Outcome::Detected => stats.detected += 1,
            Outcome::Corrected => stats.corrected += 1,
            Outcome::Miscorrected => stats.miscorrected += 1,
            Outcome::Silent => stats.silent += 1,
        }
    }
    stats
}

#[test]
fn naive_and_fast_estimates_agree_statistically() {
    // Different RNG streams, same distribution: the two estimators must
    // land within Monte-Carlo error of each other.
    let code = presets::muse_144_132();
    let config = MsedConfig {
        trials: 4_000,
        ..MsedConfig::default()
    };
    let naive = naive_msed(&code, config);
    let fast = muse_msed(&code, config);
    assert_eq!(naive.total(), fast.total());
    let delta = (naive.detection_rate() - fast.detection_rate()).abs();
    assert!(
        delta < 3.0,
        "naive {} vs fast {}",
        naive.detection_rate(),
        fast.detection_rate()
    );
}

#[test]
fn naive_single_device_all_corrected() {
    let stats = naive_msed(
        &presets::muse_80_69(),
        MsedConfig {
            failing_devices: 1,
            trials: 200,
            ..MsedConfig::default()
        },
    );
    assert_eq!(stats.corrected, 200);
}
