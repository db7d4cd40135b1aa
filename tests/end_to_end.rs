//! End-to-end storage pipeline tests: encode → route to devices (shuffle) →
//! physical device corruption → route back → decode, across code families.

use muse::core::{presets, Decoded, Word};
use muse::faultsim::Rng;

/// A payload with uniformly random low `bits`: five raw limbs, masked.
fn random_payload(rng: &mut Rng, bits: u32) -> Word {
    let limbs = [(); 5].map(|()| rng.next_u64());
    Word::from_limbs(limbs) & Word::mask(bits)
}

/// Corrupts device `dev` in the *storage* (wire) domain, where each device's
/// bits are contiguous.
fn fail_device_in_storage(
    stored: &Word,
    code: &muse::core::MuseCode,
    dev: usize,
    pattern: u64,
) -> Word {
    let s = code.symbol_map().bits_of(dev).len() as u32;
    *stored ^ (Word::from(pattern) << (dev as u32 * s))
}

#[test]
fn full_storage_roundtrip_with_shuffled_code() {
    // MUSE(80,67) uses the Eq.5 shuffle: the wire format differs from the
    // logical codeword. A physical device holds contiguous storage bits.
    let code = presets::muse_80_67();
    let map = code.symbol_map();
    let payload = Word::from(0xFEDC_BA98_7654_3210u64) & Word::mask(code.k_bits());
    let logical = code.encode(&payload);
    let stored = map.shuffle_to_storage(&logical);
    assert_ne!(stored, logical, "the shuffle routes bits");

    // A retention failure clears some stored 1-bits of device 6.
    let dev = 6;
    let device_bits = (stored >> (dev as u32 * 8)).to_u64().unwrap() & 0xFF;
    let drop_mask = device_bits & 0b1010_1010; // clear these ones
    if drop_mask != 0 {
        let failed = stored ^ (Word::from(drop_mask) << (dev as u32 * 8));
        let received = map.unshuffle_from_storage(&failed);
        match code.decode(&received) {
            Decoded::Corrected {
                payload: p, symbol, ..
            } => {
                assert_eq!(p, payload);
                assert_eq!(symbol, dev);
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn every_device_every_pattern_sequential_code() {
    // MUSE(80,69): exhaustive single-device coverage through the full
    // storage pipeline (identity shuffle).
    let code = presets::muse_80_69();
    let payload = code.pack_metadata(0x0F0F_F0F0_55AA_A55A, 0b11111);
    let logical = code.encode(&payload);
    let stored = code.symbol_map().shuffle_to_storage(&logical);
    for dev in 0..20 {
        for pattern in 1u64..16 {
            let failed = fail_device_in_storage(&stored, &code, dev, pattern);
            let received = code.symbol_map().unshuffle_from_storage(&failed);
            let decoded = code.decode(&received);
            assert_eq!(
                decoded.payload(),
                Some(payload),
                "dev {dev} pattern {pattern}"
            );
        }
    }
}

#[test]
fn random_payloads_random_single_device_errors() {
    let mut rng = Rng::seeded(0xE2E);
    for code in [
        presets::muse_144_132(),
        presets::muse_80_69(),
        presets::muse_268_256(),
    ] {
        for _ in 0..50 {
            let payload = random_payload(&mut rng, code.k_bits());
            let cw = code.encode(&payload);
            let dev = rng.below(code.symbol_map().num_symbols() as u64) as usize;
            let bits = code.symbol_map().bits_of(dev);
            let pattern = rng.nonzero_below(1 << bits.len());
            let mut corrupted = cw;
            for (i, &bit) in bits.iter().enumerate() {
                if pattern >> i & 1 == 1 {
                    corrupted.toggle_bit(bit);
                }
            }
            assert_eq!(
                code.decode(&corrupted).payload(),
                Some(payload),
                "{}",
                code.name()
            );
        }
    }
}

#[test]
fn muse_and_rs_agree_on_the_clean_path() {
    // Both families are systematic: the payload is recoverable without any
    // decode arithmetic in the error-free case.
    let mut rng = Rng::seeded(7);
    let muse = presets::muse_144_132();
    let rs = muse::rs::RsMemoryCode::new(8, 144, 1).unwrap();
    for _ in 0..50 {
        let payload = random_payload(&mut rng, 128);
        assert_eq!(
            muse.payload_of(&muse.encode(&payload)) & Word::mask(128),
            payload
        );
        assert_eq!(rs.payload_of(&rs.encode(&payload)), payload);
    }
}

#[test]
fn hybrid_code_covers_both_declared_classes() {
    // C4A_U1B: (a) any 1→0 device pattern, (b) any single-bit flip.
    let code = presets::muse_80_70();
    let payload = Word::mask(70) ^ (Word::from(0xF0Fu64) << 30);
    let cw = code.encode(&payload);
    // (a) asymmetric device failures
    for dev in 0..code.symbol_map().num_symbols() {
        let mut corrupted = cw;
        let mut any = false;
        for &bit in code.symbol_map().bits_of(dev) {
            if corrupted.bit(bit) {
                corrupted.set_bit(bit, false);
                any = true;
            }
        }
        if any {
            assert_eq!(
                code.decode(&corrupted).payload(),
                Some(payload),
                "device {dev}"
            );
        }
    }
    // (b) bidirectional single-bit errors
    for bit in 0..80 {
        let mut corrupted = cw;
        corrupted.toggle_bit(bit);
        assert_eq!(
            code.decode(&corrupted).payload(),
            Some(payload),
            "bit {bit}"
        );
    }
}

#[test]
fn chipkill_metadata_survives_alongside_tag_check() {
    // The full Section VI-A + VII-D story in one flow: tag + data + hash
    // bits all live in one codeword and all survive a chip kill.
    let code = presets::muse_80_69();
    let mut rng = Rng::seeded(99);
    for _ in 0..20 {
        let data = rng.next_u64();
        let meta = rng.below(32);
        let payload = code.pack_metadata(data, meta);
        let cw = code.encode(&payload);
        let dev = rng.below(20) as usize;
        let corrupted = cw ^ *code.symbol_map().mask(dev);
        let recovered = code.decode(&corrupted).payload().expect("chipkill");
        assert_eq!(code.unpack_metadata(&recovered), (data, meta));
    }
}
