//! Integration tests for the extension layers: cache-line codec, spec
//! round-trips, trace replay, Verilog emission, and the on-die stack.

use muse::core::{presets, LineCodec, MuseCode};
use muse::faultsim::{simulate_stack, LineHasher, Stack};
use muse::memsim::{System, SystemConfig, Trace};
use muse::secded::SecDed;

#[test]
fn line_codec_carries_mte_tags_through_chip_failure() {
    // The full Section VII-D data path at line granularity: 8 words, 16
    // tag bits, one chip dies, everything comes back.
    let codec = LineCodec::new(presets::muse_80_69()).unwrap();
    let data = [0x1111_2222_3333_4444u64; 8];
    let tags = 0x5A5Au64; // 4-bit tag per 16 bytes
    let mut stored = codec.encode_line(&data, tags);
    for (i, word) in stored.iter_mut().enumerate() {
        let dev = (i * 3) % 20;
        *word = *word ^ *codec.code().symbol_map().mask(dev);
    }
    let line = codec.decode_line(&stored).unwrap();
    assert_eq!(line.data, data);
    assert_eq!(line.metadata, tags);
    assert_eq!(
        line.corrections.len(),
        8,
        "every word needed one correction"
    );
}

#[test]
fn spec_roundtrip_preserves_decode_behaviour() {
    let original = presets::muse_80_70();
    let loaded = MuseCode::from_spec_string(&original.to_spec_string()).unwrap();
    let payload = muse::core::Word::mask(70);
    let cw = original.encode(&payload);
    // The reloaded code corrects errors identically.
    for bit in (0..80).step_by(11) {
        let mut bad = cw;
        bad.toggle_bit(bit);
        assert_eq!(
            original.decode(&bad).payload(),
            loaded.decode(&bad).payload(),
            "bit {bit}"
        );
    }
}

#[test]
fn trace_replay_is_equivalent_to_generated_stream() {
    // Record a synthetic stream as a trace, replay it, and compare stats.
    use muse::memsim::{spec2017_profiles, Workload};
    let profile = spec2017_profiles()[2];
    let mut workload = Workload::new(profile, 77);
    let ops: Vec<_> = (0..5_000).map(|_| workload.next_op()).collect();
    let trace = Trace::from_ops(ops.clone());

    let mut direct = System::new(SystemConfig::default());
    for &op in &ops {
        direct.step(op);
    }
    let mut replayed = System::new(SystemConfig::default());
    let stats = trace.replay(&mut replayed);
    assert_eq!(stats.cycles, direct.stats().cycles);
    assert_eq!(stats.dram.reads, direct.stats().dram.reads);

    // And the text form survives a round-trip.
    let reparsed = Trace::parse(&trace.to_text()).unwrap();
    assert_eq!(reparsed, trace);
}

#[test]
fn verilog_emission_reflects_the_spec_constants() {
    for code in presets::table1() {
        let v = muse::hw::emit_encoder_module(&code, "dut");
        assert!(
            v.contains(&format!("'d{} - rem", code.multiplier())),
            "{}",
            code.name()
        );
        assert!(
            v.contains(&format!("[{}:0] codeword", code.n_bits() - 1)),
            "{}",
            code.name()
        );
    }
}

#[test]
fn hsiao_and_muse_compose_in_the_ondie_stack() {
    // Cross-crate sanity: the SEC substrate and the rank code interoperate
    // and the stack dominates each alone at a moderate fault rate.
    let code = presets::muse_144_132();
    let p = 1.5e-3;
    let none = simulate_stack(Stack::None, None, p, 600, 42, 0);
    let ondie = simulate_stack(Stack::OnDieOnly, None, p, 600, 42, 0);
    let stacked = simulate_stack(Stack::Stacked, Some(&code), p, 600, 42, 0);
    assert!(ondie.sdc < none.sdc);
    assert!(stacked.sdc <= ondie.sdc);
    assert!(stacked.intact >= ondie.intact.min(none.intact));
}

#[test]
fn secded_standalone_matches_its_spec() {
    // The (72,64) Hsiao code: 8 check bits, exhaustive single-correction
    // already covered by unit tests; here check the DIMM-geometry fit:
    // 72 bits = 18 x4 devices, matching half a 144-bit MUSE channel.
    let code = SecDed::hsiao(72, 64).unwrap();
    assert_eq!(code.n_bits() / 4, 18);
    assert_eq!(code.r_bits(), 8);
    // MUSE(144,132) protects two 64-bit words with 12 bits — four fewer
    // than two Hsiao words (16), without losing ChipKill.
    assert!(presets::muse_144_132().r_bits() + 4 == 2 * code.r_bits());
}

#[test]
fn rowhammer_hash_uses_line_codec_capacity() {
    // The HashedLine of Section VI-A and the generic LineCodec agree on
    // capacity: 8 × 5 spare bits = 40 = HASH_BITS.
    let codec = LineCodec::new(presets::muse_80_69()).unwrap();
    assert_eq!(codec.metadata_bits(), muse::faultsim::HASH_BITS);
    let hasher = LineHasher::new(1, 2);
    let data = [99u64; 8];
    let hash = hasher.hash(&data);
    let stored = codec.encode_line(&data, hash);
    let line = codec.decode_line(&stored).unwrap();
    assert_eq!(line.metadata, hash, "hash survives the line round-trip");
}
