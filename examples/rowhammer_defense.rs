//! Rowhammer defense with spare-bit hashes (paper Section VI-A).
//!
//! The five spare bits of MUSE(80,69) per 64-bit word give 40 bits per
//! cache line — enough for a keyed hash that a blind Rowhammer attacker
//! must also forge (success probability 2⁻⁴⁰).
//!
//! ```sh
//! cargo run --release --example rowhammer_defense
//! ```

use muse::core::presets;
use muse::faultsim::{simulate_attacks, HashedLine, LineError, LineHasher};

fn main() {
    let code = presets::muse_80_69();
    let hasher = LineHasher::new(0x0011_2233_4455_6677, 0x8899_AABB_CCDD_EEFF);

    // A protected cache line: 8 words, each carrying a 5-bit hash slice.
    let secret = [0xDEAD_BEEF_0000_0001u64; 8];
    let line = HashedLine::store(&code, &hasher, secret);
    assert_eq!(line.verify(&code, &hasher), Ok(secret));
    println!("stored 64B line with a 40-bit SipHash in the ECC spare bits ✓");

    // Attack 1: hammer one bit. ECC corrects it; the hash stays valid.
    let mut attacked = line.clone();
    attacked.flip_storage_bit(2, 33);
    assert_eq!(attacked.verify(&code, &hasher), Ok(secret));
    println!("single hammered bit: healed by ECC, data intact ✓");

    // Attack 2: replace a whole word with a *valid* codeword (the Cojocar-
    // style ECC bypass). Plain ECC sees remainder 0 — but the hash catches
    // the forgery.
    let mut forged = line.clone();
    let fake = code.encode(&code.pack_metadata(0x4141_4141, 0));
    forged.xor_word(
        5,
        fake ^ code.encode(&code.pack_metadata(secret[5], {
            // original hash slice of word 5
            let h = hasher.hash(&secret);
            (h >> 25) & 0x1F
        })),
    );
    match forged.verify(&code, &hasher) {
        Err(LineError::HashMismatch) => println!("valid-codeword forgery: caught by the hash ✓"),
        other => panic!("forgery slipped through: {other:?}"),
    }

    // Attack 3: campaigns of blind multi-bit flips at increasing intensity.
    println!("\nblind flip campaigns (3000 lines each):");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>12}",
        "flips", "ECC blocked", "hash blocked", "harmless", "SUCCESSFUL"
    );
    for flips in [2usize, 6, 12, 24, 48] {
        let stats = simulate_attacks(&code, &hasher, flips, 3_000, 0x40_4040, 0);
        println!(
            "{flips:>6} {:>12} {:>12} {:>10} {:>12}",
            stats.blocked_by_ecc, stats.blocked_by_hash, stats.harmless, stats.successful
        );
        assert_eq!(
            stats.successful, 0,
            "2^-40 says a success should never appear here"
        );
    }
    println!("\nNo campaign succeeded — matching the paper's 1 − 2⁻⁴⁰ detection bound.");
}
