//! Section VI-A: Rowhammer resistance from 40-bit line hashes stored in the
//! MUSE(80,69) spare bits.

use muse_bench::{count_arg, print_table};
use muse_core::presets;
use muse_faultsim::{simulate_attacks, LineHasher};

fn main() {
    let trials = count_arg(5_000);
    let code = presets::muse_80_69();
    let hasher = LineHasher::new(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210);

    let mut rows = Vec::new();
    for flips in [1usize, 2, 4, 8, 16, 32, 64] {
        let stats = simulate_attacks(&code, &hasher, flips, trials, 0xBEEF, 0);
        rows.push(vec![
            flips.to_string(),
            stats.blocked_by_ecc.to_string(),
            stats.blocked_by_hash.to_string(),
            stats.harmless.to_string(),
            stats.successful.to_string(),
        ]);
    }
    print_table(
        &format!("Rowhammer campaigns ({trials} blind attacks per row)"),
        &[
            "flips",
            "blocked by ECC",
            "blocked by hash",
            "harmless",
            "SUCCESSFUL",
        ],
        &rows,
    );
    println!("\nPaper: a blind attacker defeats the 40-bit hash with probability 2^-40");
    println!("≈ 9.1e-13 — every simulated campaign should show zero successes.");
}
