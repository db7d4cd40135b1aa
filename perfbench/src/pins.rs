//! Exact simulated results at the default seed, full size. A change to
//! any simulator that is meant only to make it faster must leave these
//! bit-identical; an intended change to RNG streams or models re-baselines
//! them (from the report's `sim.*` lines) and says so in CHANGES.md.

/// `(cell, [detected, corrected, miscorrected, silent])` of each MSED cell.
pub const MSED: [(&str, [u64; 4]); 6] = [
    ("muse_144_132_k2", [872_515, 0, 127_485, 0]),
    ("muse_268_256_k2", [693_214, 2, 306_784, 0]),
    ("muse_80_67_k2", [954_555, 0, 45_258, 187]),
    ("muse_144_132_k3", [867_641, 0, 132_091, 268]),
    ("rs_144_128_t1", [941_055, 28_472, 30_473, 0]),
    ("rs_144_112_t2", [0, 1_000_000, 0, 0]),
];

/// Digest of every fleet job's reference tally and rates.
pub const FLEET_DIGEST: u64 = 0x72d6_8c61_208a_dfb9;

/// Digest of every figure cell's window counters.
pub const MEMTAG_DIGEST: u64 = 0x19fd_981c_8daf_d9a5;
