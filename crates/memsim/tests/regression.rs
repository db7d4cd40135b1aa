//! Regression pins for the timing model: every `RunStats` counter of a
//! warm-up-then-window run (the shape of `muse_bench::measure`), over four
//! workload profiles and eight system configurations that between them
//! exercise every path of the hierarchy: ECC latency on both directions,
//! inline and disjoint tags (cached and uncached), next-line prefetch,
//! closed pages, and a small L3 whose dirty evictions reach DRAM.
//!
//! Under the default 8 MB L3 no dirty line leaves the LLC within the
//! window; the 1 MB L3 cells of 505.mcf_r and 519.lbm_r carry the DRAM
//! writes. The pins change only when the model's behaviour does; a faster
//! implementation of the same model must reproduce them exactly.

mod common;

use common::configs;
use muse_memsim::{spec2017_profiles, System, SystemConfig, Workload};

/// The workload seed `muse_bench::measure` uses.
const SEED: u64 = 0xF16;
/// Measured memory operations per cell, after a warm-up of half as many.
const WINDOW: u64 = 40_000;
/// 500.perlbench_r, 505.mcf_r, 519.lbm_r, 548.exchange2_r.
const PROFILES: [usize; 4] = [0, 3, 8, 18];

/// `[instructions, cycles, dram reads, dram writes, activates, row hits,
/// refreshes, metadata DRAM reads, metadata cache hits, LLC misses,
/// prefetches]` of the measured window.
fn cell(profile: usize, config: SystemConfig) -> [u64; 11] {
    let mut system = System::new(config);
    let mut workload = Workload::new(spec2017_profiles()[profile], SEED);
    let warm = system.run(&mut workload, WINDOW / 2);
    let s = system.run(&mut workload, WINDOW).since(&warm);
    [
        s.instructions,
        s.cycles,
        s.dram.reads,
        s.dram.writes,
        s.dram.activates,
        s.dram.row_hits,
        s.dram.refreshes,
        s.metadata_dram_reads,
        s.metadata_cache_hits,
        s.llc_misses,
        s.prefetches,
    ]
}

/// One row per profile, one cell per configuration, in `configs()` order.
const PINS: [[[u64; 11]; 8]; 4] = [
    [
        [114675, 806258, 669, 0, 668, 1, 30, 0, 0, 669, 0],
        [114675, 809558, 669, 0, 668, 1, 31, 0, 0, 669, 0],
        [114675, 806258, 669, 0, 668, 1, 30, 0, 0, 669, 0],
        [114675, 809524, 1333, 0, 1296, 37, 31, 664, 5, 669, 0],
        [114675, 812290, 1338, 0, 1300, 38, 31, 669, 0, 669, 0],
        [114675, 806258, 1335, 0, 679, 656, 30, 0, 0, 668, 667],
        [114675, 775786, 669, 0, 669, 0, 29, 0, 0, 669, 0],
        [114675, 806258, 669, 0, 668, 1, 30, 0, 0, 669, 0],
    ],
    [
        [99743, 4188010, 17745, 0, 16604, 1141, 158, 0, 0, 17745, 0],
        [99743, 4241482, 17745, 0, 16604, 1141, 160, 0, 0, 17745, 0],
        [99743, 4188010, 17745, 0, 16604, 1141, 158, 0, 0, 17745, 0],
        [
            99743, 4324685, 33791, 0, 32844, 947, 163, 16046, 1699, 17745, 0,
        ],
        [
            99743, 4337529, 35490, 0, 33809, 1681, 164, 17745, 0, 17745, 0,
        ],
        [
            99743, 4114360, 33599, 0, 16559, 17040, 155, 0, 0, 16825, 16774,
        ],
        [99743, 3413863, 17745, 0, 17745, 0, 128, 0, 0, 17745, 0],
        [
            99743, 4378491, 17762, 2081, 18788, 1055, 166, 0, 0, 17762, 0,
        ],
    ],
    [
        [90593, 3904415, 28031, 0, 3184, 24847, 147, 0, 0, 28031, 0],
        [90593, 3992064, 28031, 0, 3184, 24847, 151, 0, 0, 28031, 0],
        [90593, 3904415, 28031, 0, 3184, 24847, 147, 0, 0, 28031, 0],
        [
            90593, 4049198, 30968, 0, 6295, 24673, 153, 2937, 25094, 28031, 0,
        ],
        [
            90593, 4332298, 56062, 0, 9539, 46523, 163, 28031, 0, 28031, 0,
        ],
        [
            90593, 3121653, 30850, 0, 3212, 27638, 118, 0, 0, 15429, 15421,
        ],
        [90593, 4988334, 28031, 0, 28031, 0, 188, 0, 0, 28031, 0],
        [
            90593, 5663729, 28041, 10891, 17457, 21475, 213, 0, 0, 28041, 0,
        ],
    ],
    [
        [121364, 573424, 28, 0, 27, 1, 20, 0, 0, 28, 0],
        [121364, 573508, 28, 0, 27, 1, 20, 0, 0, 28, 0],
        [121364, 573424, 28, 0, 27, 1, 20, 0, 0, 28, 0],
        [121364, 573424, 49, 0, 36, 13, 20, 21, 7, 28, 0],
        [121364, 574500, 56, 0, 38, 18, 20, 28, 0, 28, 0],
        [121364, 574364, 56, 0, 27, 29, 20, 0, 0, 28, 28],
        [121364, 572224, 28, 0, 28, 0, 20, 0, 0, 28, 0],
        [121364, 573424, 28, 0, 27, 1, 20, 0, 0, 28, 0],
    ],
];

#[test]
fn run_stats_match_pins() {
    let mut mismatches = Vec::new();
    for (row, &profile) in PINS.iter().zip(&PROFILES) {
        for ((name, config), &pin) in configs().into_iter().zip(row) {
            let got = cell(profile, config);
            if got != pin {
                mismatches.push(format!(
                    "profile {profile}, {name}: got {got:?}, pinned {pin:?}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
