//! Ablation studies for the paper's design choices:
//!
//! 1. Zero-partial-product elimination in the constant multipliers (§V-B).
//! 2. Lemire two-multiplier modulo vs the naive divide-multiply-subtract.
//! 3. Shuffling vs sequential bit assignment: multiplier-search yield.
//! 4. DRAM open- vs closed-page policy under the Figure 6 workloads.

use muse_bench::{measure, print_table, study_config};
use muse_core::{find_multipliers, Direction, ErrorModel, FastMod, SearchOptions, SymbolMap};
use muse_hw::{wallace_levels, BoothEncoding, ConstMultiplier, TechParams};
use muse_memsim::{spec2017_profiles, DramConfig, PagePolicy, SystemConfig};

fn main() {
    zero_pp_elimination();
    modulo_circuits();
    shuffling_yield();
    page_policy();
    prefetching();
}

/// Ablation 1: how much does dropping the zero Booth digits save?
fn zero_pp_elimination() {
    let tech = TechParams::default();
    let mut rows = Vec::new();
    for (m, n_bits) in [(4065u64, 144u32), (2005, 80), (5621, 80), (821, 80)] {
        let fm = FastMod::minimal(m, n_bits).expect("constants");
        let booth = BoothEncoding::of(fm.inverse());
        let with = wallace_levels(booth.nonzero_partial_products());
        let without = wallace_levels(booth.partial_products());
        rows.push(vec![
            format!("m={m}"),
            booth.partial_products().to_string(),
            booth.zero_partial_products().to_string(),
            format!("{without} -> {with}"),
            format!("{:.0} ps", (without - with) as f64 * tech.fa_ps),
        ]);
    }
    print_table(
        "Ablation 1: zero-partial-product elimination (inverse multipliers)",
        &["code", "PPs", "zero PPs", "tree levels", "latency saved"],
        &rows,
    );
}

/// Ablation 2: Lemire direct remainder vs naive `c − m·⌊c/m⌋`.
fn modulo_circuits() {
    let tech = TechParams::default();
    let mut rows = Vec::new();
    for (m, n_bits) in [(4065u64, 144u32), (2005, 80)] {
        let fm = FastMod::minimal(m, n_bits).expect("constants");
        // Lemire (Fig. 5b): wide multiply, then multiply the F-bit fraction
        // by the *small* constant m.
        let lemire = ConstMultiplier::new(n_bits, fm.inverse())
            .cost(&tech)
            .then(ConstMultiplier::new(fm.shift(), &muse_core::Word::from(m)).cost(&tech));
        // Naive: wide multiply for ⌊c/m⌋, then a multiply whose *operand*
        // is still n bits against m, then an n-bit subtractor.
        let naive = ConstMultiplier::new(n_bits, fm.inverse())
            .cost(&tech)
            .then(ConstMultiplier::new(n_bits, &muse_core::Word::from(m)).cost(&tech))
            .then(muse_hw::adder_cost(n_bits, &tech));
        rows.push(vec![
            format!("m={m}, {n_bits}b"),
            format!("{:.3} ns / {} cells", lemire.delay_ns(), lemire.cells),
            format!("{:.3} ns / {} cells", naive.delay_ns(), naive.cells),
            format!("{:.0}%", 100.0 * (1.0 - lemire.delay_ps / naive.delay_ps)),
        ]);
    }
    print_table(
        "Ablation 2: Lemire fast modulo vs naive divide-multiply-subtract",
        &["config", "Lemire", "naive", "latency saved"],
        &rows,
    );
}

/// Ablation 3: what shuffling buys the multiplier search.
fn shuffling_yield() {
    let mut rows = Vec::new();
    let asym = ErrorModel::symbol(Direction::OneToZero);
    let hybrid = ErrorModel::hybrid_symbol_plus_single_bit();
    let configs: Vec<(&str, SymbolMap, SymbolMap, &ErrorModel, u32)> = vec![
        (
            "80b C8A, 13-bit",
            SymbolMap::sequential(80, 8).expect("layout"),
            SymbolMap::interleaved(80, 10).expect("layout"),
            &asym,
            13,
        ),
        (
            "80b C4A_U1B, 10-bit",
            SymbolMap::sequential(80, 4).expect("layout"),
            SymbolMap::eq6_hybrid_80(),
            &hybrid,
            10,
        ),
        (
            "80b C8A, 14-bit",
            SymbolMap::sequential(80, 8).expect("layout"),
            SymbolMap::interleaved(80, 10).expect("layout"),
            &asym,
            14,
        ),
    ];
    for (name, sequential, shuffled, model, p) in configs {
        let seq = find_multipliers(&sequential, model, p, SearchOptions::default()).len();
        let shuf = find_multipliers(&shuffled, model, p, SearchOptions::default()).len();
        rows.push(vec![name.to_string(), seq.to_string(), shuf.to_string()]);
    }
    print_table(
        "Ablation 3: multiplier-search yield, sequential vs shuffled",
        &["configuration", "sequential", "shuffled"],
        &rows,
    );
}

/// Ablation 5: next-line prefetching under streaming vs pointer-chasing.
fn prefetching() {
    let mut rows = Vec::new();
    for bench in [8usize, 3] {
        let profile = spec2017_profiles()[bench];
        let off = measure(profile, study_config(), 60_000);
        let on = measure(
            profile,
            SystemConfig {
                prefetch_next_line: true,
                ..study_config()
            },
            60_000,
        );
        rows.push(vec![
            profile.name.to_string(),
            format!("{:.1}", off.llc_mpki()),
            format!("{:.1}", on.llc_mpki()),
            format!(
                "{:+.1}%",
                100.0 * (on.cycles as f64 / off.cycles as f64 - 1.0)
            ),
        ]);
    }
    print_table(
        "Ablation 5: next-line prefetch",
        &["benchmark", "MPKI off", "MPKI on", "cycle delta"],
        &rows,
    );
}

/// Ablation 4: DRAM page policy under a streaming and a scattered workload.
fn page_policy() {
    let mut rows = Vec::new();
    for bench in [8usize, 3] {
        let profile = spec2017_profiles()[bench];
        let open = measure(profile, study_config(), 60_000);
        let closed = measure(
            profile,
            SystemConfig {
                dram: DramConfig {
                    page_policy: PagePolicy::Closed,
                    ..DramConfig::default()
                },
                ..study_config()
            },
            60_000,
        );
        rows.push(vec![
            profile.name.to_string(),
            format!("{:.3}", open.ipc()),
            format!("{:.3}", closed.ipc()),
            format!("{:.1}%", 100.0 * open.dram.row_hit_ratio()),
            format!(
                "{:+.2}%",
                100.0 * (closed.cycles as f64 / open.cycles as f64 - 1.0)
            ),
        ]);
    }
    print_table(
        "Ablation 4: open vs closed page policy",
        &[
            "benchmark",
            "IPC open",
            "IPC closed",
            "row-hit % (open)",
            "closed-page slowdown",
        ],
        &rows,
    );
}
