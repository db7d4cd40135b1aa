//! Oracle tests for code construction: the shape-based build of error
//! values, ELC and syndrome kernel must equal the per-symbol 320-bit
//! construction it replaced, table for table — rejections and their
//! indices included.

use crate::errval::{enumerate_per_symbol, ShapedValues};
use crate::{
    enumerate_error_values, presets, Direction, ErrorLookup, ErrorModel, ErrorTerm,
    MultiplierValidator, SymbolMap, SyndromeKernel,
};

/// Checks every table built for `(map, model)` at each multiplier in `ms`
/// against the reference construction; returns how many of them were valid
/// and built a kernel that was compared too.
fn assert_matches_reference(
    map: &SymbolMap,
    model: &ErrorModel,
    ms: impl IntoIterator<Item = u64>,
) -> usize {
    let values = enumerate_error_values(map, model);
    assert_eq!(values, enumerate_per_symbol(map, model), "error values");
    let shaped = ShapedValues::new(map, model);
    let mut validator = MultiplierValidator::new();
    let mut kernels = 0;
    for m in ms {
        let elc = ErrorLookup::from_values(&values, m);
        assert!(
            elc == ErrorLookup::from_values_wide(&values, m),
            "ELC or rejection differs, m={m}: {:?}",
            elc.as_ref().err()
        );
        assert_eq!(
            validator.validate(&values, m),
            elc.as_ref().map(|_| ()).map_err(|&rejection| rejection),
            "validator and ELC disagree, m={m}"
        );
        let r_bits = 64 - m.leading_zeros();
        if elc.is_err() || !SyndromeKernel::supports(map, m) || r_bits >= map.n_bits() {
            continue;
        }
        assert!(
            SyndromeKernel::build(map, &shaped, m, r_bits)
                == SyndromeKernel::build_per_symbol(map, model, m, r_bits),
            "kernel tables differ, m={m}"
        );
        kernels += 1;
    }
    kernels
}

#[test]
fn presets_match_the_per_symbol_construction() {
    for (name, ctor, _) in presets::ALL {
        let code = ctor();
        let (map, model, m) = (code.symbol_map(), code.error_model(), code.multiplier());
        assert_eq!(assert_matches_reference(map, model, [m]), 1, "{name}");
        let reference = SyndromeKernel::build_per_symbol(map, model, m, code.r_bits());
        assert!(
            code.kernel() == Some(&reference),
            "{name}: MuseCode's kernel"
        );
    }
}

#[test]
fn shuffled_and_spread_layouts_match() {
    // Bits 3 and 143 swapped: the first and last symbols span the whole
    // codeword (m = 7149 is the first 13-bit multiplier the search finds).
    let mut groups: Vec<Vec<u32>> = (0..36).map(|i| (4 * i..4 * i + 4).collect()).collect();
    groups[0][3] = 143;
    groups[35][3] = 3;
    let spread = SymbolMap::from_groups(144, groups).unwrap();
    let bidirectional = ErrorModel::symbol(Direction::Bidirectional);
    assert_eq!(assert_matches_reference(&spread, &bidirectional, [7149]), 1);

    // Every other x4 symbol lists its bits high to low: same values as
    // MUSE(144,132), but two shapes whose transition blocks differ.
    let groups = (0..36)
        .map(|i| {
            let bits = 4 * i..4 * i + 4;
            if i % 2 == 1 {
                bits.rev().collect()
            } else {
                bits.collect()
            }
        })
        .collect();
    let reversed = SymbolMap::from_groups(144, groups).unwrap();
    assert_eq!(
        assert_matches_reference(&reversed, &bidirectional, [4065]),
        1
    );

    let eq5 = SymbolMap::interleaved(80, 10).unwrap();
    let asymmetric = ErrorModel::symbol(Direction::OneToZero);
    assert_eq!(assert_matches_reference(&eq5, &asymmetric, [5621]), 1);
    let eq6 = SymbolMap::eq6_hybrid_80();
    let hybrid = ErrorModel::hybrid_symbol_plus_single_bit();
    assert_eq!(assert_matches_reference(&eq6, &hybrid, [821]), 1);

    // Every direction and term on these layouts, over a run of candidate
    // multipliers: most reject, and the rejection reasons must agree.
    let models = [
        bidirectional,
        asymmetric,
        hybrid,
        ErrorModel::symbol(Direction::ZeroToOne),
        ErrorModel::from_terms(vec![ErrorTerm::SingleBit(Direction::Bidirectional)]),
    ];
    let maps = [spread, eq5, eq6, SymbolMap::sequential(80, 8).unwrap()];
    for map in &maps {
        for model in &models {
            assert_matches_reference(map, model, (4097..4160).step_by(3));
        }
    }
}

/// SplitMix64: a seeded stream for the random-layout oracle.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

const DIRECTIONS: [Direction; 3] = [
    Direction::Bidirectional,
    Direction::ZeroToOne,
    Direction::OneToZero,
];

/// Upper bound on the values one symbol of `width` bits produces.
fn value_bound(width: usize, direction: Direction) -> u64 {
    match direction {
        Direction::Bidirectional => 3u64.pow(width as u32) - 1,
        _ => (1 << width) - 1,
    }
}

/// A random layout and model: symbols of mixed widths (up to 12 bits)
/// whose bits scatter over up to 320 positions, some symbols repeating a
/// shape, under a random direction with or without the single-bit term.
/// `small` keeps the value count low enough for a random multiplier to be
/// valid often, so the kernel gets compared too.
fn random_case(rng: &mut SplitMix, small: bool) -> (SymbolMap, ErrorModel) {
    let direction = DIRECTIONS[rng.range(0, 2) as usize];
    let mut terms = vec![ErrorTerm::Symbol(direction)];
    if rng.range(0, 2) == 0 {
        terms.push(ErrorTerm::SingleBit(DIRECTIONS[rng.range(0, 2) as usize]));
    }
    let n_bits = rng.range(if small { 8 } else { 1 }, 320) as u32;
    // Widths: mostly narrow, a few wide; the value count stays in budget.
    let budget: u64 = if small { 600 } else { 600_000 };
    let mut widths = Vec::new();
    let (mut covered, mut values) = (0usize, 0u64);
    while covered < n_bits as usize {
        let left = n_bits as usize - covered;
        let mut width = if rng.range(0, 3) == 0 {
            rng.range(1, 12) as usize
        } else {
            rng.range(1, if small { 1 } else { 3 }) as usize
        }
        .min(left);
        while width > 1 && values + value_bound(width, direction) > budget {
            width -= 1;
        }
        values += value_bound(width, direction) + 2 * width as u64;
        widths.push(width);
        covered += width;
    }
    // Bit order: a random permutation, sequential, or interleaved by the
    // symbol count; within-symbol order reversed now and then.
    let mut order: Vec<u32> = (0..n_bits).collect();
    match rng.range(0, 2) {
        0 => {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range(0, i as u64) as usize);
            }
        }
        1 => {}
        _ => {
            let stride = widths.len() as u32;
            order.sort_by_key(|&b| (b % stride, b / stride));
        }
    }
    let mut groups = Vec::with_capacity(widths.len());
    let mut rest = &order[..];
    for &width in &widths {
        let (group, tail) = rest.split_at(width);
        let mut group = group.to_vec();
        if rng.range(0, 3) == 0 {
            group.reverse();
        }
        groups.push(group);
        rest = tail;
    }
    let map = SymbolMap::from_groups(n_bits, groups).expect("a partition of the bits");
    (map, ErrorModel::from_terms(terms))
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

    /// Random layouts at depth: every table equal to the per-symbol
    /// construction, for valid multipliers (kernel included) and rejected
    /// ones (reason included).
    #[test]
    #[ignore = "deep oracle: run with --release -- --ignored"]
    fn random_layouts_match_the_per_symbol_construction(seed: u64) {
        let mut rng = SplitMix(seed);
        let small = seed.is_multiple_of(2);
        let (map, model) = random_case(&mut rng, small);
        let values = enumerate_error_values(&map, &model);
        // Small cases draw from a range where a random multiplier is often
        // valid; large ones from one that keeps the ELC table small, where
        // most candidates reject. Of 16 draws, the first valid one and the
        // first two rejected ones are compared.
        let (lo, hi) = if small {
            ((values.len() as u64 * 2).max(3), 1 << 18)
        } else {
            (3, 1 << 16)
        };
        let mut validator = MultiplierValidator::new();
        let (mut valid, mut rejected) = (Vec::new(), Vec::new());
        for _ in 0..16 {
            let m = rng.range(lo, hi);
            match validator.validate(&values, m) {
                Ok(()) if valid.is_empty() => valid.push(m),
                Err(_) if rejected.len() < 2 => rejected.push(m),
                _ => {}
            }
        }
        assert_matches_reference(&map, &model, valid.into_iter().chain(rejected));
    }
}
