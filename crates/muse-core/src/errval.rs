//! Enumeration of the signed error values a code layout must disambiguate
//! (paper Sections II–III).
//!
//! An error flipping bits `P⁺` from 0→1 and `P⁻` from 1→0 changes the
//! codeword by `e = Σ_{i∈P⁺} 2^i − Σ_{i∈P⁻} 2^i`. Correction only needs the
//! *value* `e` (the fix is `codeword − e`), so enumeration deduplicates
//! distinct flip patterns that produce the same value (e.g. `+2^{a+1} − 2^a`
//! and `+2^a` inside one contiguous symbol).
//!
//! Because every signed power-of-two representation of a value shares its
//! lowest set bit, a value can only arise within the single symbol owning
//! that bit — so each distinct value has a well-defined owning symbol.
//!
//! A symbol's values depend on it only through its *shape* — its ordered
//! bit offsets above its lowest (*base*) bit: they are the shape's values
//! shifted up by the base. Every preset repeats one shape across all its
//! symbols, so enumeration works once per shape.

use muse_wideint::SignedWide;

use crate::{ErrorModel, ErrorTerm, ErrorValueInt, SymbolMap, Word};

/// A distinct error value together with the symbol able to produce it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorValue {
    /// The signed change to the codeword.
    pub value: ErrorValueInt,
    /// Index of the owning symbol in the [`SymbolMap`].
    pub symbol: usize,
}

/// Enumerates the distinct error values of `model` over `map`.
///
/// Each distinct symbol shape is enumerated once and shifted onto every
/// symbol of that shape. The result is sorted by signed value, most
/// negative first, so it is deterministic across runs; the indices in a
/// [`MultiplierRejection`](crate::MultiplierRejection) refer to this order.
///
/// # Examples
///
/// ```
/// use muse_core::{enumerate_error_values, Direction, ErrorModel, SymbolMap};
///
/// # fn main() -> Result<(), muse_core::SymbolMapError> {
/// // A contiguous 4-bit symbol has 2·(2^4−1) = 30 distinct values;
/// // the paper's MUSE(144,132) has 36 such symbols -> 1080 ELC entries.
/// let map = SymbolMap::sequential(144, 4)?;
/// let model = ErrorModel::symbol(Direction::Bidirectional);
/// assert_eq!(enumerate_error_values(&map, &model).len(), 1080);
/// # Ok(())
/// # }
/// ```
pub fn enumerate_error_values(map: &SymbolMap, model: &ErrorModel) -> Vec<ErrorValue> {
    ShapedValues::new(map, model).absolute()
}

/// A layout's error values grouped by symbol shape: each distinct shape's
/// values are enumerated once, at base bit 0, and a symbol's own values are
/// its shape's shifted up by its base bit. Construction-time only: a
/// [`MuseCode`](crate::MuseCode) keeps none of it.
#[derive(Debug)]
pub(crate) struct ShapedValues {
    /// The distinct shapes, in order of first appearance.
    pub(crate) shapes: Vec<Shape>,
    /// Per symbol: the index of its shape in `shapes` and its base bit.
    pub(crate) symbols: Vec<(usize, u32)>,
}

/// One symbol shape and the error values it produces at base bit 0.
#[derive(Debug)]
pub(crate) struct Shape {
    /// Bit offsets above the base bit, in the symbol's content-bit order.
    pub(crate) offsets: Vec<u32>,
    /// The distinct error values, ascending.
    pub(crate) values: Vec<ErrorValueInt>,
}

impl ShapedValues {
    pub(crate) fn new(map: &SymbolMap, model: &ErrorModel) -> Self {
        let mut shapes: Vec<Shape> = Vec::new();
        let symbols = (0..map.num_symbols())
            .map(|sym| {
                let bits = map.bits_of(sym);
                let base = bits.iter().copied().min().unwrap_or(0);
                let offsets: Vec<u32> = bits.iter().map(|&bit| bit - base).collect();
                // Layouts have few distinct shapes: a linear probe beats
                // hashing the offset lists.
                let shape = match shapes.iter().position(|s| s.offsets == offsets) {
                    Some(shape) => shape,
                    None => {
                        shapes.push(Shape::new(offsets, model));
                        shapes.len() - 1
                    }
                };
                (shape, base)
            })
            .collect();
        Self { shapes, symbols }
    }

    /// Every symbol's values shifted into place, in
    /// [`enumerate_error_values`] order.
    pub(crate) fn absolute(&self) -> Vec<ErrorValue> {
        let total = self
            .symbols
            .iter()
            .map(|&(shape, _)| self.shapes[shape].values.len())
            .sum();
        let mut out = Vec::with_capacity(total);
        for (symbol, &(shape, base)) in self.symbols.iter().enumerate() {
            out.extend(self.shapes[shape].values.iter().map(|v| ErrorValue {
                value: SignedWide::new(*v.magnitude() << base, v.is_negative()),
                symbol,
            }));
        }
        out.sort_unstable_by_key(|a| a.value);
        // Disjoint symbols cannot produce the same value (shared lowest set
        // bit), so the per-shape dedup left nothing to merge.
        debug_assert!(out.windows(2).all(|w| w[0].value < w[1].value));
        out
    }
}

impl Shape {
    fn new(offsets: Vec<u32>, model: &ErrorModel) -> Self {
        let mut values = Vec::new();
        for term in model.terms() {
            match *term {
                ErrorTerm::Symbol(direction) => {
                    values.extend(symbol_error_values(&offsets, direction));
                }
                ErrorTerm::SingleBit(direction) => {
                    for &bit in &offsets {
                        if direction.allows_rising() {
                            values.push(SignedWide::from_bit(bit, true));
                        }
                        if direction.allows_falling() {
                            values.push(SignedWide::from_bit(bit, false));
                        }
                    }
                }
            }
        }
        Self {
            values: dedup_sorted(values),
            offsets,
        }
    }
}

/// `2^i mod m` for every codeword bit position — the crate's one routine
/// for reducing an error value mod `m`. An error value is a short signed
/// sum of powers of two, so its residue is the signed sum of its set bits'
/// table entries: no wide division.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pow2Residues {
    m: u64,
    pow: Vec<u64>,
}

impl Pow2Residues {
    pub(crate) fn new(m: u64) -> Self {
        let mut table = Self::default();
        table.reset(m);
        table
    }

    /// Rebuilds the table for modulus `m`, reusing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `m` is 0 or at least `2^63`.
    pub(crate) fn reset(&mut self, m: u64) {
        assert!(m != 0 && m <= 1 << 63, "modulus {m} out of range");
        self.m = m;
        self.pow.clear();
        let mut pow = 1 % m;
        for _ in 0..Word::BITS {
            self.pow.push(pow);
            pow <<= 1;
            if pow >= m {
                pow -= m;
            }
        }
    }

    /// `2^bit mod m`.
    #[inline]
    pub(crate) fn of_bit(&self, bit: u32) -> u64 {
        self.pow[bit as usize]
    }

    /// `value mod m`, in `[0, m)`.
    #[inline]
    pub(crate) fn residue(&self, value: &ErrorValueInt) -> u64 {
        let mut rem = 0;
        for (limb, mut bits) in value.magnitude().to_limbs().into_iter().enumerate() {
            while bits != 0 {
                rem += self.pow[limb * 64 + bits.trailing_zeros() as usize];
                if rem >= self.m {
                    rem -= self.m;
                }
                bits &= bits - 1;
            }
        }
        if value.is_negative() && rem != 0 {
            self.m - rem
        } else {
            rem
        }
    }
}

/// The per-symbol enumeration the shape-based one replaced: every symbol's
/// values enumerated at their own bit positions and deduplicated through a
/// map. Kept as the oracle the shape-based enumeration must match.
#[cfg(test)]
pub(crate) fn enumerate_per_symbol(map: &SymbolMap, model: &ErrorModel) -> Vec<ErrorValue> {
    use std::collections::HashMap;

    let mut seen: HashMap<ErrorValueInt, usize> = HashMap::new();
    let mut record = |value: ErrorValueInt, symbol: usize| {
        let prev = seen.insert(value, symbol);
        assert!(prev.is_none() || prev == Some(symbol));
    };
    for term in model.terms() {
        match term {
            ErrorTerm::Symbol(direction) => {
                for sym in 0..map.num_symbols() {
                    for value in symbol_error_values(map.bits_of(sym), *direction) {
                        record(value, sym);
                    }
                }
            }
            ErrorTerm::SingleBit(direction) => {
                for bit in 0..map.n_bits() {
                    let sym = map.symbol_of_bit(bit);
                    if direction.allows_rising() {
                        record(SignedWide::from_bit(bit, true), sym);
                    }
                    if direction.allows_falling() {
                        record(SignedWide::from_bit(bit, false), sym);
                    }
                }
            }
        }
    }
    let mut out: Vec<ErrorValue> = seen
        .into_iter()
        .map(|(value, symbol)| ErrorValue { value, symbol })
        .collect();
    out.sort_by_key(|a| a.value);
    out
}

/// All distinct signed error values producible by flips within one symbol.
///
/// Bidirectional symbols enumerate every sign assignment over every
/// non-empty subset of the symbol's bits (up to `3^s − 1` combinations,
/// fewer distinct values when bits are adjacent); asymmetric directions
/// enumerate the `2^s − 1` single-sign subsets.
pub fn symbol_error_values(bits: &[u32], direction: crate::Direction) -> Vec<ErrorValueInt> {
    let s = bits.len();
    assert!(s <= 20, "symbol size {s} unreasonably large");
    let mut out = Vec::new();
    if direction == crate::Direction::Bidirectional {
        // Ternary counter: digit 0 = no flip, 1 = rising (+), 2 = falling (−).
        let mut digits = vec![0u8; s];
        loop {
            // Increment base-3.
            let mut i = 0;
            loop {
                if i == s {
                    return dedup_sorted(out);
                }
                digits[i] += 1;
                if digits[i] < 3 {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
            let mut value = ErrorValueInt::ZERO;
            for (d, &bit) in digits.iter().zip(bits) {
                match d {
                    1 => value = value + SignedWide::from_bit(bit, true),
                    2 => value = value + SignedWide::from_bit(bit, false),
                    _ => {}
                }
            }
            out.push(value);
        }
    } else {
        let rising = direction.allows_rising();
        for pattern in 1u32..(1 << s) {
            let mut value = ErrorValueInt::ZERO;
            for (i, &bit) in bits.iter().enumerate() {
                if pattern >> i & 1 == 1 {
                    value = value + SignedWide::from_bit(bit, rising);
                }
            }
            out.push(value);
        }
        dedup_sorted(out)
    }
}

fn dedup_sorted(mut values: Vec<ErrorValueInt>) -> Vec<ErrorValueInt> {
    values.sort();
    values.dedup();
    values
}

/// Counts error-value magnitudes per power-of-two bin: entry `b` is the
/// number of distinct *positive* error values `v` with `⌊log2 v⌋ = b`.
///
/// This regenerates the data behind Figure 1(b), which plots the error-value
/// distribution of MUSE(80,69) with sequential vs shuffled bit assignment
/// (positive values only, matching the paper's convention).
pub fn positive_value_histogram(map: &SymbolMap, model: &ErrorModel) -> Vec<u32> {
    let mut bins = vec![0u32; map.n_bits() as usize];
    for ev in enumerate_error_values(map, model) {
        if !ev.value.is_negative() && !ev.value.is_zero() {
            let bin = (ev.value.magnitude().bit_len() - 1) as usize;
            bins[bin] += 1;
        }
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;

    fn values_i128(bits: &[u32], dir: Direction) -> Vec<i128> {
        symbol_error_values(bits, dir)
            .iter()
            .map(|v| v.to_i128().unwrap())
            .collect()
    }

    #[test]
    fn contiguous_symbol_collapses_to_30() {
        // Paper III-A: a contiguous 4-bit symbol has 2·(2^4−1) = 30 distinct
        // error values even though there are 3^4−1 = 80 flip patterns.
        let vals = values_i128(&[0, 1, 2, 3], Direction::Bidirectional);
        assert_eq!(vals.len(), 30);
        let expect: Vec<i128> = (-15..=15).filter(|&v| v != 0).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn offset_symbol_scales_values() {
        let vals = values_i128(&[4, 5, 6, 7], Direction::Bidirectional);
        let expect: Vec<i128> = (-15..=15).filter(|&v| v != 0).map(|v| v * 16).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn spread_symbol_keeps_all_ternary_values() {
        // Non-adjacent bits -> all 3^s − 1 sign patterns are distinct values.
        let vals = values_i128(&[0, 10], Direction::Bidirectional);
        assert_eq!(vals.len(), 8); // 3^2 − 1
        let expect: Vec<i128> = vec![-1025, -1024, -1023, -1, 1, 1023, 1024, 1025];
        assert_eq!(vals, expect);
    }

    #[test]
    fn paper_figure1_toy_example() {
        // Fig. 1(a): 4-bit codeword, x2 devices. Sequential: symbol {b0,b1}
        // has positive values 1, 2, 3; shuffled symbol {b0,b3} has 1, 7, 8, 9.
        let seq = values_i128(&[0, 1], Direction::Bidirectional);
        let pos: Vec<i128> = seq.into_iter().filter(|v| *v > 0).collect();
        assert_eq!(pos, vec![1, 2, 3]);
        let shuf = values_i128(&[0, 3], Direction::Bidirectional);
        let pos: Vec<i128> = shuf.into_iter().filter(|v| *v > 0).collect();
        assert_eq!(pos, vec![1, 7, 8, 9]);
    }

    #[test]
    fn asymmetric_values_all_negative() {
        let vals = values_i128(&[0, 1, 2, 3], Direction::OneToZero);
        assert_eq!(vals.len(), 15);
        assert!(vals.iter().all(|&v| v < 0));
        assert_eq!(vals.first(), Some(&-15));
        assert_eq!(vals.last(), Some(&-1));
    }

    #[test]
    fn zero_to_one_values_all_positive() {
        let vals = values_i128(&[2, 5], Direction::ZeroToOne);
        assert_eq!(vals, vec![4, 32, 36]);
    }

    #[test]
    fn full_code_counts() {
        let map = SymbolMap::sequential(80, 4).unwrap();
        let model = ErrorModel::symbol(Direction::Bidirectional);
        assert_eq!(enumerate_error_values(&map, &model).len(), 20 * 30);

        // Eq.5 shuffle, asymmetric 8-bit symbols: 10 × (2^8 − 1).
        let map = SymbolMap::interleaved(80, 10).unwrap();
        let model = ErrorModel::symbol(Direction::OneToZero);
        assert_eq!(enumerate_error_values(&map, &model).len(), 10 * 255);
    }

    #[test]
    fn hybrid_count_matches_dedup() {
        // Eq.6: 20 asymmetric 4-bit symbols (20×15 = 300 negative values) plus
        // 160 single-bit values, of which the 80 negative ones are duplicates.
        let map = SymbolMap::eq6_hybrid_80();
        let model = ErrorModel::hybrid_symbol_plus_single_bit();
        let values = enumerate_error_values(&map, &model);
        assert_eq!(values.len(), 300 + 80);
        let positives = values.iter().filter(|v| !v.value.is_negative()).count();
        assert_eq!(positives, 80);
    }

    #[test]
    fn symbol_attribution_follows_lowest_bit() {
        let map = SymbolMap::interleaved(80, 10).unwrap();
        let model = ErrorModel::symbol(Direction::Bidirectional);
        for ev in enumerate_error_values(&map, &model) {
            let low_bit = ev.value.magnitude().trailing_zeros();
            assert_eq!(map.symbol_of_bit(low_bit), ev.symbol);
        }
    }

    #[test]
    fn histogram_sums_to_positive_count() {
        let map = SymbolMap::sequential(80, 4).unwrap();
        let model = ErrorModel::symbol(Direction::Bidirectional);
        let hist = positive_value_histogram(&map, &model);
        let total: u32 = hist.iter().sum();
        assert_eq!(total, 20 * 15); // positive half of 20×30
    }
}
