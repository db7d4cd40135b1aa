//! Multiplier search (paper Algorithm 1).
//!
//! A multiplier `m` is valid for a code layout when the mapping
//! `error value ↦ error value mod m` is injective over the layout's distinct
//! error values and never yields zero. The search enumerates all odd `p`-bit
//! candidates `m ∈ [2^(p−1)+1, 2^p−1]` and returns those that qualify.

use std::fmt;

use crate::errval::Pow2Residues;
use crate::{enumerate_error_values, ErrorModel, ErrorValue, SymbolMap};

/// Why a candidate multiplier was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiplierRejection {
    /// Some error value is divisible by the multiplier, so it would be
    /// indistinguishable from the no-error case.
    ZeroRemainder {
        /// Index (in enumeration order) of the offending error value.
        value_index: usize,
    },
    /// Two distinct error values share a remainder.
    Collision {
        /// Enumeration index of the first colliding value.
        first: usize,
        /// Enumeration index of the second colliding value.
        second: usize,
    },
}

impl fmt::Display for MultiplierRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroRemainder { value_index } => {
                write!(f, "error value #{value_index} has remainder zero")
            }
            Self::Collision { first, second } => {
                write!(f, "error values #{first} and #{second} share a remainder")
            }
        }
    }
}

impl std::error::Error for MultiplierRejection {}

/// Generation-stamped remainder-ownership scratch, reused across the
/// thousands of candidates a search checks: no per-candidate allocation and
/// no O(m) refill — beginning a new candidate just bumps a generation
/// counter.
#[derive(Debug, Clone, Default)]
struct StampedOwner {
    owner: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
}

impl StampedOwner {
    /// Prepares for a candidate with modulus `m`.
    fn begin(&mut self, m: u64) {
        let m = m as usize;
        if self.owner.len() < m {
            self.owner.resize(m, 0);
            self.stamp.resize(m, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrap-around: old stamps could alias; clear once per 2^32.
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Claims `rem` for value `idx`; returns the previous claimant of this
    /// candidate, if any.
    #[inline]
    fn claim(&mut self, rem: usize, idx: u32) -> Option<u32> {
        if self.stamp[rem] == self.generation {
            return Some(self.owner[rem]);
        }
        self.stamp[rem] = self.generation;
        self.owner[rem] = idx;
        None
    }
}

/// Reusable multiplier validator: owns the remainder scratch and the
/// `2^i mod m` table, so checking many candidates against the same (or
/// different) value lists allocates nothing after the first call.
///
/// # Examples
///
/// ```
/// use muse_core::{
///     enumerate_error_values, Direction, ErrorModel, MultiplierValidator, SymbolMap,
/// };
///
/// # fn main() -> Result<(), muse_core::SymbolMapError> {
/// let map = SymbolMap::sequential(80, 4)?;
/// let values = enumerate_error_values(&map, &ErrorModel::symbol(Direction::Bidirectional));
/// let mut validator = MultiplierValidator::new();
/// let valid: Vec<u64> = (1025..2048u64)
///     .step_by(2)
///     .filter(|&m| validator.validate(&values, m).is_ok())
///     .collect();
/// assert_eq!(valid, vec![1491, 1721, 1763, 1833, 1875, 1899, 1955, 2005]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultiplierValidator {
    scratch: StampedOwner,
    pow: Pow2Residues,
}

impl MultiplierValidator {
    /// An empty validator (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks one multiplier against a pre-enumerated error-value list.
    /// Each value's remainder is the signed sum of its set bits' `2^i mod
    /// m`, the reduction [`ErrorLookup::from_values`](crate::ErrorLookup::from_values)
    /// also uses.
    ///
    /// # Errors
    ///
    /// Returns the first [`MultiplierRejection`] encountered.
    ///
    /// # Panics
    ///
    /// Panics if `m` is 0 or above `2^63`.
    pub fn validate(&mut self, values: &[ErrorValue], m: u64) -> Result<(), MultiplierRejection> {
        self.pow.reset(m);
        self.scratch.begin(m);
        for (idx, ev) in values.iter().enumerate() {
            let rem = self.pow.residue(&ev.value);
            if rem == 0 {
                return Err(MultiplierRejection::ZeroRemainder { value_index: idx });
            }
            if let Some(first) = self.scratch.claim(rem as usize, idx as u32) {
                return Err(MultiplierRejection::Collision {
                    first: first as usize,
                    second: idx,
                });
            }
        }
        Ok(())
    }
}

/// Checks a single multiplier against a pre-enumerated error-value list.
///
/// For repeated checks, hold a [`MultiplierValidator`] instead — this
/// convenience wrapper sets up fresh scratch per call.
///
/// # Errors
///
/// Returns the first [`MultiplierRejection`] encountered.
pub fn validate_multiplier_over(values: &[ErrorValue], m: u64) -> Result<(), MultiplierRejection> {
    MultiplierValidator::new().validate(values, m)
}

/// Checks whether `m` is a valid multiplier for the layout.
///
/// # Errors
///
/// Returns the first [`MultiplierRejection`] encountered.
///
/// # Examples
///
/// ```
/// use muse_core::{validate_multiplier, Direction, ErrorModel, SymbolMap};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let map = SymbolMap::sequential(144, 4)?;
/// let model = ErrorModel::symbol(Direction::Bidirectional);
/// // Table I: m = 4065 defines MUSE(144,132).
/// validate_multiplier(&map, &model, 4065)?;
/// // ...but m = 4067 does not qualify.
/// assert!(validate_multiplier(&map, &model, 4067).is_err());
/// # Ok(())
/// # }
/// ```
pub fn validate_multiplier(
    map: &SymbolMap,
    model: &ErrorModel,
    m: u64,
) -> Result<(), MultiplierRejection> {
    validate_multiplier_over(&enumerate_error_values(map, model), m)
}

/// Options for [`find_multipliers`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchOptions {
    /// Worker threads (0 ⇒ one per available CPU).
    pub threads: usize,
    /// Stop after this many valid multipliers (0 ⇒ exhaustive).
    pub limit: usize,
}

/// Exhaustively searches the odd `p`-bit multipliers `[2^(p−1)+1, 2^p−1]`
/// for values that give every error value a unique nonzero remainder
/// (Algorithm 1).
///
/// Returns the valid multipliers in ascending order (possibly empty — e.g.
/// the paper notes MUSE(80,67) has *no* valid multiplier without shuffling).
///
/// # Panics
///
/// Panics if `p` is 0 or greater than 30 (the ELC would be impractical).
///
/// # Examples
///
/// ```
/// use muse_core::{find_multipliers, Direction, ErrorModel, SearchOptions, SymbolMap};
///
/// # fn main() -> Result<(), muse_core::SymbolMapError> {
/// // Appendix F: 80-bit codewords, 11-bit redundancy, 4-bit symbols
/// // yield exactly eight multipliers, the largest being 2005.
/// let map = SymbolMap::sequential(80, 4)?;
/// let model = ErrorModel::symbol(Direction::Bidirectional);
/// let found = find_multipliers(&map, &model, 11, SearchOptions::default());
/// assert_eq!(found.last(), Some(&2005));
/// # Ok(())
/// # }
/// ```
pub fn find_multipliers(
    map: &SymbolMap,
    model: &ErrorModel,
    p: u32,
    options: SearchOptions,
) -> Vec<u64> {
    assert!(
        p > 0 && p <= 30,
        "multiplier width {p} out of the practical range"
    );
    let values = enumerate_error_values(map, model);
    let lo = (1u64 << (p - 1)) + 1;
    let hi = (1u64 << p) - 1;
    let threads = if options.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        options.threads
    };

    let candidates: Vec<u64> = (lo..=hi).step_by(2).collect();
    let mut found: Vec<u64> = if threads <= 1 || candidates.len() < 64 {
        scan(&values, &candidates)
    } else {
        let chunk = candidates.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = candidates
                .chunks(chunk)
                .map(|part| scope.spawn(|| scan(&values, part)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("search worker panicked"))
                .collect()
        })
    };
    found.sort_unstable();
    if options.limit > 0 {
        found.truncate(options.limit);
    }
    found
}

fn scan(values: &[ErrorValue], candidates: &[u64]) -> Vec<u64> {
    let mut validator = MultiplierValidator::new();
    candidates
        .iter()
        .copied()
        .filter(|&m| validator.validate(values, m).is_ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;

    fn c4b(n: u32) -> (SymbolMap, ErrorModel) {
        (
            SymbolMap::sequential(n, 4).unwrap(),
            ErrorModel::symbol(Direction::Bidirectional),
        )
    }

    #[test]
    fn table1_multiplier_4065_is_valid() {
        let (map, model) = c4b(144);
        assert_eq!(validate_multiplier(&map, &model, 4065), Ok(()));
    }

    #[test]
    fn table1_multiplier_2005_is_valid() {
        let (map, model) = c4b(80);
        assert_eq!(validate_multiplier(&map, &model, 2005), Ok(()));
    }

    #[test]
    fn table1_multiplier_5621_is_valid_with_eq5_shuffle() {
        let map = SymbolMap::interleaved(80, 10).unwrap();
        let model = ErrorModel::symbol(Direction::OneToZero);
        assert_eq!(validate_multiplier(&map, &model, 5621), Ok(()));
    }

    #[test]
    fn table1_multiplier_821_is_valid_for_hybrid() {
        let map = SymbolMap::eq6_hybrid_80();
        let model = ErrorModel::hybrid_symbol_plus_single_bit();
        assert_eq!(validate_multiplier(&map, &model, 821), Ok(()));
    }

    #[test]
    fn appendix_f_80bit_11bit_list() {
        // Appendix F: exactly these eight multipliers for 80b / 11-bit / 4-bit.
        let (map, model) = c4b(80);
        let found = find_multipliers(&map, &model, 11, SearchOptions::default());
        assert_eq!(found, vec![1491, 1721, 1763, 1833, 1875, 1899, 1955, 2005]);
    }

    #[test]
    fn search_limit_and_single_thread() {
        let (map, model) = c4b(80);
        let opts = SearchOptions {
            threads: 1,
            limit: 3,
        };
        let found = find_multipliers(&map, &model, 11, opts);
        assert_eq!(found, vec![1491, 1721, 1763]);
    }

    #[test]
    fn muse_80_67_needs_shuffling() {
        // Paper Section IV: with sequential assignment of 8-bit symbols there
        // is no valid 13-bit multiplier; the Eq. 5 shuffle yields exactly 5621.
        let map = SymbolMap::sequential(80, 8).unwrap();
        let model = ErrorModel::symbol(Direction::OneToZero);
        assert!(find_multipliers(&map, &model, 13, SearchOptions::default()).is_empty());

        let shuffled = SymbolMap::interleaved(80, 10).unwrap();
        let found = find_multipliers(&shuffled, &model, 13, SearchOptions::default());
        assert_eq!(found, vec![5621]);
    }

    #[test]
    fn muse_80_70_needs_shuffling() {
        // Appendix G: MUSE(80,70) without shuffling finds no multiplier.
        let model = ErrorModel::hybrid_symbol_plus_single_bit();
        let sequential = SymbolMap::sequential(80, 4).unwrap();
        assert!(find_multipliers(&sequential, &model, 10, SearchOptions::default()).is_empty());

        let found = find_multipliers(
            &SymbolMap::eq6_hybrid_80(),
            &model,
            10,
            SearchOptions::default(),
        );
        assert_eq!(found, vec![821]);
    }

    #[test]
    fn rejection_reasons_are_reported() {
        use crate::{ErrorValue, ErrorValueInt};
        // Zero remainder: an error value divisible by m.
        let divisible = vec![ErrorValue {
            value: ErrorValueInt::from(3 * 1025),
            symbol: 0,
        }];
        assert_eq!(
            validate_multiplier_over(&divisible, 1025),
            Err(MultiplierRejection::ZeroRemainder { value_index: 0 })
        );
        // Collision: two values congruent mod m.
        let colliding = vec![
            ErrorValue {
                value: ErrorValueInt::from(7),
                symbol: 0,
            },
            ErrorValue {
                value: ErrorValueInt::from(7 + 1025),
                symbol: 1,
            },
        ];
        assert_eq!(
            validate_multiplier_over(&colliding, 1025),
            Err(MultiplierRejection::Collision {
                first: 0,
                second: 1
            })
        );
        // A negative value collides with its positive complement image.
        let signed = vec![
            ErrorValue {
                value: ErrorValueInt::from(-3),
                symbol: 0,
            },
            ErrorValue {
                value: ErrorValueInt::from(1022),
                symbol: 1,
            },
        ];
        assert_eq!(
            validate_multiplier_over(&signed, 1025),
            Err(MultiplierRejection::Collision {
                first: 0,
                second: 1
            })
        );
        // For an all-positive-power layout, odd multipliers can never hit a
        // zero remainder (values are Δ·2^i with Δ < m), only collisions:
        let (map, model) = c4b(80);
        let values = enumerate_error_values(&map, &model);
        for m in (1025u64..2048).step_by(2) {
            if let Err(rejection) = validate_multiplier_over(&values, m) {
                assert!(
                    matches!(rejection, MultiplierRejection::Collision { .. }),
                    "m={m}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (map, model) = c4b(80);
        let serial = find_multipliers(
            &map,
            &model,
            11,
            SearchOptions {
                threads: 1,
                limit: 0,
            },
        );
        let parallel = find_multipliers(
            &map,
            &model,
            11,
            SearchOptions {
                threads: 4,
                limit: 0,
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "out of the practical range")]
    fn rejects_huge_widths() {
        let (map, model) = c4b(80);
        let _ = find_multipliers(&map, &model, 31, SearchOptions::default());
    }
}
