//! The Error Lookup Circuit (ELC, paper Section V-A).
//!
//! The ELC maps a nonzero remainder to the unique error value that produced
//! it, together with the owning symbol (used for the overflow/underflow
//! multi-symbol detection of Figure 4). In hardware this is a match-line
//! CAM; in software a dense table indexed by remainder.

use crate::errval::Pow2Residues;
#[cfg(test)]
use crate::{enumerate_error_values, ErrorModel, SymbolMap};
use crate::{ErrorValue, ErrorValueInt, MultiplierRejection};

/// One ELC entry: the error value to subtract and the symbol it is confined
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrectionEntry {
    /// The signed error value `e` with `corrupted = original + e`.
    pub error: ErrorValueInt,
    /// Index of the symbol the error is confined to.
    pub symbol: usize,
}

/// Dense remainder → correction lookup.
///
/// # Examples
///
/// ```
/// use muse_core::{enumerate_error_values, Direction, ErrorLookup, ErrorModel, SymbolMap};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let map = SymbolMap::sequential(144, 4)?;
/// let model = ErrorModel::symbol(Direction::Bidirectional);
/// let elc = ErrorLookup::from_values(&enumerate_error_values(&map, &model), 4065)?;
/// // Section V: the MUSE(144,132) ELC has 1080 entries.
/// assert_eq!(elc.len(), 1080);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct ErrorLookup {
    m: u64,
    table: Vec<Option<CorrectionEntry>>,
    entries: usize,
}

impl ErrorLookup {
    /// Builds the lookup from a pre-enumerated error-value list. Each
    /// value's remainder is the signed sum of its set bits' `2^i mod m`, the
    /// same reduction [`MultiplierValidator`](crate::MultiplierValidator)
    /// uses, so the two accept and reject alike.
    ///
    /// # Errors
    ///
    /// Returns a [`MultiplierRejection`] if `m` is not valid over `values`:
    /// the first value in list order with remainder zero or with a
    /// remainder an earlier value already holds.
    pub fn from_values(values: &[ErrorValue], m: u64) -> Result<Self, MultiplierRejection> {
        let pow = Pow2Residues::new(m);
        let mut table: Vec<Option<CorrectionEntry>> = vec![None; m as usize];
        let mut first_idx: Vec<u32> = vec![u32::MAX; m as usize];
        for (idx, ev) in values.iter().enumerate() {
            let rem = pow.residue(&ev.value);
            if rem == 0 {
                return Err(MultiplierRejection::ZeroRemainder { value_index: idx });
            }
            if table[rem as usize].is_some() {
                return Err(MultiplierRejection::Collision {
                    first: first_idx[rem as usize] as usize,
                    second: idx,
                });
            }
            table[rem as usize] = Some(CorrectionEntry {
                error: ev.value,
                symbol: ev.symbol,
            });
            first_idx[rem as usize] = idx as u32;
        }
        Ok(Self {
            m,
            table,
            entries: values.len(),
        })
    }

    /// The multiplier this lookup was built for.
    pub fn modulus(&self) -> u64 {
        self.m
    }

    /// Number of populated entries (= number of correctable error values).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the lookup has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Looks up the correction for a remainder, or `None` when the remainder
    /// corresponds to no correctable error (a detected multi-symbol error).
    ///
    /// # Panics
    ///
    /// Panics if `remainder >= m`.
    pub fn lookup(&self, remainder: u64) -> Option<&CorrectionEntry> {
        self.table[remainder as usize].as_ref()
    }

    /// Fraction of the remainder space `[1, m)` left unused — the headroom
    /// that powers detection method 1 of Figure 4.
    pub fn unused_remainder_fraction(&self) -> f64 {
        1.0 - self.entries as f64 / (self.m - 1) as f64
    }
}

#[cfg(test)]
impl ErrorLookup {
    /// Builds the lookup for multiplier `m`, validating injectivity in the
    /// process: [`enumerate_error_values`] (once per symbol shape) feeds
    /// [`Self::from_values`]. Test shorthand: [`MuseCode::new`](crate::MuseCode::new)
    /// keeps the shape-grouped values for its kernel and calls
    /// [`Self::from_values`] itself.
    ///
    /// # Errors
    ///
    /// Returns a [`MultiplierRejection`] if `m` is not a valid multiplier
    /// for the layout.
    pub(crate) fn build(
        map: &SymbolMap,
        model: &ErrorModel,
        m: u64,
    ) -> Result<Self, MultiplierRejection> {
        Self::from_values(&enumerate_error_values(map, model), m)
    }
}

/// The construction the shared residue routine replaced: each value reduced
/// by a wide division. Kept as the oracle the fast build must match,
/// rejections and their indices included.
#[cfg(test)]
impl ErrorLookup {
    pub(crate) fn from_values_wide(
        values: &[ErrorValue],
        m: u64,
    ) -> Result<Self, MultiplierRejection> {
        let mut table: Vec<Option<CorrectionEntry>> = vec![None; m as usize];
        let mut first_idx: Vec<u32> = vec![u32::MAX; m as usize];
        for (idx, ev) in values.iter().enumerate() {
            let rem = ev.value.rem_euclid_u64(m);
            if rem == 0 {
                return Err(MultiplierRejection::ZeroRemainder { value_index: idx });
            }
            if table[rem as usize].is_some() {
                return Err(MultiplierRejection::Collision {
                    first: first_idx[rem as usize] as usize,
                    second: idx,
                });
            }
            table[rem as usize] = Some(CorrectionEntry {
                error: ev.value,
                symbol: ev.symbol,
            });
            first_idx[rem as usize] = idx as u32;
        }
        Ok(Self {
            m,
            table,
            entries: values.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;

    fn build_144() -> ErrorLookup {
        let map = SymbolMap::sequential(144, 4).unwrap();
        let model = ErrorModel::symbol(Direction::Bidirectional);
        ErrorLookup::build(&map, &model, 4065).unwrap()
    }

    #[test]
    fn entry_count_matches_paper() {
        // Section V: "the error correction is built around ELC with 1080
        // entries" for MUSE(144,132).
        assert_eq!(build_144().len(), 1080);
        assert!(!build_144().is_empty());
    }

    #[test]
    fn zero_remainder_never_mapped() {
        let elc = build_144();
        assert!(elc.lookup(0).is_none());
    }

    #[test]
    fn every_error_value_roundtrips() {
        let map = SymbolMap::sequential(144, 4).unwrap();
        let model = ErrorModel::symbol(Direction::Bidirectional);
        let values = enumerate_error_values(&map, &model);
        let elc = ErrorLookup::from_values(&values, 4065).unwrap();
        for ev in &values {
            let rem = ev.value.rem_euclid_u64(4065);
            let entry = elc.lookup(rem).expect("every value has an entry");
            assert_eq!(entry.error, ev.value);
            assert_eq!(entry.symbol, ev.symbol);
        }
    }

    #[test]
    fn invalid_multiplier_rejected() {
        let map = SymbolMap::sequential(144, 4).unwrap();
        let model = ErrorModel::symbol(Direction::Bidirectional);
        assert!(ErrorLookup::build(&map, &model, 4067).is_err());
    }

    #[test]
    fn unused_fraction() {
        let elc = build_144();
        // 1080 of 4064 nonzero remainders in use.
        let expect = 1.0 - 1080.0 / 4064.0;
        assert!((elc.unused_remainder_fraction() - expect).abs() < 1e-12);
    }
}
