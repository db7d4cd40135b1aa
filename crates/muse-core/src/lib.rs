//! MUSE ECC: residue codes adapted to modern memory systems.
//!
//! This crate implements the primary contribution of *"Revisiting Residue
//! Codes for Modern Memories"* (MICRO 2022): a family of storage ECCs that
//! offer ChipKill-class protection with fewer redundancy bits than
//! Reed-Solomon, freeing bits for security metadata.
//!
//! The pipeline mirrors the paper:
//!
//! 1. Choose a codeword length and a [`SymbolMap`] — the assignment of
//!    codeword bits to DRAM devices, possibly *shuffled* (Section III-B).
//! 2. Choose an [`ErrorModel`] — bidirectional or asymmetric symbol errors,
//!    optionally hybridized with single-bit errors (Sections III-A/C).
//! 3. Find a multiplier with [`find_multipliers`] (Algorithm 1), or use a
//!    published one from [`presets`].
//! 4. Build a [`MuseCode`] and use [`MuseCode::encode`] /
//!    [`MuseCode::decode`]; corrections are driven by the
//!    [`ErrorLookup`] circuit and remainders come from the division-free
//!    [`FastMod`] (Section V).
//!
//! # Examples
//!
//! ```
//! use muse_core::presets;
//! use muse_wideint::U320;
//!
//! // The paper's DDR5 ChipKill code: 69 payload bits in 80, m = 2005.
//! let code = presets::muse_80_69();
//!
//! // Store a 64-bit word plus a 4-bit memory tag in the spare bits.
//! let payload = code.pack_metadata(0x0123_4567_89AB_CDEF, 0b1010);
//! let stored = code.encode(&payload);
//!
//! // An entire x4 DRAM device fails:
//! let corrupted = stored ^ *code.symbol_map().mask(11);
//!
//! let recovered = code.decode(&corrupted).payload().expect("single-device errors correct");
//! assert_eq!(code.unpack_metadata(&recovered), (0x0123_4567_89AB_CDEF, 0b1010));
//! ```

#![deny(missing_docs)]

pub mod analysis;
mod builder;
mod classifier;
mod codec;
mod elc;
mod errval;
mod fastmod;
mod line;
mod model;
#[cfg(test)]
mod oracle;
pub mod presets;
mod search;
pub mod spec;
mod symbol;
mod syndrome;

pub use builder::{BuildError, CodeBuilder, Shuffle};
pub use classifier::{
    Bounded32, Classifier, Entropy, MuseClassifier, MuseContext, Strike, WordRead,
};
pub use codec::{CodeError, Decoded, MuseCode};
pub use elc::{CorrectionEntry, ErrorLookup};
pub use errval::{
    enumerate_error_values, positive_value_histogram, symbol_error_values, ErrorValue,
};
pub use fastmod::{FastMod, FastModError};
pub use line::{DecodedLine, LineCodec, LineCodecError, WORDS_PER_LINE};
pub use model::{Direction, ErrorModel, ErrorTerm};
pub use search::{
    find_multipliers, validate_multiplier, validate_multiplier_over, MultiplierRejection,
    MultiplierValidator, SearchOptions,
};
pub use spec::ParseSpecError;
pub use symbol::{SymbolMap, SymbolMapError};
pub use syndrome::{
    CombinedSolve, ErasureSolve, ErasureTable, FastDecode, ReadOutcome, SyndromeKernel,
};

/// The codeword carrier: 320 bits covers every code in the paper (the widest
/// is the 268-bit PIM codeword).
pub type Word = muse_wideint::U320;

/// Signed error values over the same width.
pub type ErrorValueInt = muse_wideint::I320;
