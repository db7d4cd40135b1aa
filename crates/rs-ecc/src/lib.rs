//! Reed-Solomon baseline codes (the paper's comparator in Tables IV & V and
//! Figures 6 & 7).
//!
//! Two layers are provided:
//!
//! * [`RsCode`] — a classic systematic Reed-Solomon code over GF(2^s) with
//!   `2t` parity symbols and a PGZ decoder correcting up to `t ∈ {1, 2}`
//!   symbol errors (single-symbol correction is what commercial ChipKill
//!   uses; `t = 2` covers IBM-style double-device tolerance).
//! * [`RsMemoryCode`] — the memory-channel view: an `n_bits`-wide codeword
//!   (e.g. 144 or 80 bits) carved into `s`-bit symbols, with a possibly
//!   partial top symbol when `s ∤ n_bits` (exactly the misalignment the
//!   paper exploits to show 5/6/7-bit-symbol RS codes lose ChipKill).
//!
//! For Monte-Carlo hot loops, [`RsMemoryCode::error_syndromes`] and
//! [`RsCode::locate_errors_fixed`] run the whole decode decision for both
//! `t` values in the error-value domain (GF syndromes of the corruption alone, one
//! table multiply per touched symbol) without materializing a codeword;
//! [`RsCode::decode_combined_ctx`] adds Forney-style combined
//! error-and-erasure decoding (`ν` erasures + `e` errors, `2e + ν ≤ 2t`)
//! for degraded (known-failed-chip) operation, in closed form against the
//! per-erased-set constants of [`RsCode::combined_context`], and [`RsClassifier`]
//! packages it all as the one RS read classifier: the workspace's unified
//! `muse_core::Classifier` backend for the fleet, and
//! [`RsClassifier::read_healthy`] for MSED trials.

#![deny(missing_docs)]

mod classifier;
mod memory;
mod rs;

pub use classifier::{RsClassifier, RsContext};
pub use memory::{RsMemoryCode, RsMemoryDecoded};
pub use rs::{CombinedContext, RsCode, RsCorrections, RsDecoded, RsError};
