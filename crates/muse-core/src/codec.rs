//! The MUSE code itself: systematic encoder and correcting decoder
//! (paper Sections II, III and V).
//!
//! Encoding uses Chien's systematic construction (Eq. 4): the payload is
//! shifted left by `r` bits and a check value `X = (m − (payload·2^r mod m))
//! mod m` is attached so the codeword is divisible by `m`. Decoding computes
//! the remainder; a nonzero remainder is looked up in the
//! [`ErrorLookup`](crate::ErrorLookup) and the matched error value is
//! subtracted. Corrections that ripple outside the matched symbol — or
//! remainders with no ELC entry — flag a detected-but-uncorrectable
//! multi-symbol error (Figure 4).

use std::fmt;

use crate::errval::ShapedValues;
use crate::{
    ErrorLookup, ErrorModel, ErrorValueInt, FastMod, FastModError, MultiplierRejection, SymbolMap,
    SyndromeKernel, Word,
};

/// Error constructing a [`MuseCode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The multiplier does not give unique nonzero remainders.
    InvalidMultiplier(MultiplierRejection),
    /// The redundancy (bit width of `m`) leaves no room for data.
    RedundancyTooLarge {
        /// Codeword width.
        n_bits: u32,
        /// Bit width of the multiplier.
        redundancy: u32,
    },
    /// No exact fast-modulo constants exist for this multiplier/width.
    FastMod(FastModError),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidMultiplier(r) => write!(f, "invalid multiplier: {r}"),
            Self::RedundancyTooLarge { n_bits, redundancy } => {
                write!(
                    f,
                    "redundancy {redundancy} leaves no data bits in {n_bits}-bit codeword"
                )
            }
            Self::FastMod(e) => write!(f, "fast-modulo derivation failed: {e}"),
        }
    }
}

impl std::error::Error for CodeError {}

impl From<MultiplierRejection> for CodeError {
    fn from(r: MultiplierRejection) -> Self {
        Self::InvalidMultiplier(r)
    }
}

impl From<FastModError> for CodeError {
    fn from(e: FastModError) -> Self {
        Self::FastMod(e)
    }
}

/// Outcome of decoding one codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// Remainder was zero: the payload is read out directly (zero added
    /// latency — the systematic fast path).
    Clean {
        /// The recovered `k`-bit payload.
        payload: Word,
    },
    /// A correctable error was found and removed.
    Corrected {
        /// The recovered `k`-bit payload.
        payload: Word,
        /// Symbol (device) the error was confined to.
        symbol: usize,
        /// The error value that was subtracted.
        error: ErrorValueInt,
    },
    /// A detected-but-uncorrectable (multi-symbol) error.
    Detected,
}

impl Decoded {
    /// The payload, if the word was clean or corrected.
    pub fn payload(&self) -> Option<Word> {
        match self {
            Self::Clean { payload } | Self::Corrected { payload, .. } => Some(*payload),
            Self::Detected => None,
        }
    }

    /// Whether any error (corrected or not) was observed.
    pub fn saw_error(&self) -> bool {
        !matches!(self, Self::Clean { .. })
    }
}

/// A fully constructed MUSE code: layout + validated multiplier + ELC +
/// fast-modulo constants.
///
/// # Examples
///
/// ```
/// use muse_core::presets;
/// use muse_wideint::U320;
///
/// let code = presets::muse_80_69();
/// let payload = U320::from(0xDEAD_BEEF_1234u64);
/// let cw = code.encode(&payload);
///
/// // Corrupt all four bits of device 7 (a chip failure):
/// let corrupted = cw ^ *code.symbol_map().mask(7);
/// let decoded = code.decode(&corrupted);
/// assert_eq!(decoded.payload(), Some(payload));
/// ```
#[derive(Debug, Clone)]
pub struct MuseCode {
    name: String,
    n_bits: u32,
    k_bits: u32,
    r_bits: u32,
    m: u64,
    map: SymbolMap,
    model: ErrorModel,
    elc: ErrorLookup,
    fastmod: FastMod,
    kernel: Option<SyndromeKernel>,
}

impl MuseCode {
    /// Builds and validates a code from a layout and multiplier.
    ///
    /// The redundancy is `r = ⌈log2 m⌉` bits and the payload width is
    /// `k = n − r`.
    ///
    /// # Errors
    ///
    /// Fails if the multiplier is invalid for the layout, leaves no data
    /// bits, or admits no exact fast-modulo constants.
    ///
    /// # Examples
    ///
    /// Build the paper's MUSE(144,132) from first principles:
    ///
    /// ```
    /// use muse_core::{Direction, ErrorModel, MuseCode, SymbolMap};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let map = SymbolMap::sequential(144, 4)?; // 36 x4 devices
    /// let code = MuseCode::new(map, ErrorModel::symbol(Direction::Bidirectional), 4065)?;
    /// assert_eq!(code.name(), "MUSE(144,132)");
    /// assert_eq!((code.k_bits(), code.r_bits()), (132, 12));
    /// assert!(code.kernel().is_some(), "hot-path kernel precomputed");
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(map: SymbolMap, model: ErrorModel, m: u64) -> Result<Self, CodeError> {
        let n_bits = map.n_bits();
        let r_bits = 64 - m.leading_zeros();
        if r_bits >= n_bits {
            return Err(CodeError::RedundancyTooLarge {
                n_bits,
                redundancy: r_bits,
            });
        }
        let shaped = ShapedValues::new(&map, &model);
        let elc = ErrorLookup::from_values(&shaped.absolute(), m)?;
        let fastmod = FastMod::minimal(m, n_bits)?;
        let kernel = SyndromeKernel::supports(&map, m)
            .then(|| SyndromeKernel::build(&map, &shaped, m, r_bits));
        let k_bits = n_bits - r_bits;
        let name = format!("MUSE({n_bits},{k_bits})");
        Ok(Self {
            name,
            n_bits,
            k_bits,
            r_bits,
            m,
            map,
            model,
            elc,
            fastmod,
            kernel,
        })
    }

    /// `MUSE(n,k)` display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Codeword length `n` in bits.
    pub fn n_bits(&self) -> u32 {
        self.n_bits
    }

    /// Payload length `k` in bits.
    pub fn k_bits(&self) -> u32 {
        self.k_bits
    }

    /// Redundancy `r = n − k` in bits.
    pub fn r_bits(&self) -> u32 {
        self.r_bits
    }

    /// The code multiplier `m`.
    pub fn multiplier(&self) -> u64 {
        self.m
    }

    /// Payload bits beyond the protected 64-bit data words — the "saved
    /// bits" available for metadata (Section VI). A 69-bit payload holds
    /// one 64-bit word + 5 spares; a 132-bit payload holds two words + 4.
    pub fn spare_bits(&self) -> u32 {
        self.k_bits - (self.k_bits / 64) * 64
    }

    /// The bit-to-symbol assignment.
    pub fn symbol_map(&self) -> &SymbolMap {
        &self.map
    }

    /// The covered error model.
    pub fn error_model(&self) -> &ErrorModel {
        &self.model
    }

    /// The error lookup table.
    pub fn elc(&self) -> &ErrorLookup {
        &self.elc
    }

    /// The incremental residue-syndrome kernel precomputed for this code
    /// (per-symbol residue tables + fast ELC transitions). This is the
    /// simulators' hot path: see [`SyndromeKernel`].
    ///
    /// `None` when the layout is outside the kernel's tabulation limits
    /// ([`SyndromeKernel::supports`]); such codes still encode and decode
    /// through the wide path, and the simulators fall back to wide-word
    /// trials.
    pub fn kernel(&self) -> Option<&SyndromeKernel> {
        self.kernel.as_ref()
    }

    /// Drops the precomputed kernel, forcing the simulators onto their
    /// wide-word fallback path.
    ///
    /// A test/benchmark hook (used to exercise and time the fallback); not
    /// useful in production.
    #[doc(hidden)]
    pub fn disable_syndrome_kernel(&mut self) {
        self.kernel = None;
    }

    /// The PST classification name, e.g. `C4B` (Section IV).
    pub fn class_name(&self) -> String {
        let bits = self.map.bits_of(0).len() as u32;
        self.model.name(bits)
    }

    /// Encodes a `k`-bit payload into an `n`-bit codeword divisible by `m`.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `k` bits.
    pub fn encode(&self, payload: &Word) -> Word {
        assert!(
            payload.bit_len() <= self.k_bits,
            "payload wider than the {}-bit data field",
            self.k_bits
        );
        let shifted = *payload << self.r_bits;
        let rem = self.fastmod.rem(&shifted);
        let check = if rem == 0 { 0 } else { self.m - rem };
        shifted | Word::from(check)
    }

    /// Computes the codeword remainder mod `m` (the decoder's syndrome).
    pub fn remainder(&self, codeword: &Word) -> u64 {
        self.fastmod.rem(codeword)
    }

    /// Decodes a (possibly corrupted) codeword.
    pub fn decode(&self, codeword: &Word) -> Decoded {
        let rem = self.remainder(codeword);
        if rem == 0 {
            return Decoded::Clean {
                payload: *codeword >> self.r_bits,
            };
        }
        let Some(entry) = self.elc.lookup(rem) else {
            return Decoded::Detected; // no matching remainder (Fig. 4, method 1)
        };
        let corrected = entry.error.unapply_from(codeword);
        // Overflow/underflow detection (Fig. 4, method 2): the correction
        // must only change bits inside the matched symbol and must not
        // escape the n-bit codeword.
        if corrected.bit_len() > self.n_bits {
            return Decoded::Detected;
        }
        let diff = corrected ^ *codeword;
        if !(diff & !*self.map.mask(entry.symbol)).is_zero() {
            return Decoded::Detected;
        }
        Decoded::Corrected {
            payload: corrected >> self.r_bits,
            symbol: entry.symbol,
            error: entry.error,
        }
    }

    /// Extracts the payload of a codeword assumed error-free.
    pub fn payload_of(&self, codeword: &Word) -> Word {
        *codeword >> self.r_bits
    }

    /// Erasure decoding: recovers the payload when the listed symbols
    /// (devices) are *known* to be unreliable — the permanent chip-failure
    /// case, e.g. "two consecutive device-failures" on a DDR5 DIMM.
    ///
    /// The erased symbols' bits are treated as unknown and solved for the
    /// unique filling that makes the codeword divisible by `m`. Returns
    /// `None` when no filling (or more than one) restores divisibility.
    ///
    /// For contiguous symbol maps any *pair* of erased symbols is uniquely
    /// recoverable whenever the spanned width `w` satisfies `2^w − 1 < m·2^v`
    /// for the pair's bit offset `v` — in particular MUSE(80,69) recovers
    /// any two adjacent x4 devices (the paper's Section IV claim).
    ///
    /// # Panics
    ///
    /// Panics if more than 16 total bits are erased (the search space is
    /// enumerated) or a symbol index is out of range.
    pub fn recover_erasures(&self, codeword: &Word, symbols: &[usize]) -> Option<Word> {
        let erased: Vec<u32> = symbols
            .iter()
            .flat_map(|&s| self.map.bits_of(s).iter().copied())
            .collect();
        assert!(erased.len() <= 16, "erasure search space too large");
        let mut base = *codeword;
        for &bit in &erased {
            base.set_bit(bit, false);
        }
        let mut solution = None;
        for filling in 0..(1u64 << erased.len()) {
            let mut candidate = base;
            for (i, &bit) in erased.iter().enumerate() {
                if filling >> i & 1 == 1 {
                    candidate.set_bit(bit, true);
                }
            }
            if self.fastmod.rem(&candidate) == 0 {
                if solution.is_some() {
                    return None; // ambiguous
                }
                solution = Some(candidate >> self.r_bits);
            }
        }
        solution
    }

    /// Packs a 64-bit data word and metadata into a payload
    /// (data in the low 64 bits, metadata above — Section VI-A).
    ///
    /// # Panics
    ///
    /// Panics if `k < 64` or the metadata exceeds the spare bits.
    pub fn pack_metadata(&self, data: u64, metadata: u64) -> Word {
        assert!(
            self.k_bits >= 64,
            "payload too narrow for a 64-bit data word"
        );
        assert!(
            metadata == 0 || 64 - metadata.leading_zeros() <= self.spare_bits(),
            "metadata wider than the {} spare bits",
            self.spare_bits()
        );
        Word::from(data) | (Word::from(metadata) << 64)
    }

    /// Splits a payload back into (data, metadata).
    pub fn unpack_metadata(&self, payload: &Word) -> (u64, u64) {
        let data = payload.to_limbs()[0];
        let meta = (*payload >> 64).to_u64().expect("metadata fits u64");
        (data, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, SymbolMap};

    fn code_80_69() -> MuseCode {
        MuseCode::new(
            SymbolMap::sequential(80, 4).unwrap(),
            ErrorModel::symbol(Direction::Bidirectional),
            2005,
        )
        .unwrap()
    }

    #[test]
    fn parameters() {
        let code = code_80_69();
        assert_eq!(code.name(), "MUSE(80,69)");
        assert_eq!(code.n_bits(), 80);
        assert_eq!(code.k_bits(), 69);
        assert_eq!(code.r_bits(), 11);
        assert_eq!(code.spare_bits(), 5);
        assert_eq!(code.class_name(), "C4B");
    }

    #[test]
    fn encode_is_divisible_and_systematic() {
        let code = code_80_69();
        let payload = Word::from(0x0123_4567_89AB_CDEFu64 >> 4);
        let cw = code.encode(&payload);
        assert_eq!(cw.rem_u64(2005), 0);
        assert_eq!(code.payload_of(&cw), payload);
        assert!(cw.bit_len() <= 80);
    }

    #[test]
    fn clean_decode() {
        let code = code_80_69();
        let payload = Word::from(42u64);
        match code.decode(&code.encode(&payload)) {
            Decoded::Clean { payload: p } => assert_eq!(p, payload),
            other => panic!("expected clean decode, got {other:?}"),
        }
    }

    #[test]
    fn corrects_every_single_device_error() {
        let code = code_80_69();
        let payload = Word::from(0xFEED_FACE_CAFEu64);
        let cw = code.encode(&payload);
        for sym in 0..code.symbol_map().num_symbols() {
            for pattern in 1u64..16 {
                let mut corrupted = cw;
                for (i, &bit) in code.symbol_map().bits_of(sym).iter().enumerate() {
                    if pattern >> i & 1 == 1 {
                        corrupted.toggle_bit(bit);
                    }
                }
                match code.decode(&corrupted) {
                    Decoded::Corrected {
                        payload: p, symbol, ..
                    } => {
                        assert_eq!(p, payload, "sym {sym} pattern {pattern:04b}");
                        assert_eq!(symbol, sym);
                    }
                    other => panic!("sym {sym} pattern {pattern:04b}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn payload_extremes_roundtrip() {
        let code = code_80_69();
        for payload in [Word::ZERO, Word::mask(69), Word::pow2(68)] {
            let cw = code.encode(&payload);
            assert_eq!(code.decode(&cw).payload(), Some(payload));
            // and still corrects under a full-device flip
            let corrupted = cw ^ *code.symbol_map().mask(3);
            assert_eq!(code.decode(&corrupted).payload(), Some(payload));
        }
    }

    #[test]
    #[should_panic(expected = "payload wider")]
    fn oversized_payload_panics() {
        let code = code_80_69();
        let _ = code.encode(&Word::mask(70));
    }

    #[test]
    fn saw_error_flags() {
        let code = code_80_69();
        let payload = Word::from(5u64);
        let cw = code.encode(&payload);
        assert!(!code.decode(&cw).saw_error());
        let mut bad = cw;
        bad.toggle_bit(3);
        assert!(code.decode(&bad).saw_error());
    }

    #[test]
    fn erasure_recovery_of_known_pairs() {
        let code = code_80_69();
        let payload = Word::from(0x0FAC_E0FFu64);
        let cw = code.encode(&payload);
        // Garbage in devices 4 and 5 (adjacent pair).
        let corrupted = cw ^ *code.symbol_map().mask(4) ^ *code.symbol_map().mask(5);
        assert_eq!(code.recover_erasures(&corrupted, &[4, 5]), Some(payload));
        // Single known-bad device also recovers.
        let corrupted = cw ^ *code.symbol_map().mask(9);
        assert_eq!(code.recover_erasures(&corrupted, &[9]), Some(payload));
        // No erasures: clean word passes, corrupted word fails.
        assert_eq!(code.recover_erasures(&cw, &[]), Some(payload));
    }

    #[test]
    #[should_panic(expected = "search space too large")]
    fn erasure_limit_enforced() {
        let code = code_80_69();
        let cw = code.encode(&Word::ZERO);
        let _ = code.recover_erasures(&cw, &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn metadata_pack_roundtrip() {
        let code = code_80_69();
        let payload = code.pack_metadata(0xDEAD_BEEF, 0b10110);
        let (data, meta) = code.unpack_metadata(&payload);
        assert_eq!(data, 0xDEAD_BEEF);
        assert_eq!(meta, 0b10110);
        // survives an error
        let cw = code.encode(&payload);
        let corrupted = cw ^ *code.symbol_map().mask(19);
        let recovered = code.decode(&corrupted).payload().unwrap();
        assert_eq!(code.unpack_metadata(&recovered), (0xDEAD_BEEF, 0b10110));
    }

    #[test]
    #[should_panic(expected = "metadata wider")]
    fn oversized_metadata_panics() {
        let code = code_80_69();
        let _ = code.pack_metadata(1, 0b100000); // 6 bits > 5 spare
    }

    #[test]
    fn invalid_multiplier_is_rejected() {
        let err = MuseCode::new(
            SymbolMap::sequential(80, 4).unwrap(),
            ErrorModel::symbol(Direction::Bidirectional),
            2007,
        );
        assert!(matches!(err, Err(CodeError::InvalidMultiplier(_))));
    }

    #[test]
    fn double_device_errors_never_silently_clean() {
        // Beyond-model errors must never decode as Clean; the vast majority
        // are flagged Detected (Table IV measures the exact rate).
        let code = code_80_69();
        let payload = Word::from(0x0F1E_2D3C_4B5Au64);
        let cw = code.encode(&payload);
        let mut detected = 0u32;
        let mut miscorrected = 0u32;
        let mut total = 0u32;
        for a in 0..code.symbol_map().num_symbols() {
            for b in a + 1..code.symbol_map().num_symbols() {
                // A fixed non-trivial corruption in each of two devices.
                let mut corrupted = cw;
                corrupted.toggle_bit(code.symbol_map().bits_of(a)[1]);
                corrupted.toggle_bit(code.symbol_map().bits_of(b)[2]);
                corrupted.toggle_bit(code.symbol_map().bits_of(b)[0]);
                total += 1;
                match code.decode(&corrupted) {
                    Decoded::Clean { .. } => panic!("double error decoded clean"),
                    Decoded::Detected => detected += 1,
                    Decoded::Corrected { payload: p, .. } => {
                        assert_ne!(p, payload, "a miscorrection cannot restore the payload");
                        miscorrected += 1;
                    }
                }
            }
        }
        assert_eq!(detected + miscorrected, total);
        assert!(
            detected * 2 > total,
            "most double-device errors are detected"
        );
    }
}
