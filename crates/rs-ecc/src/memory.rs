//! The memory-channel (bit-level) view of a Reed-Solomon code.

use muse_wideint::U320;

use crate::{RsCode, RsDecoded, RsError};

/// Bit-level codeword carrier, shared with the MUSE crates.
pub type Word = U320;

/// A Reed-Solomon code mapped onto an `n_bits`-wide memory channel.
///
/// The channel is carved into `s`-bit symbols starting at bit 0; when `s`
/// does not divide `n_bits`, the top symbol is partial (its unused high bits
/// are fixed at zero — a *shortened* code). Parity symbols occupy the low
/// `2t·s` bits, data the rest, so `data_bits = n_bits − 2t·s`.
///
/// # Examples
///
/// ```
/// use muse_rs::RsMemoryCode;
/// use muse_wideint::U320;
///
/// # fn main() -> Result<(), muse_rs::RsError> {
/// // The paper's RS(144,128) ChipKill baseline: 8-bit symbols, t = 1.
/// let rs = RsMemoryCode::new(8, 144, 1)?;
/// assert_eq!(rs.data_bits(), 128);
///
/// let payload = U320::from(0xFEED_F00D_u64);
/// let mut cw = rs.encode(&payload);
/// cw = cw ^ (U320::from(0xFFu64) << 40); // one full symbol fails
/// assert_eq!(rs.decode(&cw).payload(), Some(payload));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RsMemoryCode {
    rs: RsCode,
    symbol_bits: u32,
    n_bits: u32,
    data_bits: u32,
    top_symbol_bits: u32,
    /// The incremental-syndrome table, in the log domain:
    /// `log α^(l·p) = l·p mod (2^s − 1)` for symbol position `p` and
    /// syndrome index `l ∈ [0, 2t)`, flattened as
    /// `err_pow_logs[p · 2t + l]`. Because the code is linear, the
    /// syndromes of a corrupted codeword equal the syndromes of its error
    /// pattern alone, `S_l = Σ_p e_p · α^(l·p)` — and with the powers'
    /// logs precomputed, each term is a single antilog lookup
    /// (`S_l ^= α^(err_pow_logs[...] + log e_p)`) instead of a full
    /// table multiply.
    err_pow_logs: Vec<u16>,
}

/// Outcome of bit-level RS decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsMemoryDecoded {
    /// No error observed.
    Clean {
        /// The recovered payload.
        payload: Word,
    },
    /// Symbol errors corrected.
    Corrected {
        /// The recovered payload.
        payload: Word,
        /// `(symbol index, error value)` pairs.
        errors: Vec<(usize, u16)>,
    },
    /// Detected-but-uncorrectable error.
    Detected,
}

impl RsMemoryDecoded {
    /// The payload, if the word was clean or corrected.
    pub fn payload(&self) -> Option<Word> {
        match self {
            Self::Clean { payload } | Self::Corrected { payload, .. } => Some(*payload),
            Self::Detected => None,
        }
    }
}

impl RsMemoryCode {
    /// Builds the channel code: `s`-bit symbols over an `n_bits` channel,
    /// correcting up to `t` symbols.
    ///
    /// # Errors
    ///
    /// Propagates [`RsError`] for unsupported geometries.
    pub fn new(symbol_bits: u32, n_bits: u32, t: usize) -> Result<Self, RsError> {
        let n_sym = n_bits.div_ceil(symbol_bits) as usize;
        let k_sym = n_sym - 2 * t;
        let rs = RsCode::new(symbol_bits, n_sym, k_sym)?;
        let rem = n_bits % symbol_bits;
        let gf = rs.field();
        let err_pow_logs = (0..n_sym)
            .flat_map(|p| (0..2 * t).map(move |l| (p, l)))
            .map(|(p, l)| {
                let pow = gf.alpha_pow((l * p) as i64);
                gf.log(pow).expect("powers of α are nonzero") as u16
            })
            .collect();
        Ok(Self {
            rs,
            symbol_bits,
            n_bits,
            data_bits: n_bits - 2 * t as u32 * symbol_bits,
            top_symbol_bits: if rem == 0 { symbol_bits } else { rem },
            err_pow_logs,
        })
    }

    /// Channel width in bits.
    pub fn n_bits(&self) -> u32 {
        self.n_bits
    }

    /// Payload width in bits.
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Redundancy in bits (`2t·s`).
    pub fn parity_bits(&self) -> u32 {
        self.n_bits - self.data_bits
    }

    /// Symbol width in bits.
    pub fn symbol_bits(&self) -> u32 {
        self.symbol_bits
    }

    /// Number of symbols on the channel (including a partial top symbol).
    pub fn n_symbols(&self) -> usize {
        self.rs.n_symbols()
    }

    /// Width of the top symbol (less than `symbol_bits` for shortened fits).
    pub fn top_symbol_bits(&self) -> u32 {
        self.top_symbol_bits
    }

    /// The symbol-domain code underneath.
    pub fn inner(&self) -> &RsCode {
        &self.rs
    }

    /// `RS(n,k)` display name in bits, e.g. `RS(144,128)`.
    pub fn name(&self) -> String {
        format!("RS({},{})", self.n_bits, self.data_bits)
    }

    /// Splits a channel word into symbol values.
    pub fn to_symbols(&self, word: &Word) -> Vec<u16> {
        (0..self.rs.n_symbols())
            .map(|i| {
                let lo = i as u32 * self.symbol_bits;
                let width = self.width_of(i);
                ((*word >> lo) & Word::mask(width))
                    .to_u64()
                    .expect("symbol fits") as u16
            })
            .collect()
    }

    /// Packs symbol values back into a channel word.
    ///
    /// # Panics
    ///
    /// Panics if a symbol exceeds its slot width.
    pub fn from_symbols(&self, symbols: &[u16]) -> Word {
        assert_eq!(symbols.len(), self.rs.n_symbols());
        let mut word = Word::ZERO;
        for (i, &s) in symbols.iter().enumerate() {
            let width = self.width_of(i);
            assert!(
                (s as u64) < (1u64 << width),
                "symbol {i} value {s:#x} exceeds {width} bits"
            );
            word = word | (Word::from(s as u64) << (i as u32 * self.symbol_bits));
        }
        word
    }

    fn width_of(&self, i: usize) -> u32 {
        if i + 1 == self.rs.n_symbols() {
            self.top_symbol_bits
        } else {
            self.symbol_bits
        }
    }

    /// Encodes a payload of `data_bits` into an `n_bits` codeword.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `data_bits`.
    pub fn encode(&self, payload: &Word) -> Word {
        assert!(
            payload.bit_len() <= self.data_bits,
            "payload wider than the {}-bit data field",
            self.data_bits
        );
        let r = 2 * self.rs.t();
        // Scatter payload bits into the data symbol slots.
        let mut data = vec![0u16; self.rs.k_symbols()];
        let mut consumed = 0u32;
        for (i, slot) in data.iter_mut().enumerate() {
            let width = self.width_of(i + r);
            *slot = ((*payload >> consumed) & Word::mask(width))
                .to_u64()
                .expect("symbol fits") as u16;
            consumed += width;
        }
        debug_assert_eq!(consumed, self.data_bits);
        let cw = self.rs.encode(&data);
        self.from_symbols(&cw)
    }

    /// Extracts the payload of a codeword assumed error-free.
    pub fn payload_of(&self, codeword: &Word) -> Word {
        let r = 2 * self.rs.t();
        let symbols = self.to_symbols(codeword);
        let mut payload = Word::ZERO;
        let mut placed = 0u32;
        for (i, &s) in symbols.iter().enumerate().skip(r) {
            payload = payload | (Word::from(s as u64) << placed);
            placed += self.width_of(i);
        }
        payload
    }

    /// Incremental error-domain syndromes: the `2t` syndromes of any
    /// codeword corrupted by exactly `errors` (`(symbol, xor-value)` pairs,
    /// zero values allowed), computed from the `α^(l·p)` table without
    /// materializing — or even knowing — the codeword. Unused entries of
    /// the returned array stay zero.
    ///
    /// Linear-code identity: `syndromes(cw ⊕ e) = syndromes(e)` since
    /// `syndromes(cw) = 0`; cross-checked against
    /// [`RsCode::syndromes`](crate::RsCode::syndromes) by property tests.
    #[inline]
    pub fn error_syndromes(&self, errors: &[(usize, u16)]) -> [u16; 4] {
        let gf = self.rs.field();
        let r = 2 * self.rs.t();
        let mut synd = [0u16; 4];
        for &(sym, value) in errors {
            if value == 0 {
                continue;
            }
            let lv = gf.log(value).expect("nonzero value");
            let logs = &self.err_pow_logs[sym * r..(sym + 1) * r];
            for (s, &lp) in synd[..r].iter_mut().zip(logs) {
                *s ^= gf.exp_sum(lv, lp as u32);
            }
        }
        synd
    }

    /// Decodes a channel word, correcting up to `t` symbol errors.
    ///
    /// A correction that sets bits beyond the partial top symbol's width is
    /// impossible in a shortened code and is reported as `Detected`.
    pub fn decode(&self, codeword: &Word) -> RsMemoryDecoded {
        let symbols = self.to_symbols(codeword);
        match self.rs.decode(&symbols) {
            RsDecoded::Clean { .. } => RsMemoryDecoded::Clean {
                payload: self.payload_of(codeword),
            },
            RsDecoded::Detected => RsMemoryDecoded::Detected,
            RsDecoded::Corrected { data, errors } => {
                // Shortened-code check: the top symbol may only hold
                // top_symbol_bits; corrections outside that range reveal a
                // multi-symbol error.
                let top = self.rs.n_symbols() - 1;
                for &(pos, val) in &errors {
                    let fixed = symbols[pos] ^ val;
                    if pos == top && (fixed as u64) >= (1u64 << self.top_symbol_bits) {
                        return RsMemoryDecoded::Detected;
                    }
                }
                let r = 2 * self.rs.t();
                let mut payload = Word::ZERO;
                let mut placed = 0u32;
                for (i, &s) in data.iter().enumerate() {
                    payload = payload | (Word::from(s as u64) << placed);
                    placed += self.width_of(i + r);
                }
                RsMemoryDecoded::Corrected { payload, errors }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        // Table IV row: RS over a 144-bit channel with s = 8, 7, 6, 5.
        for (s, data_bits, n_sym, top) in [
            (8u32, 128u32, 18usize, 8u32),
            (7, 130, 21, 4),
            (6, 132, 24, 6),
            (5, 134, 29, 4),
        ] {
            let rs = RsMemoryCode::new(s, 144, 1).unwrap();
            assert_eq!(rs.data_bits(), data_bits, "s={s}");
            assert_eq!(rs.n_symbols(), n_sym, "s={s}");
            assert_eq!(rs.top_symbol_bits(), top, "s={s}");
        }
        // The paper's DDR5 baseline RS(80,64) with x8 symbols.
        let rs = RsMemoryCode::new(8, 80, 1).unwrap();
        assert_eq!(rs.data_bits(), 64);
        assert_eq!(rs.name(), "RS(80,64)");
    }

    #[test]
    fn encode_roundtrip_all_geometries() {
        for s in [5u32, 6, 7, 8] {
            let rs = RsMemoryCode::new(s, 144, 1).unwrap();
            let payload = Word::mask(rs.data_bits());
            let cw = rs.encode(&payload);
            assert!(cw.bit_len() <= 144);
            assert_eq!(rs.payload_of(&cw), payload);
            assert_eq!(rs.decode(&cw).payload(), Some(payload), "s={s}");
        }
    }

    #[test]
    fn symbol_pack_unpack() {
        let rs = RsMemoryCode::new(5, 144, 1).unwrap();
        let word = Word::mask(144);
        let symbols = rs.to_symbols(&word);
        assert_eq!(symbols.len(), 29);
        assert_eq!(symbols[28], 0xF); // 4-bit top symbol
        assert_eq!(rs.from_symbols(&symbols), word);
    }

    #[test]
    fn corrects_full_symbol_failures() {
        let rs = RsMemoryCode::new(8, 144, 1).unwrap();
        let payload = Word::from(0x0123_4567_89AB_CDEFu64) | (Word::from(0x55AAu64) << 64);
        let cw = rs.encode(&payload);
        for sym in 0..18u32 {
            let corrupted = cw ^ (Word::from(0xFFu64) << (8 * sym));
            match rs.decode(&corrupted) {
                RsMemoryDecoded::Corrected { payload: p, errors } => {
                    assert_eq!(p, payload, "sym {sym}");
                    assert_eq!(errors, vec![(sym as usize, 0xFF)]);
                }
                other => panic!("sym {sym}: {other:?}"),
            }
        }
    }

    #[test]
    fn partial_top_symbol_errors_correct() {
        let rs = RsMemoryCode::new(5, 144, 1).unwrap();
        let payload = Word::mask(134) ^ (Word::from(0b1010u64) << 90);
        let cw = rs.encode(&payload);
        // Corrupt bits inside the 4-bit top symbol (bits 140..144).
        let corrupted = cw ^ (Word::from(0b1001u64) << 140);
        assert_eq!(rs.decode(&corrupted).payload(), Some(payload));
    }

    #[test]
    fn nibble_misalignment_breaks_chipkill_for_5bit_symbols() {
        // Section VII-A: with 5-bit RS symbols over x4 devices, a single
        // device (nibble) failure can span two RS symbols and defeat
        // single-symbol correction. Find such a nibble and demonstrate.
        let rs = RsMemoryCode::new(5, 144, 1).unwrap();
        let payload = Word::from(0x1357_9BDF_2468_ACE0u64);
        let cw = rs.encode(&payload);
        // Device 1 holds bits 4..8: bit 4 is in symbol 0, bits 5..8 in symbol 1.
        let corrupted = cw ^ (Word::from(0xFu64) << 4);
        match rs.decode(&corrupted) {
            RsMemoryDecoded::Clean { .. } => panic!("spanning error read clean"),
            RsMemoryDecoded::Corrected { payload: p, .. } => {
                assert_ne!(p, payload, "chipkill would require the right payload back")
            }
            RsMemoryDecoded::Detected => {}
        }
    }

    #[test]
    fn t2_memory_code() {
        let rs = RsMemoryCode::new(8, 144, 2).unwrap();
        assert_eq!(rs.data_bits(), 112);
        let payload = Word::from(0xDEAD_BEEFu64);
        let cw = rs.encode(&payload);
        let corrupted = cw ^ (Word::from(0x3Cu64) << 16) ^ (Word::from(0xA5u64) << 96);
        assert_eq!(rs.decode(&corrupted).payload(), Some(payload));
    }

    #[test]
    #[should_panic(expected = "payload wider")]
    fn oversized_payload_panics() {
        let rs = RsMemoryCode::new(8, 80, 1).unwrap();
        let _ = rs.encode(&Word::mask(65));
    }

    #[test]
    fn error_syndromes_match_wide_syndromes() {
        // Linear-code identity: syndromes(cw ⊕ e) == error_syndromes(e),
        // for every geometry and random payloads/errors.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (s, t) in [(8u32, 1usize), (5, 1), (8, 2)] {
            let rs = RsMemoryCode::new(s, 144, t).unwrap();
            for _ in 0..200 {
                let payload =
                    (Word::from(next()) | (Word::from(next()) << 64)) & Word::mask(rs.data_bits());
                let cw = rs.encode(&payload);
                let mut symbols = rs.to_symbols(&cw);
                let k = 1 + (next() % 3) as usize;
                let mut errors = Vec::new();
                for _ in 0..k {
                    let sym = (next() % rs.n_symbols() as u64) as usize;
                    if errors.iter().any(|&(e, _)| e == sym) {
                        continue;
                    }
                    let width = if sym + 1 == rs.n_symbols() {
                        rs.top_symbol_bits()
                    } else {
                        rs.symbol_bits()
                    };
                    let value = (next() & ((1 << width) - 1)) as u16;
                    symbols[sym] ^= value;
                    errors.push((sym, value));
                }
                let corrupted = rs.from_symbols(&symbols);
                let wide = rs.inner().syndromes(&rs.to_symbols(&corrupted));
                let fast = rs.error_syndromes(&errors);
                assert_eq!(&fast[..2 * t], wide.as_slice(), "s={s} t={t}");
            }
        }
    }
}
