//! The Reed-Solomon implementation of the unified syndrome-domain
//! classification backend (`muse_core::Classifier`).
//!
//! Every RS word read in the workspace — a fleet read, healthy or
//! degraded, and every `muse-faultsim` MSED trial — ends in
//! [`RsClassifier`], in the error-value domain. Device strikes fold into
//! per-symbol error values (a device may straddle several symbols),
//! [`RsMemoryCode::error_syndromes`] accumulates the `2t` GF syndromes from
//! the `α^(l·p)` table, and one finish decides the read: error location
//! ([`RsCode::locate_errors_fixed`](crate::RsCode::locate_errors_fixed),
//! healthy) or the Forney-style combined decode
//! ([`RsCode::decode_combined_ctx`](crate::RsCode::decode_combined_ctx),
//! degraded: `ν` erasures + `e` errors, `2e + ν ≤ 2t`), then the
//! shortened-top range check, then the residual check. No codeword — and
//! no dead-chip content — is ever materialized: the erasure solve
//! compensates any value a dead chip emits, so the simulator does not
//! sample it.

use muse_core::{Classifier, Entropy, ReadOutcome, Strike, WordRead};

use crate::{CombinedContext, RsCorrections, RsMemoryCode};

/// The resolved RS decode context for one erased-device set.
#[derive(Debug, Clone)]
pub enum RsContext {
    /// Empty erased set: plain PGZ error location.
    Healthy,
    /// Degraded operation: the hoisted combined-decode constants for the
    /// erased RS symbol set (erasure locator `Γ(x)`, inverse syndrome
    /// Vandermonde, residual rows — see [`CombinedContext`]), so every
    /// degraded read decodes without re-deriving them.
    Degraded(CombinedContext),
}

/// Error-domain classification backend for a Reed-Solomon memory code
/// over `device_bits`-wide devices.
///
/// Any geometry classifies healthy reads: devices nested in a symbol or
/// straddling up to three (x8 devices on 5-bit symbols), whole or
/// shortened top symbols. Erasures are tracked per symbol, so
/// [`Classifier::resolve`] requires devices nested inside symbols.
///
/// # Examples
///
/// ```
/// use muse_core::{Classifier, Entropy, Strike, WordRead};
/// use muse_rs::{RsClassifier, RsMemoryCode};
///
/// struct Splitmix(u64);
/// impl Entropy for Splitmix {
///     fn next_u64(&mut self) -> u64 {
///         self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
///         let mut z = self.0;
///         z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
///         z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
///         z ^ (z >> 31)
///     }
/// }
///
/// # fn main() -> Result<(), muse_rs::RsError> {
/// let code = RsMemoryCode::new(8, 144, 2)?; // RS(144,112), t = 2
/// let mut backend = RsClassifier::new(&code, 4);
/// let mut entropy = Splitmix(1);
///
/// // Device 9 is dead (erased); a transient hits device 20: combined
/// // decoding corrects the transient UNDER the erasure (2e + ν = 3 ≤ 4).
/// let ctx = backend.resolve(&[9]).expect("within erasure capacity");
/// let read = backend.classify(&ctx, &[(20, Strike::Xor(0xB))], &mut entropy);
/// assert_eq!(read, WordRead::Correct);
/// # Ok(())
/// # }
/// ```
pub struct RsClassifier<'a> {
    code: &'a RsMemoryCode,
    device_bits: u32,
    symbol_bits: u32,
    /// Per-device `(first RS symbol, bit offset within it)`.
    splits: Vec<(usize, u32)>,
    /// `2t` — syndromes consumed / first data symbol.
    parity: usize,
    /// The current read's `(symbol, error value)` pairs, one per touched
    /// symbol; reserved for every symbol of the code.
    errors: Vec<(usize, u16)>,
    /// The corrections the current read's decoder applied, if it
    /// corrected.
    located: Option<RsCorrections>,
}

impl<'a> RsClassifier<'a> {
    /// Builds the backend for `device_bits`-wide devices laid over the
    /// channel from bit 0.
    ///
    /// # Panics
    ///
    /// Panics if `device_bits`-wide devices do not tile the code's
    /// `n_bits`-bit channel exactly (a remainder would be bits no device
    /// covers, so no strike could ever reach them).
    pub fn new(code: &'a RsMemoryCode, device_bits: u32) -> Self {
        assert!(
            device_bits > 0 && code.n_bits().is_multiple_of(device_bits),
            "{device_bits}-bit devices do not tile the {}-bit channel",
            code.n_bits()
        );
        let symbol_bits = code.symbol_bits();
        Self {
            code,
            device_bits,
            symbol_bits,
            splits: (0..code.n_bits() / device_bits)
                .map(|dev| {
                    let base = dev * device_bits;
                    ((base / symbol_bits) as usize, base % symbol_bits)
                })
                .collect(),
            parity: 2 * code.inner().t(),
            errors: Vec::with_capacity(code.n_symbols()),
            located: None,
        }
    }

    /// The code this backend classifies over.
    pub fn code(&self) -> &'a RsMemoryCode {
        self.code
    }

    /// The corrections the decoder applied on the last read: empty unless
    /// it ended corrected, rightly or wrongly — so a caller can judge a
    /// miscorrection by its shape.
    pub fn corrections(&self) -> &[(usize, u16)] {
        self.located.as_ref().map_or(&[], |c| c.corrections())
    }

    /// Classifies one healthy read struck by `(device, xor pattern)`
    /// strikes — the MSED entry point, mirroring
    /// `MuseClassifier::read_healthy`. The entropy is drawn only by the
    /// shortened-top range check, and the outcome (with its corrections)
    /// does not depend on the value drawn: a healthy read is a function of
    /// its strikes.
    #[inline]
    pub fn read_healthy<E: Entropy>(
        &mut self,
        entropy: &mut E,
        strikes: &[(usize, u16)],
    ) -> ReadOutcome {
        self.errors.clear();
        for &(dev, pattern) in strikes {
            self.fold(dev, pattern);
        }
        self.finish(&RsContext::Healthy, entropy)
    }

    /// Folds one device's XOR pattern into the read's per-symbol error
    /// values: a nested device lands in one symbol, a straddling one
    /// splits across the symbols it spans, and values XOR-merge per
    /// symbol.
    #[inline]
    fn fold(&mut self, dev: usize, pattern: u16) {
        let (mut sym, shift) = self.splits[dev];
        let mut bits = u32::from(pattern) << shift;
        while bits != 0 {
            let value = (bits & ((1 << self.symbol_bits) - 1)) as u16;
            if value != 0 {
                match self.errors.iter_mut().find(|e| e.0 == sym) {
                    Some(e) => e.1 ^= value,
                    None => self.errors.push((sym, value)),
                }
            }
            bits >>= self.symbol_bits;
            sym += 1;
        }
    }

    /// Ends the current read from its folded error values: syndromes,
    /// error location (healthy) or combined decoding (degraded), the
    /// shortened-top range check, then the residual check — the read is
    /// right iff the corrections cancel the injected errors on every data
    /// symbol (positions ≥ 2t).
    #[inline]
    fn finish<E: Entropy>(&mut self, ctx: &RsContext, entropy: &mut E) -> ReadOutcome {
        self.located = None;
        let errors = &self.errors[..];
        if errors.is_empty() {
            return ReadOutcome::CleanIntact;
        }
        let synd = self.code.error_syndromes(errors);
        let synd = &synd[..self.parity];
        let located = match ctx {
            RsContext::Healthy => {
                if synd.iter().all(|&s| s == 0) {
                    // Aliased to a valid codeword: the word reads as-is.
                    let moved = errors.iter().any(|&(p, v)| p >= self.parity && v != 0);
                    return if moved {
                        ReadOutcome::CleanCorrupted
                    } else {
                        ReadOutcome::CleanIntact
                    };
                }
                self.code.inner().locate_errors_fixed(synd)
            }
            RsContext::Degraded(combined) => self.code.inner().decode_combined_ctx(synd, combined),
        };
        let Some(located) = located else {
            return ReadOutcome::Detected;
        };
        let corrections = located.corrections();
        let injected_at = |pos: usize| errors.iter().find(|e| e.0 == pos).map_or(0, |e| e.1);
        let top_bits = self.code.top_symbol_bits();
        if top_bits < self.symbol_bits {
            // Shortened code: the top symbol stores only `top_bits`, so a
            // correction setting bits above them reveals a multi-symbol
            // error. The stored content sets no bit above `top_mask`, so
            // the verdict rests on `injected ^ value` alone: any content
            // gives the same outcome. One is still drawn, uniformly (never
            // for a whole top symbol, which cannot fail the check), because
            // callers pin the entropy stream this draw advances.
            let top = self.code.n_symbols() - 1;
            if let Some(&(_, value)) = corrections.iter().find(|c| c.0 == top) {
                let top_mask = ((1u32 << top_bits) - 1) as u16;
                let original = entropy.next_u64() as u16 & top_mask;
                if original ^ injected_at(top) ^ value > top_mask {
                    return ReadOutcome::Detected;
                }
            }
        }
        let corrected_at = |pos: usize| corrections.iter().find(|c| c.0 == pos).map_or(0, |c| c.1);
        let wrong = errors
            .iter()
            .chain(corrections)
            .map(|&(p, _)| p)
            .filter(|&p| p >= self.parity)
            .any(|p| injected_at(p) != corrected_at(p));
        self.located = Some(located);
        if wrong {
            ReadOutcome::Miscorrected
        } else {
            ReadOutcome::CorrectedRight
        }
    }
}

impl Classifier for RsClassifier<'_> {
    type Context = RsContext;

    fn devices(&self) -> usize {
        self.splits.len()
    }

    fn device_width(&self, _dev: u16) -> u32 {
        self.device_bits
    }

    /// # Panics
    ///
    /// Panics if devices straddle RS symbols.
    fn resolve(&self, erased: &[u16]) -> Option<RsContext> {
        assert_eq!(
            self.symbol_bits % self.device_bits,
            0,
            "devices must nest inside RS symbols"
        );
        if erased.is_empty() {
            return Some(RsContext::Healthy);
        }
        let mut syms: Vec<usize> = erased.iter().map(|&d| self.splits[d as usize].0).collect();
        syms.sort_unstable();
        syms.dedup();
        (syms.len() <= self.parity)
            .then(|| RsContext::Degraded(self.code.inner().combined_context(&syms)))
    }

    /// Classifies one RS word read. Strikes on erased symbols are
    /// permitted — the erasure solve absorbs them (the whole symbol is
    /// reconstructed).
    fn classify<E: Entropy>(
        &mut self,
        ctx: &RsContext,
        strikes: &[(u16, Strike)],
        entropy: &mut E,
    ) -> WordRead {
        self.errors.clear();
        for &(dev, s) in strikes {
            let pattern = match s {
                Strike::Xor(p) => p,
                // Asymmetric discharge: the struck cell stores 1 with
                // probability 1/2 under uniform contents.
                Strike::AsymBit(bit) => {
                    if entropy.coin(0.5) {
                        1 << bit
                    } else {
                        0
                    }
                }
            };
            self.fold(dev as usize, pattern);
        }
        WordRead::from(self.finish(ctx, entropy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Word;
    use crate::RsMemoryDecoded;

    /// Entropy that reads every stored content as zero.
    struct Zeros;

    impl Entropy for Zeros {
        fn next_u64(&mut self) -> u64 {
            0
        }
    }

    /// A read striking every device — so every symbol of the code, far
    /// past the strike counts the simulators draw — classifies like the
    /// wide decoder, on nested x4 devices and on x8 devices straddling up
    /// to three 5-bit symbols.
    #[test]
    fn every_symbol_struck_matches_wide_decode() {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        for (symbol_bits, device_bits) in [(8u32, 4u32), (5, 8)] {
            let code = RsMemoryCode::new(symbol_bits, 144, 1).unwrap();
            let mut backend = RsClassifier::new(&code, device_bits);
            // `Zeros` reads a zero top-symbol content: keep the payload's
            // top symbol zero to match.
            let low = code.data_bits() - code.top_symbol_bits();
            for trial in 0..200 {
                let payload = (Word::from(next()) | (Word::from(next()) << 64)) & Word::mask(low);
                let mut corrupted = code.encode(&payload);
                let strikes: Vec<(u16, Strike)> = (0..backend.devices() as u16)
                    .map(|dev| {
                        let pattern = 1 + (next() % ((1 << device_bits) - 1)) as u16;
                        corrupted =
                            corrupted ^ (Word::from(pattern as u64) << (dev as u32 * device_bits));
                        (dev, Strike::Xor(pattern))
                    })
                    .collect();
                let wide = match code.decode(&corrupted) {
                    RsMemoryDecoded::Detected => WordRead::Due,
                    d if d.payload() == Some(payload) => WordRead::Correct,
                    _ => WordRead::Sdc,
                };
                let fast = backend.classify(&RsContext::Healthy, &strikes, &mut Zeros);
                assert_eq!(fast, wide, "s={symbol_bits} x{device_bits} trial {trial}");
            }
        }
    }

    /// Entropy that reads every stored content as all ones, counting its
    /// draws.
    struct Ones(usize);

    impl Entropy for Ones {
        fn next_u64(&mut self) -> u64 {
            self.0 += 1;
            u64::MAX
        }
    }

    /// The shortened-top range check needs no stored content: every x4
    /// two-device strike on the shortened Table IV rows (s = 7 and s = 5)
    /// reads the same outcome and corrections under an all-zeros and an
    /// all-ones content — so under either MSED detect mode, which judges
    /// only those two.
    #[test]
    fn healthy_reads_ignore_the_top_content() {
        for symbol_bits in [7u32, 5] {
            let code = RsMemoryCode::new(symbol_bits, 144, 1).unwrap();
            assert!(code.top_symbol_bits() < symbol_bits, "shortened top");
            let mut backend = RsClassifier::new(&code, 4);
            let mut ones = Ones(0);
            for lo in 0..backend.devices() {
                for hi in lo + 1..backend.devices() {
                    for a in 1..16u16 {
                        for b in 1..16u16 {
                            let strikes = [(lo, a), (hi, b)];
                            let zeros = backend.read_healthy(&mut Zeros, &strikes);
                            let fixed = backend.corrections().to_vec();
                            let read = backend.read_healthy(&mut ones, &strikes);
                            assert_eq!(
                                (read, backend.corrections()),
                                (zeros, &fixed[..]),
                                "s={symbol_bits} {strikes:?}"
                            );
                        }
                    }
                }
            }
            assert!(ones.0 > 0, "s={symbol_bits}: no read drew a top content");
        }
    }

    #[test]
    #[should_panic(expected = "5-bit devices do not tile the 144-bit channel")]
    fn devices_must_tile_the_channel() {
        let code = RsMemoryCode::new(8, 144, 1).unwrap();
        let _ = RsClassifier::new(&code, 5);
    }

    #[test]
    #[should_panic(expected = "devices must nest inside RS symbols")]
    fn resolve_requires_nested_devices() {
        let code = RsMemoryCode::new(5, 144, 1).unwrap();
        let _ = RsClassifier::new(&code, 4).resolve(&[]);
    }
}
