//! Rowhammer detection with spare-bit hashes (paper Section VI-A).
//!
//! MUSE(80,69) leaves five spare bits per 64-bit word — 40 bits per
//! 64-byte cache line. Storing a keyed 40-bit hash of the line there means
//! a Rowhammer attacker must corrupt data *and* forge the matching hash:
//! a blind flip pattern survives with probability ≈ 2⁻⁴⁰.
//!
//! The paper calls for a cryptographic hash; this module uses SipHash-2-4
//! (keyed, 64-bit output folded to 40 bits) — the standard short-input PRF
//! for exactly this setting.

use muse_core::{Decoded, FastDecode, MuseCode, SyndromeKernel, Word};

use crate::engine::{SimEngine, Tally};

/// Words per cache line (64 bytes / 8-byte words).
pub const WORDS_PER_LINE: usize = 8;

/// Hash width available from 8 × 5 spare bits.
pub const HASH_BITS: u32 = 40;

/// A keyed 40-bit line hash (SipHash-2-4 folded).
#[derive(Debug, Clone, Copy)]
pub struct LineHasher {
    k0: u64,
    k1: u64,
}

impl LineHasher {
    /// Creates a hasher with a 128-bit key.
    pub fn new(k0: u64, k1: u64) -> Self {
        Self { k0, k1 }
    }

    /// Hashes a cache line's eight words down to 40 bits.
    pub fn hash(&self, words: &[u64; WORDS_PER_LINE]) -> u64 {
        let mut bytes = [0u8; WORDS_PER_LINE * 8];
        for (i, w) in words.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
        siphash24(self.k0, self.k1, &bytes) & ((1u64 << HASH_BITS) - 1)
    }
}

/// SipHash-2-4 (Aumasson–Bernstein), public-domain reference construction.
fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v0 = 0x736f_6d65_7073_6575u64 ^ k0;
    let mut v1 = 0x646f_7261_6e64_6f6du64 ^ k1;
    let mut v2 = 0x6c79_6765_6e65_7261u64 ^ k0;
    let mut v3 = 0x7465_6462_7974_6573u64 ^ k1;

    let round = |v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64| {
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    };

    let len = data.len();
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        v3 ^= m;
        round(&mut v0, &mut v1, &mut v2, &mut v3);
        round(&mut v0, &mut v1, &mut v2, &mut v3);
        v0 ^= m;
    }
    let mut last = [0u8; 8];
    let rem = chunks.remainder();
    last[..rem.len()].copy_from_slice(rem);
    last[7] = (len & 0xFF) as u8;
    let m = u64::from_le_bytes(last);
    v3 ^= m;
    round(&mut v0, &mut v1, &mut v2, &mut v3);
    round(&mut v0, &mut v1, &mut v2, &mut v3);
    v0 ^= m;
    v2 ^= 0xFF;
    for _ in 0..4 {
        round(&mut v0, &mut v1, &mut v2, &mut v3);
    }
    v0 ^ v1 ^ v2 ^ v3
}

/// A 64-byte cache line stored as eight MUSE codewords whose spare bits
/// carry a 40-bit line hash.
///
/// # Examples
///
/// ```
/// use muse_core::presets;
/// use muse_faultsim::{HashedLine, LineHasher};
///
/// let code = presets::muse_80_69();
/// let hasher = LineHasher::new(7, 11);
/// let line = HashedLine::store(&code, &hasher, [0xAA55; 8]);
///
/// // In-model error: device failure in one word — corrected, hash intact.
/// let mut attacked = line.clone();
/// attacked.flip_storage_bit(0, 17);
/// assert_eq!(attacked.verify(&code, &hasher), Ok([0xAA55; 8]));
/// ```
#[derive(Debug, Clone)]
pub struct HashedLine {
    codewords: [Word; WORDS_PER_LINE],
}

/// Why a hashed-line read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// ECC reported an uncorrectable word.
    Uncorrectable {
        /// Which word failed.
        word: usize,
    },
    /// All words decoded but the line hash did not match — Rowhammer (or
    /// multi-word corruption) detected.
    HashMismatch,
}

impl HashedLine {
    /// Encodes eight data words, splitting the 40-bit line hash across the
    /// spare bits (5 per word).
    pub fn store(code: &MuseCode, hasher: &LineHasher, data: [u64; WORDS_PER_LINE]) -> Self {
        assert!(code.spare_bits() >= 5, "need 5 spare bits per word");
        let hash = hasher.hash(&data);
        let mut codewords = [Word::ZERO; WORDS_PER_LINE];
        for (i, cw) in codewords.iter_mut().enumerate() {
            let slice = (hash >> (5 * i as u32)) & 0x1F;
            *cw = code.encode(&code.pack_metadata(data[i], slice));
        }
        Self { codewords }
    }

    /// Flips one stored bit (`word` ∈ [0,8), `bit` < n).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn flip_storage_bit(&mut self, word: usize, bit: u32) {
        self.codewords[word].toggle_bit(bit);
    }

    /// Applies an arbitrary XOR pattern to one stored word.
    pub fn xor_word(&mut self, word: usize, pattern: Word) {
        self.codewords[word] = self.codewords[word] ^ pattern;
    }

    /// Decodes all eight words and checks the line hash.
    ///
    /// # Errors
    ///
    /// [`LineError::Uncorrectable`] if ECC flags a word,
    /// [`LineError::HashMismatch`] if the reassembled hash disagrees.
    pub fn verify(
        &self,
        code: &MuseCode,
        hasher: &LineHasher,
    ) -> Result<[u64; WORDS_PER_LINE], LineError> {
        let mut data = [0u64; WORDS_PER_LINE];
        let mut hash = 0u64;
        for (i, cw) in self.codewords.iter().enumerate() {
            match code.decode(cw) {
                Decoded::Detected => return Err(LineError::Uncorrectable { word: i }),
                d => {
                    let payload = d.payload().expect("clean or corrected");
                    let (word, meta) = code.unpack_metadata(&payload);
                    data[i] = word;
                    hash |= (meta & 0x1F) << (5 * i as u32);
                }
            }
        }
        if hash == hasher.hash(&data) {
            Ok(data)
        } else {
            Err(LineError::HashMismatch)
        }
    }
}

/// Result of a Rowhammer attack campaign.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackStats {
    /// Attacks stopped by ECC (uncorrectable word).
    pub blocked_by_ecc: u64,
    /// Attacks stopped by the hash check.
    pub blocked_by_hash: u64,
    /// Attacks that corrupted data without detection.
    pub successful: u64,
    /// Flip patterns that left the data intact (harmless).
    pub harmless: u64,
}

impl AttackStats {
    /// Total attacks simulated.
    pub fn total(&self) -> u64 {
        self.blocked_by_ecc + self.blocked_by_hash + self.successful + self.harmless
    }
}

impl Tally for AttackStats {
    fn merge(&mut self, other: Self) {
        self.blocked_by_ecc += other.blocked_by_ecc;
        self.blocked_by_hash += other.blocked_by_hash;
        self.successful += other.successful;
        self.harmless += other.harmless;
    }
}

/// Simulates `trials` Rowhammer episodes: each flips `flips` random stored
/// bits across a hashed line (the attacker cannot target the hash slices
/// separately — they live inside the same codewords).
///
/// Episodes run batched on the [`SimEngine`] with `threads` workers (0 ⇒
/// one per CPU); results are bit-identical at any thread count.
///
/// The line hash is content-dependent (SipHash over the real data bytes),
/// so the data words are genuinely materialized — but the ECC step runs in
/// residue space: each of the line's eight codewords is classified through
/// the [`SyndromeKernel`] (check-value fold, per-symbol flip deltas, fused
/// ELC transition) instead of a wide encode/decode, and the read-back
/// payload is reassembled from the flip/correction deltas alone. Draw
/// order, outcomes, and tallies are bit-identical to the wide pipeline,
/// which survives as a test oracle (pinned by
/// `fast_attacks_match_wide_pipeline` below).
///
/// # Panics
///
/// Panics if the code has fewer than 5 spare bits per word or carries no
/// syndrome kernel.
pub fn simulate_attacks(
    code: &MuseCode,
    hasher: &LineHasher,
    flips: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> AttackStats {
    assert!(code.spare_bits() >= 5, "need 5 spare bits per word");
    let kernel = crate::require_kernel(code, "rowhammer");
    let n_bits = code.n_bits();
    SimEngine::new(threads).run_with(
        seed,
        trials,
        || vec![Vec::<(usize, u16)>::new(); WORDS_PER_LINE],
        |_, rng, word_flips, stats: &mut AttackStats| {
            let mut data = [0u64; WORDS_PER_LINE];
            for d in &mut data {
                *d = rng.next_u64();
            }
            let hash = hasher.hash(&data);
            for flips in word_flips.iter_mut() {
                flips.clear();
            }
            for _ in 0..flips {
                let word = rng.below(WORDS_PER_LINE as u64) as usize;
                let bit = rng.below(n_bits as u64) as u32;
                push_flip(code, &mut word_flips[word], bit);
            }
            stats.merge(classify_line_fast(
                code, kernel, hasher, &data, hash, word_flips,
            ));
        },
    )
}

/// Folds one storage-bit flip into a word's per-symbol XOR patterns.
fn push_flip(code: &MuseCode, flips: &mut Vec<(usize, u16)>, bit: u32) {
    let map = code.symbol_map();
    let sym = map.symbol_of_bit(bit);
    let idx = map
        .bits_of(sym)
        .iter()
        .position(|&b| b == bit)
        .expect("bit belongs to its symbol");
    match flips.iter_mut().find(|(s, _)| *s == sym) {
        Some(entry) => entry.1 ^= 1 << idx,
        None => flips.push((sym, 1 << idx)),
    }
}

/// Residue-space read-back of one attacked line: decodes all eight words on
/// the kernel, reassembles data + hash slices from the flip/correction
/// deltas, and verifies the hash — the exact outcome of
/// [`HashedLine::verify`] on the equivalent wide line.
fn classify_line_fast(
    code: &MuseCode,
    kernel: &SyndromeKernel,
    hasher: &LineHasher,
    data: &[u64; WORDS_PER_LINE],
    hash: u64,
    word_flips: &[Vec<(usize, u16)>],
) -> AttackStats {
    let map = code.symbol_map();
    let r_bits = code.r_bits();
    // Toggles the payload bits named by a symbol-content diff.
    let apply_sym_diff = |out: &mut [u64; 5], sym: usize, diff: u16| {
        for (bit_idx, &b) in map.bits_of(sym).iter().enumerate() {
            if diff >> bit_idx & 1 == 1 && b >= r_bits {
                let pb = (b - r_bits) as usize;
                out[pb >> 6] ^= 1u64 << (pb & 63);
            }
        }
    };
    let mut stats = AttackStats::default();
    let mut read_data = [0u64; WORDS_PER_LINE];
    let mut read_hash = 0u64;
    for (i, flips) in word_flips.iter().enumerate() {
        let limbs = code
            .pack_metadata(data[i], (hash >> (5 * i as u32)) & 0x1F)
            .to_limbs();
        let x = kernel.check_value(&limbs);
        let mut rem = 0u64;
        for &(sym, pattern) in flips {
            if pattern != 0 {
                let content = kernel.encoded_content(sym, &limbs, x);
                rem = kernel.add_mod(rem, kernel.flip_delta(sym, content, pattern));
            }
        }
        let mut out = limbs;
        if rem == 0 {
            // Zero syndrome: the word reads back as stored (flips and all).
            for &(sym, pattern) in flips {
                apply_sym_diff(&mut out, sym, pattern);
            }
        } else {
            match kernel.classify(rem) {
                FastDecode::Clean => unreachable!("nonzero remainder"),
                FastDecode::Detected => {
                    stats.blocked_by_ecc += 1;
                    return stats;
                }
                FastDecode::Correct { symbol } => {
                    let content = kernel.encoded_content(symbol, &limbs, x);
                    let injected = flips
                        .iter()
                        .find(|&&(s, _)| s == symbol)
                        .map_or(0, |&(_, p)| p);
                    match kernel.correct(rem, content ^ injected) {
                        None => {
                            stats.blocked_by_ecc += 1;
                            return stats;
                        }
                        Some(corrected) => {
                            for &(sym, pattern) in flips {
                                if sym != symbol {
                                    apply_sym_diff(&mut out, sym, pattern);
                                }
                            }
                            apply_sym_diff(&mut out, symbol, corrected ^ content);
                        }
                    }
                }
            }
        }
        read_data[i] = out[0];
        read_hash |= (out[1] & 0x1F) << (5 * i as u32);
    }
    if read_hash != hasher.hash(&read_data) {
        stats.blocked_by_hash += 1;
    } else if read_data == *data {
        stats.harmless += 1;
    } else {
        stats.successful += 1;
    }
    stats
}

/// The wide-word reference pipeline: encode the line, flip storage bits,
/// decode through [`HashedLine::verify`] — the oracle for the
/// residue-space path.
#[cfg(test)]
fn simulate_attacks_wide(
    code: &MuseCode,
    hasher: &LineHasher,
    flips: usize,
    trials: u64,
    seed: u64,
    threads: usize,
) -> AttackStats {
    let n_bits = code.n_bits();
    SimEngine::new(threads).run(seed, trials, |_, rng, stats: &mut AttackStats| {
        let mut data = [0u64; WORDS_PER_LINE];
        for d in &mut data {
            *d = rng.next_u64();
        }
        let mut line = HashedLine::store(code, hasher, data);
        for _ in 0..flips {
            let word = rng.below(WORDS_PER_LINE as u64) as usize;
            let bit = rng.below(n_bits as u64) as u32;
            line.flip_storage_bit(word, bit);
        }
        match line.verify(code, hasher) {
            Err(LineError::Uncorrectable { .. }) => stats.blocked_by_ecc += 1,
            Err(LineError::HashMismatch) => stats.blocked_by_hash += 1,
            Ok(read) if read == data => stats.harmless += 1,
            Ok(_) => stats.successful += 1,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::presets;

    #[test]
    fn siphash_reference_vector() {
        // The SipHash-2-4 reference test vector (key 0x0F0E...0100, input
        // 0x00..0E) from the SipHash paper.
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let data: Vec<u8> = (0..15).collect();
        assert_eq!(siphash24(k0, k1, &data), 0xa129ca6149be45e5);
    }

    #[test]
    fn hash_is_keyed_and_40_bits() {
        let words = [0x1234u64; 8];
        let h1 = LineHasher::new(1, 2).hash(&words);
        let h2 = LineHasher::new(3, 4).hash(&words);
        assert_ne!(h1, h2);
        assert!(h1 < (1 << 40) && h2 < (1 << 40));
    }

    #[test]
    fn clean_line_roundtrip() {
        let code = presets::muse_80_69();
        let hasher = LineHasher::new(0xAA, 0xBB);
        let data = [0, 1, u64::MAX, 42, 0xDEAD_BEEF, 5, 6, 7];
        let line = HashedLine::store(&code, &hasher, data);
        assert_eq!(line.verify(&code, &hasher), Ok(data));
    }

    #[test]
    fn ecc_heals_in_model_errors_hash_intact() {
        let code = presets::muse_80_69();
        let hasher = LineHasher::new(9, 9);
        let data = [7u64; 8];
        let mut line = HashedLine::store(&code, &hasher, data);
        // Kill an entire device in word 3.
        line.xor_word(3, *code.symbol_map().mask(10));
        assert_eq!(line.verify(&code, &hasher), Ok(data));
    }

    #[test]
    fn valid_codeword_forgery_without_hash_is_caught() {
        // An attacker who replaces a word with a DIFFERENT valid codeword
        // defeats plain ECC (remainder 0) but not the hash.
        let code = presets::muse_80_69();
        let hasher = LineHasher::new(5, 6);
        let data = [3u64; 8];
        let mut line = HashedLine::store(&code, &hasher, data);
        let forged = code.encode(&code.pack_metadata(0x6666, 0));
        line.codewords[2] = forged;
        assert_eq!(line.verify(&code, &hasher), Err(LineError::HashMismatch));
    }

    #[test]
    fn fast_attacks_match_wide_pipeline() {
        // The residue-space ECC step must reproduce the wide pipeline's
        // tallies exactly: same seed, same draws.
        let code = presets::muse_80_69();
        let hasher = LineHasher::new(0xFA57, 0x31DE);
        for (flips, seed) in [(1usize, 7u64), (4, 8), (9, 9), (23, 10)] {
            let fast = simulate_attacks(&code, &hasher, flips, 300, seed, 0);
            let wide = simulate_attacks_wide(&code, &hasher, flips, 300, seed, 0);
            assert_eq!(
                (
                    fast.blocked_by_ecc,
                    fast.blocked_by_hash,
                    fast.successful,
                    fast.harmless
                ),
                (
                    wide.blocked_by_ecc,
                    wide.blocked_by_hash,
                    wide.successful,
                    wide.harmless
                ),
                "flips={flips}"
            );
        }
    }

    #[test]
    fn attack_campaign_never_succeeds_blind() {
        // 2⁻⁴⁰ per attempt: thousands of blind attacks all fail.
        let code = presets::muse_80_69();
        let hasher = LineHasher::new(0x5117, 0x1d3a);
        for flips in [3usize, 8, 17] {
            let stats = simulate_attacks(&code, &hasher, flips, 400, 99, 0);
            assert_eq!(stats.successful, 0, "flips={flips}");
            assert_eq!(stats.total(), 400);
            assert!(stats.blocked_by_ecc + stats.blocked_by_hash > 0);
        }
    }
}
