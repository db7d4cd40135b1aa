//! On-die ECC + rank-level MUSE co-design (the paper's stated future work:
//! "the investigation of MUSE co-design with on-die ECC is an interesting
//! topic for future work").
//!
//! Model: each DRAM device internally protects 128-bit words with a DDR5-
//! style Hamming SEC code (8 check bits, no double-error detection). A
//! rank-level codeword draws `s` bits from each device. Retention faults
//! strike cells independently; the on-die code heals or *miscorrects*
//! inside each device before the rank-level code (MUSE or none) sees the
//! result.
//!
//! The interesting interaction: on-die SEC removes most single-cell faults
//! (so the rank code's single-device budget is spent on real multi-bit
//! events), but a double fault inside one on-die word can be *miscorrected
//! into a third bit*, turning 2 bad cells into 3 — still device-confined,
//! so ChipKill-class rank codes clean it up, while a rank-less system
//! silently corrupts.
//!
//! # Content-space fast path
//!
//! Both codes here are **linear**, so a trial's outcome depends only on the
//! *flip positions*, never on the stored data: the on-die syndrome is the
//! XOR of the flipped positions' parity-check columns, and the correction
//! toggles one more position. A fast trial therefore samples, per device,
//! the flipped-cell *count* from its exact binomial CDF ([`CountCdf`] — one
//! raw draw, and ~87% of devices sample zero and are skipped), places the
//! flips, folds the 8-bit on-die syndrome from a 136-entry column table,
//! and hands the surviving rank-visible XOR pattern to the incremental
//! MUSE residue kernel. No 136-bit word is ever encoded or decoded; the
//! wide pipeline survives only as the property-tested reference (rank
//! codes without a syndrome kernel are rejected).

#[cfg(test)]
use muse_core::Decoded;
use muse_core::{MuseClassifier, MuseCode, WordRead};
use muse_secded::SecDed;
#[cfg(test)]
use muse_secded::{SecDecoded, Word};

use crate::engine::{SimEngine, Tally};
use crate::rng::{Bounded32, CountCdf};
use crate::Rng;

/// Which protections are stacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// No ECC at all (baseline).
    None,
    /// On-die SEC inside each device only.
    OnDieOnly,
    /// Rank-level MUSE only.
    RankOnly,
    /// Both: on-die first, then the rank code.
    Stacked,
}

/// Outcome tallies for one configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct OndieStats {
    /// Rank words delivered intact.
    pub intact: u64,
    /// Rank words flagged uncorrectable (DUE).
    pub due: u64,
    /// Rank words silently wrong (SDC).
    pub sdc: u64,
}

impl OndieStats {
    /// Total words simulated.
    pub fn total(&self) -> u64 {
        self.intact + self.due + self.sdc
    }

    /// Silent-corruption rate.
    pub fn sdc_rate(&self) -> f64 {
        self.sdc as f64 / self.total() as f64
    }

    /// Uncorrectable rate.
    pub fn due_rate(&self) -> f64 {
        self.due as f64 / self.total() as f64
    }
}

impl Tally for OndieStats {
    fn merge(&mut self, other: Self) {
        self.intact += other.intact;
        self.due += other.due;
        self.sdc += other.sdc;
    }
}

/// The flip-position model of one on-die device word: parity-check columns,
/// the syndrome→position decode map, and the fault-count CDF.
struct OndieModel {
    /// `column[b]` of the stored 136-bit word.
    columns: Vec<u32>,
    /// Syndrome → stored-bit position (`u32::MAX` = unmapped).
    syn_to_bit: Vec<u32>,
    /// Check bits (data bit `i` lives at stored position `i + r`).
    r: u32,
    /// Flipped-cell count per stored word.
    counts: CountCdf,
    /// Position sampler over the stored word.
    position: Bounded32,
}

impl OndieModel {
    fn new(ondie: &SecDed, cell_p: f64) -> Self {
        let n = ondie.n_bits();
        let columns: Vec<u32> = (0..n).map(|b| ondie.column(b)).collect();
        let mut syn_to_bit = vec![u32::MAX; 1 << ondie.r_bits()];
        for (bit, &col) in columns.iter().enumerate() {
            syn_to_bit[col as usize] = bit as u32;
        }
        Self {
            columns,
            syn_to_bit,
            r: ondie.r_bits(),
            counts: CountCdf::binomial(n, cell_p),
            position: Bounded32::new(n),
        }
    }

    /// Samples one device's flip set (bitmask over stored positions) from a
    /// pre-drawn count raw, or `None` when no cell faulted.
    #[inline]
    fn sample_flips(&self, rng: &mut Rng, count_raw: u64) -> Option<[u64; 3]> {
        let count = self.counts.sample(count_raw);
        if count == 0 {
            return None;
        }
        let mut flips = [0u64; 3];
        let mut placed = 0;
        while placed < count {
            let pos = self.position.sample(rng) as usize;
            if flips[pos >> 6] >> (pos & 63) & 1 == 0 {
                flips[pos >> 6] |= 1 << (pos & 63);
                placed += 1;
            }
        }
        Some(flips)
    }

    /// What the on-die decode leaves behind: the residual flip set after
    /// SEC correction (or the raw flips when the syndrome is zero or
    /// unmapped — the on-die code has no detection signaling).
    #[inline]
    fn residual(&self, mut flips: [u64; 3], ondie_active: bool) -> [u64; 3] {
        if !ondie_active {
            return flips;
        }
        let mut syndrome = 0u32;
        for (word, &limb) in flips.iter().enumerate() {
            let mut bits = limb;
            while bits != 0 {
                let pos = word * 64 + bits.trailing_zeros() as usize;
                syndrome ^= self.columns[pos];
                bits &= bits - 1;
            }
        }
        if syndrome != 0 {
            let bit = self.syn_to_bit[syndrome as usize];
            if bit != u32::MAX {
                // The "correction" toggles this position: it heals a real
                // flip or adds a third one (miscorrection).
                flips[(bit >> 6) as usize] ^= 1 << (bit & 63);
            }
        }
        flips
    }

    /// The rank-visible XOR pattern of a residual flip set: data bits
    /// `0..width` live at stored positions `r..r+width`.
    #[inline]
    fn visible(&self, residual: [u64; 3], width: u32) -> u16 {
        debug_assert!(self.r + width <= 64, "visible window fits limb 0");
        (residual[0] >> self.r) as u16 & ((1u32 << width) - 1) as u16
    }
}

/// Simulates `words` rank-level reads at per-cell fault probability
/// `cell_p`, with the given protection stack.
///
/// The rank code's devices each contribute their symbol bits from an
/// independent on-die word; faults hit the full on-die word, and the
/// rank-visible bits inherit whatever the on-die decode leaves behind.
///
/// Words run batched on the [`SimEngine`] with `threads` workers (0 ⇒ one
/// per CPU); results are bit-identical at any thread count.
///
/// # Panics
///
/// Panics if `rank_code` is needed by the stack but `None` was passed.
pub fn simulate_stack(
    stack: Stack,
    rank_code: Option<&MuseCode>,
    cell_p: f64,
    words: u64,
    seed: u64,
    threads: usize,
) -> OndieStats {
    let ondie = SecDed::hamming_sec(136, 128).expect("DDR5 on-die geometry");
    let code = rank_code.filter(|_| matches!(stack, Stack::RankOnly | Stack::Stacked));
    if matches!(stack, Stack::RankOnly | Stack::Stacked) {
        assert!(code.is_some(), "stack {stack:?} needs a rank code");
    }
    let ondie_active = matches!(stack, Stack::OnDieOnly | Stack::Stacked);
    let model = OndieModel::new(&ondie, cell_p);
    let engine = SimEngine::new(threads);
    let seed = seed ^ 0x0D1E;

    match code {
        Some(c) => {
            let kernel = crate::require_kernel(c, "rank-level flip-position");
            {
                let n_dev = kernel.num_symbols();
                engine.run_blocked(
                    seed,
                    words,
                    || (MuseClassifier::new(kernel), Vec::new(), vec![0u64; n_dev]),
                    |range, rng, (classifier, strikes, count_raws), stats: &mut OndieStats| {
                        for _ in range {
                            classifier.begin_read();
                            strikes.clear();
                            rng.fill_u64s(count_raws);
                            for (dev, &raw) in count_raws.iter().enumerate() {
                                let Some(flips) = model.sample_flips(rng, raw) else {
                                    continue;
                                };
                                let residual = model.residual(flips, ondie_active);
                                let pattern = model.visible(residual, kernel.symbol_bits(dev));
                                if pattern != 0 {
                                    strikes.push((dev, pattern));
                                }
                            }
                            if strikes.is_empty() {
                                stats.intact += 1;
                                continue;
                            }
                            match WordRead::from(classifier.read_healthy(rng, strikes)) {
                                WordRead::Correct => stats.intact += 1,
                                WordRead::Due => stats.due += 1,
                                WordRead::Sdc => stats.sdc += 1,
                            }
                        }
                    },
                )
            }
        }
        None => {
            // No rank code: 16 devices feed a raw 64-bit word; the read is
            // silently wrong iff any device leaves a visible residual flip.
            engine.run_blocked(
                seed,
                words,
                || vec![0u64; 16],
                |range, rng, count_raws, stats: &mut OndieStats| {
                    for _ in range {
                        rng.fill_u64s(count_raws);
                        let mut corrupted = false;
                        for &raw in count_raws.iter() {
                            let Some(flips) = model.sample_flips(rng, raw) else {
                                continue;
                            };
                            let residual = model.residual(flips, ondie_active);
                            corrupted |= model.visible(residual, 4) != 0;
                        }
                        if corrupted {
                            stats.sdc += 1;
                        } else {
                            stats.intact += 1;
                        }
                    }
                },
            )
        }
    }
}

/// A `Word` with uniformly random low `bits`: five raw limbs, masked.
#[cfg(test)]
fn random_payload(rng: &mut Rng, bits: u32) -> Word {
    let limbs = [(); 5].map(|()| rng.next_u64());
    Word::from_limbs(limbs) & Word::mask(bits)
}

/// The wide-word reference pipeline: encodes and decodes real on-die words.
/// The retired runtime fallback, surviving only as the cross-validated
/// oracle for the flip-position fast path.
#[cfg(test)]
fn simulate_stack_wide(
    stack: Stack,
    code: Option<&MuseCode>,
    cell_p: f64,
    words: u64,
    seed: u64,
    threads: usize,
    ondie: &SecDed,
) -> OndieStats {
    SimEngine::new(threads).run(seed, words, |_, rng, stats: &mut OndieStats| {
        // Rank-level payload and codeword (or raw data when no rank code).
        let (payload, rank_word, n_bits, map) = match code {
            Some(c) => {
                let payload = random_payload(rng, c.k_bits());
                (
                    payload,
                    c.encode(&payload),
                    c.n_bits(),
                    Some(c.symbol_map()),
                )
            }
            None => {
                let data = random_payload(rng, 64);
                (data, data, 64, None)
            }
        };

        // Each device's rank-visible bits live inside an independent
        // on-die word at a random offset.
        let mut delivered = rank_word;
        let num_devices = map.map_or(16, |m| m.num_symbols());
        for dev in 0..num_devices {
            let bits: Vec<u32> = match map {
                Some(m) => m.bits_of(dev).to_vec(),
                None => (0..4).map(|i| (dev as u32 * 4 + i) % n_bits).collect(),
            };
            // Build the on-die word: our bits at offset 0..s, the rest of
            // the 128 data bits random (other rank words' data).
            let mut ondie_data = random_payload(rng, 128);
            for (i, &bit) in bits.iter().enumerate() {
                ondie_data.set_bit(i as u32, rank_word.bit(bit));
            }
            let stored = ondie.encode(&ondie_data);
            // Retention faults on the stored 136 bits.
            let mut faulty = stored;
            let mut any = false;
            for b in 0..136 {
                if rng.chance(cell_p) {
                    faulty.toggle_bit(b);
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let after: Word = if matches!(stack, Stack::OnDieOnly | Stack::Stacked) {
                match ondie.decode(&faulty) {
                    SecDecoded::Clean { data } | SecDecoded::Corrected { data, .. } => data,
                    // On-die SEC has no detection signaling to the
                    // controller: an unmapped syndrome passes the raw word.
                    SecDecoded::Detected => faulty >> ondie.r_bits(),
                }
            } else {
                faulty >> ondie.r_bits()
            };
            for (i, &bit) in bits.iter().enumerate() {
                delivered.set_bit(bit, after.bit(i as u32));
            }
        }

        // Rank-level decode (or raw delivery).
        match code {
            Some(c) => match c.decode(&delivered) {
                Decoded::Detected => stats.due += 1,
                d => {
                    if d.payload() == Some(payload) {
                        stats.intact += 1;
                    } else {
                        stats.sdc += 1;
                    }
                }
            },
            None => {
                if delivered == payload {
                    stats.intact += 1;
                } else {
                    stats.sdc += 1;
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::presets;

    const P: f64 = 2e-3; // accelerated fault rate for test speed

    #[test]
    fn no_protection_corrupts_silently() {
        let stats = simulate_stack(Stack::None, None, P, 1_500, 1, 0);
        assert!(stats.sdc > 0, "raw words must corrupt");
        assert_eq!(stats.due, 0, "nothing detects");
    }

    #[test]
    fn ondie_alone_reduces_but_does_not_eliminate_sdc() {
        let none = simulate_stack(Stack::None, None, P, 1_500, 2, 0);
        let ondie = simulate_stack(Stack::OnDieOnly, None, P, 1_500, 2, 0);
        assert!(
            ondie.sdc < none.sdc,
            "on-die SEC heals most single-cell faults"
        );
        assert!(ondie.sdc > 0, "double faults still leak (or miscorrect)");
    }

    #[test]
    fn stacked_beats_everything() {
        let code = presets::muse_144_132();
        let rank = simulate_stack(Stack::RankOnly, Some(&code), P, 1_000, 3, 0);
        let stacked = simulate_stack(Stack::Stacked, Some(&code), P, 1_000, 3, 0);
        assert!(stacked.sdc <= rank.sdc);
        assert!(
            stacked.due <= rank.due,
            "on-die pre-correction removes rank DUEs"
        );
        assert!(stacked.intact >= rank.intact);
    }

    #[test]
    fn rank_code_handles_ondie_miscorrections() {
        // On-die double faults miscorrect into a third bit — still
        // device-confined, so the rank code mops them up. (Simultaneous
        // residuals in *two* devices exceed ChipKill and become DUEs, so
        // the fault rate here keeps multi-device coincidences rare.)
        let code = presets::muse_144_132();
        let stacked = simulate_stack(Stack::Stacked, Some(&code), 1e-3, 1_200, 4, 0);
        let intact_rate = stacked.intact as f64 / stacked.total() as f64;
        assert!(intact_rate > 0.9, "stack survives: {stacked:?}");
        assert!(
            stacked.sdc * 50 < stacked.total(),
            "SDC stays rare: {stacked:?}"
        );
    }

    #[test]
    #[should_panic(expected = "carries no syndrome kernel")]
    fn kernel_less_rank_code_panics() {
        // The wide runtime fallback is retired: a rank code without a
        // kernel is a caller error, not a silent slow path.
        let mut code = presets::muse_144_132();
        code.disable_syndrome_kernel();
        let _ = simulate_stack(Stack::RankOnly, Some(&code), 1e-3, 10, 1, 0);
    }

    #[test]
    fn zero_fault_rate_is_perfect() {
        let code = presets::muse_144_132();
        for stack in [
            Stack::None,
            Stack::OnDieOnly,
            Stack::RankOnly,
            Stack::Stacked,
        ] {
            let rank = matches!(stack, Stack::RankOnly | Stack::Stacked).then_some(&code);
            let stats = simulate_stack(stack, rank, 0.0, 100, 5, 0);
            assert_eq!(stats.intact, 100, "{stack:?}");
        }
    }

    /// The flip-position device model against the real SECDED pipeline: for
    /// random flip sets, the residual pattern must equal what encode →
    /// corrupt → decode leaves on the data bits. The codes are linear, so
    /// this holds for *any* stored data — exercised with random data words.
    #[test]
    fn device_residual_matches_wide_secded() {
        let ondie = SecDed::hamming_sec(136, 128).expect("geometry");
        let model = OndieModel::new(&ondie, 0.01);
        let mut rng = Rng::seeded(0x5EC);
        for trial in 0..2_000 {
            let raw = rng.next_u64();
            let Some(flips) = model.sample_flips(&mut rng, raw) else {
                continue;
            };
            for active in [false, true] {
                let residual = model.residual(flips, active);

                let data = random_payload(&mut rng, 128);
                let stored = ondie.encode(&data);
                let mut faulty = stored;
                for (word, &limb) in flips.iter().enumerate() {
                    let mut bits = limb;
                    while bits != 0 {
                        let pos = word as u32 * 64 + bits.trailing_zeros();
                        faulty.toggle_bit(pos);
                        bits &= bits - 1;
                    }
                }
                let after = if active {
                    match ondie.decode(&faulty) {
                        SecDecoded::Clean { data } | SecDecoded::Corrected { data, .. } => data,
                        SecDecoded::Detected => faulty >> ondie.r_bits(),
                    }
                } else {
                    faulty >> ondie.r_bits()
                };
                // Compare all 128 data bits against data ⊕ residual.
                for i in 0..128u32 {
                    let pos = i + ondie.r_bits();
                    let res_bit = residual[(pos >> 6) as usize] >> (pos & 63) & 1 == 1;
                    assert_eq!(
                        after.bit(i),
                        data.bit(i) ^ res_bit,
                        "trial {trial} active {active} data bit {i}"
                    );
                }
            }
        }
    }

    /// Fast path vs the wide oracle pipeline, statistically: same rates
    /// within Monte-Carlo tolerance. (The oracle is no longer reachable at
    /// runtime — kernel-less rank codes panic — so it is driven directly.)
    #[test]
    fn fast_path_consistent_with_wide_reference() {
        let code = presets::muse_144_132();
        let fast = simulate_stack(Stack::Stacked, Some(&code), 2e-3, 2_000, 7, 0);
        let ondie = SecDed::hamming_sec(136, 128).expect("DDR5 on-die geometry");
        let wide = simulate_stack_wide(
            Stack::Stacked,
            Some(&code),
            2e-3,
            2_000,
            7 ^ 0x0D1E,
            0,
            &ondie,
        );
        assert_eq!(fast.total(), wide.total());
        let tol = 0.05 * fast.total() as f64;
        assert!(
            (fast.intact as f64 - wide.intact as f64).abs() < tol,
            "fast {fast:?} vs wide {wide:?}"
        );
        assert!(
            (fast.due as f64 - wide.due as f64).abs() < tol,
            "fast {fast:?} vs wide {wide:?}"
        );
    }
}
