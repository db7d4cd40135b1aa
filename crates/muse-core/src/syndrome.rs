//! Incremental residue-syndrome kernel: decode outcomes without wide words.
//!
//! The Monte-Carlo simulators in `muse-faultsim` used to re-encode and fully
//! decode a 320-bit codeword per trial — a `U320` widening multiply, a wide
//! Lemire reduction, and a wide correction per sample. This module
//! precomputes, at [`MuseCode`](crate::MuseCode) construction time, enough
//! per-symbol structure that a trial runs entirely in small-integer space:
//!
//! * **Per-symbol residue tables** — for every symbol `s` and every content
//!   `x` of its bits, `R_s[x] = (Σ_{i: x_i=1} 2^{B_s[i]}) mod m`, stored as
//!   one flat array. A freshly encoded codeword has syndrome 0, so after
//!   XOR-flipping pattern `p` onto a symbol holding content `v`, the
//!   syndrome moves by `R_s[v ^ p] − R_s[v] (mod m)` — two table lookups
//!   and a modular add.
//! * **Fast ELC transitions** — for every ELC remainder entry `(e, s)` and
//!   every current content `v` of symbol `s`, the table stores the corrected
//!   content `w` with `expand_s(v) − e = expand_s(w)`, or a sentinel when no
//!   such content exists. This reproduces the wide decoder's
//!   overflow/underflow confinement check (Figure 4, method 2) exactly: a
//!   correction is valid iff the subtraction stays inside the symbol.
//!   Transitions depend on a symbol only through its shape (bit offsets
//!   above its lowest bit), so each shape's blocks are computed once and
//!   copied to every ELC entry of a symbol with that shape.
//! * **Check-value folding** — `X = (m − payload·2^r mod m) mod m` from the
//!   payload limbs with a short Horner fold using a division-free Barrett
//!   reduction (the same Lemire-style multiply-high trick the hardware
//!   decoder uses, scaled down to `u64`), so symbol contents of an encoded
//!   word are available without the encoder's wide multiply. Symbols whose
//!   bits form one contiguous in-limb run — the common case for sequential
//!   maps — gather their content with a single shift-and-mask.
//!
//! The wide [`MuseCode::decode`](crate::MuseCode::decode) path is kept
//! unchanged and cross-validated against this kernel by a property test
//! (`tests/syndrome_equivalence.rs`): for random payloads and corruptions
//! the two paths agree on every preset code.

use crate::errval::{Pow2Residues, Shape, ShapedValues};
#[cfg(test)]
use crate::{errval::enumerate_per_symbol, ErrorLookup, ErrorModel};
use crate::{SymbolMap, Word};

/// Sentinel in the transition table: no valid corrected content.
const NO_TRANSITION: u16 = u16::MAX;

/// Division-free `x mod m` for full-range `u64` inputs (Barrett/Lemire with
/// a 128-bit magic; exact for any non-power-of-two `m ≥ 3`).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
struct Mod64 {
    m: u64,
    magic: u128,
}

impl Mod64 {
    fn new(m: u64) -> Self {
        assert!(m >= 3, "modulus {m} too small");
        // floor(2^128 / m) + 1; when m does not divide 2^128 the integer
        // division of u128::MAX already floors 2^128 / m. Powers of two
        // (never valid multipliers in practice) reduce by masking instead.
        let magic = if m.is_power_of_two() {
            0
        } else {
            u128::MAX / m as u128 + 1
        };
        Self { m, magic }
    }

    #[inline]
    fn rem(&self, x: u64) -> u64 {
        if self.magic == 0 {
            return x & (self.m - 1);
        }
        let low = self.magic.wrapping_mul(x as u128);
        // High 64 bits of the 192-bit product low · m.
        let a = (low as u64) as u128 * self.m as u128;
        let b = (low >> 64) * self.m as u128;
        ((b + (a >> 64)) >> 64) as u64
    }
}

/// How a symbol's content is extracted from the payload limbs.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
enum Gather {
    /// All bits form one contiguous run inside a single payload limb:
    /// `content = (payload[limb] >> shift) & width_mask`.
    Slice { limb: u8, shift: u8 },
    /// Anything else (check-region bits, shuffled or limb-straddling
    /// layouts): gathered bit by bit via the source lists.
    Mixed,
}

/// Per-symbol metadata, packed for cache-friendly random access.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(test, derive(PartialEq))]
struct SymbolMeta {
    width: u8,
    gather: Gather,
    /// Content bits living in the check region (`< r`).
    check_mask: u16,
    /// Start of this symbol's block in the flat residue table.
    residue_offset: u32,
}

/// Outcome of a residue-space decode step (mirrors
/// [`Decoded`](crate::Decoded) without carrying wide payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastDecode {
    /// Zero syndrome: the word reads out as-is.
    Clean,
    /// No ELC entry for this remainder — detected uncorrectable.
    Detected,
    /// An ELC entry matched; fetch the named symbol's current content and
    /// call [`SyndromeKernel::correct`] to finish.
    Correct {
        /// Symbol the matched error value is confined to.
        symbol: usize,
    },
}

/// Exact outcome of one healthy word read, in residue space — how
/// [`SyndromeKernel::finish_read`] ends a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Zero syndrome and the corruption never left the check bits: the word
    /// reads back correct.
    CleanIntact,
    /// Zero syndrome but payload bits flipped — a truly silent corruption.
    CleanCorrupted,
    /// Flagged detected-but-uncorrectable: an unmapped remainder, or a
    /// correction escaping its symbol.
    Detected,
    /// Corrected back to the original payload.
    CorrectedRight,
    /// "Corrected" into wrong data.
    Miscorrected,
}

/// The per-code incremental-syndrome tables. Built once inside
/// [`MuseCode::new`](crate::MuseCode::new); accessible via
/// [`MuseCode::kernel`](crate::MuseCode::kernel).
///
/// # Examples
///
/// Classify a Monte-Carlo trial entirely in residue space — no codeword is
/// ever built. The trial below says devices 3 and 17, whose stored 4-bit
/// contents are `0x4` and `0xA`, are hit by the XOR patterns `0b0011` and
/// `0b0101`:
///
/// ```
/// use muse_core::{presets, FastDecode};
///
/// let code = presets::muse_144_132();
/// let kernel = code.kernel().expect("within tabulation limits");
///
/// let rem = kernel.add_mod(
///     kernel.flip_delta(3, 0x4, 0b0011),
///     kernel.flip_delta(17, 0xA, 0b0101),
/// );
/// match kernel.classify(rem) {
///     // Most double-device errors are flagged uncorrectable.
///     FastDecode::Detected => {}
///     // Some match an ELC entry: finish with the located symbol's
///     // *current* (corrupted) content to learn the corrected content.
///     FastDecode::Correct { symbol } => {
///         let current = match symbol {
///             3 => 0x4 ^ 0b0011,
///             17 => 0xA ^ 0b0101,
///             _ => 0, // an untouched symbol's stored content
///         };
///         let _corrected = kernel.correct(rem, current);
///     }
///     FastDecode::Clean => unreachable!("these patterns do not alias"),
/// }
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct SyndromeKernel {
    m: u64,
    mod64: Mod64,
    /// `2^r mod m`, for the check-value fold.
    pow_r: u64,
    /// `2^64 mod m`, for the limb fold.
    pow_64: u64,
    /// Number of limbs the `k`-bit payload occupies.
    payload_limbs: usize,
    syms: Vec<SymbolMeta>,
    /// Flat per-symbol residue tables (`R_s[x]` at `residue_offset + x`).
    residues: Vec<u64>,
    /// Per-symbol `(content bit, payload bit)` lists for the Mixed gather.
    payload_sources: Vec<Vec<(u8, u16)>>,
    /// Per-symbol `(content bit, check bit)` lists for the Mixed gather.
    check_sources: Vec<Vec<(u8, u8)>>,
    /// Dense remainder → packed `(transition offset << 12) | symbol`, or
    /// [`NO_ENTRY`] — one fused load classifies a syndrome and locates its
    /// content-transition block.
    elc_fused: Vec<u32>,
    /// Flat per-entry content-transition blocks.
    transitions: Vec<u16>,
}

/// Sentinel in the fused ELC table: no entry for this remainder.
const NO_ENTRY: u32 = u32::MAX;

/// 320-bit chunked value for construction-time span arithmetic: symbols may
/// scatter across the whole codeword (spread/shuffled maps), so per-content
/// error arithmetic runs on five limbs instead of a single `u128`.
type Chunks = [u64; 5];

#[inline]
fn chunk_set_bit(v: &mut Chunks, bit: u32) {
    v[(bit >> 6) as usize] |= 1 << (bit & 63);
}

#[inline]
fn chunk_bit(v: &Chunks, bit: u32) -> u64 {
    v[(bit >> 6) as usize] >> (bit & 63) & 1
}

/// `a + b` with the carry out of bit 320 (an escaping correction).
fn chunk_add(a: &Chunks, b: &Chunks) -> (Chunks, bool) {
    let mut out = [0u64; 5];
    let mut carry = false;
    for i in 0..5 {
        let (s, c1) = a[i].overflowing_add(b[i]);
        let (s, c2) = s.overflowing_add(carry as u64);
        out[i] = s;
        carry = c1 | c2;
    }
    (out, carry)
}

/// `a − b` with the borrow out of bit 320 (an escaping correction).
fn chunk_sub(a: &Chunks, b: &Chunks) -> (Chunks, bool) {
    let mut out = [0u64; 5];
    let mut borrow = false;
    for i in 0..5 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        out[i] = d;
        borrow = b1 | b2;
    }
    (out, borrow)
}

/// Whether `v` sets any bit outside `mask`.
fn chunk_escapes(v: &Chunks, mask: &Chunks) -> bool {
    v.iter().zip(mask).any(|(&x, &m)| x & !m != 0)
}

/// The fast-ELC transition blocks of one symbol shape: for each of its
/// relative error values `e`, in order, and each content `v`, the content
/// `w` with `expand(v) − e = expand(w)`, or [`NO_TRANSITION`] when the
/// subtraction escapes the shape (the wide decoder's confinement
/// rejection, Figure 4 method 2). Offsets and values are relative to the
/// base bit, and a shift does not change whether a correction escapes, so
/// every symbol of the shape shares the blocks.
fn shape_transitions(shape: &Shape) -> Vec<u16> {
    let offsets = &shape.offsets;
    let contents = 1usize << offsets.len();
    let expand: Vec<Chunks> = (0..contents)
        .map(|content| {
            let mut v = [0u64; 5];
            for (i, &off) in offsets.iter().enumerate() {
                if content >> i & 1 == 1 {
                    chunk_set_bit(&mut v, off);
                }
            }
            v
        })
        .collect();
    let mask = expand[contents - 1];
    let mut out = Vec::with_capacity(shape.values.len() * contents);
    for value in &shape.values {
        let mag = value.magnitude().to_limbs();
        for v in &expand {
            let (corrected, escaped) = if value.is_negative() {
                chunk_add(v, &mag)
            } else {
                chunk_sub(v, &mag)
            };
            out.push(if !escaped && !chunk_escapes(&corrected, &mask) {
                offsets.iter().enumerate().fold(0u16, |acc, (i, &off)| {
                    acc | (chunk_bit(&corrected, off) as u16) << i
                })
            } else {
                NO_TRANSITION
            });
        }
    }
    out
}

impl SyndromeKernel {
    /// Sentinel in [`Self::raw_elc_fused`]: no ELC entry for this
    /// remainder (the [`FastDecode::Detected`] case).
    pub const NO_ENTRY: u32 = NO_ENTRY;

    /// Whether a layout/multiplier pair is within the kernel's tabulation
    /// limits: every symbol at most 12 bits wide (contents are tabulated as
    /// `2^width` entries) and `m < 2^32` (the check-value fold multiplies
    /// two residues in `u64`). Symbols may scatter across the entire
    /// codeword — the construction-time error arithmetic runs on chunked
    /// 320-bit words, so spread and wide symbol maps tabulate too.
    ///
    /// Codes outside these limits still construct and decode through the
    /// wide path — they just carry no kernel
    /// ([`MuseCode::kernel`](crate::MuseCode::kernel) returns `None`).
    pub fn supports(map: &SymbolMap, m: u64) -> bool {
        m < 1 << 32 && (0..map.num_symbols()).all(|s| map.bits_of(s).len() <= 12)
    }

    /// Builds the kernel for a layout whose error values (grouped by
    /// symbol shape) `m` has validated: every value has a distinct nonzero
    /// remainder, as [`ErrorLookup::from_values`](crate::ErrorLookup::from_values) checks.
    ///
    /// Transition blocks are computed once per (shape, relative error
    /// value) and copied into place, one block per ELC entry in remainder
    /// order. Remainders come from per-bit powers of two: a symbol's value
    /// is its shape's value times `2^base`.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::supports`] is false for the layout (callers gate
    /// on it), or if `m` is not valid for the values.
    pub(crate) fn build(map: &SymbolMap, shaped: &ShapedValues, m: u64, r_bits: u32) -> Self {
        assert!(
            Self::supports(map, m),
            "layout or multiplier {m} outside the kernel's tabulation limits"
        );
        let pow = Pow2Residues::new(m);
        let mut syms = Vec::with_capacity(map.num_symbols());
        let mut residues = Vec::new();
        let mut payload_sources = Vec::with_capacity(map.num_symbols());
        let mut check_sources = Vec::with_capacity(map.num_symbols());
        for s in 0..map.num_symbols() {
            let bits = map.bits_of(s);
            let width = bits.len() as u8;
            let residue_offset = residues.len() as u32;
            // R_s[x] = Σ_{i: x_i=1} 2^{B_s[i]} mod m, built incrementally
            // from the per-bit powers (residues are additive in content
            // bits), so no wide expansion is reduced.
            let bit_pows: Vec<u64> = bits.iter().map(|&b| pow.of_bit(b)).collect();
            let add = |a: u64, b: u64| {
                let sum = a + b;
                if sum >= m {
                    sum - m
                } else {
                    sum
                }
            };
            let base_idx = residues.len();
            residues.push(0);
            for x in 1..1usize << width {
                let low = x.trailing_zeros() as usize;
                let rest = residues[base_idx + (x & (x - 1))];
                residues.push(add(rest, bit_pows[low]));
            }
            let mut psrc = Vec::new();
            let mut csrc = Vec::new();
            let mut check_mask = 0u16;
            for (i, &bit) in bits.iter().enumerate() {
                if bit < r_bits {
                    csrc.push((i as u8, bit as u8));
                    check_mask |= 1 << i;
                } else {
                    psrc.push((i as u8, (bit - r_bits) as u16));
                }
            }
            // Contiguous ascending run entirely in the payload region of a
            // single limb ⇒ one shift-and-mask gathers the content.
            let first = bits[0];
            let contiguous = bits.iter().enumerate().all(|(i, &b)| b == first + i as u32);
            let gather = if contiguous && first >= r_bits {
                let lo = first - r_bits;
                if lo / 64 == (lo + width as u32 - 1) / 64 {
                    Gather::Slice {
                        limb: (lo / 64) as u8,
                        shift: (lo % 64) as u8,
                    }
                } else {
                    Gather::Mixed
                }
            } else {
                Gather::Mixed
            };
            syms.push(SymbolMeta {
                width,
                gather,
                check_mask,
                residue_offset,
            });
            payload_sources.push(psrc);
            check_sources.push(csrc);
        }

        // A fused entry packs a 12-bit symbol index and a 20-bit offset.
        assert!(map.num_symbols() < 1 << 12, "too many symbols to pack");
        let total: usize = shaped
            .symbols
            .iter()
            .map(|&(shape, _)| {
                let shape = &shaped.shapes[shape];
                shape.values.len() << shape.offsets.len()
            })
            .sum();
        assert!(total < 1 << 20, "transition table too large");

        // First pass: each remainder's symbol and the index of its value
        // among the symbol shape's values, packed where the transition
        // offset goes.
        let relative: Vec<Vec<u64>> = shaped
            .shapes
            .iter()
            .map(|shape| shape.values.iter().map(|v| pow.residue(v)).collect())
            .collect();
        let mut elc_fused = vec![NO_ENTRY; m as usize];
        for (symbol, &(shape, base)) in shaped.symbols.iter().enumerate() {
            let scale = pow.of_bit(base);
            for (index, &rel) in relative[shape].iter().enumerate() {
                let rem = (rel * scale % m) as usize;
                assert!(
                    rem != 0 && elc_fused[rem] == NO_ENTRY,
                    "multiplier {m} is not valid for the layout"
                );
                elc_fused[rem] = (index as u32) << 12 | symbol as u32;
            }
        }
        // Second pass, in remainder order: copy each entry's block from its
        // shape and put the block's offset in place of the value index.
        let blocks: Vec<Vec<u16>> = shaped.shapes.iter().map(shape_transitions).collect();
        let mut transitions = Vec::with_capacity(total);
        for packed in elc_fused.iter_mut().filter(|p| **p != NO_ENTRY) {
            let symbol = *packed & 0xFFF;
            let shape = shaped.symbols[symbol as usize].0;
            let len = 1usize << shaped.shapes[shape].offsets.len();
            let start = (*packed >> 12) as usize * len;
            *packed = (transitions.len() as u32) << 12 | symbol;
            transitions.extend_from_slice(&blocks[shape][start..start + len]);
        }

        let k_bits = map.n_bits() - r_bits;
        Self {
            m,
            mod64: Mod64::new(m),
            pow_r: pow.of_bit(r_bits),
            pow_64: pow.of_bit(64),
            payload_limbs: k_bits.div_ceil(64) as usize,
            syms,
            residues,
            payload_sources,
            check_sources,
            elc_fused,
            transitions,
        }
    }

    /// The code multiplier `m`.
    pub fn modulus(&self) -> u64 {
        self.m
    }

    /// Number of symbols.
    pub fn num_symbols(&self) -> usize {
        self.syms.len()
    }

    /// Number of limbs the `k`-bit payload occupies (higher limbs of a
    /// payload array are always zero).
    pub fn payload_limbs(&self) -> usize {
        self.payload_limbs
    }

    /// Width of symbol `sym` in bits.
    #[inline]
    pub fn symbol_bits(&self, sym: usize) -> u32 {
        self.syms[sym].width as u32
    }

    /// Content bits of `sym` that live in the check region (codeword bits
    /// `< r`). Flips confined to these bits leave the payload untouched.
    #[inline]
    pub fn check_mask(&self, sym: usize) -> u16 {
        self.syms[sym].check_mask
    }

    /// Content bits of `sym` that carry payload (codeword bits `≥ r`).
    #[inline]
    pub fn payload_mask(&self, sym: usize) -> u16 {
        !self.syms[sym].check_mask & self.width_mask(sym)
    }

    /// All-ones mask over `sym`'s content bits.
    #[inline]
    pub fn width_mask(&self, sym: usize) -> u16 {
        ((1u32 << self.syms[sym].width) - 1) as u16
    }

    /// Whether computing `sym`'s content requires the check value `X`.
    #[inline]
    pub fn needs_check_value(&self, sym: usize) -> bool {
        self.syms[sym].check_mask != 0
    }

    /// Modular addition in `[0, m)`.
    #[inline]
    pub fn add_mod(&self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.m {
            s - self.m
        } else {
            s
        }
    }

    /// The check value `X = (m − payload·2^r mod m) mod m` of the encoded
    /// codeword, folded from the payload limbs with the division-free
    /// Barrett reduction (no wide multiply).
    pub fn check_value(&self, payload: &[u64; 5]) -> u64 {
        let mut acc: u64 = 0;
        for &limb in payload[..self.payload_limbs].iter().rev() {
            // acc·2^64 + limb (mod m); acc and pow_64 are < m < 2^32, so
            // the product fits u64 alongside the reduced limb.
            acc = self.mod64.rem(acc * self.pow_64 + self.mod64.rem(limb));
        }
        let shifted = self.mod64.rem(acc * self.pow_r);
        if shifted == 0 {
            0
        } else {
            self.m - shifted
        }
    }

    /// Fills in the check-region bits of `sym`'s content given its
    /// payload-part `vp` and the check value `x`.
    #[inline]
    pub fn apply_check_bits(&self, sym: usize, vp: u16, x: u64) -> u16 {
        let mut content = vp;
        for &(i, cbit) in &self.check_sources[sym] {
            content |= (((x >> cbit) & 1) as u16) << i;
        }
        content
    }

    /// A symbol's stored content from raw uniform bits: payload bits kept
    /// within the symbol width, check-region bits filled from the check
    /// value. `x` is called only when `sym` owns check bits, so a caller
    /// drawing the check value lazily draws it exactly when first needed.
    #[inline]
    pub fn content_from_raw(&self, sym: usize, raw: u16, x: impl FnOnce() -> u64) -> u16 {
        if self.needs_check_value(sym) {
            self.apply_check_bits(sym, raw & self.payload_mask(sym), x())
        } else {
            raw & self.width_mask(sym)
        }
    }

    /// The content of `sym` in the codeword encoding `payload` (limbs of the
    /// `k`-bit payload) with check value `x` (from [`Self::check_value`];
    /// pass anything when [`Self::needs_check_value`] is false).
    #[inline]
    pub fn encoded_content(&self, sym: usize, payload: &[u64; 5], x: u64) -> u16 {
        let meta = self.syms[sym];
        if let Gather::Slice { limb, shift } = meta.gather {
            return (payload[limb as usize] >> shift) as u16 & ((1u32 << meta.width) - 1) as u16;
        }
        let mut content = 0u16;
        for &(i, pbit) in &self.payload_sources[sym] {
            content |= (((payload[(pbit >> 6) as usize] >> (pbit & 63)) & 1) as u16) << i;
        }
        for &(i, cbit) in &self.check_sources[sym] {
            content |= (((x >> cbit) & 1) as u16) << i;
        }
        content
    }

    /// Residue of symbol `sym` holding `content`.
    #[inline]
    pub fn residue(&self, sym: usize, content: u16) -> u64 {
        self.residues[self.syms[sym].residue_offset as usize + content as usize]
    }

    /// Start of `sym`'s block in the flat residue table
    /// ([`Self::raw_residues`]). For uniform-width layouts this is
    /// `sym << width`; shuffled or mixed-width maps get whatever the
    /// construction packed.
    #[inline]
    pub fn residue_offset(&self, sym: usize) -> u32 {
        self.syms[sym].residue_offset
    }

    /// The flat per-symbol residue table: symbol `sym` holding content `x`
    /// contributes `raw_residues()[residue_offset(sym) + x]`. Raw view for
    /// the lane-parallel (SoA/SIMD) trial kernels in `muse-faultsim`,
    /// whose gather loops index the table directly instead of calling
    /// [`Self::residue`] per lane.
    #[inline]
    pub fn raw_residues(&self) -> &[u64] {
        &self.residues
    }

    /// The fused classify table, indexed by remainder `[0, m)`: either
    /// [`Self::NO_ENTRY`] or `(transition offset << 12) | symbol` — the raw
    /// form behind [`Self::classify`], exposed for the lane kernels' block
    /// probes.
    #[inline]
    pub fn raw_elc_fused(&self) -> &[u32] {
        &self.elc_fused
    }

    /// Syndrome delta caused by XOR-flipping `pattern` onto symbol `sym`
    /// currently holding `content`.
    #[inline]
    pub fn flip_delta(&self, sym: usize, content: u16, pattern: u16) -> u64 {
        let offset = self.syms[sym].residue_offset as usize;
        let after = self.residues[offset + (content ^ pattern) as usize];
        let before = self.residues[offset + content as usize];
        self.add_mod(after, self.m - before)
    }

    /// First decode stage: classify a syndrome (one fused table load).
    #[inline]
    pub fn classify(&self, rem: u64) -> FastDecode {
        if rem == 0 {
            return FastDecode::Clean;
        }
        match self.elc_fused[rem as usize] {
            NO_ENTRY => FastDecode::Detected,
            packed => FastDecode::Correct {
                symbol: (packed & 0xFFF) as usize,
            },
        }
    }

    /// Second decode stage: given the matched remainder and the *current*
    /// content of the matched symbol, the corrected content — or `None` when
    /// the correction escapes the symbol (detected uncorrectable).
    #[inline]
    pub fn correct(&self, rem: u64, content: u16) -> Option<u16> {
        let packed = self.elc_fused[rem as usize];
        debug_assert!(packed != NO_ENTRY, "correct() requires a matched remainder");
        match self.transitions[(packed >> 12) as usize + content as usize] {
            NO_TRANSITION => None,
            w => Some(w),
        }
    }

    /// Finishes a healthy read whose strikes left remainder `rem` — the
    /// decoder's last step (Section V): a zero remainder reads back as
    /// stored, an unmapped remainder is detected, and a matched ELC entry
    /// corrects its symbol unless the correction escapes it (also
    /// detected).
    ///
    /// `strikes` are the read's `(symbol, xor pattern)` disturbances, at
    /// most one per symbol (each pattern is that symbol's total flip).
    /// `original_of(symbol)` supplies a symbol's stored, pre-strike
    /// content; it is called at most once, for the matched symbol only, so
    /// lazily sampled contents are drawn only when the decode observes
    /// them.
    #[inline]
    pub fn finish_read(
        &self,
        rem: u64,
        strikes: &[(usize, u16)],
        original_of: impl FnOnce(usize) -> u16,
    ) -> ReadOutcome {
        // Whether every strike except the one on `skip` spared the payload.
        let payload_clean = |skip: usize| {
            strikes
                .iter()
                .all(|&(s, p)| s == skip || p & self.payload_mask(s) == 0)
        };
        match self.classify(rem) {
            FastDecode::Clean if payload_clean(usize::MAX) => ReadOutcome::CleanIntact,
            FastDecode::Clean => ReadOutcome::CleanCorrupted,
            FastDecode::Detected => ReadOutcome::Detected,
            FastDecode::Correct { symbol } => {
                let original = original_of(symbol);
                let injected = strikes
                    .iter()
                    .find(|&&(s, _)| s == symbol)
                    .map_or(0, |&(_, p)| p);
                match self.correct(rem, original ^ injected) {
                    None => ReadOutcome::Detected,
                    Some(corrected)
                        if (corrected ^ original) & self.payload_mask(symbol) == 0
                            && payload_clean(symbol) =>
                    {
                        ReadOutcome::CorrectedRight
                    }
                    Some(_) => ReadOutcome::Miscorrected,
                }
            }
        }
    }

    /// Builds the residue-space erasure solver for a fixed set of erased
    /// symbols (known-failed devices) — the degraded-mode analogue of
    /// [`MuseCode::recover_erasures`](crate::MuseCode::recover_erasures),
    /// reduced to one table lookup per read.
    ///
    /// # Panics
    ///
    /// Panics if the erased symbols span more than 16 total bits (the same
    /// enumeration limit as the wide erasure decoder), contain duplicates,
    /// or name an out-of-range symbol.
    pub fn erasure_table(&self, symbols: &[usize]) -> ErasureTable {
        ErasureTable::build(self, symbols)
    }

    /// Symbol contents of an arbitrary wide codeword (reference/test path).
    pub fn contents_of_word(&self, map: &SymbolMap, word: &Word) -> Vec<u16> {
        (0..map.num_symbols())
            .map(|s| {
                let mut content = 0u16;
                for (i, &bit) in map.bits_of(s).iter().enumerate() {
                    if word.bit(bit) {
                        content |= 1 << i;
                    }
                }
                content
            })
            .collect()
    }

    /// Total syndrome of a full content assignment (0 for any valid
    /// codeword).
    pub fn residue_of_contents(&self, contents: &[u16]) -> u64 {
        contents
            .iter()
            .enumerate()
            .fold(0, |acc, (s, &v)| self.add_mod(acc, self.residue(s, v)))
    }
}

#[cfg(test)]
impl SyndromeKernel {
    /// The check value `X` implied by the payload-part contents of every
    /// symbol: `X = (m − Σ_s R_s[vp_s]) mod m` — the unique filling of the
    /// check bits that makes the codeword divisible by `m`.
    ///
    /// `vp` must hold, for each symbol, its content restricted to
    /// [`Self::payload_mask`] (check-region bits zero).
    pub(crate) fn check_value_of_parts(&self, vp: &[u16]) -> u64 {
        let t = vp
            .iter()
            .enumerate()
            .fold(0, |acc, (s, &v)| self.add_mod(acc, self.residue(s, v)));
        if t == 0 {
            0
        } else {
            self.m - t
        }
    }

    /// Every ELC entry as `(remainder, owning symbol)`, in remainder order
    /// — the kernel-side view of the correctable-error hypothesis space the
    /// combined erasure-plus-error solve
    /// ([`ErasureTable::solve_combined`]) draws from (the solve itself
    /// scans the table's occupied residues, the smaller side).
    pub(crate) fn elc_entries(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.elc_fused
            .iter()
            .enumerate()
            .filter(|&(_, &packed)| packed != NO_ENTRY)
            .map(|(rem, &packed)| (rem as u64, (packed & 0xFFF) as usize))
    }

    /// The construction the shape-based [`Self::build`] replaced: the ELC
    /// from the per-symbol enumeration and wide remainders, every symbol's
    /// residues from its own powers of two, and every ELC entry's
    /// transition block computed on its own, in chunked 320-bit
    /// arithmetic. Kept as the oracle the shape-based build must match
    /// table for table; the per-symbol metadata, which the shape-based
    /// build did not change, is taken from it.
    pub(crate) fn build_per_symbol(
        map: &SymbolMap,
        model: &ErrorModel,
        m: u64,
        r_bits: u32,
    ) -> Self {
        let elc = ErrorLookup::from_values_wide(&enumerate_per_symbol(map, model), m)
            .expect("a valid multiplier");
        // All per-content arithmetic happens in chunked 320-bit space
        // shifted down by each symbol's lowest bit: error values are
        // confined to one symbol's bit positions, which may scatter across
        // the whole codeword, but the wide words never need to materialize.
        struct SymbolSpan {
            base: u32,
            expand: Vec<Chunks>,
            mask: Chunks,
        }
        let spans: Vec<SymbolSpan> = (0..map.num_symbols())
            .map(|s| {
                let bits = map.bits_of(s);
                let base = *bits.iter().min().expect("non-empty symbol");
                let expand = (0..1usize << bits.len())
                    .map(|content| {
                        let mut v = [0u64; 5];
                        for (i, &bit) in bits.iter().enumerate() {
                            if content >> i & 1 == 1 {
                                chunk_set_bit(&mut v, bit - base);
                            }
                        }
                        v
                    })
                    .collect();
                let mut mask = [0u64; 5];
                for &bit in bits {
                    chunk_set_bit(&mut mask, bit - base);
                }
                SymbolSpan { base, expand, mask }
            })
            .collect();
        let pow2_mod = |exp: u32| -> u64 {
            // 2^exp mod m by shifting in ≤32-bit steps (m < 2^32, exp < 320).
            let mut result: u128 = 1 % m as u128;
            let mut remaining = exp;
            while remaining > 0 {
                let step = remaining.min(32);
                result = (result << step) % m as u128;
                remaining -= step;
            }
            result as u64
        };

        let mut residues = Vec::new();
        for s in 0..map.num_symbols() {
            let bits = map.bits_of(s);
            // R_s[x] = Σ_{i: x_i=1} 2^{B_s[i]} mod m, built incrementally
            // from the per-bit powers.
            let bit_pows: Vec<u64> = bits.iter().map(|&b| pow2_mod(b)).collect();
            let base_idx = residues.len();
            residues.push(0);
            for x in 1..1usize << bits.len() {
                let rest = residues[base_idx + (x & (x - 1))];
                residues.push((rest + bit_pows[x.trailing_zeros() as usize]) % m);
            }
        }

        let mut elc_fused = vec![NO_ENTRY; m as usize];
        let mut transitions = Vec::new();
        for rem in 1..m {
            let Some(entry) = elc.lookup(rem) else {
                continue;
            };
            let bits = map.bits_of(entry.symbol);
            let span = &spans[entry.symbol];
            // The error value is a sum of ±2^b over this symbol's bits, so
            // its magnitude shifted down by the span base fits the chunks.
            let mag = entry.error.magnitude();
            debug_assert!(mag.trailing_zeros() >= span.base);
            let mag_chunks = (*mag >> span.base).to_limbs();
            let negative = entry.error.is_negative();
            let offset = transitions.len() as u32;
            for content in 0..1usize << bits.len() {
                // corrected = expand(v) − e; a borrow/carry escaping the
                // symbol sets bits outside the mask, which is exactly the
                // wide decoder's confinement rejection (Figure 4, method 2).
                let (corrected, escaped) = if negative {
                    chunk_add(&span.expand[content], &mag_chunks)
                } else {
                    chunk_sub(&span.expand[content], &mag_chunks)
                };
                transitions.push(if !escaped && !chunk_escapes(&corrected, &span.mask) {
                    bits.iter().enumerate().fold(0u16, |acc, (i, &bit)| {
                        acc | (chunk_bit(&corrected, bit - span.base) as u16) << i
                    })
                } else {
                    NO_TRANSITION
                });
            }
            elc_fused[rem as usize] = offset << 12 | entry.symbol as u32;
        }

        Self {
            pow_r: pow2_mod(r_bits),
            pow_64: pow2_mod(64),
            residues,
            elc_fused,
            transitions,
            ..Self::build(map, &ShapedValues::new(map, model), m, r_bits)
        }
    }
}

/// Result of a residue-space erasure solve: the unique filling of the
/// erased symbols that restores divisibility, or why none exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErasureSolve {
    /// No filling of the erased symbols makes the word divisible by `m` —
    /// a detected-uncorrectable read (extra errors shifted the syndrome
    /// outside the reachable set).
    None,
    /// More than one filling restores divisibility; the decoder cannot
    /// choose (the wide path returns `None` for these too).
    Ambiguous,
    /// Exactly one filling works; fetch per-symbol contents with
    /// [`ErasureTable::content_of`].
    Unique(
        /// Packed filling token (erased symbols' contents concatenated).
        u32,
    ),
}

/// Precomputed residue-space erasure solver for one fixed set of erased
/// symbols — degraded-mode (known-failed-chip) decoding as table lookups.
///
/// The wide decoder ([`MuseCode::recover_erasures`](crate::MuseCode::recover_erasures))
/// zeroes the erased bits and enumerates every filling per read. This table
/// runs that enumeration **once** at construction: for each combined
/// content assignment `f` of the erased symbols it records the residue
/// `Σ_s R_s(f_s) mod m`, so a read reduces to
///
/// 1. accumulate `rem_rest`, the syndrome contribution of the *non-erased*
///    symbols (incrementally, via [`SyndromeKernel::residue`] /
///    [`SyndromeKernel::flip_delta`] — no wide word);
/// 2. look up `target = (m − rem_rest) mod m`: the unique filling with that
///    residue restores divisibility; zero or several fillings mean the
///    read is detected-uncorrectable.
///
/// Cross-validated against the wide decoder by
/// `muse-core/tests/erasure_equivalence.rs` for every preset.
#[derive(Debug, Clone)]
pub struct ErasureTable {
    symbols: Vec<usize>,
    widths: Vec<u8>,
    /// Bit offset of each erased symbol's content in the packed filling.
    offsets: Vec<u8>,
    /// Residue → packed filling, [`NO_FILLING`], or [`AMBIGUOUS_FILLING`].
    table: Vec<u32>,
    /// The occupied residues `(residue, slot)` in ascending residue order —
    /// the combined solve's scan space (at most one entry per filling,
    /// instead of one per ELC remainder).
    occupied: Vec<(u64, u32)>,
    /// Whether every filling maps to a distinct residue (no ambiguity
    /// anywhere — every clean degraded read recovers).
    injective: bool,
}

/// Sentinel in the erasure table: no filling reaches this residue.
const NO_FILLING: u32 = u32::MAX;
/// Sentinel in the erasure table: several fillings reach this residue.
const AMBIGUOUS_FILLING: u32 = u32::MAX - 1;

/// Result of a combined erasure-plus-error solve
/// ([`ErasureTable::solve_combined`]): the MUSE analogue of Forney-style
/// combined Reed-Solomon decoding — fill the erased symbols *and* correct
/// one in-model error on a surviving symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedSolve {
    /// No filling (with or without one correctable survivor error) explains
    /// the syndrome: detected-uncorrectable.
    None,
    /// More than one explanation exists; the decoder cannot choose.
    Ambiguous,
    /// A plain erasure solve succeeded — no survivor error assumed.
    Unique(
        /// Packed filling token ([`ErasureTable::content_of`]).
        u32,
    ),
    /// Exactly one (filling, ELC entry) pair explains the syndrome: fill
    /// the erased symbols and finish with
    /// [`SyndromeKernel::correct`]`(rem, current)` on the named survivor —
    /// whose confinement check may still reject the correction (detected).
    Corrected {
        /// Packed filling token ([`ErasureTable::content_of`]).
        filling: u32,
        /// The matched ELC remainder (feed to [`SyndromeKernel::correct`]).
        rem: u64,
        /// The surviving symbol the matched error is confined to.
        symbol: usize,
    },
}

impl ErasureTable {
    fn build(kernel: &SyndromeKernel, symbols: &[usize]) -> Self {
        let widths: Vec<u8> = symbols
            .iter()
            .map(|&s| {
                assert!(s < kernel.num_symbols(), "erased symbol {s} out of range");
                kernel.symbol_bits(s) as u8
            })
            .collect();
        for (i, &s) in symbols.iter().enumerate() {
            assert!(!symbols[..i].contains(&s), "duplicate erased symbol {s}");
        }
        let total_bits: u32 = widths.iter().map(|&w| w as u32).sum();
        assert!(total_bits <= 16, "erasure search space too large");
        let mut offsets = Vec::with_capacity(symbols.len());
        let mut acc = 0u8;
        for &w in &widths {
            offsets.push(acc);
            acc += w;
        }
        let mut table = vec![NO_FILLING; kernel.modulus() as usize];
        let mut injective = true;
        for filling in 0..1u32 << total_bits {
            let rem = symbols.iter().enumerate().fold(0u64, |r, (i, &s)| {
                let content = (filling >> offsets[i]) as u16 & ((1u16 << widths[i]) - 1);
                kernel.add_mod(r, kernel.residue(s, content))
            });
            let slot = &mut table[rem as usize];
            if *slot == NO_FILLING {
                *slot = filling;
            } else {
                *slot = AMBIGUOUS_FILLING;
                injective = false;
            }
        }
        let occupied = table
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_FILLING)
            .map(|(rem, &slot)| (rem as u64, slot))
            .collect();
        Self {
            symbols: symbols.to_vec(),
            widths,
            offsets,
            table,
            occupied,
            injective,
        }
    }

    /// The erased symbols, in construction order.
    pub fn symbols(&self) -> &[usize] {
        &self.symbols
    }

    /// Whether every filling has a distinct residue: every *clean* degraded
    /// read (no additional errors) recovers uniquely. False means some
    /// stored contents are unrecoverable even without further faults — the
    /// wide decoder's "ambiguous" case — e.g. device pairs whose spanned
    /// width defeats the `2^w − 1 < m·2^v` condition of Section IV.
    pub fn is_injective(&self) -> bool {
        self.injective
    }

    /// Solves for the filling whose residue equals `target`
    /// (`= (m − rem_rest) mod m` where `rem_rest` is the syndrome
    /// contribution of the non-erased symbols as read).
    #[inline]
    pub fn solve(&self, target: u64) -> ErasureSolve {
        match self.table[target as usize] {
            NO_FILLING => ErasureSolve::None,
            AMBIGUOUS_FILLING => ErasureSolve::Ambiguous,
            filling => ErasureSolve::Unique(filling),
        }
    }

    /// Unpacks the content of the `i`-th erased symbol (construction order)
    /// from a [`ErasureSolve::Unique`] filling token.
    #[inline]
    pub fn content_of(&self, filling: u32, i: usize) -> u16 {
        (filling >> self.offsets[i]) as u16 & ((1u16 << self.widths[i]) - 1)
    }

    /// Combined erasure-plus-error solving: like [`Self::solve`], but when
    /// no plain filling reaches `target`, additionally considers **one**
    /// correctable (in-model) error on a *surviving* symbol — the MUSE
    /// analogue of Forney-style combined Reed-Solomon decoding. A filling
    /// `f` together with ELC entry `(rem, symbol ∉ erased)` explains the
    /// read when `residue(f) ≡ target + rem (mod m)`: the filled word then
    /// carries remainder `rem` and the ordinary fast-ELC correction
    /// finishes the decode.
    ///
    /// The plain solve wins when it succeeds (zero assumed errors beats
    /// one); otherwise the ELC entries are scanned and the solve commits
    /// only to a **unique** explanation — any second candidate, or any
    /// candidate whose filling is itself ambiguous, is detected
    /// uncorrectable (MUSE's single residue has no extra syndrome
    /// equations to disambiguate with, unlike the `2t` Reed-Solomon
    /// syndromes). Entries on erased symbols are skipped: a correction
    /// there is just another filling, which the plain solve already
    /// covered.
    ///
    /// `viable(rem, symbol)` is the caller's content-dependent confinement
    /// check ([`SyndromeKernel::correct`] on the survivor's current
    /// content): a wide decoder enumerating fillings rejects unconfined
    /// corrections during candidacy, and filtering here mirrors that —
    /// which is what keeps genuinely explainable reads from drowning in
    /// coincidental table hits. Pass `|_, _| true` for the
    /// content-independent variant.
    ///
    /// The scan walks this table's *occupied residues* (one per filling,
    /// ascending) rather than the ELC: a filling at residue `ρ` pairs with
    /// ELC remainder `ρ − target (mod m)`, checked with one fused-table
    /// load — so a failed solve costs `O(fillings)`, not `O(m)`.
    ///
    /// `kernel` must be the kernel this table was built from.
    pub fn solve_combined(
        &self,
        kernel: &SyndromeKernel,
        target: u64,
        mut viable: impl FnMut(u64, usize) -> bool,
    ) -> CombinedSolve {
        match self.solve(target) {
            ErasureSolve::Unique(filling) => return CombinedSolve::Unique(filling),
            ErasureSolve::Ambiguous => return CombinedSolve::Ambiguous,
            ErasureSolve::None => {}
        }
        let m = kernel.modulus();
        let mut found: Option<(u32, u64, usize)> = None;
        for &(rho, slot) in &self.occupied {
            // residue(filling) + rem_rest ≡ rem: the filled word carries
            // remainder ρ − target.
            let rem = if rho >= target {
                rho - target
            } else {
                rho + m - target
            };
            let FastDecode::Correct { symbol } = kernel.classify(rem) else {
                continue; // rem 0 is the (failed) pure solve; others no entry
            };
            if self.symbols.contains(&symbol) || !viable(rem, symbol) {
                continue;
            }
            if slot == AMBIGUOUS_FILLING || found.is_some() {
                // Two fillings share the shifted residue, or a second
                // (rem, filling) explanation exists: the decoder cannot
                // choose.
                return CombinedSolve::Ambiguous;
            }
            found = Some((slot, rem, symbol));
        }
        match found {
            Some((filling, rem, symbol)) => CombinedSolve::Corrected {
                filling,
                rem,
                symbol,
            },
            None => CombinedSolve::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{CombinedSolve, ErasureSolve, Mod64};
    use crate::{presets, Decoded, MuseCode, Word};

    fn payload_limbs(code: &MuseCode, raw: [u64; 5]) -> ([u64; 5], Word) {
        let word = Word::from_limbs(raw) & Word::mask(code.k_bits());
        (word.to_limbs(), word)
    }

    #[test]
    fn supports_matches_tabulation_limits() {
        use crate::SymbolMap;
        use crate::SyndromeKernel;
        // Every preset layout is supported (their kernels exist).
        for code in [
            presets::muse_144_132(),
            presets::muse_80_67(),
            presets::muse_268_256(),
        ] {
            assert!(SyndromeKernel::supports(
                code.symbol_map(),
                code.multiplier()
            ));
            assert!(code.kernel().is_some(), "{}", code.name());
        }
        // 13-bit symbols exceed the content-table width.
        let wide = SymbolMap::sequential(78, 13).unwrap();
        assert!(!SyndromeKernel::supports(&wide, 4065));
        // A symbol spanning bits 0..143 tabulates too: the chunked span
        // arithmetic removed the old 120-bit span limit.
        let mut groups: Vec<Vec<u32>> = (0..36).map(|i| (4 * i..4 * i + 4).collect()).collect();
        groups[0][3] = 143;
        groups[35][3] = 3;
        let spread = SymbolMap::from_groups(144, groups).unwrap();
        assert!(SyndromeKernel::supports(&spread, 4065));
        // Multipliers at or beyond 2^32 exceed the u64 fold.
        let seq = SymbolMap::sequential(144, 4).unwrap();
        assert!(SyndromeKernel::supports(&seq, 4065));
        assert!(!SyndromeKernel::supports(&seq, 1 << 32));
    }

    #[test]
    fn barrett_reduction_is_exact() {
        for m in [
            3u64,
            821,
            2005,
            4065,
            5621,
            65519,
            (1 << 31) - 1,
            u64::MAX - 58,
        ] {
            let reducer = Mod64::new(m);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..2_000 {
                assert_eq!(reducer.rem(x), x % m, "x={x} m={m}");
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(1);
            }
            for x in [0, 1, m - 1, m, m + 1, u64::MAX, u64::MAX - 1] {
                assert_eq!(reducer.rem(x), x % m, "x={x} m={m}");
            }
        }
    }

    #[test]
    fn check_value_matches_encoder() {
        for code in [
            presets::muse_144_132(),
            presets::muse_80_69(),
            presets::muse_80_67(),
        ] {
            let kernel = code.kernel().expect("presets support the kernel");
            let (limbs, payload) =
                payload_limbs(&code, [0xDEAD_BEEF, 0x0123_4567_89AB_CDEF, 0x55AA, 0, 7]);
            let cw = code.encode(&payload);
            let x = kernel.check_value(&limbs);
            assert_eq!(
                Word::from(x),
                cw & Word::mask(code.r_bits()),
                "check bits for {}",
                code.name()
            );
        }
    }

    #[test]
    fn check_value_of_parts_matches_fold() {
        for code in [
            presets::muse_144_132(),
            presets::muse_80_67(),
            presets::muse_80_70(),
        ] {
            let kernel = code.kernel().expect("presets support the kernel");
            let (limbs, payload) = payload_limbs(&code, [0xABCD, !0, 0x1234_5678, 0, 0]);
            let cw = code.encode(&payload);
            let contents = kernel.contents_of_word(code.symbol_map(), &cw);
            let parts: Vec<u16> = (0..kernel.num_symbols())
                .map(|s| contents[s] & kernel.payload_mask(s))
                .collect();
            assert_eq!(
                kernel.check_value_of_parts(&parts),
                kernel.check_value(&limbs),
                "{}",
                code.name()
            );
            // And applying the check bits reproduces the full contents.
            let x = kernel.check_value(&limbs);
            for s in 0..kernel.num_symbols() {
                assert_eq!(kernel.apply_check_bits(s, parts[s], x), contents[s]);
            }
        }
    }

    #[test]
    fn encoded_contents_match_wide_word() {
        for code in [
            presets::muse_144_132(),
            presets::muse_80_67(),
            presets::muse_80_70(),
        ] {
            let kernel = code.kernel().expect("presets support the kernel");
            let (limbs, payload) = payload_limbs(&code, [!0, 0x1357_9BDF, !0, 0xFFFF, 1]);
            let cw = code.encode(&payload);
            let reference = kernel.contents_of_word(code.symbol_map(), &cw);
            let x = kernel.check_value(&limbs);
            for (sym, &expected) in reference.iter().enumerate() {
                assert_eq!(
                    kernel.encoded_content(sym, &limbs, x),
                    expected,
                    "symbol {sym} of {}",
                    code.name()
                );
            }
            assert_eq!(kernel.residue_of_contents(&reference), 0);
        }
    }

    #[test]
    fn flip_delta_matches_wide_remainder() {
        let code = presets::muse_80_69();
        let kernel = code.kernel().expect("presets support the kernel");
        let (_, payload) = payload_limbs(&code, [42, 99, 0, 0, 0]);
        let cw = code.encode(&payload);
        let contents = kernel.contents_of_word(code.symbol_map(), &cw);
        for sym in [0usize, 7, 19] {
            for pattern in 1u16..16 {
                let mut corrupted = cw;
                for (i, &bit) in code.symbol_map().bits_of(sym).iter().enumerate() {
                    if pattern >> i & 1 == 1 {
                        corrupted.toggle_bit(bit);
                    }
                }
                assert_eq!(
                    kernel.flip_delta(sym, contents[sym], pattern),
                    code.remainder(&corrupted),
                    "sym {sym} pattern {pattern:04b}"
                );
            }
        }
    }

    #[test]
    fn fast_decode_agrees_on_single_device_errors() {
        for code in [presets::muse_144_132(), presets::muse_80_69()] {
            let kernel = code.kernel().expect("presets support the kernel");
            let (_, payload) = payload_limbs(&code, [0xFEED_FACE, 3, 0, 0, 0]);
            let cw = code.encode(&payload);
            let contents = kernel.contents_of_word(code.symbol_map(), &cw);
            for (sym, &content) in contents.iter().enumerate() {
                for pattern in 1u16..1 << kernel.symbol_bits(sym) {
                    let rem = kernel.flip_delta(sym, content, pattern);
                    match kernel.classify(rem) {
                        super::FastDecode::Correct { symbol } => {
                            assert_eq!(symbol, sym);
                            let corrupted = contents[sym] ^ pattern;
                            assert_eq!(
                                kernel.correct(rem, corrupted),
                                Some(contents[sym]),
                                "in-model error must correct back"
                            );
                        }
                        other => {
                            panic!("{}: sym {sym} pattern {pattern:b}: {other:?}", code.name())
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_decode_matches_wide_on_double_errors() {
        let code = presets::muse_144_132();
        let kernel = code.kernel().expect("presets support the kernel");
        let (_, payload) = payload_limbs(&code, [0x0F1E_2D3C, 0, 0, 0, 0]);
        let cw = code.encode(&payload);
        let contents = kernel.contents_of_word(code.symbol_map(), &cw);
        let mut seen_detected = false;
        let mut seen_miscorrected = false;
        for a in 0..code.symbol_map().num_symbols() {
            for b in a + 1..code.symbol_map().num_symbols() {
                let (pat_a, pat_b) = (0b0010u16, 0b0101u16);
                let mut corrupted = cw;
                for (pat, sym) in [(pat_a, a), (pat_b, b)] {
                    for (i, &bit) in code.symbol_map().bits_of(sym).iter().enumerate() {
                        if pat >> i & 1 == 1 {
                            corrupted.toggle_bit(bit);
                        }
                    }
                }
                let rem = kernel.add_mod(
                    kernel.flip_delta(a, contents[a], pat_a),
                    kernel.flip_delta(b, contents[b], pat_b),
                );
                assert_eq!(rem, code.remainder(&corrupted));
                let wide = code.decode(&corrupted);
                match kernel.classify(rem) {
                    super::FastDecode::Clean => {
                        panic!("double error must not alias to zero here")
                    }
                    super::FastDecode::Detected => {
                        assert_eq!(wide, Decoded::Detected);
                        seen_detected = true;
                    }
                    super::FastDecode::Correct { symbol } => {
                        let current = if symbol == a {
                            contents[a] ^ pat_a
                        } else if symbol == b {
                            contents[b] ^ pat_b
                        } else {
                            contents[symbol]
                        };
                        match (kernel.correct(rem, current), wide) {
                            (None, Decoded::Detected) => seen_detected = true,
                            (Some(_), Decoded::Corrected { symbol: ws, .. }) => {
                                assert_eq!(ws, symbol);
                                seen_miscorrected = true;
                            }
                            (fast, wide) => panic!("fast {fast:?} vs wide {wide:?}"),
                        }
                    }
                }
            }
        }
        assert!(
            seen_detected && seen_miscorrected,
            "both outcomes exercised"
        );
    }

    #[test]
    fn combined_scan_matches_elc_entry_brute_force() {
        // The occupied-residue scan of `solve_combined` must find exactly
        // the candidates a brute-force walk of `elc_entries()` finds: a
        // filling at residue ρ pairs with ELC remainder ρ − target, i.e.
        // table[target + rem] occupied for entry `rem` — the two scan
        // directions are bijective.
        let code = presets::muse_80_69();
        let kernel = code.kernel().expect("presets support the kernel");
        let table = kernel.erasure_table(&[4]);
        let m = kernel.modulus();
        for target in (0..m).step_by(7) {
            // Brute force over every ELC entry, content-independent.
            let mut found: Vec<(u64, usize)> = Vec::new();
            let mut ambiguous = false;
            for (rem, symbol) in kernel.elc_entries() {
                if symbol == 4 {
                    continue;
                }
                match table.solve(kernel.add_mod(target, rem)) {
                    ErasureSolve::None => {}
                    ErasureSolve::Ambiguous => ambiguous = true,
                    ErasureSolve::Unique(_) => found.push((rem, symbol)),
                }
            }
            let fast = table.solve_combined(kernel, target, |_, _| true);
            match fast {
                CombinedSolve::Unique(_) => {
                    assert!(matches!(table.solve(target), ErasureSolve::Unique(_)));
                }
                CombinedSolve::Corrected { rem, symbol, .. } => {
                    assert!(!ambiguous && found.len() == 1, "target {target}");
                    assert_eq!(found[0], (rem, symbol), "target {target}");
                }
                CombinedSolve::Ambiguous => {
                    assert!(
                        ambiguous
                            || found.len() > 1
                            || matches!(table.solve(target), ErasureSolve::Ambiguous),
                        "target {target}"
                    );
                }
                CombinedSolve::None => {
                    assert!(!ambiguous && found.is_empty(), "target {target}");
                }
            }
        }
    }

    #[test]
    fn masks_partition_symbol_bits() {
        for code in [
            presets::muse_80_69(),
            presets::muse_80_67(),
            presets::muse_80_70(),
        ] {
            let kernel = code.kernel().expect("presets support the kernel");
            for sym in 0..kernel.num_symbols() {
                let full = kernel.width_mask(sym);
                assert_eq!(kernel.check_mask(sym) | kernel.payload_mask(sym), full);
                assert_eq!(kernel.check_mask(sym) & kernel.payload_mask(sym), 0);
                assert_eq!(kernel.needs_check_value(sym), kernel.check_mask(sym) != 0);
            }
            // Every check bit is owned by exactly one symbol.
            let owned: u32 = (0..kernel.num_symbols())
                .map(|s| kernel.check_mask(s).count_ones())
                .sum();
            assert_eq!(owned, code.r_bits());
        }
    }
}
