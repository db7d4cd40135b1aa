//! The unified syndrome-domain word-read classification backend.
//!
//! Every Monte-Carlo simulator in this workspace asks the same question:
//! *given a set of known-failed (erased) devices and a handful of
//! disturbances, how does one word read end* — correct, detected
//! uncorrectable, or silently wrong? This module pins that question down as
//! the [`Classifier`] trait so the fleet-lifetime simulator, the fault
//! injectors, and the benches all classify through one backend per code
//! family instead of falling back to wide-word encode/decode pipelines:
//!
//! * **MUSE** — [`MuseClassifier`], over [`SyndromeKernel`] residues: symbol
//!   contents are sampled lazily (uniform payload bits, check bits from a
//!   lazily drawn check value), the syndrome accumulates through
//!   [`SyndromeKernel::residue`]/[`SyndromeKernel::flip_delta`], healthy
//!   reads finish with [`SyndromeKernel::finish_read`] (the fused ELC
//!   classify/correct stages that also end every `muse-faultsim` trial),
//!   and degraded reads finish with a **combined** erasure-plus-error solve
//!   ([`ErasureTable::solve_combined`]): fill the erased symbols and, when
//!   that alone cannot explain the syndrome, correct one in-model error on
//!   a survivor.
//! * **Reed-Solomon** — `RsClassifier` in the `muse-rs` crate, over GF
//!   syndromes: device strikes fold into per-symbol error values, and one
//!   finish locates the errors (healthy) or runs the Forney-style
//!   combined decode (degraded), then applies the shortened-top range
//!   check and the residual check. `muse-faultsim`'s RS MSED trials
//!   classify through its `read_healthy`.
//!
//! The backends never materialize a codeword; the wide decoders survive
//! only as property-test oracles (see the `muse-lifetime` classification
//! tests and `muse-core/tests/erasure_equivalence.rs`).

use crate::{CombinedSolve, ErasureTable, ReadOutcome, SyndromeKernel};

/// Outcome of classifying one word read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordRead {
    /// The data read back correct (possibly after correction / erasure
    /// recovery).
    Correct,
    /// Detected-but-uncorrectable: a DUE the machine must handle.
    Due,
    /// The word read back wrong without a flag — silent data corruption.
    Sdc,
}

impl From<ReadOutcome> for WordRead {
    /// A zero-syndrome read with a flipped payload and a miscorrection are
    /// both silent; everything detected is a DUE.
    fn from(outcome: ReadOutcome) -> Self {
        match outcome {
            ReadOutcome::CleanIntact | ReadOutcome::CorrectedRight => Self::Correct,
            ReadOutcome::Detected => Self::Due,
            ReadOutcome::CleanCorrupted | ReadOutcome::Miscorrected => Self::Sdc,
        }
    }
}

/// One device-level disturbance of a word read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strike {
    /// XOR this pattern onto the device's bits (transient upset patterns,
    /// permanent-fault garbage).
    Xor(u16),
    /// Asymmetric (retention-style) discharge of one bit: the cell flips
    /// only if it currently stores a 1 (Section III-C's `1→0` model).
    AsymBit(u8),
}

/// Raw-entropy source the backends draw lazily sampled contents from.
///
/// Implemented by `muse_faultsim::Rng`; the provided combinators mirror
/// that generator's derivations bit-for-bit so classification streams are
/// identical through either interface.
pub trait Entropy {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `out` with consecutive [`Self::next_u64`] draws (implementors
    /// with batched generators override this to keep state in registers).
    fn fill_u64s(&mut self, out: &mut [u64]) {
        for slot in out.iter_mut() {
            *slot = self.next_u64();
        }
    }

    /// A uniform `f64` in `[0, 1)` (53 explicit mantissa bits).
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial.
    fn coin(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

/// A uniform integer sampler over `[0, bound)` with its Lemire rejection
/// constant precomputed.
///
/// A plain Lemire-with-rejection draw recomputes `2^64 mod bound` (a
/// 64-bit division) on every rejection check; a `Bounded32` pays that
/// division once at configuration time and then draws from 32-bit halves,
/// so one raw `u64` usually yields two bounded samples. Build these in a
/// trial plan or classifier (once per configuration), not per trial. The
/// simulator crates re-export this type (`muse_faultsim::Bounded32`), so
/// hot loops and classification backends share one implementation — and
/// one draw stream.
///
/// # Examples
///
/// ```
/// use muse_core::{Bounded32, Entropy};
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
/// let mut entropy = Splitmix(1);
/// let device = Bounded32::new(36);
/// assert!(device.sample(&mut entropy) < 36);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounded32 {
    bound: u32,
    threshold: u32,
}

impl Bounded32 {
    /// A sampler over `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn new(bound: u32) -> Self {
        assert!(bound > 0, "empty sampling range");
        Self {
            bound,
            threshold: bound.wrapping_neg() % bound,
        }
    }

    /// The exclusive upper bound.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Maps one 32-bit half-draw to a sample, or `None` when the draw lands
    /// in the rejection zone (probability `< bound / 2^32`).
    #[inline]
    pub fn map(&self, half: u32) -> Option<u32> {
        let m = half as u64 * self.bound as u64;
        if (m as u32) >= self.threshold {
            Some((m >> 32) as u32)
        } else {
            None
        }
    }

    /// Draws one sample (bias-free; consumes fresh draws on rejection).
    #[inline]
    pub fn sample<E: Entropy + ?Sized>(&self, entropy: &mut E) -> u32 {
        loop {
            let raw = entropy.next_u64();
            if let Some(v) = self.map(raw as u32) {
                return v;
            }
            if let Some(v) = self.map((raw >> 32) as u32) {
                return v;
            }
        }
    }

    /// Maps `half` to a sample, falling back to fresh draws on rejection —
    /// the building block for packing several bounded samples into one raw
    /// `u64`.
    #[inline]
    pub fn of_half<E: Entropy + ?Sized>(&self, entropy: &mut E, half: u32) -> u32 {
        match self.map(half) {
            Some(v) => v,
            None => self.sample(entropy),
        }
    }

    /// Bounded-batch rejection sampling: fills `out` with independent
    /// uniform samples, drawing raw `u64`s in blocks (two samples per raw
    /// draw in the common no-rejection case).
    pub fn fill<E: Entropy + ?Sized>(&self, entropy: &mut E, out: &mut [u32]) {
        if self.threshold == 0 {
            // Power-of-two-divisible bound: rejection-free, two samples per
            // raw draw in a branchless loop.
            let mut chunks = out.chunks_exact_mut(2);
            for pair in &mut chunks {
                let raw = entropy.next_u64();
                pair[0] = ((raw as u32 as u64 * self.bound as u64) >> 32) as u32;
                pair[1] = (((raw >> 32) * self.bound as u64) >> 32) as u32;
            }
            if let [last] = chunks.into_remainder() {
                *last = ((entropy.next_u64() as u32 as u64 * self.bound as u64) >> 32) as u32;
            }
            return;
        }
        let mut raws = [0u64; 32];
        // Branchless region: one 32-draw chunk yields at most 64 samples,
        // so while that many slots remain free, accepted samples append via
        // a conditional index bump — no per-sample branch to mispredict.
        // Draw consumption is identical to the guarded tail below: whole
        // chunks, nothing discarded while slots remain.
        let mut idx = 0usize;
        while idx + 64 <= out.len() {
            entropy.fill_u64s(&mut raws);
            for &raw in &raws {
                for half in [raw as u32, (raw >> 32) as u32] {
                    let m = half as u64 * self.bound as u64;
                    out[idx] = (m >> 32) as u32;
                    idx += ((m as u32) >= self.threshold) as usize;
                }
            }
        }
        // Guarded tail: fills the final slots, discarding the chunk's
        // surplus halves — the draw stream the simulators pin.
        let mut slots = out[idx..].iter_mut();
        loop {
            entropy.fill_u64s(&mut raws);
            for &raw in &raws {
                for half in [raw as u32, (raw >> 32) as u32] {
                    if let Some(v) = self.map(half) {
                        match slots.next() {
                            Some(slot) => *slot = v,
                            None => return,
                        }
                    }
                }
            }
        }
    }
}

/// A syndrome-domain word-read classification backend.
///
/// A backend knows a code's device geometry and classifies one read at a
/// time from (a) the *resolved context* of the current erased-device set
/// and (b) the [`Strike`]s disturbing the read. Contexts are resolved once
/// per erased-set *transition* (device retirement, replacement) — not per
/// read — so per-read work is bounded by the solve itself (both degraded
/// loops are allocation-free: the MUSE table and the RS erasure locator
/// are built once, in [`Self::resolve`]).
pub trait Classifier {
    /// The resolved decode context for one fixed erased-device set.
    type Context;

    /// Number of addressable devices in a codeword.
    fn devices(&self) -> usize;

    /// Width in bits of device `dev`.
    fn device_width(&self, dev: u16) -> u32;

    /// Resolves the decode context for `erased` (empty = healthy), or
    /// `None` when the set exceeds the code's erasure capacity (or is not
    /// uniquely recoverable) — a data-loss event for the caller.
    fn resolve(&self, erased: &[u16]) -> Option<Self::Context>;

    /// Classifies one word read. Strikes name devices; strikes on erased
    /// devices are backend-defined (MUSE forbids them — a dead chip's
    /// output never reaches the decoder; RS absorbs them into the erasure
    /// solve).
    fn classify<E: Entropy>(
        &mut self,
        ctx: &Self::Context,
        strikes: &[(u16, Strike)],
        entropy: &mut E,
    ) -> WordRead;
}

/// The resolved MUSE decode context for one erased-device set.
#[derive(Debug, Clone)]
pub enum MuseContext {
    /// Empty erased set: the healthy fused ELC decoder.
    Healthy,
    /// Degraded operation: the combined erasure-plus-error solver for the
    /// set.
    Degraded(ErasureTable),
}

/// The MUSE classification backend: [`SyndromeKernel`] residue algebra with
/// lazily sampled symbol contents (uniform payload bits; check bits from a
/// check value drawn uniformly over `[0, m)` on first use — the
/// `muse-faultsim` content-space discipline).
///
/// # Examples
///
/// ```
/// use muse_core::{presets, Classifier, Entropy, MuseClassifier, Strike};
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
/// let code = presets::muse_80_69();
/// let mut backend = MuseClassifier::new(code.kernel().expect("preset"));
/// let mut entropy = Splitmix(7);
///
/// // Device 3 has been retired; a transient hits surviving device 11.
/// let ctx = backend.resolve(&[3]).expect("within erasure capacity");
/// let read = backend.classify(&ctx, &[(11, Strike::Xor(0b0100))], &mut entropy);
/// // The combined solve fills the dead chip AND corrects the transient
/// // when the explanation is unique; ambiguous explanations stay DUEs —
/// // an in-model transient under one erasure is never silently wrong.
/// assert_ne!(read, muse_core::WordRead::Sdc);
/// ```
#[derive(Debug, Clone)]
pub struct MuseClassifier<'a> {
    kernel: &'a SyndromeKernel,
    contents: Vec<u16>,
    stamps: Vec<u64>,
    generation: u64,
    x: Option<u64>,
    x_pick: Bounded32,
    pinned: bool,
}

impl<'a> MuseClassifier<'a> {
    /// Fresh backend for a kernel's symbol geometry.
    pub fn new(kernel: &'a SyndromeKernel) -> Self {
        Self {
            kernel,
            contents: vec![0; kernel.num_symbols()],
            stamps: vec![u64::MAX; kernel.num_symbols()],
            generation: 0,
            x: None,
            x_pick: Bounded32::new(u32::try_from(kernel.modulus()).expect("kernel moduli fit u32")),
            pinned: false,
        }
    }

    /// The kernel this backend classifies over.
    pub fn kernel(&self) -> &'a SyndromeKernel {
        self.kernel
    }

    /// Starts a fresh word read: every symbol content (and the check value)
    /// is resampled on next observation. No-op while pinned.
    #[inline]
    pub fn begin_read(&mut self) {
        if !self.pinned {
            self.generation = self.generation.wrapping_add(1);
            self.x = None;
        }
    }

    /// Test hook: pins every symbol content (and the check value) to those
    /// of a real codeword, so a classification replays a wide-word read
    /// exactly. Used by the oracle equivalence tests; not a simulation API.
    pub fn pin(&mut self, contents: &[u16], x: u64) {
        self.generation = self.generation.wrapping_add(1);
        self.contents.copy_from_slice(contents);
        for stamp in &mut self.stamps {
            *stamp = self.generation;
        }
        self.x = Some(x);
        self.pinned = true;
    }

    /// Test hook, the inverse of [`Self::pin`]: the contents the current
    /// read has observed (`None` = never sampled) and its check value, if
    /// drawn. Any codeword agreeing with them is consistent with the read,
    /// which is how the oracle tests rebuild a wide word for a sampled read.
    pub fn observed(&self) -> (Vec<Option<u16>>, Option<u64>) {
        let contents = (0..self.contents.len())
            .map(|s| (self.stamps[s] == self.generation).then_some(self.contents[s]))
            .collect();
        (contents, self.x)
    }

    /// The stored content of `sym` in the current read, sampled on first
    /// observation: one raw draw for its bits, then — for a symbol owning
    /// check bits, and only once per read — the check value.
    #[inline]
    pub fn content<E: Entropy>(&mut self, entropy: &mut E, sym: usize) -> u16 {
        if self.stamps[sym] != self.generation {
            let raw = entropy.next_u64() as u16;
            let (x, x_pick) = (&mut self.x, self.x_pick);
            self.contents[sym] = self.kernel.content_from_raw(sym, raw, || {
                *x.get_or_insert_with(|| x_pick.sample(entropy) as u64)
            });
            self.stamps[sym] = self.generation;
        }
        self.contents[sym]
    }

    /// Classifies the current read on a healthy word: folds the `(symbol,
    /// xor pattern)` strikes (at most one per symbol) into the syndrome
    /// over the read's contents and ends it with
    /// [`SyndromeKernel::finish_read`]. Contents are drawn in strike order,
    /// then the matched symbol's if it was not struck.
    pub fn read_healthy<E: Entropy>(
        &mut self,
        entropy: &mut E,
        strikes: &[(usize, u16)],
    ) -> ReadOutcome {
        let rem = self.fold(entropy, strikes);
        let kernel = self.kernel;
        kernel.finish_read(rem, strikes, |symbol| self.content(entropy, symbol))
    }

    /// The syndrome the strikes add to the current read.
    #[inline]
    fn fold<E: Entropy>(&mut self, entropy: &mut E, strikes: &[(usize, u16)]) -> u64 {
        let kernel = self.kernel;
        strikes.iter().fold(0, |rem, &(sym, pattern)| {
            let content = self.content(entropy, sym);
            kernel.add_mod(rem, kernel.flip_delta(sym, content, pattern))
        })
    }

    /// Resolves a strike to its XOR pattern on `sym`'s current content.
    #[inline]
    fn pattern_of<E: Entropy>(&mut self, entropy: &mut E, sym: usize, s: Strike) -> u16 {
        match s {
            Strike::Xor(p) => p,
            Strike::AsymBit(bit) => (1 << bit) & self.content(entropy, sym),
        }
    }

    /// Whether a solved filling disagrees with the erased symbols' original
    /// contents on any payload bit (the degraded-read SDC check, shared by
    /// the plain and combined solve arms). Deliberately samples every
    /// erased content — no short-circuit — so the draw stream does not
    /// depend on where a mismatch appears.
    fn filling_wrong<E: Entropy>(
        &mut self,
        entropy: &mut E,
        table: &ErasureTable,
        filling: u32,
    ) -> bool {
        let mut wrong = false;
        for (i, &s) in table.symbols().iter().enumerate() {
            let original = self.content(entropy, s);
            wrong |= (table.content_of(filling, i) ^ original) & self.kernel.payload_mask(s) != 0;
        }
        wrong
    }
}

impl Classifier for MuseClassifier<'_> {
    type Context = MuseContext;

    fn devices(&self) -> usize {
        self.kernel.num_symbols()
    }

    fn device_width(&self, dev: u16) -> u32 {
        self.kernel.symbol_bits(dev as usize)
    }

    fn resolve(&self, erased: &[u16]) -> Option<MuseContext> {
        if erased.is_empty() {
            return Some(MuseContext::Healthy);
        }
        let total_bits: u32 = erased
            .iter()
            .map(|&d| self.kernel.symbol_bits(d as usize))
            .sum();
        if total_bits > 16 {
            return None;
        }
        let syms: Vec<usize> = erased.iter().map(|&d| d as usize).collect();
        let table = self.kernel.erasure_table(&syms);
        table.is_injective().then_some(MuseContext::Degraded(table))
    }

    fn classify<E: Entropy>(
        &mut self,
        ctx: &MuseContext,
        strikes: &[(u16, Strike)],
        entropy: &mut E,
    ) -> WordRead {
        assert!(strikes.len() <= 16, "at most 16 strikes per word read");
        self.begin_read();
        let kernel = self.kernel;
        let m = kernel.modulus();

        // A degraded read first observes the erased symbols: the intact word
        // has syndrome 0, so Σ_{s∉E} R_s(orig) = −Σ_{s∈E} R_s(orig).
        let mut erased_rem = 0u64;
        if let MuseContext::Degraded(table) = ctx {
            for &s in table.symbols() {
                let r = kernel.residue(s, self.content(entropy, s));
                erased_rem = kernel.add_mod(erased_rem, if r == 0 { 0 } else { m - r });
            }
        }
        // Resolve each strike to its XOR pattern, observing the struck
        // contents in strike order (an asymmetric strike reads its content
        // to resolve, so the draws must follow the strikes).
        let mut resolved = [(0usize, 0u16); 16];
        let mut n = 0usize;
        for &(dev, s) in strikes {
            let sym = dev as usize;
            if let MuseContext::Degraded(table) = ctx {
                debug_assert!(
                    !table.symbols().contains(&sym),
                    "strikes on erased devices never reach the decoder"
                );
            }
            let pattern = self.pattern_of(entropy, sym, s);
            if pattern != 0 {
                self.content(entropy, sym);
                resolved[n] = (sym, pattern);
                n += 1;
            }
        }
        let resolved = &resolved[..n];

        let table = match ctx {
            MuseContext::Healthy => return self.read_healthy(entropy, resolved).into(),
            MuseContext::Degraded(table) => table,
        };
        let rem = kernel.add_mod(erased_rem, self.fold(entropy, resolved));
        let target = if rem == 0 { 0 } else { m - rem };
        // Candidacy applies the content-dependent confinement check
        // (Figure 4, method 2) exactly as a wide decoder enumerating
        // fillings would: an unconfined correction is no candidate.
        let contents = &mut *self;
        let solve = table.solve_combined(kernel, target, |elc_rem, symbol| {
            let original = contents.content(entropy, symbol);
            let injected = resolved
                .iter()
                .find(|&&(s, _)| s == symbol)
                .map_or(0, |&(_, p)| p);
            kernel.correct(elc_rem, original ^ injected).is_some()
        });
        let wrong = match solve {
            CombinedSolve::None | CombinedSolve::Ambiguous => return WordRead::Due,
            CombinedSolve::Unique(filling) => {
                let payload_touched = resolved
                    .iter()
                    .any(|&(s, p)| p & kernel.payload_mask(s) != 0);
                payload_touched || self.filling_wrong(entropy, table, filling)
            }
            CombinedSolve::Corrected {
                filling,
                rem: elc_rem,
                ..
            } => {
                // Finish like the healthy decoder: the filled word carries
                // remainder `elc_rem`, and candidacy already proved the
                // correction confined.
                let read = kernel.finish_read(elc_rem, resolved, |s| self.content(entropy, s));
                read != ReadOutcome::CorrectedRight || self.filling_wrong(entropy, table, filling)
            }
        };
        if wrong {
            WordRead::Sdc
        } else {
            WordRead::Correct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// SplitMix64: a tiny deterministic Entropy for unit tests.
    struct Splitmix(u64);

    impl Entropy for Splitmix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn bounded32_matches_reference_modulo() {
        let pick = Bounded32::new(4065);
        let mut e = Splitmix(3);
        for _ in 0..1_000 {
            assert!(pick.sample(&mut e) < 4065);
        }
        // The rejection threshold is the canonical Lemire constant.
        assert_eq!(pick.threshold, 4065u32.wrapping_neg() % 4065);
    }

    #[test]
    fn healthy_single_device_errors_correct() {
        let code = presets::muse_80_69();
        let mut backend = MuseClassifier::new(code.kernel().expect("preset"));
        let ctx = backend.resolve(&[]).expect("healthy");
        let mut e = Splitmix(11);
        for dev in 0..backend.devices() as u16 {
            for pattern in 1u16..16 {
                let read = backend.classify(&ctx, &[(dev, Strike::Xor(pattern))], &mut e);
                assert_eq!(read, WordRead::Correct, "dev {dev} pattern {pattern:04b}");
            }
        }
    }

    #[test]
    fn combined_solve_recovers_unique_explanations_without_sdc() {
        // The behaviour this backend adds: one erased chip plus an in-model
        // transient on a survivor is corrected whenever the (filling, ELC
        // entry) explanation is unique — where the plain erasure solve
        // always flagged a DUE. MUSE's single residue carries no extra
        // syndrome equations (unlike the 2t Reed-Solomon syndromes), so
        // ambiguous explanations stay DUEs and nothing is ever silently
        // miscorrected here.
        let code = presets::muse_80_69();
        let kernel = code.kernel().expect("preset");
        let mut backend = MuseClassifier::new(kernel);
        let ctx = backend.resolve(&[4]).expect("one chip within capacity");
        let mut e = Splitmix(23);
        let (mut correct, mut due, mut sdc) = (0u32, 0u32, 0u32);
        for trial in 0..500u32 {
            let dev = 5 + (trial % 15) as u16;
            let pattern = 1 + (trial % 15) as u16;
            match backend.classify(&ctx, &[(dev, Strike::Xor(pattern))], &mut e) {
                WordRead::Correct => correct += 1,
                WordRead::Due => due += 1,
                WordRead::Sdc => sdc += 1,
            }
        }
        assert_eq!(correct + due + sdc, 500);
        assert!(
            correct > 20,
            "combined solve recovers some reads: {correct}"
        );
        assert!(due > 0, "ambiguous explanations stay detected");
        assert_eq!(sdc, 0, "in-model transients never miscorrect silently");
    }

    #[test]
    fn resolve_rejects_beyond_capacity_sets() {
        let code = presets::muse_80_69();
        let backend = MuseClassifier::new(code.kernel().expect("preset"));
        // 5 × 4-bit chips = 20 erased bits > the 16-bit enumeration limit.
        assert!(backend.resolve(&[0, 1, 2, 3, 4]).is_none());
        assert!(backend.resolve(&[0, 1]).is_some());
    }

    #[test]
    fn device_geometry_is_exposed() {
        let code = presets::muse_144_132();
        let backend = MuseClassifier::new(code.kernel().expect("preset"));
        assert_eq!(backend.devices(), 36);
        assert_eq!(backend.device_width(0), 4);
    }
}
