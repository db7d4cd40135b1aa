//! Internal content-space trial machinery shared by the kernel-accelerated
//! simulators (`msed`, `retention`, `fit`, `ondie`).
//!
//! A trial lives entirely in the *content/error-value domain*: instead of
//! sampling a wide codeword and corrupting it, a trial samples only what it
//! observes —
//!
//! * the **content** of each touched symbol, drawn lazily and uniformly
//!   over the symbol's width (for a uniform payload, symbol payload bits
//!   are independent uniform bits);
//! * the **check value** `X`, drawn lazily and uniformly over `[0, m)` the
//!   first time a touched symbol owns check-region bits (for a uniform
//!   `k`-bit payload the true `X = m − payload·2^r mod m` deviates from
//!   uniform by less than `m/2^k ≤ 2⁻³⁵` in total variation — far below
//!   Monte-Carlo resolution);
//! * the injected corruption, a short list of `(symbol, xor-pattern)`
//!   pairs whose syndrome is accumulated with [`SyndromeKernel`] table
//!   lookups.
//!
//! No wide word — and no payload limb — is ever materialized on this path.
//! This module holds what differs between the simulators: [`TrialPlan`]'s
//! per-configuration sampling constants, and the two fixed-capacity MSED
//! trials that replay bulk-filled draw columns ([`Bounded32::fill`],
//! [`Rng::fill_u64s`]), which removes the serial RNG dependency between
//! consecutive trials. What they share lives in `muse-core`: a symbol's
//! content is assembled by [`SyndromeKernel::content_from_raw`], every
//! read ends in [`SyndromeKernel::finish_read`], and the Vec-based
//! simulators keep their lazily sampled contents in a
//! [`MuseClassifier`](muse_core::MuseClassifier). The in-module property
//! tests reconstruct wide codewords consistent with each sampled trial and
//! prove the classification matches the wide decoder, preset by preset.

use muse_core::{ReadOutcome, SyndromeKernel};

use crate::rng::Bounded32;
use crate::Rng;

/// Maximum simultaneous device failures the fixed-capacity content-space
/// trial paths support; experiments beyond this route through the
/// Vec-based distinct samplers in `msed` (still syndrome-domain — the
/// wide-word fallbacks are retired; any `k ≤ n_devices` is accepted).
pub(crate) const MAX_STRIKES: usize = 8;

/// Splits raw `u64` draws into 32-bit halves so two bounded samples usually
/// cost one generator step.
#[derive(Default)]
pub(crate) struct HalfDraws {
    pending: Option<u32>,
}

impl HalfDraws {
    #[inline]
    pub fn next(&mut self, rng: &mut Rng) -> u32 {
        match self.pending.take() {
            Some(half) => half,
            None => {
                let raw = rng.next_u64();
                self.pending = Some((raw >> 32) as u32);
                raw as u32
            }
        }
    }
}

/// Precomputed sampling distribution for kernel-path trials: which symbol
/// to strike, with what nonzero pattern, and what the symbol held — with
/// every Lemire rejection constant derived once per configuration instead
/// of per draw.
pub(crate) struct TrialPlan {
    /// `picks[i]` samples over `n_sym − i` (distinct-symbol draw `i`).
    picks: Vec<Bounded32>,
    /// Per-symbol nonzero-pattern samplers over `2^width − 1`.
    patterns: Vec<Bounded32>,
    /// Per-symbol bit-position samplers over `width`.
    bits: Vec<Bounded32>,
    /// Check-value sampler over `[0, m)`.
    x_pick: Bounded32,
}

impl TrialPlan {
    /// A plan for trials striking up to `max_k` distinct symbols.
    pub fn new(kernel: &SyndromeKernel, max_k: usize) -> Self {
        let n = kernel.num_symbols();
        assert!(max_k <= n, "cannot corrupt {max_k} of {n} devices");
        Self {
            picks: (0..max_k).map(|i| Bounded32::new((n - i) as u32)).collect(),
            patterns: (0..n)
                .map(|s| Bounded32::new((1u32 << kernel.symbol_bits(s)) - 1))
                .collect(),
            bits: (0..n)
                .map(|s| Bounded32::new(kernel.symbol_bits(s)))
                .collect(),
            x_pick: Bounded32::new(u32::try_from(kernel.modulus()).expect("kernel moduli fit u32")),
        }
    }

    /// The check-value sampler (uniform over `[0, m)`).
    #[inline]
    pub fn x_pick(&self) -> Bounded32 {
        self.x_pick
    }

    /// The sampler for distinct-symbol draw `i` (over `n_sym − i`).
    #[inline]
    pub fn pick(&self, i: usize) -> Bounded32 {
        self.picks[i]
    }

    /// When every symbol shares one width: the common nonzero-pattern
    /// sampler (add 1 to its samples), enabling columnar pattern fills.
    pub fn uniform_pattern(&self) -> Option<Bounded32> {
        let first = *self.patterns.first()?;
        self.patterns.iter().all(|p| *p == first).then_some(first)
    }

    /// Draws one uniformly random symbol index.
    #[inline]
    pub fn pick_symbol(&self, rng: &mut Rng, halves: &mut HalfDraws) -> usize {
        let half = halves.next(rng);
        self.picks[0].of_half(rng, half) as usize
    }

    /// Draws a uniformly random nonzero corruption pattern for `sym`.
    #[inline]
    pub fn pick_pattern(&self, rng: &mut Rng, halves: &mut HalfDraws, sym: usize) -> u16 {
        let half = halves.next(rng);
        1 + self.patterns[sym].of_half(rng, half) as u16
    }

    /// Draws a uniformly random content-bit index of `sym`.
    #[inline]
    pub fn pick_bit(&self, rng: &mut Rng, halves: &mut HalfDraws, sym: usize) -> u32 {
        let half = halves.next(rng);
        self.bits[sym].of_half(rng, half)
    }

    /// Draws `k` distinct symbols with a fresh nonzero corruption pattern
    /// each, appending them to `strikes`.
    #[inline]
    pub fn inject_distinct(&self, strikes: &mut Vec<(usize, u16)>, rng: &mut Rng, k: usize) {
        debug_assert!(k <= self.picks.len(), "plan built for fewer strikes");
        let mut halves = HalfDraws::default();
        let mut sorted = [0usize; MAX_STRIKES];
        assert!(
            k <= MAX_STRIKES,
            "at most {MAX_STRIKES} simultaneous device failures on the fast path"
        );
        for i in 0..k {
            let half = halves.next(rng);
            let draw = self.picks[i].of_half(rng, half) as usize;
            let sym = place_distinct(&mut sorted, i, draw);
            let pattern = self.pick_pattern(rng, &mut halves, sym);
            strikes.push((sym, pattern));
        }
    }
}

/// Maps the `i`-th distinct draw `v ∈ [0, n−i)` onto the complement of the
/// ascending set `chosen[..i]`, inserts it, and returns the chosen index —
/// direct distinct sampling with no retry loop.
#[inline]
pub(crate) fn place_distinct(chosen: &mut [usize; 8], i: usize, mut sym: usize) -> usize {
    // Shift past the already-chosen indices to land on the v-th unchosen
    // one; `chosen` stays sorted, so stopping at the first larger entry is
    // sound.
    let mut insert = i;
    for (j, &prev) in chosen[..i].iter().enumerate() {
        if sym >= prev {
            sym += 1;
        } else {
            insert = j;
            break;
        }
    }
    let mut j = i;
    while j > insert {
        chosen[j] = chosen[j - 1];
        j -= 1;
    }
    chosen[insert] = sym;
    sym
}

/// Fixed-capacity record of one columnar-replay trial — the MSED hot path
/// for strike counts other than 2.
///
/// Unlike a [`MuseClassifier`](muse_core::MuseClassifier) (whose content
/// cache lives in per-symbol vectors), an inline trial keeps its strikes in
/// small fixed arrays that stay in registers when the record is a
/// non-escaping local, so consecutive trials share no memory traffic and
/// the CPU overlaps their table lookups. Capacity is [`MAX_STRIKES`]
/// simultaneous device failures; larger experiments take the Vec-based
/// content path.
#[derive(Default)]
pub(crate) struct InlineTrial {
    /// `(symbol, pattern)` per strike.
    strikes: [(usize, u16); MAX_STRIKES],
    /// Stored content per strike.
    contents: [u16; MAX_STRIKES],
    len: usize,
    /// Content drawn for a correction target outside the strikes.
    extra: Option<(usize, u16)>,
    /// The trial's check value, drawn on first use.
    x: Option<u64>,
}

impl InlineTrial {
    /// The observations of the last trial, in
    /// [`MuseClassifier::observed`](muse_core::MuseClassifier::observed)
    /// form, for reference reconstruction.
    #[cfg(test)]
    pub fn observed(&self, n_sym: usize) -> (Vec<Option<u16>>, Option<u64>) {
        let mut observed = vec![None; n_sym];
        for (&(s, _), &c) in self.strikes().iter().zip(&self.contents) {
            observed[s] = Some(c);
        }
        if let Some((s, c)) = self.extra {
            observed[s] = Some(c);
        }
        (observed, self.x)
    }

    /// The `(symbol, pattern)` strikes of the last trial.
    #[cfg(test)]
    pub fn strikes(&self) -> &[(usize, u16)] {
        &self.strikes[..self.len]
    }
}

/// Runs one content-space MSED trial from pre-drawn columns: `draws[i]` is
/// the `i`-th strike's `(distinct-symbol draw, final nonzero pattern, raw
/// content bits)`. The check value and an outside-strike correction
/// target's content are drawn live, on first use, and the read ends in
/// [`SyndromeKernel::finish_read`].
///
/// `inline(always)`: the caller is a per-trial hot loop, and a real call
/// here forces the strike arrays through memory (measured ~2× on the MSED
/// columnar path).
#[inline(always)]
pub(crate) fn msed_inline_trial(
    kernel: &SyndromeKernel,
    x_pick: Bounded32,
    rng: &mut Rng,
    trial: &mut InlineTrial,
    draws: &[(u32, u16, u16)],
) -> ReadOutcome {
    assert!(
        draws.len() <= MAX_STRIKES,
        "at most {MAX_STRIKES} simultaneous device failures on the fast path"
    );
    let InlineTrial {
        strikes,
        contents,
        len,
        extra,
        x,
    } = trial;
    *len = draws.len();
    *extra = None;
    *x = None;
    let mut chosen = [0usize; MAX_STRIKES];
    let mut rem = 0u64;
    for (i, &(sym_draw, pattern, raw)) in draws.iter().enumerate() {
        let sym = place_distinct(&mut chosen, i, sym_draw as usize);
        let content = kernel.content_from_raw(sym, raw, || {
            *x.get_or_insert_with(|| x_pick.sample(rng) as u64)
        });
        rem = kernel.add_mod(rem, kernel.flip_delta(sym, content, pattern));
        strikes[i] = (sym, pattern);
        contents[i] = content;
    }
    let strikes = &strikes[..draws.len()];
    kernel.finish_read(rem, strikes, |symbol| {
        match strikes.iter().position(|&(s, _)| s == symbol) {
            Some(i) => contents[i],
            None => {
                let raw = rng.next_u64() as u16;
                let c = kernel.content_from_raw(symbol, raw, || {
                    *x.get_or_insert_with(|| x_pick.sample(rng) as u64)
                });
                *extra = Some((symbol, c));
                c
            }
        }
    })
}

/// One double-strike MSED trial from the k = 2 fully-columnar draw scheme,
/// with *no* live randomness: every observation is pre-drawn in bulk —
///
/// * `quad ∈ [0, n(n−1)·(2^w−1)²)` — one quad-packed bounded draw carrying
///   both distinct symbols *and* both nonzero patterns. The symbol pair is
///   `quad mod n(n−1)` (first strike `· / (n−1)`, second `· mod (n−1)`
///   adjusted past it — a uniform ordered pair of distinct symbols); the
///   pattern pair is `quad / n(n−1)`, split by `2^w−1` and offset by 1
///   (uniform width `w` only, and only while the product fits `u32`);
/// * `cnt` — two raw 16-bit contents, strike 0 in the low half;
/// * `x ∈ [0, m)` — the trial's check value, drawn unconditionally (the
///   lazy per-trial draw would serialize the stream behind a data-dependent
///   branch; an unused uniform draw biases nothing);
/// * `extra` — raw content bits for a correction target outside the
///   strikes, likewise drawn unconditionally and usually unused.
///
/// Returns the outcome plus the outside-strike correction target's
/// `(symbol, content)` when one was consulted (for reference
/// reconstruction in tests). This is the draw-for-draw scalar oracle the
/// lane kernel (`lanes.rs`) is proven bit-identical to.
#[inline]
pub(crate) fn msed_trial_k2_cols(
    kernel: &SyndromeKernel,
    quad: u32,
    cnt: u32,
    x: u64,
    extra: u32,
) -> (ReadOutcome, Option<(usize, u16)>) {
    let n = kernel.num_symbols() as u32;
    let pb = (1u32 << kernel.symbol_bits(0)) - 1;
    let sp = quad % (n * (n - 1));
    let qp = quad / (n * (n - 1));
    let a = (sp / (n - 1)) as usize;
    let r = (sp % (n - 1)) as usize;
    let b = r + (r >= a) as usize;
    let p0 = 1 + (qp / pb) as u16;
    let p1 = 1 + (qp % pb) as u16;
    let c0 = kernel.content_from_raw(a, cnt as u16, || x);
    let c1 = kernel.content_from_raw(b, (cnt >> 16) as u16, || x);
    let rem = kernel.add_mod(kernel.flip_delta(a, c0, p0), kernel.flip_delta(b, c1, p1));
    let mut consulted = None;
    let outcome = kernel.finish_read(rem, &[(a, p0), (b, p1)], |symbol| {
        if symbol == a {
            c0
        } else if symbol == b {
            c1
        } else {
            let c = kernel.content_from_raw(symbol, extra as u16, || x);
            consulted = Some((symbol, c));
            c
        }
    });
    (outcome, consulted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::{presets, Decoded, MuseClassifier, MuseCode, Word};

    fn preset_codes() -> Vec<MuseCode> {
        let mut codes = presets::table1();
        codes.extend([presets::muse_80_67(), presets::muse_80_70()]);
        codes
    }

    fn check_outcome(name: &str, trial: usize, fast: ReadOutcome, wide: Decoded, payload: Word) {
        match (fast, wide) {
            (ReadOutcome::CleanIntact, Decoded::Clean { payload: p }) => {
                assert_eq!(p, payload, "{name}: trial {trial}")
            }
            (ReadOutcome::CleanCorrupted, Decoded::Clean { payload: p }) => {
                assert_ne!(p, payload, "{name}: trial {trial}")
            }
            (ReadOutcome::Detected, Decoded::Detected) => {}
            (ReadOutcome::CorrectedRight, Decoded::Corrected { payload: p, .. }) => {
                assert_eq!(p, payload, "{name}: trial {trial}")
            }
            (ReadOutcome::Miscorrected, Decoded::Corrected { payload: p, .. }) => {
                assert_ne!(p, payload, "{name}: trial {trial}")
            }
            (fast, wide) => panic!("{name}: trial {trial}: fast {fast:?} vs wide {wide:?}"),
        }
    }

    /// Exact replay: pin the classifier's contents to a real encoded
    /// codeword and verify the content-space classification matches the
    /// wide decoder for random corruptions — every preset, no sampling
    /// approximation.
    #[test]
    fn prefilled_trials_match_wide_decoder() {
        for code in preset_codes() {
            let Some(kernel) = code.kernel() else {
                continue;
            };
            let plan = TrialPlan::new(kernel, 3);
            let mut classifier = MuseClassifier::new(kernel);
            let mut strikes = Vec::new();
            let mut rng = Rng::seeded(0xFEED);
            for trial in 0..300 {
                // A fresh random payload per trial, encoded wide.
                let mut limbs = [0u64; 5];
                for limb in &mut limbs {
                    *limb = rng.next_u64();
                }
                let payload = Word::from_limbs(limbs) & Word::mask(code.k_bits());
                let cw = code.encode(&payload);
                let contents = kernel.contents_of_word(code.symbol_map(), &cw);
                let x = (cw & Word::mask(code.r_bits())).to_u64().expect("r ≤ 32");
                classifier.pin(&contents, x);

                let k = 1 + (trial % 3);
                strikes.clear();
                plan.inject_distinct(&mut strikes, &mut rng, k);
                let fast = classifier.read_healthy(&mut rng, &strikes);

                let mut corrupted = cw;
                for &(sym, pattern) in &strikes {
                    code.symbol_map()
                        .apply_xor_pattern(&mut corrupted, sym, pattern as u64);
                }
                check_outcome(code.name(), trial, fast, code.decode(&corrupted), payload);
            }
        }
    }

    /// `x^(-1) mod m` for odd `m` (test-side completion math).
    fn mod_inv_pow2(exp: u32, m: u64) -> u64 {
        // inv(2) = (m+1)/2 for odd m; inv(2^exp) = inv(2)^exp.
        assert!(m % 2 == 1, "kernel multipliers are odd");
        let inv2 = m.div_ceil(2);
        let mut acc = 1u64 % m;
        for _ in 0..exp {
            acc = acc * inv2 % m; // both < m < 2^32: fits u64
        }
        acc
    }

    /// Subset-sum completion: finds unobserved payload bits whose single-bit
    /// residues sum to `target` (mod m) and sets them in `parts`. Works for
    /// any layout; `O(m)` per item with early exit once the target is
    /// reachable.
    fn complete_by_dp(
        code: &MuseCode,
        observed: &[Option<u16>],
        target: u64,
        parts: &mut [u16],
    ) -> bool {
        let kernel = code.kernel().expect("caller checked");
        let map = code.symbol_map();
        let m = kernel.modulus() as usize;
        // Items: one per payload bit of an unobserved symbol; the residue of
        // a single content bit is additive, R_s[a | b] = R_s[a] + R_s[b].
        let items: Vec<(usize, usize, u64)> = (0..kernel.num_symbols())
            .filter(|&s| observed[s].is_none())
            .flat_map(|s| {
                map.bits_of(s)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &bit)| bit >= code.r_bits())
                    .map(move |(i, _)| (s, i))
                    .collect::<Vec<_>>()
            })
            .map(|(s, i)| (s, i, kernel.residue(s, 1 << i)))
            .collect();
        const UNREACHED: u16 = u16::MAX;
        let mut via: Vec<u16> = vec![UNREACHED; m]; // item that first reached res
        let mut prev: Vec<u32> = vec![0; m];
        via[0] = UNREACHED - 1; // reached with no items
        if target == 0 {
            return true;
        }
        for (item, &(_, _, v)) in items.iter().enumerate() {
            for res in 0..m as u64 {
                if via[res as usize] < item as u16
                    || (via[res as usize] == UNREACHED - 1 && res == 0)
                {
                    let next = kernel.add_mod(res, v) as usize;
                    if via[next] == UNREACHED {
                        via[next] = item as u16;
                        prev[next] = res as u32;
                    }
                }
            }
            if via[target as usize] != UNREACHED {
                // Backtrack, setting the chosen bits.
                let mut res = target;
                while res != 0 {
                    let item = via[res as usize] as usize;
                    let (s, i, _) = items[item];
                    assert_eq!(parts[s] & (1 << i), 0, "item used once");
                    parts[s] |= 1 << i;
                    res = prev[res as usize] as u64;
                }
                return true;
            }
        }
        false
    }

    /// Completes a live-sampled content-space trial into a full wide
    /// codeword: observed contents are honored verbatim, unobserved symbols
    /// carry zero payload bits except a contiguous "window" whose value is
    /// solved (mod m) so the codeword's check value equals the trial's
    /// sampled `X`. Returns `None` when the layout offers no window clear
    /// of the observed symbols (possible for shuffled maps).
    fn reconstruct(code: &MuseCode, observed: &[Option<u16>], x: Option<u64>) -> Option<Word> {
        let kernel = code.kernel().expect("caller checked");
        let map = code.symbol_map();
        let m = kernel.modulus();
        // Payload parts: observed symbols keep their payload bits.
        let mut parts: Vec<u16> = (0..kernel.num_symbols())
            .map(|s| observed[s].unwrap_or(0) & kernel.payload_mask(s))
            .collect();
        let x = match x {
            // No check value sampled: any payload works — use the parts as
            // they stand and derive X from them.
            None => kernel.check_value_of_parts(&parts),
            Some(x) => {
                // Solve: sum of all payload-part residues ≡ m − X (mod m).
                let fixed = parts.iter().enumerate().fold(0, |acc, (s, &vp)| {
                    kernel.add_mod(acc, kernel.residue(s, vp))
                });
                let target = (2 * m - x - fixed) % m;
                // Window: ceil(log2 m) contiguous codeword bits ≥ r whose
                // owners were all unobserved.
                let window_len = 64 - (m - 1).leading_zeros();
                let mut solved = false;
                'search: for a in code.r_bits()..=(code.n_bits() - window_len) {
                    for b in a..a + window_len {
                        if observed[map.symbol_of_bit(b)].is_some() {
                            continue 'search;
                        }
                    }
                    // Q·2^a ≡ target (mod m), Q < m ≤ 2^window_len.
                    let q = target * mod_inv_pow2(a, m) % m;
                    for b in a..a + window_len {
                        if q >> (b - a) & 1 == 1 {
                            let sym = map.symbol_of_bit(b);
                            let idx = map
                                .bits_of(sym)
                                .iter()
                                .position(|&bit| bit == b)
                                .expect("owner");
                            parts[sym] |= 1 << idx;
                        }
                    }
                    solved = true;
                    break;
                }
                // Shuffled maps interleave symbols bit-by-bit, so no
                // contiguous window is clear of observed symbols: fall back
                // to a subset-sum DP over single unobserved payload bits.
                if !solved && !complete_by_dp(code, observed, target, &mut parts) {
                    return None;
                }
                x
            }
        };
        // Assemble the codeword from the parts + X's check bits.
        let mut word = Word::ZERO;
        for (sym, &part) in parts.iter().enumerate() {
            let content = kernel.apply_check_bits(sym, part, x);
            for (i, &bit) in map.bits_of(sym).iter().enumerate() {
                if content >> i & 1 == 1 {
                    word.toggle_bit(bit);
                }
            }
        }
        assert_eq!(code.remainder(&word), 0, "completion must be a codeword");
        // Honor the observed contents exactly.
        let contents = kernel.contents_of_word(map, &word);
        for (s, &obs) in observed.iter().enumerate() {
            if let Some(c) = obs {
                assert_eq!(contents[s], c, "symbol {s} content altered");
            }
        }
        Some(word)
    }

    /// Live sampling: run content-space trials exactly as the simulators
    /// do, reconstruct a wide codeword consistent with each trial's
    /// observations, and verify the wide decoder classifies the same way —
    /// every preset code.
    #[test]
    fn sampled_trials_match_wide_decoder() {
        for code in preset_codes() {
            let Some(kernel) = code.kernel() else {
                continue;
            };
            let plan = TrialPlan::new(kernel, 3);
            let mut classifier = MuseClassifier::new(kernel);
            let mut strikes = Vec::new();
            let mut rng = Rng::seeded(0xC0DE);
            let mut reconstructed = 0u32;
            for trial in 0..400 {
                classifier.begin_read();
                let k = 1 + (trial % 3);
                strikes.clear();
                plan.inject_distinct(&mut strikes, &mut rng, k);
                let fast = classifier.read_healthy(&mut rng, &strikes);

                let (observed, x) = classifier.observed();
                let Some(cw) = reconstruct(&code, &observed, x) else {
                    continue; // no window clear of the observed symbols
                };
                reconstructed += 1;
                let payload = code.payload_of(&cw);
                assert_eq!(code.encode(&payload), cw, "systematic roundtrip");
                let mut corrupted = cw;
                for &(sym, pattern) in &strikes {
                    code.symbol_map()
                        .apply_xor_pattern(&mut corrupted, sym, pattern as u64);
                }
                check_outcome(code.name(), trial, fast, code.decode(&corrupted), payload);
            }
            assert!(
                reconstructed >= 300,
                "{}: only {reconstructed}/400 trials reconstructable",
                code.name()
            );
        }
    }

    /// The inline (columnar-replay) MSED path against the wide decoder:
    /// same reconstruction as `sampled_trials_match_wide_decoder`, driving
    /// `msed_inline_trial` the way `muse_msed`'s hot loop does.
    #[test]
    fn inline_trials_match_wide_decoder() {
        for code in preset_codes() {
            let Some(kernel) = code.kernel() else {
                continue;
            };
            let plan = TrialPlan::new(kernel, 3);
            let Some(uniform) = plan.uniform_pattern() else {
                continue;
            };
            let mut trial = InlineTrial::default();
            let mut rng = Rng::seeded(0x1221);
            let mut reconstructed = 0u32;
            for t in 0..400 {
                let k = 1 + (t % 3);
                let mut draws = [(0u32, 0u16, 0u16); 8];
                for (i, draw) in draws[..k].iter_mut().enumerate() {
                    *draw = (
                        plan.pick(i).sample(&mut rng),
                        1 + uniform.sample(&mut rng) as u16,
                        rng.next_u64() as u16,
                    );
                }
                let fast =
                    msed_inline_trial(kernel, plan.x_pick(), &mut rng, &mut trial, &draws[..k]);

                let (observed, x) = trial.observed(kernel.num_symbols());
                let Some(cw) = reconstruct(&code, &observed, x) else {
                    continue;
                };
                reconstructed += 1;
                let payload = code.payload_of(&cw);
                let mut corrupted = cw;
                for &(sym, pattern) in trial.strikes() {
                    code.symbol_map()
                        .apply_xor_pattern(&mut corrupted, sym, pattern as u64);
                }
                check_outcome(code.name(), t, fast, code.decode(&corrupted), payload);
            }
            assert!(
                reconstructed >= 300,
                "{}: only {reconstructed}/400 inline trials reconstructable",
                code.name()
            );
        }
    }

    /// The fully-columnar k = 2 trial against the wide decoder: sample the
    /// four pre-drawn columns the way `muse_msed` fills them, reconstruct a
    /// codeword consistent with every observation, and compare outcomes —
    /// each uniform-width preset (the scheme is undefined on mixed widths).
    #[test]
    fn k2_columnar_trials_match_wide_decoder() {
        for code in preset_codes() {
            let Some(kernel) = code.kernel() else {
                continue;
            };
            let plan = TrialPlan::new(kernel, 2);
            if plan.uniform_pattern().is_none() {
                continue;
            }
            let n = kernel.num_symbols() as u32;
            let pb = (1u32 << kernel.symbol_bits(0)) - 1;
            let bound = n as u64 * (n - 1) as u64 * pb as u64 * pb as u64;
            if bound > u32::MAX as u64 {
                continue; // scheme undefined: quad draw must fit u32
            }
            let mut rng = Rng::seeded(0x2C01);
            let mut reconstructed = 0u32;
            for t in 0..400 {
                let quad = rng.below(bound) as u32;
                let cnt = rng.next_u64() as u32;
                let x = rng.below(kernel.modulus());
                let extra = rng.next_u64() as u32;
                let (fast, consulted) = msed_trial_k2_cols(kernel, quad, cnt, x, extra);

                let sp = quad % (n * (n - 1));
                let qp = quad / (n * (n - 1));
                let a = (sp / (n - 1)) as usize;
                let r = (sp % (n - 1)) as usize;
                let b = r + (r >= a) as usize;
                let strikes = [(a, 1 + (qp / pb) as u16), (b, 1 + (qp % pb) as u16)];
                let mut observed = vec![None; kernel.num_symbols()];
                observed[a] = Some(kernel.content_from_raw(a, cnt as u16, || x));
                observed[b] = Some(kernel.content_from_raw(b, (cnt >> 16) as u16, || x));
                if let Some((sym, c)) = consulted {
                    observed[sym] = Some(c);
                }
                let Some(cw) = reconstruct(&code, &observed, Some(x)) else {
                    continue;
                };
                reconstructed += 1;
                let payload = code.payload_of(&cw);
                let mut corrupted = cw;
                for &(sym, pattern) in &strikes {
                    code.symbol_map()
                        .apply_xor_pattern(&mut corrupted, sym, pattern as u64);
                }
                check_outcome(code.name(), t, fast, code.decode(&corrupted), payload);
            }
            assert!(
                reconstructed >= 300,
                "{}: only {reconstructed}/400 columnar trials reconstructable",
                code.name()
            );
        }
    }

    #[test]
    fn inject_distinct_is_uniform_and_distinct() {
        let code = presets::muse_144_132();
        let kernel = code.kernel().expect("presets support the kernel");
        let plan = TrialPlan::new(kernel, 3);
        let mut strikes = Vec::new();
        let mut rng = Rng::seeded(9);
        let n = kernel.num_symbols();
        let mut hits = vec![0u32; n];
        for _ in 0..4_000 {
            strikes.clear();
            plan.inject_distinct(&mut strikes, &mut rng, 3);
            let mut syms: Vec<usize> = strikes.iter().map(|&(s, _)| s).collect();
            assert_eq!(syms.len(), 3);
            for &(s, p) in &strikes {
                assert!(p != 0 && (p as u32) < (1 << kernel.symbol_bits(s)));
                hits[s] += 1;
            }
            syms.sort_unstable();
            syms.dedup();
            assert_eq!(syms.len(), 3, "symbols must be distinct");
        }
        // 4000 trials × 3 picks / 36 symbols ≈ 333 expected hits each.
        for (s, &h) in hits.iter().enumerate() {
            assert!((200..500).contains(&h), "symbol {s} hit {h} times");
        }
    }

    #[test]
    fn contents_respect_symbol_widths_and_check_bits() {
        for code in [presets::muse_144_132(), presets::muse_80_69()] {
            let kernel = code.kernel().expect("presets support the kernel");
            let mut classifier = MuseClassifier::new(kernel);
            let mut rng = Rng::seeded(3);
            for _ in 0..50 {
                classifier.begin_read();
                for sym in 0..kernel.num_symbols() {
                    let c = classifier.content(&mut rng, sym);
                    assert_eq!(c & !kernel.width_mask(sym), 0, "width overflow");
                }
                let (contents, x) = classifier.observed();
                let x = x.expect("some symbol owns check bits");
                assert!(x < kernel.modulus());
                // Check-region bits must match X exactly.
                for (sym, c) in contents.into_iter().enumerate() {
                    let c = c.expect("every symbol observed");
                    let expect = kernel.apply_check_bits(sym, c & kernel.payload_mask(sym), x);
                    assert_eq!(c, expect, "check bits of symbol {sym}");
                }
            }
        }
    }

    #[test]
    fn untouched_trials_draw_nothing() {
        let code = presets::muse_144_132();
        let kernel = code.kernel().expect("presets support the kernel");
        let mut classifier = MuseClassifier::new(kernel);
        classifier.begin_read();
        let (observed, x) = classifier.observed();
        assert!(observed.iter().all(Option::is_none));
        assert_eq!(x, None, "no check symbol observed ⇒ no X drawn");
        // Observing a payload-only symbol still leaves X undrawn.
        let mut rng = Rng::seeded(1);
        let sym = kernel.num_symbols() - 1;
        assert!(!kernel.needs_check_value(sym));
        classifier.content(&mut rng, sym);
        let (observed, x) = classifier.observed();
        assert_eq!(observed.iter().flatten().count(), 1);
        assert_eq!(x, None);
    }
}
