//! Internal content-space trial machinery shared by the kernel-accelerated
//! simulators (`msed`, `fit`).
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
//! per-configuration sampling constants, [`StrikeSampler`] — the one place
//! that decides how an MSED trial's `k`-device strike is drawn, for MUSE
//! and Reed-Solomon alike, mostly as bulk-filled draw columns
//! ([`Bounded32::fill`]) that remove the serial RNG dependency between
//! consecutive trials — and the fixed-capacity MSED trial that classifies
//! resolved strikes. What they share lives in `muse-core`: a symbol's
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
/// trial paths support; experiments beyond this draw their strikes live
/// ([`StrikeSampler::draw`]) into the Vec-based routes in `msed` (still
/// syndrome-domain — any `k ≤ n_devices` is accepted).
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
        }
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
        let mut chosen = [0usize; MAX_STRIKES];
        assert!(
            k <= MAX_STRIKES,
            "at most {MAX_STRIKES} simultaneous device failures on the fast path"
        );
        for i in 0..k {
            let half = halves.next(rng);
            let draw = self.picks[i].of_half(rng, half) as usize;
            let sym = place_distinct(&mut chosen, i, draw);
            let pattern = self.pick_pattern(rng, &mut halves, sym);
            strikes.push((sym, pattern));
        }
    }
}

/// Maps the `i`-th distinct draw `v ∈ [0, n−i)` onto the complement of the
/// set `chosen[..i]`, records it in `chosen[i]`, and returns the chosen
/// index — direct distinct sampling with no retry loop.
///
/// The `v`-th unchosen index is the least fixed point of
/// `s ↦ v + #{c ∈ chosen : c ≤ s}`. Iterating from `s = v` climbs to it in
/// at most `i` steps, so a fixed `i` steps of compares find it without a
/// data-dependent branch.
#[inline]
pub(crate) fn place_distinct(chosen: &mut [usize; 8], i: usize, v: usize) -> usize {
    let mut sym = v;
    for _ in 0..i {
        sym = v + chosen[..i].iter().filter(|&&c| c <= sym).count();
    }
    chosen[i] = sym;
    sym
}

/// How one MSED trial's `k`-device strike is drawn — `k` distinct devices,
/// each XOR-hit by a uniform nonzero pattern over its width — for MUSE
/// symbols and Reed-Solomon devices alike. Two schemes, chosen here once:
///
/// * **columnar** (`k ≤ MAX_STRIKES`, one width `w` on every device): per
///   engine block, `k` distinct-pick columns (column `i` over `n − i`), then
///   one `k·len` pattern column (`1 +` a draw over `2^w − 1`), resolved per
///   trial by [`place_distinct`] ([`Self::fill`], [`StrikeBlock::strikes`]);
/// * **live** (everything else): [`Rng::choose_k`], then
///   [`Rng::nonzero_below`] per device, in trial order ([`Self::draw`]).
///   MUSE sends mixed-width layouts with `k ≤ MAX_STRIKES` through
///   [`TrialPlan::inject_distinct`] instead.
pub(crate) struct StrikeSampler {
    k: usize,
    /// Per-device pattern widths.
    widths: Vec<u32>,
    /// The columnar scheme's distinct-pick samplers (`picks[i]` over
    /// `n − i`) and common nonzero-pattern sampler, when it applies.
    columns: Option<(Vec<Bounded32>, Bounded32)>,
}

impl StrikeSampler {
    /// A sampler striking `k` of the devices whose widths `widths` lists.
    pub fn new(widths: Vec<u32>, k: usize) -> Self {
        let n = widths.len();
        assert!((1..=n).contains(&k), "cannot corrupt {k} of {n} devices");
        let uniform = widths.iter().all(|&w| w == widths[0]);
        let columns = (k <= MAX_STRIKES && uniform).then(|| {
            (
                (0..k).map(|i| Bounded32::new((n - i) as u32)).collect(),
                Bounded32::new((1u32 << widths[0]) - 1),
            )
        });
        Self { k, widths, columns }
    }

    /// Whether strikes come from [`Self::fill`]ed columns rather than
    /// [`Self::draw`].
    pub fn is_columnar(&self) -> bool {
        self.columns.is_some()
    }

    /// Draws one trial's strikes live, appending them to `strikes`.
    pub fn draw(&self, rng: &mut Rng, strikes: &mut Vec<(usize, u16)>) {
        for dev in rng.choose_k(self.widths.len(), self.k) {
            strikes.push((dev, rng.nonzero_below(1 << self.widths[dev]) as u16));
        }
    }

    /// Fills one block's strike columns for `len` trials into the
    /// per-worker buffers `cols`.
    ///
    /// # Panics
    ///
    /// Panics unless [`Self::is_columnar`].
    pub fn fill<'c>(
        &self,
        rng: &mut Rng,
        cols: &'c mut StrikeColumns,
        len: usize,
    ) -> StrikeBlock<'c> {
        let (picks, pattern) = self.columns.as_ref().expect("columnar strike scheme");
        let k = self.k;
        for col in [&mut cols.picks, &mut cols.patterns] {
            if col.len() < k * len {
                col.resize(k * len, 0);
            }
        }
        for (i, pick) in picks.iter().enumerate() {
            pick.fill(rng, &mut cols.picks[i * len..(i + 1) * len]);
        }
        pattern.fill(rng, &mut cols.patterns[..k * len]);
        StrikeBlock {
            picks: &cols.picks[..k * len],
            patterns: &cols.patterns[..k * len],
            k,
            len,
        }
    }
}

/// Per-worker strike-column buffers for [`StrikeSampler::fill`];
/// grow-only.
#[derive(Default)]
pub(crate) struct StrikeColumns {
    picks: Vec<u32>,
    patterns: Vec<u32>,
}

/// One block's filled strike columns.
#[derive(Clone, Copy)]
pub(crate) struct StrikeBlock<'c> {
    /// `k` distinct-pick columns of `len` draws, back to back.
    picks: &'c [u32],
    /// `k·len` pattern draws, strike-major like `picks`.
    patterns: &'c [u32],
    k: usize,
    len: usize,
}

impl StrikeBlock<'_> {
    /// Resolves trial `t`'s strikes into `out`, returning them:
    /// `(device, nonzero pattern)` in draw order.
    #[inline]
    pub fn strikes<'s>(
        &self,
        t: usize,
        out: &'s mut [(usize, u16); MAX_STRIKES],
    ) -> &'s [(usize, u16)] {
        let mut chosen = [0usize; MAX_STRIKES];
        for (i, strike) in out[..self.k].iter_mut().enumerate() {
            let dev = place_distinct(&mut chosen, i, self.picks[i * self.len + t] as usize);
            *strike = (dev, 1 + self.patterns[i * self.len + t] as u16);
        }
        &out[..self.k]
    }

    /// Trial `t`'s two-device strike as the unordered case it hits,
    /// `(low device, high device, low pattern − 1, high pattern − 1)`: the
    /// same devices and patterns [`Self::strikes`] resolves, read straight
    /// off the raw columns (the second pick skips the first device, as in
    /// [`place_distinct`]). Requires `k = 2`.
    #[inline]
    pub fn pair(&self, t: usize) -> (usize, usize, usize, usize) {
        debug_assert_eq!(self.k, 2, "a pair needs a two-device strike");
        let (first, second) = (self.picks[t] as usize, self.picks[self.len + t] as usize);
        let (a, b) = (
            self.patterns[t] as usize,
            self.patterns[self.len + t] as usize,
        );
        if second >= first {
            (first, second + 1, a, b)
        } else {
            (second, first, b, a)
        }
    }
}

/// Fixed-capacity record of one columnar-replay trial — the MSED hot path
/// for strike counts other than 2.
///
/// Unlike a [`MuseClassifier`](muse_core::MuseClassifier) (whose content
/// cache lives in per-symbol vectors), an inline trial keeps its contents
/// in small fixed arrays that stay in registers when the record is a
/// non-escaping local, so consecutive trials share no memory traffic and
/// the CPU overlaps their table lookups. Capacity is [`MAX_STRIKES`]
/// simultaneous device failures; larger experiments take the Vec-based
/// content path.
#[derive(Default)]
pub(crate) struct InlineTrial {
    /// Stored content per strike.
    contents: [u16; MAX_STRIKES],
    /// Content drawn for a correction target outside the strikes.
    extra: Option<(usize, u16)>,
    /// The trial's check value, drawn on first use.
    x: Option<u64>,
}

impl InlineTrial {
    /// The observations of the last trial (which struck `strikes`), in
    /// [`MuseClassifier::observed`](muse_core::MuseClassifier::observed)
    /// form, for reference reconstruction.
    #[cfg(test)]
    pub fn observed(
        &self,
        strikes: &[(usize, u16)],
        n_sym: usize,
    ) -> (Vec<Option<u16>>, Option<u64>) {
        let mut observed = vec![None; n_sym];
        for (&(s, _), &c) in strikes.iter().zip(&self.contents) {
            observed[s] = Some(c);
        }
        if let Some((s, c)) = self.extra {
            observed[s] = Some(c);
        }
        (observed, self.x)
    }
}

/// Runs one content-space MSED trial on resolved `strikes` (distinct
/// `(symbol, nonzero pattern)` pairs); `raw(i)` gives strike `i`'s raw
/// content bits. The check value and an outside-strike correction
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
    strikes: &[(usize, u16)],
    raw: impl Fn(usize) -> u16,
) -> ReadOutcome {
    assert!(
        strikes.len() <= MAX_STRIKES,
        "at most {MAX_STRIKES} simultaneous device failures on the fast path"
    );
    let InlineTrial { contents, extra, x } = trial;
    *extra = None;
    *x = None;
    let mut rem = 0u64;
    for (i, &(sym, pattern)) in strikes.iter().enumerate() {
        let content = kernel.content_from_raw(sym, raw(i), || {
            *x.get_or_insert_with(|| x_pick.sample(rng) as u64)
        });
        rem = kernel.add_mod(rem, kernel.flip_delta(sym, content, pattern));
        contents[i] = content;
    }
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

/// One double-strike MSED trial from the k = 2 fully-columnar draw
/// columns (the scheme is spelled out on
/// [`LaneKernel::run_block`](crate::lanes::LaneKernel::run_block)),
/// decoded with hardware divisions and classified one trial at a time:
/// the draw-for-draw scalar oracle the lane kernel is proven bit-identical
/// to.
///
/// Returns the outcome plus the outside-strike correction target's
/// `(symbol, content)` when one was consulted (for reference
/// reconstruction).
#[cfg(test)]
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
        let fixed = parts.iter().enumerate().fold(0, |acc, (s, &vp)| {
            kernel.add_mod(acc, kernel.residue(s, vp))
        });
        let x = match x {
            // No check value sampled: any payload works — use the parts as
            // they stand and derive X ≡ −Σ residues (mod m) from them.
            None => (m - fixed) % m,
            Some(x) => {
                // Solve: sum of all payload-part residues ≡ m − X (mod m).
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
    /// same reconstruction as `sampled_trials_match_wide_decoder`, drawing
    /// strikes through a one-trial [`StrikeSampler`] block and classifying
    /// them with `msed_inline_trial` the way `muse_msed`'s hot loop does.
    #[test]
    fn inline_trials_match_wide_decoder() {
        for code in preset_codes() {
            let Some(kernel) = code.kernel() else {
                continue;
            };
            let n = kernel.num_symbols();
            let widths: Vec<u32> = (0..n).map(|s| kernel.symbol_bits(s)).collect();
            let samplers: Vec<StrikeSampler> = (1..=3)
                .map(|k| StrikeSampler::new(widths.clone(), k))
                .collect();
            let x_pick = Bounded32::new(kernel.modulus() as u32);
            let mut cols = StrikeColumns::default();
            let mut trial = InlineTrial::default();
            let mut rng = Rng::seeded(0x1221);
            let mut reconstructed = 0u32;
            for t in 0..400 {
                let k = 1 + (t % 3);
                let mut strikes = [(0, 0); MAX_STRIKES];
                let strikes = samplers[k - 1]
                    .fill(&mut rng, &mut cols, 1)
                    .strikes(0, &mut strikes);
                let raws: Vec<u16> = strikes.iter().map(|_| rng.next_u64() as u16).collect();
                let fast =
                    msed_inline_trial(kernel, x_pick, &mut rng, &mut trial, strikes, |i| raws[i]);

                let (observed, x) = trial.observed(strikes, n);
                let Some(cw) = reconstruct(&code, &observed, x) else {
                    continue;
                };
                reconstructed += 1;
                let payload = code.payload_of(&cw);
                let mut corrupted = cw;
                for &(sym, pattern) in strikes {
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

    /// `place_distinct` lands on the `v`-th index outside the chosen set,
    /// for every draw of a full pick sequence.
    #[test]
    fn place_distinct_picks_the_vth_unchosen_index() {
        let n = 12;
        let mut rng = Rng::seeded(0xD157);
        for _ in 0..2_000 {
            let mut chosen = [0usize; MAX_STRIKES];
            let mut taken = vec![false; n];
            for i in 0..MAX_STRIKES {
                let v = rng.below((n - i) as u64) as usize;
                let expect = (0..n).filter(|&s| !taken[s]).nth(v).expect("v < n − i");
                assert_eq!(place_distinct(&mut chosen, i, v), expect);
                taken[expect] = true;
            }
        }
    }

    /// Both strike schemes draw distinct devices with nonzero patterns
    /// inside each device's width.
    #[test]
    fn strike_sampler_draws_distinct_nonzero_strikes() {
        let mut rng = Rng::seeded(0x57_21CE);
        let mut cols = StrikeColumns::default();
        let mut live = Vec::new();
        for (widths, k) in [(vec![4u32; 36], 3), (vec![8; 10], 8), (vec![4; 36], 12)] {
            let sampler = StrikeSampler::new(widths.clone(), k);
            assert_eq!(sampler.is_columnar(), k <= MAX_STRIKES);
            for _ in 0..50 {
                let strikes = if sampler.is_columnar() {
                    let mut out = [(0, 0); MAX_STRIKES];
                    sampler
                        .fill(&mut rng, &mut cols, 1)
                        .strikes(0, &mut out)
                        .to_vec()
                } else {
                    live.clear();
                    sampler.draw(&mut rng, &mut live);
                    live.clone()
                };
                let mut devs: Vec<usize> = strikes.iter().map(|&(d, _)| d).collect();
                for &(d, p) in &strikes {
                    assert!(p != 0 && u32::from(p) < 1 << widths[d], "{strikes:?}");
                }
                devs.sort_unstable();
                devs.dedup();
                assert_eq!(devs.len(), k, "distinct devices: {strikes:?}");
            }
        }
        assert!(
            !StrikeSampler::new(vec![4, 8, 4], 2).is_columnar(),
            "mixed widths draw live"
        );
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
            let n = kernel.num_symbols() as u32;
            if (1..n as usize).any(|s| kernel.symbol_bits(s) != kernel.symbol_bits(0)) {
                continue; // the scheme needs one symbol width
            }
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
