//! Lane-parallel (structure-of-arrays) MUSE trial kernel — the
//! double-symbol MSED route for every uniform-width symbol layout.
//!
//! A scalar walk takes one trial at a time: resolve its distinct symbols,
//! assemble contents, fold residues, probe the fused ELC table. Each step
//! is a handful of table loads, so the real limit is memory-level
//! parallelism — consecutive trials serialized behind each other's lookups
//! and, worse, behind *data-dependent live draws* (the lazily sampled check
//! value `X`). This module removes both. The k = 2 draw scheme is fully
//! columnar: one quad-packed bounded draw carries a trial's two distinct
//! symbols *and* two nonzero patterns, and the check value and
//! outside-strike correction content are unconditional per-trial columns —
//! no live randomness at all (the scheme is spelled out on
//! [`LaneKernel::run_block`]). A whole engine block then moves through the
//! kernel in branchless stages:
//!
//! 1. **Decode + fold + probe** (one fused pass per lane): unpack the quad
//!    draw with divisions by the runtime constants `n(n−1)`, `n−1` and
//!    `2^w−1` strength-reduced to multiply-high ([`MagicDiv`], exact for
//!    every `u32` dividend), assemble final contents — check bits included
//!    — by OR-ing byte-sliced per-symbol tables of the `X` column (any
//!    check-bit placement, contiguous or interleaved), gather
//!    `before`/`after` residues, reduce modularly without branches
//!    (`x.min(x − m)` compiles to a cmov), and probe the fused ELC table.
//!    Consecutive lanes share no state, so the table loads overlap in the
//!    load queue.
//! 2. **Compact** — indices of trials needing attention (zero syndrome or
//!    a correction candidate, ~12%) collected with a branch-free
//!    conditional append; the bulk majority tally as Detected in one
//!    addition.
//! 3. **Walk** — the exceptional few re-derive their draws from the
//!    original columns (pure ALU, cheaper than storing six columns for
//!    everyone) and end in [`SyndromeKernel::finish_read`], the same finish
//!    as every other MUSE read.
//!
//! The kernel accepts every uniform-width layout whose quad draw
//! `n(n−1)·(2^w−1)²` fits a `u32`; mixed widths and larger geometries take
//! `muse_msed`'s other routes. The in-module tests hold its tallies to a
//! draw-for-draw scalar oracle on identical columns.

use muse_core::{ReadOutcome, SyndromeKernel};

/// Multiply-high division by a runtime constant, exact for every `u32`
/// dividend and every nonzero divisor — the stage-1 decodes divide every
/// lane by `n(n−1)`, `n−1` and `2^w−1`, where hardware `div`s would cost
/// more than the rest of the stage. This is the round-down variant of
/// Granlund–Montgomery invariant division (PLDI 1994) with a 64-bit magic
/// `⌊(2^64−1)/div⌋` and an incremented dividend, so divisor 1 needs no
/// special case.
#[derive(Clone, Copy)]
struct MagicDiv {
    div: u32,
    magic: u64,
}

impl MagicDiv {
    fn new(div: u32) -> Self {
        assert!(div != 0, "division by zero");
        Self {
            div,
            magic: u64::MAX / u64::from(div),
        }
    }

    /// `⌊d/div⌋`. With `f = (2^64−1) mod div`, `magic = (2^64−1−f)/div`,
    /// so `(d+1)·magic/2^64 = (d+1)/div − ε` with
    /// `0 < ε = (d+1)(1+f)/(div·2^64) ≤ 1/div` (as `d+1 ≤ 2^32` and
    /// `1+f ≤ div < 2^32`). Writing `d = q·div + r`, the product lies in
    /// `[q + r/div, q + (r+1)/div)`, whose floor is `q`.
    #[inline]
    fn quot(self, d: u32) -> u32 {
        ((u128::from(u64::from(d) + 1) * u128::from(self.magic)) >> 64) as u32
    }

    #[inline]
    fn divmod(self, d: u32) -> (u32, u32) {
        let q = self.quot(d);
        (q, d - q * self.div)
    }
}

/// The k = 2 quad-draw bound `n(n−1)·(2^w−1)²` of a kernel whose symbols
/// share symbol 0's width, when it fits a `u32` — the domain of the
/// quad-packed draw scheme. `None` (a geometry far past any real preset)
/// sends k = 2 down `muse_msed`'s per-strike columnar route instead.
pub(crate) fn quad_bound(kernel: &SyndromeKernel) -> Option<u32> {
    let n = kernel.num_symbols() as u64;
    let pb = (1u64 << kernel.symbol_bits(0)) - 1;
    u32::try_from(n * n.saturating_sub(1) * pb * pb).ok()
}

/// Per-configuration constants of the lane kernel.
pub(crate) struct LaneKernel<'k> {
    /// The kernel behind the raw tables; the walk finishes through it.
    kernel: &'k SyndromeKernel,
    /// Flat residue table; symbol `s` content `x` at `(s << width) + x`.
    residues: &'k [u64],
    /// Fused remainder → `(transition offset << 12) | symbol` table.
    elc_fused: &'k [u32],
    /// Per-symbol `(payload mask, check-table row)`.
    symbols: Vec<(u16, u32)>,
    /// Byte-sliced check-bit tables: the check part of symbol `s`'s content
    /// under check value `x` is the OR over bytes `b < x_bytes` of
    /// `check_parts[row(s) + 256·b + ((x >> 8b) & 0xFF)]`. Any check-bit
    /// placement — contiguous or interleaved — is one gather; every
    /// payload-only symbol shares the all-zero row 0, so one branchless
    /// expression covers every lane.
    check_parts: Vec<u16>,
    /// Bytes of the check value the tables slice: `⌈bits(m−1)/8⌉`.
    x_bytes: usize,
    /// The common symbol width.
    width: u32,
    m: u64,
    /// `n(n−1)·(2^w−1)²`: every quad draw lies below it.
    pub(crate) quad_bound: u32,
    /// Quad-draw split: divide by `n(n−1)` (quotient = pattern pair,
    /// remainder = symbol pair).
    quad_div: MagicDiv,
    /// Symbol-pair decode: divide by `n − 1`.
    sym_div: MagicDiv,
    /// Pattern-pair decode: divide by `2^width − 1`.
    pat_div: MagicDiv,
}

/// Per-worker stage buffers, sized for one engine block. Grow-only, never
/// zeroed: every cell is written before it is read.
#[derive(Default)]
pub(crate) struct LaneBuffers {
    /// Per-trial modular syndrome.
    rems: Vec<u64>,
    /// Compacted indices of trials needing per-trial attention.
    exceptional: Vec<u32>,
}

fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

impl<'k> LaneKernel<'k> {
    /// Builds the lane kernel for a uniform-width kernel of at least two
    /// symbols whose k = 2 quad draw `n(n−1)·(2^w−1)²` fits a `u32` — the
    /// domain of the quad-packed draw scheme itself.
    ///
    /// # Panics
    ///
    /// Panics outside that domain.
    pub fn new(kernel: &'k SyndromeKernel) -> Self {
        let n = kernel.num_symbols();
        let width = kernel.symbol_bits(0);
        assert!(
            n >= 2 && (1..n).all(|s| kernel.symbol_bits(s) == width),
            "the k = 2 draw scheme needs at least two symbols of one width"
        );
        let quad_bound = quad_bound(kernel).expect("the k = 2 quad draw must fit a u32");
        let pb = (1u32 << width) - 1;
        debug_assert!((0..n).all(|s| kernel.residue_offset(s) == (s as u32) << width));
        let n = n as u32;
        let m = kernel.modulus();
        let x_max = u32::try_from(m - 1).expect("kernel moduli fit u32");
        let x_bytes = (u32::BITS - x_max.leading_zeros()).div_ceil(8).max(1) as usize;
        let mut check_parts = vec![0u16; x_bytes << 8];
        let symbols = (0..n as usize)
            .map(|s| {
                let mut row = 0;
                if kernel.needs_check_value(s) {
                    row = check_parts.len() as u32;
                    for b in 0..x_bytes {
                        check_parts.extend(
                            (0..256u64).map(|v| kernel.apply_check_bits(s, 0, v << (8 * b))),
                        );
                    }
                }
                (kernel.payload_mask(s), row)
            })
            .collect();
        Self {
            kernel,
            residues: kernel.raw_residues(),
            elc_fused: kernel.raw_elc_fused(),
            symbols,
            check_parts,
            x_bytes,
            width,
            m,
            quad_bound,
            quad_div: MagicDiv::new(n * (n - 1)),
            sym_div: MagicDiv::new(n - 1),
            pat_div: MagicDiv::new(pb),
        }
    }

    /// A symbol's final content from its raw 16-bit draw and the trial's
    /// check value: payload bits masked, check-region bits gathered from
    /// `x` through the symbol's byte-sliced table row (the zero row for
    /// payload-only symbols — no branch). `X_BYTES` is `self.x_bytes` as
    /// a constant, so the gather unrolls.
    #[inline(always)]
    fn content<const X_BYTES: usize>(&self, sym: u32, raw: u16, x: u64) -> u16 {
        debug_assert_eq!(X_BYTES, self.x_bytes);
        debug_assert!((sym as usize) < self.symbols.len() && x < self.m);
        // SAFETY: private fn; every caller passes a symbol < n — the
        // decode of a quad draw below `quad_bound` (stage 1, asserted in
        // `run_block`) or the symbol `finish_read` matched (walk).
        let (pmask, row) = unsafe { *self.symbols.get_unchecked(sym as usize) };
        let mut part = 0;
        for b in 0..X_BYTES {
            let idx = row as usize + (b << 8) + ((x >> (8 * b)) & 0xFF) as usize;
            // SAFETY: `row` starts an `x_bytes · 256`-entry row of
            // `check_parts`, and `(b << 8) + byte` stays inside it because
            // `X_BYTES == x_bytes` (`run_block` dispatches on `x_bytes`).
            part |= unsafe { *self.check_parts.get_unchecked(idx) };
        }
        (raw & pmask) | part
    }

    /// Decodes one trial's draw columns into its resolved strikes:
    /// `(sym0, sym1, pat0, pat1, content0, content1)` — patterns with the
    /// `1 +` nonzero offset applied, contents with check bits in place.
    #[inline(always)]
    fn decode<const X_BYTES: usize>(
        &self,
        quad: u32,
        cnt: u32,
        x: u64,
    ) -> (u32, u32, u32, u32, u16, u16) {
        let (qp, sp) = self.quad_div.divmod(quad);
        let (a, r) = self.sym_div.divmod(sp);
        let b = r + (r >= a) as u32;
        let (ph, pl) = self.pat_div.divmod(qp);
        let c0 = self.content::<X_BYTES>(a, cnt as u16, x);
        let c1 = self.content::<X_BYTES>(b, (cnt >> 16) as u16, x);
        (a, b, 1 + ph, 1 + pl, c0, c1)
    }

    /// Runs one engine block of `len` trials through the staged lanes.
    ///
    /// Trial `t` is a pure function of its four pre-filled column entries —
    /// no live randomness:
    ///
    /// * `quad_col[t] ∈ [0, n(n−1)·(2^w−1)²)` — both distinct symbols *and*
    ///   both nonzero patterns in one bounded draw. The symbol pair is
    ///   `quad mod n(n−1)` (first strike `· / (n−1)`, second `· mod (n−1)`
    ///   adjusted past it — a uniform ordered pair of distinct symbols); the
    ///   pattern pair is `quad / n(n−1)`, split by `2^w−1` and offset by 1;
    /// * `cnt_col[t]` — two raw 16-bit contents, strike 0 in the low half;
    /// * `x_col[t] ∈ [0, m)` — the trial's check value, drawn
    ///   unconditionally (a lazy draw would serialize the stream behind a
    ///   data-dependent branch; an unused uniform draw biases nothing);
    /// * `extra_col[t]` — raw content bits for a correction target outside
    ///   the strikes, likewise drawn unconditionally and usually unused.
    ///
    /// `sink` receives `(outcome, count)` batches in an unspecified order
    /// (tallies are associative; the bulk-Detected majority arrives as one
    /// batch).
    #[allow(clippy::too_many_arguments)]
    pub fn run_block(
        &self,
        buf: &mut LaneBuffers,
        len: usize,
        quad_col: &[u32],
        cnt_col: &[u32],
        x_col: &[u32],
        extra_col: &[u32],
        sink: impl FnMut(ReadOutcome, u64),
    ) {
        assert!(
            quad_col.len() == len
                && cnt_col.len() == len
                && x_col.len() == len
                && extra_col.len() == len
        );
        // Stage 1's unchecked loads rely on every decoded symbol being < n.
        assert!(
            quad_col.iter().all(|&q| q < self.quad_bound),
            "quad draws must lie below n(n−1)·(2^w−1)²"
        );
        grow(&mut buf.rems, len);
        grow(&mut buf.exceptional, len);
        let cols = (quad_col, cnt_col, x_col, extra_col);
        match self.x_bytes {
            1 => self.run_stages::<1>(buf, len, cols, sink),
            2 => self.run_stages::<2>(buf, len, cols, sink),
            3 => self.run_stages::<3>(buf, len, cols, sink),
            4 => self.run_stages::<4>(buf, len, cols, sink),
            _ => unreachable!("check values fit a u32"),
        }
    }

    /// The stages of [`Self::run_block`], with `X_BYTES == self.x_bytes`.
    fn run_stages<const X_BYTES: usize>(
        &self,
        buf: &mut LaneBuffers,
        len: usize,
        (quad_col, cnt_col, x_col, extra_col): (&[u32], &[u32], &[u32], &[u32]),
        mut sink: impl FnMut(ReadOutcome, u64),
    ) {
        // Stage 1: decode + fold + probe + compact, one fused branchless
        // pass.
        let n_exc = self.stage1::<X_BYTES>(buf, len, quad_col, cnt_col, x_col);

        // The bulk majority (~88%) is Detected: one batched tally.
        sink(ReadOutcome::Detected, (len - n_exc) as u64);

        // Stage 3: the exceptional walk. Strikes are re-derived from the
        // draw columns — a handful of ALU ops on ~12% of trials beats
        // storing six decoded columns for all of them.
        for &t in &buf.exceptional[..n_exc] {
            let t = t as usize;
            let x = x_col[t] as u64;
            let (s0, s1, p0, p1, c0, c1) = self.decode::<X_BYTES>(quad_col[t], cnt_col[t], x);
            let strikes = [(s0 as usize, p0 as u16), (s1 as usize, p1 as u16)];
            let outcome = self.kernel.finish_read(buf.rems[t], &strikes, |symbol| {
                if symbol == s0 as usize {
                    c0
                } else if symbol == s1 as usize {
                    c1
                } else {
                    // Correction target outside the strikes: its content
                    // comes from the pre-drawn extra column — still no
                    // live draw.
                    self.content::<X_BYTES>(symbol as u32, extra_col[t] as u16, x)
                }
            });
            sink(outcome, 1);
        }
    }

    /// The fused stage 1: per lane, decode the draws, gather the
    /// four residues, reduce the syndrome branchlessly (`x.min(x − m)`
    /// compiles to a cmov — an `if x ≥ m` on data-random values
    /// mispredicts half the time), probe the fused ELC table, and append
    /// exceptional indices branch-free. Consecutive lanes are independent,
    /// so the loads pipeline. Returns the exceptional count. Every quad
    /// draw must lie below `quad_bound`.
    fn stage1<const X_BYTES: usize>(
        &self,
        buf: &mut LaneBuffers,
        len: usize,
        quad_col: &[u32],
        cnt_col: &[u32],
        x_col: &[u32],
    ) -> usize {
        let (m, w) = (self.m, self.width);
        let mut n_exc = 0usize;
        for t in 0..len {
            let (a, b, p0, p1, c0, c1) =
                self.decode::<X_BYTES>(quad_col[t], cnt_col[t], x_col[t] as u64);
            let base0 = (a << w) as usize;
            let base1 = (b << w) as usize;
            // SAFETY: every index is bounded by construction — `a, b < n`
            // (exact decodes of a quad draw below `quad_bound`, asserted in
            // `run_block`), contents and patterns
            // never leave the width mask, so `base + idx < n·2^w =
            // residues.len()`; `rem < m = elc_fused.len()` after the
            // reductions.
            let (before0, after0, before1, after1) = unsafe {
                (
                    *self.residues.get_unchecked(base0 + c0 as usize),
                    *self
                        .residues
                        .get_unchecked(base0 + (c0 as u32 ^ p0) as usize),
                    *self.residues.get_unchecked(base1 + c1 as usize),
                    *self
                        .residues
                        .get_unchecked(base1 + (c1 as u32 ^ p1) as usize),
                )
            };
            // Each delta ∈ [0, 2m): when ≥ m the wrapped subtraction is
            // the smaller value; when < m it wraps above 2^63 and loses
            // `min`.
            let d0 = after0 + (m - before0);
            let d0 = d0.min(d0.wrapping_sub(m));
            let d1 = after1 + (m - before1);
            let d1 = d1.min(d1.wrapping_sub(m));
            let rem = d0 + d1;
            let rem = rem.min(rem.wrapping_sub(m));
            buf.rems[t] = rem;
            // SAFETY: rem < m = elc_fused.len().
            let packed = unsafe { *self.elc_fused.get_unchecked(rem as usize) };
            // Branch-free conditional append: zero syndrome or a
            // correction candidate goes to the walk.
            buf.exceptional[n_exc] = t as u32;
            n_exc += ((rem == 0) | (packed != SyndromeKernel::NO_ENTRY)) as usize;
        }
        n_exc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::msed_trial_k2_cols;
    use crate::rng::Bounded32;
    use crate::Rng;
    use muse_core::{presets, MuseCode};

    /// Every preset: each has one symbol width and a quad draw that fits.
    fn all_presets() -> [MuseCode; 6] {
        [
            presets::muse_144_132(),
            presets::muse_144_128(),
            presets::muse_80_67(),
            presets::muse_80_69(),
            presets::muse_80_70(),
            presets::muse_268_256(),
        ]
    }

    /// The multiply-high divider agrees with hardware division: exhaustively
    /// over the quad-split domains of the real presets, and by boundary
    /// values plus a strided sweep over all of `u32` for divisors that
    /// include 1, the extremes, and the `(1260, 65025)` quad split (36
    /// symbols of 8 bits) that the earlier 32-bit magic could not prove.
    #[test]
    fn magic_div_exact() {
        let check = |div: u32, d: u32| {
            assert_eq!(
                MagicDiv::new(div).divmod(d),
                (d / div, d % div),
                "{d}/{div}"
            );
        };
        for (div, count) in [
            (35u32, 36u32),
            (15, 15),
            (255, 255),
            (9, 67),
            (1, 5),
            (1260, 225), // muse_144_132 quad split
            (90, 65025), // muse_80_70 quad split (w = 8)
            (4422, 225), // muse_268_256 quad split
        ] {
            for d in 0..div * count {
                check(div, d);
            }
        }
        for div in [
            1u32,
            2,
            3,
            255,
            1260,
            65025,
            1 << 16,
            (1 << 31) - 1,
            1 << 31,
            u32::MAX,
        ] {
            let top = u32::MAX / div * div;
            let boundaries = [0, 1, div - 1, div, div.saturating_add(1), 1260 * 65025 - 1];
            for d in boundaries
                .into_iter()
                .chain([top - 1, top, u32::MAX - 1, u32::MAX])
            {
                check(div, d);
            }
            for d in (0..=u32::MAX).step_by(65_521) {
                check(div, d);
            }
        }
    }

    /// The byte-sliced check-bit tables reproduce `content_from_raw`
    /// exactly on every preset — the affine sequential layouts and the
    /// interleaved ones alike.
    #[test]
    fn affine_content_matches_apply_check_bits() {
        for code in all_presets() {
            let kernel = code.kernel().expect("preset supports the kernel");
            let lanes = LaneKernel::new(kernel);
            assert_eq!(lanes.x_bytes, 2, "every preset modulus needs two bytes");
            let mut state = 0xA11E_5EEDu64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for sym in 0..kernel.num_symbols() as u32 {
                for _ in 0..64 {
                    let raw = next() as u16;
                    let x = next() % kernel.modulus();
                    let expect = kernel.content_from_raw(sym as usize, raw, || x);
                    assert_eq!(lanes.content::<2>(sym, raw, x), expect, "symbol {sym}");
                }
            }
        }
    }

    /// The interleaved (Eq. 5) layout of MUSE(80,67) takes the lane kernel:
    /// one table row per check-owning symbol, plus the zero row every
    /// payload-only symbol shares.
    #[test]
    fn interleaved_layouts_take_the_lane_kernel() {
        let code = presets::muse_80_67();
        let kernel = code.kernel().expect("preset supports the kernel");
        let lanes = LaneKernel::new(kernel);
        let owners = (0..kernel.num_symbols())
            .filter(|&s| kernel.needs_check_value(s))
            .count();
        assert!(owners > 1, "check bits spread over several symbols");
        assert_eq!(lanes.check_parts.len(), (1 + owners) * lanes.x_bytes * 256);
    }

    /// The four draw columns of one block, filled the way `muse_msed`
    /// fills them.
    fn fill_columns(kernel: &SyndromeKernel, seed: u64, len: usize) -> [Vec<u32>; 4] {
        let n = kernel.num_symbols() as u32;
        let pb = (1u32 << kernel.symbol_bits(0)) - 1;
        let mut rng = Rng::seeded(seed);
        let mut cols = [
            vec![0u32; len],
            vec![0u32; len],
            vec![0u32; len],
            vec![0u32; len],
        ];
        Bounded32::new(n * (n - 1) * pb * pb).fill(&mut rng, &mut cols[0]);
        rng.fill_u32s(&mut cols[1]);
        Bounded32::new(kernel.modulus() as u32).fill(&mut rng, &mut cols[2]);
        rng.fill_u32s(&mut cols[3]);
        cols
    }

    /// Stage 1's fused fold leaves each lane's syndrome equal to the two
    /// strikes' scalar `flip_delta`s summed modularly.
    #[test]
    fn fold_column_matches_flip_delta() {
        let code = presets::muse_144_132();
        let kernel = code.kernel().expect("preset supports the kernel");
        let lanes = LaneKernel::new(kernel);
        let len = 257;
        let [quad_col, cnt_col, x_col, _] = fill_columns(kernel, 0x1357_9BDF, len);
        let mut buf = LaneBuffers::default();
        grow(&mut buf.rems, len);
        grow(&mut buf.exceptional, len);
        assert_eq!(lanes.x_bytes, 2);
        lanes.stage1::<2>(&mut buf, len, &quad_col, &cnt_col, &x_col);
        for t in 0..len {
            let (a, b, p0, p1, c0, c1) =
                lanes.decode::<2>(quad_col[t], cnt_col[t], x_col[t] as u64);
            let expected = kernel.add_mod(
                kernel.flip_delta(a as usize, c0, p0 as u16),
                kernel.flip_delta(b as usize, c1, p1 as u16),
            );
            assert_eq!(buf.rems[t], expected, "lane {t}");
        }
    }

    /// A full lane block agrees with the draw-for-draw scalar oracle on
    /// identical draw columns, on every preset and at block lengths of
    /// one trial, a partial block, and a whole engine block.
    #[test]
    fn run_block_matches_scalar_oracle() {
        for code in all_presets() {
            let kernel = code.kernel().expect("preset supports the kernel");
            let lanes = LaneKernel::new(kernel);
            let mut buf = LaneBuffers::default();
            for len in [1, 777, 1024] {
                let [quad_col, cnt_col, x_col, extra_col] = fill_columns(kernel, 0xB10C, len);
                let mut lane_tally = [0u64; 5];
                lanes.run_block(
                    &mut buf,
                    len,
                    &quad_col,
                    &cnt_col,
                    &x_col,
                    &extra_col,
                    |o, k| lane_tally[o as usize] += k,
                );
                let mut scalar_tally = [0u64; 5];
                for t in 0..len {
                    let (o, _) = msed_trial_k2_cols(
                        kernel,
                        quad_col[t],
                        cnt_col[t],
                        x_col[t] as u64,
                        extra_col[t],
                    );
                    scalar_tally[o as usize] += 1;
                }
                assert_eq!(lane_tally, scalar_tally, "{} len={len}", code.name());
            }
        }
    }
}
