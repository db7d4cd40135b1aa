//! Lane-parallel (structure-of-arrays) MUSE trial kernel — the
//! double-symbol MSED hot path for uniform-width symbol layouts.
//!
//! The scalar fast path walks one trial at a time: resolve its distinct
//! symbols, assemble contents, fold residues, probe the fused ELC table.
//! Each step is a handful of table loads, so the real limit is memory-level
//! parallelism — consecutive trials serialized behind each other's lookups
//! and, worse, behind *data-dependent live draws* (the lazily sampled check
//! value `X`). This module removes both. The k = 2 draw scheme is fully
//! columnar (see
//! [`msed_trial_k2_cols`](crate::fastpath::msed_trial_k2_cols)): one
//! quad-packed bounded draw carries a trial's two distinct symbols *and*
//! two nonzero patterns, and the check value and outside-strike correction
//! content are unconditional per-trial columns — no live randomness at
//! all. A whole engine block then moves through the kernel in branchless
//! stages:
//!
//! 1. **Decode + fold + probe** (one fused pass per lane): unpack the quad
//!    draw with divisions by the runtime constants `n(n−1)`, `n−1` and
//!    `2^w−1` strength-reduced to multiply-shift (domain-verified at
//!    construction), assemble final contents — check bits included — via a
//!    per-symbol shift-and-mask of the `X` column
//!    ([`SyndromeKernel::check_span`]), gather `before`/`after` residues,
//!    reduce modularly without branches (`x.min(x − m)` compiles to a
//!    cmov), and probe the fused ELC table. Consecutive lanes share no
//!    state, so the table loads overlap in the load queue.
//! 2. **Compact** — indices of trials needing attention (zero syndrome or
//!    a correction candidate, ~12%) collected with a branch-free
//!    conditional append; the bulk majority tally as Detected in one
//!    addition.
//! 3. **Walk** — the exceptional few re-derive their draws from the
//!    original columns (pure ALU, cheaper than storing six columns for
//!    everyone) and end in [`SyndromeKernel::finish_read`], the same finish
//!    as every other MUSE read. No trial ever re-enters a scalar replay.
//!
//! Unavailable on mixed-width layouts, scattered (non-affine) check spans,
//! or geometries past the verified divisor domains; `muse_msed` falls back
//! to the same-stream scalar oracle there, so the lane kernel is an
//! implementation detail the draws never observe.

use muse_core::{ReadOutcome, SyndromeKernel};

/// Multiply-shift division by a runtime constant (Granlund–Montgomery
/// round-up magic), exact over a construction-verified dividend domain —
/// the stage-1 decodes divide every lane by `n(n−1)`, `n−1` and `2^w−1`,
/// where hardware `div`s would cost more than the rest of the stage.
#[derive(Clone, Copy)]
struct MagicDiv {
    div: u32,
    magic: u64,
}

impl MagicDiv {
    /// A divider exact for all dividends in `[0, div·count)`, or `None`
    /// when exactness cannot be guaranteed for that domain (the lane
    /// kernel then defers to the scalar path and its hardware divisions).
    fn new(div: u32, count: u32) -> Option<Self> {
        if div == 0 {
            return None;
        }
        let domain = (div as u64).checked_mul(count as u64)?;
        if domain > 1u64 << 32 {
            return None;
        }
        let magic = (1u64 << 32) / div as u64 + 1;
        // div·magic = 2^32 + e with e = div − (2^32 mod div) ∈ [1, div];
        // then ⌊d·magic / 2^32⌋ = ⌊d/div⌋ exactly while d·e < 2^32 (the
        // round-up variant of Granlund–Montgomery invariant division).
        let e = div as u64 * magic - (1u64 << 32);
        if domain.saturating_sub(1) as u128 * e as u128 >= 1u128 << 32 {
            return None;
        }
        let this = Self { div, magic };
        // Belt and braces for small domains; the analytic bound carries
        // the rest (and `magic_div_exact` exhausts the large presets).
        debug_assert!((0..domain.min(1 << 14) as u32).all(|d| this.quot(d) == d / div));
        Some(this)
    }

    #[inline]
    fn quot(self, d: u32) -> u32 {
        ((d as u64 * self.magic) >> 32) as u32
    }

    #[inline]
    fn divmod(self, d: u32) -> (u32, u32) {
        let q = self.quot(d);
        (q, d - q * self.div)
    }
}

/// Per-configuration constants of the lane kernel.
/// [`LaneKernel::new`] returns `None` for layouts the columnar stages
/// cannot shape — see the module docs.
pub(crate) struct LaneKernel<'k> {
    /// The kernel behind the raw tables; the walk finishes through it.
    kernel: &'k SyndromeKernel,
    /// Flat residue table; symbol `s` content `x` at `(s << width) + x`.
    residues: &'k [u64],
    /// Fused remainder → `(transition offset << 12) | symbol` table.
    elc_fused: &'k [u32],
    /// Per-symbol payload masks.
    payload_masks: Vec<u16>,
    /// Per-symbol affine check-span constants, packed
    /// `(cbase << 24) | (ibase << 16) | nbits_mask`: the check part of a
    /// content is `(((x >> cbase) as u16) & nbits_mask) << ibase` — all
    /// zeros for payload-only symbols, so one branchless expression covers
    /// every lane.
    check_info: Vec<u32>,
    /// The common symbol width.
    width: u32,
    m: u64,
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
    /// Builds the lane kernel, or `None` where the columnar stages don't
    /// apply: mixed symbol widths, scattered check spans, non-standard
    /// residue packing, or a geometry past the dividers' verified domains.
    pub fn new(kernel: &'k SyndromeKernel) -> Option<Self> {
        let n = kernel.num_symbols();
        if n < 2 {
            return None;
        }
        let width = kernel.symbol_bits(0);
        if (1..n).any(|s| kernel.symbol_bits(s) != width) {
            return None;
        }
        if (0..n).any(|s| kernel.residue_offset(s) != (s as u32) << width) {
            return None;
        }
        let mut check_info = Vec::with_capacity(n);
        for s in 0..n {
            let (cbase, ibase, nbits) = kernel.check_span(s)?;
            check_info
                .push(((cbase as u32) << 24) | ((ibase as u32) << 16) | ((1u32 << nbits) - 1));
        }
        let n = n as u32;
        let pb = (1u32 << width) - 1;
        Some(Self {
            kernel,
            residues: kernel.raw_residues(),
            elc_fused: kernel.raw_elc_fused(),
            payload_masks: (0..n as usize).map(|s| kernel.payload_mask(s)).collect(),
            check_info,
            width,
            m: kernel.modulus(),
            quad_div: MagicDiv::new(n * (n - 1), pb.checked_mul(pb)?)?,
            sym_div: MagicDiv::new(n - 1, n)?,
            pat_div: MagicDiv::new(pb, pb)?,
        })
    }

    /// A symbol's final content from its raw 16-bit draw and the trial's
    /// check value: payload bits masked, check-region bits gathered from
    /// `x` by the precomputed affine span (zero-width for payload-only
    /// symbols — no branch).
    #[inline]
    fn content(&self, sym: u32, raw: u16, x: u64) -> u16 {
        let s = sym as usize;
        debug_assert!(s < self.check_info.len());
        // SAFETY: private fn; every caller passes a symbol < n — the quad
        // divider's verified decode domain (stage 1) or the symbol
        // `finish_read` matched (walk).
        let (info, pmask) = unsafe {
            (
                *self.check_info.get_unchecked(s),
                *self.payload_masks.get_unchecked(s),
            )
        };
        let part = (((x >> (info >> 24)) as u16) & info as u16) << ((info >> 16) & 0xFF);
        (raw & pmask) | part
    }

    /// Decodes one trial's draw columns into its resolved strikes:
    /// `(sym0, sym1, pat0, pat1, content0, content1)` — patterns with the
    /// `1 +` nonzero offset applied, contents with check bits in place.
    #[inline]
    fn decode(&self, quad: u32, cnt: u32, x: u64) -> (u32, u32, u32, u32, u16, u16) {
        let (qp, sp) = self.quad_div.divmod(quad);
        let (a, r) = self.sym_div.divmod(sp);
        let b = r + (r >= a) as u32;
        let (ph, pl) = self.pat_div.divmod(qp);
        let c0 = self.content(a, cnt as u16, x);
        let c1 = self.content(b, (cnt >> 16) as u16, x);
        (a, b, 1 + ph, 1 + pl, c0, c1)
    }

    /// Runs one engine block of `len` trials through the staged lanes.
    ///
    /// The four pre-filled draw columns are exactly those of
    /// [`msed_trial_k2_cols`](crate::fastpath::msed_trial_k2_cols): the
    /// quad-packed symbols-and-patterns draw, two raw 16-bit contents per
    /// trial, the per-trial check value, and the raw content bits of a
    /// potential outside-strike correction target. No live randomness —
    /// outcomes are a pure function of the columns. `sink` receives
    /// `(outcome, count)` batches in an unspecified order (tallies are
    /// associative; the bulk-Detected majority arrives as one batch).
    #[allow(clippy::too_many_arguments)]
    pub fn run_block(
        &self,
        buf: &mut LaneBuffers,
        len: usize,
        quad_col: &[u32],
        cnt_col: &[u32],
        x_col: &[u32],
        extra_col: &[u32],
        mut sink: impl FnMut(ReadOutcome, u64),
    ) {
        assert!(
            quad_col.len() == len
                && cnt_col.len() == len
                && x_col.len() == len
                && extra_col.len() == len
        );
        grow(&mut buf.rems, len);
        grow(&mut buf.exceptional, len);

        // Stage 1: decode + fold + probe + compact, one fused branchless
        // pass.
        let n_exc = self.stage1(buf, len, quad_col, cnt_col, x_col);

        // The bulk majority (~88%) is Detected: one batched tally.
        sink(ReadOutcome::Detected, (len - n_exc) as u64);

        // Stage 3: the exceptional walk. Strikes are re-derived from the
        // draw columns — a handful of ALU ops on ~12% of trials beats
        // storing six decoded columns for all of them.
        for &t in &buf.exceptional[..n_exc] {
            let t = t as usize;
            let x = x_col[t] as u64;
            let (s0, s1, p0, p1, c0, c1) = self.decode(quad_col[t], cnt_col[t], x);
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
                    self.content(symbol as u32, extra_col[t] as u16, x)
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
    /// so the loads pipeline. Returns the exceptional count.
    fn stage1(
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
            let (a, b, p0, p1, c0, c1) = self.decode(quad_col[t], cnt_col[t], x_col[t] as u64);
            let base0 = (a << w) as usize;
            let base1 = (b << w) as usize;
            // SAFETY: every index is bounded by construction — `a, b < n`
            // (the quad divider's verified domain), contents and patterns
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
    use crate::rng::Bounded32;
    use crate::Rng;
    use muse_core::presets;

    /// The multiply-shift divider agrees with hardware division over its
    /// whole verified domain — exhaustively, including the large quad-draw
    /// domains of the real presets (construction's analytic bound is what
    /// this pins down).
    #[test]
    fn magic_div_exact() {
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
            let magic = MagicDiv::new(div, count).expect("domain verifiable");
            for d in 0..div.saturating_mul(count) {
                assert_eq!(magic.divmod(d), (d / div, d % div), "{d}/{div}");
            }
        }
        assert!(MagicDiv::new(0, 5).is_none(), "zero divisor");
        assert!(
            MagicDiv::new(1 << 16, 1 << 16).is_none(),
            "domain past the analytic exactness bound"
        );
        assert!(
            MagicDiv::new(1260, 65025).is_none(),
            "36-symbol 8-bit quad split exceeds the provable domain — \
             that geometry takes the scalar fallback"
        );
    }

    /// The packed affine check-span constants reproduce
    /// `apply_check_bits` exactly on every affine preset.
    #[test]
    fn affine_content_matches_apply_check_bits() {
        for code in [
            presets::muse_144_132(),
            presets::muse_144_128(),
            presets::muse_80_69(),
            presets::muse_80_70(),
            presets::muse_268_256(),
        ] {
            let kernel = code.kernel().expect("preset supports the kernel");
            let Some(lanes) = LaneKernel::new(kernel) else {
                continue;
            };
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
                    assert_eq!(lanes.content(sym, raw, x), expect, "symbol {sym}");
                }
            }
        }
    }

    /// Scattered (interleaved-map) check spans refuse the lane kernel —
    /// those layouts classify through the same-stream scalar oracle.
    #[test]
    fn interleaved_layouts_fall_back() {
        let code = presets::muse_80_67();
        let Some(kernel) = code.kernel() else {
            return;
        };
        assert!(
            LaneKernel::new(kernel).is_none(),
            "{} should defer to the scalar path",
            code.name()
        );
    }

    /// Stage 1's fused fold leaves each lane's syndrome equal to the two
    /// strikes' scalar `flip_delta`s summed modularly.
    #[test]
    fn fold_column_matches_flip_delta() {
        let code = presets::muse_144_132();
        let kernel = code.kernel().expect("preset supports the kernel");
        let lanes = LaneKernel::new(kernel).expect("uniform widths");
        let n = kernel.num_symbols() as u32;
        let pb = (1u32 << lanes.width) - 1;
        let len = 257;
        let mut rng = Rng::seeded(0x1357_9BDF);
        let mut quad_col = vec![0u32; len];
        let mut cnt_col = vec![0u32; len];
        let mut x_col = vec![0u32; len];
        Bounded32::new(n * (n - 1) * pb * pb).fill(&mut rng, &mut quad_col);
        rng.fill_u32s(&mut cnt_col);
        Bounded32::new(kernel.modulus() as u32).fill(&mut rng, &mut x_col);
        let mut buf = LaneBuffers::default();
        grow(&mut buf.rems, len);
        grow(&mut buf.exceptional, len);
        lanes.stage1(&mut buf, len, &quad_col, &cnt_col, &x_col);
        for t in 0..len {
            let (a, b, p0, p1, c0, c1) = lanes.decode(quad_col[t], cnt_col[t], x_col[t] as u64);
            let expected = kernel.add_mod(
                kernel.flip_delta(a as usize, c0, p0 as u16),
                kernel.flip_delta(b as usize, c1, p1 as u16),
            );
            assert_eq!(buf.rems[t], expected, "lane {t}");
        }
    }

    /// A full lane block agrees trial-for-trial with the scalar columnar
    /// oracle on identical draw columns (the whole-simulation counterpart
    /// lives in `tests/lane_equivalence.rs`).
    #[test]
    fn run_block_matches_scalar_oracle() {
        use crate::fastpath::msed_trial_k2_cols;
        for code in [
            presets::muse_144_132(),
            presets::muse_144_128(),
            presets::muse_80_69(),
            presets::muse_80_70(),
            presets::muse_268_256(),
        ] {
            let kernel = code.kernel().expect("preset supports the kernel");
            let lanes = LaneKernel::new(kernel).expect("uniform widths");
            let n = kernel.num_symbols() as u32;
            let pb = (1u32 << kernel.symbol_bits(0)) - 1;
            let len = 777; // deliberately not the engine block size
            let mut rng = Rng::seeded(0xB10C);
            let mut quad_col = vec![0u32; len];
            let mut cnt_col = vec![0u32; len];
            let mut x_col = vec![0u32; len];
            let mut extra_col = vec![0u32; len];
            Bounded32::new(n * (n - 1) * pb * pb).fill(&mut rng, &mut quad_col);
            rng.fill_u32s(&mut cnt_col);
            Bounded32::new(kernel.modulus() as u32).fill(&mut rng, &mut x_col);
            rng.fill_u32s(&mut extra_col);
            let mut lane_tally = [0u64; 5];
            let mut buf = LaneBuffers::default();
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
            assert_eq!(lane_tally, scalar_tally, "{}", code.name());
        }
    }
}
