//! Deterministic PRNG for the Monte-Carlo experiments.
//!
//! An in-tree xoshiro256++ keeps every experiment bit-reproducible: no
//! external crate's version bump can change a stream, and so a pinned
//! tally.
//!
//! # Step screens
//!
//! [`Rng::loud_steps`] answers, for up to 64 consecutive steps of one
//! lane, "does any of this step's first draws clear its threshold?"
//! without materializing a generator per step. The `(lane, step)` streams
//! are counter-based (Salmon et al., "Parallel Random Numbers: As Easy as
//! 1, 2, 3", SC 2011): step `s`'s state is a pure function of
//! `(seed, lane, s)`, so eight consecutive steps are eight independent
//! SIMD lanes. The screen has two kernels over the same arithmetic:
//!
//! * `avx512x8` — eight steps per 512-bit vector (AVX-512F for the
//!   xoshiro256++ rotates and unsigned compares, AVX-512DQ for the 64-bit
//!   SplitMix64 multiplies), picked per call when the CPU reports both
//!   features. Each loop iteration keeps four independent vectors (32
//!   steps) in flight, so their chains of five SplitMix64 finalizers
//!   overlap in the pipeline instead of each waiting out the last one's
//!   latency, and each lane's `step·GOLDEN` counter advances by a vector
//!   add;
//! * `scalar` — one [`Rng::for_cell`]-style derivation per step, on every
//!   other CPU and target, and the reference the tests hold the vector
//!   kernel to.
//!
//! Both read the stream constants defined once below, with wrapping
//! 64-bit arithmetic in both, so the two return the same mask bit for
//! bit, and every host gets the same mask; [`screen_kernel`] names the
//! one this process runs. The call into the `#[target_feature]` kernel,
//! made only after the runtime feature check, is the module's one
//! `unsafe` block.

/// SplitMix64's increment (the 64-bit golden ratio): the counter stride
/// of every stream derivation.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// The SplitMix64 finalizer: `z ^= z >> S0; z *= M0; z ^= z >> S1;
/// z *= M1; z ^= z >> S2`.
const MIX_S0: u32 = 30;
const MIX_M0: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_S1: u32 = 27;
const MIX_M1: u64 = 0x94D0_49BB_1331_11EB;
const MIX_S2: u32 = 31;
/// Offsets of [`Rng::for_trial`]'s four state words from the mixed
/// `(seed, trial)` base: one to four SplitMix64 increments.
const TRIAL_OFFSETS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0x3C6E_F372_FE94_F82A,
    0xDAA6_6D2C_7DDF_4B3F,
    0x78DD_E6A5_FD29_A654,
];
/// Salt of [`Rng::for_cell`]'s lane axis.
const CELL_SALT: u64 = 0xCE11_CE11_CE11_CE11;
/// Domain salt of [`Rng::for_shard`].
const SHARD_SALT: u64 = 0x5AAD_5AAD_5AAD_5AAD;
/// Domain salt of [`Rng::for_bias`].
const BIAS_SALT: u64 = 0xB1A5_B1A5_B1A5_B1A5;
/// xoshiro256++: output rotation, `s1` shift, `s3` rotation.
const XO_ROT: u32 = 23;
const XO_SHL: u32 = 17;
const XO_ROT_S3: u32 = 45;

/// The SplitMix64 finalizer.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> MIX_S0)).wrapping_mul(MIX_M0);
    z = (z ^ (z >> MIX_S1)).wrapping_mul(MIX_M1);
    z ^ (z >> MIX_S2)
}

/// The two-dimensional stream families a step screen reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStream {
    /// [`Rng::for_cell`]`(seed, lane, step)`.
    Cell,
    /// [`Rng::for_bias`]`(seed, lane, step)`.
    Bias,
}

impl CellStream {
    /// The [`Rng::for_trial`] seed of `lane`'s steps: the lane axis
    /// folded through its own finalizer into the (salted) seed.
    #[inline]
    fn lane_key(self, seed: u64, lane: u64) -> u64 {
        let seed = match self {
            CellStream::Cell => seed,
            CellStream::Bias => seed ^ BIAS_SALT,
        };
        seed ^ mix(lane.wrapping_mul(GOLDEN) ^ CELL_SALT)
    }
}

/// The step screen kernel [`Rng::loud_steps`] runs on this CPU:
/// `"avx512x8"` (eight steps per AVX-512 vector) or `"scalar"`.
pub fn screen_kernel() -> &'static str {
    if x8::available() {
        "avx512x8"
    } else {
        "scalar"
    }
}

/// xoshiro256++ PRNG, seeded through SplitMix64.
///
/// # Examples
///
/// ```
/// use muse_faultsim::Rng;
///
/// let mut a = Rng::seeded(42);
/// let mut b = Rng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion, so any
    /// seed — including 0 — yields a good state).
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(GOLDEN);
            mix(sm)
        };
        Self {
            state: [next(), next(), next(), next()],
        }
    }

    /// Counter-based stream derivation: the generator for `trial` under
    /// `seed`.
    ///
    /// Each trial index gets its own decorrelated stream, so a simulation
    /// that processes trials in any order — or splits them across any
    /// number of threads — produces bit-identical results.
    ///
    /// The state is expanded by four *independent* SplitMix64 finalizer
    /// chains over well-separated offsets of the mixed `(seed, trial)`
    /// pair. Unlike the sequential expansion in [`Self::seeded`] the four
    /// chains have no data dependency on each other, so they overlap in
    /// the pipeline — this constructor runs once per Monte-Carlo trial.
    pub fn for_trial(seed: u64, trial: u64) -> Self {
        // Domain-separate from `seeded`: without the extra finalizer,
        // trial 0's state would reproduce `seeded(seed)` exactly (the four
        // offsets are 1..4 SplitMix increments, the same expansion
        // `seeded` performs).
        let base = mix(seed ^ trial.wrapping_mul(GOLDEN));
        Self {
            state: TRIAL_OFFSETS.map(|offset| mix(base.wrapping_add(offset))),
        }
    }

    /// Counter-based *two-dimensional* stream derivation: the generator for
    /// `(lane, step)` under `seed` — e.g. DIMM `lane` at epoch `step` in
    /// the fleet-lifetime simulator.
    ///
    /// Every cell of the grid gets its own decorrelated stream, so a
    /// simulation that walks lanes and steps in any order — or splits lanes
    /// across any number of threads — produces bit-identical results. The
    /// lane axis is folded through its own SplitMix64 finalizer before the
    /// step derivation, so `for_cell(s, a, b)` and `for_cell(s, b, a)`
    /// differ, and lane 0 does not collapse onto [`Self::for_trial`].
    pub fn for_cell(seed: u64, lane: u64, step: u64) -> Self {
        Self::for_trial(CellStream::Cell.lane_key(seed, lane), step)
    }

    /// Counter-based *shard-supervision* stream derivation: the generator
    /// for `(shard, attempt)` under `seed` — e.g. the fault-injection
    /// decisions of shard `shard`'s `attempt`-th execution in the
    /// fleet-lifetime sharded runner.
    ///
    /// Supervision draws (kill-this-attempt?, completion delays) must be a
    /// pure function of `(seed, shard, attempt)` so injected failures
    /// reproduce exactly across reruns and resumes, and must never overlap
    /// the simulation's own [`Self::for_cell`] streams (a fault plan
    /// sharing the fleet seed must not perturb tallies). The shard axis is
    /// therefore salted into its own domain before the 2-D derivation.
    pub fn for_shard(seed: u64, shard: u64, attempt: u64) -> Self {
        Self::for_cell(seed ^ SHARD_SALT, shard, attempt)
    }

    /// Counter-based *importance-bias* stream derivation: the generator
    /// for the biasing decisions of `(lane, step)` under `seed` — e.g. the
    /// extra rate-inflated fault arrivals of DIMM `lane` at epoch `step`
    /// in the fleet-lifetime importance sampler.
    ///
    /// A biased run reuses the nominal per-cell draws of
    /// [`Self::for_cell`] verbatim and layers its *extra* draws (how many
    /// additional arrivals does the inflated rate contribute?) on this
    /// stream, so the two must never overlap: sharing the fleet seed, the
    /// bias decisions cannot perturb the nominal sample path, and a bias
    /// factor of 1.0 consumes nothing here — reproducing the naive run
    /// bit-identically. The cell domain is therefore salted before the
    /// 2-D derivation.
    pub fn for_bias(seed: u64, lane: u64, step: u64) -> Self {
        Self::for_trial(CellStream::Bias.lane_key(seed, lane), step)
    }

    /// Counter-based *block* stream derivation: the generator for trial
    /// block `block` under `seed`.
    ///
    /// The blocked engine ([`SimEngine::run_blocked`](crate::SimEngine))
    /// amortizes one generator across a fixed-size block of trials instead
    /// of constructing a fresh state per trial. Block boundaries are a
    /// constant of the determinism contract, so results stay bit-identical
    /// at any thread count; the stream is domain-separated from both
    /// [`Self::seeded`] and [`Self::for_trial`] (a blocked simulator and a
    /// per-trial simulator sharing a seed never correlate).
    pub fn for_block(seed: u64, block: u64) -> Self {
        // Salt the trial-index domain with a distinct constant so
        // for_block(s, b) != for_trial(s, b).
        Self::for_trial(seed ^ 0xB10C_B10C_B10C_B10C, block)
    }

    /// The loud mask of steps `first..first + n` (`n <= 64`) of `lane` on
    /// `stream`: bit `i` is set when any of the first `thresholds.len()`
    /// draws of step `first + i`'s generator is at or above its
    /// threshold. Draw `j` is compared with `thresholds[j]`.
    ///
    /// The mask is a pure function of the streams — no generator is
    /// handed out or advanced — so a caller screening steps with it and
    /// re-deriving the loud ones draws exactly what a per-step walk
    /// would. Runs the `avx512x8` kernel when the CPU has AVX-512F and
    /// AVX-512DQ, the scalar loop otherwise (see [`screen_kernel`]); the
    /// two agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn loud_steps(
        stream: CellStream,
        seed: u64,
        lane: u64,
        first: u64,
        n: u64,
        thresholds: &[u64],
    ) -> u64 {
        assert!(n <= 64, "a loud mask covers at most 64 steps, not {n}");
        if n == 0 || thresholds.is_empty() {
            return 0;
        }
        let key = stream.lane_key(seed, lane);
        x8::loud_steps(key, first, n, thresholds)
            .unwrap_or_else(|| loud_steps_scalar(key, first, n, thresholds))
    }

    /// Fills `out` with consecutive [`Self::next_u64`] draws.
    ///
    /// The batched form keeps the four state words in registers across the
    /// whole fill instead of spilling per call — use it to draw trial
    /// blocks of raw randomness in one go.
    pub fn fill_u64s(&mut self, out: &mut [u64]) {
        let [mut s0, mut s1, mut s2, mut s3] = self.state;
        for slot in out.iter_mut() {
            *slot = s0.wrapping_add(s3).rotate_left(XO_ROT).wrapping_add(s0);
            let t = s1 << XO_SHL;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(XO_ROT_S3);
        }
        self.state = [s0, s1, s2, s3];
    }

    /// Fills `out` with 32-bit halves of consecutive [`Self::next_u64`]
    /// draws, low half first. An odd tail costs a full draw whose high half
    /// is discarded — the mapping from generator steps to slots depends
    /// only on `out.len()`, keeping columnar streams reproducible.
    pub fn fill_u32s(&mut self, out: &mut [u32]) {
        let mut chunks = out.chunks_exact_mut(2);
        let [mut s0, mut s1, mut s2, mut s3] = self.state;
        for pair in &mut chunks {
            let raw = s0.wrapping_add(s3).rotate_left(XO_ROT).wrapping_add(s0);
            let t = s1 << XO_SHL;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(XO_ROT_S3);
            pair[0] = raw as u32;
            pair[1] = (raw >> 32) as u32;
        }
        self.state = [s0, s1, s2, s3];
        if let [slot] = chunks.into_remainder() {
            *slot = self.next_u64() as u32;
        }
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(XO_ROT).wrapping_add(s0);
        let t = s1 << XO_SHL;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(XO_ROT_S3);
        self.state = s;
        result
    }

    /// Uniform value in `[0, bound)` (Lemire multiply-shift with rejection,
    /// bias-free).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[1, bound)` — a random *nonzero* corruption pattern.
    ///
    /// # Panics
    ///
    /// Panics if `bound < 2`.
    pub fn nonzero_below(&mut self, bound: u64) -> u64 {
        assert!(bound >= 2, "no nonzero values below {bound}");
        1 + self.below(bound - 1)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// `k` distinct indices drawn uniformly from `[0, n)` (partial
    /// Fisher-Yates), in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn choose_k(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot choose {k} of {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// The scalar step screen: one [`Rng::for_trial`] derivation per step
/// under the lane's key, compared draw by draw. No branch on the draws,
/// so consecutive steps' derivations overlap in the pipeline.
fn loud_steps_scalar(key: u64, first: u64, n: u64, thresholds: &[u64]) -> u64 {
    let mut mask = 0u64;
    for i in 0..n {
        let mut rng = Rng::for_trial(key, first.wrapping_add(i));
        let mut loud = false;
        for &t in thresholds {
            loud |= rng.next_u64() >= t;
        }
        mask |= (loud as u64) << i;
    }
    mask
}

/// The eight-lane AVX-512 step screen.
#[cfg(target_arch = "x86_64")]
mod x8 {
    use super::{
        GOLDEN, MIX_M0, MIX_M1, MIX_S0, MIX_S1, MIX_S2, TRIAL_OFFSETS, XO_ROT, XO_ROT_S3, XO_SHL,
    };
    use std::arch::x86_64::*;

    /// Whether this CPU runs the kernel (the detection result is cached
    /// by the standard library after the first call).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// [`Rng::loud_steps`](super::Rng::loud_steps) on the lane key
    /// `key`, or `None` when the CPU lacks the kernel's features.
    pub(super) fn loud_steps(key: u64, first: u64, n: u64, thresholds: &[u64]) -> Option<u64> {
        if !available() {
            return None;
        }
        // SAFETY: `kernel` is compiled for AVX-512F and AVX-512DQ, and
        // `available()` just confirmed that this CPU implements both. It
        // touches memory only through the `thresholds` slice.
        Some(unsafe { kernel(key, first, n, thresholds) })
    }

    /// A broadcast of one 64-bit value to every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    /// `z ^ (z >> S)` on eight lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn xorshift<const S: u32>(z: __m512i) -> __m512i {
        _mm512_xor_si512(z, _mm512_srli_epi64::<S>(z))
    }

    /// The SplitMix64 finalizer on eight lanes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mix(z: __m512i) -> __m512i {
        let z = _mm512_mullo_epi64(xorshift::<MIX_S0>(z), splat(MIX_M0));
        let z = _mm512_mullo_epi64(xorshift::<MIX_S1>(z), splat(MIX_M1));
        xorshift::<MIX_S2>(z)
    }

    /// Steps per vector.
    const LANES: u64 = 8;
    /// Independent vectors per loop iteration: their finalizer chains
    /// overlap in the pipeline instead of running back to back.
    const IN_FLIGHT: usize = 4;

    /// Eight consecutive steps per vector, four vectors per iteration:
    /// lane `j` of vector `v` in the chunk starting at `c` carries step
    /// `first + c + 8v + j` through `for_trial(key, step)` and its
    /// xoshiro256++ draws. Each lane's `step·GOLDEN` is carried as a
    /// running sum. The spare lanes of a short last chunk are computed
    /// and masked off.
    #[target_feature(enable = "avx512f,avx512dq")]
    fn kernel(key: u64, first: u64, n: u64, thresholds: &[u64]) -> u64 {
        let key = splat(key);
        let stride = splat(GOLDEN.wrapping_mul(LANES));
        let mut counter = _mm512_add_epi64(
            splat(first.wrapping_mul(GOLDEN)),
            _mm512_mullo_epi64(_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7), splat(GOLDEN)),
        );
        let mut mask = 0u64;
        let mut chunk = 0;
        while chunk < n {
            let mut states = [[_mm512_setzero_si512(); 4]; IN_FLIGHT];
            for state in &mut states {
                let base = mix(_mm512_xor_si512(key, counter));
                *state = TRIAL_OFFSETS.map(|offset| mix(_mm512_add_epi64(base, splat(offset))));
                counter = _mm512_add_epi64(counter, stride);
            }
            let mut loud: [__mmask8; IN_FLIGHT] = [0; IN_FLIGHT];
            for &t in thresholds {
                let t = splat(t);
                for ([s0, s1, s2, s3], loud) in states.iter_mut().zip(&mut loud) {
                    let draw = _mm512_add_epi64(
                        _mm512_rol_epi64::<{ XO_ROT as i32 }>(_mm512_add_epi64(*s0, *s3)),
                        *s0,
                    );
                    *loud |= _mm512_cmpge_epu64_mask(draw, t);
                    let t = _mm512_slli_epi64::<XO_SHL>(*s1);
                    *s2 = _mm512_xor_si512(*s2, *s0);
                    *s3 = _mm512_xor_si512(*s3, *s1);
                    *s1 = _mm512_xor_si512(*s1, *s2);
                    *s0 = _mm512_xor_si512(*s0, *s3);
                    *s2 = _mm512_xor_si512(*s2, t);
                    *s3 = _mm512_rol_epi64::<{ XO_ROT_S3 as i32 }>(*s3);
                }
            }
            let bits = loud
                .iter()
                .rev()
                .fold(0, |bits, &l| bits << LANES | u64::from(l));
            let valid = (n - chunk).min(LANES * IN_FLIGHT as u64);
            mask |= (bits & u64::MAX >> (64 - valid)) << chunk;
            chunk += LANES * IN_FLIGHT as u64;
        }
        mask
    }
}

/// Targets without the AVX-512 kernel always run the scalar screen.
#[cfg(not(target_arch = "x86_64"))]
mod x8 {
    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn loud_steps(_key: u64, _first: u64, _n: u64, _thresholds: &[u64]) -> Option<u64> {
        None
    }
}

/// The classification backends in `muse-core`/`muse-rs` draw their lazily
/// sampled contents through this trait; the provided combinators mirror
/// [`Rng`]'s own derivations bit-for-bit, so classifying through a backend
/// consumes exactly the stream a hand-rolled loop would.
impl muse_core::Entropy for Rng {
    fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }

    fn fill_u64s(&mut self, out: &mut [u64]) {
        Rng::fill_u64s(self, out)
    }
}

/// Inverse-CDF sampler for a small discrete count distribution, with the
/// cumulative probabilities quantized to the full `u64` range.
///
/// Replaces long runs of per-cell Bernoulli draws with **one** raw draw per
/// aggregate: instead of asking "did cell `i` fault?" 136 times, sample the
/// *number* of faulted cells from its exact binomial CDF and then place
/// that many faults. Build once per configuration (the CDF needs `O(n)`
/// float work), sample per trial with a handful of compares.
///
/// # Examples
///
/// ```
/// use muse_faultsim::{CountCdf, Rng};
///
/// let counts = CountCdf::binomial(136, 1e-3);
/// let mut rng = Rng::seeded(5);
/// let k = counts.sample(rng.next_u64());
/// assert!(k <= 136);
/// ```
#[derive(Debug, Clone)]
pub struct CountCdf {
    /// `thresholds[i]` = `P(count ≤ i)` scaled to `2^64` (saturating); a
    /// raw draw below `thresholds[i]` but not `thresholds[i-1]` samples
    /// count `i`. Trailing counts of cumulative ≈ 1 are truncated.
    thresholds: Vec<u64>,
    /// The count a raw draw at or above every threshold samples:
    /// `thresholds.len()` ("more than listed") for a truncated CDF, or the
    /// largest count with nonzero probability when the CDF reached 1
    /// exactly (its threshold saturated at `u64::MAX`, so only the raw
    /// `u64::MAX` itself lands here).
    overflow: u32,
}

impl CountCdf {
    /// Builds a sampler from cumulative probabilities
    /// `cum[i] = P(count ≤ i)` (non-decreasing, in `[0, 1]`). Draws beyond
    /// the last entry sample `cum.len()` ("more than listed") — unless the
    /// cumulative reaches exactly 1, in which case every draw samples a
    /// count of nonzero probability.
    ///
    /// # Panics
    ///
    /// Panics if `cum` is decreasing or leaves `[0, 1]`.
    pub fn from_cumulative(cum: &[f64]) -> Self {
        let mut thresholds = Vec::with_capacity(cum.len());
        let mut prev = 0.0f64;
        for &c in cum {
            assert!((0.0..=1.0).contains(&c) && c >= prev, "bad CDF {cum:?}");
            prev = c;
            let scaled = (c * 2f64.powi(64)).round();
            thresholds.push(if scaled >= 2f64.powi(64) {
                u64::MAX
            } else {
                scaled as u64
            });
        }
        let overflow = thresholds
            .iter()
            .position(|&t| t == u64::MAX)
            .unwrap_or(thresholds.len()) as u32;
        Self {
            thresholds,
            overflow,
        }
    }

    /// Builds the CDF of `Binomial(n, p)`, truncated once the cumulative
    /// mass is within `2⁻⁶⁴` of 1 (the truncated tail is unsampleable).
    /// Every sample lies in `0..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn binomial(n: u32, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        if p >= 1.0 {
            // Degenerate: every cell faults (the odds recurrence would NaN).
            let mut cum = vec![0.0; n as usize];
            cum.push(1.0);
            return Self::from_cumulative(&cum);
        }
        let mut cum = Vec::new();
        // pmf(k+1) = pmf(k) · (n−k)/(k+1) · p/(1−p), seeded at (1−p)^n.
        let mut pmf = (1.0 - p).powi(n as i32);
        let mut total = pmf;
        let odds = p / (1.0 - p);
        for k in 0..=n {
            cum.push(total.min(1.0));
            if total >= 1.0 - 2f64.powi(-64) || k == n {
                break;
            }
            pmf *= (n - k) as f64 / (k + 1) as f64 * odds;
            total += pmf;
        }
        if cum.len() == n as usize + 1 {
            // The whole support is listed: the CDF is complete, whatever
            // rounding left in the running total, so no draw may sample
            // past `n`.
            cum[n as usize] = 1.0;
        }
        Self::from_cumulative(&cum)
    }

    /// Maps one raw 64-bit draw to a count.
    #[inline]
    pub fn sample(&self, raw: u64) -> u32 {
        for (i, &t) in self.thresholds.iter().enumerate() {
            if raw < t {
                return i as u32;
            }
        }
        self.overflow
    }

    /// `P(count = 0)` in the sampler's quantized arithmetic, as a raw-draw
    /// threshold.
    ///
    /// The contract is one-way: `raw < zero_threshold()` implies
    /// `sample(raw) == 0`, so a caller may screen out zero-count draws
    /// with one compare. The converse can fail at the saturated edge —
    /// `Binomial(n, 0)` has threshold `u64::MAX` yet samples zero for the
    /// raw `u64::MAX` too.
    pub fn zero_threshold(&self) -> u64 {
        self.thresholds.first().copied().unwrap_or(0)
    }
}

/// The precomputed-Lemire bounded sampler, shared with the classification
/// backends (defined next to the [`muse_core::Entropy`] trait so both
/// crates draw from one implementation — and one stream).
///
/// [`Rng::below`] recomputes `2^64 mod bound` (a 64-bit division) on every
/// rejection check; a `Bounded32` pays that division once at configuration
/// time and then draws from 32-bit halves, so one raw `u64` usually yields
/// two bounded samples. Build these in a trial plan (once per simulator
/// config), not per trial.
///
/// # Examples
///
/// ```
/// use muse_faultsim::{Bounded32, Rng};
///
/// let mut rng = Rng::seeded(1);
/// let device = Bounded32::new(36);
/// assert!(device.sample(&mut rng) < 36);
///
/// let mut batch = [0u32; 100];
/// device.fill(&mut rng, &mut batch);
/// assert!(batch.iter().all(|&v| v < 36));
/// ```
pub use muse_core::Bounded32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seeded(7);
        let mut b = Rng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seeded(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seeded(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn nonzero_below_never_zero() {
        let mut rng = Rng::seeded(2);
        for _ in 0..1000 {
            let v = rng.nonzero_below(16);
            assert!((1..16).contains(&v));
        }
    }

    #[test]
    fn choose_k_distinct() {
        let mut rng = Rng::seeded(3);
        for _ in 0..200 {
            let mut picks = rng.choose_k(36, 5);
            picks.sort_unstable();
            picks.dedup();
            assert_eq!(picks.len(), 5);
            assert!(picks.iter().all(|&p| p < 36));
        }
    }

    #[test]
    fn choose_all_is_permutation() {
        let mut rng = Rng::seeded(4);
        let mut picks = rng.choose_k(8, 8);
        picks.sort_unstable();
        assert_eq!(picks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seeded(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = Rng::seeded(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn trial_zero_is_not_the_seeded_stream() {
        // Domain separation: engine trial 0 must not replay Rng::seeded's
        // stream for the same seed (cross-checks against seeded-based
        // references would silently correlate).
        for seed in [0u64, 7, 0x4D53_4544] {
            let mut trial0 = Rng::for_trial(seed, 0);
            let mut serial = Rng::seeded(seed);
            assert_ne!(trial0.next_u64(), serial.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn fill_matches_sequential_draws() {
        let mut a = Rng::seeded(11);
        let mut b = Rng::seeded(11);
        let mut buf = [0u64; 67];
        a.fill_u64s(&mut buf);
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v, b.next_u64(), "draw {i}");
        }
        // And the states stay in sync afterwards.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn block_streams_are_domain_separated() {
        for seed in [0u64, 7, 0x4D53_4544] {
            let mut block = Rng::for_block(seed, 3);
            let mut trial = Rng::for_trial(seed, 3);
            let mut serial = Rng::seeded(seed);
            let x = block.next_u64();
            assert_ne!(x, trial.next_u64(), "seed {seed}");
            assert_ne!(x, serial.next_u64(), "seed {seed}");
        }
        let mut a = Rng::for_block(5, 9);
        let mut b = Rng::for_block(5, 9);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn cell_streams_are_distinct_and_deterministic() {
        let mut a = Rng::for_cell(7, 3, 5);
        let mut b = Rng::for_cell(7, 3, 5);
        let mut swapped = Rng::for_cell(7, 5, 3);
        let mut lane0 = Rng::for_cell(7, 0, 5);
        let mut trial = Rng::for_trial(7, 5);
        let mut block = Rng::for_block(7, 5);
        for _ in 0..32 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, swapped.next_u64(), "axes must not commute");
        }
        // Lane 0 is domain-separated from the 1-D derivations.
        let x = lane0.next_u64();
        assert_ne!(x, trial.next_u64());
        assert_ne!(x, block.next_u64());
    }

    #[test]
    fn shard_streams_are_domain_separated() {
        // Supervision streams must not collapse onto the simulation's own
        // derivations for the same seed, and must be deterministic per
        // (shard, attempt).
        let mut a = Rng::for_shard(7, 3, 1);
        let mut b = Rng::for_shard(7, 3, 1);
        let mut cell = Rng::for_cell(7, 3, 1);
        let mut other_attempt = Rng::for_shard(7, 3, 2);
        let mut other_shard = Rng::for_shard(7, 4, 1);
        for _ in 0..32 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, cell.next_u64(), "must not overlap for_cell");
            assert_ne!(x, other_attempt.next_u64());
            assert_ne!(x, other_shard.next_u64());
        }
    }

    #[test]
    fn bias_streams_are_domain_separated() {
        // Importance-bias streams must not collapse onto the simulation's
        // per-cell draws (or the shard-supervision domain) for the same
        // seed, and must be deterministic per (lane, step).
        let mut a = Rng::for_bias(7, 3, 1);
        let mut b = Rng::for_bias(7, 3, 1);
        let mut cell = Rng::for_cell(7, 3, 1);
        let mut shard = Rng::for_shard(7, 3, 1);
        let mut other_step = Rng::for_bias(7, 3, 2);
        let mut other_lane = Rng::for_bias(7, 4, 1);
        for _ in 0..32 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, cell.next_u64(), "must not overlap for_cell");
            assert_ne!(x, shard.next_u64(), "must not overlap for_shard");
            assert_ne!(x, other_step.next_u64());
            assert_ne!(x, other_lane.next_u64());
        }
    }

    #[test]
    fn count_cdf_matches_bernoulli_statistics() {
        // Binomial(20, 0.3): mean 6, sampled over many draws.
        let cdf = CountCdf::binomial(20, 0.3);
        let mut rng = Rng::seeded(77);
        let mut sum = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let k = cdf.sample(rng.next_u64());
            assert!(k <= 20);
            sum += k as u64;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn count_cdf_edges() {
        // p = 0: always zero faults; the zero threshold saturates.
        let zero = CountCdf::binomial(136, 0.0);
        assert_eq!(zero.sample(0), 0);
        assert_eq!(zero.sample(u64::MAX - 1), 0);
        assert_eq!(zero.sample(u64::MAX), 0);
        assert_eq!(zero.zero_threshold(), u64::MAX);
        // p = 1: always n faults, the top raw included.
        let one = CountCdf::binomial(5, 1.0);
        assert_eq!(one.sample(0), 5);
        assert_eq!(one.sample(u64::MAX), 5);
        assert_eq!(one.zero_threshold(), 0);
        // A CDF that reaches 1 before its last entry clamps to the last
        // count with nonzero probability.
        let early = CountCdf::from_cumulative(&[0.5, 1.0, 1.0]);
        assert_eq!(early.sample(u64::MAX - 1), 1);
        assert_eq!(early.sample(u64::MAX), 1);
        // Explicit three-way split: a truncated tail still samples "more
        // than listed".
        let tri = CountCdf::from_cumulative(&[0.25, 0.75]);
        assert_eq!(tri.sample(0), 0);
        assert_eq!(tri.sample(1 << 63), 1);
        assert_eq!(tri.sample(u64::MAX), 2);
    }

    #[test]
    fn count_cdf_stays_in_support() {
        // Every binomial sample lies in 0..=n, whatever the raw draw.
        for n in [1u32, 5, 18, 36, 136] {
            for p in [0.0, 1e-9, 1e-3, 0.3, 0.5, 0.999, 1.0] {
                let cdf = CountCdf::binomial(n, p);
                for raw in [0, 1, 1 << 63, u64::MAX - 1, u64::MAX] {
                    assert!(cdf.sample(raw) <= n, "Binomial({n}, {p}) at {raw:#x}");
                }
                let t = cdf.zero_threshold();
                if t > 0 {
                    assert_eq!(cdf.sample(t - 1), 0, "Binomial({n}, {p})");
                }
            }
        }
    }

    #[test]
    fn bounded32_range_and_coverage() {
        let pick = Bounded32::new(10);
        assert_eq!(pick.bound(), 10);
        let mut rng = Rng::seeded(21);
        let mut seen = [false; 10];
        for _ in 0..500 {
            seen[pick.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
        let mut batch = [0u32; 300];
        pick.fill(&mut rng, &mut batch);
        assert!(batch.iter().all(|&v| v < 10));
        let mut seen = [false; 10];
        for &v in &batch {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "batch covers all residues");
    }

    #[test]
    fn bounded32_rejection_threshold_is_exact() {
        // The precomputed threshold must equal the one `below` derives:
        // map() accepts exactly when the scaled low half clears it.
        for bound in [1u32, 2, 3, 15, 16, 35, 36, 1000, u32::MAX] {
            let pick = Bounded32::new(bound);
            for half in [0u32, 1, bound - 1, bound, u32::MAX / 2, u32::MAX] {
                let m = half as u64 * bound as u64;
                let expected = (m as u32) >= bound.wrapping_neg() % bound;
                assert_eq!(pick.map(half).is_some(), expected, "b={bound} h={half}");
                if let Some(v) = pick.map(half) {
                    assert!(v < bound);
                    assert_eq!(v, (m >> 32) as u32);
                }
            }
        }
    }

    #[test]
    fn trial_streams_are_deterministic_and_distinct() {
        let mut a = Rng::for_trial(7, 123);
        let mut b = Rng::for_trial(7, 123);
        let mut c = Rng::for_trial(7, 124);
        let mut d = Rng::for_trial(8, 123);
        for _ in 0..32 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, c.next_u64());
            assert_ne!(x, d.next_u64());
        }
    }

    /// The step screen's reference: each step's generator built through
    /// the public derivations and drawn with `next_u64`.
    fn reference_mask(
        stream: CellStream,
        seed: u64,
        lane: u64,
        first: u64,
        n: u64,
        thresholds: &[u64],
    ) -> u64 {
        (0..n).fold(0, |mask, i| {
            let mut rng = match stream {
                CellStream::Cell => Rng::for_cell(seed, lane, first + i),
                CellStream::Bias => Rng::for_bias(seed, lane, first + i),
            };
            let loud = thresholds.iter().any(|&t| rng.next_u64() >= t);
            mask | (loud as u64) << i
        })
    }

    #[test]
    fn screen_kernels_match_the_stream_reference() {
        let mut rng = Rng::seeded(0x5C4EE7);
        let mut mixed = 0;
        for case in 0..300 {
            let seed = rng.next_u64();
            let lane = rng.next_u64() >> rng.below(64);
            let first = rng.below(1 << 32);
            // 0 to 4 thresholds: the saturated edges, uniform values, and
            // values near the top (mostly quiet steps, like the fleet's).
            let thresholds: Vec<u64> = (0..case % 5)
                .map(|_| match rng.below(4) {
                    0 => [0, 1, u64::MAX][rng.below(3) as usize],
                    1 => rng.next_u64(),
                    _ => u64::MAX - (rng.next_u64() >> rng.below(64)),
                })
                .collect();
            for stream in [CellStream::Cell, CellStream::Bias] {
                for n in [
                    1, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 48, 56, 63, 64,
                ] {
                    let want = reference_mask(stream, seed, lane, first, n, &thresholds);
                    let what = format!(
                        "{stream:?} seed {seed:#x} lane {lane} first {first} n {n} {thresholds:x?}"
                    );
                    let key = stream.lane_key(seed, lane);
                    assert_eq!(
                        loud_steps_scalar(key, first, n, &thresholds),
                        want,
                        "scalar: {what}"
                    );
                    if let Some(got) = x8::loud_steps(key, first, n, &thresholds) {
                        assert_eq!(got, want, "avx512x8: {what}");
                    }
                    assert_eq!(
                        Rng::loud_steps(stream, seed, lane, first, n, &thresholds),
                        want,
                        "dispatch: {what}"
                    );
                    if n == 64 && want != 0 && want != u64::MAX {
                        mixed += 1;
                    }
                }
            }
        }
        assert!(mixed > 50, "only {mixed} masks mixed loud and quiet steps");
        println!(
            "step screen kernels checked against the stream reference: {}",
            if x8::available() {
                "scalar and avx512x8"
            } else {
                "scalar only (this CPU lacks AVX-512F/DQ)"
            }
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 steps")]
    fn screens_cover_at_most_64_steps() {
        Rng::loud_steps(CellStream::Cell, 1, 2, 3, 65, &[0]);
    }
}
