//! Parallel Monte-Carlo fault injection for MUSE and Reed-Solomon memory
//! codes.
//!
//! # Architecture
//!
//! All simulators run on a shared three-layer engine:
//!
//! 1. **[`SimEngine`] — batched parallel trial execution.** A run's
//!    `trials` are split into contiguous ranges, several per worker, that
//!    scoped worker threads pull from one atomic counter. In per-trial
//!    mode ([`SimEngine::run`]) trial `i` draws randomness exclusively
//!    from the counter-based stream [`Rng::for_trial`]`(seed, i)`; in
//!    blocked mode ([`SimEngine::run_blocked`]) a fixed 1024-trial block
//!    `b` draws from [`Rng::for_block`]`(seed, b)`, amortizing generator
//!    state across the block. Either way, outcomes are a pure function of
//!    the seed and the fixed trial/block boundaries, and per-range
//!    tallies merge associatively — **results are bit-identical at any
//!    thread count** (the determinism contract, pinned by
//!    `tests/determinism.rs`).
//! 2. **Content-space trial generation.** A trial never materializes a
//!    codeword — or even a payload: it samples only what it observes. The
//!    contents of touched symbols are uniform bits; the check value `X` is
//!    sampled lazily over `[0, m)`; corruption is a short
//!    `(symbol, xor-pattern)` list. Sampling constants (Lemire rejection
//!    thresholds via [`Bounded32`], binomial count CDFs via [`CountCdf`])
//!    are precomputed per configuration, and hot loops bulk-fill whole
//!    blocks of raw draws ([`Rng::fill_u64s`], [`Bounded32::fill`]) and
//!    replay them per trial.
//! 3. **Incremental syndromes.** `muse-core` precomputes per-symbol residue
//!    tables and fused fast-ELC content transitions
//!    ([`muse_core::SyndromeKernel`]) at code construction, so classifying
//!    a MUSE trial is a few table lookups and small modular adds; the
//!    Reed-Solomon baseline classifies in the error-value domain through
//!    `muse_rs::RsClassifier` (GF syndromes of the folded device errors),
//!    and the on-die SEC stack
//!    reduces to flip-position algebra over parity-check columns. Every
//!    wide encode/decode path survives as the reference implementation and
//!    is cross-validated against its fast path by property tests that
//!    reconstruct wide-word trials from the content-space observations.
//!
//! # Simulators
//!
//! * [`muse_msed`] / [`rs_msed`] — the multi-symbol error detection (MSED)
//!   simulator behind the paper's Table IV.
//! * [`simulate_attacks`] — the Section VI-A case study: 40-bit line hashes
//!   in MUSE spare bits vs blind bit-flip attacks. SipHash runs over the
//!   real line bytes (legitimately content-dependent); the ECC step of the
//!   8 codewords per line runs on the residue kernel.
//! * [`simulate_stack`] — on-die SEC × rank-level MUSE co-design.
//! * [`measure_mode`] / [`project_fit`] — field FIT-rate projection.
//!
//! Each simulator feeds an artifact of the reproduction pass
//! (`muse-bench`'s `repro_all`). Scrub-bounded fault overlaps are modelled
//! by the fleet simulator in `muse-lifetime`.
//!
//! # Examples
//!
//! ```
//! use muse_core::presets;
//! use muse_faultsim::{muse_msed, MsedConfig};
//!
//! // Reproduce one Table IV cell (reduced trial count for speed):
//! let stats = muse_msed(&presets::muse_144_132(), MsedConfig {
//!     trials: 1_000,
//!     ..MsedConfig::default()
//! });
//! println!("MSED = {:.2}%", stats.detection_rate()); // paper: 86.71%
//!
//! // The same run is reproducible at any worker count:
//! let serial = muse_msed(&presets::muse_144_132(), MsedConfig {
//!     trials: 1_000, threads: 1, ..MsedConfig::default()
//! });
//! assert_eq!(stats, serial);
//! ```

#![deny(missing_docs)]

mod engine;
mod fastpath;
mod fit;
mod lanes;
mod msed;
mod ondie;
mod rng;
mod rowhammer;

pub use engine::{trials_completed, SimEngine, Tally};

/// The syndrome kernel of `code`, or a panic naming the subsystem — the
/// wide-word fallbacks are retired, so a kernel-less code (outside
/// [`muse_core::SyndromeKernel::supports`]) is a caller error everywhere
/// classification runs in the syndrome domain.
pub(crate) fn require_kernel<'a>(
    code: &'a muse_core::MuseCode,
    what: &str,
) -> &'a muse_core::SyndromeKernel {
    code.kernel().unwrap_or_else(|| {
        panic!(
            "{} carries no syndrome kernel (outside SyndromeKernel::supports); \
             {what} classification runs in the syndrome domain only",
            code.name()
        )
    })
}
pub use fit::{measure_mode, project_fit, FailureMode, FitProjection, ModeOutcome};
pub use msed::{muse_msed, rs_msed, rs_msed_exact, MsedConfig, MsedStats, Outcome, RsDetectMode};
pub use ondie::{simulate_stack, OndieStats, Stack};
pub use rng::{screen_kernel, Bounded32, CellStream, CountCdf, Rng};
pub use rowhammer::{
    simulate_attacks, AttackStats, HashedLine, LineError, LineHasher, HASH_BITS, WORDS_PER_LINE,
};
