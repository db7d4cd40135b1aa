//! The discrete-event fleet engine: per-DIMM epoch walks on counter-based
//! `(DIMM, epoch)` RNG streams, batched over [`SimEngine`] workers.
//!
//! # Event model (one epoch = one scrub interval)
//!
//! 1. **Arrivals.** Permanent faults arrive per device as Poisson processes
//!    (sampled as per-epoch binomial counts over the device population —
//!    at most one arrival per device per epoch, an error `< p²`):
//!    stuck single bits, row/column multi-bit faults, and whole-device
//!    (ChipKill) failures, at [`FailureMode`] FIT rates scaled by the
//!    [`Environment`](crate::Environment). Transient single-bit upsets
//!    arrive the same way at the environment's transient rate.
//! 2. **Exposure.** A whole-device failure is *undetected* from its arrival
//!    until the earlier of the next scrub and a demand read
//!    (exponentially distributed latency). Words read in that window carry
//!    the dead chip's garbage as an extra, unknown device error.
//! 3. **Classification.** Only reads that can produce a non-trivial
//!    outcome are classified (everything else is tallied analytically):
//!    transient-hit words on a degraded DIMM, multi-fault overlaps
//!    (transient × transient, transient × stuck word, transient × dying
//!    chip), and the scrub reads of freshly detected permanent faults.
//!    Classification runs through the unified syndrome-domain backend
//!    ([`FleetBackend`], a [`muse_core::Classifier`]) — never
//!    materializing a word. Degraded reads use **combined**
//!    error-and-erasure decoding: Forney-style `2e + ν ≤ 2t` for RS, the
//!    erasure-solve-plus-ELC-correction analogue for MUSE.
//! 4. **Repair.** At the epoch boundary each detected whole-device failure
//!    either consumes a spare (one full-fleet rebuild pass through the
//!    erasure decoder, then the chip is replaced), or — with no spares
//!    left — transitions the DIMM into *degraded operation*: the device
//!    joins the erased set and every later read decodes around it. A
//!    failure that exceeds the code's erasure capacity (or lands on an
//!    unrecoverable device combination) is a data-loss event: the DIMM is
//!    replaced and restarts fresh.
//!
//! ## Quiet epochs
//!
//! At realistic rates well under 1% of DIMM-epochs draw any arrival,
//! and an epoch whose four counts are all zero changes nothing but the
//! epoch tallies and, under importance sampling, the weight (by the
//! all-zero likelihood ratio). The walk therefore screens each chunk of
//! up to 64 epochs first: a branch-free column pass draws only the
//! arrival raws of every epoch in the chunk and compares each with its
//! sampler's zero threshold ([`CountCdf::zero_threshold`]), yielding a
//! 64-bit loud mask. The walk then takes the mask as runs: a run of `q`
//! quiet epochs adds `q` to the epoch tallies in one step (and to the
//! degraded tally if the erased set is not empty), and under importance
//! sampling multiplies the all-zero ratio into the weight `q` times,
//! once per epoch in epoch order, so the weight rounds exactly as an
//! epoch-by-epoch walk would. Only loud epochs run the full epoch step.
//!
//! The column pass is [`Rng::loud_steps`], once on the main stream and,
//! under importance sampling, once on the bias stream. Epochs are the
//! step axis of counter-based streams, so it screens eight consecutive
//! epochs per AVX-512 vector, four vectors at a time, when the CPU has
//! AVX-512F and AVX-512DQ (checked at run time, per call) and falls back
//! to a scalar loop everywhere else; [`muse_faultsim::screen_kernel`]
//! names the kernel in use. Both kernels compute the same wrapping
//! 64-bit arithmetic, so the mask — and everything downstream of it —
//! is identical on every host.
//!
//! # Determinism
//!
//! Epoch `e` of DIMM `d` draws exclusively from
//! [`Rng::for_cell`]`(seed, d, e)`; per-DIMM tallies merge in DIMM order.
//! Results are bit-identical at any thread count
//! (`tests/determinism.rs`). The quiet-epoch screen draws nothing that
//! the epoch step would not — the mask is a pure function of the same
//! arrival raws of each epoch's streams — and a loud epoch re-derives
//! its streams from scratch, so screening (on either kernel) changes no
//! draw.
//!
//! # Importance sampling
//!
//! Under [`Estimator::Importance`] the walk layers a biased measure on
//! top of the nominal draws (see [`crate::estimator`] for the scheme):
//! extra permanent-fault arrivals come off the domain-separated
//! [`Rng::for_bias`]`(seed, d, e)` stream, rare collision draws are
//! boosted in place on the main stream, and every biased decision
//! multiplies an exact likelihood ratio into the trajectory weight.
//! DUE/SDC events accumulate the weight at event time; per-DIMM totals
//! are quantized into the fixed-point [`LifetimeTally`] weighted sums,
//! so weighted results keep the same any-thread-count bit-identity as
//! the raw counts. At a bias factor of exactly 1.0 no bias-stream draw
//! is consumed, every likelihood ratio is exactly 1.0, and the main
//! stream sees the identical draw sequence as a naive run.

use muse_core::{Classifier, Strike, WordRead};
use muse_faultsim::{Bounded32, CellStream, CountCdf, FailureMode, Rng, SimEngine};

use crate::classify::{FleetBackend, FleetContext};
use crate::estimator::{boosted_chance, BiasedCount, Estimator};
use crate::{Environment, FleetCode, FleetConfig, LifetimeTally};

/// Hours per (Julian) year, the FIT-rate convention.
pub(crate) const HOURS_PER_YEAR: f64 = 8766.0;

/// Precomputed per-run sampling constants.
pub(crate) struct Plan {
    epochs: u64,
    cdf_single: CountCdf,
    cdf_multi: CountCdf,
    cdf_whole: CountCdf,
    cdf_trans: CountCdf,
    /// Zero thresholds of the four arrival samplers above, in draw order:
    /// the quiet-epoch screen.
    zero_main: [u64; 4],
    device_pick: Bounded32,
    words: f64,
    row_words: u32,
    /// Mean demand-read detection latency, in epoch units.
    demand_epochs: f64,
    asym: bool,
    /// Importance-sampling plan; `None` under the naive estimator.
    bias: Option<BiasPlan>,
}

/// Precomputed biased-arrival samplers and the collision boost factor.
///
/// Only the *permanent* fault modes are biased: their per-epoch arrival
/// probabilities are the rare ingredients of multi-fault SDC paths,
/// while the transient rate is large enough that inflating it would
/// explode the weight variance instead of reducing it.
struct BiasPlan {
    factor: f64,
    single: BiasedCount,
    multi: BiasedCount,
    whole: BiasedCount,
    /// Zero thresholds of the *active* extra-arrival samplers, in
    /// bias-stream draw order (inactive channels draw nothing).
    zero_extra: Vec<u64>,
    /// The weight factor of an epoch with four zero counts — the
    /// product `epoch_step` multiplies in, in the same order.
    lr0: f64,
}

impl BiasPlan {
    fn new(devices: u32, [p_single, p_multi, p_whole]: [f64; 3], factor: f64) -> Self {
        let single = BiasedCount::new(devices, p_single, factor);
        let multi = BiasedCount::new(devices, p_multi, factor);
        let whole = BiasedCount::new(devices, p_whole, factor);
        Self {
            factor,
            zero_extra: [&single, &multi, &whole]
                .iter()
                .filter_map(|c| c.zero_threshold())
                .collect(),
            lr0: single.likelihood(0) * multi.likelihood(0) * whole.likelihood(0),
            single,
            multi,
            whole,
        }
    }
}

impl Plan {
    pub fn new(code: &FleetCode, env: &Environment, config: &FleetConfig) -> Self {
        let devices = code.devices() as u32;
        let hours = config.scrub_interval_hours;
        let [(_, p_single), (_, p_multi), (_, p_whole)] = arrival_probabilities(env, config);
        let cdf_single = CountCdf::binomial(devices, p_single);
        let cdf_multi = CountCdf::binomial(devices, p_multi);
        let cdf_whole = CountCdf::binomial(devices, p_whole);
        let cdf_trans = CountCdf::binomial(
            devices,
            (env.transient_fit_per_device * hours / 1e9).min(1.0),
        );
        Self {
            epochs: config.epochs(),
            zero_main: [&cdf_single, &cdf_multi, &cdf_whole, &cdf_trans]
                .map(CountCdf::zero_threshold),
            cdf_single,
            cdf_multi,
            cdf_whole,
            cdf_trans,
            device_pick: Bounded32::new(devices),
            words: config.words_per_dimm as f64,
            row_words: config.row_words,
            demand_epochs: config.demand_read_hours / hours,
            asym: env.asymmetric_transients,
            bias: match config.estimator {
                Estimator::Naive => None,
                Estimator::Importance { bias } => {
                    Some(BiasPlan::new(devices, [p_single, p_multi, p_whole], bias))
                }
            },
        }
    }

    /// The loud mask of epochs `first..first + n` (`n <= 64`) of `dimm`:
    /// bit `i` is set when epoch `first + i` draws a nonzero arrival
    /// count on either stream. Screens exactly the arrival raws
    /// [`epoch_step`] draws first — the main stream's four, then the
    /// active bias extras — against their samplers' zero thresholds.
    fn loud_mask(&self, seed: u64, dimm: u64, first: u64, n: u64) -> u64 {
        let mut mask = Rng::loud_steps(CellStream::Cell, seed, dimm, first, n, &self.zero_main);
        if let Some(bp) = &self.bias {
            mask |= Rng::loud_steps(CellStream::Bias, seed, dimm, first, n, &bp.zero_extra);
        }
        mask
    }
}

/// Per-epoch permanent-fault arrival probabilities per device, by biased
/// channel name — the binomial arrival rates of [`Plan`], and the inputs
/// of the supervisor's weight-cap saturation diagnostic (`(bias − 1) · p > EXTRA_P_CAP` means the channel's
/// effective inflation is clipped).
pub(crate) fn arrival_probabilities(
    env: &Environment,
    config: &FleetConfig,
) -> [(&'static str, f64); 3] {
    let hours = config.scrub_interval_hours;
    let p_mode =
        |mode: FailureMode, scale: f64| (mode.fit_per_device() * scale * hours / 1e9).min(1.0);
    let [s_single, s_multi, s_whole] = env.permanent_scale;
    [
        ("single", p_mode(FailureMode::SingleBit, s_single)),
        ("multi", p_mode(FailureMode::SingleDeviceMultiBit, s_multi)),
        ("whole", p_mode(FailureMode::WholeDevice, s_whole)),
    ]
}

/// Per-DIMM mutable state.
struct DimmState {
    /// Retired (known-failed) devices, sorted — the erased set.
    erased: Vec<u16>,
    /// The decode context resolved for `erased`.
    ctx: FleetContext,
    /// Device of each word carrying a stuck permanent bit.
    stuck: Vec<u16>,
    spares_left: u32,
}

impl DimmState {
    fn fresh(backend: &FleetBackend<'_>, config: &FleetConfig) -> Self {
        let erased: Vec<u16> = (0..config.initial_failed_devices as u16).collect();
        let ctx = backend
            .resolve(&erased)
            .expect("initial_failed_devices exceeds the code's erasure capacity");
        Self {
            erased,
            ctx,
            stuck: Vec::new(),
            spares_left: config.spares_per_dimm,
        }
    }
}

/// One DIMM trajectory's running likelihood ratio and weighted event
/// totals. `f64` arithmetic stays inside the DIMM's sequential walk;
/// cross-DIMM aggregation happens in fixed point (see
/// [`crate::estimator::WeightedCount`]).
struct Weights {
    /// Running likelihood ratio (nominal density over biased density of
    /// every biased decision so far). Exactly 1.0 under the naive
    /// estimator or a bias factor of 1.0.
    w: f64,
    /// Sum over DUE / data-loss events of the weight at event time.
    due: f64,
    /// Sum over SDC events of the weight at event time.
    sdc: f64,
}

impl Weights {
    fn fresh() -> Self {
        Self {
            w: 1.0,
            due: 0.0,
            sdc: 0.0,
        }
    }
}

fn record(tally: &mut LifetimeTally, ws: &mut Weights, out: WordRead) {
    match out {
        WordRead::Correct => tally.corrected_words += 1,
        WordRead::Due => {
            tally.due_words += 1;
            ws.due += ws.w;
        }
        WordRead::Sdc => {
            tally.sdc_words += 1;
            ws.sdc += ws.w;
        }
    }
}

/// Runs the whole fleet and merges the tallies (bit-identical at any
/// thread count).
pub(crate) fn run_fleet(
    code: &FleetCode,
    env: &Environment,
    config: &FleetConfig,
) -> LifetimeTally {
    run_fleet_range(code, env, config, 0..config.dimms)
}

/// Runs the DIMMs of `range` (global indices into the fleet) and merges
/// their tallies — the unit of work of one shard.
///
/// Epoch `e` of global DIMM `d` draws only from
/// `Rng::for_cell(seed, d, e)` no matter how the fleet is split, so the
/// sum of any partition's range tallies is bit-identical to the
/// unsharded [`run_fleet`] at any thread count.
pub(crate) fn run_fleet_range(
    code: &FleetCode,
    env: &Environment,
    config: &FleetConfig,
    range: std::ops::Range<u64>,
) -> LifetimeTally {
    run_range_with(code, env, config, range, screened_walk)
}

/// One DIMM's epoch walk, from a fresh state to the end of the horizon.
type Walk = fn(
    &Plan,
    &FleetConfig,
    u64,
    &mut Weights,
    &mut DimmState,
    &mut FleetBackend<'_>,
    &mut LifetimeTally,
);

/// Runs `walk` over the DIMMs of `range` on the engine's workers.
fn run_range_with(
    code: &FleetCode,
    env: &Environment,
    config: &FleetConfig,
    range: std::ops::Range<u64>,
    walk: Walk,
) -> LifetimeTally {
    let plan = Plan::new(code, env, config);
    // Validate the starting erased set once, up front (fails fast instead
    // of panicking inside a worker).
    drop(DimmState::fresh(&FleetBackend::new(code), config));
    SimEngine::new(config.threads).run_with(
        config.seed,
        range.end - range.start,
        || FleetBackend::new(code),
        |local, _trial_rng, backend, tally: &mut LifetimeTally| {
            let dimm = range.start + local;
            let mut state = DimmState::fresh(backend, config);
            let mut ws = Weights::fresh();
            walk(&plan, config, dimm, &mut ws, &mut state, backend, tally);
            if plan.bias.is_some() {
                // Quantize the per-DIMM f64 totals once, in DIMM order:
                // fixed-point addition is associative, so the merged
                // fleet sums are partition-invariant.
                tally.due_weighted.push(ws.due);
                tally.sdc_weighted.push(ws.sdc);
                tally.weight_sum.push(ws.w);
            }
        },
    )
}

/// The fleet walk: screens each chunk of up to 64 epochs with
/// [`Plan::loud_mask`], runs [`epoch_step`] on the loud epochs only, and
/// does the bookkeeping of each run of quiet epochs in bulk.
fn screened_walk(
    plan: &Plan,
    config: &FleetConfig,
    dimm: u64,
    ws: &mut Weights,
    state: &mut DimmState,
    backend: &mut FleetBackend<'_>,
    tally: &mut LifetimeTally,
) {
    let lr0 = plan.bias.as_ref().map(|b| b.lr0);
    let mut first = 0;
    while first < plan.epochs {
        let n = (plan.epochs - first).min(64);
        let loud = plan.loud_mask(config.seed, dimm, first, n);
        for (quiet, loud) in QuietRuns::new(loud, n) {
            // Four zero counts: `epoch_step` would count each epoch and
            // multiply in the all-zero likelihood ratio, nothing else.
            // One multiply per epoch, in epoch order, keeps the weight
            // bit-identical.
            count_epochs(state, tally, quiet);
            if let Some(lr0) = lr0 {
                for _ in 0..quiet {
                    ws.w *= lr0;
                }
            }
            if let Some(i) = loud {
                step(plan, config, dimm, first + i, ws, state, backend, tally);
            }
        }
        first += n;
    }
}

/// The runs of a chunk's loud mask, in epoch order: each item is
/// `(quiet, loud)`, a run of `quiet` quiet epochs followed by the loud
/// epoch at chunk offset `loud`, or by the chunk's end (`None`). Only
/// the mask's low `n` bits are read.
struct QuietRuns {
    mask: u64,
    n: u64,
    next: u64,
}

impl QuietRuns {
    fn new(mask: u64, n: u64) -> Self {
        debug_assert!(n <= 64);
        Self { mask, n, next: 0 }
    }
}

impl Iterator for QuietRuns {
    type Item = (u64, Option<u64>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.n {
            return None;
        }
        let quiet = u64::from((self.mask >> self.next).trailing_zeros()).min(self.n - self.next);
        let at = self.next + quiet;
        self.next = at + 1;
        Some((quiet, (at < self.n).then_some(at)))
    }
}

/// Derives epoch `epoch`'s streams and runs [`epoch_step`] on them.
#[allow(clippy::too_many_arguments)]
fn step(
    plan: &Plan,
    config: &FleetConfig,
    dimm: u64,
    epoch: u64,
    ws: &mut Weights,
    state: &mut DimmState,
    backend: &mut FleetBackend<'_>,
    tally: &mut LifetimeTally,
) {
    // The determinism contract: epoch e of DIMM d draws only from this
    // stream (plus its domain-separated bias companion), regardless of
    // worker assignment.
    let mut rng = Rng::for_cell(config.seed, dimm, epoch);
    let mut bias_rng = plan
        .bias
        .is_some()
        .then(|| Rng::for_bias(config.seed, dimm, epoch));
    epoch_step(
        plan,
        config,
        &mut rng,
        bias_rng.as_mut(),
        ws,
        state,
        backend,
        tally,
    );
}

/// Counts `epochs` epochs (and whether they ran degraded); returns the
/// latter.
fn count_epochs(state: &DimmState, tally: &mut LifetimeTally, epochs: u64) -> bool {
    tally.epochs += epochs;
    let degraded = !state.erased.is_empty();
    if degraded {
        tally.degraded_epochs += epochs;
    }
    degraded
}

/// Draws one collision decision: the plain `chance(p)` under the naive
/// estimator, the boosted draw (with its likelihood ratio folded into
/// the trajectory weight) under importance sampling. Either way exactly
/// one main-stream draw is consumed, and at a bias factor of 1.0 the
/// boosted probability collapses back to `p`.
fn collision(rng: &mut Rng, p: f64, boost: Option<f64>, ws: &mut Weights) -> bool {
    match boost {
        None => rng.chance(p),
        Some(factor) => {
            let (hit, lr) = boosted_chance(rng, p, factor);
            ws.w *= lr;
            hit
        }
    }
}

/// One scrub interval of one DIMM. All sampling happens in a fixed order
/// off the epoch's private stream; biased extras come off `bias_rng`.
#[allow(clippy::too_many_arguments)]
fn epoch_step(
    plan: &Plan,
    config: &FleetConfig,
    rng: &mut Rng,
    bias_rng: Option<&mut Rng>,
    ws: &mut Weights,
    state: &mut DimmState,
    backend: &mut FleetBackend<'_>,
    tally: &mut LifetimeTally,
) {
    let degraded = count_epochs(state, tally, 1);
    let boost = plan.bias.as_ref().map(|b| b.factor);

    // 1. Arrival counts: one raw draw each, through the exact binomial
    //    CDF. Under importance sampling each permanent-fault count is
    //    topped up with an independent extra-arrival draw off the bias
    //    stream, and the exact likelihood ratio of the combined count
    //    multiplies the trajectory weight (transients stay unbiased —
    //    see [`BiasPlan`]).
    let mut n_single = plan.cdf_single.sample(rng.next_u64());
    let mut n_multi = plan.cdf_multi.sample(rng.next_u64());
    let mut n_whole = plan.cdf_whole.sample(rng.next_u64());
    let n_trans = plan.cdf_trans.sample(rng.next_u64());
    if let (Some(bp), Some(brng)) = (&plan.bias, bias_rng) {
        n_single += bp.single.sample_extra(brng);
        n_multi += bp.multi.sample_extra(brng);
        n_whole += bp.whole.sample_extra(brng);
        ws.w *= bp.single.likelihood(n_single)
            * bp.multi.likelihood(n_multi)
            * bp.whole.likelihood(n_whole);
    }

    // 2. Whole-device failures: device + undetected-exposure window.
    let mut pending: Vec<(u16, f64)> = Vec::new();
    for _ in 0..n_whole {
        let dev = plan.device_pick.sample(rng) as u16;
        if state.erased.contains(&dev) || pending.iter().any(|&(d, _)| d == dev) {
            continue;
        }
        let arrive = rng.f64();
        let demand = -(1.0 - rng.f64()).ln() * plan.demand_epochs;
        pending.push((dev, (1.0 - arrive).min(demand)));
    }

    let mut strikes: Vec<(u16, Strike)> = Vec::new();

    // 3. Row/column multi-bit faults: detected and mapped out at this
    //    scrub. On a healthy DIMM the row's words carry one in-model
    //    device error each — corrected by construction. Degraded, every
    //    word of the row goes through the erasure decoder.
    for _ in 0..n_multi {
        let dev = plan.device_pick.sample(rng) as u16;
        if state.erased.contains(&dev) || pending.iter().any(|&(d, _)| d == dev) {
            continue;
        }
        tally.rows_retired += 1;
        if !degraded {
            tally.corrected_words += plan.row_words as u64;
        } else {
            let width = backend.device_width(dev);
            for _ in 0..plan.row_words {
                strikes.clear();
                strikes.push((dev, Strike::Xor(rng.nonzero_below(1 << width) as u16)));
                tally.erasure_reads += 1;
                let out = backend.classify(&state.ctx, &strikes, rng);
                record(tally, ws, out);
            }
        }
    }

    // 4. Stuck single bits: corrected on first read; the word keeps its
    //    latent fault and stays exposed to later transients.
    for _ in 0..n_single {
        let dev = plan.device_pick.sample(rng) as u16;
        if state.erased.contains(&dev) || pending.iter().any(|&(d, _)| d == dev) {
            continue;
        }
        if !degraded {
            tally.corrected_words += 1;
        } else {
            let width = backend.device_width(dev);
            strikes.clear();
            strikes.push((dev, Strike::Xor(1 << rng.below(width as u64))));
            tally.erasure_reads += 1;
            let out = backend.classify(&state.ctx, &strikes, rng);
            record(tally, ws, out);
        }
        if state.stuck.len() < 4096 {
            state.stuck.push(dev);
        }
    }

    // 5. Transient upsets. Healthy single-word singles are corrected by
    //    the next scrub (tallied analytically); everything that can go
    //    wrong — degraded reads, overlaps with stuck words, dying chips,
    //    or a second transient in the same word — is classified.
    for i in 0..n_trans as u64 {
        let dev = plan.device_pick.sample(rng) as u16;
        let width = backend.device_width(dev);
        let bit = rng.below(width as u64) as u8;
        if state.erased.contains(&dev) {
            continue; // inside a dead chip: the erasure solve ignores it
        }
        let tstrike = if plan.asym {
            Strike::AsymBit(bit)
        } else {
            Strike::Xor(1 << bit)
        };
        strikes.clear();
        strikes.push((dev, tstrike));
        // Dying chips: garbage while the failure is undetected.
        for &(ddev, window) in &pending {
            if ddev != dev && collision(rng, window, boost, ws) {
                let garbage = rng.below(1 << backend.device_width(ddev)) as u16;
                if garbage != 0 {
                    strikes.push((ddev, Strike::Xor(garbage)));
                }
            }
        }
        // Landing in a word with a latent stuck bit.
        if !state.stuck.is_empty()
            && collision(rng, state.stuck.len() as f64 / plan.words, boost, ws)
        {
            let s = state.stuck[rng.below(state.stuck.len() as u64) as usize];
            if !state.erased.contains(&s) && !strikes.iter().any(|&(d, _)| d == s) {
                let w = backend.device_width(s);
                strikes.push((s, Strike::Xor(1 << rng.below(w as u64))));
            }
        }
        // Colliding with an earlier transient of this epoch.
        if i > 0 && collision(rng, i as f64 / plan.words, boost, ws) {
            let other = plan.device_pick.sample(rng) as u16;
            let ow = backend.device_width(other);
            let obit = rng.below(ow as u64) as u8;
            if !state.erased.contains(&other) && !strikes.iter().any(|&(d, _)| d == other) {
                strikes.push((
                    other,
                    if plan.asym {
                        Strike::AsymBit(obit)
                    } else {
                        Strike::Xor(1 << obit)
                    },
                ));
            }
        }
        strikes.truncate(16);
        if degraded {
            tally.erasure_reads += 1;
            let out = backend.classify(&state.ctx, &strikes, rng);
            record(tally, ws, out);
        } else if strikes.len() == 1 {
            // A lone in-model transient: scrubbed away. Asymmetric cells
            // only flip when they store a 1 (uniform contents: p = 1/2).
            match tstrike {
                Strike::Xor(_) => tally.corrected_words += 1,
                Strike::AsymBit(_) => {
                    if rng.chance(0.5) {
                        tally.corrected_words += 1;
                    }
                }
            }
        } else {
            let out = backend.classify(&state.ctx, &strikes, rng);
            record(tally, ws, out);
        }
    }

    // 6. Epoch boundary: act on the detected whole-device failures.
    for &(dev, _) in &pending {
        tally.devices_retired += 1;
        let mut candidate = state.erased.clone();
        candidate.push(dev);
        candidate.sort_unstable();
        if let Some(cctx) = backend.resolve(&candidate) {
            if state.spares_left > 0 {
                // Chip sparing: one rebuild pass reads every word through
                // the erasure decoder; words disturbed by a concurrent
                // transient are the ones that can fail.
                let n_rebuild = plan.cdf_trans.sample(rng.next_u64());
                for _ in 0..n_rebuild {
                    let tdev = plan.device_pick.sample(rng) as u16;
                    if candidate.contains(&tdev) {
                        continue;
                    }
                    let w = backend.device_width(tdev);
                    let bit = rng.below(w as u64) as u8;
                    strikes.clear();
                    strikes.push((
                        tdev,
                        if plan.asym {
                            Strike::AsymBit(bit)
                        } else {
                            Strike::Xor(1 << bit)
                        },
                    ));
                    tally.erasure_reads += 1;
                    let out = backend.classify(&cctx, &strikes, rng);
                    record(tally, ws, out);
                }
                state.spares_left -= 1;
                tally.spare_rebuilds += 1;
                // The failed chip is now spared: the erased set is
                // unchanged going forward.
            } else {
                // No spares: degraded operation from the next epoch on.
                state.erased = candidate;
                state.ctx = cctx;
            }
        } else {
            // Beyond the code's erasure capacity (or an unrecoverable
            // device combination): data loss; the DIMM is replaced. The
            // trajectory weight carries across the replacement — the
            // biased measure runs over the whole DIMM slot's lifetime.
            tally.data_loss_events += 1;
            ws.due += ws.w;
            tally.dimm_replacements += 1;
            *state = DimmState::fresh(backend, config);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_environments, scenario_codes, smoke_setup};

    /// The unscreened reference walk: every epoch through [`epoch_step`].
    fn per_epoch_walk(
        plan: &Plan,
        config: &FleetConfig,
        dimm: u64,
        ws: &mut Weights,
        state: &mut DimmState,
        backend: &mut FleetBackend<'_>,
        tally: &mut LifetimeTally,
    ) {
        for epoch in 0..plan.epochs {
            step(plan, config, dimm, epoch, ws, state, backend, tally);
        }
    }

    /// Runs `config` through the screened walk and the reference walk,
    /// asserts the two tallies are bitwise equal (weighted sums
    /// included), and returns the tally.
    fn assert_screen_matches(
        code: &FleetCode,
        env: &Environment,
        config: &FleetConfig,
    ) -> LifetimeTally {
        let range = 0..config.dimms;
        let screened = run_range_with(code, env, config, range.clone(), screened_walk);
        let oracle = run_range_with(code, env, config, range, per_epoch_walk);
        assert_eq!(
            screened,
            oracle,
            "{} / {} / {:?}",
            code.name(),
            env.name,
            config.estimator
        );
        assert_eq!(oracle.epochs, config.dimms * config.epochs());
        oracle
    }

    const ESTIMATORS: [Estimator; 3] = [
        Estimator::Naive,
        Estimator::Importance { bias: 16.0 },
        Estimator::Importance { bias: 1.0 },
    ];

    /// Every environment × scenario code × estimator at `dimms` DIMMs
    /// over `years`, starting with `initial_failed_devices` retired.
    fn assert_matrix(dimms: u64, years: f64, initial_failed_devices: u32) {
        for env in all_environments() {
            for code in scenario_codes() {
                for estimator in ESTIMATORS {
                    let config = FleetConfig {
                        dimms,
                        years,
                        initial_failed_devices,
                        threads: 1,
                        estimator,
                        ..FleetConfig::default()
                    };
                    assert_ne!(config.epochs() % 64, 0, "want a partial last chunk");
                    assert_screen_matches(&code, &env, &config);
                }
            }
        }
    }

    #[test]
    fn quiet_runs_split_the_mask_like_the_per_bit_loop() {
        let alternating = 0x5555_5555_5555_5555u64;
        let masks = [0, u64::MAX, 1 << 63, 1, alternating, !alternating];
        for mask in masks {
            for n in (0..=9).chain([31, 32, 33, 62, 63, 64]) {
                // Loud bits at and past `n` lie outside the chunk.
                for mask in [
                    mask,
                    mask | 1 << n.min(63),
                    mask | !(u64::MAX >> (64 - n.max(1))),
                ] {
                    let per_bit: Vec<bool> = (0..n).map(|i| mask >> i & 1 != 0).collect();
                    let runs: Vec<_> = QuietRuns::new(mask, n).collect();
                    let mut split = Vec::new();
                    for &(quiet, loud) in &runs {
                        split.extend((0..quiet).map(|_| false));
                        if let Some(i) = loud {
                            assert_eq!(i, split.len() as u64, "mask {mask:#x} n {n}");
                            split.push(true);
                        }
                    }
                    assert_eq!(split, per_bit, "mask {mask:#x} n {n}");
                    // Only the chunk's last run may end without a loud epoch.
                    assert!(runs.iter().rev().skip(1).all(|r| r.1.is_some()), "{runs:?}");
                }
            }
        }
    }

    #[test]
    fn screen_matches_per_epoch_walk_on_the_matrix() {
        assert_matrix(4, 2.0, 0);
    }

    #[test]
    fn screen_matches_when_degraded_from_epoch_zero() {
        assert_matrix(2, 1.0, 1);
    }

    #[test]
    #[ignore = "deep variant: 512 DIMMs x 5 years over the full matrix (release build)"]
    fn screen_matches_per_epoch_walk_deep() {
        assert_matrix(512, 5.0, 0);
    }

    #[test]
    fn screen_matches_on_the_smoke_config() {
        // Many loud epochs: every DIMM starts degraded and faults arrive
        // at elevated rates.
        let (env, smoke) = smoke_setup();
        for code in scenario_codes() {
            for estimator in ESTIMATORS {
                let config = FleetConfig { estimator, ..smoke };
                let tally = assert_screen_matches(&code, &env, &config);
                assert!(tally.erasure_reads > 0);
            }
        }
    }

    #[test]
    fn screen_matches_at_every_chunk_shape() {
        // Horizons whose last chunk is shorter than one 8-epoch vector,
        // exactly one, one past it, and either side of a full 64-epoch
        // chunk. A 1/1024-year scrub interval makes the epoch counts
        // exact in binary floating point.
        let (smoke_env, _) = smoke_setup();
        let mut envs = all_environments();
        envs.push(smoke_env);
        let codes = scenario_codes();
        let mut loud_runs = 0;
        for epochs in (1..=9).chain([63, 64, 65]) {
            for env in &envs {
                for code in &codes {
                    for estimator in ESTIMATORS {
                        let config = FleetConfig {
                            dimms: 4,
                            years: epochs as f64 / 1024.0,
                            scrub_interval_hours: HOURS_PER_YEAR / 1024.0,
                            threads: 1,
                            estimator,
                            ..FleetConfig::default()
                        };
                        assert_eq!(config.epochs(), epochs);
                        let tally = assert_screen_matches(code, env, &config);
                        loud_runs += (tally.corrected_words > 0) as u32;
                    }
                }
            }
        }
        assert!(loud_runs > 0, "no run drew a loud epoch");
    }

    #[test]
    fn screen_matches_across_data_loss_replacements() {
        // Whole-device failures on about a third of the epochs, no
        // spares: data-loss replacements land inside chunks (63 of every
        // 64 epochs are not a chunk's last), and the fresh DIMM's
        // bookkeeping must carry on from there.
        let env = Environment {
            name: "data-loss",
            transient_fit_per_device: 2.0e5,
            permanent_scale: [2.0, 2.0, 2.0e5],
            asymmetric_transients: false,
        };
        for code in scenario_codes() {
            for estimator in ESTIMATORS {
                let config = FleetConfig {
                    dimms: 4,
                    years: 0.5,
                    initial_failed_devices: 1,
                    threads: 1,
                    estimator,
                    ..FleetConfig::default()
                };
                let tally = assert_screen_matches(&code, &env, &config);
                assert!(tally.dimm_replacements >= 8, "{tally:?}");
            }
        }
    }

    #[test]
    fn screen_matches_when_every_epoch_is_loud() {
        // A transient rate with p = 1: its zero threshold is 0, so the
        // screen passes every epoch to `epoch_step`.
        let env = Environment {
            name: "saturated",
            transient_fit_per_device: 1e12,
            permanent_scale: [1.0, 1.0, 1.0],
            asymmetric_transients: false,
        };
        for code in scenario_codes() {
            for estimator in ESTIMATORS {
                let config = FleetConfig {
                    dimms: 2,
                    years: 0.1,
                    threads: 1,
                    estimator,
                    ..FleetConfig::default()
                };
                assert_eq!(Plan::new(&code, &env, &config).zero_main[3], 0);
                assert_screen_matches(&code, &env, &config);
            }
        }
    }

    /// The screen's contract on one sampler: a raw below the zero
    /// threshold samples zero, and (short of saturation) the threshold
    /// itself does not.
    fn assert_zero_threshold_exact(cdf: &CountCdf, what: &str) {
        let t = cdf.zero_threshold();
        if t > 0 {
            assert_eq!(cdf.sample(0), 0, "{what}");
            assert_eq!(cdf.sample(t - 1), 0, "{what}");
        }
        if t < u64::MAX {
            assert_ne!(cdf.sample(t), 0, "{what}");
        }
    }

    #[test]
    fn zero_thresholds_hold_on_every_plan_binomial() {
        let (smoke_env, smoke) = smoke_setup();
        let mut envs = all_environments();
        envs.push(smoke_env);
        for env in &envs {
            for code in scenario_codes() {
                for estimator in ESTIMATORS {
                    for base in [FleetConfig::default(), smoke] {
                        let config = FleetConfig { estimator, ..base };
                        let plan = Plan::new(&code, env, &config);
                        let what = format!("{} / {} / {estimator:?}", code.name(), env.name);
                        let mut cdfs = vec![
                            &plan.cdf_single,
                            &plan.cdf_multi,
                            &plan.cdf_whole,
                            &plan.cdf_trans,
                        ];
                        if let Some(bp) = &plan.bias {
                            cdfs.extend(
                                [&bp.single, &bp.multi, &bp.whole]
                                    .into_iter()
                                    .filter_map(|c| c.extra.as_ref()),
                            );
                        }
                        for cdf in cdfs {
                            assert_zero_threshold_exact(cdf, &what);
                        }
                    }
                }
            }
        }
    }
}
