//! The shared Monte-Carlo execution engine: batched trials over scoped
//! worker threads with counter-based per-trial RNG streams, and the one
//! work-pulling primitive ([`pull_units`]) that every parallel loop in
//! the simulators runs on.
//!
//! # Determinism contract
//!
//! Every trial `i` of a run seeded with `s` draws randomness exclusively
//! from [`Rng::for_trial`]`(s, i)` — a pure function of `(s, i)`. Trial
//! outcomes therefore do not depend on which worker executes them or in
//! what order, and per-range tallies are merged in ascending trial-range
//! order. A simulation produces **bit-identical results at any thread
//! count**, including `threads = 1`; `faultsim/tests/determinism.rs` pins
//! this property for every simulator.
//!
//! # Work pulling
//!
//! [`pull_units`] runs numbered units of work on scoped workers that
//! claim indices in ascending order from one atomic counter, and hands
//! every result to a commit callback on the calling thread, which is
//! itself one of the workers. [`SimEngine`] splits a run into eight
//! contiguous trial ranges per worker and pulls those ranges, so a worker
//! slowed by the rest of the host leaves its ranges to the others instead
//! of holding the run back. Each worker owns one scratch value (built by
//! `init`) for every range it runs, each range a local tally, and the
//! tallies are merged in range order once all are in. The lifetime
//! crate's sharded supervisor runs one shard at a time through the
//! engine, so every worker pulls ranges of the same shard.

use crate::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Process-wide count of completed trials across every [`SimEngine`] run.
///
/// Workers add their whole range once at range completion — never inside
/// the trial loop — so the counter costs one relaxed atomic add per
/// range and cannot perturb trial outcomes (it touches no RNG
/// stream). Observability consumers (the `muse-telemetry` metrics
/// registry) snapshot it to derive trials/s.
static TRIALS_COMPLETED: AtomicU64 = AtomicU64::new(0);

/// Contiguous ranges a [`SimEngine`] run is split into per worker. Workers
/// pull ranges as they finish, so a run ends when its work is done rather
/// than when the slowest worker finishes a fixed share: with one range
/// each, a worker whose CPU the host slows by a third slows the whole run
/// by a third. Each range costs one tally merge.
const RANGES_PER_WORKER: u64 = 8;

/// Total trials completed by every engine run in this process so far.
///
/// Monotone; read it twice around a workload to get a delta for a
/// throughput estimate.
pub fn trials_completed() -> u64 {
    TRIALS_COMPLETED.load(Ordering::Relaxed)
}

/// Runs units `0..units` on up to `threads` workers and hands every
/// result to `commit` on the calling thread.
///
/// Workers claim unit indices in ascending order from one shared atomic
/// counter, so the claimed units always form a prefix `0..k`. The calling
/// thread is one of the workers: `threads − 1` scoped threads are
/// spawned, and between its own units the caller commits whatever the
/// others have finished; once nothing is left to claim it commits the
/// remaining results as they arrive. `commit` therefore never runs
/// concurrently with itself and needs no `Send` or `Sync`.
///
/// `commit` returns `false` to stop claiming: no unit is claimed after
/// the caller sees it, units already claimed still run, and every
/// finished unit is committed before `pull_units` returns. Results are
/// committed in completion order, not unit order; callers that need an
/// ordered fold key them by the unit index `commit` receives.
///
/// # Panics
///
/// Re-raises a panic from `work` or `commit` once every worker has
/// stopped.
pub(crate) fn pull_units<R, W, C>(threads: usize, units: usize, work: W, commit: C)
where
    R: Send,
    W: Fn(usize) -> R + Sync,
    C: FnMut(usize, R) -> bool,
{
    pull_units_with(threads, units, || (), |(), unit| work(unit), commit);
}

/// [`pull_units`] with per-worker state: every worker, the caller
/// included, builds one state with `init` before it claims a unit and
/// lends it to `work` for each unit it runs.
fn pull_units_with<S, R, I, W, C>(threads: usize, units: usize, init: I, work: W, mut commit: C)
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> R + Sync,
    C: FnMut(usize, R) -> bool,
{
    // Both atomics are `Relaxed`: they publish no data (results travel
    // through the channel), and a claim racing a stop costs one more unit.
    let next = AtomicUsize::new(0);
    let halted = AtomicBool::new(false);
    let claim = || {
        if halted.load(Ordering::Relaxed) {
            return None;
        }
        let unit = next.fetch_add(1, Ordering::Relaxed);
        (unit < units).then_some(unit)
    };
    let mut deliver = |unit: usize, result: R| {
        if !commit(unit, result) {
            halted.store(true, Ordering::Relaxed);
        }
    };
    let workers = threads.clamp(1, units.max(1));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 1..workers {
            let (tx, claim, init, work) = (tx.clone(), &claim, &init, &work);
            scope.spawn(move || {
                let mut state = init();
                while let Some(unit) = claim() {
                    if tx.send((unit, work(&mut state, unit))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut state = init();
        while let Some(unit) = claim() {
            deliver(unit, work(&mut state, unit));
            while let Ok((unit, result)) = rx.try_recv() {
                deliver(unit, result);
            }
        }
        // Ends once every worker has dropped its sender.
        for (unit, result) in rx {
            deliver(unit, result);
        }
    });
}

/// A mergeable accumulation of trial outcomes.
pub trait Tally: Default + Send {
    /// Folds another tally (from a later trial range) into this one.
    fn merge(&mut self, other: Self);
}

/// Trial scheduler: splits `trials` across scoped worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEngine {
    threads: usize,
}

impl Default for SimEngine {
    /// One worker per available CPU.
    fn default() -> Self {
        Self::new(0)
    }
}

impl SimEngine {
    /// Trials per block in [`Self::run_blocked`].
    ///
    /// A fixed constant of the determinism contract: block `b` always covers
    /// trials `[b·TRIAL_BLOCK, (b+1)·TRIAL_BLOCK)` regardless of worker
    /// count, and draws exclusively from [`Rng::for_block`]`(seed, b)`.
    pub const TRIAL_BLOCK: u64 = 1024;

    /// An engine with a fixed worker count (`0` ⇒ one per available CPU).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }

    /// Runs `trials` scratchless trials and merges their tallies.
    ///
    /// # Examples
    ///
    /// ```
    /// use muse_faultsim::SimEngine;
    ///
    /// // Estimate P(two dice agree) from 10 000 trials on all CPUs.
    /// let roll = |_i: u64, rng: &mut muse_faultsim::Rng, hits: &mut u64| {
    ///     if rng.below(6) == rng.below(6) {
    ///         *hits += 1;
    ///     }
    /// };
    /// let hits: u64 = SimEngine::default().run(7, 10_000, roll);
    /// // The determinism contract: bit-identical at any worker count.
    /// assert_eq!(hits, SimEngine::new(1).run(7, 10_000, roll));
    /// assert!((hits as f64 / 10_000.0 - 1.0 / 6.0).abs() < 0.02);
    /// ```
    pub fn run<T, F>(&self, seed: u64, trials: u64, trial: F) -> T
    where
        T: Tally,
        F: Fn(u64, &mut Rng, &mut T) + Sync,
    {
        self.run_with(
            seed,
            trials,
            || (),
            |i, rng, (), tally| trial(i, rng, tally),
        )
    }

    /// Runs `trials` trials in fixed-size blocks sharing one RNG stream per
    /// block, and merges the per-block tallies.
    ///
    /// This is the engine's *batched-draw* mode: where [`Self::run_with`]
    /// constructs a fresh [`Rng::for_trial`] state per trial, a blocked run
    /// constructs one [`Rng::for_block`] stream per [`Self::TRIAL_BLOCK`]
    /// trials and lets the block body draw from it sequentially (including
    /// variable-length rejection sampling — consumption may differ per
    /// trial). Because block boundaries are a fixed constant and workers are
    /// assigned whole blocks, results remain **bit-identical at any thread
    /// count**.
    ///
    /// `block` receives the global trial-index range of the block, the
    /// block's private RNG stream, the worker scratch, and the worker-local
    /// tally; it must process the trials of `range` in ascending order.
    ///
    /// # Examples
    ///
    /// ```
    /// use muse_faultsim::SimEngine;
    ///
    /// let heads: u64 = SimEngine::new(2).run_blocked(
    ///     7,
    ///     10_000,
    ///     || (),
    ///     |range, rng, (), tally| {
    ///         for _ in range {
    ///             *tally += rng.next_u64() & 1;
    ///         }
    ///     },
    /// );
    /// assert_eq!(heads, SimEngine::new(1).run_blocked(7, 10_000, || (), |range, rng, (), tally: &mut u64| {
    ///     for _ in range { *tally += rng.next_u64() & 1; }
    /// }));
    /// ```
    pub fn run_blocked<T, S, I, F>(&self, seed: u64, trials: u64, init: I, block: F) -> T
    where
        T: Tally,
        I: Fn() -> S + Sync,
        F: Fn(std::ops::Range<u64>, &mut Rng, &mut S, &mut T) + Sync,
    {
        const B: u64 = SimEngine::TRIAL_BLOCK;
        self.run_ranges(trials.div_ceil(B), init, |scratch, blocks| {
            let mut tally = T::default();
            for b in blocks.clone() {
                let mut rng = Rng::for_block(seed, b);
                let range = b * B..((b + 1) * B).min(trials);
                block(range, &mut rng, scratch, &mut tally);
            }
            let lo = blocks.start * B;
            let hi = (blocks.end * B).min(trials);
            TRIALS_COMPLETED.fetch_add(hi.saturating_sub(lo), Ordering::Relaxed);
            tally
        })
    }

    /// Runs `trials` trials with per-worker scratch state and merges their
    /// tallies.
    ///
    /// `init` builds one scratch value per worker (reused across every
    /// trial the worker runs — allocate buffers here, not per trial);
    /// `trial` receives the global trial index, the trial's private RNG
    /// stream, the scratch, and the range-local tally.
    pub fn run_with<T, S, I, F>(&self, seed: u64, trials: u64, init: I, trial: F) -> T
    where
        T: Tally,
        I: Fn() -> S + Sync,
        F: Fn(u64, &mut Rng, &mut S, &mut T) + Sync,
    {
        self.run_ranges(trials, init, |scratch, range| {
            let mut tally = T::default();
            for i in range.clone() {
                let mut rng = Rng::for_trial(seed, i);
                trial(i, &mut rng, scratch, &mut tally);
            }
            TRIALS_COMPLETED.fetch_add(range.end - range.start, Ordering::Relaxed);
            tally
        })
    }

    /// Splits `0..items` into [`RANGES_PER_WORKER`] contiguous ranges
    /// per worker, pulls the ranges through [`pull_units_with`] with one
    /// `init` scratch per worker, and merges their tallies in range order.
    fn run_ranges<T, S, I, F>(&self, items: u64, init: I, range: F) -> T
    where
        T: Tally,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, std::ops::Range<u64>) -> T + Sync,
    {
        let threads = self.threads().min(items.max(1) as usize);
        let chunk = items.div_ceil(threads as u64 * RANGES_PER_WORKER).max(1);
        let units = items.div_ceil(chunk) as usize;
        let mut parts: Vec<Option<T>> = (0..units).map(|_| None).collect();
        pull_units_with(
            threads,
            units,
            init,
            |scratch, unit| {
                let lo = unit as u64 * chunk;
                range(scratch, lo..(lo + chunk).min(items))
            },
            |unit, tally| {
                parts[unit] = Some(tally);
                true
            },
        );
        parts
            .into_iter()
            .map(|part| part.expect("every range is committed"))
            .reduce(|mut total, part| {
                total.merge(part);
                total
            })
            .unwrap_or_default()
    }
}

impl Tally for u64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

impl<A: Tally, B: Tally> Tally for (A, B) {
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_across_thread_counts() {
        let run = |threads| {
            SimEngine::new(threads).run::<u64, _>(99, 10_000, |_, rng, acc| {
                *acc += rng.below(1000);
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(7));
        assert_eq!(serial, run(0));
    }

    #[test]
    fn trial_index_streams_are_independent_of_chunking() {
        // Sum of f(i, rng_i) must equal the serial fold in index order.
        let expected: u64 = (0..5_000u64)
            .map(|i| Rng::for_trial(5, i).below(i + 1))
            .sum();
        let engine = SimEngine::new(3);
        let measured = engine.run::<u64, _>(5, 5_000, |i, rng, acc| {
            *acc += rng.below(i + 1);
        });
        assert_eq!(measured, expected);
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // The scratch buffer must not be rebuilt per trial: count inits.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let engine = SimEngine::new(2);
        let total: u64 = engine.run_with(
            1,
            4_096,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u8>::with_capacity(16)
            },
            |_, _, scratch, acc: &mut u64| {
                scratch.clear();
                scratch.push(1);
                *acc += scratch.len() as u64;
            },
        );
        assert_eq!(total, 4_096);
        assert_eq!(inits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn blocked_runs_identical_across_thread_counts() {
        // Variable per-trial draw consumption (rejection-style) must not
        // break thread-count invariance: blocks are fixed.
        let run = |threads| {
            SimEngine::new(threads).run_blocked::<u64, _, _, _>(
                42,
                10_000,
                || (),
                |range, rng, (), acc| {
                    for i in range {
                        let mut draws = 1 + (i % 3);
                        while draws > 0 {
                            *acc += rng.below(100);
                            draws -= 1;
                        }
                    }
                },
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(5));
        assert_eq!(serial, run(0));
    }

    #[test]
    fn blocked_ranges_cover_all_trials_exactly_once() {
        let trials = 2 * SimEngine::TRIAL_BLOCK + 137;
        let count: u64 = SimEngine::new(3).run_blocked(
            1,
            trials,
            || (),
            |range, _, (), acc: &mut u64| {
                assert!(range.end <= trials);
                assert!(range.start < range.end);
                *acc += range.end - range.start;
            },
        );
        assert_eq!(count, trials);
        // Zero trials: no blocks at all.
        let none: u64 = SimEngine::new(3).run_blocked(1, 0, || (), |_, _, (), acc| *acc += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn blocked_scratch_is_reused_within_a_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let total: u64 = SimEngine::new(2).run_blocked(
            1,
            4 * SimEngine::TRIAL_BLOCK,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |range, _, (), acc| *acc += range.end - range.start,
        );
        assert_eq!(total, 4 * SimEngine::TRIAL_BLOCK);
        assert_eq!(inits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn small_runs_are_exact_at_eight_threads() {
        // Fewer trials than workers, and trial counts that leave a short
        // last range: every trial runs once, and the sum matches serial.
        let engine = SimEngine::new(8);
        for trials in [1u64, 3, 7, 8, 9, 10, 17] {
            let count = engine.run::<u64, _>(3, trials, |_, _, acc| *acc += 1);
            assert_eq!(count, trials);
            let sum = |engine: SimEngine| {
                engine.run::<u64, _>(3, trials, |i, rng, acc| *acc += rng.below(i + 2))
            };
            assert_eq!(sum(engine), sum(SimEngine::new(1)), "trials={trials}");
        }
    }

    #[test]
    fn pulled_units_are_claimed_in_order_and_committed_on_the_caller() {
        use std::sync::{Barrier, Mutex};
        const UNITS: usize = 50;
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            // The first `threads` units meet at a barrier, so every worker
            // holds one. The spawned workers then wait until the caller
            // has committed everything else, so their results arrive
            // after the caller has run out of units to claim.
            let start = Barrier::new(threads);
            let released = AtomicBool::new(false);
            let claims = Mutex::new(Vec::new());
            let mut committed = Vec::new();
            pull_units(
                threads,
                UNITS,
                |unit| {
                    let me = std::thread::current().id();
                    claims.lock().unwrap().push((me, unit));
                    if unit < threads {
                        start.wait();
                        while me != caller && !released.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }
                    unit * 3
                },
                |unit, result| {
                    assert_eq!(std::thread::current().id(), caller);
                    assert_eq!(result, unit * 3);
                    committed.push(unit);
                    if committed.len() == UNITS - (threads - 1) {
                        released.store(true, Ordering::SeqCst);
                    }
                    true
                },
            );
            // One shared counter: each worker's claims ascend, and
            // together they cover every unit exactly once.
            let claims = claims.into_inner().unwrap();
            let mut by_worker = std::collections::HashMap::new();
            for &(worker, unit) in &claims {
                let last = by_worker.insert(worker, unit);
                assert!(last.is_none_or(|last| last < unit), "threads={threads}");
            }
            assert_eq!(by_worker.len(), threads);
            let mut units: Vec<_> = claims.iter().map(|&(_, unit)| unit).collect();
            units.sort_unstable();
            assert_eq!(units, (0..UNITS).collect::<Vec<_>>());
            committed.sort_unstable();
            assert_eq!(committed, units, "threads={threads}");
        }
    }

    #[test]
    fn pulled_units_stop_claiming_and_commit_everything_claimed() {
        // Far more units than workers could claim before the caller sees
        // the stop: returning at all shows that claiming stopped.
        for threads in [1, 2, 4] {
            let mut committed = Vec::new();
            pull_units(
                threads,
                1 << 40,
                |unit| unit,
                |unit, _| {
                    committed.push(unit);
                    unit < 5
                },
            );
            committed.sort_unstable();
            // A prefix: everything claimed was committed, nothing skipped.
            let k = committed.len();
            assert_eq!(committed, (0..k).collect::<Vec<_>>(), "threads={threads}");
            assert!(k >= 6, "threads={threads}: unit 5 commits the stop");
            if threads == 1 {
                assert_eq!(k, 6, "a lone caller stops right after unit 5");
            }
        }
    }

    #[test]
    fn zero_pulled_units_run_nothing() {
        for threads in [1, 4] {
            pull_units(
                threads,
                0,
                |_| -> () { panic!("no unit to run") },
                |_, ()| panic!("nothing to commit"),
            );
        }
    }

    #[test]
    fn zero_trials() {
        let engine = SimEngine::default();
        assert_eq!(engine.run::<u64, _>(1, 0, |_, _, acc| *acc += 1), 0);
        assert!(engine.threads() >= 1);
    }
}
