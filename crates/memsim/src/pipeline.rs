//! A two-stage pipeline over one bounded FIFO of batches: the producer
//! runs on a scoped thread and fills fixed-size batches, and the calling
//! thread drains them in order.
//!
//! * A waiting stage parks on a condition variable; neither side spins.
//!   It is woken only once all but two buffers are ready for it, so one
//!   wake-up covers several batches.
//! * The batch buffers come from, and go back to, a caller-held pool, so
//!   a run allocates nothing once the pool is stocked.
//! * Either stage closes its end when it stops, by returning or by
//!   unwinding, so the other stage never waits forever; a panic in either
//!   stage reaches the caller. A producer learns that the consumer has
//!   stopped at its next full batch, when [`Sender::send`] returns false.
//! * The producer asks the OS to run it off the caller's CPU (see
//!   `placement`).

use std::collections::VecDeque;
use std::panic;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Items per batch handed from the producer to the consumer.
pub const PIPELINE_BATCH: usize = 1024;

/// Batch buffers in flight: the producer fills one while the consumer
/// drains the others.
const BUFFERS: usize = 8;

/// A parked stage is woken once this many buffers are ready for it; the
/// other stage keeps two to work on while it wakes.
const WAKE_AT: usize = BUFFERS - 2;

struct State<T> {
    /// Filled batches, oldest first.
    full: VecDeque<Vec<T>>,
    /// Drained buffers, ready for the producer.
    empty: Vec<Vec<T>>,
    /// The producer has queued its last batch (or unwound).
    producer_done: bool,
    /// The consumer has stopped (it only stops early by unwinding).
    consumer_done: bool,
    /// The producer is parked until `WAKE_AT` buffers are drained.
    producer_parked: bool,
    /// The consumer is parked until `WAKE_AT` batches are queued.
    consumer_parked: bool,
}

struct Fifo<T> {
    state: Mutex<State<T>>,
    /// Signalled when a batch is queued or the producer is done.
    filled: Condvar,
    /// Signalled when a buffer is drained or the consumer is done.
    drained: Condvar,
}

impl<T> Fifo<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Neither stage panics while holding the lock; a poisoned lock
        // only means the other stage unwound elsewhere.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

/// The producer's end: items go into the current batch, and a full batch
/// is queued for the consumer. Dropping it queues the last, partial batch
/// and marks the producer done.
pub(crate) struct Sender<'a, T> {
    fifo: &'a Fifo<T>,
    batch: Vec<T>,
}

impl<T> Sender<'_, T> {
    /// Appends `item` to the current batch. Returns false once the
    /// consumer has stopped, when nothing more will be drained: the
    /// producer should stop too.
    #[inline]
    pub(crate) fn send(&mut self, item: T) -> bool {
        self.batch.push(item);
        self.batch.len() < PIPELINE_BATCH || self.hand_off()
    }

    /// Queues the full batch and takes a drained buffer, parking until
    /// one comes back. Returns false, dropping the batch, once the
    /// consumer has stopped.
    #[cold]
    fn hand_off(&mut self) -> bool {
        let mut state = self.fifo.lock();
        if state.consumer_done {
            self.batch.clear();
            return false;
        }
        state.full.push_back(std::mem::take(&mut self.batch));
        if state.consumer_parked && state.full.len() >= WAKE_AT {
            self.fifo.filled.notify_one();
        }
        if state.empty.is_empty() {
            state.producer_parked = true;
            while state.empty.len() < WAKE_AT && !state.consumer_done {
                state = self.fifo.wait(&self.fifo.drained, state);
            }
            state.producer_parked = false;
        }
        self.batch = state.empty.pop().unwrap_or_default();
        !state.consumer_done
    }
}

impl<T> Drop for Sender<'_, T> {
    fn drop(&mut self) {
        let mut state = self.fifo.lock();
        let batch = std::mem::take(&mut self.batch);
        if batch.is_empty() {
            state.empty.push(batch);
        } else {
            state.full.push_back(batch);
        }
        state.producer_done = true;
        if state.consumer_parked {
            self.fifo.filled.notify_one();
        }
    }
}

/// Marks the consumer done when the draining loop ends, by returning or by
/// unwinding, and wakes a producer parked for a buffer.
struct ConsumerDone<'a, T>(&'a Fifo<T>);

impl<T> Drop for ConsumerDone<'_, T> {
    fn drop(&mut self) {
        self.0.lock().consumer_done = true;
        self.0.drained.notify_one();
    }
}

/// Runs `produce` on a scoped thread and feeds every item it sends, in
/// send order, to `consume` on the calling thread; returns what `produce`
/// returns. `pool` lends the batch buffers and gets them back.
///
/// # Panics
///
/// Resumes the panic of either stage on the calling thread, after both
/// have stopped.
pub(crate) fn pipeline<T: Send, R: Send>(
    pool: &mut Vec<Vec<T>>,
    produce: impl FnOnce(&mut Sender<'_, T>) -> R + Send,
    mut consume: impl FnMut(&T),
) -> R {
    pool.resize_with(BUFFERS, || Vec::with_capacity(PIPELINE_BATCH));
    let first = pool.pop().expect("BUFFERS > 0");
    let fifo = Fifo {
        state: Mutex::new(State {
            full: VecDeque::with_capacity(BUFFERS),
            empty: std::mem::take(pool),
            producer_done: false,
            consumer_done: false,
            producer_parked: false,
            consumer_parked: false,
        }),
        filled: Condvar::new(),
        drained: Condvar::new(),
    };
    let caller_cpu = placement::current_cpu();
    let produced = thread::scope(|scope| {
        let fifo = &fifo;
        let producer = scope.spawn(move || {
            if let Some(cpu) = caller_cpu {
                placement::leave_cpu(cpu);
            }
            let mut sender = Sender { fifo, batch: first };
            produce(&mut sender)
        });
        {
            let _done = ConsumerDone(fifo);
            let mut drained = None;
            loop {
                let mut state = fifo.lock();
                if let Some(buffer) = drained.take() {
                    state.empty.push(buffer);
                    if state.producer_parked && state.empty.len() >= WAKE_AT {
                        fifo.drained.notify_one();
                    }
                }
                if state.full.is_empty() {
                    state.consumer_parked = true;
                    while state.full.len() < WAKE_AT && !state.producer_done {
                        state = fifo.wait(&fifo.filled, state);
                    }
                    state.consumer_parked = false;
                }
                let Some(mut batch) = state.full.pop_front() else {
                    break;
                };
                drop(state);
                batch.iter().for_each(&mut consume);
                batch.clear();
                drained = Some(batch);
            }
        }
        producer
            .join()
            .unwrap_or_else(|payload| panic::resume_unwind(payload))
    });
    let state = fifo
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    pool.extend(state.empty);
    produced
}

/// Where the producer runs.
///
/// The two stages of a pipeline on one CPU take turns instead of
/// overlapping: whenever one waits, the other runs. A new thread starts on
/// its parent's CPU; some schedulers move a thread to an idle CPU only
/// after a long delay, or never (under cpusets with load balancing off, for
/// example), and a scheduler that does move it may pull it back next to
/// the thread that wakes it. So for its whole run the producer restricts
/// itself to the CPUs it may use other than the caller's, when there are
/// any. Only the producer is restricted, and only until its run ends; the
/// caller keeps its CPU mask.
#[cfg(target_os = "linux")]
mod placement {
    use std::os::raw::{c_int, c_ulong};

    /// Words of a `cpu_set_t` (1024 CPUs).
    const SET_WORDS: usize = 1024 / c_ulong::BITS as usize;

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
    }

    /// The CPU the calling thread is running on.
    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: takes no arguments and returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Restricts the calling thread to its allowed CPUs other than `cpu`,
    /// unless that leaves none. On any failure the OS places the thread.
    pub(super) fn leave_cpu(cpu: usize) {
        let bits = c_ulong::BITS as usize;
        let mut mask: [c_ulong; SET_WORDS] = [0; SET_WORDS];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is `size` writable bytes; pid 0 is this thread.
        if cpu >= SET_WORDS * bits || unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0
        {
            return;
        }
        mask[cpu / bits] &= !(1 << (cpu % bits));
        if mask.iter().any(|&word| word != 0) {
            // SAFETY: `mask` is `size` readable bytes; pid 0 is this thread.
            unsafe { sched_setaffinity(0, size, mask.as_ptr()) };
        }
    }
}

/// Where the producer runs: left to the OS.
#[cfg(not(target_os = "linux"))]
mod placement {
    pub(super) fn current_cpu() -> Option<usize> {
        None
    }

    pub(super) fn leave_cpu(_cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(n: usize) -> (Vec<usize>, usize) {
        let mut pool = Vec::new();
        let mut got = Vec::new();
        let produced = pipeline(
            &mut pool,
            |tx| {
                (0..n).for_each(|i| assert!(tx.send(i)));
                n
            },
            |&i| got.push(i),
        );
        assert_eq!(pool.len(), BUFFERS, "every buffer returns to the pool");
        (got, produced)
    }

    #[test]
    fn items_arrive_in_order_at_every_batch_boundary() {
        let b = PIPELINE_BATCH;
        for n in [0, 1, b - 1, b, b + 1, BUFFERS * b, (BUFFERS + 3) * b + 7] {
            let (got, produced) = collect(n);
            assert_eq!(produced, n);
            assert!(got.iter().copied().eq(0..n), "n = {n}");
        }
    }

    #[test]
    fn pooled_buffers_are_reused() {
        let addresses = |pool: &Vec<Vec<u64>>| {
            let mut a: Vec<*const u64> = pool.iter().map(|b| b.as_ptr()).collect();
            a.sort();
            a
        };
        let mut pool = Vec::new();
        pipeline(&mut pool, |tx| assert!(tx.send(1)), |_| {});
        let first = addresses(&pool);
        pipeline(&mut pool, |tx| assert!(tx.send(2)), |_| {});
        assert_eq!(addresses(&pool), first);
    }

    #[test]
    #[should_panic(expected = "producer failed")]
    fn producer_panic_reaches_the_caller() {
        pipeline(
            &mut Vec::new(),
            |tx| {
                (0..3 * PIPELINE_BATCH).for_each(|i| assert!(tx.send(i)));
                panic!("producer failed");
            },
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "consumer failed")]
    fn consumer_panic_reaches_the_caller() {
        // The producer sends far more than the buffers hold, so it would
        // park for a drained buffer forever if the consumer's unwinding did
        // not close the FIFO.
        pipeline(
            &mut Vec::new(),
            |tx| (0..100 * PIPELINE_BATCH).for_each(|i| _ = tx.send(i)),
            |&i| assert!(i < 10, "consumer failed"),
        );
    }

    #[test]
    fn a_stopped_consumer_stops_the_producer() {
        // The consumer panics on the first item; the producer must see
        // `send` fail within the batches in flight, not run to the end.
        let sent = std::sync::atomic::AtomicUsize::new(0);
        let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            pipeline(
                &mut Vec::new(),
                |tx| {
                    for i in 0..1000 * PIPELINE_BATCH {
                        sent.store(i + 1, std::sync::atomic::Ordering::Relaxed);
                        if !tx.send(i) {
                            return;
                        }
                    }
                },
                |_| panic!("consumer failed"),
            )
        }));
        assert!(caught.is_err(), "the consumer's panic reaches the caller");
        let sent = sent.into_inner();
        assert!(
            sent <= (BUFFERS + 1) * PIPELINE_BATCH,
            "the producer sent {sent} items after the consumer stopped"
        );
    }
}
