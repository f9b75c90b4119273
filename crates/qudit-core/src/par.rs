//! Dependency-free parallelism for embarrassingly parallel loops, backed by
//! a persistent worker pool.
//!
//! The trajectory chunks and population columns in the circuit simulators
//! are index-parallel: iteration `i` derives its own RNG seed from `i`, so
//! iterations share no state and the result is a pure function of the
//! index. [`par_map_threads`] evaluates such a loop on pool worker threads
//! and reassembles the results **in index order**, so the output is bitwise
//! identical to the serial loop regardless of thread count or scheduling.
//! [`par_map_threads_counted`] is the same map for guarded runs: it also
//! reports how many chunks were retried and takes an optional
//! [`CancelToken`].
//!
//! ## The pool
//!
//! PR 1 used `std::thread::scope`, which spawns and joins OS threads on every
//! call — measurable overhead when the per-call work is small (a short
//! trajectory batch on a small register). The pool replaces that with
//! **lazily-initialised, long-lived workers** fed through a shared channel:
//!
//! * Workers are spawned once, on the first parallel call, and live for the
//!   process. The pool size is `max_threads() - 1` (the calling thread always
//!   executes one chunk itself), with a floor of one worker so explicit
//!   `par_map_threads` requests parallelise even when the machine reports a
//!   single CPU.
//! * A call splits `0..n` into `threads` contiguous chunks — the same
//!   geometry as the scoped implementation — runs the first chunk inline and
//!   feeds the rest to the queue. Chunks are reassembled by chunk index, so
//!   the order invariance contract is untouched: requesting more chunks than
//!   there are workers just queues them.
//! * A chunk that panics reports the panic back; the caller drains **all**
//!   outstanding chunks before acting on the failure, so borrowed data is
//!   never observed after the stack frame that owns it starts unwinding.
//!   A failed chunk is then **retried once, serially, on the calling
//!   thread** — sound because chunks are pure functions of the index — and
//!   only a second failure propagates the panic. [`par_map_threads_counted`]
//!   reports the number of such retries so guarded runs can record them in
//!   their health report (see [`crate::guard::RunHealth::retries`]).
//! * Workers never call back into the pool: a nested map on a worker thread
//!   runs serially, which keeps the queue deadlock-free.
//!
//! This module deliberately carries no dependency (the build environment has
//! no registry access, so `rayon` is unavailable); when a real work-stealing
//! pool becomes available the call sites only need the two maps to keep
//! their signatures.
//!
//! Thread count resolution: every map takes an explicit thread count, which
//! callers resolve from a simulator's `with_threads` or, by default, from
//! [`max_threads`]: the `QUDIT_NUM_THREADS` environment variable, otherwise
//! [`std::thread::available_parallelism`]. The pool itself is sized from
//! `max_threads()` at first use; later `QUDIT_NUM_THREADS` changes still
//! affect the default chunk count, and chunking beyond the worker count is
//! always allowed.
//!
//! `QUDIT_NUM_THREADS` follows **one rule**: a value that parses as a
//! positive integer requests exactly that many threads; anything else —
//! unset, empty, `0`, negative, or malformed (`"4 threads"`) — means
//! *automatic* and falls back to the machine's available parallelism. `0`
//! deliberately matches the simulators' `with_threads(0)` convention.
//! (Previously `0` clamped to one thread while malformed values silently
//! meant "all cores", two different fallbacks for the same kind of bad
//! input.)

use crate::cancel::{CancelReason, CancelToken};
use crate::error::CoreError;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// A type-erased unit of work executed by a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    sender: Mutex<Sender<Job>>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set on pool worker threads so nested parallel calls degrade to serial
    /// execution instead of deadlocking the shared queue.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide worker pool, spawned on first use.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let workers = max_threads().max(2) - 1;
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("qudit-par-{i}"))
                .spawn(move || worker_loop(&rx))
                .expect("failed to spawn pool worker thread");
        }
        Pool { sender: Mutex::new(tx), workers }
    })
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    IS_POOL_WORKER.with(|w| w.set(true));
    loop {
        // Take the lock only for the blocking receive; it is released before
        // the job runs, so other workers can pick up queued jobs meanwhile.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => job(),
            // The sender lives in a static and is never dropped; an error
            // here means the process is tearing down.
            Err(_) => return,
        }
    }
}

/// Number of worker threads in the persistent pool (spawning it if needed).
/// Exposed for diagnostics and benchmarks.
pub fn pool_workers() -> usize {
    pool().workers
}

/// Number of worker threads used when the caller does not specify one (see
/// the module docs for the `QUDIT_NUM_THREADS` resolution rule).
pub fn max_threads() -> usize {
    std::env::var("QUDIT_NUM_THREADS")
        .ok()
        .and_then(|v| requested_threads(&v))
        .unwrap_or_else(|| std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
}

/// Parses a `QUDIT_NUM_THREADS` value: `Some(n)` for a positive integer,
/// `None` (meaning "automatic") for everything else — empty, zero, negative
/// or otherwise malformed input. One rule for every invalid value.
fn requested_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

/// Maps `f` over `0..n` in up to `threads` contiguous chunks evaluated on the
/// persistent worker pool, preserving index order: the result equals
/// `(0..n).map(f).collect()` bitwise for every `threads` value, and
/// `threads <= 1` runs serially on the calling thread. A chunk that panics
/// is retried once serially before the panic propagates (see
/// [`par_map_threads_counted`] to observe the count).
pub fn par_map_threads<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let Ok((values, _)) = par_map_threads_counted(n, threads, None, f) else {
        unreachable!("only a tripped cancel token makes a chunk skip");
    };
    values
}

/// [`par_map_threads`] that also reports how many chunks panicked and were
/// recovered by the serial retry, and that stops on a tripped `cancel`
/// token. Guarded simulator runs surface the count as
/// [`crate::guard::RunHealth::retries`].
///
/// A token is checked once on entry (consuming one check-budget unit, so
/// budget spend is independent of the thread count) and polled **between
/// chunks**: each chunk looks at the token right before evaluating its range
/// and skips if it has tripped. The contract is all-or-nothing: either every
/// chunk evaluated and the result is bitwise identical to the serial map, or
/// no result is returned at all and the error reports the first chunk index
/// that observed the trip. A run never yields a partially evaluated vector,
/// which is what keeps cancelled sweeps reproducible. A tripped token is only
/// reported if some chunk actually skipped — if all chunks beat the trip, the
/// completed result is returned.
///
/// # Errors
/// [`CoreError::Cancelled`] when `cancel` tripped before every chunk ran.
#[allow(unsafe_code)] // one lifetime erasure, justified below
pub fn par_map_threads_counted<T, F>(
    n: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    f: F,
) -> crate::error::Result<(Vec<T>, usize)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if let Some(token) = cancel {
        token.check(0)?;
    }
    let threads = threads.max(1).min(n);
    if threads <= 1 || IS_POOL_WORKER.with(Cell::get) {
        return Ok(((0..n).map(f).collect(), 0));
    }

    // Contiguous chunks: chunk t evaluates [starts[t], starts[t+1]).
    // Reassembling by chunk index restores index order.
    let chunk = n / threads;
    let rem = n % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for t in 0..threads {
        let len = chunk + usize::from(t < rem);
        ranges.push(start..start + len);
        start += len;
    }

    let pool = pool();
    // `Ok(None)` marks a chunk that observed a tripped cancel token and
    // skipped evaluation; the gather below turns any skip into an error
    // after every outstanding chunk has settled.
    let (done_tx, done_rx) = channel::<(usize, std::thread::Result<Option<Vec<T>>>)>();
    let f = &f;
    {
        let queue = pool.sender.lock().expect("pool queue poisoned");
        for (idx, range) in ranges.iter().enumerate().skip(1) {
            let range = range.clone();
            let done_tx = done_tx.clone();
            let token = cancel.cloned();
            // Chunk faults are decided here, on the dispatching thread, so
            // the injection harness works at any thread count.
            #[cfg(feature = "fault-inject")]
            let injected = chunk_injection(idx);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-inject")]
                    injected.fire(idx);
                    // Non-consuming poll: chunk-level checks must not spend
                    // check budget, or budget consumption would depend on
                    // the thread count.
                    if token.as_ref().is_some_and(|t| t.status().is_some()) {
                        return None;
                    }
                    Some(range.map(f).collect::<Vec<T>>())
                }));
                // The send is the job's completion signal; it must be the
                // last use of any borrowed data and it cannot panic.
                let _ = done_tx.send((idx, result));
            });
            // SAFETY: the job borrows `f` and moves a `Sender` whose payload
            // type involves `T`, both valid only for this stack frame. The
            // erasure to 'static is sound because this function does not
            // return (not even by unwinding) until every submitted job has
            // sent its completion message: the loop below receives exactly
            // `threads - 1` messages inside a no-panic region, and each job
            // unconditionally sends exactly one message as its final action
            // (worker threads run jobs to completion and never unwind
            // through them — panics inside `f` are caught above). Hence all
            // borrows end before the frame is torn down.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            queue.send(job).expect("pool workers outlive the queue");
        }
    }

    // The calling thread contributes the first chunk instead of idling.
    #[cfg(feature = "fault-inject")]
    let own_injected = chunk_injection(0);
    let own = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        own_injected.fire(0);
        if cancel.is_some_and(|t| t.status().is_some()) {
            return None;
        }
        Some(ranges[0].clone().map(f).collect::<Vec<T>>())
    }));

    let mut slots: Vec<Option<Vec<T>>> = Vec::with_capacity(threads);
    slots.resize_with(threads, || None);
    let mut failed: Vec<usize> = Vec::new();
    let mut skipped: Vec<usize> = Vec::new();
    for _ in 1..threads {
        let (idx, result) = done_rx.recv().expect("pool job always reports completion");
        match result {
            Ok(Some(values)) => slots[idx] = Some(values),
            Ok(None) => skipped.push(idx),
            Err(_) => failed.push(idx),
        }
    }
    // All jobs are quiescent from here on; every borrow of `f` and the
    // result channel has ended, so retrying serially — unwinding, or
    // returning the cancellation error — is safe. Each failed chunk is
    // re-evaluated once on this thread: chunks are pure functions of the
    // index, so a transient failure recovers the exact serial result and a
    // deterministic one panics again.
    match own {
        Ok(Some(values)) => slots[0] = Some(values),
        Ok(None) => skipped.push(0),
        Err(_) => failed.push(0),
    }
    if let Some(&step) = skipped.iter().min() {
        // A skip implies the token tripped (trips are sticky), so the reason
        // is still observable here; partial results are discarded wholesale.
        let reason = cancel.and_then(CancelToken::status).unwrap_or(CancelReason::Requested);
        return Err(CoreError::Cancelled { step, reason });
    }
    let mut retries = 0usize;
    failed.sort_unstable();
    for idx in failed {
        match catch_unwind(AssertUnwindSafe(|| ranges[idx].clone().map(f).collect::<Vec<T>>())) {
            Ok(values) => {
                slots[idx] = Some(values);
                retries += 1;
            }
            Err(payload) => resume_unwind(payload),
        }
    }
    Ok((slots.into_iter().flat_map(|v| v.expect("every chunk reported")).collect(), retries))
}

/// Chunk-level fault decisions for one dispatch, taken on the caller thread
/// (the injection registry is thread-local) and moved into the job.
#[cfg(feature = "fault-inject")]
#[derive(Clone, Copy)]
struct ChunkInjection {
    panic: bool,
    slow_millis: Option<u64>,
}

#[cfg(feature = "fault-inject")]
fn chunk_injection(idx: usize) -> ChunkInjection {
    ChunkInjection {
        panic: crate::guard::inject::take_chunk_panic(idx),
        slow_millis: crate::guard::inject::chunk_slow_millis(idx),
    }
}

#[cfg(feature = "fault-inject")]
impl ChunkInjection {
    fn fire(self, idx: usize) {
        if let Some(millis) = self.slow_millis {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        if self.panic {
            panic!("injected fault: pool chunk {idx} panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_env_values_follow_one_rule() {
        // Positive integers (with surrounding whitespace) are honoured...
        assert_eq!(requested_threads("1"), Some(1));
        assert_eq!(requested_threads(" 8 "), Some(8));
        assert_eq!(requested_threads("16\n"), Some(16));
        // ...and every invalid value means "automatic", uniformly.
        assert_eq!(requested_threads("0"), None, "0 = automatic, like with_threads(0)");
        assert_eq!(requested_threads(""), None);
        assert_eq!(requested_threads("-2"), None, "negatives are invalid, not clamped");
        assert_eq!(requested_threads("4 threads"), None);
        assert_eq!(requested_threads("four"), None);
        assert_eq!(requested_threads("3.5"), None);
    }

    #[test]
    fn par_map_matches_serial_map_in_order() {
        let serial: Vec<u64> = (0..1000).map(|i| (i as u64).wrapping_mul(0x9E3779B9)).collect();
        for threads in [1, 2, 3, 7, 16] {
            let parallel = par_map_threads(1000, threads, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_small_inputs() {
        assert!(par_map_threads(0, 8, |i| i).is_empty());
        assert_eq!(par_map_threads(1, 8, |i| i * 2), vec![0]);
        assert_eq!(par_map_threads(3, 8, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map_threads(5, 64, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Many small parallel calls must all resolve against the same
        // persistent pool (the pool would previously have spawned and torn
        // down threads per call).
        let workers = pool_workers();
        assert!(workers >= 1);
        for round in 0..50 {
            let out = par_map_threads(17, 4, |i| i * round);
            assert_eq!(out, (0..17).map(|i| i * round).collect::<Vec<_>>());
        }
        assert_eq!(pool_workers(), workers);
    }

    #[test]
    fn borrowed_captures_are_supported() {
        // The closure borrows stack data; the pool must complete every chunk
        // before the frame returns.
        let table: Vec<u64> = (0..256).map(|i| i as u64 * 3).collect();
        let out = par_map_threads(256, 8, |i| table[i] + 1);
        assert_eq!(out, (0..256).map(|i| i as u64 * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_degrade_to_serial_without_deadlock() {
        let out = par_map_threads(8, 4, |i| {
            let inner = par_map_threads(4, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> =
            (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum::<usize>()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn transient_panic_is_retried_serially_with_identical_output() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let serial: Vec<u64> = (0..200).map(|i| (i as u64).wrapping_mul(0x5851F42D)).collect();
        // The first evaluation of index 57 panics; the serial retry of its
        // chunk must recover the exact serial result and report one retry.
        let armed = AtomicBool::new(true);
        let (out, retries) = par_map_threads_counted(200, 8, None, |i| {
            if i == 57 && armed.swap(false, Ordering::SeqCst) {
                panic!("transient failure at {i}");
            }
            (i as u64).wrapping_mul(0x5851F42D)
        })
        .unwrap();
        assert_eq!(out, serial);
        assert_eq!(retries, 1);
    }

    #[test]
    fn counted_map_reports_zero_retries_on_clean_runs() {
        let (out, retries) = par_map_threads_counted(64, 4, None, |i| i * 2).unwrap();
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(retries, 0);
        // Serial path also reports zero.
        let (_, retries) = par_map_threads_counted(8, 1, None, |i| i).unwrap();
        assert_eq!(retries, 0);
    }

    #[test]
    fn cancelled_token_stops_before_any_evaluation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let token = CancelToken::new();
        token.cancel();
        let evaluated = AtomicUsize::new(0);
        let err = par_map_threads_counted(100, 4, Some(&token), |i| {
            evaluated.fetch_add(1, Ordering::SeqCst);
            i
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled { step: 0, .. }), "{err:?}");
        assert_eq!(evaluated.load(Ordering::SeqCst), 0, "entry check must precede dispatch");
    }

    #[test]
    fn untripped_token_is_bitwise_identical_to_plain_map() {
        let token = CancelToken::new();
        let serial: Vec<u64> = (0..500).map(|i| (i as u64).wrapping_mul(0xABCD_EF12)).collect();
        for threads in [1, 2, 5, 9] {
            let (out, retries) = par_map_threads_counted(500, threads, Some(&token), |i| {
                (i as u64).wrapping_mul(0xABCD_EF12)
            })
            .unwrap();
            assert_eq!(out, serial, "threads = {threads}");
            assert_eq!(retries, 0);
        }
    }

    #[test]
    fn entry_check_spends_exactly_one_budget_unit_per_call() {
        // Budget consumption must not depend on the thread count: only the
        // entry check consumes; per-chunk polls are non-consuming.
        let token = CancelToken::new().with_check_budget(2);
        par_map_threads_counted(64, 8, Some(&token), |i| i).unwrap();
        par_map_threads_counted(64, 8, Some(&token), |i| i).unwrap();
        let err = par_map_threads_counted(64, 8, Some(&token), |i| i).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled { step: 0, .. }), "{err:?}");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn chunk_slow_fault_drives_deadline_expiry_between_chunks() {
        use crate::guard::inject;
        // Chunk 1 is delayed well past the token's deadline; its post-delay
        // poll must observe the expiry and abort the whole map with no
        // partial result.
        inject::arm(inject::Fault::ChunkSlow { chunk: 1, millis: 80 });
        let token = CancelToken::with_deadline(std::time::Duration::from_millis(10));
        let err = par_map_threads_counted(64, 2, Some(&token), |i| i).unwrap_err();
        inject::disarm_all();
        assert_eq!(
            err,
            CoreError::Cancelled { step: 1, reason: CancelReason::DeadlineExceeded },
            "slow chunk must observe the expired deadline at its pre-evaluation poll"
        );
        // The pool remains usable and uncancelled maps still complete.
        assert_eq!(par_map_threads(4, 2, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn panics_propagate_after_all_chunks_settle() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_threads(64, 8, |i| {
                if i == 37 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool must still be functional afterwards.
        assert_eq!(par_map_threads(4, 2, |i| i), vec![0, 1, 2, 3]);
    }
}
