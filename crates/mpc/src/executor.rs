//! Pluggable execution backends: run per-server work sequentially or on a
//! persistent thread pool.
//!
//! The simulator charges *communication* through [`crate::Net::exchange`];
//! *local computation* is free in the MPC cost model but very much not free
//! in wall-clock time. An [`Execute`] backend decides how the per-server
//! closures of a round ([`crate::Net::round`], [`crate::Net::run_local`])
//! are driven:
//!
//! * [`SeqExecutor`] — every server's work runs on the calling thread, in
//!   server order. Deterministic stepping, zero overhead, the right choice
//!   for debugging and for tiny instances.
//! * [`ParExecutor`] — server closures run concurrently on the calling
//!   thread and a **persistent helper pool** created once per executor (the
//!   crate's one region pool, `pool.rs`, shared with
//!   [`crate::NetExecutor`]). Every thread pulls server indices from an
//!   atomic cursor (work stealing). The caller drains the cursor itself,
//!   and parked helpers join only while work remains: a region smaller than
//!   a wake ends on the calling thread, a bulk region fans out to every
//!   core. A hot experiment executes thousands of regions; reusing parked
//!   threads replaces a spawn/join pair per region (tens of microseconds
//!   and a kernel round trip each) with a notify that the caller does not
//!   wait on.
//!
//! # Determinism and load accounting
//!
//! Executors only decide *where* closures run, never *what* they compute:
//! results are collected into per-server slots, and the exchange routing —
//! one pass on the coordinating thread after the region's barrier, the same
//! code under both executors — assembles every inbox in (sender, send-order)
//! order and counts the received units into [`crate::Stats`], so both
//! executors report **bit-identical** per-server loads in every round — a
//! property the test suite asserts on random instances.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::pool::{resume_lowest, Join, Pool};

/// An execution backend for per-server work.
///
/// `run(n, task)` must invoke `task(i)` exactly once for every `i in 0..n`;
/// the order and the thread are the backend's choice. (`run_indexed_at`
/// relies on the exactly-once contract for its unsynchronized result slots.)
pub trait Execute: Send + Sync + std::fmt::Debug {
    /// Invoke `task` once per index in `0..n`.
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync));

    /// Like [`Execute::run`], with a placement hint: `abs(i)` is the
    /// *absolute server* whose work `task(i)` is (a view passes its
    /// `lo + i·stride` mapping). Simulated backends ignore the hint; the
    /// network backend ([`crate::NetExecutor`]) pins `task(i)` to absolute
    /// server `abs(i)`'s thread.
    fn run_at(
        &self,
        n: usize,
        abs: &(dyn Fn(usize) -> usize + Sync),
        task: &(dyn Fn(usize) + Sync),
    ) {
        let _ = abs;
        self.run(n, task);
    }

    /// Whether tasks may run concurrently (lets callers skip synchronization
    /// in the sequential case).
    fn is_parallel(&self) -> bool {
        false
    }

    /// Downcast to the network backend, if that is what this executor is.
    /// The cluster uses this to route exchanges through the wire instead of
    /// shared buffers.
    fn as_net(&self) -> Option<&crate::net_executor::NetExecutor> {
        None
    }

    /// Short backend name for reports.
    fn name(&self) -> &'static str;
}

/// Run every server's work on the calling thread, in server order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqExecutor;

impl Execute for SeqExecutor {
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        for i in 0..n {
            task(i);
        }
    }

    fn name(&self) -> &'static str {
        "seq"
    }
}

/// Run per-server work concurrently on the calling thread and a persistent
/// pool of parked helpers.
///
/// `threads` counts the caller: the pool's `threads - 1` helper threads
/// (`aj-par-{w}`) are created **once**, when the executor is built, and park
/// on a condvar between parallel regions. In a region the caller drains an
/// atomic index cursor itself (work stealing — uneven per-server workloads,
/// exactly what skewed instances produce, still keep every thread busy).
/// Publishing the region wakes one helper, and each helper that joins wakes
/// one more, but only while the caller's drain runs: once it returns the
/// region closes, and the barrier waits only for the helpers that joined.
/// Panics are caught per index and re-raised on the coordinating thread
/// with their original payload; if several indices panic in one region, the
/// lowest index wins deterministically.
///
/// Cloning shares the pool. Dropping the last clone shuts the helper
/// threads down and joins them.
///
/// Only compute regions parallelize ([`crate::Net::round`], `round_map`,
/// `run_each`, `run_local`); [`crate::Net::exchange`] routes on the
/// coordinating thread, exactly as under [`SeqExecutor`].
#[derive(Clone)]
pub struct ParExecutor {
    threads: usize,
    /// `threads - 1` helpers; none when `threads == 1`.
    pool: Arc<Pool>,
}

impl std::fmt::Debug for ParExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParExecutor")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ParExecutor {
    /// A thread count (the caller included) matching the machine's available
    /// parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParExecutor::with_threads(threads)
    }

    /// An explicit thread count (`>= 1`), the caller included: spawns
    /// `threads - 1` helpers. A single-thread executor spawns none and runs
    /// every region on the calling thread.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        ParExecutor {
            threads,
            pool: Arc::new(Pool::new(threads - 1, "aj-par")),
        }
    }

    /// Configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ParExecutor {
    fn default() -> Self {
        ParExecutor::new()
    }
}

impl Execute for ParExecutor {
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n <= 1 {
            // Nothing to share: no helper could take an index.
            for i in 0..n {
                task(i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let panics = Mutex::new(Vec::new());
        // Catch panics **per index**, not per drain loop: a thread keeps
        // draining after a failed task, so every index still runs and the
        // region's panic set is the same no matter how indices were
        // distributed over threads — which is what makes the lowest-index
        // re-raise deterministic.
        self.pool.run_region(Join::Helped, &|_thread| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                panics
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((i, payload));
            }
        });
        resume_lowest(panics.into_inner().unwrap_or_else(PoisonError::into_inner));
    }

    fn is_parallel(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "par"
    }
}

/// Take the value out of slot `i`, whether or not a panicking task poisoned
/// its lock.
fn take_slot<T>(slot: &Mutex<Option<T>>) -> Option<T> {
    slot.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// Run `f(i)` for `i in 0..n` on `exec`, collecting results in index order;
/// `abs(i)` names the absolute server whose work index `i` is (see
/// [`Execute::run_at`]).
///
/// Results are written through per-index `Mutex` slots. The exactly-once
/// visit contract of [`Execute`] makes every slot single-writer (checked by
/// a debug assertion), so no lock is ever contended.
pub(crate) fn run_indexed_at<T: Send>(
    exec: &dyn Execute,
    n: usize,
    abs: &(dyn Fn(usize) -> usize + Sync),
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if !exec.is_parallel() {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    exec.run_at(n, abs, &|i| {
        let value = f(i);
        let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(slot.is_none(), "executor visited index {i} twice");
        *slot = Some(value);
    });
    slots
        .iter()
        .map(|slot| take_slot(slot).expect("executor must visit every index"))
        .collect()
}

/// Like [`run_indexed_at`], but each index consumes an owned input (same
/// slot discipline, in the other direction: each input is taken exactly
/// once by its index's task).
pub(crate) fn run_consuming_at<S: Send, T: Send>(
    exec: &dyn Execute,
    inputs: Vec<S>,
    abs: &(dyn Fn(usize) -> usize + Sync),
    f: impl Fn(usize, S) -> T + Sync,
) -> Vec<T> {
    if !exec.is_parallel() {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, s)| f(i, s))
            .collect();
    }
    let cells: Vec<Mutex<Option<S>>> = inputs.into_iter().map(|s| Mutex::new(Some(s))).collect();
    run_indexed_at(exec, cells.len(), abs, |i| {
        f(i, take_slot(&cells[i]).expect("each index consumed once"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn seq_visits_every_index_in_order() {
        let seen = Mutex::new(Vec::new());
        SeqExecutor.run(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_indexed_matches_across_executors() {
        let f = |i: usize| (i * i) as u64;
        let seq = run_indexed_at(&SeqExecutor, 64, &|i| i, f);
        let par = run_indexed_at(&ParExecutor::with_threads(8), 64, &|i| i, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn run_consuming_moves_inputs() {
        let inputs: Vec<Vec<u64>> = (0..32).map(|i| vec![i; 3]).collect();
        let expect: Vec<u64> = inputs.iter().map(|v| v.iter().sum()).collect();
        let got = run_consuming_at(&ParExecutor::with_threads(4), inputs, &|i| i, |_, v| {
            v.into_iter().sum::<u64>()
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn single_thread_pool_degrades_to_sequential() {
        let exec = ParExecutor::with_threads(1);
        assert!(exec.is_parallel());
        let caller = std::thread::current().id();
        let got = run_indexed_at(&exec, 10, &|i| i, |i| {
            assert_eq!(std::thread::current().id(), caller, "index {i}");
            i
        });
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_unit_regions() {
        let exec = ParExecutor::with_threads(4);
        let hits = AtomicU64::new(0);
        exec.run(0, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        exec.run(1, &|i| {
            assert_eq!(i, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
