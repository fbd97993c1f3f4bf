//! Pluggable execution backends: run per-server work sequentially or on a
//! persistent thread pool.
//!
//! The simulator charges *communication* through [`crate::Net::exchange`];
//! *local computation* is free in the MPC cost model but very much not free
//! in wall-clock time. An [`Execute`] backend decides how the per-server
//! closures of a compute region ([`crate::Net::round`],
//! [`crate::Net::run_local`], …) are driven:
//!
//! * [`SeqExecutor`] — every server's work runs on the calling thread, in
//!   server order. Deterministic stepping, zero overhead, the right choice
//!   for debugging and for tiny instances.
//! * [`ParExecutor`] — server closures run concurrently on the calling
//!   thread and a **persistent helper pool** created once per executor (the
//!   crate's one region pool, `pool.rs`, shared with
//!   [`crate::NetExecutor`]). The caller drains an atomic index cursor
//!   itself, and parked helpers join only while work remains: a region
//!   smaller than a wake ends on the calling thread, a bulk region fans out
//!   to every core, and no region pays a thread spawn.
//!
//! A compute region has no placement: the MPC model does not care which
//! thread a server's local work runs on. Only the network backend's wire
//! exchange pins tasks to server threads (`NetExecutor::run_pinned`).
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

use std::sync::{Arc, Mutex, PoisonError};

use crate::pool::Pool;

/// An execution backend for per-server work.
///
/// `run(n, task)` must invoke `task(i)` exactly once for every `i in 0..n`;
/// the order and the thread are the backend's choice. (`run_consuming`
/// relies on the exactly-once contract to keep its slots single-writer.)
pub trait Execute: Send + Sync + std::fmt::Debug {
    /// Invoke `task` once per index in `0..n`.
    fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync));

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
/// between regions. Every region is the pool's helped drain, the same one a
/// [`crate::NetExecutor`] compute region runs: the caller drains an atomic
/// index cursor (work stealing, so skewed per-server work still keeps every
/// thread busy), and helpers join only while work remains. Panics are
/// caught per index and re-raised on the coordinating thread; if several
/// indices panic in one region, the lowest index wins.
///
/// Cloning shares the pool. Dropping the last clone shuts the helper
/// threads down and joins them. [`crate::Net::exchange`] routes on the
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
        self.pool.run_helped(n, task);
    }

    fn is_parallel(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "par"
    }
}

/// Run `f(i, inputs[i])` for every index as one region of `run`, collecting
/// results in index order. `run(n, task)` must invoke `task(i)` exactly once
/// for every `i in 0..n`: [`Execute::run`] for a compute region,
/// `NetExecutor::run_pinned` for a wire exchange.
///
/// Each index owns one `Mutex` slot, holding its input until its task runs
/// (`Err(Some(input))`) and its result after (`Ok(result)`). Only that task
/// locks it, so no lock is ever contended; taking the input checks the
/// exactly-once contract.
pub(crate) fn run_consuming<S: Send, T: Send>(
    run: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
    inputs: Vec<S>,
    f: impl Fn(usize, S) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<Mutex<Result<T, Option<S>>>> = inputs
        .into_iter()
        .map(|s| Mutex::new(Err(Some(s))))
        .collect();
    run(slots.len(), &|i| {
        let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
        let input = std::mem::replace(&mut *slot, Err(None)).err().flatten();
        *slot = Ok(f(i, input.expect("executor visited an index twice")));
    });
    slots
        .into_iter()
        .map(|slot| {
            let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            slot.unwrap_or_else(|_| panic!("executor must visit every index"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn seq_visits_every_index_in_order() {
        let seen = Mutex::new(Vec::new());
        SeqExecutor.run(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_consuming_matches_across_executors() {
        let f = |i: usize, ()| (i * i) as u64;
        let par = ParExecutor::with_threads(8);
        let seq = run_consuming(|n, task| SeqExecutor.run(n, task), vec![(); 64], f);
        let par = run_consuming(|n, task| par.run(n, task), vec![(); 64], f);
        assert_eq!(seq, par);
    }

    #[test]
    fn run_consuming_moves_inputs() {
        let inputs: Vec<Vec<u64>> = (0..32).map(|i| vec![i; 3]).collect();
        let expect: Vec<u64> = inputs.iter().map(|v| v.iter().sum()).collect();
        let exec = ParExecutor::with_threads(4);
        let got = run_consuming(
            |n, task| exec.run(n, task),
            inputs,
            |_, v| v.into_iter().sum::<u64>(),
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn single_thread_pool_degrades_to_sequential() {
        let exec = ParExecutor::with_threads(1);
        assert!(exec.is_parallel());
        let caller = std::thread::current().id();
        let got = run_consuming(
            |n, task| exec.run(n, task),
            vec![(); 10],
            |i, ()| {
                assert_eq!(std::thread::current().id(), caller, "index {i}");
                i
            },
        );
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
