//! The region pool: the one worker machine behind both threaded executors.
//!
//! A [`Pool`] owns `W` persistent, named worker threads that park on a
//! condvar between regions. Its one mechanism is [`Pool::run_region`]: run
//! a task on the pool, block until every thread that took part is done, and
//! re-raise any panic deterministically. What a thread does with its turn is
//! entirely the closure's business; the pool only knows how workers
//! [`Join`] the region:
//!
//! * [`Join::Helped`] — the caller runs `task(W)` itself, and parked workers
//!   help only while that call runs. This is every compute region on both
//!   owners, through [`Pool::run_helped`]: the closure drains a stack-local
//!   atomic index cursor (work stealing). Publishing wakes one helper, and
//!   each helper that joins wakes one more; when the caller's own call
//!   returns, the region closes and helpers that wake later skip it. A
//!   region smaller than a wake therefore finishes on the calling thread,
//!   and a bulk one still fans out to every core. [`crate::ParExecutor`]
//!   owns `threads − 1` helpers, [`crate::NetExecutor`] its `p` server
//!   threads.
//! * [`Join::Pinned`] — `task(w)` runs once on **each** worker `w`, and the
//!   caller only waits. Only wire exchanges use it: the network backend's
//!   closure runs the exchange index pinned to server `w`, if the view
//!   pinned one there. Its tasks block on each other's frames, so all must
//!   run at once.
//!
//! # Lifecycle
//!
//! Regions from several coordinators (clones of one executor driven from
//! different threads) serialize on the region slot. A region is published as
//! a lifetime-erased closure pointer plus a generation bump. A worker counts
//! into the barrier (`active`) under the state lock: at publish for a pinned
//! region, when it joins an open helped region otherwise. The caller closes
//! the region and then waits for `active == 0` before it returns, which is
//! what makes the erasure sound — see the three `SAFETY` comments, the
//! pool's whole unsafe surface.
//!
//! # Panics, crashes, shutdown
//!
//! [`Pool::run_helped`] catches panics per index and re-raises the lowest
//! after its region. In a pinned region, a panic escaping `task(w)` is
//! caught on its thread, raises the [`Pool::aborted`] flag (reliable
//! exchanges poll it to abandon a round whose peer died) and is re-raised on
//! the coordinator after the barrier by [`resume_lowest`]: the lowest index
//! wins, except that [`PeerAbort`] markers always lose to a genuine payload.
//! A worker payload that is an [`InjectedCrash`] is fatal to its thread: the
//! worker really exits and a successor (same index, same name) is spawned
//! before the next region. State locks shrug off poison, so the pool keeps
//! working after panicking regions. Dropping the pool wakes every parked
//! worker and **joins** every thread it ever spawned, respawned ones
//! included.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::fault::InjectedCrash;
use crate::net_executor::PeerAbort;

/// A caught panic payload.
pub(crate) type Payload = Box<dyn Any + Send + 'static>;

/// Re-raise the lowest-index **genuine** payload of `panics` (tagged by
/// index); [`PeerAbort`] markers only surface if nothing else exists.
/// Returns normally when `panics` is empty. Deterministic no matter which
/// thread finished when.
pub(crate) fn resume_lowest(panics: Vec<(usize, Payload)>) {
    let first = panics
        .into_iter()
        .min_by_key(|(i, payload)| (payload.is::<PeerAbort>(), *i));
    if let Some((_, payload)) = first {
        std::panic::resume_unwind(payload);
    }
}

/// How the pool's workers take part in a region (see the module docs).
#[derive(Clone, Copy)]
pub(crate) enum Join {
    /// `task(w)` once on every worker `w`, each counted into the barrier at
    /// publish; the caller only waits.
    Pinned,
    /// `task(W)` on the caller, and `task(w)` on each worker that joins
    /// while the caller's call still runs, counting itself in as it joins.
    Helped,
}

/// The active region's task, lifetime-erased so parked workers can pick it
/// up. Only dereferenced by a worker counted into the region's barrier,
/// which the coordinator waits out while keeping the referent alive on its
/// stack.
#[derive(Clone, Copy)]
struct Region(*const (dyn Fn(usize) + Sync));

// SAFETY: workers take the pointer only while counted into `active` (from
// publish, or by joining while the region is open), and `run_region` closes
// the region and waits for `active == 0` before it returns. The pointee is
// `Sync`, so concurrent calls from several threads are allowed.
unsafe impl Send for Region {}

struct State {
    /// Region sequence number; workers use it to detect fresh work.
    generation: u64,
    /// The published region, from publish until its barrier has passed
    /// (the slot overlapping regions wait for).
    region: Option<Region>,
    /// How workers take part in the published region.
    join: Join,
    /// Whether workers may still join the published helped region: cleared
    /// the moment the caller's own call returns.
    open: bool,
    /// Workers counted into the published region that have not finished it.
    active: usize,
    /// Panics raised in the active region, tagged with the task index.
    panics: Vec<(usize, Payload)>,
    /// Per worker: no live thread (not spawned yet, or exited on a fatal
    /// panic) — spawned before the next region is published.
    dead: Vec<bool>,
    /// Join handles of every thread ever spawned (grows on respawn).
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Set once, on drop: workers exit their park loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between regions.
    work_cv: Condvar,
    /// Coordinators park here: for the barrier, and for the region slot.
    done_cv: Condvar,
    /// Worker `w`'s thread is named `{prefix}-{w}`.
    prefix: &'static str,
    /// Set the moment any task of the active region panics; cleared when
    /// the next region is published.
    aborted: AtomicBool,
}

impl Shared {
    /// Lock the state, shrugging off poison: a worker that panicked while
    /// holding the lock leaves consistent state (every mutation is a single
    /// push/flag flip), and recovery code must keep running after panicking
    /// regions.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spawn a thread for every worker marked dead (all of them, at
    /// construction).
    fn spawn_dead(self: &Arc<Self>, st: &mut State) {
        for w in 0..st.dead.len() {
            if std::mem::take(&mut st.dead[w]) {
                let me = Arc::clone(self);
                let handle = std::thread::Builder::new()
                    .name(format!("{}-{w}", self.prefix))
                    .spawn(move || me.worker_loop(w))
                    .expect("pool: spawn worker thread");
                st.handles.push(handle);
            }
        }
    }

    /// Run `task(me)`, catching a panic into the region's panic set.
    /// Returns whether the payload was fatal to the running thread.
    fn run_task(&self, task: &(dyn Fn(usize) + Sync), me: usize) -> bool {
        match std::panic::catch_unwind(AssertUnwindSafe(|| task(me))) {
            Ok(()) => false,
            Err(payload) => {
                let fatal = payload.is::<InjectedCrash>();
                // Raise the abort flag before recording the panic so peers
                // polling it can start unwinding immediately.
                self.aborted.store(true, Ordering::Release);
                self.lock_state().panics.push((me, payload));
                fatal
            }
        }
    }

    fn worker_loop(&self, me: usize) {
        let mut seen_generation = 0u64;
        loop {
            let (region, helped) = {
                let mut st = self.lock_state();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.generation != seen_generation {
                        if let Some(r) = st.region {
                            seen_generation = st.generation;
                            match st.join {
                                Join::Pinned => break (r, false),
                                Join::Helped if st.open => {
                                    st.active += 1;
                                    break (r, true);
                                }
                                // Closed before this worker woke: skip it.
                                Join::Helped => {}
                            }
                        }
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            if helped {
                // Pass the wake on: the region is still open, so another
                // parked helper may find work left.
                self.work_cv.notify_one();
            }
            // SAFETY: this worker is counted into `active` (at publish, or by
            // joining the open region above under the state lock), and the
            // coordinator does not return from `run_region` until
            // `active == 0`, so the task outlives this dereference.
            let task = unsafe { &*region.0 };
            let fatal = self.run_task(task, me);
            let mut st = self.lock_state();
            st.dead[me] = fatal;
            st.active -= 1;
            if st.active == 0 {
                self.done_cv.notify_all();
            }
            if fatal {
                // This thread genuinely dies; `run_region` spawns a
                // successor before the next region.
                return;
            }
        }
    }
}

/// A persistent pool of named worker threads (see the module docs). Owned
/// by exactly one executor (or shared by its clones); dropping it shuts the
/// workers down and joins them.
pub(crate) struct Pool(Arc<Shared>);

impl Pool {
    /// Spawn `workers` threads named `{prefix}-{w}`, parked until the first
    /// region. Zero workers is a valid pool: its helped regions run wholly
    /// on the caller.
    pub(crate) fn new(workers: usize, prefix: &'static str) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                region: None,
                join: Join::Pinned,
                open: false,
                active: 0,
                panics: Vec::new(),
                dead: vec![true; workers],
                handles: Vec::with_capacity(workers),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            prefix,
            aborted: AtomicBool::new(false),
        });
        shared.spawn_dead(&mut shared.lock_state());
        Pool(shared)
    }

    /// Did a task of the current region panic?
    pub(crate) fn aborted(&self) -> bool {
        self.0.aborted.load(Ordering::Acquire)
    }

    /// Invoke `task(i)` once for every `i in 0..n` as one helped region:
    /// the caller and every helper that joins drain one atomic index
    /// cursor. Panics are caught per index, so every index still runs and
    /// the lowest index's payload is re-raised, however the indices were
    /// spread over threads.
    pub(crate) fn run_helped(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n <= 1 {
            // Nothing to share: no helper could take an index.
            for i in 0..n {
                task(i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        let panics = Mutex::new(Vec::new());
        self.run_region(Join::Helped, &|_thread| loop {
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

    /// Run `task` on the pool as `join` says, wait for every thread that
    /// took part, and re-raise the region's panic, if any, via
    /// [`resume_lowest`].
    pub(crate) fn run_region(&self, join: Join, task: &(dyn Fn(usize) + Sync)) {
        // SAFETY: `Region` erases the closure's lifetime; the region is
        // closed and the barrier below (waiting for `active == 0`) passed
        // before this function returns, and no worker touches the pointer
        // unless it is counted into `active`.
        let region = Region(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                task,
            )
        });
        let shared = &self.0;
        let mut st = shared.lock_state();
        // Serialize overlapping regions: one slot, one barrier count.
        while st.region.is_some() {
            st = shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        shared.spawn_dead(&mut st);
        shared.aborted.store(false, Ordering::Release);
        let workers = st.dead.len();
        st.region = Some(region);
        st.join = join;
        st.open = true;
        st.active = match join {
            Join::Pinned => workers,
            Join::Helped => 0,
        };
        st.generation = st.generation.wrapping_add(1);
        drop(st);
        match join {
            Join::Pinned => shared.work_cv.notify_all(),
            Join::Helped => {
                shared.work_cv.notify_one();
                // Caught like a worker's call, so the close and barrier
                // below run even if the task panics. The caller is not a
                // pool thread: a fatal payload is only re-raised.
                shared.run_task(task, workers);
            }
        }
        let mut st = shared.lock_state();
        st.open = false;
        while st.active > 0 {
            st = shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.region = None;
        let panics = std::mem::take(&mut st.panics);
        drop(st);
        // Wake any coordinator parked above waiting to publish its region.
        shared.done_cv.notify_all();
        resume_lowest(panics);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let handles = {
            let mut st = self.0.lock_state();
            st.shutdown = true;
            std::mem::take(&mut st.handles)
        };
        self.0.work_cv.notify_all();
        for h in handles {
            // A worker that panicked fatally has already exited; join just
            // reaps it. Parked workers wake on the notify above.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The pool contract, checked through both owners: helped regions
    //! ([`Execute::run`] on either executor; the caller may take part) and
    //! the wire exchange's pinned ones ([`NetExecutor::run_pinned`]; never
    //! the caller). Each suite drives **one** pool through its runners.

    use super::*;
    use crate::{Execute, NetExecutor, ParExecutor};
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    /// Threads per pool: `ParExecutor`'s count includes the caller (so it
    /// spawns `THREADS - 1` helpers), `NetExecutor` spawns one per server.
    const THREADS: usize = 4;

    /// One region: `run(n, task)` invokes `task(i)` once per `i in 0..n`.
    type Runner<'a> = &'a (dyn Fn(usize, &(dyn Fn(usize) + Sync)) + Sync);

    /// 200 regions: every index runs exactly once per region, always on the
    /// same ≤ `max_threads` threads (the caller included), through every
    /// runner.
    fn exactly_once_on_stable_threads(runners: &[Runner], n: usize, max_threads: usize) {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let threads = Mutex::new(HashSet::new());
        for region in 0..200 {
            runners[region % runners.len()](n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
            });
        }
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 200, "index {i}");
        }
        let threads = threads.into_inner().unwrap().len();
        assert!(threads <= max_threads, "pool threads are reused: {threads}");
    }

    /// 50 regions in which index 0 blocks (on flags, not sleeps) until some
    /// other index has run on a different thread: whichever thread takes
    /// index 0, the region only ends if a second thread joins it while it
    /// is open.
    fn threads_join_an_open_region(run: Runner, n: usize) {
        for _ in 0..50 {
            let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
            run(n, &|i| {
                let me = std::thread::current().id();
                if i == 0 {
                    while !ran_on.lock().unwrap().iter().any(|&t| t != me) {
                        std::thread::yield_now();
                    }
                } else {
                    ran_on.lock().unwrap().push(me);
                }
            });
        }
    }

    /// Indices 1, n/2 and n-1 panic in one region. Even rounds make index 1
    /// the last to fail, odd rounds the first (forced with flags, not
    /// sleeps), so neither a first- nor a last-finisher policy passes: the
    /// re-raised payload must always be index 1's, intact. The pool must
    /// survive every panicked region.
    fn lowest_index_payload_wins(run: Runner, n: usize) {
        let high = [n / 2, n - 1];
        for round in 0..50 {
            let low_failing = AtomicBool::new(false);
            let high_failing = AtomicUsize::new(0);
            let low_goes_last = round % 2 == 0;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run(n, &|i| {
                    if i == 1 {
                        while low_goes_last && high_failing.load(Ordering::Acquire) < high.len() {
                            std::thread::yield_now();
                        }
                        low_failing.store(true, Ordering::Release);
                        panic!("failed at {i}");
                    } else if high.contains(&i) {
                        while !low_goes_last && !low_failing.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        high_failing.fetch_add(1, Ordering::AcqRel);
                        panic!("failed at {i}");
                    }
                });
            }));
            let payload = result.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "failed at 1", "round {round}");
        }
    }

    /// Two coordinator threads hammer the pool through (possibly distinct)
    /// runners: regions must serialize, i.e. no task of one coordinator's
    /// region ever overlaps a task of the other's.
    fn regions_serialize(runners: &[Runner], n: usize) {
        let running = [AtomicUsize::new(0), AtomicUsize::new(0)];
        std::thread::scope(|scope| {
            for me in 0..2 {
                let run = runners[me % runners.len()];
                let running = &running;
                scope.spawn(move || {
                    for round in 0..300 {
                        let hits = AtomicU64::new(0);
                        run(n, &|_| {
                            running[me].fetch_add(1, Ordering::SeqCst);
                            let other = running[1 - me].load(Ordering::SeqCst);
                            assert_eq!(other, 0, "regions overlapped in round {round}");
                            hits.fetch_add(1, Ordering::Relaxed);
                            running[me].fetch_sub(1, Ordering::SeqCst);
                        });
                        assert_eq!(hits.load(Ordering::Relaxed), n as u64, "round {round}");
                    }
                });
            }
        });
    }

    /// The helped contract, on any executor's `run`.
    fn helped_contract(runners: &[Runner], n: usize, max_threads: usize) {
        exactly_once_on_stable_threads(runners, n, max_threads);
        threads_join_an_open_region(runners[0], n);
        lowest_index_payload_wins(runners[0], n);
        regions_serialize(runners, n);
    }

    /// Every thread that runs a task parks a clone of a sentinel in
    /// thread-local storage, and each task first waits (on flags) until
    /// `THREADS` distinct threads have entered the region, so every worker
    /// takes part. The caller's own clone is then cleared; dropping the
    /// owner must join the workers, which runs their TLS destructors — so
    /// the sentinel is unshared the moment `drop` returns.
    /// (Regression: `ParExecutor` used to detach its workers.)
    fn drop_joins_every_worker<E>(
        owner: E,
        run: impl Fn(&E, usize, &(dyn Fn(usize) + Sync)),
        n: usize,
    ) {
        thread_local! {
            static HELD: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
        }
        let sentinel = Arc::new(());
        for _ in 0..3 {
            let entered = Mutex::new(HashSet::new());
            run(&owner, n, &|_| {
                entered.lock().unwrap().insert(std::thread::current().id());
                while entered.lock().unwrap().len() < THREADS {
                    std::thread::yield_now();
                }
                HELD.with(|held| *held.borrow_mut() = Some(Arc::clone(&sentinel)));
            });
        }
        HELD.with(|held| *held.borrow_mut() = None);
        assert!(
            Arc::strong_count(&sentinel) > 1,
            "workers hold the sentinel"
        );
        drop(owner);
        assert_eq!(Arc::strong_count(&sentinel), 1, "a worker outlived drop");
    }

    #[test]
    fn par_pool_contract() {
        let exec = ParExecutor::with_threads(THREADS);
        let clone = exec.clone();
        let runners: [Runner; 2] = [&|n, task| exec.run(n, task), &|n, task| clone.run(n, task)];
        helped_contract(&runners, 64, THREADS);
    }

    /// A `NetExecutor` compute region is helped: its `p` server threads and
    /// the caller take part.
    #[test]
    fn net_pool_contract() {
        let nx = NetExecutor::new(THREADS);
        helped_contract(&[&|n, task| nx.run(n, task)], 64, THREADS + 1);
    }

    /// The wire exchange's pinned regions: index `i` runs once, on server
    /// `abs(i)`'s own thread and never on the caller; tasks that wait on
    /// each other all complete; the lowest payload wins; and pinned and
    /// helped regions on one pool serialize.
    #[test]
    fn net_pinned_contract() {
        let nx = NetExecutor::new(THREADS);
        let caller = std::thread::current().id();
        // A reversed full placement, and the strided half {1, 3}.
        let placements: [(usize, &(dyn Fn(usize) -> usize + Sync)); 2] = [
            (THREADS, &|i| THREADS - 1 - i),
            (THREADS / 2, &|i| 1 + 2 * i),
        ];
        for region in 0..100 {
            let (n, abs) = placements[region % 2];
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            nx.run_pinned(n, abs, &|i| {
                let me = std::thread::current();
                assert_ne!(me.id(), caller, "index {i} ran on the caller");
                assert_eq!(me.name(), Some(format!("aj-server-{}", abs(i)).as_str()));
                hits[i].fetch_add(1, Ordering::AcqRel);
                // Wait (on flags, not sleeps) for every task of the region:
                // only a region that runs them all at once completes.
                while hits.iter().any(|h| h.load(Ordering::Acquire) == 0) {
                    std::thread::yield_now();
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        let pinned = |n, task: &(dyn Fn(usize) + Sync)| nx.run_pinned(n, &|i| i, task);
        lowest_index_payload_wins(&pinned, THREADS);
        regions_serialize(&[&pinned, &|n, task| nx.run(n, task)], THREADS);
    }

    #[test]
    fn par_drop_joins_every_worker() {
        let exec = ParExecutor::with_threads(THREADS);
        drop_joins_every_worker((exec.clone(), exec), |(e, _), n, task| e.run(n, task), 64);
    }

    /// Through pinned regions, so every server thread takes part.
    #[test]
    fn net_drop_joins_every_worker() {
        let nx = NetExecutor::new(THREADS);
        drop_joins_every_worker(nx, |nx, n, task| nx.run_pinned(n, &|i| i, task), THREADS);
    }
}
