//! The region pool: the one worker machine behind both threaded executors.
//!
//! A [`Pool`] owns `W` persistent, named worker threads that park on a
//! condvar between regions. Its only operation is [`Pool::run_region`]: run
//! `task(w)` once on **each** worker `w`, block until all `W` are done, and
//! re-raise any panic deterministically. What a worker does with its turn is
//! entirely the closure's business — the pool never knows which executor
//! owns it:
//!
//! * [`crate::ParExecutor`] is a pool of `threads` workers whose closure
//!   drains a stack-local atomic index cursor (work stealing);
//! * [`crate::NetExecutor`] is a pool of `p` workers whose closure runs the
//!   round index pinned to server `w`, if the view pinned one there.
//!
//! # Lifecycle
//!
//! Regions from several coordinators (clones of one executor driven from
//! different threads) serialize on the region slot. A region is published as
//! a lifetime-erased closure pointer plus a generation bump; the completion
//! barrier (`active == 0`) is what makes the erasure sound — see the three
//! `SAFETY` comments, the pool's whole unsafe surface.
//!
//! # Panics, crashes, shutdown
//!
//! A panic escaping `task(w)` is caught on the worker, raises the
//! [`Pool::aborted`] flag (reliable exchanges poll it to abandon a round
//! whose peer died) and is re-raised on the coordinator after the barrier by
//! [`resume_lowest`]: the lowest index wins, except that
//! [`PeerAbort`] markers always lose to a genuine payload. A payload that is
//! an [`InjectedCrash`] is fatal to its thread: the worker really exits and
//! a successor (same index, same name) is spawned before the next region.
//! State locks shrug off poison, so the pool keeps working after panicking
//! regions. Dropping the pool wakes every parked worker and **joins** every
//! thread it ever spawned, respawned ones included.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
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

/// The active region's task, lifetime-erased so parked workers can pick it
/// up. Only dereferenced between publication and the region's completion
/// barrier, during which the coordinator keeps the referent alive on its
/// stack.
#[derive(Clone, Copy)]
struct Region(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only shared with workers while the coordinating
// thread blocks inside `Pool::run_region`, which outlives every worker's
// use of it (the completion barrier). The pointee is `Sync`, so concurrent
// calls from several workers are allowed.
unsafe impl Send for Region {}

struct State {
    /// Region sequence number; workers use it to detect fresh work.
    generation: u64,
    /// The active region, if any.
    region: Option<Region>,
    /// Workers that have not yet passed the active region's barrier.
    active: usize,
    /// Panics raised in the active region, tagged with the worker index.
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
    /// Set the moment any worker of the active region panics; cleared when
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

    fn worker_loop(&self, me: usize) {
        let mut seen_generation = 0u64;
        loop {
            let region = {
                let mut st = self.lock_state();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.generation != seen_generation {
                        if let Some(r) = st.region {
                            seen_generation = st.generation;
                            break r;
                        }
                    }
                    st = self
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // SAFETY: the coordinator blocks in `run_region` until this
            // worker reports completion below, so the task outlives this
            // dereference.
            let task = unsafe { &*region.0 };
            let mut fatal = false;
            if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| task(me))) {
                fatal = payload.is::<InjectedCrash>();
                // Raise the abort flag before recording the panic so peers
                // polling it can start unwinding immediately.
                self.aborted.store(true, Ordering::Release);
                self.lock_state().panics.push((me, payload));
            }
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
    /// region.
    pub(crate) fn new(workers: usize, prefix: &'static str) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                generation: 0,
                region: None,
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

    /// Did a worker of the current region panic?
    pub(crate) fn aborted(&self) -> bool {
        self.0.aborted.load(Ordering::Acquire)
    }

    /// Run `task(w)` once on each worker `w`, wait for all of them, and
    /// re-raise the region's panic, if any, via [`resume_lowest`].
    pub(crate) fn run_region(&self, task: &(dyn Fn(usize) + Sync)) {
        // SAFETY: `Region` erases the closure's lifetime; the barrier below
        // (waiting for `active == 0`) guarantees no worker touches the
        // pointer after this function returns.
        let region = Region(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                task,
            )
        });
        let mut st = self.0.lock_state();
        // Serialize overlapping regions: one slot, one barrier count.
        while st.region.is_some() {
            st = self
                .0
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.0.spawn_dead(&mut st);
        self.0.aborted.store(false, Ordering::Release);
        st.region = Some(region);
        st.active = st.dead.len();
        st.generation = st.generation.wrapping_add(1);
        self.0.work_cv.notify_all();
        while st.active > 0 {
            st = self
                .0
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.region = None;
        let panics = std::mem::take(&mut st.panics);
        drop(st);
        // Wake any coordinator parked above waiting to publish its region.
        self.0.done_cv.notify_all();
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
    //! The pool contract, checked through whichever executor owns the pool:
    //! every suite takes handles onto **one** pool (clones, for
    //! `ParExecutor`) plus the region width to drive it with.

    use super::*;
    use crate::{Execute, NetExecutor, ParExecutor};
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    const WORKERS: usize = 4;

    type Handles = Vec<Box<dyn Execute>>;

    fn par_handles() -> Handles {
        let exec = ParExecutor::with_threads(WORKERS);
        vec![Box::new(exec.clone()), Box::new(exec)]
    }

    fn net_handles() -> Handles {
        vec![Box::new(NetExecutor::new(WORKERS))]
    }

    /// 200 regions: every index runs exactly once per region, always on the
    /// same ≤ `WORKERS` pool threads (never the coordinator), through every
    /// handle.
    fn exactly_once_on_stable_threads(handles: &Handles, n: usize) {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let threads = Mutex::new(HashSet::new());
        for region in 0..200 {
            handles[region % handles.len()].run(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                threads.lock().unwrap().insert(std::thread::current().id());
            });
        }
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 200, "index {i}");
        }
        let threads = threads.into_inner().unwrap();
        assert!(threads.len() <= WORKERS, "pool threads are reused");
        assert!(!threads.contains(&std::thread::current().id()));
    }

    /// Indices 1, n/2 and n-1 panic in one region. Even rounds make index 1
    /// the last to fail, odd rounds the first (forced with flags, not
    /// sleeps), so neither a first- nor a last-finisher policy passes: the
    /// re-raised payload must always be index 1's, intact. The pool must
    /// survive every panicked region.
    fn lowest_index_payload_wins(exec: &dyn Execute, n: usize) {
        let high = [n / 2, n - 1];
        for round in 0..50 {
            let low_failing = AtomicBool::new(false);
            let high_failing = AtomicUsize::new(0);
            let low_goes_last = round % 2 == 0;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                exec.run(n, &|i| {
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
    /// handles: regions must serialize, i.e. no task of one coordinator's
    /// region ever overlaps a task of the other's.
    fn regions_serialize(handles: &Handles, n: usize) {
        let running = [AtomicUsize::new(0), AtomicUsize::new(0)];
        std::thread::scope(|scope| {
            for me in 0..2 {
                let exec = handles[me % handles.len()].as_ref();
                let running = &running;
                scope.spawn(move || {
                    for round in 0..300 {
                        let hits = AtomicU64::new(0);
                        exec.run(n, &|_| {
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

    fn pool_contract(handles: Handles, n: usize) {
        exactly_once_on_stable_threads(&handles, n);
        lowest_index_payload_wins(handles[0].as_ref(), n);
        regions_serialize(&handles, n);
    }

    /// Every worker thread parks a clone of a sentinel in thread-local
    /// storage; dropping the last handle must join the workers, which runs
    /// their TLS destructors — so the sentinel is unshared the moment `drop`
    /// returns. (Regression: `ParExecutor` used to detach its workers.)
    fn drop_joins_every_worker(handles: Handles, n: usize) {
        thread_local! {
            static HELD: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
        }
        let sentinel = Arc::new(());
        for _ in 0..20 {
            handles[0].run(n, &|_| {
                HELD.with(|held| *held.borrow_mut() = Some(Arc::clone(&sentinel)));
            });
        }
        assert!(
            Arc::strong_count(&sentinel) > 1,
            "workers hold the sentinel"
        );
        drop(handles);
        assert_eq!(Arc::strong_count(&sentinel), 1, "a worker outlived drop");
    }

    #[test]
    fn par_pool_contract() {
        pool_contract(par_handles(), 64);
    }

    #[test]
    fn net_pool_contract() {
        pool_contract(net_handles(), WORKERS);
    }

    #[test]
    fn par_drop_joins_every_worker() {
        drop_joins_every_worker(par_handles(), 64);
    }

    #[test]
    fn net_drop_joins_every_worker() {
        drop_joins_every_worker(net_handles(), WORKERS);
    }
}
