//! The **query engine**: a long-lived serving layer that owns one
//! [`Cluster`] and answers a stream of `(Query, Database)` requests.
//!
//! Every request takes one path: an optional counting pass, one priced
//! [`candidates`] list, one [`pick`] and one [`execute`] (see
//! [`crate::planner`]). Around it, the engine is built for sustained
//! traffic:
//!
//! * **Plan cache** — structural planning artifacts (classification, join
//!   tree) are computed once per *query shape* and cached under the
//!   canonical [`QuerySignature`]. Repeated shapes skip re-planning:
//!   dispatch reads the cached class and the Corollary-4 counting pass
//!   folds along the cached join tree. (The solvers themselves stay
//!   self-contained and derive their own structure — queries are
//!   constant-size, so that is local and free.)
//! * **Cost-based planning** — for acyclic queries the engine runs the
//!   Corollary-4 counting pass first, obtaining the exact `OUT` at load
//!   `O(IN/p)`, then compares the paper's closed-form bounds (Corollary 1,
//!   Theorem 7, the Yannakakis baseline) and picks the cheapest applicable
//!   algorithm; ties fall back to the class answer. Yannakakis wins when
//!   `OUT < IN` — a regime class-only dispatch cannot see. Cyclic queries
//!   are priced from their relation sizes alone (HyperCube vs the GHD).
//! * **Per-query load attribution** — every phase runs inside its own stats
//!   **epoch** ([`Cluster::epoch`]), so each [`QueryOutcome`] carries the
//!   true interval loads (planning and execution separately) and the epochs
//!   sum back to the cluster's cumulative [`aj_mpc::Stats`].
//! * **Materialized views** ([`QueryEngine::register_view`] /
//!   [`QueryEngine::apply_update`]) — registered queries stay exactly
//!   materialized under signed insert/delete batches via the delta
//!   subsystem ([`crate::delta`]): counted deletions, delta propagation
//!   through one cached bag tree (per-edge bags, one HyperCube bag, or a
//!   GHD's bags), a cost-based recompute fall-back, and per-view stats
//!   epochs.
//!
//! Determinism: each query runs on a seed stream derived from the engine's
//! base seed and the query's signature fingerprint, so a repeated shape —
//! cache hit or not — reproduces its run bit-for-bit, on either executor.

use aj_primitives::FxHashMap;

use aj_mpc::{Cluster, EpochStats, Stats};
use aj_obs::{Event, ObsConfig, Trace};
use aj_relation::classify::{classify, JoinClass};
use aj_relation::signature::QuerySignature;
use aj_relation::{Database, JoinTree, Query};

use crate::aggregate::output_size_with_tree;
use crate::delta::{self, MaterializedView, UpdateOutcome, ViewCheckpoint, ViewId};
use crate::dist::{distribute_db, mix};
use crate::planner::{candidates, execute, pick, Plan};
use crate::DistRelation;
use aj_relation::delta::UpdateBatch;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Run the Corollary-4 counting pass and pick the cheapest applicable
    /// algorithm by bound comparison. When `false`, dispatch by join class
    /// only ([`Plan::for_class`]).
    pub cost_based: bool,
    /// Base seed of the per-query seed streams.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cost_based: true,
            seed: 0x5eed_ba5e,
        }
    }
}

/// Structural planning artifacts of one query *shape*, cached under its
/// [`QuerySignature`]. Everything here is a pure function of the signature.
#[derive(Debug, Clone)]
pub struct PlanArtifacts {
    /// Table-1 class of the shape.
    pub class: JoinClass,
    /// Join tree (acyclic shapes only).
    pub join_tree: Option<JoinTree>,
    /// Seed-stream fingerprint of the shape.
    pub fingerprint: u64,
}

impl PlanArtifacts {
    fn build(q: &Query, sig: &QuerySignature) -> PlanArtifacts {
        PlanArtifacts {
            class: classify(q),
            join_tree: q.join_tree(),
            fingerprint: sig.fingerprint(),
        }
    }
}

/// The answer to one engine request.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The plan that was executed.
    pub plan: Plan,
    /// Table-1 class of the query.
    pub class: JoinClass,
    /// Whether planning artifacts came from the shape cache.
    pub cache_hit: bool,
    /// `IN` of this instance.
    pub in_size: u64,
    /// `OUT` from the Corollary-4 counting pass (cost-based engines on
    /// acyclic queries only). Exact under set semantics — duplicate input
    /// tuples inflate the count multiplicatively (see [`QueryEngine::run`]).
    pub out_size: Option<u64>,
    /// The cost model's load estimate for the chosen plan, if it ran.
    pub estimated_load: Option<f64>,
    /// Every candidate the cost model priced, `(plan, estimated load)`, in
    /// dispatch order — the chosen plan included. Empty when class-only
    /// dispatch ran (nothing was priced). What a trace's `PlanDecision`
    /// event and [`QueryEngine::explain`] render as the rejected
    /// alternatives.
    pub alternatives: Vec<(Plan, f64)>,
    /// The distributed join result.
    pub output: DistRelation,
    /// Loads of the planning phase (counting pass; empty epoch when
    /// class-only or cyclic).
    pub planning: EpochStats,
    /// Loads of the execution phase.
    pub execution: EpochStats,
}

/// A long-lived query engine over one owned [`Cluster`].
///
/// ```
/// use aj_core::engine::QueryEngine;
/// use aj_relation::{database_from_rows, QueryBuilder};
///
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["A", "B"]);
/// b.relation("R2", &["B", "C"]);
/// let q = b.build();
/// let db = database_from_rows(
///     &q,
///     &[vec![vec![1, 10], vec![2, 10]], vec![vec![10, 7]]],
/// );
///
/// let mut engine = QueryEngine::new(4); // or QueryEngine::new_parallel(4)
/// let first = engine.run(&q, &db);
/// let again = engine.run(&q, &db);
/// assert!(!first.cache_hit && again.cache_hit);
/// assert_eq!(first.output.total_len(), 2);
/// // Per-query load attribution via stats epochs:
/// assert_eq!(first.execution.max_load, again.execution.max_load);
/// ```
#[derive(Debug)]
pub struct QueryEngine {
    cluster: Cluster,
    config: EngineConfig,
    cache: FxHashMap<QuerySignature, PlanArtifacts>,
    views: Vec<MaterializedView>,
    served: u64,
    cache_hits: u64,
}

impl QueryEngine {
    /// An engine over a fresh sequentially-simulated cluster of `p` servers.
    pub fn new(p: usize) -> Self {
        QueryEngine::with_cluster(Cluster::new(p), EngineConfig::default())
    }

    /// An engine whose per-server work runs on a thread pool. Results and
    /// per-query loads are bit-identical to [`QueryEngine::new`].
    pub fn new_parallel(p: usize) -> Self {
        QueryEngine::with_cluster(Cluster::new_parallel(p), EngineConfig::default())
    }

    /// An engine over the **network backend**: one worker thread per server,
    /// every cross-server payload serialized through wire frames. Results
    /// and per-query loads are bit-identical to [`QueryEngine::new`] — the
    /// property the cross-backend conformance suite enforces.
    pub fn new_net(p: usize) -> Self {
        QueryEngine::with_cluster(Cluster::new_net(p), EngineConfig::default())
    }

    /// An engine over an explicit cluster and configuration. The cluster's
    /// measurements are reset: from here on the cumulative stats cover
    /// exactly the queries this engine serves, so per-query epochs always
    /// reconcile with [`QueryEngine::stats`] (see [`epochs_reconcile`]).
    pub fn with_cluster(mut cluster: Cluster, config: EngineConfig) -> Self {
        // Anything measured before the engine took over belongs to no query.
        cluster.reset_stats();
        QueryEngine {
            cluster,
            config,
            cache: FxHashMap::default(),
            views: Vec::new(),
            served: 0,
            cache_hits: 0,
        }
    }

    /// Number of servers.
    pub fn p(&self) -> usize {
        self.cluster.p()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative cluster statistics across all queries served.
    pub fn stats(&self) -> &Stats {
        self.cluster.stats()
    }

    /// Queries served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests whose planning artifacts came from the shape cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Distinct query shapes planned so far.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cached artifacts for a query's shape, if it has been planned.
    pub fn artifacts(&self, q: &Query) -> Option<&PlanArtifacts> {
        self.cache.get(&QuerySignature::of(q))
    }

    /// Enable structured tracing on the underlying cluster (see [`aj_obs`]):
    /// from here on, exchanges, epoch boundaries, plan and maintenance
    /// decisions, checkpoint/recovery operations and bag materializations
    /// are recorded into a bounded in-memory [`Trace`]. The logical event
    /// stream is a pure function of the served requests — bit-identical
    /// across the sequential, parallel and network backends. Replaces any
    /// previous trace.
    pub fn enable_tracing(&mut self, cfg: ObsConfig) {
        self.cluster.enable_tracing(cfg);
    }

    /// Is structured tracing active?
    pub fn tracing_enabled(&self) -> bool {
        self.cluster.tracing_enabled()
    }

    /// The trace recorded so far, when tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.cluster.trace()
    }

    /// Detach and return the trace, disabling tracing.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.cluster.take_trace()
    }

    /// Serve one request.
    ///
    /// Like the whole workspace, the engine assumes **set semantics**:
    /// relations should not contain duplicate tuples (normalize with
    /// [`Database::dedup_all`] if unsure). Duplicates inflate the
    /// Corollary-4 count ([`QueryOutcome::out_size`]) multiplicatively,
    /// which can steer the cost model toward the wrong plan; results remain
    /// correct up to duplicate output tuples.
    ///
    /// # Panics
    /// Panics if `db` does not match `q`'s layout.
    pub fn run(&mut self, q: &Query, db: &Database) -> QueryOutcome {
        assert!(db.matches(q), "database layout does not match the query");
        let sig = QuerySignature::of(q);
        // One hash lookup; the borrow of `self.cache` stays live so the
        // cached join tree is used by reference below (no per-request clone).
        let (cache_hit, artifacts) = match self.cache.entry(sig) {
            std::collections::hash_map::Entry::Occupied(e) => (true, &*e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let built = PlanArtifacts::build(q, e.key());
                (false, &*e.insert(built))
            }
        };
        if cache_hit {
            self.cache_hits += 1;
        }
        let class = artifacts.class;
        let fingerprint = artifacts.fingerprint;
        self.served += 1;

        let p = self.cluster.p();
        let sizes: Vec<u64> = db.relations.iter().map(|r| r.len() as u64).collect();
        let in_size = sizes.iter().sum();
        // The initial MPC placement is free and deterministic; distribute
        // once and share it between the counting pass and the execution.
        let dist = distribute_db(db, p);

        // Planning phase, in its own epoch. Only acyclic queries (the ones
        // with a join tree) run the counting pass; cyclic candidates are
        // priced from the relation sizes alone, so their planning epoch
        // stays empty.
        self.cluster.begin_epoch();
        let cost_based = self.config.cost_based;
        let out_size = match &artifacts.join_tree {
            Some(tree) if cost_based => {
                let mut plan_seed = mix(self.config.seed ^ PLANNING_SALT, fingerprint);
                let mut net = self.cluster.net();
                Some(output_size_with_tree(&mut net, tree, &dist, &mut plan_seed))
            }
            _ => None,
        };
        // Price every candidate once; the pick and the reported alternatives
        // read the same list.
        let alternatives = if cost_based {
            candidates(class, q, &sizes, out_size, p)
        } else {
            Vec::new()
        };
        let (plan, est) = pick(class, &alternatives);
        // The decision event precedes the planning-epoch boundary: a trace
        // reads "counting rounds, decision, epoch close" in program order.
        if self.cluster.tracing_enabled() {
            self.cluster.trace_event(Event::PlanDecision {
                fingerprint,
                class: format!("{class:?}"),
                chosen: plan.to_string(),
                alternatives: alternatives
                    .iter()
                    .map(|&(cand, cost)| aj_obs::Alternative {
                        plan: cand.to_string(),
                        cost,
                    })
                    .collect(),
            });
        }
        let planning = self.cluster.epoch();

        // Execution phase: a per-shape seed stream independent of the
        // planner, so the run is identical to a class-only engine whenever
        // both choose the same plan.
        let mut exec_seed = mix(self.config.seed, fingerprint);
        let output = {
            let mut net = self.cluster.net();
            execute(&mut net, plan, q, dist, &mut exec_seed)
        };
        let execution = self.cluster.epoch();

        QueryOutcome {
            plan,
            class,
            cache_hit,
            in_size,
            out_size,
            estimated_load: est,
            alternatives,
            output,
            planning,
            execution,
        }
    }

    /// Serve a batch of requests in order.
    pub fn run_batch(&mut self, batch: &[(Query, Database)]) -> Vec<QueryOutcome> {
        batch.iter().map(|(q, db)| self.run(q, db)).collect()
    }

    /// Register `q` as a **materialized view** over its current instance:
    /// the engine computes the join once, keeps the counted materialization
    /// and the delta caches resident (see [`crate::delta`]), and from then
    /// on absorbs [`QueryEngine::apply_update`] batches incrementally. The
    /// build runs in its own stats epoch
    /// ([`MaterializedView::registration`]).
    ///
    /// ```
    /// use aj_relation::{database_from_rows, QueryBuilder, Tuple, UpdateBatch};
    /// use aj_core::engine::QueryEngine;
    ///
    /// let mut b = QueryBuilder::new();
    /// b.relation("R1", &["A", "B"]);
    /// b.relation("R2", &["B", "C"]);
    /// let q = b.build();
    /// let db = database_from_rows(
    ///     &q,
    ///     &[vec![vec![1, 10], vec![2, 10]], vec![vec![10, 7]]],
    /// );
    ///
    /// let mut engine = QueryEngine::new(4);
    /// let view = engine.register_view(&q, &db);
    /// assert_eq!(engine.view(view).out_size(), 2);
    ///
    /// // One signed batch: drop (1,10), add a third match for B = 10.
    /// let mut batch = UpdateBatch::empty(2);
    /// batch.delete(0, Tuple::from([1, 10]));
    /// batch.insert(0, Tuple::from([3, 10]));
    /// let outcome = engine.apply_update(view, &batch);
    /// assert_eq!(outcome.out_size, 2);
    /// let snap = engine.view(view).snapshot();
    /// assert_eq!(snap[0].0, Tuple::from([2, 10, 7]));
    /// assert_eq!(snap[1].0, Tuple::from([3, 10, 7]));
    /// ```
    ///
    /// # Panics
    /// Panics if `db` does not match `q`'s layout.
    pub fn register_view(&mut self, q: &Query, db: &Database) -> ViewId {
        let id = ViewId(self.views.len());
        let view = delta::register(&mut self.cluster, self.config.seed, q, db);
        self.views.push(view);
        id
    }

    /// Absorb one signed update batch into a registered view: the planner
    /// prices the delta pass against a full recompute
    /// ([`crate::planner::choose_maintenance`]) and the cheaper side runs,
    /// in its own stats epoch.
    ///
    /// # Panics
    /// Panics on an unknown [`ViewId`] or a batch whose shape does not match
    /// the view.
    pub fn apply_update(&mut self, id: ViewId, batch: &UpdateBatch) -> UpdateOutcome {
        let view = self.views.get_mut(id.0).expect("unknown view id");
        delta::apply_update(&mut self.cluster, view, id, batch)
    }

    /// A registered view.
    ///
    /// # Panics
    /// Panics on an unknown [`ViewId`].
    pub fn view(&self, id: ViewId) -> &MaterializedView {
        &self.views[id.0]
    }

    /// Capture a crash-consistent checkpoint of a registered view (see
    /// [`ViewCheckpoint`]): communication-free driver-side bookkeeping, so
    /// checkpointing never perturbs the logical [`Stats`].
    ///
    /// # Panics
    /// Panics on an unknown [`ViewId`].
    pub fn checkpoint(&mut self, id: ViewId) -> ViewCheckpoint {
        let ckpt = delta::checkpoint(&self.views[id.0]);
        self.cluster.trace_event(Event::Checkpoint {
            view: id.0 as u64,
            rows: self.views[id.0].out_size(),
        });
        ckpt
    }

    /// Restore a registered view from a checkpoint: base mirror and
    /// counters from the checkpoint, caches rebuilt from the restored base,
    /// materialization installed from the snapshot in one delta round (no
    /// join re-run). Returns the restore pass's own stats epoch.
    ///
    /// # Panics
    /// Panics on an unknown [`ViewId`] or a checkpoint whose layout does not
    /// match the view's query.
    pub fn restore(&mut self, id: ViewId, ckpt: &ViewCheckpoint) -> EpochStats {
        let view = self.views.get_mut(id.0).expect("unknown view id");
        let epoch = delta::restore(&mut self.cluster, view, ckpt);
        self.cluster.trace_event(Event::Restore {
            view: id.0 as u64,
            rows: self.views[id.0].out_size(),
        });
        epoch
    }

    /// Crash recovery: fence the aborted exchange (so in-flight frames of
    /// the crashed round are retired instead of corrupting the next one —
    /// see [`Cluster::fence_round`]), [`QueryEngine::restore`] the view
    /// from `ckpt`, then replay the `pending` batches that had been applied
    /// since the checkpoint was taken. On the network backend the dead
    /// server thread has already been respawned by the executor's pool; by
    /// the restore argument plus determinism of the delta passes, the
    /// recovered view converges to exactly the pre-crash state.
    ///
    /// # Panics
    /// Panics on an unknown [`ViewId`], a mismatched checkpoint, or a
    /// replay batch whose shape does not match the view.
    pub fn recover(
        &mut self,
        id: ViewId,
        ckpt: &ViewCheckpoint,
        pending: &[UpdateBatch],
    ) -> RecoveryReport {
        self.cluster.fence_round();
        let restore = self.restore(id, ckpt);
        let replayed: Vec<UpdateOutcome> = pending
            .iter()
            .map(|batch| self.apply_update(id, batch))
            .collect();
        self.cluster.trace_event(Event::Recover {
            view: id.0 as u64,
            replayed: replayed.len() as u64,
        });
        RecoveryReport { restore, replayed }
    }

    /// Apply a batch stream under supervision: a fresh checkpoint is taken
    /// every `checkpoint_every` applied batches (and before the first), and
    /// when an `apply_update` panics — e.g. an injected server-thread crash
    /// on a faulty network backend — the supervisor runs
    /// [`QueryEngine::recover`] from the latest checkpoint (replaying the
    /// batches applied since it was taken) and retries the failed batch.
    /// A batch that keeps failing after `MAX_RETRIES` consecutive recovery
    /// attempts has a persistent (non-transient) cause, and its panic is
    /// propagated.
    ///
    /// # Panics
    /// Panics on an unknown [`ViewId`], on a batch whose shape does not
    /// match the view, and on any fault that recovery cannot clear.
    pub fn apply_updates_supervised(
        &mut self,
        id: ViewId,
        batches: &[UpdateBatch],
        checkpoint_every: usize,
    ) -> SupervisedRun {
        /// Consecutive failures of one batch before giving up: injected
        /// crashes are one-shot, so a genuine fault clears in one recovery;
        /// a few extra attempts tolerate stacked fault plans.
        const MAX_RETRIES: u32 = 3;
        assert!(checkpoint_every >= 1, "checkpoint interval must be >= 1");
        let mut ckpt = self.checkpoint(id);
        let mut since: Vec<UpdateBatch> = Vec::new();
        let mut applied = Vec::with_capacity(batches.len());
        let mut recoveries = 0u64;
        let mut i = 0usize;
        let mut attempts = 0u32;
        while i < batches.len() {
            let batch = &batches[i];
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.apply_update(id, batch)
            })) {
                Ok(outcome) => {
                    applied.push(outcome);
                    since.push(batch.clone());
                    i += 1;
                    attempts = 0;
                    if since.len() >= checkpoint_every {
                        ckpt = self.checkpoint(id);
                        since.clear();
                    }
                }
                Err(payload) => {
                    attempts += 1;
                    if attempts > MAX_RETRIES {
                        std::panic::resume_unwind(payload);
                    }
                    recoveries += 1;
                    let report = self.recover(id, &ckpt, &since);
                    // The replay outcomes supersede the originals recorded
                    // for those batches; keep the originals (they describe
                    // the same logical transitions) and drop the report —
                    // callers needing per-recovery detail use `recover`.
                    drop(report);
                }
            }
        }
        SupervisedRun {
            applied,
            recoveries,
        }
    }

    /// Render a human-readable **EXPLAIN** of one served request: the chosen
    /// plan against every priced alternative (with the closed-form cost the
    /// planner compared), and the prediction against the measured per-epoch
    /// loads. A pure function of the outcome — byte-identical across
    /// backends and repeated runs of the same request.
    pub fn explain(&self, outcome: &QueryOutcome) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query: class={:?} in={} out={} cache_hit={}",
            outcome.class,
            outcome.in_size,
            outcome
                .out_size
                .map_or_else(|| "?".to_string(), |o| o.to_string()),
            outcome.cache_hit,
        );
        if outcome.alternatives.is_empty() {
            let _ = writeln!(
                out,
                "plan: {} (class dispatch, nothing priced)",
                outcome.plan
            );
        } else {
            let _ = writeln!(out, "plan: {}", outcome.plan);
            let _ = writeln!(out, "candidates:");
            for &(cand, cost) in &outcome.alternatives {
                let marker = if cand == outcome.plan {
                    "  <- chosen"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  {:<6} est_load {:.3}{}",
                    cand.to_string(),
                    cost,
                    marker
                );
            }
        }
        for (phase, e) in [
            ("planning ", &outcome.planning),
            ("execution", &outcome.execution),
        ] {
            let (rounds, max, msgs) = (e.exchanges, e.max_load, e.total_messages);
            let _ = writeln!(
                out,
                "{phase}: rounds={rounds} max_load={max} messages={msgs}"
            );
        }
        if let Some(est) = outcome.estimated_load {
            let _ = writeln!(
                out,
                "predicted vs actual: est {:.3}, measured execution max {}",
                est, outcome.execution.max_load,
            );
        }
        out
    }

    /// [`QueryEngine::explain`] for a registered view: the build plan, the
    /// bag tree the view is maintained over, current sizes and churn, and
    /// the loads of the most recent full build.
    ///
    /// # Panics
    /// Panics on an unknown [`ViewId`].
    pub fn explain_view(&self, id: ViewId) -> String {
        use std::fmt::Write as _;
        let view = &self.views[id.0];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "view v{}: class={:?} plan={} out={} cum_delta={} rebuilds={}",
            id.0,
            view.class(),
            view.plan(),
            view.out_size(),
            view.cum_delta(),
            view.rebuilds(),
        );
        let _ = writeln!(out, "bags: {}", view.describe_bags());
        let _ = writeln!(out, "base: in={}", view.base().input_size());
        let reg = view.registration();
        let _ = writeln!(
            out,
            "last full build: rounds={} max_load={} messages={}",
            reg.exchanges, reg.max_load, reg.total_messages,
        );
        out
    }
}

/// What one [`QueryEngine::recover`] call did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Stats epoch of the restore pass (cache rebuild + snapshot install).
    pub restore: EpochStats,
    /// Outcomes of the replayed pending batches, in order.
    pub replayed: Vec<UpdateOutcome>,
}

/// What one [`QueryEngine::apply_updates_supervised`] call did.
#[derive(Debug)]
pub struct SupervisedRun {
    /// One outcome per input batch (the last successful application).
    pub applied: Vec<UpdateOutcome>,
    /// How many crash recoveries ran during the stream.
    pub recoveries: u64,
}

/// Do per-query epochs reconcile with cumulative `stats`? Messages and
/// rounds must sum exactly to the global counters, and the max over epoch
/// maxima must equal the global `L`. Holds for an engine's complete outcome
/// history (the engine resets its cluster's measurements at construction,
/// and every round it performs lies inside some outcome's epoch).
pub fn epochs_reconcile(outcomes: &[QueryOutcome], stats: &Stats) -> bool {
    let (mut msgs, mut rounds, mut max) = (0u64, 0u64, 0u64);
    for o in outcomes {
        msgs += o.planning.total_messages + o.execution.total_messages;
        rounds += o.planning.exchanges + o.execution.exchanges;
        max = max.max(o.planning.max_load).max(o.execution.max_load);
    }
    msgs == stats.total_messages && rounds == stats.exchanges && max == stats.max_load
}

const PLANNING_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

#[cfg(test)]
mod tests {
    use super::*;
    use aj_instancegen::{line_query, shapes};
    use aj_relation::{database_from_rows, ram, Tuple};

    fn line3_db(q: &Query) -> Database {
        database_from_rows(
            q,
            &[
                (0..24).map(|i| vec![i, i % 4]).collect(),
                (0..16).map(|i| vec![i % 4, i % 5]).collect(),
                (0..15).map(|i| vec![i % 5, i]).collect(),
            ],
        )
    }

    fn sorted(rel: &DistRelation) -> Vec<Tuple> {
        let mut t = rel.gather_free().tuples;
        t.sort_unstable();
        t
    }

    #[test]
    fn engine_matches_oracle_and_counts_out_exactly() {
        let q = line_query(3);
        let db = line3_db(&q);
        let (_, mut want) = ram::join(&q, &db);
        want.sort_unstable();
        let mut engine = QueryEngine::new(4);
        let outcome = engine.run(&q, &db);
        assert_eq!(sorted(&outcome.output), want);
        assert_eq!(outcome.out_size, Some(want.len() as u64));
        assert_eq!(outcome.in_size, db.input_size() as u64);
        assert!(!outcome.cache_hit);
    }

    #[test]
    fn cache_hit_is_bit_identical_to_cold_run() {
        let q = line_query(3);
        let db = line3_db(&q);
        let mut engine = QueryEngine::new(4);
        let cold = engine.run(&q, &db);
        let hot = engine.run(&q, &db);
        assert!(!cold.cache_hit && hot.cache_hit);
        assert_eq!(sorted(&cold.output), sorted(&hot.output));
        assert_eq!(cold.planning, hot.planning);
        assert_eq!(cold.execution, hot.execution);
        assert_eq!(engine.cache_hits(), 1);
        assert_eq!(engine.cache_len(), 1);
        assert_eq!(engine.served(), 2);
    }

    #[test]
    fn epochs_sum_to_global_stats() {
        let q1 = line_query(3);
        let db1 = line3_db(&q1);
        let q2 = shapes::star_query(3);
        let db2 = database_from_rows(
            &q2,
            &[
                (0..12).map(|i| vec![i % 3, i]).collect(),
                (0..9).map(|i| vec![i % 3, 100 + i]).collect(),
                (0..6).map(|i| vec![i % 3, 200 + i]).collect(),
            ],
        );
        let mut engine = QueryEngine::new(4);
        let outcomes = vec![
            engine.run(&q1, &db1),
            engine.run(&q2, &db2),
            engine.run(&q1, &db1),
        ];
        assert!(epochs_reconcile(&outcomes, engine.stats()));
    }

    /// `with_cluster` resets a pre-used cluster's measurements so the
    /// documented epoch reconciliation holds regardless of prior traffic.
    #[test]
    fn with_cluster_resets_prior_traffic() {
        let q = line_query(3);
        let db = line3_db(&q);
        let mut cluster = Cluster::new(4);
        {
            // Warm the cluster outside the engine.
            let mut net = cluster.net();
            let mut seed = 1;
            execute(
                &mut net,
                Plan::OutputOptimal,
                &q,
                distribute_db(&db, 4),
                &mut seed,
            );
        }
        let mut engine = QueryEngine::with_cluster(cluster, EngineConfig::default());
        let outcomes = vec![engine.run(&q, &db)];
        assert!(epochs_reconcile(&outcomes, engine.stats()));
    }

    #[test]
    fn cyclic_queries_skip_the_counting_pass() {
        let inst = aj_instancegen::fig6::generate(40, 60, 3);
        let mut engine = QueryEngine::new(8);
        let outcome = engine.run(&inst.query, &inst.db);
        assert_eq!(outcome.plan, Plan::WorstCase);
        assert_eq!(outcome.out_size, None);
        assert_eq!(outcome.planning.exchanges, 0);
        let mut got = outcome.output.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, ram::naive_join(&inst.query, &inst.db));
    }

    #[test]
    fn small_out_picks_yannakakis() {
        // OUT < IN on a line-3: cost-based dispatch must pick Yannakakis.
        let q = line_query(3);
        let db = database_from_rows(
            &q,
            &[
                (0..64).map(|i| vec![i, i]).collect(),
                (0..64).map(|i| vec![i, i]).collect(),
                (0..64).map(|i| vec![i, i]).collect(),
            ],
        );
        let mut engine = QueryEngine::new(8);
        let outcome = engine.run(&q, &db);
        assert_eq!(outcome.out_size, Some(64));
        assert!(outcome.out_size.unwrap() < outcome.in_size);
        assert_eq!(outcome.plan, Plan::Yannakakis);
        let (_, mut want) = ram::join(&q, &db);
        want.sort_unstable();
        assert_eq!(sorted(&outcome.output), want);
    }

    #[test]
    fn class_only_engine_follows_the_class_plan() {
        let q = line_query(3);
        let db = line3_db(&q);
        let cfg = EngineConfig {
            cost_based: false,
            ..EngineConfig::default()
        };
        let mut engine = QueryEngine::with_cluster(Cluster::new(4), cfg);
        let outcome = engine.run(&q, &db);
        assert_eq!(outcome.plan, Plan::OutputOptimal);
        assert_eq!(outcome.estimated_load, None);
        assert!(outcome.alternatives.is_empty());
        assert_eq!(outcome.out_size, None);
        assert_eq!(outcome.planning.exchanges, 0);
    }

    #[test]
    fn artifacts_are_cached_per_shape() {
        let q = shapes::star_query(2);
        let db = database_from_rows(
            &q,
            &[
                (0..6).map(|i| vec![i % 2, i]).collect(),
                (0..4).map(|i| vec![i % 2, 10 + i]).collect(),
            ],
        );
        let mut engine = QueryEngine::new(2);
        assert!(engine.artifacts(&q).is_none());
        engine.run(&q, &db);
        let art = engine.artifacts(&q).expect("planned");
        // Star joins are in the r-hierarchical family (Theorem-3 territory).
        assert_eq!(Plan::for_class(art.class), Plan::InstanceOptimal);
        assert!(art.join_tree.is_some());
    }
}
