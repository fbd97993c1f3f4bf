//! **Engine** — the serving layer: one long-lived [`QueryEngine`] cluster
//! answering a mixed batch of all five example shapes.
//!
//! Not a figure of the paper; this experiment measures what the paper's
//! algorithms look like *in production*: a single cluster serving a stream
//! of queries, with per-query load attribution via stats epochs, a plan
//! cache keyed on canonical query signatures, and the cost-based planner
//! (Corollary-4 counting pass + closed-form bound comparison) against plain
//! Table-1 class dispatch.
//!
//! What to look for:
//!
//! * `L(cost) ≤ L(class)` on every row — the cost-based choice is never
//!   worse on measured execution load (asserted per query). On the
//!   small-`OUT` line-3 row the planner sees `OUT < IN` — a regime class
//!   dispatch cannot detect — and switches to Yannakakis, whose
//!   `O(IN/p + OUT/p)` bound beats Theorem 7's `√(IN·OUT)/p` term there;
//!   the measured load ties because both plans share the seed-identical
//!   full-reduce phase that dominates these sparse instances.
//! * `hits` — every query after the first of a shape reuses the cached
//!   planning artifacts.
//! * epoch consistency — per-query epoch loads sum (messages, rounds) and
//!   max (load) back to the cluster's cumulative stats (asserted).
//! * with `--parallel`, the whole batch re-runs on a [`ParExecutor`](aj_mpc::ParExecutor)-backed
//!   engine and every per-query epoch must be bit-identical (asserted).

use aj_core::engine::{EngineConfig, QueryEngine, QueryOutcome};
use aj_mpc::Cluster;
use aj_relation::classify::classify;
use aj_relation::{Database, Query};

use crate::table::ExpTable;

const P: usize = 8;

/// Queries per shape (release: 20 × 6 shapes = 120 queries; debug smoke
/// keeps the batch short).
const PER_SHAPE: usize = if cfg!(debug_assertions) { 3 } else { 20 };

/// Instance scale.
const N: u64 = if cfg!(debug_assertions) { 32 } else { 256 };

/// The mixed workload: (label, query, instances).
fn workload() -> Vec<(&'static str, Query, Vec<Database>)> {
    let mut groups: Vec<(&'static str, Query, Vec<Database>)> = Vec::new();

    // Star join (r-hierarchical family): random instances.
    let star = aj_instancegen::shapes::star_query(3);
    groups.push((
        "star3",
        star.clone(),
        (0..PER_SHAPE)
            .map(|i| {
                dedup(aj_instancegen::random::random_instance(
                    &star,
                    N as usize,
                    N / 4,
                    100 + i as u64,
                ))
            })
            .collect(),
    ));

    // r-hierarchical example R1(A) ⋈ R2(A,B) ⋈ R3(B).
    let rh = aj_instancegen::shapes::rh_example_query();
    groups.push((
        "r-hier",
        rh.clone(),
        (0..PER_SHAPE)
            .map(|i| {
                dedup(aj_instancegen::random::random_instance(
                    &rh,
                    N as usize,
                    N / 3,
                    200 + i as u64,
                ))
            })
            .collect(),
    ));

    // Tall-flat Q1.
    let tf = aj_instancegen::shapes::tall_flat_q1();
    groups.push((
        "tall-flat",
        tf.clone(),
        (0..PER_SHAPE)
            .map(|i| {
                dedup(aj_instancegen::random::random_instance(
                    &tf,
                    N as usize,
                    6,
                    300 + i as u64,
                ))
            })
            .collect(),
    ));

    // Line-3, large OUT: the Figure-3 hard instance (Theorem-7 regime).
    let line = aj_instancegen::line_query(3);
    groups.push((
        "line3 OUT≫IN",
        line.clone(),
        (0..PER_SHAPE)
            .map(|i| aj_instancegen::fig3::one_sided(N, N * N / (4 + 4 * (i as u64 % 4))).db)
            .collect(),
    ));

    // Line-3, small OUT: sparse instances where most tuples dangle — the
    // Yannakakis regime (`OUT < IN`) the cost-based planner switches on.
    groups.push((
        "line3 OUT<IN",
        line.clone(),
        (0..PER_SHAPE)
            .map(|i| aj_instancegen::fig3::sparse_small_out(N, i as u64).db)
            .collect(),
    ));

    // Triangle (cyclic): HyperCube territory.
    let tri = aj_instancegen::shapes::triangle_query();
    groups.push((
        "triangle",
        tri,
        (0..PER_SHAPE)
            .map(|i| aj_instancegen::fig6::generate(N, 2 * N, 400 + i as u64).db)
            .collect(),
    ));

    groups
}

fn dedup(mut db: Database) -> Database {
    db.dedup_all();
    db
}

/// Serve the whole batch on a fresh engine; returns the per-query outcomes.
fn serve(batch: &[(Query, Database)], cost_based: bool, parallel: bool) -> Vec<QueryOutcome> {
    let cluster = if parallel {
        Cluster::new_parallel(P)
    } else {
        Cluster::new(P)
    };
    let cfg = EngineConfig {
        cost_based,
        ..EngineConfig::default()
    };
    let mut engine = QueryEngine::with_cluster(cluster, cfg);
    if super::trace_enabled() {
        engine.enable_tracing(aj_obs::ObsConfig::default());
    }
    let outcomes = engine.run_batch(batch);

    // Epoch consistency: per-query epochs sum/max back to the global stats.
    assert!(
        aj_core::engine::epochs_reconcile(&outcomes, engine.stats()),
        "per-query epochs must reconcile with the cumulative stats"
    );
    if let Some(t) = engine.take_trace() {
        let planner = if cost_based { "cost" } else { "class" };
        let exec = if parallel { "par" } else { "seq" };
        super::stash_trace(format!("engine-batch-{planner}-{exec}"), t);
    }
    outcomes
}

pub fn run() -> Vec<ExpTable> {
    let groups = workload();
    let batch: Vec<(Query, Database)> = groups
        .iter()
        .flat_map(|(_, q, dbs)| dbs.iter().map(|db| (q.clone(), db.clone())))
        .collect();
    let n_queries = batch.len();

    let cost = serve(&batch, true, false);
    let class = serve(&batch, false, false);
    if super::parallel_enabled() {
        let par = serve(&batch, true, true);
        for (a, b) in cost.iter().zip(&par) {
            assert_eq!(a.plan, b.plan, "executors disagree on the plan");
            assert_eq!(
                a.planning, b.planning,
                "executors disagree on planning epoch"
            );
            assert_eq!(
                a.execution, b.execution,
                "executors disagree on execution epoch"
            );
        }
    }

    let mut t = ExpTable::new(
        format!(
            "Engine: {n_queries}-query mixed batch on one p={P} cluster — cost-based vs class dispatch"
        ),
        &[
            "shape", "class", "plan(class)", "plan(cost)", "q", "hits", "L(class)",
            "L(cost)", "msgs/q",
        ],
    );

    let mut i = 0usize;
    for (label, q, dbs) in &groups {
        let k = dbs.len();
        let (co, cl) = (&cost[i..i + k], &class[i..i + k]);
        i += k;
        let hits = co.iter().filter(|o| o.cache_hit).count();
        let mut l_class = 0u64;
        let mut l_cost = 0u64;
        let mut msgs = 0u64;
        for (a, b) in co.iter().zip(cl) {
            // The headline guarantee: cost-based execution load never worse.
            assert!(
                a.execution.max_load <= b.execution.max_load,
                "{label}: cost-based plan {} (L={}) worse than class plan {} (L={})",
                a.plan,
                a.execution.max_load,
                b.plan,
                b.execution.max_load
            );
            l_class = l_class.max(b.execution.max_load);
            l_cost = l_cost.max(a.execution.max_load);
            msgs += a.planning.total_messages + a.execution.total_messages;
        }
        t.row(vec![
            label.to_string(),
            classify(q).to_string(),
            cl[0].plan.to_string(),
            co[0].plan.to_string(),
            k.to_string(),
            hits.to_string(),
            l_class.to_string(),
            l_cost.to_string(),
            (msgs / k as u64).to_string(),
        ]);
    }
    t.note("L columns are the max per-query *execution-epoch* load of the group; cost ≤ class asserted per query.");
    t.note("hits: queries reusing cached plan artifacts (all but the first of each shape).");

    vec![t]
}
