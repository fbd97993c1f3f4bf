//! Differential tests for the `QueryEngine` serving layer: a long-lived
//! cluster answering a 100+-query mixed batch must match the RAM oracle,
//! attribute load per query through stats epochs that reconcile with the
//! cumulative stats, return bit-identical runs on plan-cache hits, never do
//! worse than class-only dispatch on measured load, and report identical
//! per-query loads on both executors.

use acyclic_joins::core::engine::{EngineConfig, QueryEngine, QueryOutcome};
use acyclic_joins::instancegen::{
    fig3, fig4, fig6, line_query, random, randquery, shapes, updates,
};
use acyclic_joins::prelude::*;
use acyclic_joins::relation::ram;

fn oracle(q: &Query, db: &Database) -> Vec<Tuple> {
    let mut t = if q.is_acyclic() {
        ram::join(q, db).1
    } else {
        ram::naive_join(q, db)
    };
    t.sort_unstable();
    t
}

fn sorted(out: &acyclic_joins::core::DistRelation) -> Vec<Tuple> {
    let mut t = out.gather_free().tuples;
    t.sort_unstable();
    t
}

fn dedup(mut db: Database) -> Database {
    db.dedup_all();
    db
}

/// A 100+-query batch mixing all five example shapes.
fn mixed_batch() -> Vec<(Query, Database)> {
    let mut batch: Vec<(Query, Database)> = Vec::new();
    let star = shapes::star_query(3);
    let rh = shapes::rh_example_query();
    let tf = shapes::tall_flat_q1();
    let line = line_query(3);
    for i in 0..21u64 {
        batch.push((
            star.clone(),
            dedup(random::random_instance(&star, 40, 10, 1000 + i)),
        ));
        batch.push((
            rh.clone(),
            dedup(random::random_instance(&rh, 40, 8, 2000 + i)),
        ));
        batch.push((
            tf.clone(),
            dedup(random::random_instance(&tf, 36, 4, 3000 + i)),
        ));
        batch.push(match i % 2 {
            0 => (line.clone(), fig3::one_sided(32, 64 + 32 * i).db),
            _ => {
                let n = 32u64;
                (
                    line.clone(),
                    acyclic_joins::relation::database_from_rows(
                        &line,
                        &[
                            (0..n).map(|v| vec![v, (v + i) % n]).collect(),
                            (0..n).map(|v| vec![v, (v + i) % n]).collect(),
                            (0..n).map(|v| vec![v, (v + i) % n]).collect(),
                        ],
                    ),
                )
            }
        });
        let inst = fig6::generate(24, 48, 4000 + i);
        batch.push((inst.query, inst.db));
    }
    batch
}

/// The headline serving test: one cluster, 105 mixed queries, every answer
/// oracle-checked, every count exact, epochs reconciling with global stats.
#[test]
fn engine_serves_mixed_batch_against_oracle() {
    let batch = mixed_batch();
    assert!(batch.len() >= 100, "mixed batch must exercise 100+ queries");
    let mut engine = QueryEngine::new(4);
    let outcomes = engine.run_batch(&batch);
    for ((q, db), o) in batch.iter().zip(&outcomes) {
        let want = oracle(q, db);
        assert_eq!(sorted(&o.output), want, "engine answer diverged on {q}");
        if let Some(out) = o.out_size {
            assert_eq!(out as usize, want.len(), "Corollary-4 count wrong on {q}");
        }
    }
    assert!(
        acyclic_joins::core::engine::epochs_reconcile(&outcomes, engine.stats()),
        "per-query epochs must reconcile with the cumulative stats"
    );
    // Five distinct shapes → everything after the first occurrences hits.
    assert_eq!(engine.cache_len(), 5);
    assert_eq!(engine.cache_hits(), batch.len() as u64 - 5);
}

/// Plan-cache hits must replay the cold run bit-for-bit: same tuples, same
/// plan, same per-epoch loads.
#[test]
fn cache_hits_replay_cold_runs_exactly() {
    let batch = mixed_batch();
    let mut engine = QueryEngine::new(4);
    let cold: Vec<QueryOutcome> = engine.run_batch(&batch[..5]);
    let hot: Vec<QueryOutcome> = engine.run_batch(&batch[..5]);
    for (a, b) in cold.iter().zip(&hot) {
        assert!(!a.cache_hit && b.cache_hit);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.planning, b.planning, "planning epoch must replay");
        assert_eq!(a.execution, b.execution, "execution epoch must replay");
        assert_eq!(sorted(&a.output), sorted(&b.output));
    }
}

/// The cost-based choice is never worse (measured execution load) than
/// class-only dispatch — checked on the Fig-3 / Fig-4 hard instances and on
/// the small-OUT regime where the planner actually switches algorithms.
#[test]
fn cost_based_never_worse_than_class_dispatch() {
    let line = line_query(3);
    let mut cases: Vec<(Query, Database)> = vec![
        (line.clone(), fig3::one_sided(64, 256).db),
        (line.clone(), fig3::one_sided(64, 1024).db),
        (line.clone(), fig3::two_sided(64, 1024).db),
        (line.clone(), fig4::generate(64, 256, 7).db),
        (line.clone(), fig4::generate(64, 2048, 8).db),
    ];
    // Sparse small-OUT instances (most tuples dangle): the Yannakakis
    // switch. Both plans start with the seed-identical full reduce, which
    // dominates the load here, so the switch can only tie or win.
    for n in [64u64, 128] {
        cases.push((line.clone(), fig3::sparse_small_out(n, 0).db));
    }
    let mut switched = false;
    for (q, db) in &cases {
        let mut cost_engine = QueryEngine::new(8);
        let mut class_engine = QueryEngine::with_cluster(
            acyclic_joins::mpc::Cluster::new(8),
            EngineConfig {
                cost_based: false,
                ..EngineConfig::default()
            },
        );
        let a = cost_engine.run(q, db);
        let b = class_engine.run(q, db);
        assert_eq!(sorted(&a.output), sorted(&b.output));
        assert!(
            a.execution.max_load <= b.execution.max_load,
            "cost-based plan {} (L={}) worse than class plan {} (L={}) on IN={} OUT={:?}",
            a.plan,
            a.execution.max_load,
            b.plan,
            b.execution.max_load,
            a.in_size,
            a.out_size,
        );
        switched |= a.plan != b.plan;
    }
    assert!(
        switched,
        "at least one case must exercise a genuine plan switch"
    );
}

/// One planner decision as a line: the chosen plan, its estimate and every
/// priced alternative, costs as exact `f64` bits.
fn decision_line(
    label: &str,
    plan: Plan,
    est: Option<f64>,
    alternatives: &[(Plan, f64)],
) -> String {
    let bits = |c: f64| format!("{:016x}", c.to_bits());
    let est = est.map_or_else(|| "-".to_string(), bits);
    let alts: Vec<String> = alternatives
        .iter()
        .map(|&(cand, cost)| format!("{cand}={}", bits(cost)))
        .collect();
    format!("{label} {plan} {est} [{}]", alts.join(" "))
}

/// Every plan decision the planner takes on fixed inputs: the mixed batch
/// on a cost-based and a class-only engine, the cyclic pricing of the
/// random connected queries `general_queries.rs` fuzzes, and the
/// maintain-vs-recompute prices of the pinned 8-batch view streams
/// (`incremental.rs::view_loads_are_pinned`).
fn plan_decisions() -> Vec<String> {
    let mut lines = Vec::new();
    let batch = mixed_batch();
    let class_only = EngineConfig {
        cost_based: false,
        ..EngineConfig::default()
    };
    for (name, cfg) in [("cost", EngineConfig::default()), ("class", class_only)] {
        let mut engine = QueryEngine::with_cluster(acyclic_joins::mpc::Cluster::new(4), cfg);
        for (i, o) in engine.run_batch(&batch).iter().enumerate() {
            let label = format!("{name}#{i}");
            lines.push(decision_line(
                &label,
                o.plan,
                o.estimated_load,
                &o.alternatives,
            ));
        }
    }

    for seed in 0u64..100 {
        let q = randquery::random_connected_query(seed);
        if q.is_acyclic() {
            continue;
        }
        let db = if seed % 2 == 0 {
            randquery::uniform_instance(&q, 24, 6, seed ^ 0xdb)
        } else {
            randquery::zipf_instance(&q, 24, 8, 1.2, seed ^ 0xdb)
        };
        let sizes: Vec<u64> = db.relations.iter().map(|r| r.len() as u64).collect();
        let (plan, est) = acyclic_joins::core::planner::choose_plan_cyclic(&q, &sizes, 4);
        lines.push(decision_line(
            &format!("cyclic#{seed}"),
            plan,
            Some(est),
            &[],
        ));
    }
    // The one cyclic shape where the GHD wins: a triangle with a path tail.
    let (q, db) = shapes::triangle_with_tail(6);
    let sizes: Vec<u64> = db.relations.iter().map(|r| r.len() as u64).collect();
    let (plan, est) = acyclic_joins::core::planner::choose_plan_cyclic(&q, &sizes, 16);
    lines.push(decision_line("cyclic-tail", plan, Some(est), &[]));

    let star = shapes::star_query(3);
    let mut star_db = random::random_instance(&star, 60, 9, 77);
    star_db.dedup_all();
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "C"]);
    let binary = b.build();
    let binary_db = acyclic_joins::relation::database_from_rows(
        &binary,
        &[
            (0..60).map(|i| vec![i, i % 7]).collect(),
            (0..45).map(|i| vec![i % 7, 1000 + i]).collect(),
        ],
    );
    let line3 = fig3::one_sided(48, 48 * 6);
    let triangle = fig6::generate(40, 90, 5);
    let views = vec![
        ("binary", binary, binary_db),
        ("line3", line3.query, line3.db),
        ("star3", star, star_db),
        ("triangle", triangle.query, triangle.db),
        {
            let (q, db) = shapes::triangle_with_tail(6);
            ("ghd", q, db)
        },
    ];
    for (label, q, db) in views {
        let mut engine = QueryEngine::new(8);
        let view = engine.register_view(&q, &db);
        let mut mirror = db.clone();
        mirror.dedup_all();
        for (i, batch) in updates::update_stream(&q, &mirror, 8, 0.05, 0.0, 0x9175)
            .iter()
            .enumerate()
        {
            let o = engine.apply_update(view, batch);
            lines.push(format!(
                "view-{label}#{i} {} {:016x} {:016x}",
                o.strategy,
                o.maintain_estimate.to_bits(),
                o.recompute_estimate.to_bits()
            ));
        }
    }
    lines
}

/// Every plan decision (plan, estimate and alternatives, bit for bit) is
/// pinned in `plan_decisions.txt`: a refactor of the planner must take the
/// same decisions at the same prices. On a mismatch the first diverging
/// decision is reported.
#[test]
fn plan_decisions_are_pinned() {
    let got = plan_decisions();
    let want: Vec<&str> = include_str!("plan_decisions.txt").lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "decision {i} diverged");
    }
    assert_eq!(got.len(), want.len(), "number of decisions changed");
}

/// Rounds and units of the mixed batch on a cost-based p = 8 engine are
/// pinned per shape: `[Σ planning exchanges, Σ planning total_messages,
/// Σ execution exchanges, Σ execution total_messages, max execution
/// max_load]` over the shape's 21 queries. `L` cannot see extra rounds (it
/// is a max over rounds); these sums can, so a control-plane change that
/// adds rounds or units fails here even at equal load.
///
/// Before control-plane aggregation became one gather plus one scatter and
/// Theorem 3 counted its subsets once, the rows were: star3
/// `[210, 2267, 2250, 24057, 26]`, rh `[210, 2108, 252, 3626, 16]`,
/// tall_flat `[399, 4979, 3396, 15941, 10]`, line3
/// `[210, 3690, 2176, 29821, 24]`, triangle `[0, 0, 21, 2976, 45]`.
/// Before the full reducer's bottom-up sweep became the solvers' count (and
/// a semi-join with an empty side stopped exchanging), star3 was
/// `[168, 2141, 1058, 15718, 26]`, tall_flat `[357, 4853, 2088, 12329, 10]`
/// and line3 `[168, 3564, 1568, 27541, 24]` (its peak round was the
/// recount). Before key owners answered the servers their degree tallies
/// had heard from (no ask round for multi-numbering or directives), star3
/// was `[168, 2141, 932, 13947, 26]`, tall_flat `[357, 4853, 2028, 12108,
/// 10]` and line3 `[168, 3564, 1268, 25777, 18]`. Before the full
/// reducer's top-down sweep reported to resident key owners instead of
/// semi-joining afresh, star3 was `[168, 2141, 827, 12652, 26]`, rh
/// `[168, 1982, 252, 3626, 16]`, tall_flat `[357, 4853, 1568, 11015, 10]`
/// and line3 `[168, 3564, 996, 18966, 18]` (rh's and line3's peak rounds
/// were a top-down semi-join's).
#[test]
fn mixed_batch_rounds_are_pinned() {
    const PINNED: [(&str, [u64; 5]); 5] = [
        ("star3", [168, 2141, 785, 11979, 26]),
        ("rh", [168, 1982, 210, 2762, 10]),
        ("tall_flat", [357, 4853, 1483, 9999, 10]),
        ("line3", [168, 3564, 934, 16825, 16]),
        ("triangle", [0, 0, 21, 2976, 45]),
    ];
    let mut engine = QueryEngine::new(8);
    let outcomes = engine.run_batch(&mixed_batch());
    let got: Vec<(&str, [u64; 5])> = PINNED
        .iter()
        .enumerate()
        .map(|(shape, &(label, _))| {
            let mut row = [0u64; 5];
            for o in outcomes.iter().skip(shape).step_by(PINNED.len()) {
                row[0] += o.planning.exchanges;
                row[1] += o.planning.total_messages;
                row[2] += o.execution.exchanges;
                row[3] += o.execution.total_messages;
                row[4] = row[4].max(o.execution.max_load);
            }
            (label, row)
        })
        .collect();
    assert_eq!(got, PINNED);
}

/// Per-query loads are bit-identical across SeqExecutor and ParExecutor.
#[test]
fn executors_report_identical_per_query_epochs() {
    let batch: Vec<(Query, Database)> = mixed_batch().into_iter().take(25).collect();
    let mut seq = QueryEngine::new(4);
    let mut par = QueryEngine::new_parallel(4);
    let a = seq.run_batch(&batch);
    let b = par.run_batch(&batch);
    for ((x, y), (q, _)) in a.iter().zip(&b).zip(&batch) {
        assert_eq!(x.plan, y.plan, "plan diverged on {q}");
        assert_eq!(x.planning, y.planning, "planning epoch diverged on {q}");
        assert_eq!(x.execution, y.execution, "execution epoch diverged on {q}");
        assert_eq!(
            sorted(&x.output),
            sorted(&y.output),
            "result diverged on {q}"
        );
    }
    assert_eq!(seq.stats(), par.stats());
}
