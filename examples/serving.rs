//! Serving: a long-lived [`QueryEngine`] answering a stream of queries on
//! one cluster — plan caching, cost-based planning, and per-query load
//! attribution via stats epochs.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use acyclic_joins::prelude::*;

fn main() {
    // One engine, one cluster of 8 simulated servers, many queries.
    let mut engine = QueryEngine::new(8);

    // Request 1: a star join (r-hierarchical → Theorem 3).
    let mut b = QueryBuilder::new();
    b.relation("Orders", &["cust", "item"]);
    b.relation("Visits", &["cust", "store"]);
    let star = b.build();
    let star_db = acyclic_joins::relation::database_from_rows(
        &star,
        &[
            (0..240u64).map(|i| vec![i % 40, 1000 + i]).collect(),
            (0..120u64).map(|i| vec![i % 40, 2000 + i % 7]).collect(),
        ],
    );

    // Request 2: a line-3 join whose OUT is far below IN — the cost-based
    // planner detects this with the Corollary-4 counting pass and switches
    // to Yannakakis, which class-only dispatch cannot see.
    let sparse = acyclic_joins::instancegen::fig3::sparse_small_out(240, 0);
    let (line, line_db) = (sparse.query, sparse.db);

    for (label, q, db) in [
        ("star", &star, &star_db),
        ("line3", &line, &line_db),
        ("star again", &star, &star_db), // plan-cache hit: bit-identical run
    ] {
        let r = engine.run(q, db);
        println!(
            "{label:>10}: class={} plan={} IN={} OUT={} cache_hit={} \
             L(plan)={} L(exec)={} rows={}",
            r.class,
            r.plan,
            r.in_size,
            r.out_size.map_or("-".into(), |o| o.to_string()),
            r.cache_hit,
            r.planning.max_load,
            r.execution.max_load,
            r.output.total_len(),
        );
    }

    // The per-query epochs reconcile with the cumulative cluster stats.
    let s = engine.stats();
    println!(
        "engine: served={} shapes_cached={} cache_hits={} | global L={} msgs={} rounds={}",
        engine.served(),
        engine.cache_len(),
        engine.cache_hits(),
        s.max_load,
        s.total_messages,
        s.exchanges,
    );
}
