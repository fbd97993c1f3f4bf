//! Quickstart: classify a query, serve it on the MPC simulator with the
//! cheapest applicable algorithm, and inspect the measured load.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use acyclic_joins::prelude::*;

fn main() {
    // Build the paper's line-3 join R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D).
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "C"]);
    b.relation("R3", &["C", "D"]);
    let q = b.build();

    println!("query:  {q}");
    println!("class:  {}", classify(&q));

    // A small instance with a skewed B value (the case where join order
    // matters in MPC).
    let db = acyclic_joins::relation::database_from_rows(
        &q,
        &[
            (0..400u64).map(|i| vec![i, i % 8]).collect(),
            (0..64u64).map(|i| vec![i % 8, i]).collect(),
            (0..64u64).map(|i| vec![i, 1000 + i]).collect(),
        ],
    );
    println!("IN:     {}", db.input_size());

    // Simulate p = 16 servers: the engine counts OUT, prices the applicable
    // algorithms and runs the cheapest (Theorem 7 here, as OUT > IN).
    let p = 16;
    let mut engine = QueryEngine::new(p);
    let outcome = engine.run(&q, &db);
    let out = &outcome.output;
    let stats = engine.stats();
    println!("plan:   {:?}", outcome.plan);
    println!("OUT:    {}", out.total_len());
    println!(
        "load L: {} (IN/p = {}, exchanges = {})",
        stats.max_load,
        db.input_size() / p,
        stats.exchanges
    );

    // Verify against the in-memory Yannakakis oracle.
    let (_, expect) = acyclic_joins::relation::ram::join(&q, &db);
    assert_eq!(out.total_len(), expect.len());
    println!("verified against the RAM oracle ✓");
}
