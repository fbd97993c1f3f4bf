//! Join-aggregate queries over annotated relations (Section 6):
//! COUNT(*) GROUP BY, a MIN-cost aggregation in the tropical semiring, and
//! the linear-load output-size primitive (Corollary 4).
//!
//! Scenario: sensors(S, room) ⋈ readings(S, T) ⋈ calib(T, drift) — count
//! readings per room, and find the minimum total "drift cost" per room.
//!
//! ```sh
//! cargo run --release --example group_by_aggregates
//! ```

use acyclic_joins::core::aggregate::{is_free_connex, join_aggregate, output_size};
use acyclic_joins::core::dist::distribute_db;
use acyclic_joins::prelude::*;
use acyclic_joins::relation::semiring::{AnnRelation, CountRing, MinPlus};

fn main() {
    let mut b = QueryBuilder::new();
    b.relation("sensors", &["sensor", "room"]);
    b.relation("readings", &["sensor", "ts"]);
    b.relation("calib", &["ts", "batch"]);
    let q = b.build();

    let n = 600u64;
    let mut db = acyclic_joins::relation::database_from_rows(
        &q,
        &[
            (0..60u64).map(|s| vec![s, s % 6]).collect(),
            (0..n).map(|i| vec![i % 60, i % 50]).collect(),
            (0..50u64).map(|t| vec![t, t % 4]).collect(),
        ],
    );
    // Set semantics: the counting primitives (Corollary 4) assume
    // deduplicated input.
    for r in &mut db.relations {
        r.dedup();
    }
    let room = q.attr_by_name("room").unwrap();
    let y = vec![room];
    println!("query: {q}");
    println!("free-connex w.r.t. {{room}}: {}", is_free_connex(&q, &y));

    let p = 8;

    // COUNT(*) GROUP BY room.
    let mut cluster = Cluster::new(p);
    let counts = {
        let mut net = cluster.net();
        let ann: Vec<AnnRelation<CountRing>> = db
            .relations
            .iter()
            .map(AnnRelation::from_relation)
            .collect();
        let mut seed = 17;
        join_aggregate::<CountRing>(&mut net, &q, &ann, &y, &mut seed).expect("free-connex")
    };
    println!(
        "\nCOUNT(*) GROUP BY room   (load L = {}):",
        cluster.stats().max_load
    );
    for (t, c) in counts.gather_free() {
        println!("  room {} → {c} joined readings", t.get(0));
    }

    // MIN total drift per room in the tropical semiring: annotate calib rows
    // with a per-batch drift cost; ⊗ = +, ⊕ = min.
    let mut cluster = Cluster::new(p);
    let mins = {
        let mut net = cluster.net();
        let mut ann: Vec<AnnRelation<MinPlus>> = db
            .relations
            .iter()
            .map(AnnRelation::from_relation)
            .collect();
        for (t, w) in &mut ann[2].tuples {
            *w = 10 * (t.get(1) + 1); // drift cost per calibration batch
        }
        let mut seed = 18;
        join_aggregate::<MinPlus>(&mut net, &q, &ann, &y, &mut seed).expect("free-connex")
    };
    println!(
        "\nMIN drift-cost GROUP BY room  (load L = {}):",
        cluster.stats().max_load
    );
    for (t, c) in mins.gather_free() {
        println!("  room {} → min cost {c}", t.get(0));
    }

    // Corollary 4: |Q(R)| with linear load, no enumeration.
    let mut cluster = Cluster::new(p);
    let out = {
        let mut net = cluster.net();
        let mut seed = 19;
        output_size(&mut net, &q, &distribute_db(&db, p), &mut seed)
    };
    println!(
        "\n|Q(R)| = {out}  computed with load L = {} (IN/p = {})",
        cluster.stats().max_load,
        db.input_size() / p
    );
    assert_eq!(out, acyclic_joins::relation::ram::count(&q, &db));
    let per_room: u64 = counts.gather_free().iter().map(|&(_, c)| c).sum();
    assert_eq!(per_room, out, "the per-room COUNTs partition |Q(R)|");
    println!("verified against the RAM oracle; the per-room COUNTs sum to it ✓");
}
