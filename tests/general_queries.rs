//! Differential fuzz of the general-query pipeline: seeded random
//! connected hypergraphs — acyclic and cyclic — run through the full
//! engine on every backend, checked bit-for-bit against each other and
//! against the RAM oracle; random cyclic views maintained through update
//! streams; and property tests of the decomposition layer
//! ([`aj_relation::Ghd`] / [`aj_relation::FreeConnexGhd`]) and the local
//! join that finishes every HyperCube cell
//! ([`aj_core::local::multiway_join`]).
//!
//! This is the acceptance harness for the GHD tentpole: the servable query
//! space is no longer a catalogue of shapes but *any* connected join
//! query, so the tests sample that space instead of enumerating it.

use aj_core::dist::distribute_db;
use aj_core::engine::QueryEngine;
use aj_core::general;
use aj_core::local::{multiway_join, normalize, LocalRel};
use aj_instancegen::{randquery, updates};
use aj_mpc::{Cluster, ParExecutor, Stats};
use aj_relation::delta::CountedSnapshot;
use aj_relation::{ram, Database, FreeConnexGhd, Ghd, Query, QueryBuilder, Tuple};
use proptest::prelude::*;

const P: usize = 4;

/// A named recipe for building a fresh cluster on one backend.
type Backend = (&'static str, Box<dyn Fn() -> Cluster>);

/// The three execution backends the fuzz drives. (The transport × fault
/// matrix lives in `conformance.rs`; here the channel transport represents
/// the wire path.)
fn backends() -> Vec<Backend> {
    vec![
        ("seq", Box::new(|| Cluster::new(P))),
        (
            "par",
            Box::new(|| Cluster::with_executor(P, Box::new(ParExecutor::with_threads(4)))),
        ),
        ("net-chan", Box::new(|| Cluster::new_net(P))),
    ]
}

/// The RAM-model reference answer, in the engine's output layout
/// (occurring attributes, ascending).
fn oracle(q: &Query, db: &Database) -> Vec<Tuple> {
    let mut t = if q.is_acyclic() {
        ram::join(q, db).1
    } else {
        ram::naive_join(q, db)
    };
    t.sort_unstable();
    t
}

/// The oracle's counted materialization: every set-semantics output tuple
/// with count 1, sorted.
fn oracle_snapshot(q: &Query, db: &Database) -> CountedSnapshot {
    let mut tuples = ram::naive_join(q, db);
    tuples.sort_unstable();
    tuples.dedup();
    tuples.into_iter().map(|t| (t, 1)).collect()
}

/// Run `q` on `db` through a full engine on one backend; return the sorted
/// output and the cumulative cluster stats.
fn engine_run(make: &dyn Fn() -> Cluster, q: &Query, db: &Database) -> (Vec<Tuple>, Stats) {
    let mut engine = QueryEngine::with_cluster(make(), Default::default());
    let outcome = engine.run(q, db);
    let mut tuples = outcome.output.gather_free().tuples;
    tuples.sort_unstable();
    (tuples, engine.stats().clone())
}

/// The headline fuzz: 100 seeded random connected queries (trees, cycles,
/// cliques, thetas, with random attachments), alternating uniform and Zipf
/// instances, each run on every backend. Outputs and `Stats` must be
/// bit-identical across backends and equal to the RAM oracle.
#[test]
fn hundred_random_queries_are_bit_identical_across_backends() {
    for seed in 0u64..100 {
        let q = randquery::random_connected_query(seed);
        let db = if seed % 2 == 0 {
            randquery::uniform_instance(&q, 24, 6, seed ^ 0xdb)
        } else {
            randquery::zipf_instance(&q, 24, 8, 1.2, seed ^ 0xdb)
        };
        let want = oracle(&q, &db);
        let mut reference: Option<(Vec<Tuple>, Stats)> = None;
        for (backend, make) in backends() {
            let (tuples, stats) = engine_run(make.as_ref(), &q, &db);
            assert_eq!(tuples, want, "seed {seed}/{backend}: wrong answer for {q}");
            match &reference {
                None => reference = Some((tuples, stats)),
                Some((_, ref_stats)) => {
                    assert_eq!(&stats, ref_stats, "seed {seed}/{backend}: stats differ");
                }
            }
        }
    }
}

/// Random **cyclic** views under maintenance: register on each backend,
/// apply a seeded update stream, and require the counted snapshot to equal
/// the oracle's after *every* batch — whatever plan and maintenance
/// strategy the engine picks per shape and per batch.
#[test]
fn random_cyclic_views_converge_after_every_batch() {
    let mut tested = 0u32;
    let mut seed = 0u64;
    while tested < 8 {
        seed += 1;
        let q = randquery::random_connected_query(seed);
        if q.is_acyclic() {
            continue;
        }
        tested += 1;
        let db = randquery::uniform_instance(&q, 24, 6, seed ^ 0x5eed);
        let mut mirror0 = db.clone();
        mirror0.dedup_all();
        let batches = updates::update_stream(&q, &mirror0, 4, 0.05, 0.0, seed ^ 0xabc);
        for (backend, make) in backends() {
            let mut engine = QueryEngine::with_cluster(make(), Default::default());
            let view = engine.register_view(&q, &db);
            let mut mirror = mirror0.clone();
            assert_eq!(
                engine.view(view).snapshot(),
                oracle_snapshot(&q, &mirror),
                "seed {seed}/{backend}: registration diverged for {q}"
            );
            for (i, batch) in batches.iter().enumerate() {
                engine.apply_update(view, batch);
                batch.apply_to(&mut mirror);
                assert_eq!(
                    engine.view(view).snapshot(),
                    oracle_snapshot(&q, &mirror),
                    "seed {seed}/{backend}: batch {i} diverged for {q}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every random acyclic query admits a width-1 free-connex GHD for the
    /// full output, and for any single edge's attribute set (both are
    /// always free-connex); the witness decomposition validates.
    #[test]
    fn free_connex_ghd_builds_on_random_acyclic(m in 1usize..6, seed in 0u64..5000) {
        let q = aj_instancegen::random::random_acyclic_query(m, seed);
        let full: Vec<usize> = (0..q.n_attrs()).collect();
        let g = FreeConnexGhd::build(&q, &full);
        prop_assert!(g.is_some(), "full output must be free-connex for {q}");
        prop_assert!(g.unwrap().validate(&q));
        let e0 = q.edge(0).attrs.clone();
        let g0 = FreeConnexGhd::build(&q, &e0);
        prop_assert!(g0.is_some(), "an edge's own attrs must be free-connex for {q}");
        prop_assert!(g0.unwrap().validate(&q));
    }

    /// `Ghd::build` succeeds on every random connected query, satisfies
    /// coherence / coverage / partition (via `validate`), and evaluating
    /// the query through its bag tree matches the RAM oracle.
    #[test]
    fn ghd_validates_and_bag_evaluation_matches_oracle(seed in 0u64..2000) {
        let q = randquery::random_connected_query(seed);
        let ghd = Ghd::build(&q).expect("generated queries are connected");
        prop_assert!(ghd.validate(&q), "invariants violated for {}", q);
        if q.is_acyclic() {
            prop_assert_eq!(ghd.width(), 1);
            prop_assert_eq!(ghd.n_bags(), q.n_edges());
        } else {
            prop_assert!(ghd.width() >= 2, "a cyclic query needs a multi-edge bag: {}", q);
        }
        let db = randquery::uniform_instance(&q, 18, 5, seed ^ 0x77);
        let mut want = ram::naive_join(&q, &db);
        want.sort_unstable();
        let mut cluster = Cluster::new(P);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, P);
            let mut s = seed.wrapping_mul(2) | 1;
            general::solve_with(&mut net, &q, &ghd, dist, &mut s)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// The local join that finishes every HyperCube cell (`multiway_join`
    /// + column normalization) agrees with the RAM oracle on every random
    /// connected query, cyclic ones included, under set semantics.
    #[test]
    fn local_join_matches_the_oracle(seed in 0u64..3000) {
        let q = randquery::random_connected_query(seed);
        let db = randquery::uniform_instance(&q, 12, 4, seed ^ 0x99);
        let rels: Vec<LocalRel> = q
            .edges()
            .iter()
            .zip(&db.relations)
            .map(|(e, r)| LocalRel {
                attrs: e.attrs.clone(),
                tuples: r.tuples.clone(),
            })
            .collect();
        let (attrs, tuples) = multiway_join(&rels);
        let (attrs, mut tuples) = normalize(&attrs, tuples);
        prop_assert_eq!(attrs, q.all_attrs().to_vec());
        tuples.sort_unstable();
        tuples.dedup();
        prop_assert_eq!(tuples, ram::naive_join(&q, &db));
    }
}

/// Duplicate-edge regression shapes: two relations over the *same*
/// attribute set (verbatim layout and reversed layout), acyclic and
/// cyclic. The instances differ between the twin relations, so a planner
/// or cache that conflates edges by attribute set — ambiguous join-tree
/// edge keys, a dropped semijoin in `reduce` — produces wrong answers, not
/// just wrong loads.
fn duplicate_edge_cases() -> Vec<(&'static str, Query, Database)> {
    let mut cases = Vec::new();

    // Acyclic: R1(A,B) ∥ R2(A,B) — verbatim duplicate — then a chain.
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["A", "B"]);
    b.relation("R3", &["B", "C"]);
    let q = b.build();
    let rows = |k: u64, n: u64| -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| vec![i % 5, (i * k + i / 10 + 1) % 5])
            .collect()
    };
    let mut db = aj_relation::database_from_rows(&q, &[rows(2, 20), rows(3, 20), rows(4, 20)]);
    db.dedup_all();
    cases.push(("dup-acyclic", q, db));

    // Same attribute set under a *reversed* layout: R2's columns are (B,A).
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "A"]);
    b.relation("R3", &["B", "C"]);
    let q = b.build();
    let mut db = aj_relation::database_from_rows(&q, &[rows(2, 20), rows(5, 20), rows(4, 20)]);
    db.dedup_all();
    cases.push(("dup-reversed", q, db));

    // Cyclic: a triangle with one side doubled.
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["A", "B"]);
    b.relation("R3", &["B", "C"]);
    b.relation("R4", &["C", "A"]);
    let q = b.build();
    let mut db =
        aj_relation::database_from_rows(&q, &[rows(2, 24), rows(3, 24), rows(4, 24), rows(6, 24)]);
    db.dedup_all();
    cases.push(("dup-cyclic", q, db));

    cases
}

/// Duplicate-edge regression: every duplicate-edge shape executes and
/// maintains as a view on every backend, bit-identical to the RAM oracle
/// — the twin relations' tuples both constrain the join (intersection
/// semantics), and the tree/grid/bag caches never conflate the twins.
#[test]
fn duplicate_edge_queries_serve_and_maintain_exactly() {
    for (label, q, db) in duplicate_edge_cases() {
        let want = oracle(&q, &db);
        assert!(!want.is_empty(), "{label}: degenerate instance");
        // Non-vacuity: with the twin relaxed to the full 5×5 relation the
        // output must grow, i.e. the duplicate genuinely constrains the
        // join — a cache that conflates the twins would not be caught
        // otherwise.
        let mut relaxed = db.clone();
        relaxed.relations[1].tuples = (0..25u64).map(|v| Tuple::from([v / 5, v % 5])).collect();
        assert!(
            oracle(&q, &relaxed).len() > want.len(),
            "{label}: the duplicate edge does not constrain the join"
        );
        let mut mirror0 = db.clone();
        mirror0.dedup_all();
        let batches = updates::update_stream(&q, &mirror0, 3, 0.06, 0.0, 0xd0b);
        let mut reference: Option<Stats> = None;
        for (backend, make) in backends() {
            let (tuples, stats) = engine_run(make.as_ref(), &q, &db);
            assert_eq!(tuples, want, "{label}/{backend}: wrong answer");
            match &reference {
                None => reference = Some(stats),
                Some(ref_stats) => {
                    assert_eq!(&stats, ref_stats, "{label}/{backend}: stats differ");
                }
            }
            let mut engine = QueryEngine::with_cluster(make(), Default::default());
            let view = engine.register_view(&q, &db);
            let mut mirror = mirror0.clone();
            assert_eq!(
                engine.view(view).snapshot(),
                oracle_snapshot(&q, &mirror),
                "{label}/{backend}: registration diverged"
            );
            for (i, batch) in batches.iter().enumerate() {
                engine.apply_update(view, batch);
                batch.apply_to(&mut mirror);
                assert_eq!(
                    engine.view(view).snapshot(),
                    oracle_snapshot(&q, &mirror),
                    "{label}/{backend}: batch {i} diverged"
                );
            }
        }
    }
}

/// The two named acceptance shapes of the tentpole.
fn acceptance_cases() -> Vec<(&'static str, Query, Database)> {
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "C"]);
    b.relation("R3", &["C", "D"]);
    b.relation("R4", &["D", "A"]);
    let cycle4 = b.build();
    let cycle4_db = randquery::uniform_instance(&cycle4, 30, 8, 0x4c);

    let mut b = QueryBuilder::new();
    for (i, (x, y)) in [
        ("A", "B"),
        ("A", "C"),
        ("A", "D"),
        ("B", "C"),
        ("B", "D"),
        ("C", "D"),
    ]
    .iter()
    .enumerate()
    {
        b.relation(&format!("E{i}"), &[x, y]);
    }
    let k4 = b.build();
    let k4_db = randquery::uniform_instance(&k4, 26, 6, 0x44);

    vec![("4-cycle", cycle4, cycle4_db), ("K4", k4, k4_db)]
}

/// The ISSUE's acceptance criterion, verbatim: a 4-cycle and a K4 execute
/// *and* register as incrementally-maintained views through `QueryEngine`
/// on all three backends, bit-identical to the RAM oracle throughout.
#[test]
fn four_cycle_and_k4_serve_on_every_backend() {
    for (label, q, db) in acceptance_cases() {
        let want = oracle(&q, &db);
        assert!(!want.is_empty(), "{label}: degenerate acceptance instance");
        let mut mirror0 = db.clone();
        mirror0.dedup_all();
        let batches = updates::update_stream(&q, &mirror0, 3, 0.05, 0.0, 0x4c4);
        let mut reference: Option<Stats> = None;
        for (backend, make) in backends() {
            let (tuples, stats) = engine_run(make.as_ref(), &q, &db);
            assert_eq!(tuples, want, "{label}/{backend}: wrong answer");
            match &reference {
                None => reference = Some(stats),
                Some(ref_stats) => {
                    assert_eq!(&stats, ref_stats, "{label}/{backend}: stats differ");
                }
            }
            let mut engine = QueryEngine::with_cluster(make(), Default::default());
            let view = engine.register_view(&q, &db);
            let mut mirror = mirror0.clone();
            assert_eq!(
                engine.view(view).snapshot(),
                oracle_snapshot(&q, &mirror),
                "{label}/{backend}: registration diverged"
            );
            for (i, batch) in batches.iter().enumerate() {
                engine.apply_update(view, batch);
                batch.apply_to(&mut mirror);
                assert_eq!(
                    engine.view(view).snapshot(),
                    oracle_snapshot(&q, &mirror),
                    "{label}/{backend}: batch {i} diverged"
                );
            }
        }
    }
}
