//! Join-aggregate correctness across semirings: the Theorem-9 pipeline must
//! agree with a naive reference evaluator on randomized free-connex queries.

use std::collections::HashMap;

use acyclic_joins::instancegen::random;
use acyclic_joins::prelude::*;
use acyclic_joins::relation::ram;
use acyclic_joins::relation::semiring::{AnnRelation, BoolRing, CountRing, MinPlus, Semiring};
use aj_core::aggregate::{is_free_connex, join_aggregate};
use proptest::prelude::*;

/// Naive reference: enumerate the full join, then fold annotations.
fn reference<S: Semiring>(q: &Query, db: &[AnnRelation<S>], y: &[usize]) -> Vec<(Tuple, S::T)>
where
    S::T: std::fmt::Debug + PartialEq,
{
    let plain = Database::new(
        db.iter()
            .map(|r| {
                Relation::new(
                    r.attrs.clone(),
                    r.tuples.iter().map(|(t, _)| t.clone()).collect(),
                )
            })
            .collect(),
    );
    let (schema, results) = ram::join(q, &plain);
    let ypos: Vec<usize> = y
        .iter()
        .map(|a| schema.iter().position(|x| x == a).unwrap())
        .collect();
    let mut agg: HashMap<Tuple, S::T> = HashMap::new();
    for t in results {
        // ⊗ over the participating tuples of each relation.
        let mut w = S::one();
        for r in db {
            let pos: Vec<usize> = r
                .attrs
                .iter()
                .map(|a| schema.iter().position(|x| x == a).unwrap())
                .collect();
            let key = t.project(&pos);
            let (_, wt) = r
                .tuples
                .iter()
                .find(|(tt, _)| *tt == key)
                .expect("joined tuple exists in its relation");
            w = S::mul(w, *wt);
        }
        let yk = t.project(&ypos);
        match agg.remove(&yk) {
            Some(old) => {
                agg.insert(yk, S::add(old, w));
            }
            None => {
                agg.insert(yk, w);
            }
        }
    }
    let mut v: Vec<(Tuple, S::T)> = agg.into_iter().collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

fn annotated<S: Semiring>(
    db: &Database,
    seed: u64,
    mk: impl Fn(u64) -> S::T,
) -> Vec<AnnRelation<S>> {
    db.relations
        .iter()
        .enumerate()
        .map(|(e, r)| {
            AnnRelation::new(
                r.attrs.clone(),
                r.tuples
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (t.clone(), mk(seed ^ (e as u64) << 20 ^ i as u64)))
                    .collect(),
            )
        })
        .collect()
}

/// A free-connex output set for `q`: the attributes of one edge plus any
/// attrs whose addition keeps (V, E ∪ {y}) acyclic.
fn free_connex_y(q: &Query, seed: u64) -> Vec<usize> {
    let base = (seed as usize) % q.n_edges();
    let mut y: Vec<usize> = q.edge(base).attrs.clone();
    for a in 0..q.n_attrs() {
        if !y.contains(&a) {
            let mut cand = y.clone();
            cand.push(a);
            if is_free_connex(q, &cand) && seed.wrapping_mul(a as u64 + 3).is_multiple_of(3) {
                y = cand;
            }
        }
    }
    y.sort_unstable();
    y
}

/// `db` with dangling tuples planted in every relation: per attribute, a
/// copy of the relation's first tuple with that value made fresh (it misses
/// exactly the joins on that attribute, at whatever tree level or residual
/// they happen), plus one tuple of fresh values only. Fresh values differ
/// per relation and lie outside every instance's domain.
fn with_dangling(db: &Database) -> Database {
    let mut db = db.clone();
    for (e, r) in db.relations.iter_mut().enumerate() {
        let fresh = |i: usize| 1_000_000 + 100 * e as u64 + i as u64;
        let mut planted: Vec<Tuple> = Vec::new();
        if let Some(t) = r.tuples.first() {
            for i in 0..t.arity() {
                let mut v = t.values().to_vec();
                v[i] = fresh(i);
                planted.push(Tuple::new(v));
            }
        }
        planted.push(Tuple::new(
            (0..r.attrs.len())
                .map(|i| fresh(50 + i))
                .collect::<Vec<_>>(),
        ));
        r.tuples.extend(planted);
    }
    db
}

/// The Theorem-9 pipeline against the reference on `db` with dangling
/// tuples planted everywhere ([`with_dangling`]).
fn check<S: Semiring>(q: &Query, db: &Database, y: &[usize], seed: u64, mk: impl Fn(u64) -> S::T)
where
    S::T: std::fmt::Debug + PartialEq + aj_mpc::Wire,
{
    let ann = annotated::<S>(&with_dangling(db), seed, mk);
    let want = reference::<S>(q, &ann, y);
    let mut cluster = Cluster::new(4);
    let got = {
        let mut net = cluster.net();
        let mut s = seed | 1;
        join_aggregate::<S>(&mut net, q, &ann, y, &mut s).expect("free-connex")
    };
    // Output attribute order may differ; normalize to sorted-y projection.
    let mut sorted_attrs = got.attrs.clone();
    sorted_attrs.sort_unstable();
    assert_eq!(sorted_attrs, y, "output schema mismatch");
    let order: Vec<usize> = y
        .iter()
        .map(|a| got.attrs.iter().position(|x| x == a).unwrap())
        .collect();
    let mut got: Vec<(Tuple, S::T)> = got
        .gather_free()
        .into_iter()
        .map(|(t, w)| (t.project(&order), w))
        .collect();
    got.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(got, want, "query {q}, y {y:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn count_ring_matches_reference(seed in 0u64..3000, m in 2usize..4) {
        let q = random::random_acyclic_query(m, seed);
        let db = random::random_instance(&q, 18, 4, seed ^ 0x9e37);
        let y = free_connex_y(&q, seed);
        prop_assume!(is_free_connex(&q, &y));
        check::<CountRing>(&q, &db, &y, seed, |s| 1 + s % 5);
    }

    #[test]
    fn bool_ring_matches_reference(seed in 0u64..3000, m in 2usize..4) {
        let q = random::random_acyclic_query(m, seed);
        let db = random::random_instance(&q, 18, 4, seed ^ 0x1234);
        let y = free_connex_y(&q, seed);
        prop_assume!(is_free_connex(&q, &y));
        check::<BoolRing>(&q, &db, &y, seed, |s| s % 3 != 0);
    }

    #[test]
    fn min_plus_matches_reference(seed in 0u64..3000, m in 2usize..4) {
        let q = random::random_acyclic_query(m, seed);
        let db = random::random_instance(&q, 18, 4, seed ^ 0x4321);
        let y = free_connex_y(&q, seed);
        prop_assume!(is_free_connex(&q, &y));
        check::<MinPlus>(&q, &db, &y, seed, |s| s % 100);
    }

    /// The scalar case (y = ∅), dangling tuples planted, equals the oracle
    /// count under CountRing.
    #[test]
    fn scalar_count_matches_oracle(seed in 0u64..3000, m in 2usize..5) {
        let q = random::random_acyclic_query(m, seed);
        let db = with_dangling(&random::random_instance(&q, 20, 4, seed ^ 0x8888));
        let want = ram::count(&q, &db);
        let ann: Vec<AnnRelation<CountRing>> =
            db.relations.iter().map(AnnRelation::from_relation).collect();
        let mut cluster = Cluster::new(4);
        let got = {
            let mut net = cluster.net();
            let mut s = seed | 1;
            join_aggregate::<CountRing>(&mut net, &q, &ann, &[], &mut s).unwrap()
        };
        let all = got.gather_free();
        let scalar = all.first().map(|&(_, w)| w).unwrap_or(0);
        prop_assert_eq!(scalar, want);
    }
}
