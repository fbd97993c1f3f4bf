//! Executor equivalence: `SeqExecutor` and `ParExecutor` must produce
//! identical join outputs and identical `Stats` (max load included) on
//! random instances from `aj_instancegen` — the guarantee that makes the
//! parallel executor safe to use for every load measurement in this
//! repository.
//!
//! The parallel cluster is forced to 4 worker threads so genuine
//! concurrency is exercised even on single-core CI hosts.

use acyclic_joins::core::dist::distribute_db;
use acyclic_joins::core::{acyclic, hierarchical, planner, yannakakis, DistDatabase, DistRelation};
use acyclic_joins::instancegen::random;
use acyclic_joins::mpc::{Cluster, Net, ParExecutor, Stats};
use acyclic_joins::prelude::*;
use proptest::prelude::*;

/// Run `f` on a sequential and on a (4-thread) parallel cluster; return both
/// sorted outputs and both stats.
fn both_executors(
    p: usize,
    q: &Query,
    db: &Database,
    f: impl Fn(&mut Net, &Query, DistDatabase) -> DistRelation,
) -> ((Vec<Tuple>, Stats), (Vec<Tuple>, Stats)) {
    let run = |mut cluster: Cluster| {
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(db, p);
            f(&mut net, q, dist)
        };
        let mut tuples = out.gather_free().tuples;
        tuples.sort_unstable();
        (tuples, cluster.stats().clone())
    };
    let seq = run(Cluster::new(p));
    let par = run(Cluster::with_executor(
        p,
        Box::new(ParExecutor::with_threads(4)),
    ));
    (seq, par)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Theorem-7 (acyclic) solver: identical outputs and identical stats —
    /// exchanges, max load, total messages, per-server peaks.
    #[test]
    fn acyclic_solver_equivalent(seed in 0u64..4000, m in 2usize..5, p in 2usize..6) {
        let q = random::random_acyclic_query(m, seed);
        let db = random::random_instance(&q, 25, 5, seed ^ 0x00e1);
        let ((seq_out, seq_stats), (par_out, par_stats)) =
            both_executors(p, &q, &db, |net, q, dist| {
                let mut s = seed | 1;
                acyclic::solve(net, q, dist, &mut s)
            });
        prop_assert_eq!(seq_out, par_out);
        prop_assert_eq!(seq_stats, par_stats);
    }

    /// Yannakakis baseline: same equivalence.
    #[test]
    fn yannakakis_equivalent(seed in 0u64..4000, m in 2usize..5) {
        let q = random::random_acyclic_query(m, seed);
        let db = random::random_instance(&q, 30, 6, seed ^ 0x00e2);
        let ((seq_out, seq_stats), (par_out, par_stats)) =
            both_executors(4, &q, &db, |net, q, dist| {
                let mut s = seed | 1;
                yannakakis::yannakakis(net, q, dist, None, &mut s)
            });
        prop_assert_eq!(seq_out, par_out);
        prop_assert_eq!(seq_stats, par_stats);
    }

    /// The planner (whatever algorithm it dispatches to): same equivalence,
    /// and both executors agree with the RAM oracle.
    #[test]
    fn planner_equivalent_and_correct(seed in 0u64..4000, m in 1usize..5) {
        let q = random::random_acyclic_query(m, seed);
        let db = random::random_instance(&q, 20, 4, seed ^ 0x00e3);
        let ((seq_out, seq_stats), (par_out, par_stats)) =
            both_executors(4, &q, &db, |net, q, dist| {
                let mut s = seed | 1;
                planner::execute(net, Plan::for_class(classify(q)), q, dist, &mut s)
            });
        let (_, mut want) = acyclic_joins::relation::ram::join(&q, &db);
        want.sort_unstable();
        prop_assert_eq!(&seq_out, &want);
        prop_assert_eq!(seq_out, par_out);
        prop_assert_eq!(seq_stats, par_stats);
    }
}

/// Theorem-3 (r-hierarchical) solver on its deterministic corpus.
#[test]
fn hierarchical_solver_equivalent_on_corpus() {
    let corpus: Vec<Query> = vec![
        acyclic_joins::instancegen::shapes::rh_example_query(),
        acyclic_joins::instancegen::shapes::star_query(3),
        acyclic_joins::instancegen::shapes::tall_flat_q1(),
        acyclic_joins::instancegen::shapes::hierarchical_q2(),
        acyclic_joins::instancegen::shapes::cartesian_query(3),
    ];
    for (i, q) in corpus.iter().enumerate() {
        for seed in [1u64, 9, 33] {
            let db = random::random_instance(q, 25, 4, seed.wrapping_add(i as u64 * 131));
            let ((seq_out, seq_stats), (par_out, par_stats)) =
                both_executors(4, q, &db, |net, q, dist| {
                    let mut s = seed | 1;
                    hierarchical::solve(net, q, dist, &mut s)
                });
            assert_eq!(seq_out, par_out, "query {q}, seed {seed}");
            assert_eq!(seq_stats, par_stats, "query {q}, seed {seed}");
        }
    }
}

/// The persistent worker pool must behave identically across its whole
/// lifetime: one `ParExecutor` (and a clone sharing the same parked pool)
/// drives many queries back to back on long-lived clusters, and every
/// query's output and stats must match a fresh sequential cluster's.
#[test]
fn persistent_pool_serves_many_queries_bit_identically() {
    let p = 4;
    let exec = ParExecutor::with_threads(4);
    let mut par_a = Cluster::with_executor(p, Box::new(exec.clone()));
    let mut par_b = Cluster::with_executor(p, Box::new(exec)); // shares the pool
    for round in 0..12u64 {
        let q = random::random_acyclic_query(3, round * 17 + 1);
        let db = random::random_instance(&q, 30, 5, round ^ 0x5eed);
        let run_on = |cluster: &mut Cluster| {
            cluster.begin_epoch();
            let out = {
                let mut net = cluster.net();
                let dist = distribute_db(&db, p);
                let mut s = round | 1;
                yannakakis::yannakakis(&mut net, &q, dist, None, &mut s)
            };
            let mut tuples = out.gather_free().tuples;
            tuples.sort_unstable();
            (tuples, cluster.epoch())
        };
        let mut seq = Cluster::new(p);
        let (seq_out, seq_epoch) = run_on(&mut seq);
        let which = if round % 2 == 0 {
            &mut par_a
        } else {
            &mut par_b
        };
        let (par_out, par_epoch) = run_on(which);
        assert_eq!(seq_out, par_out, "round {round}");
        assert_eq!(seq_epoch, par_epoch, "round {round}");
    }
}

/// The per-round load trace (not just the final max) must be identical:
/// exercise it by comparing stats after every intermediate step of a
/// multi-step pipeline on a skewed instance.
#[test]
fn skewed_binary_join_equivalent_with_grid_routing() {
    let (q, db) = random::skewed_binary(400, 0.3, 32, 7);
    let run = |mut cluster: Cluster| {
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, 8);
            let mut s = 3;
            let mut it = dist.into_iter();
            let left = it.next().unwrap();
            let right = it.next().unwrap();
            acyclic_joins::core::binary::binary_join(&mut net, left, right, &mut s)
        };
        let mut tuples = out.gather_free().tuples;
        tuples.sort_unstable();
        (tuples, cluster.stats().clone())
    };
    let (seq_out, seq_stats) = run(Cluster::new(8));
    let (par_out, par_stats) = run(Cluster::with_executor(
        8,
        Box::new(ParExecutor::with_threads(4)),
    ));
    let _ = q;
    assert_eq!(seq_out, par_out);
    assert_eq!(seq_stats, par_stats);
}

/// The skew-aware path end to end — heavy-hitter detection, the hybrid
/// binary join, and the skew-aware HyperCube — must be bit-identical across
/// executors on a Zipf instance: same profiles, same outputs, same stats.
#[test]
fn skew_aware_path_equivalent_on_zipf() {
    use acyclic_joins::core::binary::{detect_join_skew, hybrid_hash_join};
    use acyclic_joins::core::hypercube::{
        detect_hypercube_skew, hypercube_join_skew, worst_case_shares,
    };
    let p = 8;
    // Binary hybrid.
    let inst = acyclic_joins::instancegen::skew::zipf_binary(1200, 1.1, 32, 77);
    let run_binary = |mut cluster: Cluster| {
        let out = {
            let mut net = cluster.net();
            let left = DistRelation::distribute(&inst.db.relations[0], p);
            let right = DistRelation::distribute(&inst.db.relations[1], p);
            let skew = detect_join_skew(&mut net, &left, &right, 8).significant(p);
            let mut seed = 5;
            hybrid_hash_join(&mut net, left, right, &skew, &mut seed)
        };
        let mut tuples = out.gather_free().tuples;
        tuples.sort_unstable();
        (tuples, cluster.stats().clone())
    };
    let (seq_out, seq_stats) = run_binary(Cluster::new(p));
    let (par_out, par_stats) = run_binary(Cluster::with_executor(
        p,
        Box::new(ParExecutor::with_threads(4)),
    ));
    assert_eq!(seq_out, par_out);
    assert_eq!(seq_stats, par_stats);
    // Skew-aware HyperCube.
    let tri = acyclic_joins::instancegen::skew::zipf_triangle(900, 1.1, 450, 78);
    let run_triangle = |mut cluster: Cluster| {
        let sizes: Vec<u64> = tri.db.relations.iter().map(|r| r.len() as u64).collect();
        let shares = worst_case_shares(&tri.query, &sizes, p);
        let in_size = tri.db.input_size() as u64;
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(&tri.db, p);
            let skew = detect_hypercube_skew(
                &mut net,
                &tri.query,
                &dist,
                &shares,
                8,
                in_size / (3 * p as u64),
            );
            hypercube_join_skew(&mut net, &tri.query, dist, &shares, &skew, 9)
        };
        let mut tuples = out.gather_free().tuples;
        tuples.sort_unstable();
        (tuples, cluster.stats().clone())
    };
    let (seq_out, seq_stats) = run_triangle(Cluster::new(p));
    let (par_out, par_stats) = run_triangle(Cluster::with_executor(
        p,
        Box::new(ParExecutor::with_threads(4)),
    ));
    assert_eq!(seq_out, par_out);
    assert_eq!(seq_stats, par_stats);
}
