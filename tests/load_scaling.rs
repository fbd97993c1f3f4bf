//! Load-shape assertions: the headline claims of the paper, checked as
//! inequalities on measured loads (constant factors are generous; the
//! *shapes* are what the paper predicts).

use acyclic_joins::core::dist::distribute_db;
use acyclic_joins::core::hypercube::worst_case_join;
use acyclic_joins::core::{acyclic, aggregate, bounds, line3, yannakakis};
use acyclic_joins::instancegen::{fig3, fig6};
use acyclic_joins::prelude::*;

fn measure(p: usize, f: impl FnOnce(&mut acyclic_joins::mpc::Net)) -> u64 {
    let mut cluster = Cluster::new(p);
    {
        let mut net = cluster.net();
        f(&mut net);
    }
    cluster.stats().max_load
}

/// Theorem 5 separation: on two-sided Figure-3 instances the line-3
/// algorithm beats every Yannakakis order, and the gap grows with OUT.
#[test]
fn theorem5_beats_yannakakis_with_growing_gap() {
    let p = 16;
    let mut gaps = Vec::new();
    for factor in [8u64, 64] {
        let inst = fig3::two_sided(512, 512 * factor);
        let ours = measure(p, |net| {
            let mut s = 3;
            line3::solve(net, &inst.query, distribute_db(&inst.db, p), &mut s);
        });
        let yan = measure(p, |net| {
            let mut s = 3;
            yannakakis::yannakakis(net, &inst.query, distribute_db(&inst.db, p), None, &mut s);
        });
        assert!(
            ours < yan,
            "line3 {ours} !< yannakakis {yan} at factor {factor}"
        );
        gaps.push(yan as f64 / ours as f64);
    }
    assert!(
        gaps[1] > gaps[0],
        "gap must grow with OUT: {gaps:?} (≈ √(OUT/IN) predicted)"
    );
}

/// Theorem 7 load stays within a constant of IN/p + √(IN·OUT)/p across the
/// OUT sweep.
#[test]
fn theorem7_tracks_bound() {
    let p = 16;
    for factor in [4u64, 32] {
        let inst = fig3::two_sided(512, 512 * factor);
        let in_size = inst.db.input_size() as u64;
        let load = measure(p, |net| {
            let mut s = 3;
            acyclic::solve(net, &inst.query, distribute_db(&inst.db, p), &mut s);
        });
        let bound = bounds::acyclic_bound(in_size, inst.out, p);
        assert!(
            (load as f64) <= 8.0 * bound,
            "Thm7 load {load} exceeds 8×bound {bound} at factor {factor}"
        );
    }
}

/// Corollary 4: counting the output is linear-load even when OUT explodes.
#[test]
fn corollary4_output_size_linear_load() {
    let p = 8;
    let q = acyclic_joins::instancegen::line_query(3);
    let n = 512u64;
    // Full bipartite middle: OUT = n².
    let db = acyclic_joins::relation::database_from_rows(
        &q,
        &[
            (0..n).map(|i| vec![i, 0]).collect(),
            vec![vec![0, 0]],
            (0..n).map(|i| vec![0, i]).collect(),
        ],
    );
    let in_per_p = db.input_size() as u64 / p as u64;
    let mut cluster = Cluster::new(p);
    let out = {
        let mut net = cluster.net();
        let mut s = 5;
        aggregate::output_size(&mut net, &q, &distribute_db(&db, p), &mut s)
    };
    assert_eq!(out, n * n);
    assert!(
        cluster.stats().max_load <= 4 * in_per_p.max(p as u64),
        "counting load {} is not linear (IN/p = {in_per_p})",
        cluster.stats().max_load
    );
}

/// Section 7: the triangle's HyperCube load is flat in OUT (output
/// insensitive), unlike acyclic joins.
#[test]
fn triangle_load_is_output_insensitive() {
    let p = 27;
    let n = 729u64;
    let mut loads = Vec::new();
    for tau in [1u64, 27] {
        let inst = fig6::generate(n, n * tau, 3 + tau);
        let load = measure(p, |net| {
            worst_case_join(net, &inst.query, distribute_db(&inst.db, p), 7);
        });
        loads.push(load as f64);
    }
    // 27× more output, load within 2×.
    let ratio = loads[1] / loads[0];
    assert!(
        (0.3..3.0).contains(&ratio),
        "triangle load should be flat in OUT, got ratio {ratio} ({loads:?})"
    );
}

/// The MPC model sanity: more servers ⇒ (weakly) less load per server on a
/// balanced instance.
#[test]
fn load_decreases_with_p() {
    let inst = fig3::one_sided(512, 4096);
    let mut prev = u64::MAX;
    for p in [4usize, 16, 64] {
        let load = measure(p, |net| {
            let mut s = 3;
            acyclic::solve(net, &inst.query, distribute_db(&inst.db, p), &mut s);
        });
        assert!(
            load <= prev,
            "load should not grow with p: p={p} gave {load}, prev {prev}"
        );
        prev = load;
    }
}

/// The headline skew claim: on a Zipf(1.1) binary-join instance, the
/// skew-aware hybrid's measured max load is at most **half** the hash-only
/// path's. Detection runs in its own stats epoch (the engine's planning
/// phase), so the comparison is between the join rounds proper — and the
/// detection's own load is checked to stay below the join's.
#[test]
fn hybrid_routing_halves_hash_load_on_zipf() {
    use acyclic_joins::core::binary::{detect_join_skew, hash_join, hybrid_hash_join};
    let p = 32;
    let inst = acyclic_joins::instancegen::skew::zipf_binary(8_000, 1.1, 64, 0xbead + 2);
    let sides = || {
        (
            acyclic_joins::core::DistRelation::distribute(&inst.db.relations[0], p),
            acyclic_joins::core::DistRelation::distribute(&inst.db.relations[1], p),
        )
    };
    let hash_load = measure(p, |net| {
        let (left, right) = sides();
        let mut seed = 7;
        hash_join(net, left, right, &mut seed);
    });
    let mut cluster = Cluster::new(p);
    let (skew, detect_epoch) = {
        let skew = {
            let mut net = cluster.net();
            let (left, right) = sides();
            detect_join_skew(&mut net, &left, &right, 16).significant(p)
        };
        (skew, cluster.epoch())
    };
    assert!(skew.is_skewed(), "Zipf(1.1) must trip the detector");
    let hybrid_out = {
        let mut net = cluster.net();
        let (left, right) = sides();
        let mut seed = 7;
        hybrid_hash_join(&mut net, left, right, &skew, &mut seed)
    };
    let hybrid_load = cluster.epoch().max_load;
    assert!(
        2 * hybrid_load <= hash_load,
        "hybrid load {hybrid_load} must be at most half of hash-only {hash_load}"
    );
    assert!(
        detect_epoch.max_load < hybrid_load,
        "detection ({}) must be cheaper than the join ({hybrid_load})",
        detect_epoch.max_load
    );
    // Same join, same answer: the hash path's output count matches.
    let hash_out = {
        let mut c = Cluster::new(p);
        let out = {
            let mut net = c.net();
            let (left, right) = sides();
            let mut seed = 7;
            hash_join(&mut net, left, right, &mut seed)
        };
        out.total_len()
    };
    assert_eq!(hybrid_out.total_len(), hash_out);
}

/// Broadcast-style replicas of the hybrid routing are charged to the
/// receiving server's epoch exactly once: the epoch's total messages equal
/// the number of delivered rows (each replica is one unit at its receiver,
/// never double-counted).
#[test]
fn hybrid_replicas_charged_once_per_receiver() {
    use acyclic_joins::core::binary::{detect_join_skew, hybrid_hash_join};
    use acyclic_joins::relation::Tuple;
    let p = 4;
    // One heavy key with known degrees: a = b = 60, plus 20 light rows/side.
    let mut rows1: Vec<Tuple> = (0..60).map(|i| Tuple::from([i, 9])).collect();
    rows1.extend((0..20).map(|i| Tuple::from([100 + i, 10 + i % 10])));
    let mut rows2: Vec<Tuple> = (0..60).map(|i| Tuple::from([9, 500 + i])).collect();
    rows2.extend((0..20).map(|i| Tuple::from([10 + i % 10, 700 + i])));
    let left = acyclic_joins::relation::Relation::new(vec![0, 1], rows1);
    let right = acyclic_joins::relation::Relation::new(vec![1, 2], rows2);
    let mut cluster = Cluster::new(p);
    let skew = {
        let mut net = cluster.net();
        let l = acyclic_joins::core::DistRelation::distribute(&left, p);
        let r = acyclic_joins::core::DistRelation::distribute(&right, p);
        detect_join_skew(&mut net, &l, &r, 8).significant(p)
    };
    cluster.begin_epoch();
    {
        let mut net = cluster.net();
        let l = acyclic_joins::core::DistRelation::distribute(&left, p);
        let r = acyclic_joins::core::DistRelation::distribute(&right, p);
        let mut seed = 3;
        hybrid_hash_join(&mut net, l, r, &skew, &mut seed);
    }
    let epoch = cluster.epoch();
    // Expected delivered rows: per side, heavy rows appear once per grid
    // replica, light rows exactly once. Reconstruct the replica count from
    // the profile the router used.
    let (a, b) = (
        skew.left.count_of(&[9]).expect("heavy on the left"),
        skew.right.count_of(&[9]).expect("heavy on the right"),
    );
    let load = acyclic_joins::relation::skew::target_cell_load(&skew, p);
    let (rows, cols) = acyclic_joins::relation::skew::grid_split(a, b, load);
    let expected = (60 * cols + 20) + (60 * rows + 20);
    assert_eq!(
        epoch.total_messages, expected,
        "every replica charged exactly once at its receiver"
    );
}

/// Instance-optimality (Theorem 3) vs output-optimality: on a skewed star
/// instance, the Theorem-3 load stays within a constant of L_instance.
#[test]
fn theorem3_instance_optimal_on_skew() {
    let p = 16;
    let q = acyclic_joins::instancegen::shapes::star_query(2);
    let n = 512u64;
    let mut rows1: Vec<Vec<u64>> = (0..n / 2).map(|i| vec![0, i]).collect();
    rows1.extend((0..n / 2).map(|i| vec![1 + i % 32, 10_000 + i]));
    let mut rows2: Vec<Vec<u64>> = (0..n / 2).map(|i| vec![0, 20_000 + i]).collect();
    rows2.extend((0..n / 2).map(|i| vec![1 + i % 32, 30_000 + i]));
    let db = acyclic_joins::relation::database_from_rows(&q, &[rows1, rows2]);
    let l_inst = db.input_size() as f64 / p as f64 + bounds::l_instance(&q, &db, p);
    let load = measure(p, |net| {
        let mut s = 3;
        acyclic_joins::core::hierarchical::solve(net, &q, distribute_db(&db, p), &mut s);
    });
    assert!(
        (load as f64) <= 10.0 * l_inst,
        "Thm3 load {load} far above instance bound {l_inst}"
    );
}
