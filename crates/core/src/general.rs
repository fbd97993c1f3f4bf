//! General (cyclic) join queries via GHD bag evaluation — Section 6's
//! decomposition machinery extended beyond the free-connex width-1 case.
//!
//! [`aj_relation::Ghd`] partitions a connected query's edges into bags
//! whose attribute sets form an α-acyclic hypergraph. Evaluation is then
//! two phases:
//!
//! 1. **Bag materialization** — every multi-edge bag is one worst-case
//!    HyperCube round ([`crate::hypercube::worst_case_join`]: the bag's own
//!    worst-case-optimal shares, each grid cell finished by the pairwise
//!    join); single-edge bags pass through free of charge (column
//!    normalization only). Because the bags *partition* the edge set and
//!    nothing is projected away, every bag tuple has derivation count
//!    exactly 1 — bag relations are plain sets.
//! 2. **Acyclic finish** — the bag-level query (one synthetic edge per
//!    bag) is served by the existing Yannakakis pipeline over the
//!    materialized bags: full reduction, then the join-tree cascade.
//!
//! Load: `Σ_b` (bag HyperCube load) `+` acyclic cost over the bag relations —
//! the closed-form estimate the planner prices as [`crate::planner::Plan::Ghd`]
//! against whole-query HyperCube. The GHD route wins exactly on "cyclic
//! core + acyclic appendage" shapes, where whole-query HyperCube must
//! replicate the appendage relations across the grid dimensions they do
//! not fix.

use aj_relation::{EdgeSet, Ghd, Query};

use crate::dist::{next_seed, DistDatabase, DistRelation};
use crate::hypercube::worst_case_join;
use crate::yannakakis::yannakakis;

/// Evaluate any connected join query through its GHD bag tree.
///
/// Output columns are the occurring attributes in ascending order — the
/// same format as [`crate::hypercube::hypercube_join`], so planner
/// arms are interchangeable.
///
/// # Panics
/// Panics on disconnected queries (callers split on
/// [`Query::connected_components`] first, as everywhere in the engine).
pub fn solve(net: &mut aj_mpc::Net, q: &Query, dist: DistDatabase, seed: &mut u64) -> DistRelation {
    let ghd = Ghd::build(q).expect("general::solve requires a connected query");
    solve_with(net, q, &ghd, dist, seed)
}

/// [`solve`] with a pre-built decomposition (the engine caches the GHD in
/// its planning artifacts; the delta subsystem re-uses it for maintenance).
pub fn solve_with(
    net: &mut aj_mpc::Net,
    q: &Query,
    ghd: &Ghd,
    dist: DistDatabase,
    seed: &mut u64,
) -> DistRelation {
    let bag_db = materialize_bags(net, q, ghd, &dist, seed);
    let bag_q = ghd.bag_query(q);
    yannakakis(net, &bag_q, bag_db, None, seed)
}

/// Materialize every bag of `ghd` as a distributed relation (columns in
/// ascending attribute order, matching `ghd.bag_query(q)`'s layouts).
/// Multi-edge bags cost one worst-case HyperCube round each; single-edge
/// bags are free.
fn materialize_bags(
    net: &mut aj_mpc::Net,
    q: &Query,
    ghd: &Ghd,
    dist: &DistDatabase,
    seed: &mut u64,
) -> DistDatabase {
    ghd.edges_of
        .iter()
        .enumerate()
        .map(|(bag, es)| {
            let rel = if let [e] = es[..] {
                // A single-edge bag is the relation itself; normalizing the
                // column order is a free local operation.
                dist[e].normalized()
            } else {
                let (sub_q, kept) = q.restrict(EdgeSet::from_iter(es.iter().copied()));
                let sub_dist: DistDatabase = kept.iter().map(|&e| dist[e].clone()).collect();
                worst_case_join(net, &sub_q, sub_dist, next_seed(seed))
            };
            if net.tracing_enabled() {
                net.trace_event(aj_obs::Event::BagMaterialized {
                    bag: bag as u64,
                    edges: es.len() as u64,
                    rows: rel.total_len() as u64,
                });
            }
            rel
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use aj_mpc::Cluster;
    use aj_relation::{database_from_rows, ram, QueryBuilder, Tuple};

    fn four_cycle() -> Query {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        b.relation("R4", &["D", "A"]);
        b.build()
    }

    fn pair(n: u64, k: u64, m: u64) -> Vec<Vec<u64>> {
        (0..n)
            .flat_map(|x| {
                (0..n)
                    .filter(move |y| (x * k + y).is_multiple_of(m))
                    .map(move |y| vec![x, y])
            })
            .collect()
    }

    fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
        v.sort_unstable();
        v
    }

    #[test]
    fn four_cycle_matches_oracle() {
        let q = four_cycle();
        let db = database_from_rows(
            &q,
            &[
                pair(14, 2, 3),
                pair(14, 3, 3),
                pair(14, 5, 4),
                pair(14, 7, 4),
            ],
        );
        let want = ram::naive_join(&q, &db);
        let mut cluster = Cluster::new(8);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, 8);
            let mut seed = 21;
            solve(&mut net, &q, dist, &mut seed)
        };
        assert_eq!(sorted(out.gather_free().tuples), want);
    }

    #[test]
    fn triangle_with_tail_matches_oracle() {
        // Cyclic core + acyclic appendage: the shape the GHD plan exists for.
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "A"]);
        b.relation("R4", &["C", "D"]);
        b.relation("R5", &["D", "E"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                pair(10, 1, 2),
                pair(10, 3, 2),
                pair(10, 5, 3),
                pair(10, 7, 3),
                pair(10, 9, 2),
            ],
        );
        let want = ram::naive_join(&q, &db);
        let mut cluster = Cluster::new(8);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, 8);
            let mut seed = 33;
            solve(&mut net, &q, dist, &mut seed)
        };
        assert_eq!(sorted(out.gather_free().tuples), want);
    }

    #[test]
    fn acyclic_query_through_bags_matches_oracle() {
        // One bag per edge: degenerates to plain Yannakakis.
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        let q = b.build();
        let db = database_from_rows(&q, &[pair(12, 1, 3), pair(12, 2, 3), pair(12, 3, 4)]);
        let (_, want) = ram::join(&q, &db);
        let mut cluster = Cluster::new(4);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, 4);
            let mut seed = 7;
            solve(&mut net, &q, dist, &mut seed)
        };
        assert_eq!(sorted(out.gather_free().tuples), sorted(want));
    }

    #[test]
    fn empty_bag_gives_empty_output() {
        let q = four_cycle();
        let db = database_from_rows(
            &q,
            &[vec![vec![1, 2]], vec![], vec![vec![3, 4]], vec![vec![4, 1]]],
        );
        let mut cluster = Cluster::new(4);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, 4);
            let mut seed = 3;
            solve(&mut net, &q, dist, &mut seed)
        };
        assert_eq!(out.total_len(), 0);
    }
}
