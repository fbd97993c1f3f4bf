//! The **line-3 join** algorithm (Theorem 5, Section 4.2):
//! `R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D)` with load `O(IN/p + √(IN·OUT)/p)`.
//!
//! One counted full reduce removes the dangling tuples and yields `OUT`
//! (Corollary 4: its bottom-up sweep is the counting sweep, so `OUT` costs
//! one coordinator call on top). `B` values with degree > `τ = √(OUT/IN)`
//! in `R1` are *heavy*. The join is decomposed into
//!
//! ```text
//! Q1 = R1^H ⋈ (R2^H ⋈ R3)      // heavy B: |R2^H ⋈ R3| ≤ OUT/τ
//! Q2 = (R1^L ⋈ R2^L) ⋈ R3      // light B: |R1^L ⋈ R2^L| ≤ IN·τ
//! ```
//!
//! and each part is evaluated with the output-optimal binary join in the
//! order that keeps its intermediate small — the paper's key observation
//! that join order matters in MPC even though it does not in RAM.
//!
//! By Theorem 6 the worst-case-optimal one-round join
//! ([`crate::hypercube::worst_case_join`], load `O(IN/√p)`) is
//! output-optimal once `OUT ≥ p·IN`; with [`solve`] (optimal for
//! `OUT ≤ p·IN`) it completes the paper's "complete understanding of the
//! line-3 join" (end of Section 4.3).

use aj_mpc::Net;
use aj_relation::{Attr, Query};

use crate::binary::binary_join;
use crate::dist::{
    burn_count_draws, degrees_of, dist_full_reduce_counted, next_seed, partition_by,
    split_by_degree, DistDatabase, DistRelation,
};

/// The heavy/light threshold `τ = max(1, ⌈√(OUT/IN)⌉)`.
pub fn tau(in_size: u64, out_size: u64) -> u64 {
    (((out_size as f64) / (in_size.max(1) as f64)).sqrt().ceil() as u64).max(1)
}

/// Solve a line-3 join (Theorem 5). The query must have the shape
/// `R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D)` (attribute names are irrelevant; the chain
/// structure is inferred from the shared attributes).
pub fn solve(net: &mut Net, q: &Query, db: DistDatabase, seed: &mut u64) -> DistRelation {
    assert_eq!(q.n_edges(), 3, "line-3 join has exactly three relations");
    let shared_01: Vec<Attr> = db[0].shared_attrs(&db[1]);
    let shared_12: Vec<Attr> = db[1].shared_attrs(&db[2]);
    assert!(
        !shared_01.is_empty() && !shared_12.is_empty(),
        "relations must be given in chain order R1–R2–R3"
    );
    // Step 0: preprocessing.
    let counted = dist_full_reduce_counted(net, q, db, next_seed(seed));
    let in_size: u64 = counted.db.iter().map(|r| r.total_len() as u64).sum();
    if in_size == 0 {
        return crate::hierarchical::empty_output(q, net.p());
    }
    let out_size = counted.out(net);
    burn_count_draws(q.n_edges(), seed);
    let threshold = tau(in_size, out_size);

    let [r1, r2, r3]: [DistRelation; 3] = counted.db.try_into().ok().unwrap();

    // Step 1: classify B values by their degree in R1.
    let (r1_heavy, r1_light) = split_by_degree(net, r1, &shared_01, threshold, next_seed(seed));
    // R2 splits by the same heavy-B set: a B value is heavy iff its degree in
    // R1 exceeds τ, so split R2 against R1's degrees.
    let maps = degrees_of(net, &r1_heavy, &shared_01, &r2, &shared_01, next_seed(seed));
    let (r2_heavy, r2_light) = partition_by(net, r2, &shared_01, maps, |d| d > 0);

    // Step 2, part Q1 = R1^H ⋈ (R2^H ⋈ R3).
    let r23 = binary_join(net, r2_heavy, r3.clone(), seed);
    let q1 = binary_join(net, r1_heavy, r23, seed);
    // Step 2, part Q2 = (R1^L ⋈ R2^L) ⋈ R3.
    let r12 = binary_join(net, r1_light, r2_light, seed);
    let q2 = binary_join(net, r12, r3, seed);

    q1.normalized().union(q2.normalized())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use crate::hypercube::worst_case_join;
    use aj_instancegen::fig3;
    use aj_mpc::Cluster;
    use aj_relation::{database_from_rows, ram, Database, Tuple};

    fn run(p: usize, q: &Query, db: &Database) -> (Vec<Tuple>, u64) {
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(db, p);
            let mut seed = 7;
            solve(&mut net, q, dist, &mut seed)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        (got, cluster.stats().max_load)
    }

    fn oracle(q: &Query, db: &Database) -> Vec<Tuple> {
        let (_, mut t) = ram::join(q, db);
        t.sort_unstable();
        t
    }

    #[test]
    fn small_instance_matches_oracle() {
        let q = aj_instancegen::line_query(3);
        let db = database_from_rows(
            &q,
            &[
                (0..40).map(|i| vec![i, i % 6]).collect(),
                (0..30).map(|i| vec![i % 6, i % 10]).collect(),
                (0..20).map(|i| vec![i % 10, i]).collect(),
            ],
        );
        let (got, _) = run(4, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn fig3_one_sided_matches_oracle() {
        let inst = fig3::one_sided(64, 512);
        let (got, _) = run(8, &inst.query, &inst.db);
        assert_eq!(got.len() as u64, inst.out);
        assert_eq!(got, oracle(&inst.query, &inst.db));
    }

    #[test]
    fn fig3_two_sided_matches_oracle() {
        let inst = fig3::two_sided(48, 384);
        let (got, _) = run(8, &inst.query, &inst.db);
        assert_eq!(got.len() as u64, inst.out);
        assert_eq!(got, oracle(&inst.query, &inst.db));
    }

    #[test]
    fn no_duplicates() {
        let inst = fig3::two_sided(32, 256);
        let (got, _) = run(4, &inst.query, &inst.db);
        let mut d = got.clone();
        d.dedup();
        assert_eq!(d.len(), got.len());
    }

    #[test]
    fn tau_formula() {
        assert_eq!(tau(100, 100), 1);
        assert_eq!(tau(100, 400), 2);
        assert_eq!(tau(100, 10_000), 10);
        assert_eq!(tau(0, 5), 3); // degenerate guard
    }

    #[test]
    fn worst_case_variant_matches_oracle() {
        // Theorem 6's other half on line-3: the worst-case join on the
        // Figure-3 instance (OUT ≤ p·IN) and a full bipartite middle
        // (OUT = n² ≫ p·IN, the regime where it is output-optimal).
        let inst = fig3::two_sided(48, 384);
        let n = 48u64;
        let huge = database_from_rows(
            &inst.query,
            &[
                (0..n).map(|i| vec![i, 0]).collect(),
                vec![vec![0, 0]],
                (0..n).map(|i| vec![0, i]).collect(),
            ],
        );
        for db in [&inst.db, &huge] {
            let mut cluster = Cluster::new(9);
            let out = {
                let mut net = cluster.net();
                worst_case_join(&mut net, &inst.query, distribute_db(db, 9), 5)
            };
            let mut got = out.gather_free().tuples;
            got.sort_unstable();
            assert_eq!(got, oracle(&inst.query, db));
        }
    }

    #[test]
    fn worst_case_load_flat_in_out() {
        // The IN/√p load does not depend on OUT.
        let p = 16;
        let mut loads = Vec::new();
        for factor in [2u64, 32] {
            let inst = fig3::two_sided(256, 256 * factor);
            let mut cluster = Cluster::new(p);
            {
                let mut net = cluster.net();
                worst_case_join(&mut net, &inst.query, distribute_db(&inst.db, p), 5);
            }
            loads.push(cluster.stats().max_load as f64);
        }
        let ratio = loads[1] / loads[0];
        assert!(
            (0.5..2.0).contains(&ratio),
            "worst-case load not flat: {loads:?}"
        );
    }

    #[test]
    fn beats_yannakakis_on_two_sided_instance() {
        // On the Figure-3 glued instance every global join order gives
        // Yannakakis an Ω(OUT/p) load; the Theorem-5 algorithm must do
        // asymptotically better. We check the measured gap at one scale.
        let inst = fig3::two_sided(256, 8192);
        let p = 16;
        let (got, line3_load) = run(p, &inst.query, &inst.db);
        assert_eq!(got.len() as u64, inst.out);
        let mut cluster = Cluster::new(p);
        let (_, yan_load) = {
            let mut net = cluster.net();
            let dist = distribute_db(&inst.db, p);
            let mut seed = 7;
            let out = crate::yannakakis::yannakakis(&mut net, &inst.query, dist, None, &mut seed);
            (out.total_len(), net.stats().max_load)
        };
        assert!(
            line3_load < yan_load,
            "line3 {line3_load} should beat yannakakis {yan_load}"
        );
    }
}
