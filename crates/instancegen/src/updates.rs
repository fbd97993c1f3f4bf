//! **Update streams**: deterministic sequences of signed insert/delete
//! batches against a live instance — the workload of the incremental
//! maintenance experiments (`aj_core::delta`, the `updates` repro
//! experiment).
//!
//! Each batch deletes a `fraction/2` slice of every relation and inserts an
//! equally sized set of fresh tuples built from the instance's own column
//! domains, so relation sizes (and join selectivities) stay roughly stable
//! while the content churns. Two mixes:
//!
//! * **uniform** (`zipf_s = 0`): delete victims and inserted column values
//!   are drawn uniformly from the live instance;
//! * **Zipf-skewed** (`zipf_s > 0`): both are rank-biased toward the head
//!   of each relation/column — updates hammer the same hot region that
//!   skewed *queries* hammer.
//!
//! Like every generator in this crate, a stream is a deterministic function
//! of its seed: the same `(query, db, parameters, seed)` regenerate the
//! same batches bit for bit.
//!
//! ```
//! use aj_instancegen::{line_query, updates::update_stream};
//!
//! let q = line_query(3);
//! let db = aj_relation::database_from_rows(
//!     &q,
//!     &[
//!         (0..40).map(|i| vec![i, i % 5]).collect(),
//!         (0..40).map(|i| vec![i % 5, i % 7]).collect(),
//!         (0..40).map(|i| vec![i % 7, i]).collect(),
//!     ],
//! );
//! let batches = update_stream(&q, &db, 3, 0.1, 0.0, 42);
//! assert_eq!(batches.len(), 3);
//! assert!(batches.iter().all(|b| b.size() > 0));
//! assert_eq!(batches, update_stream(&q, &db, 3, 0.1, 0.0, 42));
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use aj_relation::delta::UpdateBatch;
use aj_relation::{Database, Query, Tuple, Value};

use crate::skew::Zipf;

/// Generate `n_batches` signed batches against `db` (which is **not**
/// modified — the stream tracks its own evolving mirror, so batch `k+1`
/// deletes only tuples that are live after batch `k`).
///
/// Per batch and relation, `⌈fraction/2 · |R|⌉` tuples are deleted and the
/// same number inserted (fresh, never currently live), so `|Δ|` per batch is
/// ≈ `fraction · IN`. `zipf_s = 0` is the uniform mix; `zipf_s > 0`
/// rank-biases both victim choice and inserted column values toward the hot
/// head (classic web skew at `s ≈ 1`).
///
/// # Panics
/// Panics if `db` does not match `q`, `fraction` is not in `(0, 1]`, or a
/// relation has fewer than two distinct tuples (each batch must keep at
/// least one tuple live per relation to sample insert columns from).
pub fn update_stream(
    q: &Query,
    db: &Database,
    n_batches: usize,
    fraction: f64,
    zipf_s: f64,
    seed: u64,
) -> Vec<UpdateBatch> {
    assert!(db.matches(q), "database layout does not match the query");
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "update fraction must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ param_mix(n_batches as u64, fraction, zipf_s));
    // The evolving mirror: live tuples per relation (canonical sorted), plus
    // a per-relation counter handing out fresh ids for inserted columns.
    let mut live: Vec<Vec<Tuple>> = db
        .relations
        .iter()
        .map(|r| {
            let mut t = r.tuples.clone();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect();
    assert!(
        live.iter().all(|r| r.len() >= 2),
        "update streams need at least two distinct tuples per relation"
    );
    let mut fresh_id: Value = 1 << 40;
    let mut batches = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        let mut batch = UpdateBatch::empty(q.n_edges());
        for (e, rel) in live.iter_mut().enumerate() {
            // At least one tuple churns, at least one stays live (the
            // `len >= 2` assert above makes both clamps satisfiable).
            let k = ((fraction / 2.0) * rel.len() as f64).ceil() as usize;
            let k = k.max(1).min(rel.len() - 1);
            // Victims: rank-biased (or uniform) positions in the sorted
            // live list, without replacement.
            let ranks = Zipf::new(rel.len() as u64, zipf_s);
            let mut victims: Vec<usize> = Vec::with_capacity(k);
            while victims.len() < k {
                let v = if zipf_s > 0.0 {
                    ranks.sample(&mut rng) as usize
                } else {
                    rng.random_range(0..rel.len() as u64) as usize
                };
                if !victims.contains(&v) {
                    victims.push(v);
                }
            }
            victims.sort_unstable_by(|a, b| b.cmp(a)); // remove back-to-front
            for &v in &victims {
                batch.delete(e, rel[v].clone());
                rel.remove(v);
            }
            // Inserts: each column drawn from the relation's live column
            // domain (rank-biased under skew), one column replaced by a
            // fresh id so the tuple is provably new — joinability of the
            // other columns is preserved, so inserts derive real output.
            let arity = q.edge(e).attrs.len();
            for _ in 0..k {
                let mut vals: Vec<Value> = (0..arity)
                    .map(|c| {
                        let r = if zipf_s > 0.0 {
                            ranks.sample(&mut rng) as usize
                        } else {
                            rng.random_range(0..rel.len() as u64) as usize
                        };
                        rel[r.min(rel.len() - 1)].get(c)
                    })
                    .collect();
                let fresh_col = rng.random_range(0..arity as u64) as usize;
                vals[fresh_col] = fresh_id;
                fresh_id += 1;
                let t = Tuple::new(vals.as_slice());
                let pos = rel.binary_search(&t).expect_err("fresh id is unique");
                rel.insert(pos, t.clone());
                batch.insert(e, t);
            }
        }
        batches.push(batch);
    }
    batches
}

/// Mix the stream parameters into the seed so distinct configurations draw
/// distinct randomness even under the same user seed.
fn param_mix(n: u64, fraction: f64, zipf_s: f64) -> u64 {
    n.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ fraction.to_bits() ^ zipf_s.to_bits().rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_query;
    use aj_relation::database_from_rows;

    fn line3_db(q: &Query) -> Database {
        database_from_rows(
            q,
            &[
                (0..50).map(|i| vec![i, i % 5]).collect(),
                (0..40).map(|i| vec![i % 5, i % 8]).collect(),
                (0..45).map(|i| vec![i % 8, i]).collect(),
            ],
        )
    }

    #[test]
    fn stream_is_deterministic_and_consistent() {
        let q = line_query(3);
        let mut db = line3_db(&q);
        db.dedup_all();
        let a = update_stream(&q, &db, 4, 0.1, 0.0, 9);
        let b = update_stream(&q, &db, 4, 0.1, 0.0, 9);
        assert_eq!(a, b);
        assert_ne!(a, update_stream(&q, &db, 4, 0.1, 0.0, 10));
        // Every delete hits a live tuple; every insert is fresh; applying
        // the whole stream keeps sizes stable.
        let sizes: Vec<usize> = db.relations.iter().map(|r| r.len()).collect();
        let mut mirror = db.clone();
        for batch in &a {
            for (e, delta) in batch.deltas.iter().enumerate() {
                for t in &delta.deletes {
                    assert!(mirror.relations[e].tuples.contains(t), "stale delete");
                }
                for t in &delta.inserts {
                    assert!(!mirror.relations[e].tuples.contains(t), "dup insert");
                }
            }
            batch.apply_to(&mut mirror);
        }
        let after: Vec<usize> = mirror.relations.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, after, "delete/insert mixes keep sizes stable");
    }

    #[test]
    fn skewed_stream_concentrates_on_the_head() {
        let q = line_query(3);
        let mut db = line3_db(&q);
        db.dedup_all();
        // One 40% batch: rank-biased victims must concentrate on the head
        // decile of the (sorted) live list far beyond uniform odds.
        let batch = update_stream(&q, &db, 1, 0.4, 1.3, 3).remove(0);
        let head: Vec<Tuple> = {
            let mut t = db.relations[0].tuples.clone();
            t.sort_unstable();
            t.truncate(t.len() / 10);
            t
        };
        let hits = batch.deltas[0]
            .deletes
            .iter()
            .filter(|t| head.contains(t))
            .count();
        let total = batch.deltas[0].deletes.len();
        // Uniform would put ~10% of victims in the decile; Zipf(1.3) puts
        // the majority of its mass there.
        assert!(
            hits * 3 >= total,
            "Zipf(1.3) victims should concentrate on the head: {hits}/{total}"
        );
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_is_rejected() {
        let q = line_query(3);
        let db = line3_db(&q);
        update_stream(&q, &db, 1, 0.0, 0.0, 1);
    }

    /// A 1-tuple relation cannot both churn and keep a live tuple to
    /// sample insert columns from — rejected up front, not a mid-stream
    /// panic.
    #[test]
    #[should_panic(expected = "two distinct tuples")]
    fn single_tuple_relation_is_rejected() {
        let q = line_query(3);
        let db = database_from_rows(
            &q,
            &[
                (0..10).map(|i| vec![i, i % 3]).collect(),
                vec![vec![0, 0]],
                (0..10).map(|i| vec![i % 3, i]).collect(),
            ],
        );
        update_stream(&q, &db, 1, 1.0, 0.0, 1);
    }
}
