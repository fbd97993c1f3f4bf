//! Distributed relations: the unit of data the MPC algorithms operate on.

use aj_mpc::{Net, Partitioned};
use aj_primitives::{lookup, semi_join as prim_semi_join, sum_by_key, DEFAULT_SEED};
use aj_relation::{Attr, Database, Query, Relation, Tuple};

/// A relation partitioned over the servers of a [`Net`].
///
/// `attrs` is the tuple layout; tuples may carry *extra trailing columns*
/// (e.g. semiring annotations) beyond `attrs.len()` — algorithms only ever
/// address columns through `attrs` positions and carry the rest along.
#[derive(Debug, Clone)]
pub struct DistRelation {
    /// Attribute layout of the tuples.
    pub attrs: Vec<Attr>,
    /// The tuples, sharded over the servers.
    pub parts: Partitioned<Tuple>,
}

impl DistRelation {
    /// Distribute an in-memory relation evenly over `p` servers (the initial
    /// MPC placement; free of charge).
    pub fn distribute(rel: &Relation, p: usize) -> Self {
        DistRelation {
            attrs: rel.attrs.clone(),
            parts: Partitioned::distribute(rel.tuples.clone(), p),
        }
    }

    /// An empty distributed relation.
    pub fn empty(attrs: Vec<Attr>, p: usize) -> Self {
        DistRelation {
            attrs,
            parts: Partitioned::empty(p),
        }
    }

    /// Total number of tuples.
    pub fn total_len(&self) -> usize {
        self.parts.total_len()
    }

    /// Collect into an in-memory relation **without communication charge**
    /// (test/result inspection only).
    pub fn gather_free(&self) -> Relation {
        Relation::new(self.attrs.clone(), self.parts.clone().gather_free())
    }

    /// Positions of the given attributes in this layout.
    pub fn positions_of(&self, attrs: &[Attr]) -> Vec<usize> {
        attrs
            .iter()
            .map(|&a| {
                self.attrs
                    .iter()
                    .position(|&x| x == a)
                    .unwrap_or_else(|| panic!("attribute {a} not in relation layout"))
            })
            .collect()
    }

    /// The shared attributes with another relation (in this layout's order).
    pub fn shared_attrs(&self, other: &DistRelation) -> Vec<Attr> {
        self.attrs
            .iter()
            .copied()
            .filter(|a| other.attrs.contains(a))
            .collect()
    }

    /// Locally project every tuple onto `attrs` (free). Extra trailing
    /// columns are dropped.
    pub fn project(&self, attrs: &[Attr]) -> DistRelation {
        let pos = self.positions_of(attrs);
        DistRelation {
            attrs: attrs.to_vec(),
            parts: Partitioned::from_parts(
                self.parts
                    .iter()
                    .map(|part| part.iter().map(|t| t.project(&pos)).collect())
                    .collect(),
            ),
        }
    }

    /// Normalize the column order to ascending attribute id (free local op);
    /// extra trailing columns are dropped.
    pub fn normalized(&self) -> DistRelation {
        let mut attrs = self.attrs.clone();
        attrs.sort_unstable();
        self.project(&attrs)
    }

    /// Merge another relation with the same schema shard-wise (free).
    pub fn union(self, other: DistRelation) -> DistRelation {
        assert_eq!(self.attrs, other.attrs, "union requires equal schemas");
        DistRelation {
            attrs: self.attrs,
            parts: self.parts.union(other.parts),
        }
    }
}

/// A distributed database: one [`DistRelation`] per query edge.
pub type DistDatabase = Vec<DistRelation>;

/// Distribute a whole database (the initial MPC placement).
pub fn distribute_db(db: &Database, p: usize) -> DistDatabase {
    db.relations
        .iter()
        .map(|r| DistRelation::distribute(r, p))
        .collect()
}

/// Distributed semi-join `left ⋉ right` on their shared attributes
/// (3 rounds, linear load). Extra trailing columns of `left` survive.
pub fn dist_semi_join(
    net: &mut Net,
    left: DistRelation,
    right: &DistRelation,
    seed: u64,
) -> DistRelation {
    let shared = left.shared_attrs(right);
    if shared.is_empty() {
        // Keep left iff right non-empty; emptiness of a distributed relation
        // is driver-visible metadata (costs one control broadcast at most).
        return if right.total_len() == 0 {
            DistRelation::empty(left.attrs, left.parts.p())
        } else {
            left
        };
    }
    let lpos = left.positions_of(&shared);
    let rpos = right.positions_of(&shared);
    let keys = Partitioned::from_parts(net.run_each(|s| {
        right.parts[s]
            .iter()
            .map(|t| t.project(&rpos))
            .collect::<Vec<Tuple>>()
    }));
    let attrs = left.attrs.clone();
    let kept = prim_semi_join(net, left.parts, |t: &Tuple| t.project(&lpos), keys, seed);
    DistRelation { attrs, parts: kept }
}

/// Remove all dangling tuples of an acyclic join: two semi-join sweeps along
/// the join tree (the distributed full reducer; `O(m)` rounds, linear load).
pub fn dist_full_reduce(net: &mut Net, q: &Query, db: DistDatabase, seed: u64) -> DistDatabase {
    let tree = q
        .join_tree()
        .expect("full reducer requires an acyclic query");
    let mut rels = db;
    let mut s = seed;
    for &e in &tree.order {
        if let Some(p) = tree.parent[e] {
            let parent_rel =
                std::mem::replace(&mut rels[p], DistRelation::empty(Vec::new(), net.p()));
            let reduced = dist_semi_join(net, parent_rel, &rels[e], s);
            rels[p] = reduced;
            s = s.wrapping_add(0x9e37);
        }
    }
    for &e in tree.order.iter().rev() {
        if let Some(p) = tree.parent[e] {
            let child_rel =
                std::mem::replace(&mut rels[e], DistRelation::empty(Vec::new(), net.p()));
            let reduced = dist_semi_join(net, child_rel, &rels[p], s);
            rels[e] = reduced;
            s = s.wrapping_add(0x9e37);
        }
    }
    rels
}

/// Per-key degrees of a distributed relation on `key_attrs`, plus a tagging
/// pass: returns `(heavy, light)` split of the relation by whether the key's
/// degree exceeds `threshold`. Linear load, O(1) rounds.
pub fn split_by_degree(
    net: &mut Net,
    rel: DistRelation,
    key_attrs: &[Attr],
    threshold: u64,
    seed: u64,
) -> (DistRelation, DistRelation) {
    let pos = rel.positions_of(key_attrs);
    let keyed = Partitioned::from_parts(net.run_each(|s| {
        rel.parts[s]
            .iter()
            .map(|t| (t.project(&pos), 1u64))
            .collect::<Vec<_>>()
    }));
    let degrees = sum_by_key(net, keyed, seed, |a, b| a + b);
    let requests = Partitioned::from_parts(net.run_each(|s| {
        rel.parts[s]
            .iter()
            .map(|t| t.project(&pos))
            .collect::<Vec<Tuple>>()
    }));
    let answers = lookup(net, &degrees, &requests);
    let attrs = rel.attrs.clone();
    let split: Vec<(Vec<Tuple>, Vec<Tuple>)> = net.run_local(
        rel.parts.into_parts().into_iter().zip(answers).collect(),
        |_, (part, ans): (Vec<Tuple>, aj_primitives::FxHashMap<Tuple, u64>)| {
            part.into_iter()
                .partition(|t| ans.get(&t.project(&pos)).copied().unwrap_or(0) > threshold)
        },
    );
    let (heavy, light): (Vec<Vec<Tuple>>, Vec<Vec<Tuple>>) = split.into_iter().unzip();
    (
        DistRelation {
            attrs: attrs.clone(),
            parts: Partitioned::from_parts(heavy),
        },
        DistRelation {
            attrs,
            parts: Partitioned::from_parts(light),
        },
    )
}

/// Degrees of key values of `of` within `rel` (`|σ_{key=v} rel|` for each
/// distinct `v` in `of`'s projection): a sum-by-key plus lookup, used by the
/// acyclic algorithm's statistics step. Returns per-server maps aligned with
/// `of`'s shards.
pub fn degrees_of(
    net: &mut Net,
    rel: &DistRelation,
    rel_key_attrs: &[Attr],
    of: &DistRelation,
    of_key_attrs: &[Attr],
    seed: u64,
) -> Vec<aj_primitives::FxHashMap<Tuple, u64>> {
    let rpos = rel.positions_of(rel_key_attrs);
    let keyed = Partitioned::from_parts(net.run_each(|s| {
        rel.parts[s]
            .iter()
            .map(|t| (t.project(&rpos), 1u64))
            .collect::<Vec<_>>()
    }));
    let degrees = sum_by_key(net, keyed, seed, |a, b| a + b);
    let opos = of.positions_of(of_key_attrs);
    let requests = Partitioned::from_parts(net.run_each(|s| {
        of.parts[s]
            .iter()
            .map(|t| t.project(&opos))
            .collect::<Vec<Tuple>>()
    }));
    lookup(net, &degrees, &requests)
}

/// Seed helper: derive a fresh routing seed.
pub fn next_seed(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(DEFAULT_SEED);
    *seed
}

/// SplitMix64-style combine of a seed and a salt (a shape fingerprint, a
/// rebuild count, a stream tag): derives independent seed streams.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_mpc::Cluster;
    use aj_relation::{database_from_rows, ram, QueryBuilder};

    fn line3() -> Query {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        b.build()
    }

    fn db(q: &Query) -> Database {
        database_from_rows(
            q,
            &[
                vec![vec![1, 10], vec![2, 10], vec![3, 11], vec![4, 99]],
                vec![vec![10, 20], vec![10, 21], vec![11, 20]],
                vec![vec![20, 7], vec![21, 7], vec![50, 1]],
            ],
        )
    }

    #[test]
    fn distribute_and_gather_roundtrip() {
        let q = line3();
        let d = db(&q);
        let dist = distribute_db(&d, 4);
        for (orig, got) in d.relations.iter().zip(&dist) {
            let mut a = orig.tuples.clone();
            let mut b = got.gather_free().tuples;
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn dist_semi_join_matches_ram() {
        let q = line3();
        let d = db(&q);
        let mut cluster = Cluster::new(4);
        let mut net = cluster.net();
        let left = DistRelation::distribute(&d.relations[0], 4);
        let right = DistRelation::distribute(&d.relations[1], 4);
        let got = dist_semi_join(&mut net, left, &right, 3);
        let want = ram::semi_join(&d.relations[0], &d.relations[1]);
        let mut a = got.gather_free().tuples;
        let mut b = want.tuples;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn dist_full_reduce_matches_ram() {
        let q = line3();
        let d = db(&q);
        let mut cluster = Cluster::new(4);
        let mut net = cluster.net();
        let dist = distribute_db(&d, 4);
        let reduced = dist_full_reduce(&mut net, &q, dist, 7);
        let want = ram::full_reduce(&q, &d);
        for (got, want) in reduced.iter().zip(&want.relations) {
            let mut a = got.gather_free().tuples;
            let mut b = want.tuples.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn split_by_degree_partitions_correctly() {
        let q = line3();
        let d = db(&q);
        let mut cluster = Cluster::new(2);
        let mut net = cluster.net();
        let r1 = DistRelation::distribute(&d.relations[0], 2);
        let b = q.attr_by_name("B").unwrap();
        // Degrees in R1: B=10 → 2, B=11 → 1, B=99 → 1. Threshold 1 → heavy = {10}.
        let (heavy, light) = split_by_degree(&mut net, r1, &[b], 1, 5);
        assert_eq!(heavy.total_len(), 2);
        assert_eq!(light.total_len(), 2);
        for t in heavy.gather_free().tuples {
            assert_eq!(t.get(1), 10);
        }
    }

    #[test]
    fn degrees_of_counts_matches() {
        let q = line3();
        let d = db(&q);
        let mut cluster = Cluster::new(2);
        let mut net = cluster.net();
        let r1 = DistRelation::distribute(&d.relations[0], 2);
        let r2 = DistRelation::distribute(&d.relations[1], 2);
        let b = q.attr_by_name("B").unwrap();
        let maps = degrees_of(&mut net, &r1, &[b], &r2, &[b], 9);
        // every R2 tuple with B=10 sees degree 2 in R1.
        for (part, map) in r2.parts.iter().zip(&maps) {
            for t in part {
                let d = map.get(&t.project(&[0])).copied().unwrap_or(0);
                if t.get(0) == 10 {
                    assert_eq!(d, 2);
                } else {
                    assert_eq!(d, 1);
                }
            }
        }
    }

    #[test]
    fn normalized_sorts_columns() {
        let mut parts = Partitioned::empty(1);
        parts.parts_mut()[0].push(Tuple::from([7, 3]));
        let rel = DistRelation {
            attrs: vec![2, 0],
            parts,
        };
        let n = rel.normalized();
        assert_eq!(n.attrs, vec![0, 2]);
        assert_eq!(n.parts[0][0], Tuple::from([3, 7]));
    }
}
