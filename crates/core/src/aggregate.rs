//! Join-aggregate queries over annotated relations (Section 6):
//! free-connex detection, the linear-load **LinearAggroYannakakis** fold
//! (Lemma 3), the full Theorem-9 pipeline, out-hierarchical queries
//! (Lemma 4 / Theorem 10), and the output-size primitive (Corollary 4).
//!
//! Annotations are the weights of the reducer's weighted semi-join step
//! (`dist::sweep_up`), and counts are its `CountRing` case. Lemma 3's fold
//! is that sweep along the join tree of `Q ∪ {ŷ}` rooted at ŷ; the input
//! needs no reduce first, because the step drops every tuple that misses and
//! folds a contained edge like any other. Only the residual query's solvers
//! get the annotations as one extra trailing tuple column per relation
//! (encoded via [`Semiring::to_u64`]): they address columns only through
//! their schema, so the extras ride along and are ⊗-combined when results
//! are emitted.

use aj_mpc::{Net, Partitioned, Wire};
use aj_primitives::{sum_by_key, OwnedTable};
use aj_relation::classify::is_hierarchical;
use aj_relation::semiring::{AnnRelation, CountRing, Semiring};
use aj_relation::{Attr, AttrSet, Edge, JoinTree, Query, Tuple};

use crate::dist::{
    column_sums, count_sweep, next_seed, sweep_up, DistDatabase, DistRelation, Factors, Weighted,
};

/// Errors of the join-aggregate pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// The join hypergraph is cyclic.
    NotAcyclic,
    /// The query is not free-connex w.r.t. the requested output attributes.
    NotFreeConnex,
    /// The database holds a different number of relations than the query
    /// has edges.
    RelationCount {
        /// Edges of the query.
        edges: usize,
        /// Relations given.
        relations: usize,
    },
    /// A relation's attributes are not its edge's attributes, or one of its
    /// tuples has another arity.
    SchemaMismatch {
        /// The offending edge.
        edge: usize,
    },
    /// An output attribute is not an attribute of the query.
    UnknownAttr(Attr),
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::NotAcyclic => write!(f, "query is not acyclic"),
            AggregateError::NotFreeConnex => write!(f, "query is not free-connex"),
            AggregateError::RelationCount { edges, relations } => {
                write!(f, "{relations} relations for a query of {edges} edges")
            }
            AggregateError::SchemaMismatch { edge } => {
                write!(f, "relation {edge}'s attributes are not its edge's")
            }
            AggregateError::UnknownAttr(a) => write!(f, "output attribute {a} is not in the query"),
        }
    }
}

impl std::error::Error for AggregateError {}

/// Distributed annotated output: tuples over `attrs` with ⊕-combined
/// annotations.
#[derive(Debug, Clone)]
pub struct AnnOutput<S: Semiring> {
    /// Output attribute layout.
    pub attrs: Vec<Attr>,
    /// Per-server `(tuple, annotation)` shards.
    pub parts: Vec<Vec<(Tuple, S::T)>>,
}

impl<S: Semiring> AnnOutput<S> {
    /// Total result count.
    pub fn total_len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Collect all results (free; for inspection/tests).
    pub fn gather_free(&self) -> Vec<(Tuple, S::T)> {
        let mut v: Vec<(Tuple, S::T)> = self.parts.iter().flatten().cloned().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

/// Is `Qy` free-connex: `Q` acyclic and `(V, E ∪ {y})` acyclic.
pub fn is_free_connex(q: &Query, y: &[Attr]) -> bool {
    q.is_acyclic() && with_output_edge(q, y).is_acyclic()
}

/// Is `Qy` out-hierarchical (Lemma 4): free-connex and the residual query
/// `(y, {e ∩ y})` is r-hierarchical.
pub fn is_out_hierarchical(q: &Query, y: &[Attr]) -> bool {
    if !is_free_connex(q, y) {
        return false;
    }
    if y.is_empty() {
        return true; // residual query is trivial
    }
    let yset = AttrSet::from_iter(y.iter().copied());
    let edges: Vec<Edge> = q
        .edges()
        .iter()
        .filter_map(|e| {
            let attrs: Vec<Attr> = e
                .attrs
                .iter()
                .copied()
                .filter(|a| yset.contains(*a))
                .collect();
            if attrs.is_empty() {
                None
            } else {
                Some(Edge {
                    name: format!("{}|y", e.name),
                    attrs,
                })
            }
        })
        .collect();
    if edges.is_empty() {
        return true;
    }
    let residual = Query::from_parts(q.attr_names().to_vec(), edges);
    aj_relation::classify::is_r_hierarchical(&residual)
}

fn with_output_edge(q: &Query, y: &[Attr]) -> Query {
    let mut edges = q.edges().to_vec();
    edges.push(Edge {
        name: "ŷ".to_string(),
        attrs: y.to_vec(),
    });
    Query::from_parts(q.attr_names().to_vec(), edges)
}

// ---------------------------------------------------------------------------
// Corollary 4: |Q(R)| with linear load.
// ---------------------------------------------------------------------------

/// Compute `OUT = |Q(R)|` of an acyclic join in O(1) rounds with linear
/// load: a distributed Yannakakis-count fold along the join tree
/// (Corollary 4; assumes set semantics).
pub fn output_size(net: &mut Net, q: &Query, db: &DistDatabase, seed: &mut u64) -> u64 {
    let tree = q
        .join_tree()
        .expect("output_size requires an acyclic query");
    output_size_with_tree(net, &tree, db, seed)
}

/// [`output_size`] with a precomputed join tree (e.g. from the engine's
/// per-shape plan cache).
pub fn output_size_with_tree(
    net: &mut Net,
    tree: &aj_relation::JoinTree,
    db: &DistDatabase,
    seed: &mut u64,
) -> u64 {
    count_sweep(net, tree, db.to_vec(), || next_seed(seed)).out(net)
}

/// Per-group output counts `|σ_{g=v} Q(R)|` for all values `v` of
/// `group_attrs`, which must occur in **every** edge (the case needed by the
/// Theorem-3 recursion). Linear load. Returns an owned table keyed by the
/// group value.
pub fn count_by_group(
    net: &mut Net,
    q: &Query,
    db: &DistDatabase,
    group_attrs: &[Attr],
    final_seed: u64,
    seed: &mut u64,
) -> OwnedTable<Tuple, u64> {
    let tree = q
        .join_tree()
        .expect("count_by_group requires an acyclic query");
    for (i, rel) in db.iter().enumerate() {
        for a in group_attrs {
            assert!(
                rel.attrs.contains(a),
                "group attribute {a} missing from edge {i}"
            );
        }
    }
    let c = count_sweep(net, &tree, db.to_vec(), || next_seed(seed));
    debug_assert!(c.factors.is_empty(), "group in every edge: not Cartesian");
    sum_by_group::<CountRing>(net, &c.db[c.root], &c.counts, group_attrs, final_seed)
}

/// ⊕-sum the per-tuple `weights` of `root` per value of `group_attrs` (one
/// sum-by-key round seeded `final_seed`): the one step that groups a
/// weighted relation onto some of its attributes.
pub(crate) fn sum_by_group<S: Semiring<T: Wire>>(
    net: &mut Net,
    root: &DistRelation,
    weights: &[Vec<S::T>],
    group_attrs: &[Attr],
    final_seed: u64,
) -> OwnedTable<Tuple, S::T> {
    let gpos = root.positions_of(group_attrs);
    let grouped = Partitioned::from_parts(net.run_each(|s| {
        root.parts[s]
            .iter()
            .zip(&weights[s])
            .map(|(t, &w)| (t.project(&gpos), w))
            .collect::<Vec<_>>()
    }));
    sum_by_key(net, grouped, final_seed, S::add)
}

// ---------------------------------------------------------------------------
// Theorem 9: the free-connex join-aggregate pipeline.
// ---------------------------------------------------------------------------

/// Evaluate a free-connex join-aggregate query `⊕_{V−y} Q(R)` in O(1)
/// rounds with load `O(IN/p + √(IN·OUT)/p)` (Theorem 9); when the residual
/// output query is r-hierarchical, the instance-optimal Theorem-3 algorithm
/// takes over (Theorem 10).
///
/// Misuse is an error, detected before any round: `db` must hold one
/// relation per edge over that edge's attributes (every tuple of that
/// arity), and `y` only attributes of `q`.
pub fn join_aggregate<S: Semiring<T: Wire>>(
    net: &mut Net,
    q: &Query,
    db: &[AnnRelation<S>],
    y: &[Attr],
    seed: &mut u64,
) -> Result<AnnOutput<S>, AggregateError> {
    let p = net.p();
    if db.len() != q.n_edges() {
        let (edges, relations) = (q.n_edges(), db.len());
        return Err(AggregateError::RelationCount { edges, relations });
    }
    let schema_ok = |(r, e): (&AnnRelation<S>, &Edge)| {
        r.attrs.len() == e.attrs.len()
            && AttrSet::from_iter(r.attrs.iter().copied()) == e.attr_set()
            && r.tuples.iter().all(|(t, _)| t.arity() == e.attrs.len())
    };
    if let Some(edge) = db.iter().zip(q.edges()).position(|re| !schema_ok(re)) {
        return Err(AggregateError::SchemaMismatch { edge });
    }
    if let Some(&a) = y.iter().find(|&&a| a >= q.n_attrs()) {
        return Err(AggregateError::UnknownAttr(a));
    }
    if !q.is_acyclic() {
        return Err(AggregateError::NotAcyclic);
    }
    if !is_free_connex(q, y) {
        return Err(AggregateError::NotFreeConnex);
    }
    // The annotations are the fold's weights.
    let mut rels: Vec<Weighted<S>> = db
        .iter()
        .map(|r| {
            from_pairs::<S>(
                r.attrs.clone(),
                Partitioned::distribute(r.tuples.clone(), p),
            )
        })
        .collect();
    // The fold drops every tuple that misses and folds contained edges like
    // any other, so neither a dangling-tuple reduce nor an annotated reduce
    // runs on the input first; their seed draws (one, plus one per contained
    // edge) are burnt.
    for _ in q.reduce().1.len()..=q.n_edges() {
        next_seed(seed);
    }

    // Lemma 3: fold each subtree below ŷ into ŷ's child. A node keeps exactly
    // the attributes it shares with its parent, so each child of ŷ is then
    // grouped onto its attributes in y: one residual relation each.
    let tree = with_output_edge(q, y).join_tree().expect("free-connex");
    let forest = below(&tree, q.n_edges());
    let (mut factors, _) = sweep_up::<S>(net, &forest, &mut rels, || next_seed(seed), false);
    let mut residual: Vec<Weighted<S>> = Vec::new();
    for &u in forest.order.iter().filter(|&&u| forest.parent[u].is_none()) {
        let (rel, w) = &rels[u];
        let group: Vec<Attr> = rel
            .attrs
            .iter()
            .copied()
            .filter(|a| y.contains(a))
            .collect();
        let table = sum_by_group::<S>(net, rel, w, &group, next_seed(seed));
        residual.push(from_pairs::<S>(group, table.parts));
    }

    // The residual query over y (0-ary edges when y = ∅), whose solvers
    // carry each weight as a trailing tuple column.
    let edges = residual.iter().enumerate().map(|(i, (r, _))| Edge {
        name: format!("T'{i}"),
        attrs: r.attrs.clone(),
    });
    let qy = Query::from_parts(q.attr_names().to_vec(), edges.collect());
    let (qy, residual, more) = ann_reduce::<S>(net, &qy, residual, seed);
    factors.extend(more);
    let residual = residual.into_iter().map(with_column::<S>).collect();
    let out = if is_hierarchical(&qy) {
        crate::hierarchical::solve(net, &qy, residual, seed)
    } else {
        crate::acyclic::solve(net, &qy, residual, seed)
    };
    // Each Cartesian step's child ⊗-multiplies its ⊕-total into every result.
    let mut factor = S::one();
    if !factors.is_empty() {
        let partials = (0..p).map(|s| factors.iter().map(|f| f[s]).collect());
        let totals = column_sums::<S>(net, partials.collect());
        factor = totals.into_iter().fold(factor, S::mul);
    }
    // Decode: ⊗-fold the trailing columns into the factor, strip them.
    let n_attr = out.attrs.len();
    let keep: Vec<usize> = (0..n_attr).collect();
    let parts = out.parts.iter().map(|part| {
        let decode = |t: &Tuple| {
            let extras = (n_attr..t.arity()).map(|c| S::from_u64(t.get(c)));
            (t.project(&keep), extras.fold(factor, S::mul))
        };
        part.iter().map(decode).collect()
    });
    let attrs = out.attrs;
    Ok(AnnOutput {
        attrs,
        parts: parts.collect(),
    })
}

/// The annotated **reduce** procedure (Section 6) on weighted relations:
/// every edge contained in another folds into a kept edge containing it
/// (one [`sweep_up`] step each, in edge order), ⊗-multiplying its ⊕-sums
/// into the matching tuples. Returns the reduced query, its relations and
/// the Cartesian steps' factors (the sums of 0-ary edges).
fn ann_reduce<S: Semiring<T: Wire>>(
    net: &mut Net,
    q: &Query,
    mut rels: Vec<Weighted<S>>,
    seed: &mut u64,
) -> (Query, Vec<Weighted<S>>, Factors<S>) {
    let (qr, kept) = q.reduce();
    let parent = (0..q.n_edges()).map(|e| {
        let se = q.edge(e).attr_set();
        let contains = |&o: &usize| o != e && se.is_subset(q.edge(o).attr_set());
        kept.iter().copied().find(contains)
    });
    let forest = JoinTree {
        parent: parent.collect(),
        order: (0..q.n_edges()).collect(),
    };
    let (factors, _) = sweep_up::<S>(net, &forest, &mut rels, || next_seed(seed), false);
    let rels = rels
        .into_iter()
        .enumerate()
        .filter(|(e, _)| kept.contains(e));
    (qr, rels.map(|(_, r)| r).collect(), factors)
}

/// A weighted relation over `attrs` from `(tuple, weight)` shards.
fn from_pairs<S: Semiring>(attrs: Vec<Attr>, pairs: Partitioned<(Tuple, S::T)>) -> Weighted<S> {
    let split = pairs
        .into_parts()
        .into_iter()
        .map(|part| part.into_iter().unzip());
    let (parts, w): (Vec<_>, _) = split.unzip();
    let parts = Partitioned::from_parts(parts);
    (DistRelation { attrs, parts }, w)
}

/// Attach each weight to its tuple as one trailing column.
fn with_column<S: Semiring>((rel, w): Weighted<S>) -> DistRelation {
    let parts = rel.parts.into_parts().into_iter().zip(w).map(|(part, w)| {
        let tuples = part.iter().zip(w);
        tuples.map(|(t, w)| t.extend(&[S::to_u64(w)])).collect()
    });
    DistRelation {
        attrs: rel.attrs,
        parts: Partitioned::from_parts(parts.collect()),
    }
}

/// `tree`, a join tree of `Q ∪ {ŷ}` with ŷ its last edge `y_node`, re-rooted
/// at ŷ and cut below it: a forest over `Q`'s edges whose roots are ŷ's
/// children, in reverse BFS order from ŷ (leaves first, those roots last).
fn below(tree: &JoinTree, y_node: usize) -> JoinTree {
    let mut parent: Vec<Option<usize>> = vec![None; y_node];
    let mut bfs = vec![y_node];
    let mut i = 0;
    while let Some(&u) = bfs.get(i) {
        i += 1;
        for (v, pv) in parent.iter_mut().enumerate() {
            let adjacent = tree.parent[v] == Some(u) || tree.parent[u] == Some(v);
            if adjacent && pv.is_none() {
                *pv = Some(u);
                bfs.push(v);
            }
        }
    }
    let parent = parent.into_iter().map(|p| p.filter(|&p| p != y_node));
    bfs.reverse();
    bfs.pop(); // ŷ
    JoinTree {
        parent: parent.collect(),
        order: bfs,
    }
}

impl DistRelation {
    /// Like [`DistRelation::normalized`] but keeps extra trailing columns.
    pub(crate) fn normalized_keep_extras(&self) -> DistRelation {
        let mut order: Vec<usize> = (0..self.attrs.len()).collect();
        order.sort_by_key(|&i| self.attrs[i]);
        let attrs: Vec<Attr> = order.iter().map(|&i| self.attrs[i]).collect();
        let parts = Partitioned::from_parts(
            self.parts
                .iter()
                .map(|part| {
                    part.iter()
                        .map(|t| {
                            let full: Vec<usize> = order
                                .iter()
                                .copied()
                                .chain(self.attrs.len()..t.arity())
                                .collect();
                            t.project(&full)
                        })
                        .collect()
                })
                .collect(),
        );
        DistRelation { attrs, parts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use aj_mpc::Cluster;
    use aj_primitives::FxHashMap;
    use aj_relation::{database_from_rows, ram, Database, QueryBuilder};

    fn line3() -> Query {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        b.build()
    }

    fn line3_db(q: &Query) -> Database {
        let mut db = database_from_rows(
            q,
            &[
                (0..32).map(|i| vec![i, i % 4]).collect(),
                (0..16).map(|i| vec![i % 4, i % 8]).collect(),
                (0..24).map(|i| vec![i % 8, i]).collect(),
            ],
        );
        // Set semantics: the counting primitives assume deduplicated input.
        for r in &mut db.relations {
            r.dedup();
        }
        db
    }

    #[test]
    fn output_size_matches_ram_count() {
        let q = line3();
        let db = line3_db(&q);
        let want = ram::count(&q, &db);
        let p = 4;
        let mut cluster = Cluster::new(p);
        let got = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, p);
            let mut seed = 5;
            output_size(&mut net, &q, &dist, &mut seed)
        };
        assert_eq!(got, want);
    }

    #[test]
    fn output_size_linear_load() {
        // Corollary 4: the count must cost O(IN/p), never OUT/p.
        let q = line3();
        // OUT ≫ IN: every tuple joins with everything.
        let n = 512u64;
        let db = database_from_rows(
            &q,
            &[
                (0..n).map(|i| vec![i, 0]).collect(),
                vec![vec![0, 0]],
                (0..n).map(|i| vec![0, i]).collect(),
            ],
        );
        let p = 8;
        let in_per_p = (db.input_size() as u64).div_ceil(p as u64);
        let mut cluster = Cluster::new(p);
        let got = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, p);
            let mut seed = 5;
            output_size(&mut net, &q, &dist, &mut seed)
        };
        assert_eq!(got, n * n);
        assert!(
            cluster.stats().max_load <= 4 * in_per_p.max(p as u64),
            "count load {} not linear (IN/p = {in_per_p})",
            cluster.stats().max_load
        );
    }

    #[test]
    fn free_connex_detection() {
        let q = line3();
        let a = q.attr_by_name("A").unwrap();
        let b = q.attr_by_name("B").unwrap();
        let c = q.attr_by_name("C").unwrap();
        let d = q.attr_by_name("D").unwrap();
        // π_{A,B} of line-3 is free-connex.
        assert!(is_free_connex(&q, &[a, b]));
        // π_{A,D} is NOT free-connex (classic example).
        assert!(!is_free_connex(&q, &[a, d]));
        // Full output and empty output are free-connex.
        assert!(is_free_connex(&q, &[a, b, c, d]));
        assert!(is_free_connex(&q, &[]));
    }

    #[test]
    fn out_hierarchical_detection() {
        let q = line3();
        let a = q.attr_by_name("A").unwrap();
        let b = q.attr_by_name("B").unwrap();
        // Residual on {A,B}: edges {A,B},{B} → r-hierarchical.
        assert!(is_out_hierarchical(&q, &[a, b]));
        // Residual on all attrs = line-3 → not r-hierarchical.
        let all: Vec<Attr> = (0..4).collect();
        assert!(!is_out_hierarchical(&q, &all));
    }

    fn ram_aggregate(q: &Query, db: &Database, y: &[Attr]) -> Vec<(Tuple, u64)> {
        // Reference: enumerate the full join, group by y, count.
        let (schema, tuples) = ram::join(q, db);
        let pos: Vec<usize> = y
            .iter()
            .map(|a| schema.iter().position(|x| x == a).unwrap())
            .collect();
        let mut m: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in tuples {
            *m.entry(t.project(&pos)).or_insert(0) += 1;
        }
        let mut v: Vec<(Tuple, u64)> = m.into_iter().collect();
        v.sort_by(|x, z| x.0.cmp(&z.0));
        v
    }

    #[test]
    fn count_group_by_matches_reference() {
        let q = line3();
        let db = line3_db(&q);
        let a = q.attr_by_name("A").unwrap();
        let b = q.attr_by_name("B").unwrap();
        let y = vec![a, b];
        let want = ram_aggregate(&q, &db, &y);
        let p = 4;
        let mut cluster = Cluster::new(p);
        let got = {
            let mut net = cluster.net();
            let ann: Vec<AnnRelation<CountRing>> = db
                .relations
                .iter()
                .map(AnnRelation::from_relation)
                .collect();
            let mut seed = 9;
            join_aggregate::<CountRing>(&mut net, &q, &ann, &y, &mut seed).unwrap()
        };
        let mut sorted_y = got.attrs.clone();
        sorted_y.sort_unstable();
        assert_eq!(sorted_y, y);
        assert_eq!(got.gather_free(), want);
    }

    #[test]
    fn scalar_count_via_join_aggregate() {
        let q = line3();
        let db = line3_db(&q);
        let want = ram::count(&q, &db);
        let p = 4;
        let mut cluster = Cluster::new(p);
        let got = {
            let mut net = cluster.net();
            let ann: Vec<AnnRelation<CountRing>> = db
                .relations
                .iter()
                .map(AnnRelation::from_relation)
                .collect();
            let mut seed = 9;
            join_aggregate::<CountRing>(&mut net, &q, &ann, &[], &mut seed).unwrap()
        };
        let all = got.gather_free();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1, want);
    }

    #[test]
    fn non_free_connex_rejected() {
        let q = line3();
        let a = q.attr_by_name("A").unwrap();
        let d = q.attr_by_name("D").unwrap();
        let db = line3_db(&q);
        let mut cluster = Cluster::new(2);
        let mut net = cluster.net();
        let ann: Vec<AnnRelation<CountRing>> = db
            .relations
            .iter()
            .map(AnnRelation::from_relation)
            .collect();
        let mut seed = 9;
        let err = join_aggregate::<CountRing>(&mut net, &q, &ann, &[a, d], &mut seed);
        assert_eq!(err.unwrap_err(), AggregateError::NotFreeConnex);
    }

    /// Runs a misused `join_aggregate` on line-3: it must fail before any
    /// round.
    fn misuse(db: &[AnnRelation<CountRing>], y: &[Attr]) -> AggregateError {
        let mut cluster = Cluster::new(2);
        let got = join_aggregate::<CountRing>(&mut cluster.net(), &line3(), db, y, &mut 9);
        let err = got.unwrap_err();
        assert_eq!(cluster.stats().exchanges, 0, "{err}: a round ran first");
        err
    }

    fn line3_ann() -> Vec<AnnRelation<CountRing>> {
        let db = line3_db(&line3());
        db.relations
            .iter()
            .map(AnnRelation::from_relation)
            .collect()
    }

    #[test]
    fn missing_relation_is_an_error() {
        let mut db = line3_ann();
        db.pop();
        let want = AggregateError::RelationCount {
            edges: 3,
            relations: 2,
        };
        assert_eq!(misuse(&db, &[0]), want);
    }

    #[test]
    fn output_attr_outside_the_query_is_an_error() {
        let db = line3_ann();
        assert_eq!(misuse(&db, &[0, 4]), AggregateError::UnknownAttr(4));
        assert_eq!(misuse(&db, &[70]), AggregateError::UnknownAttr(70));
    }

    #[test]
    fn relation_over_other_attrs_is_an_error() {
        let mut db = line3_ann();
        db[2].attrs = vec![0, 1]; // edge 2 is (C, D)
        let want = AggregateError::SchemaMismatch { edge: 2 };
        assert_eq!(misuse(&db, &[0]), want);
        db[2].attrs = vec![2, 3, 0];
        assert_eq!(misuse(&db, &[0]), want);
        db[2].attrs = vec![3, 2]; // the edge's attributes in another order
        db[1].tuples.push((Tuple::new(vec![1]), 1));
        assert_eq!(
            misuse(&db, &[0]),
            AggregateError::SchemaMismatch { edge: 1 }
        );
        db[1].tuples.pop();
        let mut cluster = Cluster::new(2);
        let got = join_aggregate::<CountRing>(&mut cluster.net(), &line3(), &db, &[0], &mut 9);
        assert!(got.is_ok());
    }

    #[test]
    fn count_by_group_on_star() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["X", "A"]);
        b.relation("R2", &["X", "B"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..12).map(|i| vec![i % 3, i]).collect(),
                (0..9).map(|i| vec![i % 3, 100 + i]).collect(),
            ],
        );
        let x = q.attr_by_name("X").unwrap();
        let want = ram_aggregate(&q, &db, &[x]);
        let p = 4;
        let mut cluster = Cluster::new(p);
        let got = {
            let mut net = cluster.net();
            let dist = distribute_db(&db, p);
            let mut seed = 13;
            count_by_group(&mut net, &q, &dist, &[x], 77, &mut seed)
        };
        let mut entries: Vec<(Tuple, u64)> = got.parts.gather_free();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(entries, want);
    }
}
