//! Join-aggregate queries over annotated relations (Section 6):
//! free-connex detection, the linear-load **LinearAggroYannakakis** fold
//! (Lemma 3), the full Theorem-9 pipeline, out-hierarchical queries
//! (Lemma 4 / Theorem 10), and the output-size primitive (Corollary 4).
//!
//! Annotations travel through the MPC join algorithms as one extra trailing
//! tuple column per relation (encoded via [`Semiring::to_u64`]); the
//! algorithms address columns only through their schema, so the extras ride
//! along and are ⊗-combined when results are emitted.

use aj_mpc::{Net, Partitioned, Wire};
use aj_primitives::{lookup, sum_by_key, FxHashMap, OwnedTable};
use aj_relation::classify::is_hierarchical;
use aj_relation::semiring::{AnnRelation, Semiring};
use aj_relation::{Attr, AttrSet, Edge, Query, Tuple};

use crate::dist::{count_sweep, dist_full_reduce, next_seed, DistDatabase, DistRelation};

/// Errors of the join-aggregate pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// The join hypergraph is cyclic.
    NotAcyclic,
    /// The query is not free-connex w.r.t. the requested output attributes.
    NotFreeConnex,
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::NotAcyclic => write!(f, "query is not acyclic"),
            AggregateError::NotFreeConnex => write!(f, "query is not free-connex"),
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
    sum_by_group(net, &c.db[c.root], &c.counts, group_attrs, final_seed)
}

/// Sum the per-tuple `counts` of `root` per value of `group_attrs` (one
/// sum-by-key round seeded `final_seed`).
pub(crate) fn sum_by_group(
    net: &mut Net,
    root: &DistRelation,
    counts: &[Vec<u64>],
    group_attrs: &[Attr],
    final_seed: u64,
) -> OwnedTable<Tuple, u64> {
    let gpos = root.positions_of(group_attrs);
    let grouped = Partitioned::from_parts(net.run_each(|s| {
        root.parts[s]
            .iter()
            .zip(&counts[s])
            .map(|(t, &w)| (t.project(&gpos), w))
            .collect::<Vec<_>>()
    }));
    sum_by_key(net, grouped, final_seed, |a: u64, b| a.saturating_add(b))
}

// ---------------------------------------------------------------------------
// Theorem 9: the free-connex join-aggregate pipeline.
// ---------------------------------------------------------------------------

/// Evaluate a free-connex join-aggregate query `⊕_{V−y} Q(R)` in O(1)
/// rounds with load `O(IN/p + √(IN·OUT)/p)` (Theorem 9); when the residual
/// output query is r-hierarchical, the instance-optimal Theorem-3 algorithm
/// takes over (Theorem 10).
pub fn join_aggregate<S: Semiring<T: Wire>>(
    net: &mut Net,
    q: &Query,
    db: &[AnnRelation<S>],
    y: &[Attr],
    seed: &mut u64,
) -> Result<AnnOutput<S>, AggregateError> {
    let p = net.p();
    if !q.is_acyclic() {
        return Err(AggregateError::NotAcyclic);
    }
    if !is_free_connex(q, y) {
        return Err(AggregateError::NotFreeConnex);
    }
    assert_eq!(db.len(), q.n_edges());
    // Distribute with the encoded annotation as an extra trailing column.
    let dist: DistDatabase = db
        .iter()
        .map(|r| DistRelation {
            attrs: r.attrs.clone(),
            parts: Partitioned::distribute(
                r.tuples
                    .iter()
                    .map(|(t, w)| t.extend(&[S::to_u64(*w)]))
                    .collect(),
                p,
            ),
        })
        .collect();
    // Dangling removal (annotation-oblivious, Lemma-3 preprocessing).
    let dist = dist_full_reduce(net, q, dist, next_seed(seed));
    // Annotated reduce: fold contained edges multiplicatively.
    let (qr, dist) = ann_reduce::<S>(net, q.clone(), dist, seed);

    // Join tree of E_r ∪ {ŷ}, rooted at ŷ.
    let qplus = with_output_edge(&qr, y);
    let tree = qplus.join_tree().ok_or(AggregateError::NotFreeConnex)?;
    let y_node = qr.n_edges();
    let (parents, bfs) = re_root(&tree, y_node, qplus.n_edges());
    // TOP(x): the highest node containing x (excluding ŷ).
    let yset = AttrSet::from_iter(y.iter().copied());
    let mut top: FxHashMap<Attr, usize> = FxHashMap::default();
    for &u in &bfs {
        if u == y_node {
            continue;
        }
        for &a in &qplus.edge(u).attrs {
            top.entry(a).or_insert(u);
        }
    }

    // Bottom-up fold.
    let mut rels: Vec<Option<DistRelation>> = dist.into_iter().map(Some).collect();
    let mut residual: Vec<DistRelation> = Vec::new();
    for &u in bfs.iter().rev() {
        if u == y_node {
            continue;
        }
        let rel = rels[u].take().expect("each node folded once");
        // Aggregate away finished non-output attributes.
        let remaining: Vec<Attr> = rel
            .attrs
            .iter()
            .copied()
            .filter(|a| yset.contains(*a) || top.get(a) != Some(&u))
            .collect();
        let table = sum_annotations::<S>(net, &rel, &remaining, next_seed(seed));
        let folded = DistRelation {
            attrs: remaining.clone(),
            parts: Partitioned::from_parts(
                table
                    .parts
                    .iter()
                    .map(|part| {
                        part.iter()
                            .map(|(k, w)| k.extend(&[S::to_u64(*w)]))
                            .collect()
                    })
                    .collect(),
            ),
        };
        let pr = parents[u].expect("non-root node has a parent");
        if pr == y_node {
            residual.push(folded);
            continue;
        }
        // Fold into the parent: multiply annotations, drop misses.
        let parent = rels[pr].as_mut().expect("parent still pending");
        multiply_or_drop::<S>(net, parent, &remaining, &table);
    }

    // Residual evaluation.
    if y.is_empty() {
        // Every residual relation is 0-ary: a scalar (or empty ⇒ ⊕-zero).
        let mut scalar = S::one();
        for rel in &residual {
            let entries = rel.gather_free();
            match entries.tuples.first() {
                None => {
                    return Ok(AnnOutput {
                        attrs: Vec::new(),
                        parts: (0..p).map(|_| Vec::new()).collect(),
                    })
                }
                Some(t) => scalar = S::mul(scalar, S::from_u64(t.get(0))),
            }
        }
        let mut parts: Vec<Vec<(Tuple, S::T)>> = (0..p).map(|_| Vec::new()).collect();
        parts[0].push((Tuple::unit(), scalar));
        return Ok(AnnOutput {
            attrs: Vec::new(),
            parts,
        });
    }
    let edges: Vec<Edge> = residual
        .iter()
        .enumerate()
        .map(|(i, r)| Edge {
            name: format!("T'{i}"),
            attrs: r.attrs.clone(),
        })
        .collect();
    let qy = Query::from_parts(q.attr_names().to_vec(), edges);
    // Pre-reduce annotated (so the solvers' structural reduce is a no-op).
    let (qy, residual) = ann_reduce::<S>(net, qy, residual, seed);
    let out = if residual.len() == 1 {
        residual
            .into_iter()
            .next()
            .unwrap()
            .normalized_keep_extras()
    } else if is_hierarchical(&qy) {
        crate::hierarchical::solve(net, &qy, residual, seed)
    } else {
        crate::acyclic::solve(net, &qy, residual, seed)
    };
    // Decode: ⊗-fold the extra columns, strip them.
    let n_attr = out.attrs.len();
    let parts = out
        .parts
        .iter()
        .map(|part| {
            part.iter()
                .map(|t| {
                    let mut w = S::one();
                    for c in n_attr..t.arity() {
                        w = S::mul(w, S::from_u64(t.get(c)));
                    }
                    (t.project(&(0..n_attr).collect::<Vec<_>>()), w)
                })
                .collect()
        })
        .collect();
    Ok(AnnOutput {
        attrs: out.attrs,
        parts,
    })
}

/// The annotated **reduce** procedure (Section 6): while some edge `e` is
/// contained in another `e'`, replace `R(e')` by `R(e) ⋈ R(e')`
/// (⊗-multiplying annotations) and discard `R(e)`.
fn ann_reduce<S: Semiring<T: Wire>>(
    net: &mut Net,
    q: Query,
    db: DistDatabase,
    seed: &mut u64,
) -> (Query, DistDatabase) {
    let mut alive: Vec<bool> = vec![true; q.n_edges()];
    let mut rels: Vec<Option<DistRelation>> = db.into_iter().map(Some).collect();
    loop {
        let mut victim: Option<(usize, usize)> = None;
        'outer: for e in 0..q.n_edges() {
            if !alive[e] {
                continue;
            }
            for (o, &o_alive) in alive.iter().enumerate() {
                if o == e || !o_alive {
                    continue;
                }
                let se = q.edge(e).attr_set();
                let so = q.edge(o).attr_set();
                if (se.is_subset(so) && se != so) || (se == so && e > o) {
                    victim = Some((e, o));
                    break 'outer;
                }
            }
        }
        let Some((e, o)) = victim else { break };
        let small = rels[e].take().expect("alive edge has a relation");
        let table = sum_annotations::<S>(net, &small, &small.attrs, next_seed(seed));
        let big = rels[o].as_mut().expect("container edge alive");
        multiply_or_drop::<S>(net, big, &small.attrs, &table);
        alive[e] = false;
    }
    let kept: Vec<usize> = (0..q.n_edges()).filter(|&e| alive[e]).collect();
    let edges = kept.iter().map(|&e| q.edge(e).clone()).collect();
    (
        Query::from_parts(q.attr_names().to_vec(), edges),
        kept.into_iter().map(|e| rels[e].take().unwrap()).collect(),
    )
}

/// ⊕-sum the trailing annotation column of `rel` per projection onto `key`
/// (one sum-by-key round).
fn sum_annotations<S: Semiring<T: Wire>>(
    net: &mut Net,
    rel: &DistRelation,
    key: &[Attr],
    seed: u64,
) -> OwnedTable<Tuple, S::T> {
    let pos = rel.positions_of(key);
    let ann = rel.attrs.len();
    let pairs = rel.parts.iter().map(|part| {
        part.iter()
            .map(|t| (t.project(&pos), S::from_u64(t.get(ann))))
            .collect()
    });
    sum_by_key(net, Partitioned::from_parts(pairs.collect()), seed, S::add)
}

/// Look up each tuple of `rel` in `table` by its projection onto `key`
/// (one lookup): a hit ⊗-multiplies the entry into the tuple's trailing
/// annotation column, a miss drops the tuple.
fn multiply_or_drop<S: Semiring<T: Wire>>(
    net: &mut Net,
    rel: &mut DistRelation,
    key: &[Attr],
    table: &OwnedTable<Tuple, S::T>,
) {
    let pos = rel.positions_of(key);
    let ann = rel.attrs.len();
    let requests = Partitioned::from_parts(
        rel.parts
            .iter()
            .map(|part| part.iter().map(|t| t.project(&pos)).collect())
            .collect(),
    );
    let answers = lookup(net, table, &requests);
    let mut probe = Vec::with_capacity(pos.len());
    for (part, ans) in rel.parts.parts_mut().iter_mut().zip(answers) {
        let mut next = Vec::with_capacity(part.len());
        for t in part.drain(..) {
            t.project_into(&pos, &mut probe);
            if let Some(&m) = ans.get(probe.as_slice()) {
                let mut vals = t.values().to_vec();
                vals[ann] = S::to_u64(S::mul(S::from_u64(t.get(ann)), m));
                next.push(Tuple::new(vals));
            }
        }
        *part = next;
    }
}

/// Re-root a join tree at `new_root`: returns the new parent array and a
/// BFS (top-down) order.
fn re_root(
    tree: &aj_relation::JoinTree,
    new_root: usize,
    n: usize,
) -> (Vec<Option<usize>>, Vec<usize>) {
    // Build adjacency.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (e, p) in tree.parent.iter().enumerate() {
        if let Some(p) = p {
            adj[e].push(*p);
            adj[*p].push(e);
        }
    }
    let mut parents: Vec<Option<usize>> = vec![None; n];
    let mut bfs = vec![new_root];
    let mut seen = vec![false; n];
    seen[new_root] = true;
    let mut i = 0;
    while i < bfs.len() {
        let u = bfs[i];
        i += 1;
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                parents[v] = Some(u);
                bfs.push(v);
            }
        }
    }
    (parents, bfs)
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
    use aj_relation::semiring::CountRing;
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
