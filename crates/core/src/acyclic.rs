//! The output-optimal algorithm for **arbitrary acyclic joins**
//! (Theorem 7, Section 5.1): load `O(IN/p + √(IN·OUT)/p)`.
//!
//! The recursion picks an internal join-tree node `e0` whose children
//! `e1, …, ek` are all leaves, classifies each leaf's tuples as heavy/light
//! by the degree of their join key `s_i = e0 ∩ e_i` (threshold
//! `τ = √(OUT/N_β)`), and decomposes the join into `2^k` sub-joins:
//!
//! * a sub-join containing some heavy `R^H(e_j)` is evaluated in the order
//!   `(R(e0) ⋉ R^H(e_j)) ⋈ rest`, whose intermediates have ≤ `OUT/τ`
//!   tuples, finished by one binary join with `R^H(e_j)` (Step 2);
//! * the all-light sub-join further splits `R(e0)` by the *product* of its
//!   light-leaf degrees: the heavy part pushes through `Ē` first and
//!   finishes with a tall-flat join solved by the Theorem-3 algorithm
//!   (Step 3.1); the light part joins its light leaves (≤ `N_β·τ`
//!   intermediate) and recurses on the contracted query (Step 3.2).
//!
//! Preprocessing is one counted full reduce: its bottom-up sweep is the
//! Corollary-4 count, so `OUT` costs one coordinator call on top, and the
//! seed draws of the separate counting pass it replaces are burnt.
//!
//! Relations may carry extra (annotation) columns; the input query must then
//! already be reduced (see [`crate::aggregate`]).

use aj_relation::{Attr, Edge, Query, Tuple};

use aj_mpc::Net;

use crate::binary::binary_join;
use crate::dist::{
    burn_count_draws, degrees_of, dist_full_reduce, dist_semi_join, next_seed, reduce_for_solver,
    split_by_degree, DistDatabase, DistRelation,
};
use crate::hierarchical::{empty_output, occurring_attrs};

/// Solve an arbitrary acyclic join with load `O(IN/p + √(IN·OUT)/p)`
/// (Theorem 7).
pub fn solve(net: &mut Net, q: &Query, db: DistDatabase, seed: &mut u64) -> DistRelation {
    assert!(q.is_acyclic(), "Theorem 7 requires an acyclic query");
    // The reducer's bottom-up sweep is the Corollary-4 count; the separate
    // counting pass it replaces (over the reduced query) burns its draws.
    let (q, counted, _) = reduce_for_solver(net, q, db, next_seed(seed));
    let out_size = counted.out(net);
    burn_count_draws(q.n_edges(), seed);
    if out_size == 0 {
        return empty_output(&q, net.p());
    }
    rec(net, &q, counted.db, out_size, seed)
}

fn rec(net: &mut Net, q: &Query, db: DistDatabase, out_size: u64, seed: &mut u64) -> DistRelation {
    let p = net.p();
    if q.n_edges() == 1 {
        return db.into_iter().next().unwrap().normalized_keep_extras();
    }
    let tree = q.join_tree().expect("recursion preserves acyclicity");
    // Pick e0: an internal node whose children are all leaves (one always
    // exists; take the one earliest in elimination order among candidates,
    // i.e. deepest).
    let children = tree.children();
    let e0 = tree
        .order
        .iter()
        .copied()
        .find(|&e| !children[e].is_empty() && children[e].iter().all(|&c| children[c].is_empty()))
        .expect("a tree with ≥2 nodes has an all-leaf-children internal node");
    let leaves: Vec<usize> = children[e0].clone();
    let k = leaves.len();
    let ebar: Vec<usize> = (0..q.n_edges())
        .filter(|e| *e != e0 && !leaves.contains(e))
        .collect();
    let in_size: u64 = db.iter().map(|r| r.total_len() as u64).sum();
    let n_alpha: u64 = leaves.iter().map(|&e| db[e].total_len() as u64).sum();
    let n_beta = (in_size - n_alpha).max(1);
    let tau = (((out_size as f64) / (n_beta as f64)).sqrt().ceil() as u64).max(1);

    // Join keys s_i = e0 ∩ e_i (non-empty unless the leaf is a Cartesian
    // factor, in which case the unit key groups everything — the paper's
    // dummy attribute).
    let s_i: Vec<Vec<Attr>> = leaves
        .iter()
        .map(|&e| db[e0].shared_attrs(&db[e]))
        .collect();

    // Split each leaf by key degree ≥ τ.
    let mut heavy_leaf: Vec<DistRelation> = Vec::with_capacity(k);
    let mut light_leaf: Vec<DistRelation> = Vec::with_capacity(k);
    for (i, &e) in leaves.iter().enumerate() {
        let (h, l) = split_by_degree(net, db[e].clone(), &s_i[i], tau - 1, next_seed(seed));
        heavy_leaf.push(h);
        light_leaf.push(l);
    }

    // Ē joined in BFS order from e0 (connected prefixes).
    let ebar_order = bfs_order_from(&tree, e0, &ebar);

    let out_attrs = occurring_attrs(q);
    let mut result = empty_output(q, p);
    // All 2^k sub-joins.
    for mask in 0u32..(1 << k) {
        let part = if mask != 0 {
            let j = mask.trailing_zeros() as usize;
            step2(
                net,
                q,
                &db,
                e0,
                &leaves,
                j,
                mask,
                &heavy_leaf,
                &light_leaf,
                &ebar_order,
                seed,
            )
        } else {
            step3(
                net,
                q,
                &db,
                e0,
                &leaves,
                &s_i,
                &light_leaf,
                &ebar_order,
                tau,
                out_size,
                seed,
            )
        };
        debug_assert_eq!(part.attrs, out_attrs, "sub-join schema mismatch");
        result = result.union(part);
    }
    result
}

/// Step 2: a sub-join containing at least one heavy leaf `j`.
#[allow(clippy::too_many_arguments)]
fn step2(
    net: &mut Net,
    q: &Query,
    db: &DistDatabase,
    e0: usize,
    leaves: &[usize],
    j: usize,
    mask: u32,
    heavy_leaf: &[DistRelation],
    light_leaf: &[DistRelation],
    ebar_order: &[usize],
    seed: &mut u64,
) -> DistRelation {
    let pick = |i: usize| -> &DistRelation {
        if (mask >> i) & 1 == 1 {
            &heavy_leaf[i]
        } else {
            &light_leaf[i]
        }
    };
    // Assemble the sub-join database: e0, all leaves (their chosen sides),
    // Ē — and full-reduce it so intermediates stay ≤ OUT/τ.
    let mut edges: Vec<usize> = vec![e0];
    edges.extend(leaves);
    edges.extend(ebar_order);
    let sub_q = query_over(q, &edges);
    let mut sub_db: DistDatabase = Vec::with_capacity(edges.len());
    sub_db.push(db[e0].clone());
    for (i, _) in leaves.iter().enumerate() {
        sub_db.push(pick(i).clone());
    }
    for &e in ebar_order {
        sub_db.push(db[e].clone());
    }
    let sub_db = dist_full_reduce(net, &sub_q, sub_db, next_seed(seed));
    // (2.1) R'(e0) = R(e0) ⋉ R^H(e_j): the reduce above already applied it
    // (the full reducer semi-joins e0 with every neighbour).
    // (2.2) Join everything except leaf j, starting from R'(e0).
    let mut acc = sub_db[0].clone();
    for (i, _) in leaves.iter().enumerate() {
        if i == j {
            continue;
        }
        acc = binary_join(net, acc, sub_db[1 + i].clone(), seed);
    }
    for (idx, _) in ebar_order.iter().enumerate() {
        acc = binary_join(net, acc, sub_db[1 + leaves.len() + idx].clone(), seed);
    }
    // (2.3) Finish with the heavy leaf.
    let out = binary_join(net, acc, sub_db[1 + j].clone(), seed);
    out.normalized_keep_extras()
}

/// Step 3: the all-light sub-join; splits `R(e0)` by the product of its
/// light-leaf degrees.
#[allow(clippy::too_many_arguments)]
fn step3(
    net: &mut Net,
    q: &Query,
    db: &DistDatabase,
    e0: usize,
    leaves: &[usize],
    s_i: &[Vec<Attr>],
    light_leaf: &[DistRelation],
    ebar_order: &[usize],
    tau: u64,
    out_size: u64,
    seed: &mut u64,
) -> DistRelation {
    let k = leaves.len();
    // Degree products for R(e0) tuples (per-server closures each pass).
    let mut product: Vec<Vec<u64>> = net.run_each(|s| vec![1u64; db[e0].parts[s].len()]);
    for i in 0..k {
        let maps = degrees_of(
            net,
            &light_leaf[i],
            &s_i[i],
            &db[e0],
            &s_i[i],
            next_seed(seed),
        );
        let pos = db[e0].positions_of(&s_i[i]);
        product = net.run_local(
            product.into_iter().zip(maps).collect(),
            |s, (mut prod, map): (Vec<u64>, aj_primitives::FxHashMap<Tuple, u64>)| {
                for (t, pr) in db[e0].parts[s].iter().zip(prod.iter_mut()) {
                    let d = map.get(&t.project(&pos)).copied().unwrap_or(0);
                    *pr = pr.saturating_mul(d);
                }
                prod
            },
        );
    }
    let (h_parts, l_parts): (Vec<Vec<Tuple>>, Vec<Vec<Tuple>>) = net
        .run_local(product, |s, prod: Vec<u64>| {
            let mut h = Vec::new();
            let mut l = Vec::new();
            for (t, &pr) in db[e0].parts[s].iter().zip(&prod) {
                if pr >= tau {
                    h.push(t.clone());
                } else {
                    l.push(t.clone());
                }
            }
            (h, l)
        })
        .into_iter()
        .unzip();
    let rh0 = DistRelation {
        attrs: db[e0].attrs.clone(),
        parts: aj_mpc::Partitioned::from_parts(h_parts),
    };
    let rl0 = DistRelation {
        attrs: db[e0].attrs.clone(),
        parts: aj_mpc::Partitioned::from_parts(l_parts),
    };

    // ---- (3.1) Heavy R(e0) --------------------------------------------
    let part_31 = {
        // Each input relation's extra (annotation) columns must enter the
        // tall-flat join exactly once: R^H(e0)'s extras travel inside
        // R'(e0) when Ē is non-empty, else inside R'(e_1); the copies of
        // R^H(e0) used for the other R'(e_i) are stripped to schema columns.
        let rh0_stripped = rh0.project(&rh0.attrs.clone());
        let mut tf_db: DistDatabase = Vec::with_capacity(k + 1);
        if !ebar_order.is_empty() {
            // (3.1.1) R'(e0) = R^H(e0) ⋈ (⋈ Ē) by tree order (reduce first).
            let mut edges = vec![e0];
            edges.extend(ebar_order);
            let sub_q = query_over(q, &edges);
            let mut sub_db: DistDatabase = vec![rh0.clone()];
            for &e in ebar_order {
                sub_db.push(db[e].clone());
            }
            let sub_db = dist_full_reduce(net, &sub_q, sub_db, next_seed(seed));
            let mut r0p = sub_db[0].clone();
            for rel in sub_db.into_iter().skip(1) {
                r0p = binary_join(net, r0p, rel, seed);
            }
            tf_db.push(r0p);
        }
        // (3.1.2) R'(e_i) = R^H(e0) ⋈ R^L(e_i).
        for (i, lf) in light_leaf.iter().take(k).enumerate() {
            let left = if ebar_order.is_empty() && i == 0 {
                rh0.clone()
            } else {
                rh0_stripped.clone()
            };
            tf_db.push(binary_join(net, left, lf.clone(), seed));
        }
        // (3.1.3) Tall-flat join of the R' relations via Theorem 3.
        if tf_db.iter().any(|r| r.total_len() == 0) {
            empty_output(q, net.p())
        } else {
            let tf_edges: Vec<Edge> = tf_db
                .iter()
                .enumerate()
                .map(|(i, r)| Edge {
                    name: format!("R'{i}"),
                    attrs: r.attrs.clone(),
                })
                .collect();
            let tf_q = Query::from_parts(q.attr_names().to_vec(), tf_edges);
            crate::hierarchical::solve(net, &tf_q, tf_db, seed).normalized_keep_extras()
        }
    };

    // ---- (3.2) Light R(e0) --------------------------------------------
    let part_32 = {
        // Remove zero-factor tuples, then join the light leaves.
        let mut acc = rl0;
        for lf in light_leaf.iter().take(k) {
            acc = dist_semi_join(net, acc, lf, next_seed(seed));
        }
        for lf in light_leaf.iter().take(k) {
            acc = binary_join(net, acc, lf.clone(), seed);
        }
        if ebar_order.is_empty() {
            acc.normalized_keep_extras()
        } else {
            // Contract e0 ∪ leaves into one edge and recurse.
            let mut edges: Vec<Edge> = vec![Edge {
                name: "e0'".to_string(),
                attrs: acc.attrs.clone(),
            }];
            let mut sub_db: DistDatabase = vec![acc];
            for &e in ebar_order {
                edges.push(q.edge(e).clone());
                sub_db.push(db[e].clone());
            }
            let sub_q = Query::from_parts(q.attr_names().to_vec(), edges);
            let sub_db = dist_full_reduce(net, &sub_q, sub_db, next_seed(seed));
            rec(net, &sub_q, sub_db, out_size, seed)
        }
    };
    part_31.union(part_32)
}

/// A query over the listed edges of `q`, in order.
fn query_over(q: &Query, edges: &[usize]) -> Query {
    Query::from_parts(
        q.attr_names().to_vec(),
        edges.iter().map(|&e| q.edge(e).clone()).collect(),
    )
}

/// BFS order of `within` starting from `e0` over the join-tree adjacency
/// (every prefix is connected to `e0`).
fn bfs_order_from(tree: &aj_relation::JoinTree, e0: usize, within: &[usize]) -> Vec<usize> {
    let n = tree.parent.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (e, p) in tree.parent.iter().enumerate() {
        if let Some(p) = p {
            adj[e].push(*p);
            adj[*p].push(e);
        }
    }
    let allowed: aj_primitives::FxHashSet<usize> = within.iter().copied().collect();
    let mut order = Vec::new();
    let mut seen = vec![false; n];
    seen[e0] = true;
    let mut queue = std::collections::VecDeque::from([e0]);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                if allowed.contains(&v) {
                    order.push(v);
                }
                queue.push_back(v);
            }
        }
    }
    // Disconnected leftovers (possible in disconnected queries): append.
    for &e in within {
        if !order.contains(&e) {
            order.push(e);
        }
    }
    order
}

/// The Theorem-7 target load `IN/p + √(IN·OUT)/p` (for experiment tables).
pub fn target_load(in_size: u64, out_size: u64, p: usize) -> u64 {
    let a = in_size.div_ceil(p as u64);
    let b = (((in_size as f64) * (out_size as f64)).sqrt() / p as f64).ceil() as u64;
    (a + b).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use aj_instancegen::{fig3, line_query, random, shapes};
    use aj_mpc::Cluster;
    use aj_relation::{database_from_rows, ram, Database};

    fn run(p: usize, q: &Query, db: &Database) -> (Vec<Tuple>, u64) {
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(db, p);
            let mut seed = 31;
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
    fn line3_matches_oracle() {
        let q = line_query(3);
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
    fn line4_matches_oracle() {
        let q = line_query(4);
        let db = database_from_rows(
            &q,
            &[
                (0..30).map(|i| vec![i, i % 5]).collect(),
                (0..25).map(|i| vec![i % 5, i % 7]).collect(),
                (0..28).map(|i| vec![i % 7, i % 4]).collect(),
                (0..16).map(|i| vec![i % 4, i]).collect(),
            ],
        );
        let (got, _) = run(4, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn fig3_instances_match_oracle() {
        for inst in [fig3::one_sided(48, 480), fig3::two_sided(48, 384)] {
            let (got, _) = run(8, &inst.query, &inst.db);
            assert_eq!(got.len() as u64, inst.out);
            assert_eq!(got, oracle(&inst.query, &inst.db));
        }
    }

    #[test]
    fn figure5_query_matches_oracle() {
        let q = shapes::figure5_query();
        let db = random::random_instance(&q, 40, 4, 77);
        let (got, _) = run(4, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn random_acyclic_differential() {
        for seed in 0..12u64 {
            let m = 2 + (seed as usize % 4);
            let q = random::random_acyclic_query(m, seed);
            let db = random::random_instance(&q, 30, 5, seed ^ 0xbeef);
            let (got, _) = run(4, &q, &db);
            assert_eq!(got, oracle(&q, &db), "seed {seed}, query {q}");
        }
    }

    #[test]
    fn no_duplicates_on_skewed_instance() {
        let inst = fig3::two_sided(64, 1024);
        let (got, _) = run(8, &inst.query, &inst.db);
        let mut d = got.clone();
        d.dedup();
        assert_eq!(d.len(), got.len());
    }

    #[test]
    fn star_with_tail_matches_oracle() {
        // Star core + a tail: acyclic, not r-hierarchical.
        let mut b = aj_relation::QueryBuilder::new();
        b.relation("R1", &["X", "A"]);
        b.relation("R2", &["X", "B"]);
        b.relation("R3", &["B", "C"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..30).map(|i| vec![i % 5, i]).collect(),
                (0..25).map(|i| vec![i % 5, i % 6]).collect(),
                (0..24).map(|i| vec![i % 6, i]).collect(),
            ],
        );
        let (got, _) = run(4, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn load_beats_yannakakis_at_scale() {
        let inst = fig3::two_sided(256, 8192);
        let p = 16;
        let (got, acy_load) = run(p, &inst.query, &inst.db);
        assert_eq!(got.len() as u64, inst.out);
        let mut cluster = Cluster::new(p);
        let yan_load = {
            let mut net = cluster.net();
            let dist = distribute_db(&inst.db, p);
            let mut seed = 7;
            crate::yannakakis::yannakakis(&mut net, &inst.query, dist, None, &mut seed);
            net.stats().max_load
        };
        assert!(
            acy_load < yan_load,
            "acyclic {acy_load} should beat yannakakis {yan_load}"
        );
    }

    #[test]
    fn empty_result_is_empty() {
        let q = line_query(3);
        let db = database_from_rows(&q, &[vec![vec![1, 2]], vec![vec![3, 4]], vec![vec![5, 6]]]);
        let (got, _) = run(2, &q, &db);
        assert!(got.is_empty());
    }
}
