//! The **instance-optimal algorithm for r-hierarchical joins**
//! (Theorem 3, Section 3.2): deterministic, O(1) rounds, load
//! `O(IN/p + L_instance(p, R))`.
//!
//! After removing dangling tuples (one counted full reduce) and reducing the
//! hypergraph, the attribute forest drives a two-case recursion. Each level
//! first needs the subset join sizes `|Q(R,S)|` for its load
//! `L = IN/p + L_instance`, and each case counts them once:
//!
//! * **Case 1** (one tree): group the instance by the root attribute(s),
//!   which lie in every edge. One grouped count per edge subset gives the
//!   per-value sizes `|Q_x(R_a,S)|`, and one coordinator call sums them into
//!   `|Q(R,S)|`; at the top level the full set's count only groups the
//!   reducer's root counts (when the hypergraph reduce kept every edge).
//!   Sub-instances lighter than `L` are parallel-packed onto single
//!   servers; heavy sub-instances get
//!   `p_a = max_S ⌈|Q_x(R_a,S)|/L^{|S|}⌉` servers and recurse on the
//!   residual query.
//! * **Case 2** (`k` trees = a Cartesian product of `k` joins): subsets
//!   inside one tree are counted (Corollary 4); a subset spanning trees is
//!   the product of its per-tree counts. Arrange the servers into a
//!   `p_1 × … × p_k` grid; each dimension-`i` group computes `Q_i(R_i)`
//!   (redundantly across groups), and every server emits the Cartesian
//!   product of its `k` output slices — no intermediate result is ever
//!   materialized, which is precisely how the algorithm beats the two-step
//!   approach (see the `|Q_1|=1, |Q_2|=p·IN` example in the paper).
//!
//! A count obtained without its own counting pass burns that pass's seed
//! draws, so the routing seeds — and every load — match a run that made one
//! counting pass per subset.
//!
//! Simulation notes (see ARCHITECTURE.md): parallel sub-problems execute
//! sequentially, so overlapping server ranges after demand-scaling are
//! load-neutral (the load is a max over rounds, and distinct sub-problems
//! occupy distinct rounds); driver-level control decisions (which groups are
//! heavy) read owner-side metadata that a real deployment would broadcast in
//! O(1) control messages.

use aj_mpc::{Net, Partitioned, ServerId, Wire, WireReader};
use aj_primitives::{answer, parallel_packing, prefix_sum, tally, FxHashMap, Key};
use aj_relation::classify::AttributeForest;
use aj_relation::semiring::CountRing;
use aj_relation::{Attr, EdgeSet, Query, Tuple};

use crate::aggregate::{count_by_group, output_size, sum_by_group};
use crate::dist::{
    burn_count_draws, column_sums, next_seed, reduce_for_solver, DistDatabase, DistRelation,
};
use crate::local::{multiway_join, normalize, LocalRel};

/// Solve an r-hierarchical join instance-optimally (Theorem 3).
///
/// # Panics
/// Panics if the reduced query is not hierarchical.
pub fn solve(net: &mut Net, q: &Query, db: DistDatabase, seed: &mut u64) -> DistRelation {
    let (qr, counted, all_kept) = reduce_for_solver(net, q, db, next_seed(seed));
    assert!(
        aj_relation::classify::is_hierarchical(&qr),
        "Theorem 3 requires an r-hierarchical query, got {q}"
    );
    let root_counts = all_kept.then_some((counted.root, counted.counts));
    rec(net, &qr, counted.db, root_counts, seed)
}

fn rec(
    net: &mut Net,
    q: &Query,
    db: DistDatabase,
    root_counts: Option<(usize, Vec<Vec<u64>>)>,
    seed: &mut u64,
) -> DistRelation {
    if q.n_edges() == 1 {
        return db.into_iter().next().unwrap().normalized_keep_extras();
    }
    let p = net.p();
    let in_size: usize = db.iter().map(DistRelation::total_len).sum();
    if in_size == 0 {
        return empty_output(q, p);
    }
    let forest = AttributeForest::build(q).expect("recursion keeps the query hierarchical");
    if forest.n_trees() == 1 {
        case1(net, q, db, &forest, in_size, root_counts, seed)
    } else {
        case2(net, q, db, &forest, in_size, seed)
    }
}

/// The load `L = ⌈IN/p⌉ + ⌈L_instance⌉` (at least 1) from the per-subset
/// join sizes `(S, |Q(R,S)|)`, where
/// `L_instance = max_S (|Q(R,S)|/p)^{1/|S|}`.
fn load_from_counts(
    in_size: usize,
    counts: impl IntoIterator<Item = (EdgeSet, u64)>,
    p: usize,
) -> u64 {
    let mut l_inst = 0f64;
    for (s, c) in counts {
        l_inst = l_inst.max((c as f64 / p as f64).powf(1.0 / s.len() as f64));
    }
    ((in_size as u64).div_ceil(p as u64) + l_inst.ceil() as u64).max(1)
}

#[derive(Debug, Clone, Copy)]
enum Directive {
    Light { group: u64 },
    Heavy { start: u64, len: u64 },
}

impl Wire for Directive {
    fn encode(&self, out: &mut Vec<u64>) {
        match *self {
            Directive::Light { group } => out.extend([0, group]),
            Directive::Heavy { start, len } => out.extend([1, start, len]),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.word() {
            0 => Directive::Light { group: r.word() },
            1 => Directive::Heavy {
                start: r.word(),
                len: r.word(),
            },
            other => panic!("wire: bad Directive tag {other}"),
        }
    }
}

/// Case 1: the attribute forest is a single tree; recurse on the root
/// attribute group. `root_counts`, when given, are the reducer's per-tuple
/// subtree counts of `db[root]` over `q`'s join tree.
fn case1(
    net: &mut Net,
    q: &Query,
    db: DistDatabase,
    forest: &AttributeForest,
    in_size: usize,
    root_counts: Option<(usize, Vec<Vec<u64>>)>,
    seed: &mut u64,
) -> DistRelation {
    let p = net.p();
    let m = q.n_edges();
    let root = forest.roots[0];
    let mut root_attrs: Vec<Attr> = forest.nodes[root].attrs.clone();
    root_attrs.sort_unstable();

    // The root attributes lie in every edge, so each |Q(R,S)| is the sum of
    // the per-root-value counts |Q_x(R_a,S)| below and needs no pass of its
    // own; that pass's seed draws are still burnt (see the module docs).
    for s in EdgeSet::all(m).subsets() {
        burn_count_draws(s.len(), seed);
    }
    let kd = next_seed(seed);
    // Per-value subset counts |Q_x(R_a, S)| co-located at the degree owner
    // (final_seed = kd), in subset order.
    let mut per_subset: Vec<(EdgeSet, Vec<FxHashMap<Tuple, u64>>)> = Vec::new();
    for s in EdgeSet::all(m).subsets() {
        if s.is_empty() {
            continue;
        }
        let table = match &root_counts {
            // The full set's sweep already ran inside the reducer.
            Some((e, counts)) if s.len() == m => {
                burn_count_draws(m, seed);
                sum_by_group::<CountRing>(net, &db[*e], counts, &root_attrs, kd)
            }
            _ => {
                let (sub_q, kept) = q.restrict(s);
                let sub_db: DistDatabase = kept.iter().map(|&e| db[e].clone()).collect();
                count_by_group(net, &sub_q, &sub_db, &root_attrs, kd, seed)
            }
        };
        per_subset.push((
            s,
            table
                .parts
                .iter()
                .map(|part| part.iter().cloned().collect())
                .collect(),
        ));
    }
    // The global |Q(R,S)|: every server's partial sums, added up by one
    // coordinator call.
    let partials: Vec<Vec<u64>> = (0..p)
        .map(|srv| {
            per_subset
                .iter()
                .map(|(_, tables)| tables[srv].values().fold(0u64, |a, &c| a.saturating_add(c)))
                .collect()
        })
        .collect();
    let totals = column_sums::<CountRing>(net, partials);
    let load = load_from_counts(in_size, per_subset.iter().map(|t| t.0).zip(totals), p);

    // IN_a per root value, across all relations.
    let pairs = Partitioned::from_parts(
        (0..p)
            .map(|s| {
                db.iter()
                    .flat_map(|rel| {
                        let pos = rel.positions_of(&root_attrs);
                        rel.parts[s].iter().map(move |t| (t.project(&pos), 1u64))
                    })
                    .collect()
            })
            .collect(),
    );
    let degrees = tally(net, pairs, kd, |a, b| a + b);

    // Light keys → parallel packing.
    let light_items = Partitioned::from_parts(
        degrees
            .totals
            .parts
            .iter()
            .map(|part| {
                part.iter()
                    .filter(|&&(_, d)| d <= load)
                    .map(|(k, d)| {
                        (
                            k.clone(),
                            (*d as f64 / load as f64).clamp(f64::MIN_POSITIVE, 1.0),
                        )
                    })
                    .collect()
            })
            .collect(),
    );
    let packing = parallel_packing(net, light_items);

    // Heavy keys: demands at the owners.
    let mut heavy_demand: Vec<Vec<(Tuple, u64)>> = Vec::with_capacity(p);
    for (s, part) in degrees.totals.parts.iter().enumerate() {
        let mut v = Vec::new();
        for (k, d) in part {
            if *d <= load {
                continue;
            }
            let mut pa = 1u64;
            for (subset, tables) in &per_subset {
                let ca = tables[s].get(k).copied().unwrap_or(0);
                let denom = (load as f64).powi(subset.len() as i32);
                pa = pa.max((ca as f64 / denom).ceil() as u64);
            }
            v.push((k.clone(), pa.clamp(1, p as u64)));
        }
        heavy_demand.push(v);
    }
    // Two-pass allocation with demand scaling to fit in p servers.
    let totals: Vec<u64> = heavy_demand
        .iter()
        .map(|v| v.iter().map(|d| d.1).sum())
        .collect();
    let (_, total) = prefix_sum(net, &totals);
    if total > p as u64 {
        for part in &mut heavy_demand {
            for d in part {
                d.1 = ((d.1 * p as u64) / total).clamp(1, p as u64);
            }
        }
    }
    let totals: Vec<u64> = heavy_demand
        .iter()
        .map(|v| v.iter().map(|d| d.1).sum())
        .collect();
    let (bases, _) = prefix_sum(net, &totals);
    let directive_parts: Vec<Vec<(Tuple, Directive)>> = packing
        .items
        .into_parts()
        .into_iter()
        .zip(&heavy_demand)
        .enumerate()
        .map(|(s, (light, heavy))| {
            let mut v: Vec<(Tuple, Directive)> = light
                .into_iter()
                .map(|(k, g)| (k, Directive::Light { group: g }))
                .collect();
            let mut run = bases[s];
            for (k, len) in heavy {
                let mut start = run % p as u64;
                if start + len > p as u64 {
                    start = p as u64 - len;
                }
                v.push((k.clone(), Directive::Heavy { start, len: *len }));
                run += len;
            }
            v
        })
        .collect();

    // The degree tally heard from every server holding a root value in any
    // relation: answer each holder its directive once, for all relations.
    let answers: Vec<FxHashMap<Tuple, Directive>> = {
        let by_key: Vec<FxHashMap<&Tuple, Directive>> = directive_parts
            .iter()
            .map(|part| part.iter().map(|(k, d)| (k, *d)).collect())
            .collect();
        answer(net, &degrees, |owner, k, _, holders, out| {
            out.extend(holders.iter().map(|_| by_key[owner][k]));
        })
    };

    // ---- Light sub-instances: one exchange, local multiway joins ---------
    // Per-server routing closures (one round), then per-server local joins —
    // both run concurrently under a parallel executor.
    let positions: Vec<Vec<usize>> = db.iter().map(|rel| rel.positions_of(&root_attrs)).collect();
    let received = net.round(|s| {
        let mut msgs: Vec<(ServerId, (u64, u8, Tuple))> = Vec::new();
        for (e, rel) in db.iter().enumerate() {
            let pos = &positions[e];
            for t in &rel.parts[s] {
                if let Some(Directive::Light { group }) = answers[s].get(&t.project(pos)) {
                    msgs.push(((*group % p as u64) as usize, (*group, e as u8, t.clone())));
                }
            }
        }
        msgs
    });
    let out_attrs = occurring_attrs(q);
    let mut out_parts: Vec<Vec<Tuple>> =
        net.run_local(received, |_, msgs: Vec<(u64, u8, Tuple)>| {
            let mut by_group: FxHashMap<u64, Vec<Vec<Tuple>>> = FxHashMap::default();
            for (g, e, t) in msgs {
                by_group.entry(g).or_insert_with(|| vec![Vec::new(); m])[e as usize].push(t);
            }
            let mut out = Vec::new();
            let mut groups: Vec<u64> = by_group.keys().copied().collect();
            groups.sort_unstable();
            for g in groups {
                let rels = &by_group[&g];
                if rels.iter().any(Vec::is_empty) {
                    continue;
                }
                let locals: Vec<LocalRel> = q
                    .edges()
                    .iter()
                    .zip(rels)
                    .map(|(e, tuples)| LocalRel {
                        attrs: e.attrs.clone(),
                        tuples: tuples.clone(),
                    })
                    .collect();
                let (attrs, tuples) = multiway_join(&locals);
                let (attrs, tuples) = normalize(&attrs, tuples);
                debug_assert_eq!(attrs, out_attrs);
                out.extend(tuples);
            }
            out
        });

    // ---- Heavy sub-instances: recurse on the residual query --------------
    // Driver-level introspection of the heavy directives (control metadata).
    let mut heavies: Vec<(Tuple, u64, u64)> = directive_parts
        .iter()
        .flatten()
        .filter_map(|(k, d)| match d {
            Directive::Heavy { start, len } => Some((k.clone(), *start, *len)),
            Directive::Light { .. } => None,
        })
        .collect();
    heavies.sort_by(|a, b| a.0.cmp(&b.0));
    // Residual query: drop the root attributes.
    let residual_edges: Vec<aj_relation::Edge> = q
        .edges()
        .iter()
        .map(|e| aj_relation::Edge {
            name: e.name.clone(),
            attrs: e
                .attrs
                .iter()
                .copied()
                .filter(|a| !root_attrs.contains(a))
                .collect(),
        })
        .collect();
    assert!(
        residual_edges.iter().all(|e| !e.attrs.is_empty()),
        "reduced hierarchical query with ≥2 edges cannot have an edge equal to the root"
    );
    let residual_q = Query::from_parts(q.attr_names().to_vec(), residual_edges);
    for (a, start, len) in heavies {
        // Ship the heavy sub-instance into its server range (one exchange
        // per heavy value: distinct rounds, so loads do not accumulate).
        let mut outbox: Vec<Vec<(ServerId, (u8, Tuple))>> = (0..p).map(|_| Vec::new()).collect();
        for (e, rel) in db.iter().enumerate() {
            let pos = rel.positions_of(&root_attrs);
            for (s, part) in rel.parts.iter().enumerate() {
                for t in part {
                    if t.project(&pos) == a {
                        let slot = (t.route_hash(0xfeed ^ e as u64) % len) as usize;
                        outbox[s].push((start as usize + slot, (e as u8, t.clone())));
                    }
                }
            }
        }
        let received = net.exchange(outbox);
        // Build the residual sub-database on the group servers.
        let mut sub_parts: Vec<Vec<Vec<Tuple>>> =
            (0..m).map(|_| vec![Vec::new(); len as usize]).collect();
        for (abs, msgs) in received.into_iter().enumerate() {
            if abs < start as usize || abs >= (start + len) as usize {
                debug_assert!(msgs.is_empty());
                continue;
            }
            let local = abs - start as usize;
            for (e, t) in msgs {
                sub_parts[e as usize][local].push(t);
            }
        }
        let sub_db: DistDatabase = (0..m)
            .map(|e| {
                let rel = &db[e];
                let keep: Vec<usize> = (0..rel.attrs.len())
                    .filter(|&c| !root_attrs.contains(&rel.attrs[c]))
                    .collect();
                let arity = sub_parts[e]
                    .iter()
                    .flat_map(|v| v.first())
                    .map(Tuple::arity)
                    .next()
                    .unwrap_or(rel.attrs.len());
                let proj: Vec<usize> = keep.iter().copied().chain(rel.attrs.len()..arity).collect();
                DistRelation {
                    attrs: keep.iter().map(|&c| rel.attrs[c]).collect(),
                    parts: Partitioned::from_parts(
                        sub_parts[e]
                            .iter()
                            .map(|part| part.iter().map(|t| t.project(&proj)).collect())
                            .collect(),
                    ),
                }
            })
            .collect();
        let sub_out = {
            let mut sub_net = net.sub(start as usize, len as usize);
            rec(&mut sub_net, &residual_q, sub_db, None, seed)
        };
        // Re-attach the root value columns and place into the global output.
        for (local, part) in sub_out.parts.into_parts().into_iter().enumerate() {
            let dest = start as usize + local;
            for t in part {
                let (attrs, merged) = merge_rows(&sub_out.attrs, &t, &root_attrs, &a);
                debug_assert_eq!(attrs, out_attrs);
                out_parts[dest].push(merged);
            }
        }
    }
    DistRelation {
        attrs: out_attrs,
        parts: Partitioned::from_parts(out_parts),
    }
}

/// Case 2: `k` independent trees — a Cartesian product of `k` joins over a
/// `p_1 × … × p_k` HyperCube of server groups.
fn case2(
    net: &mut Net,
    q: &Query,
    db: DistDatabase,
    forest: &AttributeForest,
    in_size: usize,
    seed: &mut u64,
) -> DistRelation {
    let p = net.p();
    let comps: Vec<EdgeSet> = forest.roots.iter().map(|&r| forest.tree_edges(r)).collect();
    let k = comps.len();
    // Per-subset join sizes |Q(R,S)| (no dangling tuples ⇒ = |⋈_S R(e)|).
    // A subset inside one component is counted with the linear-load
    // counting primitive (Corollary 4). Components share no attributes, so
    // a subset spanning several is the product of its per-component counts;
    // its pass is skipped and its seed draws burnt in place.
    let mut cnt: FxHashMap<EdgeSet, u64> = FxHashMap::default();
    for s in EdgeSet::all(q.n_edges()).subsets() {
        if s.is_empty() {
            continue;
        }
        if comps.iter().any(|&c| s.is_subset(c)) {
            let (sub_q, kept) = q.restrict(s);
            let sub_db: DistDatabase = kept.iter().map(|&e| db[e].clone()).collect();
            cnt.insert(s, output_size(net, &sub_q, &sub_db, seed));
        } else {
            burn_count_draws(s.len(), seed);
        }
    }
    for s in EdgeSet::all(q.n_edges()).subsets() {
        if s.is_empty() || cnt.contains_key(&s) {
            continue;
        }
        let product = comps
            .iter()
            .map(|&c| s.intersect(c))
            .filter(|part| !part.is_empty())
            .fold(1u64, |a, part| a.saturating_mul(cnt[&part]));
        cnt.insert(s, product);
    }
    let load = load_from_counts(in_size, cnt.iter().map(|(&s, &c)| (s, c)), p);
    // Per-component share p_i.
    let mut dims: Vec<usize> = comps
        .iter()
        .map(|&c| {
            let in_i: usize = c.iter().map(|e| db[e].total_len()).sum();
            if (in_i as u64) <= load {
                1
            } else {
                let mut pi = 1u64;
                for s in c.subsets() {
                    if s.is_empty() {
                        continue;
                    }
                    let ca = cnt[&s];
                    let denom = (load as f64).powi(s.len() as i32);
                    pi = pi.max((ca as f64 / denom).ceil() as u64);
                }
                pi.clamp(1, p as u64) as usize
            }
        })
        .collect();
    // Scale the grid into p cells.
    loop {
        let total: usize = dims.iter().product();
        if total <= p {
            break;
        }
        let imax = (0..k).max_by_key(|&i| dims[i]).unwrap();
        assert!(dims[imax] > 1, "grid cannot fit in p servers");
        dims[imax] /= 2;
    }
    let total_cells: usize = dims.iter().product();
    let mut stride = vec![1usize; k];
    for i in 1..k {
        stride[i] = stride[i - 1] * dims[i - 1];
    }
    // Which component does each edge belong to?
    let comp_of_edge: Vec<usize> = (0..q.n_edges())
        .map(|e| comps.iter().position(|c| c.contains(e)).unwrap())
        .collect();

    // One exchange: replicate each component's data across the other dims.
    let mut outbox: Vec<Vec<(ServerId, (u8, Tuple))>> = (0..p).map(|_| Vec::new()).collect();
    for (e, rel) in db.iter().enumerate() {
        let i = comp_of_edge[e];
        for (s, part) in rel.parts.iter().enumerate() {
            for t in part {
                let slot = (t.route_hash(0xabcd ^ e as u64) % dims[i] as u64) as usize;
                for cell in 0..total_cells {
                    if (cell / stride[i]) % dims[i] == slot {
                        outbox[s].push((cell, (e as u8, t.clone())));
                    }
                }
            }
        }
    }
    let received = net.exchange(outbox);
    // Slice received tuples per cell per edge.
    let mut cell_data: Vec<Vec<Vec<Tuple>>> = (0..total_cells)
        .map(|_| vec![Vec::new(); q.n_edges()])
        .collect();
    for (cell, msgs) in received.into_iter().enumerate().take(total_cells) {
        for (e, t) in msgs {
            cell_data[cell][e as usize].push(t);
        }
    }
    // Per dimension, per group: recurse on the component.
    // outputs[i][cell] = that cell's slice of Q_i's result.
    let mut outputs: Vec<Vec<Vec<Tuple>>> = vec![vec![Vec::new(); total_cells]; k];
    let mut out_attrs_i: Vec<Vec<Attr>> = vec![Vec::new(); k];
    for i in 0..k {
        let (sub_q, kept) = q.restrict(comps[i]);
        let n_combos = total_cells / dims[i];
        for combo in 0..n_combos {
            // The base cell of this group: distribute `combo` over the other
            // dimensions.
            let mut base = 0usize;
            let mut rem = combo;
            for j in 0..k {
                if j == i {
                    continue;
                }
                let c = rem % dims[j];
                rem /= dims[j];
                base += c * stride[j];
            }
            // Member cells: base + ci * stride[i].
            let sub_db: DistDatabase = kept
                .iter()
                .map(|&e| DistRelation {
                    attrs: db[e].attrs.clone(),
                    parts: Partitioned::from_parts(
                        (0..dims[i])
                            .map(|ci| cell_data[base + ci * stride[i]][e].clone())
                            .collect(),
                    ),
                })
                .collect();
            let sub_out = {
                let mut group_net = net.sub_strided(base, stride[i], dims[i]);
                rec(&mut group_net, &sub_q, sub_db, None, seed)
            };
            out_attrs_i[i] = sub_out.attrs.clone();
            for (ci, part) in sub_out.parts.into_parts().into_iter().enumerate() {
                outputs[i][base + ci * stride[i]] = part;
            }
        }
    }
    // Emit: per cell, the Cartesian product of its k slices.
    let out_attrs = occurring_attrs(q);
    let mut out_parts: Vec<Vec<Tuple>> = (0..p).map(|_| Vec::new()).collect();
    for (cell, out) in out_parts.iter_mut().enumerate().take(total_cells) {
        let slices: Vec<&Vec<Tuple>> = (0..k).map(|i| &outputs[i][cell]).collect();
        if slices.iter().any(|s| s.is_empty()) {
            continue;
        }
        // Iterative Cartesian product with schema merging.
        let mut acc_attrs = out_attrs_i[0].clone();
        let mut acc: Vec<Tuple> = slices[0].clone();
        for i in 1..k {
            let mut next = Vec::with_capacity(acc.len() * slices[i].len());
            let mut next_attrs = Vec::new();
            for t in &acc {
                for u in slices[i].iter() {
                    let (na, merged) = merge_rows(&acc_attrs, t, &out_attrs_i[i], u);
                    next_attrs = na;
                    next.push(merged);
                }
            }
            acc = next;
            acc_attrs = next_attrs;
        }
        debug_assert_eq!(acc_attrs, out_attrs);
        out.extend(acc);
    }
    DistRelation {
        attrs: out_attrs,
        parts: Partitioned::from_parts(out_parts),
    }
}

/// All attributes occurring in the query, ascending — the output schema.
pub(crate) fn occurring_attrs(q: &Query) -> Vec<Attr> {
    (0..q.n_attrs())
        .filter(|&a| !q.edges_containing(a).is_empty())
        .collect()
}

/// Merge two rows over disjoint, sorted attribute sets into one row over the
/// merged sorted schema; extra trailing columns are appended (a's first).
fn merge_rows(attrs_a: &[Attr], ta: &Tuple, attrs_b: &[Attr], tb: &Tuple) -> (Vec<Attr>, Tuple) {
    let mut attrs = Vec::with_capacity(attrs_a.len() + attrs_b.len());
    let mut vals = Vec::with_capacity(ta.arity() + tb.arity());
    let (mut i, mut j) = (0, 0);
    while i < attrs_a.len() || j < attrs_b.len() {
        let take_a = match (attrs_a.get(i), attrs_b.get(j)) {
            (Some(&a), Some(&b)) => {
                assert_ne!(a, b, "merge_rows requires disjoint schemas");
                a < b
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        if take_a {
            attrs.push(attrs_a[i]);
            vals.push(ta.get(i));
            i += 1;
        } else {
            attrs.push(attrs_b[j]);
            vals.push(tb.get(j));
            j += 1;
        }
    }
    for c in attrs_a.len()..ta.arity() {
        vals.push(ta.get(c));
    }
    for c in attrs_b.len()..tb.arity() {
        vals.push(tb.get(c));
    }
    (attrs, Tuple::new(vals))
}

pub(crate) fn empty_output(q: &Query, p: usize) -> DistRelation {
    DistRelation {
        attrs: occurring_attrs(q),
        parts: Partitioned::empty(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use aj_mpc::Cluster;
    use aj_relation::{database_from_rows, ram, Database, QueryBuilder};

    fn run(p: usize, q: &Query, db: &Database) -> (Vec<Tuple>, u64) {
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let dist = distribute_db(db, p);
            let mut seed = 99;
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
    fn single_relation() {
        let mut b = QueryBuilder::new();
        b.relation("R", &["A", "B"]);
        let q = b.build();
        let db = database_from_rows(&q, &[vec![vec![1, 2], vec![3, 4]]]);
        let (got, _) = run(2, &q, &db);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn binary_join_tall_flat() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..40).map(|i| vec![i, i % 8]).collect(),
                (0..40).map(|i| vec![i % 8, 100 + i]).collect(),
            ],
        );
        let (got, _) = run(4, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn r_hierarchical_with_contained_edges() {
        // R1(A) ⋈ R2(A,B) ⋈ R3(B): reduce drops R1 and R3.
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A"]);
        b.relation("R2", &["A", "B"]);
        b.relation("R3", &["B"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..10).map(|i| vec![i]).collect(),
                (0..40).map(|i| vec![i % 15, i % 7]).collect(),
                (0..5).map(|i| vec![i]).collect(),
            ],
        );
        let (got, _) = run(4, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn cartesian_product_case2() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A"]);
        b.relation("R2", &["B"]);
        b.relation("R3", &["C"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..6).map(|i| vec![i]).collect(),
                (0..7).map(|i| vec![100 + i]).collect(),
                (0..8).map(|i| vec![200 + i]).collect(),
            ],
        );
        let (got, _) = run(8, &q, &db);
        assert_eq!(got.len(), 6 * 7 * 8);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn star_join_with_skew() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["X", "A"]);
        b.relation("R2", &["X", "B"]);
        let q = b.build();
        // X = 0 is very heavy; others light.
        let mut r1: Vec<Vec<u64>> = (0..60).map(|i| vec![0, i]).collect();
        r1.extend((0..20).map(|i| vec![1 + i % 5, 1000 + i]));
        let mut r2: Vec<Vec<u64>> = (0..60).map(|i| vec![0, 5000 + i]).collect();
        r2.extend((0..20).map(|i| vec![1 + i % 5, 6000 + i]));
        let db = database_from_rows(&q, &[r1, r2]);
        let (got, _) = run(8, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn hierarchical_q2_shape() {
        // Q2 = R1(x1,x2) ⋈ R2(x1,x3,x4) ⋈ R3(x1,x3,x5).
        let mut b = QueryBuilder::new();
        b.relation("R1", &["x1", "x2"]);
        b.relation("R2", &["x1", "x3", "x4"]);
        b.relation("R3", &["x1", "x3", "x5"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..20).map(|i| vec![i % 4, i]).collect(),
                (0..30).map(|i| vec![i % 4, i % 6, i]).collect(),
                (0..25).map(|i| vec![i % 4, i % 6, 500 + i]).collect(),
            ],
        );
        let (got, _) = run(4, &q, &db);
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn no_duplicates_emitted() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["X", "A"]);
        b.relation("R2", &["X", "B"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..50).map(|i| vec![i % 3, i]).collect(),
                (0..50).map(|i| vec![i % 3, 100 + i]).collect(),
            ],
        );
        let (got, _) = run(8, &q, &db);
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(got.len(), dedup.len());
        assert_eq!(got, oracle(&q, &db));
    }

    #[test]
    fn empty_instance() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        let q = b.build();
        let db = database_from_rows(&q, &[vec![], vec![vec![1, 2]]]);
        let (got, _) = run(4, &q, &db);
        assert!(got.is_empty());
    }

    #[test]
    fn load_tracks_instance_bound_under_skew() {
        // Theorem 3's promise: load = O(IN/p + L_instance). On a skewed star
        // instance, compare against the instance bound rather than the
        // output-size bound.
        let mut b = QueryBuilder::new();
        b.relation("R1", &["X", "A"]);
        b.relation("R2", &["X", "B"]);
        let q = b.build();
        let heavy = 128u64;
        let mut r1: Vec<Vec<u64>> = (0..heavy).map(|i| vec![0, i]).collect();
        r1.extend((0..heavy).map(|i| vec![1 + (i % 64), 10_000 + i]));
        let mut r2: Vec<Vec<u64>> = (0..heavy).map(|i| vec![0, 20_000 + i]).collect();
        r2.extend((0..heavy).map(|i| vec![1 + (i % 64), 30_000 + i]));
        let db = database_from_rows(&q, &[r1, r2]);
        let p = 16;
        let (got, load) = run(p, &q, &db);
        assert_eq!(got, oracle(&q, &db));
        // L_instance ≈ max(IN/p, √(OUT_heavy/p)) with OUT ≈ 128² + light.
        let in_size = db.input_size() as u64;
        let out = got.len() as u64;
        let l_inst = ((out as f64) / p as f64).sqrt().ceil() as u64 + in_size / p as u64;
        assert!(
            load <= 12 * l_inst,
            "load {load} far above instance bound scale {l_inst}"
        );
    }
}
