//! Distributed relations: the unit of data the MPC algorithms operate on,
//! and the full reducer that removes their dangling tuples.
//!
//! Every semi-join is one weighted step over a semiring: the child's weights
//! are ⊕-summed per join key, and each parent tuple that hits is kept, its
//! weight ⊗ the key's sum. Under `CountRing` the weights are counts, so the
//! reducer's bottom-up sweep is also the Corollary-4 counting sweep: the
//! solvers of Theorems 3, 5 and 7 read `OUT` (or the root's per-tuple counts)
//! off their own reduce, and `output_size` and `count_by_group` run the sweep
//! alone. Under any semiring the same sweep is Lemma 3's fold in
//! `aggregate::join_aggregate`, its weights the tuples' annotations.
//! The sweep's key owners stay resident for the reducer's top-down half,
//! which tells each server only what changed in between (two rounds of
//! subset reports per edge instead of a fresh three-round semi-join).

use aj_mpc::{Net, Partitioned, Wire};
use aj_primitives::{
    answer, coordinate, lookup, lookup_recording, report_subsets, sum_by_key, tally, values_owner,
    FxHashMap, FxHashSet, Hits, Key, Reports, Tally, DEFAULT_SEED,
};
use aj_relation::semiring::{CountRing, Semiring};
use aj_relation::{Attr, Database, JoinTree, Query, Relation, Tuple};

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
    let right_w = ones::<CountRing>(right);
    (semi_join_step::<CountRing>(net, weighted::<CountRing>(left), right, &right_w, seed).0).0
}

/// A relation and its tuples' weights in the semiring `S` (`w[s][i]` goes
/// with `parts[s][i]`).
pub(crate) type Weighted<S> = (DistRelation, Vec<Vec<<S as Semiring>::T>>);

/// Per Cartesian step of a sweep, the child's per-server ⊕-sums: together
/// a ⊗-factor of every result.
pub(crate) type Factors<S> = Vec<Vec<<S as Semiring>::T>>;

fn ones<S: Semiring>(rel: &DistRelation) -> Vec<Vec<S::T>> {
    rel.parts
        .iter()
        .map(|part| vec![S::one(); part.len()])
        .collect()
}

fn weighted<S: Semiring>(rel: DistRelation) -> Weighted<S> {
    let w = ones::<S>(&rel);
    (rel, w)
}

/// How a [`semi_join_step`] went.
enum Step<S: Semiring> {
    /// An empty side: the parent emptied without an exchange.
    Empty,
    /// A Cartesian child: its per-server ⊕-sums, a ⊗-factor of every parent
    /// weight.
    Cartesian(Vec<S::T>),
    /// Keyed: the step's key owners, resident for the edge's top-down step.
    Keyed(Owners<S>),
}

/// What a keyed [`semi_join_step`] leaves behind: at each key owner, the
/// child's tally (each key's child holders) and the `(entry, parent server)`
/// pair of every hit; at each parent server, the keys its answer hit.
pub(crate) struct Owners<S: Semiring> {
    seed: u64,
    child: Tally<Tuple, S::T>,
    askers: Hits,
    hits: Vec<FxHashMap<Tuple, S::T>>,
}

/// `parent ⋉ child` carrying weights in `S`, three rounds under `seed`: the
/// child's weights are ⊕-tallied per join key (one round), the parent looks
/// its keys up in the totals at the same owners (two rounds), and each
/// matching parent tuple is kept, its weight ⊗ the key's sum; a parent tuple
/// that misses is dropped. The owners keep who held and who hit each key.
/// Emptiness is driver-visible metadata: an empty side empties the parent
/// without an exchange. A Cartesian child is free too: its per-server
/// ⊕-sums come back as a factor of every parent weight.
///
/// The one fold step of the crate, called only by [`sweep_up`] and
/// [`dist_semi_join`]: under [`CountRing`] it is the reducer's and Corollary
/// 4's counting step, under any semiring the step of Lemma 3's
/// LinearAggroYannakakis fold and of the annotated reduce in
/// `aggregate::join_aggregate`.
fn semi_join_step<S: Semiring<T: Wire>>(
    net: &mut Net,
    (parent, parent_w): Weighted<S>,
    child: &DistRelation,
    child_w: &[Vec<S::T>],
    seed: u64,
) -> (Weighted<S>, Step<S>) {
    if parent.total_len() == 0 || child.total_len() == 0 {
        return (
            weighted::<S>(DistRelation::empty(parent.attrs, net.p())),
            Step::Empty,
        );
    }
    let shared = parent.shared_attrs(child);
    if shared.is_empty() {
        let sums = child_w
            .iter()
            .map(|w| w.iter().copied().fold(S::zero(), S::add));
        return ((parent, parent_w), Step::Cartesian(sums.collect()));
    }
    let (cpos, ppos) = (child.positions_of(&shared), parent.positions_of(&shared));
    let pairs = Partitioned::from_parts(net.run_each(|s| {
        (child.parts[s].iter().zip(&child_w[s]))
            .map(|(t, &w)| (t.project(&cpos), w))
            .collect::<Vec<_>>()
    }));
    let child_tally = tally(net, pairs, seed, S::add);
    let requests = Partitioned::from_parts(net.run_each(|s| {
        parent.parts[s]
            .iter()
            .map(|t| t.project(&ppos))
            .collect::<Vec<Tuple>>()
    }));
    let (hits, askers) = lookup_recording(net, &child_tally.totals, &requests);
    let shards = (parent.parts.into_parts().into_iter().zip(parent_w)).zip(&hits);
    let kept: Vec<(Vec<Tuple>, Vec<S::T>)> = net.run_local(
        shards.collect(),
        |_, ((mut part, mut w), ans): ((Vec<Tuple>, Vec<S::T>), _)| {
            // In place, probing by bare value slice: no per-tuple allocation.
            let (mut key, mut i, mut n) = (Vec::with_capacity(ppos.len()), 0, 0);
            part.retain(|t| {
                t.project_into(&ppos, &mut key);
                let hit = ans.get(key.as_slice());
                if let Some(&m) = hit {
                    w[n] = S::mul(w[i], m);
                    n += 1;
                }
                i += 1;
                hit.is_some()
            });
            w.truncate(n);
            (part, w)
        },
    );
    let (parts, w): (Vec<Vec<Tuple>>, Vec<Vec<S::T>>) = kept.into_iter().unzip();
    let attrs = parent.attrs;
    let parts = Partitioned::from_parts(parts);
    let owners = Owners {
        seed,
        child: child_tally,
        askers,
        hits,
    };
    ((DistRelation { attrs, parts }, w), Step::Keyed(owners))
}

/// `child ⋉ parent` for an edge whose bottom-up step was keyed, against
/// that step's resident [`Owners`]: two rounds of [`report_subsets`], and
/// no key travels unless something changed. The child is unchanged since
/// its tally, the parent has only shrunk in place since its lookup.
/// - (D1) Each parent server reports to each owner which of its hit keys
///   it still holds — at most the keys it asked that owner for in the
///   step's lookup.
/// - (D2) An owner marks a key alive if any of its parent holders still
///   holds it, and reports to each child holder which of that holder's keys
///   are alive — at most one unit per alive key, what a fresh semi-join's
///   answer round delivers. The child keeps exactly the alive keys' tuples.
fn semi_join_down(
    net: &mut Net,
    child: DistRelation,
    parent: &DistRelation,
    owners: &Owners<CountRing>,
) -> DistRelation {
    let (p, seed) = (net.p(), owners.seed);
    let shared = parent.shared_attrs(&child); // the step's key layout
    let (cpos, ppos) = (child.positions_of(&shared), parent.positions_of(&shared));
    let held: Vec<FxHashSet<&Tuple>> = net.run_each(|s| {
        let (mut key, mut held) = (Vec::with_capacity(ppos.len()), FxHashSet::default());
        for t in &parent.parts[s] {
            t.project_into(&ppos, &mut key);
            held.extend(owners.hits[s].get_key_value(key.as_slice()).map(|(k, _)| k));
        }
        held
    });
    let still_held = report_subsets(net, |s| {
        let held = &held[s];
        owners.hits[s]
            .keys()
            .map(move |k| (k.owner(seed, p), k, held.contains(k)))
    });
    let alive: Vec<Vec<bool>> = net.run_each(|o| {
        let keys = &owners.child.totals.parts[o];
        let mut alive = vec![false; keys.len()];
        for &(i, s) in &owners.askers[o] {
            alive[i] = alive[i] || still_held[o].is_in(s, &keys[i].0);
        }
        alive
    });
    let verdicts = report_subsets(net, |o| {
        owners
            .child
            .entries(o)
            .zip(&alive[o])
            .flat_map(|((k, _, holders), &alive)| holders.iter().map(move |&(c, _)| (c, k, alive)))
    });
    let kept = net.run_local(
        child.parts.into_parts().into_iter().zip(verdicts).collect(),
        |_, (mut part, alive): (Vec<Tuple>, Reports<Tuple>)| {
            let mut key = Vec::with_capacity(cpos.len());
            part.retain(|t| {
                t.project_into(&cpos, &mut key);
                alive.is_in(values_owner(&key, seed, p), key.as_slice())
            });
            part
        },
    );
    DistRelation {
        attrs: child.attrs,
        parts: Partitioned::from_parts(kept),
    }
}

/// A database after a counting sweep: each root tuple's subtree count is
/// its number of join results once the Cartesian factors multiply in.
pub(crate) struct Counted {
    /// The relations after the sweep.
    pub db: DistDatabase,
    /// The root edge of the join tree.
    pub root: usize,
    /// `counts[s][i]`: the subtree count of `db[root].parts[s][i]`.
    pub counts: Vec<Vec<u64>>,
    /// Per Cartesian step, the child's per-server count sums.
    pub factors: Vec<Vec<u64>>,
}

impl Counted {
    /// `OUT = |Q(R)|`: the root's counts times every factor, summed by one
    /// [`column_sums`] call.
    pub fn out(&self, net: &mut Net) -> u64 {
        let partials = (0..net.p()).map(|s| {
            let root = self.counts[s].iter().copied().fold(0, u64::saturating_add);
            let factors = self.factors.iter().map(|f| f[s]);
            std::iter::once(root).chain(factors).collect()
        });
        let sums = column_sums::<CountRing>(net, partials.collect());
        sums.into_iter().fold(1, u64::saturating_mul)
    }
}

/// The ⊕-column sums of one `Vec<S::T>` per server (all of one length),
/// added up by one coordinator call: 2 rounds, 2p units.
pub(crate) fn column_sums<S: Semiring<T: Wire>>(
    net: &mut Net,
    partials: Vec<Vec<S::T>>,
) -> Vec<S::T> {
    coordinate(net, partials, |parts| {
        let mut sums = vec![S::zero(); parts[0].len()];
        for part in &parts {
            for (sum, &c) in sums.iter_mut().zip(part) {
                *sum = S::add(*sum, c);
            }
        }
        vec![sums; parts.len()]
    })
    .swap_remove(0)
}

/// The bottom-up sweep along `tree` (Corollary 4's count, the reducer's
/// first half): from weight 1, each child steps into its parent in
/// elimination order, seeded by one `seeds()` draw per non-root edge.
pub(crate) fn count_sweep(
    net: &mut Net,
    tree: &JoinTree,
    db: DistDatabase,
    seeds: impl FnMut() -> u64,
) -> Counted {
    sweep_counts(net, tree, db, seeds, false).0
}

/// [`count_sweep`], also returning each keyed step's [`Owners`] by child
/// edge if `keep`.
fn sweep_counts(
    net: &mut Net,
    tree: &JoinTree,
    db: DistDatabase,
    seeds: impl FnMut() -> u64,
    keep: bool,
) -> (Counted, Vec<Option<Owners<CountRing>>>) {
    let mut rels: Vec<Weighted<CountRing>> = db.into_iter().map(weighted::<CountRing>).collect();
    let (factors, owners) = sweep_up::<CountRing>(net, tree, &mut rels, seeds, keep);
    let (db, mut w): (DistDatabase, Vec<_>) = rels.into_iter().unzip();
    let root = tree.root();
    let counts = std::mem::take(&mut w[root]);
    let counted = Counted {
        db,
        root,
        counts,
        factors,
    };
    (counted, owners)
}

/// The weighted bottom-up sweep along `tree`, in place: each child steps
/// into its parent in elimination order ([`semi_join_step`]), seeded by one
/// `seeds()` draw per edge that has a parent. `tree` may be a forest: each
/// parentless edge ends with its subtree's weights. Returns each Cartesian
/// step's per-server child sums (⊗-factors of the whole result) and, if
/// `keep`, each keyed step's [`Owners`] by child edge.
pub(crate) fn sweep_up<S: Semiring<T: Wire>>(
    net: &mut Net,
    tree: &JoinTree,
    rels: &mut [Weighted<S>],
    mut seeds: impl FnMut() -> u64,
    keep: bool,
) -> (Factors<S>, Vec<Option<Owners<S>>>) {
    let mut factors = Vec::new();
    let mut owners: Vec<Option<Owners<S>>> = rels.iter().map(|_| None).collect();
    for &e in &tree.order {
        let Some(pr) = tree.parent[e] else { continue };
        let placeholder = weighted::<S>(DistRelation::empty(Vec::new(), net.p()));
        let parent = std::mem::replace(&mut rels[pr], placeholder);
        let (child, child_w) = &rels[e];
        let (stepped, step) = semi_join_step::<S>(net, parent, child, child_w, seeds());
        rels[pr] = stepped;
        match step {
            Step::Empty => {}
            Step::Cartesian(factor) => factors.push(factor),
            Step::Keyed(o) => owners[e] = keep.then_some(o),
        }
    }
    (factors, owners)
}

/// Remove all dangling tuples of an acyclic join: two semi-join sweeps along
/// the join tree (the distributed full reducer; `O(m)` rounds, linear load).
/// A keyed edge costs 3 rounds bottom-up and 2 top-down
/// (resident key owners); an empty or Cartesian one costs none.
pub fn dist_full_reduce(net: &mut Net, q: &Query, db: DistDatabase, seed: u64) -> DistDatabase {
    dist_full_reduce_counted(net, q, db, seed).db
}

/// [`dist_full_reduce`] with the root's counts: the bottom-up half is the
/// counting sweep, 3 rounds per keyed edge. Its key owners stay resident,
/// so the top-down half semi-joins each child with its parent in 2 rounds
/// of subset reports that send only what changed in between
/// ([`semi_join_down`]); an empty or Cartesian edge keeps the plain
/// [`dist_semi_join`], which decides without an exchange. Bottom-up step
/// `i` is seeded `seed + i·0x9e37`; the top-down steps' draws follow and
/// are burnt.
pub(crate) fn dist_full_reduce_counted(
    net: &mut Net,
    q: &Query,
    db: DistDatabase,
    seed: u64,
) -> Counted {
    let tree = q
        .join_tree()
        .expect("full reducer requires an acyclic query");
    let p = net.p();
    let mut s = seed.wrapping_sub(0x9e37);
    let mut step_seed = || {
        s = s.wrapping_add(0x9e37);
        s
    };
    let (mut c, mut owners) = sweep_counts(net, &tree, db, &mut step_seed, true);
    for &e in tree.order.iter().rev() {
        let Some(pr) = tree.parent[e] else { continue };
        let seed = step_seed();
        let child = std::mem::replace(&mut c.db[e], DistRelation::empty(Vec::new(), p));
        c.db[e] = match owners[e].take() {
            Some(o) if c.db[pr].total_len() > 0 => semi_join_down(net, child, &c.db[pr], &o),
            _ => dist_semi_join(net, child, &c.db[pr], seed),
        };
    }
    c
}

/// Theorems 3 and 7's preprocessing: the counted full reduce, then the
/// hypergraph reduce, which drops contained relations (so relations with
/// trailing columns must have none). Returns the reduced query, whose
/// relations `db` now holds, and whether it kept every edge (else `root` is
/// stale).
pub(crate) fn reduce_for_solver(
    net: &mut Net,
    q: &Query,
    db: DistDatabase,
    seed: u64,
) -> (Query, Counted, bool) {
    let mut counted = dist_full_reduce_counted(net, q, db, seed);
    let (qr, kept) = q.reduce();
    let all = kept.len() == q.n_edges();
    assert!(
        all || !has_extras(&counted.db),
        "trailing columns need a query without contained edges \
         (join_aggregate's annotated reduce folds them first)"
    );
    if !all {
        counted.db = kept.iter().map(|&e| counted.db[e].clone()).collect();
    }
    (qr, counted, all)
}

/// Do any tuples carry extra trailing columns beyond their schema?
pub(crate) fn has_extras(db: &DistDatabase) -> bool {
    db.iter().any(|rel| {
        rel.parts
            .iter()
            .flat_map(|p| p.first())
            .any(|t| t.arity() > rel.attrs.len())
    })
}

/// Burn the seed draws a counting pass over `n_edges` edges makes (one per
/// non-root edge of its join tree), so a count obtained another way leaves
/// every later seed unchanged.
pub(crate) fn burn_count_draws(n_edges: usize, seed: &mut u64) {
    for _ in 1..n_edges {
        next_seed(seed);
    }
}

/// Per-key degrees of a distributed relation on `key_attrs`, plus a tagging
/// pass: returns `(heavy, light)` split of the relation by whether the key's
/// degree exceeds `threshold`. Linear load, two rounds: the degree
/// [`tally`] already heard from every server holding a key, so its owner
/// [`answer`]s those holders directly instead of being asked.
pub fn split_by_degree(
    net: &mut Net,
    rel: DistRelation,
    key_attrs: &[Attr],
    threshold: u64,
    seed: u64,
) -> (DistRelation, DistRelation) {
    let degrees = tally(net, key_units(net, &rel, key_attrs), seed, |a, b| a + b);
    let answers = answer(net, &degrees, |_, _, &d, holders, out| {
        out.extend(holders.iter().map(|_| d));
    });
    partition_by(net, rel, key_attrs, answers, |d| d > threshold)
}

/// One `(key, 1)` pair per tuple of `rel`, keyed on `key_attrs`. Free.
fn key_units(net: &Net, rel: &DistRelation, key_attrs: &[Attr]) -> Partitioned<(Tuple, u64)> {
    let pos = rel.positions_of(key_attrs);
    Partitioned::from_parts(net.run_each(|s| {
        rel.parts[s]
            .iter()
            .map(|t| (t.project(&pos), 1u64))
            .collect::<Vec<_>>()
    }))
}

/// Split `rel` into `(heavy, light)` by whether `heavy` holds for the
/// per-server answer to each tuple's key (0 when absent). Free.
pub(crate) fn partition_by(
    net: &mut Net,
    rel: DistRelation,
    key_attrs: &[Attr],
    answers: Vec<FxHashMap<Tuple, u64>>,
    heavy: impl Fn(u64) -> bool + Sync,
) -> (DistRelation, DistRelation) {
    let pos = rel.positions_of(key_attrs);
    let split: Vec<(Vec<Tuple>, Vec<Tuple>)> = net.run_local(
        rel.parts.into_parts().into_iter().zip(answers).collect(),
        |_, (part, ans): (Vec<Tuple>, FxHashMap<Tuple, u64>)| {
            part.into_iter()
                .partition(|t| heavy(ans.get(&t.project(&pos)).copied().unwrap_or(0)))
        },
    );
    let (heavy, light): (Vec<Vec<Tuple>>, Vec<Vec<Tuple>>) = split.into_iter().unzip();
    let half = |parts| DistRelation {
        attrs: rel.attrs.clone(),
        parts: Partitioned::from_parts(parts),
    };
    (half(heavy), half(light))
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
) -> Vec<FxHashMap<Tuple, u64>> {
    let degrees = sum_by_key(net, key_units(net, rel, rel_key_attrs), seed, |a, b| a + b);
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

    /// The semi-join primitive over projected keys (an empty or Cartesian
    /// right side decides alone), independent of the weighted step.
    fn reference_semi_join(
        net: &mut Net,
        left: DistRelation,
        right: &DistRelation,
        seed: u64,
    ) -> DistRelation {
        let shared = left.shared_attrs(right);
        if left.total_len() == 0 || right.total_len() == 0 || shared.is_empty() {
            let empty = right.total_len() == 0;
            return if empty {
                DistRelation::empty(left.attrs, left.parts.p())
            } else {
                left
            };
        }
        let (lpos, rpos) = (left.positions_of(&shared), right.positions_of(&shared));
        let keys = right.parts.clone().map(|_, t| t.project(&rpos));
        let key_of = |t: &Tuple| t.project(&lpos);
        let parts = aj_primitives::semi_join(net, left.parts, key_of, keys, seed);
        DistRelation {
            attrs: left.attrs,
            parts,
        }
    }

    /// The full reducer as two semi-join sweeps, seeds `seed + i·0x9e37`,
    /// and how many top-down semi-joins exchanged.
    fn reference_reduce(
        net: &mut Net,
        q: &Query,
        db: DistDatabase,
        seed: u64,
    ) -> (DistDatabase, u64) {
        let tree = q.join_tree().unwrap();
        let mut rels = db;
        let mut s = seed;
        let edges = tree.order.iter().map(|&e| (e, tree.parent[e]));
        let up: Vec<(usize, usize)> = edges.filter_map(|(e, p)| Some((p?, e))).collect();
        let down = up.iter().rev().map(|&(p, e)| (e, p));
        let mut keyed_down = 0;
        for (i, (to, from)) in up.iter().copied().chain(down).enumerate() {
            let before = net.stats().exchanges;
            rels[to] = reference_semi_join(net, rels[to].clone(), &rels[from], s);
            s = s.wrapping_add(0x9e37);
            if i >= up.len() && net.stats().exchanges > before {
                keyed_down += 1;
            }
        }
        (rels, keyed_down)
    }

    fn sorted(mut v: Vec<(Tuple, u64)>) -> Vec<(Tuple, u64)> {
        v.sort_unstable();
        v
    }

    /// The counted reducer against the semi-join sweeps and the RAM count:
    /// the same tuples on every server in the same order, `OUT` equal to
    /// `ram::count`, root counts grouped by an attribute of every edge equal
    /// to `count_by_group`, and no more communication than the reference
    /// reduce plus one prefix sum — less by a round per top-down semi-join
    /// the reference exchanged in. `extra` appends an annotation column.
    fn check_counted_reducer(q: &Query, db: &Database, extra: bool, label: &str) {
        let p = 4;
        let mut dist = distribute_db(db, p);
        if extra {
            for rel in &mut dist {
                rel.parts = rel.parts.clone().map(|_, t| t.extend(&[7]));
            }
        }
        let mut reference = Cluster::new(p);
        let (want, keyed_down) = reference_reduce(&mut reference.net(), q, dist.clone(), 11);
        let mut cluster = Cluster::new(p);
        let (got, out) = {
            let mut net = cluster.net();
            let got = dist_full_reduce_counted(&mut net, q, dist.clone(), 11);
            let out = got.out(&mut net);
            (got, out)
        };
        for (e, (g, w)) in got.db.iter().zip(&want).enumerate() {
            assert_eq!(
                g.parts, w.parts,
                "{label}: edge {e} differs from the semi-joins"
            );
        }
        assert_eq!(out, ram::count(q, db), "{label}: OUT");
        let (r, c) = (reference.stats(), cluster.stats());
        assert!(
            c.exchanges + keyed_down <= r.exchanges + 2,
            "{label}: rounds"
        );
        assert!(
            c.total_messages <= r.total_messages + 2 * p as u64,
            "{label}: units"
        );
        assert!(c.max_load <= r.max_load.max(p as u64), "{label}: load");
        let Some(a) = (0..q.n_attrs()).find(|&a| q.edges_containing(a).len() == q.n_edges()) else {
            return;
        };
        let mut net = cluster.net();
        let grouped = crate::aggregate::sum_by_group::<CountRing>(
            &mut net,
            &got.db[got.root],
            &got.counts,
            &[a],
            3,
        );
        let by_group = crate::aggregate::count_by_group(&mut net, q, &dist, &[a], 3, &mut 5);
        assert_eq!(
            sorted(grouped.parts.gather_free()),
            sorted(by_group.parts.gather_free()),
            "{label}: grouped counts"
        );
    }

    #[test]
    fn counted_reducer_matches_semi_joins_and_count() {
        use aj_instancegen::{randquery, shapes};
        for seed in 0u64..48 {
            let q = randquery::random_connected_query(seed);
            let q = if q.is_acyclic() {
                q
            } else {
                randquery::random_tree_query(seed)
            };
            let db = if seed % 2 == 0 {
                randquery::uniform_instance(&q, 24, 6, seed ^ 0xdb)
            } else {
                randquery::zipf_instance(&q, 24, 8, 1.2, seed ^ 0xdb)
            };
            check_counted_reducer(&q, &db, false, &format!("seed {seed}"));
        }
        let q = line3();
        let mut empty = db(&q);
        empty.relations[2].tuples.clear();
        check_counted_reducer(&q, &empty, false, "empty relation");
        check_counted_reducer(&q, &db(&q), true, "annotated");
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["D"]);
        b.relation("R4", &["D", "E"]);
        let cart = b.build();
        let rows = |n: u64, m: u64| (0..n).map(|i| vec![i % m, i % 3]).collect::<Vec<_>>();
        let mut cart_db = database_from_rows(
            &cart,
            &[rows(9, 4), rows(6, 5), vec![vec![1], vec![2]], rows(5, 2)],
        );
        cart_db.dedup_all();
        check_counted_reducer(&cart, &cart_db, false, "disconnected");
        let rh = shapes::rh_example_query();
        let mut rh_db = database_from_rows(
            &rh,
            &[vec![vec![0], vec![1]], rows(8, 3), vec![vec![1], vec![2]]],
        );
        rh_db.dedup_all();
        check_counted_reducer(&rh, &rh_db, false, "contained edge");
        let star = shapes::star_query(3);
        let star_db = aj_instancegen::randquery::zipf_instance(&star, 32, 6, 1.2, 9);
        check_counted_reducer(&star, &star_db, false, "star");
    }

    /// Every non-root relation sits on server 0 and most of its keys have
    /// no partner in its parent: the top-down reports to that one server
    /// must not outweigh the alive keys a fresh semi-join would answer.
    #[test]
    fn skewed_child_with_orphaned_keys_reduces_like_the_semi_joins() {
        let q = line3();
        let root = q.join_tree().unwrap().root();
        let diag = |n: u64, step: u64| (0..n).map(|i| vec![i * step, i * step]).collect();
        let d = database_from_rows(&q, &[diag(160, 1), diag(16, 10), diag(160, 1)]);
        let p = 8;
        let mut dist = distribute_db(&d, p);
        for (e, rel) in dist.iter_mut().enumerate() {
            if e != root {
                let mut parts = vec![Vec::new(); p];
                parts[0] = rel.parts.clone().gather_free();
                rel.parts = Partitioned::from_parts(parts);
            }
        }
        let mut reference = Cluster::new(p);
        let (want, _) = reference_reduce(&mut reference.net(), &q, dist.clone(), 11);
        let mut cluster = Cluster::new(p);
        let got = dist_full_reduce(&mut cluster.net(), &q, dist, 11);
        for (e, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.parts, w.parts, "edge {e}");
        }
        assert!(want[0].total_len() < 20 && want[2].total_len() < 20);
        assert!(cluster.stats().max_load <= reference.stats().max_load);
    }

    /// On a dangling-free instance nothing changes between the sweeps, so
    /// each keyed edge's top-down step is 2 exchanges of at most one unit
    /// per (sender, receiver) pair each.
    #[test]
    fn dangling_free_top_down_sends_one_unit_per_pair() {
        let q = line3();
        let rows = |n: u64| (0..n).map(|i| vec![i % 37, i % 41]).collect::<Vec<_>>();
        let mut d = database_from_rows(&q, &[rows(400), rows(1517), rows(400)]);
        d.dedup_all();
        let d = ram::full_reduce(&q, &d);
        let p = 8u64;
        let dist = distribute_db(&d, p as usize);
        let tree = q.join_tree().unwrap();
        let mut up = Cluster::new(p as usize);
        let mut s = 11u64.wrapping_sub(0x9e37);
        count_sweep(&mut up.net(), &tree, dist.clone(), || {
            s = s.wrapping_add(0x9e37);
            s
        });
        let mut full = Cluster::new(p as usize);
        let got = dist_full_reduce(&mut full.net(), &q, dist.clone(), 11);
        for (g, w) in got.iter().zip(&dist) {
            assert_eq!(g.parts, w.parts);
        }
        let (u, f) = (up.stats(), full.stats());
        let edges = q.n_edges() as u64 - 1;
        assert_eq!(u.exchanges, 3 * edges);
        assert_eq!(f.exchanges - u.exchanges, 2 * edges);
        assert!(f.total_messages - u.total_messages <= 2 * p * p * edges);
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
