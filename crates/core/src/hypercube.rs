//! The **HyperCube** algorithm (Afrati–Ullman \[3\], analysed by \[8\]): a
//! one-round algorithm that arranges the `p` servers into a grid with one
//! dimension (share) per attribute; every tuple is replicated to all cells
//! consistent with the hash of its attributes.
//!
//! * On Cartesian products it is instance-optimal up to polylog factors
//!   (paper, Section 1.3 / Eq. (1)).
//! * With worst-case-optimal shares it is the baseline for the triangle join
//!   (Section 7).
//! * On skewed instances its load degrades — exactly the gap the paper's
//!   Theorem-3 algorithm closes; the experiments measure this.
//!
//! The skew-aware variant ([`hypercube_join_skew`]) removes the worst of
//! that degradation without giving up the one-round structure: a broadcast
//! [`HypercubeSkew`] profile names the heavy values per attribute, one
//! **designated** relation *partitions* each heavy value across its
//! dimension (coordinate from a full-tuple hash instead of the value hash),
//! and every other relation *replicates* its matching tuples across that
//! dimension. Light values keep the bit-identical hash placement.

use aj_mpc::{detect_heavy_hitters, hash_mix, HashKey, Net, Partitioned, RowOutbox, TupleBlock};
use aj_relation::{Attr, Query, Tuple, Value};

use crate::dist::{DistDatabase, DistRelation};
use crate::local::{multiway_join, normalize, LocalRel};
use aj_primitives::Key;

/// Integer shares, one per attribute; their product must be ≤ p.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shares(pub Vec<usize>);

impl Shares {
    /// Grid size = product of shares.
    pub(crate) fn grid_size(&self) -> usize {
        self.0.iter().product()
    }
}

/// HyperCube's grid of cells: the shares, their mixed-radix strides and the
/// hash seed. [`Grid::cells`] is the one placement rule — the one-round
/// join and the delta subsystem's view grids (`crate::delta`) both route
/// through it, so a signed row lands in exactly the cells the resident
/// placement put its base tuple in.
#[derive(Debug, Clone)]
pub(crate) struct Grid {
    pub(crate) shares: Shares,
    stride: Vec<usize>,
    seed: u64,
}

impl Grid {
    /// The grid of `shares` (one per attribute) hashed with `seed`.
    pub(crate) fn new(shares: Shares, seed: u64) -> Self {
        let mut stride = vec![1usize; shares.0.len()];
        for a in 1..stride.len() {
            stride[a] = stride[a - 1] * shares.0[a - 1];
        }
        Grid {
            shares,
            stride,
            seed,
        }
    }

    /// The dimensions a relation with layout `attrs` replicates across:
    /// attributes it does not fix, with share > 1.
    pub(crate) fn free(&self, attrs: &[Attr]) -> Vec<Attr> {
        (0..self.shares.0.len())
            .filter(|a| !attrs.contains(a) && self.shares.0[*a] > 1)
            .collect()
    }

    /// The cells a tuple of layout `attrs` is placed in: one hashed
    /// coordinate per own attribute, a full sweep over every dimension in
    /// `free` (from [`Grid::free`]).
    pub(crate) fn cells(&self, values: &[Value], attrs: &[Attr], free: &[Attr]) -> Vec<usize> {
        self.skewed_cells(values, attrs, free, &HypercubeSkew::empty(), 0)
    }

    /// [`Grid::cells`] for a tuple of relation `e` under a skew profile: a
    /// heavy value that `e` is designated to partition takes a
    /// full-tuple-hash coordinate, a heavy value another relation
    /// partitions is swept like a free dimension, and light values keep
    /// the hashed coordinate.
    fn skewed_cells(
        &self,
        values: &[Value],
        attrs: &[Attr],
        free: &[Attr],
        skew: &HypercubeSkew,
        e: usize,
    ) -> Vec<usize> {
        let mut base = 0usize;
        let mut replicated: Vec<Attr> = Vec::new();
        for (i, &a) in attrs.iter().enumerate() {
            let share = self.shares.0[a];
            if share <= 1 {
                continue;
            }
            let c = match skew.designee(a, values[i]) {
                None => (values[i] ^ (a as u64 * 0x9e37_79b9)).owner(self.seed, share),
                // The slice seed is derived from the grid's, so the hashed
                // placement of light values is untouched.
                Some(d) if d == e => {
                    (values.hash_key(hash_mix(self.seed ^ 0x51de_ac3d)) % share as u64) as usize
                }
                Some(_) => {
                    replicated.push(a);
                    continue;
                }
            };
            base += c * self.stride[a];
        }
        let mut cells = vec![base];
        for &a in free.iter().chain(&replicated) {
            let mut next = Vec::with_capacity(cells.len() * self.shares.0[a]);
            for c in &cells {
                for v in 0..self.shares.0[a] {
                    next.push(c + v * self.stride[a]);
                }
            }
            cells = next;
        }
        cells
    }
}

/// Heavy values per attribute, each with the relation **designated** to
/// partition it (every other relation replicates across that dimension).
/// Small and globally known — like every skew profile it is derived at a
/// round barrier and broadcast, so routing consults it for free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HypercubeSkew {
    /// `(attribute, value, designated edge)` sorted by `(attribute, value)`.
    heavy: Vec<(Attr, u64, usize)>,
}

impl HypercubeSkew {
    /// A profile with no heavy values (routing stays pure HyperCube).
    pub fn empty() -> Self {
        HypercubeSkew::default()
    }

    /// Build from `(attribute, value, designated edge)` entries.
    ///
    /// # Panics
    /// Panics if an `(attribute, value)` pair repeats.
    pub(crate) fn from_entries(mut entries: Vec<(Attr, u64, usize)>) -> Self {
        entries.sort_unstable();
        for w in entries.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "duplicate heavy (attribute, value) pair"
            );
        }
        HypercubeSkew { heavy: entries }
    }

    /// Number of heavy `(attribute, value)` pairs.
    pub fn len(&self) -> usize {
        self.heavy.len()
    }

    /// Does the profile name no heavy value?
    pub fn is_empty(&self) -> bool {
        self.heavy.is_empty()
    }

    /// The `(attribute, value, designated edge)` entries.
    pub fn entries(&self) -> &[(Attr, u64, usize)] {
        &self.heavy
    }

    /// The edge designated to partition `value` on `attr`, if heavy.
    pub(crate) fn designee(&self, attr: Attr, value: u64) -> Option<usize> {
        self.heavy
            .binary_search_by(|&(a, v, _)| (a, v).cmp(&(attr, value)))
            .ok()
            .map(|i| self.heavy[i].2)
    }
}

/// Detect the heavy values of every sharded attribute (share > 1) across
/// the relations that contain it — one [`detect_heavy_hitters`] pass per
/// (relation, attribute) pair, merged at the barrier — and designate, per
/// heavy value, the relation with the largest count as its partitioner
/// (ties to the smaller edge index). A value is heavy when its merged count
/// reaches `threshold` (callers typically pass `IN/p`, the fair share a
/// single value can overload a server with).
pub fn detect_hypercube_skew(
    net: &mut Net,
    q: &Query,
    dist: &DistDatabase,
    shares: &Shares,
    k: usize,
    threshold: u64,
) -> HypercubeSkew {
    let threshold = threshold.max(2);
    let mut entries: Vec<(Attr, u64, usize)> = Vec::new();
    for a in 0..q.n_attrs() {
        if shares.0[a] <= 1 {
            continue;
        }
        // Per-edge nominations for this attribute, in edge order.
        let mut per_value: std::collections::BTreeMap<u64, Vec<(usize, u64)>> =
            std::collections::BTreeMap::new();
        for (e, rel) in dist.iter().enumerate() {
            let Some(pos) = rel.attrs.iter().position(|&x| x == a) else {
                continue;
            };
            let profile = detect_heavy_hitters(net, &rel.parts, &[pos], k);
            for (key, c) in profile.entries() {
                per_value.entry(key.get(0)).or_default().push((e, *c));
            }
        }
        for (value, contributions) in per_value {
            let total: u64 = contributions.iter().map(|&(_, c)| c).sum();
            if total < threshold {
                continue;
            }
            // Largest contributor partitions; first (smallest edge) wins ties.
            let mut best = contributions[0];
            for &(e, c) in &contributions[1..] {
                if c > best.1 {
                    best = (e, c);
                }
            }
            entries.push((a, value, best.0));
        }
    }
    HypercubeSkew::from_entries(entries)
}

/// Run HyperCube with the given shares. One data round. The local joins are
/// evaluated per grid cell; works for cyclic queries too. Callers holding a
/// [`Database`](aj_relation::Database) place it with
/// [`distribute_db`](crate::dist::distribute_db) first (the initial MPC
/// placement is free).
pub fn hypercube_join(
    net: &mut Net,
    q: &Query,
    dist: DistDatabase,
    shares: &Shares,
    seed: u64,
) -> DistRelation {
    hypercube_join_skew(net, q, dist, shares, &HypercubeSkew::empty(), seed)
}

/// The worst-case-optimal one-round join: [`hypercube_join`] at the
/// [`worst_case_shares`] of the (driver-visible) relation sizes. The
/// Section-7 triangle baseline (load `O(IN/p^{2/3})`), the `IN/√p` half of
/// Theorem 6's line-3 answer, the cyclic [`crate::planner::Plan::WorstCase`]
/// arm and every multi-edge GHD bag ([`crate::general`]).
pub fn worst_case_join(net: &mut Net, q: &Query, dist: DistDatabase, seed: u64) -> DistRelation {
    let sizes: Vec<u64> = dist.iter().map(|r| r.total_len() as u64).collect();
    let shares = worst_case_shares(q, &sizes, net.p());
    hypercube_join(net, q, dist, &shares, seed)
}

/// Skew-aware HyperCube: identical to [`hypercube_join`] except that
/// values named heavy by the profile are **partitioned/replicated** instead
/// of hashed — the designated relation spreads its matching tuples across
/// the value's dimension by a full-tuple hash, every other relation
/// replicates its matching tuples across that dimension (relations not
/// containing the attribute already do). Light values, and every value with
/// an empty profile, keep the bit-identical hash placement, so
/// `hypercube_join_skew(…, &HypercubeSkew::empty(), …)` reproduces
/// [`hypercube_join`]'s loads exactly.
pub fn hypercube_join_skew(
    net: &mut Net,
    q: &Query,
    dist: DistDatabase,
    shares: &Shares,
    skew: &HypercubeSkew,
    seed: u64,
) -> DistRelation {
    let p = net.p();
    assert_eq!(shares.0.len(), q.n_attrs(), "one share per attribute");
    let size = shares.grid_size();
    assert!(
        size >= 1 && size <= p,
        "share product {size} must fit in p={p}"
    );
    let grid = Grid::new(shares.clone(), seed);
    // Per-relation layouts, actual tuple arities (annotations may trail the
    // schema) and free coordinates (attributes a relation does not fix),
    // captured before the shards move into the routing closure.
    let rel_attrs: Vec<Vec<Attr>> = dist.iter().map(|rel| rel.attrs.clone()).collect();
    let rel_arity: Vec<usize> = dist
        .iter()
        .map(|rel| {
            rel.parts
                .iter()
                .flat_map(|pt| pt.first())
                .map(Tuple::arity)
                .next()
                .unwrap_or(rel.attrs.len())
        })
        .collect();
    let free: Vec<Vec<Attr>> = rel_attrs.iter().map(|attrs| grid.free(attrs)).collect();
    // Transpose the database to per-server slices so the whole placement is
    // ONE round (one exchange), with every server's routing work a closure
    // the executor can run concurrently.
    let mut per_server: Vec<Vec<(usize, Vec<Tuple>)>> = (0..p).map(|_| Vec::new()).collect();
    for (e, rel) in dist.into_iter().enumerate() {
        for (s, part) in rel.parts.into_parts().into_iter().enumerate() {
            per_server[s].push((e, part));
        }
    }
    // Route columnar: each tuple goes to every cell consistent with its attr
    // hashes, staged as one flat row `[edge, values…, 0-padding]` per copy
    // (blocks need a uniform width; the widest relation sets it). One row is
    // one load unit — identical accounting to the per-item exchange.
    let row_arity = 1 + rel_arity.iter().copied().max().unwrap_or(0);
    let outbox: Vec<RowOutbox> = net.run_local(per_server, |_, rels| {
        let mut ob = RowOutbox::new(row_arity);
        let mut row = vec![0u64; row_arity];
        for (e, part) in rels {
            let attrs = &rel_attrs[e];
            for t in part {
                let cells = grid.skewed_cells(t.values(), attrs, &free[e], skew, e);
                row[0] = e as u64;
                row[1..1 + t.arity()].copy_from_slice(t.values());
                row[1 + t.arity()..].fill(0);
                for &cell in &cells {
                    ob.push(cell, &row);
                }
            }
        }
        ob
    });
    let received = net.exchange_rows(row_arity, outbox);
    // Local join per cell, one closure per server.
    let out_attrs: Vec<Attr> = (0..q.n_attrs())
        .filter(|&a| !q.edges_containing(a).is_empty())
        .collect();
    let out_parts: Vec<Vec<Tuple>> = net.run_local(received, |_, block: TupleBlock| {
        let mut locals: Vec<LocalRel> = q
            .edges()
            .iter()
            .map(|e| LocalRel {
                attrs: e.attrs.clone(),
                tuples: Vec::new(),
            })
            .collect();
        for row in block.iter() {
            let e = row[0] as usize;
            locals[e].tuples.push(Tuple::new(&row[1..1 + rel_arity[e]]));
        }
        cell_join(&locals)
    });
    DistRelation {
        attrs: out_attrs,
        parts: Partitioned::from_parts(out_parts),
    }
}

/// Finish one grid cell: the pairwise [`multiway_join`] of its fragments,
/// columns in ascending attribute order. Empty when any fragment is.
pub(crate) fn cell_join(locals: &[LocalRel]) -> Vec<Tuple> {
    if locals.iter().any(|l| l.tuples.is_empty()) {
        return Vec::new();
    }
    let (attrs, tuples) = multiway_join(locals);
    normalize(&attrs, tuples).1
}

/// Optimal integer shares for a Cartesian product of the given sizes
/// (Eq. (1) regime): exhaustive search over power-of-two share vectors
/// minimizing the per-server load estimate `Σ_i N_i / s_i · (Π s)/p`… i.e.
/// simply `Σ_i N_i / s_i` subject to `Π s_i ≤ p`.
pub fn cartesian_shares(sizes: &[u64], p: usize) -> Shares {
    best_shares(sizes.len(), p, |s| {
        sizes
            .iter()
            .zip(s)
            .map(|(&n, &si)| n as f64 / si as f64)
            .sum()
    })
    .0
}

/// Worst-case shares for a general query: minimize the estimated load
/// `Σ_e N_e / Π_{x∈e} s_x` over power-of-two share vectors with `Π ≤ p`.
pub fn worst_case_shares(q: &Query, sizes: &[u64], p: usize) -> Shares {
    worst_case_search(q, sizes, p).0
}

/// [`worst_case_shares`] together with the minimum of the objective the
/// search found — the load estimate [`crate::bounds::wc_share_cost`]
/// prices plans with.
pub(crate) fn worst_case_search(q: &Query, sizes: &[u64], p: usize) -> (Shares, f64) {
    assert_eq!(sizes.len(), q.n_edges());
    best_shares(q.n_attrs(), p, |s| {
        q.edges()
            .iter()
            .zip(sizes)
            .map(|(e, &n)| {
                let denom: f64 = e.attrs.iter().map(|&a| s[a] as f64).product();
                n as f64 / denom
            })
            .sum()
    })
}

/// Exhaustive search over power-of-two share vectors (queries are constant
/// size, so the search space is tiny).
///
/// **Rounding:** the search budgets `⌊log₂ p⌋` doubling levels, so the grid
/// holds at most `2^⌊log₂ p⌋ ≤ p` cells. For non-power-of-two `p` the
/// remaining `p − 2^⌊log₂ p⌋` servers receive no grid cell and stay idle —
/// a deliberate (at most 2×) rounding loss, standard for HyperCube share
/// optimization, in exchange for an exact integral grid. In particular
/// `p = 1` yields the all-ones share vector (everything on one server) and
/// `p = 7` a grid of at most 4 cells. Returns the shares with the minimum
/// cost found.
fn best_shares(n_attrs: usize, p: usize, cost: impl Fn(&[usize]) -> f64) -> (Shares, f64) {
    assert!(p >= 1, "need at least one server");
    let budget = (p as f64).log2().floor() as u32;
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut current = vec![0u32; n_attrs];
    fn rec(
        i: usize,
        left: u32,
        current: &mut Vec<u32>,
        best: &mut Option<(f64, Vec<usize>)>,
        cost: &impl Fn(&[usize]) -> f64,
    ) {
        if i == current.len() {
            let shares: Vec<usize> = current.iter().map(|&e| 1usize << e).collect();
            let c = cost(&shares);
            if best.as_ref().map(|(b, _)| c < *b).unwrap_or(true) {
                *best = Some((c, shares));
            }
            return;
        }
        for e in 0..=left {
            current[i] = e;
            rec(i + 1, left - e, current, best, cost);
        }
        current[i] = 0;
    }
    rec(0, budget, &mut current, &mut best, &cost);
    let (cost, shares) = best.expect("nonempty search");
    let shares = Shares(shares);
    assert!(
        shares.grid_size() <= p,
        "share search must fit the grid in p (grid {} > p {p})",
        shares.grid_size()
    );
    (shares, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use aj_mpc::Cluster;
    use aj_relation::{database_from_rows, ram, QueryBuilder};

    #[test]
    fn cartesian_shares_balance() {
        // Equal sizes: shares split evenly.
        let s = cartesian_shares(&[1000, 1000], 16);
        assert_eq!(s.grid_size(), 16);
        assert_eq!(s.0, vec![4, 4]);
        // Skewed sizes: the big set gets the bigger share.
        let s = cartesian_shares(&[16, 1 << 20], 16);
        assert!(s.0[1] > s.0[0]);
    }

    #[test]
    fn hypercube_computes_cartesian_product() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A"]);
        b.relation("R2", &["B"]);
        let q = b.build();
        let db = database_from_rows(
            &q,
            &[
                (0..20).map(|i| vec![i]).collect(),
                (0..30).map(|i| vec![100 + i]).collect(),
            ],
        );
        let p = 8;
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            let shares = cartesian_shares(&[20, 30], p);
            hypercube_join(&mut net, &q, distribute_db(&db, p), &shares, 3)
        };
        assert_eq!(out.total_len(), 600);
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 600, "duplicates emitted");
    }

    #[test]
    fn hypercube_triangle_matches_bruteforce() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        let q = b.build();
        // Small random-ish triangle instance.
        let n = 12u64;
        let edges1: Vec<Vec<u64>> = (0..n)
            .flat_map(|b| {
                (0..n)
                    .filter(move |c| (b * 7 + c) % 3 == 0)
                    .map(move |c| vec![b, c])
            })
            .collect();
        let edges2: Vec<Vec<u64>> = (0..n)
            .flat_map(|a| {
                (0..n)
                    .filter(move |c| (a * 5 + c) % 4 == 0)
                    .map(move |c| vec![a, c])
            })
            .collect();
        let edges3: Vec<Vec<u64>> = (0..n)
            .flat_map(|a| {
                (0..n)
                    .filter(move |b| (a + b * 3) % 5 == 0)
                    .map(move |b| vec![a, b])
            })
            .collect();
        let db = database_from_rows(&q, &[edges1, edges2, edges3]);
        let want = ram::naive_join(&q, &db);
        let p = 8;
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            worst_case_join(&mut net, &q, distribute_db(&db, p), 17)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    /// `p = 1`: the budget is zero levels, so every share is 1 and the whole
    /// join runs on the single server.
    #[test]
    fn single_server_edge_case() {
        let q = {
            let mut b = QueryBuilder::new();
            b.relation("R1", &["A", "B"]);
            b.relation("R2", &["B", "C"]);
            b.build()
        };
        let s = worst_case_shares(&q, &[10, 10], 1);
        assert_eq!(s.0, vec![1, 1, 1]);
        assert_eq!(s.grid_size(), 1);
        let db = database_from_rows(
            &q,
            &[
                (0..10).map(|i| vec![i, i % 3]).collect(),
                (0..10).map(|i| vec![i % 3, 100 + i]).collect(),
            ],
        );
        let want = {
            let (_, mut t) = ram::join(&q, &db);
            t.sort_unstable();
            t
        };
        let mut cluster = Cluster::new(1);
        let out = {
            let mut net = cluster.net();
            hypercube_join(&mut net, &q, distribute_db(&db, 1), &s, 7)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    /// Non-power-of-two `p = 7`: the grid uses at most `2^⌊log₂ 7⌋ = 4`
    /// cells; the stranded servers stay idle but the join is still correct.
    #[test]
    fn non_power_of_two_p_edge_case() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        let q = b.build();
        let s = worst_case_shares(&q, &[200, 200, 200], 7);
        assert!(s.grid_size() <= 4, "budget ⌊log₂ 7⌋ = 2 levels");
        let n = 10u64;
        let edges: Vec<Vec<u64>> = (0..n)
            .flat_map(|a| {
                (0..n)
                    .filter(move |b| (a + b) % 3 != 0)
                    .map(move |b| vec![a, b])
            })
            .collect();
        let db = database_from_rows(&q, &[edges.clone(), edges.clone(), edges]);
        let want = ram::naive_join(&q, &db);
        let mut cluster = Cluster::new(7);
        let out = {
            let mut net = cluster.net();
            hypercube_join(&mut net, &q, distribute_db(&db, 7), &s, 21)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
        // Servers beyond the grid received nothing.
        let peaks = &cluster.stats().per_server_peak;
        for (srv, &peak) in peaks.iter().enumerate().skip(s.grid_size()) {
            assert_eq!(peak, 0, "server {srv} is outside the grid but got data");
        }
    }

    /// An empty skew profile must reproduce the plain HyperCube run bit for
    /// bit — outputs and stats.
    #[test]
    fn empty_skew_profile_is_bit_identical() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        let q = b.build();
        let n = 14u64;
        let edges: Vec<Vec<u64>> = (0..n)
            .flat_map(|a| {
                (0..n)
                    .filter(move |b| (a * 3 + b) % 4 != 0)
                    .map(move |b| vec![a, b])
            })
            .collect();
        let db = database_from_rows(&q, &[edges.clone(), edges.clone(), edges]);
        let shares = worst_case_shares(&q, &[200, 200, 200], 8);
        let run = |skewed: bool| {
            let mut cluster = Cluster::new(8);
            let out = {
                let mut net = cluster.net();
                let dist = distribute_db(&db, 8);
                if skewed {
                    hypercube_join_skew(&mut net, &q, dist, &shares, &HypercubeSkew::empty(), 5)
                } else {
                    hypercube_join(&mut net, &q, dist, &shares, 5)
                }
            };
            (out.gather_free().tuples, cluster.stats().clone())
        };
        let (plain_out, plain_stats) = run(false);
        let (skew_out, skew_stats) = run(true);
        assert_eq!(plain_out, skew_out);
        assert_eq!(plain_stats, skew_stats);
    }

    /// A hot value on one attribute of a triangle: the hybrid placement must
    /// cut the hot cell's load and keep the result exact. Detection runs in
    /// its own stats epoch (exactly like the engine's planning phase), so
    /// the comparison is between the two *join* rounds.
    #[test]
    fn skewed_triangle_spreads_hot_value() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        let q = b.build();
        // Attribute A is hot: value 0 dominates R2 (one distinct C per
        // tuple); R3's hot fan-out is small, R1 carries no A at all.
        let r1: Vec<Vec<u64>> = (0..20u64)
            .flat_map(|b| (0..300u64).map(move |c| vec![b, c]))
            .filter(|t| (t[0] * 7 + t[1]) % 75 == 0)
            .collect();
        let mut r2: Vec<Vec<u64>> = (0..300).map(|c| vec![0, c]).collect();
        r2.extend((0..20).map(|i| vec![1 + i % 7, i % 9]));
        let mut r3: Vec<Vec<u64>> = (0..20).map(|b| vec![0, b]).collect();
        r3.extend((0..20).map(|i| vec![1 + i % 7, i % 12]));
        let mut db = database_from_rows(&q, &[r1, r2, r3]);
        for r in &mut db.relations {
            r.dedup();
        }
        let want = ram::naive_join(&q, &db);
        let p = 16;
        // Attr ids intern in first-use order: B=0, C=1, A=2. A gets the
        // big share.
        let a_attr = q.attr_by_name("A").unwrap();
        let mut share_vec = vec![2usize; 3];
        share_vec[a_attr] = 4;
        let shares = Shares(share_vec);
        let in_size = db.input_size() as u64;
        let run = |skewed: bool| {
            let mut cluster = Cluster::new(p);
            let dist = distribute_db(&db, p);
            let skew = if skewed {
                let mut net = cluster.net();
                let skew =
                    detect_hypercube_skew(&mut net, &q, &dist, &shares, 8, in_size / p as u64);
                assert_eq!(skew.len(), 1, "exactly the hot value is heavy: {skew:?}");
                assert_eq!(
                    skew.designee(a_attr, 0),
                    Some(1),
                    "R2 has the largest count"
                );
                skew
            } else {
                HypercubeSkew::empty()
            };
            let _detection = cluster.epoch();
            let out = {
                let mut net = cluster.net();
                hypercube_join_skew(&mut net, &q, dist, &shares, &skew, 11)
            };
            let join_epoch = cluster.epoch();
            let mut got = out.gather_free().tuples;
            got.sort_unstable();
            (got, join_epoch.max_load)
        };
        let (plain_out, plain_load) = run(false);
        let (skew_out, skew_load) = run(true);
        assert_eq!(plain_out, want);
        assert_eq!(skew_out, want);
        assert!(
            2 * skew_load <= plain_load,
            "hybrid join load {skew_load} should halve plain {plain_load}"
        );
    }

    #[test]
    fn worst_case_shares_for_triangle_are_cube_roots() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        let q = b.build();
        let s = worst_case_shares(&q, &[1000, 1000, 1000], 64);
        assert_eq!(s.0, vec![4, 4, 4]);
    }

    #[test]
    fn binary_join_via_hypercube_matches_oracle() {
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
        let want = {
            let (_, t) = ram::join(&q, &db);
            t
        };
        let p = 8;
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            worst_case_join(&mut net, &q, distribute_db(&db, p), 23)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        let mut want = want;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn worst_case_join_matches_oracle_on_four_cycle() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        b.relation("R4", &["D", "A"]);
        let q = b.build();
        let n = 16u64;
        let pair = |k: u64| -> Vec<Vec<u64>> {
            (0..n)
                .flat_map(|x| {
                    (0..n)
                        .filter(move |y| (x * k + y).is_multiple_of(3))
                        .map(move |y| vec![x, y])
                })
                .collect()
        };
        let db = database_from_rows(&q, &[pair(2), pair(3), pair(5), pair(7)]);
        let want = ram::naive_join(&q, &db);
        let p = 8;
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            worst_case_join(&mut net, &q, distribute_db(&db, p), 13)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn worst_case_join_load_is_backend_deterministic() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        let q = b.build();
        let edges: Vec<Vec<u64>> = (0..12u64)
            .flat_map(|x| {
                (0..12u64)
                    .filter(move |y| (x + 2 * y) % 4 != 0)
                    .map(move |y| vec![x, y])
            })
            .collect();
        let db = database_from_rows(&q, &[edges.clone(), edges.clone(), edges]);
        let run = |parallel: bool| {
            let mut cluster = if parallel {
                Cluster::new_parallel(4)
            } else {
                Cluster::new(4)
            };
            let out = {
                let mut net = cluster.net();
                worst_case_join(&mut net, &q, distribute_db(&db, 4), 99)
            };
            (out.gather_free().tuples, cluster.stats().clone())
        };
        let (seq_out, seq_stats) = run(false);
        let (par_out, par_stats) = run(true);
        assert_eq!(seq_out, par_out);
        assert_eq!(seq_stats, par_stats);
    }
}
