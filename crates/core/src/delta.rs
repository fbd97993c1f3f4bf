//! **Incremental view maintenance**: registered queries kept materialized
//! under live insert/delete batches.
//!
//! The paper's algorithms are one-shot — every query recomputes from
//! scratch. A serving system sees the opposite workload: long-lived queries
//! against a base that changes by small signed batches. This module turns a
//! [`crate::engine::QueryEngine`] cluster into that system:
//!
//! * [`MaterializedView`] — one registered query with its **counted
//!   materialization** (exact per-tuple derivation counts in the signed
//!   counting ring [`aj_relation::semiring::ZRing`], sharded over the
//!   servers by output-tuple hash) and the cached state the delta pass
//!   joins against.
//! * **Every view is a bag tree.** The paper evaluates every join over a
//!   tree of bags — an acyclic join over its join tree (a width-1 GHD,
//!   Section 6), a cyclic core by HyperCube inside one bag — and the view
//!   cache is exactly that one structure, built from one of three
//!   decompositions chosen from the class and the priced plan alone:
//!   *one bag per edge* (acyclic classes: the bag tree is the query's own
//!   join tree, each bag in its edge's column layout), *one bag of all
//!   edges* (a cyclic view priced [`Plan::WorstCase`]: whole-query
//!   delta-HyperCube, the bag tree has no edges), or the bags of
//!   [`aj_relation::Ghd::build`] (a cyclic view priced [`Plan::Ghd`]: cyclic
//!   cores in multi-edge bags, acyclic appendages in single-edge ones).
//! * **Multi-edge bags** keep **delta-HyperCube** state: the build places
//!   the bag's base relations on its worst-case-optimal shares grid once and
//!   caches the per-cell fragments; a delta routes through the *same* cached
//!   grid (fixed coordinates hashed, free dimensions replicated) and joins
//!   against the resident fragments of the bag's other edges. A matching
//!   bag tuple meets its delta row in exactly one cell, and because λ
//!   partitions the edges its derivation count is exactly 1 — bag relations
//!   are plain sets and the lifted bag delta keeps weights `±1`. A
//!   single-edge bag *is* its base relation; its delta is the base delta.
//! * **The bag tree** caches one shard of every bag per *directed tree
//!   edge*, hashed on that edge's join key. A bag delta BFS-walks the cached
//!   tree from its bag: at each step the signed rows are routed by the next
//!   edge's key (one [`aj_mpc::Net::exchange_deltas`] round — deltas ride
//!   the same radix [`aj_relation::TupleBlock`] exchange as all bulk data)
//!   and joined locally against the cached partner shard. By the running
//!   intersection property, the shared attributes between the accumulated
//!   schema and the next bag are exactly that tree edge's key, so the walk
//!   computes `ΔB ⋈ (⋈_{j≠b} B_j)` with load `O(|ΔB| + |Δ-output|)` — the
//!   partners never move, and a base delta pays its own bag's replication,
//!   not the whole query's.
//! * **Counted deletions** — every routed row carries a signed weight
//!   (`-1` per delete, `+1` per insert; products through joins, ⊕-sums at
//!   the materialization), so a deletion is a pure decrement: no
//!   re-derivation scan, ever. An output tuple leaves the materialization
//!   exactly when its count reaches zero.
//! * **Recompute-vs-maintain** — each batch is priced by the planner
//!   ([`crate::planner::choose_maintenance`]): the delta pass at
//!   `IN = |Δ|` against a fresh build at the current `(IN, OUT)`, with a
//!   staleness term for accumulated churn. When maintenance loses, the view
//!   re-registers itself (new shares, fresh caches) inside the same call.
//! * **Per-view epochs** — registration and every update batch run inside
//!   their own stats epoch ([`aj_mpc::Cluster::epoch`]), so maintenance
//!   load is attributed exactly like per-query load on the serving path.
//! * Binary-join views keep their [`JoinSkew`] profile **maintained**: each
//!   batch folds its signed key counts into the profile
//!   ([`aj_relation::SkewProfile::apply_delta`]), and a rebuild re-detects
//!   from scratch — the profile invalidation — so heavy hitters that emerge
//!   mid-stream are visible without extra detection rounds.

use aj_primitives::FxHashMap;

use aj_mpc::{hash_to_server, Cluster, DeltaBlock, DeltaOutbox, EpochStats, RowOutbox, Wire};
use aj_relation::classify::{classify, JoinClass};
use aj_relation::delta::{decode_snapshot, encode_snapshot, CountedSnapshot, UpdateBatch};
use aj_relation::semiring::{Semiring, ZRing};
use aj_relation::signature::QuerySignature;
use aj_relation::skew::{JoinSkew, SkewProfile};
use aj_relation::{Attr, Database, Edge, Query, Relation, Tuple, Value};

use crate::binary::detect_join_skew;
use crate::dist::{distribute_db, mix, DistDatabase, DistRelation};
use crate::hypercube::{worst_case_shares, Shares};
use crate::local::LocalRel;
use crate::planner::{
    candidates, choose_maintenance, execute, hybrid_applicable, pick, MaintenanceChoice, Plan,
    DEFAULT_SKEW_TOP_K,
};
use crate::yannakakis::yannakakis;

/// Handle of a registered view within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ViewId(pub(crate) usize);

impl ViewId {
    /// The view's index within its engine's registration order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The answer to one [`crate::engine::QueryEngine::apply_update`] call.
#[derive(Debug)]
pub struct UpdateOutcome {
    /// The view that absorbed the batch.
    pub view: ViewId,
    /// What the planner chose for this batch.
    pub strategy: MaintenanceChoice,
    /// `|Δ|` of the batch.
    pub batch_size: u64,
    /// The planner's price of the delta pass.
    pub maintain_estimate: f64,
    /// The planner's price of a fresh build.
    pub recompute_estimate: f64,
    /// Loads of this call (the delta pass, or the rebuild) in its own epoch.
    pub maintenance: EpochStats,
    /// Distinct output tuples after the batch.
    pub out_size: u64,
}

/// Signed rows spread over the servers: `parts[s]` = the `(tuple, weight)`
/// rows resident at server `s`.
type SignedParts = Vec<Vec<(Tuple, i64)>>;

/// One cached bag-tree partner shard: bag `to`, hashed on the tree edge's
/// join key.
#[derive(Debug)]
struct EdgeShard {
    /// The partner bag whose tuples this shard caches.
    to: usize,
    /// The tree edge's join key (shared attributes, ascending).
    key: Vec<Attr>,
    /// Key positions within the partner's layout.
    key_pos: Vec<usize>,
    /// Routing seed of this shard.
    seed: u64,
    /// Per-server probe index: key values → resident partner tuples.
    index: Vec<FxHashMap<Tuple, Vec<Tuple>>>,
}

/// Partner shards per directed edge of the bag tree, plus the BFS
/// propagation order from every possible delta source.
#[derive(Debug, Default)]
struct TreeCache {
    shards: Vec<EdgeShard>,
    /// `paths[b]` = shard indices visited, in order, by a delta on bag `b`.
    paths: Vec<Vec<usize>>,
}

/// Delta-HyperCube state of one multi-edge bag: the bag's edges as a query
/// of their own and the shares grid their base fragments live on.
#[derive(Debug)]
struct BagGrid {
    /// The bag's edges (ascending edge order; attribute space preserved).
    sub_q: Query,
    shares: Shares,
    stride: Vec<usize>,
    seed: u64,
    /// Per sub-query edge: the grid dimensions it replicates across (share
    /// > 1, attribute not in the edge).
    free: Vec<Vec<Attr>>,
    /// `frags[s][j]` = sorted resident fragment of sub-query edge `j` at
    /// cell `s`.
    frags: Vec<Vec<Vec<Tuple>>>,
}

/// The cached state of a view: a tree of bags partitioning the query's
/// edges. Multi-edge bags keep a [`BagGrid`]; the [`TreeCache`] over the
/// bag query carries bag deltas to the output.
#[derive(Debug)]
struct BagTree {
    /// The acyclic query over the bags: a single-edge bag is its edge (own
    /// column layout), a multi-edge bag covers its edges' attributes,
    /// ascending.
    bag_query: Query,
    /// `edges_of[b]` = the base edges of bag `b`, ascending (a partition).
    edges_of: Vec<Vec<usize>>,
    /// `bag_of[e]` = the bag owning base edge `e`.
    bag_of: Vec<usize>,
    /// Per bag: the grid state (`None` for single-edge bags, whose bag
    /// relation is the base relation itself).
    grids: Vec<Option<BagGrid>>,
    tree: TreeCache,
    /// Per-tuple replication factor, weighted by relation size (the
    /// planner's pricing input): 1 on single-edge bags, the free-dimension
    /// product on a grid.
    repl: f64,
}

impl BagTree {
    /// Bag and position within the bag's sub-query of base edge `e`.
    fn locate(&self, e: usize) -> (usize, usize) {
        let b = self.bag_of[e];
        let j = self.edges_of[b]
            .iter()
            .position(|&x| x == e)
            .expect("edge belongs to its bag");
        (b, j)
    }
}

/// A query registered for incremental maintenance: the counted
/// materialization plus the cached join state the delta pass probes.
#[derive(Debug)]
pub struct MaterializedView {
    query: Query,
    class: JoinClass,
    plan: Plan,
    out_attrs: Vec<Attr>,
    /// Driver-side mirror of the current base instance (canonical sorted
    /// relations; free bookkeeping, like every driver-visible size).
    base: Database,
    /// Per-server counted materialization, hash-owned by output tuple.
    mat: Vec<FxHashMap<Tuple, i64>>,
    mat_seed: u64,
    seed_base: u64,
    cache: BagTree,
    registration: EpochStats,
    out_size: u64,
    /// Churn absorbed since the last full build.
    cum_delta: u64,
    rebuilds: u64,
    /// Maintained heavy-hitter profile (binary-join views only).
    skew: Option<JoinSkew>,
}

impl MaterializedView {
    /// The registered query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Table-1 class of the view.
    pub fn class(&self) -> JoinClass {
        self.class
    }

    /// The plan full builds of this view run.
    pub fn plan(&self) -> Plan {
        self.plan
    }

    /// Loads of the most recent full build (registration or rebuild).
    pub fn registration(&self) -> &EpochStats {
        &self.registration
    }

    /// Current base instance (driver-side mirror).
    pub fn base(&self) -> &Database {
        &self.base
    }

    /// Distinct output tuples currently materialized.
    pub fn out_size(&self) -> u64 {
        self.out_size
    }

    /// `Σ|Δ|` absorbed since the last full build.
    pub fn cum_delta(&self) -> u64 {
        self.cum_delta
    }

    /// How many times the view fell back to a full rebuild.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The maintained heavy-hitter profile over the join key (binary-join
    /// views only): updated in place by every maintained batch, re-detected
    /// from scratch — i.e. invalidated — by every rebuild.
    pub fn skew(&self) -> Option<&JoinSkew> {
        self.skew.as_ref()
    }

    /// One-line rendering of the maintained bag tree for EXPLAIN: each
    /// bag's edges and, for a multi-edge bag, its shares grid over the
    /// bag's attributes.
    pub(crate) fn describe_bags(&self) -> String {
        let q = &self.query;
        let bags = self.cache.edges_of.iter().zip(&self.cache.grids);
        let rendered: Vec<String> = bags
            .map(|(es, grid)| {
                let names: Vec<&str> = es.iter().map(|&e| q.edge(e).name.as_str()).collect();
                let shares = grid.as_ref().map_or_else(String::new, |g| {
                    let dims: Vec<String> = g
                        .sub_q
                        .all_attrs()
                        .iter()
                        .map(|a| format!("{}={}", q.attr_name(a), g.shares.0[a]))
                        .collect();
                    format!(" shares[{}]", dims.join(" "))
                });
                format!("{{{}}}{shares}", names.join(" "))
            })
            .collect();
        rendered.join(" ")
    }

    /// The counted materialization, gathered **without communication
    /// charge** (test/result inspection, like
    /// [`crate::DistRelation::gather_free`]): sorted `(tuple, count)` pairs,
    /// every count positive. This is the canonical representation the
    /// differential tests compare bit-for-bit against a full recompute.
    pub fn snapshot(&self) -> CountedSnapshot {
        let mut out: CountedSnapshot = Vec::new();
        for shard in &self.mat {
            for (t, &c) in shard {
                debug_assert!(c > 0, "materialized count must be positive");
                out.push((t.clone(), c as u64));
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Salt of the view seed stream (distinct from the engine's query streams).
const VIEW_SALT: u64 = 0x7a1e_5eed_0d15_c0de;
/// Salt of the materialization routing seed.
const MAT_SALT: u64 = 0x00d1_ce00_5a17_0001;

/// Register `q` with its current instance: run the full build (join,
/// materialization, caches) inside one stats epoch and return the view.
///
/// # Panics
/// Panics if `db` does not match `q`'s layout.
pub(crate) fn register(
    cluster: &mut Cluster,
    engine_seed: u64,
    q: &Query,
    db: &Database,
) -> MaterializedView {
    assert!(
        db.matches(q),
        "database layout does not match the view query"
    );
    let mut base = db.clone();
    base.dedup_all();
    let seed_base = mix(engine_seed ^ VIEW_SALT, QuerySignature::of(q).fingerprint());
    let class = classify(q);
    let mut out_attrs: Vec<Attr> = (0..q.n_attrs())
        .filter(|&a| !q.edges_containing(a).is_empty())
        .collect();
    out_attrs.sort_unstable();
    let mut view = MaterializedView {
        query: q.clone(),
        class,
        plan: Plan::for_class(class),
        out_attrs,
        base,
        mat: Vec::new(),
        mat_seed: mix(seed_base, MAT_SALT),
        seed_base,
        // Placeholder until the build below places the bags.
        cache: BagTree {
            bag_query: q.clone(),
            edges_of: Vec::new(),
            bag_of: Vec::new(),
            grids: Vec::new(),
            tree: TreeCache::default(),
            repl: 1.0,
        },
        registration: EpochStats::default(),
        out_size: 0,
        cum_delta: 0,
        rebuilds: 0,
        skew: None,
    };
    cluster.begin_epoch();
    build(cluster, &mut view);
    view.registration = cluster.epoch();
    cluster.trim_round_log();
    view
}

/// Full build from `view.base`: bag grids, join, counted materialization,
/// bag-tree shards, and (for binary views) skew detection. Used by
/// registration and by the recompute fall-back; the caller wraps it in an
/// epoch.
fn build(cluster: &mut Cluster, view: &mut MaterializedView) {
    let p = cluster.p();
    let mut exec_seed = mix(view.seed_base, view.rebuilds);
    view.mat = (0..p).map(|_| FxHashMap::default()).collect();
    place_bags(cluster, view, exec_seed);
    let bags = &view.cache;
    let bag_dist: DistDatabase = (0..bags.grids.len())
        .map(|b| bag_relation(cluster, bags, &view.base, b))
        .collect();
    // The output join: an acyclic view's bags are its relations, so its
    // class plan runs on them; the bags of a cyclic view join acyclically.
    let out = {
        let mut net = cluster.net();
        if view.class == JoinClass::Cyclic {
            let mut join_seed = mix(exec_seed, 0x0ba6);
            yannakakis(&mut net, &bags.bag_query, bag_dist, None, &mut join_seed)
        } else {
            execute(
                &mut net,
                view.plan,
                &view.query,
                bag_dist,
                None,
                &mut exec_seed,
            )
            .normalized()
        }
    };
    debug_assert_eq!(out.attrs, view.out_attrs);
    install_counts(cluster, view, &out.parts.into_parts(), |t| (t, 1));
    view.cache.tree = build_tree(cluster, &view.cache, &view.base, mix(exec_seed, 0x7ee5));
    view.skew = detect_view_skew(cluster, view);
    view.cum_delta = 0;
}

/// Route counted output rows (already in output order; `signed` reads a
/// row's tuple and count) to their owners and fold them into the
/// materialization (one delta round).
fn install_counts<R: Sync>(
    cluster: &mut Cluster,
    view: &mut MaterializedView,
    rows: &[Vec<R>],
    signed: impl Fn(&R) -> (&Tuple, i64) + Sync,
) {
    let arity = view.out_attrs.len();
    let identity: Vec<usize> = (0..arity).collect();
    let received = route_to_counts(cluster, arity, view.mat_seed, rows, signed, &identity);
    merge_outputs(cluster, view, received);
    view.out_size = view.mat.iter().map(|m| m.len() as u64).sum();
}

/// Binary-join views get a heavy-hitter profile at build time.
fn detect_view_skew(cluster: &mut Cluster, view: &MaterializedView) -> Option<JoinSkew> {
    if !hybrid_applicable(&view.query) {
        return None;
    }
    let dist = distribute_db(&view.base, cluster.p());
    let mut net = cluster.net();
    Some(detect_join_skew(
        &mut net,
        &dist[0],
        &dist[1],
        DEFAULT_SKEW_TOP_K,
    ))
}

/// Decompose the view into its bag tree and place every multi-edge bag on
/// its grid; the tree shards are built separately ([`build_tree`]). Shared
/// by full builds and checkpoint restores.
///
/// The decomposition follows from the class and the priced plan: acyclic
/// classes take one bag per edge (their own join tree — also on
/// disconnected queries, which no GHD covers); cyclic views are re-priced
/// from the current sizes (a pure driver-side function, so rebuilds and
/// restores agree) and take the GHD's bags under [`Plan::Ghd`], one bag of
/// all edges otherwise.
fn place_bags(cluster: &mut Cluster, view: &mut MaterializedView, exec_seed: u64) {
    let p = cluster.p();
    let q = &view.query;
    let m = q.n_edges();
    let sizes: Vec<u64> = view.base.relations.iter().map(|r| r.len() as u64).collect();
    let edges_of: Vec<Vec<usize>> = if view.class != JoinClass::Cyclic {
        (0..m).map(|e| vec![e]).collect()
    } else {
        let priced = candidates(view.class, q, &sizes, None, None, p);
        view.plan = pick(view.class, &priced).0;
        if view.plan == Plan::Ghd {
            let ghd = aj_relation::Ghd::build(q).expect("GHD-planned view query is connected");
            ghd.edges_of
        } else {
            vec![(0..m).collect()]
        }
    };
    let mut bag_of = vec![0usize; m];
    let mut bag_edges: Vec<Edge> = Vec::with_capacity(edges_of.len());
    let mut grids: Vec<Option<BagGrid>> = Vec::with_capacity(edges_of.len());
    let mut weighted_repl = 0f64;
    for (b, es) in edges_of.iter().enumerate() {
        for &e in es {
            bag_of[e] = b;
        }
        if let [e] = es[..] {
            bag_edges.push(q.edge(e).clone());
            grids.push(None);
            weighted_repl += sizes[e] as f64;
        } else {
            // A cyclic core: its edges go on the bag's own
            // worst-case-optimal grid. Bag 0's seed is the whole-query
            // grid seed, so a one-bag view places exactly like HyperCube.
            let (sub_q, _) = q.restrict(aj_relation::EdgeSet::from_iter(es.iter().copied()));
            let sub_rels: Vec<&Relation> = es.iter().map(|&e| &view.base.relations[e]).collect();
            let sub_sizes: Vec<u64> = es.iter().map(|&e| sizes[e]).collect();
            let shares = worst_case_shares(&sub_q, &sub_sizes, p);
            let seed = mix(exec_seed, 0x9e1d + b as u64);
            let (grid, weighted) = build_grid(cluster, sub_q, &sub_rels, shares, seed);
            bag_edges.push(Edge {
                name: format!("B{b}"),
                attrs: grid.sub_q.all_attrs().to_vec(),
            });
            grids.push(Some(grid));
            weighted_repl += weighted;
        }
    }
    let repl = if grids.iter().any(Option::is_some) {
        weighted_repl / view.base.input_size().max(1) as f64
    } else {
        1.0
    };
    view.cache = BagTree {
        bag_query: Query::from_parts(q.attr_names().to_vec(), bag_edges),
        edges_of,
        bag_of,
        grids,
        tree: TreeCache::default(),
        repl,
    };
}

/// The materialized relation of bag `b`, distributed: a single-edge bag is
/// its base relation in the free initial placement; a multi-edge bag is the
/// per-cell generic join of its resident fragments — each bag tuple lands
/// in exactly one cell, so the cell joins partition the bag (free local
/// work).
fn bag_relation(cluster: &mut Cluster, bags: &BagTree, base: &Database, b: usize) -> DistRelation {
    let p = cluster.p();
    let attrs = bags.bag_query.edge(b).attrs.clone();
    let parts = match &bags.grids[b] {
        None => {
            aj_mpc::Partitioned::distribute(base.relations[bags.edges_of[b][0]].tuples.clone(), p)
        }
        Some(grid) => {
            let net = cluster.net();
            aj_mpc::Partitioned::from_parts(net.run_local((0..p).collect::<Vec<_>>(), |s, _| {
                if grid.frags[s].iter().any(Vec::is_empty) {
                    return Vec::new();
                }
                let locals: Vec<LocalRel> = grid
                    .sub_q
                    .edges()
                    .iter()
                    .zip(&grid.frags[s])
                    .map(|(edge, frag)| LocalRel {
                        attrs: edge.attrs.clone(),
                        tuples: frag.clone(),
                    })
                    .collect();
                let (joined, tuples) = crate::wcoj::generic_join(&locals);
                debug_assert_eq!(joined, attrs);
                tuples
            }))
        }
    };
    DistRelation { attrs, parts }
}

/// Build the directed-tree-edge shards of the bag query: one shard per
/// directed edge (from → to) caching bag `to` hashed on the tree edge's
/// shared attributes.
fn build_tree(cluster: &mut Cluster, bags: &BagTree, base: &Database, seed: u64) -> TreeCache {
    let q = &bags.bag_query;
    let tree = q.join_tree().expect("the bag query has a join tree");
    let m = q.n_edges();
    // Undirected tree adjacency (neighbors ascending, for determinism).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (e, par) in tree.parent.iter().enumerate() {
        if let Some(par) = par {
            adj[e].push(*par);
            adj[*par].push(e);
        }
    }
    for nbrs in &mut adj {
        nbrs.sort_unstable();
    }
    let mut shards: Vec<EdgeShard> = Vec::new();
    let mut shard_of: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    for (from, nbrs) in adj.iter().enumerate() {
        for &to in nbrs {
            let mut key: Vec<Attr> = q
                .edge(from)
                .attrs
                .iter()
                .copied()
                .filter(|a| q.edge(to).attrs.contains(a))
                .collect();
            key.sort_unstable();
            let key_pos = q.edge(to).positions_of(&key);
            let shard_seed = mix(seed, ((from as u64) << 32) | to as u64);
            let partner = bag_relation(cluster, bags, base, to);
            let index = shard_relation(cluster, partner, &key_pos, shard_seed);
            shard_of.insert((from, to), shards.len());
            shards.push(EdgeShard {
                to,
                key,
                key_pos,
                seed: shard_seed,
                index,
            });
        }
    }
    // BFS propagation order from every source bag.
    let mut paths: Vec<Vec<usize>> = Vec::with_capacity(m);
    for start in 0..m {
        let mut order = Vec::with_capacity(m.saturating_sub(1));
        let mut seen = vec![false; m];
        seen[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(from) = queue.pop_front() {
            for &to in &adj[from] {
                if !seen[to] {
                    seen[to] = true;
                    order.push(shard_of[&(from, to)]);
                    queue.push_back(to);
                }
            }
        }
        paths.push(order);
    }
    TreeCache { shards, paths }
}

/// Route one bag relation's tuples to their key-hash owners and build the
/// per-server probe index (one block-exchange round, `|B|` units).
fn shard_relation(
    cluster: &mut Cluster,
    rel: DistRelation,
    key_pos: &[usize],
    seed: u64,
) -> Vec<FxHashMap<Tuple, Vec<Tuple>>> {
    let p = cluster.p();
    let arity = rel.attrs.len();
    let mut net = cluster.net();
    let outbox: Vec<RowOutbox> = net.run_local(rel.parts.into_parts(), |_, part: Vec<Tuple>| {
        let mut ob = RowOutbox::with_capacity(arity, part.len());
        let mut key: Vec<Value> = Vec::with_capacity(key_pos.len());
        for t in &part {
            t.project_into(key_pos, &mut key);
            ob.push(hash_to_server(key.as_slice(), seed, p), t.values());
        }
        ob
    });
    let received = net.exchange_rows(arity, outbox);
    net.run_local(received, |_, block: aj_relation::TupleBlock| {
        let mut index: FxHashMap<Tuple, Vec<Tuple>> = FxHashMap::default();
        let mut key: Vec<Value> = Vec::with_capacity(key_pos.len());
        for row in block.iter() {
            key.clear();
            key.extend(key_pos.iter().map(|&c| row[c]));
            index
                .entry(Tuple::from_slice(&key))
                .or_default()
                .push(Tuple::new(row));
        }
        index
    })
}

/// Place one multi-edge bag's relations on its shares grid (one
/// block-exchange round per relation) and keep the sorted per-cell
/// fragments resident. Also returns the placement's replicated tuple count
/// `Σ_e |R_e| · copies_e` (the pricing input).
fn build_grid(
    cluster: &mut Cluster,
    sub_q: Query,
    relations: &[&Relation],
    shares: Shares,
    seed: u64,
) -> (BagGrid, f64) {
    let p = cluster.p();
    let n_attrs = sub_q.n_attrs();
    let mut stride = vec![1usize; n_attrs];
    for a in 1..n_attrs {
        stride[a] = stride[a - 1] * shares.0[a - 1];
    }
    let free: Vec<Vec<Attr>> = sub_q
        .edges()
        .iter()
        .map(|e| {
            (0..n_attrs)
                .filter(|a| !e.attrs.contains(a) && shares.0[*a] > 1)
                .collect()
        })
        .collect();
    let mut frags: Vec<Vec<Vec<Tuple>>> = (0..p)
        .map(|_| (0..sub_q.n_edges()).map(|_| Vec::new()).collect())
        .collect();
    let mut weighted_repl = 0f64;
    for (e, rel) in relations.iter().enumerate() {
        let repl_e: usize = free[e].iter().map(|&a| shares.0[a]).product();
        weighted_repl += rel.len() as f64 * repl_e as f64;
        let arity = rel
            .tuples
            .first()
            .map(Tuple::arity)
            .unwrap_or(rel.attrs.len());
        let parts = aj_mpc::Partitioned::distribute(rel.tuples.clone(), p);
        let attrs = &rel.attrs;
        let (free_e, stride_ref, shares_ref) = (&free[e], &stride, &shares);
        let received = {
            let mut net = cluster.net();
            let outbox: Vec<RowOutbox> =
                net.run_local(parts.into_parts(), |_, part: Vec<Tuple>| {
                    let mut ob = RowOutbox::with_capacity(arity, part.len());
                    for t in &part {
                        for cell in
                            grid_cells(t.values(), attrs, free_e, shares_ref, stride_ref, seed)
                        {
                            ob.push(cell, t.values());
                        }
                    }
                    ob
                });
            net.exchange_rows(arity, outbox)
        };
        for (s, block) in received.into_iter().enumerate() {
            let mut frag: Vec<Tuple> = block.iter().map(Tuple::new).collect();
            frag.sort_unstable();
            frags[s][e] = frag;
        }
    }
    let grid = BagGrid {
        sub_q,
        shares,
        stride,
        seed,
        free,
        frags,
    };
    (grid, weighted_repl)
}

/// Cells of the shares grid a tuple of layout `attrs` is consistent with:
/// one fixed coordinate per own attribute (hashed, exactly as HyperCube
/// places it), a full sweep over every free dimension.
fn grid_cells(
    values: &[Value],
    attrs: &[Attr],
    free: &[Attr],
    shares: &Shares,
    stride: &[usize],
    seed: u64,
) -> Vec<usize> {
    let mut base = 0usize;
    for (i, &a) in attrs.iter().enumerate() {
        if shares.0[a] > 1 {
            base += crate::hypercube::attr_coordinate(values[i], a, seed, shares.0[a]) * stride[a];
        }
    }
    let mut cells = vec![base];
    for &a in free {
        let mut next = Vec::with_capacity(cells.len() * shares.0[a]);
        for c in &cells {
            for v in 0..shares.0[a] {
                next.push(c + v * stride[a]);
            }
        }
        cells = next;
    }
    cells
}

/// Fold routed signed output rows into the per-server counted
/// materialization: counts ⊕-sum in the signed counting ring, zero-count
/// tuples leave.
fn merge_outputs(cluster: &mut Cluster, view: &mut MaterializedView, received: Vec<DeltaBlock>) {
    let shards = std::mem::take(&mut view.mat);
    let net = cluster.net();
    let inputs: Vec<(FxHashMap<Tuple, i64>, DeltaBlock)> =
        shards.into_iter().zip(received).collect();
    view.mat = net.run_local(inputs, |_, (mut shard, block)| {
        for (payload, w) in block.iter() {
            match shard.entry(Tuple::from_slice(payload)) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let c = ZRing::add(*e.get(), w);
                    if c == ZRing::zero() {
                        e.remove();
                    } else {
                        *e.get_mut() = c;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    if w != ZRing::zero() {
                        e.insert(w);
                    }
                }
            }
        }
        shard
    });
}

/// Apply one signed batch to a view: price maintain vs recompute, run the
/// chosen pass inside its own epoch, and return the outcome.
///
/// # Panics
/// Panics if the batch spans a different number of relations than the view,
/// or a delta tuple's arity does not match its relation's layout.
pub(crate) fn apply_update(
    cluster: &mut Cluster,
    view: &mut MaterializedView,
    id: ViewId,
    batch: &UpdateBatch,
) -> UpdateOutcome {
    assert_eq!(
        batch.n_relations(),
        view.query.n_edges(),
        "batch spans a different number of relations than the view"
    );
    for (e, delta) in batch.deltas.iter().enumerate() {
        let arity = view.query.edge(e).attrs.len();
        assert!(
            delta.signed().all(|(t, _)| t.arity() == arity),
            "delta tuple arity mismatch on relation {e}"
        );
    }
    let batch_size = batch.size();
    let touched = batch.deltas.iter().filter(|d| !d.is_empty()).count();
    let (strategy, maintain_est, recompute_est) = choose_maintenance(
        view.class,
        view.query.n_edges(),
        view.base.input_size() as u64,
        view.out_size,
        batch_size,
        touched,
        view.cum_delta,
        view.cache.repl,
        cluster.p(),
    );
    if cluster.tracing_enabled() {
        cluster.trace_event(aj_obs::Event::MaintenanceDecision {
            view: id.0 as u64,
            chosen: strategy.to_string(),
            batch: batch_size,
            maintain_cost: maintain_est,
            recompute_cost: recompute_est,
        });
    }
    cluster.begin_epoch();
    match strategy {
        MaintenanceChoice::Recompute => {
            batch.apply_to(&mut view.base);
            view.rebuilds += 1;
            build(cluster, view);
        }
        MaintenanceChoice::Maintain => {
            maintain(cluster, view, batch);
            batch.apply_to(&mut view.base);
            view.out_size = view.mat.iter().map(|m| m.len() as u64).sum();
            view.cum_delta += batch_size;
        }
    }
    let maintenance = cluster.epoch();
    cluster.trim_round_log();
    UpdateOutcome {
        view: id,
        strategy,
        batch_size,
        maintain_estimate: maintain_est,
        recompute_estimate: recompute_est,
        maintenance,
        out_size: view.out_size,
    }
}

/// The delta pass: per touched relation (ascending edge order), lift the
/// signed rows to their bag's delta, walk it through the cached bag tree,
/// fold the derived signed outputs into the materialization, then apply the
/// delta to every cache that holds the relation or its bag — so later
/// relations in the same batch join against the already-updated earlier
/// ones (the standard `ΔR_i ⋈ R_{<i}^new ⋈ R_{>i}^old` decomposition, which
/// sums to exactly `ΔQ`).
fn maintain(cluster: &mut Cluster, view: &mut MaterializedView, batch: &UpdateBatch) {
    for e in 0..view.query.n_edges() {
        if batch.deltas[e].is_empty() {
            continue;
        }
        // The free initial placement of the batch's rows; every step below
        // reads it in place.
        let signed = place_signed(batch.deltas[e].signed(), cluster.p());
        let bags = &view.cache;
        let (b, local_e) = bags.locate(e);
        // A single-edge bag's delta is the base delta itself; a multi-edge
        // bag joins it against the bag's resident fragments first.
        let lifted = bags.grids[b]
            .as_ref()
            .map(|grid| bag_grid_delta(cluster, grid, local_e, &signed));
        let dbag = lifted.as_ref().unwrap_or(&signed);
        let outputs = tree_walk(
            cluster,
            &bags.bag_query,
            &bags.tree,
            b,
            dbag,
            &view.out_attrs,
            view.mat_seed,
        );
        merge_outputs(cluster, view, outputs);
        update_caches(cluster, &mut view.cache, e, &signed, dbag);
        update_view_skew(view, e, batch.deltas[e].signed());
    }
}

/// Apply one relation's signed delta to every cache that holds it: the
/// owning bag's grid fragments (one delta round through the grid
/// placement) and — via the bag delta `dbag` — every tree shard caching
/// the bag (one delta round each, routed by that shard's key).
fn update_caches(
    cluster: &mut Cluster,
    bags: &mut BagTree,
    e: usize,
    signed: &[Vec<(Tuple, i64)>],
    dbag: &[Vec<(Tuple, i64)>],
) {
    let (b, local_e) = bags.locate(e);
    if let Some(grid) = &mut bags.grids[b] {
        update_grid_frags(cluster, local_e, grid, signed);
    }
    let bag_arity = bags.bag_query.edge(b).attrs.len();
    update_tree_shards(cluster, &mut bags.tree, b, bag_arity, dbag);
}

/// Delta-HyperCube within one bag: route the signed rows of sub-query edge
/// `e` through the bag's cached grid, join each cell's delta fragment
/// against the resident fragments of the bag's other edges, and return the
/// signed bag tuples (canonical ascending layout) where their cells derived
/// them. Because λ partitions the edges, every derived bag tuple
/// projects to exactly one delta row, so the weights stay ±1 and the bag
/// relations stay sets.
fn bag_grid_delta(
    cluster: &mut Cluster,
    grid: &BagGrid,
    e: usize,
    signed: &[Vec<(Tuple, i64)>],
) -> SignedParts {
    let sub_q = &grid.sub_q;
    // The cell-local join order and resulting schema are pure functions of
    // (bag, edge) — identical at every cell.
    let order = grid_join_order(sub_q, e);
    let schema = grid_join_schema(sub_q, e, &order);
    let mut bag_attrs = schema.clone();
    bag_attrs.sort_unstable();
    let out_pos: Vec<usize> = bag_attrs
        .iter()
        .map(|a| schema.iter().position(|x| x == a).expect("attr in schema"))
        .collect();
    let mut net = cluster.net();
    let received = route_to_cells(&mut net, grid, e, signed);
    let frags = &grid.frags;
    net.run_local(received, |s, block: DeltaBlock| {
        if block.is_empty() {
            return Vec::new();
        }
        let mut out_row: Vec<Value> = Vec::with_capacity(out_pos.len());
        grid_cell_join(sub_q, e, &order, &block, &frags[s])
            .into_iter()
            .map(|(vals, w)| {
                out_row.clear();
                out_row.extend(out_pos.iter().map(|&c| vals[c]));
                (Tuple::from_slice(&out_row), w)
            })
            .collect()
    })
}

/// Fold a relation's signed key counts into the maintained profile.
fn update_view_skew<'a>(
    view: &mut MaterializedView,
    e: usize,
    signed: impl Iterator<Item = (&'a Tuple, i64)>,
) {
    let Some(skew) = view.skew.as_mut() else {
        return;
    };
    let q = &view.query;
    let mut key: Vec<Attr> = q
        .edge(0)
        .attrs
        .iter()
        .copied()
        .filter(|a| q.edge(1).attrs.contains(a))
        .collect();
    key.sort_unstable();
    let pos = q.edge(e).positions_of(&key);
    let changes: Vec<(Tuple, i64)> = signed.map(|(t, w)| (t.project(&pos), w)).collect();
    let side = if e == 0 {
        &mut skew.left
    } else {
        &mut skew.right
    };
    side.apply_delta(&changes);
}

/// Spread a batch's signed rows over the servers (the free initial
/// placement, round-robin like [`aj_mpc::Partitioned::distribute`]).
fn place_signed<'a>(signed: impl Iterator<Item = (&'a Tuple, i64)>, p: usize) -> SignedParts {
    let mut parts: SignedParts = (0..p).map(|_| Vec::new()).collect();
    for (i, (t, w)) in signed.enumerate() {
        parts[i % p].push((t.clone(), w));
    }
    parts
}

/// Walk signed rows from bag `e` through the bag query's cached tree shards
/// (one delta round per step), then route the projected signed outputs to
/// their count owners.
fn tree_walk(
    cluster: &mut Cluster,
    q: &Query,
    tree: &TreeCache,
    e: usize,
    signed: &[Vec<(Tuple, i64)>],
    out_attrs: &[Attr],
    mat_seed: u64,
) -> Vec<DeltaBlock> {
    let p = cluster.p();
    let mut joined: SignedParts;
    let mut acc = signed;
    let mut acc_attrs: Vec<Attr> = q.edge(e).attrs.clone();
    for &si in &tree.paths[e] {
        let shard = &tree.shards[si];
        let partner = q.edge(shard.to);
        let acc_key_pos: Vec<usize> = shard
            .key
            .iter()
            .map(|a| acc_attrs.iter().position(|x| x == a).expect("key in acc"))
            .collect();
        // Partner columns appended to each row (non-key attributes).
        let append_pos: Vec<usize> = (0..partner.attrs.len())
            .filter(|&c| !shard.key.contains(&partner.attrs[c]))
            .collect();
        let arity = acc_attrs.len();
        let (seed, index) = (shard.seed, &shard.index);
        let mut net = cluster.net();
        let acc_key_ref = &acc_key_pos;
        let outbox: Vec<DeltaOutbox> = net.run_local(acc.iter().collect(), |_, rows| {
            let mut ob = DeltaOutbox::with_capacity(arity, rows.len());
            let mut key: Vec<Value> = Vec::with_capacity(acc_key_ref.len());
            for (t, w) in rows {
                t.project_into(acc_key_ref, &mut key);
                ob.push(hash_to_server(key.as_slice(), seed, p), t.values(), *w);
            }
            ob
        });
        let received = net.exchange_deltas(arity, outbox);
        let append_ref = &append_pos;
        joined = net.run_local(received, |s, block: DeltaBlock| {
            let idx = &index[s];
            let mut out: Vec<(Tuple, i64)> = Vec::new();
            let mut key: Vec<Value> = Vec::with_capacity(acc_key_ref.len());
            let mut row: Vec<Value> = Vec::with_capacity(arity + append_ref.len());
            for (payload, w) in block.iter() {
                key.clear();
                key.extend(acc_key_ref.iter().map(|&c| payload[c]));
                if let Some(matches) = idx.get(key.as_slice()) {
                    for mt in matches {
                        row.clear();
                        row.extend_from_slice(payload);
                        row.extend(append_ref.iter().map(|&c| mt.get(c)));
                        out.push((Tuple::new(row.as_slice()), w));
                    }
                }
            }
            out
        });
        acc = &joined;
        acc_attrs.extend(append_pos.iter().map(|&c| partner.attrs[c]));
    }
    // Project to the canonical output order and route to the count owners.
    let out_pos: Vec<usize> = out_attrs
        .iter()
        .map(|a| acc_attrs.iter().position(|x| x == a).expect("attr covered"))
        .collect();
    route_to_counts(
        cluster,
        out_attrs.len(),
        mat_seed,
        acc,
        |(t, w)| (t, *w),
        &out_pos,
    )
}

/// Project signed rows (`signed` reads a row's tuple and weight) onto the
/// view's output order and route them to their materialization owners (one
/// delta round).
fn route_to_counts<R: Sync>(
    cluster: &mut Cluster,
    arity: usize,
    mat_seed: u64,
    acc: &[Vec<R>],
    signed: impl Fn(&R) -> (&Tuple, i64) + Sync,
    out_pos: &[usize],
) -> Vec<DeltaBlock> {
    let p = cluster.p();
    let mut net = cluster.net();
    let outbox: Vec<DeltaOutbox> = net.run_local(acc.iter().collect(), |_, rows| {
        let mut ob = DeltaOutbox::with_capacity(arity, rows.len());
        let mut out: Vec<Value> = Vec::with_capacity(arity);
        for (t, w) in rows.iter().map(&signed) {
            t.project_into(out_pos, &mut out);
            ob.push(hash_to_server(out.as_slice(), mat_seed, p), &out, w);
        }
        ob
    });
    net.exchange_deltas(arity, outbox)
}

/// The order in which a cell-local delta join visits the other edges:
/// connected-first (avoiding needless cross products), ties to the lower
/// edge index — a pure function of `(query, e)`.
fn grid_join_order(q: &Query, e: usize) -> Vec<usize> {
    let mut covered: Vec<Attr> = q.edge(e).attrs.clone();
    let mut remaining: Vec<usize> = (0..q.n_edges()).filter(|&j| j != e).collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&j| q.edge(j).attrs.iter().any(|a| covered.contains(a)))
            .unwrap_or(0);
        let j = remaining.remove(pick);
        for &a in &q.edge(j).attrs {
            if !covered.contains(&a) {
                covered.push(a);
            }
        }
        order.push(j);
    }
    order
}

/// The accumulated schema after a cell-local delta join in `order`.
fn grid_join_schema(q: &Query, e: usize, order: &[usize]) -> Vec<Attr> {
    let mut schema: Vec<Attr> = q.edge(e).attrs.clone();
    for &j in order {
        for &a in &q.edge(j).attrs {
            if !schema.contains(&a) {
                schema.push(a);
            }
        }
    }
    schema
}

/// Join one cell's delta fragment (edge `e`) against the cell's resident
/// fragments of every other edge, by reference — no fragment is copied or
/// moved. Returns signed rows over [`grid_join_schema`]'s column order.
fn grid_cell_join(
    q: &Query,
    e: usize,
    order: &[usize],
    delta: &DeltaBlock,
    frags: &[Vec<Tuple>],
) -> Vec<(Vec<Value>, i64)> {
    let mut acc: Vec<(Vec<Value>, i64)> = delta.iter().map(|(v, w)| (v.to_vec(), w)).collect();
    let mut acc_attrs: Vec<Attr> = q.edge(e).attrs.clone();
    for &j in order {
        if frags[j].is_empty() || acc.is_empty() {
            return Vec::new();
        }
        let partner = q.edge(j);
        let shared: Vec<Attr> = partner
            .attrs
            .iter()
            .copied()
            .filter(|a| acc_attrs.contains(a))
            .collect();
        let pkey_pos = partner.positions_of(&shared);
        let akey_pos: Vec<usize> = shared
            .iter()
            .map(|a| acc_attrs.iter().position(|x| x == a).expect("shared"))
            .collect();
        let append_pos: Vec<usize> = (0..partner.attrs.len())
            .filter(|&c| !shared.contains(&partner.attrs[c]))
            .collect();
        let mut index: FxHashMap<Tuple, Vec<&Tuple>> = FxHashMap::default();
        for t in &frags[j] {
            index.entry(t.project(&pkey_pos)).or_default().push(t);
        }
        let mut next: Vec<(Vec<Value>, i64)> = Vec::new();
        let mut key: Vec<Value> = Vec::with_capacity(akey_pos.len());
        for (vals, w) in &acc {
            key.clear();
            key.extend(akey_pos.iter().map(|&c| vals[c]));
            if let Some(matches) = index.get(key.as_slice()) {
                for mt in matches {
                    let mut row = Vec::with_capacity(vals.len() + append_pos.len());
                    row.extend_from_slice(vals);
                    row.extend(append_pos.iter().map(|&c| mt.get(c)));
                    next.push((row, *w));
                }
            }
        }
        acc = next;
        acc_attrs.extend(append_pos.iter().map(|&c| partner.attrs[c]));
    }
    acc
}

/// Fold a signed delta of bag `e` (tuple arity `arity`) into every tree
/// shard caching it (one delta round per shard, routed by that shard's
/// key).
fn update_tree_shards(
    cluster: &mut Cluster,
    tree: &mut TreeCache,
    e: usize,
    arity: usize,
    signed: &[Vec<(Tuple, i64)>],
) {
    let p = cluster.p();
    for shard in tree.shards.iter_mut().filter(|s| s.to == e) {
        let (seed, key_pos) = (shard.seed, shard.key_pos.clone());
        let mut net = cluster.net();
        let key_ref = &key_pos;
        let outbox: Vec<DeltaOutbox> = net.run_local(signed.iter().collect(), |_, rows| {
            let mut ob = DeltaOutbox::with_capacity(arity, rows.len());
            let mut key: Vec<Value> = Vec::with_capacity(key_ref.len());
            for (t, w) in rows {
                t.project_into(key_ref, &mut key);
                ob.push(hash_to_server(key.as_slice(), seed, p), t.values(), *w);
            }
            ob
        });
        let received = net.exchange_deltas(arity, outbox);
        let idx_shards = std::mem::take(&mut shard.index);
        let inputs: Vec<_> = idx_shards.into_iter().zip(received).collect();
        shard.index = net.run_local(
            inputs,
            |_, (mut idx, block): (FxHashMap<Tuple, Vec<Tuple>>, DeltaBlock)| {
                let mut key: Vec<Value> = Vec::with_capacity(key_ref.len());
                for (payload, w) in block.iter() {
                    key.clear();
                    key.extend(key_ref.iter().map(|&c| payload[c]));
                    apply_signed_row(&mut idx, &key, payload, w);
                }
                idx
            },
        );
    }
}

/// Route signed rows of sub-query edge `e` to the cells of the bag's grid
/// their tuples are placed in (one delta round): fixed coordinates hashed,
/// free dimensions replicated — exactly the resident placement.
fn route_to_cells(
    net: &mut aj_mpc::Net,
    grid: &BagGrid,
    e: usize,
    signed: &[Vec<(Tuple, i64)>],
) -> Vec<DeltaBlock> {
    let edge_attrs = &grid.sub_q.edge(e).attrs;
    let arity = edge_attrs.len();
    let outbox: Vec<DeltaOutbox> = net.run_local(signed.iter().collect(), |_, rows| {
        let mut ob = DeltaOutbox::with_capacity(arity, rows.len());
        for (t, w) in rows {
            for cell in grid_cells(
                t.values(),
                edge_attrs,
                &grid.free[e],
                &grid.shares,
                &grid.stride,
                grid.seed,
            ) {
                ob.push(cell, t.values(), *w);
            }
        }
        ob
    });
    net.exchange_deltas(arity, outbox)
}

/// Fold a signed delta of sub-query edge `e` into a bag grid's resident
/// cell fragments: one delta round through the same grid placement the
/// resident tuples took.
fn update_grid_frags(
    cluster: &mut Cluster,
    e: usize,
    grid: &mut BagGrid,
    signed: &[Vec<(Tuple, i64)>],
) {
    let mut net = cluster.net();
    let received = route_to_cells(&mut net, grid, e, signed);
    let frag_shards = std::mem::take(&mut grid.frags);
    let inputs: Vec<_> = frag_shards.into_iter().zip(received).collect();
    grid.frags = net.run_local(
        inputs,
        |_, (mut cell_frags, block): (Vec<Vec<Tuple>>, DeltaBlock)| {
            for (payload, w) in block.iter() {
                let t = Tuple::from_slice(payload);
                let frag = &mut cell_frags[e];
                match frag.binary_search(&t) {
                    Ok(i) if w < 0 => {
                        frag.remove(i);
                    }
                    Err(i) if w > 0 => {
                        frag.insert(i, t);
                    }
                    // Inserting a resident tuple / deleting an absent one:
                    // the set reading keeps one copy / none.
                    _ => {}
                }
            }
            cell_frags
        },
    );
}

/// A crash-consistent snapshot of one registered view's recoverable state:
/// the counted materialization ([`CountedSnapshot`] — already a flat,
/// canonically sorted buffer), the base mirror, the staleness counters the
/// planner prices with, and the maintained skew profile. Everything a
/// supervisor needs to rebuild the view on a respawned cluster without
/// re-running the original join: the caches (bag grids / tree shards)
/// are *derived* state and are reconstructed from the base during
/// [`crate::engine::QueryEngine::restore`].
///
/// A checkpoint is [`Wire`]-serializable (canonical flat `u64` stream), so
/// it can be shipped to stable storage or a standby exactly like any other
/// exchange payload.
#[derive(Debug, Clone)]
pub struct ViewCheckpoint {
    snapshot: CountedSnapshot,
    base: Database,
    cum_delta: u64,
    rebuilds: u64,
    skew: Option<JoinSkew>,
}

impl ViewCheckpoint {
    /// The counted materialization at checkpoint time.
    pub fn snapshot(&self) -> &CountedSnapshot {
        &self.snapshot
    }

    /// The base instance at checkpoint time.
    pub fn base(&self) -> &Database {
        &self.base
    }

    /// `Σ|Δ|` absorbed since the last full build, at checkpoint time.
    pub fn cum_delta(&self) -> u64 {
        self.cum_delta
    }

    /// Rebuild count at checkpoint time.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The maintained skew profile, if the view keeps one.
    pub fn skew(&self) -> Option<&JoinSkew> {
        self.skew.as_ref()
    }
}

fn encode_profile(p: &SkewProfile, out: &mut Vec<u64>) {
    (p.key_arity() as u64).encode(out);
    p.total().encode(out);
    p.entries().to_vec().encode(out);
}

fn decode_profile(r: &mut aj_mpc::WireReader<'_>) -> SkewProfile {
    let key_arity = u64::decode(r) as usize;
    let total = u64::decode(r);
    let entries: Vec<(Tuple, u64)> = Vec::decode(r);
    SkewProfile::from_counts(key_arity, total, entries)
}

impl Wire for ViewCheckpoint {
    fn encode(&self, out: &mut Vec<u64>) {
        encode_snapshot(&self.snapshot).encode(out);
        (self.base.relations.len() as u64).encode(out);
        for rel in &self.base.relations {
            let attrs: Vec<u64> = rel.attrs.iter().map(|&a| a as u64).collect();
            attrs.encode(out);
            rel.tuples.encode(out);
        }
        self.cum_delta.encode(out);
        self.rebuilds.encode(out);
        match &self.skew {
            None => 0u64.encode(out),
            Some(s) => {
                1u64.encode(out);
                encode_profile(&s.left, out);
                encode_profile(&s.right, out);
            }
        }
    }

    fn decode(r: &mut aj_mpc::WireReader<'_>) -> Self {
        let snapshot = decode_snapshot(&Vec::<u64>::decode(r));
        let n_rel = u64::decode(r) as usize;
        let relations = (0..n_rel)
            .map(|_| {
                let attrs: Vec<Attr> = Vec::<u64>::decode(r).iter().map(|&a| a as Attr).collect();
                let tuples: Vec<Tuple> = Vec::decode(r);
                Relation::new(attrs, tuples)
            })
            .collect();
        let base = Database::new(relations);
        let cum_delta = u64::decode(r);
        let rebuilds = u64::decode(r);
        let skew = match u64::decode(r) {
            0 => None,
            1 => Some(JoinSkew {
                left: decode_profile(r),
                right: decode_profile(r),
            }),
            tag => panic!("checkpoint: bad skew tag {tag}"),
        };
        ViewCheckpoint {
            snapshot,
            base,
            cum_delta,
            rebuilds,
            skew,
        }
    }
}

/// Capture a view's recoverable state. Pure driver-side bookkeeping: the
/// snapshot gather is communication-free (like every result inspection), so
/// checkpointing never perturbs the logical [`aj_mpc::Stats`].
pub(crate) fn checkpoint(view: &MaterializedView) -> ViewCheckpoint {
    ViewCheckpoint {
        snapshot: view.snapshot(),
        base: view.base.clone(),
        cum_delta: view.cum_delta,
        rebuilds: view.rebuilds,
        skew: view.skew.clone(),
    }
}

/// Restore a view from a checkpoint on a (possibly respawned) cluster: the
/// base mirror, counters, and skew profile come straight from the
/// checkpoint; the caches are rebuilt from the restored base with the same
/// seed stream a fresh build at this rebuild count would use; and the
/// counted materialization is **installed from the snapshot** — routed to
/// its hash owners in one delta round — instead of re-running the join.
/// Because the materialization sharding is a pure function of
/// `(tuple, mat_seed, p)`, the restored view is bit-identical (as observed
/// through [`MaterializedView::snapshot`]) to the view at checkpoint time.
///
/// Runs in its own stats epoch, returned to the caller; recovery load is
/// attributed like any other maintenance work.
pub(crate) fn restore(
    cluster: &mut Cluster,
    view: &mut MaterializedView,
    ckpt: &ViewCheckpoint,
) -> EpochStats {
    assert!(
        ckpt.base.matches(&view.query),
        "checkpoint does not match the view's query layout"
    );
    view.base = ckpt.base.clone();
    view.cum_delta = ckpt.cum_delta;
    view.rebuilds = ckpt.rebuilds;
    view.skew = ckpt.skew.clone();
    cluster.begin_epoch();
    let p = cluster.p();
    let exec_seed = mix(view.seed_base, view.rebuilds);
    // Same decomposition and grid seeds as `build` at this rebuild count
    // (cyclic pricing is a pure function of the restored base sizes): the
    // restored fragments land exactly where the crashed run placed them.
    // The tree seed is not the crashed run's — an acyclic build derives it
    // *after* the plan execution advanced the seed stream, and a restore
    // skips the join. That is sound: shard routing seeds only decide
    // *where* cached partner tuples live, and every later delta round
    // re-derives the owner from the shard's own stored seed.
    place_bags(cluster, view, exec_seed);
    view.cache.tree = build_tree(cluster, &view.cache, &view.base, mix(exec_seed, 0x7ee5));
    // Install the counted materialization from the snapshot: each entry is
    // routed to its hash owner carrying its exact count as the weight.
    view.mat = (0..p).map(|_| FxHashMap::default()).collect();
    let entries = ckpt.snapshot.iter().map(|(t, c)| (t, *c as i64));
    install_counts(cluster, view, &place_signed(entries, p), |(t, w)| (t, *w));
    let stats = cluster.epoch();
    cluster.trim_round_log();
    stats
}

/// Apply one signed row to a key-indexed shard (insert appends, delete
/// removes the first matching occurrence; empty buckets leave the map).
fn apply_signed_row(
    idx: &mut FxHashMap<Tuple, Vec<Tuple>>,
    key: &[Value],
    payload: &[Value],
    w: i64,
) {
    if w > 0 {
        idx.entry(Tuple::from_slice(key))
            .or_default()
            .push(Tuple::from_slice(payload));
    } else if let Some(bucket) = idx.get_mut(key) {
        if let Some(i) = bucket.iter().position(|t| t.values() == payload) {
            bucket.remove(i);
        }
        if bucket.is_empty() {
            idx.remove(key);
        }
    }
}
