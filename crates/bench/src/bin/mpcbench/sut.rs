//! The one adapter between the harness and the system under test.
//!
//! Every call into the `aj_*` crates lives in this file; the rest of the
//! harness imports only what is re-exported here. A refactor that renames
//! any of this surface (listed in the README) leaves a shim until a
//! `benchmark` issue re-points the adapter — a change that claims a gain may
//! not edit the benchmark.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aj_core::aggregate::output_size_with_tree;
use aj_core::dist::distribute_db;
use aj_core::engine::EngineConfig;
use aj_core::planner::{choose_plan, choose_plan_cyclic, execute_plan_dist};
use aj_mpc::{ChanTransport, Frame, FrameKind, ObsConfig, Partitioned, RowOutbox, Transport};
use aj_relation::classify::classify;
use aj_relation::{JoinClass, JoinTree, QuerySignature, TupleBlock};

pub use aj_core::engine::{QueryEngine, QueryOutcome};
pub use aj_core::planner::Plan;
pub use aj_core::{DistDatabase, DistRelation, UpdateOutcome, ViewCheckpoint, ViewId};
pub use aj_mpc::{Cluster, EpochStats};
pub use aj_relation::delta::CountedSnapshot;
pub use aj_relation::{Database, Query, Tuple, UpdateBatch};

/// Servers of every cluster the benchmark builds.
pub const P: usize = 8;

/// The three execution backends, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Seq,
    Par,
    Net,
}

impl Backend {
    pub const ALL: [Backend; 3] = [Backend::Seq, Backend::Par, Backend::Net];

    pub fn name(self) -> &'static str {
        match self {
            Backend::Seq => "seq",
            Backend::Par => "par",
            Backend::Net => "net",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// A fresh cluster on the backend: `seq` = `Cluster::new`, `par` =
/// `Cluster::new_parallel`, `net` = `Cluster::new_net` (chan transport, raw
/// protocol).
pub fn cluster(b: Backend) -> Cluster {
    match b {
        Backend::Seq => Cluster::new(P),
        Backend::Par => Cluster::new_parallel(P),
        Backend::Net => Cluster::new_net(P),
    }
}

/// A long-lived default-configured engine over `cluster`.
pub fn engine_over(cluster: Cluster) -> QueryEngine {
    QueryEngine::with_cluster(cluster, EngineConfig::default())
}

pub fn engine(b: Backend) -> QueryEngine {
    engine_over(cluster(b))
}

pub fn enable_obs(engine: &mut QueryEngine) {
    engine.enable_tracing(ObsConfig::default());
}

/// Detach the `aj_obs` trace; returns how many events it recorded.
pub fn take_obs_events(engine: &mut QueryEngine) -> u64 {
    engine.take_trace().map_or(0, |t| t.recorded())
}

// ---------------------------------------------------------------------------
// Wire-byte metering from outside: a transport wrapper that counts what the
// network backend sends. `QueryEngine` does not expose its executor, so this
// is the one way to meter engine-owned clusters (views); bare clusters use it
// too, so every `net.*` byte count comes from one mechanism.
// ---------------------------------------------------------------------------

pub struct CountingTransport {
    inner: ChanTransport,
    bytes: Arc<AtomicU64>,
}

impl Transport for CountingTransport {
    fn endpoints(&self) -> usize {
        self.inner.endpoints()
    }
    fn send(&self, from: usize, to: usize, frame: Frame) {
        self.bytes.fetch_add(frame.wire_bytes(), Ordering::Relaxed);
        self.inner.send(from, to, frame)
    }
    fn recv(&self, at: usize) -> Frame {
        self.inner.recv(at)
    }
    fn try_recv(&self, at: usize) -> Option<Frame> {
        self.inner.try_recv(at)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A `net` cluster whose sent bytes can be read through the returned meter.
pub fn metered_net_cluster() -> (Cluster, WireMeter) {
    let bytes = Arc::new(AtomicU64::new(0));
    let transport = CountingTransport {
        inner: ChanTransport::new(P),
        bytes: Arc::clone(&bytes),
    };
    (
        Cluster::new_net_with_transport(P, Arc::new(transport)),
        WireMeter(bytes),
    )
}

pub struct WireMeter(Arc<AtomicU64>);

impl WireMeter {
    pub fn bytes(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bytes the executor itself says it shipped (`None` off the net backend).
pub fn executor_wire_bytes(cluster: &Cluster) -> Option<u64> {
    cluster.executor().as_net().map(|nx| nx.wire_bytes())
}

// ---------------------------------------------------------------------------
// The query pipeline, phase by phase, on a bare cluster — what
// `QueryEngine::run` does inside, through the layers' public functions.
// ---------------------------------------------------------------------------

/// Structural planning artifacts of one query shape.
pub struct Shape {
    class: JoinClass,
    tree: Option<JoinTree>,
    fingerprint: u64,
}

/// `aj_relation::{classify, signature}`: what the engine caches per shape.
pub fn shape_of(q: &Query) -> Shape {
    Shape {
        class: classify(q),
        tree: q.join_tree(),
        fingerprint: QuerySignature::of(q).fingerprint(),
    }
}

/// `aj_core::dist`: the free initial placement.
pub fn distribute(db: &Database) -> DistDatabase {
    distribute_db(db, P)
}

/// The engine's per-shape seed derivation (`engine.rs`, private there):
/// replaying with the same streams makes the replayed epochs comparable
/// with the engine's own, which the traced run checks.
fn engine_mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const PLANNING_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Planning phase in its own epoch: the Corollary-4 counting pass plus the
/// closed-form plan choice (acyclic), or the communication-free cyclic
/// pricing.
pub fn plan(
    cluster: &mut Cluster,
    shape: &Shape,
    q: &Query,
    dist: &DistDatabase,
    in_size: u64,
) -> (Plan, EpochStats) {
    let seed = EngineConfig::default().seed;
    cluster.begin_epoch();
    let plan = match &shape.tree {
        Some(tree) if shape.class != JoinClass::Cyclic => {
            let mut plan_seed = engine_mix(seed ^ PLANNING_SALT, shape.fingerprint);
            let out = {
                let mut net = cluster.net();
                output_size_with_tree(&mut net, tree, dist, &mut plan_seed)
            };
            choose_plan(shape.class, in_size, out, P)
        }
        _ => {
            let sizes: Vec<u64> = dist.iter().map(|r| r.total_len() as u64).collect();
            choose_plan_cyclic(q, &sizes, P).0
        }
    };
    (plan, cluster.epoch())
}

/// Execution phase in its own epoch.
pub fn execute(
    cluster: &mut Cluster,
    shape: &Shape,
    plan: Plan,
    q: &Query,
    dist: DistDatabase,
) -> (DistRelation, EpochStats) {
    let mut exec_seed = engine_mix(EngineConfig::default().seed, shape.fingerprint);
    let out = {
        let mut net = cluster.net();
        execute_plan_dist(&mut net, plan, q, dist, &mut exec_seed)
    };
    let epoch = cluster.epoch();
    cluster.trim_round_log();
    (out, epoch)
}

// ---------------------------------------------------------------------------
// Oracles (reference implementations the outputs are compared against).
// ---------------------------------------------------------------------------

pub fn is_acyclic(q: &Query) -> bool {
    q.is_acyclic()
}

/// `OUT` of an acyclic instance.
pub fn oracle_count(q: &Query, db: &Database) -> u64 {
    aj_relation::ram::count(q, db)
}

/// The sorted join result of an acyclic instance, columns by ascending
/// attribute id.
pub fn oracle_join(q: &Query, db: &Database) -> Vec<Tuple> {
    let (_, mut rows) = aj_relation::ram::join(q, db);
    rows.sort_unstable();
    rows
}

/// A distributed result in the oracle's form.
pub fn normalized_rows(out: &DistRelation) -> Vec<Tuple> {
    let mut rows = out.normalized().gather_free().tuples;
    rows.sort_unstable();
    rows
}

// ---------------------------------------------------------------------------
// Instance generators (`aj_instancegen`).
// ---------------------------------------------------------------------------

pub mod gen {
    use super::{Database, Query, UpdateBatch};

    pub fn star3() -> Query {
        aj_instancegen::shapes::star_query(3)
    }
    pub fn r_hier() -> Query {
        aj_instancegen::shapes::rh_example_query()
    }
    pub fn tall_flat() -> Query {
        aj_instancegen::shapes::tall_flat_q1()
    }
    pub fn line(k: usize) -> Query {
        aj_instancegen::line_query(k)
    }
    pub fn triangle() -> Query {
        aj_instancegen::shapes::triangle_query()
    }
    pub fn random_instance(q: &Query, size: usize, domain: u64, seed: u64) -> Database {
        let mut db = aj_instancegen::random::random_instance(q, size, domain, seed);
        db.dedup_all();
        db
    }
    pub fn fig3_one_sided(n: u64, out: u64) -> Database {
        aj_instancegen::fig3::one_sided(n, out).db
    }
    pub fn fig3_two_sided(n: u64, out: u64) -> Database {
        aj_instancegen::fig3::two_sided(n, out).db
    }
    pub fn fig3_sparse_small_out(n: u64, variant: u64) -> Database {
        aj_instancegen::fig3::sparse_small_out(n, variant).db
    }
    pub fn fig6(n: u64, out: u64, seed: u64) -> Database {
        aj_instancegen::fig6::generate(n, out, seed).db
    }
    pub fn rows(q: &Query, rows: &[Vec<Vec<u64>>]) -> Database {
        let mut db = aj_relation::database_from_rows(q, rows);
        db.dedup_all();
        db
    }
    /// `n_batches` uniform signed batches of `fraction · IN` tuples each.
    pub fn update_stream(
        q: &Query,
        db: &Database,
        n_batches: usize,
        fraction: f64,
        seed: u64,
    ) -> Vec<UpdateBatch> {
        aj_instancegen::updates::update_stream(q, db, n_batches, fraction, 0.0, seed)
    }
}

/// Words a checkpoint serialises to.
pub fn checkpoint_words(ckpt: &ViewCheckpoint) -> u64 {
    let mut words = Vec::new();
    aj_mpc::Wire::encode(ckpt, &mut words);
    words.len() as u64
}

// ---------------------------------------------------------------------------
// Synthetic probes of single layers.
// ---------------------------------------------------------------------------

pub mod probe {
    use super::*;

    /// One `exchange_rows` round carrying one row per sender→receiver pair:
    /// the fixed cost of a round.
    pub fn pair_round(cluster: &mut Cluster) -> usize {
        let outbox: Vec<RowOutbox> = (0..P)
            .map(|s| {
                let mut ob = RowOutbox::with_capacity(1, P);
                for d in 0..P {
                    ob.push(d, &[s as u64]);
                }
                ob
            })
            .collect();
        let inbox = cluster.net().exchange_rows(1, outbox);
        inbox.iter().map(TupleBlock::len).sum()
    }

    /// One all-empty `exchange_rows` round.
    pub fn empty_round(cluster: &mut Cluster) {
        let outbox = (0..P).map(|_| RowOutbox::new(1)).collect();
        cluster.net().exchange_rows(1, outbox);
    }

    /// One free-compute region doing nothing: the cost of waking every
    /// server.
    pub fn region(cluster: &mut Cluster) -> usize {
        cluster.net().run_each(|_| ()).len()
    }

    /// `rows` arity-2 rows, evenly spread over the senders, each with a
    /// uniformly hashed destination.
    pub struct RouteInput {
        pub n_rows: usize,
        per_sender: Vec<Vec<([u64; 2], usize)>>,
    }

    pub fn route_input(n_rows: usize, mix: impl Fn(u64) -> u64) -> RouteInput {
        let mut per_sender: Vec<Vec<([u64; 2], usize)>> = vec![Vec::new(); P];
        for i in 0..n_rows as u64 {
            let key = mix(i);
            let dest = ((key as u128 * P as u128) >> 64) as usize;
            per_sender[i as usize % P].push(([key, i], dest));
        }
        RouteInput { n_rows, per_sender }
    }

    pub fn row_outbox(input: &RouteInput) -> Vec<RowOutbox> {
        input
            .per_sender
            .iter()
            .map(|rows| {
                let mut ob = RowOutbox::with_capacity(2, rows.len());
                for (row, dest) in rows {
                    ob.push(*dest, row);
                }
                ob
            })
            .collect()
    }

    pub fn route_rows(cluster: &mut Cluster, outbox: Vec<RowOutbox>) -> usize {
        let inbox = cluster.net().exchange_rows(2, outbox);
        inbox.iter().map(TupleBlock::len).sum()
    }

    pub fn tuple_outbox(input: &RouteInput) -> Vec<Vec<(usize, Tuple)>> {
        input
            .per_sender
            .iter()
            .map(|rows| {
                rows.iter()
                    .map(|(row, dest)| (*dest, Tuple::from_slice(row)))
                    .collect()
            })
            .collect()
    }

    /// The same rows as `Tuple` objects through the generic `Net::exchange`.
    pub fn route_tuples(cluster: &mut Cluster, outbox: Vec<Vec<(usize, Tuple)>>) -> usize {
        let inbox = cluster.net().exchange(outbox);
        inbox.iter().map(Vec::len).sum()
    }

    pub fn reliable_net_cluster() -> Cluster {
        Cluster::new_net_reliable(P)
    }

    /// Share of the bytes a reliable cluster shipped so far that were acks.
    pub fn ack_bytes_share(cluster: &Cluster) -> f64 {
        let nx = cluster.executor().as_net().expect("a net cluster");
        let w = nx.wire_breakdown();
        w.ack as f64 / w.total().max(1) as f64
    }

    /// A `net` cluster over real unix-domain sockets, or why there is none.
    pub fn uds_cluster() -> Result<Cluster, String> {
        if !aj_mpc::uds_supported() {
            return Err("uds transport not compiled into this build".to_string());
        }
        uds_cluster_inner()
    }

    #[cfg(all(unix, feature = "uds"))]
    fn uds_cluster_inner() -> Result<Cluster, String> {
        let transport = aj_mpc::UdsTransport::try_new(P).map_err(|e| e.to_string())?;
        Ok(Cluster::new_net_with_transport(P, transport))
    }

    #[cfg(not(all(unix, feature = "uds")))]
    fn uds_cluster_inner() -> Result<Cluster, String> {
        Err("uds transport not compiled into this build".to_string())
    }

    /// A `rows`-row arity-3 block for the codec probes.
    pub fn wire_block(rows: usize, mix: impl Fn(u64) -> u64) -> TupleBlock {
        let values = (0..3 * rows as u64).map(mix).collect();
        TupleBlock::from_values(3, values)
    }

    /// `Frame::new` → `to_bytes`.
    pub fn wire_encode(block: &TupleBlock) -> Vec<u8> {
        Frame::new(FrameKind::Rows, 1, 0, block).to_bytes()
    }

    /// `Frame::read_from` → `decode_body`; returns the decoded row count.
    pub fn wire_decode(bytes: &[u8]) -> usize {
        let frame = Frame::read_from(&mut &bytes[..])
            .expect("in-memory read")
            .expect("one frame");
        frame.decode_body::<TupleBlock>().len()
    }

    fn spread<T: Clone>(items: &[T]) -> Partitioned<T> {
        Partitioned::distribute(items.to_vec(), P)
    }

    /// The four Section-2 primitives on `seq`, each over `items.len()`
    /// `(key, value)` pairs; every function returns a size to black-box.
    pub fn sum_by_key(cluster: &mut Cluster, items: &[(u64, u64)]) -> usize {
        let mut net = cluster.net();
        aj_primitives::sum_by_key(&mut net, spread(items), 7, |a, b| a + b)
            .parts
            .total_len()
    }

    pub fn semi_join(cluster: &mut Cluster, items: &[(u64, u64)], keys: &[u64]) -> usize {
        let mut net = cluster.net();
        aj_primitives::semi_join(&mut net, spread(items), |t| t.0, spread(keys), 7).total_len()
    }

    pub fn multi_numbering(cluster: &mut Cluster, items: &[(u64, u64)]) -> usize {
        let mut net = cluster.net();
        aj_primitives::multi_numbering(&mut net, spread(items), 7).total_len()
    }

    pub fn parallel_packing(cluster: &mut Cluster, items: &[(u64, f64)]) -> u64 {
        let mut net = cluster.net();
        aj_primitives::parallel_packing(&mut net, spread(items)).n_groups
    }
}

// ---------------------------------------------------------------------------
// The serving surface the workloads drive.
// ---------------------------------------------------------------------------

pub fn run(engine: &mut QueryEngine, q: &Query, db: &Database) -> QueryOutcome {
    engine.run(q, db)
}

pub fn register_view(engine: &mut QueryEngine, q: &Query, db: &Database) -> ViewId {
    engine.register_view(q, db)
}

pub fn apply_update(engine: &mut QueryEngine, id: ViewId, batch: &UpdateBatch) -> UpdateOutcome {
    engine.apply_update(id, batch)
}

pub fn snapshot(engine: &QueryEngine, id: ViewId) -> CountedSnapshot {
    engine.view(id).snapshot()
}

pub fn registration_epoch(engine: &QueryEngine, id: ViewId) -> EpochStats {
    engine.view(id).registration().clone()
}

pub fn checkpoint(engine: &mut QueryEngine, id: ViewId) -> ViewCheckpoint {
    engine.checkpoint(id)
}

pub fn restore(engine: &mut QueryEngine, id: ViewId, ckpt: &ViewCheckpoint) -> EpochStats {
    engine.restore(id, ckpt)
}

pub fn cache_hits(engine: &QueryEngine) -> u64 {
    engine.cache_hits()
}

pub fn apply_batch(batch: &UpdateBatch, db: &mut Database) {
    batch.apply_to(db)
}

pub fn batch_size(batch: &UpdateBatch) -> u64 {
    batch.size()
}

/// The span name of a plan's execution (the planner's own short names).
pub fn plan_name(plan: Plan) -> &'static str {
    match plan {
        Plan::InstanceOptimal => "thm3",
        Plan::OutputOptimal => "thm7",
        Plan::Yannakakis => "yann",
        Plan::WorstCase => "hcube",
        Plan::Ghd => "ghd",
        Plan::SkewHybrid => "hybrid",
    }
}

/// Did the planner answer this batch with a full recompute?
pub fn recomputed(outcome: &UpdateOutcome) -> bool {
    outcome.strategy == aj_core::planner::MaintenanceChoice::Recompute
}
