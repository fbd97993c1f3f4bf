//! Differential tests of the incremental-maintenance subsystem
//! (`aj_core::delta`): for every view shape, applying a stream of random
//! signed batches must leave a counted materialization **bit-identical** to
//! a full recompute on the final base state — on both executors.

use aj_core::engine::QueryEngine;
use aj_core::planner::MaintenanceChoice;
use aj_relation::delta::{CountedSnapshot, UpdateBatch};
use aj_relation::{ram, Database, Query, Tuple};

/// The RAM-model oracle's counted materialization of `q` on `db`: every
/// output tuple of the set-semantics join with count 1, sorted.
fn oracle_snapshot(q: &Query, db: &Database) -> CountedSnapshot {
    let mut tuples = ram::naive_join(q, db);
    tuples.sort_unstable();
    tuples.dedup();
    tuples.into_iter().map(|t| (t, 1)).collect()
}

/// Every registered shape: (label, query, database).
fn shapes() -> Vec<(&'static str, Query, Database)> {
    let mut cases = Vec::new();

    // Binary join (tall-flat).
    let mut b = aj_relation::QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "C"]);
    let q = b.build();
    let db = aj_relation::database_from_rows(
        &q,
        &[
            (0..60).map(|i| vec![i, i % 7]).collect(),
            (0..45).map(|i| vec![i % 7, 1000 + i]).collect(),
        ],
    );
    cases.push(("binary", q, db));

    // Line-3 (acyclic, Theorem-7 territory) — a Figure-3 hard instance.
    let inst = aj_instancegen::fig3::one_sided(48, 48 * 6);
    cases.push(("line3", inst.query, inst.db));

    // Star (r-hierarchical).
    let q = aj_instancegen::shapes::star_query(3);
    let mut db = aj_instancegen::random::random_instance(&q, 60, 9, 77);
    db.dedup_all();
    cases.push(("star3", q, db));

    // Triangle (cyclic → one bag of all edges: whole-query delta-HyperCube).
    let inst = aj_instancegen::fig6::generate(40, 90, 5);
    cases.push(("triangle", inst.query, inst.db));

    // Triangle + 6-path appendage (cyclic → the GHD's bags: one gridded
    // multi-edge bag plus single-edge bags, not one bag of all edges).
    let (q, db) = aj_instancegen::shapes::triangle_with_tail(6);
    cases.push(("ghd", q, db));

    cases
}

/// The GHD shape really registers through the bag caches (not a silent
/// fall-back to whole-query delta-HyperCube), and the update stream
/// exercises the lifted bag-delta maintenance path, not just rebuilds.
#[test]
fn ghd_planned_view_maintains_through_bag_caches() {
    let (q, db) = aj_instancegen::shapes::triangle_with_tail(6);
    let mut engine = QueryEngine::new(8);
    let view = engine.register_view(&q, &db);
    assert_eq!(
        engine.view(view).plan(),
        aj_core::planner::Plan::Ghd,
        "the appendage shape must price to the GHD plan"
    );
    let mut mirror = db.clone();
    mirror.dedup_all();
    assert!(
        !engine.view(view).snapshot().is_empty(),
        "the GHD shape must have a non-empty output"
    );
    // One small batch per relation, each touching exactly one relation:
    // single-relation deltas price to the maintenance pass, covering both
    // bag-delta routes — the grid route (triangle edges, a multi-edge bag)
    // and the free permutation route (path edges, single-edge bags).
    for e in 0..q.n_edges() {
        let mut batch = UpdateBatch::empty(q.n_edges());
        batch.delete(e, mirror.relations[e].tuples[0].clone());
        let fresh = (0..36u64)
            .map(|v| Tuple::from([v / 6, v % 6]))
            .find(|t| !mirror.relations[e].tuples.contains(t))
            .expect("a 24-row relation leaves free pairs in a 6x6 domain");
        batch.insert(e, fresh);
        let outcome = engine.apply_update(view, &batch);
        batch.apply_to(&mut mirror);
        assert_eq!(
            outcome.strategy,
            MaintenanceChoice::Maintain,
            "ghd: relation {e} batch must maintain"
        );
        assert_eq!(
            engine.view(view).snapshot(),
            oracle_snapshot(&q, &mirror),
            "ghd: relation {e} bag-delta pass diverged from the oracle"
        );
    }
    // A mixed stream (whatever the planner picks per batch) reconverges too.
    let batches = aj_instancegen::updates::update_stream(&q, &mirror, 3, 0.05, 0.0, 0x6d9);
    for (i, batch) in batches.iter().enumerate() {
        let outcome = engine.apply_update(view, batch);
        batch.apply_to(&mut mirror);
        assert_eq!(
            engine.view(view).snapshot(),
            oracle_snapshot(&q, &mirror),
            "ghd: batch {i} snapshot (strategy {})",
            outcome.strategy
        );
    }
}

/// Drive one engine through registration + a generated update stream;
/// assert the snapshot matches the oracle after every batch, and that a
/// fresh registration on the final state is bit-identical.
fn drive(
    label: &str,
    q: &Query,
    db: &Database,
    parallel: bool,
    zipf_s: f64,
) -> (CountedSnapshot, Vec<aj_mpc::EpochStats>) {
    let mut engine = if parallel {
        QueryEngine::new_parallel(8)
    } else {
        QueryEngine::new(8)
    };
    let view = engine.register_view(q, db);
    let mut mirror = db.clone();
    mirror.dedup_all();
    assert_eq!(
        engine.view(view).snapshot(),
        oracle_snapshot(q, &mirror),
        "{label}: registration snapshot"
    );
    let batches = aj_instancegen::updates::update_stream(q, &mirror, 4, 0.05, zipf_s, 0xfeed);
    let mut epochs = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let outcome = engine.apply_update(view, batch);
        batch.apply_to(&mut mirror);
        assert_eq!(
            engine.view(view).snapshot(),
            oracle_snapshot(q, &mirror),
            "{label}: batch {i} snapshot (strategy {})",
            outcome.strategy
        );
        assert_eq!(outcome.out_size, engine.view(view).snapshot().len() as u64);
        epochs.push(outcome.maintenance);
    }
    // Bit-identical to a full recompute on the final state.
    let mut fresh = QueryEngine::new(8);
    let fresh_view = fresh.register_view(q, &mirror);
    assert_eq!(
        engine.view(view).snapshot(),
        fresh.view(fresh_view).snapshot(),
        "{label}: maintained ≠ recomputed on the final state"
    );
    (engine.view(view).snapshot(), epochs)
}

/// The acceptance differential: every shape, uniform update stream, N
/// batches, maintained == recomputed, and the parallel executor reproduces
/// the sequential engine's snapshots and per-batch epochs bit for bit.
#[test]
fn maintained_views_match_recompute_on_every_shape() {
    for (label, q, db) in shapes() {
        let (seq_snap, seq_epochs) = drive(label, &q, &db, false, 0.0);
        let (par_snap, par_epochs) = drive(label, &q, &db, true, 0.0);
        assert_eq!(seq_snap, par_snap, "{label}: executor snapshots differ");
        assert_eq!(seq_epochs, par_epochs, "{label}: executor epochs differ");
    }
}

/// Zipf-skewed update streams hammer the hot keys; counts must stay exact.
#[test]
fn skewed_update_streams_stay_exact() {
    for (label, q, db) in shapes() {
        drive(label, &q, &db, false, 1.1);
    }
}

/// A batch the size of the instance prices above the closed-form recompute:
/// the planner must fall back to a rebuild, and the result must still match
/// the oracle (the cost-based fall-back, not a hardcoded threshold).
#[test]
fn oversized_batch_triggers_cost_based_recompute() {
    let (_, q, db) = shapes().remove(1); // line3
    let mut engine = QueryEngine::new(8);
    let view = engine.register_view(&q, &db);
    let mut mirror = db.clone();
    mirror.dedup_all();
    // Replace essentially the whole instance, twice over (fraction 1.0
    // deletes/inserts ≈ IN/2 per relation each batch; churn accumulates).
    let batches = aj_instancegen::updates::update_stream(&q, &mirror, 3, 1.0, 0.0, 0xdead);
    let mut saw_recompute = false;
    for batch in &batches {
        let outcome = engine.apply_update(view, batch);
        batch.apply_to(&mut mirror);
        saw_recompute |= outcome.strategy == MaintenanceChoice::Recompute;
        assert_eq!(engine.view(view).snapshot(), oracle_snapshot(&q, &mirror));
    }
    assert!(
        saw_recompute,
        "instance-sized batches must price above maintenance"
    );
    assert!(engine.view(view).rebuilds() > 0);
    // After a rebuild the churn counter resets.
    assert!(engine.view(view).cum_delta() < mirror.input_size() as u64);
}

/// Tiny batches must always maintain (the delta pass prices orders of
/// magnitude below recompute), and the maintenance epochs must be far
/// cheaper than the registration build.
#[test]
fn small_batches_maintain_and_stay_cheap() {
    let (_, q, db) = shapes().remove(1); // line3
    let mut engine = QueryEngine::new(8);
    let view = engine.register_view(&q, &db);
    let build_units = engine.view(view).registration().total_messages;
    let mut mirror = db.clone();
    mirror.dedup_all();
    let batches = aj_instancegen::updates::update_stream(&q, &mirror, 3, 0.01, 0.0, 7);
    for batch in &batches {
        let outcome = engine.apply_update(view, batch);
        batch.apply_to(&mut mirror);
        assert_eq!(outcome.strategy, MaintenanceChoice::Maintain);
        assert!(
            2 * outcome.maintenance.total_messages <= build_units,
            "1% batch cost {} vs build {build_units}",
            outcome.maintenance.total_messages
        );
    }
}

/// Multi-relation batches must respect the `ΔR_i ⋈ R_{<i}^new ⋈ R_{>i}^old`
/// decomposition: a batch that moves a tuple *between* joinable positions
/// of different relations in one call must land on the oracle state.
#[test]
fn batches_touching_every_relation_at_once() {
    let inst = aj_instancegen::fig6::generate(30, 60, 11);
    let (q, db) = (inst.query, inst.db);
    let mut engine = QueryEngine::new(4);
    let view = engine.register_view(&q, &db);
    let mut mirror = db.clone();
    mirror.dedup_all();
    let mut batch = UpdateBatch::empty(q.n_edges());
    for (e, rel) in mirror.relations.iter().enumerate() {
        // Delete the first two tuples of each relation, insert fresh hubs.
        for t in rel.tuples.iter().take(2) {
            batch.delete(e, t.clone());
        }
        batch.insert(e, Tuple::from([0, e as u64]));
        batch.insert(e, Tuple::from([e as u64, 0]));
    }
    let outcome = engine.apply_update(view, &batch);
    batch.apply_to(&mut mirror);
    assert_eq!(outcome.strategy, MaintenanceChoice::Maintain);
    assert_eq!(engine.view(view).snapshot(), oracle_snapshot(&q, &mirror));
}

/// A delete followed by a re-insert of the same tuple (same batch and
/// across batches) must round-trip the counts exactly.
#[test]
fn delete_reinsert_round_trip() {
    let mut b = aj_relation::QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "C"]);
    let q = b.build();
    let db = aj_relation::database_from_rows(
        &q,
        &[
            (0..20).map(|i| vec![i, i % 3]).collect(),
            (0..12).map(|i| vec![i % 3, 500 + i]).collect(),
        ],
    );
    let mut engine = QueryEngine::new(4);
    let view = engine.register_view(&q, &db);
    let before = engine.view(view).snapshot();
    // Same batch: delete + re-insert is a no-op.
    let mut batch = UpdateBatch::empty(2);
    batch.delete(0, Tuple::from([0, 0]));
    batch.insert(0, Tuple::from([0, 0]));
    engine.apply_update(view, &batch);
    assert_eq!(engine.view(view).snapshot(), before);
    // Across batches: remove, verify shrink, restore, verify round-trip.
    let mut del = UpdateBatch::empty(2);
    del.delete(0, Tuple::from([0, 0]));
    engine.apply_update(view, &del);
    assert!(engine.view(view).snapshot().len() < before.len());
    let mut ins = UpdateBatch::empty(2);
    ins.insert(0, Tuple::from([0, 0]));
    engine.apply_update(view, &ins);
    assert_eq!(engine.view(view).snapshot(), before);
}

/// Per-view epochs attribute maintenance load: registration and every batch
/// report their own interval, and the engine's cumulative stats cover them.
#[test]
fn view_epochs_attribute_maintenance_load() {
    let (_, q, db) = shapes().remove(0);
    let mut engine = QueryEngine::new(4);
    let view = engine.register_view(&q, &db);
    let reg = engine.view(view).registration().clone();
    assert!(reg.total_messages > 0 && reg.exchanges > 0);
    let mut mirror = db.clone();
    mirror.dedup_all();
    let batch = aj_instancegen::updates::update_stream(&q, &mirror, 1, 0.05, 0.0, 5).remove(0);
    let outcome = engine.apply_update(view, &batch);
    assert!(outcome.maintenance.total_messages > 0);
    // Registration + the batch are all the communication this engine did.
    assert_eq!(
        engine.stats().total_messages,
        reg.total_messages + outcome.maintenance.total_messages
    );
    assert_eq!(
        engine.stats().max_load,
        reg.max_load.max(outcome.maintenance.max_load)
    );
}

/// Communication of every shape's registration and maintenance is pinned:
/// `(exchanges, max_load, total_messages)` of the registration epoch and of
/// the summed maintenance epochs over a fixed 8-batch 5 % stream at p = 8.
/// Like the engine's `L = 364`, these are exact regression constants — a
/// refactor of the view caches must reproduce them.
///
/// Before control-plane aggregation became one gather plus one scatter and
/// Theorem 3 counted its subsets once, the registrations were binary
/// `[60, 65, 1594]`, line3 `[139, 43, 3105]`, star3 `[110, 133, 2353]` and
/// ghd `[323, 384, 5352]`, and ghd's maintenance `[2584, 146, 17793]`.
/// Before binary views stopped building a heavy-hitter profile no decision
/// read, the binary registration was `[33, 65, 1423]`. Before the full
/// reducer's bottom-up sweep became the solvers' count, the registrations
/// were binary `[29, 65, 1212]`, line3 `[109, 43, 2995]` and star3
/// `[55, 133, 1953]`. Before key owners answered the servers their degree
/// tallies had heard from (no ask round for multi-numbering or directives),
/// the registrations were binary `[26, 65, 1131]`, line3 `[79, 43, 2683]`,
/// star3 `[49, 133, 1865]` and ghd `[211, 384, 4992]`, and ghd's
/// maintenance `[1688, 146, 15129]`. Before the full reducer's top-down
/// sweep reported to resident key owners instead of semi-joining afresh,
/// the registrations were binary `[23, 65, 1051]`, line3 `[65, 43, 2134]`,
/// star3 `[44, 133, 1796]` and ghd `[163, 384, 4509]`, and ghd's
/// maintenance `[1304, 146, 12909]`.
#[test]
fn view_loads_are_pinned() {
    const PINNED: [(&str, [u64; 3], [u64; 3]); 5] = [
        ("binary", [22, 65, 984], [48, 7, 412]),
        ("line3", [61, 43, 1878], [104, 10, 773]),
        ("star3", [42, 133, 1765], [104, 20, 1389]),
        ("triangle", [4, 16, 340], [72, 3, 308]),
        ("ghd", [155, 384, 4434], [1240, 146, 12396]),
    ];
    for ((label, q, db), (pinned_label, registration, maintenance)) in
        shapes().into_iter().zip(PINNED)
    {
        assert_eq!(label, pinned_label);
        let mut engine = QueryEngine::new(8);
        let view = engine.register_view(&q, &db);
        let reg = engine.view(view).registration();
        let got_registration = [reg.exchanges, reg.max_load, reg.total_messages];
        let mut mirror = db.clone();
        mirror.dedup_all();
        let batches = aj_instancegen::updates::update_stream(&q, &mirror, 8, 0.05, 0.0, 0x9175);
        let mut got_maintenance = [0u64; 3];
        for batch in &batches {
            let epoch = engine.apply_update(view, batch).maintenance;
            got_maintenance[0] += epoch.exchanges;
            got_maintenance[1] = got_maintenance[1].max(epoch.max_load);
            got_maintenance[2] += epoch.total_messages;
        }
        assert_eq!(
            got_registration, registration,
            "{label}: registration loads"
        );
        assert_eq!(got_maintenance, maintenance, "{label}: maintenance loads");
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / recovery satellites: the snapshot codec and `ViewCheckpoint`
// must round-trip losslessly, and restoring a checkpoint must land the view
// exactly where the oracle says the checkpointed state was.
// ---------------------------------------------------------------------------

use aj_core::ViewCheckpoint;
use aj_mpc::{Wire, WireReader};
use aj_relation::delta::{decode_snapshot, encode_snapshot};
use proptest::prelude::*;

/// Splitmix64 step: deterministic pseudo-random streams for the generators.
fn mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded snapshot of `n` entries with per-entry arity in `0..=max_arity`
/// (mixed widths in one snapshot — the codec is self-delimiting) and counts
/// spanning the full `u64` range on occasion.
fn random_snapshot(seed: u64, n: usize, max_arity: usize) -> CountedSnapshot {
    let mut s = seed ^ 0x5eed_cafe;
    (0..n)
        .map(|_| {
            let arity = (mix64(&mut s) as usize) % (max_arity + 1);
            let values: Vec<u64> = (0..arity).map(|_| mix64(&mut s)).collect();
            let count = mix64(&mut s) | 1; // positive, occasionally huge
            (Tuple::new(&values), count)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `encode_snapshot` → `decode_snapshot` is the identity for every
    /// arity below, at, and above the inline tuple boundary (3), and the
    /// encoding is canonical: re-encoding yields the identical buffer.
    #[test]
    fn snapshot_codec_round_trips(seed in 0u64..10_000, n in 0usize..120, max_arity in 0usize..6) {
        let snap = random_snapshot(seed, n, max_arity);
        let words = encode_snapshot(&snap);
        let expect_len = 1 + snap.iter().map(|(t, _)| t.arity() + 2).sum::<usize>();
        prop_assert_eq!(words.len(), expect_len);
        prop_assert_eq!(decode_snapshot(&words), snap.clone());
        prop_assert_eq!(encode_snapshot(&snap), words);
    }
}

/// The empty snapshot is one word and survives the round trip.
#[test]
fn empty_snapshot_round_trips() {
    let snap: CountedSnapshot = Vec::new();
    let words = encode_snapshot(&snap);
    assert_eq!(words, vec![0]);
    assert_eq!(decode_snapshot(&words), snap);
}

/// A truncated snapshot buffer must fail loudly, not decode garbage.
#[test]
#[should_panic(expected = "snapshot buffer truncated")]
fn truncated_snapshot_buffer_panics() {
    let snap = random_snapshot(7, 20, 4);
    let words = encode_snapshot(&snap);
    decode_snapshot(&words[..words.len() - 1]);
}

/// Trailing words after the last entry must fail loudly too.
#[test]
#[should_panic(expected = "snapshot buffer has trailing words")]
fn trailing_snapshot_words_panic() {
    let mut words = encode_snapshot(&random_snapshot(9, 10, 3));
    words.push(42);
    decode_snapshot(&words);
}

/// For every view shape: advance a stream, checkpoint, diverge, then
/// restore from the checkpoint's **wire round-trip** — the view must land
/// bit-identically on the checkpointed (oracle-verified) state, and
/// replaying the tail from there must reconverge with the oracle.
#[test]
fn checkpoint_restore_matches_oracle_on_every_shape() {
    for (label, q, db) in shapes() {
        let mut engine = QueryEngine::new(8);
        let view = engine.register_view(&q, &db);
        let mut mirror = db.clone();
        mirror.dedup_all();
        let batches = aj_instancegen::updates::update_stream(&q, &mirror, 4, 0.05, 0.0, 0xabcd);
        for batch in &batches[..2] {
            engine.apply_update(view, batch);
            batch.apply_to(&mut mirror);
        }
        let ckpt = engine.checkpoint(view);
        let at_ckpt = engine.view(view).snapshot();
        assert_eq!(
            at_ckpt,
            oracle_snapshot(&q, &mirror),
            "{label}: checkpointed state is wrong before any recovery"
        );
        // Diverge past the checkpoint.
        for batch in &batches[2..] {
            engine.apply_update(view, batch);
        }
        assert_ne!(
            engine.view(view).snapshot(),
            at_ckpt,
            "{label}: stream tail must actually change the view"
        );
        // Serialize → deserialize → restore from the decoded copy: the wire
        // form carries everything restore needs.
        let mut words = Vec::new();
        ckpt.encode(&mut words);
        let mut reader = WireReader::new(&words);
        let decoded = ViewCheckpoint::decode(&mut reader);
        assert!(reader.is_exhausted(), "{label}: undecoded checkpoint words");
        assert_eq!(
            decoded.snapshot(),
            ckpt.snapshot(),
            "{label}: wire snapshot"
        );
        assert_eq!(decoded.base(), ckpt.base(), "{label}: wire base");
        assert_eq!(decoded.cum_delta(), ckpt.cum_delta());
        assert_eq!(decoded.rebuilds(), ckpt.rebuilds());
        // The encoding is canonical: decoding reads every word, and
        // re-encoding the decoded copy yields the identical buffer.
        let mut again = Vec::new();
        decoded.encode(&mut again);
        assert_eq!(again, words, "{label}: re-encoded checkpoint");
        engine.restore(view, &decoded);
        assert_eq!(
            engine.view(view).snapshot(),
            at_ckpt,
            "{label}: restore must be bit-identical to the checkpointed state"
        );
        // Replay the tail and reconverge.
        for batch in &batches[2..] {
            engine.apply_update(view, batch);
            batch.apply_to(&mut mirror);
        }
        assert_eq!(
            engine.view(view).snapshot(),
            oracle_snapshot(&q, &mirror),
            "{label}: replay after restore diverged from the oracle"
        );
    }
}

/// `recover` is restore + replay in one call: its report must account for
/// every pending batch and leave the view on the oracle state.
#[test]
fn recover_replays_pending_batches() {
    let (_, q, db) = shapes().remove(1); // line3
    let mut engine = QueryEngine::new(8);
    let view = engine.register_view(&q, &db);
    let mut mirror = db.clone();
    mirror.dedup_all();
    let batches = aj_instancegen::updates::update_stream(&q, &mirror, 3, 0.05, 0.0, 0xf00d);
    let ckpt = engine.checkpoint(view);
    // Simulate losing the first two batches to a crash mid-stream: the view
    // applied them, the checkpoint predates them.
    for batch in &batches[..2] {
        engine.apply_update(view, batch);
        batch.apply_to(&mut mirror);
    }
    let report = engine.recover(view, &ckpt, &batches[..2]);
    assert_eq!(report.replayed.len(), 2);
    assert_eq!(
        engine.view(view).snapshot(),
        oracle_snapshot(&q, &mirror),
        "recovery left the view off the oracle state"
    );
    // The engine keeps serving normally afterwards.
    let tail = &batches[2];
    engine.apply_update(view, tail);
    tail.apply_to(&mut mirror);
    assert_eq!(engine.view(view).snapshot(), oracle_snapshot(&q, &mirror));
}
