//! Observability acceptance: the structured trace added by `aj_obs` must be
//! a pure function of the served requests — deterministic across repeated
//! runs and across execution backends — and strictly free when disabled:
//! a tracing-off engine records zero events and measures exactly the same
//! `Stats` as a tracing-on one. Exporters (Chrome trace-event JSON, flat
//! metrics, `QueryEngine::explain`) are pure functions of trace/outcome
//! content, so they re-render byte-identically after an encode/decode trip.
//!
//! Also home of the sustained-batch test: over a long query batch the
//! per-query epochs keep reconciling with the cumulative stats.

use acyclic_joins::core::engine::{epochs_reconcile, QueryEngine};
use acyclic_joins::instancegen::{line_query, shapes, updates};
use acyclic_joins::mpc::Cluster;
use acyclic_joins::obs::{chrome, metrics, Event, ObsConfig, RoundKind, Trace};
use acyclic_joins::prelude::*;
use proptest::prelude::*;

fn line3_db(q: &Query) -> Database {
    acyclic_joins::relation::database_from_rows(
        q,
        &[
            (0..12).map(|i| vec![i, i % 3]).collect(),
            (0..9).map(|i| vec![i % 3, i % 4]).collect(),
            (0..8).map(|i| vec![i % 4, i]).collect(),
        ],
    )
}

fn star_db(q: &Query) -> Database {
    acyclic_joins::relation::database_from_rows(
        q,
        &[
            (0..8).map(|i| vec![i % 3, i]).collect(),
            (0..6).map(|i| vec![i % 3, 100 + i]).collect(),
            (0..4).map(|i| vec![i % 3, 200 + i]).collect(),
        ],
    )
}

/// A sustained 1000-query batch on one engine attributes every round to
/// some query's epoch: the per-query epochs still sum (messages, rounds)
/// and max (load) back to the cumulative stats after the whole batch.
#[test]
fn thousand_query_batch_epochs_reconcile() {
    let q1 = line_query(3);
    let db1 = line3_db(&q1);
    let q2 = shapes::star_query(3);
    let db2 = star_db(&q2);
    let mut engine = QueryEngine::new(4);
    let outcomes: Vec<_> = (0..1000)
        .map(|i| {
            if i % 2 == 0 {
                engine.run(&q1, &db1)
            } else {
                engine.run(&q2, &db2)
            }
        })
        .collect();
    assert_eq!(engine.served(), 1000);
    assert!(epochs_reconcile(&outcomes, engine.stats()));
    assert!(engine.stats().exchanges >= 1000);
}

/// Tracing off is strictly free: no trace exists, and the measured `Stats`
/// of an identical workload are bit-identical with tracing on and off.
#[test]
fn tracing_off_records_nothing_and_loads_are_unchanged() {
    let q = line_query(3);
    let db = line3_db(&q);
    let drive = |traced: bool| {
        let mut engine = QueryEngine::new(4);
        if traced {
            engine.enable_tracing(ObsConfig::default());
        }
        let outcome = engine.run(&q, &db);
        let events = engine.take_trace().map(|t| t.logical_events());
        (outcome.execution, engine.stats().clone(), events)
    };
    let (exec_off, stats_off, events_off) = drive(false);
    let (exec_on, stats_on, events_on) = drive(true);
    assert!(events_off.is_none(), "tracing off must record nothing");
    assert!(!events_on.as_ref().unwrap().is_empty());
    assert_eq!(exec_off, exec_on, "tracing perturbed the execution epoch");
    assert_eq!(stats_off, stats_on, "tracing perturbed the measured loads");
}

/// The trace is a pure function of the run: two identical request streams
/// produce bit-identical traces (entries, drop counters, encoded bytes).
#[test]
fn identical_runs_produce_bit_identical_traces() {
    let drive = || {
        let q = line_query(3);
        let db = line3_db(&q);
        let mut engine = QueryEngine::new(4);
        engine.enable_tracing(ObsConfig::default());
        engine.run(&q, &db);
        engine.run(&q, &db);
        engine.take_trace().expect("tracing was enabled")
    };
    let (a, b) = (drive(), drive());
    assert_eq!(a, b);
    assert_eq!(a.encode(), b.encode());
}

/// Chrome trace-event export of a real engine trace: decoding the flat-u64
/// buffer and re-rendering reproduces the JSON byte for byte, and the
/// metrics dump is deterministic the same way.
#[test]
fn exporters_survive_an_encode_decode_trip_byte_identically() {
    let q = shapes::star_query(3);
    let db = star_db(&q);
    let mut engine = QueryEngine::new(4);
    engine.enable_tracing(ObsConfig::default());
    engine.run(&q, &db);
    let trace = engine.take_trace().expect("tracing was enabled");
    let decoded = Trace::decode(&trace.encode()).expect("self-encoded buffer decodes");
    assert_eq!(decoded, trace);
    assert_eq!(
        chrome::render("run", &decoded),
        chrome::render("run", &trace)
    );
    assert_eq!(metrics::render(&decoded), metrics::render(&trace));
    let json = chrome::render("run", &trace);
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
}

/// EXPLAIN output is deterministic across repeated runs and across
/// executors, names the chosen plan, and prices the rejected alternatives.
#[test]
fn explain_is_deterministic_and_names_the_candidates() {
    let q = line_query(3);
    let db = line3_db(&q);
    let drive = |make: fn() -> Cluster| {
        let mut engine = QueryEngine::with_cluster(make(), Default::default());
        let outcome = engine.run(&q, &db);
        engine.explain(&outcome)
    };
    let seq = drive(|| Cluster::new(4));
    assert_eq!(seq, drive(|| Cluster::new(4)), "repeat run diverged");
    assert_eq!(seq, drive(|| Cluster::new_parallel(4)), "par diverged");
    assert_eq!(seq, drive(|| Cluster::new_net(4)), "net diverged");
    assert!(seq.contains("plan: "));
    assert!(seq.contains("candidates:"));
    assert!(seq.contains("<- chosen"));
    assert!(seq.contains("predicted vs actual"));
}

/// EXPLAIN for registered views: deterministic across backends, renders the
/// maintenance state, and shows the bag tree the view is maintained over —
/// per-edge bags for a tree view, one gridded bag for whole-query
/// delta-HyperCube, both kinds for a GHD view.
#[test]
fn explain_view_is_deterministic_across_backends() {
    let star = shapes::star_query(3);
    let star_db = star_db(&star);
    let triangle = acyclic_joins::instancegen::fig6::generate(40, 90, 5);
    let (ghd, ghd_db) = shapes::triangle_with_tail(6);
    let cases = [
        (&star, &star_db, "bags: {R1} {R2} {R3}\n"),
        (
            &triangle.query,
            &triangle.db,
            "bags: {R1 R2 R3} shares[B=2 C=2 A=2]\n",
        ),
        (
            &ghd,
            &ghd_db,
            "bags: {R1 R2} shares[A=1 B=8 C=1] {R3} {T0} {T1}",
        ),
    ];
    for (q, db, bags) in cases {
        let mut mirror = db.clone();
        mirror.dedup_all();
        let batches = updates::update_stream(q, &mirror, 3, 0.1, 0.0, 0xab5);
        let drive = |make: fn() -> Cluster| {
            let mut engine = QueryEngine::with_cluster(make(), Default::default());
            let view = engine.register_view(q, db);
            for batch in &batches {
                engine.apply_update(view, batch);
            }
            engine.explain_view(view)
        };
        let seq = drive(|| Cluster::new(8));
        assert_eq!(seq, drive(|| Cluster::new_parallel(8)), "par diverged");
        assert_eq!(seq, drive(|| Cluster::new_net(8)), "net diverged");
        assert!(seq.contains("view v0:"));
        assert!(seq.contains(bags), "expected `{bags}` in:\n{seq}");
        assert!(seq.contains("last full build:"));
    }
}

/// Checkpoint/restore bookkeeping shows up in the trace as logical events,
/// in program order.
#[test]
fn checkpoint_and_restore_are_traced() {
    let q = shapes::star_query(3);
    let db = star_db(&q);
    let mut engine = QueryEngine::new(4);
    engine.enable_tracing(ObsConfig::default());
    let view = engine.register_view(&q, &db);
    let ckpt = engine.checkpoint(view);
    engine.restore(view, &ckpt);
    let events = engine.take_trace().unwrap().logical_events();
    let ckpt_at = events
        .iter()
        .position(|e| matches!(e, Event::Checkpoint { .. }))
        .expect("checkpoint event recorded");
    let restore_at = events
        .iter()
        .position(|e| matches!(e, Event::Restore { .. }))
        .expect("restore event recorded");
    assert!(ckpt_at < restore_at, "events out of program order");
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::MaintenanceDecision { .. })),
        "no update batch ran, so no maintenance decision may appear"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Bounded eviction: whatever the capacity and event volume, the ring
    /// keeps exactly the newest `capacity` events per ring and reports the
    /// exact drop counts — and physical events can never evict logical ones.
    #[test]
    fn ring_eviction_keeps_newest_with_exact_drop_counts(
        capacity in 1usize..40,
        n_logical in 0u64..120,
        n_physical in 0u64..120,
    ) {
        let mut t = Trace::new(ObsConfig { capacity, wall_clock: false });
        for seq in 0..n_logical {
            t.record(Event::Exchange {
                seq,
                kind: RoundKind::Items,
                lo: 0,
                stride: 1,
                counts: vec![seq],
            });
        }
        for i in 0..n_physical {
            t.record(Event::Transport { retransmits: i, acks: 0, dups: 0 });
        }
        let logical = t.logical_events();
        let physical = t.physical_events();
        prop_assert_eq!(logical.len() as u64, n_logical.min(capacity as u64));
        prop_assert_eq!(physical.len() as u64, n_physical.min(capacity as u64));
        let expect_dropped = (
            n_logical.saturating_sub(capacity as u64),
            n_physical.saturating_sub(capacity as u64),
        );
        prop_assert_eq!(t.dropped(), expect_dropped);
        prop_assert_eq!(t.recorded(), n_logical + n_physical);
        // Newest survive: the retained logical events are the tail.
        for (i, e) in logical.iter().enumerate() {
            prop_assert!(
                matches!(e, Event::Exchange { seq, .. } if *seq == expect_dropped.0 + i as u64),
                "entry {} is not the expected tail event: {:?}", i, e
            );
        }
        // Codec round-trip at every fill level.
        prop_assert_eq!(Trace::decode(&t.encode()).unwrap(), t);
    }
}
