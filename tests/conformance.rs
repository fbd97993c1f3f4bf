//! Cross-backend conformance oracle: every query shape, the skew path, and
//! registered-view update streams must produce **bit-identical** outputs and
//! `Stats` on every execution backend — `SeqExecutor`, `ParExecutor`, and
//! `NetExecutor` over every transport (in-process channels, Unix-domain
//! sockets, and an adversarial reordering wrapper).
//!
//! This is the differential harness that makes the message-passing backend
//! trustworthy: the sequential executor is the reference semantics, and any
//! divergence — one tuple, one load unit, one epoch — fails loudly with the
//! backend's label. Because the wire path serializes every payload through
//! frames, agreement here also certifies the `Wire` codecs for every type
//! the algorithms exchange.
//!
//! Since the observability layer landed, the **logical trace** is a third
//! conformance axis next to outputs and `Stats`: every cell runs with
//! tracing enabled and the logical event streams (exchanges, epoch
//! boundaries, plan/maintenance decisions — everything except the
//! timing-dependent `Transport` events) must be bit-identical across
//! backends, and on lossy backends identical to the fault-free reference.

use std::sync::Arc;

use acyclic_joins::core::engine::QueryEngine;
use acyclic_joins::instancegen::{fig3, fig6, line_query, random, randquery, shapes, updates};
use acyclic_joins::mpc::{
    ChanTransport, Cluster, CrashPoint, FaultPlan, FaultyTransport, LinkPartition, ParExecutor,
    ShuffleTransport, Stats,
};
use acyclic_joins::obs::{Event, ObsConfig};
use acyclic_joins::prelude::*;
use acyclic_joins::relation::delta::CountedSnapshot;
use acyclic_joins::relation::ram;

const P: usize = 4;

/// A named recipe for building a fresh cluster on one backend.
type Backend = (&'static str, Box<dyn Fn() -> Cluster>);

/// Every backend under test, by label. The shuffle backend wraps the
/// channel transport in [`ShuffleTransport`], which delivers frames in a
/// seeded adversarial order — per-sender FIFO is all a receiver may rely on.
fn backends() -> Vec<Backend> {
    let mut v: Vec<Backend> = vec![
        ("seq", Box::new(|| Cluster::new(P))),
        (
            "par",
            Box::new(|| Cluster::with_executor(P, Box::new(ParExecutor::with_threads(4)))),
        ),
        ("net-chan", Box::new(|| Cluster::new_net(P))),
        (
            "net-shuffle",
            Box::new(|| {
                Cluster::new_net_with_transport(
                    P,
                    Arc::new(ShuffleTransport::new(ChanTransport::new(P), 0xc0ff_ee00)),
                )
            }),
        ),
    ];
    #[cfg(unix)]
    v.push((
        "net-uds",
        Box::new(|| Cluster::new_net_with_transport(P, acyclic_joins::mpc::UdsTransport::new(P))),
    ));
    v
}

/// The query shapes the suite drives: every Table-1 class plus both OUT
/// regimes of the line-3 query.
fn cases() -> Vec<(&'static str, Query, Database)> {
    let dedup = |mut db: Database| {
        db.dedup_all();
        db
    };
    let line = line_query(3);
    vec![
        (
            "star3",
            shapes::star_query(3),
            dedup(random::random_instance(&shapes::star_query(3), 40, 10, 11)),
        ),
        (
            "r-hier",
            shapes::rh_example_query(),
            dedup(random::random_instance(
                &shapes::rh_example_query(),
                40,
                8,
                22,
            )),
        ),
        (
            "tall-flat",
            shapes::tall_flat_q1(),
            dedup(random::random_instance(&shapes::tall_flat_q1(), 36, 4, 33)),
        ),
        (
            "line3-out-large",
            line.clone(),
            fig3::one_sided(24, 24 * 8).db,
        ),
        ("line3-out-small", line, fig3::sparse_small_out(48, 3).db),
        (
            "triangle",
            fig6::generate(24, 40, 5).query,
            fig6::generate(24, 40, 5).db,
        ),
        // General cyclic shapes (appended; earlier indices are pinned by
        // the update-stream tests). These route through the GHD pipeline
        // (one worst-case HyperCube round per bag) or whole-query
        // HyperCube, whichever the planner prices
        // cheaper — either way the backends must agree bit for bit.
        cyclic_case("cycle4", cycle_query(4), 24, 6, 0x901),
        cyclic_case("cycle5", cycle_query(5), 24, 6, 0x902),
        cyclic_case("k4", clique4_query(), 22, 6, 0x903),
        cyclic_case("grid2x3", grid2x3_query(), 24, 6, 0x904),
    ]
}

/// A `k`-cycle of binary relations `R1(A0,A1), …, Rk(A{k-1},A0)`.
fn cycle_query(k: usize) -> Query {
    let mut b = acyclic_joins::relation::QueryBuilder::new();
    for i in 0..k {
        b.relation(
            &format!("R{}", i + 1),
            &[&format!("A{i}"), &format!("A{}", (i + 1) % k)],
        );
    }
    b.build()
}

/// All six pairs over four vertices: the K4 clique.
fn clique4_query() -> Query {
    let mut b = acyclic_joins::relation::QueryBuilder::new();
    for (i, (x, y)) in [
        ("A", "B"),
        ("A", "C"),
        ("A", "D"),
        ("B", "C"),
        ("B", "D"),
        ("C", "D"),
    ]
    .iter()
    .enumerate()
    {
        b.relation(&format!("E{i}"), &[x, y]);
    }
    b.build()
}

/// The 2×3 grid graph: vertices `V{r}{c}`, one binary relation per
/// horizontal and vertical adjacency (7 edges, two chordless 4-cycles).
fn grid2x3_query() -> Query {
    let mut b = acyclic_joins::relation::QueryBuilder::new();
    let v = |r: usize, c: usize| format!("V{r}{c}");
    let mut i = 0;
    for r in 0..2 {
        for c in 0..2 {
            i += 1;
            b.relation(&format!("H{i}"), &[&v(r, c), &v(r, c + 1)]);
        }
    }
    for c in 0..3 {
        b.relation(&format!("W{c}"), &[&v(0, c), &v(1, c)]);
    }
    b.build()
}

/// A cyclic conformance case with a matched uniform instance (dense enough
/// that the join output is non-empty, so the differential bites).
fn cyclic_case(
    label: &'static str,
    q: Query,
    size: usize,
    domain: u64,
    seed: u64,
) -> (&'static str, Query, Database) {
    let db = randquery::uniform_instance(&q, size, domain, seed);
    (label, q, db)
}

/// The RAM-model reference answer.
fn oracle(q: &Query, db: &Database) -> Vec<Tuple> {
    let mut t = if q.is_acyclic() {
        ram::join(q, db).1
    } else {
        ram::naive_join(q, db)
    };
    t.sort_unstable();
    t
}

/// Run `q` on `db` through a full engine on one backend with tracing on;
/// return the sorted output, the cumulative cluster stats, and the logical
/// event stream (physical `Transport` events excluded — they depend on
/// timing and must *not* be part of the differential).
fn engine_run(
    make: &dyn Fn() -> Cluster,
    q: &Query,
    db: &Database,
) -> (Vec<Tuple>, Stats, Vec<Event>) {
    let mut engine = QueryEngine::with_cluster(make(), Default::default());
    engine.enable_tracing(ObsConfig::default());
    let outcome = engine.run(q, db);
    let mut tuples = outcome.output.gather_free().tuples;
    tuples.sort_unstable();
    let events = engine
        .take_trace()
        .expect("tracing was enabled")
        .logical_events();
    (tuples, engine.stats().clone(), events)
}

/// The acceptance differential: identical outputs, identical `Stats` (max
/// load, per-server peaks, message totals, exchange counts) on every shape
/// across every backend — and correct against the RAM oracle.
#[test]
fn every_shape_is_bit_identical_across_backends() {
    for (label, q, db) in cases() {
        let mut reference: Option<(Vec<Tuple>, Stats, Vec<Event>)> = None;
        for (backend, make) in backends() {
            let (tuples, stats, events) = engine_run(make.as_ref(), &q, &db);
            match &reference {
                None => {
                    assert_eq!(tuples, oracle(&q, &db), "{label}/{backend}: wrong answer");
                    assert!(!events.is_empty(), "{label}/{backend}: empty trace");
                    reference = Some((tuples, stats, events));
                }
                Some((ref_tuples, ref_stats, ref_events)) => {
                    assert_eq!(&tuples, ref_tuples, "{label}/{backend}: outputs differ");
                    assert_eq!(&stats, ref_stats, "{label}/{backend}: stats differ");
                    assert_eq!(&events, ref_events, "{label}/{backend}: traces differ");
                }
            }
        }
    }
}

/// The skew path: a binary join whose join key is dominated by heavy
/// hitters routes through heavy-hitter detection and hybrid routing; the
/// detection rounds and the skew routing must replay identically on the
/// wire backends.
#[test]
fn skewed_workloads_are_bit_identical_across_backends() {
    let mut b = acyclic_joins::relation::QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "C"]);
    let q = b.build();
    // 70% of both sides on one key: a genuinely skewed workload.
    let r1: Vec<Vec<u64>> = (0..80)
        .map(|i| vec![i, if i < 56 { 7 } else { i % 9 }])
        .collect();
    let r2: Vec<Vec<u64>> = (0..60)
        .map(|i| vec![if i < 42 { 7 } else { i % 9 }, 1000 + i])
        .collect();
    let db = acyclic_joins::relation::database_from_rows(&q, &[r1, r2]);
    let mut reference: Option<(Vec<Tuple>, Stats, Vec<Event>)> = None;
    for (backend, make) in backends() {
        let (tuples, stats, events) = engine_run(make.as_ref(), &q, &db);
        match &reference {
            None => {
                assert_eq!(tuples, oracle(&q, &db), "skew/{backend}: wrong answer");
                reference = Some((tuples, stats, events));
            }
            Some((ref_tuples, ref_stats, ref_events)) => {
                assert_eq!(&tuples, ref_tuples, "skew/{backend}: outputs differ");
                assert_eq!(&stats, ref_stats, "skew/{backend}: stats differ");
                assert_eq!(&events, ref_events, "skew/{backend}: traces differ");
            }
        }
    }
}

/// Incremental maintenance over the wire: register a view, apply a 10-batch
/// update stream, and require the per-batch snapshots, strategies, and
/// maintenance epochs to agree across every backend bit for bit.
#[test]
fn update_streams_are_bit_identical_across_backends() {
    for (label, q, db) in [cases().remove(0), cases().remove(3)] {
        let mut mirror = db.clone();
        mirror.dedup_all();
        let batches = updates::update_stream(&q, &mirror, 10, 0.05, 0.0, 0xfeed);
        let drive = |make: &dyn Fn() -> Cluster| {
            let mut engine = QueryEngine::with_cluster(make(), Default::default());
            engine.enable_tracing(ObsConfig::default());
            let view = engine.register_view(&q, &db);
            let mut trace: Vec<(CountedSnapshot, String, u64)> = vec![(
                engine.view(view).snapshot(),
                "register".to_string(),
                engine.stats().max_load,
            )];
            for batch in &batches {
                let outcome = engine.apply_update(view, batch);
                trace.push((
                    engine.view(view).snapshot(),
                    format!("{}", outcome.strategy),
                    outcome.maintenance.max_load,
                ));
            }
            let events = engine
                .take_trace()
                .expect("tracing was enabled")
                .logical_events();
            (trace, events)
        };
        let mut reference = None;
        for (backend, make) in backends() {
            let (trace, events) = drive(make.as_ref());
            match &reference {
                None => reference = Some((trace, events)),
                Some((ref_trace, ref_events)) => {
                    assert_eq!(&trace, ref_trace, "{label}/{backend}: update trace differs");
                    assert_eq!(
                        &events, ref_events,
                        "{label}/{backend}: logical event traces differ"
                    );
                }
            }
        }
    }
}

/// The seeded fault plans of the conformance matrix: every injectable
/// network pathology short of a crash (crashes need the recovery supervisor
/// and get their own test below). Per-mille rates; distinct seeds so the
/// plans exercise different frame subsets.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drop1pct", FaultPlan::dropping(0xfa01, 10)),
        ("drop10pct", FaultPlan::dropping(0xfa02, 100)),
        ("dup5pct", FaultPlan::duplicating(0xfa03, 50)),
        ("delay", FaultPlan::delaying(0xfa04, 150, 3)),
        (
            "partition",
            FaultPlan {
                seed: 0xfa05,
                partition: Some(LinkPartition {
                    a: 0,
                    b: 2,
                    after: 3,
                    len: 10,
                }),
                ..FaultPlan::default()
            },
        ),
        (
            "combined",
            FaultPlan {
                seed: 0xfa06,
                drop_per_mille: 50,
                dup_per_mille: 50,
                delay_per_mille: 50,
                delay_steps: 2,
                partition: Some(LinkPartition {
                    a: 1,
                    b: 3,
                    after: 5,
                    len: 6,
                }),
                crash: None,
            },
        ),
    ]
}

/// Reliable-mode network backends with `plan`'s faults injected underneath:
/// the in-process channel transport always, real unix-domain sockets where
/// available.
fn faulty_backends(plan: FaultPlan, uds: bool) -> Vec<Backend> {
    let mut v: Vec<Backend> = vec![(
        "net-chan-faulty",
        Box::new(move || Cluster::new_net_faulty(P, plan)),
    )];
    #[cfg(unix)]
    if uds {
        v.push((
            "net-uds-faulty",
            Box::new(move || {
                Cluster::new_net_with_transport_reliable(
                    P,
                    Arc::new(FaultyTransport::new(
                        acyclic_joins::mpc::UdsTransport::new(P),
                        plan,
                    )),
                )
            }),
        ));
    }
    #[cfg(not(unix))]
    let _ = uds;
    v
}

/// The fault acceptance differential: every query shape under every fault
/// plan must produce the *same* outputs and the same logical `Stats` as the
/// fault-free sequential reference — the retransmit/ack machinery may cost
/// physical wire bytes but must be invisible to the measured model. The
/// heavier uds (real socket) backend runs on the two harshest plans.
#[test]
fn every_shape_is_bit_identical_under_faults() {
    for (label, q, db) in cases() {
        let (ref_tuples, ref_stats, ref_events) = engine_run(&|| Cluster::new(P), &q, &db);
        assert_eq!(ref_tuples, oracle(&q, &db), "{label}/seq: wrong answer");
        for (plan_label, plan) in fault_plans() {
            let uds = matches!(plan_label, "drop10pct" | "combined");
            for (backend, make) in faulty_backends(plan, uds) {
                let (tuples, stats, events) = engine_run(make.as_ref(), &q, &db);
                assert_eq!(
                    tuples, ref_tuples,
                    "{label}/{backend}/{plan_label}: outputs differ"
                );
                assert_eq!(
                    stats, ref_stats,
                    "{label}/{backend}/{plan_label}: stats differ"
                );
                // The logical event stream is post-dedup by construction
                // (retransmits and duplicate frames surface only as
                // physical Transport events): a lossy run's logical trace
                // must match the fault-free reference bit for bit.
                assert_eq!(
                    events, ref_events,
                    "{label}/{backend}/{plan_label}: logical traces differ"
                );
            }
        }
    }
}

/// Registered-view maintenance under faults: a 10-batch update stream on the
/// lossy reliable backends must replay the fault-free per-batch snapshots,
/// strategies, and maintenance loads bit for bit.
#[test]
fn update_streams_are_bit_identical_under_faults() {
    for (label, q, db) in [cases().remove(0), cases().remove(3)] {
        let mut mirror = db.clone();
        mirror.dedup_all();
        let batches = updates::update_stream(&q, &mirror, 10, 0.05, 0.0, 0xfeed);
        let drive = |make: &dyn Fn() -> Cluster| {
            let mut engine = QueryEngine::with_cluster(make(), Default::default());
            engine.enable_tracing(ObsConfig::default());
            let view = engine.register_view(&q, &db);
            let mut trace: Vec<(CountedSnapshot, String, u64)> = vec![(
                engine.view(view).snapshot(),
                "register".to_string(),
                engine.stats().max_load,
            )];
            for batch in &batches {
                let outcome = engine.apply_update(view, batch);
                trace.push((
                    engine.view(view).snapshot(),
                    format!("{}", outcome.strategy),
                    outcome.maintenance.max_load,
                ));
            }
            let events = engine
                .take_trace()
                .expect("tracing was enabled")
                .logical_events();
            (trace, events)
        };
        let reference = drive(&|| Cluster::new(P));
        for (plan_label, plan) in fault_plans() {
            for (backend, make) in faulty_backends(plan, false) {
                let (trace, events) = drive(make.as_ref());
                assert_eq!(
                    trace, reference.0,
                    "{label}/{backend}/{plan_label}: update trace differs"
                );
                assert_eq!(
                    events, reference.1,
                    "{label}/{backend}/{plan_label}: logical event traces differ"
                );
            }
        }
    }
}

/// The recovery traffic really is metered out-of-band: a lossy link forces
/// retransmissions, and the wire-byte breakdown separates payload,
/// retransmit, and ack bytes while the logical inbox stays identical to the
/// fault-free sequential exchange.
#[test]
fn retransmit_and_ack_traffic_is_metered_separately() {
    let outbox = |p: usize| -> Vec<Vec<(usize, u64)>> {
        (0..p)
            .map(|s| (0..p).map(|d| (d, (s * 100 + d) as u64)).collect())
            .collect()
    };
    let mut reference = Cluster::new(P);
    let want = reference.net().exchange(outbox(P));

    let mut lossy = Cluster::new_net_faulty(P, FaultPlan::dropping(0xbeef, 200));
    let got = lossy.net().exchange(outbox(P));
    assert_eq!(got, want, "lossy exchange corrupted the inbox");
    assert_eq!(lossy.stats(), reference.stats(), "lossy exchange load");
    let b = lossy
        .executor()
        .as_net()
        .expect("faulty cluster runs the net executor")
        .wire_breakdown();
    assert!(b.payload > 0, "payload bytes metered");
    assert!(b.ack > 0, "ack bytes metered");
    assert!(
        b.retransmit > 0,
        "a 20% drop rate must force at least one retransmission"
    );
    assert_eq!(b.total(), b.payload + b.retransmit + b.ack);
}

/// The tentpole acceptance: a server crash mid-update-stream. The injected
/// crash kills one server thread during a batch; the supervisor detects the
/// dead round, restores the view from its checkpoint, replays the pending
/// batches, and the stream converges to the oracle — on the same engine,
/// without re-registering.
#[test]
fn mid_stream_crash_recovers_from_checkpoint() {
    let (_, q, db) = cases().remove(0); // star3
    let mut mirror = db.clone();
    mirror.dedup_all();
    let batches = updates::update_stream(&q, &mirror, 10, 0.05, 0.0, 0xfeed);

    // Dry run, fault-free: find the exchange-sequence window of the update
    // stream so the crash can be timed to fire mid-stream. Logical stats are
    // deterministic across backends, so the window transfers exactly.
    let (reference, seq_after_register, seq_after_stream) = {
        let mut engine = QueryEngine::with_cluster(Cluster::new(P), Default::default());
        let view = engine.register_view(&q, &db);
        let after_register = engine.stats().exchanges;
        for batch in &batches {
            engine.apply_update(view, batch);
        }
        (
            engine.view(view).snapshot(),
            after_register,
            engine.stats().exchanges,
        )
    };
    assert!(
        seq_after_stream > seq_after_register + 4,
        "stream too short to crash into"
    );
    let crash_seq = (seq_after_register + seq_after_stream) / 2;

    let plan = FaultPlan {
        seed: 0xc4a5,
        crash: Some(CrashPoint {
            server: 2,
            at_seq: crash_seq,
        }),
        ..FaultPlan::default()
    };
    let mut engine =
        QueryEngine::with_cluster(Cluster::new_net_faulty(P, plan), Default::default());
    let view = engine.register_view(&q, &db);
    let run = engine.apply_updates_supervised(view, &batches, 3);
    assert_eq!(run.applied.len(), batches.len());
    assert!(
        run.recoveries >= 1,
        "the injected crash at seq {crash_seq} never fired \
         (stream spans [{seq_after_register}, {seq_after_stream}])"
    );
    for batch in &batches {
        batch.apply_to(&mut mirror);
    }
    let mut want = ram::naive_join(&q, &mirror);
    want.sort_unstable();
    want.dedup();
    let want: CountedSnapshot = want.into_iter().map(|t| (t, 1)).collect();
    assert_eq!(
        engine.view(view).snapshot(),
        want,
        "recovered view diverged from the oracle"
    );
    assert_eq!(
        engine.view(view).snapshot(),
        reference,
        "recovered view diverged from the fault-free run"
    );
}

/// Adversarial delivery order in isolation: the same query on two shuffle
/// seeds and on the plain channel transport — three different physical
/// arrival orders — must yield one logical result and one `Stats`.
#[test]
fn shuffled_delivery_order_never_changes_results() {
    let (label, q, db) = cases().remove(3); // line3, OUT >> IN: heavy traffic
    let mut reference: Option<(Vec<Tuple>, Stats, Vec<Event>)> = None;
    for seed in [1u64, 0x5eed, u64::MAX] {
        let make = || {
            Cluster::new_net_with_transport(
                P,
                Arc::new(ShuffleTransport::new(ChanTransport::new(P), seed)),
            )
        };
        let (tuples, stats, events) = engine_run(&make, &q, &db);
        match &reference {
            None => {
                assert_eq!(
                    tuples,
                    oracle(&q, &db),
                    "{label}/shuffle-{seed}: wrong answer"
                );
                reference = Some((tuples, stats, events));
            }
            Some((ref_tuples, ref_stats, ref_events)) => {
                assert_eq!(
                    &tuples, ref_tuples,
                    "{label}/shuffle-{seed}: outputs differ"
                );
                assert_eq!(&stats, ref_stats, "{label}/shuffle-{seed}: stats differ");
                assert_eq!(&events, ref_events, "{label}/shuffle-{seed}: traces differ");
            }
        }
    }
}
