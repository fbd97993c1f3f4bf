//! **Updates** — incremental view maintenance under live insert/delete
//! streams (not a paper figure; the `aj_core::delta` subsystem).
//!
//! One registered view per shape (fig3 line-3, fig4 line-3, star,
//! triangle), driven by deterministic `aj_instancegen::updates` streams at
//! update fractions {0.1%, 1%, 10%}. Per cell the table compares the
//! **maintenance** units (the delta pass's epoch, averaged per batch)
//! against a **full recompute** (a fresh registration on the final state,
//! in its own epoch), plus the max load `L` of each.
//!
//! What to look for (asserted):
//!
//! * the maintained materialization is **bit-identical** to the recomputed
//!   one after every stream;
//! * at update fractions ≤ 1% the maintenance epoch's units are ≤ 0.5× the
//!   full-recompute epoch's on every shape (the acceptance criterion — in
//!   practice the gap is 10–100×), and the planner always chooses
//!   `maintain`;
//! * the 10% cells report whatever the cost model picks (the decision
//!   column shows it);
//! * with `--parallel`, the whole drive re-runs on a
//!   [`aj_mpc::ParExecutor`]-backed engine and every epoch (registration
//!   and per-batch maintenance) must be bit-identical.

use aj_core::engine::QueryEngine;
use aj_mpc::{Cluster, EpochStats};
use aj_relation::delta::{CountedSnapshot, UpdateBatch};
use aj_relation::{Database, Query};

use crate::table::ExpTable;

const P: usize = 8;
/// Batches per stream.
const BATCHES: usize = 3;
/// Instance scale (debug builds scale down so the smoke test stays fast).
const N: u64 = if cfg!(debug_assertions) { 48 } else { 400 };

/// The registered shapes: (label, query, database).
fn workload() -> Vec<(&'static str, Query, Database)> {
    let mut shapes = Vec::new();
    let inst = aj_instancegen::fig3::one_sided(N, N * 4);
    shapes.push(("fig3 line3", inst.query, inst.db));
    let inst = aj_instancegen::fig4::generate(N, N * 2, 0xf1f4);
    shapes.push(("fig4 line3", inst.query, inst.db));
    let q = aj_instancegen::shapes::star_query(3);
    let mut db = aj_instancegen::random::random_instance(&q, N as usize, N / 6, 0x57a1);
    db.dedup_all();
    shapes.push(("star3", q, db));
    let inst = aj_instancegen::fig6::generate(N / 2, N, 0x7123);
    shapes.push(("triangle", inst.query, inst.db));
    shapes
}

/// One measured drive: register `q` on a fresh engine and stream `batches`
/// through the view. Returns (snapshot, registration epoch, per-batch
/// epochs, decisions).
fn drive(
    q: &Query,
    db: &Database,
    batches: &[UpdateBatch],
    parallel: bool,
) -> (CountedSnapshot, EpochStats, Vec<EpochStats>, Vec<String>) {
    let cluster = if parallel {
        Cluster::new_parallel(P)
    } else {
        Cluster::new(P)
    };
    let mut engine = QueryEngine::with_cluster(cluster, Default::default());
    let view = engine.register_view(q, db);
    let registration = engine.view(view).registration().clone();
    let mut epochs = Vec::with_capacity(batches.len());
    let mut decisions = Vec::with_capacity(batches.len());
    for batch in batches {
        let outcome = engine.apply_update(view, batch);
        epochs.push(outcome.maintenance);
        decisions.push(outcome.strategy.to_string());
    }
    (
        engine.view(view).snapshot(),
        registration,
        epochs,
        decisions,
    )
}

/// A fresh registration on `db` (the full-recompute comparison point):
/// returns (snapshot, build epoch).
fn recompute(q: &Query, db: &Database) -> (CountedSnapshot, EpochStats) {
    let mut engine = QueryEngine::new(P);
    let view = engine.register_view(q, db);
    (
        engine.view(view).snapshot(),
        engine.view(view).registration().clone(),
    )
}

pub fn run() -> Vec<ExpTable> {
    let mut t = ExpTable::new(
        format!(
            "Incremental maintenance: {BATCHES}-batch update streams on registered views, p = {P}"
        ),
        &[
            "shape",
            "f",
            "IN",
            "OUT",
            "|Δ|/batch",
            "decision",
            "U(maintain)",
            "U(recompute)",
            "ratio",
            "L(maintain)",
            "L(recompute)",
        ],
    );
    for (label, q, db) in workload() {
        let mut base = db.clone();
        base.dedup_all();
        for fraction in [0.001f64, 0.01, 0.1] {
            let batches =
                aj_instancegen::updates::update_stream(&q, &base, BATCHES, fraction, 0.0, 0xda7a);
            let avg_delta: u64 =
                batches.iter().map(UpdateBatch::size).sum::<u64>() / BATCHES as u64;
            let mut final_db = base.clone();
            for b in &batches {
                b.apply_to(&mut final_db);
            }
            let (snap, reg, epochs, decisions) = drive(&q, &base, &batches, false);
            if super::parallel_enabled() {
                let (psnap, preg, pepochs, _) = drive(&q, &base, &batches, true);
                assert_eq!(snap, psnap, "{label}: executors disagree on the view");
                assert_eq!(reg, preg, "{label}: executors disagree on registration");
                assert_eq!(epochs, pepochs, "{label}: executors disagree on epochs");
            }
            let (rsnap, rebuild) = recompute(&q, &final_db);
            assert_eq!(
                snap, rsnap,
                "{label} f={fraction}: maintained view must be bit-identical to recompute"
            );
            let per_batch: u64 =
                epochs.iter().map(|e| e.total_messages).sum::<u64>() / epochs.len() as u64;
            let rec_units = rebuild.total_messages;
            // The acceptance criterion: at fractions ≤ 1%, one maintenance
            // batch costs at most half a full recompute (every shape).
            if fraction <= 0.01 {
                assert!(
                    decisions.iter().all(|d| d == "maintain"),
                    "{label} f={fraction}: small batches must maintain"
                );
                assert!(
                    2 * per_batch <= rec_units,
                    "{label} f={fraction}: maintenance {per_batch} vs recompute {rec_units}"
                );
            }
            t.row(vec![
                label.to_string(),
                format!("{:.1}%", fraction * 100.0),
                final_db.input_size().to_string(),
                snap.len().to_string(),
                avg_delta.to_string(),
                decisions.join("/"),
                per_batch.to_string(),
                rec_units.to_string(),
                format!("{:.3}", per_batch as f64 / rec_units.max(1) as f64),
                epochs
                    .iter()
                    .map(|e| e.max_load)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                rebuild.max_load.to_string(),
            ]);
        }
    }
    t.note("U columns are epoch message units: maintenance averaged per batch vs one fresh registration on the final state.");
    t.note("L(maintain) is the max load over the stream's maintenance epochs; L(recompute) that of the fresh registration.");
    t.note(
        "Bit-identity maintained == recomputed asserted per cell; ≤ 0.5× units asserted at f ≤ 1%.",
    );
    t.note("decision: the planner's per-batch maintain-vs-recompute choice (cost-based, see choose_maintenance).");
    vec![t]
}
