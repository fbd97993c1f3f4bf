//! The traced run (`--trace 1`): per-layer numbers timed from outside. It
//! never feeds the end-to-end metrics.
//!
//! The harness replays each query op's pipeline itself through the layers'
//! public functions on a bare cluster per backend, a span at each boundary
//! and the epoch counts beside it; views are spanned at `register_view` /
//! `apply_update` / `checkpoint` / `restore` (their internals are
//! `pub(crate)`); synthetic probes of single layers run as their own spans.

use crate::run::{Lane, OpEpochs};
use crate::spans::{self, Recorder};
use crate::stats::{self, mix64, time_median, Metrics, Tally};
use crate::sut::{self, probe, Backend, Cluster, WireMeter};
use crate::workloads::{Instance, Kind, Sizes, ViewSpec, Workload};

/// Recorded replay passes per backend, after one unrecorded warm-up pass.
const REPLAY_PASSES: usize = 3;

/// What one lane's recorded ops cost in their execution (or maintenance)
/// phase, and over the wire.
#[derive(Default)]
struct LaneTotals {
    op_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    plan_ms: Vec<f64>,
    exec_units: u64,
    exec_rounds: u64,
    all_units: u64,
    wire_bytes: u64,
}

impl LaneTotals {
    fn add_exec(&mut self, ms: f64, epochs: &OpEpochs) {
        self.exec_ms.push(ms);
        self.exec_units += epochs.execution.total_messages;
        self.exec_rounds += epochs.execution.exchanges;
        self.all_units += epochs.units();
    }

    fn exec_secs(&self) -> f64 {
        self.exec_ms.iter().sum::<f64>() / 1e3
    }
}

/// A bare cluster on `b`; the `net` one metered.
fn bare_cluster(b: Backend) -> (Cluster, Option<WireMeter>) {
    if b == Backend::Net {
        let (cluster, meter) = sut::metered_net_cluster();
        (cluster, Some(meter))
    } else {
        (sut::cluster(b), None)
    }
}

fn metered(meter: &Option<WireMeter>) -> u64 {
    meter.as_ref().map_or(0, WireMeter::bytes)
}

/// The per-layer metrics every workload reports, from the lanes' totals.
fn push_exec_metrics(m: &mut Metrics, lanes: &[LaneTotals; 3]) {
    let seq = &lanes[0];
    let ops = seq.exec_ms.len().max(1) as f64;
    for (b, lane) in Backend::ALL.iter().zip(lanes) {
        m.push(
            format!("exec.ms_p50.{}", b.name()),
            stats::median(&lane.exec_ms),
            "ms",
        );
    }
    m.push("exec.units_per_op", seq.exec_units as f64 / ops, "units");
    m.push("exec.rounds_per_op", seq.exec_rounds as f64 / ops, "rounds");
    m.push(
        "exec.ns_per_unit.seq",
        seq.exec_secs() * 1e9 / seq.exec_units.max(1) as f64,
        "ns",
    );
    for (b, lane) in Backend::ALL.iter().zip(lanes) {
        m.push(
            format!("exec.us_per_round.{}", b.name()),
            lane.exec_secs() * 1e6 / lane.exec_rounds.max(1) as f64,
            "us",
        );
    }
    let net = &lanes[2];
    m.push(
        "net.wire_bytes_per_op",
        net.wire_bytes as f64 / net.exec_ms.len().max(1) as f64,
        "B",
    );
    m.push(
        "net.wire_bytes_per_unit",
        net.wire_bytes as f64 / net.all_units.max(1) as f64,
        "B",
    );
}

/// One query op through the layers' public functions, spanned.
fn replay_op(
    rec: &mut Recorder,
    cluster: &mut Cluster,
    inst: &Instance,
    totals: &mut LaneTotals,
    extras: &mut QueryExtras,
    tally: &mut Tally,
) -> OpEpochs {
    let in_size = inst.db.input_size() as u64;
    let op = rec.open("engine", "op");
    let s = rec.open("planner", "classify");
    let shape = sut::shape_of(&inst.query);
    rec.close(s, 0, 0);
    extras.classify_us.push(rec.ms(s) * 1e3);
    let s = rec.open("dist", "distribute");
    let dist = sut::distribute(&inst.db);
    rec.close(s, in_size, 0);
    extras.distribute_ms.push(rec.ms(s));
    extras.distributed_tuples += in_size;
    let s = rec.open("planner", "count+choose");
    let (plan, planning) = sut::plan(cluster, &shape, &inst.query, &dist, in_size);
    rec.close(s, planning.total_messages, planning.exchanges);
    totals.plan_ms.push(rec.ms(s));
    let s = rec.open("exec", sut::plan_name(plan));
    let (out, execution) = sut::execute(cluster, &shape, plan, &inst.query, dist);
    rec.close(s, execution.total_messages, execution.exchanges);
    let exec_ms = rec.ms(s);
    let epochs = OpEpochs {
        planning,
        execution,
    };
    // The op ends where `QueryEngine::run` returns; checking and releasing
    // the answer is the client's, as in the untraced loop.
    rec.close(op, epochs.units(), epochs.rounds());
    let s = rec.open("bench", "check+release");
    let rows = out.total_len() as u64;
    drop(out);
    rec.close(s, rows, 0);
    totals.op_ms.push(rec.ms(op));
    totals.add_exec(exec_ms, &epochs);
    extras.by_plan.push((sut::plan_name(plan), exec_ms));
    extras.out_rows += rows;
    tally.check(rows == inst.expect_out, || {
        format!(
            "replayed {}: {rows} rows, oracle {}",
            inst.shape, inst.expect_out
        )
    });
    epochs
}

/// Numbers only query workloads have (printed, not in `BENCHMARK.json`).
#[derive(Default)]
struct QueryExtras {
    classify_us: Vec<f64>,
    distribute_ms: Vec<f64>,
    distributed_tuples: u64,
    /// `(plan, execute ms)` per recorded op.
    by_plan: Vec<(&'static str, f64)>,
    out_rows: u64,
}

fn replay_queries(
    rec: &mut Recorder,
    instances: &[Instance],
    pass: &[usize],
    engine_epochs: &[OpEpochs],
    m: &mut Metrics,
    extra: &mut Metrics,
    tally: &mut Tally,
) -> [LaneTotals; 3] {
    let mut lanes: [LaneTotals; 3] = Default::default();
    let mut seq_extras = QueryExtras::default();
    let mut seq_epochs: Vec<OpEpochs> = Vec::new();
    for b in Backend::ALL {
        let (mut cluster, meter) = bare_cluster(b);
        let totals = &mut lanes[b.index()];
        let mut extras = QueryExtras::default();
        // Warm-up pass into sinks of its own: pools spawned, nothing kept.
        let mut warm = Recorder::with_capacity(8 * pass.len());
        let (mut no_totals, mut no_extras) = (LaneTotals::default(), QueryExtras::default());
        for &i in pass {
            let inst = &instances[i];
            replay_op(
                &mut warm,
                &mut cluster,
                inst,
                &mut no_totals,
                &mut no_extras,
                tally,
            );
        }
        rec.lane = b.index() as u8;
        let bytes0 = metered(&meter);
        for pass_no in 0..REPLAY_PASSES {
            for (slot, &i) in pass.iter().enumerate() {
                rec.op += 1;
                let epochs =
                    replay_op(rec, &mut cluster, &instances[i], totals, &mut extras, tally);
                if pass_no == 0 {
                    if b == Backend::Seq {
                        seq_epochs.push(epochs);
                    } else {
                        tally.check(epochs == seq_epochs[slot], || {
                            format!("replay on {}: op {slot} counters differ from seq", b.name())
                        });
                    }
                }
            }
        }
        totals.wire_bytes = metered(&meter) - bytes0;
        if let Some(meter) = &meter {
            // The outside meter and the executor's own count must agree.
            let own = sut::executor_wire_bytes(&cluster).unwrap_or(0);
            tally.check(meter.bytes() == own, || {
                format!("wire meter {} B, executor says {own} B", meter.bytes())
            });
        }
        extra.push(
            format!("planner.count_ms_p50.{}", b.name()),
            stats::median(&totals.plan_ms),
            "ms",
        );
        if b == Backend::Seq {
            seq_extras = extras;
        }
    }
    // The replay stands in for `QueryEngine::run` only while it costs what
    // the engine's own epochs say: an op that drifts is a failed check, and
    // the adapter needs re-pointing at the engine's pipeline.
    let drift = (seq_epochs.iter().zip(engine_epochs))
        .filter(|(a, b)| a != b)
        .count();
    tally.check(
        drift == 0 && seq_epochs.len() == engine_epochs.len(),
        || {
            format!(
                "replay vs engine epochs: {drift} of {} replayed ops differ ({} engine ops)",
                seq_epochs.len(),
                engine_epochs.len()
            )
        },
    );

    push_exec_metrics(m, &lanes);
    let seq = &lanes[0];
    let ops = seq_epochs.len().max(1) as f64;
    let count_units: u64 = seq_epochs.iter().map(|e| e.planning.total_messages).sum();
    let count_rounds: u64 = seq_epochs.iter().map(|e| e.planning.exchanges).sum();
    extra.push(
        "planner.classify_us_p50",
        stats::median(&seq_extras.classify_us),
        "us",
    );
    extra.push(
        "planner.count_units_per_op",
        count_units as f64 / ops,
        "units",
    );
    extra.push(
        "planner.count_rounds_per_op",
        count_rounds as f64 / ops,
        "rounds",
    );
    extra.push(
        "planner.time_share.seq",
        seq.plan_ms.iter().sum::<f64>() / seq.op_ms.iter().sum::<f64>(),
        "ratio",
    );
    extra.push(
        "dist.distribute_ms_p50",
        stats::median(&seq_extras.distribute_ms),
        "ms",
    );
    extra.push(
        "dist.distribute_ns_per_tuple",
        seq_extras.distribute_ms.iter().sum::<f64>() * 1e6
            / seq_extras.distributed_tuples.max(1) as f64,
        "ns",
    );
    extra.push(
        "exec.out_tuples_per_s.seq",
        seq_extras.out_rows as f64 / seq.exec_secs(),
        "1/s",
    );
    for plan in ["thm3", "thm7", "yann", "hcube", "ghd"] {
        let ms: Vec<f64> = seq_extras
            .by_plan
            .iter()
            .filter(|(p, _)| *p == plan)
            .map(|&(_, ms)| ms)
            .collect();
        if !ms.is_empty() {
            extra.push(format!("exec.{plan}.ms_p50.seq"), stats::median(&ms), "ms");
        }
    }
    lanes
}

/// Views through the engine, spanned at the calls the engine exposes.
fn replay_views(
    rec: &mut Recorder,
    views: &[ViewSpec],
    pass_batches: usize,
    m: &mut Metrics,
    extra: &mut Metrics,
    tally: &mut Tally,
) -> [LaneTotals; 3] {
    let mut lanes: [LaneTotals; 3] = Default::default();
    let mut seq_epochs: Vec<OpEpochs> = Vec::new();
    for b in Backend::ALL {
        let (cluster, meter) = bare_cluster(b);
        let mut engine = sut::engine_over(cluster);
        let totals = &mut lanes[b.index()];
        rec.lane = b.index() as u8;
        let ids: Vec<_> = views
            .iter()
            .map(|view| {
                let s = rec.open("delta", "register_view");
                let id = sut::register_view(&mut engine, &view.query, &view.base);
                let reg = sut::registration_epoch(&engine, id);
                rec.close(s, reg.total_messages, reg.exchanges);
                if b == Backend::Seq {
                    extra.push(format!("delta.register_ms.{}", view.name), rec.ms(s), "ms");
                }
                id
            })
            .collect();
        // Pass 0 of the stream warms up, unrecorded.
        let mut per_view: Vec<(Vec<f64>, u64, u64)> = vec![Default::default(); views.len()];
        let (mut rows, mut recomputes) = (0u64, 0u64);
        let mut bytes0 = 0;
        let mut op_no = 0;
        for batch in 0..pass_batches * (1 + REPLAY_PASSES) {
            let recorded = batch >= pass_batches;
            if batch == pass_batches {
                bytes0 = metered(&meter);
            }
            for (v, view) in views.iter().enumerate() {
                if !recorded {
                    sut::apply_update(&mut engine, ids[v], &view.batches[batch]);
                    continue;
                }
                rec.op += 1;
                let s = rec.open("delta", "apply_update");
                let outcome = sut::apply_update(&mut engine, ids[v], &view.batches[batch]);
                rec.close(
                    s,
                    outcome.maintenance.total_messages,
                    outcome.maintenance.exchanges,
                );
                let ms = rec.ms(s);
                tally.check(outcome.out_size == view.expect_out[batch], || {
                    format!("traced {} batch {batch}: wrong view size", view.name)
                });
                recomputes += u64::from(sut::recomputed(&outcome));
                rows += sut::batch_size(&view.batches[batch]);
                let epochs = OpEpochs {
                    planning: Default::default(),
                    execution: outcome.maintenance,
                };
                totals.op_ms.push(ms);
                totals.add_exec(ms, &epochs);
                per_view[v].0.push(ms);
                per_view[v].1 += epochs.units();
                per_view[v].2 += epochs.rounds();
                if b == Backend::Seq {
                    seq_epochs.push(epochs);
                } else {
                    tally.check(epochs == seq_epochs[op_no], || {
                        format!("traced views on {}: op {op_no} counters differ", b.name())
                    });
                }
                op_no += 1;
            }
        }
        totals.wire_bytes = metered(&meter) - bytes0;
        extra.push(
            format!("delta.apply_ms_p50.{}", b.name()),
            stats::median(&totals.exec_ms),
            "ms",
        );
        if b != Backend::Seq {
            continue;
        }
        for (view, (ms, units, rounds)) in views.iter().zip(&per_view) {
            let n = ms.len().max(1) as f64;
            let name = view.name;
            extra.push(
                format!("delta.apply_ms_p50.{name}"),
                stats::median(ms),
                "ms",
            );
            extra.push(
                format!("delta.units_per_op.{name}"),
                *units as f64 / n,
                "units",
            );
            extra.push(
                format!("delta.rounds_per_op.{name}"),
                *rounds as f64 / n,
                "rounds",
            );
        }
        let ops = totals.exec_ms.len().max(1) as f64;
        extra.push("delta.recompute_share", recomputes as f64 / ops, "ratio");
        extra.push(
            "delta.rows_per_s.seq",
            rows as f64 / totals.exec_secs(),
            "1/s",
        );
        // Checkpoint and restore every view once; means over the views.
        let (mut ckpt_ms, mut restore_ms, mut words) = (0.0, 0.0, 0u64);
        for (v, view) in views.iter().enumerate() {
            let before = sut::snapshot(&engine, ids[v]);
            let s = rec.open("delta", "checkpoint");
            let ckpt = sut::checkpoint(&mut engine, ids[v]);
            rec.close(s, 0, 0);
            ckpt_ms += rec.ms(s);
            words += sut::checkpoint_words(&ckpt);
            let s = rec.open("delta", "restore");
            let epoch = sut::restore(&mut engine, ids[v], &ckpt);
            rec.close(s, epoch.total_messages, epoch.exchanges);
            restore_ms += rec.ms(s);
            tally.check(sut::snapshot(&engine, ids[v]) == before, || {
                format!("{}: restore changed the view", view.name)
            });
        }
        let n = views.len() as f64;
        extra.push("delta.checkpoint_ms", ckpt_ms / n, "ms");
        extra.push("delta.checkpoint_words", words as f64 / n, "words");
        extra.push("delta.restore_ms", restore_ms / n, "ms");
    }
    push_exec_metrics(m, &lanes);
    lanes
}

/// Median over passes of the summed op times, in ms. Overheads compare
/// these, not op medians: on a mixed stream the median op sits on a boundary
/// between shapes and jumps when a few ops change sides.
fn pass_ms(op_ms: &[f64], pass_ops: usize) -> f64 {
    let sums: Vec<f64> = op_ms.chunks(pass_ops).map(|ops| ops.iter().sum()).collect();
    stats::median(&sums)
}

/// `seq` pass time with `aj_obs` tracing enabled over without, minus 1, from
/// alternating passes on one engine; and the events one op records. Returns
/// the plain passes' time in ms: untraced `seq` ops run back to back, as the
/// replayed ones are (the untraced section interleaves the backends).
fn obs_overhead(w: &Workload, m: &mut Metrics) -> f64 {
    let mut lane = Lane::warmed(Backend::Seq, w);
    let pass_ops = w.pass_ops();
    let mut events = 0;
    const PAIRS: usize = 3;
    for _ in 0..PAIRS {
        lane.timed_pass(w);
        sut::enable_obs(&mut lane.engine);
        lane.timed_pass(w);
        events += sut::take_obs_events(&mut lane.engine);
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (pass_no, ops) in lane.op_ms.chunks(pass_ops).enumerate() {
        let sum: f64 = ops.iter().sum();
        if pass_no % 2 == 0 {
            plain.push(sum);
        } else {
            traced.push(sum);
        }
    }
    let plain_ms = stats::median(&plain);
    m.push(
        "obs.trace_overhead_share",
        stats::median(&traced) / plain_ms - 1.0,
        "ratio",
    );
    m.push(
        "obs.events_per_op",
        events as f64 / (PAIRS * pass_ops) as f64,
        "count",
    );
    plain_ms
}

/// Synthetic probes of single layers, each under a span of its own.
fn probes(rec: &mut Recorder, sizes: &Sizes, m: &mut Metrics, extra: &mut Metrics) {
    let us = |secs: f64| secs * 1e6;
    let input = probe::route_input(sizes.probe_route_rows, mix64);
    let per_unit = |secs: f64| secs * 1e9 / input.n_rows as f64;
    for b in Backend::ALL {
        rec.lane = b.index() as u8;
        let mut cluster = sut::cluster(b);
        let name = b.name();
        let s = rec.open("mpc", "probe.round");
        let t = time_median(
            sizes.probe_small_iters,
            || (),
            |()| probe::pair_round(&mut cluster),
        );
        rec.close(s, 0, sizes.probe_small_iters as u64);
        m.push(format!("mpc.round_us.{name}"), us(t), "us");
        let s = rec.open("mpc", "probe.region");
        let t = time_median(
            sizes.probe_small_iters,
            || (),
            |()| probe::region(&mut cluster),
        );
        rec.close(s, 0, 0);
        m.push(format!("mpc.region_us.{name}"), us(t), "us");
        let s = rec.open("mpc", "probe.route_rows");
        let t = time_median(
            sizes.probe_bulk_iters,
            || probe::row_outbox(&input),
            |outbox| probe::route_rows(&mut cluster, outbox),
        );
        rec.close(s, (input.n_rows * sizes.probe_bulk_iters) as u64, 0);
        m.push(
            format!("mpc.route_rows_ns_per_unit.{name}"),
            per_unit(t),
            "ns",
        );
        let s = rec.open("mpc", "probe.route_tuples");
        let t = time_median(
            sizes.probe_bulk_iters,
            || probe::tuple_outbox(&input),
            |outbox| probe::route_tuples(&mut cluster, outbox),
        );
        rec.close(s, (input.n_rows * sizes.probe_bulk_iters) as u64, 0);
        m.push(
            format!("mpc.route_tuples_ns_per_unit.{name}"),
            per_unit(t),
            "ns",
        );
    }

    rec.lane = Backend::Net.index() as u8;
    let s = rec.open("net", "probe.empty_round");
    let (mut cluster, meter) = sut::metered_net_cluster();
    probe::empty_round(&mut cluster);
    let before = meter.bytes();
    probe::empty_round(&mut cluster);
    m.push(
        "net.empty_round_bytes",
        (meter.bytes() - before) as f64,
        "B",
    );
    rec.close(s, 0, 2);

    let s = rec.open("transport", "probe.uds_round");
    match probe::uds_cluster() {
        Ok(mut cluster) => {
            let t = time_median(
                sizes.probe_small_iters,
                || (),
                |()| probe::pair_round(&mut cluster),
            );
            extra.push("net.uds.round_us", us(t), "us");
        }
        Err(why) => println!("net.uds.round_us skipped: {why}"),
    }
    rec.close(s, 0, 0);

    let s = rec.open("fault", "probe.reliable_round");
    let mut cluster = probe::reliable_net_cluster();
    let t = time_median(
        sizes.probe_small_iters,
        || (),
        |()| probe::pair_round(&mut cluster),
    );
    m.push("fault.reliable_round_us", us(t), "us");
    m.push(
        "fault.ack_bytes_share",
        probe::ack_bytes_share(&cluster),
        "ratio",
    );
    rec.close(s, 0, 0);
    drop(cluster);

    rec.lane = Backend::Seq.index() as u8;
    let s = rec.open("wire", "probe.codec");
    let block = probe::wire_block(sizes.probe_wire_rows, mix64);
    let words = (3 * sizes.probe_wire_rows) as f64;
    let iters = sizes.probe_small_iters;
    let t = time_median(iters, || (), |()| probe::wire_encode(&block));
    m.push("wire.encode_ns_per_word", t * 1e9 / words, "ns");
    let bytes = probe::wire_encode(&block);
    let t = time_median(iters, || (), |()| probe::wire_decode(&bytes));
    m.push("wire.decode_ns_per_word", t * 1e9 / words, "ns");
    rec.close(s, 0, 0);

    let s = rec.open("primitives", "probe.primitives");
    let n = sizes.probe_items as u64;
    let items: Vec<(u64, u64)> = (0..n).map(|i| (mix64(i) % (n / 16).max(1), i)).collect();
    let keys: Vec<u64> = (0..n / 32).collect();
    let weighted: Vec<(u64, f64)> = (0..n)
        .map(|i| (i, (mix64(i) % 97 + 1) as f64 / 100.0))
        .collect();
    let mut cluster = sut::cluster(Backend::Seq);
    let per_item = |secs: f64| secs * 1e9 / n as f64;
    let iters = sizes.probe_bulk_iters;
    let t = time_median(iters, || (), |()| probe::sum_by_key(&mut cluster, &items));
    m.push("primitives.sum_by_key_ns_per_item", per_item(t), "ns");
    let t = time_median(
        iters,
        || (),
        |()| probe::semi_join(&mut cluster, &items, &keys),
    );
    m.push("primitives.semi_join_ns_per_item", per_item(t), "ns");
    let t = time_median(
        iters,
        || (),
        |()| probe::multi_numbering(&mut cluster, &items),
    );
    m.push("primitives.multi_numbering_ns_per_item", per_item(t), "ns");
    let t = time_median(
        iters,
        || (),
        |()| probe::parallel_packing(&mut cluster, &weighted),
    );
    m.push("primitives.parallel_packing_ns_per_item", per_item(t), "ns");
    rec.close(s, 0, 0);
}

/// What the traced run adds to the untraced one's numbers.
pub struct Traced {
    /// Per-layer metrics every workload reports (`BENCHMARK.json`'s list).
    pub metrics: Metrics,
    /// Per-layer metrics only this kind of workload has.
    pub extra: Metrics,
    pub tally: Tally,
    pub spans: Recorder,
}

/// Replay, `aj_obs` overhead and probes. `engine_epochs` are the first
/// pass's counters as `QueryEngine::run` reported them.
pub fn run(w: &Workload, engine_epochs: &[OpEpochs], sizes: &Sizes) -> Traced {
    let mut rec = Recorder::with_capacity(1 << 16);
    let mut m = Metrics::default();
    let mut extra = Metrics::default();
    let mut tally = Tally::default();
    let lanes = match &w.kind {
        Kind::Queries { instances, pass } => replay_queries(
            &mut rec,
            instances,
            pass,
            engine_epochs,
            &mut m,
            &mut extra,
            &mut tally,
        ),
        Kind::Views {
            views,
            pass_batches,
        } => replay_views(
            &mut rec,
            views,
            *pass_batches,
            &mut m,
            &mut extra,
            &mut tally,
        ),
    };
    let pass_ops = w.pass_ops();
    let traced_ms = pass_ms(&lanes[0].op_ms, pass_ops);
    let untraced_ms = obs_overhead(w, &mut m);
    if matches!(w.kind, Kind::Queries { .. }) {
        extra.push(
            "engine.self_ms_per_op",
            (untraced_ms - traced_ms) / pass_ops as f64,
            "ms",
        );
        let share = spans::min_attributed_share(rec.spans(), "op");
        println!("least share of a replayed op's time in named child spans: {share:.4}");
    }
    m.push(
        "bench.span_overhead_share",
        traced_ms / untraced_ms - 1.0,
        "ratio",
    );
    probes(&mut rec, sizes, &mut m, &mut extra);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.push("host.cores", cores as f64, "count");
    Traced {
        metrics: m,
        extra,
        tally,
        spans: rec,
    }
}
