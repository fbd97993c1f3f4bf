//! The untraced run: set-up, interleaved timed passes on the three backends
//! in a closed loop with one client, verification, end-to-end metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::stats::{self, secs_since, Canary, Metrics, Tally};
use crate::sut::{self, Backend, EpochStats, QueryEngine, QueryOutcome, ViewId};
use crate::workloads::{self, Instance, Kind, Sizes, ViewSpec, Workload};

/// The load counters of one op: planning and execution epochs of a query,
/// or an empty planning epoch and the maintenance epoch of an update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEpochs {
    pub planning: EpochStats,
    pub execution: EpochStats,
}

impl OpEpochs {
    pub fn units(&self) -> u64 {
        self.planning.total_messages + self.execution.total_messages
    }

    pub fn rounds(&self) -> u64 {
        self.planning.exchanges + self.execution.exchanges
    }
}

/// The exact end-to-end counters of one pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassCounts {
    /// The paper's `L`: max over the pass's ops of the execution (or
    /// maintenance) epoch's `max_load`.
    pub max_load: u64,
    /// Σ over the pass's ops of planning + execution (or maintenance) epoch
    /// `total_messages`.
    pub total_units: u64,
}

/// One backend's long-lived engine and what was measured on it.
pub struct Lane {
    pub backend: Backend,
    pub engine: QueryEngine,
    views: Vec<ViewId>,
    /// Pass of the update stream the next view pass applies (0 = warm-up).
    next_pass: usize,
    pub pass_secs: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Counters of every op of the first cycle of timed passes. How many of
    /// those passes a lane gets to depends on timing: whatever is computed
    /// from this looks at the first pass or at a prefix two lanes share.
    pub first_cycle: Vec<OpEpochs>,
    cycle_passes: usize,
    pub tally: Tally,
}

/// Run one op under `catch_unwind`, timing only the call itself.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, Result<T, String>) {
    let t0 = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(f));
    let ms = secs_since(t0) * 1e3;
    (ms, res.map_err(|_| "panicked".to_string()))
}

/// One query through `QueryEngine::run`, its output count checked against
/// the oracle (and, with `check_rows`, the normalised rows too).
pub fn query_op(
    engine: &mut QueryEngine,
    inst: &Instance,
    check_rows: bool,
) -> (f64, Result<OpEpochs, String>) {
    let (ms, res) = timed(|| sut::run(engine, &inst.query, &inst.db));
    let checked = res.and_then(|outcome| {
        let QueryOutcome {
            output,
            planning,
            execution,
            ..
        } = outcome;
        let got = output.total_len() as u64;
        if got != inst.expect_out {
            return Err(format!(
                "{}: {got} rows, oracle {}",
                inst.shape, inst.expect_out
            ));
        }
        if check_rows
            && sut::normalized_rows(&output) != workloads::expect_rows(&inst.query, &inst.db)
        {
            return Err(format!("{}: rows differ from the oracle join", inst.shape));
        }
        Ok(OpEpochs {
            planning,
            execution,
        })
    });
    (ms, checked)
}

/// One signed batch through `QueryEngine::apply_update`, the view's new size
/// checked against the oracle.
pub fn update_op(
    engine: &mut QueryEngine,
    id: ViewId,
    view: &ViewSpec,
    batch: usize,
) -> (f64, Result<OpEpochs, String>) {
    let (ms, res) = timed(|| sut::apply_update(engine, id, &view.batches[batch]));
    let checked = res.and_then(|outcome| {
        if outcome.out_size != view.expect_out[batch] {
            return Err(format!(
                "{} batch {batch}: {} rows, oracle {}",
                view.name, outcome.out_size, view.expect_out[batch]
            ));
        }
        Ok(OpEpochs {
            planning: EpochStats::default(),
            execution: outcome.maintenance,
        })
    });
    (ms, checked)
}

impl Lane {
    fn new(backend: Backend, cycle_passes: usize) -> Lane {
        Lane {
            backend,
            engine: sut::engine(backend),
            views: Vec::new(),
            next_pass: 0,
            pass_secs: Vec::new(),
            op_ms: Vec::new(),
            first_cycle: Vec::new(),
            cycle_passes,
            tally: Tally::default(),
        }
    }

    /// A fresh engine on `backend` with the views registered and one
    /// untimed warm-up pass behind it.
    pub fn warmed(backend: Backend, w: &Workload) -> Lane {
        let mut lane = Lane::new(backend, w.cycle_passes());
        match &w.kind {
            Kind::Queries { instances, pass } => lane.query_pass(instances, pass, true),
            Kind::Views {
                views,
                pass_batches,
            } => lane.register_and_warm(views, *pass_batches),
        }
        lane
    }

    fn note(&mut self, timed_pass: bool, ms: f64, res: Result<OpEpochs, String>) {
        if timed_pass {
            self.op_ms.push(ms);
        }
        let backend = self.backend.name();
        self.tally
            .check(res.is_ok(), || format!("op on {backend}: {res:?}"));
        // `pass_secs` grows when a pass ends: its length is the current
        // timed pass's index.
        if let (Ok(epochs), true) = (res, timed_pass && self.pass_secs.len() < self.cycle_passes) {
            self.first_cycle.push(epochs);
        }
    }

    /// Fresh registrations of every view, then the untimed warm-up pass.
    fn register_and_warm(&mut self, views: &[ViewSpec], pass_batches: usize) {
        self.views = views
            .iter()
            .map(|v| sut::register_view(&mut self.engine, &v.query, &v.base))
            .collect();
        self.next_pass = 0;
        self.view_pass(views, pass_batches, false);
    }

    fn view_pass(&mut self, views: &[ViewSpec], pass_batches: usize, timed_pass: bool) {
        let first = self.next_pass * pass_batches;
        let t0 = Instant::now();
        for batch in first..first + pass_batches {
            for (v, view) in views.iter().enumerate() {
                let (ms, res) = update_op(&mut self.engine, self.views[v], view, batch);
                self.note(timed_pass, ms, res);
            }
        }
        if timed_pass {
            self.pass_secs.push(secs_since(t0));
        }
        self.next_pass += 1;
    }

    fn query_pass(&mut self, instances: &[Instance], pass: &[usize], warm_up: bool) {
        // The seq warm-up is where each distinct instance's rows meet the
        // oracle join; every other op checks the count only.
        let mut rows_checked = vec![!(warm_up && self.backend == Backend::Seq); instances.len()];
        let t0 = Instant::now();
        for &i in pass {
            let check_rows = !std::mem::replace(&mut rows_checked[i], true);
            let (ms, res) = query_op(&mut self.engine, &instances[i], check_rows);
            self.note(!warm_up, ms, res);
        }
        if !warm_up {
            self.pass_secs.push(secs_since(t0));
        }
    }

    /// Counters of the first timed pass; `None` if an op of it failed.
    pub fn first_pass(&self, pass_ops: usize) -> Option<&[OpEpochs]> {
        self.first_cycle.get(..pass_ops)
    }

    /// One timed pass. Pass time covers the whole closed loop (the client's
    /// count check and releasing the answer included); op time only the call.
    pub fn timed_pass(&mut self, w: &Workload) {
        match &w.kind {
            Kind::Queries { instances, pass } => self.query_pass(instances, pass, false),
            Kind::Views {
                views,
                pass_batches,
            } => {
                if self.next_pass * pass_batches >= views[0].batches.len() {
                    // Stream exhausted: replay it from fresh registrations.
                    self.engine = sut::engine(self.backend);
                    self.register_and_warm(views, *pass_batches);
                }
                self.view_pass(views, *pass_batches, true);
            }
        }
    }
}

/// Everything set-up builds: the inputs and one warmed lane per backend.
pub struct Bench {
    pub workload: Workload,
    pub lanes: Vec<Lane>,
    /// Wall time of the warm-up pass per backend, in seconds.
    pub warm_secs: [f64; 3],
}

/// Input generation, oracle counts, engine construction, view registration
/// and one warm-up pass per backend (plan cache filled, pools spawned,
/// allocator grown).
pub fn set_up(name: &str, seed: u64, sizes: &Sizes) -> Option<Bench> {
    let workload = workloads::build(name, seed, sizes)?;
    let mut warm_secs = [0.0; 3];
    let lanes = Backend::ALL
        .iter()
        .map(|&b| {
            let t0 = Instant::now();
            let lane = Lane::warmed(b, &workload);
            warm_secs[b.index()] = secs_since(t0);
            lane
        })
        .collect();
    Some(Bench {
        workload,
        lanes,
        warm_secs,
    })
}

/// `seq` passes per round: about a fifth of the round's time goes to `seq`,
/// and never fewer than `min_seq_ops` need over `min_passes` rounds.
fn seq_passes_per_round(warm_secs: &[f64; 3], pass_ops: usize, sizes: &Sizes) -> usize {
    let by_time = (warm_secs[1] + warm_secs[2]) / (4.0 * warm_secs[0].max(1e-6));
    let by_count = sizes.min_seq_ops.div_ceil(sizes.min_passes * pass_ops);
    (by_time as usize).clamp(by_count.max(1), by_count.max(16))
}

/// The timed section: rounds of `k × seq, 1 × par, 1 × net` with a canary
/// sample after each, until `seconds` have passed and every backend has its
/// `sizes.min_passes`.
pub fn measure(bench: &mut Bench, seconds: f64, sizes: &Sizes) -> Canary {
    let k = seq_passes_per_round(&bench.warm_secs, bench.workload.pass_ops(), sizes);
    let mut canary = Canary::new(sizes.canary_words);
    canary.sample();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < sizes.min_passes || secs_since(t0) < seconds {
        for lane in &mut bench.lanes {
            let passes = if lane.backend == Backend::Seq { k } else { 1 };
            for _ in 0..passes {
                lane.timed_pass(&bench.workload);
            }
        }
        canary.sample();
        rounds += 1;
    }
    canary
}

/// After timing: per-op load counters must agree across the backends, and
/// every view must equal a fresh registration on its final database.
pub fn verify(bench: &Bench) -> Tally {
    let mut tally = Tally::default();
    let (seq, others) = bench.lanes.split_first().expect("three lanes");
    let pass_ops = bench.workload.pass_ops();
    for lane in others {
        // The passes both lanes ran: `seq` gets `k` a round, the others one.
        let shared = lane.first_cycle.len().min(seq.first_cycle.len());
        let differ = (0..shared).find(|&i| lane.first_cycle[i] != seq.first_cycle[i]);
        tally.check(shared >= pass_ops && differ.is_none(), || {
            format!(
                "{} load counters differ from seq (first at op {differ:?} of {shared} shared)",
                lane.backend.name()
            )
        });
    }
    if let Kind::Views {
        views,
        pass_batches,
    } = &bench.workload.kind
    {
        for lane in &bench.lanes {
            // Batches each view has absorbed since its registration.
            let applied = lane.next_pass * pass_batches;
            for (v, view) in views.iter().enumerate() {
                let mut db = view.base.clone();
                for batch in &view.batches[..applied] {
                    sut::apply_batch(batch, &mut db);
                }
                let mut fresh = sut::engine(Backend::Seq);
                let id = sut::register_view(&mut fresh, &view.query, &db);
                let same = sut::snapshot(&lane.engine, lane.views[v]) == sut::snapshot(&fresh, id);
                tally.check(same, || {
                    format!(
                        "{} view {} differs from a fresh registration after {applied} batches",
                        lane.backend.name(),
                        view.name
                    )
                });
            }
        }
    }
    tally
}

/// `max_load` and `total_units` of one `seq` pass over the workload's named
/// (seed-0) instance. The inputs are the same in every run whatever `--seed`
/// is, so a change in either number is the program's and never the seed's.
/// `None` if an op of that pass failed (it is counted in `tally`).
pub fn named_counts(
    bench: &Bench,
    seed: u64,
    sizes: &Sizes,
    tally: &mut Tally,
) -> Option<PassCounts> {
    let pass_ops = bench.workload.pass_ops();
    if seed == 0 {
        return pass_counts(bench.lanes[0].first_pass(pass_ops)?);
    }
    let named = workloads::build(bench.workload.name, 0, sizes)?;
    let mut lane = Lane::warmed(Backend::Seq, &named);
    lane.timed_pass(&named);
    tally.absorb(lane.tally);
    pass_counts(lane.first_pass(pass_ops)?)
}

fn pass_counts(pass: &[OpEpochs]) -> Option<PassCounts> {
    Some(PassCounts {
        max_load: pass.iter().map(|e| e.execution.max_load).max()?,
        total_units: pass.iter().map(OpEpochs::units).sum(),
    })
}

/// What one untraced run found.
pub struct Outcome {
    /// End-to-end metrics, then the `backend.*` layer metrics derived from
    /// the same passes.
    pub metrics: Metrics,
    /// Every op of every lane plus the checks after timing.
    pub tally: Tally,
}

/// Metrics of the timed section (set-up time and the named instance's
/// counters are the caller's).
pub fn report(bench: &Bench, canary: &Canary, setup_s: f64, mut tally: Tally) -> Outcome {
    let w = &bench.workload;
    let pass_ops = w.pass_ops();
    let [seq, par, net] = &bench.lanes[..] else {
        unreachable!("three lanes")
    };
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    let ops_per_s = |lane: &Lane| stats::pass_median_ops_per_s(pass_ops, &lane.pass_secs);
    for lane in &bench.lanes {
        m.push(
            format!("ops_per_s_{}", lane.backend.name()),
            ops_per_s(lane),
            "op/s",
        );
    }
    let seq_ms = stats::sorted(seq.op_ms.clone());
    m.push("op_ms_p90_seq", stats::quantile_sorted(&seq_ms, 0.9), "ms");
    m.push(
        "peak_rss_mib",
        stats::peak_rss_mib().unwrap_or(f64::NAN),
        "MiB",
    );

    m.push(
        "backend.par_over_seq",
        ops_per_s(par) / ops_per_s(seq),
        "ratio",
    );
    m.push(
        "backend.net_over_seq",
        ops_per_s(net) / ops_per_s(seq),
        "ratio",
    );
    m.push(
        "backend.op_ms_p50.seq",
        stats::quantile_sorted(&seq_ms, 0.5),
        "ms",
    );
    for lane in [par, net] {
        let ms = stats::sorted(lane.op_ms.clone());
        let b = lane.backend.name();
        m.push(
            format!("backend.op_ms_p50.{b}"),
            stats::quantile_sorted(&ms, 0.5),
            "ms",
        );
        m.push(
            format!("backend.op_ms_p90.{b}"),
            stats::quantile_sorted(&ms, 0.9),
            "ms",
        );
    }
    // The `engine.*` counters are taken over the first timed pass: every
    // lane ran it whatever the timing, so they repeat bit-for-bit for a seed.
    let first = seq.first_pass(pass_ops).unwrap_or(&seq.first_cycle);
    let ops = first.len().max(1) as f64;
    let loads = first.iter().map(|e| e.execution.max_load);
    m.push(
        "engine.max_load",
        loads.clone().max().unwrap_or(0) as f64,
        "units",
    );
    m.push(
        "engine.load_per_op",
        loads.sum::<u64>() as f64 / ops,
        "units",
    );
    let rounds: u64 = first.iter().map(OpEpochs::rounds).sum();
    let units: u64 = first.iter().map(OpEpochs::units).sum();
    m.push("engine.rounds_per_op", rounds as f64 / ops, "rounds");
    m.push(
        "engine.units_per_round",
        units as f64 / rounds.max(1) as f64,
        "units",
    );
    m.push("host.canary_ms_p50", canary.p50_ms(), "ms");
    m.push("host.canary_spread", canary.spread(), "ratio");

    println!(
        "# {}: {} ops per pass; timed passes seq/par/net = {}/{}/{}; \
         seq latency sample = {} ops; closed loop, one client",
        w.name,
        pass_ops,
        seq.pass_secs.len(),
        par.pass_secs.len(),
        net.pass_secs.len(),
        seq.op_ms.len()
    );
    for lane in &bench.lanes {
        let ms = stats::sorted(lane.pass_secs.iter().map(|s| s * 1e3).collect());
        println!(
            "# {} pass ms: min {:.2}, p50 {:.2}, max {:.2}",
            lane.backend.name(),
            ms.first().copied().unwrap_or(f64::NAN),
            stats::quantile_sorted(&ms, 0.5),
            ms.last().copied().unwrap_or(f64::NAN)
        );
        tally.absorb(lane.tally);
    }
    println!(
        "disturbed: {} (canary max/p50 = {:.3}, flagged above {})",
        canary.disturbed(),
        canary.spread(),
        stats::DISTURBED_SPREAD
    );
    Outcome { metrics: m, tally }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `seq` runs `k` passes a round and the others one, so within a view
    /// stream's first cycle the lanes record different numbers of passes.
    #[test]
    fn lanes_with_different_numbers_of_passes_verify_on_what_they_share() {
        let mut bench = set_up("view_updates", 2, &Sizes::smoke()).unwrap();
        for lane in &mut bench.lanes {
            let passes = if lane.backend == Backend::Seq { 2 } else { 1 };
            for _ in 0..passes {
                lane.timed_pass(&bench.workload);
            }
        }
        assert!(bench.lanes[0].first_cycle.len() > bench.lanes[1].first_cycle.len());
        let checks = verify(&bench);
        assert_eq!(checks.failed, 0);
        assert!(checks.attempted > 2);
    }

    #[test]
    fn seq_passes_follow_the_time_share_but_never_starve_the_latency_sample() {
        let sizes = Sizes::full();
        // 36-op passes: the count floor is 1, the time share decides.
        assert_eq!(seq_passes_per_round(&[0.05, 0.3, 0.7], 36, &sizes), 5);
        // 4-op passes: 100 ops over 9 rounds need 3 passes a round.
        assert_eq!(seq_passes_per_round(&[0.4, 0.6, 0.7], 4, &sizes), 3);
        // Few rounds: the floor may exceed the usual cap of 16.
        let short = Sizes {
            min_passes: 1,
            ..sizes
        };
        assert_eq!(seq_passes_per_round(&[0.4, 0.6, 0.7], 4, &short), 25);
    }
}
