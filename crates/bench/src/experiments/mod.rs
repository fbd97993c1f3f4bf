//! One module per reproduced table/figure. Each `run()` returns the tables
//! the `repro` binary prints; ARCHITECTURE.md records the module ↔ paper
//! mapping and each table's expected shape is stated in its module docs.
//!
//! Every measured experiment reports the simulated load `L` **and**
//! wall-clock columns. By default only the sequential executor runs; with
//! [`set_parallel`] enabled (the `repro --parallel` flag) each measurement
//! additionally runs on the [`aj_mpc::ParExecutor`], asserts that both
//! executors report the *same* load and result, and prints the parallel
//! wall time plus the speedup.

pub mod engine;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod general;
pub mod scaling;
pub mod sec13;
pub mod skew;
pub mod table1;
pub mod thm12;
pub mod thm3;
pub mod thm4;
pub mod thm5;
pub mod thm7;
pub mod thm9;
pub mod updates;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use aj_core::dist::distribute_db;
use aj_mpc::Cluster;
use aj_relation::{Database, Query};

use crate::table::fmt_f;

static PARALLEL: AtomicBool = AtomicBool::new(false);
static NET: AtomicBool = AtomicBool::new(false);
static NET_UDS: AtomicBool = AtomicBool::new(false);
static TRACE: AtomicBool = AtomicBool::new(false);

/// One measured cell recorded for the `--json` benchmark trajectory
/// (`repro --json BENCH_repro.json`): wall clocks, the simulated load, and a
/// work-unit count from which throughput is derived.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// What the cell measured (e.g. `"measure"`, `"binary-join"`).
    pub label: String,
    /// Cluster size of the cell.
    pub p: usize,
    /// Simulated max load `L` of the cell.
    pub max_load: u64,
    /// Work units processed: tuples routed for `measure` cells; experiments
    /// with bespoke timing report their own unit (output tuples, queries).
    pub units: u64,
    /// Sequential-executor wall time, milliseconds.
    pub seq_ms: f64,
    /// Parallel-executor wall time (only when the comparison is enabled).
    pub par_ms: Option<f64>,
    /// Network-backend wall time (only with [`set_net`]).
    pub net_ms: Option<f64>,
    /// Bytes serialized through wire frames on the network backend
    /// (only with [`set_net`]).
    pub wire_bytes: Option<u64>,
    /// First-copy payload bytes of [`BenchRecord::wire_bytes`] (only on
    /// reliable-mode network runs, where the breakdown is metered).
    pub wire_payload: Option<u64>,
    /// Retransmitted payload bytes (reliable mode only).
    pub wire_retransmit: Option<u64>,
    /// Acknowledgement bytes (reliable mode only).
    pub wire_ack: Option<u64>,
    /// Structured-trace events recorded during the cell (only with
    /// [`set_trace`]; `repro --trace PATH`).
    pub trace_events: Option<u64>,
}

static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());
static TRACES: Mutex<Vec<(String, aj_obs::Trace)>> = Mutex::new(Vec::new());

/// Append one cell to the benchmark-trajectory recorder.
pub fn record(r: BenchRecord) {
    RECORDS.lock().unwrap().push(r);
}

/// Drain every cell recorded since the previous call (the `repro` binary
/// calls this after each experiment to group cells per experiment id).
pub fn take_records() -> Vec<BenchRecord> {
    std::mem::take(&mut *RECORDS.lock().unwrap())
}

/// Enable/disable structured tracing in every measurement (the `repro
/// --trace PATH` flag): each traced cell's [`aj_obs::Trace`] is stashed and
/// the `repro` binary exports the whole run as one Chrome trace-event file.
pub fn set_trace(enabled: bool) {
    TRACE.store(enabled, Ordering::Relaxed);
}

/// Is structured tracing enabled?
pub fn trace_enabled() -> bool {
    TRACE.load(Ordering::Relaxed)
}

/// Stash one labelled trace for the end-of-run Chrome export.
pub fn stash_trace(label: String, trace: aj_obs::Trace) {
    TRACES.lock().unwrap().push((label, trace));
}

/// Drain every trace stashed since the previous call.
pub fn take_traces() -> Vec<(String, aj_obs::Trace)> {
    std::mem::take(&mut *TRACES.lock().unwrap())
}

/// Enable/disable the parallel-executor comparison in every measurement
/// (the `repro --parallel` flag).
pub fn set_parallel(enabled: bool) {
    PARALLEL.store(enabled, Ordering::Relaxed);
}

/// Is the parallel-executor comparison enabled?
pub fn parallel_enabled() -> bool {
    PARALLEL.load(Ordering::Relaxed)
}

/// Enable/disable the network-backend comparison in every measurement
/// (the `repro --backend net` flag). Each measurement then also runs on a
/// [`aj_mpc::NetExecutor`]-backed cluster — one thread per server, all
/// cross-server traffic serialized through wire frames — and asserts the
/// result and the measured load match the sequential executor exactly.
pub fn set_net(enabled: bool) {
    NET.store(enabled, Ordering::Relaxed);
}

/// Is the network-backend comparison enabled?
pub fn net_enabled() -> bool {
    NET.load(Ordering::Relaxed)
}

/// Route the network-backend comparison over unix-domain sockets instead of
/// in-process channels (the `repro --transport uds` flag). Callers should
/// verify availability first with [`probe_net_transport`].
pub fn set_net_uds(enabled: bool) {
    NET_UDS.store(enabled, Ordering::Relaxed);
}

/// Is the network comparison routed over unix-domain sockets?
pub fn net_uds_enabled() -> bool {
    NET_UDS.load(Ordering::Relaxed)
}

/// Build the network-backend cluster on the selected transport, or explain
/// why it cannot be built (uds support compiled out, socketpair creation
/// failed). `measure` calls this per cell; the `repro` binary probes it once
/// at startup so users get the diagnostic before any experiment runs.
pub fn try_net_cluster(p: usize) -> Result<Cluster, String> {
    if !net_uds_enabled() {
        return Ok(Cluster::new_net(p));
    }
    if !aj_mpc::uds_supported() {
        return Err(
            "unix-domain-socket transport is not available in this build \
             (non-unix platform or the aj_mpc `uds` feature is disabled); \
             rerun with `--transport chan` or rebuild with default features"
                .to_string(),
        );
    }
    net_cluster_uds(p)
}

#[cfg(all(unix, feature = "uds"))]
fn net_cluster_uds(p: usize) -> Result<Cluster, String> {
    let transport = aj_mpc::UdsTransport::try_new(p).map_err(|e| {
        format!(
            "cannot set up unix-domain sockets for p = {p} \
             ({} fds needed): {e}; rerun with `--transport chan` \
             or raise the fd limit",
            p * (p - 1)
        )
    })?;
    Ok(Cluster::new_net_with_transport(p, transport))
}

#[cfg(not(all(unix, feature = "uds")))]
fn net_cluster_uds(_p: usize) -> Result<Cluster, String> {
    unreachable!("guarded by uds_supported()")
}

/// Startup probe for the `repro` binary: can the configured network
/// transport actually be built? Returns the user-facing diagnostic if not.
pub fn probe_net_transport() -> Result<(), String> {
    if net_enabled() {
        try_net_cluster(2).map(|_| ())
    } else {
        Ok(())
    }
}

/// Wall-clock measurements of one experiment cell.
#[derive(Debug, Clone, Copy)]
pub struct Wall {
    /// Sequential-executor wall time, milliseconds.
    pub seq_ms: f64,
    /// Parallel-executor wall time (only with [`set_parallel`]).
    pub par_ms: Option<f64>,
    /// Network-backend wall time (only with [`set_net`]).
    pub net_ms: Option<f64>,
    /// Wire bytes serialized on the network backend (only with [`set_net`]).
    pub wire_bytes: Option<u64>,
    /// Structured-trace events per exchange round (only with [`set_trace`]).
    pub ev_per_round: Option<f64>,
}

impl Wall {
    /// Table headers for the wall-clock columns.
    pub const HEADER: [&'static str; 6] = [
        "ms(seq)",
        "ms(par)",
        "speedup",
        "ms(net)",
        "wire(KiB)",
        "ev/round",
    ];

    /// Render the wall-clock columns of a row.
    pub fn cells(&self) -> Vec<String> {
        let mut cells = match self.par_ms {
            Some(par) => vec![
                fmt_f(self.seq_ms),
                fmt_f(par),
                format!("{:.2}x", self.seq_ms / par.max(1e-9)),
            ],
            None => vec![fmt_f(self.seq_ms), "-".to_string(), "-".to_string()],
        };
        cells.push(self.net_ms.map(fmt_f).unwrap_or_else(|| "-".to_string()));
        cells.push(
            self.wire_bytes
                .map(|b| format!("{:.1}", b as f64 / 1024.0))
                .unwrap_or_else(|| "-".to_string()),
        );
        cells.push(
            self.ev_per_round
                .map(|e| format!("{e:.2}"))
                .unwrap_or_else(|| "-".to_string()),
        );
        cells
    }

    /// Placeholder cells for rows with no wall-clock measurement, always in
    /// lockstep with [`Wall::HEADER`].
    pub fn na_cells() -> Vec<String> {
        Self::HEADER.iter().map(|_| "-".to_string()).collect()
    }
}

/// Extend a base header with the wall-clock columns.
pub(crate) fn with_wall(base: &[&'static str]) -> Vec<&'static str> {
    base.iter().copied().chain(Wall::HEADER).collect()
}

/// Run an algorithm body on a fresh cluster; returns (result, load L, wall).
///
/// With [`set_parallel`] enabled, runs the body a second time on a
/// [`aj_mpc::ParExecutor`]-backed cluster and asserts the result and the
/// measured load are identical — the executor-equivalence guarantee, checked
/// on every fig/table experiment. With [`set_net`] enabled, runs it once
/// more on a [`aj_mpc::NetExecutor`]-backed cluster (message passing only)
/// with the same assertions, additionally recording the wire bytes the run
/// serialized.
pub(crate) fn measure<R: PartialEq + std::fmt::Debug>(
    p: usize,
    f: impl Fn(&mut aj_mpc::Net) -> R,
) -> (R, u64, Wall) {
    let t0 = Instant::now();
    let mut cluster = Cluster::new(p);
    if trace_enabled() {
        cluster.enable_tracing(aj_obs::ObsConfig::default());
    }
    let out = {
        let mut net = cluster.net();
        f(&mut net)
    };
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    let load = cluster.stats().max_load;
    // Harvest the trace before any comparison backend runs: the stashed
    // trace covers exactly the sequential (reference) run of the cell.
    let trace_events = cluster.take_trace().map(|t| {
        let n = t.recorded();
        stash_trace(format!("measure-p{p}-{n}ev"), t);
        n
    });
    let par_ms = if parallel_enabled() {
        let t1 = Instant::now();
        let mut par_cluster = Cluster::new_parallel(p);
        let par_out = {
            let mut net = par_cluster.net();
            f(&mut net)
        };
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            par_cluster.stats().max_load,
            load,
            "SeqExecutor and ParExecutor disagree on the measured load"
        );
        assert_eq!(
            par_out, out,
            "SeqExecutor and ParExecutor disagree on the result"
        );
        Some(ms)
    } else {
        None
    };
    let (net_ms, wire_bytes) = if net_enabled() {
        let t2 = Instant::now();
        // The startup probe in `repro` already validated the transport, so
        // a failure here is exceptional (e.g. fd exhaustion mid-run).
        let mut net_cluster =
            try_net_cluster(p).unwrap_or_else(|e| panic!("network transport: {e}"));
        let net_out = {
            let mut net = net_cluster.net();
            f(&mut net)
        };
        let ms = t2.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            net_cluster.stats().max_load,
            load,
            "SeqExecutor and NetExecutor disagree on the measured load"
        );
        assert_eq!(
            net_out, out,
            "SeqExecutor and NetExecutor disagree on the result"
        );
        let bytes = net_cluster
            .executor()
            .as_net()
            .expect("net cluster must carry a NetExecutor")
            .wire_bytes();
        (Some(ms), Some(bytes))
    } else {
        (None, None)
    };
    let ev_per_round = trace_events.map(|n| n as f64 / cluster.stats().exchanges.max(1) as f64);
    record(BenchRecord {
        label: "measure".to_string(),
        p,
        max_load: load,
        units: cluster.stats().total_messages,
        seq_ms,
        par_ms,
        net_ms,
        wire_bytes,
        wire_payload: None,
        wire_retransmit: None,
        wire_ack: None,
        trace_events,
    });
    (
        out,
        load,
        Wall {
            seq_ms,
            par_ms,
            net_ms,
            wire_bytes,
            ev_per_round,
        },
    )
}

/// Measure Yannakakis with a given order.
pub(crate) fn measure_yannakakis(
    p: usize,
    q: &Query,
    db: &Database,
    order: Option<Vec<usize>>,
) -> (usize, u64, Wall) {
    measure(p, |net| {
        let dist = distribute_db(db, p);
        let mut seed = 11;
        aj_core::yannakakis::yannakakis(net, q, dist, order.clone(), &mut seed).total_len()
    })
}

/// Measure the Theorem-7 acyclic algorithm.
pub(crate) fn measure_acyclic(p: usize, q: &Query, db: &Database) -> (usize, u64, Wall) {
    measure(p, |net| {
        let dist = distribute_db(db, p);
        let mut seed = 11;
        aj_core::acyclic::solve(net, q, dist, &mut seed).total_len()
    })
}

/// Measure the Theorem-5 line-3 algorithm.
pub(crate) fn measure_line3(p: usize, q: &Query, db: &Database) -> (usize, u64, Wall) {
    measure(p, |net| {
        let dist = distribute_db(db, p);
        let mut seed = 11;
        aj_core::line3::solve(net, q, dist, &mut seed).total_len()
    })
}

/// Measure the Theorem-3 r-hierarchical algorithm.
pub(crate) fn measure_hierarchical(p: usize, q: &Query, db: &Database) -> (usize, u64, Wall) {
    measure(p, |net| {
        let dist = distribute_db(db, p);
        let mut seed = 11;
        aj_core::hierarchical::solve(net, q, dist, &mut seed).total_len()
    })
}

#[cfg(test)]
mod tests {
    /// Smoke-test every experiment end to end (small scales keep this fast
    /// in release CI; in debug it is the slowest test of the workspace).
    #[test]
    fn all_experiments_produce_tables() {
        for id in crate::ALL_EXPERIMENTS {
            let tables = crate::run_experiment(id);
            assert!(!tables.is_empty(), "experiment {id} produced no tables");
            for t in &tables {
                assert!(
                    !t.rows.is_empty(),
                    "experiment {id}: empty table {}",
                    t.title
                );
            }
        }
    }

    /// With the parallel comparison enabled, `measure` itself asserts
    /// executor equivalence (same result, same load) — exercise that on a
    /// real experiment. The global flag is restored by a drop guard even if
    /// the experiment panics, so concurrently-running tests cannot observe a
    /// leaked flag after this test finishes.
    #[test]
    fn parallel_comparison_agrees_on_fig3() {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                super::set_parallel(false);
            }
        }
        let _restore = Restore;
        super::set_parallel(true);
        let tables = crate::run_experiment("fig3");
        assert!(!tables.is_empty());
    }

    /// Same guarantee for the network backend: with the net comparison
    /// enabled, `measure` asserts bit-identical loads and results against
    /// the wire-serialized executor and records non-zero wire traffic.
    #[test]
    fn net_comparison_agrees_on_fig3() {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                super::set_net(false);
            }
        }
        let _restore = Restore;
        super::set_net(true);
        let tables = crate::run_experiment("fig3");
        assert!(!tables.is_empty());
        // Other tests may record cells concurrently (the recorder is global),
        // so only assert that *some* cell carries net-backend wire traffic.
        let cells = super::take_records();
        assert!(
            cells.iter().any(|c| c.wire_bytes.unwrap_or(0) > 0),
            "no cell recorded wire traffic"
        );
    }
}
