//! One module per reproduced table/figure. Each `run()` returns the tables
//! the `repro` binary prints; ARCHITECTURE.md records the module ↔ paper
//! mapping and each table's expected shape is stated in its module docs.
//!
//! Every cell is exact: the simulated load `L` plus the cell's [`Cost`]
//! (exchange rounds and units routed), all read from the cluster's
//! [`aj_mpc::Stats`]. Nothing here reads a clock, so the printed tables — and
//! the `repro --json` record built from them — are byte-stable; wall clocks
//! live in `mpcbench`. By default only the sequential executor runs; with
//! [`set_parallel`] (the `repro --parallel` flag) or [`set_net`] (`repro
//! --backend net`) each measurement re-runs on that executor and asserts the
//! same `Stats` and the same result.

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

use aj_core::dist::distribute_db;
use aj_mpc::{Cluster, Net};
use aj_relation::{Database, Query};

static PARALLEL: AtomicBool = AtomicBool::new(false);
static NET: AtomicBool = AtomicBool::new(false);
static NET_UDS: AtomicBool = AtomicBool::new(false);
static TRACE: AtomicBool = AtomicBool::new(false);

static TRACES: Mutex<Vec<(String, aj_obs::Trace)>> = Mutex::new(Vec::new());

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

/// The exact cost of one experiment cell, read from the cluster's
/// [`aj_mpc::Stats`].
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Exchange rounds the cell ran (`Stats::exchanges`).
    pub rounds: u64,
    /// Units routed over the whole cell (`Stats::total_messages`).
    pub units: u64,
}

impl Cost {
    /// Table headers for the cost columns.
    pub const HEADER: [&'static str; 2] = ["rounds", "units"];

    /// Render the cost columns of a row.
    pub fn cells(&self) -> Vec<String> {
        vec![self.rounds.to_string(), self.units.to_string()]
    }

    /// Placeholder cells for rows with no measurement, always in lockstep
    /// with [`Cost::HEADER`].
    pub fn na_cells() -> Vec<String> {
        Self::HEADER.iter().map(|_| "-".to_string()).collect()
    }
}

/// Extend a base header with the cost columns.
pub(crate) fn with_cost(base: &[&'static str]) -> Vec<&'static str> {
    base.iter().copied().chain(Cost::HEADER).collect()
}

/// Run an algorithm body on a fresh cluster; returns (result, load L, cost).
///
/// With [`set_parallel`] enabled, runs the body a second time on a
/// [`aj_mpc::ParExecutor`]-backed cluster and asserts the same `Stats` and
/// the same result — the executor-equivalence guarantee, checked on every
/// fig/table experiment. With [`set_net`] enabled, runs it once more on a
/// [`aj_mpc::NetExecutor`]-backed cluster (message passing only) with the
/// same assertions.
pub(crate) fn measure<R: PartialEq + std::fmt::Debug>(
    p: usize,
    f: impl Fn(&mut Net) -> R,
) -> (R, u64, Cost) {
    let run = |cluster: &mut Cluster| f(&mut cluster.net());
    let mut cluster = Cluster::new(p);
    if trace_enabled() {
        cluster.enable_tracing(aj_obs::ObsConfig::default());
    }
    let out = run(&mut cluster);
    // The stashed trace covers exactly the sequential (reference) run.
    if let Some(t) = cluster.take_trace() {
        stash_trace(format!("measure-p{p}-{}ev", t.recorded()), t);
    }
    let stats = cluster.stats();
    let check = |mut other: Cluster, name: &str| {
        let other_out = run(&mut other);
        assert_eq!(
            other.stats(),
            stats,
            "SeqExecutor and {name} disagree on the Stats"
        );
        assert_eq!(
            other_out, out,
            "SeqExecutor and {name} disagree on the result"
        );
    };
    if parallel_enabled() {
        check(Cluster::new_parallel(p), "ParExecutor");
    }
    if net_enabled() {
        // The startup probe in `repro` already validated the transport, so
        // a failure here is exceptional (e.g. fd exhaustion mid-run).
        let net = try_net_cluster(p).unwrap_or_else(|e| panic!("network transport: {e}"));
        check(net, "NetExecutor");
    }
    let cost = Cost {
        rounds: stats.exchanges,
        units: stats.total_messages,
    };
    (out, stats.max_load, cost)
}

/// Measure Yannakakis with a given order.
pub(crate) fn measure_yannakakis(
    p: usize,
    q: &Query,
    db: &Database,
    order: Option<Vec<usize>>,
) -> (usize, u64, Cost) {
    measure(p, |net| {
        let dist = distribute_db(db, p);
        let mut seed = 11;
        aj_core::yannakakis::yannakakis(net, q, dist, order.clone(), &mut seed).total_len()
    })
}

/// Measure the Theorem-7 acyclic algorithm.
pub(crate) fn measure_acyclic(p: usize, q: &Query, db: &Database) -> (usize, u64, Cost) {
    measure(p, |net| {
        let dist = distribute_db(db, p);
        let mut seed = 11;
        aj_core::acyclic::solve(net, q, dist, &mut seed).total_len()
    })
}

/// Measure the Theorem-5 line-3 algorithm.
pub(crate) fn measure_line3(p: usize, q: &Query, db: &Database) -> (usize, u64, Cost) {
    measure(p, |net| {
        let dist = distribute_db(db, p);
        let mut seed = 11;
        aj_core::line3::solve(net, q, dist, &mut seed).total_len()
    })
}

/// Measure the Theorem-3 r-hierarchical algorithm.
pub(crate) fn measure_hierarchical(p: usize, q: &Query, db: &Database) -> (usize, u64, Cost) {
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
    /// executor equivalence (same result, same `Stats`) — exercise that on a
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
    /// enabled, `measure` asserts the same `Stats` and results against the
    /// wire-serialized executor.
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
    }
}
