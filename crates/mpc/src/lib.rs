//! A deterministic simulator for the **MPC model** (massively parallel
//! computation) as used by Hu & Yi, *Instance and Output Optimal Parallel
//! Algorithms for Acyclic Joins*, PODS 2019.
//!
//! In the MPC model, data is distributed over `p` servers. Computation
//! proceeds in rounds; in each round every server sends messages to other
//! servers, receives messages, and then computes locally. The complexity
//! measure is the **load** `L`: the maximum number of message units received
//! by any server in any round (a tuple and an `O(log IN)`-bit integer each
//! count as one unit). Local computation and outgoing messages are free.
//!
//! This crate provides:
//!
//! * [`Cluster`] — owns the per-round, per-server load accounting and the
//!   execution backend.
//! * [`Net`] — a (possibly restricted) view of a group of servers through
//!   which all communication happens. Sub-views ([`Net::sub`]) let recursive
//!   algorithms run sub-problems on disjoint server groups, exactly like the
//!   server-allocation primitive of the paper.
//! * [`Net::round`] / [`Net::round_map`] / [`Net::run_local`] — the
//!   **round API**: a round is a per-server closure the executor can run
//!   sequentially or concurrently.
//! * [`SeqExecutor`] / [`ParExecutor`] — the execution backends (see
//!   [`executor`]); both report bit-identical loads, only wall-clock differs.
//! * [`Partitioned`] — a distributed collection: one `Vec` of items per
//!   server of a `Net`.
//! * [`Stats`] — the cumulative measured load; [`EpochStats`] — the one
//!   per-interval measurement ([`Cluster::epoch`]), used to attribute load
//!   to individual queries on a long-lived cluster.
//!
//! # Fidelity notes
//!
//! * Every inter-server data movement must go through [`Net::exchange`]; the
//!   tracker then sees exactly the quantity the paper bounds.
//! * Sub-problems that the paper runs *in parallel on disjoint servers* are
//!   simulated *sequentially* (even under a [`ParExecutor`], which
//!   parallelizes the per-server work *within* one round). Because the load
//!   is a **max** over rounds and servers (not a sum), and disjoint groups
//!   never target the same server in the same logical round, sequential
//!   simulation reports the same load as a truly parallel execution. Only
//!   the raw exchange count ([`Stats::exchanges`]) is inflated; the paper's
//!   round complexity is a query-dependent constant and is documented per
//!   algorithm instead.

#![deny(missing_docs)]

mod cluster;
pub mod executor;
pub mod fault;
mod hashing;
pub mod net_executor;
mod partitioned;
mod pool;
mod rows;
pub mod skew;
mod stats;
pub mod transport;
pub mod wire;

pub use aj_obs::{Event as TraceEvent, ObsConfig, RoundKind, Trace};
pub use aj_relation::TupleBlock;
pub use cluster::{Cluster, Net, ServerId};
pub use executor::{Execute, ParExecutor, SeqExecutor};
pub use fault::{CrashPoint, FaultPlan, FaultyTransport, InjectedCrash, LinkPartition};
pub use hashing::{hash_mix, hash_to_server, HashKey};
pub use net_executor::{FrameStats, NetExecutor, PeerAbort, WireBytes};
pub use partitioned::Partitioned;
pub use rows::{DeltaBlock, DeltaOutbox, RowOutbox};
pub use skew::detect_heavy_hitters;
pub use stats::{EpochStats, Stats};
#[cfg(all(unix, feature = "uds"))]
pub use transport::UdsTransport;
pub use transport::{uds_supported, ChanTransport, ShuffleTransport, Transport};
pub use wire::{Frame, FrameKind, Wire, WireReader};

/// Convenience: run `f` against a fresh sequentially-simulated cluster of
/// `p` servers and return the result together with the measured load
/// statistics.
pub fn run<R>(p: usize, f: impl FnOnce(&mut Net) -> R) -> (R, Stats) {
    let mut cluster = Cluster::new(p);
    let out = {
        let mut net = cluster.net();
        f(&mut net)
    };
    (out, cluster.stats().clone())
}

/// Like [`run`], but per-server work executes on a thread pool sized to the
/// machine ([`ParExecutor`]). Results and stats are identical to [`run`];
/// wall-clock time is not.
pub fn run_parallel<R>(p: usize, f: impl FnOnce(&mut Net) -> R) -> (R, Stats) {
    let mut cluster = Cluster::new_parallel(p);
    let out = {
        let mut net = cluster.net();
        f(&mut net)
    };
    (out, cluster.stats().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_stats() {
        let (sum, stats) = run(4, |net| {
            let parts = Partitioned::distribute((0..100u64).collect::<Vec<_>>(), net.p());
            let mut outbox: Vec<Vec<(ServerId, u64)>> = vec![Vec::new(); net.p()];
            for (s, part) in parts.iter().enumerate() {
                for &x in part {
                    outbox[s].push(((x % 4) as usize, x));
                }
            }
            let received = net.exchange(outbox);
            received.iter().flatten().sum::<u64>()
        });
        assert_eq!(sum, (0..100u64).sum::<u64>());
        assert_eq!(stats.exchanges, 1);
        assert_eq!(stats.max_load, 25);
        assert_eq!(stats.total_messages, 100);
    }

    #[test]
    fn run_parallel_matches_run() {
        let body = |net: &mut Net| {
            let parts = Partitioned::distribute((0..200u64).collect::<Vec<_>>(), net.p());
            let inbox = net.round_map(parts.into_parts(), |_, items| {
                items.into_iter().map(|x| ((x % 8) as usize, x)).collect()
            });
            inbox
                .into_iter()
                .map(|v| v.into_iter().sum::<u64>())
                .collect::<Vec<_>>()
        };
        let (a, sa) = run(8, body);
        let (b, sb) = run_parallel(8, body);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}
