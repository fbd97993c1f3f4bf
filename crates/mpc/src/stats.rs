//! Load accounting: the cost model of the MPC framework.

use crate::hashing::hash_mix;

/// Cumulative measurements of a [`crate::Cluster`].
///
/// The central quantity is [`Stats::max_load`]: the paper's `L`, i.e. the
/// maximum number of message units received by any server in any single
/// communication round.
///
/// Load over an interval (one query, one view batch) is read off the
/// current **epoch** ([`Stats::epoch`]): true per-interval max load,
/// per-server peaks, messages and exchanges since the last epoch boundary.
/// `Cluster::epoch` rolls the epoch, which is how a long-lived cluster
/// (e.g. `aj_core`'s `QueryEngine`) attributes load to individual queries
/// or phases.
///
/// Two `Stats` compare equal only if they recorded the same rounds: besides
/// the public counters, a private one-word digest folds in every server's
/// count in every round, in order. This is what lets the differential
/// oracle compare whole `Stats` across backends in O(1) memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Number of `exchange` calls performed. Note this over-counts the
    /// paper's round complexity when disjoint parallel sub-problems are
    /// simulated sequentially; see the crate docs.
    pub exchanges: u64,
    /// The load `L`: max over rounds and servers of units received.
    pub max_load: u64,
    /// Total units communicated over the whole run.
    pub total_messages: u64,
    /// Per absolute server: the maximum units received in one round.
    pub per_server_peak: Vec<u64>,
    /// Every recorded round's `(lo, stride, counts)`, folded in order.
    rounds_digest: u64,
    /// Accumulators since the last epoch boundary.
    epoch: EpochStats,
}

impl Stats {
    pub(crate) fn new(p: usize) -> Self {
        Stats {
            exchanges: 0,
            max_load: 0,
            total_messages: 0,
            per_server_peak: vec![0; p],
            rounds_digest: 0,
            epoch: EpochStats::new(p),
        }
    }

    /// Record one communication round: `counts[s]` units received by absolute
    /// server `lo + s * stride`. Updates the cumulative counters, the round
    /// digest, and the current epoch.
    pub(crate) fn record_round(&mut self, lo: usize, stride: usize, counts: &[u64]) {
        self.exchanges += 1;
        self.epoch.exchanges += 1;
        let mut digest = hash_mix(hash_mix(self.rounds_digest ^ lo as u64) ^ stride as u64);
        let mut round_max = 0u64;
        for (s, &c) in counts.iter().enumerate() {
            let abs = lo + s * stride;
            digest = hash_mix(digest ^ c);
            round_max = round_max.max(c);
            self.total_messages += c;
            self.epoch.total_messages += c;
            if c > self.per_server_peak[abs] {
                self.per_server_peak[abs] = c;
            }
            if c > self.epoch.per_server_peak[abs] {
                self.epoch.per_server_peak[abs] = c;
            }
        }
        self.rounds_digest = digest;
        if round_max > self.max_load {
            self.max_load = round_max;
        }
        if round_max > self.epoch.max_load {
            self.epoch.max_load = round_max;
        }
    }

    /// Close the current epoch and start a new one, returning the interval's
    /// measurements.
    pub(crate) fn roll_epoch(&mut self) -> EpochStats {
        let fresh = EpochStats::new(self.p());
        std::mem::replace(&mut self.epoch, fresh)
    }

    /// Number of servers this cluster was created with.
    pub fn p(&self) -> usize {
        self.per_server_peak.len()
    }

    /// The measurements accumulated in the current (still-open) epoch.
    pub fn epoch(&self) -> &EpochStats {
        &self.epoch
    }
}

/// Measurements of one stats **epoch**: the interval between two epoch
/// boundaries of a [`crate::Cluster`] (see `Cluster::epoch`).
///
/// Unlike the monotone [`Stats`] counters, every field here is local to the
/// interval: `max_load` is the max over the epoch's rounds only, and
/// `per_server_peak` holds per-server peaks reached within the epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Rounds performed within the epoch.
    pub exchanges: u64,
    /// Max units received by any server in any round *of this epoch*.
    pub max_load: u64,
    /// Units communicated within the epoch.
    pub total_messages: u64,
    /// Per absolute server: max units received in one round of this epoch.
    pub per_server_peak: Vec<u64>,
}

impl EpochStats {
    pub(crate) fn new(p: usize) -> Self {
        EpochStats {
            exchanges: 0,
            max_load: 0,
            total_messages: 0,
            per_server_peak: vec![0; p],
        }
    }

    /// Number of servers of the underlying cluster.
    pub fn p(&self) -> usize {
        self.per_server_peak.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest tells apart runs that every public counter (and a per-round
    /// max log) would call equal: the same rounds in a different order.
    #[test]
    fn digest_sees_every_count_of_every_round() {
        let run = |rounds: &[[u64; 2]]| {
            let mut s = Stats::new(2);
            for r in rounds {
                s.record_round(0, 1, r);
            }
            s
        };
        let public = |s: &Stats| {
            let c = (s.exchanges, s.max_load, s.total_messages);
            (c, s.per_server_peak.clone())
        };
        let a = run(&[[3, 1], [1, 3]]);
        let b = run(&[[1, 3], [3, 1]]);
        assert_eq!(public(&a), public(&b));
        assert_ne!(a, b);
        assert_eq!(a, run(&[[3, 1], [1, 3]]));
    }

    #[test]
    fn epochs_track_interval_peaks() {
        let mut s = Stats::new(2);
        s.record_round(0, 1, &[9, 1]);
        let e1 = s.roll_epoch();
        assert_eq!(e1.max_load, 9);
        assert_eq!(e1.per_server_peak, vec![9, 1]);
        assert_eq!(e1.exchanges, 1);
        assert_eq!(e1.total_messages, 10);
        // Second epoch only sees its own rounds.
        s.record_round(0, 1, &[2, 3]);
        let e2 = s.roll_epoch();
        assert_eq!(e2.max_load, 3);
        assert_eq!(e2.per_server_peak, vec![2, 3]);
        // Epoch totals add up to the cumulative stats.
        assert_eq!(e1.total_messages + e2.total_messages, s.total_messages);
        assert_eq!(e1.exchanges + e2.exchanges, s.exchanges);
        assert_eq!(e1.max_load.max(e2.max_load), s.max_load);
    }

    #[test]
    fn strided_rounds_account_epoch_peaks_to_absolute_servers() {
        let mut s = Stats::new(4);
        // A strided group {1, 3}: local server 1 is absolute server 3.
        s.record_round(1, 2, &[0, 6]);
        let e = s.roll_epoch();
        assert_eq!(e.per_server_peak, vec![0, 0, 0, 6]);
    }
}
