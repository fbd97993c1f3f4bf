//! Control-plane aggregation: one gather to a coordinator, one scatter back.
//!
//! Every server sends one control item to server 0, which computes the
//! answers locally and sends one item back to each server: 2 rounds, `2p`
//! units, load `p` at the coordinator and 1 elsewhere. `O(p)` control units
//! at one server stay within the `O(IN/p)` load whenever `IN ≥ p²` (the
//! paper assumes `IN ≥ p^{1+ε}`), which holds in every experiment regime
//! (see ARCHITECTURE.md).

use aj_mpc::{Net, ServerId, Wire};

/// One control-plane aggregation: server `s` sends `items[s]` to the
/// coordinator (server 0), which applies `f` to all `p` items in server
/// order and sends `f(..)[s]` back to server `s`. Returns the replies,
/// indexed by server.
///
/// Rounds: 2; units: `2p`; load: `p` at the coordinator, 1 elsewhere.
///
/// # Panics
/// Panics if `items` or the replies of `f` do not hold one entry per server.
pub fn coordinate<T: Send + Wire, U: Send + Wire>(
    net: &mut Net,
    items: Vec<T>,
    f: impl FnOnce(Vec<T>) -> Vec<U>,
) -> Vec<U> {
    let p = net.p();
    assert_eq!(items.len(), p, "one control item per server");
    let up: Vec<Vec<(ServerId, T)>> = items.into_iter().map(|item| vec![(0, item)]).collect();
    let replies = f(net.exchange(up).swap_remove(0));
    assert_eq!(replies.len(), p, "one reply per server");
    let mut down: Vec<Vec<(ServerId, U)>> = (0..p).map(|_| Vec::new()).collect();
    down[0] = replies.into_iter().enumerate().collect();
    net.exchange(down)
        .into_iter()
        .map(|mut got| got.pop().expect("the coordinator replies to every server"))
        .collect()
}

/// Exclusive prefix sums: server `s` contributed `values[s]`; the result at
/// index `s` is `values\[0\] + … + values[s-1]`, available to server `s`.
/// Also returns the grand total (available to every server).
///
/// One [`coordinate`] call: 2 rounds, `2p` units, load `p`.
pub fn prefix_sum(net: &mut Net, values: &[u64]) -> (Vec<u64>, u64) {
    let replies = coordinate(net, values.to_vec(), |values| {
        let total: u64 = values.iter().sum();
        let mut running = 0u64;
        values
            .into_iter()
            .map(|v| {
                let pre = running;
                running += v;
                (pre, total)
            })
            .collect()
    });
    let total = replies[0].1;
    (replies.into_iter().map(|r| r.0).collect(), total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_packing;
    use aj_mpc::{Cluster, Partitioned, Stats};

    #[test]
    fn prefix_matches_sequential() {
        for p in [1usize, 2, 3, 8, 17, 64] {
            let mut cluster = Cluster::new(p);
            let mut net = cluster.net();
            let values: Vec<u64> = (0..p as u64).map(|i| i * i + 1).collect();
            let (pre, total) = prefix_sum(&mut net, &values);
            let mut expect = Vec::with_capacity(p);
            let mut run = 0;
            for &v in &values {
                expect.push(run);
                run += v;
            }
            assert_eq!(pre, expect, "p={p}");
            assert_eq!(total, run);
        }
    }

    /// The control-plane contract: `coordinate`, `prefix_sum` and
    /// `parallel_packing` each cost exactly one gather and one scatter —
    /// 2 exchanges, `2p` units, load at most `p`.
    #[test]
    fn control_plane_is_one_gather_and_one_scatter() {
        fn measure(p: usize, run: impl FnOnce(&mut Net)) -> Stats {
            let mut cluster = Cluster::new(p);
            run(&mut cluster.net());
            cluster.stats().clone()
        }
        for p in [1usize, 7, 8, 64] {
            let runs = [
                (
                    "coordinate",
                    measure(p, |net| {
                        let echoed = coordinate(net, (0..p as u64).collect(), |v| v);
                        assert_eq!(echoed, (0..p as u64).collect::<Vec<_>>());
                    }),
                ),
                (
                    "prefix_sum",
                    measure(p, |net| {
                        prefix_sum(net, &vec![3; p]);
                    }),
                ),
                (
                    "parallel_packing",
                    measure(p, |net| {
                        let items: Vec<(u64, f64)> = (0..4 * p as u64).map(|i| (i, 0.3)).collect();
                        parallel_packing(net, Partitioned::distribute(items, p));
                    }),
                ),
            ];
            for (name, stats) in runs {
                assert_eq!(stats.exchanges, 2, "{name} at p={p}: rounds");
                assert_eq!(stats.total_messages, 2 * p as u64, "{name} at p={p}: units");
                assert!(stats.max_load <= p as u64, "{name} at p={p}: load");
            }
        }
    }
}
