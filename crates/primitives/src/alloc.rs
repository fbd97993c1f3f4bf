//! The **server-allocation** primitive (Section 2): subproblems with demands
//! `p(j)` get disjoint server ranges `[p1(j), p2(j))` with
//! `max_j p2(j) ≤ Σ_j p(j)`; tuples learn their subproblem's range via
//! [`crate::lookup`]. The range bases come from one [`crate::prefix_sum`]:
//! `O(p)` control units at one coordinator, within `O(IN/p)` when `IN ≥ p²`.

use aj_mpc::{Net, Partitioned, Wire, WireReader};

use crate::key::Key;
use crate::prefix::prefix_sum;
use crate::table::{own_by_key, OwnedTable};

/// A server range assigned to a subproblem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// First server of the range.
    pub start: u64,
    /// Number of servers in the range.
    pub len: u64,
}

impl Allocation {
    /// One past the last server of the range.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

impl Wire for Allocation {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.start);
        out.push(self.len);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        Allocation {
            start: r.word(),
            len: r.word(),
        }
    }
}

/// Allocate disjoint server ranges to subproblems.
///
/// `demands` holds `(subproblem id, p(j))` pairs with globally distinct ids
/// (typically produced by [`crate::sum_by_key`]). Returns an [`OwnedTable`]
/// mapping each id to its [`Allocation`], plus the total number of servers
/// demanded. Rounds: O(1); load: linear in the number of subproblems per
/// server plus `O(p)` control units at the coordinator.
pub fn allocate_servers<K: Key + Wire>(
    net: &mut Net,
    demands: Partitioned<(K, u64)>,
    seed: u64,
) -> (OwnedTable<K, Allocation>, u64) {
    let p = net.p();
    assert_eq!(demands.p(), p);
    // Local exclusive prefix per server, then a global prefix over totals.
    let local_totals: Vec<u64> = demands
        .iter()
        .map(|part| part.iter().map(|d| d.1).sum())
        .collect();
    let (bases, grand_total) = prefix_sum(net, &local_totals);
    let ranged: Vec<Vec<(K, Allocation)>> = demands
        .into_parts()
        .into_iter()
        .enumerate()
        .map(|(s, part)| {
            let mut run = bases[s];
            part.into_iter()
                .map(|(k, need)| {
                    let a = Allocation {
                        start: run,
                        len: need,
                    };
                    run += need;
                    (k, a)
                })
                .collect()
        })
        .collect();
    let table = own_by_key(net, Partitioned::from_parts(ranged), seed);
    (table, grand_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_mpc::Cluster;

    #[test]
    fn ranges_are_disjoint_and_tight() {
        let mut cluster = Cluster::new(4);
        let mut net = cluster.net();
        let demands: Vec<(u64, u64)> = vec![(10, 3), (11, 1), (12, 5), (13, 2)];
        let parts = Partitioned::distribute(demands.clone(), 4);
        let (table, total) = allocate_servers(&mut net, parts, 21);
        assert_eq!(total, 11);
        let mut allocs: Vec<(u64, Allocation)> = table.parts.gather_free();
        allocs.sort_by_key(|a| a.1.start);
        let mut cursor = 0;
        for (_, a) in &allocs {
            assert_eq!(a.start, cursor, "ranges must tile [0, total)");
            cursor = a.end();
        }
        assert_eq!(cursor, 11);
        // Demands preserved per id.
        for (id, need) in demands {
            let got = allocs.iter().find(|(k, _)| *k == id).unwrap().1;
            assert_eq!(got.len, need);
        }
    }

    #[test]
    fn zero_demand_allowed() {
        let mut cluster = Cluster::new(2);
        let mut net = cluster.net();
        let parts = Partitioned::distribute(vec![(1u64, 0u64), (2, 4)], 2);
        let (table, total) = allocate_servers(&mut net, parts, 3);
        assert_eq!(total, 4);
        let allocs = table.parts.gather_free();
        let zero = allocs.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert_eq!(zero.len, 0);
    }
}
