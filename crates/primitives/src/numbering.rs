//! The **multi-numbering** primitive (Section 2): given `(key, value)`
//! pairs, assign consecutive numbers `0, 1, 2, …` to the pairs within each
//! key (the paper numbers from 1; zero-based is more convenient in code).

use aj_mpc::{Net, Partitioned, Wire};

use crate::fxhash::FxHashMap;
use crate::key::Key;
use crate::table::{answer, tally};

/// Number items within each key. Two exchanges, linear load: a [`tally`] of
/// one count per *distinct local* key per server, then an [`answer`] giving
/// each holder the count of the servers before it (its disjoint offset
/// range); numbering finishes locally. All per-server phases run through
/// the round API, so a parallel executor overlaps them across servers.
pub fn multi_numbering<K: Key + Wire, T: Send + Sync>(
    net: &mut Net,
    items: Partitioned<(K, T)>,
    seed: u64,
) -> Partitioned<(K, T, u64)> {
    let counts = Partitioned::from_parts(net.run_each(|s| {
        items[s]
            .iter()
            .map(|(k, _)| (k.clone(), 1u64))
            .collect::<Vec<_>>()
    }));
    let counts = tally(net, counts, seed, |a, b| a + b);
    let offsets = answer(net, &counts, |_, _, _, holders, out| {
        out.extend(prefix_offsets(holders));
    });
    // Local numbering: offset + local running index per key.
    let out = net.run_local(
        items.into_parts().into_iter().zip(offsets).collect(),
        |_, (part, mut base): (Vec<(K, T)>, FxHashMap<K, u64>)| {
            let mut numbered = Vec::with_capacity(part.len());
            for (k, t) in part {
                let n = base.get_mut(&k).expect("owner answered every local key");
                numbered.push((k, t, *n));
                *n += 1;
            }
            numbered
        },
    );
    Partitioned::from_parts(out)
}

/// Each holder's exclusive prefix of the holders' counts, in holder (server)
/// order: the first number of that holder's share of the key.
pub fn prefix_offsets<S>(holders: &[(S, u64)]) -> impl Iterator<Item = u64> + '_ {
    holders.iter().scan(0u64, |run, &(_, c)| {
        let at = *run;
        *run += c;
        Some(at)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashSet;
    use aj_mpc::Cluster;

    #[test]
    fn numbers_are_consecutive_per_key() {
        let mut cluster = Cluster::new(4);
        let mut net = cluster.net();
        let items: Vec<(u64, u64)> = (0..40).map(|i| (i % 3, i)).collect();
        let parts = Partitioned::distribute(items, 4);
        let numbered = multi_numbering(&mut net, parts, 9).gather_free();
        for key in 0..3u64 {
            let mut nums: Vec<u64> = numbered
                .iter()
                .filter(|(k, _, _)| *k == key)
                .map(|&(_, _, n)| n)
                .collect();
            nums.sort_unstable();
            let expect: Vec<u64> = (0..nums.len() as u64).collect();
            assert_eq!(nums, expect, "key {key}");
        }
    }

    #[test]
    fn single_key_all_servers() {
        let mut cluster = Cluster::new(8);
        let mut net = cluster.net();
        let items: Vec<(u64, u64)> = (0..64).map(|i| (7, i)).collect();
        let parts = Partitioned::distribute(items, 8);
        let numbered = multi_numbering(&mut net, parts, 1).gather_free();
        let nums: FxHashSet<u64> = numbered.iter().map(|&(_, _, n)| n).collect();
        assert_eq!(nums.len(), 64);
        assert_eq!(*nums.iter().max().unwrap(), 63);
    }

    #[test]
    fn load_linear_under_skew() {
        let p = 8;
        let mut cluster = Cluster::new(p);
        {
            let mut net = cluster.net();
            let items: Vec<(u64, u64)> = (0..800).map(|i| (0, i)).collect();
            let parts = Partitioned::distribute(items, p);
            multi_numbering(&mut net, parts, 1);
        }
        // One count message per server, one reply: load ≤ p.
        assert!(cluster.stats().max_load <= p as u64);
    }

    #[test]
    fn empty_input() {
        let mut cluster = Cluster::new(2);
        let mut net = cluster.net();
        let parts: Partitioned<(u64, u64)> = Partitioned::empty(2);
        let numbered = multi_numbering(&mut net, parts, 1);
        assert!(numbered.is_empty());
    }
}
