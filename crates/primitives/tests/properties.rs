//! Property-based tests of the Section-2 primitives: results must match a
//! sequential reference on arbitrary inputs, and the key invariants
//! (consecutive numbering, packing feasibility, allocation disjointness)
//! must hold for all weights/keys/cluster sizes.

use std::collections::{BTreeMap, HashMap};

use aj_mpc::{Cluster, Net, Partitioned, ServerId, Wire};
use aj_primitives::{
    allocate_servers, answer, encode_subset, lookup, multi_numbering, parallel_packing, prefix_sum,
    report_subsets, sum_by_key, tally, FxHashMap, FxHashSet, Key,
};
use proptest::prelude::*;

/// Place raw `(r, server, value)` draws on `p` servers with skewed keys and
/// some servers left empty: half the draws land on key 0, a quarter on key
/// 1, the rest spread over 40 keys; bit `s` of `empty` empties server `s`
/// (its items move to a live server).
fn skewed_placement(draws: &[(u64, u64, u64)], p: usize, empty: u64) -> Partitioned<(u64, u64)> {
    let mut live: Vec<usize> = (0..p).filter(|s| empty >> s & 1 == 0).collect();
    if live.is_empty() {
        live.push(p - 1);
    }
    let mut parts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    for &(r, srv, v) in draws {
        let key = match r {
            0..=499 => 0,
            500..=749 => 1,
            _ => r % 40,
        };
        parts[live[srv as usize % live.len()]].push((key, v));
    }
    Partitioned::from_parts(parts)
}

/// Multi-numbering as it was before it became a tally plus an answer: the
/// owner receives `(key, server, count)`, prefix-sums each key's counts in
/// server order and replies the offsets. The rebuilt primitive must number
/// every item exactly as this does.
fn reference_multi_numbering<K: Key + Wire, T: Send + Sync>(
    net: &mut Net,
    items: Partitioned<(K, T)>,
    seed: u64,
) -> Partitioned<(K, T, u64)> {
    let p = net.p();
    let parts = items.into_parts();
    let at_owner = net.round(|s| {
        let mut m: FxHashMap<&K, u64> = FxHashMap::default();
        for (k, _) in &parts[s] {
            *m.entry(k).or_insert(0) += 1;
        }
        m.into_iter()
            .map(|(k, c)| (k.owner(seed, p), (k.clone(), s, c)))
            .collect()
    });
    let offsets = net.round_map(at_owner, |_, mut entries: Vec<(K, ServerId, u64)>| {
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut replies = Vec::with_capacity(entries.len());
        let mut i = 0;
        while i < entries.len() {
            let mut j = i;
            let mut running = 0u64;
            while j < entries.len() && entries[j].0 == entries[i].0 {
                replies.push((entries[j].1, (entries[j].0.clone(), running)));
                running += entries[j].2;
                j += 1;
            }
            i = j;
        }
        replies
    });
    let out = parts
        .into_iter()
        .zip(offsets)
        .map(|(part, offs)| {
            let mut base: FxHashMap<K, u64> = offs.into_iter().collect();
            part.into_iter()
                .map(|(k, t)| {
                    let n = base.get_mut(&k).expect("owner answered every local key");
                    let numbered = (k, t, *n);
                    *n += 1;
                    numbered
                })
                .collect()
        })
        .collect();
    Partitioned::from_parts(out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn sum_by_key_equals_sequential(
        pairs in prop::collection::vec((0u64..40, 1u64..100), 0..300),
        p in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut want: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in &pairs {
            *want.entry(k).or_insert(0) += v;
        }
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let table = sum_by_key(&mut net, Partitioned::distribute(pairs, p), seed, |a, b| a + b);
        let got: HashMap<u64, u64> = table.parts.gather_free().into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn lookup_answers_exactly_the_table(
        entries in prop::collection::vec((0u64..50, 0u64..1000), 0..100),
        queries in prop::collection::vec(0u64..80, 0..200),
        p in 1usize..10,
    ) {
        // Deduplicate keys (own_by_key requires distinct).
        let mut dedup: HashMap<u64, u64> = HashMap::new();
        for (k, v) in entries {
            dedup.insert(k, v);
        }
        let entries: Vec<(u64, u64)> = dedup.iter().map(|(&k, &v)| (k, v)).collect();
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let table = aj_primitives::own_by_key(&mut net, Partitioned::distribute(entries, p), 7);
        let reqs = Partitioned::distribute(queries.clone(), p);
        let answers = lookup(&mut net, &table, &reqs);
        for (part, ans) in reqs.iter().zip(&answers) {
            for k in part {
                prop_assert_eq!(ans.get(k), dedup.get(k));
            }
        }
    }

    #[test]
    fn multi_numbering_is_a_bijection_per_key(
        items in prop::collection::vec((0u64..10, 0u64..1000), 0..250),
        p in 1usize..10,
    ) {
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let numbered =
            multi_numbering(&mut net, Partitioned::distribute(items.clone(), p), 5).gather_free();
        prop_assert_eq!(numbered.len(), items.len());
        let mut per_key: HashMap<u64, Vec<u64>> = HashMap::new();
        for (k, _, n) in numbered {
            per_key.entry(k).or_default().push(n);
        }
        for (k, mut nums) in per_key {
            nums.sort_unstable();
            let want: Vec<u64> = (0..nums.len() as u64).collect();
            prop_assert_eq!(&nums, &want, "key {} numbering broken", k);
        }
    }

    #[test]
    fn tally_totals_equal_sum_by_key(
        draws in prop::collection::vec((0u64..1000, 0u64..8, 1u64..100), 0..300),
        p in 1usize..=8,
        empty in 0u64..256,
        seed in 0u64..1000,
    ) {
        let pairs = skewed_placement(&draws, p, empty);
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let want = sum_by_key(&mut net, pairs.clone(), seed, |a, b| a + b);
        let got = tally(&mut net, pairs, seed, |a, b| a + b);
        prop_assert_eq!(got.totals.seed, want.seed);
        // Entry for entry, per owner, in the same key-sorted order.
        prop_assert_eq!(got.totals.parts.into_parts(), want.parts.into_parts());
    }

    #[test]
    fn answer_delivers_what_lookup_returns(
        draws in prop::collection::vec((0u64..1000, 0u64..8, 1u64..100), 0..300),
        p in 1usize..=8,
        empty in 0u64..256,
        seed in 0u64..1000,
    ) {
        let pairs = skewed_placement(&draws, p, empty);
        let requests = pairs.clone().map(|_, (k, _)| k);
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let table = sum_by_key(&mut net, pairs.clone(), seed, |a, b| a + b);
        let want = lookup(&mut net, &table, &requests);
        let counted = tally(&mut net, pairs, seed, |a, b| a + b);
        let before = net.stats().clone();
        let got = answer(&mut net, &counted, |_, _, &total, holders, out| {
            out.extend(holders.iter().map(|_| total));
        });
        let after = net.stats();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(after.exchanges - before.exchanges, 1);
        let distinct: usize = requests
            .iter()
            .map(|part| part.iter().collect::<FxHashSet<_>>().len())
            .sum();
        prop_assert_eq!(after.total_messages - before.total_messages, distinct as u64);
    }

    #[test]
    fn multi_numbering_matches_the_reference(
        draws in prop::collection::vec((0u64..1000, 0u64..8, 0u64..1000), 0..300),
        p in 1usize..=8,
        empty in 0u64..256,
        seed in 0u64..1000,
    ) {
        let items = skewed_placement(&draws, p, empty);
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let want = reference_multi_numbering(&mut net, items.clone(), seed);
        let got = multi_numbering(&mut net, items, seed);
        prop_assert_eq!(got.into_parts(), want.into_parts());
    }

    /// Draws `(sender, receiver, key, bit)` build each pair's shared set;
    /// two bits of `modes` per pair make it all-in, none-in or split by the
    /// drawn bits, and bit `s` of `silent` leaves sender `s` sharing nothing.
    #[test]
    fn subset_reports_decode_the_in_set_within_the_in_count(
        draws in prop::collection::vec((0u64..8, 0u64..8, 0u64..40, 0u64..2), 0..300),
        p in 1usize..=8,
        silent in 0u64..256,
        modes in 0u64..65536,
    ) {
        let mut shared: Vec<Vec<BTreeMap<u64, bool>>> = vec![vec![BTreeMap::new(); p]; p];
        for &(s, r, k, bit) in &draws {
            let (s, r) = (s as usize % p, r as usize % p);
            if silent >> s & 1 == 1 {
                continue;
            }
            let is_in = match modes >> (2 * ((s * p + r) % 8)) & 3 {
                0 => true,
                1 => false,
                _ => bit == 1,
            };
            shared[s][r].entry(k).or_insert(is_in);
        }
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let got = report_subsets(&mut net, |s| {
            shared[s].iter().enumerate().flat_map(|(r, keys)| {
                keys.iter().map(move |(k, &is_in)| (r, k, is_in))
            })
        });
        let mut units = 0;
        for (s, row) in shared.iter().enumerate() {
            for (r, keys) in row.iter().enumerate() {
                let (ins, outs): (Vec<&u64>, Vec<&u64>) = keys.keys().partition(|k| keys[k]);
                let want = match (ins.len(), outs.len()) {
                    (0, _) => 0,
                    (_, 0) => 1,
                    (i, o) => i.min(o),
                };
                let pair = encode_subset(&ins, &outs).len();
                prop_assert_eq!(pair, want, "pair ({}, {}) units", s, r);
                prop_assert!(pair <= ins.len());
                units += pair as u64;
                for (k, &is_in) in keys {
                    prop_assert_eq!(got[r].is_in(s, k), is_in, "pair ({}, {}) key {}", s, r, k);
                }
            }
        }
        prop_assert_eq!(net.stats().exchanges, 1);
        prop_assert_eq!(net.stats().total_messages, units);
    }

    #[test]
    fn packing_invariants_hold(
        weights in prop::collection::vec(1u32..=100, 0..200),
        p in 1usize..12,
    ) {
        let items: Vec<(u64, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u64, w as f64 / 100.0))
            .collect();
        let total: f64 = items.iter().map(|x| x.1).sum();
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let packing = parallel_packing(&mut net, Partitioned::distribute(items.clone(), p));
        let tagged = packing.items.gather_free();
        prop_assert_eq!(tagged.len(), items.len());
        let wmap: HashMap<u64, f64> = items.into_iter().collect();
        let mut bins: HashMap<u64, f64> = HashMap::new();
        for (id, bin) in tagged {
            prop_assert!(bin < packing.n_groups);
            *bins.entry(bin).or_insert(0.0) += wmap[&id];
        }
        let mut below_half = 0;
        for w in bins.values() {
            prop_assert!(*w <= 1.0 + 1e-9, "bin overflow {w}");
            if *w < 0.5 {
                below_half += 1;
            }
        }
        prop_assert!(below_half <= 1, "more than one under-full bin");
        prop_assert!(packing.n_groups as f64 <= 1.0 + 2.0 * total);
    }

    #[test]
    fn prefix_sum_equals_sequential(values in prop::collection::vec(0u64..1000, 1..60)) {
        let p = values.len();
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let (pre, total) = prefix_sum(&mut net, &values);
        let mut run = 0;
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(pre[i], run);
            run += v;
        }
        prop_assert_eq!(total, run);
    }

    #[test]
    fn allocation_tiles_the_range(
        demands in prop::collection::vec((0u64..100, 0u64..8), 0..40),
        p in 1usize..10,
    ) {
        // Distinct subproblem ids.
        let mut dedup: HashMap<u64, u64> = HashMap::new();
        for (j, d) in demands {
            dedup.insert(j, d);
        }
        let demands: Vec<(u64, u64)> = dedup.into_iter().collect();
        let want_total: u64 = demands.iter().map(|d| d.1).sum();
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let (table, total) = allocate_servers(&mut net, Partitioned::distribute(demands, p), 13);
        prop_assert_eq!(total, want_total);
        let mut allocs: Vec<_> = table.parts.gather_free();
        allocs.sort_by_key(|a| (a.1.start, a.1.len));
        // Non-empty ranges tile [0, total) exactly; empty ranges may share a
        // boundary with their neighbours but must stay inside the range.
        let mut cursor = 0;
        for (_, a) in allocs {
            if a.len == 0 {
                prop_assert!(a.start <= want_total);
                continue;
            }
            prop_assert_eq!(a.start, cursor);
            cursor = a.end();
        }
        prop_assert_eq!(cursor, want_total);
    }
}
