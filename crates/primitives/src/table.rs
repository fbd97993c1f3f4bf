//! The distributed hash-table pattern: `own_by_key` builds a table whose
//! entries live at the hash-owner of their key; `lookup` answers per-server
//! key queries against it. Sum-by-key, semi-join and multi-search are thin
//! layers on top.
//!
//! Loads: building is one exchange of the table (linear). A lookup costs two
//! exchanges: requesters send each *distinct local* key once (≤ local input),
//! owners reply only to the requests that hit. Both directions are
//! `O(IN/p)` as long as the querying collection is balanced — which the
//! initial MPC placement guarantees.
//!
//! When the servers that need a key's answer are exactly the servers that
//! sent it in a preceding sum-by-key, the ask round is redundant: the owner
//! already heard from every holder. [`tally`] is sum-by-key's round with the
//! sender id in each item, so the owner keeps each key's holders beside its
//! total, and [`answer`] pushes one item per `(key, holder)` back in one
//! round — the units of a lookup's answer round, without its ask round.
//! Multi-numbering is a tally and an answer of per-holder prefix offsets.
//!
//! Once a tally (or a [`lookup_recording`], whose owners keep who hit) has
//! made owners and holders share key sets, later rounds between them need
//! not resend keys: [`report_subsets`] tells each receiver which shared
//! keys are *in* ([`encode_subset`]: nothing if none is, one marker if all
//! are, else the shorter of the in-list and the out-list). A pair never
//! costs more units than answering each in-key, and "nothing changed"
//! costs one unit per pair. The full reducer's top-down sweep is two such
//! rounds against the bottom-up sweep's resident owners.
//!
//! All per-server phases (local pre-aggregation, owner-side aggregation,
//! answer assembly) run through the round API ([`Net::round_map`],
//! [`Net::run_local`]), so a parallel executor runs them concurrently across
//! servers while the measured loads stay bit-identical to the sequential
//! executor.

use crate::fxhash::{fx_map_with_capacity, FxHashMap, FxHashSet};

use aj_mpc::{Net, Partitioned, ServerId, Wire};

use crate::key::Key;

/// A distributed key→value table: entry `(k, v)` lives on `k.owner(seed, p)`.
/// Each key appears at most once globally.
#[derive(Debug, Clone)]
pub struct OwnedTable<K: Key, V> {
    /// Routing seed deciding each key's owner.
    pub seed: u64,
    /// The entries, sharded by owner.
    pub parts: Partitioned<(K, V)>,
}

/// Aggregate `(key, value)` pairs per key with the associative `combine`,
/// returning an [`OwnedTable`] holding one entry per distinct key.
///
/// This is the paper's **sum-by-key** primitive: local pre-aggregation, then
/// one exchange to the key owner, then owner-side aggregation. One round.
pub fn sum_by_key<K: Key + Wire, V: Clone + Send + Wire>(
    net: &mut Net,
    pairs: Partitioned<(K, V)>,
    seed: u64,
    combine: impl Fn(V, V) -> V + Sync,
) -> OwnedTable<K, V> {
    let p = net.p();
    let received = net.round_map(pairs.into_parts(), |_, part: Vec<(K, V)>| {
        pre_aggregate(part, &combine)
            .into_iter()
            .map(|(k, v)| (k.owner(seed, p), (k, v)))
            .collect()
    });
    let parts = net.run_local(received, |_, entries: Vec<(K, V)>| {
        let mut v: Vec<(K, V)> = pre_aggregate(entries, &combine).into_iter().collect();
        v.sort_by(|a, b| a.0.cmp(&b.0)); // determinism
        v
    });
    OwnedTable {
        seed,
        parts: Partitioned::from_parts(parts),
    }
}

/// Merge one server's pairs per key, folding values in arrival order. Local
/// pre-aggregation bounds traffic per key at one unit per server.
fn pre_aggregate<K: Key, V: Clone>(
    part: Vec<(K, V)>,
    combine: &impl Fn(V, V) -> V,
) -> FxHashMap<K, V> {
    use std::collections::hash_map::Entry;
    // Entry-based merge: one hash probe per pair instead of remove+insert.
    let mut local: FxHashMap<K, V> = fx_map_with_capacity(part.len());
    for (k, v) in part {
        match local.entry(k) {
            Entry::Occupied(mut e) => {
                let merged = combine(e.get().clone(), v);
                e.insert(merged);
            }
            Entry::Vacant(e) => {
                e.insert(v);
            }
        }
    }
    local
}

/// The owner-side record of a [`tally`]: each key's total, exactly the table
/// [`sum_by_key`] builds, and the servers that sent the key — its
/// *holders* — with their partial sums, in server order.
#[derive(Debug, Clone)]
pub struct Tally<K: Key, V> {
    /// Each key's total, key-sorted per owner.
    pub totals: OwnedTable<K, V>,
    /// Per owner: every key's `(sender, partial)` run, runs in key order.
    holders: Vec<Vec<(ServerId, V)>>,
    /// Per owner, aligned with `totals.parts[owner]`: where each run ends.
    ends: Vec<Vec<usize>>,
}

impl<K: Key, V> Tally<K, V> {
    /// Owner `s`'s keys in key order, each with its total and its holders.
    pub fn entries(&self, s: ServerId) -> impl Iterator<Item = (&K, &V, &[(ServerId, V)])> {
        let holders = &self.holders[s];
        let starts = std::iter::once(0).chain(self.ends[s].iter().copied());
        self.totals.parts[s]
            .iter()
            .zip(starts.zip(&self.ends[s]))
            .map(move |((k, total), (lo, &hi))| (k, total, &holders[lo..hi]))
    }
}

/// **Sum-by-key that remembers its senders**: [`sum_by_key`]'s single round
/// with the sender id in each item, so each key's owner keeps the key's
/// holders and their partials beside its total. Same units as
/// [`sum_by_key`]: one per distinct local key per server.
pub fn tally<K: Key + Wire, V: Clone + Send + Sync + Wire>(
    net: &mut Net,
    pairs: Partitioned<(K, V)>,
    seed: u64,
    combine: impl Fn(V, V) -> V + Sync,
) -> Tally<K, V> {
    let p = net.p();
    let received = net.round_map(pairs.into_parts(), |s, part: Vec<(K, V)>| {
        pre_aggregate(part, &combine)
            .into_iter()
            .map(|(k, v)| (k.owner(seed, p), (k, s, v)))
            .collect()
    });
    let runs = net.run_local(received, |_, mut entries: Vec<(K, ServerId, V)>| {
        // Each sender pre-aggregated, so (key, sender) is unique.
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut totals: Vec<(K, V)> = Vec::new();
        let mut holders = Vec::with_capacity(entries.len());
        let mut ends = Vec::new();
        for (k, s, v) in entries {
            match totals.last_mut() {
                Some((last, total)) if *last == k => *total = combine(total.clone(), v.clone()),
                _ => {
                    totals.push((k, v.clone()));
                    ends.push(0);
                }
            }
            holders.push((s, v));
            *ends.last_mut().expect("a run per key") = holders.len();
        }
        (totals, (holders, ends))
    });
    let (totals, (holders, ends)): (Vec<_>, (Vec<_>, Vec<_>)) = runs.into_iter().unzip();
    Tally {
        totals: OwnedTable {
            seed,
            parts: Partitioned::from_parts(totals),
        },
        holders,
        ends,
    }
}

/// Answer a [`tally`]'s holders in one round, with no ask round: for each
/// key its owner calls `reply(owner, key, total, holders, out)`, which
/// pushes at most one answer per holder onto `out`, in holder order; the
/// `i`-th answer goes back to `holders[i]`'s server (pushing fewer leaves
/// the rest unanswered). Each server receives at most one item per distinct
/// key it sent — the units of [`lookup`]'s answer round — as a local map.
pub fn answer<K, V, A>(
    net: &mut Net,
    tally: &Tally<K, V>,
    reply: impl Fn(ServerId, &K, &V, &[(ServerId, V)], &mut Vec<A>) + Sync,
) -> Vec<FxHashMap<K, A>>
where
    K: Key + Wire,
    V: Sync,
    A: Send + Wire,
{
    let answers = net.round(|owner| {
        let mut out = Vec::with_capacity(tally.holders[owner].len());
        let mut replies = Vec::new();
        for (k, total, holders) in tally.entries(owner) {
            reply(owner, k, total, holders, &mut replies);
            debug_assert!(replies.len() <= holders.len(), "one answer per holder");
            for (&(to, _), a) in holders.iter().zip(replies.drain(..)) {
                out.push((to, (k.clone(), a)));
            }
        }
        out
    });
    net.run_local(answers, |_, entries: Vec<(K, A)>| {
        entries.into_iter().collect()
    })
}

/// One item of a [`report_subsets`] round: the sender, then the report
/// proper — `(true, None)` "all are in", `(true, Some(k))` "`k` is in" or
/// `(false, Some(k))` "`k` is out".
type ReportItem<K> = (ServerId, bool, Option<K>);

/// A **subset report** from one sender to one receiver about the keys the
/// two already share, split into the `ins` and the `outs`: no item when
/// none is in, one `(true, None)` when all are, else the shorter of the
/// in-list and the out-list (the in-list on a tie). So it costs at most one
/// unit per in-key, and one unit in all when nothing is out.
pub fn encode_subset<K: Clone>(ins: &[&K], outs: &[&K]) -> Vec<(bool, Option<K>)> {
    let list = |keys: &[&K], tag: bool| keys.iter().map(|&k| (tag, Some(k.clone()))).collect();
    match (ins.len(), outs.len()) {
        (0, _) => Vec::new(),
        (_, 0) => vec![(true, None)],
        (i, o) if o < i => list(outs, false),
        _ => list(ins, true),
    }
}

/// One sender's decoded [`encode_subset`] report.
#[derive(Debug, Clone)]
struct Report<K> {
    /// Out-list mode: every shared key not in `outs` is in.
    complement: bool,
    ins: FxHashSet<K>,
    outs: FxHashSet<K>,
}

impl<K> Default for Report<K> {
    fn default() -> Self {
        Report {
            complement: false,
            ins: FxHashSet::default(),
            outs: FxHashSet::default(),
        }
    }
}

/// What one receiver heard in a [`report_subsets`] round: per sender, which
/// of their shared keys are in.
#[derive(Debug, Clone)]
pub struct Reports<K> {
    from: Vec<Report<K>>,
}

impl<K: Key> Reports<K> {
    /// Decode a receiver's items. Every item decodes: an out-key or an
    /// all-marker (`(false, None)` included) puts its sender in out-list
    /// mode, where in-keys are ignored; items from a sender outside the
    /// view are dropped.
    fn decode(p: usize, items: Vec<ReportItem<K>>) -> Self {
        let mut from: Vec<Report<K>> = (0..p).map(|_| Report::default()).collect();
        for (s, is_in, k) in items {
            let Some(r) = from.get_mut(s) else { continue };
            match (is_in, k) {
                (true, Some(k)) => {
                    r.ins.insert(k);
                }
                (false, Some(k)) => {
                    r.complement = true;
                    r.outs.insert(k);
                }
                (_, None) => r.complement = true,
            }
        }
        Reports { from }
    }

    /// Is `k`, a key this receiver shares with `sender`, in? (Keys it does
    /// not share read as out unless `sender` reported in out-list mode.)
    pub fn is_in<Q>(&self, sender: ServerId, k: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: std::hash::Hash + Eq + ?Sized,
    {
        let Some(r) = self.from.get(sender) else {
            return false;
        };
        if r.complement {
            r.outs.is_empty() || !r.outs.contains(k)
        } else {
            !r.ins.is_empty() && r.ins.contains(k)
        }
    }
}

/// **Subset reports**: one round in which every sender tells each receiver
/// which keys of a set the two already share are in. `shared(s)` yields
/// sender `s`'s shared keys as `(receiver, key, in)`; each pair is sent as
/// [`encode_subset`], so a receiver gets at most one unit per in-key from
/// each sender — and one per sender when nothing changed. Returns each
/// receiver's decoded [`Reports`].
pub fn report_subsets<'a, K, I>(
    net: &mut Net,
    shared: impl Fn(ServerId) -> I + Sync,
) -> Vec<Reports<K>>
where
    K: Key + Wire + 'a,
    I: IntoIterator<Item = (ServerId, &'a K, bool)>,
{
    let p = net.p();
    let items = net.round(|s| {
        let mut halves: Vec<[Vec<&K>; 2]> = (0..p).map(|_| [Vec::new(), Vec::new()]).collect();
        for (to, k, is_in) in shared(s) {
            halves[to][usize::from(!is_in)].push(k);
        }
        let mut out = Vec::new();
        for (to, [ins, outs]) in halves.into_iter().enumerate() {
            out.extend(
                encode_subset(&ins, &outs)
                    .into_iter()
                    .map(|(is_in, k)| (to, (s, is_in, k))),
            );
        }
        out
    });
    net.run_local(items, |_, items| Reports::decode(p, items))
}

/// Build an [`OwnedTable`] from `(key, value)` pairs assumed to have globally
/// distinct keys (one exchange; panics in debug if duplicates collide).
pub fn own_by_key<K: Key + Wire, V: Send + Wire>(
    net: &mut Net,
    pairs: Partitioned<(K, V)>,
    seed: u64,
) -> OwnedTable<K, V> {
    let p = net.p();
    let received = net.round_map(pairs.into_parts(), |_, part: Vec<(K, V)>| {
        part.into_iter()
            .map(|(k, v)| (k.owner(seed, p), (k, v)))
            .collect()
    });
    let parts = net.run_local(received, |_, mut part: Vec<(K, V)>| {
        part.sort_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            part.windows(2).all(|w| w[0].0 != w[1].0),
            "own_by_key requires globally distinct keys"
        );
        part
    });
    OwnedTable {
        seed,
        parts: Partitioned::from_parts(parts),
    }
}

/// Query an [`OwnedTable`]: each server asks for its distinct local keys in
/// `requests` and receives a local map answering them (keys absent from the
/// table are absent from the map). Two rounds; the paper's **multi-search**
/// specialised to equality lookups.
pub fn lookup<K: Key + Wire, V: Clone + Send + Sync + Wire>(
    net: &mut Net,
    table: &OwnedTable<K, V>,
    requests: &Partitioned<K>,
) -> Vec<FxHashMap<K, V>> {
    lookup_recording(net, table, requests).0
}

/// Per owner, one `(entry, requester)` pair per request a
/// [`lookup_recording`] answered: `entry` indexes the owner's table part.
pub type Hits = Vec<Vec<(usize, ServerId)>>;

/// [`lookup`] whose owners keep a record of every hit: besides the answers,
/// returns per owner one `(entry, requester)` pair per answered request,
/// `entry` indexing `table.parts[owner]`, in arrival order. A later round
/// between an owner and its requesters can then name keys they share.
pub fn lookup_recording<K: Key + Wire, V: Clone + Send + Sync + Wire>(
    net: &mut Net,
    table: &OwnedTable<K, V>,
    requests: &Partitioned<K>,
) -> (Vec<FxHashMap<K, V>>, Hits) {
    let p = net.p();
    assert_eq!(requests.p(), p, "requests must span the same servers");
    // Phase 1: distinct local keys → owner, tagged with requester id.
    let asks = net.round(|s| {
        let distinct: FxHashSet<&K> = requests[s].iter().collect();
        distinct
            .into_iter()
            .map(|k| (k.owner(table.seed, p), (k.clone(), s)))
            .collect()
    });
    // Phase 2: owner answers (only hits; misses are implied).
    let hits = net.run_local(asks, |owner, asks: Vec<(K, ServerId)>| {
        let entries = &table.parts[owner];
        let index: FxHashMap<&K, usize> = entries
            .iter()
            .enumerate()
            .map(|(i, (k, _))| (k, i))
            .collect();
        asks.into_iter()
            .filter_map(|(k, requester)| Some((*index.get(&k)?, requester)))
            .collect::<Vec<_>>()
    });
    let answers = net.round(|owner| {
        let entries = &table.parts[owner];
        hits[owner]
            .iter()
            .map(|&(i, requester)| (requester, entries[i].clone()))
            .collect()
    });
    let answers = net.run_local(answers, |_, entries: Vec<(K, V)>| {
        entries.into_iter().collect()
    });
    (answers, hits)
}

/// The **semi-join** primitive: keep the items of `items` whose key occurs in
/// `right_keys`. Three rounds total, linear load.
pub fn semi_join<T: Send + Sync, K: Key + Wire>(
    net: &mut Net,
    items: Partitioned<T>,
    key_of: impl Fn(&T) -> K + Sync,
    right_keys: Partitioned<K>,
    seed: u64,
) -> Partitioned<T> {
    // Build the membership table (dedup at owner via sum_by_key on unit).
    let keyed = right_keys.map(|_, k| (k, ()));
    let table = sum_by_key(net, keyed, seed, |_, _| ());
    let request_keys =
        Partitioned::from_parts(net.run_each(|s| items[s].iter().map(&key_of).collect::<Vec<K>>()));
    let hits = lookup(net, &table, &request_keys);
    let kept = net.run_local(
        items.into_parts().into_iter().zip(hits).collect::<Vec<_>>(),
        |_, (part, map): (Vec<T>, FxHashMap<K, ()>)| {
            part.into_iter()
                .filter(|t| map.contains_key(&key_of(t)))
                .collect::<Vec<T>>()
        },
    );
    Partitioned::from_parts(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_mpc::Cluster;

    #[test]
    fn sum_by_key_totals() {
        let mut cluster = Cluster::new(4);
        let mut net = cluster.net();
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, 1u64)).collect();
        let parts = Partitioned::distribute(pairs, 4);
        let table = sum_by_key(&mut net, parts, 7, |a, b| a + b);
        let mut all: Vec<(u64, u64)> = table.parts.gather_free();
        all.sort_unstable();
        assert_eq!(all.len(), 10);
        assert!(all.iter().all(|&(_, c)| c == 10));
    }

    #[test]
    fn sum_by_key_load_is_linear_despite_skew() {
        // One heavy key: naive hash-routing of raw pairs would load one
        // server with everything; pre-aggregation caps it at p units.
        let p = 8;
        let n = 1000u64;
        let mut cluster = Cluster::new(p);
        {
            let mut net = cluster.net();
            let pairs: Vec<(u64, u64)> = (0..n).map(|_| (42u64, 1u64)).collect();
            let parts = Partitioned::distribute(pairs, p);
            let table = sum_by_key(&mut net, parts, 7, |a, b| a + b);
            assert_eq!(table.parts.gather_free(), vec![(42, n)]);
        }
        assert!(
            cluster.stats().max_load <= p as u64,
            "skewed sum-by-key overloaded: {}",
            cluster.stats().max_load
        );
    }

    #[test]
    fn lookup_answers_hits_and_misses() {
        let mut cluster = Cluster::new(3);
        let mut net = cluster.net();
        let table = own_by_key(
            &mut net,
            Partitioned::distribute(
                vec![
                    (1u64, "a".to_string()),
                    (2, "b".to_string()),
                    (3, "c".to_string()),
                ],
                3,
            ),
            11,
        );
        let requests = Partitioned::from_parts(vec![vec![1u64, 99], vec![2, 2, 2], vec![]]);
        let ans = lookup(&mut net, &table, &requests);
        assert_eq!(ans[0].get(&1).map(String::as_str), Some("a"));
        assert_eq!(ans[0].get(&99), None);
        assert_eq!(ans[1].get(&2).map(String::as_str), Some("b"));
        assert!(ans[2].is_empty());
    }

    #[test]
    fn lookup_duplicate_requests_cost_one_unit() {
        // A server asking the same key 1000 times sends it once.
        let p = 2;
        let mut cluster = Cluster::new(p);
        {
            let mut net = cluster.net();
            let table = own_by_key(&mut net, Partitioned::distribute(vec![(5u64, 1u8)], p), 3);
            let requests = Partitioned::from_parts(vec![vec![5u64; 1000], vec![]]);
            let ans = lookup(&mut net, &table, &requests);
            assert_eq!(ans[0].len(), 1);
        }
        // Build (1) + ask (1 per distinct) + answer (1): max load tiny.
        assert!(cluster.stats().max_load <= 2);
    }

    #[test]
    fn semi_join_filters_by_membership() {
        let mut cluster = Cluster::new(4);
        let mut net = cluster.net();
        let items = Partitioned::distribute((0..20u64).collect::<Vec<_>>(), 4);
        let keys = Partitioned::distribute(vec![0u64, 1], 4);
        let kept = semi_join(&mut net, items, |&x| x % 3, keys, 5);
        let mut got = kept.gather_free();
        got.sort_unstable();
        let want: Vec<u64> = (0..20).filter(|x| x % 3 <= 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn semi_join_with_duplicate_right_keys() {
        let mut cluster = Cluster::new(2);
        let mut net = cluster.net();
        let items = Partitioned::distribute(vec![1u64, 2, 3], 2);
        let keys = Partitioned::distribute(vec![2u64, 2, 2, 2], 2);
        let kept = semi_join(&mut net, items, |&x| x, keys, 5);
        assert_eq!(kept.gather_free(), vec![2]);
    }

    /// Primitives must behave identically on both executors.
    #[test]
    fn primitives_agree_across_executors() {
        let body = |net: &mut Net| {
            let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i % 37, i)).collect();
            let table = sum_by_key(net, Partitioned::distribute(pairs, net.p()), 9, |a, b| {
                a + b
            });
            let requests = Partitioned::distribute((0..60u64).collect::<Vec<_>>(), net.p());
            let ans = lookup(net, &table, &requests);
            let mut flat: Vec<(u64, u64)> = ans
                .into_iter()
                .flat_map(|m| m.into_iter().collect::<Vec<_>>())
                .collect();
            flat.sort_unstable();
            flat
        };
        let (a, sa) = aj_mpc::run(6, body);
        let (b, sb) = aj_mpc::run_parallel(6, body);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }
}
