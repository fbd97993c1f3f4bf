//! The **parallel-packing** primitive (Section 2): group weighted items
//! (weights in `(0, 1]`) into bins such that every bin's weight is ≤ 1 and
//! all bins but at most one have weight ≥ 1/2. The number of bins is then
//! at most `1 + 2·Σ weights`.
//!
//! Implementation: greedy local packing, then the per-server leftover groups
//! (each of weight < 1/2) are numbered by one [`coordinate`] call. The
//! coordinator packs them with the paper's two-level scheme — within sets
//! of `⌈√p⌉` servers, then the sets' own leftovers — as a pure local
//! function: 2 rounds and `O(p)` control units at one server, within
//! `O(IN/p)` whenever `IN ≥ p²`.

use aj_mpc::{Net, Partitioned};

use crate::prefix::coordinate;

/// Result of [`parallel_packing`].
#[derive(Debug, Clone)]
pub struct Packing<T> {
    /// Each item tagged with its bin id in `0..n_groups`, still on the
    /// server where it started (the assignment is metadata; moving the items
    /// is the caller's business).
    pub items: Partitioned<(T, u64)>,
    /// Total number of bins.
    pub n_groups: u64,
}

/// Pack weighted items into bins of capacity 1 (see module docs).
///
/// # Panics
/// Panics if any weight is outside `(0, 1]`.
pub fn parallel_packing<T>(net: &mut Net, items: Partitioned<(T, f64)>) -> Packing<T> {
    let p = net.p();
    assert_eq!(items.p(), p);
    // ---- Local greedy packing -------------------------------------------
    // Heavy items (w ≥ 1/2) close a bin alone; light items first-fit into a
    // running bin that closes once full. The (at most one) open bin per
    // server with weight < 1/2 is that server's "partial".
    struct Local<T> {
        // item, local bin id; bin ids: 0..full_bins are full, full_bins = partial.
        tagged: Vec<(T, usize)>,
        full_bins: usize,
        partial_weight: Option<f64>,
    }
    let mut locals: Vec<Local<T>> = Vec::with_capacity(p);
    for part in items.into_parts() {
        let mut tagged = Vec::with_capacity(part.len());
        let mut next_bin = 0usize;
        let mut open_weight = 0.0f64;
        let mut open_items: Vec<T> = Vec::new();
        for (item, w) in part {
            assert!(w > 0.0 && w <= 1.0, "packing weight {w} outside (0,1]");
            if w >= 0.5 {
                tagged.push((item, usize::MAX)); // placeholder, fixed below
                continue;
            }
            if open_weight + w > 1.0 {
                // Close the open bin (weight > 1/2 since w < 1/2).
                for it in open_items.drain(..) {
                    tagged.push((it, next_bin));
                }
                next_bin += 1;
                open_weight = 0.0;
            }
            open_weight += w;
            open_items.push(item);
        }
        // Assign heavy items their own bins.
        let mut fixed = Vec::with_capacity(tagged.len());
        for (item, b) in tagged {
            if b == usize::MAX {
                fixed.push((item, next_bin));
                next_bin += 1;
            } else {
                fixed.push((item, b));
            }
        }
        // Leftover open bin: partial iff weight < 1/2, else it's full.
        let mut partial_weight = None;
        if !open_items.is_empty() {
            if open_weight >= 0.5 {
                for it in open_items.drain(..) {
                    fixed.push((it, next_bin));
                }
                next_bin += 1;
            } else {
                partial_weight = Some(open_weight);
                for it in open_items.drain(..) {
                    fixed.push((it, next_bin)); // bin id == full_bins marker
                }
            }
        }
        locals.push(Local {
            tagged: fixed,
            // With a partial open bin, ids 0..next_bin are the full bins and
            // the partial's items carry id == next_bin; without one, all ids
            // 0..next_bin are full. Either way the count is next_bin.
            full_bins: next_bin,
            partial_weight,
        });
    }

    // ---- Number every bin at the coordinator ----------------------------
    let reports: Vec<(u64, Option<f64>)> = locals
        .iter()
        .map(|l| (l.full_bins as u64, l.partial_weight))
        .collect();
    let ids = coordinate(net, reports, number_bins);
    let n_groups = ids[0].2;

    // ---- Final local tagging --------------------------------------------
    let out_parts: Vec<Vec<(T, u64)>> = locals
        .into_iter()
        .zip(ids)
        .map(|(l, (base, partial_id, _))| {
            l.tagged
                .into_iter()
                .map(|(item, bin)| match partial_id {
                    Some(id) if bin == l.full_bins => (item, id),
                    _ => (item, base + bin as u64),
                })
                .collect()
        })
        .collect();
    Packing {
        items: Partitioned::from_parts(out_parts),
        n_groups,
    }
}

/// The coordinator's half of [`parallel_packing`]. From each server's
/// `(full bins, partial weight)` report, in server order, computes that
/// server's first full-bin id, its partial's bin id and the bin count.
///
/// Bins are numbered in three blocks: the servers' full bins (in server
/// order), then the full bins of the sets of `⌈√p⌉` consecutive servers
/// that greedily pack their members' partials, then the bins into which the
/// sets' own partials (each < 1/2) are greedily packed.
fn number_bins(reports: Vec<(u64, Option<f64>)>) -> Vec<(u64, Option<u64>, u64)> {
    let p = reports.len();
    let g = (p as f64).sqrt().ceil() as usize;
    let n_sets = p.div_ceil(g);
    // Level 1: each set packs its members' partials in server order; its
    // last bin is the set's own partial when below 1/2.
    let mut member_bin = vec![0u64; p];
    let mut set_full = vec![0u64; n_sets];
    let mut set_partial: Vec<Option<f64>> = vec![None; n_sets];
    for set in 0..n_sets {
        let mut bin = 0u64;
        let mut w_open = 0.0f64;
        for s in set * g..((set + 1) * g).min(p) {
            let Some(w) = reports[s].1 else { continue };
            if w_open + w > 1.0 {
                bin += 1;
                w_open = 0.0;
            }
            w_open += w;
            member_bin[s] = bin;
        }
        // Weights are positive, so w_open > 0 iff the set saw a partial.
        if w_open > 0.0 && w_open < 0.5 {
            set_full[set] = bin;
            set_partial[set] = Some(w_open);
        } else if w_open > 0.0 {
            set_full[set] = bin + 1;
        }
    }
    // Level 2: the sets' partials, in set order.
    let mut root_bin = vec![0u64; n_sets];
    let mut root_bins = 0u64;
    let mut w_open = 0.0f64;
    for (set, partial) in set_partial.iter().enumerate() {
        let Some(w) = *partial else { continue };
        if w_open + w > 1.0 {
            root_bins += 1;
            w_open = 0.0;
        }
        w_open += w;
        root_bin[set] = root_bins;
    }
    if w_open > 0.0 {
        root_bins += 1;
    }

    let total_full: u64 = reports.iter().map(|r| r.0).sum();
    let total_set_full: u64 = set_full.iter().sum();
    let n_bins = total_full + total_set_full + root_bins;
    let mut set_base = Vec::with_capacity(n_sets);
    let mut run = total_full;
    for &full in &set_full {
        set_base.push(run);
        run += full;
    }
    let mut base = 0u64;
    reports
        .into_iter()
        .enumerate()
        .map(|(s, (full, partial))| {
            let set = s / g;
            let partial_id = partial.map(|_| {
                if member_bin[s] < set_full[set] {
                    set_base[set] + member_bin[s]
                } else {
                    total_full + total_set_full + root_bin[set]
                }
            });
            base += full;
            (base - full, partial_id, n_bins)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
    use aj_mpc::Cluster;

    fn check_invariants(weights: &[(u64, f64)], packing: &Packing<u64>) {
        let items = packing.items.clone().gather_free();
        assert_eq!(items.len(), weights.len());
        let wmap: FxHashMap<u64, f64> = weights.iter().copied().collect();
        let mut bin_weight: FxHashMap<u64, f64> = FxHashMap::default();
        for (id, bin) in &items {
            assert!(*bin < packing.n_groups, "bin id out of range");
            *bin_weight.entry(*bin).or_insert(0.0) += wmap[id];
        }
        let mut under_half = 0;
        for w in bin_weight.values() {
            assert!(*w <= 1.0 + 1e-9, "bin overflows: {w}");
            if *w < 0.5 {
                under_half += 1;
            }
        }
        assert!(under_half <= 1, "more than one bin below 1/2");
        let total: f64 = weights.iter().map(|w| w.1).sum();
        assert!(
            packing.n_groups as f64 <= 1.0 + 2.0 * total,
            "too many bins: {} for total weight {total}",
            packing.n_groups
        );
    }

    fn run_case(p: usize, weights: Vec<f64>) {
        let tagged: Vec<(u64, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u64, w))
            .collect();
        let mut cluster = Cluster::new(p);
        let mut net = cluster.net();
        let parts = Partitioned::distribute(tagged.clone(), p);
        let packing = parallel_packing(&mut net, parts);
        check_invariants(&tagged, &packing);
    }

    #[test]
    fn uniform_small_weights() {
        run_case(4, vec![0.1; 100]);
    }

    #[test]
    fn heavy_items_get_own_bins() {
        run_case(3, vec![0.9, 0.8, 0.7, 0.6, 0.55]);
    }

    #[test]
    fn mixed_weights() {
        let w: Vec<f64> = (1..200)
            .map(|i| ((i * 37) % 100) as f64 / 100.0 + 0.005)
            .collect();
        let w: Vec<f64> = w.into_iter().map(|x| x.min(1.0)).collect();
        run_case(8, w);
    }

    #[test]
    fn single_server() {
        run_case(1, vec![0.3, 0.3, 0.3, 0.3, 0.2]);
    }

    #[test]
    fn tiny_weights_many_servers() {
        run_case(16, vec![0.01; 64]);
    }

    #[test]
    fn empty_input() {
        let mut cluster = Cluster::new(4);
        let mut net = cluster.net();
        let parts: Partitioned<(u64, f64)> = Partitioned::empty(4);
        let packing = parallel_packing(&mut net, parts);
        assert_eq!(packing.n_groups, 0);
        assert!(packing.items.is_empty());
    }

    /// The exact bin of every item and the bin count on fixed inputs: 96
    /// items of weight in `[0.01, 0.61]`, some heavy, spread in contiguous
    /// chunks, so the local, group-level and root-level greedy passes all
    /// take part at the larger `p`. Any change to how bins are numbered
    /// fails here, even one that keeps the packing invariants.
    #[test]
    fn bin_ids_are_pinned() {
        const PINNED: [(usize, u64, [u64; 96]); 5] = [
            (
                1,
                41,
                [
                    0, 0, 0, 0, 1, 1, 21, 1, 1, 2, 2, 22, 2, 2, 3, 3, 23, 3, 3, 4, 4, 24, 4, 5, 5,
                    5, 25, 6, 6, 6, 7, 26, 7, 7, 27, 7, 8, 8, 8, 28, 8, 8, 9, 9, 29, 9, 9, 10, 10,
                    30, 10, 11, 11, 11, 31, 12, 12, 12, 13, 32, 13, 13, 14, 14, 14, 15, 15, 33, 15,
                    15, 16, 16, 34, 16, 16, 17, 17, 35, 17, 17, 18, 18, 36, 18, 19, 19, 19, 37, 20,
                    20, 20, 40, 38, 40, 40, 39,
                ],
            ),
            (
                3,
                42,
                [
                    0, 0, 0, 0, 1, 1, 7, 1, 1, 2, 2, 8, 2, 2, 3, 3, 9, 3, 3, 4, 4, 10, 4, 5, 5, 5,
                    11, 6, 6, 6, 41, 12, 13, 13, 20, 13, 13, 14, 14, 21, 14, 14, 15, 15, 22, 15,
                    15, 16, 16, 23, 16, 17, 17, 17, 24, 18, 18, 18, 19, 25, 19, 19, 26, 26, 27, 27,
                    27, 33, 27, 27, 28, 28, 34, 28, 28, 29, 29, 35, 29, 29, 30, 30, 36, 30, 31, 31,
                    31, 37, 32, 32, 32, 40, 38, 40, 40, 39,
                ],
            ),
            (
                8,
                43,
                [
                    0, 0, 0, 0, 1, 1, 2, 1, 1, 4, 4, 3, 5, 5, 5, 5, 7, 6, 6, 6, 9, 8, 9, 9, 10, 10,
                    12, 11, 11, 11, 15, 13, 15, 15, 14, 15, 16, 16, 16, 18, 16, 16, 17, 17, 19, 17,
                    17, 42, 20, 22, 20, 20, 21, 21, 23, 21, 25, 25, 25, 24, 26, 26, 26, 27, 27, 27,
                    27, 28, 29, 29, 29, 29, 32, 30, 30, 30, 30, 33, 31, 31, 31, 35, 34, 35, 36, 36,
                    36, 38, 37, 37, 37, 41, 39, 41, 41, 40,
                ],
            ),
            (
                16,
                44,
                [
                    0, 0, 0, 0, 1, 1, 2, 4, 4, 4, 4, 3, 5, 5, 5, 5, 6, 41, 7, 7, 7, 8, 41, 41, 9,
                    9, 10, 11, 11, 11, 14, 12, 14, 14, 13, 14, 16, 16, 16, 15, 16, 16, 17, 17, 18,
                    17, 17, 42, 19, 20, 19, 19, 21, 21, 23, 22, 22, 22, 42, 24, 25, 25, 25, 26, 26,
                    26, 28, 27, 28, 28, 28, 28, 29, 31, 31, 31, 31, 30, 32, 32, 32, 34, 33, 34, 35,
                    35, 35, 36, 43, 43, 37, 37, 38, 40, 40, 39,
                ],
            ),
            (
                64,
                47,
                [
                    0, 0, 34, 34, 1, 1, 2, 34, 34, 34, 35, 3, 35, 35, 4, 4, 5, 36, 6, 6, 36, 7, 36,
                    36, 8, 8, 9, 37, 10, 10, 37, 11, 12, 12, 13, 38, 38, 38, 38, 14, 39, 39, 15,
                    15, 16, 39, 46, 46, 40, 17, 40, 40, 18, 18, 19, 40, 20, 20, 41, 21, 41, 41, 22,
                    22, 42, 42, 42, 23, 42, 42, 24, 24, 25, 43, 43, 43, 43, 26, 46, 46, 27, 27, 28,
                    44, 29, 29, 44, 30, 45, 45, 31, 31, 32, 45, 45, 33,
                ],
            ),
        ];
        let weights: Vec<(u64, f64)> = (0..96u64)
            .map(|i| (i, ((i * 37 + 11) % 61 + 1) as f64 / 100.0))
            .collect();
        let got: Vec<(usize, u64, [u64; 96])> = PINNED
            .iter()
            .map(|&(p, _, _)| {
                let mut cluster = Cluster::new(p);
                let mut net = cluster.net();
                let packing =
                    parallel_packing(&mut net, Partitioned::distribute(weights.clone(), p));
                let mut bins = [0u64; 96];
                for (item, bin) in packing.items.gather_free() {
                    bins[item as usize] = bin;
                }
                (p, packing.n_groups, bins)
            })
            .collect();
        assert_eq!(got, PINNED);
    }
}
