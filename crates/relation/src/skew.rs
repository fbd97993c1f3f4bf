//! Skew profiles: compact, globally-shared summaries of heavy hitters.
//!
//! Hash routing balances load only when no single join-key value carries a
//! constant fraction of a relation — exactly the assumption Zipf-like real
//! workloads violate. A [`SkewProfile`] is the small artifact a one-pass
//! distributed detection produces (see `aj_mpc::skew::detect_heavy_hitters`):
//! the approximate frequencies of the top-k keys of one relation side, plus
//! the exact total. Being small (`O(k)` entries), it can be broadcast to
//! every server for the cost of one control round and then consulted *for
//! free* during routing — every server derives the identical heavy-key
//! directives from the identical profile.
//!
//! [`JoinSkew`] pairs the two sides of a binary join; [`grid_split`] and
//! [`target_cell_load`] are the pure placement math of the hybrid router
//! (`aj_core::binary::hybrid_hash_join`).
//!
//! ```
//! use aj_relation::skew::{JoinSkew, SkewProfile};
//! use aj_relation::Tuple;
//!
//! // A profile over 1-ary join keys: key 7 appears 900 times out of 1000.
//! let profile = SkewProfile::from_counts(
//!     1,
//!     1000,
//!     vec![(Tuple::from([7u64]), 900), (Tuple::from([3u64]), 40)],
//! );
//! assert_eq!(profile.count_of(&[7]), Some(900));
//! assert!(profile.is_heavy(&[7]) && !profile.is_heavy(&[99]));
//! assert_eq!(profile.max_count(), 900);
//!
//! // Keep only keys above a server's fair share on p = 10 servers.
//! let significant = profile.filtered(1000 / 10);
//! assert_eq!(significant.len(), 1);
//!
//! let join = JoinSkew {
//!     left: significant.clone(),
//!     right: SkewProfile::empty(1),
//! };
//! assert!(join.is_skewed());
//! ```

use crate::tuple::{Tuple, Value};

/// Approximate heavy-hitter frequencies of one relation projected onto a
/// join key, plus the exact total row count.
///
/// Entries are kept sorted by key, so membership and count lookups are
/// `O(log k)` binary searches probing with a bare value slice. Counts coming
/// out of the distributed detection are *lower bounds* on the true global
/// frequencies (each server reports only its local top-k); the exact
/// [`SkewProfile::total`] makes the bounds usable for thresholding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewProfile {
    key_arity: usize,
    total: u64,
    /// `(key, count)` sorted by key.
    heavy: Vec<(Tuple, u64)>,
}

impl SkewProfile {
    /// A profile with no heavy keys (total 0) over keys of the given arity.
    pub fn empty(key_arity: usize) -> Self {
        SkewProfile {
            key_arity,
            total: 0,
            heavy: Vec::new(),
        }
    }

    /// Build a profile from `(key, count)` candidates and the exact total.
    ///
    /// # Panics
    /// Panics if any key's arity differs from `key_arity` or a key repeats.
    pub fn from_counts(key_arity: usize, total: u64, mut counts: Vec<(Tuple, u64)>) -> Self {
        for (k, _) in &counts {
            assert_eq!(k.arity(), key_arity, "profile key arity mismatch");
        }
        counts.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        for w in counts.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate key in skew profile");
        }
        SkewProfile {
            key_arity,
            total,
            heavy: counts,
        }
    }

    /// Arity of the profiled join key.
    pub fn key_arity(&self) -> usize {
        self.key_arity
    }

    /// Exact total number of rows the profile summarizes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of heavy-key entries.
    pub fn len(&self) -> usize {
        self.heavy.len()
    }

    /// Does the profile carry no heavy keys?
    pub fn is_empty(&self) -> bool {
        self.heavy.is_empty()
    }

    /// The `(key, count)` entries, sorted by key.
    pub fn entries(&self) -> &[(Tuple, u64)] {
        &self.heavy
    }

    /// The recorded count of `key`, if it is a heavy hitter.
    pub fn count_of(&self, key: &[Value]) -> Option<u64> {
        self.heavy
            .binary_search_by(|(k, _)| k.values().cmp(key))
            .ok()
            .map(|i| self.heavy[i].1)
    }

    /// Is `key` one of the recorded heavy hitters?
    pub fn is_heavy(&self, key: &[Value]) -> bool {
        self.count_of(key).is_some()
    }

    /// The largest recorded frequency (0 for an empty profile).
    pub fn max_count(&self) -> u64 {
        self.heavy.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// The profile restricted to keys with `count >= threshold` (the entries
    /// a router should actually special-case). Total is unchanged.
    pub fn filtered(&self, threshold: u64) -> SkewProfile {
        SkewProfile {
            key_arity: self.key_arity,
            total: self.total,
            heavy: self
                .heavy
                .iter()
                .filter(|&&(_, c)| c >= threshold)
                .cloned()
                .collect(),
        }
    }
}

/// The two per-side [`SkewProfile`]s of one binary join, over the shared
/// join key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSkew {
    /// Heavy hitters of the left (build) side.
    pub left: SkewProfile,
    /// Heavy hitters of the right (probe) side.
    pub right: SkewProfile,
}

impl JoinSkew {
    /// A skew-free pair of empty profiles over keys of the given arity.
    pub fn empty(key_arity: usize) -> Self {
        JoinSkew {
            left: SkewProfile::empty(key_arity),
            right: SkewProfile::empty(key_arity),
        }
    }

    /// `IN` of the join: the two exact totals combined.
    pub fn input_size(&self) -> u64 {
        self.left.total() + self.right.total()
    }

    /// Does either side record any heavy hitter?
    pub fn is_skewed(&self) -> bool {
        !self.left.is_empty() || !self.right.is_empty()
    }

    /// The union of both sides' heavy keys with the per-side counts (absent
    /// side → 0), sorted by key — the key set the hybrid router
    /// special-cases. Both routing sides derive the identical table from the
    /// identical profiles.
    pub fn merged_keys(&self) -> Vec<(Tuple, u64, u64)> {
        let mut out: Vec<(Tuple, u64, u64)> = Vec::new();
        let (l, r) = (self.left.entries(), self.right.entries());
        let (mut i, mut j) = (0usize, 0usize);
        while i < l.len() || j < r.len() {
            match (l.get(i), r.get(j)) {
                (Some((lk, lc)), Some((rk, rc))) => match lk.cmp(rk) {
                    std::cmp::Ordering::Less => {
                        out.push((lk.clone(), *lc, 0));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push((rk.clone(), 0, *rc));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push((lk.clone(), *lc, *rc));
                        i += 1;
                        j += 1;
                    }
                },
                (Some((lk, lc)), None) => {
                    out.push((lk.clone(), *lc, 0));
                    i += 1;
                }
                (None, Some((rk, rc))) => {
                    out.push((rk.clone(), 0, *rc));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        out
    }

    /// Both profiles restricted to keys at or above their side's fair share
    /// `total_side / p` — the keys that can overload a server all by
    /// themselves on a `p`-server cluster.
    pub fn significant(&self, p: usize) -> JoinSkew {
        let tau = |total: u64| (total / p as u64).max(2);
        JoinSkew {
            left: self.left.filtered(tau(self.left.total())),
            right: self.right.filtered(tau(self.right.total())),
        }
    }
}

/// The hybrid router's per-cell load target for a join with the given heavy
/// keys: `L = max(1, ⌈IN/2p⌉, ⌈√(OUT_heavy/p)⌉)` where `OUT_heavy = Σ_k a·b`
/// is the output the heavy keys alone produce. Mirrors the paper's binary
/// target load with the profile's approximate degrees standing in for the
/// exact ones; the `IN/2p` (rather than `IN/p`) floor keeps each cell's
/// **two-sided** total `⌈a/r⌉ + ⌈b/c⌉ ≤ 2L` within one server's fair input
/// share, so a grid cell never re-creates the hot spot it was built to
/// split.
pub fn target_cell_load(skew: &JoinSkew, p: usize) -> u64 {
    let out_heavy: u64 = skew
        .merged_keys()
        .iter()
        .map(|&(_, a, b)| a.saturating_mul(b))
        .sum();
    let lin = skew.input_size().div_ceil(2 * p as u64);
    let lout = ((out_heavy as f64 / p as f64).sqrt()).ceil() as u64;
    lin.max(lout).max(1)
}

/// Grid dimensions for one heavy key with (approximate) per-side counts
/// `(a, b)` at cell-load target `load`: the left side is sliced into
/// `⌈a/load⌉` rows, the right into `⌈b/load⌉` columns, so each of the
/// `rows × cols` cells receives at most `2·load` rows of this key
/// (`a/rows + b/cols ≤ 2·load`). A count of 0 (key unseen on that side)
/// still gets one slice.
pub fn grid_split(a: u64, b: u64, load: u64) -> (u64, u64) {
    let load = load.max(1);
    (a.div_ceil(load).max(1), b.div_ceil(load).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u64) -> Tuple {
        Tuple::from([v])
    }

    #[test]
    fn lookup_and_filter() {
        let p = SkewProfile::from_counts(1, 100, vec![(key(5), 60), (key(2), 10)]);
        assert_eq!(p.count_of(&[5]), Some(60));
        assert_eq!(p.count_of(&[2]), Some(10));
        assert_eq!(p.count_of(&[9]), None);
        assert_eq!(p.max_count(), 60);
        let f = p.filtered(20);
        assert_eq!(f.len(), 1);
        assert!(f.is_heavy(&[5]) && !f.is_heavy(&[2]));
        assert_eq!(f.total(), 100);
    }

    #[test]
    fn merged_keys_unions_sides() {
        let l = SkewProfile::from_counts(1, 10, vec![(key(1), 4), (key(3), 6)]);
        let r = SkewProfile::from_counts(1, 20, vec![(key(3), 9), (key(7), 11)]);
        let m = JoinSkew { left: l, right: r }.merged_keys();
        assert_eq!(m, vec![(key(1), 4, 0), (key(3), 6, 9), (key(7), 0, 11)]);
    }

    #[test]
    fn grid_split_slices_to_target() {
        assert_eq!(grid_split(100, 100, 50), (2, 2));
        assert_eq!(grid_split(100, 10, 50), (2, 1));
        assert_eq!(grid_split(0, 7, 50), (1, 1));
        // Per-cell rows stay within 2·load.
        let (r, c) = grid_split(999, 501, 100);
        assert!(999u64.div_ceil(r) + 501u64.div_ceil(c) <= 200);
    }

    #[test]
    fn target_load_tracks_in_and_heavy_out() {
        let l = SkewProfile::from_counts(1, 1000, vec![(key(0), 900)]);
        let r = SkewProfile::from_counts(1, 1000, vec![(key(0), 900)]);
        let js = JoinSkew { left: l, right: r };
        // OUT_heavy = 810_000 on p = 9: √(OUT/p) = 300 > IN/p = 223.
        assert_eq!(target_cell_load(&js, 9), 300);
        // Skew-free: IN/p dominates.
        assert_eq!(target_cell_load(&JoinSkew::empty(1), 9), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        SkewProfile::from_counts(2, 10, vec![(key(1), 5)]);
    }
}
