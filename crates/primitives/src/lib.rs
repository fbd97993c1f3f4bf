//! The MPC primitives of Section 2 of the paper, each running in `O(1)`
//! rounds with linear load `O(IN/p)` (in expectation over the routing hash
//! for the key-based ones).
//!
//! The paper realizes these primitives with sorting-based techniques from
//! Hu–Tao–Yi and Goodrich et al.; this crate uses hash-routing equivalents
//! (a distributed hash-table "lookup" pattern) which achieve the same load
//! bounds in expectation and are considerably simpler. Control values that
//! must be globally aggregated (prefix sums, packing of leftover groups) go
//! through one [`coordinate`] call: one gather to server 0 and one scatter
//! back, 2 rounds and `O(p)` control units at that one coordinator. That is
//! within the `O(IN/p)` load whenever `IN ≥ p²` — true in every experiment
//! regime (see ARCHITECTURE.md).
//!
//! Provided primitives:
//!
//! * [`sum_by_key`] — per-key aggregation;
//! * [`own_by_key`] / [`lookup`] — build and query a distributed hash table
//!   (the workhorse behind multi-search and semi-join); [`lookup_recording`]
//!   also leaves each owner the requesters it answered;
//! * [`tally`] / [`answer`] — sum-by-key that remembers each key's holders,
//!   and one round answering exactly those holders (no ask round);
//! * [`report_subsets`] — tell each receiver which keys of a set the two
//!   already share are in, at most one unit per in-key per pair
//!   ([`encode_subset`]; one unit in all when nothing is out);
//! * [`multi_numbering`] — consecutive numbering `0,1,2,…` within each key
//!   (a tally plus an answer of [`prefix_offsets`]);
//! * [`semi_join`] — `R1 ⋉ R2` on a key extractor;
//! * [`coordinate`] — one control item per server gathered, answered, scattered;
//! * [`prefix_sum`] — exclusive per-server prefix sums;
//! * [`parallel_packing`] — group weighted items into `O(total weight)` bins;
//! * [`allocate_servers`] — the server-allocation primitive.
//!
//! All per-server work inside the data-heavy primitives (pre-aggregation,
//! owner-side merging, answer assembly) goes through the round API of
//! [`aj_mpc`], so it runs concurrently under [`aj_mpc::ParExecutor`] with
//! loads bit-identical to the sequential executor.
//!
//! ```
//! use aj_mpc::{Cluster, Partitioned};
//! use aj_primitives::sum_by_key;
//!
//! let mut cluster = Cluster::new(4); // or Cluster::new_parallel(4)
//! let mut net = cluster.net();
//! let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 10, 1)).collect();
//! let table = sum_by_key(&mut net, Partitioned::distribute(pairs, 4), 7, |a, b| a + b);
//! assert_eq!(table.parts.total_len(), 10); // one entry per distinct key
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod alloc;
mod key;
mod numbering;
mod packing;
mod prefix;
mod table;

/// Deterministic Fx hashing, re-exported from the base crate (the module
/// moved to `aj_relation` so `aj_mpc` and `aj_relation` itself can use it
/// without a dependency cycle; these paths are kept for compatibility).
pub use aj_relation::fxhash;
pub use aj_relation::fxhash::{
    fx_map_with_capacity, fx_set_with_capacity, FxBuildHasher, FxHashMap, FxHashSet, FxHasher,
};
pub use alloc::{allocate_servers, Allocation};
pub use key::{values_owner, Key};
pub use numbering::{multi_numbering, prefix_offsets};
pub use packing::{parallel_packing, Packing};
pub use prefix::{coordinate, prefix_sum};
pub use table::{
    answer, encode_subset, lookup, lookup_recording, own_by_key, report_subsets, semi_join,
    sum_by_key, tally, Hits, OwnedTable, Reports, Tally,
};

/// Routing seed namespace for this crate's primitives; callers that need
/// uncorrelated placements pass their own seeds.
pub const DEFAULT_SEED: u64 = 0x5eed_0001;
