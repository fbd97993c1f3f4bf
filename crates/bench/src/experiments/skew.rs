//! **Skew** — heavy-hitter routing under Zipf workloads (not a paper
//! figure; the skew-aware execution path of this repository).
//!
//! Two comparisons, both on deterministic `aj_instancegen::skew` instances:
//!
//! 1. **Binary join** (`p = 32`): the hash-only baseline vs the hybrid
//!    router (`aj_core::binary::hybrid_hash_join`) vs the paper's
//!    exact-degree grid, across Zipf exponents. Expected shape: at `s = 0`
//!    the hybrid is *bit-identical* to the hash join (empty profile); at
//!    `s = 1.1` the hybrid's load is at most half the hash join's, tracking
//!    the paper's `max(IN/p, √(OUT/p))` target instead of the heavy key's
//!    degree.
//! 2. **Triangle / HyperCube** (`p = 8`): plain HyperCube placement vs the
//!    skew-aware partition/replicate placement on Zipf-vertex triangles.
//!
//! Detection is measured as its own cell (the engine runs it in the
//! planning epoch); the routing columns compare the join rounds proper.

use aj_core::binary::{binary_join, detect_join_skew, hash_join, hybrid_hash_join};
use aj_core::dist::{distribute_db, DistRelation};
use aj_core::hypercube::{
    detect_hypercube_skew, hypercube_join_skew, worst_case_shares, HypercubeSkew,
};
use aj_instancegen::skew::{zipf_binary, zipf_triangle};

use super::{measure, with_cost};
use crate::table::ExpTable;

/// Tuples per side of the binary instances (debug builds scale down so the
/// experiment smoke test stays fast).
const N_BINARY: u64 = if cfg!(debug_assertions) { 1_500 } else { 8_000 };
/// Edges per relation of the triangle instances.
const N_TRIANGLE: u64 = if cfg!(debug_assertions) { 800 } else { 4_000 };
/// Join-key domain of the binary instances.
const DOMAIN: u64 = 64;
/// Per-server nomination budget of the detections.
const TOP_K: usize = 16;

fn binary_table() -> ExpTable {
    let p = 32usize;
    let mut t = ExpTable::new(
        format!(
            "Skew-aware binary join: Zipf(s) keys over domain {DOMAIN}, n = {N_BINARY}/side, p = {p}"
        ),
        &with_cost(&["s", "IN", "OUT", "L(hash)", "L(detect)", "L(hybrid)", "hy/ha", "L(grid)"]),
    );
    for (si, s) in [0.0f64, 0.8, 1.1].into_iter().enumerate() {
        let inst = zipf_binary(N_BINARY, s, DOMAIN, 0xbead + si as u64);
        let in_size = inst.db.input_size();
        let sides = |p: usize| {
            (
                DistRelation::distribute(&inst.db.relations[0], p),
                DistRelation::distribute(&inst.db.relations[1], p),
            )
        };
        // The profile the hybrid consults, detected once as its own cell
        // (the engine's planning epoch).
        let (skew, l_detect, _) = measure(p, |net| {
            let (left, right) = sides(p);
            detect_join_skew(net, &left, &right, TOP_K).significant(p)
        });
        let (out_hash, l_hash, _) = measure(p, |net| {
            let (left, right) = sides(p);
            let mut seed = 7;
            hash_join(net, left, right, &mut seed).total_len()
        });
        let (out_hybrid, l_hybrid, cost) = measure(p, |net| {
            let (left, right) = sides(p);
            let mut seed = 7;
            hybrid_hash_join(net, left, right, &skew, &mut seed).total_len()
        });
        let (out_grid, l_grid, _) = measure(p, |net| {
            let (left, right) = sides(p);
            let mut seed = 7;
            binary_join(net, left, right, &mut seed).total_len()
        });
        assert_eq!(out_hash, out_hybrid, "routing modes must agree on OUT");
        assert_eq!(out_hash, out_grid, "grid join must agree on OUT");
        if s == 0.0 {
            assert!(skew.left.is_empty() && skew.right.is_empty());
            assert_eq!(
                l_hybrid, l_hash,
                "empty profile must reproduce hash routing bit for bit"
            );
        }
        if s >= 1.0 {
            assert!(skew.is_skewed(), "Zipf({s}) must trip the detector");
            assert!(
                2 * l_hybrid <= l_hash,
                "hybrid load {l_hybrid} must be ≤ half of hash load {l_hash} at s = {s}"
            );
        }
        let mut row = vec![
            format!("{s:.1}"),
            in_size.to_string(),
            out_hash.to_string(),
            l_hash.to_string(),
            l_detect.to_string(),
            l_hybrid.to_string(),
            format!("{:.2}", l_hybrid as f64 / l_hash as f64),
            l_grid.to_string(),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note(
        "hy/ha = L(hybrid)/L(hash). At s=0 the profile is empty and the hybrid IS the hash join.",
    );
    t.note("L(grid) is the paper's exact-degree binary join — the multi-round gold standard the one-round hybrid tracks.");
    t
}

fn triangle_table() -> ExpTable {
    let p = 8usize;
    let mut t = ExpTable::new(
        format!(
            "Skew-aware HyperCube: Zipf(s) triangle vertices, n = {N_TRIANGLE}/relation, p = {p}"
        ),
        &with_cost(&[
            "s",
            "IN",
            "OUT",
            "L(hcube)",
            "L(detect)",
            "L(skew-hc)",
            "ratio",
        ]),
    );
    for (si, s) in [0.0f64, 1.1].into_iter().enumerate() {
        // Domain a few times the hot hub's degree so dedup keeps the skew
        // (see the generator docs).
        let inst = zipf_triangle(N_TRIANGLE, s, N_TRIANGLE / 2, 0xcafe + si as u64);
        let in_size = inst.db.input_size() as u64;
        let sizes: Vec<u64> = inst.db.relations.iter().map(|r| r.len() as u64).collect();
        let shares = worst_case_shares(&inst.query, &sizes, p);
        let (skew, l_detect, _) = measure(p, |net| {
            let dist = distribute_db(&inst.db, p);
            // Threshold: a third of the fair share — each hot hub has one
            // dominant contributing relation, so per-relation counts sit
            // well below the combined per-attribute mass.
            detect_hypercube_skew(
                net,
                &inst.query,
                &dist,
                &shares,
                TOP_K,
                in_size / (3 * p as u64),
            )
        });
        let (out_plain, l_plain, _) = measure(p, |net| {
            let dist = distribute_db(&inst.db, p);
            hypercube_join_skew(net, &inst.query, dist, &shares, &HypercubeSkew::empty(), 13)
                .total_len()
        });
        let (out_skew, l_skew, cost) = measure(p, |net| {
            let dist = distribute_db(&inst.db, p);
            hypercube_join_skew(net, &inst.query, dist, &shares, &skew, 13).total_len()
        });
        assert_eq!(out_plain, out_skew, "placements must agree on OUT");
        if s == 0.0 {
            assert!(
                skew.is_empty(),
                "uniform vertices must not trip the detector"
            );
            assert_eq!(l_skew, l_plain, "empty profile is bit-identical");
        } else {
            assert!(
                !skew.is_empty(),
                "Zipf({s}) vertices must trip the detector"
            );
            // HyperCube's replication floor dominates at p = 8, so the win
            // is bounded; it must still be a real one.
            assert!(
                (l_skew as f64) <= 0.95 * l_plain as f64,
                "skew-aware load {l_skew} must improve on plain {l_plain}"
            );
        }
        let mut row = vec![
            format!("{s:.1}"),
            in_size.to_string(),
            out_plain.to_string(),
            l_plain.to_string(),
            l_detect.to_string(),
            l_skew.to_string(),
            format!("{:.2}", l_skew as f64 / l_plain as f64),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note("Heavy vertices: the designated relation partitions across the value's dimension, the rest replicate.");
    t
}

/// Run the skew experiment.
pub fn run() -> Vec<ExpTable> {
    vec![binary_table(), triangle_table()]
}
