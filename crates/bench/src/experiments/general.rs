//! **General** — cyclic queries beyond the triangle (not a paper figure;
//! the general-query path of this repository): GHD bag evaluation
//! ([`aj_core::general`], priced as `Plan::Ghd`) vs whole-query HyperCube
//! (`Plan::WorstCase`) on a seeded batch of random cyclic queries from
//! [`aj_instancegen::randquery`].
//!
//! Both arms run on the same distributed instance and must produce the
//! same normalized output — the same bit-identity the 100-seed fuzz
//! (`tests/general_queries.rs`) checks against the RAM oracle, asserted
//! here at bench scale on every row. The table reports per-query loads and
//! the plan [`aj_core::planner::pick`] takes from the cyclic candidates at the
//! measured sizes: GHD wins when a sparse cyclic core joins appendage
//! edges (HyperCube must replicate the *whole* query's relations), and the
//! planner falls back to HyperCube on dense compact cores where one-shot
//! replication is the cheaper round.

use aj_core::dist::distribute_db;
use aj_core::planner::{candidates, execute, pick, Plan};
use aj_instancegen::randquery::{self, QueryShape};
use aj_relation::{Ghd, JoinClass, Query, Tuple};

use super::{measure, with_wall};
use crate::table::ExpTable;

/// Tuples drawn per relation (debug builds scale down so the experiment
/// smoke test stays fast).
const N: usize = if cfg!(debug_assertions) { 40 } else { 200 };
/// Per-attribute value domain: a few times `N`'s square root so binary
/// relations stay sparse and cycle outputs stay bounded.
const DOMAIN: u64 = if cfg!(debug_assertions) { 16 } else { 40 };
/// Cluster size of every cell.
const P: usize = 8;

/// The fixed random cyclic batch: `(shape, attachments, seed)` triples,
/// spanning even/odd cycles, cliques, thetas, and attachment-decorated
/// variants (higher arities, duplicate attribute sets).
const BATCH: &[(QueryShape, usize, u64)] = &[
    (QueryShape::EvenCycle, 0, 0xa1),
    (QueryShape::OddCycle, 0, 0xa2),
    (QueryShape::Clique, 0, 0xa3),
    (QueryShape::Theta, 0, 0xa4),
    (QueryShape::Clique, 1, 0xa5),
    (QueryShape::EvenCycle, 2, 0xa6),
];

/// Run one plan arm and return the normalized gathered output (sorted, so
/// the two arms — and, inside [`measure`], the executors — compare equal).
fn run_arm(net: &mut aj_mpc::Net, plan: Plan, q: &Query, db: &aj_relation::Database) -> Vec<Tuple> {
    let dist = distribute_db(db, net.p());
    let mut seed = 17;
    let out = execute(net, plan, q, dist, &mut seed).normalized();
    let mut tuples = out.gather_free().tuples;
    tuples.sort_unstable();
    tuples.dedup();
    tuples
}

fn general_table() -> ExpTable {
    let mut t = ExpTable::new(
        format!(
            "General cyclic queries: GHD bags vs whole-query HyperCube, \
             n = {N}/relation, domain = {DOMAIN}, p = {P}"
        ),
        &with_wall(&[
            "query", "m", "attrs", "bags", "w", "IN", "OUT", "L(hcube)", "L(ghd)", "ratio", "plan",
        ]),
    );
    for &(shape, attachments, seed) in BATCH {
        let q = randquery::random_query_of(shape, attachments, seed);
        assert!(!q.is_acyclic(), "the batch is cyclic by construction");
        let db = randquery::uniform_instance(&q, N, DOMAIN, seed ^ 0xfeed);
        let in_size = db.input_size();
        let sizes: Vec<u64> = db.relations.iter().map(|r| r.len() as u64).collect();
        let ghd = Ghd::build(&q).expect("connected query");
        let cyclic = JoinClass::Cyclic;
        let (plan, _est) = pick(cyclic, &candidates(cyclic, &q, &sizes, None, P));
        let (out_hcube, l_hcube, _) = measure(P, |net| run_arm(net, Plan::WorstCase, &q, &db));
        let (out_ghd, l_ghd, wall) = measure(P, |net| run_arm(net, Plan::Ghd, &q, &db));
        assert_eq!(
            out_hcube, out_ghd,
            "{shape:?}#{seed:x}: the two plans must agree on the output"
        );
        let label = format!("{shape:?}+{attachments}");
        super::record(super::BenchRecord {
            label: format!("general:{label}-ghd"),
            p: P,
            max_load: l_ghd,
            units: out_ghd.len() as u64,
            seq_ms: wall.seq_ms,
            par_ms: wall.par_ms,
            net_ms: wall.net_ms,
            wire_bytes: wall.wire_bytes,
            wire_payload: None,
            wire_retransmit: None,
            wire_ack: None,
            trace_events: None,
        });
        let mut row = vec![
            label,
            q.n_edges().to_string(),
            q.n_attrs().to_string(),
            ghd.n_bags().to_string(),
            ghd.width().to_string(),
            in_size.to_string(),
            out_ghd.len().to_string(),
            l_hcube.to_string(),
            l_ghd.to_string(),
            format!("{:.2}", l_ghd as f64 / l_hcube as f64),
            plan.to_string(),
        ];
        row.extend(wall.cells());
        t.row(row);
    }
    t.note(
        "Both arms run on the same placement and must emit the same normalized output (asserted).",
    );
    t.note(
        "plan = the planner's pick at the measured sizes; ties and trivial \
         single-bag GHDs fall back to hcube.",
    );
    t
}

/// Run the general-queries experiment.
pub fn run() -> Vec<ExpTable> {
    vec![general_table()]
}
