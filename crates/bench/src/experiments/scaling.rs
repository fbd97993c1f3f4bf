//! **Scaling** — the binary join's load across cluster sizes.
//!
//! Not a figure of the paper: one fixed binary join (fanout 12 per side,
//! `OUT = 6·IN`) measured at `p ∈ {4, 8, 16}`, so the `L` column shows the
//! load falling with `p`. Like every experiment it reports exact loads and
//! costs only; with `repro --parallel` or `--backend net` each join re-runs
//! on that executor with the same `Stats` and result asserted. The wall
//! clock of the same instance is `mpcbench`'s `bulk_binary` workload.

use aj_core::binary::binary_join;
use aj_core::dist::distribute_db;
use aj_relation::{database_from_rows, Database};

use super::{measure, with_cost};
use crate::table::ExpTable;

/// Per-side relation size (scaled down in debug builds so the experiment
/// smoke test stays fast; `repro` release builds use the full size).
const N: u64 = if cfg!(debug_assertions) {
    4_000
} else {
    48_000
};

fn instance(n: u64) -> Database {
    let q = aj_instancegen::line_query(2);
    let keys = (n / 12).max(1); // fanout 12 per side → OUT = 144·keys
    let mut db = database_from_rows(
        &q,
        &[
            (0..n).map(|i| vec![i, i % keys]).collect(),
            (0..n).map(|i| vec![i % keys, 10_000_000 + i]).collect(),
        ],
    );
    for r in &mut db.relations {
        r.dedup();
    }
    db
}

pub fn run() -> Vec<ExpTable> {
    let db = instance(N);
    let mut t = ExpTable::new(
        format!(
            "Scaling: binary join load across p (IN={})",
            db.input_size()
        ),
        &with_cost(&["p", "OUT", "L"]),
    );
    for p in [4usize, 8, 16] {
        let (out, load, cost) = measure(p, |net| {
            let mut dist = distribute_db(&db, p).into_iter();
            let (left, right) = (dist.next().unwrap(), dist.next().unwrap());
            let mut seed = 7;
            binary_join(net, left, right, &mut seed).total_len()
        });
        let mut row = vec![p.to_string(), out.to_string(), load.to_string()];
        row.extend(cost.cells());
        t.row(row);
    }
    vec![t]
}
