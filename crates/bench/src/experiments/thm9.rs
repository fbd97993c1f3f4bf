//! **Theorem 9 / Corollary 4** — free-connex join-aggregate queries: the
//! COUNT-group-by pipeline runs with load `O(IN/p + √(IN·OUT)/p)` where OUT
//! is the *aggregated* output size, and the scalar output-size primitive
//! (Corollary 4) runs with linear load even when the join itself is huge.

use aj_core::aggregate::{is_out_hierarchical, join_aggregate, output_size};
use aj_core::dist::distribute_db;
use aj_relation::semiring::{AnnRelation, CountRing};
use aj_relation::{database_from_rows, Database, Query};

use crate::experiments::{measure, with_cost};
use crate::table::{fmt_f, ExpTable};

fn line3_fanout(n: u64, f: u64) -> (Query, Database) {
    let q = aj_instancegen::line_query(3);
    let b_dom = (n / f).max(1);
    let mut db = database_from_rows(
        &q,
        &[
            (0..n).map(|i| vec![i, i % b_dom]).collect(),
            (0..n).map(|i| vec![i % b_dom, i % b_dom]).collect(),
            (0..n).map(|i| vec![i % b_dom, 9_000_000 + i]).collect(),
        ],
    );
    for r in &mut db.relations {
        r.dedup();
    }
    (q, db)
}

pub fn run() -> Vec<ExpTable> {
    let p = 16;
    let n = 1024u64;
    let mut t = ExpTable::new(
        format!("Theorem 9: COUNT(*) GROUP BY X0,X1 on line-3 (p={p})"),
        &with_cost(&[
            "fanout",
            "|join|",
            "OUT (groups)",
            "L measured",
            "Thm9 bound",
            "out-hier?",
        ]),
    );
    for f in [4u64, 16, 64] {
        let (q, db) = line3_fanout(n, f);
        let in_size = db.input_size() as u64;
        let join_size = aj_relation::ram::count(&q, &db);
        let y = vec![q.attr_by_name("X0").unwrap(), q.attr_by_name("X1").unwrap()];
        let (groups, load, cost) = measure(p, |net| {
            let ann: Vec<AnnRelation<CountRing>> = db
                .relations
                .iter()
                .map(AnnRelation::from_relation)
                .collect();
            let mut seed = 3;
            let out = join_aggregate::<CountRing>(net, &q, &ann, &y, &mut seed).unwrap();
            out.total_len()
        });
        let mut row = vec![
            f.to_string(),
            join_size.to_string(),
            groups.to_string(),
            load.to_string(),
            fmt_f(aj_core::bounds::acyclic_bound(in_size, groups as u64, p)),
            is_out_hierarchical(&q, &y).to_string(),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note("The load depends on the aggregated OUT (number of groups), not the raw join size.");

    // Corollary 4: |Q(R)| at linear load even when OUT explodes.
    let mut c = ExpTable::new(
        format!("Corollary 4: output-size computation at linear load (p={p})"),
        &with_cost(&["fanout", "OUT = |Q(R)|", "L measured", "IN/p"]),
    );
    for f in [4u64, 64, 256] {
        let (q, db) = line3_fanout(n, f);
        let in_size = db.input_size() as u64;
        let (out, load, cost) = measure(p, |net| {
            let dist = distribute_db(&db, p);
            let mut seed = 3;
            output_size(net, &q, &dist, &mut seed)
        });
        let mut row = vec![
            f.to_string(),
            out.to_string(),
            load.to_string(),
            fmt_f(in_size as f64 / p as f64),
        ];
        row.extend(cost.cells());
        c.row(row);
    }
    c.note("L stays Θ(IN/p) while OUT grows by orders of magnitude: counting is free, enumeration is not.");
    vec![t, c]
}
