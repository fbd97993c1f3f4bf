//! **Theorem 3** — instance-optimality for r-hierarchical joins: the
//! measured load of the Section-3.2 algorithm stays within a constant factor
//! of `IN/p + L_instance(p,R)` across skew levels, while the skew-oblivious
//! one-round HyperCube baseline degrades.

use aj_core::bounds;
use aj_core::dist::distribute_db;
use aj_core::hypercube::worst_case_join;
use aj_instancegen::shapes;
use aj_relation::{Database, Relation, Tuple};

use crate::experiments::{measure, measure_hierarchical, with_cost};
use crate::table::{fmt_f, ExpTable};

/// A star-join instance R1(X,A) ⋈ R2(X,B) where a `frac` fraction of each
/// relation concentrates on a single X value.
fn star_instance(n: u64, frac: f64) -> (aj_relation::Query, Database) {
    let q = shapes::star_query(2);
    let heavy = (n as f64 * frac) as u64;
    let keys = 64;
    let mk = |offset: u64| -> Relation {
        let mut tuples: Vec<Tuple> = Vec::with_capacity(n as usize);
        for i in 0..n {
            let x = if i < heavy { 0 } else { 1 + (i % keys) };
            tuples.push(Tuple::from([x, offset + i]));
        }
        Relation::new(vec![0, if offset == 0 { 1 } else { 2 }], tuples)
    };
    (q, Database::new(vec![mk(0), mk(1_000_000)]))
}

pub fn run() -> Vec<ExpTable> {
    let p = 16;
    let n = 1024u64;
    let mut t = ExpTable::new(
        format!(
            "Theorem 3: instance-optimality ratio on skewed star joins (IN={}, p={p})",
            2 * n
        ),
        &with_cost(&[
            "skew",
            "OUT",
            "L_instance",
            "L Thm3",
            "ratio",
            "L HyperCube",
            "HC ratio",
        ]),
    );
    for frac in [0.0, 0.05, 0.25, 0.5] {
        let (q, db) = star_instance(n, frac);
        let l_inst = bounds::l_instance(&q, &db, p) + db.input_size() as f64 / p as f64;
        let out = aj_relation::ram::count(&q, &db);
        let (cnt, load, cost) = measure_hierarchical(p, &q, &db);
        assert_eq!(cnt as u64, out);
        let (_, hc_load, _) = measure(p, |net| {
            worst_case_join(net, &q, distribute_db(&db, p), 9).total_len()
        });
        let mut row = vec![
            format!("{frac:.2}"),
            out.to_string(),
            fmt_f(l_inst),
            load.to_string(),
            fmt_f(load as f64 / l_inst),
            hc_load.to_string(),
            fmt_f(hc_load as f64 / l_inst),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note("Thm3's ratio stays O(1) as skew grows; the skew-oblivious HyperCube ratio grows with the heavy value.");
    vec![t]
}
