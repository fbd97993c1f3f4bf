//! **Theorem 4 / Corollary 1** — the output-optimal closed form for
//! r-hierarchical joins: `L = Θ(IN/p^{1/max(1,k*−1)} + (OUT/p)^{1/k*})`
//! with `k* = ⌈log_IN OUT⌉`. The hard instances follow the Lemma-1
//! construction: a cover chain `C_{k*−1} ⊆ C_{k*}` of relations whose
//! unique attributes carry the domain mass, so the join degenerates to a
//! `k*`-wise Cartesian product.

use aj_core::bounds;
use aj_instancegen::shapes;
use aj_relation::{database_from_rows, ram, Database, Query};

use crate::experiments::{measure_hierarchical, with_cost};
use crate::table::{fmt_f, ExpTable};

/// The Theorem-4 tight instance on the star query R1(X,A1) ⋈ … ⋈ Rm(X,Am):
/// the first `k` relations get `n` distinct unique-attribute values (on one
/// shared X value), the rest get one — so `|⋈_{C_j}| = n^j` for j ≤ k.
fn tight_instance(m: usize, n: u64, k: usize) -> (Query, Database) {
    let q = shapes::star_query(m);
    let rows: Vec<Vec<Vec<u64>>> = (0..m)
        .map(|i| {
            let dom = if i < k { n } else { 1 };
            (0..dom)
                .map(|v| vec![0, (i as u64 + 1) * 1_000_000 + v])
                .collect()
        })
        .collect();
    (q.clone(), database_from_rows(&q, &rows))
}

pub fn run() -> Vec<ExpTable> {
    let p = 16;
    let m = 3;
    let n = 64u64;
    let mut t = ExpTable::new(
        format!("Theorem 4: output-optimal closed form for r-hierarchical joins (star-{m}, p={p})"),
        &with_cost(&[
            "k (product arity)",
            "IN",
            "OUT",
            "k*",
            "L measured",
            "Thm4 bound",
            "ratio",
            "Cor1 bound √(OUT/p)",
        ]),
    );
    for k in 1..=m {
        let (q, db) = tight_instance(m, n, k);
        let in_size = db.input_size() as u64;
        let out = ram::count(&q, &db);
        let (cnt, load, cost) = measure_hierarchical(p, &q, &db);
        assert_eq!(cnt as u64, out);
        let b4 = bounds::theorem4_bound(in_size, out, p);
        let mut row = vec![
            k.to_string(),
            in_size.to_string(),
            out.to_string(),
            bounds::k_star(in_size, out).to_string(),
            load.to_string(),
            fmt_f(b4),
            fmt_f(load as f64 / b4),
            fmt_f(bounds::r_hierarchical_bound(in_size, out, p)),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note("k* tracks ⌈log_IN OUT⌉: the load exponent on OUT flattens from 1/1 to 1/k*.");
    t.note("Corollary 1's cruder IN/p + √(OUT/p) upper-bounds every row (loose for k* > 2).");
    vec![t]
}
