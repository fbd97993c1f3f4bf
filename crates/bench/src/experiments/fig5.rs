//! **Figure 5** — the join-tree decomposition of Section 5.1 on the paper's
//! example query `e0(A,B,D,G)` with six leaf children, plus a measured run
//! of the Theorem-7 algorithm on it.

use aj_instancegen::{random, shapes};
use aj_relation::ram;

use crate::experiments::{measure_acyclic, with_cost};
use crate::table::{fmt_f, ExpTable};

pub fn run() -> Vec<ExpTable> {
    let q = shapes::figure5_query();
    let tree = q.join_tree().expect("acyclic");
    let children = tree.children();
    let mut t = ExpTable::new(
        "Figure 5: join tree of e0(A,B,D,G) ⋈ e1(A,B,C) ⋈ e2(B,D) ⋈ e3(B) ⋈ e4(A,D,E) ⋈ e5(D,F) ⋈ e6(H)",
        &["edge", "attrs", "parent", "s_i = e0 ∩ e_i"],
    );
    let e0 = 0usize;
    for (e, edge) in q.edges().iter().enumerate() {
        let attrs: Vec<&str> = edge.attrs.iter().map(|&a| q.attr_name(a)).collect();
        let parent = tree.parent[e]
            .map(|p| q.edge(p).name.clone())
            .unwrap_or_else(|| "(root)".into());
        let shared: Vec<&str> = edge
            .attrs
            .iter()
            .filter(|a| q.edge(e0).attrs.contains(a))
            .map(|&a| q.attr_name(a))
            .collect();
        let s = if e == e0 {
            "—".to_string()
        } else if shared.is_empty() {
            "∅ (dummy attr)".to_string()
        } else {
            shared.join(",")
        };
        t.row(vec![edge.name.clone(), attrs.join(","), parent, s]);
    }
    t.row(vec![
        "(leaf children of e0)".into(),
        children[e0]
            .iter()
            .map(|&c| q.edge(c).name.clone())
            .collect::<Vec<_>>()
            .join(","),
        format!("2^k = {} sub-joins", 1u32 << children[e0].len()),
        "".into(),
    ]);

    // A measured run on a random instance.
    let db = random::random_instance(&q, 400, 8, 99);
    let out = ram::count(&q, &db);
    let p = 16;
    let (cnt, load, cost) = measure_acyclic(p, &q, &db);
    assert_eq!(cnt as u64, out);
    let mut m = ExpTable::new(
        "Figure 5 query: measured Theorem-7 run",
        &with_cost(&["IN", "OUT", "p", "L measured", "Thm7 bound"]),
    );
    let mut row = vec![
        db.input_size().to_string(),
        out.to_string(),
        p.to_string(),
        load.to_string(),
        fmt_f(aj_core::bounds::acyclic_bound(
            db.input_size() as u64,
            out,
            p,
        )),
    ];
    row.extend(cost.cells());
    m.row(row);
    vec![t, m]
}
