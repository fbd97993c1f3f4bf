//! **Figure 6 / Theorem 11** — the output-sensitive triangle lower bound:
//! the worst-case-optimal HyperCube load is flat in OUT at `IN/p^{2/3}`,
//! matching the lower bound once `OUT ≥ IN·p^{1/3}`; below that regime the
//! triangle is provably harder than any acyclic join by `Ω̃(√(OUT/IN))`.

use aj_core::dist::distribute_db;
use aj_core::hypercube::worst_case_join;
use aj_core::triangle;
use aj_instancegen::fig6;

use crate::experiments::{measure, with_cost};
use crate::table::{fmt_f, ExpTable};

pub fn run() -> Vec<ExpTable> {
    let p = 27; // 3^3: clean cube-root shares
    let n = 729u64;
    let mut t = ExpTable::new(
        format!("Figure 6: triangle join, HyperCube vs Theorem-11 bound (N={n}, p={p})"),
        &with_cost(&[
            "τ=OUT/N",
            "OUT",
            "L measured",
            "IN/p^(2/3)",
            "Thm11 lower",
            "acyclic-equiv bound",
        ]),
    );
    for tau in [1u64, 3, 9, 27] {
        let inst = fig6::generate(n, n * tau, 13 + tau);
        let in_size = inst.db.input_size() as u64;
        let (cnt, load, cost) = measure(p, |net| {
            worst_case_join(net, &inst.query, distribute_db(&inst.db, p), 5).total_len()
        });
        assert_eq!(cnt as u64, inst.out);
        let mut row = vec![
            inst.tau.to_string(),
            inst.out.to_string(),
            load.to_string(),
            fmt_f(triangle::worst_case_load(in_size, p)),
            fmt_f(triangle::lower_bound(in_size, inst.out, p)),
            fmt_f(triangle::acyclic_comparison_bound(in_size, inst.out, p)),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note("Measured HyperCube load is flat in OUT (≈ IN/p^(2/3)): output-insensitive.");
    t.note(format!(
        "Crossover: for OUT ≥ IN·p^(1/3) ≈ {} the worst-case algorithm is also output-optimal.",
        (3 * n) as f64 * (p as f64).powf(1.0 / 3.0)
    ));
    t.note("Below the crossover the acyclic-equivalent bound is smaller: cyclic joins are harder (Section 7).");
    vec![t]
}
