//! **Figure 4 / Theorem 6** — the randomized lower-bound instance for the
//! line-3 join: the measured load of the Theorem-5 algorithm sits between
//! the lower bound `Ω̃(min{√(IN·OUT)/(p·log IN), IN/√p})` and its own upper
//! bound, and the `J(L)` counting argument holds empirically.

use aj_core::bounds;
use aj_instancegen::fig4;

use crate::experiments::{measure_line3, with_cost};
use crate::table::{fmt_f, ExpTable};

pub fn run() -> Vec<ExpTable> {
    let p = 16;
    let n = 768u64;
    let mut t = ExpTable::new(
        format!("Figure 4: line-3 lower-bound instance (N={n}, p={p})"),
        &with_cost(&["τ", "OUT", "L measured", "lower bnd", "Thm5 bound", "IN/√p"]),
    );
    for tau in [2u64, 4, 8] {
        let inst = fig4::generate(n, n * tau * tau, 42 + tau);
        let in_size = inst.db.input_size() as u64;
        let (cnt, load, cost) = measure_line3(p, &inst.query, &inst.db);
        assert_eq!(cnt as u64, inst.out);
        let lower = bounds::line3_lower_bound(in_size, inst.out, p);
        let mut row = vec![
            inst.tau.to_string(),
            inst.out.to_string(),
            load.to_string(),
            fmt_f(lower),
            fmt_f(bounds::acyclic_bound(in_size, inst.out, p)),
            fmt_f(bounds::line3_worst_case(in_size, p)),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note("Measured load is sandwiched: lower bound ≤ L ≤ O(Thm5 bound).");

    // The J(L) counting argument: a server that loads whole groups of τ
    // tuples from R1/R3 can produce at most ~δ·τ²L²/N results; loading
    // everything must still cover OUT with p servers.
    let mut j = ExpTable::new(
        "Figure 4: J(L) counting argument (paper Eq. (6)–(8))",
        &["L", "J(L) bound", "p·J(L)", "OUT", "p·J(L) ≥ OUT?"],
    );
    let inst = fig4::generate(n, n * 16, 7);
    for l in [
        inst.db.input_size() as u64 / p as u64,
        (inst.db.input_size() as u64) / 4,
        inst.db.input_size() as u64,
    ] {
        let jl = fig4::max_results_per_server(&inst, l);
        let pj = jl * p as f64;
        j.row(vec![
            l.to_string(),
            fmt_f(jl),
            fmt_f(pj),
            inst.out.to_string(),
            (pj >= inst.out as f64).to_string(),
        ]);
    }
    j.note(
        "Only loads with p·J(L) ≥ OUT can possibly emit every result — the source of the Ω̃ bound.",
    );
    vec![t, j]
}
