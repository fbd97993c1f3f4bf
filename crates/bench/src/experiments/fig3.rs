//! **Figure 3** — the hard instances for the Yannakakis algorithm
//! (Section 4.1): join order matters in MPC, and on the two-sided instance
//! *no* global order is good, motivating the heavy/light decomposition.

use aj_core::bounds;

use crate::experiments::{measure_line3, measure_yannakakis, with_cost};
use crate::table::{fmt_f, ExpTable};

pub fn run() -> Vec<ExpTable> {
    let p = 16;
    let n = 512;
    let mut one = ExpTable::new(
        format!(
            "Figure 3 (one-sided): Yannakakis join order matters (IN≈{}, p={p})",
            3 * n
        ),
        &with_cost(&[
            "OUT",
            "L (R1⋈R2)⋈R3",
            "L R1⋈(R2⋈R3)",
            "L line-3 alg",
            "(IN+OUT)/p",
            "Thm5 bound",
        ]),
    );
    for factor in [1u64, 4, 16, 64] {
        let inst = aj_instancegen::fig3::one_sided(n, n * factor);
        let in_size = inst.db.input_size() as u64;
        let (_, l_bad, _) = measure_yannakakis(p, &inst.query, &inst.db, Some(vec![0, 1, 2]));
        let (_, l_good, _) = measure_yannakakis(p, &inst.query, &inst.db, Some(vec![2, 1, 0]));
        let (cnt, l_ours, cost) = measure_line3(p, &inst.query, &inst.db);
        assert_eq!(cnt as u64, inst.out);
        let mut row = vec![
            inst.out.to_string(),
            l_bad.to_string(),
            l_good.to_string(),
            l_ours.to_string(),
            fmt_f(bounds::yannakakis_bound(in_size, inst.out, p)),
            fmt_f(bounds::acyclic_bound(in_size, inst.out, p)),
        ];
        row.extend(cost.cells());
        one.row(row);
    }
    one.note(
        "The (R1⋈R2)⋈R3 order materializes an OUT-sized intermediate; R1⋈(R2⋈R3) stays linear.",
    );

    let mut two = ExpTable::new(
        format!(
            "Figure 3 (two-sided): no global order is good (IN≈{}, p={p})",
            6 * n
        ),
        &with_cost(&[
            "OUT",
            "L fwd order",
            "L rev order",
            "L line-3 alg",
            "Thm5 bound",
        ]),
    );
    for factor in [4u64, 16, 64] {
        let inst = aj_instancegen::fig3::two_sided(n, n * factor);
        let in_size = inst.db.input_size() as u64;
        let (_, l_fwd, _) = measure_yannakakis(p, &inst.query, &inst.db, Some(vec![0, 1, 2]));
        let (_, l_rev, _) = measure_yannakakis(p, &inst.query, &inst.db, Some(vec![2, 1, 0]));
        let (cnt, l_ours, cost) = measure_line3(p, &inst.query, &inst.db);
        assert_eq!(cnt as u64, inst.out);
        let mut row = vec![
            inst.out.to_string(),
            l_fwd.to_string(),
            l_rev.to_string(),
            l_ours.to_string(),
            fmt_f(bounds::acyclic_bound(in_size, inst.out, p)),
        ];
        row.extend(cost.cells());
        two.row(row);
    }
    two.note(
        "Both orders pay Ω(OUT/p) on the glued instance; the Theorem-5 decomposition does not.",
    );
    vec![one, two]
}
