//! **Section 1.3** — skew separates instances within one `R(IN, OUT)`
//! class: the balanced and the skewed 3-set Cartesian products share IN and
//! OUT, but their per-instance lower bounds (Eq. (1)) differ — the paper's
//! motivation for instance-optimal analysis.

use aj_core::hypercube::{cartesian_shares, hypercube_join};
use aj_instancegen::cartesian;

use crate::experiments::{measure, with_cost};
use crate::table::{fmt_f, ExpTable};

pub fn run() -> Vec<ExpTable> {
    let p = 64;
    let in_size = 512u64;
    let s = (in_size as f64).sqrt() as u64;
    let cases = [
        ("balanced (√IN,√IN,IN)", vec![s, s, in_size - 2 * s]),
        ("skewed (1,IN/2,IN/2)", vec![1, in_size / 2, in_size / 2]),
    ];
    let mut t = ExpTable::new(
        format!("Section 1.3: Cartesian skew separation (IN={in_size}, p={p})"),
        &with_cost(&[
            "instance",
            "OUT",
            "L_Cartesian (Eq. 1)",
            "L measured (HyperCube)",
            "exponent of OUT",
        ]),
    );
    for (name, sizes) in &cases {
        let (q, db) = cartesian::instance(sizes);
        let out: u64 = sizes.iter().product();
        let lower = cartesian::cartesian_lower_bound(sizes, p);
        let (cnt, load, cost) = measure(p, |net| {
            let shares = cartesian_shares(sizes, p);
            hypercube_join(net, &q, &db, &shares, 3).total_len()
        });
        assert_eq!(cnt as u64, out);
        // Which (OUT/p)^(1/k) regime does the bound sit in?
        let exp = (lower.ln() / ((out as f64 / p as f64).ln())).recip();
        let mut row = vec![
            name.to_string(),
            out.to_string(),
            fmt_f(lower),
            load.to_string(),
            format!("~1/{:.1}", exp),
        ];
        row.extend(cost.cells());
        t.row(row);
    }
    t.note("Same IN, comparable OUT — but the skewed instance's Eq.(1) bound is (OUT/p)^(1/2) vs (OUT/p)^(1/3).");
    t.note("HyperCube with per-instance shares tracks each instance's own bound: instance-optimality on products.");
    vec![t]
}
