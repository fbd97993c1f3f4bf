//! The triangle join `R1(B,C) ⋈ R2(A,C) ⋈ R3(A,B)` (Section 7).
//!
//! The paper proves the first output-sensitive *lower bound*
//! `Ω̃(min{IN/p + OUT/p, IN/p^{2/3}})` for the triangle (Theorem 11) and
//! observes the worst-case-optimal HyperCube algorithm with cube-root shares
//! (load `O(IN/p^{2/3})` \[24\]) is also output-optimal once
//! `OUT ≥ IN·p^{1/3}`. That algorithm is
//! [`crate::hypercube::worst_case_join`]; this module holds the bound
//! formulas the Figure-6 experiment compares it against.

/// The worst-case-optimal load `IN/p^{2/3}`.
pub fn worst_case_load(in_size: u64, p: usize) -> f64 {
    in_size as f64 / (p as f64).powf(2.0 / 3.0)
}

/// The Theorem-11 output-sensitive lower bound
/// `Ω̃(min{IN/p + OUT/(p·log IN), IN/p^{2/3}})`.
pub fn lower_bound(in_size: u64, out_size: u64, p: usize) -> f64 {
    let pf = p as f64;
    let log_in = (in_size.max(2) as f64).ln();
    (in_size as f64 / pf + out_size as f64 / (pf * log_in)).min(worst_case_load(in_size, p))
}

/// The acyclic-join bound `IN/p + √(IN·OUT)/p` — what the load *would* be if
/// the triangle were acyclic; Theorem 11 shows the triangle must exceed it
/// by `Ω̃(√(OUT/IN))` in the `OUT ≤ IN·p^{1/3}` regime (the separation the
/// Figure-6 experiment plots).
pub fn acyclic_comparison_bound(in_size: u64, out_size: u64, p: usize) -> f64 {
    (in_size as f64 + (in_size as f64 * out_size as f64).sqrt()) / p as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use crate::hypercube::worst_case_join;
    use aj_instancegen::fig6;
    use aj_mpc::Cluster;
    use aj_relation::ram;

    #[test]
    fn triangle_matches_bruteforce() {
        let inst = fig6::generate(120, 240, 5);
        let want = ram::naive_join(&inst.query, &inst.db);
        let p = 8;
        let mut cluster = Cluster::new(p);
        let out = {
            let mut net = cluster.net();
            worst_case_join(&mut net, &inst.query, distribute_db(&inst.db, p), 3)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(got.len() as u64, inst.out);
    }

    #[test]
    fn load_near_worst_case_bound() {
        let inst = fig6::generate(600, 2400, 9);
        let p = 8;
        let in_size = inst.db.input_size() as u64;
        let mut cluster = Cluster::new(p);
        {
            let mut net = cluster.net();
            worst_case_join(&mut net, &inst.query, distribute_db(&inst.db, p), 3);
        }
        let bound = worst_case_load(in_size, p);
        let load = cluster.stats().max_load as f64;
        assert!(
            load <= 8.0 * bound,
            "triangle load {load} far above IN/p^(2/3) = {bound}"
        );
    }

    #[test]
    fn bound_formulas_cross_at_predicted_regime() {
        let in_size = 1u64 << 16;
        let p = 64;
        // OUT below IN·p^{1/3}: the OUT/p branch of the min is active.
        let small_out = in_size;
        assert!(lower_bound(in_size, small_out, p) < worst_case_load(in_size, p));
        // OUT = IN^{3/2}: the worst-case branch caps the bound.
        let huge_out = (in_size as f64).powf(1.5) as u64;
        assert_eq!(
            lower_bound(in_size, huge_out, p),
            worst_case_load(in_size, p)
        );
    }
}
