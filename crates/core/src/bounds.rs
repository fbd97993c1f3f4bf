//! Bound formulas from the paper, as computable functions: the per-instance
//! lower bound `L_instance` (Eq. (2); the tests check it against the
//! Cartesian bound, Eq. (1)), the output-optimal closed forms of Theorem 4 /
//! Corollary 1, the line-3 lower bound (Theorem 6), and the baseline bounds
//! the experiments compare against.

use aj_relation::cover::min_weight_cover;
use aj_relation::{ram, Database, EdgeSet, Query};

/// Eq. (2): `L_instance(p, R) = max_{S⊆E} (|Q(R,S)|/p)^{1/|S|}` — the
/// per-instance lower bound that any tuple-based MPC algorithm must pay.
///
/// Computed exactly with the RAM oracle (one full join enumeration); use at
/// experiment scale.
pub fn l_instance(q: &Query, db: &Database, p: usize) -> f64 {
    let m = q.n_edges();
    let subsets: Vec<EdgeSet> = EdgeSet::all(m)
        .subsets()
        .filter(|s| !s.is_empty())
        .collect();
    let sizes = ram::q_r_s_sizes(q, db, &subsets);
    subsets
        .iter()
        .zip(sizes)
        .map(|(s, c)| (c as f64 / p as f64).powf(1.0 / s.len() as f64))
        .fold(0f64, f64::max)
}

/// The MPC Yannakakis baseline bound `IN/p + OUT/p` \[2, 25\].
pub fn yannakakis_bound(in_size: u64, out_size: u64, p: usize) -> f64 {
    (in_size + out_size) as f64 / p as f64
}

/// Theorem 7's bound `IN/p + √(IN·OUT)/p` for arbitrary acyclic joins
/// (balancing `OUT/(pτ)` against `IN·τ/p` at `τ = √(OUT/IN)`).
pub fn acyclic_bound(in_size: u64, out_size: u64, p: usize) -> f64 {
    (in_size as f64 + (in_size as f64 * out_size as f64).sqrt()) / p as f64
}

/// Corollary 1's bound `IN/p + √(OUT/p)` for r-hierarchical joins.
pub fn r_hierarchical_bound(in_size: u64, out_size: u64, p: usize) -> f64 {
    in_size as f64 / p as f64 + (out_size as f64 / p as f64).sqrt()
}

/// Theorem 4's output-optimal closed form for r-hierarchical joins:
/// `IN/p^{1/max(1, k*−1)} + (OUT/p)^{1/k*}` with `k* = ⌈log_IN OUT⌉`.
pub fn theorem4_bound(in_size: u64, out_size: u64, p: usize) -> f64 {
    let k_star = k_star(in_size, out_size);
    let a = (in_size as f64).powf(1.0) / (p as f64).powf(1.0 / (k_star.max(2) - 1) as f64);
    let a = if k_star <= 1 {
        in_size as f64 / p as f64
    } else {
        a
    };
    let b = (out_size as f64 / p as f64).powf(1.0 / k_star as f64);
    a + b
}

/// `k* = ⌈log_IN OUT⌉` (at least 1).
pub fn k_star(in_size: u64, out_size: u64) -> u64 {
    if out_size <= in_size {
        return 1;
    }
    let l = (out_size as f64).ln() / (in_size.max(2) as f64).ln();
    l.ceil() as u64
}

/// Theorem 6's lower bound for the line-3 join,
/// `Ω(min{√(IN·OUT)/(p·log IN), IN/√p})`, valid for `OUT ≥ IN` (consistent
/// with Corollary 2's `Ω(IN/(√p·log IN))` at `OUT = p·IN`).
pub fn line3_lower_bound(in_size: u64, out_size: u64, p: usize) -> f64 {
    let pf = p as f64;
    let log_in = (in_size.max(2) as f64).ln();
    let a = (in_size as f64 * out_size as f64).sqrt() / (pf * log_in);
    let b = in_size as f64 / pf.sqrt();
    a.min(b)
}

/// The worst-case-optimal bound `IN/√p` for the line-3 join \[19, 24\],
/// which takes over once `OUT ≥ p·IN`.
pub fn line3_worst_case(in_size: u64, p: usize) -> f64 {
    in_size as f64 / (p as f64).sqrt()
}

/// The **BinHC load** (Section 3.1), restricted to integral edge packings:
///
/// `L_BinHC(p,R) = max_{x,u} ( Σ_a Π_e |σ_{x=a} R(e)|^{u(e)} / p )^{1/Σu}`
///
/// where `u` ranges over 0/1 edge packings of the residual query `Q_x` that
/// saturate `x` (every attribute of `x` covered, every other attribute in at
/// most one chosen edge). Theorems 1 and 2 state that on tall-flat joins —
/// and on r-hierarchical joins without dangling tuples — this quantity is
/// `O(L_instance(p,R))`; the `thm12` experiment verifies it numerically and
/// exhibits the dangling-tuple counterexample behind the Koutris–Suciu
/// one-round lower bound.
///
/// Exhaustive over `x ⊆ V` and `S ⊆ E` (query size is a constant; panics if
/// the query has more than 20 attributes or edges).
pub fn l_binhc(q: &Query, db: &Database, p: usize) -> f64 {
    use aj_primitives::FxHashMap;
    use aj_relation::AttrSet;
    let n = q.n_attrs();
    let m = q.n_edges();
    assert!(
        n <= 20 && m <= 20,
        "l_binhc is exhaustive; keep queries small"
    );
    let occurring: Vec<usize> = (0..n)
        .filter(|&a| !q.edges_containing(a).is_empty())
        .collect();
    let mut best = 0f64;
    // Enumerate x over subsets of occurring attributes.
    let k = occurring.len();
    for xmask in 0u32..(1 << k) {
        let xset = AttrSet::from_iter(
            occurring
                .iter()
                .enumerate()
                .filter(|(i, _)| (xmask >> i) & 1 == 1)
                .map(|(_, &a)| a),
        );
        // Enumerate integral packings S ⊆ E.
        'packing: for smask in 1u64..(1 << m) {
            let s = EdgeSet(smask);
            // Exclude edges fully inside x (the paper sets u(e)=0 there).
            for e in s.iter() {
                if q.edge(e).attr_set().is_subset(xset) {
                    continue 'packing;
                }
            }
            // Saturation: every x-attr covered by some chosen edge.
            let covered = q.attrs_of_edges(s);
            if !xset.is_subset(covered) {
                continue;
            }
            // Packing: every non-x attribute in ≤ 1 chosen edge.
            for a in covered.minus(xset).iter() {
                if q.edges_containing(a).intersect(s).len() > 1 {
                    continue 'packing;
                }
            }
            // T = Σ_a Π_{e∈S} |σ_{x=a}R(e)|: a count-annotated join of the
            // per-edge projections onto x, evaluated by iterative hash joins.
            let mut acc: FxHashMap<aj_relation::Tuple, u64> = FxHashMap::default();
            acc.insert(aj_relation::Tuple::unit(), 1);
            let mut acc_attrs: Vec<usize> = Vec::new();
            for e in s.iter() {
                let rel = &db.relations[e];
                let xattrs: Vec<usize> = rel
                    .attrs
                    .iter()
                    .copied()
                    .filter(|a| xset.contains(*a))
                    .collect();
                let pos = rel.positions_of(&xattrs);
                let mut groups: FxHashMap<aj_relation::Tuple, u64> = FxHashMap::default();
                for t in &rel.tuples {
                    *groups.entry(t.project(&pos)).or_insert(0) += 1;
                }
                // Join `acc` with `groups` on shared x-attrs.
                let shared: Vec<usize> = xattrs
                    .iter()
                    .copied()
                    .filter(|a| acc_attrs.contains(a))
                    .collect();
                let g_shared_pos: Vec<usize> = shared
                    .iter()
                    .map(|a| xattrs.iter().position(|x| x == a).unwrap())
                    .collect();
                let g_new_pos: Vec<usize> = (0..xattrs.len())
                    .filter(|&i| !shared.contains(&xattrs[i]))
                    .collect();
                let a_shared_pos: Vec<usize> = shared
                    .iter()
                    .map(|a| acc_attrs.iter().position(|x| x == a).unwrap())
                    .collect();
                let mut index: FxHashMap<aj_relation::Tuple, Vec<(aj_relation::Tuple, u64)>> =
                    FxHashMap::default();
                for (t, c) in &groups {
                    index
                        .entry(t.project(&g_shared_pos))
                        .or_default()
                        .push((t.project(&g_new_pos), *c));
                }
                let mut next: FxHashMap<aj_relation::Tuple, u64> = FxHashMap::default();
                for (t, c) in &acc {
                    if let Some(matches) = index.get(&t.project(&a_shared_pos)) {
                        for (ext, c2) in matches {
                            *next.entry(t.concat(ext)).or_insert(0) += c.saturating_mul(*c2);
                        }
                    }
                }
                acc = next;
                for &i in &g_new_pos {
                    acc_attrs.push(xattrs[i]);
                }
            }
            let total: u64 = acc.values().fold(0u64, |a, &b| a.saturating_add(b));
            if total == 0 {
                continue;
            }
            let exponent = 1.0 / s.len() as f64;
            best = best.max((total as f64 / p as f64).powf(exponent));
        }
    }
    best
}

/// The load HyperCube's worst-case-optimal placement promises on an
/// instance with the given relation sizes: the minimum of the share-search
/// objective `Σ_e N_e / Π_{x∈e} s_x` that
/// [`crate::hypercube::worst_case_shares`]'s search found — so the
/// estimate and the execution optimize the identical quantity and the
/// planner's comparison is communication-free (sizes are driver-visible
/// metadata).
pub fn wc_share_cost(q: &Query, sizes: &[u64], p: usize) -> f64 {
    crate::hypercube::worst_case_search(q, sizes, p).1
}

/// The closed-form price of serving a cyclic query through a GHD
/// ([`crate::general`]): one worst-case HyperCube round per multi-edge bag
/// ([`crate::hypercube::worst_case_join`], priced like
/// [`wc_share_cost`] on the bag's sub-query) plus the acyclic finish over
/// the materialized bags, whose shipped volume is bounded per bag by the
/// AGM-style cover product (the smallest product of covering relation
/// sizes over the bag's edge covers; a single-edge bag is just its
/// relation). Compared against [`wc_share_cost`] of the whole
/// query by [`crate::planner::choose_plan_cyclic`]: whole-query HyperCube
/// replicates every relation across the grid dimensions it does not fix, so
/// the GHD route wins exactly on cyclic cores with large acyclic
/// appendages.
pub fn ghd_cost(q: &Query, ghd: &aj_relation::Ghd, sizes: &[u64], p: usize) -> f64 {
    let pf = p as f64;
    let mut cost = 0.0;
    for es in &ghd.edges_of {
        if let [e] = es[..] {
            cost += sizes[e] as f64 / pf;
        } else {
            let set = aj_relation::EdgeSet::from_iter(es.iter().copied());
            let (sub_q, kept) = q.restrict(set);
            let sub_sizes: Vec<u64> = kept.iter().map(|&e| sizes[e]).collect();
            cost += wc_share_cost(&sub_q, &sub_sizes, p);
            // AGM-style integral bound on the bag's output: the smallest
            // product of covering relation sizes.
            let (_, product) = min_weight_cover(&sub_q, |e| sub_sizes[e].max(1) as f64);
            cost += product / pf;
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_instancegen::{cartesian, fig3};

    #[test]
    fn l_instance_on_fig3() {
        // On the one-sided Figure-3 instance, L_instance is Θ(max(IN/p,
        // √(OUT/p))) — the point of Corollary 2 is that the *achievable*
        // load is higher.
        let inst = fig3::one_sided(64, 1024);
        let p = 16;
        let li = l_instance(&inst.query, &inst.db, p);
        let in_size = inst.db.input_size() as f64;
        assert!(li >= in_size / p as f64 * 0.5);
        assert!(li <= acyclic_bound(in_size as u64, inst.out, p));
    }

    /// Eq. (1): the Cartesian-product instance bound
    /// `max_S (Π_{i∈S} N_i/p)^{1/|S|}`.
    fn l_cartesian(sizes: &[u64], p: usize) -> f64 {
        let mut best = 0f64;
        for mask in 1u64..(1 << sizes.len()) {
            let mut prod = 1f64;
            let mut k = 0u32;
            for (i, &n) in sizes.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    prod *= n as f64;
                    k += 1;
                }
            }
            best = best.max((prod / p as f64).powf(1.0 / k as f64));
        }
        best
    }

    #[test]
    fn l_instance_matches_cartesian_on_products() {
        let (q, db) = cartesian::instance(&[8, 16, 4]);
        let p = 4;
        let li = l_instance(&q, &db, p);
        let lc = l_cartesian(&[8, 16, 4], p);
        assert!((li - lc).abs() < 1e-9, "L_instance {li} vs Eq.(1) {lc}");
    }

    #[test]
    fn bound_ordering() {
        // For OUT between IN and p·IN: r-hier ≤ acyclic ≤ yannakakis.
        let (in_size, p) = (1u64 << 16, 64);
        for out in [in_size, in_size * 8, in_size * 64] {
            let rh = r_hierarchical_bound(in_size, out, p);
            let ac = acyclic_bound(in_size, out, p);
            let ya = yannakakis_bound(in_size, out, p);
            assert!(rh <= ac && ac <= ya * 9.0, "ordering violated at OUT={out}");
            if out >= in_size * 8 {
                assert!(ac < ya, "acyclic must beat Yannakakis for large OUT");
            }
        }
    }

    #[test]
    fn k_star_values() {
        assert_eq!(k_star(100, 50), 1);
        assert_eq!(k_star(100, 100), 1);
        assert_eq!(k_star(100, 5000), 2);
        assert_eq!(k_star(100, 1_000_000), 3);
    }

    #[test]
    fn line3_lower_switches_to_worst_case() {
        let in_size = 1u64 << 16;
        let p = 64;
        // OUT = p·IN: both branches of the min coincide up to log factors.
        let at_knee = line3_lower_bound(in_size, in_size * p as u64, p);
        let wc = line3_worst_case(in_size, p);
        assert!(at_knee <= wc);
        // Very large OUT: capped by IN/√p.
        let capped = line3_lower_bound(in_size, in_size * in_size, p);
        assert_eq!(capped, wc);
    }

    #[test]
    fn binhc_bounded_by_instance_bound_on_tall_flat() {
        // Theorem 1: L_BinHC = O(L_instance) on tall-flat joins. Binary join
        // with a few shared keys.
        let q = aj_instancegen::line_query(2);
        let db = aj_instancegen::random::random_instance(&q, 60, 8, 3);
        let p = 8;
        let lb = l_binhc(&q, &db, p);
        let li = l_instance(&q, &db, p);
        assert!(lb <= 4.0 * li + 1.0, "BinHC {lb} vs instance {li}");
        // And it is never below the instance bound's S-driven terms for
        // full-attr x (where the two formulas coincide).
        assert!(lb + 1e-9 >= li, "BinHC {lb} cannot beat L_instance {li}");
    }

    #[test]
    fn binhc_on_r_hierarchical_without_dangling() {
        // Theorem 2: same conclusion on r-hierarchical joins, provided the
        // instance has no dangling tuples (full-reduce first).
        let q = aj_instancegen::shapes::rh_example_query();
        let db = aj_instancegen::random::random_instance(&q, 40, 6, 9);
        let db = aj_relation::ram::full_reduce(&q, &db);
        let p = 8;
        let lb = l_binhc(&q, &db, p);
        let li = l_instance(&q, &db, p);
        assert!(lb <= 4.0 * li + 1.0, "BinHC {lb} vs instance {li}");
    }

    #[test]
    fn binhc_blows_up_with_dangling_tuples() {
        // The remark after Theorem 2: with dangling tuples, one-round
        // algorithms cannot achieve O(IN/p + L_instance) — L_BinHC grows
        // while L_instance (which only sees joining tuples) stays small.
        // R1(A) ⋈ R2(A,B) ⋈ R3(B) where R2 is a big dangling cross product.
        let q = aj_instancegen::shapes::rh_example_query();
        let n = 40u64;
        let db = aj_relation::database_from_rows(
            &q,
            &[
                vec![vec![0]],
                (0..n)
                    .flat_map(|a| (0..n).map(move |b| vec![1 + a, 1 + b]))
                    .collect(),
                vec![vec![0]],
            ],
        );
        let p = 8;
        let lb = l_binhc(&q, &db, p);
        let li = l_instance(&q, &db, p);
        // OUT = 0 ⇒ L_instance ≈ 0, but BinHC's degree statistics see the
        // dangling product: x = {A,B}, S = {R2} gives (n²/p).
        assert!(li < 1.5);
        assert!(
            lb >= (n * n / p as u64) as f64 * 0.9,
            "BinHC should see the dangling mass, got {lb}"
        );
    }

    #[test]
    fn theorem4_degenerates_to_linear_for_small_out() {
        let b = theorem4_bound(1 << 12, 1 << 10, 16);
        assert!((b - ((1u64 << 12) as f64 / 16.0 + ((1u64 << 10) as f64 / 16.0))).abs() < 1.0);
    }
}
