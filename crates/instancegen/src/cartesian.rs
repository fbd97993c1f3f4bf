//! Section 1.3: Cartesian-product skew instances.
//!
//! Two instances in the same class `R(IN, OUT)` with different per-instance
//! lower bounds — the paper's motivating example for instance-optimality:
//!
//! * balanced: `N1 = N2 = Θ(√IN)`, `N3 = Θ(IN)` → `L = Ω((OUT/p)^{1/3})`;
//! * skewed:   `N1 = 1, N2 = N3 = Θ(IN)`        → `L = Ω((OUT/p)^{1/2})`.

use aj_relation::{Database, Query, Relation, Tuple};

use crate::shapes::cartesian_query;

/// A Cartesian-product instance of the given set sizes.
pub fn instance(sizes: &[u64]) -> (Query, Database) {
    let q = cartesian_query(sizes.len());
    let rels = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            Relation::new(
                vec![i],
                (0..n)
                    .map(|v| Tuple::from([(i as u64 + 1) * 1_000_000_000 + v]))
                    .collect(),
            )
        })
        .collect();
    (q, Database::new(rels))
}

/// Eq. (1): the per-instance Cartesian lower bound
/// `max_{S} (Π_{i∈S} N_i / p)^{1/|S|}`.
pub fn cartesian_lower_bound(sizes: &[u64], p: usize) -> f64 {
    let m = sizes.len();
    let mut best = 0f64;
    for mask in 1u32..(1 << m) {
        let mut prod = 1f64;
        let mut k = 0;
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

#[cfg(test)]
mod tests {
    use super::*;
    use aj_relation::ram;

    #[test]
    fn instance_sizes() {
        let (q, db) = instance(&[3, 4, 5]);
        assert_eq!(db.input_size(), 12);
        assert_eq!(ram::count(&q, &db), 60);
    }

    #[test]
    fn skew_raises_the_lower_bound() {
        // Same IN and OUT class; the skewed instance is provably harder.
        let in_size = 1 << 12;
        let p = 64;
        let s = (in_size as f64).sqrt() as u64;
        let balanced = cartesian_lower_bound(&[s, s, in_size - 2 * s], p);
        let skewed = cartesian_lower_bound(&[1, in_size / 2, in_size / 2], p);
        assert!(
            skewed > 1.5 * balanced,
            "skewed {skewed} should exceed balanced {balanced}"
        );
    }

    #[test]
    fn lower_bound_on_pair_matches_formula() {
        let lb = cartesian_lower_bound(&[100, 100], 4);
        // Best subset is {1,2}: (10000/4)^(1/2) = 50.
        assert!((lb - 50.0).abs() < 1e-9);
    }
}
