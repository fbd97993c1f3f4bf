//! Figure 6: the randomized output-sensitive lower-bound instance for the
//! triangle join (Theorem 11).
//!
//! `N = IN/3`, `τ = OUT/N ≤ √N`; `|dom(A)| = τ`, `|dom(B)| = |dom(C)| = N/τ`.
//! `R2(A,C)` and `R3(A,B)` are full Cartesian products (size `N` each);
//! `R1(B,C)` contains each `(b,c)` pair with probability `τ²/N`, so the
//! expected output is `(N/τ)² · (τ²/N) · τ = Nτ = OUT`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use aj_relation::{Database, Query, Relation, Tuple};

use crate::shapes::triangle_query;

/// The generated triangle instance.
#[derive(Debug, Clone)]
pub struct Fig6Instance {
    pub query: Query,
    pub db: Database,
    pub tau: u64,
    /// Exact output size of this sample.
    pub out: u64,
}

/// Generate the Figure-6 instance for `n = IN/3` and target output `out`
/// (requires `n ≤ out ≤ n^{3/2}`); deterministic given `seed`.
pub fn generate(n: u64, out: u64, seed: u64) -> Fig6Instance {
    let tau = (out / n).clamp(1, (n as f64).sqrt() as u64);
    let bc = (n / tau).max(1);
    const A0: u64 = 1_000_000_000;
    const B0: u64 = 2_000_000_000;
    const C0: u64 = 3_000_000_000;
    let mut r2 = Vec::with_capacity((tau * bc) as usize);
    let mut r3 = Vec::with_capacity((tau * bc) as usize);
    for a in 0..tau {
        for x in 0..bc {
            r2.push(Tuple::from([A0 + a, C0 + x]));
            r3.push(Tuple::from([A0 + a, B0 + x]));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prob = ((tau * tau) as f64 / n as f64).min(1.0);
    let mut r1 = Vec::new();
    for b in 0..bc {
        for c in 0..bc {
            if rng.random_bool(prob) {
                r1.push(Tuple::from([B0 + b, C0 + c]));
            }
        }
    }
    // Every (b,c) edge closes a triangle with every a: OUT = |R1| · τ.
    let out = r1.len() as u64 * tau;
    let query = triangle_query();
    // Edge order in triangle_query: R1(B,C), R2(A,C), R3(A,B); attr ids:
    // B=0, C=1, A=2.
    let db = Database::new(vec![
        Relation::new(vec![0, 1], r1),
        Relation::new(vec![2, 1], r2),
        Relation::new(vec![2, 0], r3),
    ]);
    Fig6Instance {
        query,
        db,
        tau,
        out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_relation::ram;

    #[test]
    fn triangle_count_matches_oracle() {
        let inst = generate(300, 1200, 3);
        let naive = ram::naive_join(&inst.query, &inst.db);
        assert_eq!(naive.len() as u64, inst.out);
    }

    #[test]
    fn sizes_are_theta_n() {
        let n = 400;
        let inst = generate(n, 1600, 5);
        assert_eq!(inst.tau, 4);
        assert_eq!(inst.db.relations[1].len() as u64, n);
        assert_eq!(inst.db.relations[2].len() as u64, n);
        let r1 = inst.db.relations[0].len() as u64;
        assert!(r1 > n / 2 && r1 < 2 * n);
        let t = 1600f64;
        assert!((inst.out as f64) > 0.4 * t && (inst.out as f64) < 2.5 * t);
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(200, 800, 9).db, generate(200, 800, 9).db);
    }
}
