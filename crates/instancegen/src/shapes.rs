//! Query shapes used throughout the experiments.

use aj_relation::{Database, Query, QueryBuilder};

/// The line-k join `R1(X0,X1) ⋈ R2(X1,X2) ⋈ … ⋈ Rk(X_{k-1},X_k)`.
///
/// `line_query(3)` is the paper's line-3 join, the simplest acyclic but
/// non-r-hierarchical query (Section 4).
pub fn line_query(k: usize) -> Query {
    assert!(k >= 1);
    let mut b = QueryBuilder::new();
    for i in 0..k {
        let a0 = format!("X{i}");
        let a1 = format!("X{}", i + 1);
        b.relation(&format!("R{}", i + 1), &[a0.as_str(), a1.as_str()]);
    }
    b.build()
}

/// The star join `R1(X,A1) ⋈ … ⋈ Rk(X,Ak)` (r-hierarchical).
pub fn star_query(k: usize) -> Query {
    assert!(k >= 1);
    let mut b = QueryBuilder::new();
    for i in 0..k {
        let ai = format!("A{i}");
        b.relation(&format!("R{}", i + 1), &["X", ai.as_str()]);
    }
    b.build()
}

/// The triangle join `R1(B,C) ⋈ R2(A,C) ⋈ R3(A,B)` (Section 7).
pub fn triangle_query() -> Query {
    let mut b = QueryBuilder::new();
    b.relation("R1", &["B", "C"]);
    b.relation("R2", &["A", "C"]);
    b.relation("R3", &["A", "B"]);
    b.build()
}

/// The tall-flat query Q1 of Section 3.
pub fn tall_flat_q1() -> Query {
    let mut b = QueryBuilder::new();
    b.relation("R1", &["x1"]);
    b.relation("R2", &["x1", "x2"]);
    b.relation("R3", &["x1", "x2", "x3"]);
    b.relation("R4", &["x1", "x2", "x3", "x4"]);
    b.relation("R5", &["x1", "x2", "x3", "x5"]);
    b.relation("R6", &["x1", "x2", "x3", "x6"]);
    b.build()
}

/// The hierarchical (not tall-flat) query Q2 of Section 3.
pub fn hierarchical_q2() -> Query {
    let mut b = QueryBuilder::new();
    b.relation("R1", &["x1", "x2"]);
    b.relation("R2", &["x1", "x3", "x4"]);
    b.relation("R3", &["x1", "x3", "x5"]);
    b.build()
}

/// The Figure-5 acyclic query: `e0 = ABDGH'` with six leaf children.
pub fn figure5_query() -> Query {
    let mut b = QueryBuilder::new();
    b.relation("e0", &["A", "B", "D", "G"]);
    b.relation("e1", &["A", "B", "C"]);
    b.relation("e2", &["B", "D"]);
    b.relation("e3", &["B"]);
    b.relation("e4", &["A", "D", "E"]);
    b.relation("e5", &["D", "F"]);
    b.relation("e6", &["H"]);
    b.build()
}

/// `R1(A) ⋈ R2(A,B) ⋈ R3(B)` — r-hierarchical but not hierarchical
/// (Section 1.4's example).
pub fn rh_example_query() -> Query {
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A"]);
    b.relation("R2", &["A", "B"]);
    b.relation("R3", &["B"]);
    b.build()
}

/// The m-set Cartesian product `R1(A1) × … × Rm(Am)`.
pub fn cartesian_query(m: usize) -> Query {
    assert!(m >= 1);
    let mut b = QueryBuilder::new();
    for i in 0..m {
        let ai = format!("A{i}");
        b.relation(&format!("R{}", i + 1), &[ai.as_str()]);
    }
    b.build()
}

/// A triangle `R1(A,B) ⋈ R2(B,C) ⋈ R3(C,A)` with a tail hanging off `C`:
/// the path `T0(X0,X1) ⋈ … ⋈ T{n-1}(X{n-1},X{n})` of `tail_len = n` edges,
/// attached by one last edge `T{n}(C,X0)` — with a small instance over the
/// domain `0..6`. At `tail_len = 6` the cyclic cost model prices the GHD bag
/// route (one gridded two-edge bag closing the triangle, every other edge a
/// bag of its own) below whole-query HyperCube.
pub fn triangle_with_tail(tail_len: usize) -> (Query, Database) {
    let mut b = QueryBuilder::new();
    b.relation("R1", &["A", "B"]);
    b.relation("R2", &["B", "C"]);
    b.relation("R3", &["C", "A"]);
    for i in 0..tail_len {
        b.relation(
            &format!("T{i}"),
            &[&format!("X{i}"), &format!("X{}", i + 1)],
        );
    }
    b.relation(&format!("T{tail_len}"), &["C", "X0"]);
    let q = b.build();
    // Two images per key (branching 2, not a function graph): the join
    // output stays comfortably non-empty under 5% update batches.
    let rows = |k: u64| -> Vec<Vec<u64>> {
        (0..24u64)
            .map(|i| vec![i % 6, (i * k + i / 12 + 1) % 6])
            .collect()
    };
    let per_edge: Vec<_> = (0..q.n_edges()).map(|e| rows(e as u64 + 2)).collect();
    let mut db = aj_relation::database_from_rows(&q, &per_edge);
    db.dedup_all();
    (q, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_relation::classify::{classify, JoinClass};

    #[test]
    fn shapes_have_expected_classes() {
        assert_eq!(classify(&line_query(2)), JoinClass::TallFlat);
        assert_eq!(classify(&line_query(3)), JoinClass::Acyclic);
        assert_eq!(classify(&line_query(5)), JoinClass::Acyclic);
        // A star with a single-attribute center is tall-flat: the center
        // dominates every leaf's singleton edge set.
        assert_eq!(classify(&star_query(3)), JoinClass::TallFlat);
        assert_eq!(classify(&triangle_query()), JoinClass::Cyclic);
        assert_eq!(classify(&tall_flat_q1()), JoinClass::TallFlat);
        assert_eq!(classify(&hierarchical_q2()), JoinClass::Hierarchical);
        assert_eq!(classify(&rh_example_query()), JoinClass::RHierarchical);
        assert_eq!(classify(&cartesian_query(3)), JoinClass::Hierarchical);
        assert_eq!(classify(&figure5_query()), JoinClass::Acyclic);
    }

    #[test]
    fn star_is_single_attr_center() {
        let q = star_query(4);
        let x = q.attr_by_name("X").unwrap();
        assert_eq!(q.edges_containing(x).len(), 4);
    }
}
