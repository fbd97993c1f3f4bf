//! Commutative semirings for join-aggregate queries (Section 6).
//!
//! A join-aggregate query annotates every tuple with an element of a
//! commutative semiring `(R, ⊕, ⊗)`; a join result's annotation is the
//! ⊗-product of its constituent tuples, and grouping ⊕-sums annotations.

use crate::query::Relation;
use crate::tuple::Tuple;

/// A commutative semiring over copyable values.
pub trait Semiring {
    /// The carrier type.
    type T: Copy + Clone + std::fmt::Debug + PartialEq + Send + Sync + 'static;
    /// ⊕-identity.
    fn zero() -> Self::T;
    /// ⊗-identity.
    fn one() -> Self::T;
    /// ⊕ (commutative, associative, identity `zero`).
    fn add(a: Self::T, b: Self::T) -> Self::T;
    /// ⊗ (commutative, associative, identity `one`, distributes over ⊕).
    fn mul(a: Self::T, b: Self::T) -> Self::T;
    /// Encode a carrier value into a `u64` so annotations can ride along
    /// tuple columns through the MPC join algorithms.
    fn to_u64(v: Self::T) -> u64;
    /// Inverse of [`Semiring::to_u64`].
    fn from_u64(v: u64) -> Self::T;
}

/// The counting semiring `(u64, +, ×)`: COUNT / SUM style aggregates.
/// Saturating to avoid overflow panics on astronomically large joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountRing;

impl Semiring for CountRing {
    type T = u64;
    fn zero() -> u64 {
        0
    }
    fn one() -> u64 {
        1
    }
    fn add(a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }
    fn mul(a: u64, b: u64) -> u64 {
        a.saturating_mul(b)
    }
    fn to_u64(v: u64) -> u64 {
        v
    }
    fn from_u64(v: u64) -> u64 {
        v
    }
}

/// The **signed counting ring** `(i64, +, ×)` — the counting semiring
/// [`CountRing`] extended with additive inverses, which is exactly what
/// incremental view maintenance needs: an inserted tuple carries `+1`, a
/// deleted tuple `-1`, a join derivation the product of its inputs'
/// weights, and a counted materialization the per-tuple sum. Deletions are
/// then exact decrements — no re-derivation scan (see
/// [`crate::delta`]). Saturating like [`CountRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZRing;

impl Semiring for ZRing {
    type T = i64;
    fn zero() -> i64 {
        0
    }
    fn one() -> i64 {
        1
    }
    fn add(a: i64, b: i64) -> i64 {
        a.saturating_add(b)
    }
    fn mul(a: i64, b: i64) -> i64 {
        a.saturating_mul(b)
    }
    fn to_u64(v: i64) -> u64 {
        v as u64 // two's-complement bit cast, inverted by from_u64
    }
    fn from_u64(v: u64) -> i64 {
        v as i64
    }
}

/// The Boolean semiring `(bool, ∨, ∧)`: EXISTS-style queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoolRing;

impl Semiring for BoolRing {
    type T = bool;
    fn zero() -> bool {
        false
    }
    fn one() -> bool {
        true
    }
    fn add(a: bool, b: bool) -> bool {
        a || b
    }
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
    fn to_u64(v: bool) -> u64 {
        v as u64
    }
    fn from_u64(v: u64) -> bool {
        v != 0
    }
}

/// The tropical semiring `(u64 ∪ {∞}, min, +)`: shortest-path / MIN
/// aggregates. `u64::MAX` plays ∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type T = u64;
    fn zero() -> u64 {
        u64::MAX
    }
    fn one() -> u64 {
        0
    }
    fn add(a: u64, b: u64) -> u64 {
        a.min(b)
    }
    fn mul(a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }
    fn to_u64(v: u64) -> u64 {
        v
    }
    fn from_u64(v: u64) -> u64 {
        v
    }
}

/// A relation whose tuples carry semiring annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnRelation<S: Semiring> {
    /// Attribute layout, mirroring the query edge.
    pub attrs: Vec<crate::query::Attr>,
    /// `(tuple, annotation)` pairs.
    pub tuples: Vec<(Tuple, S::T)>,
}

impl<S: Semiring> AnnRelation<S> {
    /// Annotate every tuple of a plain relation with ⊗-identity.
    pub fn from_relation(r: &Relation) -> Self {
        AnnRelation {
            attrs: r.attrs.clone(),
            tuples: r.tuples.iter().map(|t| (t.clone(), S::one())).collect(),
        }
    }

    /// With explicit annotations.
    pub fn new(attrs: Vec<crate::query::Attr>, tuples: Vec<(Tuple, S::T)>) -> Self {
        AnnRelation { attrs, tuples }
    }

    /// Number of annotated tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Does the relation hold no tuples?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Positions of `attrs` in this relation's layout.
    pub fn positions_of(&self, attrs: &[crate::query::Attr]) -> Vec<usize> {
        attrs
            .iter()
            .map(|&a| {
                self.attrs
                    .iter()
                    .position(|&x| x == a)
                    .expect("attribute not in annotated relation")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laws<S: Semiring>(samples: &[S::T]) {
        for &a in samples {
            assert_eq!(S::add(a, S::zero()), a, "⊕ identity");
            assert_eq!(S::mul(a, S::one()), a, "⊗ identity");
            assert_eq!(S::mul(a, S::zero()), S::zero(), "⊗ annihilator");
            for &b in samples {
                assert_eq!(S::add(a, b), S::add(b, a), "⊕ commutes");
                assert_eq!(S::mul(a, b), S::mul(b, a), "⊗ commutes");
                for &c in samples {
                    assert_eq!(
                        S::mul(a, S::add(b, c)),
                        S::add(S::mul(a, b), S::mul(a, c)),
                        "distributivity"
                    );
                }
            }
        }
    }

    #[test]
    fn count_ring_laws() {
        laws::<CountRing>(&[0, 1, 2, 7, 100]);
    }

    #[test]
    fn bool_ring_laws() {
        laws::<BoolRing>(&[false, true]);
    }

    #[test]
    fn z_ring_laws_and_inverses() {
        laws::<ZRing>(&[-7, -1, 0, 1, 2, 100]);
        // The ring structure beyond a semiring: additive inverses, which is
        // what makes deletion weights exact.
        for w in [-5i64, -1, 0, 1, 9] {
            assert_eq!(ZRing::add(w, -w), ZRing::zero());
            assert_eq!(ZRing::from_u64(ZRing::to_u64(w)), w);
        }
    }

    #[test]
    fn min_plus_laws() {
        laws::<MinPlus>(&[0, 1, 5, 1000, u64::MAX]);
    }

    #[test]
    fn annotate_relation() {
        let r = Relation::new(vec![0, 1], vec![Tuple::from([1, 2]), Tuple::from([3, 4])]);
        let a = AnnRelation::<CountRing>::from_relation(&r);
        assert_eq!(a.len(), 2);
        assert!(a.tuples.iter().all(|&(_, w)| w == 1));
    }
}
