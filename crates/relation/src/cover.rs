//! Edge covers (Lemma 1: acyclic joins have integral edge-cover number).

use crate::query::Query;
use crate::sets::{AttrSet, EdgeSet};

/// A minimum edge cover: the smallest set of edges whose union covers every
/// occurring attribute.
pub fn min_edge_cover(q: &Query) -> Vec<usize> {
    // Weight 2 per edge: the product is 2^|cover|, exact in f64.
    min_weight_cover(q, |_| 2.0).0.to_vec()
}

/// The edge cover minimising the product of its edges' weights, with that
/// product. Exhaustive over subsets (query size is constant); among covers
/// of equal product, the first in subset order wins.
pub fn min_weight_cover(q: &Query, weight: impl Fn(usize) -> f64) -> (EdgeSet, f64) {
    let target: AttrSet = q.all_attrs();
    let mut best: Option<(EdgeSet, f64)> = None;
    for s in EdgeSet::all(q.n_edges()).subsets() {
        if s.is_empty() || q.attrs_of_edges(s) != target {
            continue;
        }
        let product: f64 = s.iter().map(&weight).product();
        if best.is_none_or(|(_, b)| product < b) {
            best = Some((s, product));
        }
    }
    best.expect("every query covers itself")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn q(build: impl FnOnce(&mut QueryBuilder)) -> Query {
        let mut b = QueryBuilder::new();
        build(&mut b);
        b.build()
    }

    #[test]
    fn line3_cover_is_two() {
        let qq = q(|b| {
            b.relation("R1", &["A", "B"]);
            b.relation("R2", &["B", "C"]);
            b.relation("R3", &["C", "D"]);
        });
        // {R1, R3} covers {A,B,C,D}.
        assert_eq!(min_edge_cover(&qq), vec![0, 2]);
    }

    #[test]
    fn single_relation_cover() {
        let qq = q(|b| {
            b.relation("R", &["A", "B"]);
        });
        assert_eq!(min_edge_cover(&qq).len(), 1);
    }

    #[test]
    fn cartesian_cover_is_m() {
        let qq = q(|b| {
            b.relation("R1", &["A"]);
            b.relation("R2", &["B"]);
            b.relation("R3", &["C"]);
        });
        assert_eq!(min_edge_cover(&qq).len(), 3);
    }
}
