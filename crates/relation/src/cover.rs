//! Edge covers (Lemma 1: acyclic joins have integral edge-cover number).

use crate::query::Query;
use crate::sets::{AttrSet, EdgeSet};

/// A minimum edge cover: the smallest set of edges whose union covers every
/// occurring attribute. Exhaustive over subsets (query size is constant).
pub fn min_edge_cover(q: &Query) -> Vec<usize> {
    let m = q.n_edges();
    let target: AttrSet = q.all_attrs();
    let mut best: Option<EdgeSet> = None;
    for s in EdgeSet::all(m).subsets() {
        if s.is_empty() {
            continue;
        }
        if let Some(b) = best {
            if s.len() >= b.len() {
                continue;
            }
        }
        if q.attrs_of_edges(s) == target {
            best = Some(s);
        }
    }
    best.expect("every query covers itself").to_vec()
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
