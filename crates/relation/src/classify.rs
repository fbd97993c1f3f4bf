//! Join classification (Section 1.4) and the attribute forest (Section 3).
//!
//! The classes form a strict chain (Figure 1 of the paper):
//! tall-flat ⊂ hierarchical ⊂ r-hierarchical ⊂ acyclic.

use crate::query::{Attr, Query};
use crate::sets::EdgeSet;

/// The finest class of the paper's taxonomy a query belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JoinClass {
    /// Tall-flat (Section 1.4, \[26\]); implies hierarchical.
    TallFlat,
    /// Hierarchical but not tall-flat.
    Hierarchical,
    /// r-hierarchical (reduced query is hierarchical) but not hierarchical.
    RHierarchical,
    /// α-acyclic but not r-hierarchical.
    Acyclic,
    /// Cyclic.
    Cyclic,
}

impl std::fmt::Display for JoinClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JoinClass::TallFlat => "tall-flat",
            JoinClass::Hierarchical => "hierarchical",
            JoinClass::RHierarchical => "r-hierarchical",
            JoinClass::Acyclic => "acyclic",
            JoinClass::Cyclic => "cyclic",
        };
        f.write_str(s)
    }
}

/// Is the query hierarchical? For every pair of attributes `x, y`:
/// `E_x ⊆ E_y`, `E_y ⊆ E_x`, or `E_x ∩ E_y = ∅`.
pub fn is_hierarchical(q: &Query) -> bool {
    let n = q.n_attrs();
    let e: Vec<EdgeSet> = (0..n).map(|x| q.edges_containing(x)).collect();
    for x in 0..n {
        for y in (x + 1)..n {
            let (ex, ey) = (e[x], e[y]);
            if ex.is_empty() || ey.is_empty() {
                continue;
            }
            if !(ex.is_subset(ey) || ey.is_subset(ex) || ex.intersect(ey).is_empty()) {
                return false;
            }
        }
    }
    true
}

/// Is the query r-hierarchical (its reduced hypergraph is hierarchical)?
pub fn is_r_hierarchical(q: &Query) -> bool {
    is_hierarchical(&q.reduce().0)
}

/// Is the query tall-flat? There must be an attribute ordering
/// `x1, …, xh, y1, …, yl` with `E_{x1} ⊇ … ⊇ E_{xh}`, `E_{xh} ⊇ E_{yj}`,
/// and `|E_{yj}| = 1` for all `j`.
fn is_tall_flat(q: &Query) -> bool {
    // Attributes that occur at all.
    let attrs: Vec<Attr> = (0..q.n_attrs())
        .filter(|&x| !q.edges_containing(x).is_empty())
        .collect();
    if attrs.is_empty() {
        // No attributes (degenerate); treat as tall-flat.
        return true;
    }
    let esets: Vec<EdgeSet> = attrs.iter().map(|&x| q.edges_containing(x)).collect();

    // Every attribute occurring in ≥ 2 edges must be on the stem, so the
    // multi-occurrence attribute sets must form a chain under ⊇.
    let mut stem: Vec<EdgeSet> = esets.iter().copied().filter(|s| s.len() >= 2).collect();
    stem.sort_by_key(|s| std::cmp::Reverse(s.len()));
    for w in stem.windows(2) {
        if !w[0].is_superset(w[1]) {
            return false;
        }
    }
    // Candidate bottoms of the stem: the chain bottom, or the chain bottom
    // extended by one single-occurrence attribute (which is then x_h).
    let chain_bottom = stem.last().copied();
    let mut candidates: Vec<EdgeSet> = Vec::new();
    match chain_bottom {
        Some(b) => {
            candidates.push(b);
            for &s in &esets {
                if s.len() == 1 && s.is_subset(b) {
                    candidates.push(s);
                }
            }
        }
        None => {
            // No multi-occurrence attribute: any single attribute can be the
            // whole stem.
            for &s in &esets {
                candidates.push(s);
            }
        }
    }
    // The leaves are all single-occurrence attributes except possibly the one
    // promoted to the stem bottom; each leaf y needs E_y ⊆ E_{xh}.
    candidates.into_iter().any(|bottom| {
        // Stem chain must sit above `bottom`.
        if let Some(b) = chain_bottom {
            if !b.is_superset(bottom) {
                return false;
            }
        }
        let mut promoted = false;
        esets.iter().all(|&s| {
            if s.len() >= 2 {
                true // on the stem by the chain check
            } else if s == bottom && !promoted && s.len() == 1 && chain_bottom != Some(s) {
                // At most one single-occurrence attribute plays x_h.
                // (Several attrs can share the same singleton E; only one
                // needs to be promoted, the rest are leaves of x_h's edge.)
                promoted = true;
                true
            } else {
                s.is_subset(bottom)
            }
        })
    })
}

/// Classify a query into the paper's taxonomy (Figure 1).
pub fn classify(q: &Query) -> JoinClass {
    if !q.is_acyclic() {
        return JoinClass::Cyclic;
    }
    if is_hierarchical(q) {
        if is_tall_flat(q) {
            return JoinClass::TallFlat;
        }
        return JoinClass::Hierarchical;
    }
    if is_r_hierarchical(q) {
        return JoinClass::RHierarchical;
    }
    JoinClass::Acyclic
}

/// One node of an [`AttributeForest`]: a group of attributes sharing the same
/// edge set `E_x`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestNode {
    /// The attributes collapsed into this node (same `E_x`).
    pub attrs: Vec<Attr>,
    /// The common edge set.
    pub edges: EdgeSet,
    /// Parent node index (`None` for roots).
    pub parent: Option<usize>,
    /// Child node indices.
    pub children: Vec<usize>,
}

/// The attribute forest of a hierarchical join (Section 3): attribute `x` is
/// a descendant of `y` iff `E_x ⊆ E_y`. Attributes with identical edge sets
/// are merged into one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeForest {
    /// The forest nodes (merged attribute classes).
    pub nodes: Vec<ForestNode>,
    /// Indices of the root nodes.
    pub roots: Vec<usize>,
}

impl AttributeForest {
    /// Build the forest. Returns `None` if the query is not hierarchical.
    pub fn build(q: &Query) -> Option<AttributeForest> {
        if !is_hierarchical(q) {
            return None;
        }
        // Group attributes by identical E_x.
        let mut groups: Vec<(EdgeSet, Vec<Attr>)> = Vec::new();
        for x in 0..q.n_attrs() {
            let ex = q.edges_containing(x);
            if ex.is_empty() {
                continue;
            }
            match groups.iter_mut().find(|(s, _)| *s == ex) {
                Some((_, v)) => v.push(x),
                None => groups.push((ex, vec![x])),
            }
        }
        // Parent = the strictly-larger superset group with the fewest edges.
        let mut nodes: Vec<ForestNode> = groups
            .iter()
            .map(|(s, attrs)| ForestNode {
                attrs: attrs.clone(),
                edges: *s,
                parent: None,
                children: Vec::new(),
            })
            .collect();
        for i in 0..nodes.len() {
            let mut best: Option<usize> = None;
            for j in 0..nodes.len() {
                if i == j {
                    continue;
                }
                let (si, sj) = (nodes[i].edges, nodes[j].edges);
                if si.is_subset(sj) && si != sj {
                    best = match best {
                        Some(b) if nodes[b].edges.len() <= sj.len() => Some(b),
                        _ => Some(j),
                    };
                }
            }
            nodes[i].parent = best;
        }
        for i in 0..nodes.len() {
            if let Some(p) = nodes[i].parent {
                nodes[p].children.push(i);
            }
        }
        let roots = (0..nodes.len())
            .filter(|&i| nodes[i].parent.is_none())
            .collect();
        Some(AttributeForest { nodes, roots })
    }

    /// Number of trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// The edges of the tree rooted at forest node `root`: the union of edge
    /// sets in that subtree (equivalently, the root's edge set, since every
    /// descendant's edges are a subset).
    pub fn tree_edges(&self, root: usize) -> EdgeSet {
        self.nodes[root].edges
    }

    /// Pretty-print with attribute names from `q`.
    pub fn render(&self, q: &Query) -> String {
        fn rec(f: &AttributeForest, q: &Query, node: usize, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let names: Vec<&str> = f.nodes[node]
                .attrs
                .iter()
                .map(|&a| q.attr_name(a))
                .collect();
            out.push_str(&format!("{pad}{}\n", names.join(",")));
            for &c in &f.nodes[node].children {
                rec(f, q, c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for &r in &self.roots {
            rec(self, q, r, 0, &mut out);
        }
        out
    }
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

    /// Q1 from Section 3: tall-flat.
    fn tall_flat_q1() -> Query {
        q(|b| {
            b.relation("R1", &["x1"]);
            b.relation("R2", &["x1", "x2"]);
            b.relation("R3", &["x1", "x2", "x3"]);
            b.relation("R4", &["x1", "x2", "x3", "x4"]);
            b.relation("R5", &["x1", "x2", "x3", "x5"]);
            b.relation("R6", &["x1", "x2", "x3", "x6"]);
        })
    }

    /// Q2 from Section 3: hierarchical, not tall-flat.
    fn hierarchical_q2() -> Query {
        q(|b| {
            b.relation("R1", &["x1", "x2"]);
            b.relation("R2", &["x1", "x3", "x4"]);
            b.relation("R3", &["x1", "x3", "x5"]);
        })
    }

    #[test]
    fn q1_is_tall_flat() {
        assert_eq!(classify(&tall_flat_q1()), JoinClass::TallFlat);
    }

    #[test]
    fn q2_is_hierarchical_not_tall_flat() {
        let qq = hierarchical_q2();
        assert!(is_hierarchical(&qq));
        assert!(!is_tall_flat(&qq));
        assert_eq!(classify(&qq), JoinClass::Hierarchical);
    }

    #[test]
    fn r_hierarchical_example() {
        // R1(A) ⋈ R2(A,B) ⋈ R3(B): r-hierarchical but not hierarchical
        // (paper, Section 1.4).
        let qq = q(|b| {
            b.relation("R1", &["A"]);
            b.relation("R2", &["A", "B"]);
            b.relation("R3", &["B"]);
        });
        assert!(!is_hierarchical(&qq));
        assert!(is_r_hierarchical(&qq));
        assert_eq!(classify(&qq), JoinClass::RHierarchical);
    }

    #[test]
    fn line3_is_acyclic_only() {
        let qq = q(|b| {
            b.relation("R1", &["A", "B"]);
            b.relation("R2", &["B", "C"]);
            b.relation("R3", &["C", "D"]);
        });
        assert!(!is_r_hierarchical(&qq));
        assert_eq!(classify(&qq), JoinClass::Acyclic);
    }

    #[test]
    fn line2_binary_join_is_r_hierarchical() {
        // R1(A,B) ⋈ R2(B,C): reduced = itself; E_A={0},E_B={0,1},E_C={1}:
        // hierarchical. Not tall-flat? stem must be B (deg 2); leaves A, C:
        // E_A={0} ⊆ E_B={0,1} ✓, E_C={1} ⊆ {0,1} ✓ → tall-flat.
        let qq = q(|b| {
            b.relation("R1", &["A", "B"]);
            b.relation("R2", &["B", "C"]);
        });
        assert_eq!(classify(&qq), JoinClass::TallFlat);
    }

    #[test]
    fn triangle_is_cyclic() {
        let qq = q(|b| {
            b.relation("R1", &["B", "C"]);
            b.relation("R2", &["A", "C"]);
            b.relation("R3", &["A", "B"]);
        });
        assert_eq!(classify(&qq), JoinClass::Cyclic);
    }

    #[test]
    fn cartesian_product_is_hierarchical_not_tall_flat() {
        // R1(A) × R2(B) × R3(C): every E_x disjoint → hierarchical. Not
        // tall-flat for m ≥ 2 (no x_h can dominate the others' edges).
        let qq = q(|b| {
            b.relation("R1", &["A"]);
            b.relation("R2", &["B"]);
            b.relation("R3", &["C"]);
        });
        assert!(is_hierarchical(&qq));
        assert!(!is_tall_flat(&qq));
        assert_eq!(classify(&qq), JoinClass::Hierarchical);
    }

    #[test]
    fn single_relation_is_tall_flat() {
        let qq = q(|b| {
            b.relation("R", &["A", "B", "C"]);
        });
        assert_eq!(classify(&qq), JoinClass::TallFlat);
    }

    #[test]
    fn q2_extended_is_r_hierarchical() {
        // Q2 ⋈ R4(x3,x5) ⋈ R5(x5) from Section 3: r-hierarchical, not
        // hierarchical.
        let qq = q(|b| {
            b.relation("R1", &["x1", "x2"]);
            b.relation("R2", &["x1", "x3", "x4"]);
            b.relation("R3", &["x1", "x3", "x5"]);
            b.relation("R4", &["x3", "x5"]);
            b.relation("R5", &["x5"]);
        });
        assert!(!is_hierarchical(&qq));
        assert_eq!(classify(&qq), JoinClass::RHierarchical);
    }

    #[test]
    fn forest_of_q1_is_a_stem_with_leaves() {
        let qq = tall_flat_q1();
        let f = AttributeForest::build(&qq).unwrap();
        assert_eq!(f.n_trees(), 1);
        // x1 at root (E = all 6 edges).
        let root = &f.nodes[f.roots[0]];
        assert_eq!(root.attrs, vec![qq.attr_by_name("x1").unwrap()]);
        assert_eq!(root.edges.len(), 6);
        let rendered = f.render(&qq);
        assert!(rendered.starts_with("x1\n"));
    }

    #[test]
    fn forest_of_q2_matches_figure2() {
        let qq = hierarchical_q2();
        let f = AttributeForest::build(&qq).unwrap();
        assert_eq!(f.n_trees(), 1);
        let root = &f.nodes[f.roots[0]];
        assert_eq!(root.attrs, vec![qq.attr_by_name("x1").unwrap()]);
        // Children: x2 (edge {0}) and x3 (edges {1,2}).
        assert_eq!(root.children.len(), 2);
        let x3 = qq.attr_by_name("x3").unwrap();
        let x3_node = f
            .nodes
            .iter()
            .find(|n| n.attrs.contains(&x3))
            .expect("x3 node");
        assert_eq!(x3_node.children.len(), 2); // x4 and x5
    }

    #[test]
    fn forest_of_cartesian_has_one_tree_per_set() {
        let qq = q(|b| {
            b.relation("R1", &["A"]);
            b.relation("R2", &["B"]);
        });
        let f = AttributeForest::build(&qq).unwrap();
        assert_eq!(f.n_trees(), 2);
    }

    #[test]
    fn forest_rejects_non_hierarchical() {
        let qq = q(|b| {
            b.relation("R1", &["A", "B"]);
            b.relation("R2", &["B", "C"]);
            b.relation("R3", &["C", "D"]);
        });
        assert!(AttributeForest::build(&qq).is_none());
    }

    #[test]
    fn class_chain_is_strict() {
        // Witnesses for every strict inclusion of Figure 1.
        assert_eq!(classify(&tall_flat_q1()), JoinClass::TallFlat);
        assert_eq!(classify(&hierarchical_q2()), JoinClass::Hierarchical);
        let r_h = q(|b| {
            b.relation("R1", &["A"]);
            b.relation("R2", &["A", "B"]);
            b.relation("R3", &["B"]);
        });
        assert_eq!(classify(&r_h), JoinClass::RHierarchical);
        let line3 = q(|b| {
            b.relation("R1", &["A", "B"]);
            b.relation("R2", &["B", "C"]);
            b.relation("R3", &["C", "D"]);
        });
        assert_eq!(classify(&line3), JoinClass::Acyclic);
    }
}
