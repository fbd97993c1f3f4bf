//! Width-1 generalized hypertree decompositions (GHDs) and free-connex
//! subsets (Section 6, following Bagan–Durand–Grandjean \[6\]).
//!
//! A width-1 GHD of `Q = (V, E)` is a tree of nodes `u ⊆ V` with
//! (1) *coherence* — nodes containing any attribute form a subtree,
//! (2) *edge coverage* — every `e ∈ E` is inside some node, and
//! (3) *width 1* — every node is inside some `e ∈ E`.
//! `Q_y` is **free-connex** if some width-1 GHD has a connex subset `T'`
//! (connected, containing the root) whose nodes union to exactly `y`.
//!
//! The execution pipeline ([`crate::semiring`] + `aj-core`'s aggregate
//! module) uses the equivalent characterization "`E ∪ {y}` is acyclic";
//! this module materializes the decomposition itself so it can be
//! inspected, tested, and printed.

use crate::query::{Attr, Query};
use crate::sets::AttrSet;
use crate::Edge;

/// A generalized hypertree decomposition of an arbitrary *connected* join
/// query, built by [`Ghd::build`].
///
/// Unlike [`FreeConnexGhd`] (width 1, acyclic queries only), a `Ghd`
/// *partitions* the query's edges into bags: bag `b` is assigned the edge
/// list `λ(b) = edges_of[b]` and covers the attribute set `χ(b) = bags[b]`
/// (the union of its edges' attributes). The bags, viewed as a hypergraph
/// over the same attribute space, form an α-acyclic query — so once every
/// bag is materialized (worst-case-optimally, by one HyperCube round in
/// `aj-core`), the
/// remaining join is served by the existing acyclic machinery.
///
/// Because `λ` is a partition (every edge assigned to exactly one bag, no
/// projections), each bag tuple has derivation count exactly 1 under set
/// semantics: bag materializations are plain sets, which is what makes the
/// counted delta-maintenance argument go through unchanged.
#[derive(Debug, Clone)]
pub struct Ghd {
    /// `χ(b)`: the attribute set covered by each bag.
    pub bags: Vec<AttrSet>,
    /// `λ(b)`: the query edges assigned to each bag (a partition of
    /// `0..q.n_edges()`, each list in increasing edge order).
    pub edges_of: Vec<Vec<usize>>,
    /// Parent pointers of the bag join tree (`None` for the root only).
    pub parent: Vec<Option<usize>>,
    /// Bottom-up bag order (leaves first, root last), as produced by GYO
    /// ear removal on the bag hypergraph.
    pub order: Vec<usize>,
}

impl Ghd {
    /// Decompose a connected query into an acyclic tree of bags.
    ///
    /// Returns `None` for disconnected queries (callers split on
    /// [`Query::connected_components`] first). Always succeeds on connected
    /// queries: the single-bag decomposition is a universal fallback.
    ///
    /// Construction is a deterministic greedy merge: start with one bag per
    /// edge; while the bag hypergraph is cyclic, merge the pair of bags
    /// sharing the most attributes, breaking ties towards the smallest
    /// merged attribute set and then the lowest bag indices. Sharing-first
    /// keeps bags tight (a 4-cycle splits into two 3-attribute bags rather
    /// than one 4-attribute bag); on an already-acyclic query the loop
    /// never runs and the decomposition is exactly one bag per edge with
    /// the query's own join tree.
    pub fn build(q: &Query) -> Option<Ghd> {
        if q.connected_components().len() != 1 {
            return None;
        }
        let mut groups: Vec<Vec<usize>> = (0..q.n_edges()).map(|e| vec![e]).collect();
        let mut chi: Vec<AttrSet> = q.edges().iter().map(Edge::attr_set).collect();
        let tree = loop {
            if let Some(t) = bag_join_tree(q, &chi) {
                break t;
            }
            // Pick the pair to merge: max shared attrs, then smallest
            // union, then lowest (i, j).
            let mut best: Option<(usize, usize)> = None;
            let mut best_key = (0usize, usize::MAX);
            for i in 0..chi.len() {
                for j in (i + 1)..chi.len() {
                    let shared = chi[i].intersect(chi[j]).len();
                    if shared == 0 {
                        continue;
                    }
                    let union = chi[i].union(chi[j]).len();
                    if shared > best_key.0 || (shared == best_key.0 && union < best_key.1) {
                        best_key = (shared, union);
                        best = Some((i, j));
                    }
                }
            }
            let (i, j) = best.expect("connected cyclic hypergraph has a sharing pair");
            let absorbed = groups.remove(j);
            groups[i].extend(absorbed);
            groups[i].sort_unstable();
            let cj = chi.remove(j);
            chi[i] = chi[i].union(cj);
        };
        let ghd = Ghd {
            bags: chi,
            edges_of: groups,
            parent: tree.parent,
            order: tree.order,
        };
        debug_assert!(ghd.validate(q), "greedy GHD violates an invariant");
        Some(ghd)
    }

    /// Number of bags.
    pub fn n_bags(&self) -> usize {
        self.bags.len()
    }

    /// Whether the decomposition is the trivial single bag (the whole
    /// query); evaluating it through the bag tree degenerates to one
    /// whole-query worst-case HyperCube round, so planners skip the GHD
    /// route in that case.
    pub fn is_trivial(&self) -> bool {
        self.bags.len() == 1
    }

    /// Width of the decomposition: the largest number of edges assigned to
    /// one bag (an integral bound on each bag's edge cover; 1 on acyclic
    /// queries).
    pub fn width(&self) -> usize {
        self.edges_of.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The bag-level query: one synthetic edge `B{b}` per bag over the same
    /// attribute space, attributes in increasing order. α-acyclic by
    /// construction — callers run the acyclic pipeline on it.
    pub fn bag_query(&self, q: &Query) -> Query {
        let edges = self
            .bags
            .iter()
            .enumerate()
            .map(|(b, &chi)| Edge {
                name: format!("B{b}"),
                attrs: chi.to_vec(),
            })
            .collect();
        Query::from_parts(q.attr_names().to_vec(), edges)
    }

    /// Check the GHD invariants against `q` (used by tests and debug
    /// assertions): `λ` partitions the edge set, `χ(b)` is the union of
    /// `λ(b)`'s attributes (hence every edge is covered by its own bag),
    /// the bag tree is a tree satisfying coherence (running intersection),
    /// and the bag hypergraph is α-acyclic.
    pub fn validate(&self, q: &Query) -> bool {
        let n = self.bags.len();
        if self.edges_of.len() != n || self.parent.len() != n || self.order.len() != n {
            return false;
        }
        // λ partitions the edges.
        let mut seen = vec![false; q.n_edges()];
        for es in &self.edges_of {
            for &e in es {
                if e >= q.n_edges() || seen[e] {
                    return false;
                }
                seen[e] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return false;
        }
        // χ(b) = union of assigned edges' attributes (covers each of them).
        for (b, es) in self.edges_of.iter().enumerate() {
            let union = es
                .iter()
                .fold(AttrSet::EMPTY, |acc, &e| acc.union(q.edge(e).attr_set()));
            if union != self.bags[b] {
                return false;
            }
        }
        // Tree shape: exactly one root.
        if self.parent.iter().filter(|p| p.is_none()).count() != 1 {
            return false;
        }
        // Coherence: bags containing any attribute form a subtree.
        for a in 0..q.n_attrs() {
            let members: Vec<usize> = (0..n).filter(|&b| self.bags[b].contains(a)).collect();
            if members.is_empty() {
                continue;
            }
            let inner = members
                .iter()
                .filter(|&&b| {
                    self.parent[b]
                        .map(|p| self.bags[p].contains(a))
                        .unwrap_or(false)
                })
                .count();
            if inner != members.len() - 1 {
                return false;
            }
        }
        // The bag hypergraph is acyclic (the tree above witnesses it, but
        // re-derive independently through GYO).
        self.bag_query(q).is_acyclic()
    }

    /// Pretty-print the bag tree with attribute and relation names.
    pub fn render(&self, q: &Query) -> String {
        fn rec(g: &Ghd, q: &Query, b: usize, depth: usize, out: &mut String) {
            let attrs: Vec<&str> = g.bags[b].iter().map(|a| q.attr_name(a)).collect();
            let rels: Vec<&str> = g.edges_of[b]
                .iter()
                .map(|&e| q.edge(e).name.as_str())
                .collect();
            out.push_str(&format!(
                "{}{{{}}} ⟵ {}\n",
                "  ".repeat(depth),
                attrs.join(","),
                rels.join(" ⋈ ")
            ));
            for c in 0..g.n_bags() {
                if g.parent[c] == Some(b) {
                    rec(g, q, c, depth + 1, out);
                }
            }
        }
        let root = (0..self.n_bags())
            .find(|&b| self.parent[b].is_none())
            .expect("tree has a root");
        let mut out = String::new();
        rec(self, q, root, 0, &mut out);
        out
    }
}

/// GYO ear removal over the bag hypergraph (attribute sets only).
fn bag_join_tree(q: &Query, chi: &[AttrSet]) -> Option<crate::JoinTree> {
    let edges = chi
        .iter()
        .enumerate()
        .map(|(b, &s)| Edge {
            name: format!("B{b}"),
            attrs: s.to_vec(),
        })
        .collect();
    Query::from_parts(q.attr_names().to_vec(), edges).join_tree()
}

/// A width-1 GHD with an explicit free-connex subset for output set `y`.
///
/// Width-1 witnesses are edges of the *extended* query `E ∪ {ŷ}` — the
/// hypergraph whose acyclicity defines free-connexity. `witness[u] ==
/// usize::MAX` marks the output atom `ŷ` as the witness (only ever used for
/// an all-output node).
#[derive(Debug, Clone)]
pub struct FreeConnexGhd {
    /// The output attribute set `y`.
    pub y: AttrSet,
    /// Node attribute sets; node 0 is the root.
    pub nodes: Vec<AttrSet>,
    /// Parent pointers (`None` for the root only).
    pub parent: Vec<Option<usize>>,
    /// For each node, a witness edge containing it (width-1); `usize::MAX`
    /// denotes the output atom `ŷ`.
    pub witness: Vec<usize>,
    /// The connex subset `T'`: node indices whose union is exactly `y`.
    pub connex: Vec<usize>,
}

impl FreeConnexGhd {
    /// Construct a width-1 GHD of `q` whose connex subset covers exactly
    /// `y`, or `None` if `Q_y` is not free-connex.
    ///
    /// Construction: build the join tree of `E ∪ {ŷ}` (which exists iff the
    /// query is free-connex), root it at `ŷ`, and split every node `u` into
    /// its output part `u ∩ y` (stacked towards the root) and the full node
    /// below it. The output parts reachable from the root through output
    /// parts form the connex subset.
    pub fn build(q: &Query, y: &[Attr]) -> Option<FreeConnexGhd> {
        if !q.is_acyclic() {
            return None;
        }
        let yset = AttrSet::from_iter(y.iter().copied());
        // Join tree of E ∪ {ŷ}.
        let mut edges = q.edges().to_vec();
        edges.push(Edge {
            name: "ŷ".into(),
            attrs: y.to_vec(),
        });
        let qplus = Query::from_parts(q.attr_names().to_vec(), edges);
        let tree = qplus.join_tree()?;
        let y_node = q.n_edges();
        // Re-root at ŷ via BFS.
        let n = qplus.n_edges();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (e, p) in tree.parent.iter().enumerate() {
            if let Some(p) = p {
                adj[e].push(*p);
                adj[*p].push(e);
            }
        }
        let mut order = vec![y_node];
        let mut parent_of: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[y_node] = true;
        let mut i = 0;
        while i < order.len() {
            let u = order[i];
            i += 1;
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent_of[v] = Some(u);
                    order.push(v);
                }
            }
        }
        // Assemble the GHD: root = ŷ's attrs (= y); under each original
        // edge e, insert its output part (e ∩ y) between e and its parent —
        // this keeps coherence and makes the top region all-output.
        let mut nodes: Vec<AttrSet> = vec![yset];
        let mut parent: Vec<Option<usize>> = vec![None];
        let mut witness: Vec<usize> = vec![usize::MAX]; // fixed below
        let mut ghd_of: Vec<usize> = vec![usize::MAX; n];
        ghd_of[y_node] = 0;
        for &u in order.iter().skip(1) {
            let e_attrs = qplus.edge(u).attr_set();
            let out_part = e_attrs.intersect(yset);
            let pr = ghd_of[parent_of[u].expect("non-root")];
            // Output-part node (skip when empty or equal to the full node).
            let attach = if !out_part.is_empty() && out_part != e_attrs {
                nodes.push(out_part);
                parent.push(Some(pr));
                witness.push(u);
                nodes.len() - 1
            } else {
                pr
            };
            nodes.push(e_attrs);
            parent.push(Some(attach));
            witness.push(u);
            ghd_of[u] = nodes.len() - 1;
        }
        // Primary strategy: if some edge of Q contains y, the synthetic
        // root is witnessed inside Q and the enriched tree (with output
        // parts inserted towards the root) usually yields a fine-grained
        // connex subset. Validate; fall back to the universal form below.
        if let Some(w) = (0..q.n_edges()).find(|&e| yset.is_subset(q.edge(e).attr_set())) {
            witness[0] = w;
            let mut children: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
            for (i, pr) in parent.iter().enumerate() {
                if let Some(p) = pr {
                    children[*p].push(i);
                }
            }
            let mut connex = Vec::new();
            let mut stack = vec![0usize];
            while let Some(u) = stack.pop() {
                connex.push(u);
                for &c in &children[u] {
                    if nodes[c].is_subset(yset) {
                        stack.push(c);
                    }
                }
            }
            let covered = connex
                .iter()
                .fold(AttrSet::EMPTY, |acc, &u| acc.union(nodes[u]));
            let ghd = FreeConnexGhd {
                y: yset,
                nodes,
                parent,
                witness,
                connex,
            };
            if covered == yset && ghd.validate(q) {
                return Some(ghd);
            }
        }
        // Universal fallback: the plain join tree of E ∪ {ŷ} rooted at the
        // output atom. The root node is exactly y (witnessed by ŷ itself)
        // and forms the connex subset on its own.
        let mut nodes: Vec<AttrSet> = vec![yset];
        let mut parent: Vec<Option<usize>> = vec![None];
        let mut witness: Vec<usize> = vec![usize::MAX];
        let mut ghd_of: Vec<usize> = vec![usize::MAX; n];
        ghd_of[y_node] = 0;
        for &u in order.iter().skip(1) {
            nodes.push(qplus.edge(u).attr_set());
            parent.push(Some(ghd_of[parent_of[u].expect("non-root")]));
            witness.push(u);
            ghd_of[u] = nodes.len() - 1;
        }
        let ghd = FreeConnexGhd {
            y: yset,
            nodes,
            parent,
            witness,
            connex: vec![0],
        };
        debug_assert!(ghd.validate(q), "fallback GHD violates an invariant");
        Some(ghd)
    }

    /// Check the three width-1 GHD properties plus connexity (used by tests
    /// and debug assertions).
    pub fn validate(&self, q: &Query) -> bool {
        let n = self.nodes.len();
        // Tree shape: exactly one root, parents in range.
        if self.parent.iter().filter(|p| p.is_none()).count() != 1 {
            return false;
        }
        // (1) Coherence per attribute.
        for a in 0..q.n_attrs() {
            let members: Vec<usize> = (0..n).filter(|&u| self.nodes[u].contains(a)).collect();
            if members.is_empty() {
                continue;
            }
            // Count members whose parent is also a member; a connected
            // subtree has exactly |members| - 1 such edges.
            let inner = members
                .iter()
                .filter(|&&u| {
                    self.parent[u]
                        .map(|p| self.nodes[p].contains(a))
                        .unwrap_or(false)
                })
                .count();
            if inner != members.len() - 1 {
                return false;
            }
        }
        // (2) Edge coverage.
        for e in q.edges() {
            if !(0..n).any(|u| e.attr_set().is_subset(self.nodes[u])) {
                return false;
            }
        }
        // (3) Width 1 against the extended query E ∪ {ŷ}.
        for u in 0..n {
            let w = self.witness[u];
            let inside = if w < q.n_edges() {
                self.nodes[u].is_subset(q.edge(w).attr_set())
            } else {
                // Witnessed by the output atom ŷ.
                self.nodes[u].is_subset(self.y)
            };
            if !inside {
                return false;
            }
        }
        // Connex subset is non-empty, contains the root, is upward-closed,
        // and unions to exactly y.
        let root = (0..n).find(|&u| self.parent[u].is_none()).unwrap_or(0);
        if !self.connex.contains(&root) {
            return false;
        }
        let covered = self
            .connex
            .iter()
            .fold(AttrSet::EMPTY, |acc, &u| acc.union(self.nodes[u]));
        if covered != self.y {
            return false;
        }
        for &u in &self.connex {
            if let Some(p) = self.parent[u] {
                if !self.connex.contains(&p) {
                    return false;
                }
            }
        }
        true
    }

    /// Pretty-print with attribute names.
    pub fn render(&self, q: &Query) -> String {
        fn rec(g: &FreeConnexGhd, q: &Query, u: usize, depth: usize, out: &mut String) {
            let names: Vec<&str> = g.nodes[u].iter().map(|a| q.attr_name(a)).collect();
            let star = if g.connex.contains(&u) { "*" } else { "" };
            out.push_str(&format!(
                "{}{{{}}}{}\n",
                "  ".repeat(depth),
                names.join(","),
                star
            ));
            for c in 0..g.nodes.len() {
                if g.parent[c] == Some(u) {
                    rec(g, q, c, depth + 1, out);
                }
            }
        }
        let root = (0..self.nodes.len())
            .find(|&u| self.parent[u].is_none())
            .expect("tree has a root");
        let mut out = String::new();
        rec(self, q, root, 0, &mut out);
        out.push_str("(* = free-connex subset)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn line3() -> Query {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        b.build()
    }

    #[test]
    fn ghd_for_prefix_projection() {
        let q = line3();
        let y = vec![0usize, 1]; // {A, B}: free-connex
        let g = FreeConnexGhd::build(&q, &y).expect("free-connex");
        assert!(g.validate(&q));
        let covered = g
            .connex
            .iter()
            .fold(AttrSet::EMPTY, |acc, &u| acc.union(g.nodes[u]));
        assert_eq!(covered, AttrSet::from_iter(y));
    }

    #[test]
    fn ghd_rejects_non_free_connex() {
        let q = line3();
        // π_{A,D} of the line-3 join: the classic non-free-connex example.
        assert!(FreeConnexGhd::build(&q, &[0, 3]).is_none());
    }

    #[test]
    fn ghd_full_output() {
        let q = line3();
        let y: Vec<usize> = (0..4).collect();
        let g = FreeConnexGhd::build(&q, &y).expect("full output is free-connex");
        assert!(g.validate(&q));
        // Everything is output: the connex subset covers all attrs.
        let covered = g
            .connex
            .iter()
            .fold(AttrSet::EMPTY, |acc, &u| acc.union(g.nodes[u]));
        assert_eq!(covered, AttrSet::from_iter(y));
    }

    #[test]
    fn ghd_star_center_projection() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["X", "A"]);
        b.relation("R2", &["X", "B"]);
        let q = b.build();
        let x = q.attr_by_name("X").unwrap();
        let g = FreeConnexGhd::build(&q, &[x]).expect("center projection is free-connex");
        assert!(g.validate(&q));
    }

    #[test]
    fn render_marks_connex() {
        let q = line3();
        let g = FreeConnexGhd::build(&q, &[0, 1]).unwrap();
        let s = g.render(&q);
        assert!(s.contains('*'));
        assert!(s.contains("free-connex subset"));
    }

    fn four_cycle() -> Query {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        b.relation("R4", &["D", "A"]);
        b.build()
    }

    #[test]
    fn general_ghd_four_cycle_splits_into_two_bags() {
        let q = four_cycle();
        let g = Ghd::build(&q).expect("connected");
        assert!(g.validate(&q));
        assert_eq!(g.n_bags(), 2);
        let mut bags: Vec<Vec<usize>> = g.bags.iter().map(|b| b.to_vec()).collect();
        bags.sort();
        // {A,B,C} (from R1 ⋈ R2) and {A,C,D} (from R3 ⋈ R4).
        assert_eq!(bags, vec![vec![0, 1, 2], vec![0, 2, 3]]);
        assert!(g.bag_query(&q).is_acyclic());
        assert_eq!(g.width(), 2);
    }

    #[test]
    fn general_ghd_clique_k4() {
        let mut b = QueryBuilder::new();
        for (i, (x, y)) in [
            ("A", "B"),
            ("A", "C"),
            ("A", "D"),
            ("B", "C"),
            ("B", "D"),
            ("C", "D"),
        ]
        .iter()
        .enumerate()
        {
            b.relation(&format!("R{i}"), &[x, y]);
        }
        let q = b.build();
        let g = Ghd::build(&q).expect("connected");
        assert!(g.validate(&q));
        assert!(g.bag_query(&q).is_acyclic());
        // Every edge lands in exactly one bag.
        let assigned: usize = g.edges_of.iter().map(Vec::len).sum();
        assert_eq!(assigned, q.n_edges());
    }

    #[test]
    fn general_ghd_triangle_has_a_covering_bag() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        let q = b.build();
        let g = Ghd::build(&q).expect("connected");
        assert!(g.validate(&q));
        // Some bag covers all three attributes (the cyclic core is not
        // splittable), and the multi-edge bag has width ≥ 2.
        assert!(g.bags.iter().any(|b| b.len() == 3));
        assert!(g.width() >= 2);
    }

    #[test]
    fn general_ghd_acyclic_is_one_bag_per_edge() {
        let q = line3();
        let g = Ghd::build(&q).expect("connected");
        assert!(g.validate(&q));
        assert_eq!(g.n_bags(), q.n_edges());
        assert_eq!(g.width(), 1);
        for (b, es) in g.edges_of.iter().enumerate() {
            assert_eq!(es.len(), 1);
            assert_eq!(q.edge(es[0]).attr_set(), g.bags[b]);
        }
    }

    #[test]
    fn general_ghd_rejects_disconnected() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["X", "Y"]);
        assert!(Ghd::build(&b.build()).is_none());
    }

    #[test]
    fn general_ghd_render_shows_bags() {
        let q = four_cycle();
        let g = Ghd::build(&q).unwrap();
        let s = g.render(&q);
        assert!(s.contains('⟵'));
        assert!(s.contains("R1"));
    }

    #[test]
    fn ghd_agrees_with_acyclicity_check_on_corpus() {
        // The constructive GHD succeeds exactly when E ∪ {y} is acyclic.
        let q = line3();
        for ymask in 0u32..16 {
            let y: Vec<usize> = (0..4).filter(|&a| (ymask >> a) & 1 == 1).collect();
            let via_ghd = FreeConnexGhd::build(&q, &y).is_some();
            let mut edges = q.edges().to_vec();
            edges.push(Edge {
                name: "ŷ".into(),
                attrs: y.clone(),
            });
            let via_acyclic = Query::from_parts(q.attr_names().to_vec(), edges).is_acyclic();
            assert_eq!(via_ghd, via_acyclic, "y = {y:?}");
        }
    }
}
