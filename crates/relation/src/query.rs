//! Natural-join hypergraphs and database instances.

use crate::sets::{AttrSet, EdgeSet};
use crate::tuple::{Tuple, Value};
use crate::JoinTree;

/// An attribute index into [`Query::attr_names`].
pub type Attr = usize;

/// A hyperedge: one relation symbol of the join, with its attribute list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Human-readable relation name (diagnostics only).
    pub name: String,
    /// Attributes in tuple-layout order (distinct).
    pub attrs: Vec<Attr>,
}

impl Edge {
    /// The attribute set of this edge.
    pub fn attr_set(&self) -> AttrSet {
        AttrSet::from_iter(self.attrs.iter().copied())
    }

    /// Position of attribute `a` within this edge's tuple layout.
    fn position_of(&self, a: Attr) -> Option<usize> {
        self.attrs.iter().position(|&x| x == a)
    }

    /// Positions of a list of attributes (all must be present).
    pub fn positions_of(&self, attrs: &[Attr]) -> Vec<usize> {
        attrs
            .iter()
            .map(|&a| {
                self.position_of(a)
                    .unwrap_or_else(|| panic!("attribute {a} not in edge {}", self.name))
            })
            .collect()
    }
}

/// A natural join query `Q = (V, E)`: attributes are vertices, relations are
/// hyperedges. Build one with [`QueryBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    attr_names: Vec<String>,
    edges: Vec<Edge>,
}

/// Incremental construction of a [`Query`] from attribute names.
///
/// ```
/// use aj_relation::QueryBuilder;
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["A", "B"]);
/// b.relation("R2", &["B", "C"]);
/// let q = b.build();
/// assert_eq!(q.n_attrs(), 3);
/// assert!(q.is_acyclic());
/// ```
#[derive(Debug, Default)]
pub struct QueryBuilder {
    attr_names: Vec<String>,
    edges: Vec<Edge>,
}

impl QueryBuilder {
    /// A builder with no attributes or relations yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an attribute name, returning its index.
    pub fn attr(&mut self, name: &str) -> Attr {
        if let Some(i) = self.attr_names.iter().position(|n| n == name) {
            return i;
        }
        assert!(self.attr_names.len() < 64, "at most 64 attributes");
        self.attr_names.push(name.to_string());
        self.attr_names.len() - 1
    }

    /// Add a relation over the named attributes; returns the edge index.
    ///
    /// # Panics
    /// Panics on duplicate attributes within one relation.
    pub fn relation(&mut self, name: &str, attrs: &[&str]) -> usize {
        assert!(self.edges.len() < 64, "at most 64 relations");
        let attrs: Vec<Attr> = attrs.iter().map(|a| self.attr(a)).collect();
        let set = AttrSet::from_iter(attrs.iter().copied());
        assert_eq!(set.len(), attrs.len(), "duplicate attribute in {name}");
        self.edges.push(Edge {
            name: name.to_string(),
            attrs,
        });
        self.edges.len() - 1
    }

    /// Finish the query.
    ///
    /// # Panics
    /// Panics if no relation was added.
    pub fn build(self) -> Query {
        assert!(!self.edges.is_empty(), "query needs at least one relation");
        Query {
            attr_names: self.attr_names,
            edges: self.edges,
        }
    }
}

impl Query {
    /// Construct directly from parts (for programmatic query surgery).
    pub fn from_parts(attr_names: Vec<String>, edges: Vec<Edge>) -> Self {
        assert!(!edges.is_empty());
        assert!(attr_names.len() <= 64 && edges.len() <= 64);
        Query { attr_names, edges }
    }

    /// Number of attributes `n = |V|`.
    pub fn n_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// Number of relations `m = |E|`.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge by index.
    pub fn edge(&self, e: usize) -> &Edge {
        &self.edges[e]
    }

    /// Attribute name.
    pub fn attr_name(&self, a: Attr) -> &str {
        &self.attr_names[a]
    }

    /// All attribute names (indexed by `Attr`).
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Look up an attribute index by name.
    pub fn attr_by_name(&self, name: &str) -> Option<Attr> {
        self.attr_names.iter().position(|n| n == name)
    }

    /// `E_x`: the set of edges containing attribute `x` (Section 1.4).
    pub fn edges_containing(&self, x: Attr) -> EdgeSet {
        EdgeSet::from_iter(
            self.edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.attrs.contains(&x))
                .map(|(i, _)| i),
        )
    }

    /// Union of attributes over a set of edges.
    pub fn attrs_of_edges(&self, es: EdgeSet) -> AttrSet {
        let mut s = AttrSet::EMPTY;
        for e in es.iter() {
            s = s.union(self.edges[e].attr_set());
        }
        s
    }

    /// All attributes that occur in some edge.
    pub fn all_attrs(&self) -> AttrSet {
        self.attrs_of_edges(EdgeSet::all(self.n_edges()))
    }

    /// GYO ear-removal: returns a join tree iff the query is α-acyclic.
    ///
    /// An edge `e` is an *ear* if all of its attributes shared with other
    /// remaining edges are contained in a single other remaining edge `e'`
    /// (its *witness*), which becomes its parent.
    pub fn join_tree(&self) -> Option<JoinTree> {
        let m = self.n_edges();
        let mut alive: Vec<bool> = vec![true; m];
        let mut remaining = m;
        let mut parent: Vec<Option<usize>> = vec![None; m];
        let mut order: Vec<usize> = Vec::with_capacity(m);
        while remaining > 1 {
            let mut removed_any = false;
            'outer: for e in 0..m {
                if !alive[e] {
                    continue;
                }
                // Attributes of e shared with any other alive edge.
                let mut shared = AttrSet::EMPTY;
                for (o, &o_alive) in alive.iter().enumerate() {
                    if o != e && o_alive {
                        shared = shared
                            .union(self.edges[e].attr_set().intersect(self.edges[o].attr_set()));
                    }
                }
                for w in 0..m {
                    if w != e && alive[w] && shared.is_subset(self.edges[w].attr_set()) {
                        parent[e] = Some(w);
                        alive[e] = false;
                        order.push(e);
                        remaining -= 1;
                        removed_any = true;
                        break 'outer;
                    }
                }
            }
            if !removed_any {
                return None; // cyclic
            }
        }
        let root = (0..m).find(|&e| alive[e]).expect("nonempty query");
        order.push(root);
        Some(JoinTree { parent, order })
    }

    /// Whether the query is α-acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.join_tree().is_some()
    }

    /// The *reduce* procedure (Section 1.4): repeatedly remove an edge that
    /// is contained in another edge. Returns the reduced query and the
    /// indices of the surviving edges (into `self`).
    ///
    /// Ties between equal attribute sets keep the lower-indexed edge.
    pub fn reduce(&self) -> (Query, Vec<usize>) {
        let m = self.n_edges();
        let mut keep: Vec<bool> = vec![true; m];
        for e in 0..m {
            if !keep[e] {
                continue;
            }
            for o in 0..m {
                if o == e || !keep[o] {
                    continue;
                }
                let se = self.edges[e].attr_set();
                let so = self.edges[o].attr_set();
                let strictly_contained = se.is_subset(so) && se != so;
                let equal_and_later = se == so && e > o;
                if strictly_contained || equal_and_later {
                    keep[e] = false;
                    break;
                }
            }
        }
        let kept: Vec<usize> = (0..m).filter(|&e| keep[e]).collect();
        let edges = kept.iter().map(|&e| self.edges[e].clone()).collect();
        (
            Query {
                attr_names: self.attr_names.clone(),
                edges,
            },
            kept,
        )
    }

    /// Connected components of the hypergraph (edges sharing an attribute
    /// are connected). Returned as edge sets.
    pub fn connected_components(&self) -> Vec<EdgeSet> {
        let m = self.n_edges();
        let mut comp: Vec<Option<usize>> = vec![None; m];
        let mut comps: Vec<EdgeSet> = Vec::new();
        for start in 0..m {
            if comp[start].is_some() {
                continue;
            }
            let id = comps.len();
            let mut members = EdgeSet::EMPTY;
            let mut stack = vec![start];
            comp[start] = Some(id);
            while let Some(e) = stack.pop() {
                members.insert(e);
                #[allow(clippy::needless_range_loop)] // comp is mutated inside
                for o in 0..m {
                    if comp[o].is_none()
                        && !self.edges[e]
                            .attr_set()
                            .intersect(self.edges[o].attr_set())
                            .is_empty()
                    {
                        comp[o] = Some(id);
                        stack.push(o);
                    }
                }
            }
            comps.push(members);
        }
        comps
    }

    /// Restrict the query to a subset of edges (attribute indices are kept,
    /// so tuples remain compatible). Returns the sub-query and the kept edge
    /// indices in order.
    pub fn restrict(&self, es: EdgeSet) -> (Query, Vec<usize>) {
        let kept: Vec<usize> = es.iter().filter(|&e| e < self.n_edges()).collect();
        assert!(!kept.is_empty());
        (
            Query {
                attr_names: self.attr_names.clone(),
                edges: kept.iter().map(|&e| self.edges[e].clone()).collect(),
            },
            kept,
        )
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{}(", e.name)?;
            for (k, &a) in e.attrs.iter().enumerate() {
                if k > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.attr_names[a])?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// One relation instance: tuples laid out in the attribute order of the
/// corresponding [`Edge`]. Set semantics (duplicates are allowed in the
/// container but treated as one logical tuple; generators produce sets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Attribute layout, mirroring `Edge::attrs`.
    pub attrs: Vec<Attr>,
    /// The tuples (may carry extra trailing annotation columns).
    pub tuples: Vec<Tuple>,
}

impl Relation {
    /// A relation from a layout and its tuples (tuples may carry extra
    /// trailing columns, e.g. annotations).
    pub fn new(attrs: Vec<Attr>, tuples: Vec<Tuple>) -> Self {
        // Tuples may carry extra trailing columns (e.g. annotations).
        debug_assert!(tuples.iter().all(|t| t.arity() >= attrs.len()));
        Relation { attrs, tuples }
    }

    /// An empty relation with the given layout.
    pub fn empty(attrs: Vec<Attr>) -> Self {
        Relation {
            attrs,
            tuples: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Does the relation hold no tuples?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Positions of `attrs` within this relation's layout.
    pub fn positions_of(&self, attrs: &[Attr]) -> Vec<usize> {
        attrs
            .iter()
            .map(|&a| {
                self.attrs
                    .iter()
                    .position(|&x| x == a)
                    .unwrap_or_else(|| panic!("attribute {a} not in relation"))
            })
            .collect()
    }

    /// Project a tuple of this relation onto the given attributes.
    pub fn key_of(&self, t: &Tuple, attrs: &[Attr]) -> Tuple {
        t.project(&self.positions_of(attrs))
    }

    /// Deduplicate tuples (set semantics normalization).
    pub fn dedup(&mut self) {
        self.tuples.sort_unstable();
        self.tuples.dedup();
    }
}

/// A database instance: one [`Relation`] per query edge, aligned by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    /// One relation per query edge, aligned by index.
    pub relations: Vec<Relation>,
}

impl Database {
    /// A database from its per-edge relations.
    pub fn new(relations: Vec<Relation>) -> Self {
        Database { relations }
    }

    /// `IN`: the total number of tuples.
    pub fn input_size(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Restrict to the given edges, aligned with [`Query::restrict`].
    pub fn restrict(&self, kept: &[usize]) -> Database {
        Database {
            relations: kept.iter().map(|&e| self.relations[e].clone()).collect(),
        }
    }

    /// Normalize every relation to set semantics (sort + dedup in place).
    pub fn dedup_all(&mut self) {
        for r in &mut self.relations {
            r.dedup();
        }
    }

    /// Check layout compatibility with a query.
    pub fn matches(&self, q: &Query) -> bool {
        self.relations.len() == q.n_edges()
            && self
                .relations
                .iter()
                .zip(q.edges())
                .all(|(r, e)| r.attrs == e.attrs)
    }
}

/// Build a [`Database`] for `q` from per-edge tuple lists given as value
/// vectors (convenience for tests and examples).
pub fn database_from_rows(q: &Query, rows: &[Vec<Vec<Value>>]) -> Database {
    assert_eq!(rows.len(), q.n_edges());
    Database::new(
        q.edges()
            .iter()
            .zip(rows)
            .map(|(e, rs)| {
                Relation::new(
                    e.attrs.clone(),
                    rs.iter().map(|r| Tuple::new(r.clone())).collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Query {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "D"]);
        b.build()
    }

    fn triangle() -> Query {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        b.build()
    }

    #[test]
    fn builder_interns_attrs() {
        let q = line3();
        assert_eq!(q.n_attrs(), 4);
        assert_eq!(q.n_edges(), 3);
        assert_eq!(q.attr_by_name("B"), Some(1));
        assert_eq!(q.edge(1).attrs, vec![1, 2]);
    }

    #[test]
    fn line3_is_acyclic_with_valid_tree() {
        let q = line3();
        let t = q.join_tree().expect("acyclic");
        assert_eq!(t.order.len(), 3);
        // Exactly one root.
        assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 1);
        // Connectivity property: for each attr, edges containing it form a
        // connected subtree. Spot-check B: contained in R1, R2; they must be
        // adjacent in the tree.
        let b_edges: Vec<usize> = q.edges_containing(1).to_vec();
        assert_eq!(b_edges, vec![0, 1]);
    }

    #[test]
    fn triangle_is_cyclic() {
        assert!(!triangle().is_acyclic());
    }

    #[test]
    fn triangle_plus_big_edge_is_acyclic() {
        // α-acyclicity is not hereditary: adding {A,B,C} makes it acyclic.
        let mut b = QueryBuilder::new();
        b.relation("R1", &["B", "C"]);
        b.relation("R2", &["A", "C"]);
        b.relation("R3", &["A", "B"]);
        b.relation("R4", &["A", "B", "C"]);
        assert!(b.build().is_acyclic());
    }

    #[test]
    fn reduce_removes_contained_edges() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A"]);
        b.relation("R2", &["A", "B"]);
        b.relation("R3", &["B"]);
        let q = b.build();
        let (r, kept) = q.reduce();
        assert_eq!(kept, vec![1]);
        assert_eq!(r.n_edges(), 1);
    }

    #[test]
    fn reduce_keeps_one_of_equal_edges() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["A", "B"]);
        let (r, kept) = b.build().reduce();
        assert_eq!(r.n_edges(), 1);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn components() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["X"]);
        let q = b.build();
        let comps = q.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].to_vec(), vec![0, 1]);
        assert_eq!(comps[1].to_vec(), vec![2]);
    }

    #[test]
    fn disconnected_query_still_acyclic() {
        let mut b = QueryBuilder::new();
        b.relation("R1", &["A"]);
        b.relation("R2", &["B"]);
        b.relation("R3", &["C"]);
        assert!(b.build().is_acyclic());
    }

    #[test]
    fn restrict_subquery() {
        let q = line3();
        let (sub, kept) = q.restrict(EdgeSet::from_iter([0, 2]));
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(sub.n_edges(), 2);
        assert_eq!(sub.edge(1).name, "R3");
    }

    #[test]
    fn database_roundtrip() {
        let q = line3();
        let db = database_from_rows(
            &q,
            &[
                vec![vec![1, 2], vec![3, 2]],
                vec![vec![2, 5]],
                vec![vec![5, 9]],
            ],
        );
        assert!(db.matches(&q));
        assert_eq!(db.input_size(), 4);
        let keyed = db.relations[0].key_of(&db.relations[0].tuples[0], &[1]);
        assert_eq!(keyed, Tuple::from([2]));
    }

    #[test]
    fn display_query() {
        let q = line3();
        assert_eq!(format!("{q}"), "R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D)");
    }
}
