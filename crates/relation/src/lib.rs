//! Relational substrate for the acyclic-join reproduction.
//!
//! This crate owns everything the join algorithms need *about* data and
//! queries, independent of the MPC model:
//!
//! * [`Tuple`], [`Relation`], [`Database`] — the data model (set semantics,
//!   `u64` values);
//! * [`TupleBlock`] — columnar row storage (flat `Vec<u64>` + arity), the
//!   unit of the zero-copy data plane ([`block`]);
//! * [`Query`] / [`QueryBuilder`] — natural-join hypergraphs `(V, E)`;
//! * [`JoinTree`] and GYO-based acyclicity testing ([`Query::join_tree`]);
//! * join classification per Section 1.4 of the paper — tall-flat ⊂
//!   hierarchical ⊂ r-hierarchical ⊂ acyclic ([`classify`]);
//! * the attribute forest of hierarchical joins ([`classify::AttributeForest`]);
//! * canonical query signatures — structural cache keys for per-shape
//!   planning artifacts ([`signature`]);
//! * heavy-hitter skew profiles and the grid math of hybrid routing
//!   ([`skew`]);
//! * deterministic Fx hashing — the workspace-wide `HashMap` replacement
//!   ([`fxhash`]);
//! * signed update batches and counted materializations — the data model of
//!   incremental view maintenance ([`delta`]);
//! * Lemma 2's minimal-path-of-length-3 witness ([`minpath`]);
//! * integral edge covers, Lemma 1 ([`cover`]);
//! * semiring annotations for join-aggregate queries, Section 6
//!   ([`semiring`]);
//! * an in-memory (RAM-model) Yannakakis engine used as the correctness
//!   oracle and for exact `OUT` / `|Q(R,S)|` computation ([`ram`]).
//!
//! ```
//! use aj_relation::{classify::classify, database_from_rows, ram, JoinClass, QueryBuilder};
//!
//! // R1(A,B) ⋈ R2(B,C): build, classify, evaluate with the RAM oracle.
//! let mut b = QueryBuilder::new();
//! b.relation("R1", &["A", "B"]);
//! b.relation("R2", &["B", "C"]);
//! let q = b.build();
//! assert!(q.is_acyclic());
//! assert_eq!(classify(&q), JoinClass::TallFlat);
//!
//! let db = database_from_rows(&q, &[vec![vec![1, 10], vec![2, 10]], vec![vec![10, 7]]]);
//! assert_eq!(ram::count(&q, &db), 2);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod block;
pub mod classify;
pub mod cover;
pub mod delta;
pub mod fxhash;
pub mod ghd;
pub mod minpath;
pub mod query;
pub mod ram;
pub mod semiring;
pub mod sets;
pub mod signature;
pub mod skew;
pub mod tuple;

pub use block::TupleBlock;
pub use classify::JoinClass;
pub use delta::{decode_snapshot, encode_snapshot, RelationDelta, UpdateBatch};
pub use ghd::{FreeConnexGhd, Ghd};
pub use query::{database_from_rows, Attr, Database, Edge, Query, QueryBuilder, Relation};
pub use sets::{AttrSet, EdgeSet};
pub use signature::QuerySignature;
pub use skew::{JoinSkew, SkewProfile};
pub use tuple::{Tuple, Value};

/// A join tree of an acyclic query: node `i` is edge `i` of the query;
/// `parent[i]` is its parent (`None` exactly for the root). `order` lists the
/// edges in ear-removal order (leaves first, root last), which is a valid
/// bottom-up evaluation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    /// Parent edge of each edge (`None` exactly for the root).
    pub parent: Vec<Option<usize>>,
    /// Ear-removal order (leaves first, root last).
    pub order: Vec<usize>,
}

impl JoinTree {
    /// The root edge index.
    pub fn root(&self) -> usize {
        *self.order.last().expect("join tree of empty query")
    }

    /// Children lists per edge.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for (e, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                ch[*p].push(e);
            }
        }
        ch
    }

    /// Top-down order (root first): the reverse of `order`.
    pub fn top_down(&self) -> Vec<usize> {
        self.order.iter().rev().copied().collect()
    }
}
