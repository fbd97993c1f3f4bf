//! # acyclic-joins
//!
//! A Rust reproduction of **Hu & Yi, "Instance and Output Optimal Parallel
//! Algorithms for Acyclic Joins" (PODS 2019)**: instance-optimal and
//! output-optimal join algorithms in the MPC (massively parallel
//! computation) model, together with the MPC cost simulator, the Section-2
//! primitives, hard-instance generators and the experiment harness that
//! regenerates every table and figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use acyclic_joins::prelude::*;
//!
//! // R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D): the paper's line-3 join.
//! let q = acyclic_joins::instancegen::line_query(3);
//! let db = acyclic_joins::relation::database_from_rows(
//!     &q,
//!     &[
//!         vec![vec![1, 10], vec![2, 10]],
//!         vec![vec![10, 20]],
//!         vec![vec![20, 30]],
//!     ],
//! );
//! // Run the best algorithm for the query's class on 4 simulated servers.
//! let mut cluster = Cluster::new(4);
//! let (plan, out) = {
//!     let mut net = cluster.net();
//!     let mut seed = 42;
//!     execute_best(&mut net, &q, &db, &mut seed)
//! };
//! assert_eq!(plan, Plan::OutputOptimal); // line-3 is acyclic, not r-hierarchical
//! assert_eq!(out.total_len(), 2);
//! println!("load L = {}", cluster.stats().max_load);
//! ```
//!
//! ## Crate map
//!
//! * [`mpc`] — the load-measuring MPC simulator;
//! * [`relation`] — queries, classification (Fig. 1), the RAM oracle;
//! * [`primitives`] — Section-2 MPC primitives;
//! * [`core`] — the paper's algorithms (Theorems 3, 5, 7, 9; baselines) and
//!   the [`core::engine::QueryEngine`] serving layer (plan cache,
//!   cost-based planning, per-query stats epochs);
//! * [`instancegen`] — the hard instances of Figures 3, 4 and 6;
//! * [`obs`] — deterministic structured tracing: bounded event traces
//!   (bit-identical across backends), Chrome trace-event and flat-metrics
//!   exporters, and the data behind `QueryEngine::explain`.

pub use aj_core as core;
pub use aj_instancegen as instancegen;
pub use aj_mpc as mpc;
pub use aj_obs as obs;
pub use aj_primitives as primitives;
pub use aj_relation as relation;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use aj_core::{
        execute_best, execute_plan, DistDatabase, DistRelation, EngineConfig, MaintenanceChoice,
        MaterializedView, Plan, QueryEngine, QueryOutcome, UpdateOutcome, ViewId,
    };
    pub use aj_mpc::{Cluster, DeltaBlock, DeltaOutbox, EpochStats, Net, Partitioned, RowOutbox};
    pub use aj_obs::{ObsConfig, Trace};
    pub use aj_primitives::{FxHashMap, FxHashSet};
    pub use aj_relation::{
        classify::classify, Database, JoinClass, JoinSkew, Query, QueryBuilder, QuerySignature,
        Relation, SkewProfile, Tuple, TupleBlock, UpdateBatch,
    };
}
