//! The paper's MPC join algorithms (Hu & Yi, PODS 2019).
//!
//! Layered on top of [`aj_mpc`] (the load-measuring MPC simulator),
//! [`aj_relation`] (queries, classification, the RAM oracle) and
//! [`aj_primitives`] (Section-2 primitives), this crate implements:
//!
//! | Module | Paper | Load |
//! |---|---|---|
//! | [`binary`] | output-optimal binary join \[8,18\]; hash-only + skew-aware hybrid routing | `O(IN/p + √(OUT/p))` |
//! | [`hypercube`] | HyperCube / one-round baseline \[3,8\]; skew-aware placement | `L_Cartesian · polylog` |
//! | [`yannakakis`] | MPC Yannakakis \[2,25\] | `O(IN/p + OUT/p)` |
//! | [`hierarchical`] | Theorem 3 (instance-optimal, r-hierarchical) | `O(IN/p + L_instance)` |
//! | [`line3`] | Theorem 5 | `O(IN/p + √(IN·OUT)/p)` |
//! | [`acyclic`] | Theorem 7 (any acyclic join) | `O(IN/p + √(IN·OUT)/p)` |
//! | [`aggregate`] | Theorem 9 / Corollary 4 (free-connex join-aggregate) | `O(IN/p + √(IN·OUT)/p)` |
//! | [`triangle`] | Section 7 comparison point | `O(IN/p^{2/3})` (worst-case opt.) |
//! | [`wcoj`] | cardinality-guided WCOJ (generic join at worst-case shares) | `Σ_e N_e/Π s + AGM/p` |
//! | [`general`] | general cyclic queries: GHD bag materialization + acyclic finish | bag WCOJ + Yannakakis over bags |
//! | [`bounds`] | Eq. (1), Eq. (2), Theorem 4, lower-bound formulas | — |
//! | [`planner`] | one priced candidate list, one pick, one execute; maintain-vs-recompute pricing | — |
//! | [`engine`] | long-lived serving layer: plan cache, cost-based planning, per-query stats epochs | — |
//! | [`delta`] | incremental view maintenance: counted materializations under signed update batches | `O(\|Δ\| + \|Δ-output\|)` per batch |
//!
//! # Execution
//!
//! The algorithms express per-server work through the round API of
//! [`aj_mpc`] ([`aj_mpc::Net::round`], [`aj_mpc::Net::round_map`],
//! [`aj_mpc::Net::run_local`]): routing closures and local join phases run
//! once per simulated server, sequentially under [`aj_mpc::SeqExecutor`] or
//! concurrently under [`aj_mpc::ParExecutor`]. Both executors produce
//! identical outputs and bit-identical load measurements (asserted by the
//! `executor_equivalence` test suite); only wall-clock time differs.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod acyclic;
pub mod aggregate;
pub mod binary;
pub mod bounds;
pub mod delta;
pub mod dist;
pub mod engine;
pub mod general;
pub mod hierarchical;
pub mod hypercube;
pub mod line3;
pub mod local;
pub mod planner;
pub mod triangle;
pub mod wcoj;
pub mod yannakakis;

pub use delta::{MaterializedView, UpdateOutcome, ViewCheckpoint, ViewId};
pub use dist::{DistDatabase, DistRelation};
pub use engine::{EngineConfig, QueryEngine, QueryOutcome, RecoveryReport, SupervisedRun};
pub use planner::{
    candidates, choose_maintenance, choose_plan, choose_plan_cyclic, execute, execute_plan_dist,
    pick, MaintenanceChoice, Plan,
};
