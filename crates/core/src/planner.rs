//! Plan selection: class-driven dispatch (Table 1's "which row are you in")
//! and the cost-based refinement used by [`crate::engine::QueryEngine`],
//! which compares the paper's closed-form load bounds at a known `OUT`.

use aj_mpc::Net;
use aj_relation::classify::{classify, JoinClass};
use aj_relation::skew::JoinSkew;
use aj_relation::{Database, Query};

use crate::bounds;
use crate::dist::{distribute_db, next_seed, DistRelation};

/// Default per-server nomination budget of the heavy-hitter detection when a
/// skew-aware plan has to derive its own profile.
pub const DEFAULT_SKEW_TOP_K: usize = 16;

/// The chosen execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// r-hierarchical (incl. hierarchical / tall-flat): the instance-optimal
    /// Theorem-3 algorithm, load `O(IN/p + L_instance)`.
    InstanceOptimal,
    /// Acyclic but not r-hierarchical: the Theorem-7 algorithm, load
    /// `O(IN/p + √(IN·OUT)/p)`.
    OutputOptimal,
    /// The MPC Yannakakis baseline, load `O(IN/p + OUT/p)` — the cost-based
    /// winner when `OUT < IN` (never chosen by class-only dispatch).
    Yannakakis,
    /// Cyclic: worst-case-optimal HyperCube shares.
    WorstCase,
    /// Cyclic with a non-trivial GHD: materialize each decomposition bag
    /// worst-case-optimally ([`crate::wcoj`]), then run the acyclic
    /// pipeline over the bag tree ([`crate::general`]). Priced by
    /// [`crate::bounds::ghd_cost`] against whole-query HyperCube; wins on
    /// cyclic cores with acyclic appendages.
    Ghd,
    /// Binary joins on a skew-aware engine: the one-round
    /// [`crate::binary::hybrid_hash_join`] — light keys hash-routed, heavy
    /// keys (from a [`JoinSkew`] profile) grid-partitioned. Load
    /// `IN/p + O(√(OUT_heavy/p))`, estimated from the profile by
    /// [`crate::binary::hybrid_load_estimate`].
    SkewHybrid,
}

impl Plan {
    /// The plan class-only dispatch picks for a join class (Table 1).
    pub fn for_class(class: JoinClass) -> Plan {
        match class {
            JoinClass::TallFlat | JoinClass::Hierarchical | JoinClass::RHierarchical => {
                Plan::InstanceOptimal
            }
            JoinClass::Acyclic => Plan::OutputOptimal,
            JoinClass::Cyclic => Plan::WorstCase,
        }
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Plan::InstanceOptimal => "thm3",
            Plan::OutputOptimal => "thm7",
            Plan::Yannakakis => "yann",
            Plan::WorstCase => "hcube",
            Plan::Ghd => "ghd",
            Plan::SkewHybrid => "hybrid",
        };
        f.write_str(s)
    }
}

/// Which plan the classification selects.
///
/// ```
/// use aj_core::planner::{plan_for, Plan};
/// use aj_relation::QueryBuilder;
///
/// // A star join is r-hierarchical → the Theorem-3 algorithm.
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["X", "A"]);
/// b.relation("R2", &["X", "B"]);
/// assert_eq!(plan_for(&b.build()), Plan::InstanceOptimal);
///
/// // A line-3 join is acyclic but not r-hierarchical → Theorem 7.
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["A", "B"]);
/// b.relation("R2", &["B", "C"]);
/// b.relation("R3", &["C", "D"]);
/// assert_eq!(plan_for(&b.build()), Plan::OutputOptimal);
/// ```
pub fn plan_for(q: &Query) -> Plan {
    Plan::for_class(classify(q))
}

/// The closed-form load bound a plan promises on an instance with the given
/// statistics (the cost model of the cost-based planner): Corollary 1 for
/// Theorem 3, Theorem 7's `IN/p + √(IN·OUT)/p`, and the Yannakakis baseline
/// `IN/p + OUT/p`.
///
/// # Panics
/// Panics on [`Plan::WorstCase`]: cyclic queries have exactly one applicable
/// algorithm, so [`choose_plan`] never costs HyperCube, and its load depends
/// on the chosen shares rather than a closed form in `(IN, OUT)`.
pub fn estimated_load(plan: Plan, in_size: u64, out_size: u64, p: usize) -> f64 {
    match plan {
        Plan::InstanceOptimal => bounds::r_hierarchical_bound(in_size, out_size, p),
        Plan::OutputOptimal => bounds::acyclic_bound(in_size, out_size, p),
        Plan::Yannakakis => bounds::yannakakis_bound(in_size, out_size, p),
        Plan::WorstCase => {
            panic!("HyperCube has no (IN, OUT) closed form; cyclic plans are priced per-relation (choose_plan_cyclic)")
        }
        Plan::Ghd => {
            panic!("the GHD plan is priced from per-relation sizes (choose_plan_cyclic)")
        }
        Plan::SkewHybrid => {
            panic!("the hybrid plan is priced from a JoinSkew profile (choose_plan_skew)")
        }
    }
}

/// [`choose_plan`] extended with the skew-aware candidate: when a
/// [`JoinSkew`] profile is available (the query is a binary join and the
/// engine ran detection), [`Plan::SkewHybrid`] competes with its
/// profile-derived estimate ([`crate::binary::hybrid_load_estimate`]) —
/// which, unlike the closed-form bounds, carries no output-redistribution
/// term: a binary join's output never moves, so on a profiled instance the
/// one-round hybrid typically wins unless the closed forms are genuinely
/// cheaper. Without a profile this is exactly [`choose_plan`].
pub fn choose_plan_skew(
    class: JoinClass,
    in_size: u64,
    out_size: u64,
    p: usize,
    skew: Option<&JoinSkew>,
) -> (Plan, f64) {
    let mut priced = candidate_costs(class, in_size, out_size, p);
    if let (Some(profile), true) = (skew, class != JoinClass::Cyclic) {
        let hybrid_est = crate::binary::hybrid_load_estimate(profile, in_size, p);
        priced.push((Plan::SkewHybrid, hybrid_est));
    }
    pick_plan(class, &priced)
}

/// The priced candidate set [`choose_plan`] compares for a class: every
/// applicable closed-form plan paired with its estimated load, in the fixed
/// dispatch order. Cyclic classes have no `(IN, OUT)` closed form (see
/// [`cyclic_candidate_costs`]) and return an empty set. This is the list a
/// trace's `PlanDecision` event records as the rejected alternatives.
pub fn candidate_costs(
    class: JoinClass,
    in_size: u64,
    out_size: u64,
    p: usize,
) -> Vec<(Plan, f64)> {
    let candidates: &[Plan] = match class {
        JoinClass::Cyclic => return Vec::new(),
        JoinClass::TallFlat | JoinClass::Hierarchical | JoinClass::RHierarchical => {
            &[Plan::InstanceOptimal, Plan::OutputOptimal, Plan::Yannakakis]
        }
        JoinClass::Acyclic => &[Plan::OutputOptimal, Plan::Yannakakis],
    };
    candidates
        .iter()
        .map(|&plan| (plan, estimated_load(plan, in_size, out_size, p)))
        .collect()
}

/// Cost-based plan choice: given the query's class and the exact `OUT`
/// (from the Corollary-4 counting pass, load `O(IN/p)`), compare the
/// closed-form bounds of every *applicable* algorithm and pick the
/// cheapest. Ties fall back to [`plan_for`]'s class answer — the cost model
/// refines class dispatch, it never contradicts it without evidence.
pub fn choose_plan(class: JoinClass, in_size: u64, out_size: u64, p: usize) -> Plan {
    pick_plan(class, &candidate_costs(class, in_size, out_size, p)).0
}

/// Pick the plan and its estimate from an already-priced candidate list —
/// the one place the tie rules live, so a caller that also reports the list
/// (the engine's `alternatives`) prices every candidate exactly once.
///
/// * Acyclic classes take [`candidate_costs`]' list, optionally extended by
///   a profile-priced [`Plan::SkewHybrid`]: the cheapest closed form wins,
///   hair-width gaps are ties, and ties fall back to the class answer; the
///   hybrid must then be *strictly* cheaper than that pick.
/// * [`JoinClass::Cyclic`] takes [`cyclic_candidate_costs`]' list (the class
///   answer first): a later candidate must win strictly, beyond the same
///   tolerance. An empty list (nothing priced) is the class answer at an
///   infinite estimate.
pub(crate) fn pick_plan(class: JoinClass, priced: &[(Plan, f64)]) -> (Plan, f64) {
    let class_plan = Plan::for_class(class);
    if class == JoinClass::Cyclic {
        let Some(&(_, wc)) = priced.first() else {
            return (class_plan, f64::INFINITY);
        };
        return priced[1..]
            .iter()
            .copied()
            .find(|&(_, c)| c < wc * (1.0 - 1e-9) - 1e-9)
            .unwrap_or((class_plan, wc));
    }
    let closed = || {
        priced
            .iter()
            .copied()
            .filter(|&(plan, _)| plan != Plan::SkewHybrid)
    };
    let best = closed().map(|(_, c)| c).fold(f64::INFINITY, f64::min);
    // Relative tolerance: bounds computed from the same IN/OUT/p differ only
    // meaningfully; hair-width gaps are ties.
    let tied = |c: f64| c <= best * (1.0 + 1e-9) + 1e-9;
    let base = closed()
        .find(|&(plan, c)| plan == class_plan && tied(c))
        .or_else(|| closed().find(|&(_, c)| tied(c)))
        .expect("nonempty candidate set");
    match priced.iter().find(|&&(plan, _)| plan == Plan::SkewHybrid) {
        Some(&hybrid) if hybrid.1 < base.1 => hybrid,
        _ => base,
    }
}

/// Cost-based plan choice for **cyclic** queries, from per-relation sizes
/// alone (driver-visible metadata, so planning stays communication-free —
/// cyclic queries never run the counting pass).
///
/// Candidates: whole-query HyperCube at worst-case-optimal shares
/// (priced by [`bounds::wc_share_cost`], the exact objective the share
/// search minimizes) versus the GHD bag route (priced by
/// [`bounds::ghd_cost`]) when the query admits a non-trivial decomposition.
/// The GHD must win *strictly*; ties keep the class answer
/// ([`Plan::WorstCase`]), mirroring [`choose_plan`]'s tie rule. Returns the
/// plan and its estimate.
///
/// ```
/// use aj_core::planner::{choose_plan_cyclic, Plan};
/// use aj_relation::QueryBuilder;
///
/// // A bare triangle: one covering bag, HyperCube stays the answer.
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["B", "C"]);
/// b.relation("R2", &["A", "C"]);
/// b.relation("R3", &["A", "B"]);
/// let (plan, _) = choose_plan_cyclic(&b.build(), &[256, 256, 256], 16);
/// assert_eq!(plan, Plan::WorstCase);
/// ```
pub fn choose_plan_cyclic(q: &Query, sizes: &[u64], p: usize) -> (Plan, f64) {
    pick_plan(JoinClass::Cyclic, &cyclic_candidate_costs(q, sizes, p))
}

/// The priced candidate set [`choose_plan_cyclic`] compares: whole-query
/// HyperCube first (always present — it is the class answer), then the GHD
/// bag route when the query admits a non-trivial decomposition. The cyclic
/// counterpart of [`candidate_costs`], recorded by `PlanDecision` trace
/// events.
pub fn cyclic_candidate_costs(q: &Query, sizes: &[u64], p: usize) -> Vec<(Plan, f64)> {
    let mut priced = vec![(Plan::WorstCase, bounds::wc_share_cost(q, sizes, p))];
    if let Some(ghd) = aj_relation::Ghd::build(q) {
        if !ghd.is_trivial() {
            priced.push((Plan::Ghd, bounds::ghd_cost(q, &ghd, sizes, p)));
        }
    }
    priced
}

/// How a registered view should absorb one update batch — the output of the
/// planner's [`choose_maintenance`] decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceChoice {
    /// Propagate the deltas through the cached state (the incremental pass).
    Maintain,
    /// Re-register: recompute the view and rebuild its caches from the
    /// updated base — the batch (or the accumulated churn) is large enough
    /// that the delta pass prices above a fresh build.
    Recompute,
}

impl std::fmt::Display for MaintenanceChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MaintenanceChoice::Maintain => "maintain",
            MaintenanceChoice::Recompute => "recompute",
        })
    }
}

/// The **recompute-vs-maintain** decision for one update batch against a
/// registered view: price the delta pass with the same closed-form bounds
/// the cost-based planner already uses — evaluated at `IN = |Δ|` and the
/// proportional delta output `OUT·|Δ|/IN` — against the price of a full
/// recompute at the view's current `(IN, OUT)`, and pick the cheaper side.
/// Returns `(choice, maintain_estimate, recompute_estimate)`.
///
/// * `touched` is the number of relations the batch changes: the delta pass
///   runs one propagation chain per touched relation.
/// * `repl` is the placement's per-tuple replication factor — the average
///   number of copies one base tuple keeps in the cached state (`1.0` for
///   tree-cached acyclic views; the free-dimension grid product for cyclic
///   views, whose HyperCube load has no `(IN, OUT)` closed form). It prices
///   both the cyclic chain and the cache upkeep every batch pays.
/// * `cum_delta` is the churn absorbed since the last (re)build. Cached
///   shards, grid shares and packing were sized for the registration-time
///   instance; the estimate scales by `1 + cum_delta/IN` so that sustained
///   maintenance against a drifted instance eventually loses to a rebuild —
///   the fall-back is cost-based, not a hardcoded fraction.
///
/// ```
/// use aj_core::planner::{choose_maintenance, MaintenanceChoice};
/// use aj_relation::JoinClass;
///
/// // A 0.1% batch on a line-3 view: maintenance wins by orders of magnitude.
/// let (c, m, r) = choose_maintenance(JoinClass::Acyclic, 3, 30_000, 60_000, 30, 1, 30, 1.0, 8);
/// assert_eq!(c, MaintenanceChoice::Maintain);
/// assert!(m * 10.0 < r);
///
/// // Churn ≫ IN with a batch the size of the instance: rebuild.
/// let (c, _, _) =
///     choose_maintenance(JoinClass::Acyclic, 3, 30_000, 60_000, 30_000, 3, 300_000, 1.0, 8);
/// assert_eq!(c, MaintenanceChoice::Recompute);
/// ```
#[allow(clippy::too_many_arguments)] // a cost function over the full instance state
pub fn choose_maintenance(
    class: JoinClass,
    m: usize,
    in_size: u64,
    out_size: u64,
    delta_in: u64,
    touched: usize,
    cum_delta: u64,
    repl: f64,
    p: usize,
) -> (MaintenanceChoice, f64, f64) {
    let pf = p as f64;
    let in_f = in_size.max(1) as f64;
    // Proportional delta output: the expected share of OUT a |Δ|-sized slice
    // of the input derives.
    let dout = out_size as f64 * delta_in as f64 / in_f;
    // One propagation chain, priced by the closed forms at IN = |Δ| (cyclic
    // views have no closed form; the grid chain ships |Δ|·repl rows and the
    // delta output).
    let chain = match class {
        JoinClass::Cyclic => delta_in as f64 * repl / pf + dout / pf,
        _ => {
            let plan = choose_plan(class, delta_in.max(1), dout.ceil() as u64, p);
            estimated_load(plan, delta_in, dout.ceil() as u64, p)
        }
    };
    // Every signed tuple also lands in the caches that shard its relation.
    let upkeep = 2.0 * delta_in as f64 * repl / pf;
    let staleness = 1.0 + cum_delta as f64 / in_f;
    let maintain = (touched as f64 * chain + upkeep) * staleness;
    // A fresh build: the view's own plan at the current (IN, OUT), plus
    // re-sharding the caches and routing the materialization.
    let recompute = match class {
        JoinClass::Cyclic => in_size as f64 * repl / pf + out_size as f64 / pf,
        _ => {
            let plan = choose_plan(class, in_size.max(1), out_size, p);
            estimated_load(plan, in_size, out_size, p)
                + 2.0 * (m.saturating_sub(1)) as f64 * in_size as f64 / pf
                + out_size as f64 / pf
        }
    };
    let choice = if maintain <= recompute {
        MaintenanceChoice::Maintain
    } else {
        MaintenanceChoice::Recompute
    };
    (choice, maintain, recompute)
}

/// Distribute `db` and run the given plan for `q`.
///
/// Seed discipline: every arm draws **exactly one** value from the caller's
/// seed stream and runs on its own derived stream, so replaying a seed
/// yields the identical run and the caller's stream advances the same way
/// regardless of which plan was chosen.
pub fn execute_plan(
    net: &mut Net,
    plan: Plan,
    q: &Query,
    db: &Database,
    seed: &mut u64,
) -> DistRelation {
    let dist = distribute_db(db, net.p());
    execute_plan_dist(net, plan, q, dist, seed)
}

/// [`execute_plan`] on an already-distributed database (e.g. the engine's,
/// which distributes once and shares the placement between the counting
/// pass and the execution). Same seed discipline; distribution is free and
/// deterministic, so this produces rounds identical to [`execute_plan`].
pub fn execute_plan_dist(
    net: &mut Net,
    plan: Plan,
    q: &Query,
    dist: crate::dist::DistDatabase,
    seed: &mut u64,
) -> DistRelation {
    execute_plan_skew(net, plan, q, dist, None, seed)
}

/// [`execute_plan_dist`] with an optional pre-computed [`JoinSkew`] profile
/// for the [`Plan::SkewHybrid`] arm (the engine detects during planning and
/// passes the profile through so execution does not re-detect). When the
/// plan is `SkewHybrid` and no profile is given, detection runs inline with
/// [`DEFAULT_SKEW_TOP_K`] nominations per server. Same seed discipline as
/// every other arm: exactly one draw from the caller's stream.
///
/// # Panics
/// Panics if `plan` is [`Plan::SkewHybrid`] and `q` is not a binary join of
/// two relations sharing at least one attribute.
pub fn execute_plan_skew(
    net: &mut Net,
    plan: Plan,
    q: &Query,
    dist: crate::dist::DistDatabase,
    skew: Option<&JoinSkew>,
    seed: &mut u64,
) -> DistRelation {
    let mut local = next_seed(seed);
    match plan {
        Plan::InstanceOptimal => crate::hierarchical::solve(net, q, dist, &mut local),
        Plan::OutputOptimal => crate::acyclic::solve(net, q, dist, &mut local),
        Plan::Yannakakis => crate::yannakakis::yannakakis(net, q, dist, None, &mut local),
        Plan::WorstCase => {
            let sizes: Vec<u64> = dist.iter().map(|r| r.total_len() as u64).collect();
            let shares = crate::hypercube::worst_case_shares(q, &sizes, net.p());
            crate::hypercube::hypercube_join_dist(net, q, dist, &shares, local)
        }
        Plan::Ghd => crate::general::solve(net, q, dist, &mut local),
        Plan::SkewHybrid => {
            assert_eq!(q.n_edges(), 2, "the hybrid plan serves binary joins");
            let mut it = dist.into_iter();
            let left = it.next().expect("two relations");
            let right = it.next().expect("two relations");
            let detected;
            let profile = match skew {
                Some(s) => s,
                None => {
                    detected =
                        crate::binary::detect_join_skew(net, &left, &right, DEFAULT_SKEW_TOP_K)
                            .significant(net.p());
                    &detected
                }
            };
            crate::binary::hybrid_hash_join(net, left, right, profile, &mut local)
        }
    }
}

/// Distribute `db` and run the best algorithm for `q` by class. Returns the
/// chosen plan and the distributed result.
///
/// ```
/// use aj_core::planner::{execute_best, Plan};
/// use aj_mpc::Cluster;
/// use aj_relation::{database_from_rows, QueryBuilder};
///
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["A", "B"]);
/// b.relation("R2", &["B", "C"]);
/// let q = b.build();
/// let db = database_from_rows(
///     &q,
///     &[vec![vec![1, 10], vec![2, 10]], vec![vec![10, 7]]],
/// );
///
/// // Simulate 4 servers; use `Cluster::new_parallel` for a thread pool —
/// // the result and the measured load are identical either way.
/// let mut cluster = Cluster::new(4);
/// let (plan, out) = {
///     let mut net = cluster.net();
///     let mut seed = 42;
///     execute_best(&mut net, &q, &db, &mut seed)
/// };
/// assert_eq!(plan, Plan::InstanceOptimal); // binary joins are tall-flat
/// assert_eq!(out.total_len(), 2);
/// assert!(cluster.stats().max_load > 0);
/// ```
pub fn execute_best(
    net: &mut Net,
    q: &Query,
    db: &Database,
    seed: &mut u64,
) -> (Plan, DistRelation) {
    let plan = plan_for(q);
    let out = execute_plan(net, plan, q, db, seed);
    (plan, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aj_instancegen::{line_query, shapes};
    use aj_mpc::Cluster;
    use aj_relation::{ram, Tuple};

    #[test]
    fn plans_follow_classification() {
        assert_eq!(plan_for(&shapes::tall_flat_q1()), Plan::InstanceOptimal);
        assert_eq!(plan_for(&shapes::rh_example_query()), Plan::InstanceOptimal);
        assert_eq!(plan_for(&line_query(3)), Plan::OutputOptimal);
        assert_eq!(plan_for(&shapes::triangle_query()), Plan::WorstCase);
    }

    #[test]
    fn execute_best_on_each_class() {
        let cases: Vec<(Query, Database)> = vec![
            {
                let q = shapes::rh_example_query();
                let db = aj_relation::query::database_from_rows(
                    &q,
                    &[
                        (0..8).map(|i| vec![i]).collect(),
                        (0..30).map(|i| vec![i % 10, i % 6]).collect(),
                        (0..5).map(|i| vec![i]).collect(),
                    ],
                );
                (q, db)
            },
            {
                let q = line_query(3);
                let db = aj_relation::query::database_from_rows(
                    &q,
                    &[
                        (0..24).map(|i| vec![i, i % 4]).collect(),
                        (0..16).map(|i| vec![i % 4, i % 5]).collect(),
                        (0..15).map(|i| vec![i % 5, i]).collect(),
                    ],
                );
                (q, db)
            },
        ];
        for (q, db) in cases {
            let (_, mut want) = ram::join(&q, &db);
            want.sort_unstable();
            let mut cluster = Cluster::new(4);
            let got = {
                let mut net = cluster.net();
                let mut seed = 3;
                let (_, out) = execute_best(&mut net, &q, &db, &mut seed);
                out
            };
            let mut got: Vec<Tuple> = got.gather_free().tuples;
            got.sort_unstable();
            assert_eq!(got, want, "query {q}");
        }
    }

    #[test]
    fn execute_best_on_triangle() {
        let inst = aj_instancegen::fig6::generate(60, 120, 3);
        let want = ram::naive_join(&inst.query, &inst.db);
        let mut cluster = Cluster::new(8);
        let (plan, out) = {
            let mut net = cluster.net();
            let mut seed = 3;
            execute_best(&mut net, &inst.query, &inst.db, &mut seed)
        };
        assert_eq!(plan, Plan::WorstCase);
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
    }

    /// Every plan arm advances the caller's seed stream by exactly one draw.
    #[test]
    fn seed_stream_advances_uniformly() {
        let q_line = line_query(3);
        let db_line = aj_relation::query::database_from_rows(
            &q_line,
            &[
                (0..12).map(|i| vec![i, i % 3]).collect(),
                (0..9).map(|i| vec![i % 3, i % 4]).collect(),
                (0..8).map(|i| vec![i % 4, i]).collect(),
            ],
        );
        let tri = aj_instancegen::fig6::generate(40, 60, 5);
        let run = |plan: Plan, q: &Query, db: &Database| -> u64 {
            let mut cluster = Cluster::new(4);
            let mut net = cluster.net();
            let mut seed = 1234;
            execute_plan(&mut net, plan, q, db, &mut seed);
            seed
        };
        let after_thm7 = run(Plan::OutputOptimal, &q_line, &db_line);
        let after_yann = run(Plan::Yannakakis, &q_line, &db_line);
        let after_hcube = run(Plan::WorstCase, &tri.query, &tri.db);
        assert_eq!(after_thm7, after_yann);
        assert_eq!(after_yann, after_hcube);
    }

    /// Replaying the same seed yields the identical run (result and loads).
    #[test]
    fn replayed_seed_is_identical() {
        let q = line_query(3);
        let db = aj_relation::query::database_from_rows(
            &q,
            &[
                (0..24).map(|i| vec![i, i % 4]).collect(),
                (0..16).map(|i| vec![i % 4, i % 5]).collect(),
                (0..15).map(|i| vec![i % 5, i]).collect(),
            ],
        );
        let run = || {
            let mut cluster = Cluster::new(4);
            let out = {
                let mut net = cluster.net();
                let mut seed = 77;
                execute_plan(&mut net, Plan::OutputOptimal, &q, &db, &mut seed)
            };
            (out.gather_free().tuples, cluster.stats().clone())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn cost_model_prefers_yannakakis_for_small_out() {
        // OUT < IN: the O(IN/p + OUT/p) baseline wins over √(IN·OUT)/p.
        let plan = choose_plan(JoinClass::Acyclic, 10_000, 64, 16);
        assert_eq!(plan, Plan::Yannakakis);
        // OUT ≥ IN: Theorem 7 wins.
        let plan = choose_plan(JoinClass::Acyclic, 10_000, 1_000_000, 16);
        assert_eq!(plan, Plan::OutputOptimal);
    }

    /// The hybrid plan competes only when a profile exists, wins when its
    /// profile-priced load beats the closed forms, and executes correctly.
    #[test]
    fn skew_hybrid_plan_selection_and_execution() {
        use aj_relation::skew::{JoinSkew, SkewProfile};
        use aj_relation::Tuple;
        // No profile: selection is untouched.
        let (plan, _) = choose_plan_skew(JoinClass::TallFlat, 4096, 1 << 20, 16, None);
        assert_eq!(plan, choose_plan(JoinClass::TallFlat, 4096, 1 << 20, 16));
        // A clean profile on a high-OUT instance: one round, no output
        // movement — the hybrid wins.
        let clean = JoinSkew::empty(1);
        let (plan, est) = choose_plan_skew(JoinClass::TallFlat, 4096, 1 << 20, 16, Some(&clean));
        assert_eq!(plan, Plan::SkewHybrid);
        assert!(est >= 4096.0 / 16.0);
        // A heavily skewed profile still wins over the hash-hostile closed
        // forms, with a larger estimate than the clean one.
        let skewed = JoinSkew {
            left: SkewProfile::from_counts(1, 2048, vec![(Tuple::from([7u64]), 1500)]),
            right: SkewProfile::from_counts(1, 2048, vec![(Tuple::from([7u64]), 1500)]),
        };
        let (_, skew_est) = choose_plan_skew(JoinClass::TallFlat, 4096, 1 << 21, 16, Some(&skewed));
        assert!(skew_est > est);
        // Execution: the hybrid arm (self-detecting) matches the oracle.
        let mut b = aj_relation::QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        let q = b.build();
        let db = aj_relation::database_from_rows(
            &q,
            &[
                (0..60).map(|i| vec![i, i % 5]).collect(),
                (0..40).map(|i| vec![i % 5, 100 + i]).collect(),
            ],
        );
        let (_, mut want) = ram::join(&q, &db);
        want.sort_unstable();
        let mut cluster = Cluster::new(4);
        let out = {
            let mut net = cluster.net();
            let mut seed = 5;
            execute_plan(&mut net, Plan::SkewHybrid, &q, &db, &mut seed)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
        // Seed discipline: the hybrid arm advances the stream exactly like
        // every other arm.
        let advance = |plan: Plan| -> u64 {
            let mut cluster = Cluster::new(4);
            let mut net = cluster.net();
            let mut seed = 99;
            execute_plan(&mut net, plan, &q, &db, &mut seed);
            seed
        };
        assert_eq!(advance(Plan::SkewHybrid), advance(Plan::Yannakakis));
    }

    /// Tie-breaking and repeated attribute sets: the cyclic plan choice is
    /// a pure function of `(signature, sizes, p)` — duplicate-edge queries
    /// (where join-tree edge keys could conflate the twins) plan
    /// identically on every call and on a structurally identical rebuild —
    /// and ties go to the class answer (`WorstCase`), which is also what a
    /// trivial single-bag GHD degenerates to.
    #[test]
    fn cyclic_plan_choice_is_deterministic_on_duplicate_edges() {
        // Triangle with one side doubled: two edges over identical attrs.
        let build = || {
            let mut b = aj_relation::QueryBuilder::new();
            b.relation("R1", &["A", "B"]);
            b.relation("R2", &["A", "B"]);
            b.relation("R3", &["B", "C"]);
            b.relation("R4", &["C", "A"]);
            b.build()
        };
        let q = build();
        let sizes = vec![40u64, 24, 40, 40];
        let first = choose_plan_cyclic(&q, &sizes, 8);
        // Same call again, and on an independently built copy: bit-equal.
        assert_eq!(choose_plan_cyclic(&q, &sizes, 8), first);
        assert_eq!(choose_plan_cyclic(&build(), &sizes, 8), first);
        // A bare triangle admits only the trivial single-bag GHD, which is
        // priced as a tie by construction — the class answer must hold.
        let mut b = aj_relation::QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        b.relation("R3", &["C", "A"]);
        let tri = b.build();
        let (plan, _) = choose_plan_cyclic(&tri, &[32, 32, 32], 8);
        assert_eq!(plan, Plan::WorstCase);
    }

    /// The GHD plan wins exactly on cyclic cores with acyclic appendages —
    /// whole-query HyperCube replicates appendage relations across the grid
    /// dimensions they do not fix — and executes to the oracle output with
    /// the uniform seed discipline.
    #[test]
    fn cyclic_cost_model_picks_ghd_for_appendages() {
        let (q, db) = shapes::triangle_with_tail(6);
        let sizes = vec![32u64; q.n_edges()];
        let (plan, est) = choose_plan_cyclic(&q, &sizes, 16);
        assert_eq!(plan, Plan::Ghd);
        assert!(est < crate::bounds::wc_share_cost(&q, &sizes, 16));

        // Execution matches the oracle and advances the seed like any arm.
        let want = ram::naive_join(&q, &db);
        let mut cluster = Cluster::new(8);
        let out = {
            let mut net = cluster.net();
            let mut seed = 5;
            execute_plan(&mut net, Plan::Ghd, &q, &db, &mut seed)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        assert_eq!(got, want);
        let advance = |plan: Plan| -> u64 {
            let mut cluster = Cluster::new(4);
            let mut net = cluster.net();
            let mut seed = 4321;
            execute_plan(&mut net, plan, &q, &db, &mut seed);
            seed
        };
        assert_eq!(advance(Plan::Ghd), advance(Plan::WorstCase));
    }

    /// Plain cyclic benchmark shapes keep their HyperCube plan: the GHD
    /// route must never displace the pinned triangle behavior.
    #[test]
    fn cyclic_cost_model_keeps_hypercube_for_tight_cycles() {
        let tri = shapes::triangle_query();
        let (plan, _) = choose_plan_cyclic(&tri, &[64, 64, 64], 8);
        assert_eq!(plan, Plan::WorstCase);
    }

    #[test]
    fn cost_model_ties_fall_back_to_class() {
        // OUT == IN on an r-hierarchical query: Thm-3's IN/p + √(OUT/p)
        // strictly beats the others, and is also the class answer.
        let plan = choose_plan(JoinClass::RHierarchical, 4096, 4096, 16);
        assert_eq!(plan, Plan::InstanceOptimal);
        // Cyclic queries only have one candidate.
        assert_eq!(
            choose_plan(JoinClass::Cyclic, 1000, 1000, 8),
            Plan::WorstCase
        );
    }
}
