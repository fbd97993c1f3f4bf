//! Plan selection: one priced candidate list ([`candidates`]), one pick
//! ([`pick`]) and one dispatch ([`execute`]). The candidates are the
//! algorithms that apply to the query's Table-1 class, each priced by the
//! paper's closed-form load bound; [`crate::engine::QueryEngine`] reads the
//! list, the pick and the execution in that order, and
//! [`choose_maintenance`] prices the view-maintenance decision from the
//! same closed forms.

use aj_mpc::Net;
use aj_relation::classify::JoinClass;
use aj_relation::skew::JoinSkew;
use aj_relation::Query;

use crate::bounds;
use crate::dist::{next_seed, DistDatabase, DistRelation};

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

/// A closed-form load bound `(IN, OUT, p) ↦ L`.
type Bound = fn(u64, u64, usize) -> f64;

/// The closed-form plans that apply to a class, class answer first, each
/// with its bound: Corollary 1 for Theorem 3, Theorem 7's
/// `IN/p + √(IN·OUT)/p`, and the Yannakakis baseline `IN/p + OUT/p`.
/// Cyclic plans have no `(IN, OUT)` closed form and are priced per relation.
fn closed_forms(class: JoinClass) -> &'static [(Plan, Bound)] {
    match class {
        JoinClass::TallFlat | JoinClass::Hierarchical | JoinClass::RHierarchical => &[
            (Plan::InstanceOptimal, bounds::r_hierarchical_bound as Bound),
            (Plan::OutputOptimal, bounds::acyclic_bound),
            (Plan::Yannakakis, bounds::yannakakis_bound),
        ],
        JoinClass::Acyclic => &[
            (Plan::OutputOptimal, bounds::acyclic_bound as Bound),
            (Plan::Yannakakis, bounds::yannakakis_bound),
        ],
        JoinClass::Cyclic => &[],
    }
}

/// Every closed-form plan of `class` priced at `(IN, OUT)`.
fn closed_form_costs(class: JoinClass, in_size: u64, out_size: u64, p: usize) -> Vec<(Plan, f64)> {
    closed_forms(class)
        .iter()
        .map(|&(plan, bound)| (plan, bound(in_size, out_size, p)))
        .collect()
}

/// Every applicable plan for `q` paired with its estimated load, the class
/// answer first — the list [`pick`] chooses from and a trace's
/// `PlanDecision` event records as the alternatives.
///
/// * Acyclic classes are priced by the closed forms at `(Σ sizes, out)`,
///   where `out` is the exact `OUT` of the Corollary-4 counting pass. With
///   a [`JoinSkew`] profile the one-round [`Plan::SkewHybrid`] is appended
///   at its profile-derived estimate, which (unlike the closed forms)
///   carries no output-redistribution term: a binary join's output never
///   moves. Without `out` nothing can be priced and the list is empty,
///   which [`pick`] reads as class dispatch.
/// * Cyclic queries are priced from the per-relation `sizes` alone
///   (driver-visible metadata, so cyclic planning is communication-free):
///   whole-query HyperCube at worst-case-optimal shares
///   ([`bounds::wc_share_cost`]), then the GHD bag route
///   ([`bounds::ghd_cost`]) when the query has a non-trivial decomposition.
///
/// ```
/// use aj_core::planner::{candidates, pick, Plan};
/// use aj_relation::{JoinClass, QueryBuilder};
///
/// // A line-3 join with OUT < IN: Yannakakis undercuts Theorem 7.
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["A", "B"]);
/// b.relation("R2", &["B", "C"]);
/// b.relation("R3", &["C", "D"]);
/// let line3 = b.build();
/// let priced = candidates(JoinClass::Acyclic, &line3, &[4000; 3], Some(64), None, 16);
/// assert_eq!(pick(JoinClass::Acyclic, &priced).0, Plan::Yannakakis);
///
/// // A bare triangle: one covering bag, HyperCube stays the answer.
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["B", "C"]);
/// b.relation("R2", &["A", "C"]);
/// b.relation("R3", &["A", "B"]);
/// let tri = b.build();
/// let priced = candidates(JoinClass::Cyclic, &tri, &[256; 3], None, None, 16);
/// assert_eq!(pick(JoinClass::Cyclic, &priced).0, Plan::WorstCase);
/// ```
pub fn candidates(
    class: JoinClass,
    q: &Query,
    sizes: &[u64],
    out: Option<u64>,
    skew: Option<&JoinSkew>,
    p: usize,
) -> Vec<(Plan, f64)> {
    if class == JoinClass::Cyclic {
        let mut priced = vec![(Plan::WorstCase, bounds::wc_share_cost(q, sizes, p))];
        if let Some(ghd) = aj_relation::Ghd::build(q).filter(|g| !g.is_trivial()) {
            priced.push((Plan::Ghd, bounds::ghd_cost(q, &ghd, sizes, p)));
        }
        return priced;
    }
    let Some(out) = out else {
        return Vec::new();
    };
    let in_size = sizes.iter().sum();
    let mut priced = closed_form_costs(class, in_size, out, p);
    if let Some(profile) = skew {
        let hybrid = crate::binary::hybrid_load_estimate(profile, in_size, p);
        priced.push((Plan::SkewHybrid, hybrid));
    }
    priced
}

/// Pick the plan and its estimate from a [`candidates`] list. Starting from
/// the class answer (listed first), a later candidate replaces the current
/// pick only when it is cheaper beyond a 1e-9 relative tolerance — the cost
/// model refines class dispatch, it never contradicts it without evidence,
/// and bounds computed from the same statistics that differ by a hair are
/// ties. An empty list is class dispatch: the class answer, unpriced.
pub fn pick(class: JoinClass, priced: &[(Plan, f64)]) -> (Plan, Option<f64>) {
    let Some((&first, rest)) = priced.split_first() else {
        return (Plan::for_class(class), None);
    };
    let (plan, cost) = rest.iter().fold(first, |cur, &cand| {
        if cand.1 < cur.1 * (1.0 - 1e-9) - 1e-9 {
            cand
        } else {
            cur
        }
    });
    (plan, Some(cost))
}

/// Class-only plan choice priced at `(IN, OUT)`: [`pick`] over the closed
/// forms. Kept for `mpcbench`'s adapter, which replays the engine's phases.
pub fn choose_plan(class: JoinClass, in_size: u64, out_size: u64, p: usize) -> Plan {
    pick(class, &closed_form_costs(class, in_size, out_size, p)).0
}

/// Cyclic plan choice from per-relation sizes: [`pick`] over the cyclic
/// [`candidates`]. Kept for `mpcbench`'s adapter, which replays the
/// engine's phases.
pub fn choose_plan_cyclic(q: &Query, sizes: &[u64], p: usize) -> (Plan, f64) {
    let priced = candidates(JoinClass::Cyclic, q, sizes, None, None, p);
    let (plan, est) = pick(JoinClass::Cyclic, &priced);
    (plan, est.unwrap_or(f64::INFINITY))
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
    // The closed-form load of the plan picked at `(max(IN, 1), OUT)` — an
    // empty input still has a plan — priced at the true `IN`.
    let closed_form = |n: u64, out: u64| {
        let (plan, _) = pick(class, &closed_form_costs(class, n.max(1), out, p));
        closed_form_costs(class, n, out, p)
            .into_iter()
            .find(|&(cand, _)| cand == plan)
            .map_or(0.0, |(_, cost)| cost)
    };
    // One propagation chain, priced by the closed forms at IN = |Δ| (cyclic
    // views have no closed form; the grid chain ships |Δ|·repl rows and the
    // delta output).
    let chain = match class {
        JoinClass::Cyclic => delta_in as f64 * repl / pf + dout / pf,
        _ => closed_form(delta_in, dout.ceil() as u64),
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
            closed_form(in_size, out_size)
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

/// Can [`Plan::SkewHybrid`] serve this query? A binary join of two
/// relations sharing at least one attribute (Cartesian pairs have no key to
/// hash on).
pub(crate) fn hybrid_applicable(q: &Query) -> bool {
    matches!(q.edges(), [l, r] if l.attrs.iter().any(|a| r.attrs.contains(a)))
}

/// Run `plan` for `q` on an already-distributed database. The optional
/// [`JoinSkew`] profile feeds the [`Plan::SkewHybrid`] arm (the engine
/// detects during planning and passes the profile through so execution does
/// not re-detect); without one that arm detects inline with
/// [`DEFAULT_SKEW_TOP_K`] nominations per server.
///
/// Seed discipline: every arm draws **exactly one** value from the caller's
/// seed stream and runs on its own derived stream, so replaying a seed
/// yields the identical run and the caller's stream advances the same way
/// regardless of which plan was chosen.
///
/// ```
/// use aj_core::dist::distribute_db;
/// use aj_core::planner::{execute, Plan};
/// use aj_mpc::Cluster;
/// use aj_relation::{database_from_rows, QueryBuilder};
///
/// let mut b = QueryBuilder::new();
/// b.relation("R1", &["A", "B"]);
/// b.relation("R2", &["B", "C"]);
/// let q = b.build();
/// let db = database_from_rows(&q, &[vec![vec![1, 10], vec![2, 10]], vec![vec![10, 7]]]);
///
/// // Simulate 4 servers; use `Cluster::new_parallel` for a thread pool —
/// // the result and the measured load are identical either way.
/// let mut cluster = Cluster::new(4);
/// let out = {
///     let mut net = cluster.net();
///     let mut seed = 42;
///     execute(&mut net, Plan::InstanceOptimal, &q, distribute_db(&db, 4), None, &mut seed)
/// };
/// assert_eq!(out.total_len(), 2);
/// assert!(cluster.stats().max_load > 0);
/// ```
///
/// # Panics
/// Panics if `plan` is [`Plan::SkewHybrid`] and `q` is not a binary join of
/// two relations sharing at least one attribute.
pub fn execute(
    net: &mut Net,
    plan: Plan,
    q: &Query,
    dist: DistDatabase,
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
            assert!(hybrid_applicable(q), "the hybrid plan serves binary joins");
            let [left, right]: [DistRelation; 2] = dist.try_into().expect("two relations");
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

/// [`execute`] without a skew profile. Kept for `mpcbench`'s adapter, which
/// replays the engine's phases.
pub fn execute_plan_dist(
    net: &mut Net,
    plan: Plan,
    q: &Query,
    dist: DistDatabase,
    seed: &mut u64,
) -> DistRelation {
    execute(net, plan, q, dist, None, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::distribute_db;
    use aj_instancegen::{line_query, shapes};
    use aj_mpc::{Cluster, Stats};
    use aj_relation::classify::classify;
    use aj_relation::{ram, Database, Tuple};

    /// Run `plan` on a fresh `p`-server cluster from `seed`: the sorted
    /// output, the caller's seed afterwards, and the cluster's stats.
    fn run(plan: Plan, q: &Query, db: &Database, p: usize, seed: u64) -> (Vec<Tuple>, u64, Stats) {
        let mut cluster = Cluster::new(p);
        let mut seed = seed;
        let out = {
            let mut net = cluster.net();
            execute(&mut net, plan, q, distribute_db(db, p), None, &mut seed)
        };
        let mut got = out.gather_free().tuples;
        got.sort_unstable();
        (got, seed, cluster.stats().clone())
    }

    fn line3_db(q: &Query) -> Database {
        aj_relation::query::database_from_rows(
            q,
            &[
                (0..24).map(|i| vec![i, i % 4]).collect(),
                (0..16).map(|i| vec![i % 4, i % 5]).collect(),
                (0..15).map(|i| vec![i % 5, i]).collect(),
            ],
        )
    }

    /// Acyclic candidates at a known `OUT`, no profile.
    fn pick_at(class: JoinClass, in_size: u64, out: u64, p: usize) -> (Plan, Option<f64>) {
        pick(
            class,
            &candidates(class, &line_query(3), &[in_size], Some(out), None, p),
        )
    }

    #[test]
    fn plans_follow_classification() {
        let class_plan = |q: &Query| Plan::for_class(classify(q));
        assert_eq!(class_plan(&shapes::tall_flat_q1()), Plan::InstanceOptimal);
        assert_eq!(
            class_plan(&shapes::rh_example_query()),
            Plan::InstanceOptimal
        );
        assert_eq!(class_plan(&line_query(3)), Plan::OutputOptimal);
        assert_eq!(class_plan(&shapes::triangle_query()), Plan::WorstCase);
    }

    #[test]
    fn class_plans_match_the_oracle() {
        let rh = shapes::rh_example_query();
        let rh_db = aj_relation::query::database_from_rows(
            &rh,
            &[
                (0..8).map(|i| vec![i]).collect(),
                (0..30).map(|i| vec![i % 10, i % 6]).collect(),
                (0..5).map(|i| vec![i]).collect(),
            ],
        );
        let line = line_query(3);
        for (q, db) in [(rh, rh_db), (line.clone(), line3_db(&line))] {
            let (_, mut want) = ram::join(&q, &db);
            want.sort_unstable();
            let (got, _, _) = run(Plan::for_class(classify(&q)), &q, &db, 4, 3);
            assert_eq!(got, want, "query {q}");
        }
        let tri = aj_instancegen::fig6::generate(60, 120, 3);
        let (got, _, _) = run(Plan::WorstCase, &tri.query, &tri.db, 8, 3);
        assert_eq!(got, ram::naive_join(&tri.query, &tri.db));
    }

    /// Every plan arm advances the caller's seed stream by exactly one draw.
    #[test]
    fn seed_stream_advances_uniformly() {
        let q_line = line_query(3);
        let db_line = line3_db(&q_line);
        let tri = aj_instancegen::fig6::generate(40, 60, 5);
        let after_thm7 = run(Plan::OutputOptimal, &q_line, &db_line, 4, 1234).1;
        let after_yann = run(Plan::Yannakakis, &q_line, &db_line, 4, 1234).1;
        let after_hcube = run(Plan::WorstCase, &tri.query, &tri.db, 4, 1234).1;
        assert_eq!(after_thm7, after_yann);
        assert_eq!(after_yann, after_hcube);
    }

    /// Replaying the same seed yields the identical run (result and loads).
    #[test]
    fn replayed_seed_is_identical() {
        let q = line_query(3);
        let db = line3_db(&q);
        let (t1, _, s1) = run(Plan::OutputOptimal, &q, &db, 4, 77);
        let (t2, _, s2) = run(Plan::OutputOptimal, &q, &db, 4, 77);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn cost_model_prefers_yannakakis_for_small_out() {
        // OUT < IN: the O(IN/p + OUT/p) baseline wins over √(IN·OUT)/p.
        assert_eq!(
            pick_at(JoinClass::Acyclic, 10_000, 64, 16).0,
            Plan::Yannakakis
        );
        // OUT ≥ IN: Theorem 7 wins.
        assert_eq!(
            pick_at(JoinClass::Acyclic, 10_000, 1_000_000, 16).0,
            Plan::OutputOptimal
        );
        // The mpcbench shim agrees.
        assert_eq!(
            choose_plan(JoinClass::Acyclic, 10_000, 64, 16),
            Plan::Yannakakis
        );
    }

    /// The hybrid plan competes only when a profile exists, wins when its
    /// profile-priced load beats the closed forms, and executes correctly.
    #[test]
    fn skew_hybrid_plan_selection_and_execution() {
        use aj_relation::skew::{JoinSkew, SkewProfile};
        let mut b = aj_relation::QueryBuilder::new();
        b.relation("R1", &["A", "B"]);
        b.relation("R2", &["B", "C"]);
        let q = b.build();
        let class = JoinClass::TallFlat;
        let price = |out: u64, skew: Option<&JoinSkew>| {
            pick(class, &candidates(class, &q, &[4096], Some(out), skew, 16))
        };
        // No profile: the hybrid is not a candidate.
        assert_ne!(price(1 << 20, None).0, Plan::SkewHybrid);
        // A clean profile on a high-OUT instance: one round, no output
        // movement — the hybrid wins.
        let clean = JoinSkew::empty(1);
        let (plan, est) = price(1 << 20, Some(&clean));
        assert_eq!(plan, Plan::SkewHybrid);
        let est = est.unwrap();
        assert!(est >= 4096.0 / 16.0);
        // A heavily skewed profile still wins over the hash-hostile closed
        // forms, with a larger estimate than the clean one.
        let skewed = JoinSkew {
            left: SkewProfile::from_counts(1, 2048, vec![(Tuple::from([7u64]), 1500)]),
            right: SkewProfile::from_counts(1, 2048, vec![(Tuple::from([7u64]), 1500)]),
        };
        assert!(price(1 << 21, Some(&skewed)).1.unwrap() > est);
        // Execution: the hybrid arm (self-detecting) matches the oracle.
        let db = aj_relation::database_from_rows(
            &q,
            &[
                (0..60).map(|i| vec![i, i % 5]).collect(),
                (0..40).map(|i| vec![i % 5, 100 + i]).collect(),
            ],
        );
        let (_, mut want) = ram::join(&q, &db);
        want.sort_unstable();
        let (got, after_hybrid, _) = run(Plan::SkewHybrid, &q, &db, 4, 99);
        assert_eq!(got, want);
        // Seed discipline: the hybrid arm advances the stream exactly like
        // every other arm.
        assert_eq!(after_hybrid, run(Plan::Yannakakis, &q, &db, 4, 99).1);
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
        let priced = candidates(JoinClass::Cyclic, &tri, &[32, 32, 32], None, None, 8);
        assert_eq!(pick(JoinClass::Cyclic, &priced).0, Plan::WorstCase);
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
        let (got, _, _) = run(Plan::Ghd, &q, &db, 8, 5);
        assert_eq!(got, ram::naive_join(&q, &db));
        assert_eq!(
            run(Plan::Ghd, &q, &db, 4, 4321).1,
            run(Plan::WorstCase, &q, &db, 4, 4321).1
        );
    }

    #[test]
    fn cost_model_ties_fall_back_to_class() {
        // OUT == IN on an r-hierarchical query: Thm-3's IN/p + √(OUT/p)
        // strictly beats the others, and is also the class answer.
        let (plan, est) = pick_at(JoinClass::RHierarchical, 4096, 4096, 16);
        assert_eq!(plan, Plan::InstanceOptimal);
        assert_eq!(
            est,
            Some(crate::bounds::r_hierarchical_bound(4096, 4096, 16))
        );
        // A hair-width gap is a tie: the class answer holds.
        let tied = [
            (Plan::OutputOptimal, 100.0),
            (Plan::Yannakakis, 100.0 - 1e-12),
        ];
        assert_eq!(pick(JoinClass::Acyclic, &tied).0, Plan::OutputOptimal);
        // Nothing priced (no OUT, or class-only dispatch): the class answer.
        assert!(candidates(JoinClass::Acyclic, &line_query(3), &[10], None, None, 8).is_empty());
        assert_eq!(pick(JoinClass::Acyclic, &[]), (Plan::OutputOptimal, None));
        // Cyclic classes have no closed form to price at (IN, OUT).
        assert_eq!(
            choose_plan(JoinClass::Cyclic, 1000, 1000, 8),
            Plan::WorstCase
        );
    }
}
