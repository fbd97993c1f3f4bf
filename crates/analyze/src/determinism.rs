//! Pass 1 — determinism lints.
//!
//! Everything this reproduction claims (paper load bounds, incremental
//! maintenance pricing, cross-backend conformance) rests on seq/par/net
//! execution being bit-identical. Two lexically checkable hazards can break
//! that silently:
//!
//! * **`det-map`** — `std::collections::HashMap`/`HashSet` iterate in
//!   `RandomState` order, different on every run. In result-affecting crates
//!   every map must be the deterministic `FxHashMap` family
//!   (`aj_relation::fxhash`) or its iteration order must provably not reach
//!   results (then waive the site with `// aj:allow(det-map): why`).
//! * **`wall-clock`** — `Instant`, `SystemTime`, the timed blocking
//!   primitives (`recv_timeout`, `wait_timeout`, `park_timeout`) and
//!   `thread::current().id()` are per-run state; outside the timing tools
//!   (`aj_bench`'s microbench harness and `mpcbench`, plus bench targets and
//!   test code) nothing may read them. In particular the
//!   reliable-delivery retransmit backoff must be driven by logical step
//!   counters, not clocks, and `repro`'s paper record stays clock-free.

use crate::report::Violation;
use crate::source::SourceFile;

use crate::lexer::TokKind;

/// Crates whose data structures affect query results or Stats.
const RESULT_CRATES: &[&str] = &["aj_relation", "aj_core", "aj_mpc", "aj_primitives"];

/// Run the `det-map` rule on one file.
pub fn det_map(f: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if !RESULT_CRATES.contains(&f.crate_name.as_str()) || f.is_test_file {
        return out;
    }
    for t in &f.tokens {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        if f.is_test_line(t.line) || f.is_allowed("det-map", t.line) {
            continue;
        }
        out.push(Violation {
            rule: "det-map",
            path: f.rel_path.clone(),
            line: t.line,
            message: format!(
                "std::collections::{name} in result-affecting crate {}: use Fx{name} \
                 (aj_relation::fxhash) or sort before iterating",
                f.crate_name
            ),
        });
    }
    out
}

/// The only non-test sources that may read a clock: the wall-clock
/// benchmark tools. `crates/bench/benches/` is bench code by location and
/// exempt like tests.
const TIMING_TOOLS: &[&str] = &[
    "crates/bench/src/microbench.rs",
    "crates/bench/src/bin/mpcbench/",
];

/// Run the `wall-clock` rule on one file.
///
/// Besides the clock *types*, the rule flags the timed blocking primitives
/// (`recv_timeout`, `wait_timeout`, `park_timeout`): a timeout that expires
/// is a wall-clock *observation*, so retransmit/backoff logic must count
/// logical steps (empty polls) instead — or carry an explicit
/// `aj:allow(wall-clock)` waiver arguing the expiry cannot reach results.
pub fn wall_clock(f: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if f.is_test_file || TIMING_TOOLS.iter().any(|t| f.rel_path.starts_with(t)) {
        return out;
    }
    // The one vetted clock sink of the observability layer: `aj_obs`
    // timestamps annotate trace entries for human consumption only, and
    // `Trace::logical_events` strips them before any cross-backend
    // comparison — timings can never feed results. The sink is confined to
    // this single file so the exemption stays reviewable.
    if f.rel_path == "crates/obs/src/wall.rs" {
        return out;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        let flagged = match name.as_str() {
            "Instant" | "SystemTime" => true,
            "recv_timeout" | "wait_timeout" | "wait_timeout_while" | "park_timeout" => true,
            // thread::current().id()
            "current" => {
                matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('(')))
                    && matches!(toks.get(i + 2).map(|t| &t.kind), Some(TokKind::Punct(')')))
                    && matches!(toks.get(i + 3).map(|t| &t.kind), Some(TokKind::Punct('.')))
                    && matches!(toks.get(i + 4).map(|t| &t.kind), Some(TokKind::Ident(s)) if s == "id")
            }
            _ => false,
        };
        if !flagged || f.is_test_line(t.line) || f.is_allowed("wall-clock", t.line) {
            continue;
        }
        out.push(Violation {
            rule: "wall-clock",
            path: f.rel_path.clone(),
            line: t.line,
            message: format!(
                "wall-clock/thread-identity source `{name}` outside the timing tools: results \
                 must not depend on per-run state"
            ),
        });
    }
    out
}
