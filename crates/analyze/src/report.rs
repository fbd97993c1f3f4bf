//! Violations and the rule registry.

use std::fmt;

/// One rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id (`det-map`, `lock-cycle`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Every rule the analyzer knows, with a one-line description. Kept in sync
/// with the rule table in ARCHITECTURE.md.
pub const RULES: &[(&str, &str)] = &[
    (
        "det-map",
        "std HashMap/HashSet in a result-affecting crate (aj_relation, aj_core, aj_mpc, aj_primitives): use FxHashMap/FxHashSet or sort before iterating",
    ),
    (
        "wall-clock",
        "Instant/SystemTime/thread::current().id() outside the timing tools (aj_bench's microbench, mpcbench, bench targets): wall-clock state must not reach results or the paper record",
    ),
    (
        "safety-comment",
        "unsafe block/fn/impl without a `// SAFETY:` comment on or within 4 lines above the site",
    ),
    (
        "unsafe-inventory",
        "UNSAFETY.md is stale: regenerate with `cargo run -p aj_analyze -- --write-unsafety`",
    ),
    (
        "deny-unsafe",
        "a crate with no unsafe code is missing #![deny(unsafe_code)] in its lib.rs",
    ),
    (
        "lock-cycle",
        "cycle in the static lock-acquisition graph of aj_mpc (potential lock-order inversion); vet and allowlist in crates/analyze/lock_order.allow",
    ),
    (
        "condvar-wait-loop",
        "Condvar .wait() outside a loop: spurious wakeups require re-checking the predicate",
    ),
    (
        "frame-recv",
        "transport recv site does not validate the frame: call frame_sender (asserts kind, seq and sender) or assert .kind and .seq explicitly",
    ),
    (
        "stats-mutation",
        "Stats load counters may only be mutated by the charged helpers in stats.rs (record_round/roll_epoch)",
    ),
];

/// Sort violations for stable, diffable output.
pub fn sort_violations(v: &mut [Violation]) {
    v.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
}
