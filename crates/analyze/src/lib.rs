//! `aj_analyze` — the workspace invariant checker.
//!
//! Everything this reproduction claims rests on one property: sequential,
//! parallel and message-passing execution are *bit-identical* (same join
//! results, same `Stats`). The differential tests check that property
//! dynamically; this crate checks the static invariants that protect it,
//! as structured file:line lints over a hand-rolled Rust token scanner
//! (dependency-free, consistent with the workspace's offline stand-in
//! philosophy):
//!
//! 1. **Determinism** ([`determinism`]) — no `std::collections::HashMap`/
//!    `HashSet` in result-affecting crates (`det-map`), no wall-clock or
//!    thread-identity reads outside the wall-clock benchmark tools
//!    (`wall-clock`).
//! 2. **Unsafe hygiene** ([`unsafety`]) — every `unsafe` site carries a
//!    `// SAFETY:` comment (`safety-comment`), the committed `UNSAFETY.md`
//!    inventory matches the code (`unsafe-inventory`), and unsafe-free
//!    crates declare `#![deny(unsafe_code)]` (`deny-unsafe`).
//! 3. **Concurrency** ([`locks`]) — the static lock-acquisition graph of
//!    `aj_mpc` has no unvetted cycles (`lock-cycle`), and every Condvar
//!    wait sits in a loop (`condvar-wait-loop`).
//! 4. **Wire protocol** ([`wire`]) — every transport recv site validates
//!    frame kind and seq (`frame-recv`), and `Stats` counters are only
//!    mutated by the charged helpers in `stats.rs` (`stats-mutation`).
//!
//! Run it as `cargo run -p aj_analyze -- --check`; CI gates on the exit
//! code. Waive a vetted site with a `// aj:allow(rule-id): why` comment on
//! or directly above the line; vetted lock-graph edges go in
//! `crates/analyze/lock_order.allow`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod determinism;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod source;
pub mod unsafety;
pub mod walk;
pub mod wire;

use std::fs;
use std::path::Path;

pub use report::{sort_violations, Violation, RULES};
pub use source::SourceFile;

/// Everything one full analysis run produces.
#[derive(Debug)]
pub struct Analysis {
    /// All violations, sorted by (path, line, rule).
    pub violations: Vec<Violation>,
    /// The canonical `UNSAFETY.md` content for the scanned sources.
    pub unsafety_md: String,
    /// The assembled lock graph (for reporting).
    pub lock_graph: locks::LockGraph,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Run every per-file rule on one parsed file. Workspace-level rules
/// (`unsafe-inventory`, `deny-unsafe`, `lock-cycle`, `condvar-wait-loop`)
/// need the whole file set and live in [`analyze_files`].
pub fn per_file_rules(f: &SourceFile) -> Vec<Violation> {
    let mut v = Vec::new();
    v.extend(determinism::det_map(f));
    v.extend(determinism::wall_clock(f));
    v.extend(unsafety::safety_comment(f));
    v.extend(wire::frame_recv(f));
    v.extend(wire::stats_mutation(f));
    v
}

/// Analyze a set of parsed files against workspace context: the committed
/// `UNSAFETY.md` (None if absent) and the lock-order allowlist.
pub fn analyze_files(
    files: &[SourceFile],
    unsafety_md: Option<&str>,
    lock_allow: &[(String, String)],
) -> Analysis {
    let mut violations = Vec::new();
    let mut sites = Vec::new();
    for f in files {
        violations.extend(per_file_rules(f));
        sites.extend(unsafety::collect_sites(f));
    }
    violations.extend(unsafety::inventory_check(&sites, unsafety_md));
    violations.extend(unsafety::deny_unsafe(files));
    let (condvar, lock_graph) = locks::analyze(files);
    violations.extend(condvar);
    violations.extend(locks::cycle_check(&lock_graph, lock_allow));
    sort_violations(&mut violations);
    Analysis {
        violations,
        unsafety_md: unsafety::render_unsafety(&sites),
        lock_graph,
        files_scanned: files.len(),
    }
}

/// Load and analyze the workspace rooted at `root`.
pub fn analyze_root(root: &Path) -> Analysis {
    let files: Vec<SourceFile> = walk::workspace_files(root)
        .iter()
        .filter_map(|p| {
            let text = fs::read_to_string(p).ok()?;
            Some(SourceFile::parse(&walk::rel_path(p, root), &text))
        })
        .collect();
    let unsafety_md = fs::read_to_string(root.join("UNSAFETY.md")).ok();
    let allow = fs::read_to_string(root.join("crates/analyze/lock_order.allow"))
        .map(|t| locks::parse_allowlist(&t))
        .unwrap_or_default();
    analyze_files(&files, unsafety_md.as_deref(), &allow)
}
