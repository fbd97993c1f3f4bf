//! Self-tests: every lint fixture must be flagged with the right rule id at
//! the right line, the clean fixture must pass every rule, and the real
//! workspace must be violation-free (which is what CI gates on).

use aj_analyze::{locks, per_file_rules, SourceFile};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// (rule, line) pairs of all violations for one fixture parsed at `rel_path`.
fn flags(rel_path: &str, name: &str) -> Vec<(String, u32)> {
    let f = SourceFile::parse(rel_path, &fixture(name));
    let mut v = per_file_rules(&f);
    let (condvar, graph) = locks::analyze(std::slice::from_ref(&f));
    v.extend(condvar);
    v.extend(locks::cycle_check(&graph, &[]));
    v.into_iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect()
}

#[test]
fn det_map_fixture_is_flagged_and_waiver_respected() {
    let got = flags("crates/relation/src/det_map.rs", "det_map.rs");
    assert_eq!(
        got,
        vec![("det-map".to_string(), 3), ("det-map".to_string(), 8)],
        "the use on line 3 and the bare map on line 8; line 7 is waived"
    );
}

#[test]
fn det_map_is_scoped_to_result_affecting_crates() {
    // The same source in a non-result crate or under tests/ is legal.
    let bench = SourceFile::parse("crates/bench/src/det_map.rs", &fixture("det_map.rs"));
    assert!(per_file_rules(&bench).is_empty());
    let test = SourceFile::parse("crates/relation/tests/det_map.rs", &fixture("det_map.rs"));
    assert!(per_file_rules(&test).is_empty());
}

#[test]
fn wall_clock_fixture_is_flagged() {
    let got = flags("crates/mpc/src/wall_clock.rs", "wall_clock.rs");
    assert_eq!(
        got,
        vec![("wall-clock".to_string(), 4), ("wall-clock".to_string(), 5)],
        "Instant::now on line 4, thread::current().id() on line 5"
    );
}

#[test]
fn wall_clock_is_legal_in_the_timing_tools() {
    for path in [
        "crates/bench/src/microbench.rs",
        "crates/bench/src/bin/mpcbench/x.rs",
    ] {
        let f = SourceFile::parse(path, &fixture("wall_clock.rs"));
        assert!(per_file_rules(&f).is_empty(), "{path}");
    }
}

#[test]
fn wall_clock_is_flagged_in_the_paper_record() {
    for path in [
        "crates/bench/src/experiments/x.rs",
        "crates/bench/src/jsonout.rs",
    ] {
        let got = flags(path, "wall_clock.rs");
        assert_eq!(
            got,
            vec![("wall-clock".to_string(), 4), ("wall-clock".to_string(), 5)],
            "{path}"
        );
    }
}

#[test]
fn bare_unsafe_is_flagged_and_justified_unsafe_passes() {
    let got = flags("crates/mpc/src/unsafe_sites.rs", "unsafe_sites.rs");
    assert_eq!(
        got,
        vec![("safety-comment".to_string(), 9)],
        "line 5 carries a SAFETY comment; line 9 does not"
    );
}

#[test]
fn lock_cycle_fixture_builds_the_expected_graph() {
    let f = SourceFile::parse("crates/mpc/src/lock_cycle.rs", &fixture("lock_cycle.rs"));
    let (_, graph) = locks::analyze(std::slice::from_ref(&f));
    let edges: Vec<(String, String)> = graph
        .edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    assert!(edges.contains(&("lock_cycle.rs:m1".into(), "lock_cycle.rs:m2".into())));
    assert!(edges.contains(&("lock_cycle.rs:m2".into(), "lock_cycle.rs:m1".into())));
    assert!(
        edges.contains(&("lock_cycle.rs:m3".into(), "lock_cycle.rs:m4".into())),
        "call-mediated edge gamma -> delta must be found: {edges:?}"
    );
}

#[test]
fn lock_cycle_is_reported_and_allowlist_silences_it() {
    let f = SourceFile::parse("crates/mpc/src/lock_cycle.rs", &fixture("lock_cycle.rs"));
    let (_, graph) = locks::analyze(std::slice::from_ref(&f));
    let cycles = locks::cycle_check(&graph, &[]);
    assert_eq!(cycles.len(), 1, "exactly the m1/m2 inversion: {cycles:?}");
    assert_eq!(cycles[0].rule, "lock-cycle");
    assert!(cycles[0].message.contains("lock_cycle.rs:m1"));
    assert!(cycles[0].message.contains("lock_cycle.rs:m2"));

    let allow = vec![(
        "lock_cycle.rs:m1".to_string(),
        "lock_cycle.rs:m2".to_string(),
    )];
    assert!(locks::cycle_check(&graph, &allow).is_empty());
}

#[test]
fn bare_condvar_wait_is_flagged_and_looped_wait_passes() {
    let got = flags("crates/mpc/src/condvar_wait.rs", "condvar_wait.rs");
    assert_eq!(
        got,
        vec![("condvar-wait-loop".to_string(), 6)],
        "the wait on line 6 has no loop; the one on line 13 does"
    );
}

#[test]
fn unvalidated_recv_is_flagged_and_validated_recvs_pass() {
    let got = flags("crates/mpc/src/wire_recv.rs", "wire_recv.rs");
    assert_eq!(
        got,
        vec![("frame-recv".to_string(), 5)],
        "bad_pull never validates; good_pull uses frame_sender, asserted_pull asserts kind+seq"
    );
}

#[test]
fn raw_stats_mutations_are_flagged_and_helpers_pass() {
    let got = flags("crates/mpc/src/stats_mut.rs", "stats_mut.rs");
    assert_eq!(
        got,
        vec![
            ("stats-mutation".to_string(), 5),
            ("stats-mutation".to_string(), 6),
            ("stats-mutation".to_string(), 7),
        ],
        "assignment, compound assignment and push are all raw mutations"
    );
}

#[test]
fn stats_mutation_is_legal_inside_stats_rs() {
    let f = SourceFile::parse("crates/mpc/src/stats.rs", &fixture("stats_mut.rs"));
    assert!(per_file_rules(&f).is_empty());
}

#[test]
fn clean_fixture_passes_every_rule() {
    let got = flags("crates/mpc/src/clean.rs", "clean.rs");
    assert!(got.is_empty(), "clean fixture must not be flagged: {got:?}");
}

#[test]
fn workspace_has_zero_violations() {
    // The CI gate in test form: the real tree, the committed UNSAFETY.md and
    // the committed allowlist must be violation-free together.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let analysis = aj_analyze::analyze_root(root);
    assert!(
        analysis.violations.is_empty(),
        "workspace violations:\n{}",
        analysis
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(analysis.files_scanned > 50, "walker found the workspace");
}

#[test]
fn workspace_lock_graph_contains_the_vetted_shuffle_edge() {
    // The allowlisted stashes self-loop must actually exist in the graph —
    // if it disappears, the allowlist entry is dead and should be removed.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let analysis = aj_analyze::analyze_root(root);
    assert!(
        analysis
            .lock_graph
            .edges
            .iter()
            .any(|e| e.from == "transport.rs:stashes" && e.to == "transport.rs:stashes"),
        "expected the ShuffleTransport stash self-edge in: {:?}",
        analysis.lock_graph.edges
    );
}
