//! Pass 4 — wire-protocol checks on `aj_mpc`.
//!
//! * **`frame-recv`** — every transport `recv` call site must validate the
//!   received frame before trusting it: either by handing it to
//!   `frame_sender` (which asserts `kind`, `seq` and sender-in-view) or by
//!   asserting `.kind` and `.seq` itself. Functions *named* `recv` are the
//!   transport implementations/forwarders themselves and are exempt.
//! * **`stats-mutation`** — the `Stats` load counters are the experiment
//!   currency; only the charged helpers in `stats.rs`
//!   (`record_round` / `roll_epoch`) may mutate them.
//!   Everywhere else an assignment, compound assignment or mutating method
//!   on a counter field is a violation.

use crate::lexer::TokKind;
use crate::report::Violation;
use crate::source::SourceFile;

/// The `Stats`/`EpochStats` counter fields owned by `stats.rs`.
const COUNTER_FIELDS: &[&str] = &["exchanges", "max_load", "total_messages", "per_server_peak"];

/// Mutating container methods (for the `per_server_peak` vectors).
const MUTATING_METHODS: &[&str] = &[
    "push", "clear", "insert", "remove", "drain", "truncate", "pop",
];

fn is_punct(f: &SourceFile, i: usize, c: char) -> bool {
    f.tokens.get(i).map(|t| &t.kind) == Some(&TokKind::Punct(c))
}

fn ident(f: &SourceFile, i: usize) -> Option<&str> {
    match f.tokens.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Run the `frame-recv` rule on one file.
pub fn frame_recv(f: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if f.crate_name != "aj_mpc" || f.is_test_file {
        return out;
    }
    for i in 1..f.tokens.len() {
        if ident(f, i) != Some("recv") || !is_punct(f, i - 1, '.') || !is_punct(f, i + 1, '(') {
            continue;
        }
        let line = f.tokens[i].line;
        if f.is_test_line(line) || f.is_allowed("frame-recv", line) {
            continue;
        }
        let Some(func) = f.enclosing_fn(i) else {
            continue;
        };
        // Transport impls and forwarders produce the frame; validation is
        // the *caller's* duty.
        if func.name == "recv" {
            continue;
        }
        // From the recv site to the end of the enclosing function, the frame
        // must flow through frame_sender or have kind and seq asserted.
        let rest = &f.tokens[i..=func.body_close.min(f.tokens.len() - 1)];
        let mut has_frame_sender = false;
        let mut has_kind = false;
        let mut has_seq = false;
        for t in rest {
            if let TokKind::Ident(s) = &t.kind {
                match s.as_str() {
                    "frame_sender" => has_frame_sender = true,
                    "kind" => has_kind = true,
                    "seq" => has_seq = true,
                    _ => {}
                }
            }
        }
        if !(has_frame_sender || (has_kind && has_seq)) {
            out.push(Violation {
                rule: "frame-recv",
                path: f.rel_path.clone(),
                line,
                message: format!(
                    "recv in `{}` does not validate the frame: pass it to frame_sender or \
                     assert both .kind and .seq",
                    func.name
                ),
            });
        }
    }
    out
}

/// Run the `stats-mutation` rule on one file.
pub fn stats_mutation(f: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if f.crate_name != "aj_mpc" || f.is_test_file || f.file_name() == "stats.rs" {
        return out;
    }
    for i in 0..f.tokens.len() {
        let Some(name) = ident(f, i) else { continue };
        if !COUNTER_FIELDS.contains(&name) || i == 0 || !is_punct(f, i - 1, '.') {
            continue;
        }
        let line = f.tokens[i].line;
        if f.is_test_line(line) || f.is_allowed("stats-mutation", line) {
            continue;
        }
        // Skip an index expression after the field.
        let mut j = i + 1;
        if is_punct(f, j, '[') {
            let mut depth = 0usize;
            while j < f.tokens.len() {
                if is_punct(f, j, '[') {
                    depth += 1;
                } else if is_punct(f, j, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
        }
        // Plain assignment (not == / =>), compound assignment, or a
        // mutating method call on the field.
        let plain_assign =
            is_punct(f, j, '=') && !is_punct(f, j + 1, '=') && !is_punct(f, j + 1, '>');
        let compound_assign = (is_punct(f, j, '+') || is_punct(f, j, '-') || is_punct(f, j, '*'))
            && is_punct(f, j + 1, '=');
        let mutating_call = is_punct(f, j, '.')
            && matches!(ident(f, j + 1), Some(m) if MUTATING_METHODS.contains(&m));
        let mutated = plain_assign || compound_assign || mutating_call;
        if mutated {
            out.push(Violation {
                rule: "stats-mutation",
                path: f.rel_path.clone(),
                line,
                message: format!(
                    "mutation of Stats counter `{name}` outside stats.rs: go through the \
                     charged helpers (record_round/roll_epoch)"
                ),
            });
        }
    }
    out
}
