//! Pass 2 — unsafe hygiene.
//!
//! * **`safety-comment`** — every `unsafe` site (block, fn, trait or impl)
//!   must carry a `// SAFETY:` comment on its line or within the 4 lines
//!   above it. The window tolerates a binding line between the comment and
//!   the `unsafe` token (`let x = Foo { f: unsafe { … } }`).
//! * **`unsafe-inventory`** — `UNSAFETY.md` at the workspace root is the
//!   generated inventory of every unsafe site with its justification; the
//!   check fails when it no longer matches the code.
//! * **`deny-unsafe`** — crates with no unsafe code must say so:
//!   `#![deny(unsafe_code)]` in their `lib.rs` turns the absence into a
//!   compiler-enforced invariant.

use crate::lexer::TokKind;
use crate::report::Violation;
use crate::source::SourceFile;

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit.
const SAFETY_WINDOW: u32 = 4;

/// Crate directories (under `crates/`) that must carry
/// `#![deny(unsafe_code)]`. Everything outside this list is allowed to have
/// vetted unsafe sites.
pub const UNSAFE_FREE_CRATES: &[&str] = &[
    "analyze",
    "bench",
    "core",
    "instancegen",
    "obs",
    "primitives",
    "proptest",
    "rand",
    "relation",
];

/// One `unsafe` occurrence in the workspace.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `unsafe` token.
    pub line: u32,
    /// Site flavor: `unsafe impl`, `unsafe fn`, `unsafe trait`, `unsafe block`.
    pub kind: String,
    /// A short code snippet (the tokens following `unsafe`).
    pub snippet: String,
    /// Enclosing function, if any.
    pub context: Option<String>,
    /// The `SAFETY:` justification, if present.
    pub justification: Option<String>,
}

fn token_text(kind: &TokKind) -> String {
    match kind {
        TokKind::Ident(s) => s.clone(),
        TokKind::Punct(c) => c.to_string(),
        TokKind::Lit => "_".to_string(),
        TokKind::Lifetime => "'_".to_string(),
    }
}

/// The `SAFETY:` comment near `line`, rendered as one string: find the
/// closest comment line in `[line - SAFETY_WINDOW, line]` containing
/// `SAFETY:`, then extend through the contiguous comment lines below it.
fn justification_near(f: &SourceFile, line: u32) -> Option<String> {
    let lo = line.saturating_sub(SAFETY_WINDOW);
    let start = (lo..=line)
        .rev()
        .find(|&l| f.comment_on(l).is_some_and(|t| t.contains("SAFETY:")))?;
    let mut parts = Vec::new();
    let mut l = start;
    while let Some(text) = f.comment_on(l) {
        let cleaned = text
            .trim_start()
            .trim_start_matches("//")
            .trim_start_matches('!')
            .trim_start_matches('/')
            .trim();
        let cleaned = cleaned.strip_prefix("SAFETY:").unwrap_or(cleaned).trim();
        if !cleaned.is_empty() {
            parts.push(cleaned.to_string());
        }
        l += 1;
    }
    Some(parts.join(" "))
}

/// Collect every unsafe site in `f` with its justification.
pub fn collect_sites(f: &SourceFile) -> Vec<UnsafeSite> {
    let mut out = Vec::new();
    for (i, t) in f.tokens.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        if name != "unsafe" {
            continue;
        }
        let kind = match f.tokens.get(i + 1).map(|n| &n.kind) {
            Some(TokKind::Ident(s)) if s == "impl" => "unsafe impl",
            Some(TokKind::Ident(s)) if s == "fn" => "unsafe fn",
            Some(TokKind::Ident(s)) if s == "trait" => "unsafe trait",
            _ => "unsafe block",
        };
        let snippet: String = f.tokens[i + 1..]
            .iter()
            .take(6)
            .take_while(|t| t.kind != TokKind::Punct('{'))
            .map(|t| token_text(&t.kind))
            .collect::<Vec<_>>()
            .join(" ");
        out.push(UnsafeSite {
            path: f.rel_path.clone(),
            line: t.line,
            kind: kind.to_string(),
            snippet,
            context: f.enclosing_fn(i).map(|s| s.name.clone()),
            justification: justification_near(f, t.line),
        });
    }
    out
}

/// Run the `safety-comment` rule on one file.
pub fn safety_comment(f: &SourceFile) -> Vec<Violation> {
    collect_sites(f)
        .into_iter()
        .filter(|s| s.justification.is_none() && !f.is_allowed("safety-comment", s.line))
        .map(|s| Violation {
            rule: "safety-comment",
            path: s.path,
            line: s.line,
            message: format!(
                "{} without a `// SAFETY:` comment on the site or within {SAFETY_WINDOW} \
                 lines above it",
                s.kind
            ),
        })
        .collect()
}

/// Render the canonical `UNSAFETY.md` from all collected sites (files in
/// walk order, sites in line order — fully deterministic).
pub fn render_unsafety(sites: &[UnsafeSite]) -> String {
    let mut out = String::new();
    out.push_str("# Unsafe inventory\n\n");
    out.push_str(
        "Generated by `cargo run -p aj_analyze -- --write-unsafety`; checked for staleness by\n\
         `cargo run -p aj_analyze -- --check` (rule `unsafe-inventory`). Do not edit by hand.\n\n",
    );
    out.push_str(&format!(
        "{} unsafe site(s). Every site must carry a `// SAFETY:` comment (rule\n\
         `safety-comment`); crates listed in `UNSAFE_FREE_CRATES` carry\n\
         `#![deny(unsafe_code)]` instead (rule `deny-unsafe`).\n",
        sites.len()
    ));
    let mut last_path = "";
    for s in sites {
        if s.path != last_path {
            out.push_str(&format!("\n## {}\n\n", s.path));
            last_path = &s.path;
        }
        let ctx = match &s.context {
            Some(c) => format!("in `{c}`"),
            None => "at module scope".to_string(),
        };
        let what = if s.snippet.is_empty() {
            s.kind.clone()
        } else {
            format!("{} `{}`", s.kind, s.snippet)
        };
        out.push_str(&format!(
            "- **line {}** — {} {}: {}\n",
            s.line,
            what,
            ctx,
            s.justification
                .as_deref()
                .unwrap_or("(MISSING SAFETY COMMENT)")
        ));
    }
    out
}

/// Run the `unsafe-inventory` staleness check against the committed file.
pub fn inventory_check(sites: &[UnsafeSite], committed: Option<&str>) -> Vec<Violation> {
    let expected = render_unsafety(sites);
    match committed {
        Some(text) if text == expected => Vec::new(),
        _ => vec![Violation {
            rule: "unsafe-inventory",
            path: "UNSAFETY.md".to_string(),
            line: 1,
            message: "stale or missing unsafe inventory: run \
                      `cargo run -p aj_analyze -- --write-unsafety`"
                .to_string(),
        }],
    }
}

/// Run the `deny-unsafe` rule across all files: for each crate in
/// [`UNSAFE_FREE_CRATES`], its `src/lib.rs` must contain
/// `#![deny(unsafe_code)]`.
pub fn deny_unsafe(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for dir in UNSAFE_FREE_CRATES {
        let lib = format!("crates/{dir}/src/lib.rs");
        let Some(f) = files.iter().find(|f| f.rel_path == lib) else {
            continue;
        };
        let has_deny = f.tokens.windows(4).any(|w| {
            matches!(&w[0].kind, TokKind::Ident(s) if s == "deny")
                && w[1].kind == TokKind::Punct('(')
                && matches!(&w[2].kind, TokKind::Ident(s) if s == "unsafe_code")
                && w[3].kind == TokKind::Punct(')')
        });
        if !has_deny {
            out.push(Violation {
                rule: "deny-unsafe",
                path: lib,
                line: 1,
                message: format!(
                    "crate `{dir}` is unsafe-free and must declare #![deny(unsafe_code)]"
                ),
            });
        }
    }
    out
}
