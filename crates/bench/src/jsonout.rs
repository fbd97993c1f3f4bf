//! Hand-rolled JSON rendering of the paper record (`repro --json
//! BENCH_repro.json`). serde is unavailable in the offline build
//! environment; the schema is small, so a direct writer keeps the output
//! stable and dependency-free.
//!
//! Schema (version 3): the tables `repro` prints, cell for cell.
//!
//! ```json
//! {
//!   "schema": 3,
//!   "experiments": [
//!     {
//!       "id": "scaling",
//!       "tables": [
//!         {
//!           "title": "Scaling: binary join load across p (IN=96000)",
//!           "header": ["p", "OUT", "L", "rounds", "units"],
//!           "rows": [
//!             ["4", "576000", "24348", "…", "…"]
//!           ]
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Every cell is exact (loads, counts, bounds), so the document is
//! byte-stable: `--parallel` and `--backend net` only add assertions, and
//! two runs of the same experiments write the same bytes.

use crate::table::ExpTable;

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn strings<S: AsRef<str>>(cells: &[S]) -> String {
    let quoted: Vec<String> = cells
        .iter()
        .map(|c| format!("\"{}\"", esc(c.as_ref())))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// Render the record of `(experiment id, tables)` pairs, in run order.
pub fn render(runs: &[(&str, Vec<ExpTable>)]) -> String {
    let mut out = String::from("{\n  \"schema\": 3,\n  \"experiments\": [\n");
    for (i, (id, tables)) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"id\": \"{}\",\n      \"tables\": [\n",
            esc(id)
        ));
        for (j, t) in tables.iter().enumerate() {
            out.push_str(&format!(
                "        {{\n          \"title\": \"{}\",\n          \"header\": {},\n          \"rows\": [\n",
                esc(&t.title),
                strings(&t.header)
            ));
            for (k, row) in t.rows.iter().enumerate() {
                let sep = if k + 1 == t.rows.len() { "" } else { "," };
                out.push_str(&format!("            {}{sep}\n", strings(row)));
            }
            let sep = if j + 1 == tables.len() { "" } else { "," };
            out.push_str(&format!("          ]\n        }}{sep}\n"));
        }
        let sep = if i + 1 == runs.len() { "" } else { "," };
        out.push_str(&format!("      ]\n    }}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_tables_cell_for_cell() {
        let mut t = ExpTable::new("demo \"q\"", &["p", "L"]);
        t.row(vec!["4".into(), "10".into()]);
        t.row(vec!["8".into(), "6".into()]);
        let s = render(&[("demo", vec![t])]);
        assert!(s.contains("\"schema\": 3"));
        assert!(s.contains("\"id\": \"demo\""));
        assert!(s.contains("\"title\": \"demo \\\"q\\\"\""));
        assert!(s.contains("\"header\": [\"p\", \"L\"]"));
        assert!(s.contains("[\"4\", \"10\"],\n"));
        assert!(s.contains("[\"8\", \"6\"]\n"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\u000ay");
    }

    /// The record is the same bytes whether or not `measure` re-runs every
    /// cell on the parallel executor. The flag is restored by a drop guard
    /// even if an experiment panics.
    #[test]
    fn record_is_identical_with_parallel_comparison() {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                crate::set_parallel(false);
            }
        }
        let _restore = Restore;
        let record = || {
            let runs: Vec<(&str, Vec<ExpTable>)> = ["thm3", "scaling", "updates"]
                .into_iter()
                .map(|id| (id, crate::run_experiment(id)))
                .collect();
            render(&runs)
        };
        let plain = record();
        crate::set_parallel(true);
        assert_eq!(plain, record());
    }
}
