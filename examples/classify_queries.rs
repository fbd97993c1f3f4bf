//! Explore the paper's query taxonomy (Figure 1): classify queries, print
//! attribute forests, minimal paths (Lemma 2), edge covers (Lemma 1) and
//! the plan the library would pick.
//!
//! ```sh
//! cargo run --release --example classify_queries
//! ```

use acyclic_joins::instancegen::shapes;
use acyclic_joins::prelude::*;
use acyclic_joins::relation::classify::AttributeForest;
use acyclic_joins::relation::cover::min_edge_cover;
use acyclic_joins::relation::minpath::find_minimal_path3;

fn inspect(q: &Query) {
    println!("query: {q}");
    println!("  class: {}", classify(q));
    println!("  plan:  {:?}", Plan::for_class(classify(q)));
    if q.is_acyclic() {
        let cover = min_edge_cover(q);
        let names: Vec<&str> = cover.iter().map(|&e| q.edge(e).name.as_str()).collect();
        println!("  integral edge cover (Lemma 1): {{{}}}", names.join(", "));
    }
    match find_minimal_path3(q) {
        Some(w) => {
            let names: Vec<&str> = w.attrs.iter().map(|&a| q.attr_name(a)).collect();
            println!("  minimal path of length 3 (Lemma 2): {}", names.join("–"));
        }
        None => println!("  minimal path of length 3 (Lemma 2): none"),
    }
    if let Some(forest) = AttributeForest::build(q) {
        println!("  attribute forest:");
        for line in forest.render(q).lines() {
            println!("    {line}");
        }
    }
    println!();
}

fn main() {
    inspect(&shapes::tall_flat_q1());
    inspect(&shapes::hierarchical_q2());
    inspect(&shapes::rh_example_query());
    inspect(&acyclic_joins::instancegen::line_query(3));
    inspect(&shapes::figure5_query());
    inspect(&shapes::triangle_query());
}
