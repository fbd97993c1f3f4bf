//! The experiment harness: one module per table/figure of the paper, each
//! regenerating the corresponding result as a measured experiment on the MPC
//! simulator. The `repro` binary prints them.
//!
//! Every measured experiment reports exact numbers only: the simulated load
//! `L`, the bounds it is compared against, and each cell's [`Cost`] (rounds
//! and units routed). No experiment reads a clock, so `repro --json` writes
//! a byte-stable record of the printed tables ([`jsonout`]). With
//! [`set_parallel`] (the `repro --parallel` flag) or [`set_net`] each
//! measurement also runs on that executor and asserts the same `Stats` and
//! result. Wall clocks belong to the `mpcbench` binary and the
//! [`microbench`] harness.

#![deny(unsafe_code)]

pub mod experiments;
pub mod jsonout;
pub mod microbench;
pub mod table;

pub use experiments::{
    net_enabled, net_uds_enabled, parallel_enabled, probe_net_transport, set_net, set_net_uds,
    set_parallel, set_trace, take_traces, trace_enabled, try_net_cluster, Cost,
};
pub use table::ExpTable;

/// All experiment ids, in paper order (then the experiments beyond the paper).
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1", "fig2", "table1", "sec13", "thm12", "thm3", "thm4", "fig3", "thm5", "fig4", "fig5",
    "thm7", "thm9", "fig6", "general", "scaling", "engine", "skew", "updates", "faults",
];

/// Run one experiment by id.
///
/// # Panics
/// Panics on an unknown id (the known ids are [`ALL_EXPERIMENTS`]).
pub fn run_experiment(id: &str) -> Vec<ExpTable> {
    match id {
        "fig1" => experiments::fig1::run(),
        "fig2" => experiments::fig2::run(),
        "table1" => experiments::table1::run(),
        "sec13" => experiments::sec13::run(),
        "thm12" => experiments::thm12::run(),
        "thm3" => experiments::thm3::run(),
        "thm4" => experiments::thm4::run(),
        "fig3" => experiments::fig3::run(),
        "thm5" => experiments::thm5::run(),
        "fig4" => experiments::fig4::run(),
        "fig5" => experiments::fig5::run(),
        "thm7" => experiments::thm7::run(),
        "thm9" => experiments::thm9::run(),
        "fig6" => experiments::fig6::run(),
        "general" => experiments::general::run(),
        "scaling" => experiments::scaling::run(),
        "engine" => experiments::engine::run(),
        "skew" => experiments::skew::run(),
        "updates" => experiments::updates::run(),
        "faults" => experiments::faults::run(),
        other => panic!("unknown experiment '{other}'; known: {ALL_EXPERIMENTS:?}"),
    }
}
