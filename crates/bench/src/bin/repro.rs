//! `repro` — regenerate the paper's tables and figures as measured
//! experiments on the MPC simulator.
//!
//! ```text
//! repro                      # run everything (sequential executor)
//! repro --parallel           # also run every measurement on the parallel
//!                            #   executor: assert equal Stats and results
//! repro --backend net        # also run every measurement on the network
//!                            #   backend (message passing over wire frames):
//!                            #   assert equal Stats and results
//! repro --backend par        # alias for --parallel; --backend seq is a no-op
//! repro --backend net --transport uds
//!                            # route the network backend over real
//!                            #   unix-domain sockets (default: chan, the
//!                            #   in-process transport); prints a clear error
//!                            #   if uds support is compiled out or sockets
//!                            #   cannot be created
//! repro --json BENCH.json    # additionally write the printed tables as
//!                            #   JSON: the exact, byte-stable paper record
//! repro --trace TRACE.json   # record the structured trace of every
//!                            #   sequential measurement and write the whole
//!                            #   run as one Chrome trace-event file
//!                            #   (load in Perfetto / chrome://tracing)
//! repro list                 # list experiment ids
//! repro fig3 thm5            # run selected experiments
//! repro --parallel fig3 thm5 # flags and ids combine
//! ```

use aj_bench::{
    probe_net_transport, run_experiment, set_net, set_net_uds, set_parallel, set_trace,
    take_traces, ALL_EXPERIMENTS,
};

fn main() {
    let mut parallel = false;
    let mut net = false;
    let mut uds = false;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--parallel" | "-P" => parallel = true,
            "--backend" => {
                let backend = args.next().unwrap_or_else(|| {
                    eprintln!("error: --backend needs one of: seq, par, net");
                    std::process::exit(2);
                });
                match backend.as_str() {
                    "seq" => {}
                    "par" => parallel = true,
                    "net" => net = true,
                    other => {
                        eprintln!("error: unknown backend '{other}' (expected seq, par or net)");
                        std::process::exit(2);
                    }
                }
            }
            "--transport" => {
                let transport = args.next().unwrap_or_else(|| {
                    eprintln!("error: --transport needs one of: chan, uds");
                    std::process::exit(2);
                });
                match transport.as_str() {
                    "chan" => uds = false,
                    "uds" => uds = true,
                    other => {
                        eprintln!("error: unknown transport '{other}' (expected chan or uds)");
                        std::process::exit(2);
                    }
                }
            }
            "--json" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("error: --json needs a file path");
                    std::process::exit(2);
                });
                json_path = Some(path);
            }
            "--trace" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("error: --trace needs a file path");
                    std::process::exit(2);
                });
                trace_path = Some(path);
            }
            "list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--parallel] [--backend seq|par|net] [--transport chan|uds] \
                     [--json PATH] [--trace PATH] [list | EXPERIMENT...]"
                );
                println!("experiments: {}", ALL_EXPERIMENTS.join(" "));
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if uds && !net {
        eprintln!("error: --transport uds requires --backend net");
        std::process::exit(2);
    }
    set_parallel(parallel);
    set_net(net);
    set_net_uds(uds);
    set_trace(trace_path.is_some());
    // Fail fast with a clean diagnostic (not a mid-experiment panic) if the
    // requested transport cannot be built — uds compiled out, or socketpair
    // creation failing outright.
    if let Err(e) = probe_net_transport() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let ids: Vec<&str> = if ids.is_empty() {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    if let Some(bad) = ids.iter().find(|id| !ALL_EXPERIMENTS.contains(id)) {
        eprintln!("error: unknown experiment '{bad}'");
        eprintln!("known experiments: {}", ALL_EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    println!("acyclic-joins reproduction — Hu & Yi, PODS 2019");
    println!("load L = max tuples received by any server in any round");
    if parallel {
        println!(
            "parallel comparison ON: every measurement re-runs on ParExecutor (same Stats asserted)"
        );
    }
    if net {
        println!(
            "network backend ON: every measurement re-runs on NetExecutor \
             (message passing over wire frames, same Stats asserted; transport: {})",
            if uds { "unix-domain sockets" } else { "chan" }
        );
    }
    if trace_path.is_some() {
        println!(
            "structured tracing ON: every sequential measurement records its logical \
             event trace (exported as Chrome trace-event JSON at the end of the run)"
        );
    }
    println!();
    let mut runs = Vec::new();
    for id in ids {
        let tables = run_experiment(id);
        for table in &tables {
            println!("{table}");
        }
        runs.push((id, tables));
    }
    if let Some(path) = json_path {
        let doc = aj_bench::jsonout::render(&runs);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[paper record written to {path}]");
    }
    if let Some(path) = trace_path {
        let traces = take_traces();
        let refs: Vec<(String, &aj_obs::Trace)> =
            traces.iter().map(|(l, t)| (l.clone(), t)).collect();
        let events: u64 = traces.iter().map(|(_, t)| t.recorded()).sum();
        let doc = aj_obs::chrome::render_many(&refs);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "[{events} trace events across {} traces written to {path}]",
            traces.len()
        );
    }
}
