//! `mpcbench`: the repository's benchmark — four serving workloads on the
//! three backends, end-to-end metrics with tracing off and, in a separate
//! traced run, per-layer numbers timed from outside the program. The README
//! beside this file has the commands, every metric and the reasons.

mod run;
mod spans;
mod stats;
mod sut;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use stats::{secs_since, Metrics, Tally};
use workloads::{Kind, Sizes};

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "ops_per_s_seq",
    "ops_per_s_par",
    "ops_per_s_net",
    "op_ms_p90_seq",
    "max_load",
    "total_units",
    "peak_rss_mib",
];

/// Per-layer metrics (`--trace 1`) every workload reports, in
/// `BENCHMARK.json` order. What only one kind of workload has (`planner.*`,
/// `dist.*`, `delta.*`, …) is printed by the same run but is not in this list.
const PER_LAYER: [&str; 49] = [
    "backend.par_over_seq",
    "backend.net_over_seq",
    "backend.op_ms_p50.seq",
    "backend.op_ms_p50.par",
    "backend.op_ms_p90.par",
    "backend.op_ms_p50.net",
    "backend.op_ms_p90.net",
    "engine.max_load",
    "engine.load_per_op",
    "engine.rounds_per_op",
    "engine.units_per_round",
    "exec.ms_p50.seq",
    "exec.ms_p50.par",
    "exec.ms_p50.net",
    "exec.units_per_op",
    "exec.rounds_per_op",
    "exec.ns_per_unit.seq",
    "exec.us_per_round.seq",
    "exec.us_per_round.par",
    "exec.us_per_round.net",
    "mpc.round_us.seq",
    "mpc.round_us.par",
    "mpc.round_us.net",
    "mpc.region_us.seq",
    "mpc.region_us.par",
    "mpc.region_us.net",
    "mpc.route_rows_ns_per_unit.seq",
    "mpc.route_rows_ns_per_unit.par",
    "mpc.route_rows_ns_per_unit.net",
    "mpc.route_tuples_ns_per_unit.seq",
    "mpc.route_tuples_ns_per_unit.par",
    "mpc.route_tuples_ns_per_unit.net",
    "net.wire_bytes_per_op",
    "net.wire_bytes_per_unit",
    "net.empty_round_bytes",
    "wire.encode_ns_per_word",
    "wire.decode_ns_per_word",
    "fault.reliable_round_us",
    "fault.ack_bytes_share",
    "primitives.sum_by_key_ns_per_item",
    "primitives.semi_join_ns_per_item",
    "primitives.multi_numbering_ns_per_item",
    "primitives.parallel_packing_ns_per_item",
    "obs.trace_overhead_share",
    "obs.events_per_op",
    "bench.span_overhead_share",
    "host.cores",
    "host.canary_ms_p50",
    "host.canary_spread",
];

/// A traced run spends this share of `--seconds`, and at least this many
/// passes per backend, on the untraced passes its ratios are taken against.
const TRACED_UNTRACED_SHARE: f64 = 0.25;
const TRACED_MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: mpcbench --workload <serve_mixed|bulk_line3|bulk_binary|view_updates|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What one run of one workload produced.
struct RunResult {
    /// The metrics of the result line.
    selected: Metrics,
    tally: Tally,
    /// The traced run's spans.
    spans: Option<spans::Recorder>,
}

/// `--trace 0`: set up `sizes.setups` times (the last one is measured on),
/// time, verify, report the end-to-end metrics.
fn untraced(args: &Args, sizes: &Sizes) -> Result<RunResult, String> {
    let mut times = Vec::with_capacity(sizes.setups);
    let mut bench = None;
    for _ in 0..sizes.setups {
        drop(bench.take());
        let t0 = Instant::now();
        bench = run::set_up(&args.workload, args.seed, sizes);
        times.push(secs_since(t0));
    }
    let mut bench = bench.ok_or("unknown workload")?;
    let canary = run::measure(&mut bench, args.seconds, sizes);
    let checks = run::verify(&bench);
    let mut outcome = run::report(&bench, &canary, stats::median(&times), checks);
    // After the report has read the peak RSS of the timed section.
    let t0 = Instant::now();
    let named = run::named_counts(&bench, args.seed, sizes, &mut outcome.tally)
        .ok_or("an op of the named instance's pass failed")?;
    println!(
        "# max_load and total_units are counted on the seed-0 instance ({:.2} s)",
        secs_since(t0)
    );
    outcome
        .metrics
        .push("max_load", named.max_load as f64, "units");
    outcome
        .metrics
        .push("total_units", named.total_units as f64, "units");
    outcome
        .metrics
        .print("end-to-end metrics and the backend layer");
    Ok(RunResult {
        selected: outcome.metrics.select(&END_TO_END)?,
        tally: outcome.tally,
        spans: None,
    })
}

/// `--trace 1`: a short untraced section for the ratios, then the replay
/// and the probes.
fn traced(args: &Args, sizes: &Sizes) -> Result<RunResult, String> {
    let t0 = Instant::now();
    let mut bench = run::set_up(&args.workload, args.seed, sizes).ok_or("unknown workload")?;
    let setup_s = secs_since(t0);
    let short = Sizes {
        min_passes: TRACED_MIN_PASSES.min(sizes.min_passes),
        min_seq_ops: 0,
        ..*sizes
    };
    let canary = run::measure(&mut bench, args.seconds * TRACED_UNTRACED_SHARE, &short);
    let checks = run::verify(&bench);
    let outcome = run::report(&bench, &canary, setup_s, checks);
    let seq = &bench.lanes[0];
    let engine_epochs = seq
        .first_pass(bench.workload.pass_ops())
        .ok_or("an op of the first seq pass failed: nothing to replay against")?
        .to_vec();
    let cache_hit_share = sut::cache_hits(&seq.engine) as f64 / seq.tally.attempted.max(1) as f64;
    // The untraced engines (and their worker threads) are done.
    bench.lanes.clear();

    let mut t = traced::run(&bench.workload, &engine_epochs, sizes);
    if matches!(bench.workload.kind, Kind::Queries { .. }) {
        t.extra
            .push("engine.cache_hit_share", cache_hit_share, "ratio");
    }
    let mut all = outcome.metrics;
    all.0.append(&mut t.metrics.0);
    all.print("untraced section (short), then per-layer metrics");
    t.extra
        .print("per-layer metrics only this kind of workload has");
    // How much of an op's time the fixed cost of its rounds explains.
    for b in ["par", "net"] {
        let get = |name: String| all.get(&name).unwrap_or(f64::NAN);
        let per_round_us = get(format!("mpc.round_us.{b}")) + get(format!("mpc.region_us.{b}"));
        let op_us = 1e6 / get(format!("ops_per_s_{b}"));
        println!(
            "round_cost_share.{b} = {:.4} ((mpc.round_us + mpc.region_us) x engine.rounds_per_op / mean op time)",
            per_round_us * get("engine.rounds_per_op".to_string()) / op_us
        );
    }

    let mut tally = outcome.tally;
    tally.absorb(t.tally);
    Ok(RunResult {
        selected: all.select(&PER_LAYER)?,
        tally,
        spans: Some(t.spans),
    })
}

/// Run one workload in this process and print its result line.
fn run_one(args: &Args) -> Result<bool, String> {
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let result = if args.trace {
        traced(args, &sizes)?
    } else {
        untraced(args, &sizes)?
    };
    if let Some(rec) = &result.spans {
        let dir = std::path::Path::new("target").join("mpcbench");
        let path = dir.join(format!("{}.trace.json", args.workload));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json(rec.spans())))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} spans written to {}", rec.spans().len(), path.display());
    }
    let Tally { attempted, failed } = result.tally;
    let correct = failed == 0;
    println!(
        "failed_ops_share = {} ({failed} of {attempted} ops and checks)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        stats::result_json(correct, attempted, failed, &result.selected)
    );
    Ok(correct)
}

/// `--workload all`: one child process per workload (peak RSS is per
/// process), same flags otherwise.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for name in workloads::NAMES {
        let mut child_args = vec!["--workload".to_string(), name.to_string()];
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let done = if args.workload == "all" {
        run_all(&argv)
    } else {
        run_one(&args)
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_flags_parse() {
        let a = args(&[
            "--workload",
            "bulk_line3",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("bulk_line3", 7, 3.0)
        );
        assert!(a.trace && !a.smoke);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve_mixed", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve_mixed", "--seconds", "0"]).is_err());
        assert!(args(&[]).is_err());
    }

    /// `BENCHMARK.json` (at the repository root) and the harness must name
    /// the same metrics and workloads.
    #[test]
    fn benchmark_json_names_what_the_harness_prints() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let quoted = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for name in END_TO_END.iter().chain(&PER_LAYER).chain(&workloads::NAMES) {
            assert!(quoted(name), "`{name}` is missing from BENCHMARK.json");
        }
        let named = json.matches("\"name\": ").count();
        assert_eq!(
            named,
            END_TO_END.len() + PER_LAYER.len() + workloads::NAMES.len()
        );
    }

    /// The lines of a manifest's `[header]` section, comments dropped.
    fn section<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
        toml.lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The manifest beside this file (the benchmark driver's build) must
    /// build what `aj_bench`'s does (the workspace's build): its dependencies
    /// among `aj_bench`'s, the same features, the workspace's release profile.
    #[test]
    fn own_manifest_follows_the_workspace_build() {
        let own = include_str!("Cargo.toml");
        let aj_bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let dep_names = |toml| -> Vec<&str> {
            section(toml, "[dependencies]")
                .iter()
                .filter_map(|l| l.split('=').next().map(str::trim))
                .collect()
        };
        let of_aj_bench = dep_names(aj_bench);
        let of_own = dep_names(own);
        assert!(!of_own.is_empty());
        for dep in of_own {
            assert!(
                of_aj_bench.contains(&dep),
                "`{dep}` is not an aj_bench dependency"
            );
        }
        assert_eq!(section(own, "[features]"), section(aj_bench, "[features]"));
        assert_eq!(
            section(own, "[profile.release]"),
            section(root, "[profile.release]")
        );
    }

    /// Both runs of one workload at smoke sizes; the metrics of its result
    /// lines, end-to-end then per-layer.
    fn smoke_run(workload: &str, seed: u64) -> Vec<stats::Metric> {
        let a = Args {
            workload: workload.to_string(),
            seed,
            seconds: 0.01,
            trace: false,
            smoke: true,
        };
        let sizes = Sizes::smoke();
        let mut out = untraced(&a, &sizes).unwrap();
        let t = traced(&a, &sizes).unwrap();
        assert_eq!(
            out.tally.failed + t.tally.failed,
            0,
            "{workload} seed {seed}"
        );
        out.selected.0.extend(t.selected.0);
        out.selected.0
    }

    /// The metrics that are counts made by the program: they repeat
    /// bit-for-bit for a seed.
    const EXACT: [&str; 12] = [
        "max_load",
        "total_units",
        "engine.max_load",
        "engine.load_per_op",
        "engine.rounds_per_op",
        "engine.units_per_round",
        "exec.units_per_op",
        "exec.rounds_per_op",
        "net.wire_bytes_per_op",
        "net.wire_bytes_per_unit",
        "net.empty_round_bytes",
        "obs.events_per_op",
    ];

    #[test]
    fn exact_metrics_repeat_bit_for_bit_for_a_seed() {
        // One workload of each kind: queries and views.
        for workload in ["bulk_binary", "view_updates"] {
            let (a, b) = (smoke_run(workload, 4), smoke_run(workload, 4));
            for name in EXACT {
                let of = |run: &[stats::Metric]| {
                    let m = run.iter().find(|m| m.name == name).expect(name);
                    m.value.to_bits()
                };
                assert_eq!(of(&a), of(&b), "{workload}: {name}");
            }
        }
    }

    /// Seed 0 is the `repro engine` batch: its pinned load must come out.
    #[test]
    fn seed_zero_pins_the_engine_load() {
        let w = workloads::build("serve_mixed", 0, &Sizes::full()).unwrap();
        let mut lane = run::Lane::warmed(sut::Backend::Seq, &w);
        lane.timed_pass(&w);
        assert_eq!(lane.tally.failed, 0);
        let first = lane.first_pass(w.pass_ops()).unwrap();
        let max_load = first.iter().map(|e| e.execution.max_load).max();
        assert_eq!(max_load, Some(364));
    }
}
