//! Span-trace profiler for the MPC hot path.
//!
//! Ingests the span JSONL an instrumented run emits (see
//! `otem_telemetry::span` and `otem_bench::spans`), validates that the
//! stream is balanced and properly nested, prints the per-phase table
//! (count, cumulative, self time, mean, p50/p95/p99) and writes the
//! same figures as JSON to `results/trace_spans.json` (gitignored, so
//! gate runs leave the tree clean; copy it over the committed
//! `BENCH_spans.json` to take a deliberate snapshot).
//!
//! Usage:
//!
//! - `trace_report --input results/foo.jsonl` — analyze an existing
//!   trace;
//! - `trace_report [--steps N]` (default 120) — drive the OTEM
//!   methodology over the first `N` seconds of US06 on the stress rig,
//!   tracing into `results/trace_spans.jsonl`, then analyze that.
//!
//! Exits nonzero on a structurally invalid trace (unbalanced starts /
//! ends, out-of-order closes, child time exceeding parent time), so
//! `scripts/tier1.sh` can gate on it.

use otem_bench::{spans, stress_config, stress_trace, Methodology};
use otem_drivecycle::{PowerTrace, StandardCycle};
use otem_telemetry::JsonlSink;
use std::io::BufRead as _;

const TRACE_PATH: &str = "results/trace_spans.jsonl";
const REPORT_PATH: &str = "results/trace_spans.json";

struct Args {
    input: Option<String>,
    steps: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        input: None,
        steps: 120,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--input" => args.input = it.next(),
            "--steps" => {
                args.steps = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--steps needs a positive integer"));
            }
            "--help" | "-h" => {
                println!("usage: trace_report [--input FILE | --steps N]");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("trace_report: {msg}");
    std::process::exit(2);
}

/// Runs the OTEM methodology over `steps` seconds of US06 on the
/// stress rig, streaming telemetry (spans included) to [`TRACE_PATH`].
fn generate_trace(steps: usize) -> String {
    let config = stress_config();
    let full = stress_trace(StandardCycle::Us06, 1).expect("US06 synthesis");
    let n = steps.min(full.len());
    let trace = PowerTrace::new(full.dt(), full.samples()[..n].to_vec());
    std::fs::create_dir_all("results").expect("results dir");
    let sink = JsonlSink::create(TRACE_PATH).expect("trace file");
    let result = otem_bench::run_with(Methodology::Otem, &config, &trace, &sink)
        .expect("OTEM controller builds");
    assert_eq!(result.records.len(), n, "simulation covered the trace");
    println!(
        "traced {n}-step US06 OTEM run -> {TRACE_PATH} \
         (battery ended at {:.2} degC)",
        result
            .records
            .last()
            .map_or(f64::NAN, |r| { r.state.battery_temp.to_celsius().value() })
    );
    TRACE_PATH.to_string()
}

fn main() {
    let args = parse_args();
    let path = match &args.input {
        Some(p) => p.clone(),
        None => generate_trace(args.steps),
    };

    let file =
        std::fs::File::open(&path).unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
    let lines = std::io::BufReader::new(file).lines().map_while(Result::ok);
    let analysis = spans::analyze(lines);

    println!();
    print!("{}", analysis.render_table());
    println!();
    println!(
        "{} spans across {} phases",
        analysis.spans.len(),
        analysis.phases.len()
    );

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(REPORT_PATH, analysis.render_json(args.steps))
        .unwrap_or_else(|e| die(&format!("cannot write {REPORT_PATH}: {e}")));
    println!("wrote {REPORT_PATH}");

    if !analysis.is_balanced() {
        eprintln!("\ntrace is structurally invalid:");
        for e in &analysis.errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
}
