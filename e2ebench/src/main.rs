//! The OTEM benchmark: closed-loop, fleet and serving workloads measured
//! end to end (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! e2ebench --workload <otem_cycle|fleet_mixed|fleet_reactive|serve_mix>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it stamps the
//! run (nproc, commit, rustc, profile, seed). Any failed correctness
//! check makes the exit code non-zero.

mod fleet;
mod layers;
mod ledger;
mod otem_cycle;
mod serve;
mod serve_mix;
mod stats;
mod vehicle;

use layers::Metrics;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use vehicle::Quality;

/// Workload names.
pub const WORKLOADS: [&str; 4] = ["otem_cycle", "fleet_mixed", "fleet_reactive", "serve_mix"];

/// End-to-end metrics (`--trace 0`), every workload: name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("vehicles_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("hees_energy_kj", "kJ/h"),
    ("q_loss_ppm", "ppm/h"),
    ("peak_temp_c", "degC"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), every workload: name and unit.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("mpc.solve_us_p50", "us"),
    ("mpc.solve_us_p99", "us"),
    ("mpc.iterations_per_solve", "count"),
    ("mpc.rollouts_per_solve", "count"),
    ("mpc.converged_ratio", "ratio"),
    ("mpc.budget_exhausted_ratio", "ratio"),
    ("mpc.rollout_us", "us"),
    ("mpc.gradient_us", "us"),
    ("mpc.backward_sweep_us", "us"),
    ("solver.iteration_us", "us"),
    ("policy.plan_us_p50", "us"),
    ("policy.plan_us_p99", "us"),
    ("hees.step_ns", "ns"),
    ("thermal.step_ns", "ns"),
    ("thermal.actuate_ns", "ns"),
    ("kernel.share", "ratio"),
    ("sim.advance_us", "us"),
    ("sim.overhead_us", "us"),
    ("policy.apply_us", "us"),
    ("policy.reactive_step_us", "us"),
    ("campaign.trace_for_us", "us"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.summary_us", "us"),
    ("drivecycle.trace_ms", "ms"),
    ("engine.otem_vehicle_ms", "ms"),
    ("engine.reactive_vehicle_us", "us"),
    ("engine.busy_ratio", "ratio"),
    ("engine.straggler_ms", "ms"),
    ("server.connect_us", "us"),
    ("server.ttfb_ms_p50", "ms"),
    ("server.ttfb_ms_p95", "ms"),
    ("server.transfer_ms", "ms"),
    ("server.parse_us", "us"),
    ("server.engine_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.shed_ratio", "ratio"),
    ("gen.lateness_ms_p95", "ms"),
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.scrape_bytes", "bytes"),
    ("trace.explained_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (steps, vehicles, requests, checks).
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    stamps: Vec<(String, String)>,
    errors: Vec<String>,
}

impl Report {
    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Adds a stamp to the run's header line.
    pub fn stamp(&mut self, key: &str, value: String) {
        self.stamps.push((key.to_owned(), value));
    }

    /// Sets the end-to-end metrics shared by every workload.
    pub fn e2e(
        &mut self,
        setup_s: f64,
        steps_per_s: f64,
        vehicles_per_s: f64,
        latency_p50_ms: f64,
        latency_tail_ms: f64,
        quality: &Quality,
    ) {
        self.stamp("shortfall_kj_h", format!("{:.6}", quality.shortfall_kj_h()));
        self.e2e = vec![
            ("setup_s", setup_s),
            ("steps_per_s", steps_per_s),
            ("vehicles_per_s", vehicles_per_s),
            ("latency_p50_ms", latency_p50_ms),
            ("latency_tail_ms", latency_tail_ms),
            ("hees_energy_kj", quality.energy_kj_h()),
            ("q_loss_ppm", quality.q_loss_ppm_h()),
            ("peak_temp_c", quality.peak_temp_c()),
            ("peak_rss_mb", stats::peak_rss_mb()),
        ];
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    otem_telemetry::write_json_string(&mut out, s);
    out
}

/// Renders the result line, checking that `metrics` holds exactly the
/// names of `table`, each finite; anything else is a failed check.
fn result_line(report: &mut Report, table: &[(&str, &str)], metrics: &Metrics) -> String {
    for (name, _) in metrics {
        if !table.iter().any(|(n, _)| n == name) || !stats::valid_name(name) {
            report.fail(format!("unlisted metric {name}"));
        }
    }
    let mut body = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = match metrics
            .iter()
            .filter(|(n, _)| n == name)
            .map(|x| x.1)
            .collect::<Vec<_>>()[..]
        {
            [v] if v.is_finite() => v,
            [v] => {
                report.fail(format!("metric {name} is {v}"));
                0.0
            }
            _ => {
                report.fail(format!("metric {name} missing or repeated"));
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (seed, secs) = (args.seed, args.seconds);
    let mut report = match (args.workload.as_str(), args.trace) {
        ("otem_cycle", false) => otem_cycle::run(seed, secs),
        ("otem_cycle", true) => otem_cycle::trace(seed, shards),
        ("fleet_mixed", false) => fleet::run(fleet::Fleet::Mixed, seed, secs, shards),
        ("fleet_mixed", true) => fleet::trace(fleet::Fleet::Mixed, seed, shards),
        ("fleet_reactive", false) => fleet::run(fleet::Fleet::Reactive, seed, secs, shards),
        ("fleet_reactive", true) => fleet::trace(fleet::Fleet::Reactive, seed, shards),
        ("serve_mix", false) => serve_mix::run(seed, secs, shards),
        (_, _) => serve_mix::trace(seed, secs, shards),
    };
    let (table, metrics): (&[(&str, &str)], Metrics) = if args.trace {
        (&PER_LAYER, std::mem::take(&mut report.layers))
    } else {
        (&END_TO_END, std::mem::take(&mut report.e2e))
    };
    let result = result_line(&mut report, table, &metrics);

    let mut stamp = vec![
        ("workload".to_owned(), args.workload.clone()),
        ("seed".to_owned(), seed.to_string()),
        ("seconds".to_owned(), secs.to_string()),
        ("trace".to_owned(), args.trace.to_string()),
        ("nproc".to_owned(), shards.to_string()),
        (
            "commit".to_owned(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
        ("rustc".to_owned(), command_line("rustc", &["-V"])),
        (
            "profile".to_owned(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
        ),
    ];
    stamp.append(&mut report.stamps);
    let fields: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("{{\"stamp\": {{{}}}}}", fields.join(", "));
    for e in &report.errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    println!("{result}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quoted strings following each `"name":` in whitespace-free JSON.
    fn names_in(json: &str) -> Vec<String> {
        json.split("\"name\":")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_owned))
            .collect()
    }

    #[test]
    fn every_emitted_name_is_valid() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w), "{w}");
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|x| x.0)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let json: String =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root")
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect();
        let listed = names_in(&json);
        let mut expected: Vec<String> = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|x| &x.0))
            .chain(PER_LAYER.iter().map(|x| &x.0))
            .map(|s| s.to_string())
            .collect();
        expected.sort();
        let mut listed_sorted = listed.clone();
        listed_sorted.sort();
        assert_eq!(listed_sorted, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_flags_missing_and_unlisted_metrics() {
        let mut r = Report::default();
        let line = result_line(
            &mut r,
            &[("a", "s"), ("b", "ms")],
            &vec![("a", 1.5), ("c", 2.0)],
        );
        assert_eq!(r.failed, 2);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 2"));
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
