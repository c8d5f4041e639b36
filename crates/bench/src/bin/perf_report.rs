//! Performance trajectory for the MPC hot path: finite-difference
//! gradients and the reverse-mode adjoint gradient, across horizon
//! lengths.
//!
//! Runs warm-started `Mpc::solve` repetitions at horizons {12, 24, 48}
//! in [`GradientMode::Serial`] and [`GradientMode::Adjoint`] and writes
//! `BENCH_mpc.json` (per-solve latency, rollouts/second, solves/second,
//! iteration counts, solver-outcome distributions, speedups) so later
//! changes have a baseline to compare against.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin perf_report -- [--gradient adjoint]`.
//! `--gradient adjoint` runs a quick adjoint-only smoke — used by
//! `scripts/tier1.sh` — that asserts the per-solve rollout count stays
//! horizon-independent, and does not rewrite `BENCH_mpc.json`.
//!
//! The adjoint differentiates the executed clamp branch exactly instead
//! of sampling across it, so its decisions are *not* asserted
//! bit-identical to FD; its correctness contract lives in
//! `tests/gradient_parity.rs` and `tests/golden_traces.rs`.

use otem::mpc::{GradientMode, Mpc, MpcConfig, MpcPlant};
use otem::SystemConfig;
use otem_hees::HybridHees;
use otem_solver::SolverOutcome;
use otem_telemetry::{JsonlSink, MetricsRegistry, NullSink, Sink};
use otem_thermal::{CoolingPlant, ThermalModel, ThermalState};
use otem_units::{Kelvin, Ratio, Seconds, Watts};
use std::time::Instant;

const HORIZONS: [usize; 3] = [12, 24, 48];
const REPS: usize = 8;

fn plant(config: &SystemConfig) -> MpcPlant {
    let mut hees = HybridHees::ev_default(config.capacitance).unwrap();
    hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
    MpcPlant {
        hees,
        thermal: ThermalModel::new(config.thermal_active).unwrap(),
        plant: CoolingPlant::new(config.plant).unwrap(),
        state: ThermalState::uniform(Kelvin::from_celsius(33.0)),
        aging: config.aging,
        soc_min: config.soc_min,
        soe_min: config.soe_min,
        battery_power_max: config.battery_power_max,
        cap_power_max: config.cap_power_max,
    }
}

/// Count of timed solves by solver outcome — the full termination
/// distribution, recorded per mode per horizon.
#[derive(Default)]
struct OutcomeCounts {
    converged: u64,
    budget_exhausted: u64,
    stalled: u64,
    non_finite: u64,
    deadline_reached: u64,
}

impl OutcomeCounts {
    fn record(&mut self, outcome: SolverOutcome) {
        match outcome {
            SolverOutcome::Converged => self.converged += 1,
            SolverOutcome::BudgetExhausted => self.budget_exhausted += 1,
            SolverOutcome::Stalled => self.stalled += 1,
            SolverOutcome::NonFinite => self.non_finite += 1,
            SolverOutcome::DeadlineReached => self.deadline_reached += 1,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{ \"converged\": {}, \"budget_exhausted\": {}, \"stalled\": {}, \
             \"non_finite\": {}, \"deadline_reached\": {} }}",
            self.converged,
            self.budget_exhausted,
            self.stalled,
            self.non_finite,
            self.deadline_reached
        )
    }

    /// Folds this distribution into `registry` under the same
    /// `otem_solve_outcome_total{mode,outcome}` family the serving
    /// layer exports, so BENCH_mpc.json and live scrapes read
    /// identically.
    fn fold_into(&self, registry: &MetricsRegistry, mode: GradientMode) {
        const HELP: &str = "MPC solve outcomes by gradient mode across the timed solves.";
        for (outcome, n) in [
            ("converged", self.converged),
            ("budget_exhausted", self.budget_exhausted),
            ("stalled", self.stalled),
            ("non_finite", self.non_finite),
            ("deadline_reached", self.deadline_reached),
        ] {
            registry
                .counter(
                    "otem_solve_outcome_total",
                    HELP,
                    &[("mode", mode.name()), ("outcome", outcome)],
                )
                .add(n);
        }
    }
}

struct ModeStats {
    mean_ms: f64,
    min_ms: f64,
    rollouts_per_sec: f64,
    rollouts_per_solve: f64,
    solves_per_sec: f64,
    mean_iterations: f64,
    outcomes: OutcomeCounts,
    /// First decision, checked finite.
    cap_bus: f64,
    cool_duty: f64,
}

fn run_mode(
    p: &MpcPlant,
    loads: &[Watts],
    horizon: usize,
    mode: GradientMode,
    sink: &dyn Sink,
) -> ModeStats {
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        gradient_mode: mode,
        ..MpcConfig::default()
    });
    let dt = Seconds::new(1.0);
    // Warm-up solve: populates the workspace pool and the warm start, so
    // the timed repetitions measure the steady state. Only this solve is
    // traced — the timed loop below runs unobserved so the telemetry
    // writer cannot pollute the latency numbers.
    let first = mpc.solve_with(p, loads, dt, sink);
    let rollouts_before = mpc.rollouts();
    let mut latencies_ms = Vec::with_capacity(REPS);
    let mut outcomes = OutcomeCounts::default();
    let mut iters_total = 0usize;
    let started = Instant::now();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let d = mpc.solve(p, loads, dt);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(d.cap_bus.is_finite(), "solve produced a non-finite command");
        outcomes.record(d.outcome);
        iters_total += d.iterations;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let rollouts = mpc.rollouts() - rollouts_before;
    ModeStats {
        mean_ms: latencies_ms.iter().sum::<f64>() / REPS as f64,
        min_ms: latencies_ms.iter().copied().fold(f64::INFINITY, f64::min),
        rollouts_per_sec: rollouts as f64 / elapsed,
        rollouts_per_solve: rollouts as f64 / REPS as f64,
        solves_per_sec: REPS as f64 / elapsed,
        mean_iterations: iters_total as f64 / REPS as f64,
        outcomes,
        cap_bus: first.cap_bus.value(),
        cool_duty: first.cool_duty,
    }
}

/// Adjoint-only smoke (`--gradient adjoint`): a quick assertion that the
/// tape gradient's per-solve rollout count is small and does not grow
/// with the horizon — the property the adjoint exists for. FD makes
/// `4·horizon + 1` rollout calls *per gradient* (a checkpoint pass plus
/// one resumed suffix per perturbed evaluation; ≥ 1470/solve at horizon
/// 12 with the 30-iteration default); the adjoint needs one taped
/// rollout per gradient, so a generous `8·iterations` ceiling still
/// separates the two by an order of magnitude.
fn adjoint_smoke(config: &SystemConfig) {
    let p = plant(config);
    let iterations = MpcConfig::default().solver_iterations;
    let ceiling = (8 * iterations) as f64;
    println!(
        "{:<8} {:>12} {:>14} {:>14}",
        "horizon", "adjoint_ms", "adj_ro/s", "adj_ro/solve"
    );
    for horizon in HORIZONS {
        let loads: Vec<Watts> = (0..horizon)
            .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
            .collect();
        let adj = run_mode(&p, &loads, horizon, GradientMode::Adjoint, &NullSink);
        println!(
            "{:<8} {:>12.3} {:>14.0} {:>14.1}",
            horizon, adj.mean_ms, adj.rollouts_per_sec, adj.rollouts_per_solve
        );
        assert!(
            adj.rollouts_per_solve < ceiling,
            "horizon {horizon}: {} rollouts/solve — adjoint gradient is \
             paying per-coordinate rollouts (FD would need ≥ {})",
            adj.rollouts_per_solve,
            (4 * horizon + 1) * iterations
        );
    }
    println!("\nadjoint smoke: rollouts/solve horizon-independent, all decisions finite");
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--gradient" {
            match args.next().as_deref() {
                Some("adjoint") => smoke = true,
                Some("fd") | Some("all") => smoke = false,
                other => panic!("--gradient expects adjoint|fd|all, got {other:?}"),
            }
        } else {
            panic!("unrecognised argument {arg:?}");
        }
    }
    let config = SystemConfig::default();
    if smoke {
        adjoint_smoke(&config);
        return;
    }
    let p = plant(&config);
    std::fs::create_dir_all("results").expect("results dir");
    let sink = JsonlSink::create("results/perf_report_telemetry.jsonl").expect("telemetry file");

    println!(
        "{:<8} {:>11} {:>11} {:>7}",
        "horizon", "serial_ms", "adj_ms", "adj_x"
    );
    // Every mode's outcome distribution also folds into one registry
    // snapshot, embedded in the report as the `metrics` object — the
    // same family (and JSON shape) the serving layer exports.
    let registry = MetricsRegistry::new();
    let mut rows = Vec::new();
    for horizon in HORIZONS {
        let loads: Vec<Watts> = (0..horizon)
            .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
            .collect();
        let serial = run_mode(&p, &loads, horizon, GradientMode::Serial, &sink);
        let adjoint = run_mode(&p, &loads, horizon, GradientMode::Adjoint, &sink);
        serial.outcomes.fold_into(&registry, GradientMode::Serial);
        adjoint.outcomes.fold_into(&registry, GradientMode::Adjoint);
        assert!(serial.cap_bus.is_finite() && serial.cool_duty.is_finite());
        assert!(adjoint.cap_bus.is_finite() && adjoint.cool_duty.is_finite());
        let adj_speedup = serial.mean_ms / adjoint.mean_ms;
        let rollout_reduction = serial.rollouts_per_solve / adjoint.rollouts_per_solve;
        println!(
            "{:<8} {:>11.3} {:>11.3} {:>7.2}",
            horizon, serial.mean_ms, adjoint.mean_ms, adj_speedup
        );
        let mode_json = |s: &ModeStats| {
            format!(
                "{{ \"mean_ms\": {:.4}, \"min_ms\": {:.4}, \"rollouts_per_sec\": {:.0}, \
                 \"rollouts_per_solve\": {:.1}, \"solves_per_sec\": {:.1}, \
                 \"mean_iterations\": {:.1}, \"outcomes\": {} }}",
                s.mean_ms,
                s.min_ms,
                s.rollouts_per_sec,
                s.rollouts_per_solve,
                s.solves_per_sec,
                s.mean_iterations,
                s.outcomes.json()
            )
        };
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"horizon\": {},\n",
                "      \"serial\": {},\n",
                "      \"adjoint\": {},\n",
                "      \"fd_vs_adjoint_speedup\": {:.3},\n",
                "      \"rollout_reduction\": {:.1}\n",
                "    }}"
            ),
            horizon,
            mode_json(&serial),
            mode_json(&adjoint),
            adj_speedup,
            rollout_reduction
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"mpc_solve_gradient_modes\",\n",
            "  \"solves_per_mode\": {},\n",
            "  \"cpu_cores\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n",
            "}}\n"
        ),
        REPS,
        cores,
        rows.join(",\n"),
        registry.snapshot().render_json()
    );
    std::fs::write("BENCH_mpc.json", &json).expect("write BENCH_mpc.json");
    sink.flush();
    println!("\nwrote BENCH_mpc.json ({cores} cores)");
    println!("wrote results/perf_report_telemetry.jsonl (warm-up solve traces)");
}
