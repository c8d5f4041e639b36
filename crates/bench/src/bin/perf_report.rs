//! Performance trajectory for the MPC hot path: finite-difference
//! gradients, the reverse-mode adjoint gradient, and Gauss-Newton on the
//! adjoint tape, across horizon lengths.
//!
//! Runs warm-started `Mpc::solve` repetitions at horizons {12, 24, 48}
//! in [`GradientMode::Serial`] and [`GradientMode::Adjoint`] for the
//! latency table, then re-runs
//! Adjoint vs [`GradientMode::GaussNewton`] under a raised iteration
//! budget to measure *iterations to tolerance*, and writes
//! `BENCH_mpc.json` (per-solve latency, rollouts/second, solves/second,
//! iteration counts, solver-outcome distributions, speedups) so later
//! changes have a baseline to compare against.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin perf_report -- [--gradient adjoint|gauss-newton]`.
//! `--gradient adjoint` runs a quick adjoint-only smoke — used by
//! `scripts/tier1.sh` — that asserts the per-solve rollout count stays
//! horizon-independent; `--gradient gauss-newton` runs a second-order
//! smoke asserting certified convergence in strictly fewer iterations
//! than first-order descent. No smoke rewrites `BENCH_mpc.json`.
//!
//! The adjoint differentiates the executed clamp branch exactly instead
//! of sampling across it, so its decisions are *not* asserted
//! bit-identical to FD; its correctness contract lives in
//! `tests/gradient_parity.rs` and `tests/golden_traces.rs`.

use otem::mpc::{Mpc, MpcConfig, MpcPlant};
use otem::SystemConfig;
use otem_hees::HybridHees;
use otem_solver::{GradientMode, SolverOutcome};
use otem_telemetry::{JsonlSink, MetricsRegistry, NullSink, Sink};
use otem_thermal::{CoolingPlant, ThermalModel, ThermalState};
use otem_units::{Kelvin, Ratio, Seconds, Watts};
use std::time::Instant;

const HORIZONS: [usize; 3] = [12, 24, 48];
const REPS: usize = 8;

/// Iteration budget for the iterations-to-tolerance comparison: high
/// enough that termination is decided by convergence, not the cap.
const TOL_BUDGET: usize = 400;

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
    /// Outcome of the last timed solve (the fully warm-started one).
    last_outcome: SolverOutcome,
    /// First decision, checked finite.
    cap_bus: f64,
    cool_duty: f64,
}

fn run_mode(
    p: &MpcPlant,
    loads: &[Watts],
    horizon: usize,
    mode: GradientMode,
    iterations: usize,
    sink: &dyn Sink,
) -> ModeStats {
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        gradient_mode: mode,
        solver_iterations: iterations,
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
    let mut last_outcome = first.outcome;
    let started = Instant::now();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let d = mpc.solve(p, loads, dt);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(d.cap_bus.is_finite(), "solve produced a non-finite command");
        outcomes.record(d.outcome);
        iters_total += d.iterations;
        last_outcome = d.outcome;
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
        last_outcome,
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
        let adj = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::Adjoint,
            iterations,
            &NullSink,
        );
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

/// Gauss-Newton smoke (`--gradient gauss-newton`): under a raised
/// iteration budget at horizon 12, the tape-curvature mode must reach
/// *certified* convergence once warm-started, in strictly fewer
/// iterations than first-order adjoint descent spends on the same
/// problem — the property the mode exists for.
fn gauss_newton_smoke(config: &SystemConfig) {
    let p = plant(config);
    let horizon = 12;
    let loads: Vec<Watts> = (0..horizon)
        .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
        .collect();
    let adj = run_mode(
        &p,
        &loads,
        horizon,
        GradientMode::Adjoint,
        TOL_BUDGET,
        &NullSink,
    );
    let gn = run_mode(
        &p,
        &loads,
        horizon,
        GradientMode::GaussNewton,
        TOL_BUDGET,
        &NullSink,
    );
    println!(
        "horizon {horizon}: adjoint {:.1} it/solve ({}), gauss-newton {:.1} it/solve ({})",
        adj.mean_iterations,
        adj.outcomes.json(),
        gn.mean_iterations,
        gn.outcomes.json()
    );
    assert_eq!(
        gn.last_outcome,
        SolverOutcome::Converged,
        "warm-started Gauss-Newton must certify convergence"
    );
    assert!(
        gn.mean_iterations < adj.mean_iterations,
        "Gauss-Newton used {:.1} iterations/solve vs adjoint's {:.1} — \
         the tape curvature bought nothing",
        gn.mean_iterations,
        adj.mean_iterations
    );
    println!("\ngauss-newton smoke: converged in fewer iterations than first-order descent");
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut smoke: Option<&str> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--gradient" {
            match args.next().as_deref() {
                Some("adjoint") => smoke = Some("adjoint"),
                Some("gauss-newton") => smoke = Some("gauss-newton"),
                Some("fd") | Some("all") => smoke = None,
                other => {
                    panic!("--gradient expects adjoint|gauss-newton|fd|all, got {other:?}")
                }
            }
        } else {
            panic!("unrecognised argument {arg:?}");
        }
    }
    let config = SystemConfig::default();
    match smoke {
        Some("adjoint") => {
            adjoint_smoke(&config);
            return;
        }
        Some(_) => {
            gauss_newton_smoke(&config);
            return;
        }
        None => {}
    }
    let p = plant(&config);
    std::fs::create_dir_all("results").expect("results dir");
    let sink = JsonlSink::create("results/perf_report_telemetry.jsonl").expect("telemetry file");

    let default_iters = MpcConfig::default().solver_iterations;
    println!(
        "{:<8} {:>11} {:>11} {:>11} {:>8} {:>8} {:>7}",
        "horizon", "serial_ms", "adj_ms", "gn_ms", "adj_it", "gn_it", "adj_x"
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
        let serial = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::Serial,
            default_iters,
            &sink,
        );
        let adjoint = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::Adjoint,
            default_iters,
            &sink,
        );
        // Iterations-to-tolerance: same problem, raised budget, so the
        // iteration count — not the cap — decides termination.
        let adjoint_tol = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::Adjoint,
            TOL_BUDGET,
            &sink,
        );
        let gauss_newton = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::GaussNewton,
            TOL_BUDGET,
            &sink,
        );
        serial.outcomes.fold_into(&registry, GradientMode::Serial);
        adjoint.outcomes.fold_into(&registry, GradientMode::Adjoint);
        adjoint_tol
            .outcomes
            .fold_into(&registry, GradientMode::Adjoint);
        gauss_newton
            .outcomes
            .fold_into(&registry, GradientMode::GaussNewton);
        assert!(serial.cap_bus.is_finite() && serial.cool_duty.is_finite());
        assert!(adjoint.cap_bus.is_finite() && adjoint.cool_duty.is_finite());
        assert!(gauss_newton.cap_bus.is_finite() && gauss_newton.cool_duty.is_finite());
        assert!(
            gauss_newton.mean_iterations < adjoint_tol.mean_iterations,
            "horizon {horizon}: Gauss-Newton used {:.1} iterations/solve vs \
             first-order adjoint's {:.1} under the same {TOL_BUDGET}-iteration budget",
            gauss_newton.mean_iterations,
            adjoint_tol.mean_iterations
        );
        let adj_speedup = serial.mean_ms / adjoint.mean_ms;
        let rollout_reduction = serial.rollouts_per_solve / adjoint.rollouts_per_solve;
        let iteration_reduction = adjoint_tol.mean_iterations / gauss_newton.mean_iterations;
        println!(
            "{:<8} {:>11.3} {:>11.3} {:>11.3} {:>8.1} {:>8.1} {:>7.2}",
            horizon,
            serial.mean_ms,
            adjoint.mean_ms,
            gauss_newton.mean_ms,
            adjoint_tol.mean_iterations,
            gauss_newton.mean_iterations,
            adj_speedup
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
                "      \"adjoint_tol_budget\": {},\n",
                "      \"gauss_newton\": {},\n",
                "      \"fd_vs_adjoint_speedup\": {:.3},\n",
                "      \"rollout_reduction\": {:.1},\n",
                "      \"gn_iteration_reduction\": {:.2}\n",
                "    }}"
            ),
            horizon,
            mode_json(&serial),
            mode_json(&adjoint),
            mode_json(&adjoint_tol),
            mode_json(&gauss_newton),
            adj_speedup,
            rollout_reduction,
            iteration_reduction
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"mpc_solve_gradient_modes\",\n",
            "  \"solves_per_mode\": {},\n",
            "  \"tol_budget\": {},\n",
            "  \"cpu_cores\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n",
            "}}\n"
        ),
        REPS,
        TOL_BUDGET,
        cores,
        rows.join(",\n"),
        registry.snapshot().render_json()
    );
    std::fs::write("BENCH_mpc.json", &json).expect("write BENCH_mpc.json");
    sink.flush();
    println!("\nwrote BENCH_mpc.json ({cores} cores)");
    println!("wrote results/perf_report_telemetry.jsonl (warm-up solve traces)");
}
