//! **Fault sweep** — robustness campaign for the degradation supervisor.
//!
//! Runs supervised and unsupervised OTEM through identical seeded fault
//! campaigns (corrupted forecasts, stuck pump under load spikes, starved
//! solver) on the US06 city-EV stress rig, and reports what each fault
//! costs: capacity loss, peak battery temperature, unserved energy, and
//! how often the supervisor's ladder fired.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin fault_sweep
//! ```
//!
//! Machine-readable results stream to `results/fault_sweep.jsonl`.

use otem::mpc::MpcConfig;
use otem::policy::Otem;
use otem::{Simulator, SupervisedOtem, SystemConfig};
use otem_bench::{fan_indexed, stress_config, stress_trace};
use otem_drivecycle::StandardCycle;
use otem_faults::{FaultKind, FaultPlan, FaultedController};
use otem_telemetry::MemorySink;
use std::io::Write as _;

const SEED: u64 = 0xFA_017;

fn mpc() -> MpcConfig {
    MpcConfig {
        horizon: 8,
        solver_iterations: 15,
        ..MpcConfig::default()
    }
}

fn campaigns() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("nominal", FaultPlan::new(SEED)),
        (
            "forecast_nan",
            FaultPlan::new(SEED).inject(FaultKind::ForecastCorrupt, 30, 60),
        ),
        (
            "pump_stuck_spikes",
            FaultPlan::new(SEED)
                .inject(FaultKind::PumpStuck, 20, 80)
                .inject(FaultKind::LoadSpike { power_w: 300_000.0 }, 40, 50),
        ),
        (
            "solver_starved",
            FaultPlan::new(SEED).inject(FaultKind::SolverStarvation { max_iterations: 0 }, 30, 60),
        ),
        (
            "sensor_storm",
            FaultPlan::new(SEED)
                .inject(
                    FaultKind::SensorNoise {
                        temp_sigma_k: 1.5,
                        ratio_sigma: 0.01,
                    },
                    10,
                    110,
                )
                .inject(FaultKind::SensorBias { temp_k: -4.0 }, 60, 100),
        ),
    ]
}

struct Outcome {
    capacity_loss: f64,
    peak_temp_c: f64,
    unserved_j: f64,
    faults_injected: usize,
    rejected: u64,
    fallbacks: u64,
    rearms: u64,
}

fn run(
    config: &SystemConfig,
    trace: &otem_drivecycle::PowerTrace,
    plan: FaultPlan,
    supervised: bool,
) -> Outcome {
    let otem = Otem::with_mpc(config, mpc()).expect("valid controller");
    let sink = MemorySink::new();
    let sim = Simulator::new(config);

    let (result, rejected, fallbacks, rearms) = if supervised {
        let mut harness = FaultedController::new(SupervisedOtem::with_defaults(otem), plan);
        let result = sim.run_with(&mut harness, trace, &sink);
        let sup = harness.into_inner();
        (result, sup.rejected(), sup.fallbacks(), sup.rearms())
    } else {
        let mut harness = FaultedController::new(otem, plan);
        let result = sim.run_with(&mut harness, trace, &sink);
        (result, 0, 0, 0)
    };

    let dt = 1.0;
    let peak_temp_c = result
        .records
        .iter()
        .map(|r| r.state.battery_temp.to_celsius().value())
        .fold(f64::NEG_INFINITY, f64::max);
    let unserved_j = result
        .records
        .iter()
        .map(|r| r.hees.shortfall.value().max(0.0) * dt)
        .sum();

    Outcome {
        capacity_loss: result.capacity_loss(),
        peak_temp_c,
        unserved_j,
        faults_injected: sink.total_kind("fault_injected"),
        rejected,
        fallbacks,
        rearms,
    }
}

fn main() {
    let config = stress_config();
    let trace = stress_trace(StandardCycle::Us06, 1).expect("trace");

    std::fs::create_dir_all("results").expect("results dir");
    let mut jsonl = std::fs::File::create("results/fault_sweep.jsonl").expect("jsonl file");

    println!("# Fault sweep — supervised vs unsupervised OTEM, US06 (city-EV rig)");
    println!(
        "{:>18} {:>12} {:>10} {:>10} {:>12} {:>7} {:>9} {:>9} {:>7}",
        "campaign",
        "controller",
        "Q_loss",
        "Tpeak(°C)",
        "unserved(J)",
        "faults",
        "rejected",
        "fallback",
        "rearm"
    );

    // Each (campaign, controller) run is independent and seeded; fan
    // them across worker threads and emit rows in campaign order.
    let jobs: Vec<(&'static str, FaultPlan, bool)> = campaigns()
        .into_iter()
        .flat_map(|(name, plan)| {
            [false, true]
                .into_iter()
                .map(move |supervised| (name, plan.clone(), supervised))
        })
        .collect();
    let outcomes = fan_indexed(jobs, |_, (name, plan, supervised)| {
        (name, supervised, run(&config, &trace, plan, supervised))
    });

    for (name, supervised, o) in outcomes {
        {
            let controller = if supervised { "supervised" } else { "plain" };
            println!(
                "{:>18} {:>12} {:>10.3e} {:>10.2} {:>12.1} {:>7} {:>9} {:>9} {:>7}",
                name,
                controller,
                o.capacity_loss,
                o.peak_temp_c,
                o.unserved_j,
                o.faults_injected,
                o.rejected,
                o.fallbacks,
                o.rearms
            );
            writeln!(
                jsonl,
                "{{\"campaign\":\"{name}\",\"controller\":\"{controller}\",\
                 \"capacity_loss\":{:e},\"peak_temp_c\":{:.4},\"unserved_j\":{:.3},\
                 \"faults_injected\":{},\"rejected\":{},\"fallbacks\":{},\"rearms\":{}}}",
                o.capacity_loss,
                o.peak_temp_c,
                o.unserved_j,
                o.faults_injected,
                o.rejected,
                o.fallbacks,
                o.rearms
            )
            .expect("jsonl write");
        }
    }

    println!("\nReading: under faults the supervised controller must keep Tpeak bounded and");
    println!("finite with a nonzero fallback count; on the nominal campaign both rows match");
    println!("(the supervisor is bit-transparent when healthy).");
}
