//! Layer probes of the traced run: each times calls into one layer's
//! public functions on inputs taken from the workload — the MPC replay
//! (`Mpc::solve`, `rollout_cost`, `rollout_gradient_adjoint`), the plant
//! kernels (`HybridHees::step`, `ThermalModel::step_crank_nicolson`,
//! `CoolingPlant::actuate`), drive-cycle synthesis and the fleet engine.

use crate::stats::{mean, median, percentile};
use crate::vehicle::ReplayStep;
use otem::mpc::{rollout_cost, rollout_gradient_adjoint, Mpc, MpcConfig, MpcPlant};
use otem::SystemConfig;
use otem_battery::BatteryPack;
use otem_converter::DcDcConverter;
use otem_drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
use otem_fleet::{FleetEngine, FleetReport, Methodology, Schedule, VehicleSpec};
use otem_hees::{HybridCommand, HybridHees};
use otem_thermal::{CoolingPlant, ThermalModel, ThermalState};
use otem_ultracap::UltracapParams;
use otem_units::{Kelvin, Watts};
use std::hint::black_box;
use std::time::Instant;

/// Metrics as `(name, value)`; units come from the metric tables.
pub type Metrics = Vec<(&'static str, f64)>;

/// The plant a vehicle built from `config` would hold in state `soc`/`soe`.
fn hees_for(config: &SystemConfig) -> HybridHees {
    let battery = BatteryPack::new(config.cell.clone(), config.pack).expect("valid pack");
    let mut hees = HybridHees::new(
        battery,
        UltracapParams::paper_bank(config.capacitance),
        DcDcConverter::battery_side(),
        DcDcConverter::ultracap_side(),
    )
    .expect("valid hees");
    hees.set_state(config.initial_soc, config.initial_soe);
    hees
}

/// The MPC's view of a recorded step, rebuilt from the state vector.
fn plant_for(step: &ReplayStep) -> MpcPlant {
    let c = &step.config;
    let mut hees = hees_for(c);
    hees.set_state(step.state.soc, step.state.soe);
    MpcPlant {
        hees,
        thermal: ThermalModel::new(c.thermal_active).expect("valid thermal"),
        plant: CoolingPlant::new(c.plant).expect("valid plant"),
        state: ThermalState {
            battery: step.state.battery_temp,
            coolant: step.state.coolant_temp,
        },
        aging: c.aging,
        soc_min: c.soc_min,
        soe_min: c.soe_min,
        battery_power_max: c.battery_power_max,
        cap_power_max: c.cap_power_max,
    }
}

/// The control window `Otem::plan_with` builds: `horizon` blocks, each
/// the mean load of its `block_size` periods, zero-padded.
fn window_loads(mpc: &MpcConfig, window: &[Watts]) -> Vec<Watts> {
    let block = mpc.block_size.max(1);
    let mut raw: Vec<Watts> = window.iter().copied().take(mpc.horizon * block).collect();
    raw.resize(mpc.horizon * block, Watts::ZERO);
    raw.chunks(block)
        .map(|c| c.iter().copied().sum::<Watts>() / c.len() as f64)
        .collect()
}

/// Replays recorded control periods through `Mpc::solve` (a fresh
/// optimiser per vehicle, so warm starts chain as in the loop) for solve
/// time and `Mpc::rollouts()`, then times single rollouts and adjoint
/// gradients on the same plants.
pub fn mpc_replay(steps: &[ReplayStep]) -> Metrics {
    let mut solve_us = Vec::with_capacity(steps.len());
    let (mut iterations, mut rollouts) = (0u64, 0u64);
    let mut probes = Vec::new();
    let mut mpc: Option<(u64, Mpc)> = None;
    let stride = (steps.len() / 48).max(1);
    for (i, step) in steps.iter().enumerate() {
        if mpc.as_ref().is_none_or(|(v, _)| *v != step.vehicle) {
            mpc = Some((step.vehicle, Mpc::new(step.mpc)));
        }
        let (_, m) = mpc.as_mut().expect("set above");
        let plant = plant_for(step);
        let block = step.mpc.block_size.max(1) as f64;
        let loads = window_loads(&step.mpc, &step.window);
        let dt = step.dt * block;
        let before = m.rollouts();
        let t = Instant::now();
        let d = m.solve(&plant, &loads, dt);
        solve_us.push(t.elapsed().as_secs_f64() * 1e6);
        rollouts += m.rollouts() - before;
        iterations += d.iterations as u64;
        if i % stride == 0 {
            let n = step.mpc.horizon;
            let mut z = vec![d.cap_bus.value() / plant.cap_power_max.value(); n];
            z.extend(std::iter::repeat_n(d.cool_duty, n));
            probes.push((plant, loads, dt, step.mpc, z));
        }
    }
    let (mut rollout_us, mut gradient_us) = (Vec::new(), Vec::new());
    const REPS: u32 = 8;
    for (plant, loads, dt, cfg, z) in &probes {
        let mut grad = vec![0.0; z.len()];
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(rollout_cost(plant, loads, *dt, cfg, black_box(z)));
        }
        rollout_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(rollout_gradient_adjoint(
                plant,
                loads,
                *dt,
                cfg,
                black_box(z),
                &mut grad,
            ));
        }
        gradient_us.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
    }
    let solves = solve_us.len() as f64;
    let (rollout, gradient) = (median(&rollout_us), median(&gradient_us));
    vec![
        ("mpc.solve_us_p50", median(&solve_us)),
        ("mpc.solve_us_p99", percentile(&solve_us, 99.0)),
        ("mpc.rollouts_per_solve", rollouts as f64 / solves),
        ("mpc.rollout_us", rollout),
        ("mpc.gradient_us", gradient),
        ("mpc.backward_sweep_us", gradient - rollout),
        (
            "solver.iteration_us",
            solve_us.iter().sum::<f64>() / iterations.max(1) as f64,
        ),
    ]
}

/// Median ns per call of `body` over batches of `per_batch` calls,
/// each batch preceded by an untimed `reset`.
fn ns_per_call(mut reset: impl FnMut(), mut body: impl FnMut(usize), per_batch: usize) -> f64 {
    let mut per_call = Vec::new();
    let started = Instant::now();
    while per_call.len() < 40 || started.elapsed().as_secs_f64() < 0.15 {
        reset();
        let t = Instant::now();
        for i in 0..per_batch {
            body(i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&per_call)
}

/// Plant kernel costs on `config`'s plant, driven by `loads`: returns
/// `hees.step_ns`, `thermal.step_ns`, `thermal.actuate_ns`.
pub fn kernels(config: &SystemConfig, loads: &[Watts]) -> [f64; 3] {
    let loads: Vec<Watts> = if loads.is_empty() {
        vec![Watts::new(20_000.0)]
    } else {
        loads.to_vec()
    };
    let dt = config.dt;
    let ambient = config.ambient;
    let batch = 512;

    let hees = hees_for(config);
    let start = hees.snapshot();
    let hees_cell = std::cell::RefCell::new(hees);
    let hees_ns = ns_per_call(
        || hees_cell.borrow_mut().restore(start),
        |i| {
            let load = loads[i % loads.len()];
            let command = HybridCommand {
                battery_bus: load * 0.8,
                cap_bus: load * 0.2,
            };
            black_box(hees_cell.borrow_mut().step(black_box(command), ambient, dt));
        },
        batch,
    );

    let thermal = ThermalModel::new(config.thermal_active).expect("valid thermal");
    let state = std::cell::Cell::new(ThermalState::uniform(ambient));
    let inlet = Kelvin::new(ambient.value() - 5.0);
    let thermal_ns = ns_per_call(
        || state.set(ThermalState::uniform(ambient)),
        |i| {
            let heat = Watts::new(loads[i % loads.len()].value().abs() * 0.02);
            state.set(thermal.step_crank_nicolson(black_box(state.get()), heat, inlet, dt));
        },
        batch,
    );

    let plant = CoolingPlant::new(config.plant).expect("valid plant");
    let actuate_ns = ns_per_call(
        || {},
        |i| {
            let outlet = Kelvin::new(ambient.value() + (i % 7) as f64 * 0.5);
            let requested = Kelvin::new(outlet.value() - 3.0);
            black_box(plant.actuate(black_box(outlet), requested));
        },
        batch,
    );
    [hees_ns, thermal_ns, actuate_ns]
}

/// Kernel metrics plus `kernel.share`: kernel calls × ns over wall time,
/// kernel calls being one real plant step per control period plus one
/// per rollout step (`rollout_steps`).
pub fn kernel_metrics(k: [f64; 3], steps: u64, rollout_steps: f64, wall_s: f64) -> Metrics {
    let per_call_ns: f64 = k.iter().sum();
    let calls = steps as f64 + rollout_steps;
    vec![
        ("hees.step_ns", k[0]),
        ("thermal.step_ns", k[1]),
        ("thermal.actuate_ns", k[2]),
        ("kernel.share", calls * per_call_ns / 1e9 / wall_s),
    ]
}

/// Mean ms to synthesise one base power trace (`standard` +
/// `Powertrain::power_trace`) over the six cycles × both vehicle classes
/// — the work a trace-cache miss does.
pub fn drivecycle_trace_ms() -> f64 {
    let mut ms = Vec::new();
    for cycle in StandardCycle::ALL {
        for params in [VehicleParams::compact_ev(), VehicleParams::midsize_ev()] {
            let t = Instant::now();
            let c = standard(cycle).expect("standard cycle");
            black_box(
                Powertrain::new(params)
                    .expect("valid vehicle")
                    .power_trace(&c),
            );
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    mean(&ms)
}

/// Fleet-engine occupancy of a campaign run: `engine.busy_ratio` (Σ
/// vehicle time over wall × shards) and `engine.straggler_ms` (wall
/// minus Σ vehicle time ÷ shards).
pub fn occupancy(report: &FleetReport, shards: usize) -> Metrics {
    let busy_ms = report.latency_ms.sum();
    let wall_ms = report.wall_s * 1e3;
    vec![
        ("engine.busy_ratio", busy_ms / (wall_ms * shards as f64)),
        ("engine.straggler_ms", wall_ms - busy_ms / shards as f64),
    ]
}

/// `FleetEngine::run_vehicle` timed per vehicle, split by methodology:
/// `engine.otem_vehicle_ms`, `engine.reactive_vehicle_us`.
pub fn engine_probe(specs: &[VehicleSpec]) -> Metrics {
    let engine = FleetEngine::new(Schedule::Serial);
    let (mut otem_ms, mut reactive_us) = (Vec::new(), Vec::new());
    for spec in specs {
        let t = Instant::now();
        black_box(engine.run_vehicle(spec).expect("vehicle runs"));
        let s = t.elapsed().as_secs_f64();
        if spec.methodology == Methodology::Otem {
            otem_ms.push(s * 1e3);
        } else {
            reactive_us.push(s * 1e6);
        }
    }
    vec![
        ("engine.otem_vehicle_ms", mean(&otem_ms)),
        ("engine.reactive_vehicle_us", mean(&reactive_us)),
    ]
}

/// Control period of every workload's vehicles (s).
pub fn dt_s() -> f64 {
    SystemConfig::default().dt.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_is_block_means_zero_padded() {
        let mpc = MpcConfig {
            horizon: 3,
            block_size: 2,
            ..MpcConfig::default()
        };
        let w: Vec<Watts> = [1.0, 3.0, 5.0, 7.0, 9.0].map(Watts::new).to_vec();
        let loads = window_loads(&mpc, &w);
        assert_eq!(loads, [2.0, 6.0, 4.5].map(Watts::new).to_vec());
    }
}
