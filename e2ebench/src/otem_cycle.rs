//! `otem_cycle`: one OTEM vehicle on the stress rig, closed loop with
//! `MpcConfig::default()` over the paper's six cycles back to back.

use crate::fleet;
use crate::layers;
use crate::ledger::{self, Ledger};
use crate::stats::{median, percentile, Rng};
use crate::vehicle::{self, OtemLoop, Quality, ReplayStep};
use crate::Report;
use otem::mpc::MpcConfig;
use otem::policy::Otem;
use otem::SystemConfig;
use otem_drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_fleet::{
    Campaign, FleetEngine, Methodology, Schedule, SummaryBuilder, VehicleSpec, VehicleSummary,
};
use otem_telemetry::NullSink;
use otem_units::Kelvin;
use std::cell::RefCell;
use std::time::Instant;

/// Control periods taken from the start of each cycle (a pass is six
/// legs; every leg is long enough to reach its first high-power phase).
pub const LEG_STEPS: usize = 240;
/// Steps run to warm the process up before timing.
const WARM_STEPS: usize = 40;
/// Percentile of control-period latency reported as `latency_tail_ms`.
/// A run holds thousands of periods, so p99 would qualify by count, but
/// over ten runs host scheduling bursts moved it by a third; p95 keeps
/// about 150 periods beyond it and is steady.
const TAIL_PERCENTILE: f64 = 95.0;
/// Setups per run (the median is reported).
const SETUPS: usize = 3;

/// The rig and route for `seed`: the stress rig at 30 °C ± 0.25 °C (seeded)
/// driving a compact EV over the six cycles back to back.
pub fn route(seed: u64) -> (SystemConfig, PowerTrace) {
    let ambient = 30.0 + Rng::new(seed, 1).range(-0.25, 0.25);
    let config = SystemConfig::stress_rig().with_ambient(Kelvin::from_celsius(ambient));
    let powertrain = Powertrain::new(VehicleParams::compact_ev()).expect("valid vehicle");
    let mut samples = Vec::with_capacity(LEG_STEPS * StandardCycle::ALL.len());
    let mut dt = config.dt;
    for cycle in StandardCycle::ALL {
        let trace = powertrain.power_trace(&standard(cycle).expect("standard cycle"));
        dt = trace.dt();
        samples.extend_from_slice(&trace.samples()[..LEG_STEPS]);
    }
    (config, PowerTrace::new(dt, samples))
}

fn setup(seed: u64) -> (SystemConfig, PowerTrace, Vec<f64>) {
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (config, trace) = route(seed);
        let warm = PowerTrace::new(trace.dt(), trace.samples()[..WARM_STEPS].to_vec());
        let mut c = Otem::new(&config).expect("valid rig");
        otem::Simulator::new(&config).run_each(&mut c, &warm, &NullSink, |_, _| {});
        times.push(t.elapsed().as_secs_f64());
        out = Some((config, trace));
    }
    let (config, trace) = out.expect("at least one setup");
    (config, trace, times)
}

/// One pass of the route: its summary when it completed, or `None` when
/// `stop` ended it early.
struct Pass {
    summary: Option<VehicleSummary>,
    steps: u64,
    latencies_ms: Vec<f64>,
    failed: u64,
    wall_s: f64,
}

fn pass(config: &SystemConfig, trace: &PowerTrace, stop: impl Fn() -> bool) -> Pass {
    let t0 = Instant::now();
    let mut c = OtemLoop::new(Otem::new(config).expect("valid rig"), config, 0, None, None);
    let sim = otem::Simulator::new(config);
    let mut cursor = sim.cursor();
    let mut builder = SummaryBuilder::new(config.dt);
    let mut latencies_ms = Vec::with_capacity(trace.len());
    let mut bad = 0u64;
    let mut complete = false;
    while !stop() {
        let t = Instant::now();
        let more = cursor.advance(&mut c, trace, &NullSink, |_, r| {
            bad += u64::from(!vehicle::record_is_finite(r));
            builder.push(r);
        });
        if !more {
            complete = true;
            break;
        }
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let steps = cursor.steps() as u64;
    let summary = complete.then(|| builder.finish(0, cursor.finish(&NullSink)));
    Pass {
        summary,
        steps,
        latencies_ms,
        failed: bad + c.decisions.non_finite,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Untraced run: route passes until `seconds` have passed (the first
/// pass always completes; it supplies plan quality and the checksum
/// every later complete pass must reproduce).
pub fn run(seed: u64, seconds: f64) -> Report {
    let (config, trace, setups) = setup(seed);
    let started = Instant::now();
    let mut report = Report::default();
    let mut first: Option<VehicleSummary> = None;
    let (mut steps, mut passes) = (0u64, 0u64);
    let mut latencies = Vec::new();
    loop {
        let out_of_time = || first.is_some() && started.elapsed().as_secs_f64() >= seconds;
        let p = pass(&config, &trace, out_of_time);
        steps += p.steps;
        latencies.extend(p.latencies_ms);
        report.attempted += p.steps;
        report.failed += p.failed;
        if let Some(s) = p.summary {
            passes += 1;
            match &first {
                None => first = Some(s),
                Some(f) if *f != s => report.fail(format!(
                    "pass {passes} checksum {:016x} != {:016x}",
                    s.checksum, f.checksum
                )),
                Some(_) => {}
            }
        }
        if started.elapsed().as_secs_f64() >= seconds && first.is_some() {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let first = first.expect("first pass completes");
    let mut q = Quality::default();
    q.add(&first, config.dt.value());
    let steps_per_s = steps as f64 / wall;
    report.stamp("passes", passes.to_string());
    report.stamp("route_steps", trace.len().to_string());
    report.stamp("checksum", format!("{:016x}", first.checksum));
    report.stamp("latency_tail_percentile", TAIL_PERCENTILE.to_string());
    report.stamp("latency_samples", latencies.len().to_string());
    report.e2e(
        median(&setups),
        steps_per_s,
        steps_per_s / trace.len() as f64,
        median(&latencies),
        percentile(&latencies, TAIL_PERCENTILE),
        &q,
    );
    report
}

/// The route cut into a small campaign (each leg's first 60 periods under
/// OTEM and the three reactive policies) for the fleet and server probes.
fn probe_specs(config: &SystemConfig) -> Vec<VehicleSpec> {
    let mpc = MpcConfig::default();
    let methodologies = [
        Methodology::Otem,
        Methodology::Parallel,
        Methodology::ActiveCooling,
        Methodology::Dual,
    ];
    let mut specs = Vec::new();
    for (i, cycle) in StandardCycle::ALL.into_iter().enumerate() {
        for (j, methodology) in methodologies.into_iter().enumerate() {
            specs.push(VehicleSpec {
                id: (i * methodologies.len() + j) as u64,
                cycle,
                steps: 60,
                compact: true,
                ambient_c: config.ambient.value() - 273.15,
                capacitance_f: config.capacitance.value(),
                methodology,
                mpc_horizon: mpc.horizon,
                mpc_iterations: mpc.solver_iterations,
                mpc_deadline_us: 0,
                poison_step: None,
            });
        }
    }
    specs
}

/// Traced run: one untraced pass, the same pass with every layer call
/// a span (its checksum must match), the MPC replay of the first leg,
/// kernel probes, and the fleet and server probes on the route's legs.
pub fn trace(seed: u64, shards: usize) -> Report {
    let (config, trace, _) = setup(seed);
    let mut report = Report::default();
    let untraced = pass(&config, &trace, || false);
    let reference = untraced.summary.expect("complete pass");

    let led = RefCell::new(Ledger::default());
    led.borrow_mut().keep_samples("policy.plan");
    let recorded = RefCell::new(Vec::<ReplayStep>::new());
    let t = Instant::now();
    let otem = Otem::new(&config).expect("valid rig");
    let mut c = OtemLoop::new(otem, &config, 0, Some(&led), Some((&recorded, LEG_STEPS)));
    let (summary, bad) = vehicle::drive_traced(&led, 0, &config, &mut c, &trace);
    let traced_s = t.elapsed().as_secs_f64();
    report.attempted += 2 * trace.len() as u64;
    report.failed += untraced.failed + bad + c.decisions.non_finite;
    let decisions = c.decisions;
    drop(c);
    let led = led.into_inner();
    if summary != reference {
        report.fail(format!(
            "traced checksum {:016x} != untraced {:016x}",
            summary.checksum, reference.checksum
        ));
    }

    let mut m = fleet::otem_metrics(&led, &decisions);
    m.extend([
        ("sim.advance_us", led.mean_us("sim.advance")),
        ("sim.overhead_us", led.mean_self_us("sim.advance")),
        (
            "campaign.summary_us",
            led.totals("campaign.summary").total_ns as f64 / 1e3,
        ),
        (
            "trace.explained_ratio",
            ledger::explained_ratio(led.explained_ns(), (traced_s * 1e9) as u64),
        ),
        ("trace.overhead_ratio", traced_s / untraced.wall_s),
    ]);
    let replay = layers::mpc_replay(&recorded.into_inner());
    let rollouts = fleet::metric(&replay, "mpc.rollouts_per_solve");
    let horizon = MpcConfig::default().horizon as f64;
    let k = layers::kernels(&config, trace.samples());
    let rollout_steps = untraced.steps as f64 * rollouts * horizon;
    m.extend(layers::kernel_metrics(
        k,
        untraced.steps,
        rollout_steps,
        untraced.wall_s,
    ));
    m.extend(replay);

    // The route's legs as a small campaign: the layers this workload
    // does not reach on its own path (reactive policies, trace cache,
    // fleet engine, server) measured on its own cycles.
    let specs = probe_specs(&config);
    let sample = fleet::traced_sample(&specs, &mut report);
    let s = fleet::sample_metrics(&sample);
    m.extend(s.into_iter().filter(|(n, _)| {
        matches!(
            *n,
            "policy.reactive_step_us" | "campaign.trace_for_us" | "campaign.cache_hit_ratio"
        )
    }));
    m.push(("drivecycle.trace_ms", layers::drivecycle_trace_ms()));
    m.extend(layers::engine_probe(&specs));
    let probe = FleetEngine::new(Schedule::WorkStealing { shards }).run(&Campaign {
        seed,
        vehicles: specs.clone(),
    });
    m.extend(layers::occupancy(&probe, shards));
    m.extend(fleet::server_on(&specs, shards));
    report.layers = m;
    report
}
