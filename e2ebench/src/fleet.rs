//! `fleet_mixed` and `fleet_reactive`: synthetic campaigns run by the
//! production fleet engine (`FleetEngine::run`, work stealing over
//! `nproc` shards), plus the traced-sample machinery every workload's
//! traced run shares.

use crate::layers::{self, Metrics};
use crate::ledger::{self, Ledger};
use crate::serve::{self, Kind};
use crate::stats::{median, percentile, tail_percentile, Rng};
use crate::vehicle::{self, Decisions, Quality, ReplayStep};
use crate::Report;
use otem::SystemConfig;
use otem_fleet::{
    Campaign, FleetEngine, FleetReport, Methodology, Schedule, SummaryBuilder, TraceCache,
    VehicleSpec, VehicleSummary,
};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Vehicles in the `fleet_mixed` campaign.
pub const MIXED_VEHICLES: usize = 400;
/// Seed of the `fleet_mixed` campaign. It is fixed: with 10 % OTEM
/// vehicles costing 10⁴× a reactive one, campaigns of other seeds differ
/// in total work by far more than run-to-run noise. `--seed` instead
/// shuffles the dispatch order of every pass, which moves stragglers.
pub const MIXED_CAMPAIGN_SEED: u64 = 42;
/// Vehicles synthesised for `fleet_reactive` before the OTEM ones are
/// dropped.
pub const REACTIVE_SYNTH: usize = 100_000;
/// Vehicles the warm-up campaign runs: about a tenth of a pass (every
/// base trace cached, every code path hot).
fn warm_vehicles(fleet: Fleet) -> usize {
    match fleet {
        Fleet::Mixed => 40,
        Fleet::Reactive => 10_000,
    }
}
/// Setups per run (the median is reported).
const SETUPS: usize = 3;
/// Control periods of each OTEM vehicle recorded for the MPC replay.
const REPLAY_STEPS: usize = 40;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// `Campaign::synthetic(MIXED_VEHICLES, MIXED_CAMPAIGN_SEED)`, its
    /// dispatch order shuffled per pass.
    Mixed,
    /// `Campaign::synthetic(REACTIVE_SYNTH, seed)` without its OTEM vehicles.
    Reactive,
}

/// The campaign for `seed` (`fleet_mixed`: before its per-pass shuffle).
pub fn campaign(fleet: Fleet, seed: u64) -> Campaign {
    match fleet {
        Fleet::Mixed => Campaign::synthetic(MIXED_VEHICLES, MIXED_CAMPAIGN_SEED),
        Fleet::Reactive => {
            let mut c = Campaign::synthetic(REACTIVE_SYNTH, seed);
            c.vehicles.retain(|v| v.methodology != Methodology::Otem);
            c
        }
    }
}

/// `campaign` in the dispatch order of pass `pass` under `seed`.
fn shuffled(campaign: &Campaign, seed: u64, pass: u64) -> Campaign {
    let mut c = campaign.clone();
    Rng::new(seed, 100 + pass).shuffle(&mut c.vehicles);
    c
}

/// Reference fleet checksums of `fleet_reactive`, by seed (recorded when
/// the benchmark was defined; reactive physics should never move them).
const REACTIVE_REFERENCE: &str = include_str!("../reference/fleet_reactive_checksums.tsv");

/// The recorded `fleet_reactive` checksum for `seed`, if any.
pub fn reactive_reference(seed: u64) -> Option<u64> {
    REACTIVE_REFERENCE.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

fn engine(shards: usize) -> FleetEngine {
    FleetEngine::new(Schedule::WorkStealing { shards })
}

fn setup(fleet: Fleet, seed: u64, shards: usize) -> (Campaign, FleetEngine, Vec<f64>) {
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let c = campaign(fleet, seed);
        let e = engine(shards);
        let warm = Campaign {
            seed,
            vehicles: c.vehicles[..warm_vehicles(fleet).min(c.vehicles.len())].to_vec(),
        };
        e.run(&warm);
        times.push(t.elapsed().as_secs_f64());
        out = Some((c, e));
    }
    let (c, e) = out.expect("at least one setup");
    (c, e, times)
}

/// Checks one campaign report: no vehicle failed, every vehicle ran all
/// its steps with finite outputs, and no solve ended `NonFinite`.
fn check_pass(campaign: &Campaign, r: &FleetReport, report: &mut Report) {
    report.attempted += campaign.vehicles.len() as u64;
    for f in &r.failures {
        report.fail(format!("vehicle {} failed: {}", f.id, f.message));
    }
    if r.solve_outcomes.non_finite > 0 {
        report.fail(format!(
            "{} solves ended NonFinite",
            r.solve_outcomes.non_finite
        ));
    }
    for (s, spec) in r.summaries.iter().zip(&campaign.vehicles) {
        let finite = [
            s.energy_j,
            s.cooling_j,
            s.capacity_loss,
            s.peak_temp_k,
            s.shortfall_j,
        ]
        .iter()
        .all(|v| v.is_finite());
        if s.id != spec.id || s.steps != spec.steps || !finite {
            report.fail(format!("vehicle {} incomplete or non-finite", spec.id));
        }
    }
}

/// Recomputes a seeded sample of vehicles through the single-vehicle
/// reference path (`Simulator::run` + `SummaryBuilder::from_result`) and
/// compares them with the engine's summaries.
fn cross_check(campaign: &Campaign, r: &FleetReport, seed: u64, report: &mut Report) {
    let mut rng = Rng::new(seed, 3);
    let by_id: HashMap<u64, &VehicleSummary> = r.summaries.iter().map(|s| (s.id, s)).collect();
    let cache = TraceCache::new();
    for _ in 0..16 {
        let spec = &campaign.vehicles[rng.index(campaign.vehicles.len())];
        let config = spec.config();
        let trace = cache.trace_for(spec).expect("trace");
        let mut c = spec.controller(&config).expect("controller");
        let result = otem::Simulator::new(&config).run(c.as_mut(), &trace);
        let reference = SummaryBuilder::from_result(spec.id, &result);
        report.attempted += 1;
        if by_id.get(&spec.id) != Some(&&reference) {
            report.fail(format!(
                "vehicle {} differs from the single-vehicle path",
                spec.id
            ));
        }
    }
}

/// Untraced run: whole campaigns through `FleetEngine::run` until
/// `seconds` have passed (at least one).
pub fn run(fleet: Fleet, seed: u64, seconds: f64, shards: usize) -> Report {
    let (campaign, engine, setups) = setup(fleet, seed, shards);
    let mut report = Report::default();
    let started = Instant::now();
    let mut first: Option<FleetReport> = None;
    let (mut steps_per_s, mut vehicles_per_s) = (Vec::new(), Vec::new());
    while first.is_none() || started.elapsed().as_secs_f64() < seconds {
        let order = match fleet {
            Fleet::Mixed => shuffled(&campaign, seed, steps_per_s.len() as u64),
            Fleet::Reactive => campaign.clone(),
        };
        let t = Instant::now();
        let r = engine.run(&order);
        let wall = t.elapsed().as_secs_f64();
        steps_per_s.push(r.total_steps as f64 / wall);
        vehicles_per_s.push(r.summaries.len() as f64 / wall);
        check_pass(&order, &r, &mut report);
        match &first {
            None => first = Some(r),
            Some(f) => {
                f.latency_ms.merge(&r.latency_ms);
                if f.fleet_checksum() != r.fleet_checksum() {
                    let pass = steps_per_s.len();
                    report.fail(format!("pass {pass} checksum differs from pass 1"));
                }
            }
        }
    }
    let first = first.expect("one pass");
    let latency = &first.latency_ms;
    cross_check(&campaign, &first, seed, &mut report);
    let checksum = first.fleet_checksum();
    if fleet == Fleet::Reactive {
        match reactive_reference(seed) {
            Some(want) if want != checksum => report.fail(format!(
                "fleet checksum {checksum:016x} != reference {want:016x}"
            )),
            Some(_) => report.stamp("reference_checksum", "matched".into()),
            None => report.stamp("reference_checksum", "no reference for this seed".into()),
        }
    }
    let otem: HashSet<u64> = campaign
        .vehicles
        .iter()
        .filter(|v| v.methodology == Methodology::Otem)
        .map(|v| v.id)
        .collect();
    let mut q = Quality::default();
    for s in &first.summaries {
        if fleet == Fleet::Reactive || otem.contains(&s.id) {
            q.add(s, layers::dt_s());
        }
    }
    let tail = tail_percentile(campaign.vehicles.len());
    report.stamp("passes", steps_per_s.len().to_string());
    report.stamp("vehicles", campaign.vehicles.len().to_string());
    report.stamp("checksum", format!("{checksum:016x}"));
    report.stamp("latency_tail_percentile", tail.to_string());
    report.stamp("latency_samples", latency.count().to_string());
    report.e2e(
        median(&setups),
        median(&steps_per_s),
        median(&vehicles_per_s),
        latency.quantile(0.5),
        latency.quantile(tail / 100.0),
        &q,
    );
    report
}

/// A traced sample: vehicles run once untraced through the serial fleet
/// engine and once rebuilt from public calls with every call a span.
pub struct Sample {
    /// Spans of the traced replica.
    pub ledger: Ledger,
    /// Trace-cache hit ratio of the replica.
    pub cache_hit_ratio: f64,
    /// Control periods recorded for the MPC replay.
    pub recorded: Vec<ReplayStep>,
    /// MPC decisions of the replica.
    pub decisions: Decisions,
    /// Untraced serial wall time (s).
    pub untraced_s: f64,
    /// Traced wall time (s).
    pub traced_s: f64,
    /// Vehicles in the sample.
    pub vehicles: u64,
}

/// Runs `specs` untraced (`FleetEngine::run`, serial) and traced; the
/// traced summaries must reproduce the untraced ones.
pub fn traced_sample(specs: &[VehicleSpec], report: &mut Report) -> Sample {
    let campaign = Campaign {
        seed: 0,
        vehicles: specs.to_vec(),
    };
    let t = Instant::now();
    let base = FleetEngine::new(Schedule::Serial).run(&campaign);
    let untraced_s = t.elapsed().as_secs_f64();
    check_pass(&campaign, &base, report);

    let cache = TraceCache::new();
    let led = RefCell::new(Ledger::default());
    led.borrow_mut().keep_samples("policy.plan");
    let rec = RefCell::new(Vec::new());
    let mut decisions = Decisions::default();
    let t = Instant::now();
    for (spec, want) in specs.iter().zip(&base.summaries) {
        report.attempted += 1;
        match vehicle::trace_spec(&led, &cache, spec, Some((&rec, REPLAY_STEPS))) {
            Ok(traced) => {
                report.failed += traced.non_finite_steps + traced.decisions.non_finite;
                decisions.add(traced.decisions);
                if traced.summary != *want {
                    report.fail(format!(
                        "traced vehicle {} differs from the untraced run",
                        spec.id
                    ));
                }
            }
            Err(e) => report.fail(format!("traced vehicle {}: {e}", spec.id)),
        }
    }
    let traced_s = t.elapsed().as_secs_f64();
    Sample {
        ledger: led.into_inner(),
        cache_hit_ratio: cache.hits() as f64 / (cache.hits() + cache.misses()) as f64,
        recorded: rec.into_inner(),
        decisions,
        untraced_s,
        traced_s,
        vehicles: specs.len() as u64,
    }
}

/// Sim, reactive-policy and campaign metrics of a traced sample.
pub fn sample_metrics(s: &Sample) -> Metrics {
    let led = &s.ledger;
    vec![
        (
            "policy.reactive_step_us",
            led.mean_us("policy.reactive_step"),
        ),
        ("sim.advance_us", led.mean_us("sim.advance")),
        ("sim.overhead_us", led.mean_self_us("sim.advance")),
        ("campaign.trace_for_us", led.mean_us("campaign.trace_for")),
        ("campaign.cache_hit_ratio", s.cache_hit_ratio),
        (
            "campaign.summary_us",
            led.totals("campaign.summary").total_ns as f64 / 1e3 / s.vehicles as f64,
        ),
    ]
}

/// OTEM policy metrics of a traced run: `Otem::plan_with` and
/// `Otem::apply_with` times, and the iteration and outcome counts of the
/// `MpcDecision`s the loop made.
pub fn otem_metrics(led: &Ledger, decisions: &Decisions) -> Metrics {
    let plan = led.samples("policy.plan");
    let mut m = vec![
        ("policy.plan_us_p50", median(plan)),
        ("policy.plan_us_p99", percentile(plan, 99.0)),
        ("policy.apply_us", led.mean_us("policy.apply")),
    ];
    m.extend(decisions.metrics());
    m
}

/// Trace accounting of a traced sample.
pub fn accounting(s: &Sample) -> Metrics {
    vec![
        (
            "trace.explained_ratio",
            ledger::explained_ratio(s.ledger.explained_ns(), (s.traced_s * 1e9) as u64),
        ),
        ("trace.overhead_ratio", s.traced_s / s.untraced_s),
    ]
}

/// `specs` with every vehicle switched to OTEM: the MPC probe for a
/// workload whose own vehicles never solve.
pub fn as_otem(specs: &[VehicleSpec]) -> Vec<VehicleSpec> {
    specs
        .iter()
        .map(|s| VehicleSpec {
            methodology: Methodology::Otem,
            ..s.clone()
        })
        .collect()
}

/// The server probe on a sample of specs, each sent as one vehicle.
pub fn server_on(specs: &[VehicleSpec], senders: usize) -> Metrics {
    let bodies: Vec<(Kind, String)> = specs
        .iter()
        .map(|s| {
            let kind = if s.methodology == Methodology::Otem {
                Kind::Otem
            } else {
                Kind::Reactive
            };
            (kind, serve::spec_body(s))
        })
        .collect();
    serve::server_probe(&bodies, 10.0, senders)
}

/// Rollout steps (kernel calls inside rollouts) of a campaign given the
/// measured rollouts per solve.
pub fn rollout_steps(campaign: &Campaign, rollouts_per_solve: f64) -> f64 {
    campaign
        .vehicles
        .iter()
        .filter(|v| v.methodology == Methodology::Otem)
        .map(|v| v.steps as f64 * rollouts_per_solve * v.mpc_horizon as f64)
        .sum()
}

pub fn metric(m: &Metrics, name: &str) -> f64 {
    m.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |x| x.1)
}

/// Traced run: one untraced campaign (occupancy, kernel share), a
/// traced sample of its first vehicles, the MPC replay, the kernels and
/// the engine and server probes.
pub fn trace(fleet: Fleet, seed: u64, shards: usize) -> Report {
    let (campaign, engine, _) = setup(fleet, seed, shards);
    let mut report = Report::default();
    let t = Instant::now();
    let full = engine.run(&campaign);
    let full_s = t.elapsed().as_secs_f64();
    check_pass(&campaign, &full, &mut report);

    let sample_len = match fleet {
        Fleet::Mixed => 100,
        Fleet::Reactive => 5_000,
    };
    let specs = &campaign.vehicles[..sample_len.min(campaign.vehicles.len())];
    let sample = traced_sample(specs, &mut report);
    let mut m = sample_metrics(&sample);
    m.extend(accounting(&sample));

    // The MPC layer: the sample's own OTEM vehicles, or OTEM variants of
    // its first vehicles when the workload has none.
    let otem_probe = sample
        .recorded
        .is_empty()
        .then(|| traced_sample(&as_otem(&specs[..4]), &mut report));
    let otem = otem_probe.as_ref().unwrap_or(&sample);
    m.extend(otem_metrics(&otem.ledger, &otem.decisions));
    let recorded = &otem.recorded;
    let replay = layers::mpc_replay(recorded);
    let config: SystemConfig = specs[0].config();
    let loads = TraceCache::new().trace_for(&specs[0]).expect("trace");
    let k = layers::kernels(&config, loads.samples());
    let rollouts = rollout_steps(&campaign, metric(&replay, "mpc.rollouts_per_solve"));
    m.extend(layers::kernel_metrics(
        k,
        full.total_steps,
        rollouts,
        full_s * shards as f64,
    ));
    m.extend(replay);
    m.push(("drivecycle.trace_ms", layers::drivecycle_trace_ms()));
    let mut probe: Vec<VehicleSpec> = specs[..24.min(specs.len())].to_vec();
    if !probe.iter().any(|s| s.methodology == Methodology::Otem) {
        probe.extend(as_otem(&specs[..4]));
    }
    m.extend(layers::engine_probe(&probe));
    m.extend(layers::occupancy(&full, shards));
    m.extend(server_on(&probe, shards));
    report.layers = m;
    report
}
