//! One vehicle's closed loop, driven from the benchmark through the
//! program's public layers: `RunCursor::advance` steps the loop,
//! `Otem::plan_with` / `Otem::apply_with` (or a reactive policy's
//! `Controller::step`) act, and `SummaryBuilder` folds the records. In a
//! traced run each of those calls is a span in the ledger.

use crate::layers::Metrics;
use crate::ledger::{time, Ledger};
use otem::mpc::{MpcConfig, MpcDecision};
use otem::policy::Otem;
use otem::{Controller, StepRecord, SystemConfig, SystemState};
use otem_drivecycle::PowerTrace;
use otem_fleet::{Methodology, SummaryBuilder, TraceCache, VehicleSpec, VehicleSummary};
use otem_solver::SolverOutcome;
use otem_telemetry::{NullSink, Sink};
use otem_units::{Seconds, Watts};
use std::cell::RefCell;

/// What the MPC decided over a run: the counts the correctness checks
/// and the MPC layer metrics read.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decisions {
    /// Solves observed.
    pub solves: u64,
    /// Σ solver iterations.
    pub iterations: u64,
    /// Solves that met tolerance.
    pub converged: u64,
    /// Solves that used their whole iteration budget.
    pub budget_exhausted: u64,
    /// Solves that ended `NonFinite` or returned a non-finite move.
    pub non_finite: u64,
}

impl Decisions {
    fn observe(&mut self, d: &MpcDecision) {
        self.solves += 1;
        self.iterations += d.iterations as u64;
        match d.outcome {
            SolverOutcome::Converged => self.converged += 1,
            SolverOutcome::BudgetExhausted => self.budget_exhausted += 1,
            _ => {}
        }
        if d.outcome == SolverOutcome::NonFinite
            || !(d.cap_bus.value().is_finite() && d.cool_duty.is_finite() && d.cost.is_finite())
        {
            self.non_finite += 1;
        }
    }

    /// Adds another run's counts.
    pub fn add(&mut self, other: Decisions) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.converged += other.converged;
        self.budget_exhausted += other.budget_exhausted;
        self.non_finite += other.non_finite;
    }

    /// Iteration and outcome metrics of the MPC layer.
    pub fn metrics(&self) -> Metrics {
        let solves = self.solves as f64;
        vec![
            ("mpc.iterations_per_solve", self.iterations as f64 / solves),
            ("mpc.converged_ratio", self.converged as f64 / solves),
            (
                "mpc.budget_exhausted_ratio",
                self.budget_exhausted as f64 / solves,
            ),
        ]
    }
}

/// One recorded control period, enough to replay the MPC solve on a
/// plant rebuilt from the state vector.
#[derive(Debug, Clone)]
pub struct ReplayStep {
    /// Vehicle the step belongs to (replays restart the warm start per
    /// vehicle).
    pub vehicle: u64,
    /// The vehicle's configuration.
    pub config: SystemConfig,
    /// Its MPC tuning.
    pub mpc: MpcConfig,
    /// State before the step.
    pub state: SystemState,
    /// This period's load followed by the forecast window.
    pub window: Vec<Watts>,
    /// Control period.
    pub dt: Seconds,
}

/// The OTEM controller driven as `plan_with` then `apply_with` — exactly
/// what `Otem::step_with` does — so the benchmark sees every
/// `MpcDecision` and can time the two halves apart.
pub struct OtemLoop<'a> {
    otem: Otem,
    config: SystemConfig,
    vehicle: u64,
    ledger: Option<&'a RefCell<Ledger>>,
    replay: Option<(&'a RefCell<Vec<ReplayStep>>, usize)>,
    /// Decisions seen so far.
    pub decisions: Decisions,
}

impl<'a> OtemLoop<'a> {
    /// Wraps a fresh controller. `ledger` turns on spans; `replay`
    /// records this vehicle's first `limit` steps for the MPC replay.
    pub fn new(
        otem: Otem,
        config: &SystemConfig,
        vehicle: u64,
        ledger: Option<&'a RefCell<Ledger>>,
        replay: Option<(&'a RefCell<Vec<ReplayStep>>, usize)>,
    ) -> Self {
        Self {
            otem,
            config: config.clone(),
            vehicle,
            ledger,
            replay,
            decisions: Decisions::default(),
        }
    }

    fn plan_apply(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let Self { otem, ledger, .. } = self;
        let decision = match ledger {
            Some(l) => time(l, "policy.plan", || {
                otem.plan_with(load, forecast, dt, sink)
            }),
            None => otem.plan_with(load, forecast, dt, sink),
        };
        self.decisions.observe(&decision);
        let (cap, duty) = (decision.cap_bus, decision.cool_duty);
        match self.ledger {
            Some(l) => time(l, "policy.apply", || {
                self.otem.apply_with(load, cap, duty, dt, sink)
            }),
            None => self.otem.apply_with(load, cap, duty, dt, sink),
        }
    }
}

impl Controller for OtemLoop<'_> {
    fn name(&self) -> &'static str {
        "OTEM"
    }

    fn step(&mut self, load: Watts, forecast: &[Watts], dt: Seconds) -> StepRecord {
        self.step_with(load, forecast, dt, &NullSink)
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        if let Some((rec, limit)) = self.replay {
            if self.decisions.solves < limit as u64 {
                let step = ReplayStep {
                    vehicle: self.vehicle,
                    config: self.config.clone(),
                    mpc: *self.otem.mpc_config(),
                    state: self.otem.state(),
                    window: std::iter::once(load)
                        .chain(forecast.iter().copied())
                        .collect(),
                    dt,
                };
                match self.ledger {
                    Some(l) => time(l, "bench.record", || rec.borrow_mut().push(step)),
                    None => rec.borrow_mut().push(step),
                }
            }
        }
        match self.ledger {
            Some(l) => time(l, "policy.step", || {
                self.plan_apply(load, forecast, dt, sink)
            }),
            None => self.plan_apply(load, forecast, dt, sink),
        }
    }

    fn state(&self) -> SystemState {
        self.otem.state()
    }
}

/// A reactive policy whose every `Controller::step` is a span.
struct TimedReactive<'a> {
    inner: Box<dyn Controller>,
    ledger: &'a RefCell<Ledger>,
}

impl Controller for TimedReactive<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn step(&mut self, load: Watts, forecast: &[Watts], dt: Seconds) -> StepRecord {
        self.step_with(load, forecast, dt, &NullSink)
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        time(self.ledger, "policy.reactive_step", || {
            self.inner.step_with(load, forecast, dt, sink)
        })
    }

    fn state(&self) -> SystemState {
        self.inner.state()
    }
}

/// Whether every number in a step record is finite.
pub fn record_is_finite(r: &StepRecord) -> bool {
    [
        r.load.value(),
        r.hees.delivered.value(),
        r.hees.shortfall.value(),
        r.hees.battery_internal.value(),
        r.hees.cap_internal.value(),
        r.hees.battery_heat.value(),
        r.hees.battery_c_rate,
        r.hees.converter_loss.value(),
        r.cooling_power.value(),
        r.state.battery_temp.value(),
        r.state.coolant_temp.value(),
        r.state.soc.value(),
        r.state.soe.value(),
    ]
    .iter()
    .all(|v| v.is_finite())
}

/// The MPC tuning the fleet gives an OTEM vehicle: its horizon, budget
/// and deadline over the production defaults.
pub fn spec_mpc(spec: &VehicleSpec) -> MpcConfig {
    MpcConfig {
        horizon: spec.mpc_horizon,
        solver_iterations: spec.mpc_iterations,
        deadline_ns: (spec.mpc_deadline_us > 0).then(|| spec.mpc_deadline_us.saturating_mul(1_000)),
        ..MpcConfig::default()
    }
}

/// Outcome of one traced vehicle.
pub struct Traced {
    /// Its summary (compared with the untraced run's).
    pub summary: VehicleSummary,
    /// MPC decisions (OTEM vehicles).
    pub decisions: Decisions,
    /// Steps whose record had a non-finite number.
    pub non_finite_steps: u64,
}

/// Runs `trace` closed loop under `controller`, every call a span.
pub fn drive_traced(
    ledger: &RefCell<Ledger>,
    id: u64,
    config: &SystemConfig,
    controller: &mut dyn Controller,
    trace: &PowerTrace,
) -> (VehicleSummary, u64) {
    let sim = otem::Simulator::new(config);
    let mut cursor = sim.cursor();
    let mut builder = SummaryBuilder::new(config.dt);
    let mut bad = 0u64;
    while time(ledger, "sim.advance", || {
        cursor.advance(controller, trace, &NullSink, |_, r| {
            bad += u64::from(!record_is_finite(r));
            time(ledger, "campaign.summary", || builder.push(r));
        })
    }) {}
    let totals = cursor.finish(&NullSink);
    let summary = time(ledger, "campaign.summary", || builder.finish(id, totals));
    (summary, bad)
}

/// The fleet engine's per-vehicle work (`FleetEngine::run_vehicle`)
/// rebuilt from public calls, every call a span: trace lookup,
/// controller, closed loop, summary.
pub fn trace_spec(
    ledger: &RefCell<Ledger>,
    cache: &TraceCache,
    spec: &VehicleSpec,
    replay: Option<(&RefCell<Vec<ReplayStep>>, usize)>,
) -> Result<Traced, otem::OtemError> {
    time(ledger, "engine.vehicle", || {
        let trace = time(ledger, "campaign.trace_for", || cache.trace_for(spec))?;
        let config = spec.config();
        Ok(if spec.methodology == Methodology::Otem {
            let otem = Otem::with_mpc(&config, spec_mpc(spec))?;
            let mut c = OtemLoop::new(otem, &config, spec.id, Some(ledger), replay);
            let (summary, bad) = drive_traced(ledger, spec.id, &config, &mut c, &trace);
            Traced {
                summary,
                decisions: c.decisions,
                non_finite_steps: bad,
            }
        } else {
            let mut c = TimedReactive {
                inner: spec.controller(&config)?,
                ledger,
            };
            let (summary, bad) = drive_traced(ledger, spec.id, &config, &mut c, &trace);
            Traced {
                summary,
                decisions: Decisions::default(),
                non_finite_steps: bad,
            }
        })
    })
}

/// Plan quality over a set of vehicle summaries, normalised per hour of
/// simulated driving so routes of different lengths compare.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    vehicles: u64,
    seconds: f64,
    energy_j: f64,
    capacity_loss: f64,
    shortfall_j: f64,
    peak_temp_sum_c: f64,
}

impl Quality {
    /// Adds one vehicle driven at control period `dt_s`.
    pub fn add(&mut self, s: &VehicleSummary, dt_s: f64) {
        self.vehicles += 1;
        self.seconds += s.steps as f64 * dt_s;
        self.energy_j += s.energy_j;
        self.capacity_loss += s.capacity_loss;
        self.shortfall_j += s.shortfall_j;
        self.peak_temp_sum_c += s.peak_temp_k - 273.15;
    }

    /// HEES energy, kJ per hour of driving.
    pub fn energy_kj_h(&self) -> f64 {
        self.energy_j / 1e3 / self.seconds * 3600.0
    }

    /// Eq. 5 capacity loss, ppm per hour of driving.
    pub fn q_loss_ppm_h(&self) -> f64 {
        self.capacity_loss * 1e6 / self.seconds * 3600.0
    }

    /// Unserved load, kJ per hour of driving.
    pub fn shortfall_kj_h(&self) -> f64 {
        self.shortfall_j / 1e3 / self.seconds * 3600.0
    }

    /// Mean per-vehicle peak battery temperature, °C.
    pub fn peak_temp_c(&self) -> f64 {
        self.peak_temp_sum_c / self.vehicles as f64
    }
}
