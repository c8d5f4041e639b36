//! The OTEM model-predictive optimisation (paper Section III-B,
//! Eq. 17–19).
//!
//! # Transcription
//!
//! The paper states the OCP over state variables `x = [T_b, T_c, SoE,
//! SoC]`, control inputs `i = [T_i, P_bat, P_cap]` and auxiliaries, with
//! the discretised dynamics as equality constraints (Eq. 18) and the
//! weighted cost of Eq. 19. We solve the same problem by **single
//! shooting**: the dynamics are eliminated by forward simulation of the
//! component models, leaving a box-constrained problem in the genuinely
//! free inputs —
//!
//! * `u_cap[k]` — the ultracapacitor's bus-side power share (the bus
//!   power balance then pins the battery's share:
//!   `P_bat = P_e + P_c + P_m − P_cap`), and
//! * `u_cool[k]` — the cooler duty in `[0, 1]` (scaling the inlet
//!   temperature drop, and thereby `P_c`, within actuator limits);
//!
//! state constraints C1/C4/C5/C6 become smooth quadratic penalties. The
//! box-constrained NLP is solved with [`otem_solver::ProjectedGradient`],
//! warm-started from the previous period's shifted solution (standard
//! receding-horizon practice).

use crate::adjoint::{self, Checkpoint, Record, TapeStep, Window};
use otem_battery::AgingParams;
use otem_hees::HybridHees;
use otem_solver::{
    Bounds, Deadline, NumericalGradient, Objective, ProjectedGradient, Solution, SolverOutcome,
};
pub use otem_solver::{Clock, MonotonicClock, VirtualClock};
use otem_telemetry::{span, Event, NullSink, Sink};
use otem_thermal::{CoolingPlant, ThermalModel, ThermalState};
use otem_units::{Kelvin, Ratio, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How the MPC evaluates the gradient of its rollout objective.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GradientMode {
    /// Central finite differences over prefix-checkpointed rollouts: one
    /// checkpoint pass, then each of the `4·horizon` perturbed
    /// evaluations resumes at the stage it perturbs
    /// (`2·horizon·(horizon + 1) + horizon` stage evaluations per
    /// gradient, bit-identical to full rollouts). The reference the
    /// adjoint is tested against.
    #[default]
    Serial,
    /// Reverse-mode (adjoint) gradient: one taped forward rollout plus
    /// one backward sweep (see the `adjoint` module), independent of the
    /// horizon. Matches finite differences to ~1e-6 relative error away
    /// from penalty kinks.
    Adjoint,
}

impl GradientMode {
    /// Stable snake_case mode name — the `mode` label on solve-outcome
    /// telemetry and the `otem_solve_outcome_total{mode,outcome}`
    /// metric family.
    pub const fn name(&self) -> &'static str {
        match self {
            GradientMode::Serial => "serial",
            GradientMode::Adjoint => "adjoint",
        }
    }
}

/// Tuning of the OTEM optimisation (Eq. 19 weights, horizon, penalties).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpcConfig {
    /// Control window length `N` (steps of `dt`).
    pub horizon: usize,
    /// `w1`: weight on cooling energy `P_c·Δt` (per joule).
    pub w1: f64,
    /// `w2`: weight on battery capacity loss `Q_loss` (joule-equivalents
    /// per unit loss fraction — prices battery wear against energy).
    pub w2: f64,
    /// `w3`: weight on HEES energy `dE_bat + dE_cap` (per joule).
    pub w3: f64,
    /// Soft ceiling for the battery temperature (a margin below the hard
    /// C1 limit).
    pub temp_soft: Kelvin,
    /// Penalty weight per K² of soft-ceiling violation per step.
    pub temp_penalty: f64,
    /// Penalty weight per unit² of SoC/SoE bound violation per step.
    pub state_penalty: f64,
    /// Penalty weight per W² of unserved load per step.
    pub shortfall_penalty: f64,
    /// Penalty weight per W² of battery bus-power limit violation.
    pub power_penalty: f64,
    /// Inner solver iteration budget per control period.
    pub solver_iterations: usize,
    /// Whether to warm-start from the shifted previous solution.
    pub warm_start: bool,
    /// Terminal-cost tail (s): the end-of-horizon battery temperature is
    /// priced as if it persisted this long, so the controller sees the
    /// value of pre-cooling beyond its own window (thermal time
    /// constants far exceed practical horizons).
    pub terminal_tail: f64,
    /// Move blocking: each of the `horizon` decision blocks spans this
    /// many control periods, so the window covers `horizon × block_size`
    /// seconds at the optimisation cost of `horizon` steps. The first
    /// block's move is applied for one control period and the problem is
    /// re-solved (standard receding-horizon practice).
    pub block_size: usize,
    /// How the gradient of the rollout objective is evaluated: central
    /// finite differences ([`GradientMode::Serial`]) or the reverse-mode
    /// sweep ([`GradientMode::Adjoint`]).
    pub gradient_mode: GradientMode,
    /// Optional per-solve compute budget in nanoseconds (the *anytime*
    /// contract): the inner solver polls its [`Clock`] once per outer
    /// iteration and, when the budget expires, returns the best iterate
    /// found so far with [`SolverOutcome::DeadlineReached`] — finite,
    /// inside the box, never worse than the projected warm start.
    /// `None` disables the deadline.
    pub deadline_ns: Option<u64>,
}

impl Default for MpcConfig {
    fn default() -> Self {
        Self {
            horizon: 12,
            w1: 1.0,
            w2: 8.0e12,
            w3: 1.0,
            temp_soft: Kelvin::from_celsius(38.0),
            temp_penalty: 5.0e5,
            state_penalty: 1.0e10,
            shortfall_penalty: 1.0e-2,
            power_penalty: 1.0e-3,
            solver_iterations: 30,
            warm_start: true,
            terminal_tail: 600.0,
            block_size: 1,
            gradient_mode: GradientMode::Serial,
            deadline_ns: None,
        }
    }
}

/// Everything the rollout needs to predict the plant over the horizon.
#[derive(Debug, Clone)]
pub struct MpcPlant {
    /// The hybrid architecture (cloned per rollout; cheap).
    pub hees: HybridHees,
    /// The actively cooled thermal model.
    pub thermal: ThermalModel,
    /// The cooling plant (cooler + pump).
    pub plant: CoolingPlant,
    /// Current thermal state.
    pub state: ThermalState,
    /// Aging coefficients for the `Q_loss` cost term.
    pub aging: AgingParams,
    /// C4 lower bound on SoC.
    pub soc_min: Ratio,
    /// C5 lower bound on SoE.
    pub soe_min: Ratio,
    /// C6 battery bus-power limit.
    pub battery_power_max: Watts,
    /// C7 ultracapacitor bus-power limit.
    pub cap_power_max: Watts,
}

/// One period's optimised control move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpcDecision {
    /// Bus-side ultracapacitor power for the coming period (positive =
    /// the bank serves the bus).
    pub cap_bus: Watts,
    /// Cooler duty in `[0, 1]`.
    pub cool_duty: f64,
    /// Diagnostics: cost at the solution.
    pub cost: f64,
    /// Diagnostics: solver iterations consumed.
    pub iterations: usize,
    /// Diagnostics: how the solver terminated.
    pub outcome: SolverOutcome,
}

impl MpcDecision {
    /// Whether the solver met tolerance (legacy convenience over
    /// [`MpcDecision::outcome`]).
    pub fn converged(&self) -> bool {
        self.outcome == SolverOutcome::Converged
    }
}

/// The receding-horizon optimiser (Algorithm 1 lines 13–14).
#[derive(Debug, Clone)]
pub struct Mpc {
    config: MpcConfig,
    previous: Option<Vec<f64>>,
    solver: ProjectedGradient,
    /// Runtime ceiling on solver iterations (below the configured
    /// budget); `None` means the configured budget applies. Exists so a
    /// fault-injection harness can starve the solver without rebuilding
    /// the controller.
    iteration_cap: Option<usize>,
    /// Runtime tightening of the per-solve deadline (ns); combined with
    /// the configured [`MpcConfig::deadline_ns`] by taking the minimum,
    /// so a fault can only shrink the budget. `None` restores the
    /// configured deadline.
    deadline_cap: Option<u64>,
    /// Time source the deadline is measured against: the monotonic
    /// clock in production, a [`otem_solver::VirtualClock`] in tests
    /// (making deadline behaviour bit-reproducible).
    clock: Arc<dyn Clock>,
    // Cached per-solve buffers: the problem dimension is fixed by the
    // config, so bounds and the warm-start vector are built once and
    // reused across every control period.
    bounds: Bounds,
    x0: Vec<f64>,
    pool: WorkspacePool,
}

impl Mpc {
    /// Builds an optimiser with the given tuning.
    pub fn new(config: MpcConfig) -> Self {
        let solver = ProjectedGradient {
            max_iterations: config.solver_iterations,
            tolerance: 1e-5,
            ..ProjectedGradient::default()
        };
        let n = config.horizon;
        let mut lower = vec![-1.0; n];
        lower.extend(std::iter::repeat_n(0.0, n));
        let mut upper = vec![1.0; n];
        upper.extend(std::iter::repeat_n(1.0, n));
        Self {
            config,
            previous: None,
            solver,
            iteration_cap: None,
            deadline_cap: None,
            clock: Arc::new(MonotonicClock::new()),
            bounds: Bounds::new(lower, upper),
            x0: vec![0.0; 2 * n],
            pool: WorkspacePool::new(),
        }
    }

    /// The tuning in use.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Clears the warm-start memory (e.g. when the route changes).
    pub fn reset(&mut self) {
        self.previous = None;
    }

    /// Caps the per-period solver iterations below the configured budget
    /// (`None` restores the configured budget). A cap of zero makes every
    /// solve return its warm start unimproved — the "starved solver"
    /// degradation mode the supervisor must detect.
    pub fn set_iteration_cap(&mut self, cap: Option<usize>) {
        self.iteration_cap = cap;
    }

    /// The currently active iteration cap, if any.
    pub fn iteration_cap(&self) -> Option<usize> {
        self.iteration_cap
    }

    /// Tightens the per-solve deadline below the configured
    /// [`MpcConfig::deadline_ns`] (`None` restores the configured
    /// value). A zero budget makes every solve return its projected
    /// warm start with [`SolverOutcome::DeadlineReached`] — the
    /// "deadline-missed" degradation mode the supervisor must detect.
    pub fn set_deadline_ns(&mut self, deadline_ns: Option<u64>) {
        self.deadline_cap = deadline_ns;
    }

    /// The per-solve deadline budget currently in force (runtime cap
    /// combined with the configured value by minimum), if any.
    pub fn deadline_ns(&self) -> Option<u64> {
        match (self.deadline_cap, self.config.deadline_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Replaces the time source the deadline is measured against.
    /// Production keeps the default [`MonotonicClock`]; tests inject a
    /// [`otem_solver::VirtualClock`] so deadline-triggered paths are
    /// deterministic and bit-reproducible.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Calls to the rollout body made by [`Mpc::solve`] so far, exact
    /// and monotone. Every call counts once: each objective value (line
    /// search included), each taped pass of the adjoint mode, and in
    /// finite-difference mode the checkpoint pass plus each resumed
    /// suffix — `4·horizon + 1` per FD gradient.
    ///
    /// A call is not a fixed amount of work: a resumed suffix that
    /// perturbs stage `k` simulates only stages `k..horizon` plus the
    /// terminal, so on the FD path `rollouts × horizon` overstates the
    /// plant steps simulated, by about 2× at large horizons.
    pub fn rollouts(&self) -> u64 {
        self.pool.rollouts.load(Ordering::Relaxed)
    }

    /// Solves the control window given the plant snapshot and the load
    /// forecast (`loads[0]` is the period being decided). Returns the
    /// first move, retaining the full solution as the next warm start.
    pub fn solve(&mut self, plant: &MpcPlant, loads: &[Watts], dt: Seconds) -> MpcDecision {
        self.solve_with(plant, loads, dt, &NullSink)
    }

    /// [`Mpc::solve`] with telemetry: the solve streams
    /// [`Event::SolverIteration`] / [`Event::GradientEval`] from the
    /// inner solver, [`Event::PoolHit`] / [`Event::PoolMiss`] from the
    /// rollout workspace pool, and [`Event::BoundClamp`] when the
    /// applied first move sits pinned on a box bound (saturated
    /// ultracapacitor share at ±1, cooler duty at its ceiling — the
    /// always-active idle duty floor is deliberately not reported).
    ///
    /// Observation only: for any sink the returned [`MpcDecision`] is
    /// bit-identical to [`Mpc::solve`]'s.
    pub fn solve_with(
        &mut self,
        plant: &MpcPlant,
        loads: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> MpcDecision {
        let _solve_span = span(sink, "mpc_solve");
        let n = self.config.horizon;

        // Decision vector layout: [cap_share_0..n-1, cool_duty_0..n-1],
        // cap shares normalised by the C7 limit into [-1, 1].
        {
            let _warm_span = span(sink, "warm_start");
            self.x0.clear();
            self.x0.resize(2 * n, 0.0);
            if self.config.warm_start {
                if let Some(prev) = &self.previous {
                    warm_start_shift(&mut self.x0, prev, n, self.config.block_size);
                }
            }
        }

        {
            let _pool_span = span(sink, "pool");
            self.pool.rebind(&plant.hees);
        }
        let objective = RolloutObjective {
            window: Window::new(plant, loads, dt, &self.config),
            pool: &self.pool,
            sink,
        };
        let mut solver = self.solver;
        if let Some(cap) = self.iteration_cap {
            solver.max_iterations = solver.max_iterations.min(cap);
        }
        let deadline = self
            .deadline_ns()
            .map(|budget| Deadline::after(self.clock.as_ref(), budget));
        let Solution {
            x,
            value,
            iterations,
            outcome,
        } = solver.minimize_within(&objective, &self.bounds, &self.x0, sink, deadline.as_ref());
        sink.record(Event::SolveOutcome {
            outcome: outcome.name(),
            mode: self.config.gradient_mode.name(),
            iterations: iterations as u64,
        });

        if x[0] == -1.0 || x[0] == 1.0 {
            sink.record(Event::BoundClamp {
                index: 0,
                raw: x[0] * plant.cap_power_max.value(),
                bound: x[0],
            });
        }
        if x[n] == 1.0 {
            sink.record(Event::BoundClamp {
                index: n as u64,
                raw: x[n],
                bound: 1.0,
            });
        }

        let decision = MpcDecision {
            cap_bus: Watts::new(x[0] * plant.cap_power_max.value()),
            cool_duty: x[n],
            cost: value,
            iterations,
            outcome,
        };
        self.previous = Some(x);
        decision
    }
}

/// Warm-starts `x0` from the previous period's plan `prev` (both laid out
/// as `[cap_share_0..n-1, cool_duty_0..n-1]`).
///
/// One *control period* has elapsed since `prev` was planned, but each
/// decision block spans `block` periods — so the plan must advance by the
/// fraction `1/block` of a block, not a whole block. A whole-index shift
/// (the `block == 1` case) would discard `block − 1` periods of
/// still-valid plan; instead each block is blended with its successor in
/// proportion to how far the elapsed period has slid the window:
/// `x0[k] = (1 − 1/block)·prev[k] + (1/block)·prev[k+1]`, with the tail
/// block repeated.
fn warm_start_shift(x0: &mut [f64], prev: &[f64], n: usize, block: usize) {
    debug_assert_eq!(x0.len(), 2 * n);
    debug_assert_eq!(prev.len(), 2 * n);
    let block = block.max(1);
    if block == 1 {
        for k in 0..n - 1 {
            x0[k] = prev[k + 1];
            x0[n + k] = prev[n + k + 1];
        }
    } else {
        let frac = 1.0 / block as f64;
        for k in 0..n - 1 {
            x0[k] = (1.0 - frac) * prev[k] + frac * prev[k + 1];
            x0[n + k] = (1.0 - frac) * prev[n + k] + frac * prev[n + k + 1];
        }
    }
    x0[n - 1] = prev[n - 1];
    x0[2 * n - 1] = prev[2 * n - 1];
}

/// Per-evaluation scratch owned by one worker: a long-lived plant model
/// that is rewound with [`HybridHees::restore`] before every rollout
/// (instead of deep-cloning the plant per evaluation) plus a perturbation
/// buffer for finite differences. Once warm, evaluating the objective or
/// one gradient coordinate touches no allocator.
struct RolloutWorkspace {
    hees: HybridHees,
    xp: Vec<f64>,
    /// Finite-difference checkpoints: the carried state before each
    /// stage of the unperturbed rollout, where each perturbed rollout
    /// resumes. Retains its capacity across solves.
    checkpoints: Vec<Checkpoint>,
    /// Adjoint tape: per-step Jacobian records written by the forward
    /// pass and consumed by the backward sweep. Retains its capacity
    /// across solves, so steady-state adjoint gradients allocate
    /// nothing.
    tape: Vec<TapeStep>,
}

/// Pool of [`RolloutWorkspace`]s, built on first use and retained across
/// solves.
struct WorkspacePool {
    slots: Mutex<Vec<RolloutWorkspace>>,
    rollouts: AtomicU64,
}

impl WorkspacePool {
    fn new() -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            rollouts: AtomicU64::new(0),
        }
    }

    /// Drops pooled workspaces whose plant no longer matches `source`
    /// beyond its mutable state — after syncing state, any surviving
    /// difference means the caller switched to a differently-parameterised
    /// plant, and reusing the workspace would silently roll out the wrong
    /// model. Runs once per solve over at most a handful of slots.
    fn rebind(&self, source: &HybridHees) {
        let snapshot = source.snapshot();
        // Poisoning is not corruption here: every critical section is a
        // plain Vec push/pop, and a panicking evaluation thread leaves the
        // pool contents valid (at worst a workspace is lost to the
        // panicking thread). Recover the guard instead of cascading the
        // panic into every later solve.
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.retain_mut(|ws| {
            ws.hees.restore(snapshot);
            ws.hees == *source
        });
    }

    /// Pops a pooled workspace, or builds one from `source` on first use
    /// (the only time a plant clone happens). `sink` learns which way it
    /// went — a warm pool records only [`Event::PoolHit`]s.
    fn take(&self, source: &HybridHees, sink: &dyn Sink) -> RolloutWorkspace {
        let pooled = self.slots.lock().unwrap_or_else(|e| e.into_inner()).pop();
        match pooled {
            Some(ws) => {
                sink.record(Event::PoolHit);
                ws
            }
            None => {
                sink.record(Event::PoolMiss);
                RolloutWorkspace {
                    hees: source.clone(),
                    xp: Vec::new(),
                    checkpoints: Vec::new(),
                    tape: Vec::new(),
                }
            }
        }
    }

    fn put(&self, workspace: RolloutWorkspace) {
        self.slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(workspace);
    }
}

impl Clone for WorkspacePool {
    // Workspaces are lazily rebuilt caches; a clone starts empty but
    // carries the rollout count so the work statistic stays monotone.
    fn clone(&self) -> Self {
        Self {
            slots: Mutex::new(Vec::new()),
            rollouts: AtomicU64::new(self.rollouts.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspacePool")
            .field("slots", &self.slots.lock().map(|s| s.len()).unwrap_or(0))
            .field("rollouts", &self.rollouts.load(Ordering::Relaxed))
            .finish()
    }
}

struct RolloutObjective<'a> {
    /// The solve's rollout inputs; every full rollout rewinds its
    /// workspace plant to `window.start`, exactly like a fresh clone.
    window: Window<'a>,
    pool: &'a WorkspacePool,
    /// Telemetry sink for pool traffic ([`Event::PoolHit`] /
    /// [`Event::PoolMiss`]) and the phase spans.
    sink: &'a dyn Sink,
}

impl RolloutObjective<'_> {
    /// One call to the rollout body through a workspace plant — the only
    /// way this objective rolls out, so [`Mpc::rollouts`] counts every
    /// call exactly once.
    fn rollout(&self, hees: &mut HybridHees, z: &[f64], from: &Checkpoint, record: Record) -> f64 {
        self.pool.rollouts.fetch_add(1, Ordering::Relaxed);
        adjoint::rollout(&self.window, hees, z, from, record)
    }

    /// Central differences through one pooled workspace. One checkpoint
    /// pass at `x` records the state before every stage; the `±h`
    /// evaluations of coordinate `i` perturb stage `i mod horizon` and
    /// resume there, so a gradient simulates `2N(N + 1) + N` stages
    /// instead of `4N²`, bit-identical to full rollouts.
    fn gradient_fd(&self, x: &[f64], grad: &mut [f64]) {
        let _rollout_span = span(self.sink, "rollout");
        let mut ws = self.pool.take(&self.window.plant.hees, self.sink);
        let RolloutWorkspace {
            hees,
            xp,
            checkpoints,
            ..
        } = &mut ws;
        self.rollout(
            hees,
            x,
            &self.window.start,
            Record::Checkpoints(checkpoints),
        );
        xp.clear();
        xp.extend_from_slice(x);
        let n = self.window.config.horizon;
        NumericalGradient::central_in_place(xp, grad, |i, z| {
            self.rollout(hees, z, &checkpoints[i % n], Record::Nothing)
        });
        self.pool.put(ws);
    }

    /// Reverse-mode gradient: one taped forward rollout plus an
    /// allocation-free backward sweep — the whole gradient for the price
    /// of a single rollout, independent of the horizon length.
    fn gradient_adjoint(&self, x: &[f64], grad: &mut [f64]) {
        let rollout_span = span(self.sink, "rollout");
        let mut ws = self.pool.take(&self.window.plant.hees, self.sink);
        let RolloutWorkspace { hees, tape, .. } = &mut ws;
        self.rollout(hees, x, &self.window.start, Record::Tape(tape));
        rollout_span.close();
        {
            let _sweep_span = span(self.sink, "backward_sweep");
            adjoint::adjoint_sweep(&self.window, &ws.tape, grad);
        }
        self.pool.put(ws);
    }
}

impl Objective for RolloutObjective<'_> {
    fn value(&self, z: &[f64]) -> f64 {
        let _rollout_span = span(self.sink, "rollout");
        let mut ws = self.pool.take(&self.window.plant.hees, self.sink);
        let cost = self.rollout(&mut ws.hees, z, &self.window.start, Record::Nothing);
        self.pool.put(ws);
        cost
    }

    // Explicit impl so both modes run through pooled workspaces: the
    // default finite-difference path would deep-clone the plant per
    // rollout.
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        assert_eq!(grad.len(), x.len(), "gradient buffer length mismatch");
        match self.window.config.gradient_mode {
            GradientMode::Serial => self.gradient_fd(x, grad),
            GradientMode::Adjoint => self.gradient_adjoint(x, grad),
        }
    }
}

/// Simulates the horizon under the candidate controls and returns the
/// Eq. 19 cost plus constraint penalties.
///
/// Clones the plant's HEES once per call; the MPC's inner loop avoids
/// even that by routing through a pooled workspace instead
/// (see [`Mpc::solve`]).
pub fn rollout_cost(
    plant: &MpcPlant,
    loads: &[Watts],
    dt: Seconds,
    config: &MpcConfig,
    z: &[f64],
) -> f64 {
    let window = Window::new(plant, loads, dt, config);
    let mut hees = plant.hees.clone();
    adjoint::rollout(&window, &mut hees, z, &window.start, Record::Nothing)
}

/// Reverse-mode gradient of [`rollout_cost`]: one taped forward rollout
/// plus a backward sweep through the components' analytic Jacobians.
/// Writes `∂J/∂z` into `grad` (layout `[cap_share_0..n-1,
/// cool_duty_0..n-1]`, length `2·horizon`) and returns the cost at `z`.
///
/// Clones the plant's HEES once per call; the MPC's inner loop avoids
/// even that by routing through a pooled workspace instead (see
/// [`GradientMode::Adjoint`]). Matches finite differences to ~1e-6
/// relative error away from the objective's penalty kinks, at a cost
/// independent of the horizon length.
pub fn rollout_gradient_adjoint(
    plant: &MpcPlant,
    loads: &[Watts],
    dt: Seconds,
    config: &MpcConfig,
    z: &[f64],
    grad: &mut [f64],
) -> f64 {
    let window = Window::new(plant, loads, dt, config);
    let mut hees = plant.hees.clone();
    let mut tape = Vec::with_capacity(config.horizon);
    let cost = adjoint::rollout(
        &window,
        &mut hees,
        z,
        &window.start,
        Record::Tape(&mut tape),
    );
    adjoint::adjoint_sweep(&window, &tape, grad);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use otem_units::Farads;

    fn plant(config: &SystemConfig) -> MpcPlant {
        let mut hees = HybridHees::ev_default(Farads::new(25_000.0)).unwrap();
        hees.set_state(config.initial_soc, Ratio::new(0.6));
        MpcPlant {
            hees,
            thermal: ThermalModel::new(config.thermal_active).unwrap(),
            plant: CoolingPlant::new(config.plant).unwrap(),
            state: ThermalState::uniform(config.ambient),
            aging: config.aging,
            soc_min: config.soc_min,
            soe_min: config.soe_min,
            battery_power_max: config.battery_power_max,
            cap_power_max: config.cap_power_max,
        }
    }

    #[test]
    fn idle_horizon_prefers_doing_nothing() {
        let config = SystemConfig::default();
        let p = plant(&config);
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let loads = vec![Watts::ZERO; 6];
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(
            d.cap_bus.value().abs() < 2_000.0,
            "idle cap command {:?}",
            d.cap_bus
        );
        assert!(d.cool_duty < 0.1, "idle cooling duty {}", d.cool_duty);
    }

    #[test]
    fn hot_battery_triggers_cooling_or_cap_use() {
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(39.5));
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let loads = vec![Watts::new(40_000.0); 6];
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(
            d.cool_duty > 0.3 || d.cap_bus.value() > 10_000.0,
            "hot battery ignored: duty {} cap {:?}",
            d.cool_duty,
            d.cap_bus
        );
    }

    #[test]
    fn upcoming_peak_prepares_teb() {
        // Quiet now, 80 kW pulse later in the window: the solution should
        // either pre-charge the bank now (negative cap power) or plan to
        // discharge it during the pulse.
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.hees.set_state(Ratio::ONE, Ratio::new(0.4)); // bank part-empty
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 10,
            ..MpcConfig::default()
        });
        let mut loads = vec![Watts::new(2_000.0); 10];
        for sample in loads.iter_mut().skip(5) {
            *sample = Watts::new(80_000.0);
        }
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        // Inspect the retained full plan: cap must serve during the pulse.
        let plan = mpc.previous.clone().expect("plan retained");
        let served: f64 = plan[5..10].iter().sum();
        assert!(
            served > 0.2 || d.cap_bus.value() < -500.0,
            "no TEB preparation: plan {plan:?}"
        );
    }

    #[test]
    fn warm_start_reuses_previous_plan() {
        let config = SystemConfig::default();
        let p = plant(&config);
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let loads = vec![Watts::new(20_000.0); 6];
        let first = mpc.solve(&p, &loads, Seconds::new(1.0));
        let second = mpc.solve(&p, &loads, Seconds::new(1.0));
        // Warm-started re-solve of the same problem should converge at
        // least as fast.
        assert!(second.iterations <= first.iterations + 5);
        mpc.reset();
        assert!(mpc.previous.is_none());
    }

    #[test]
    fn terminal_tail_makes_sustained_cooling_profitable() {
        // The design note in DESIGN.md §5: without the terminal cost a
        // short window cannot see that cooling pays off; with it, the
        // full-cooling rollout must under-cost the no-cooling rollout on
        // a warm battery — and the tail's nominal C-rate must come from
        // the load, not from the cooling-induced battery current. The
        // effect needs the stress rig's fast thermal response (a 284 kJ/K
        // premium pack barely moves in 12 s either way).
        let config = SystemConfig::stress_rig();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let n = 12;
        let loads = vec![Watts::new(15_000.0); n];
        let dt = Seconds::new(1.0);
        let mut z_cool = vec![0.0; 2 * n];
        z_cool[n..].fill(1.0);
        let z_off = vec![0.0; 2 * n];

        let with_tail = MpcConfig {
            horizon: n,
            ..MpcConfig::default()
        };
        let cool = rollout_cost(&p, &loads, dt, &with_tail, &z_cool);
        let idle = rollout_cost(&p, &loads, dt, &with_tail, &z_off);
        assert!(
            cool < idle,
            "tail should make cooling profitable: cool {cool:.4e} vs idle {idle:.4e}"
        );

        let no_tail = MpcConfig {
            horizon: n,
            terminal_tail: 0.0,
            ..MpcConfig::default()
        };
        let cool_nt = rollout_cost(&p, &loads, dt, &no_tail, &z_cool);
        let idle_nt = rollout_cost(&p, &loads, dt, &no_tail, &z_off);
        assert!(
            cool_nt > idle_nt,
            "without the tail a 12 s window cannot justify cooling:              cool {cool_nt:.4e} vs idle {idle_nt:.4e}"
        );
    }

    #[test]
    fn block_size_extends_the_window() {
        // With block_size the same decision vector spans a longer window;
        // sanity: solving still returns finite, bounded commands.
        let config = SystemConfig::default();
        let p = plant(&config);
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            block_size: 5,
            ..MpcConfig::default()
        });
        let loads = vec![Watts::new(20_000.0); 6];
        let d = mpc.solve(&p, &loads, Seconds::new(5.0));
        assert!(d.cap_bus.is_finite());
        assert!((0.0..=1.0).contains(&d.cool_duty));
        assert!(d.cap_bus.abs() <= p.cap_power_max + Watts::new(1e-6));
    }

    #[test]
    fn pooled_rollouts_match_clone_based_rollouts_bitwise() {
        // The pooled snapshot/restore path must be indistinguishable from
        // a fresh plant clone per evaluation — including on reuse, when
        // the workspace still carries the previous rollout's end state.
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.hees.set_state(Ratio::new(0.9), Ratio::new(0.45));
        let cfg = MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        };
        let loads: Vec<Watts> = (0..6).map(|k| Watts::new(8_000.0 * k as f64)).collect();
        let dt = Seconds::new(1.0);
        let pool = WorkspacePool::new();
        let objective = RolloutObjective {
            window: Window::new(&p, &loads, dt, &cfg),
            pool: &pool,
            sink: &NullSink,
        };
        let mut z = vec![0.0; 12];
        for (i, zi) in z.iter_mut().enumerate() {
            *zi = if i < 6 {
                0.1 * i as f64 - 0.2
            } else {
                0.15 * (i - 6) as f64
            };
        }
        for _ in 0..3 {
            let pooled = objective.value(&z);
            let cloned = rollout_cost(&p, &loads, dt, &cfg, &z);
            assert_eq!(pooled.to_bits(), cloned.to_bits());
        }
        assert_eq!(objective.pool.rollouts.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pooled_gradient_is_bit_identical_to_the_clone_based_reference() {
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.hees.set_state(Ratio::new(0.8), Ratio::new(0.5));
        p.state = ThermalState::uniform(Kelvin::from_celsius(33.0));
        let cfg = MpcConfig {
            horizon: 8,
            ..MpcConfig::default()
        };
        let loads: Vec<Watts> = (0..8)
            .map(|k| Watts::new(5_000.0 + 9_000.0 * (k % 3) as f64))
            .collect();
        let dt = Seconds::new(1.0);
        let pool = WorkspacePool::new();
        let objective = RolloutObjective {
            window: Window::new(&p, &loads, dt, &cfg),
            pool: &pool,
            sink: &NullSink,
        };
        let dim = 16;
        let z: Vec<f64> = (0..dim)
            .map(|i| {
                if i < 8 {
                    0.05 * i as f64 - 0.15
                } else {
                    0.1 * (i - 8) as f64
                }
            })
            .collect();

        // Reference: plain finite differences over the public clone-based
        // rollout_cost — the pooled paths must reproduce it bit-for-bit.
        let reference_f =
            otem_solver::FnObjective::new(|zz: &[f64]| rollout_cost(&p, &loads, dt, &cfg, zz));
        let mut reference = vec![0.0; dim];
        NumericalGradient::central(&reference_f, &z, &mut reference);

        let mut serial = vec![0.0; dim];
        objective.gradient_fd(&z, &mut serial);
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "pooled serial gradient deviates from clone-based reference"
        );
    }

    /// splitmix64 step: one proptest seed expands into a whole plant
    /// state, forecast and decision vector.
    fn mix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The checkpointed FD gradient resumes each perturbed rollout at
        /// the stage it perturbs; it must still equal plain central
        /// differences over full clone-based rollouts bit for bit —
        /// including decisions pinned on the box bounds (cap share ±1,
        /// duty 0 and 1) and duties beyond the clamp.
        #[test]
        fn checkpointed_fd_gradient_is_bit_identical_to_full_rollouts(
            horizon in 1usize..17,
            block in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = seed;
            let mut draw = |lo: f64, hi: f64| lo + (hi - lo) * mix(&mut rng);
            let config = SystemConfig::stress_rig();
            let mut p = plant(&config);
            p.hees.set_state(Ratio::new(draw(0.2, 1.0)), Ratio::new(draw(0.02, 1.0)));
            p.state = ThermalState::uniform(Kelvin::from_celsius(draw(20.0, 42.0)));
            let cfg = MpcConfig {
                horizon,
                block_size: block,
                ..MpcConfig::default()
            };
            // Move blocking stretches each decision over `block` periods;
            // the rollout sees that as a longer step.
            let dt = Seconds::new(block as f64);
            let loads: Vec<Watts> = (0..horizon)
                .map(|_| Watts::new(draw(-30_000.0, 90_000.0)))
                .collect();
            // Four in ten coordinates sit on a bound or, for duties,
            // beyond the clamp; the rest are uniform inside the box.
            let z: Vec<f64> = (0..2 * horizon)
                .map(|i| {
                    let (pinned, inside): (&[f64], f64) = if i < horizon {
                        (&[-1.0, 1.0], draw(-1.0, 1.0))
                    } else {
                        (&[0.0, 1.0, -0.25, 1.3], draw(0.0, 1.0))
                    };
                    if draw(0.0, 1.0) < 0.4 {
                        pinned[(draw(0.0, pinned.len() as f64) as usize).min(pinned.len() - 1)]
                    } else {
                        inside
                    }
                })
                .collect();

            let reference_f =
                otem_solver::FnObjective::new(|zz: &[f64]| rollout_cost(&p, &loads, dt, &cfg, zz));
            let mut reference = vec![0.0; 2 * horizon];
            NumericalGradient::central(&reference_f, &z, &mut reference);

            let pool = WorkspacePool::new();
            let objective = RolloutObjective {
                window: Window::new(&p, &loads, dt, &cfg),
                pool: &pool,
                sink: &NullSink,
            };
            let mut checkpointed = vec![0.0; 2 * horizon];
            objective.gradient_fd(&z, &mut checkpointed);
            let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert!(
                bits(&checkpointed) == bits(&reference),
                "horizon {horizon} block {block} z {z:?}: {checkpointed:?} vs {reference:?}"
            );
        }
    }

    #[test]
    fn one_fd_gradient_counts_four_n_plus_one_rollouts() {
        // The checkpoint pass plus two resumed suffixes per coordinate:
        // every call to the rollout body counts once, whatever its
        // length.
        let config = SystemConfig::default();
        let p = plant(&config);
        for n in [1usize, 5, 12] {
            let cfg = MpcConfig {
                horizon: n,
                ..MpcConfig::default()
            };
            let loads = vec![Watts::new(25_000.0); n];
            let pool = WorkspacePool::new();
            let objective = RolloutObjective {
                window: Window::new(&p, &loads, Seconds::new(1.0), &cfg),
                pool: &pool,
                sink: &NullSink,
            };
            let z = vec![0.3; 2 * n];
            let mut grad = vec![0.0; 2 * n];
            objective.gradient_fd(&z, &mut grad);
            assert_eq!(pool.rollouts.load(Ordering::Relaxed), 4 * n as u64 + 1);
            objective.value(&z);
            assert_eq!(pool.rollouts.load(Ordering::Relaxed), 4 * n as u64 + 2);
            objective.gradient_adjoint(&z, &mut grad);
            assert_eq!(pool.rollouts.load(Ordering::Relaxed), 4 * n as u64 + 3);
        }
    }

    #[test]
    fn warm_start_shift_blends_fractionally_under_blocking() {
        let n = 4;
        let prev: Vec<f64> = vec![
            0.8, 0.4, -0.6, 0.2, // cap shares
            0.1, 0.9, 0.3, 0.7, // duties
        ];
        // block_size 1: whole-index shift, tail repeated.
        let mut shifted = vec![0.0; 2 * n];
        warm_start_shift(&mut shifted, &prev, n, 1);
        assert_eq!(shifted, vec![0.4, -0.6, 0.2, 0.2, 0.9, 0.3, 0.7, 0.7]);
        // block_size 4: one elapsed period is a quarter block, so the
        // plan advances by a quarter of the gap to the next block instead
        // of throwing three still-valid periods away.
        let mut blended = vec![0.0; 2 * n];
        warm_start_shift(&mut blended, &prev, n, 4);
        let expect = |a: f64, b: f64| 0.75 * a + 0.25 * b;
        for (k, &want) in [
            expect(0.8, 0.4),
            expect(0.4, -0.6),
            expect(-0.6, 0.2),
            0.2,
            expect(0.1, 0.9),
            expect(0.9, 0.3),
            expect(0.3, 0.7),
            0.7,
        ]
        .iter()
        .enumerate()
        {
            assert!((blended[k] - want).abs() < 1e-15, "k = {k}");
        }
    }

    #[test]
    fn workspace_pool_rebinds_on_plant_change() {
        // A pooled workspace built against one plant must not survive a
        // switch to a differently-parameterised plant.
        let config = SystemConfig::default();
        let p = plant(&config);
        let pool = WorkspacePool::new();
        let ws = pool.take(&p.hees, &NullSink);
        pool.put(ws);
        pool.rebind(&p.hees);
        assert_eq!(pool.slots.lock().unwrap().len(), 1, "same plant retained");

        let mut other = HybridHees::ev_default(Farads::new(5_000.0)).unwrap();
        other.set_state(Ratio::new(0.7), Ratio::new(0.7));
        pool.rebind(&other);
        assert_eq!(
            pool.slots.lock().unwrap().len(),
            0,
            "different capacitance must evict the stale workspace"
        );
    }

    #[test]
    fn observed_solve_is_bit_identical_and_traces_pool_traffic() {
        use otem_telemetry::MemorySink;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(30_000.0); 6];
        let cfg = MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        };
        let mut plain_mpc = Mpc::new(cfg);
        let mut observed_mpc = Mpc::new(cfg);
        let sink = MemorySink::new();
        for period in 0..2 {
            let plain = plain_mpc.solve(&p, &loads, Seconds::new(1.0));
            let observed = observed_mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
            assert_eq!(
                plain.cap_bus.value().to_bits(),
                observed.cap_bus.value().to_bits(),
                "period {period}"
            );
            assert_eq!(plain.cool_duty.to_bits(), observed.cool_duty.to_bits());
            assert_eq!(plain.cost.to_bits(), observed.cost.to_bits());
            assert_eq!(plain.iterations, observed.iterations);
        }
        // Every solver iteration and every workspace-pool access left a
        // trace; after the first gradient fan-out the pool stays warm.
        assert!(sink.count_kind("solver_iteration") > 0);
        assert!(sink.count_kind("gradient_eval") > 0);
        let hits = sink.count_kind("pool_hit");
        let misses = sink.count_kind("pool_miss");
        assert_eq!(misses, 1, "serial mode needs exactly one workspace");
        assert!(hits > misses, "pool should run warm: {hits} hits");
    }

    #[test]
    fn observed_solve_nests_phase_spans_under_mpc_solve() {
        use otem_telemetry::{Event as TEvent, MemorySink};
        let config = SystemConfig::default();
        let p = plant(&config);
        let loads = vec![Watts::new(30_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            solver_iterations: 4,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
        let events = sink.events();
        let starts: Vec<(&str, u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                TEvent::SpanStart {
                    name, id, parent, ..
                } => Some((*name, *id, *parent)),
                _ => None,
            })
            .collect();
        let (_, solve_id, solve_parent) = *starts
            .iter()
            .find(|(name, ..)| *name == "mpc_solve")
            .expect("mpc_solve span");
        assert_eq!(solve_parent, 0, "mpc_solve is the root here");
        for phase in ["warm_start", "pool"] {
            let (_, _, parent) = *starts
                .iter()
                .find(|(name, ..)| *name == phase)
                .unwrap_or_else(|| panic!("missing {phase} span"));
            assert_eq!(parent, solve_id, "{phase} must nest under mpc_solve");
        }
        for phase in ["iteration", "gradient", "line_search", "rollout"] {
            assert!(
                starts.iter().any(|(name, ..)| *name == phase),
                "missing {phase} span"
            );
        }
        // Balanced: every start has its end.
        assert_eq!(
            sink.count_kind("span_start"),
            sink.count_kind("span_end"),
            "unbalanced span stream"
        );
    }

    #[test]
    fn backward_sweep_has_its_own_span_beside_the_taped_rollout() {
        use otem_telemetry::{Event as TEvent, MemorySink};
        let config = SystemConfig::default();
        let p = plant(&config);
        let loads = vec![Watts::new(30_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            solver_iterations: 4,
            gradient_mode: GradientMode::Adjoint,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
        let starts: Vec<(&str, u64, u64)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TEvent::SpanStart {
                    name, id, parent, ..
                } => Some((*name, *id, *parent)),
                _ => None,
            })
            .collect();
        let name_of = |id: u64| starts.iter().find(|s| s.1 == id).map(|s| s.0);
        let sweeps: Vec<_> = starts
            .iter()
            .filter(|(name, ..)| *name == "backward_sweep")
            .collect();
        assert!(!sweeps.is_empty(), "no backward_sweep span");
        for (_, _, parent) in sweeps {
            assert_eq!(name_of(*parent), Some("gradient"));
        }
        assert_eq!(
            sink.total_kind("span_start"),
            sink.total_kind("span_end"),
            "unbalanced span stream"
        );
        // Finite differences have no backward sweep.
        let mut fd = Mpc::new(MpcConfig {
            horizon: 6,
            solver_iterations: 4,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        fd.solve_with(&p, &loads, Seconds::new(1.0), &sink);
        assert!(!sink.events().iter().any(|e| matches!(
            e,
            TEvent::SpanStart {
                name: "backward_sweep",
                ..
            }
        )));
    }

    #[test]
    fn poisoned_pool_recovers_instead_of_cascading() {
        // A panicking evaluation thread poisons the slots mutex; the pool
        // must keep working (its invariants are plain Vec contents), not
        // turn every subsequent solve into a panic.
        let config = SystemConfig::default();
        let p = plant(&config);
        let pool = WorkspacePool::new();
        let ws = pool.take(&p.hees, &NullSink);
        pool.put(ws);

        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.slots.lock().unwrap();
            panic!("poison the pool");
        }));
        assert!(poison.is_err());
        assert!(pool.slots.lock().is_err(), "mutex should be poisoned");

        // All three entry points still function on the poisoned mutex.
        pool.rebind(&p.hees);
        let ws = pool.take(&p.hees, &NullSink);
        pool.put(ws);

        // And a full solve through the poisoned pool still succeeds.
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 4,
            ..MpcConfig::default()
        });
        let _guard_poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mpc.pool.slots.lock().unwrap();
            panic!("poison the solver's pool");
        }));
        let loads = vec![Watts::new(10_000.0); 4];
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(d.cap_bus.is_finite());
        assert!(d.cost.is_finite());
    }

    #[test]
    fn iteration_cap_starves_the_solver_structurally() {
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(40_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        mpc.set_iteration_cap(Some(0));
        assert_eq!(mpc.iteration_cap(), Some(0));
        let starved = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert_eq!(starved.iterations, 0);
        assert_eq!(starved.outcome, SolverOutcome::BudgetExhausted);
        assert!(!starved.converged());

        // Lifting the cap restores the configured budget.
        mpc.set_iteration_cap(None);
        let restored = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(restored.iterations > 0);
    }

    #[test]
    fn adjoint_gradient_matches_finite_differences() {
        // The backward sweep must reproduce central differences to
        // roundoff at interior points of every penalty branch. Exercise
        // warm/hot thermal states, part-empty stores, and a load profile
        // that drives both legs.
        let config = SystemConfig::default();
        for (celsius, soc, soe) in [(33.0, 0.8, 0.5), (39.0, 0.9, 0.25), (25.0, 0.35, 0.85)] {
            let mut p = plant(&config);
            p.hees.set_state(Ratio::new(soc), Ratio::new(soe));
            p.state = ThermalState::uniform(Kelvin::from_celsius(celsius));
            let n = 8;
            let cfg = MpcConfig {
                horizon: n,
                ..MpcConfig::default()
            };
            let loads: Vec<Watts> = (0..n)
                .map(|k| Watts::new(4_000.0 + 11_000.0 * (k % 3) as f64))
                .collect();
            let dt = Seconds::new(1.0);
            // Interior points only: z[k] = 0 sits exactly on the
            // converter's no-load-loss ramp kink, where central FD
            // averages two one-sided slopes and neither is the adjoint's.
            let z: Vec<f64> = (0..2 * n)
                .map(|i| {
                    if i < n {
                        0.07 * i as f64 - 0.215
                    } else {
                        0.09 * (i - n) as f64 + 0.05
                    }
                })
                .collect();

            let mut adjoint = vec![0.0; 2 * n];
            let cost = rollout_gradient_adjoint(&p, &loads, dt, &cfg, &z, &mut adjoint);
            assert_eq!(
                cost.to_bits(),
                rollout_cost(&p, &loads, dt, &cfg, &z).to_bits(),
                "taped forward pass must be bit-identical to the objective"
            );

            // Richardson-extrapolated central differences: the w2 aging
            // term's Arrhenius curvature makes plain FD at h ≈ 6e-6 carry
            // ~1e-6 relative truncation error of its own, which would
            // drown the comparison. O(h⁴) extrapolation pins the true
            // derivative well below the 1e-6 assertion.
            let fd = richardson_gradient(&z, |zz| rollout_cost(&p, &loads, dt, &cfg, zz));

            let scale = fd.iter().fold(1.0_f64, |m, g| m.max(g.abs()));
            for (i, (a, f)) in adjoint.iter().zip(fd.iter()).enumerate() {
                assert!(
                    (a - f).abs() <= 1e-6 * scale,
                    "coordinate {i} at {celsius} °C: adjoint {a:.9e} vs FD {f:.9e}"
                );
            }
        }
    }

    /// O(h⁴) Richardson-extrapolated central differences — the reference
    /// the adjoint is pinned against in tests.
    fn richardson_gradient(z: &[f64], mut f: impl FnMut(&[f64]) -> f64) -> Vec<f64> {
        let h = 1e-4;
        let mut zp = z.to_vec();
        let mut grad = vec![0.0; z.len()];
        for (i, g) in grad.iter_mut().enumerate() {
            let orig = zp[i];
            let mut central = |step: f64| {
                zp[i] = orig + step;
                let fp = f(&zp);
                zp[i] = orig - step;
                let fm = f(&zp);
                zp[i] = orig;
                (fp - fm) / (2.0 * step)
            };
            let coarse = central(h);
            let fine = central(h / 2.0);
            *g = (4.0 * fine - coarse) / 3.0;
        }
        grad
    }

    #[test]
    fn adjoint_solve_slashes_rollouts_per_solve() {
        // The whole point: an FD gradient costs 4·horizon rollouts, the
        // adjoint one. Over identical solve sequences the rollout meter
        // must drop by at least 10×.
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads: Vec<Watts> = (0..12)
            .map(|k| Watts::new(if k >= 6 { 60_000.0 } else { 5_000.0 }))
            .collect();
        let mut fd_mpc = Mpc::new(MpcConfig {
            horizon: 12,
            ..MpcConfig::default()
        });
        let mut adj_mpc = Mpc::new(MpcConfig {
            horizon: 12,
            gradient_mode: GradientMode::Adjoint,
            ..MpcConfig::default()
        });
        for _ in 0..3 {
            let a = fd_mpc.solve(&p, &loads, Seconds::new(1.0));
            let b = adj_mpc.solve(&p, &loads, Seconds::new(1.0));
            assert!(a.cap_bus.is_finite() && b.cap_bus.is_finite());
        }
        let fd = fd_mpc.rollouts() as f64;
        let adj = adj_mpc.rollouts() as f64;
        assert!(
            fd >= 10.0 * adj,
            "expected ≥10× fewer rollouts: FD {fd} vs adjoint {adj}"
        );
        // And the adjoint solve must land on a comparable optimum: both
        // controllers see the same plant, so the first moves should
        // agree to solver tolerance.
        let a = fd_mpc.solve(&p, &loads, Seconds::new(1.0));
        let b = adj_mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(
            (a.cool_duty - b.cool_duty).abs() < 0.15
                && (a.cap_bus.value() - b.cap_bus.value()).abs()
                    < 0.05 * p.cap_power_max.value().max(1.0),
            "adjoint optimum diverged: FD ({:?}, {}) vs adjoint ({:?}, {})",
            a.cap_bus,
            a.cool_duty,
            b.cap_bus,
            b.cool_duty
        );
    }

    #[test]
    fn adjoint_mode_runs_through_the_workspace_pool() {
        use otem_telemetry::MemorySink;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(30_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            gradient_mode: GradientMode::Adjoint,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        for _ in 0..2 {
            let d = mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
            assert!(d.cost.is_finite());
        }
        // One workspace, allocated on first use and then recycled (the
        // tape rides inside it).
        assert_eq!(sink.count_kind("pool_miss"), 1);
        assert!(sink.count_kind("pool_hit") > 0);
        // Telemetry keeps flowing unchanged through the same spans.
        assert!(sink.count_kind("gradient_eval") > 0);
        assert!(sink.count_kind("solver_iteration") > 0);
    }

    #[test]
    fn zero_deadline_returns_warm_start_with_deadline_outcome() {
        use otem_solver::VirtualClock;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(40_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            gradient_mode: GradientMode::Adjoint,
            ..MpcConfig::default()
        });
        mpc.set_clock(Arc::new(VirtualClock::new()));
        mpc.set_deadline_ns(Some(0));
        assert_eq!(mpc.deadline_ns(), Some(0));
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert_eq!(d.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(d.iterations, 0);
        assert!(d.cap_bus.is_finite() && d.cost.is_finite());
        assert!((0.0..=1.0).contains(&d.cool_duty));

        // Lifting the runtime cap restores the (absent) configured
        // deadline and the solver runs to tolerance again.
        mpc.set_deadline_ns(None);
        assert_eq!(mpc.deadline_ns(), None);
        let restored = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(restored.iterations > 0);
        assert_ne!(restored.outcome, SolverOutcome::DeadlineReached);
    }

    #[test]
    fn virtual_clock_deadline_solves_are_bit_identical() {
        use otem_solver::VirtualClock;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(40_000.0); 6];
        let run = || {
            let mut mpc = Mpc::new(MpcConfig {
                horizon: 6,
                gradient_mode: GradientMode::Adjoint,
                deadline_ns: Some(3),
                ..MpcConfig::default()
            });
            // One tick per clock read makes "time" a deterministic
            // function of the solver's own polling sequence.
            mpc.set_clock(Arc::new(VirtualClock::with_tick(1)));
            mpc.solve(&p, &loads, Seconds::new(1.0))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.cap_bus.value().to_bits(), b.cap_bus.value().to_bits());
        assert_eq!(a.cool_duty.to_bits(), b.cool_duty.to_bits());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn every_solve_emits_one_solve_outcome_event() {
        use otem_telemetry::MemorySink;
        let config = SystemConfig::default();
        let p = plant(&config);
        let loads = vec![Watts::new(20_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            gradient_mode: GradientMode::Adjoint,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        for _ in 0..3 {
            mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
        }
        assert_eq!(sink.count_kind("solve_outcome"), 3);
    }

    #[test]
    fn rollout_cost_penalises_shortfall() {
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.hees.set_state(Ratio::ONE, Ratio::new(0.01)); // bank empty
        let cfg = MpcConfig {
            horizon: 3,
            ..MpcConfig::default()
        };
        let loads = vec![Watts::new(20_000.0); 3];
        // Command the empty bank to serve everything: big shortfall.
        let mut z = vec![0.0; 6];
        z[0] = 0.5;
        z[1] = 0.5;
        z[2] = 0.5;
        let bad = rollout_cost(&p, &loads, Seconds::new(1.0), &cfg, &z);
        let good = rollout_cost(&p, &loads, Seconds::new(1.0), &cfg, &[0.0; 6]);
        assert!(bad > good, "shortfall not penalised: {bad} vs {good}");
    }
}
