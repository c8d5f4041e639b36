//! Reverse-mode (adjoint) gradient of the MPC rollout objective, and the
//! one rollout body every gradient mode runs.
//!
//! Finite differences price a gradient at `4·horizon + 1` rollout calls
//! (central differences over `2·horizon` coordinates), but most of them
//! are short: one checkpoint pass records the carried state before every
//! stage, and each perturbed evaluation of `z[k]` or `z[n+k]` resumes
//! there and simulates only stages `k..n` — `2n(n+1) + n` stage
//! evaluations per gradient instead of `4n²` (see [`rollout`]). The
//! adjoint method gets the same gradient from **one** rollout: a forward
//! pass records, per horizon step, the exact Jacobian of the executed
//! branch of every component model (the *tape*), and a backward sweep
//! chain-rules the stage costs and the terminal TEB penalty through that
//! tape back to the decision vector.
//!
//! # Derivation sketch
//!
//! Write the rollout as a chain of per-step maps. Step `k` consumes the
//! state `s_k = (T_b, T_c, SoC, SoE)` and the decisions
//! `(u_k, d_k) = (z[k], z[n+k])`, produces `s_{k+1}` and a stage cost
//! `ℓ_k`, and the horizon ends with the terminal tail `ℓ_N(T_b)`. The
//! adjoint `λ_k = ∂(ℓ_k + … + ℓ_N)/∂s_k` satisfies the backward
//! recursion
//!
//! ```text
//! λ_N = ∂ℓ_N/∂s_N,      λ_k = (∂s_{k+1}/∂s_k)ᵀ λ_{k+1} + ∂ℓ_k/∂s_k,
//! ∂J/∂(u_k, d_k) = (∂s_{k+1}/∂(u_k, d_k))ᵀ λ_{k+1} + ∂ℓ_k/∂(u_k, d_k),
//! ```
//!
//! where every factor is assembled from the analytic per-branch partials
//! the component crates expose: [`otem_hees::HeesStepJacobian`] for the
//! power split, [`otem_thermal::CrankNicolsonJacobian`] for the thermal
//! update, [`otem_battery::AgingParams::loss_rate_and_partials`] for the
//! wear term, and the cooling-plant slopes for the actuation chain. The
//! objective is piecewise-smooth (`relu²` penalties, per-branch clamps);
//! the sweep differentiates exactly the branch the forward pass
//! executed, so away from the measure-zero kink set the result matches
//! finite differences to roundoff.
//!
//! *On* the kink set — which the solver's all-zero cold start sits
//! squarely on — no subgradient choice is canonical, so the sweep adopts
//! the conventions a central finite difference implies: half the
//! one-sided slope where the duty clamp flattens one leg of the stencil,
//! and the mean of the one-sided slopes across the converter's
//! zero-transfer kink (see [`otem_hees::HybridHees::step_with_jacobian`]).
//! The golden traces were blessed under finite-difference gradients;
//! matching their subgradient conventions keeps both gradient modes on
//! the same closed-loop trajectory.
//!
//! The forward pass here **is** the MPC's rollout: [`rollout`] with
//! [`Record::Nothing`] is the cost evaluation
//! ([`crate::mpc::rollout_cost`] delegates to it), and with
//! [`Record::Tape`] it runs the identical arithmetic through
//! [`otem_hees::HybridHees::step_with_jacobian`] — bit-identical results
//! by construction, so taping cannot perturb the objective.

use crate::mpc::{MpcConfig, MpcPlant};
use otem_hees::{HeesSnapshot, HeesStepJacobian, HybridCommand, HybridHees};
use otem_thermal::ThermalState;
use otem_units::{Kelvin, Seconds, Watts};

/// One solve's fixed rollout inputs — the plant at the start of the
/// control window, the load forecast, the period and the tuning — plus
/// two constants derived from them once per solve: the stage-0
/// [`Checkpoint`] and the terminal tail's nominal C-rate.
pub(crate) struct Window<'a> {
    pub(crate) plant: &'a MpcPlant,
    pub(crate) loads: &'a [Watts],
    pub(crate) dt: Seconds,
    pub(crate) config: &'a MpcConfig,
    /// Where every full rollout starts: the plant's own state, nothing
    /// spent yet.
    pub(crate) start: Checkpoint,
    /// [`terminal_c_rate`] of `plant` and `loads`.
    terminal_c_rate: f64,
}

impl<'a> Window<'a> {
    pub(crate) fn new(
        plant: &'a MpcPlant,
        loads: &'a [Watts],
        dt: Seconds,
        config: &'a MpcConfig,
    ) -> Self {
        Self {
            plant,
            loads,
            dt,
            config,
            start: Checkpoint {
                stage: 0,
                hees: plant.hees.snapshot(),
                state: plant.state,
                cost: 0.0,
            },
            terminal_c_rate: terminal_c_rate(plant, loads, config.horizon),
        }
    }
}

/// The rollout's carried state just before one stage: resuming a
/// rollout here reproduces the full rollout's remaining arithmetic bit
/// for bit, because stages before `stage` read no decision at or after
/// it and the cost is one sequential `+=` fold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checkpoint {
    /// The next stage to run.
    stage: usize,
    hees: HeesSnapshot,
    state: ThermalState,
    /// Running cost of stages `0..stage`.
    cost: f64,
}

/// What a [`rollout`] writes down besides its cost. Tapes and
/// checkpoints describe a whole horizon, so recording rollouts start at
/// stage 0; both buffers are cleared first and keep their capacity.
pub(crate) enum Record<'a> {
    /// The cost alone.
    Nothing,
    /// One [`TapeStep`] per stage, for the backward sweep.
    Tape(&'a mut Vec<TapeStep>),
    /// One [`Checkpoint`] before each stage, for resumed rollouts.
    Checkpoints(&'a mut Vec<Checkpoint>),
}

/// One horizon step's forward-pass record: everything the backward sweep
/// needs to differentiate the branch that actually executed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeStep {
    /// Exact partials of the HEES power split at the executed branch.
    jac: HeesStepJacobian,
    /// Post-step battery temperature (K) — state of the stage aging cost
    /// and the soft-ceiling penalty.
    battery_post: f64,
    /// Battery per-cell C-rate of the step.
    c_rate: f64,
    /// Unserved load (W); its penalty is active iff positive.
    shortfall: f64,
    /// Post-step state of charge.
    soc_post: f64,
    /// Post-step state of energy.
    soe_post: f64,
    /// Commanded battery bus power (W) — state of the C6 penalty.
    battery_bus: f64,
    /// Cooler duty after clamping to `[0, 1]`.
    duty: f64,
    /// Achievable inlet drop `T_o − coldest(T_o)` (K).
    delta: f64,
    /// `∂coldest/∂T_o` at the outlet — branch indicator of the plant.
    dcoldest: f64,
    /// Whether the cooler drew power (`duty·Δ > 0`) — or would at any
    /// positive duty (`duty = 0`, `Δ > 0`): the branch a one-sided duty
    /// perturbation executes, which is what the duty gradient prices.
    cooler_active: bool,
    /// Chain factor of the duty clamp, matched to the central-difference
    /// subgradient convention the golden traces were blessed with: `1`
    /// strictly inside `(0, 1)`, `½` exactly *on* a bound (a central
    /// difference has one leg flattened by the clamp, halving the
    /// one-sided slope), `0` beyond the clamp.
    duty_gain: f64,
}

/// Simulates the horizon under the candidate controls `z` from the
/// checkpoint `from` and returns the Eq. 19 cost plus constraint
/// penalties — the single rollout implementation behind the MPC
/// objective, the finite-difference gradient and the adjoint forward
/// pass. `from = &window.start` is the full rollout; a checkpoint that
/// [`Record::Checkpoints`] wrote at `z` resumes at its stage and returns,
/// for any `z'` that differs from `z` only at or after that stage, the
/// full rollout's cost at `z'` bit for bit, at the price of the
/// remaining stages. The forward arithmetic is identical for every
/// [`Record`].
///
/// `hees` is rewound to the checkpoint first and left in the
/// end-of-horizon state. Allocation-free once the record buffer has
/// reached horizon capacity.
pub(crate) fn rollout(
    w: &Window,
    hees: &mut HybridHees,
    z: &[f64],
    from: &Checkpoint,
    mut record: Record,
) -> f64 {
    let n = w.config.horizon;
    debug_assert_eq!(z.len(), 2 * n);
    hees.restore(from.hees);
    let mut state = from.state;
    let mut cost = from.cost;
    match &mut record {
        Record::Nothing => {}
        Record::Tape(tape) => {
            debug_assert_eq!(from.stage, 0, "a tape covers the whole horizon");
            tape.clear();
        }
        Record::Checkpoints(checkpoints) => {
            debug_assert_eq!(from.stage, 0, "checkpoints cover the whole horizon");
            checkpoints.clear();
        }
    }

    for k in from.stage..n {
        let tape = match &mut record {
            Record::Nothing => None,
            Record::Tape(tape) => Some(&mut **tape),
            Record::Checkpoints(checkpoints) => {
                checkpoints.push(Checkpoint {
                    stage: k,
                    hees: hees.snapshot(),
                    state,
                    cost,
                });
                None
            }
        };
        state = rollout_stage(w, hees, state, z, k, &mut cost, tape);
    }

    rollout_terminal(w, state, &mut cost);
    cost
}

/// Stage `k` of the rollout: actuation chain, HEES power split, thermal
/// update, and the Eq. 19 stage cost.
///
/// Accumulates directly into the caller's `cost` (fixing the float
/// summation order) and returns the post-step thermal state. Reads only
/// the stage's own decisions `z[k]` and `z[n + k]`.
fn rollout_stage(
    w: &Window,
    hees: &mut HybridHees,
    mut state: ThermalState,
    z: &[f64],
    k: usize,
    cost: &mut f64,
    tape: Option<&mut Vec<TapeStep>>,
) -> ThermalState {
    let Window {
        plant, dt, config, ..
    } = *w;
    let load = w.loads.get(k).copied().unwrap_or(Watts::ZERO);
    let (z_cap, z_duty) = (z[k], z[config.horizon + k]);
    let dtv = dt.value();
    let cap_bus = Watts::new(z_cap * plant.cap_power_max.value());
    let duty = z_duty.clamp(0.0, 1.0);

    // Cooling actuation: duty scales the inlet drop toward the
    // coldest achievable; price it with Eq. 16.
    let outlet = state.coolant;
    let coldest = plant.plant.coldest_inlet(outlet);
    let inlet = Kelvin::new(outlet.value() - duty * (outlet.value() - coldest.value()));
    let action = plant.plant.actuate(outlet, inlet);
    // Smooth relaxation of the pump's on/off behaviour: the rollout
    // prices the pump proportionally to the duty so the objective
    // stays differentiable at duty = 0 (the applied move re-imposes
    // the real on/off gate).
    let cooling_electric = action.cooler_power + action.pump_power * duty;

    // Bus power balance pins the battery's share.
    let battery_bus = load + cooling_electric - cap_bus;
    let command = HybridCommand {
        battery_bus,
        cap_bus,
    };
    let (step, jac) = if tape.is_some() {
        hees.step_with_jacobian(command, state.battery, dt)
    } else {
        (
            hees.step(command, state.battery, dt),
            HeesStepJacobian::default(),
        )
    };

    state = plant
        .thermal
        .step_crank_nicolson(state, step.battery_heat, action.inlet, dt);

    // --- Eq. 19 terms ---------------------------------------------
    *cost += config.w1 * cooling_electric.value() * dtv;
    let loss = plant.aging.loss_rate(state.battery, step.battery_c_rate) * dtv;
    *cost += config.w2 * loss;
    *cost += config.w3 * step.hees_power().value() * dtv;

    // --- Constraint penalties ---------------------------------------
    let over_t = (state.battery.value() - config.temp_soft.value()).max(0.0);
    *cost += config.temp_penalty * over_t * over_t;

    let soc_short = (plant.soc_min.value() - hees.soc().value()).max(0.0);
    let soe_short = (plant.soe_min.value() - hees.soe().value()).max(0.0);
    *cost += config.state_penalty * (soc_short * soc_short + soe_short * soe_short);

    *cost += config.shortfall_penalty * step.shortfall.value().powi(2);

    let over_p = (battery_bus.value().abs() - plant.battery_power_max.value()).max(0.0);
    *cost += config.power_penalty * over_p * over_p;

    if let Some(t) = tape {
        t.push(TapeStep {
            jac,
            battery_post: state.battery.value(),
            c_rate: step.battery_c_rate,
            shortfall: step.shortfall.value(),
            soc_post: hees.soc().value(),
            soe_post: hees.soe().value(),
            battery_bus: battery_bus.value(),
            duty,
            delta: outlet.value() - coldest.value(),
            dcoldest: plant.plant.coldest_inlet_slope(outlet),
            cooler_active: action.cooler_power.value() > 0.0 || (duty == 0.0 && outlet > coldest),
            duty_gain: {
                let raw = z_duty;
                if raw == 0.0 || raw == 1.0 {
                    0.5
                } else if (0.0..=1.0).contains(&raw) {
                    1.0
                } else {
                    0.0
                }
            },
        });
    }
    state
}

/// Terminal cost: the horizon is far shorter than the pack's thermal
/// time constant, so value the end-of-horizon temperature as if the
/// route's stress persisted for `terminal_tail` seconds, at the
/// window's [`terminal_c_rate`]. Like [`rollout_stage`], accumulates
/// directly into the caller's `cost`.
fn rollout_terminal(w: &Window, state: ThermalState, cost: &mut f64) {
    let Window {
        plant, dt, config, ..
    } = *w;
    if config.terminal_tail > 0.0 {
        *cost += config.w2
            * plant.aging.loss_rate(state.battery, w.terminal_c_rate)
            * config.terminal_tail;
        let over_t = (state.battery.value() - config.temp_soft.value()).max(0.0);
        *cost +=
            config.temp_penalty * over_t * over_t * (config.terminal_tail / dt.value().max(1e-9));
    }
}

/// The terminal tail's nominal per-cell C-rate. It is derived from the
/// *load forecast alone* — deliberately excluding the cooling-induced
/// battery current, which would otherwise make the tail punish the very
/// cooling that lowers the terminal temperature — and the *unrolled*
/// plant, so it is a constant of the [`Window`], shared between the
/// forward cost and the backward sweep.
fn terminal_c_rate(plant: &MpcPlant, loads: &[Watts], n: usize) -> f64 {
    let mean_load: f64 = loads.iter().take(n).map(|p| p.value().abs()).sum::<f64>() / n as f64;
    let pack = plant.hees.battery();
    let pack_voltage = pack.open_circuit_voltage().value().max(1.0);
    let cell_current = mean_load / pack_voltage / pack.config().parallel as f64;
    (cell_current / pack.cell().effective_capacity().value()).max(0.2)
}

/// Backward sweep over a recorded tape: chain-rules every stage cost and
/// the terminal tail back through the thermal, HEES, and cooling-plant
/// Jacobians, writing `∂J/∂z` into `grad` (layout
/// `[cap_share_0..n-1, cool_duty_0..n-1]`). One pass, no rollouts.
pub(crate) fn adjoint_sweep(w: &Window, tape: &[TapeStep], grad: &mut [f64]) {
    let Window {
        plant, dt, config, ..
    } = *w;
    let n = tape.len();
    debug_assert_eq!(n, config.horizon);
    debug_assert_eq!(grad.len(), 2 * n);
    if n == 0 {
        return;
    }
    let dtv = dt.value();
    let jt = plant.thermal.crank_nicolson_jacobian(dt);
    let pp = plant.plant.params();
    let flow_over_eff = pp.flow_capacity.value() / pp.efficiency.value();
    let pump = pp.pump_power.value();
    let cap_max = plant.cap_power_max.value();

    // Adjoints of the *post-step* state (T_b, T_c, SoC, SoE), seeded by
    // the terminal tail (a function of the final battery temperature
    // alone — its nominal C-rate is a constant of the forecast).
    let (mut l_tb, mut l_tc, mut l_s, mut l_e) = (0.0, 0.0, 0.0, 0.0);
    if config.terminal_tail > 0.0 {
        let tb_n = tape[n - 1].battery_post;
        let (_, d_temp, _) = plant
            .aging
            .loss_rate_and_partials(Kelvin::new(tb_n), w.terminal_c_rate);
        l_tb += config.w2 * d_temp * config.terminal_tail;
        let over_t = (tb_n - config.temp_soft.value()).max(0.0);
        l_tb += 2.0 * config.temp_penalty * over_t * (config.terminal_tail / dtv.max(1e-9));
    }

    for k in (0..n).rev() {
        let t = &tape[k];
        let j = &t.jac;

        // Total adjoints of the post-step state: the incoming λ plus the
        // stage cost's own dependence on it (aging and soft penalties).
        let (_, d_loss_t, d_loss_c) = plant
            .aging
            .loss_rate_and_partials(Kelvin::new(t.battery_post), t.c_rate);
        let over_t = (t.battery_post - config.temp_soft.value()).max(0.0);
        let g_tb = l_tb + config.w2 * dtv * d_loss_t + 2.0 * config.temp_penalty * over_t;
        let g_tc = l_tc;
        let soc_short = (plant.soc_min.value() - t.soc_post).max(0.0);
        let soe_short = (plant.soe_min.value() - t.soe_post).max(0.0);
        let g_s = l_s - 2.0 * config.state_penalty * soc_short;
        let g_e = l_e - 2.0 * config.state_penalty * soe_short;

        // Adjoints of the HEES step outputs. The shortfall penalty sees
        // `sf = relu(net − delivered)`; the thermal Jacobian routes the
        // battery heat and the achieved inlet into both temperatures.
        let l_delivered = -2.0 * config.shortfall_penalty * t.shortfall;
        let l_net = 2.0 * config.shortfall_penalty * t.shortfall;
        let l_internal = config.w3 * dtv;
        let l_crate = config.w2 * dtv * d_loss_c;
        let l_heat = g_tb * jt.d_battery_heat[0] + g_tc * jt.d_battery_heat[1];
        let g_inlet = g_tb * jt.d_inlet[0] + g_tc * jt.d_inlet[1];

        // Pull the output adjoints through the HEES Jacobian onto its
        // five input columns [P_bat, P_cap, T_pre, SoC_pre, SoE_pre].
        let mut a = [0.0; 5];
        for (col, acc) in a.iter_mut().enumerate() {
            *acc = l_delivered * j.delivered[col]
                + l_internal * (j.battery_internal[col] + j.cap_internal[col])
                + l_heat * j.battery_heat[col]
                + l_crate * j.battery_c_rate[col]
                + g_s * j.soc_next[col]
                + g_e * j.soe_next[col];
        }
        let over_p = (t.battery_bus.abs() - plant.battery_power_max.value()).max(0.0);
        let a_pb = a[HeesStepJacobian::IN_BATTERY_BUS]
            + l_net
            + 2.0 * config.power_penalty * over_p * t.battery_bus.signum();
        let a_pc = a[HeesStepJacobian::IN_CAP_BUS] + l_net;

        // Decision gradients. The bus balance `P_bat = load + CE − P_cap`
        // makes the cap share push the two legs in opposite directions;
        // the duty reaches the cost through the cooling-electric power
        // (w1 term and the bus balance) and the achieved inlet.
        grad[k] = cap_max * (a_pc - a_pb);

        let a_ce = config.w1 * dtv + a_pb;
        let active = if t.cooler_active { 1.0 } else { 0.0 };
        let d_ce_d_duty = active * flow_over_eff * t.delta + pump;
        let d_inlet_d_duty = -t.delta;
        grad[n + k] = t.duty_gain * (a_ce * d_ce_d_duty + g_inlet * d_inlet_d_duty);

        // Chain to the pre-step state. The coolant temperature feeds the
        // thermal map directly *and* the actuation chain (outlet →
        // coldest → Δ → inlet, cooling power); the HEES step saw the
        // pre-step battery temperature and states of charge/energy.
        let d_inlet_d_tc = 1.0 - t.duty * (1.0 - t.dcoldest);
        let d_ce_d_tc = active * flow_over_eff * t.duty * (1.0 - t.dcoldest);
        l_tb =
            g_tb * jt.d_battery[0] + g_tc * jt.d_coolant[0] + a[HeesStepJacobian::IN_TEMPERATURE];
        l_tc = g_tb * jt.d_battery[1]
            + g_tc * jt.d_coolant[1]
            + a_ce * d_ce_d_tc
            + g_inlet * d_inlet_d_tc;
        l_s = a[HeesStepJacobian::IN_SOC];
        l_e = a[HeesStepJacobian::IN_SOE];
    }
}
