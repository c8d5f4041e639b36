//! The hybrid (DC-bus) architecture — each storage behind its own DC/DC
//! converter (\[3\]); the architecture OTEM controls.

use crate::error::HeesError;
use crate::step::HeesStep;
use otem_battery::{BatteryPack, CellParams, PackConfig, PackSnapshot, PowerDraw};
use otem_converter::DcDcConverter;
use otem_ultracap::{CapDraw, UltracapBank, UltracapParams};
use otem_units::{Farads, Kelvin, Ratio, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

/// Exact partial derivatives of one [`HybridHees::step`]: one row per
/// step output (plus the two post-step storage states), columns over the
/// step inputs `[P_bus,bat, P_bus,cap, T, SoC, SoE]` — see the `IN_*`
/// associated constants for the column order.
///
/// Produced by [`HybridHees::step_with_jacobian`]. Every row
/// differentiates exactly the branch the forward step executed
/// (converter direction, envelope clamps, peak-power fallback,
/// saturation of either coulomb counter), so the adjoint backward sweep
/// sees the same piecewise function finite differences would.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HeesStepJacobian {
    /// Bus power actually delivered.
    pub delivered: [f64; 5],
    /// Battery chemical power (`V_oc·I`).
    pub battery_internal: [f64; 5],
    /// Ultracapacitor store power (`V_cap·I_cap`).
    pub cap_internal: [f64; 5],
    /// Battery heat generation.
    pub battery_heat: [f64; 5],
    /// Battery C-rate magnitude.
    pub battery_c_rate: [f64; 5],
    /// Post-step battery state of charge.
    pub soc_next: [f64; 5],
    /// Post-step ultracapacitor state of energy.
    pub soe_next: [f64; 5],
}

impl HeesStepJacobian {
    /// Column index of the battery bus-power command.
    pub const IN_BATTERY_BUS: usize = 0;
    /// Column index of the ultracapacitor bus-power command.
    pub const IN_CAP_BUS: usize = 1;
    /// Column index of the battery temperature input.
    pub const IN_TEMPERATURE: usize = 2;
    /// Column index of the pre-step state of charge.
    pub const IN_SOC: usize = 3;
    /// Column index of the pre-step state of energy.
    pub const IN_SOE: usize = 4;
}

/// Independent bus-side power commands for the two storages.
///
/// Positive = the storage delivers power to the bus; negative = power is
/// taken off the bus into the storage (pre-charging the ultracapacitor,
/// or routing regeneration).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HybridCommand {
    /// Battery bus-side power.
    pub battery_bus: Watts,
    /// Ultracapacitor bus-side power.
    pub cap_bus: Watts,
}

impl HybridCommand {
    /// Net power the command puts on the bus.
    pub fn net(&self) -> Watts {
        self.battery_bus + self.cap_bus
    }
}

/// Battery and ultracapacitor on a common DC bus through converters.
///
/// The controller (OTEM's MPC, or any policy) commands bus-side power for
/// each storage independently. Conversion losses depend on each
/// storage's voltage — the ultracapacitor's converter efficiency sags
/// with √SoE, which is exactly the coupling OTEM's cost function prices.
///
/// # Examples
///
/// ```
/// use otem_hees::{HybridCommand, HybridHees};
/// use otem_units::{Farads, Kelvin, Ratio, Seconds, Watts};
///
/// # fn main() -> Result<(), otem_hees::HeesError> {
/// let mut hees = HybridHees::ev_default(Farads::new(25_000.0))?;
/// hees.set_state(Ratio::ONE, Ratio::from_percent(60.0));
/// // Serve 20 kW from the battery while pre-charging the cap with 5 kW:
/// let step = hees.step(
///     HybridCommand {
///         battery_bus: Watts::new(25_000.0),
///         cap_bus: Watts::new(-5_000.0),
///     },
///     Kelvin::from_celsius(25.0),
///     Seconds::new(1.0),
/// );
/// assert!(step.converter_loss.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridHees {
    battery: BatteryPack,
    cap: UltracapBank,
    battery_converter: DcDcConverter,
    cap_converter: DcDcConverter,
}

/// Point-in-time copy of a [`HybridHees`]'s mutable state.
///
/// [`HybridHees::step`] mutates only the battery's coulomb counter and
/// the ultracapacitor's state of energy; converters and all parameters
/// are immutable. This `Copy` struct therefore captures the whole plant
/// state, letting speculative rollouts run
/// [`HybridHees::snapshot`] → mutate → [`HybridHees::restore`] on one
/// long-lived plant instead of deep-cloning the plant per evaluation —
/// the MPC's gradient loop does exactly this thousands of times per
/// solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeesSnapshot {
    battery: PackSnapshot,
    soe: Ratio,
}

impl HybridHees {
    /// Builds the paper's EV configuration: Tesla-S-like pack and a
    /// native-voltage (16 V rated) bank of the given capacitance behind
    /// their converters.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when any component's parameters fail
    /// validation.
    pub fn ev_default(capacitance: Farads) -> Result<Self, HeesError> {
        let battery = BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like())?;
        Self::new(
            battery,
            UltracapParams::paper_bank(capacitance),
            DcDcConverter::battery_side(),
            DcDcConverter::ultracap_side(),
        )
    }

    /// Builds from explicit components.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when the bank or converter parameters fail
    /// validation.
    pub fn new(
        battery: BatteryPack,
        cap_params: UltracapParams,
        battery_converter: DcDcConverter,
        cap_converter: DcDcConverter,
    ) -> Result<Self, HeesError> {
        battery_converter.validate()?;
        cap_converter.validate()?;
        Ok(Self {
            battery,
            cap: UltracapBank::new(cap_params)?,
            battery_converter,
            cap_converter,
        })
    }

    /// The battery pack.
    pub fn battery(&self) -> &BatteryPack {
        &self.battery
    }

    /// The ultracapacitor bank.
    pub fn cap(&self) -> &UltracapBank {
        &self.cap
    }

    /// The battery-side converter.
    pub fn battery_converter(&self) -> &DcDcConverter {
        &self.battery_converter
    }

    /// The ultracapacitor-side converter.
    pub fn cap_converter(&self) -> &DcDcConverter {
        &self.cap_converter
    }

    /// Battery state of charge.
    pub fn soc(&self) -> Ratio {
        self.battery.soc()
    }

    /// Ultracapacitor state of energy.
    pub fn soe(&self) -> Ratio {
        self.cap.soe()
    }

    /// Sets initial conditions.
    pub fn set_state(&mut self, soc: Ratio, soe: Ratio) {
        self.battery.set_soc(soc);
        self.cap.set_soe(soe);
    }

    /// Captures the plant's mutable state for a later
    /// [`HybridHees::restore`]. Never allocates.
    pub fn snapshot(&self) -> HeesSnapshot {
        HeesSnapshot {
            battery: self.battery.snapshot(),
            soe: self.cap.soe(),
        }
    }

    /// Rewinds the plant to a previously captured [`HeesSnapshot`].
    /// Never allocates.
    pub fn restore(&mut self, snapshot: HeesSnapshot) {
        self.battery.restore(snapshot.battery);
        self.cap.set_soe(snapshot.soe);
    }

    /// Largest bus-side power the battery path can deliver right now.
    pub fn battery_bus_limit(&self, temperature: Kelvin) -> Watts {
        let at = self.battery.electrical(temperature);
        let storage_peak = self.battery.max_discharge_power_at(&at);
        // Conversion shrinks what arrives on the bus; approximate with
        // the efficiency at the peak.
        let v = at.voc;
        match self.battery_converter.efficiency(storage_peak, v) {
            Ok(eta) => storage_peak * eta,
            Err(_) => Watts::ZERO,
        }
    }

    /// Largest bus-side power the ultracapacitor path can deliver right
    /// now.
    pub fn cap_bus_limit(&self) -> Watts {
        let storage_peak = self.cap.max_discharge_power();
        match self
            .cap_converter
            .efficiency(storage_peak, self.cap.voltage())
        {
            Ok(eta) => storage_peak * eta,
            Err(_) => Watts::ZERO,
        }
    }

    /// Executes one control period. Each leg clamps independently to its
    /// feasibility envelope; the clamped remainder shows up as
    /// [`HeesStep::shortfall`] relative to the commanded net.
    pub fn step(&mut self, command: HybridCommand, temperature: Kelvin, dt: Seconds) -> HeesStep {
        self.step_impl(command, temperature, dt, None)
    }

    /// [`HybridHees::step`] plus the exact partial derivatives of every
    /// output in the step inputs.
    ///
    /// The forward dynamics are the *same code path* as
    /// [`HybridHees::step`] — results are bit-identical — with pure
    /// derivative reads layered onto whichever branches execute. One
    /// call per horizon step is what lets the MPC adjoint replace the
    /// `O(horizon²)` plant steps of a finite-difference gradient
    /// (`2·horizon·(horizon + 1) + horizon` even with checkpointed
    /// prefixes) with one taped rollout.
    pub fn step_with_jacobian(
        &mut self,
        command: HybridCommand,
        temperature: Kelvin,
        dt: Seconds,
    ) -> (HeesStep, HeesStepJacobian) {
        let mut jac = HeesStepJacobian::default();
        let step = self.step_impl(command, temperature, dt, Some(&mut jac));
        (step, jac)
    }

    /// Shared single-step implementation. When `jac` is provided, the
    /// executed branch of each leg additionally records its partial
    /// derivatives; all forward arithmetic is identical either way.
    fn step_impl(
        &mut self,
        command: HybridCommand,
        temperature: Kelvin,
        dt: Seconds,
        mut jac: Option<&mut HeesStepJacobian>,
    ) -> HeesStep {
        if let Some(j) = jac.as_deref_mut() {
            // A leg that errors out leaves its storage untouched: the
            // state rows default to the identity and are overwritten by
            // whichever legs actually integrate.
            *j = HeesStepJacobian::default();
            j.soc_next[HeesStepJacobian::IN_SOC] = 1.0;
            j.soe_next[HeesStepJacobian::IN_SOE] = 1.0;
        }
        let mut converter_loss = Watts::ZERO;
        let mut delivered = Watts::ZERO;

        // --- Battery leg -------------------------------------------------
        let (bat_internal, bat_heat, bat_c_rate) = {
            let bus = command.battery_bus;
            let at = self.battery.electrical(temperature);
            let v = at.voc;
            let storage_request = if bus.value() >= 0.0 {
                self.battery_converter.input_for_output(bus, v)
            } else {
                self.battery_converter.output_for_input(bus, v)
            };
            match storage_request {
                Ok(storage_power) => {
                    match self.battery.draw_power_clamped_at(&at, storage_power) {
                        Ok(d) => {
                            // Bus power actually achieved on this leg (a
                            // pure function of the resolved draw — safe
                            // to price before integrating).
                            let bus_got = if d.terminal_power == storage_power {
                                bus
                            } else if bus.value() >= 0.0 {
                                // Re-map the clamped storage power to bus.
                                self.battery_converter
                                    .output_for_input(d.terminal_power, v)
                                    .unwrap_or(Watts::ZERO)
                            } else {
                                bus
                            };
                            if let Some(j) = jac.as_deref_mut() {
                                self.battery_leg_jacobian(
                                    j,
                                    bus,
                                    v,
                                    storage_power,
                                    &d,
                                    temperature,
                                    dt,
                                );
                            }
                            self.battery.integrate(d, dt);
                            if let Some(j) = jac.as_deref_mut() {
                                // A saturated coulomb counter is flat in
                                // every input.
                                let post = self.battery.soc().value();
                                let i = d.current.value();
                                if (post == 0.0 && i > 0.0) || (post == 1.0 && i < 0.0) {
                                    j.soc_next = [0.0; 5];
                                }
                            }
                            delivered += bus_got;
                            converter_loss += (d.terminal_power - bus_got).abs();
                            (d.internal_power, d.heat, d.c_rate)
                        }
                        Err(_) => (Watts::ZERO, Watts::ZERO, 0.0),
                    }
                }
                Err(_) => (Watts::ZERO, Watts::ZERO, 0.0),
            }
        };

        // --- Ultracapacitor leg ------------------------------------------
        let cap_internal = {
            let bus = command.cap_bus;
            let v = self.cap.voltage();
            let storage_request = if bus.value() >= 0.0 {
                self.cap_converter.input_for_output(bus, v)
            } else {
                self.cap_converter.output_for_input(bus, v)
            };
            match storage_request {
                Ok(storage_power) => {
                    // Clamp into the bank's envelope.
                    let clamped = Watts::new(storage_power.value().clamp(
                        -self.cap.max_charge_power().value(),
                        self.cap.max_discharge_power().value(),
                    ));
                    match self.cap.draw_power(clamped) {
                        Ok(d) => {
                            let bus_got = if clamped == storage_power {
                                bus
                            } else if bus.value() >= 0.0 {
                                self.cap_converter
                                    .output_for_input(clamped, v)
                                    .unwrap_or(Watts::ZERO)
                            } else {
                                // Charge leg clamped: less is taken off the
                                // bus than commanded.
                                self.cap_converter
                                    .input_for_output(clamped, v)
                                    .unwrap_or(Watts::ZERO)
                            };
                            if let Some(j) = jac.as_deref_mut() {
                                self.cap_leg_jacobian(
                                    j,
                                    bus,
                                    v,
                                    storage_power,
                                    clamped,
                                    bus_got,
                                    &d,
                                    dt,
                                );
                            }
                            self.cap.integrate(d, dt);
                            if let Some(j) = jac {
                                let post = self.cap.soe().value();
                                if post == 0.0 || post == 1.0 {
                                    j.soe_next = [0.0; 5];
                                }
                            }
                            delivered += bus_got;
                            converter_loss += (d.terminal_power - bus_got).abs();
                            d.internal_power
                        }
                        Err(_) => Watts::ZERO,
                    }
                }
                Err(_) => Watts::ZERO,
            }
        };

        let net = command.net();
        HeesStep {
            delivered,
            shortfall: Watts::new((net.value() - delivered.value()).max(0.0)),
            battery_internal: bat_internal,
            cap_internal,
            battery_heat: bat_heat,
            battery_c_rate: bat_c_rate,
            converter_loss,
        }
    }

    /// Records the battery leg's partial derivatives for the branch the
    /// forward pass executed. Must run *before* `integrate` (the draw
    /// partials differentiate at the pre-step state of charge).
    #[allow(clippy::too_many_arguments)]
    fn battery_leg_jacobian(
        &self,
        j: &mut HeesStepJacobian,
        bus: Watts,
        v: Volts,
        storage_power: Watts,
        d: &PowerDraw,
        temperature: Kelvin,
        dt: Seconds,
    ) {
        const PB: usize = HeesStepJacobian::IN_BATTERY_BUS;
        const T: usize = HeesStepJacobian::IN_TEMPERATURE;
        const SOC: usize = HeesStepJacobian::IN_SOC;
        let Some(dp) = self.battery.draw_partials(d.terminal_power, temperature) else {
            return;
        };
        let dv_dsoc = self.battery.open_circuit_voltage_slope();
        let nominal = d.terminal_power == storage_power;
        // Sensitivities of the storage power actually drawn, over
        // [∂/∂P_bus, ∂/∂SoC, ∂/∂T].
        let (p_pb, p_soc, p_t) = if nominal {
            if bus.value() == 0.0 {
                // Exactly zero transfer sits on the converter's |P| kink,
                // where a central finite difference measures the *mean*
                // of the two one-sided slopes. The adjoint adopts that
                // subgradient convention so both MPC gradient modes walk
                // the same solve path (the golden traces were blessed
                // with central differences). The voltage chain vanishes
                // in the limit from either side.
                let (g_dis, g_chg) = self.battery_converter.zero_transfer_gain_limits(v);
                (0.5 * (g_dis + g_chg), 0.0, 0.0)
            } else {
                let (g_bus, g_v) = if bus.value() >= 0.0 {
                    match self
                        .battery_converter
                        .input_for_output_partials(storage_power, v)
                    {
                        Some(g) => g,
                        None => return,
                    }
                } else {
                    self.battery_converter.output_for_input_partials(bus, v)
                };
                // The converter voltage is the OCV, a function of SoC alone.
                (g_bus, g_v * dv_dsoc, 0.0)
            }
        } else {
            // Fallback drew 99.9 % of the SoC/temperature-dependent peak;
            // the bus command no longer reaches the pack.
            let (dpk_soc, dpk_t) = self.battery.max_discharge_power_partials(temperature);
            (0.0, 0.999 * dpk_soc, 0.999 * dpk_t)
        };
        let chain = |row: [f64; 3]| -> [f64; 3] {
            [
                row[0] * p_pb,
                row[1] + row[0] * p_soc,
                row[2] + row[0] * p_t,
            ]
        };
        let internal = chain(dp.internal_power);
        let heat = chain(dp.heat);
        let c_rate = chain(dp.c_rate);
        let current = chain(dp.current);
        j.battery_internal[PB] = internal[0];
        j.battery_internal[SOC] = internal[1];
        j.battery_internal[T] = internal[2];
        j.battery_heat[PB] = heat[0];
        j.battery_heat[SOC] = heat[1];
        j.battery_heat[T] = heat[2];
        j.battery_c_rate[PB] = c_rate[0];
        j.battery_c_rate[SOC] = c_rate[1];
        j.battery_c_rate[T] = c_rate[2];
        if nominal && bus.value() == 0.0 {
            // The C-rate magnitude has its own kink at zero current: the
            // one-sided row slopes ±∂I/∂P cancel in the mean (the pack
            // partials report zero there), but each pairs with a
            // *different* converter gain, leaving the central-difference
            // mean of the products ½(g₊·s − g₋·s) = ½(g₊ − g₋)·s.
            let (g_dis, g_chg) = self.battery_converter.zero_transfer_gain_limits(v);
            let dcr_di = 1.0
                / (self.battery.config().parallel as f64
                    * self.battery.cell().effective_capacity().value());
            j.battery_c_rate[PB] = 0.5 * (g_dis - g_chg) * dp.current[0] * dcr_di;
        }
        // SoC⁺ = SoC − I_pack·dt/(parallel·Q_cell); saturation is zeroed
        // by the caller after integrating.
        let scale = dt.value() * self.battery.soc_per_amp_second();
        j.soc_next[PB] = -scale * current[0];
        j.soc_next[SOC] = 1.0 - scale * current[1];
        j.soc_next[T] = -scale * current[2];
        if nominal || bus.value() < 0.0 {
            // The commanded bus power was met exactly.
            j.delivered[PB] += 1.0;
        } else {
            // Clamped discharge: delivered = forward-map of the peak draw.
            let (f_p, f_v) = self
                .battery_converter
                .output_for_input_partials(d.terminal_power, v);
            j.delivered[SOC] += f_p * p_soc + f_v * dv_dsoc;
            j.delivered[T] += f_p * p_t;
        }
    }

    /// Records the ultracapacitor leg's partial derivatives for the
    /// branch the forward pass executed. Must run *before* `integrate`.
    #[allow(clippy::too_many_arguments)]
    fn cap_leg_jacobian(
        &self,
        j: &mut HeesStepJacobian,
        bus: Watts,
        v: Volts,
        storage_power: Watts,
        clamped: Watts,
        bus_got: Watts,
        d: &CapDraw,
        dt: Seconds,
    ) {
        const PC: usize = HeesStepJacobian::IN_CAP_BUS;
        const SOE: usize = HeesStepJacobian::IN_SOE;
        let Some(dp) = self.cap.draw_partials(d.terminal_power) else {
            return;
        };
        let dv_dsoe = self.cap.voltage_slope();
        let nominal = clamped == storage_power;
        // Sensitivities of the clamped storage power, over
        // [∂/∂P_bus, ∂/∂SoE].
        let (p_pc, p_soe) = if nominal {
            if bus.value() == 0.0 {
                // Zero transfer is the converter's |P| kink; use the
                // central-difference mean of the one-sided slopes (see
                // the battery leg) so the adjoint agrees with the FD
                // gradients the golden traces were blessed with. The
                // bank's own partials are smooth across zero current.
                let (g_dis, g_chg) = self.cap_converter.zero_transfer_gain_limits(v);
                (0.5 * (g_dis + g_chg), 0.0)
            } else {
                let (g_bus, g_v) = if bus.value() >= 0.0 {
                    match self
                        .cap_converter
                        .input_for_output_partials(storage_power, v)
                    {
                        Some(g) => g,
                        None => return,
                    }
                } else {
                    self.cap_converter.output_for_input_partials(bus, v)
                };
                (g_bus, g_v * dv_dsoe)
            }
        } else if storage_power.value() > 0.0 {
            // Discharge pinned to the envelope: follows the limit's own
            // SoE slope, flat in the command.
            (0.0, self.cap.discharge_limit_slope())
        } else {
            // Charge pinned to −max_charge.
            (0.0, -self.cap.charge_limit_slope())
        };
        let internal = [
            dp.internal_power[0] * p_pc,
            dp.internal_power[1] + dp.internal_power[0] * p_soe,
        ];
        j.cap_internal[PC] = internal[0];
        j.cap_internal[SOE] = internal[1];
        // SoE⁺ = (SoE − P_int·dt/E_cap)·leak; saturation is zeroed by the
        // caller after integrating.
        let e_cap = self.cap.params().energy_capacity().value();
        let leak = (-dt.value() / self.cap.params().leakage_time_constant).exp();
        j.soe_next[PC] = -leak * dt.value() / e_cap * internal[0];
        j.soe_next[SOE] = leak * (1.0 - dt.value() / e_cap * internal[1]);
        if nominal {
            j.delivered[PC] += 1.0;
        } else if bus.value() >= 0.0 {
            // Clamped discharge: delivered = forward-map of the envelope
            // limit.
            let (f_p, f_v) = self.cap_converter.output_for_input_partials(clamped, v);
            j.delivered[SOE] += f_p * p_soe + f_v * dv_dsoe;
        } else if let Some((g2_p, g2_v)) = self.cap_converter.input_for_output_partials(bus_got, v)
        {
            // Clamped charge: delivered = inverse-map of the envelope
            // limit (how much bus power the clamped charge absorbs).
            j.delivered[SOE] += g2_p * p_soe + g2_v * dv_dsoe;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> Kelvin {
        Kelvin::from_celsius(25.0)
    }

    fn hees() -> HybridHees {
        HybridHees::ev_default(Farads::new(25_000.0)).expect("valid")
    }

    #[test]
    fn split_command_draws_both_storages() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(20_000.0),
                cap_bus: Watts::new(10_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        assert!(step.battery_internal.value() > 20_000.0); // + conversion + joule
        assert!(step.cap_internal.value() > 10_000.0);
        assert!(step.converter_loss.value() > 0.0);
        assert!((step.delivered.value() - 30_000.0).abs() < 1.0);
        assert_eq!(step.shortfall, Watts::ZERO);
    }

    #[test]
    fn precharge_moves_energy_battery_to_cap() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.4));
        let soe0 = h.soe();
        let soc0 = h.soc();
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(8_000.0),
                cap_bus: Watts::new(-8_000.0),
            },
            room(),
            Seconds::new(10.0),
        );
        assert!(h.soe() > soe0, "cap charged");
        assert!(h.soc() < soc0, "battery paid for it");
        assert!(step.cap_internal.value() < 0.0);
        // Net bus power ≈ 0 (all internal transfer).
        assert!(step.delivered.value().abs() < 100.0);
    }

    #[test]
    fn conversion_loss_grows_as_cap_sags() {
        let mut high = hees();
        high.set_state(Ratio::ONE, Ratio::new(0.95));
        let mut low = hees();
        low.set_state(Ratio::ONE, Ratio::new(0.25));
        let cmd = HybridCommand {
            battery_bus: Watts::ZERO,
            cap_bus: Watts::new(12_000.0),
        };
        let a = high.step(cmd, room(), Seconds::new(1.0));
        let b = low.step(cmd, room(), Seconds::new(1.0));
        assert!(
            b.converter_loss > a.converter_loss,
            "sagged bank {:?} vs full {:?}",
            b.converter_loss,
            a.converter_loss
        );
    }

    #[test]
    fn regen_routed_to_cap_charges_it() {
        let mut h = hees();
        h.set_state(Ratio::new(0.8), Ratio::new(0.5));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(-20_000.0),
            },
            room(),
            Seconds::new(5.0),
        );
        assert!(h.soe() > Ratio::new(0.5));
        assert!(step.cap_internal.value() < 0.0);
    }

    #[test]
    fn depleted_cap_cannot_deliver() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.002));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(15_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        assert!(step.shortfall.value() > 10_000.0);
    }

    #[test]
    fn battery_rests_when_cap_serves() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.9));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(15_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        assert_eq!(step.battery_heat, Watts::ZERO);
        assert_eq!(step.battery_c_rate, 0.0);
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut h = hees();
        h.set_state(Ratio::new(0.85), Ratio::new(0.6));
        let saved = h.snapshot();
        let reference = h.clone();
        h.step(
            HybridCommand {
                battery_bus: Watts::new(30_000.0),
                cap_bus: Watts::new(-5_000.0),
            },
            room(),
            Seconds::new(30.0),
        );
        assert_ne!(h, reference);
        h.restore(saved);
        // Bit-exact rewind: a restored plant is indistinguishable from one
        // that never stepped, so speculative rollouts can reuse it freely.
        assert_eq!(h, reference);
    }

    #[test]
    fn step_with_jacobian_forward_results_are_bit_identical() {
        let commands = [
            (20_000.0, 10_000.0),
            (8_000.0, -8_000.0),
            (0.0, 15_000.0),
            (-12_000.0, 0.0),
            (30_000.0, 95_000.0), // cap leg clamps at the power limit
        ];
        for (pb, pc) in commands {
            let mut plain = hees();
            plain.set_state(Ratio::new(0.85), Ratio::new(0.6));
            let mut traced = plain.clone();
            let cmd = HybridCommand {
                battery_bus: Watts::new(pb),
                cap_bus: Watts::new(pc),
            };
            let a = plain.step(cmd, room(), Seconds::new(1.0));
            let (b, _) = traced.step_with_jacobian(cmd, room(), Seconds::new(1.0));
            assert_eq!(a, b, "forward results diverged for ({pb}, {pc})");
            assert_eq!(plain, traced, "post-step states diverged");
        }
    }

    /// Central differences of every jacobian row at one operating point.
    fn fd_check(mut make: impl FnMut() -> HybridHees, cmd: HybridCommand, label: &str) {
        let dt = Seconds::new(1.0);
        let outputs = |h: &mut HybridHees, cmd: HybridCommand, temp: Kelvin| -> [f64; 7] {
            let s = h.step(cmd, temp, dt);
            [
                s.delivered.value(),
                s.battery_internal.value(),
                s.cap_internal.value(),
                s.battery_heat.value(),
                s.battery_c_rate,
                h.soc().value(),
                h.soe().value(),
            ]
        };
        let mut base = make();
        let (_, jac) = base.step_with_jacobian(cmd, room(), dt);
        let rows: [(&str, [f64; 5]); 7] = [
            ("delivered", jac.delivered),
            ("battery_internal", jac.battery_internal),
            ("cap_internal", jac.cap_internal),
            ("battery_heat", jac.battery_heat),
            ("battery_c_rate", jac.battery_c_rate),
            ("soc_next", jac.soc_next),
            ("soe_next", jac.soe_next),
        ];
        // One column at a time: perturb the input, roll a fresh plant.
        let h_p = 1.0;
        let h_t = 1e-4;
        let h_s = 1e-7;
        for col in 0..5 {
            let mut plus = make();
            let mut minus = make();
            let (cmd_p, cmd_m, t_p, t_m) = match col {
                HeesStepJacobian::IN_BATTERY_BUS => (
                    HybridCommand {
                        battery_bus: cmd.battery_bus + Watts::new(h_p),
                        ..cmd
                    },
                    HybridCommand {
                        battery_bus: cmd.battery_bus - Watts::new(h_p),
                        ..cmd
                    },
                    room(),
                    room(),
                ),
                HeesStepJacobian::IN_CAP_BUS => (
                    HybridCommand {
                        cap_bus: cmd.cap_bus + Watts::new(h_p),
                        ..cmd
                    },
                    HybridCommand {
                        cap_bus: cmd.cap_bus - Watts::new(h_p),
                        ..cmd
                    },
                    room(),
                    room(),
                ),
                HeesStepJacobian::IN_TEMPERATURE => (
                    cmd,
                    cmd,
                    Kelvin::new(room().value() + h_t),
                    Kelvin::new(room().value() - h_t),
                ),
                HeesStepJacobian::IN_SOC => {
                    let soc = plus.soc().value();
                    plus.set_state(Ratio::new(soc + h_s), plus.soe());
                    minus.set_state(Ratio::new(soc - h_s), minus.soe());
                    (cmd, cmd, room(), room())
                }
                _ => {
                    let soe = plus.soe().value();
                    plus.set_state(plus.soc(), Ratio::new(soe + h_s));
                    minus.set_state(minus.soc(), Ratio::new(soe - h_s));
                    (cmd, cmd, room(), room())
                }
            };
            let step = match col {
                HeesStepJacobian::IN_BATTERY_BUS | HeesStepJacobian::IN_CAP_BUS => h_p,
                HeesStepJacobian::IN_TEMPERATURE => h_t,
                _ => h_s,
            };
            let up = outputs(&mut plus, cmd_p, t_p);
            let down = outputs(&mut minus, cmd_m, t_m);
            for (row_idx, (name, analytic)) in rows.iter().enumerate() {
                let fd = (up[row_idx] - down[row_idx]) / (2.0 * step);
                let scale = analytic[col].abs().max(fd.abs());
                // The converter fixed point converges to 1e-9 relative
                // tolerance; the FD baseline inherits that noise.
                let tol = 1e-3 * scale.max(1e-6);
                assert!(
                    (analytic[col] - fd).abs() <= tol,
                    "{label}: {name}[{col}] analytic {} vs FD {fd}",
                    analytic[col]
                );
            }
        }
    }

    #[test]
    fn jacobian_matches_finite_differences_nominal_split() {
        fd_check(
            || {
                let mut h = hees();
                h.set_state(Ratio::new(0.85), Ratio::new(0.6));
                h
            },
            HybridCommand {
                battery_bus: Watts::new(20_000.0),
                cap_bus: Watts::new(8_000.0),
            },
            "nominal discharge split",
        );
    }

    #[test]
    fn jacobian_matches_finite_differences_precharge() {
        fd_check(
            || {
                let mut h = hees();
                h.set_state(Ratio::new(0.7), Ratio::new(0.35));
                h
            },
            HybridCommand {
                battery_bus: Watts::new(10_000.0),
                cap_bus: Watts::new(-6_000.0),
            },
            "battery-to-cap precharge",
        );
    }

    #[test]
    fn jacobian_matches_finite_differences_cap_energy_clamped() {
        // SoE 0.02 → depletion guard ≈ 64 kW < the 90 kW rating: the
        // discharge clamp is energy-limited, so delivered power inherits
        // the E_cap slope in SoE.
        fd_check(
            || {
                let mut h = hees();
                h.set_state(Ratio::new(0.85), Ratio::new(0.02));
                h
            },
            HybridCommand {
                battery_bus: Watts::new(5_000.0),
                cap_bus: Watts::new(70_000.0),
            },
            "cap clamped at depletion guard",
        );
    }

    #[test]
    fn bus_limits_are_positive_and_ordered() {
        let h = hees();
        assert!(h.battery_bus_limit(room()).value() > 100_000.0);
        assert!(h.cap_bus_limit().value() > 10_000.0);
        let mut depleted = hees();
        depleted.set_state(Ratio::ONE, Ratio::new(0.01));
        assert!(depleted.cap_bus_limit() < h.cap_bus_limit());
    }
}
