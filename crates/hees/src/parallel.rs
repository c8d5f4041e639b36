//! The hard-wired parallel architecture (paper Eq. 10–13, after Shin et
//! al. DATE'11 \[15\]).

use crate::error::HeesError;
use crate::pack_domain_bank;
use crate::step::HeesStep;
use otem_battery::{BatteryPack, CellParams, PackConfig};
use otem_ultracap::{UltracapBank, UltracapParams};
use otem_units::{Amps, Farads, Kelvin, Ratio, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Battery and ultracapacitor permanently wired in parallel.
///
/// Nobody commands the split: solving the circuit (Eq. 10–13) determines
/// how the load divides between the storages, and whenever their
/// open-circuit voltages differ an equalisation current flows even at
/// zero load. The ultracapacitor bank lives in the battery's voltage
/// domain (see [`pack_domain_bank`]).
///
/// # Examples
///
/// ```
/// use otem_hees::ParallelHees;
/// use otem_units::{Farads, Kelvin, Seconds, Watts};
///
/// # fn main() -> Result<(), otem_hees::HeesError> {
/// let mut hees = ParallelHees::ev_default(Farads::new(25_000.0))?;
/// let step = hees.step(Watts::new(30_000.0), Kelvin::from_celsius(25.0), Seconds::new(1.0));
/// assert!(step.delivered.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelHees {
    battery: BatteryPack,
    cap: UltracapBank,
    /// Effective wiring/ESR resistance on the ultracapacitor branch (Ω);
    /// keeps the equalisation current finite.
    branch_resistance: f64,
}

impl ParallelHees {
    /// Builds the paper's EV configuration: Tesla-S-like pack plus a
    /// pack-domain ultracapacitor bank carrying the given cell-referenced
    /// capacitance label.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when either storage's parameters fail
    /// validation.
    pub fn ev_default(capacitance_label: Farads) -> Result<Self, HeesError> {
        let battery = BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like())?;
        let rated = battery.open_circuit_voltage(); // full-charge voltage
        let params = pack_domain_bank(capacitance_label, rated);
        Self::new(battery, params)
    }

    /// Builds from explicit components. The bank's rated voltage should
    /// sit in the battery's voltage domain.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when the bank parameters fail validation.
    pub fn new(battery: BatteryPack, cap_params: UltracapParams) -> Result<Self, HeesError> {
        let cap = UltracapBank::new(cap_params)?;
        Ok(Self {
            battery,
            cap,
            branch_resistance: 0.02,
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

    /// Solves the parallel circuit for one control period and applies
    /// the resulting currents.
    ///
    /// Solves Eq. 10–13 for the bus voltage `V_l`:
    /// `G·V_l² − S·V_l + P = 0` with `G = 1/R_b + 1/R_c` and
    /// `S = V_b/R_b + V_c/R_c`, then branch currents follow. When the
    /// load exceeds the circuit's peak power the delivered power is
    /// clamped and the rest is reported as [`HeesStep::shortfall`].
    pub fn step(&mut self, load: Watts, temperature: Kelvin, dt: Seconds) -> HeesStep {
        let at = self.battery.electrical(temperature);
        let v_b = at.voc.value();
        let r_b = at.resistance.value();
        let v_c = self.cap.voltage().value();
        let r_c = self.branch_resistance;

        let g = 1.0 / r_b + 1.0 / r_c;
        let s = v_b / r_b + v_c / r_c;
        let p_peak = s * s / (4.0 * g);
        let p = load.value().min(p_peak * 0.999);

        // Root near the open-circuit voltage (stable branch).
        let v_l = (s + (s * s - 4.0 * g * p).sqrt()) / (2.0 * g);
        let i_b = (v_b - v_l) / r_b;
        let i_c = (v_c - v_l) / r_c;

        // Apply to the battery.
        let (heat, c_rate) = self.battery.heat_and_c_rate_at(&at, Amps::new(i_b));
        self.battery.cell_integrate(Amps::new(i_b), dt);

        // Apply to the ultracapacitor: its store sees V_c·I_c.
        let cap_internal = Watts::new(v_c * i_c);
        self.cap.force_integrate(cap_internal, dt);

        HeesStep {
            delivered: Watts::new(p),
            shortfall: Watts::new((load.value() - p).max(0.0)),
            battery_internal: Watts::new(v_b * i_b),
            cap_internal,
            battery_heat: heat,
            battery_c_rate: c_rate,
            converter_loss: Watts::ZERO,
        }
    }
}

/// Private integration helpers that bypass the feasibility guards — the
/// circuit solve above already guarantees consistency.
trait ForceIntegrate {
    fn force_integrate(&mut self, internal_power: Watts, dt: Seconds);
}

impl ForceIntegrate for UltracapBank {
    fn force_integrate(&mut self, internal_power: Watts, dt: Seconds) {
        let e_cap = self.params().energy_capacity().value();
        let delta = internal_power.value() * dt.value() / e_cap;
        let soe = self.soe().value() - delta;
        self.set_soe(Ratio::new(soe));
    }
}

trait CellIntegrate {
    fn cell_integrate(&mut self, pack_current: Amps, dt: Seconds);
}

impl CellIntegrate for BatteryPack {
    fn cell_integrate(&mut self, pack_current: Amps, dt: Seconds) {
        let per_cell = pack_current / self.config().parallel as f64;
        let cap_c = self.cell().params().capacity.to_coulombs().value();
        let delta = per_cell.value() * dt.value() / cap_c;
        let soc = self.soc().value() - delta;
        self.set_soc(Ratio::new(soc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> Kelvin {
        Kelvin::from_celsius(25.0)
    }

    fn hees() -> ParallelHees {
        ParallelHees::ev_default(Farads::new(25_000.0)).expect("valid")
    }

    #[test]
    fn load_splits_between_storages() {
        let mut h = hees();
        // Start the cap below the battery voltage so both discharge.
        h.set_state(Ratio::ONE, Ratio::new(0.95));
        let step = h.step(Watts::new(60_000.0), room(), Seconds::new(1.0));
        assert!(step.delivered.value() > 59_000.0);
        assert!(step.battery_internal.value() > 0.0);
        assert_eq!(step.converter_loss, Watts::ZERO);
    }

    #[test]
    fn equalisation_flows_at_zero_load() {
        let mut h = hees();
        // Cap well below battery voltage: battery charges it through the
        // branch resistance even with no load.
        h.set_state(Ratio::ONE, Ratio::new(0.5));
        let step = h.step(Watts::ZERO, room(), Seconds::new(1.0));
        assert!(step.battery_internal.value() > 0.0, "battery discharges");
        assert!(step.cap_internal.value() < 0.0, "cap charges");
        assert!(h.soe() > Ratio::new(0.5));
    }

    #[test]
    fn regeneration_charges_both() {
        let mut h = hees();
        h.set_state(Ratio::new(0.7), Ratio::new(0.7));
        let soc0 = h.soc();
        let soe0 = h.soe();
        let step = h.step(Watts::new(-40_000.0), room(), Seconds::new(5.0));
        assert!(step.delivered.value() < 0.0);
        assert!(h.soc() >= soc0 || h.soe() >= soe0, "regen stored somewhere");
    }

    #[test]
    fn overload_is_clamped_with_shortfall() {
        let mut h = hees();
        h.set_state(Ratio::new(0.3), Ratio::new(0.25));
        let step = h.step(Watts::new(5.0e6), room(), Seconds::new(1.0));
        assert!(step.shortfall.value() > 0.0);
        assert!(step.delivered.value() < 5.0e6);
    }

    #[test]
    fn heavy_use_depletes_states() {
        let mut h = hees();
        h.set_state(Ratio::new(0.9), Ratio::new(0.9));
        for _ in 0..300 {
            let _ = h.step(Watts::new(50_000.0), room(), Seconds::new(1.0));
        }
        assert!(h.soc() < Ratio::new(0.9));
        // 15 MJ drained; the 3.2 MJ bank must have given up energy too
        // (it tracks the battery voltage downward).
        assert!(h.soe() < Ratio::new(0.9));
    }

    /// One step resolved the way it was before the pack evaluated its
    /// parameters once: OCV, resistance and heat each re-read through
    /// the public per-quantity API. Returns the step and the post-step
    /// `(soc, soe)`.
    fn reference_step(
        h: &ParallelHees,
        load: Watts,
        temperature: Kelvin,
        dt: Seconds,
    ) -> (HeesStep, Ratio, Ratio) {
        let mut h = h.clone();
        let v_b = h.battery.open_circuit_voltage().value();
        let r_b = h.battery.internal_resistance(temperature).value();
        let v_c = h.cap.voltage().value();
        let r_c = h.branch_resistance;
        let g = 1.0 / r_b + 1.0 / r_c;
        let s = v_b / r_b + v_c / r_c;
        let p = load.value().min(s * s / (4.0 * g) * 0.999);
        let v_l = (s + (s * s - 4.0 * g * p).sqrt()) / (2.0 * g);
        let i_b = (v_b - v_l) / r_b;
        let i_c = (v_c - v_l) / r_c;
        let per_cell = Amps::new(i_b / h.battery.config().parallel as f64);
        let heat = h.battery.cell().heat_generation(per_cell, temperature)
            * h.battery.config().cell_count() as f64;
        let c_rate = h.battery.cell().c_rate(per_cell).abs();
        h.battery.cell_integrate(Amps::new(i_b), dt);
        let cap_internal = Watts::new(v_c * i_c);
        h.cap.force_integrate(cap_internal, dt);
        let step = HeesStep {
            delivered: Watts::new(p),
            shortfall: Watts::new((load.value() - p).max(0.0)),
            battery_internal: Watts::new(v_b * i_b),
            cap_internal,
            battery_heat: heat,
            battery_c_rate: c_rate,
            converter_loss: Watts::ZERO,
        };
        (step, h.soc(), h.soe())
    }

    fn step_bits(step: &HeesStep, soc: Ratio, soe: Ratio) -> [u64; 9] {
        [
            step.delivered.value().to_bits(),
            step.shortfall.value().to_bits(),
            step.battery_internal.value().to_bits(),
            step.cap_internal.value().to_bits(),
            step.battery_heat.value().to_bits(),
            step.battery_c_rate.to_bits(),
            step.converter_loss.value().to_bits(),
            soc.value().to_bits(),
            soe.value().to_bits(),
        ]
    }

    /// Evaluating the battery OCV and resistance once per step changes
    /// no bit: over a SoC × temperature × load grid with idle
    /// (equalisation only), charge, discharge and an overload clamped to
    /// 99.9 % of the circuit peak, the step and the state it leaves
    /// equal the per-quantity reference.
    #[test]
    fn step_is_bit_identical_to_the_per_quantity_reference() {
        let dt = Seconds::new(1.0);
        let mut clamped = 0;
        for soc in [0.05, 0.4, 0.8, 1.0] {
            for soe in [0.1, 0.6, 0.95] {
                for celsius in [-10.0, 0.0, 25.0, 45.0] {
                    let temperature = Kelvin::from_celsius(celsius);
                    for load_w in [0.0, 2e3, 60e3, 250e3, -35e3, -120e3, 5e6] {
                        let mut h = hees();
                        h.set_state(Ratio::new(soc), Ratio::new(soe));
                        let load = Watts::new(load_w);
                        let (expected, soc1, soe1) = reference_step(&h, load, temperature, dt);
                        clamped += usize::from(expected.shortfall.value() > 0.0);
                        let step = h.step(load, temperature, dt);
                        assert_eq!(
                            step_bits(&step, h.soc(), h.soe()),
                            step_bits(&expected, soc1, soe1),
                            "soc {soc}, soe {soe}, {celsius} °C, {load_w} W"
                        );
                    }
                }
            }
        }
        assert!(clamped > 0, "the grid must exercise the peak clamp");
    }

    #[test]
    fn energy_conservation_at_the_bus() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.9));
        let load = Watts::new(30_000.0);
        let step = h.step(load, room(), Seconds::new(1.0));
        // internal powers = delivered + resistive losses ≥ delivered
        let internal = step.battery_internal.value() + step.cap_internal.value();
        assert!(internal >= step.delivered.value() - 1e-6);
        // Losses bounded by a few percent at this load.
        assert!(internal < step.delivered.value() * 1.15);
    }
}
