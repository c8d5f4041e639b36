//! The dual (switched) architecture — Shin et al. DATE'14 \[16\], the
//! paper's thermal-management baseline.

use crate::error::HeesError;
use crate::pack_domain_bank;
use crate::step::HeesStep;
use otem_battery::{BatteryPack, CellParams, PackConfig};
use otem_ultracap::{UltracapBank, UltracapParams};
use otem_units::{Farads, Kelvin, Ratio, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Which storage the two switches `S_b`, `S_c` connect to the EV.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DualMode {
    /// Battery alone serves the load.
    Battery,
    /// Ultracapacitor alone serves the load (battery rests and cools).
    Ultracap,
    /// Battery serves the load *and* recharges the ultracapacitor with
    /// the given extra power (W).
    BatteryRecharging(f64),
}

/// Battery and ultracapacitor behind selector switches.
///
/// A policy (e.g. the temperature-threshold rule of \[16\]) chooses the
/// [`DualMode`] each step; the architecture executes it. Switching is
/// lossless (no converters), but only one storage can serve the load at
/// a time, and the ultracapacitor can only be recharged *from the
/// battery*, heating it — the failure mode the paper's Fig. 1 shows for
/// undersized banks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DualHees {
    battery: BatteryPack,
    cap: UltracapBank,
}

impl DualHees {
    /// Builds the paper's EV configuration with a pack-domain bank of
    /// the given cell-referenced capacitance label.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when either storage's parameters fail
    /// validation.
    pub fn ev_default(capacitance_label: Farads) -> Result<Self, HeesError> {
        let battery = BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like())?;
        let rated = battery.open_circuit_voltage();
        let params = pack_domain_bank(capacitance_label, rated);
        Self::new(battery, params)
    }

    /// Builds from explicit components.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when the bank parameters fail validation.
    pub fn new(battery: BatteryPack, cap_params: UltracapParams) -> Result<Self, HeesError> {
        Ok(Self {
            battery,
            cap: UltracapBank::new(cap_params)?,
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

    /// `true` when the ultracapacitor can still serve the given load.
    pub fn cap_can_serve(&self, load: Watts) -> bool {
        if load.value() >= 0.0 {
            load <= self.cap.max_discharge_power()
        } else {
            load.abs() <= self.cap.max_charge_power()
        }
    }

    /// Executes one control period in the given mode. Infeasible
    /// requests degrade gracefully: the affected storage delivers what
    /// it can and the remainder appears in [`HeesStep::shortfall`]
    /// (falling back to the battery when the ultracapacitor runs dry
    /// mid-mode, as the switches would).
    pub fn step(
        &mut self,
        mode: DualMode,
        load: Watts,
        temperature: Kelvin,
        dt: Seconds,
    ) -> HeesStep {
        match mode {
            DualMode::Battery => self.battery_step(load, Watts::ZERO, temperature, dt),
            DualMode::BatteryRecharging(extra) => {
                // Recharge power is limited by the bank's headroom.
                let extra = extra.max(0.0).min(self.cap.max_charge_power().value());
                self.battery_step(load, Watts::new(extra), temperature, dt)
            }
            DualMode::Ultracap => {
                if self.cap_can_serve(load) {
                    let draw = match self.cap.draw_power(load) {
                        Ok(d) => d,
                        Err(_) => return self.battery_step(load, Watts::ZERO, temperature, dt),
                    };
                    self.cap.integrate(draw, dt);
                    HeesStep {
                        delivered: load,
                        shortfall: Watts::ZERO,
                        battery_internal: Watts::ZERO,
                        cap_internal: draw.internal_power,
                        battery_heat: Watts::ZERO,
                        battery_c_rate: 0.0,
                        converter_loss: Watts::ZERO,
                    }
                } else {
                    // Bank depleted or overloaded: the switches fall back
                    // to the battery.
                    self.battery_step(load, Watts::ZERO, temperature, dt)
                }
            }
        }
    }

    fn battery_step(
        &mut self,
        load: Watts,
        recharge: Watts,
        temperature: Kelvin,
        dt: Seconds,
    ) -> HeesStep {
        let total = load + recharge;
        let at = self.battery.electrical(temperature);
        let draw = match self.battery.draw_power_clamped_at(&at, total) {
            Ok(d) => d,
            Err(_) => {
                return HeesStep {
                    shortfall: load,
                    ..HeesStep::default()
                }
            }
        };
        self.battery.integrate(draw, dt);

        // Recharge leg: whatever of `recharge` fits after serving the load.
        let to_cap = (draw.terminal_power.value() - load.value())
            .max(0.0)
            .min(recharge.value());
        if to_cap > 0.0 {
            if let Ok(cap_draw) = self.cap.draw_power(Watts::new(-to_cap)) {
                self.cap.integrate(cap_draw, dt);
            }
        }
        let delivered = draw.terminal_power - Watts::new(to_cap);
        HeesStep {
            delivered,
            shortfall: Watts::new((load.value() - delivered.value()).max(0.0)),
            battery_internal: draw.internal_power,
            cap_internal: Watts::new(-to_cap),
            battery_heat: draw.heat,
            battery_c_rate: draw.c_rate,
            converter_loss: Watts::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> Kelvin {
        Kelvin::from_celsius(25.0)
    }

    fn hees() -> DualHees {
        DualHees::ev_default(Farads::new(25_000.0)).expect("valid")
    }

    #[test]
    fn battery_mode_uses_battery_only() {
        let mut h = hees();
        let step = h.step(
            DualMode::Battery,
            Watts::new(30_000.0),
            room(),
            Seconds::new(1.0),
        );
        assert!(step.battery_internal.value() > 30_000.0);
        assert_eq!(step.cap_internal, Watts::ZERO);
        assert!(step.battery_heat.value() > 0.0);
        assert_eq!(step.shortfall, Watts::ZERO);
    }

    #[test]
    fn ultracap_mode_rests_the_battery() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let step = h.step(
            DualMode::Ultracap,
            Watts::new(20_000.0),
            room(),
            Seconds::new(1.0),
        );
        assert_eq!(step.battery_internal, Watts::ZERO);
        assert_eq!(step.battery_heat, Watts::ZERO);
        assert!(step.cap_internal.value() > 0.0);
        assert!(h.soe() < Ratio::new(0.8));
    }

    #[test]
    fn depleted_cap_falls_back_to_battery() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.001));
        let step = h.step(
            DualMode::Ultracap,
            Watts::new(30_000.0),
            room(),
            Seconds::new(1.0),
        );
        assert!(step.battery_internal.value() > 0.0, "battery took over");
        assert!(step.battery_heat.value() > 0.0);
    }

    #[test]
    fn recharging_heats_the_battery_more() {
        let mut h1 = hees();
        let mut h2 = hees();
        h1.set_state(Ratio::ONE, Ratio::new(0.5));
        h2.set_state(Ratio::ONE, Ratio::new(0.5));
        let plain = h1.step(
            DualMode::Battery,
            Watts::new(20_000.0),
            room(),
            Seconds::new(1.0),
        );
        let recharging = h2.step(
            DualMode::BatteryRecharging(15_000.0),
            Watts::new(20_000.0),
            room(),
            Seconds::new(1.0),
        );
        assert!(recharging.battery_heat > plain.battery_heat);
        assert!(h2.soe() > Ratio::new(0.5), "cap actually charged");
        assert_eq!(recharging.shortfall, Watts::ZERO);
    }

    #[test]
    fn regen_in_battery_mode_charges_battery() {
        let mut h = hees();
        h.set_state(Ratio::new(0.7), Ratio::new(0.5));
        let step = h.step(
            DualMode::Battery,
            Watts::new(-25_000.0),
            room(),
            Seconds::new(10.0),
        );
        assert!(step.battery_internal.value() < 0.0);
        assert!(h.soc() > Ratio::new(0.7));
    }

    #[test]
    fn regen_in_cap_mode_charges_cap() {
        let mut h = hees();
        h.set_state(Ratio::new(0.7), Ratio::new(0.5));
        let step = h.step(
            DualMode::Ultracap,
            Watts::new(-25_000.0),
            room(),
            Seconds::new(1.0),
        );
        assert!(step.cap_internal.value() < 0.0);
        assert!(h.soe() > Ratio::new(0.5));
        assert_eq!(step.battery_heat, Watts::ZERO);
    }

    #[test]
    fn small_bank_depletes_within_aggressive_phase() {
        let mut h = DualHees::ev_default(Farads::new(5_000.0)).expect("valid");
        h.set_state(Ratio::ONE, Ratio::ONE);
        let mut battery_took_over_at = None;
        for t in 0..300 {
            let step = h.step(
                DualMode::Ultracap,
                Watts::new(25_000.0),
                room(),
                Seconds::new(1.0),
            );
            if step.battery_internal.value() > 0.0 {
                battery_took_over_at = Some(t);
                break;
            }
        }
        let t = battery_took_over_at.expect("5 kF bank must deplete");
        assert!(t < 40, "depleted only after {t} s");
    }
}
