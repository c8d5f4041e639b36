//! Single-cell model: state of charge, terminal behaviour and heat
//! generation (paper Eq. 1–4).

use crate::error::BatteryError;
use crate::params::CellParams;
use otem_units::{Amps, Kelvin, Ohms, Ratio, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

/// One Li-ion cell: parameters plus its state of charge.
///
/// Sign convention: positive current **discharges** the cell (current is
/// drawn from it), matching the paper's `I_bat` in Eq. 1.
///
/// # Examples
///
/// ```
/// use otem_battery::{Cell, CellParams};
/// use otem_units::{Amps, Kelvin, Ratio, Seconds};
///
/// # fn main() -> Result<(), otem_battery::BatteryError> {
/// let mut cell = Cell::new(CellParams::ncr18650a(), Ratio::ONE)?;
/// let room = Kelvin::from_celsius(25.0);
/// let v_loaded = cell.terminal_voltage(Amps::new(3.1), room);
/// assert!(v_loaded < cell.open_circuit_voltage());
/// cell.integrate_current(Amps::new(3.1), Seconds::new(360.0)); // 0.1 h at 1C
/// assert!((cell.soc().value() - 0.9).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    params: CellParams,
    soc: Ratio,
    /// Cumulative capacity-loss fraction applied via
    /// [`Cell::apply_degradation`]; shrinks the effective capacity.
    degradation: f64,
}

/// Point-in-time copy of a [`Cell`]'s mutable state (state of charge and
/// cumulative degradation).
///
/// A cell's parameters are immutable after construction, so this tiny
/// `Copy` struct is all that [`Cell::restore`] needs to rewind the cell
/// exactly — the basis for allocation-free what-if rollouts higher up the
/// stack. Note that [`Cell::apply_degradation`] is deliberately monotone;
/// `restore` is the only way to move degradation backwards, and it exists
/// precisely for speculative evaluation, not for healing a real cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellSnapshot {
    soc: Ratio,
    degradation: f64,
}

impl Cell {
    /// Creates a cell at the given initial state of charge.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidParameter`] when the parameter set
    /// fails validation.
    pub fn new(params: CellParams, initial_soc: Ratio) -> Result<Self, BatteryError> {
        params.validate()?;
        Ok(Self {
            params,
            soc: initial_soc,
            degradation: 0.0,
        })
    }

    /// The cell's parameter set.
    pub fn params(&self) -> &CellParams {
        &self.params
    }

    /// Present state of charge (paper Eq. 1).
    pub fn soc(&self) -> Ratio {
        self.soc
    }

    /// Overrides the state of charge (initial conditions, test setup).
    pub fn set_soc(&mut self, soc: Ratio) {
        self.soc = soc;
    }

    /// Applies permanent capacity degradation (a fraction of *rated*
    /// capacity, e.g. from [`crate::AgingModel`]): the effective capacity
    /// shrinks, so the same current moves the state of charge faster and
    /// the same charge throughput stresses the cell harder — the
    /// feedback loop behind accelerating end-of-life wear.
    ///
    /// Total degradation is capped at 95 % to keep the model defined.
    pub fn apply_degradation(&mut self, loss_fraction: f64) {
        self.degradation = (self.degradation + loss_fraction.max(0.0)).min(0.95);
    }

    /// Cumulative degradation applied so far (fraction of rated
    /// capacity).
    pub fn degradation(&self) -> f64 {
        self.degradation
    }

    /// Effective (aged) capacity: rated × (1 − degradation).
    pub fn effective_capacity(&self) -> otem_units::AmpHours {
        self.params.capacity * (1.0 - self.degradation)
    }

    /// Open-circuit voltage at the present state of charge (Eq. 2).
    pub fn open_circuit_voltage(&self) -> Volts {
        self.params.ocv.voltage(self.soc)
    }

    /// Internal resistance at the present state of charge and the given
    /// temperature (Eq. 3 with the Arrhenius temperature factor).
    pub fn internal_resistance(&self, temperature: Kelvin) -> Ohms {
        self.params.resistance.resistance(self.soc, temperature)
    }

    /// Terminal voltage under load: `V = V_oc − I·R` (discharge sags,
    /// charge rises).
    pub fn terminal_voltage(&self, current: Amps, temperature: Kelvin) -> Volts {
        self.open_circuit_voltage() - current * self.internal_resistance(temperature)
    }

    /// Heat generated at the given operating point (Eq. 4):
    /// `Q = I·(V_oc − V_bat) + I·T·dV_oc/dT = I²·R + I·T·dV_oc/dT`.
    ///
    /// The Joule term is always non-negative; the entropic term changes
    /// sign with the current direction.
    pub fn heat_generation(&self, current: Amps, temperature: Kelvin) -> Watts {
        self.heat_at(current, self.internal_resistance(temperature), temperature)
    }

    /// [`Cell::heat_generation`] at an already-evaluated resistance —
    /// the one Eq. 4 body, shared with the pack's step path so a step
    /// evaluates the Arrhenius resistance once.
    pub(crate) fn heat_at(&self, current: Amps, resistance: Ohms, temperature: Kelvin) -> Watts {
        Watts::new(crate::kernel::cell_heat(
            current.value(),
            resistance.value(),
            temperature.value(),
            self.params.entropy_coefficient,
        ))
    }

    /// Discharge C-rate implied by the given current (1C = *effective*
    /// capacity in one hour, so aged cells feel the same current as a
    /// higher rate).
    pub fn c_rate(&self, current: Amps) -> f64 {
        current.value() / self.effective_capacity().value()
    }

    /// Maximum terminal power deliverable right now (peak of
    /// `V_oc·I − R·I²` over `I`, attained at `I = V_oc / 2R`), before the
    /// datasheet current limit.
    pub fn max_discharge_power(&self, temperature: Kelvin) -> Watts {
        self.max_discharge_power_at(
            self.open_circuit_voltage(),
            self.internal_resistance(temperature),
        )
    }

    /// [`Cell::max_discharge_power`] at an already-evaluated OCV and
    /// resistance.
    pub(crate) fn max_discharge_power_at(&self, voc: Volts, resistance: Ohms) -> Watts {
        let voc = voc.value();
        let r = resistance.value();
        let i_peak = voc / (2.0 * r);
        let i = i_peak.min(self.params.max_discharge_current);
        Watts::new(voc * i - r * i * i)
    }

    /// Captures the cell's mutable state for a later [`Cell::restore`].
    pub fn snapshot(&self) -> CellSnapshot {
        CellSnapshot {
            soc: self.soc,
            degradation: self.degradation,
        }
    }

    /// Rewinds the cell to a previously captured [`CellSnapshot`].
    pub fn restore(&mut self, snapshot: CellSnapshot) {
        self.soc = snapshot.soc;
        self.degradation = snapshot.degradation;
    }

    /// Advances the coulomb counter by one time step (Eq. 1):
    /// `SoC ← SoC − ∫ I / C_bat` against the effective capacity,
    /// clamped to `[0, 1]`.
    pub fn integrate_current(&mut self, current: Amps, dt: Seconds) {
        let delta = crate::kernel::soc_decrement(
            current.value(),
            dt.value(),
            self.effective_capacity().to_coulombs().value(),
        );
        self.soc = self.soc.saturating_add(-delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Cell {
        Cell::new(CellParams::ncr18650a(), Ratio::ONE).expect("valid preset")
    }

    fn room() -> Kelvin {
        Kelvin::from_celsius(25.0)
    }

    #[test]
    fn discharge_sags_charge_lifts_terminal_voltage() {
        let c = cell();
        let voc = c.open_circuit_voltage();
        assert!(c.terminal_voltage(Amps::new(2.0), room()) < voc);
        assert!(c.terminal_voltage(Amps::new(-2.0), room()) > voc);
        assert_eq!(c.terminal_voltage(Amps::ZERO, room()), voc);
    }

    #[test]
    fn one_hour_at_1c_empties_one_capacity_unit() {
        let mut c = cell();
        let i = Amps::new(c.params().capacity.value()); // 1C
        c.integrate_current(i, Seconds::new(3600.0));
        assert!(c.soc().value() < 1e-9, "soc = {}", c.soc().value());
    }

    #[test]
    fn charging_raises_soc_and_clamps_at_full() {
        let mut c = cell();
        c.set_soc(Ratio::new(0.5));
        c.integrate_current(Amps::new(-3.1), Seconds::new(1800.0)); // +0.5
        assert!((c.soc().value() - 1.0).abs() < 1e-9);
        // Further charge cannot exceed 100 %.
        c.integrate_current(Amps::new(-3.1), Seconds::new(3600.0));
        assert_eq!(c.soc(), Ratio::ONE);
    }

    #[test]
    fn heat_generation_is_positive_under_discharge() {
        let c = cell();
        let q = c.heat_generation(Amps::new(3.0), room());
        assert!(q.value() > 0.0);
        // Dominated by the Joule term: I²R.
        let r = c.internal_resistance(room()).value();
        assert!((q.value() - 9.0 * r).abs() / (9.0 * r) < 0.5);
    }

    #[test]
    fn heat_generation_quadratic_in_current() {
        let c = cell();
        let q1 = c.heat_generation(Amps::new(1.0), room()).value();
        let q2 = c.heat_generation(Amps::new(2.0), room()).value();
        // Joule term is quadratic; the (negative) entropic term is linear,
        // so the ratio is at least 4 but stays bounded.
        assert!((4.0..8.0).contains(&(q2 / q1)), "ratio = {}", q2 / q1);
    }

    #[test]
    fn warm_cell_wastes_less_power() {
        let c = cell();
        let cold = c.heat_generation(Amps::new(3.0), Kelvin::from_celsius(0.0));
        let warm = c.heat_generation(Amps::new(3.0), Kelvin::from_celsius(40.0));
        assert!(cold > warm);
    }

    #[test]
    fn max_discharge_power_is_attainable() {
        let c = cell();
        let p_max = c.max_discharge_power(room());
        assert!(p_max.value() > 0.0);
        // At the datasheet current limit the delivered power must match.
        let i = c.params().max_discharge_current;
        let voc = c.open_circuit_voltage().value();
        let r = c.internal_resistance(room()).value();
        let expected = voc * i - r * i * i;
        assert!((p_max.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn c_rate_scales_with_capacity() {
        let c = cell();
        assert!((c.c_rate(Amps::new(3.1)) - 1.0).abs() < 1e-12);
        assert!((c.c_rate(Amps::new(6.2)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degradation_shrinks_capacity_and_raises_stress() {
        let mut c = cell();
        assert_eq!(c.degradation(), 0.0);
        c.apply_degradation(0.10);
        assert!((c.effective_capacity().value() - 3.1 * 0.9).abs() < 1e-12);
        // The same current is now a higher C-rate.
        assert!(c.c_rate(Amps::new(3.1)) > 1.0);
        // And the same discharge empties the cell faster.
        let mut fresh = cell();
        fresh.set_soc(Ratio::ONE);
        c.set_soc(Ratio::ONE);
        fresh.integrate_current(Amps::new(3.1), Seconds::new(1800.0));
        c.integrate_current(Amps::new(3.1), Seconds::new(1800.0));
        assert!(c.soc() < fresh.soc());
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut c = cell();
        c.set_soc(Ratio::new(0.73));
        c.apply_degradation(0.04);
        let saved = c.snapshot();
        let reference = c.clone();
        c.integrate_current(Amps::new(3.1), Seconds::new(600.0));
        c.apply_degradation(0.02);
        assert_ne!(c, reference);
        c.restore(saved);
        // Bit-exact: restore must undo speculative mutation completely,
        // including degradation (which apply_degradation alone cannot).
        assert_eq!(c, reference);
    }

    #[test]
    fn degradation_accumulates_and_caps() {
        let mut c = cell();
        for _ in 0..30 {
            c.apply_degradation(0.10);
        }
        assert!((c.degradation() - 0.95).abs() < 1e-12, "capped at 95 %");
        // Negative input is ignored rather than healing the cell.
        c.apply_degradation(-1.0);
        assert!((c.degradation() - 0.95).abs() < 1e-12);
    }
}
