//! The converter loss model and its forward/inverse power mappings.

use crate::error::ConverterError;
use otem_units::{Volts, Watts};
use serde::{Deserialize, Serialize};

/// A DC/DC converter between a storage element and the EV's DC bus.
///
/// Loss model: `P_loss = P_0 + k_i·|I| + k_r·I²` with `I = P/V` the
/// storage-side current. Power flowing in either direction pays the loss.
///
/// Two mappings are provided:
///
/// * [`DcDcConverter::input_for_output`] — how much storage power must be
///   drawn to deliver `P_out` onto the bus (discharge path),
/// * [`DcDcConverter::output_for_input`] — how much reaches the storage
///   when `P_in` is taken off the bus (charge path).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DcDcConverter {
    /// Quiescent (controller/switching) loss `P_0` in watts, paid
    /// whenever power flows.
    pub quiescent_loss: f64,
    /// Conduction loss coefficient `k_i` (V): loss linear in current.
    pub conduction_coefficient: f64,
    /// Ohmic loss coefficient `k_r` (Ω): loss quadratic in current.
    pub ohmic_coefficient: f64,
}

impl DcDcConverter {
    /// Converter preset for the high-voltage battery string (≈ 350 V):
    /// ≈ 97–98 % efficient across the load range.
    pub fn battery_side() -> Self {
        Self {
            quiescent_loss: 25.0,
            conduction_coefficient: 2.5,
            ohmic_coefficient: 0.02,
        }
    }

    /// Converter preset for the low-voltage ultracapacitor bank (≈ 16 V
    /// rated): efficiency is strongly voltage-dependent, dropping several
    /// points as the bank sags toward half voltage.
    pub fn ultracap_side() -> Self {
        Self {
            quiescent_loss: 15.0,
            conduction_coefficient: 0.12,
            ohmic_coefficient: 4.0e-5,
        }
    }

    /// An idealised lossless converter (baselines that ignore conversion
    /// losses, and tests).
    pub const fn lossless() -> Self {
        Self {
            quiescent_loss: 0.0,
            conduction_coefficient: 0.0,
            ohmic_coefficient: 0.0,
        }
    }

    /// Validates coefficient ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::InvalidParameter`] for negative
    /// coefficients.
    pub fn validate(&self) -> Result<(), ConverterError> {
        for (name, value) in [
            ("quiescent_loss", self.quiescent_loss),
            ("conduction_coefficient", self.conduction_coefficient),
            ("ohmic_coefficient", self.ohmic_coefficient),
        ] {
            if value < 0.0 || !value.is_finite() {
                return Err(ConverterError::InvalidParameter {
                    name,
                    value,
                    constraint: ">= 0 and finite",
                });
            }
        }
        Ok(())
    }

    /// Width of the quiescent-loss wake-up ramp (W); see
    /// [`crate::kernel::QUIESCENT_RAMP`].
    const QUIESCENT_RAMP: f64 = crate::kernel::QUIESCENT_RAMP;

    /// Loss for a given storage-side power magnitude at a given storage
    /// voltage.
    ///
    /// `P_loss = P_0·p/(p + 50 W) + k_i·|I| + k_r·I²` — the quiescent
    /// term ramps in smoothly as the converter wakes from idle.
    #[inline]
    pub fn loss(&self, storage_power: Watts, storage_voltage: Volts) -> Watts {
        Watts::new(crate::kernel::loss(
            self.quiescent_loss,
            self.conduction_coefficient,
            self.ohmic_coefficient,
            storage_power.value(),
            storage_voltage.value(),
        ))
    }

    /// Partial derivatives of [`DcDcConverter::loss`] in the transfer
    /// magnitude and the storage voltage: `(∂loss/∂|P|, ∂loss/∂V)`.
    ///
    /// Matches the forward branches exactly: both partials are zero at
    /// zero transfer (the forward path early-outs there), and the voltage
    /// partial is zero below the 1 mV evaluation floor where the clamp
    /// is active.
    #[inline]
    pub fn loss_partials(&self, storage_power: Watts, storage_voltage: Volts) -> (f64, f64) {
        let p = storage_power.value().abs();
        if p == 0.0 {
            return (0.0, 0.0);
        }
        let v = storage_voltage.value().max(1e-3);
        let ramp = p + Self::QUIESCENT_RAMP;
        let d_p = self.quiescent_loss * Self::QUIESCENT_RAMP / (ramp * ramp)
            + self.conduction_coefficient / v
            + 2.0 * self.ohmic_coefficient * p / (v * v);
        let d_v = if storage_voltage.value() > 1e-3 {
            -self.conduction_coefficient * p / (v * v)
                - 2.0 * self.ohmic_coefficient * p * p / (v * v * v)
        } else {
            0.0
        };
        (d_p, d_v)
    }

    /// Partial derivatives of [`DcDcConverter::input_for_output`] at an
    /// already-solved operating point, by the implicit-function theorem
    /// on `x = P_out + loss(x, V)`:
    ///
    /// `(∂P_storage/∂P_bus, ∂P_storage/∂V) = (1/(1−L_p), ±L_v/(1−L_p))`
    ///
    /// where `L_p`, `L_v` are the loss partials at the converged storage
    /// power. Pass the value `input_for_output` returned (signed); signs
    /// are handled internally. Returns `None` at the saturation boundary
    /// `L_p ≥ 1`, where the inverse map is not differentiable.
    pub fn input_for_output_partials(
        &self,
        storage_power: Watts,
        storage_voltage: Volts,
    ) -> Option<(f64, f64)> {
        let x = storage_power.value();
        if x == 0.0 {
            return Some((1.0, 0.0));
        }
        let (l_p, l_v) = self.loss_partials(storage_power, storage_voltage);
        let gain = 1.0 - l_p;
        if gain <= 0.0 {
            return None;
        }
        Some((1.0 / gain, (l_v / gain) * x.signum()))
    }

    /// Partial derivatives of [`DcDcConverter::output_for_input`]:
    /// `(∂P_storage/∂P_bus, ∂P_storage/∂V) = (1−L_p, −L_v·sign(P))`.
    ///
    /// The power partial is direction-independent (both magnitudes and
    /// signs flip together); zero transfer maps to the identity slope,
    /// matching the forward early-out.
    pub fn output_for_input_partials(&self, bus_in: Watts, storage_voltage: Volts) -> (f64, f64) {
        let p = bus_in.value();
        if p == 0.0 {
            return (1.0, 0.0);
        }
        let (l_p, l_v) = self.loss_partials(bus_in, storage_voltage);
        (1.0 - l_p, -l_v * p.signum())
    }

    /// One-sided derivative limits of the bus → storage power maps as
    /// the transfer crosses zero: `(discharge, charge)` =
    /// `(1/(1−L₀), 1−L₀)` with `L₀ = P₀/RAMP + k_i/V` the marginal loss
    /// slope at idle.
    ///
    /// The loss model's `|P|` dependence makes zero transfer a genuine
    /// kink: a central finite difference straddling it measures the
    /// *mean* of these two limits, not either branch. Adjoint gradients
    /// that must agree with central differences at idle (the convention
    /// the MPC's golden traces were blessed with) need both limits to
    /// reproduce that mean. Falls back to `(1, 1)` — the forward maps'
    /// zero-transfer early-out slope — when the idle loss slope
    /// saturates (`L₀ ≥ 1`, only reachable at extreme voltage sag).
    pub fn zero_transfer_gain_limits(&self, storage_voltage: Volts) -> (f64, f64) {
        let v = storage_voltage.value().max(1e-3);
        let l0 = self.quiescent_loss / Self::QUIESCENT_RAMP + self.conduction_coefficient / v;
        let gain = 1.0 - l0;
        if gain <= 0.0 {
            return (1.0, 1.0);
        }
        (1.0 / gain, gain)
    }

    /// Discharge path: storage power that must be drawn so that `bus_out`
    /// is delivered to the bus. Solves
    /// `P_storage = P_bus + loss(P_storage, V)` for `P_storage`.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::TransferInfeasible`] when no real
    /// solution exists (the converter saturates at this voltage) and
    /// [`ConverterError::InvalidParameter`] for a non-positive voltage.
    pub fn input_for_output(
        &self,
        bus_out: Watts,
        storage_voltage: Volts,
    ) -> Result<Watts, ConverterError> {
        let p_out = bus_out.value();
        if p_out == 0.0 {
            return Ok(Watts::ZERO);
        }
        let v = storage_voltage.value();
        if v <= 0.0 {
            return Err(ConverterError::InvalidParameter {
                name: "storage_voltage",
                value: v,
                constraint: "> 0 V",
            });
        }
        let p_out = p_out.abs();
        // Solve x − loss(x) = P_out in the magnitude domain via the
        // kernel: a closed-form constant-quiescent seed
        // refined by fixed-point iteration (a contraction in the feasible
        // regime — ∂loss/∂x < 1).
        match crate::kernel::input_for_output_magnitude(
            self.quiescent_loss,
            self.conduction_coefficient,
            self.ohmic_coefficient,
            p_out,
            v,
        ) {
            Some(x) => Ok(Watts::new(x.copysign(bus_out.value()))),
            None => Err(ConverterError::TransferInfeasible {
                requested: p_out,
                voltage: v,
            }),
        }
    }

    /// Charge path: storage power received when `bus_in` is taken off the
    /// bus: `P_storage = P_bus − loss(P_bus, V)`.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::TransferInfeasible`] when the loss
    /// exceeds the supplied power (nothing would reach the storage).
    pub fn output_for_input(
        &self,
        bus_in: Watts,
        storage_voltage: Volts,
    ) -> Result<Watts, ConverterError> {
        let p_in = bus_in.value();
        if p_in == 0.0 {
            return Ok(Watts::ZERO);
        }
        match crate::kernel::output_for_input(
            self.quiescent_loss,
            self.conduction_coefficient,
            self.ohmic_coefficient,
            p_in,
            storage_voltage.value(),
        ) {
            Some(delivered) => Ok(Watts::new(delivered)),
            None => Err(ConverterError::TransferInfeasible {
                requested: p_in.abs(),
                voltage: storage_voltage.value(),
            }),
        }
    }

    /// Conversion efficiency for a transfer of the given bus-side power at
    /// the given storage voltage (paper's `η_DC`).
    ///
    /// # Errors
    ///
    /// Propagates [`ConverterError::TransferInfeasible`] from the inverse
    /// mapping.
    pub fn efficiency(
        &self,
        bus_power: Watts,
        storage_voltage: Volts,
    ) -> Result<f64, ConverterError> {
        let p = bus_power.value().abs();
        if p == 0.0 {
            return Ok(1.0);
        }
        let storage = self.input_for_output(Watts::new(p), storage_voltage)?;
        Ok(p / storage.value())
    }
}

impl Default for DcDcConverter {
    /// The ultracapacitor-side preset (the voltage-sensitive one the
    /// paper's analysis centres on).
    fn default() -> Self {
        Self::ultracap_side()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_converter_is_identity() {
        let dc = DcDcConverter::lossless();
        let p = Watts::new(12_345.0);
        let v = Volts::new(12.0);
        assert_eq!(dc.input_for_output(p, v).unwrap(), p);
        assert_eq!(dc.output_for_input(p, v).unwrap(), p);
        assert_eq!(dc.efficiency(p, v).unwrap(), 1.0);
    }

    #[test]
    fn zero_transfer_gain_limits_match_one_sided_differences() {
        let v = Volts::new(350.0);
        for dc in [
            DcDcConverter::battery_side(),
            DcDcConverter::ultracap_side(),
        ] {
            let (g_dis, g_chg) = dc.zero_transfer_gain_limits(v);
            let h = 1e-2;
            let fd_dis = dc.input_for_output(Watts::new(h), v).unwrap().value() / h;
            let fd_chg = dc.output_for_input(Watts::new(-h), v).unwrap().value() / -h;
            assert!((g_dis - fd_dis).abs() < 1e-3 * g_dis, "{g_dis} vs {fd_dis}");
            assert!((g_chg - fd_chg).abs() < 1e-3 * g_chg, "{g_chg} vs {fd_chg}");
            // The limits bracket the forward early-out slope of 1.
            assert!(g_chg < 1.0 && g_dis > 1.0);
        }
        // Lossless: no kink, both limits are the identity.
        assert_eq!(
            DcDcConverter::lossless().zero_transfer_gain_limits(v),
            (1.0, 1.0)
        );
    }

    #[test]
    fn efficiency_reasonable_at_rated_voltage() {
        let dc = DcDcConverter::ultracap_side();
        let eta = dc
            .efficiency(Watts::new(10_000.0), Volts::new(16.0))
            .unwrap();
        assert!((0.88..0.99).contains(&eta), "η = {eta}");
    }

    #[test]
    fn efficiency_degrades_as_voltage_sags() {
        let dc = DcDcConverter::ultracap_side();
        let p = Watts::new(10_000.0);
        let full = dc.efficiency(p, Volts::new(16.0)).unwrap();
        let half = dc.efficiency(p, Volts::new(8.0)).unwrap();
        let low = dc.efficiency(p, Volts::new(5.0)).unwrap();
        assert!(full > half && half > low, "{full} {half} {low}");
        assert!(full - low > 0.02, "swing should cost > 2 points");
    }

    #[test]
    fn forward_inverse_round_trip() {
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(12.0);
        let bus = Watts::new(8_000.0);
        let storage = dc.input_for_output(bus, v).unwrap();
        assert!(storage > bus);
        // Pushing that storage power forward re-delivers the bus power:
        // storage − loss(storage) = bus.
        let loss = dc.loss(storage, v);
        assert!((storage.value() - loss.value() - bus.value()).abs() < 1e-6);
    }

    #[test]
    fn charge_path_loses_power() {
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(14.0);
        let delivered = dc.output_for_input(Watts::new(5_000.0), v).unwrap();
        assert!(delivered.value() < 5_000.0);
        assert!(delivered.value() > 4_000.0);
    }

    #[test]
    fn signs_are_preserved() {
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(14.0);
        assert!(
            dc.input_for_output(Watts::new(-6_000.0), v)
                .unwrap()
                .value()
                < 0.0
        );
        assert!(
            dc.output_for_input(Watts::new(-6_000.0), v)
                .unwrap()
                .value()
                < 0.0
        );
    }

    #[test]
    fn battery_side_is_more_efficient_than_ultracap_side_at_sag() {
        let bat = DcDcConverter::battery_side();
        let cap = DcDcConverter::ultracap_side();
        let p = Watts::new(20_000.0);
        let eta_bat = bat.efficiency(p, Volts::new(340.0)).unwrap();
        let eta_cap = cap.efficiency(p, Volts::new(8.0)).unwrap();
        assert!(eta_bat > eta_cap);
        assert!(eta_bat > 0.95, "battery-side η = {eta_bat}");
    }

    #[test]
    fn infeasible_transfer_rejected() {
        let dc = DcDcConverter::ultracap_side();
        // At 0.5 V the current for 50 kW would be 100 kA — the quadratic
        // has no positive root.
        assert!(matches!(
            dc.input_for_output(Watts::new(50_000.0), Volts::new(0.5)),
            Err(ConverterError::TransferInfeasible { .. })
        ));
    }

    #[test]
    fn tiny_transfer_dominated_by_quiescent_loss() {
        let dc = DcDcConverter::ultracap_side();
        let tiny = dc.efficiency(Watts::new(30.0), Volts::new(16.0)).unwrap();
        let moderate = dc
            .efficiency(Watts::new(5_000.0), Volts::new(16.0))
            .unwrap();
        assert!(tiny < 0.90, "η = {tiny} should be poor at 30 W");
        assert!(moderate > tiny + 0.05, "light-load collapse missing");
    }

    #[test]
    fn loss_is_smooth_through_zero() {
        // The wake-up ramp keeps the loss differentiable at zero — no
        // fixed quiescent jump the MPC's gradient would trip over.
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(16.0);
        let small = dc.loss(Watts::new(1.0), v).value();
        assert!(small < 1.0, "loss({small}) at 1 W transfer");
        let smaller = dc.loss(Watts::new(0.1), v).value();
        assert!(smaller < small / 5.0, "ramp not proportional: {smaller}");
    }

    #[test]
    fn zero_power_zero_loss() {
        let dc = DcDcConverter::ultracap_side();
        assert_eq!(dc.loss(Watts::ZERO, Volts::new(16.0)), Watts::ZERO);
        assert_eq!(
            dc.input_for_output(Watts::ZERO, Volts::new(16.0)).unwrap(),
            Watts::ZERO
        );
        assert_eq!(dc.efficiency(Watts::ZERO, Volts::new(16.0)).unwrap(), 1.0);
    }

    #[test]
    fn loss_partials_match_finite_differences() {
        let dc = DcDcConverter::ultracap_side();
        for (p, v) in [(8_000.0, 14.0), (300.0, 9.0), (-5_000.0, 12.0)] {
            let (d_p, d_v) = dc.loss_partials(Watts::new(p), Volts::new(v));
            let h = 1e-3;
            let mag = p.abs();
            let fd_p = (dc.loss(Watts::new(mag + h), Volts::new(v)).value()
                - dc.loss(Watts::new(mag - h), Volts::new(v)).value())
                / (2.0 * h);
            let fd_v = (dc.loss(Watts::new(p), Volts::new(v + h)).value()
                - dc.loss(Watts::new(p), Volts::new(v - h)).value())
                / (2.0 * h);
            assert!((d_p - fd_p).abs() <= 1e-5 * fd_p.abs(), "{d_p} vs {fd_p}");
            assert!((d_v - fd_v).abs() <= 1e-5 * fd_v.abs(), "{d_v} vs {fd_v}");
        }
        assert_eq!(dc.loss_partials(Watts::ZERO, Volts::new(16.0)), (0.0, 0.0));
    }

    #[test]
    fn inverse_map_partials_match_finite_differences() {
        let dc = DcDcConverter::ultracap_side();
        for (bus, v) in [(8_000.0, 14.0), (-6_000.0, 12.0), (400.0, 16.0)] {
            let storage = dc.input_for_output(Watts::new(bus), Volts::new(v)).unwrap();
            let (d_bus, d_v) = dc
                .input_for_output_partials(storage, Volts::new(v))
                .expect("away from saturation");
            let h = 1e-2;
            let at = |bus: f64, v: f64| {
                dc.input_for_output(Watts::new(bus), Volts::new(v))
                    .unwrap()
                    .value()
            };
            let fd_bus = (at(bus + h, v) - at(bus - h, v)) / (2.0 * h);
            let fd_v = (at(bus, v + h) - at(bus, v - h)) / (2.0 * h);
            // The fixed point is solved to 1e-9 relative tolerance; hold
            // the IFT slopes to a slightly looser bar.
            assert!(
                (d_bus - fd_bus).abs() <= 1e-4 * fd_bus.abs(),
                "∂x/∂bus {d_bus} vs FD {fd_bus}"
            );
            assert!(
                (d_v - fd_v).abs() <= 1e-3 * fd_v.abs().max(1e-6),
                "∂x/∂V {d_v} vs FD {fd_v}"
            );
        }
    }

    #[test]
    fn forward_map_partials_match_finite_differences() {
        let dc = DcDcConverter::ultracap_side();
        for (bus, v) in [(5_000.0, 14.0), (-7_000.0, 10.0)] {
            let (d_bus, d_v) = dc.output_for_input_partials(Watts::new(bus), Volts::new(v));
            let h = 1e-2;
            let at = |bus: f64, v: f64| {
                dc.output_for_input(Watts::new(bus), Volts::new(v))
                    .unwrap()
                    .value()
            };
            let fd_bus = (at(bus + h, v) - at(bus - h, v)) / (2.0 * h);
            let fd_v = (at(bus, v + h) - at(bus, v - h)) / (2.0 * h);
            assert!(
                (d_bus - fd_bus).abs() <= 1e-5 * fd_bus.abs(),
                "∂out/∂bus {d_bus} vs FD {fd_bus}"
            );
            assert!(
                (d_v - fd_v).abs() <= 1e-5 * fd_v.abs().max(1e-9),
                "∂out/∂V {d_v} vs FD {fd_v}"
            );
        }
        assert_eq!(
            dc.output_for_input_partials(Watts::ZERO, Volts::new(16.0)),
            (1.0, 0.0)
        );
    }

    #[test]
    fn inverse_partials_none_at_saturation() {
        // At a deeply sagged voltage the marginal loss exceeds unity and
        // the inverse map folds back; the IFT slope must refuse there.
        let dc = DcDcConverter::ultracap_side();
        // L_p = k_i/v̄ + … > 1 when v̄ < k_i (= 0.12 V).
        let result = dc.input_for_output_partials(Watts::new(100.0), Volts::new(0.05));
        assert!(result.is_none());
    }

    #[test]
    fn negative_coefficients_rejected() {
        let dc = DcDcConverter {
            quiescent_loss: -1.0,
            ..DcDcConverter::ultracap_side()
        };
        assert!(dc.validate().is_err());
        assert!(DcDcConverter::ultracap_side().validate().is_ok());
    }
}
