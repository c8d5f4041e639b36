//! Converter step math.
//!
//! The loss model and both power mappings of [`crate::DcDcConverter`] as
//! plain `f64` functions of the converter coefficients. The methods on
//! `DcDcConverter` delegate here; the operation order is the contract the
//! golden traces pin.

/// Width of the quiescent-loss wake-up ramp (W): below this power the
/// controller overhead fades toward zero, keeping the loss model smooth
/// at zero transfer (the MPC differentiates through it).
pub const QUIESCENT_RAMP: f64 = 50.0;

/// Converter loss for a storage-side transfer of `power` (signed; only
/// the magnitude matters) at raw storage voltage `voltage` (clamped to
/// the 1 mV evaluation floor internally):
/// `P_loss = P_0·p/(p + 50 W) + k_i·|I| + k_r·I²` with `I = p/V`.
#[inline]
pub fn loss(quiescent: f64, conduction: f64, ohmic: f64, power: f64, voltage: f64) -> f64 {
    let p = power.abs();
    if p == 0.0 {
        return 0.0;
    }
    let v = voltage.max(1e-3);
    let i = p / v;
    let ramp_in = quiescent * p / (p + QUIESCENT_RAMP);
    ramp_in + conduction * i + ohmic * i * i
}

/// Discharge-path solve in the magnitude domain: the storage power
/// `x > 0` satisfying `x = p_out + loss(x, V)`, for a positive bus
/// delivery `p_out` at voltage `v > 0`. Quadratic closed-form seed (for
/// the constant-quiescent approximation) refined by ≤ 30 fixed-point
/// rounds to `1e-9` relative tolerance. Returns `None` when the converter
/// saturates at this voltage (no real, positive solution).
#[inline]
pub fn input_for_output_magnitude(
    quiescent: f64,
    conduction: f64,
    ohmic: f64,
    p_out: f64,
    v: f64,
) -> Option<f64> {
    let a = ohmic / (v * v);
    let b = conduction / v - 1.0;
    let c = p_out + quiescent;
    let seed = if a == 0.0 {
        if b >= 0.0 {
            return None;
        }
        -c / b
    } else {
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return None;
        }
        (-b - disc.sqrt()) / (2.0 * a)
    };
    if !seed.is_finite() || seed <= 0.0 {
        return None;
    }
    let mut x = seed;
    for _ in 0..30 {
        let next = p_out + loss(quiescent, conduction, ohmic, x, v);
        if (next - x).abs() < 1e-9 * x.max(1.0) {
            x = next;
            break;
        }
        x = next;
    }
    if !x.is_finite() || x <= 0.0 {
        return None;
    }
    Some(x)
}

/// Charge path: storage power received when `bus_in` (signed) is taken
/// off the bus at voltage `voltage`:
/// `P_storage = P_bus − loss(P_bus, V)`, sign-preserving. Returns `None`
/// when the loss consumes the whole transfer (nothing reaches storage).
#[inline]
pub fn output_for_input(
    quiescent: f64,
    conduction: f64,
    ohmic: f64,
    bus_in: f64,
    voltage: f64,
) -> Option<f64> {
    let magnitude = bus_in.abs();
    let step_loss = loss(quiescent, conduction, ohmic, magnitude, voltage);
    let delivered = magnitude - step_loss;
    if delivered <= 0.0 {
        return None;
    }
    Some(delivered.copysign(bus_in))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_solve_round_trips() {
        // x − loss(x) must reproduce the requested bus power.
        let (q, ki, kr) = (15.0_f64, 0.12, 4.0e-5);
        let x = input_for_output_magnitude(q, ki, kr, 8_000.0, 12.0).expect("feasible");
        let back = x - loss(q, ki, kr, x, 12.0);
        assert!((back - 8_000.0).abs() < 1e-6, "round trip: {back}");
    }

    #[test]
    fn saturated_transfer_is_none() {
        assert!(input_for_output_magnitude(15.0_f64, 0.12, 4.0e-5, 50_000.0, 0.5).is_none());
    }

    #[test]
    fn charge_path_preserves_sign_and_loses_power() {
        let out = output_for_input(15.0_f64, 0.12, 4.0e-5, -5_000.0, 14.0).expect("feasible");
        assert!(out < 0.0 && out.abs() < 5_000.0);
    }
}
