//! Ultracapacitor step math.
//!
//! The voltage-swing law, the current solve and the SoE integral of
//! Eq. 7–9 as plain `f64` functions. The methods on
//! [`crate::UltracapBank`] delegate here; the operation order is the
//! contract the golden traces pin.

/// Open-circuit bank voltage (Eq. 8): `V_cap = V_r·√SoE`.
#[inline]
pub fn bank_voltage(rated_voltage: f64, soe: f64) -> f64 {
    rated_voltage * soe.sqrt()
}

/// Bank current for a terminal power request `p` at voltage `v` (Eq. 7).
/// With zero series resistance the current is `P/V`, with the denominator
/// floored at 5 % of rated voltage so a depleted bank accepting charge
/// stays non-singular. With resistance, the stable root of
/// `P = V·I − R·I²`; `None` past the vertex `V²/(4R)`.
#[inline]
pub fn bank_current(p: f64, v: f64, r: f64, rated_voltage: f64) -> Option<f64> {
    if r == 0.0 {
        return Some(p / v.max(0.05 * rated_voltage));
    }
    let disc = v * v - 4.0 * r * p;
    if disc < 0.0 {
        return None;
    }
    Some((v - disc.sqrt()) / (2.0 * r))
}

/// One SoE integration step (Eq. 9) including the self-discharge leak:
/// `SoE⁺ = (SoE − P_int·dt/E_cap) · e^{−dt/τ}`. The caller clamps to
/// `[0, 1]`.
#[inline]
pub fn soe_after_step(
    soe: f64,
    internal_power: f64,
    dt: f64,
    energy_capacity: f64,
    leakage_time_constant: f64,
) -> f64 {
    let delta = internal_power * dt / energy_capacity;
    let leak = (-dt / leakage_time_constant).exp();
    (soe - delta) * leak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_follows_square_root() {
        assert!((bank_voltage(16.0_f64, 0.25) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn resistive_root_reproduces_the_request() {
        let (v, r) = (14.0_f64, 2.0e-4);
        let i = bank_current(10_000.0, v, r, 16.0).expect("feasible");
        assert!((v * i - r * i * i - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn depleted_bank_charge_is_floored_not_singular() {
        let i = bank_current(-1_000.0_f64, 0.0, 0.0, 16.0).expect("floored");
        assert!(i.is_finite() && i < 0.0);
    }

    #[test]
    fn leak_discounts_the_integral() {
        let next = soe_after_step(0.8_f64, 0.0, 3600.0, 1.0e6, 40.0 * 3600.0);
        assert!((next - 0.8 * (-1.0_f64 / 40.0).exp()).abs() < 1e-12);
    }
}
