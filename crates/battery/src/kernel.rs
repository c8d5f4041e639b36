//! Battery step math.
//!
//! The quadratic pack-current solve, the cell heat law and the coulomb
//! counter of Eq. 1–4 as plain `f64` functions. The methods on
//! [`crate::BatteryPack`] / [`crate::Cell`] delegate here; the operation
//! order is the contract the golden traces pin.

/// Pack (or cell) current from the stable root of `P = V_oc·I − R·I²`:
/// `I = (V_oc − √(V_oc² − 4RP))/(2R)` — the low-current branch of the
/// quadratic. Returns `None` past the peak-power vertex `V_oc²/(4R)`,
/// where no real current delivers the request.
#[inline]
pub fn pack_current(voc: f64, r: f64, p: f64) -> Option<f64> {
    let discriminant = voc * voc - 4.0 * r * p;
    if discriminant < 0.0 {
        return None;
    }
    Some((voc - discriminant.sqrt()) / (2.0 * r))
}

/// Cell heat generation (Eq. 4): `Q = I²·R + I·T·κ` — non-negative Joule
/// term plus the sign-changing entropic term.
#[inline]
pub fn cell_heat(current: f64, resistance: f64, temperature: f64, entropy_coefficient: f64) -> f64 {
    let joule = current * current * resistance;
    let entropic = current * temperature * entropy_coefficient;
    joule + entropic
}

/// Coulomb-counter decrement for one step (Eq. 1): `ΔSoC = I·dt/C_eff`
/// against the effective capacity in coulombs. The caller subtracts and
/// clamps.
#[inline]
pub fn soc_decrement(current: f64, dt: f64, capacity_coulombs: f64) -> f64 {
    current * dt / capacity_coulombs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_root_reproduces_the_request() {
        let (voc, r) = (350.0_f64, 0.06);
        let i = pack_current(voc, r, 50_000.0).expect("feasible");
        let delivered = voc * i - r * i * i;
        assert!((delivered - 50_000.0).abs() < 1e-6, "P = {delivered}");
    }

    #[test]
    fn past_the_vertex_is_none() {
        let (voc, r) = (350.0_f64, 0.06);
        let peak = voc * voc / (4.0 * r);
        assert!(pack_current(voc, r, peak * 1.01).is_none());
        assert!(pack_current(voc, r, peak * 0.99).is_some());
    }

    #[test]
    fn heat_joule_term_dominates_at_high_current() {
        let q = cell_heat(10.0_f64, 0.05, 298.15, -0.1e-3);
        let joule = 10.0 * 10.0 * 0.05;
        assert!((q - joule).abs() / joule < 0.2, "Q = {q}");
    }
}
