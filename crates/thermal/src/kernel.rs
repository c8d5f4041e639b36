//! Thermal step math.
//!
//! The Crank–Nicolson update of the coupled battery/coolant two-node
//! system (Eq. 14–17) as a plain `f64` function.
//! [`crate::ThermalModel::step_crank_nicolson`] delegates here; the
//! operation order is the contract the golden traces pin.

/// The physical constants of the two-node system, extracted from
/// `ThermalParams` at the current coolant flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConstants {
    /// Battery lump heat capacity `C_b` (J/K).
    pub cb: f64,
    /// Coolant lump heat capacity `C_c` (J/K).
    pub cc: f64,
    /// Battery↔coolant conductance `h` (W/K).
    pub h: f64,
    /// Coolant flow capacity `f = ṁ·c_p` (W/K).
    pub f: f64,
    /// Battery↔ambient conductance `h_a` (W/K).
    pub ha: f64,
    /// Ambient temperature `T_a` (K).
    pub t_ambient: f64,
}

/// One Crank–Nicolson step of `dx/dt = A·x + r` with `x = [T_b, T_c]`:
/// `(I − dt/2·A)·x⁺ = (I + dt/2·A)·x + dt·r`, solved by the explicit
/// 2×2 inverse. Returns the next `(T_b, T_c)` pair.
#[inline]
pub fn crank_nicolson(
    n: NodeConstants,
    xb: f64,
    xc: f64,
    battery_heat: f64,
    inlet: f64,
    dt: f64,
) -> (f64, f64) {
    let a11 = -(n.h + n.ha) / n.cb;
    let a12 = n.h / n.cb;
    let a21 = n.h / n.cc;
    let a22 = -(n.h + n.f) / n.cc;
    let r1 = (battery_heat + n.ha * n.t_ambient) / n.cb;
    let r2 = n.f * inlet / n.cc;

    let k = dt / 2.0;
    let m11 = 1.0 - k * a11;
    let m12 = -(k * a12);
    let m21 = -(k * a21);
    let m22 = 1.0 - k * a22;
    let b1 = xb + k * (a11 * xb + a12 * xc) + dt * r1;
    let b2 = xc + k * (a21 * xb + a22 * xc) + dt * r2;
    let det = m11 * m22 - m12 * m21;
    debug_assert!(det.abs() > 1e-12, "CN system became singular");
    ((b1 * m22 - b2 * m12) / det, (b2 * m11 - b1 * m21) / det)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constants() -> NodeConstants {
        NodeConstants {
            cb: 2.0e5,
            cc: 2.0e4,
            h: 500.0,
            f: 350.0,
            ha: 15.0,
            t_ambient: 298.15,
        }
    }

    #[test]
    fn heating_raises_the_battery_node() {
        let (tb, tc) = crank_nicolson(constants(), 298.15, 298.15, 2_000.0, 288.15, 1.0);
        assert!(tb > 298.15, "T_b = {tb}");
        assert!(tc < 298.15, "cold inlet pulls the coolant node down");
    }

    #[test]
    fn zero_step_is_identity() {
        let (tb, tc) = crank_nicolson(constants(), 305.0, 300.0, 5_000.0, 290.0, 0.0);
        assert_eq!(tb, 305.0);
        assert_eq!(tc, 300.0);
    }
}
