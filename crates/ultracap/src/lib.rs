//! Ultracapacitor bank model for the OTEM electric-vehicle simulator.
//!
//! Implements Section II-B of the OTEM paper (DATE 2016), Eq. 6–9:
//!
//! * energy capacity `E_cap = ½·C·V_r²`,
//! * terminal voltage `V_cap = V_r·√(SoE)` — the *voltage swing* that
//!   degrades DC/DC conversion efficiency when the bank is over-used,
//! * state-of-energy integration `SoE ← SoE − ∫ V·I / E_cap`.
//!
//! The paper omits the bank's internal resistance (≈ 2.2 mΩ per cell,
//! negligible) and its heat generation; so does this model, but an
//! optional series resistance is supported for sensitivity studies.
//!
//! # Examples
//!
//! ```
//! use otem_ultracap::{UltracapBank, UltracapParams};
//! use otem_units::{Farads, Ratio, Seconds, Volts, Watts};
//!
//! # fn main() -> Result<(), otem_ultracap::UltracapError> {
//! let mut bank = UltracapBank::new(UltracapParams::paper_bank(Farads::new(25_000.0)))?;
//! bank.set_soe(Ratio::from_percent(80.0));
//! let draw = bank.draw_power(Watts::new(15_000.0))?;
//! bank.integrate(draw, Seconds::new(1.0));
//! assert!(bank.soe() < Ratio::from_percent(80.0));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bank;
mod error;
mod kernel;
mod params;

pub use bank::{CapDraw, CapDrawPartials, UltracapBank};
pub use error::UltracapError;
pub use params::UltracapParams;
