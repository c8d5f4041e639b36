//! DC/DC converter efficiency model for the OTEM HEES.
//!
//! Section II-C of the OTEM paper models each storage element's DC/DC
//! converter by a conversion-efficiency parameter `η_DC` that *degrades
//! as the element's voltage drops* — the mechanism that makes over-using
//! the ultracapacitor costly (its terminal voltage swings with √SoE,
//! Eq. 8) and that OTEM's cost function implicitly prices.
//!
//! Following the converter-aware power-management literature the paper
//! cites (Choi, Chang, Kim — TCAD 2007), losses decompose into a
//! quiescent term, a conduction term linear in current, and an ohmic term
//! quadratic in current:
//!
//! `P_loss(P, V) = P_0 + k_i·I + k_r·I²`, with `I = P/V`.
//!
//! Lower storage voltage ⇒ higher current for the same power ⇒ more loss.
//!
//! # Examples
//!
//! ```
//! use otem_converter::DcDcConverter;
//! use otem_units::{Volts, Watts};
//!
//! # fn main() -> Result<(), otem_converter::ConverterError> {
//! let dc = DcDcConverter::ultracap_side();
//! let full = dc.efficiency(Watts::new(10_000.0), Volts::new(16.0))?;
//! let sagged = dc.efficiency(Watts::new(10_000.0), Volts::new(8.0))?;
//! assert!(full > sagged); // voltage swing costs efficiency
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod converter;
mod error;
mod kernel;

pub use converter::DcDcConverter;
pub use error::ConverterError;
