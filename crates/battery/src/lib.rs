//! Li-ion battery models for the OTEM electric-vehicle simulator.
//!
//! Implements Section II-A of the OTEM paper (DATE 2016):
//!
//! * **Electrical model** (Eq. 1–3): the cell is a variable voltage source
//!   `V_oc(SoC)` in series with an internal resistance `R(SoC, T)`; the
//!   state of charge integrates the drawn current over the rated capacity.
//! * **Heat generation** (Eq. 4): Joule loss across the internal
//!   resistance plus the entropic heat term `I·T·dV_oc/dT`.
//! * **Capacity-loss / lifetime model** (Eq. 5): an Arrhenius rate law in
//!   temperature with a power-law stress factor in discharge C-rate.
//!
//! Cells aggregate into a [`BatteryPack`] (series strings × parallel
//! groups) which exposes a *power* interface — given a terminal power
//! request it solves the implied current, terminal voltage, heat and
//! internal loss, which is what the HEES layer and the MPC need.
//!
//! # Examples
//!
//! ```
//! use otem_battery::{BatteryPack, CellParams, PackConfig};
//! use otem_units::{Kelvin, Ratio, Seconds, Watts};
//!
//! # fn main() -> Result<(), otem_battery::BatteryError> {
//! let mut pack = BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like())?;
//! let draw = pack.draw_power(Watts::new(30_000.0), Kelvin::from_celsius(25.0))?;
//! pack.integrate(draw, Seconds::new(1.0));
//! assert!(pack.soc() < Ratio::ONE);
//! assert!(draw.heat.value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod aging;
mod cell;
mod error;
mod estimator;
mod kernel;
mod pack;
mod params;
mod transient;

pub use aging::{AgingModel, AgingParams};
pub use cell::{Cell, CellSnapshot};
pub use error::BatteryError;
pub use estimator::{EkfConfig, SocEstimator};
pub use pack::{BatteryPack, DrawPartials, PackConfig, PackElectrical, PackSnapshot, PowerDraw};
pub use params::{CellParams, OcvCurve, ResistanceCurve, SlopeTable};
pub use transient::{RcPair, TransientCell};
