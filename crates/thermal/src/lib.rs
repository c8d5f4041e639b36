//! Active battery cooling system for the OTEM simulator.
//!
//! Implements Section II-D of the OTEM paper (DATE 2016):
//!
//! * **Battery/coolant energy balance** (Eq. 14–15): both the battery
//!   cells and the coolant inside the pack are lumped by their heat
//!   capacities; the battery node receives the cells' internal heat
//!   `Q_b` and exchanges with the coolant through a conductance `h`; the
//!   coolant node additionally exchanges with the pumped inlet flow at
//!   temperature `T_i`.
//! * **Cooler power** (Eq. 16): `P_c = Ċ_c/η_c · (T_o − T_i)` — chilling
//!   the returned coolant below its outlet temperature costs power in
//!   proportion to the temperature drop.
//! * **Pump**: fixed flow rate ⇒ constant power while running.
//! * **Discretisation** (Eq. 17): Crank–Nicolson on the coupled linear
//!   two-node system (exactly the trapezoidal form the paper writes), with
//!   a forward-Euler alternative for the discretisation ablation.
//!
//! Architectures *without* active cooling (the Parallel \[15\] and Dual
//! \[16\] baselines) are modelled by zero coolant flow and a small passive
//! battery↔ambient conductance.
//!
//! # Examples
//!
//! ```
//! use otem_thermal::{ThermalModel, ThermalParams, ThermalState};
//! use otem_units::{Kelvin, Seconds, Watts};
//!
//! # fn main() -> Result<(), otem_thermal::ThermalError> {
//! let model = ThermalModel::new(ThermalParams::ev_pack())?;
//! let mut state = ThermalState::uniform(Kelvin::from_celsius(25.0));
//! // One second of 2 kW cell heating with 15 °C coolant coming in:
//! state = model.step_crank_nicolson(
//!     state,
//!     Watts::new(2_000.0),
//!     Kelvin::from_celsius(15.0),
//!     Seconds::new(1.0),
//! );
//! assert!(state.battery > Kelvin::from_celsius(24.9));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cooler;
mod error;
mod kernel;
mod model;
mod multi_node;
mod pump;

pub use cooler::{CoolerAction, CoolingPlant, PlantParams};
pub use error::ThermalError;
pub use model::{CrankNicolsonJacobian, ThermalModel, ThermalParams, ThermalState};
pub use multi_node::{MultiNodeModel, MultiNodeState};
pub use pump::VariableFlowPump;
