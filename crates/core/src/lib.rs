//! OTEM — Optimized Thermal and Energy Management for Hybrid Electrical
//! Energy Storage in Electric Vehicles.
//!
//! A from-scratch Rust reproduction of the DATE 2016 paper by
//! Vatanparvar and Al Faruque. The crate provides:
//!
//! * the **OTEM controller** ([`policy::Otem`]): a model-predictive
//!   controller that jointly manages the ultracapacitor utilisation and
//!   the active battery cooling system, maintaining the paper's *Thermal
//!   and Energy Budget* (TEB) — pre-charging the bank and/or pre-cooling
//!   the battery ahead of predicted power peaks (Section III,
//!   Algorithm 1);
//! * the three **state-of-the-art baselines** the paper compares against:
//!   the hard-wired parallel architecture ([`policy::Parallel`], \[15\]),
//!   a battery-only system with thermostatic active cooling
//!   ([`policy::ActiveCooling`], \[25\]), and the temperature-threshold
//!   dual architecture ([`policy::Dual`], \[16\]);
//! * a closed-loop **simulation engine** ([`Simulator`]) that drives any
//!   controller over a drive-cycle power trace and produces the metrics
//!   the paper's evaluation reports (battery capacity loss, HEES energy,
//!   average power, temperature traces).
//!
//! # Quickstart
//!
//! ```
//! use otem::{policy::Otem, Simulator, SystemConfig};
//! use otem_drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
//!
//! # fn main() -> Result<(), otem::OtemError> {
//! let config = SystemConfig::default();
//! let cycle = standard(StandardCycle::Nycc)?;
//! let trace = Powertrain::new(VehicleParams::midsize_ev())?.power_trace(&cycle);
//!
//! let mut controller = Otem::new(&config)?;
//! let result = Simulator::new(&config).run(&mut controller, &trace);
//! println!(
//!     "capacity loss {:.3e}, average power {:.1} kW",
//!     result.capacity_loss(),
//!     result.average_power().value() / 1000.0
//! );
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod adjoint;
pub mod analysis;
mod config;
mod controller;
mod error;
mod metrics;
pub mod mpc;
pub mod planner;
pub mod policy;
mod sim;
pub mod supervisor;

pub use config::SystemConfig;
pub use controller::{Controller, PlantFault, StepRecord, SystemState};
pub use error::OtemError;
pub use metrics::SimulationResult;
pub use sim::{RunCursor, RunTotals, Simulator};
pub use supervisor::{SupervisedOtem, SupervisorConfig};
