//! # OTEM — Optimized Thermal and Energy Management for EV Storage
//!
//! Workspace facade for the reproduction of *"OTEM: Optimized Thermal
//! and Energy Management for Hybrid Electrical Energy Storage in
//! Electric Vehicles"* (Vatanparvar & Al Faruque, DATE 2016).
//!
//! Each subsystem lives in its own crate; this facade re-exports them
//! under one roof for applications that want a single dependency:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`units`] | `otem-units` | physical-quantity newtypes |
//! | [`battery`] | `otem-battery` | Li-ion cell/pack models (Eq. 1–5) |
//! | [`ultracap`] | `otem-ultracap` | ultracapacitor bank (Eq. 6–9) |
//! | [`converter`] | `otem-converter` | DC/DC efficiency model |
//! | [`thermal`] | `otem-thermal` | cooling plant (Eq. 14–17) |
//! | [`hees`] | `otem-hees` | storage architectures (Eq. 10–13) |
//! | [`drivecycle`] | `otem-drivecycle` | cycles + power-train model |
//! | [`solver`] | `otem-solver` | NLP toolkit for the MPC |
//! | [`telemetry`] | `otem-telemetry` | structured events, metrics, sinks |
//! | [`control`] | `otem` | OTEM MPC, baselines, simulator, supervisor |
//! | [`faults`] | `otem-faults` | deterministic fault-injection harness |
//! | [`fleet`] | `otem-fleet` | fleet campaign engine + JSONL-over-TCP server |
//!
//! # Examples
//!
//! ```
//! use otem_repro::control::{policy::Dual, Simulator, SystemConfig};
//! use otem_repro::drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::default();
//! let cycle = standard(StandardCycle::Nycc)?;
//! let trace = Powertrain::new(VehicleParams::midsize_ev())?.power_trace(&cycle);
//! let mut dual = Dual::new(&config)?;
//! let result = Simulator::new(&config).run(&mut dual, &trace);
//! assert!(result.energy().value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub use otem as control;
pub use otem_battery as battery;
pub use otem_converter as converter;
pub use otem_drivecycle as drivecycle;
pub use otem_faults as faults;
pub use otem_fleet as fleet;
pub use otem_hees as hees;
pub use otem_solver as solver;
pub use otem_telemetry as telemetry;
pub use otem_thermal as thermal;
pub use otem_ultracap as ultracap;
pub use otem_units as units;
