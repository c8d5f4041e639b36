//! A small dense nonlinear-programming toolkit for the OTEM MPC.
//!
//! The OTEM paper formulates its thermal/energy management as a nonlinear
//! program solved at every control step (Eq. 18–19) — in the authors'
//! setup by MATLAB's NLP machinery. This crate provides the equivalent
//! from scratch:
//!
//! * [`ProjectedGradient`] — Barzilai–Borwein spectral gradient descent
//!   projected onto box constraints (the MPC's solver for its
//!   single-shooting transcription),
//! * [`NumericalGradient`] — central finite differences for objectives
//!   without analytic gradients,
//! * [`Clock`] / [`Deadline`] — pluggable time sources for *anytime*
//!   solves: [`MonotonicClock`] in production, [`VirtualClock`] in tests
//!   (deadline behaviour becomes bit-reproducible).
//!
//! # Examples
//!
//! ```
//! use otem_solver::{Bounds, FnObjective, ProjectedGradient};
//!
//! // minimise (x-3)² + (y+1)² subject to x,y ∈ [0, 2]
//! let objective = FnObjective::new(|x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2));
//! let bounds = Bounds::uniform(2, 0.0, 2.0);
//! let solution = ProjectedGradient::default().minimize(&objective, &bounds, &[1.0, 1.0]);
//! assert!((solution.x[0] - 2.0).abs() < 1e-6);
//! assert!(solution.x[1].abs() < 1e-6);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bounds;
mod clock;
mod objective;
mod projected;
mod solution;

pub use bounds::Bounds;
pub use clock::{Clock, Deadline, MonotonicClock, VirtualClock};
pub use objective::{FnObjective, FnObjectiveWithGrad, NumericalGradient, Objective};
pub use projected::ProjectedGradient;
pub use solution::{Solution, SolverOutcome};
