//! Projected Barzilai–Borwein spectral gradient descent for
//! box-constrained smooth minimisation — the workhorse behind the OTEM
//! MPC's per-step solve.

use crate::bounds::Bounds;
use crate::clock::Deadline;
use crate::objective::Objective;
use crate::solution::{Solution, SolverOutcome};
use otem_telemetry::{span, Event, NullSink, Sink};
use serde::{Deserialize, Serialize};

/// Projected spectral (Barzilai–Borwein) gradient method with a
/// non-monotone Armijo safeguard (Birgin–Martínez–Raydan SPG).
///
/// Robust on the moderately ill-conditioned, smooth, box-constrained
/// problems the MPC transcription produces, with no linear algebra
/// beyond dot products.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProjectedGradient {
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the projected-gradient infinity norm.
    pub tolerance: f64,
    /// Armijo sufficient-decrease parameter.
    pub armijo: f64,
    /// History window for the non-monotone line search.
    pub memory: usize,
    /// Safeguards on the BB step length.
    pub step_min: f64,
    /// Upper safeguard on the BB step length.
    pub step_max: f64,
}

impl Default for ProjectedGradient {
    fn default() -> Self {
        Self {
            max_iterations: 400,
            tolerance: 1e-8,
            armijo: 1e-4,
            memory: 8,
            step_min: 1e-12,
            step_max: 1e10,
        }
    }
}

impl ProjectedGradient {
    /// Minimises `f` over the box from the starting point `x0`
    /// (projected into the box first).
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.len()`.
    pub fn minimize<F: Objective + ?Sized>(&self, f: &F, bounds: &Bounds, x0: &[f64]) -> Solution {
        self.minimize_within(f, bounds, x0, &NullSink, None)
    }

    /// The full entry point: [`ProjectedGradient::minimize`] with
    /// telemetry and an optional [`Deadline`].
    ///
    /// Emits one [`Event::SolverIteration`] per outer iteration and one
    /// [`Event::GradientEval`] per gradient evaluation into `sink`;
    /// observation only, so the iterates are bit-identical for any sink.
    /// The deadline is polled once per outer iteration, *after* the
    /// convergence check (meeting tolerance on the deadline iteration
    /// still reports [`SolverOutcome::Converged`]); on expiry the best
    /// iterate seen so far is returned with
    /// [`SolverOutcome::DeadlineReached`] — always finite and inside the
    /// box, and for a zero budget exactly the projected warm start with
    /// `iterations == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.len()`.
    pub fn minimize_within<F: Objective + ?Sized>(
        &self,
        f: &F,
        bounds: &Bounds,
        x0: &[f64],
        sink: &dyn Sink,
        deadline: Option<&Deadline<'_>>,
    ) -> Solution {
        assert_eq!(x0.len(), bounds.len(), "start/bounds dimension mismatch");
        let n = x0.len();
        let mut x = x0.to_vec();
        bounds.project(&mut x);

        let mut grad = vec![0.0; n];
        let mut value = f.value(&x);
        if !value.is_finite() {
            // Corrupt problem data (e.g. a NaN in the forecast window):
            // surface it structurally instead of silently stalling.
            return Solution::new(x, value, 0, SolverOutcome::NonFinite);
        }
        let gradient = |x: &[f64], grad: &mut [f64]| {
            let _grad_span = span(sink, "gradient");
            f.gradient(x, grad);
            sink.record(Event::GradientEval {
                dim: grad.len() as u64,
            });
        };
        gradient(&x, &mut grad);
        if grad.iter().any(|g| !g.is_finite()) {
            return Solution::new(x, value, 0, SolverOutcome::NonFinite);
        }

        let mut history = std::collections::VecDeque::with_capacity(self.memory);
        history.push_back(value);

        let mut step = 1.0 / grad.iter().map(|g| g.abs()).fold(1e-12, f64::max);
        let mut x_prev = x.clone();
        let mut grad_prev = grad.clone();
        // Line-search trial point, allocated once for the whole solve —
        // the backtracking loop below runs up to 40 times per iteration.
        let mut trial = vec![0.0; n];

        for iter in 0..self.max_iterations {
            let _iter_span = span(sink, "iteration");
            // Projected-gradient stationarity measure.
            let pg_norm = (0..n)
                .map(|i| {
                    let trial = (x[i] - grad[i]).clamp(bounds.lower()[i], bounds.upper()[i]);
                    (trial - x[i]).abs()
                })
                .fold(0.0, f64::max);
            sink.record(Event::SolverIteration {
                iteration: iter as u64,
                value,
                residual: pg_norm,
                step,
            });
            if pg_norm < self.tolerance {
                return Solution::new(x, value, iter, SolverOutcome::Converged);
            }
            // The deadline is polled after the convergence check so a
            // solve that meets tolerance exactly on the budget boundary
            // still reports success; `x` is the best accepted iterate
            // (the projected warm start at iter 0), so the anytime
            // contract — finite, in-box, no worse than the start —
            // holds by construction.
            if deadline.is_some_and(|d| d.expired()) {
                return Solution::new(x, value, iter, SolverOutcome::DeadlineReached);
            }

            // Trial point along the projected BB direction with
            // non-monotone backtracking.
            let f_ref = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut alpha = step.clamp(self.step_min, self.step_max);
            let mut accepted = false;
            let line_search = span(sink, "line_search");
            for _ in 0..40 {
                for i in 0..n {
                    trial[i] = x[i] - alpha * grad[i];
                }
                bounds.project(&mut trial);
                let decrease: f64 = (0..n).map(|i| grad[i] * (x[i] - trial[i])).sum();
                let f_trial = f.value(&trial);
                if f_trial <= f_ref - self.armijo * decrease.max(0.0) {
                    x_prev.copy_from_slice(&x);
                    grad_prev.copy_from_slice(&grad);
                    x.copy_from_slice(&trial);
                    value = f_trial;
                    accepted = true;
                    break;
                }
                alpha *= 0.5;
                if alpha < self.step_min {
                    break;
                }
            }
            line_search.close();
            if !accepted {
                // Line search stalled: accept the best known point,
                // reporting the iterations actually performed — not the
                // configured budget — and a structured reason.
                let outcome = if !value.is_finite() {
                    SolverOutcome::NonFinite
                } else if pg_norm < self.tolerance * 100.0 {
                    SolverOutcome::Converged
                } else {
                    SolverOutcome::Stalled
                };
                return Solution::new(x, value, iter, outcome);
            }

            gradient(&x, &mut grad);
            if history.len() == self.memory {
                history.pop_front();
            }
            history.push_back(value);

            // BB1 step from the last displacement pair.
            let mut sty = 0.0;
            let mut sts = 0.0;
            for i in 0..n {
                let s = x[i] - x_prev[i];
                let y = grad[i] - grad_prev[i];
                sty += s * y;
                sts += s * s;
            }
            step = if sty > 1e-300 {
                (sts / sty).clamp(self.step_min, self.step_max)
            } else {
                (step * 2.0).clamp(self.step_min, self.step_max)
            };
        }
        Solution::new(
            x,
            value,
            self.max_iterations,
            SolverOutcome::BudgetExhausted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;

    #[test]
    fn unconstrained_quadratic() {
        let f = FnObjective::new(|x: &[f64]| (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2));
        let sol = ProjectedGradient::default().minimize(&f, &Bounds::unbounded(2), &[5.0, 5.0]);
        assert!(sol.converged(), "{sol:?}");
        assert!((sol.x[0] - 1.0).abs() < 1e-5);
        assert!((sol.x[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn active_box_constraint() {
        // Minimum at x = 3 but box caps at 2.
        let f = FnObjective::new(|x: &[f64]| (x[0] - 3.0).powi(2));
        let sol = ProjectedGradient::default().minimize(&f, &Bounds::uniform(1, -1.0, 2.0), &[0.0]);
        assert!((sol.x[0] - 2.0).abs() < 1e-8, "{sol:?}");
    }

    #[test]
    fn rosenbrock_2d() {
        let f = FnObjective::new(|x: &[f64]| {
            100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2)
        });
        let solver = ProjectedGradient {
            max_iterations: 5000,
            tolerance: 1e-10,
            ..ProjectedGradient::default()
        };
        let sol = solver.minimize(&f, &Bounds::unbounded(2), &[-1.2, 1.0]);
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "{sol:?}");
        assert!((sol.x[1] - 1.0).abs() < 1e-4, "{sol:?}");
    }

    #[test]
    fn high_dimensional_convex() {
        let n = 50;
        let f = FnObjective::new(move |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 + 1.0) * (v - 0.5).powi(2))
                .sum()
        });
        let sol =
            ProjectedGradient::default().minimize(&f, &Bounds::uniform(n, 0.0, 1.0), &vec![0.0; n]);
        for (i, v) in sol.x.iter().enumerate() {
            assert!((v - 0.5).abs() < 1e-4, "coordinate {i} = {v}");
        }
    }

    #[test]
    fn starts_outside_box_are_projected() {
        let f = FnObjective::new(|x: &[f64]| x[0] * x[0]);
        let sol =
            ProjectedGradient::default().minimize(&f, &Bounds::uniform(1, -1.0, 1.0), &[50.0]);
        assert!(sol.x[0].abs() < 1e-8);
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let f = FnObjective::new(|x: &[f64]| {
            100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2)
        });
        let solver = ProjectedGradient {
            max_iterations: 3,
            tolerance: 1e-14,
            ..ProjectedGradient::default()
        };
        let sol = solver.minimize(&f, &Bounds::unbounded(2), &[-1.2, 1.0]);
        assert_eq!(sol.outcome, SolverOutcome::BudgetExhausted);
        assert!(!sol.converged());
        assert_eq!(sol.iterations, 3);
    }

    #[test]
    fn zero_iteration_budget_reports_starved_not_full_budget() {
        // A starved solve must report the iterations actually performed
        // (zero), not the configured budget.
        let f = FnObjective::new(|x: &[f64]| (x[0] - 1.0).powi(2));
        let solver = ProjectedGradient {
            max_iterations: 0,
            ..ProjectedGradient::default()
        };
        let sol = solver.minimize(&f, &Bounds::unbounded(1), &[5.0]);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.outcome, SolverOutcome::BudgetExhausted);
    }

    #[test]
    fn non_finite_objective_is_surfaced_structurally() {
        let f = FnObjective::new(|_: &[f64]| f64::NAN);
        let sol =
            ProjectedGradient::default().minimize(&f, &Bounds::uniform(2, -1.0, 1.0), &[0.5, 0.5]);
        assert_eq!(sol.outcome, SolverOutcome::NonFinite);
        assert_eq!(sol.iterations, 0);
        assert!(sol.value.is_nan());
        // The returned point is the projected start, still finite.
        assert!(sol.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_gradient_is_surfaced_structurally() {
        use crate::objective::FnObjectiveWithGrad;
        let f = FnObjectiveWithGrad::new(
            |x: &[f64]| x[0] * x[0],
            |_: &[f64], g: &mut [f64]| g.fill(f64::INFINITY),
        );
        let sol = ProjectedGradient::default().minimize(&f, &Bounds::uniform(1, -1.0, 1.0), &[0.5]);
        assert_eq!(sol.outcome, SolverOutcome::NonFinite);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let f = FnObjective::new(|x: &[f64]| x[0]);
        ProjectedGradient::default().minimize(&f, &Bounds::uniform(2, 0.0, 1.0), &[0.0]);
    }

    #[test]
    fn observed_solve_is_bit_identical_and_traces_every_iteration() {
        use otem_telemetry::MemorySink;
        let f = FnObjective::new(|x: &[f64]| {
            100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2)
        });
        let bounds = Bounds::uniform(2, -2.0, 2.0);
        let x0 = [-1.2, 1.0];
        let plain = ProjectedGradient::default().minimize(&f, &bounds, &x0);

        let sink = MemorySink::new();
        let observed = ProjectedGradient::default().minimize_within(&f, &bounds, &x0, &sink, None);
        assert_eq!(observed.iterations, plain.iterations);
        assert_eq!(observed.value.to_bits(), plain.value.to_bits());
        assert_eq!(
            observed.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            plain.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // One iteration event per outer iteration, plus the terminal
        // iteration that observed convergence before returning.
        assert_eq!(sink.count_kind("solver_iteration"), observed.iterations + 1);
        // One gradient per accepted iterate plus the initial gradient.
        assert_eq!(sink.count_kind("gradient_eval"), observed.iterations + 1);
    }

    #[test]
    fn zero_budget_deadline_returns_projected_warm_start() {
        use crate::clock::{Deadline, VirtualClock};
        // Interior optimum (x = 1), so the projected warm start x = 2 is
        // *not* a stationary point and a zero budget really does truncate.
        let f = FnObjective::new(|x: &[f64]| (x[0] - 1.0).powi(2));
        let clock = VirtualClock::new();
        let deadline = Deadline::after(&clock, 0);
        let sol = ProjectedGradient::default().minimize_within(
            &f,
            &Bounds::uniform(1, -1.0, 2.0),
            &[5.0],
            &otem_telemetry::NullSink,
            Some(&deadline),
        );
        assert_eq!(sol.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(sol.iterations, 0);
        // The returned point is the warm start projected into the box.
        assert_eq!(sol.x, vec![2.0]);
        assert!(sol.value.is_finite());
    }

    #[test]
    fn virtual_deadline_truncates_the_iterate_stream_deterministically() {
        use crate::clock::{Deadline, VirtualClock};
        let f = FnObjective::new(|x: &[f64]| {
            100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2)
        });
        let bounds = Bounds::uniform(2, -2.0, 2.0);
        let x0 = [-1.2, 1.0];
        let unbounded = ProjectedGradient::default().minimize(&f, &bounds, &x0);
        assert!(unbounded.iterations > 10, "rig must need many iterations");

        // One tick per clock read: `after` consumes the first read, and
        // the poll at iteration k reads `k + 1`, so a 5-tick budget
        // expires at iteration 4 — deterministically, every run.
        let run = || {
            let clock = VirtualClock::with_tick(1);
            let deadline = Deadline::after(&clock, 5);
            ProjectedGradient::default().minimize_within(
                &f,
                &bounds,
                &x0,
                &otem_telemetry::NullSink,
                Some(&deadline),
            )
        };
        let a = run();
        assert_eq!(a.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(a.iterations, 4);
        assert!(a.value <= f.value(&x0), "anytime iterate must not regress");
        let b = run();
        assert_eq!(
            a.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }

    #[test]
    fn convergence_beats_the_deadline_on_the_boundary_iteration() {
        use crate::clock::{Deadline, VirtualClock};
        // Converges at iteration 2 (two accepted BB steps); a budget of
        // 3 ticks expires exactly there, but the convergence check runs
        // first and must win.
        let f = FnObjective::new(|x: &[f64]| (x[0] - 1.0).powi(2));
        let clock = VirtualClock::with_tick(1);
        let deadline = Deadline::after(&clock, 3);
        let sol = ProjectedGradient::default().minimize_within(
            &f,
            &Bounds::unbounded(1),
            &[5.0],
            &otem_telemetry::NullSink,
            Some(&deadline),
        );
        assert_eq!(sol.outcome, SolverOutcome::Converged, "{sol:?}");
    }
}
