//! Projected Levenberg–Marquardt Gauss-Newton for box-constrained
//! nonlinear least-squares-dominated objectives.
//!
//! The first-order spectral method ([`crate::ProjectedGradient`]) pays
//! one gradient per iteration and needs many iterations on
//! ill-conditioned terrain. When the objective exposes a Gauss-Newton
//! curvature matrix `H ≈ 2·JᵀJ` (the [`CurvatureObjective`] trait — for
//! the MPC rollout it is assembled from the *same* adjoint tape as the
//! gradient, at no extra rollouts), a damped Newton step
//!
//! ```text
//! (H + λ·D) p = −∇f,   D = diag(max(Hᵢᵢ, σ))
//! ```
//!
//! cuts the iteration count dramatically: λ is adapted Levenberg–
//! Marquardt-style (shrink after a full accepted step, grow ×10 on
//! rejection or factorisation failure), and σ is a Barzilai–Borwein
//! curvature estimate `sᵀy/sᵀs` that keeps the damping scale sensible in
//! directions where the Gauss-Newton matrix is singular or zero (there
//! the method degrades gracefully to a damped spectral gradient step
//! instead of producing non-finite steps). Steps are projected onto the
//! box and safeguarded by monotone Armijo backtracking; convergence is
//! declared on the same projected-gradient infinity norm as
//! [`crate::ProjectedGradient`], so the two solvers are directly
//! comparable iteration-for-iteration.

use crate::bounds::Bounds;
use crate::clock::Deadline;
use crate::objective::Objective;
use crate::solution::{Solution, SolverOutcome};
use otem_telemetry::{span, Event, NullSink, Sink};
use serde::{Deserialize, Serialize};

/// An objective that can produce its Gauss-Newton curvature matrix
/// alongside the gradient — typically from one shared evaluation pass
/// (for the MPC rollout objective: one taped rollout, one backward
/// sweep for `∇f`, one forward sensitivity sweep over the same tape for
/// `H`).
pub trait CurvatureObjective: Objective {
    /// Writes `∇f(x)` into `grad` and the Gauss-Newton curvature
    /// approximation into `hess` (row-major `n × n`, symmetric positive
    /// semi-definite; for `f = Σ wᵢ rᵢ²` it is `2·Σ wᵢ ∇rᵢ∇rᵢᵀ`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `grad.len() != x.len()` or
    /// `hess.len() != x.len()²`.
    fn gradient_and_curvature(&self, x: &[f64], grad: &mut [f64], hess: &mut [f64]);
}

impl<T: CurvatureObjective + ?Sized> CurvatureObjective for &T {
    fn gradient_and_curvature(&self, x: &[f64], grad: &mut [f64], hess: &mut [f64]) {
        (**self).gradient_and_curvature(x, grad, hess);
    }
}

/// Projected Levenberg–Marquardt Gauss-Newton solver.
///
/// Shares the convergence criterion (projected-gradient infinity norm)
/// and telemetry shape (one [`Event::SolverIteration`] per outer
/// iteration, one [`Event::GradientEval`] per curvature evaluation)
/// with [`crate::ProjectedGradient`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaussNewton {
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the projected-gradient infinity norm.
    pub tolerance: f64,
    /// Armijo sufficient-decrease parameter for the projected line
    /// search.
    pub armijo: f64,
    /// Initial Levenberg–Marquardt damping.
    pub lambda_init: f64,
    /// Lower damping safeguard (a floor keeps the factorisation
    /// positive definite even with a singular curvature matrix).
    pub lambda_min: f64,
    /// Upper damping safeguard; exceeding it means no acceptable step
    /// exists at any trust radius and the solve reports
    /// [`SolverOutcome::Stalled`].
    pub lambda_max: f64,
    /// Relative function-decrease floor (MINPACK-style `ftol`). When a
    /// projected line search fails *and* the linear model of the full
    /// damped step promises a decrease below `ftol · |f|`, the
    /// objective is flat at float resolution along every remaining
    /// direction the model can produce, and the solve reports
    /// [`SolverOutcome::Converged`] instead of escalating damping
    /// toward a spurious stall.
    pub ftol: f64,
}

impl Default for GaussNewton {
    fn default() -> Self {
        Self {
            max_iterations: 400,
            tolerance: 1e-8,
            armijo: 1e-4,
            lambda_init: 1e-3,
            lambda_min: 1e-12,
            lambda_max: 1e10,
            ftol: 1e-12,
        }
    }
}

impl GaussNewton {
    /// Minimises `f` over the box from the starting point `x0`
    /// (projected into the box first).
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.len()`.
    pub fn minimize<F: CurvatureObjective + ?Sized>(
        &self,
        f: &F,
        bounds: &Bounds,
        x0: &[f64],
    ) -> Solution {
        self.minimize_within(f, bounds, x0, &NullSink, None)
    }

    /// The full entry point: telemetry plus an optional [`Deadline`].
    /// Deadline semantics match
    /// [`ProjectedGradient::minimize_within`](crate::ProjectedGradient::minimize_within):
    /// polled once per outer iteration after the convergence check; on
    /// expiry the best iterate seen so far is returned with
    /// [`SolverOutcome::DeadlineReached`] (for a zero budget, the
    /// projected warm start with `iterations == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.len()`.
    pub fn minimize_within<F: CurvatureObjective + ?Sized>(
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
        let mut hess = vec![0.0; n * n];
        let mut value = f.value(&x);
        if !value.is_finite() {
            return Solution::new(x, value, 0, SolverOutcome::NonFinite);
        }
        let eval_pair = |x: &[f64], grad: &mut [f64], hess: &mut [f64]| {
            let _grad_span = span(sink, "gradient");
            f.gradient_and_curvature(x, grad, hess);
            sink.record(Event::GradientEval {
                dim: grad.len() as u64,
            });
        };
        eval_pair(&x, &mut grad, &mut hess);
        if !finite(&grad) || !finite(&hess) {
            return Solution::new(x, value, 0, SolverOutcome::NonFinite);
        }

        // BB curvature estimate for the damping scale; seeded like the
        // spectral method's initial step (1 / σ).
        let mut sigma = grad.iter().map(|g| g.abs()).fold(1e-12, f64::max);
        let mut lambda = self.lambda_init;
        let mut factor = vec![0.0; n * n];
        let mut p = vec![0.0; n];
        let mut p_free = vec![0.0; n];
        let mut free: Vec<usize> = Vec::with_capacity(n);
        let mut trial = vec![0.0; n];
        let mut s = vec![0.0; n];
        let mut grad_prev = vec![0.0; n];

        for iter in 0..self.max_iterations {
            let _iter_span = span(sink, "iteration");
            let pg_norm = (0..n)
                .map(|i| {
                    let t = (x[i] - grad[i]).clamp(bounds.lower()[i], bounds.upper()[i]);
                    (t - x[i]).abs()
                })
                .fold(0.0, f64::max);
            sink.record(Event::SolverIteration {
                iteration: iter as u64,
                value,
                residual: pg_norm,
                step: lambda,
            });
            if pg_norm < self.tolerance {
                return Solution::new(x, value, iter, SolverOutcome::Converged);
            }
            if deadline.is_some_and(|d| d.expired()) {
                return Solution::new(x, value, iter, SolverOutcome::DeadlineReached);
            }

            // Bertsekas-style active-set reduction: coordinates pinned
            // at a bound with the gradient pushing outward stay pinned
            // for this iteration and leave the Newton system. Without
            // this, a clipped full-space Newton direction need not be a
            // descent direction and the projected line search stalls.
            // (Projection clamps exactly onto the bound, so the at-bound
            // test is an exact comparison.)
            free.clear();
            for i in 0..n {
                let at_lo = x[i] <= bounds.lower()[i] && grad[i] > 0.0;
                let at_hi = x[i] >= bounds.upper()[i] && grad[i] < 0.0;
                if !(at_lo || at_hi) {
                    free.push(i);
                }
            }
            // Every pinned coordinate contributes zero to the projected
            // gradient, so a non-converged iterate has free coordinates.
            let nf = free.len();
            debug_assert!(nf > 0);

            // Factor the free block of H + λ·D, escalating λ until the
            // Cholesky succeeds (it must eventually: D is strictly
            // positive, so large λ dominates any PSD H short of
            // non-finite entries).
            loop {
                for (r, &fi) in free.iter().enumerate() {
                    for (c, &fj) in free.iter().enumerate() {
                        factor[r * nf + c] = hess[fi * n + fj];
                    }
                    factor[r * nf + r] += lambda * hess[fi * n + fi].max(sigma);
                }
                if cholesky_in_place(&mut factor, nf) {
                    break;
                }
                lambda *= 10.0;
                if !lambda.is_finite() || lambda > self.lambda_max {
                    return Solution::new(x, value, iter, SolverOutcome::Stalled);
                }
            }
            for (r, &fi) in free.iter().enumerate() {
                p_free[r] = -grad[fi];
            }
            cholesky_solve(&factor, nf, &mut p_free[..nf]);
            p.fill(0.0);
            for (r, &fi) in free.iter().enumerate() {
                p[fi] = p_free[r];
            }

            // Projected backtracking along x + α·p, monotone Armijo.
            let line_search = span(sink, "line_search");
            let mut alpha = 1.0;
            let mut accepted = false;
            let mut full_step = false;
            let mut f_trial = value;
            let mut decrease0 = 0.0;
            for ls_iter in 0..30 {
                for i in 0..n {
                    trial[i] = x[i] + alpha * p[i];
                }
                bounds.project(&mut trial);
                let decrease: f64 = (0..n).map(|i| grad[i] * (x[i] - trial[i])).sum();
                if ls_iter == 0 {
                    decrease0 = decrease;
                }
                f_trial = f.value(&trial);
                if f_trial.is_finite()
                    && decrease > 0.0
                    && f_trial <= value - self.armijo * decrease
                {
                    accepted = true;
                    full_step = ls_iter == 0;
                    break;
                }
                alpha *= 0.5;
            }
            line_search.close();
            if !accepted {
                // No acceptable point at this trust radius. Classify a
                // near-tolerance stall as convergence — the same
                // convention [`crate::ProjectedGradient`] applies when
                // its line search exhausts float resolution — otherwise
                // shrink the trust radius (grow λ) and retry from the
                // same iterate.
                if pg_norm < self.tolerance * 100.0 {
                    return Solution::new(x, value, iter, SolverOutcome::Converged);
                }
                // No certifiable descent at float resolution: if even
                // the *linear* model of the full damped step promises
                // less than `ftol·|f|`, every shorter backtrack promises
                // strictly less, and the promise is already below the
                // ULP of the objective — further λ escalation only
                // shrinks it. This is MINPACK-style ftol termination.
                if decrease0.max(0.0) <= self.ftol * value.abs() {
                    return Solution::new(x, value, iter, SolverOutcome::Converged);
                }
                lambda *= 10.0;
                if !lambda.is_finite() || lambda > self.lambda_max {
                    return Solution::new(x, value, iter, SolverOutcome::Stalled);
                }
                continue;
            }

            // Trust management on the actual-vs-predicted reduction
            // ratio (classic Levenberg–Marquardt): only an accurate
            // quadratic model earns a smaller λ; a poor one raises it
            // even though the (monotone) step is kept. This is what
            // keeps the method stable when the Gauss-Newton matrix
            // misses real curvature — λ settles at the level where the
            // model can be trusted instead of oscillating between pure
            // Newton overshoot and full rejection.
            let mut sts = 0.0;
            let mut gts = 0.0;
            let mut sths = 0.0;
            for i in 0..n {
                s[i] = trial[i] - x[i];
                sts += s[i] * s[i];
                gts += grad[i] * s[i];
            }
            for i in 0..n {
                let hs: f64 = (0..n).map(|j| hess[i * n + j] * s[j]).sum();
                sths += s[i] * hs;
            }
            let predicted = -(gts + 0.5 * sths);
            let rho = if predicted > 0.0 {
                (value - f_trial) / predicted
            } else {
                0.0
            };
            grad_prev.copy_from_slice(&grad);
            x.copy_from_slice(&trial);
            value = f_trial;
            eval_pair(&x, &mut grad, &mut hess);
            if !finite(&grad) || !finite(&hess) {
                return Solution::new(x, value, iter + 1, SolverOutcome::NonFinite);
            }
            let mut sty = 0.0;
            for i in 0..n {
                sty += s[i] * (grad[i] - grad_prev[i]);
            }
            if sts > 0.0 && sty > 0.0 {
                sigma = (sty / sts).clamp(1e-12, 1e12);
            }
            if rho > 0.75 && full_step {
                lambda = (lambda / 3.0).max(self.lambda_min);
            } else if rho < 0.25 {
                lambda = (lambda * 2.0).min(self.lambda_max);
            }
        }
        Solution::new(
            x,
            value,
            self.max_iterations,
            SolverOutcome::BudgetExhausted,
        )
    }
}

fn finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// In-place Cholesky `A = L·Lᵀ` of a row-major symmetric matrix (lower
/// triangle written, upper left stale). Returns `false` — leaving the
/// buffer partially factored — if a pivot is non-positive or non-finite,
/// which the caller treats as "raise the damping and retry".
fn cholesky_in_place(a: &mut [f64], n: usize) -> bool {
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if sum <= 1e-300 || !sum.is_finite() {
                    return false;
                }
                a[i * n + i] = sum.sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    true
}

/// Solves `L·Lᵀ·x = b` in place given the factor from
/// [`cholesky_in_place`].
fn cholesky_solve(l: &[f64], n: usize, b: &mut [f64]) {
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * b[k];
        }
        b[i] = sum / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * b[k];
        }
        b[i] = sum / l[i * n + i];
    }
}

/// A dense linear least-squares objective
/// `f(x) = Σᵢ (aᵢᵀx − bᵢ)²` with its exact Gauss-Newton pair
/// (`∇f = 2Aᵀ(Ax − b)`, `H = 2AᵀA` — exact, since the residuals are
/// linear). The synthetic rig for the Gauss-Newton parity suite, also
/// handy as a reference [`CurvatureObjective`] implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLeastSquares {
    cols: usize,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl DenseLeastSquares {
    /// Builds the objective from a row-major `rows × cols` matrix `a`
    /// and a `rows`-vector `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len()` is not a multiple of `cols` or `b` does not
    /// match the row count.
    pub fn new(cols: usize, a: Vec<f64>, b: Vec<f64>) -> Self {
        assert!(cols > 0, "cols must be positive");
        assert_eq!(a.len() % cols, 0, "matrix shape mismatch");
        assert_eq!(a.len() / cols, b.len(), "rhs length mismatch");
        Self { cols, a, b }
    }

    fn residual(&self, x: &[f64], row: usize) -> f64 {
        let a = &self.a[row * self.cols..(row + 1) * self.cols];
        a.iter().zip(x).map(|(ai, xi)| ai * xi).sum::<f64>() - self.b[row]
    }
}

impl Objective for DenseLeastSquares {
    fn value(&self, x: &[f64]) -> f64 {
        (0..self.b.len()).map(|r| self.residual(x, r).powi(2)).sum()
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        grad.fill(0.0);
        for r in 0..self.b.len() {
            let res = self.residual(x, r);
            let a = &self.a[r * self.cols..(r + 1) * self.cols];
            for (g, ai) in grad.iter_mut().zip(a) {
                *g += 2.0 * res * ai;
            }
        }
    }
}

impl CurvatureObjective for DenseLeastSquares {
    fn gradient_and_curvature(&self, x: &[f64], grad: &mut [f64], hess: &mut [f64]) {
        self.gradient(x, grad);
        hess.fill(0.0);
        let n = self.cols;
        for r in 0..self.b.len() {
            let a = &self.a[r * n..(r + 1) * n];
            for i in 0..n {
                for j in 0..n {
                    hess[i * n + j] += 2.0 * a[i] * a[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Deadline, VirtualClock};
    use crate::projected::ProjectedGradient;

    /// A diagonal bowl `Σ sᵢ(xᵢ − cᵢ)²` as a least-squares system.
    fn bowl(scales: &[f64], center: &[f64]) -> DenseLeastSquares {
        let n = scales.len();
        let mut a = vec![0.0; n * n];
        let mut b = vec![0.0; n];
        for i in 0..n {
            a[i * n + i] = scales[i].sqrt();
            b[i] = scales[i].sqrt() * center[i];
        }
        DenseLeastSquares::new(n, a, b)
    }

    #[test]
    fn quadratic_bowl_matches_projected_gradient_in_fewer_iterations() {
        let f = bowl(&[1.0, 4.0, 9.0], &[0.3, -0.7, 0.5]);
        let bounds = Bounds::uniform(3, -2.0, 2.0);
        let x0 = [1.5, 1.5, -1.5];
        let gn = GaussNewton::default().minimize(&f, &bounds, &x0);
        let pg = ProjectedGradient::default().minimize(&f, &bounds, &x0);
        assert_eq!(gn.outcome, SolverOutcome::Converged, "{gn:?}");
        assert_eq!(pg.outcome, SolverOutcome::Converged, "{pg:?}");
        for (a, b) in gn.x.iter().zip(&pg.x) {
            assert!((a - b).abs() < 1e-7, "minimisers diverge: {gn:?} vs {pg:?}");
        }
        assert!(
            gn.iterations < pg.iterations,
            "GN took {} iterations, PG {}",
            gn.iterations,
            pg.iterations
        );
    }

    #[test]
    fn ill_conditioned_valley_converges_far_faster_than_first_order() {
        // Condition number 1e4: spectral descent grinds, Newton does not.
        let f = bowl(&[1.0, 100.0, 10_000.0], &[0.9, -0.4, 0.2]);
        let bounds = Bounds::uniform(3, -1.0, 1.0);
        let x0 = [-0.8, 0.8, -0.8];
        let gn = GaussNewton::default().minimize(&f, &bounds, &x0);
        let pg = ProjectedGradient::default().minimize(&f, &bounds, &x0);
        assert_eq!(gn.outcome, SolverOutcome::Converged, "{gn:?}");
        for (a, want) in gn.x.iter().zip([0.9, -0.4, 0.2]) {
            assert!((a - want).abs() < 1e-8, "{gn:?}");
        }
        assert!(
            gn.iterations < pg.iterations,
            "GN {} vs PG {}",
            gn.iterations,
            pg.iterations
        );
    }

    #[test]
    fn clamp_active_corner_is_found_and_agrees_with_projected_gradient() {
        // Unconstrained minimiser (3, -2) lies outside the unit box; both
        // solvers must land on the active-set corner (1, -1).
        let f = bowl(&[50.0, 1.0], &[3.0, -2.0]);
        let bounds = Bounds::uniform(2, -1.0, 1.0);
        let gn = GaussNewton::default().minimize(&f, &bounds, &[0.0, 0.0]);
        let pg = ProjectedGradient::default().minimize(&f, &bounds, &[0.0, 0.0]);
        assert_eq!(gn.outcome, SolverOutcome::Converged, "{gn:?}");
        assert!((gn.x[0] - 1.0).abs() < 1e-8 && (gn.x[1] + 1.0).abs() < 1e-8);
        for (a, b) in gn.x.iter().zip(&pg.x) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn singular_curvature_falls_back_gracefully() {
        // Rank-1 system in 2 variables: JᵀJ is singular; the σ-floored
        // damping must keep every step finite and still reach a
        // minimiser of the (flat-valley) objective.
        let f = DenseLeastSquares::new(2, vec![1.0, 1.0], vec![1.0]);
        let bounds = Bounds::uniform(2, -2.0, 2.0);
        let gn = GaussNewton::default().minimize(&f, &bounds, &[1.5, -1.8]);
        assert!(gn.x.iter().all(|v| v.is_finite()), "{gn:?}");
        assert!(gn.value < 1e-12, "residual not eliminated: {gn:?}");
        assert!((gn.x[0] + gn.x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_residual_start_converges_immediately() {
        // Starting exactly at the minimiser: gradient is zero, the
        // solver must declare convergence at iteration 0 without a step.
        let f = bowl(&[2.0, 3.0], &[0.25, -0.5]);
        let gn = GaussNewton::default().minimize(&f, &Bounds::uniform(2, -1.0, 1.0), &[0.25, -0.5]);
        assert_eq!(gn.outcome, SolverOutcome::Converged);
        assert_eq!(gn.iterations, 0);
    }

    #[test]
    fn non_finite_objective_is_surfaced_structurally() {
        struct Bad;
        impl std::fmt::Debug for Bad {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("Bad")
            }
        }
        impl Objective for Bad {
            fn value(&self, _: &[f64]) -> f64 {
                f64::NAN
            }
        }
        impl CurvatureObjective for Bad {
            fn gradient_and_curvature(&self, _: &[f64], g: &mut [f64], h: &mut [f64]) {
                g.fill(0.0);
                h.fill(0.0);
            }
        }
        let gn = GaussNewton::default().minimize(&Bad, &Bounds::uniform(1, -1.0, 1.0), &[0.5]);
        assert_eq!(gn.outcome, SolverOutcome::NonFinite);
        assert_eq!(gn.iterations, 0);
        assert!(gn.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_budget_deadline_returns_projected_warm_start() {
        let f = bowl(&[1.0, 1.0], &[5.0, -5.0]);
        let clock = VirtualClock::new();
        let deadline = Deadline::after(&clock, 0);
        let gn = GaussNewton::default().minimize_within(
            &f,
            &Bounds::uniform(2, -1.0, 1.0),
            &[3.0, 0.5],
            &NullSink,
            Some(&deadline),
        );
        assert_eq!(gn.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(gn.iterations, 0);
        assert_eq!(gn.x, vec![1.0, 0.5]);
        assert!(gn.value.is_finite());
    }

    #[test]
    fn deadline_runs_are_bit_identical() {
        let f = bowl(&[1.0, 100.0, 10_000.0], &[0.9, -0.4, 0.2]);
        let bounds = Bounds::uniform(3, -1.0, 1.0);
        let run = || {
            let clock = VirtualClock::with_tick(1);
            let deadline = Deadline::after(&clock, 3);
            GaussNewton::default().minimize_within(
                &f,
                &bounds,
                &[-0.8, 0.8, -0.8],
                &NullSink,
                Some(&deadline),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(
            a.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn observed_solve_traces_every_iteration() {
        use otem_telemetry::MemorySink;
        let f = bowl(&[1.0, 100.0], &[0.3, -0.3]);
        let sink = MemorySink::new();
        let gn = GaussNewton::default().minimize_within(
            &f,
            &Bounds::uniform(2, -1.0, 1.0),
            &[0.9, 0.9],
            &sink,
            None,
        );
        assert_eq!(gn.outcome, SolverOutcome::Converged);
        // One iteration event per outer iteration plus the terminal one;
        // rejected trust radii re-run the iteration counter, so the
        // event count is at least that.
        assert!(sink.count_kind("solver_iteration") > gn.iterations);
        assert!(sink.count_kind("gradient_eval") >= 1);
    }

    #[test]
    fn cholesky_round_trips_a_spd_system() {
        // A = Lᵀ·L for L = [[2,0],[1,3]] → A = [[4,2],[2,10]].
        let mut a = vec![4.0, 2.0, 2.0, 10.0];
        assert!(cholesky_in_place(&mut a, 2));
        let mut b = vec![8.0, 26.0]; // A·[1,2]ᵀ + ... solve for known rhs
        cholesky_solve(&a, 2, &mut b);
        // A·x = [8,26] → x = [1, 2.4]: 4x+2y=8, 2x+10y=26 → y=2.4? check:
        // from first: 2x + y = 4; second: x + 5y = 13 → x = 4 - ... solve:
        // x = (4 - y/1)/... direct: x = (8 - 2y)/4; 2(8-2y)/4 + 10y = 26
        // → 4 - y + 10y = 26 → 9y = 22 → y = 22/9, x = (8 - 44/9)/4 = 7/9.
        assert!((b[0] - 7.0 / 9.0).abs() < 1e-12, "{b:?}");
        assert!((b[1] - 22.0 / 9.0).abs() < 1e-12, "{b:?}");
    }

    #[test]
    fn indefinite_matrix_is_rejected_by_the_factorisation() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        assert!(!cholesky_in_place(&mut a, 2));
    }
}
