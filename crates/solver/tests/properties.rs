//! Property tests: solver invariants on randomly generated convex
//! problems with known solutions.

use otem_solver::{Bounds, FnObjective, ProjectedGradient};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn projected_gradient_solves_random_diagonal_qp(
        center in prop::collection::vec(-5.0..5.0f64, 2..10),
        scales in prop::collection::vec(0.1..50.0f64, 10),
        lo in -2.0..0.0f64,
        hi in 0.5..3.0f64,
    ) {
        let n = center.len();
        let c = center.clone();
        let s = scales[..n].to_vec();
        let f = FnObjective::new(move |x: &[f64]| {
            x.iter()
                .zip(c.iter().zip(&s))
                .map(|(&xi, (&ci, &si))| si * (xi - ci).powi(2))
                .sum()
        });
        let bounds = Bounds::uniform(n, lo, hi);
        let sol = ProjectedGradient::default().minimize(&f, &bounds, &vec![0.0; n]);
        // Optimum of a separable QP over a box is the clamped center.
        for (i, (xi, ci)) in sol.x.iter().zip(&center).enumerate() {
            let expect = ci.clamp(lo, hi);
            prop_assert!(
                (xi - expect).abs() < 1e-4,
                "x[{i}] = {xi} expected {expect}"
            );
        }
    }

    #[test]
    fn projected_gradient_reaches_the_unconstrained_optimum(
        center in prop::collection::vec(-3.0..3.0f64, 2..6),
    ) {
        let n = center.len();
        let c1 = center.clone();
        let f = FnObjective::new(move |x: &[f64]| {
            x.iter().zip(&c1).map(|(&xi, &ci)| (xi - ci).powi(2)).sum()
        });
        let sol = ProjectedGradient::default().minimize(&f, &Bounds::unbounded(n), &vec![0.0; n]);
        for (i, (xi, ci)) in sol.x.iter().zip(&center).enumerate() {
            prop_assert!((xi - ci).abs() < 1e-5, "x[{i}] = {xi} expected {ci}");
        }
    }

    #[test]
    fn solution_never_leaves_the_box(
        start in prop::collection::vec(-10.0..10.0f64, 4),
    ) {
        let f = FnObjective::new(|x: &[f64]| x.iter().map(|v| (v - 7.0).powi(2)).sum());
        let bounds = Bounds::uniform(4, -1.0, 1.0);
        let sol = ProjectedGradient::default().minimize(&f, &bounds, &start);
        prop_assert!(bounds.contains(&sol.x, 1e-12));
    }
}
