//! NLP-solver micro-benchmarks on reference problems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use otem_solver::{Bounds, FnObjective, ProjectedGradient};
use std::hint::black_box;

fn rosenbrock(x: &[f64]) -> f64 {
    x.windows(2)
        .map(|w| 100.0 * (w[1] - w[0] * w[0]).powi(2) + (1.0 - w[0]).powi(2))
        .sum()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("rosenbrock");
    for n in [2usize, 10] {
        group.bench_with_input(BenchmarkId::new("projected_gradient", n), &n, |b, &n| {
            let f = FnObjective::new(rosenbrock);
            let bounds = Bounds::unbounded(n);
            b.iter(|| {
                black_box(ProjectedGradient::default().minimize(&f, &bounds, &vec![-1.2; n]))
            });
        });
    }
    group.finish();

    c.bench_function("box_qp_20d", |b| {
        let f = FnObjective::new(|x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| (i + 1) as f64 * (v - 0.7).powi(2))
                .sum()
        });
        let bounds = Bounds::uniform(20, 0.0, 0.5); // active at the bound
        b.iter(|| black_box(ProjectedGradient::default().minimize(&f, &bounds, &[0.0; 20])));
    });
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
