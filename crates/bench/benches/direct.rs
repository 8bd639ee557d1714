//! Band-Cholesky benchmarks: factorization scaling (the O(N⁴) entry of
//! the complexity table) and the factor-cache ablation (DPBSV refactors
//! every call; our tuned solver caches one factor per (grid size,
//! operator)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use petamg_grid::Grid2d;
use petamg_linalg::{assemble_poisson_band, PoissonDirect};
use petamg_problems::StencilOp;
use petamg_solvers::{direct_solve_uncached, DirectSolverCache};
use std::hint::black_box;
use std::time::Duration;

fn bench_factorization(c: &mut Criterion) {
    let mut group = c.benchmark_group("band_cholesky_factor");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for n in [33usize, 65, 129] {
        let a = assemble_poisson_band(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.cholesky().expect("SPD")));
        });
    }
    group.finish();
}

fn bench_solve_with_cached_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("band_cholesky_solve");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [33usize, 65, 129] {
        let solver = PoissonDirect::new(n).expect("SPD");
        let b = Grid2d::from_fn(n, |i, j| ((i * 7 + j * 3) % 23) as f64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            let mut x = Grid2d::zeros(n);
            bench.iter(|| solver.solve(black_box(&mut x), &b));
        });
    }
    group.finish();
}

fn bench_cache_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: cached vs re-computed factorization.
    let mut group = c.benchmark_group("factor_cache_ablation_65");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let n = 65;
    let b = Grid2d::from_fn(n, |i, j| ((i * 7 + j * 3) % 23) as f64);
    let cache = DirectSolverCache::new();
    cache.warm_op(n, &StencilOp::Poisson);
    group.bench_function("cached", |bench| {
        let mut x = Grid2d::zeros(n);
        bench.iter(|| cache.solve_op(black_box(&mut x), &b, &StencilOp::Poisson));
    });
    group.bench_function("uncached_dpbsv_style", |bench| {
        let mut x = Grid2d::zeros(n);
        bench.iter(|| direct_solve_uncached(black_box(&mut x), &b));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_factorization,
    bench_solve_with_cached_factor,
    bench_cache_ablation
);
criterion_main!(benches);
