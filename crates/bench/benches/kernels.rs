//! Micro-benchmarks of the grid kernels across execution backends, plus
//! the grain-size ablation (the PetaBricks "block size" tunable).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use petamg_grid::{interpolate_add, residual, restrict_full_weighting, Exec, Grid2d};
use petamg_problems::StencilOp;
use petamg_solvers::sor_sweep_op;
use std::hint::black_box;
use std::time::Duration;

fn test_grids(n: usize) -> (Grid2d, Grid2d, Grid2d) {
    let x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0);
    let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
    let r = Grid2d::zeros(n);
    (x, b, r)
}

fn backends() -> Vec<(&'static str, Exec)> {
    vec![
        ("seq", Exec::seq()),
        ("pbrt2", Exec::pbrt(2)),
        ("rayon", Exec::rayon()),
    ]
}

fn bench_relax(c: &mut Criterion) {
    let mut group = c.benchmark_group("relax_sweep");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [129usize, 513] {
        let (x, b, _) = test_grids(n);
        group.throughput(Throughput::Elements(((n - 2) * (n - 2)) as u64));
        for (name, exec) in backends() {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
                let mut x = x.clone();
                bench
                    .iter(|| sor_sweep_op(&StencilOp::Poisson, black_box(&mut x), &b, 1.15, &exec));
            });
        }
    }
    group.finish();
}

fn bench_residual(c: &mut Criterion) {
    let mut group = c.benchmark_group("residual");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for n in [129usize, 513] {
        let (x, b, mut r) = test_grids(n);
        for (name, exec) in backends() {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
                bench.iter(|| residual(&x, &b, black_box(&mut r), &exec));
            });
        }
    }
    group.finish();
}

fn bench_transfers(c: &mut Criterion) {
    let mut group = c.benchmark_group("transfers");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let n = 513;
    let nc = (n - 1) / 2 + 1;
    let (fine, _, _) = test_grids(n);
    let mut coarse = Grid2d::zeros(nc);
    let exec = Exec::seq();
    group.bench_function("restrict_513", |bench| {
        bench.iter(|| restrict_full_weighting(&fine, black_box(&mut coarse), &exec));
    });
    let mut fine_out = Grid2d::zeros(n);
    group.bench_function("interpolate_513", |bench| {
        bench.iter(|| interpolate_add(&coarse, black_box(&mut fine_out), &exec));
    });
    group.finish();
}

fn bench_grain_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: grain size for parallel stencil sweeps.
    let mut group = c.benchmark_group("grain_ablation_relax_513");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    let n = 513;
    let (x, b, _) = test_grids(n);
    for grain in [1usize, 4, 16, 64, 256] {
        let exec = Exec::pbrt(2).with_grain(grain);
        group.bench_with_input(BenchmarkId::from_parameter(grain), &grain, |bench, _| {
            let mut x = x.clone();
            bench.iter(|| sor_sweep_op(&StencilOp::Poisson, black_box(&mut x), &b, 1.15, &exec));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_relax,
    bench_residual,
    bench_transfers,
    bench_grain_ablation
);
criterion_main!(benches);
