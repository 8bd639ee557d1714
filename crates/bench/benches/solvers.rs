//! Solver-level benchmarks and the paper's design-choice ablations:
//! SOR vs weighted Jacobi (§2.3), in-cycle ω choice (1.15), V vs W vs
//! FMG cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use petamg_core::accuracy::ratio_of_errors;
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_grid::{l2_diff, Exec, Grid2d};
use petamg_problems::StencilOp;
use petamg_solvers::{jacobi_sweep_op, sor_sweep_op, DirectSolverCache, MgConfig, ReferenceSolver};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycles_257");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let inst = ProblemInstance::random(8, Distribution::UnbiasedUniform, 1);
    let cache = Arc::new(DirectSolverCache::new());
    let v = ReferenceSolver::with_cache(MgConfig::default(), Arc::clone(&cache));
    let w = ReferenceSolver::with_cache(
        MgConfig {
            gamma: 2,
            ..MgConfig::default()
        },
        Arc::clone(&cache),
    );
    group.bench_function("vcycle", |bench| {
        let mut x = inst.working_grid();
        bench.iter(|| v.vcycle(black_box(&mut x), &inst.b));
    });
    group.bench_function("wcycle", |bench| {
        let mut x = inst.working_grid();
        bench.iter(|| w.vcycle(black_box(&mut x), &inst.b));
    });
    group.bench_function("fmg_pass", |bench| {
        let mut x = inst.working_grid();
        bench.iter(|| v.fmg(black_box(&mut x), &inst.b));
    });
    group.finish();
}

fn bench_sor_vs_jacobi(c: &mut Criterion) {
    // §2.3 ablation (per-sweep cost side; the error-reduction side is a
    // unit test in petamg-solvers): the two sweeps should cost about the
    // same, which is why error reduction decides the choice.
    let mut group = c.benchmark_group("relaxation_ablation_257");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let inst = ProblemInstance::random(8, Distribution::UnbiasedUniform, 2);
    let exec = Exec::seq();
    group.bench_function("sor_sweep", |bench| {
        let mut x = inst.working_grid();
        bench.iter(|| sor_sweep_op(&StencilOp::Poisson, black_box(&mut x), &inst.b, 1.15, &exec));
    });
    group.bench_function("jacobi_sweep", |bench| {
        let mut x = inst.working_grid();
        let mut scratch = Grid2d::zeros(x.n());
        bench.iter(|| {
            jacobi_sweep_op(
                &StencilOp::Poisson,
                black_box(&mut x),
                &inst.b,
                2.0 / 3.0,
                &mut scratch,
                &exec,
            )
        });
    });
    group.finish();
}

fn bench_omega_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: in-cycle ω (paper fixes 1.15). Time-to-1e3 on
    // a 65x65 problem under different in-cycle weights.
    let mut group = c.benchmark_group("omega_ablation_solve_to_1e3");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let exec = Exec::seq();
    let cache = Arc::new(DirectSolverCache::new());
    let mut inst = ProblemInstance::random(6, Distribution::UnbiasedUniform, 3);
    let x_opt = inst.ensure_x_opt(&exec, &cache).clone();
    let e0 = l2_diff(&inst.x0, &x_opt, &exec);
    for omega in [1.0f64, 1.15, 1.5] {
        let solver = ReferenceSolver::with_cache(
            MgConfig {
                omega,
                ..MgConfig::default()
            },
            Arc::clone(&cache),
        );
        group.bench_with_input(BenchmarkId::from_parameter(omega), &omega, |bench, _| {
            bench.iter(|| {
                let mut x = inst.working_grid();
                solver.solve_v_until(&mut x, &inst.b, 100, |x| {
                    ratio_of_errors(e0, l2_diff(x, &x_opt, &exec)) >= 1e3
                })
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cycles,
    bench_sor_vs_jacobi,
    bench_omega_ablation
);
criterion_main!(benches);
