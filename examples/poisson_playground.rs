//! Tour of the solver substrate: direct vs SOR vs reference multigrid vs
//! full multigrid on one Poisson instance, with sequential and
//! work-stealing parallel execution.
//!
//! ```bash
//! cargo run --release --example poisson_playground
//! ```

use petamg::grid::{l2_diff, l2_norm_interior, residual, Exec, Grid2d};
use petamg::prelude::*;
use petamg::solvers::{sor_sweep_op, DirectSolverCache, MgConfig, ReferenceSolver};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let level = 8; // N = 257
    let n = (1usize << level) + 1;
    let mut inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 2024);
    let exec = Exec::seq();
    let cache = Arc::new(DirectSolverCache::new());
    let x_opt = inst.ensure_x_opt(&exec, &cache).clone();
    let e0 = l2_diff(&inst.x0, &x_opt, &exec);
    println!("N = {n}, initial error = {e0:.3e}\n");
    let target = 1e7;

    // Iterated SOR with the optimal weight.
    {
        let mut x = inst.working_grid();
        let omega = omega_opt(n);
        let start = Instant::now();
        let mut iters = 0;
        while l2_diff(&x, &x_opt, &exec) > e0 / target && iters < 50_000 {
            sor_sweep_op(&StencilOp::Poisson, &mut x, &inst.b, omega, &exec);
            iters += 1;
        }
        println!(
            "SOR(w_opt={omega:.4}) to 1e7:     {iters:>6} sweeps, {:>9.1} ms",
            start.elapsed().as_secs_f64() * 1e3
        );
    }

    // Reference V cycles.
    let solver = ReferenceSolver::with_cache(MgConfig::default(), Arc::clone(&cache));
    {
        let mut x = inst.working_grid();
        let start = Instant::now();
        let iters = solver
            .solve_v_until(&mut x, &inst.b, 100, |x| {
                l2_diff(x, &x_opt, &exec) <= e0 / target
            })
            .cycles();
        println!(
            "Reference V cycles to 1e7:     {iters:>6} cycles, {:>9.1} ms",
            start.elapsed().as_secs_f64() * 1e3
        );
    }

    // Reference full multigrid.
    {
        let mut x = inst.working_grid();
        let start = Instant::now();
        let iters = solver
            .solve_fmg_until(&mut x, &inst.b, 100, |x| {
                l2_diff(x, &x_opt, &exec) <= e0 / target
            })
            .cycles();
        println!(
            "Reference FMG to 1e7:          {iters:>6} passes, {:>9.1} ms",
            start.elapsed().as_secs_f64() * 1e3
        );
    }

    // Autotuned (measured wall-clock tuning on this machine!).
    {
        println!("\ntuning on this machine (wall-clock cost model) ...");
        let opts = TunerOptions::measured(level, Distribution::UnbiasedUniform, Exec::seq());
        let tuned = VTuner::new(opts).tune();
        let report = tuned.solve_with(&mut inst.clone(), target, &exec, &cache);
        println!(
            "Autotuned MULTIGRID-V to 1e7:  achieved {:.2e} in {:>9.1} ms ({})",
            report.achieved_accuracy,
            report.seconds * 1e3,
            tuned.plan(level, report.acc_idx).describe()
        );
    }

    // Parallel execution through the work-stealing runtime.
    {
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(2);
        let par = Exec::pbrt(threads);
        let par_solver = ReferenceSolver::with_cache(
            MgConfig {
                exec: par.clone(),
                ..MgConfig::default()
            },
            Arc::clone(&cache),
        );
        let mut xs = inst.working_grid();
        let mut xp = inst.working_grid();
        let t0 = Instant::now();
        for _ in 0..10 {
            solver.vcycle(&mut xs, &inst.b);
        }
        let seq_time = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..10 {
            par_solver.vcycle(&mut xp, &inst.b);
        }
        let par_time = t0.elapsed().as_secs_f64();
        assert_eq!(
            xs.as_slice(),
            xp.as_slice(),
            "red-black parallel execution is bitwise deterministic"
        );
        println!(
            "\n10 V cycles: sequential {:.1} ms, {threads}-thread work-stealing {:.1} ms \
             (speedup {:.2}x, results bitwise identical)",
            seq_time * 1e3,
            par_time * 1e3,
            seq_time / par_time
        );
    }

    // Residual check for good measure.
    let mut x = inst.working_grid();
    for _ in 0..12 {
        solver.vcycle(&mut x, &inst.b);
    }
    let mut r = Grid2d::zeros(n);
    residual(&x, &inst.b, &mut r, &exec);
    println!(
        "\nfinal relative residual after 12 V cycles: {:.2e}",
        l2_norm_interior(&r, &exec) / l2_norm_interior(&inst.b, &exec)
    );
}
