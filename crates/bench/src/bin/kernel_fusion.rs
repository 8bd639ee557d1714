//! Kernel-fusion benchmark: fused single-pass kernels + workspace arena
//! versus the unfused reference path, across grid sizes, execution
//! backends, block-cursor band heights, and temporal-block depths.
//! Emits `BENCH_kernels.json`.
//!
//! Three comparisons per size and backend:
//!
//! * **transfer step** (the hot-path replacement this measures end to
//!   end): the seed-style unfused step — allocate a fresh residual grid,
//!   `residual`, allocate a fresh coarse grid, `restrict_full_weighting`,
//!   `interpolate_add` — against the fused step — `residual_restrict`
//!   into a pooled coarse grid plus `interpolate_correct`, zero
//!   allocations;
//! * **residual→restrict kernels only** (both sides preallocated, so the
//!   number isolates fusion from pooling);
//! * **interpolation kernels only** (`interpolate_add` vs
//!   `interpolate_correct`).
//!
//! Two sweeps over the new tuning axes:
//!
//! * **band sweep** — the fused `residual_restrict` on the pooled
//!   backend across block-cursor band heights. `band_rows = 1` is the
//!   PR 1 pooled path (each coarse-row task re-derives its three
//!   residual rows); taller bands share the rolling window, and the
//!   record carries both the speedup over that baseline and the
//!   parallel-vs-sequential-fused ratio;
//! * **temporal-block sweep** — `sor_sweeps_blocked_op` against the staged
//!   reference for a fixed sweep count, across fused depths.
//!
//! Flags / env:
//! * `--quick` (or `PETAMG_BENCH_QUICK=1`) — CI smoke mode: fewer
//!   samples, smaller size sweep;
//! * `PETAMG_BENCH_OUT` — output path (default `BENCH_kernels.json`).
//!
//! Fused and unfused results are verified bitwise equal for every size,
//! backend, band, and depth before anything is timed.

use petamg_bench::time_best;
use petamg_choice::KnobTable;
use petamg_core::obs::{self, TelemetryMode};
use petamg_core::plan::{simple_v_family, ExecCtx, TunedFamily, PAPER_ACCURACIES};
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_core::tuner::{tune_kernel_knobs_for_level, KnobTunerOptions, TunerOptions, VTuner};
use petamg_core::{GuardedSolver, SolveTelemetry};
use petamg_grid::{
    batch_width, coarse_size, interpolate_add, interpolate_correct, l2_norm_interior, residual,
    residual_restrict, restrict_full_weighting, size_level, vector_backend, BatchGrid, Exec,
    Grid2d, SimdPolicy, Workspace,
};
use petamg_problems::{residual_op, residual_restrict_op, Problem, StencilOp};
use petamg_solvers::fused::sor_sweeps_blocked_op;
use petamg_solvers::relax::{jacobi_sweep_op, sor_sweeps_op};
use petamg_solvers::{DirectSolverCache, MgConfig, ReferenceSolver};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;

/// The operator of every Poisson kernel measured here.
const POISSON: &StencilOp = &StencilOp::Poisson;

#[derive(Serialize)]
struct BackendRecord {
    /// Backend name: `seq` or `pbrt<threads>`.
    backend: String,
    /// Seed-style unfused transfer step (fresh allocations), seconds.
    step_unfused_alloc_s: f64,
    /// Fused transfer step (workspace-pooled), seconds.
    step_fused_pooled_s: f64,
    /// Headline speedup: unfused+alloc vs fused+pooled.
    step_speedup: f64,
    /// Unfused residual + restrict, both preallocated, seconds.
    rr_unfused_s: f64,
    /// Fused residual_restrict (pooled row buffers), seconds.
    rr_fused_s: f64,
    /// Fusion-only speedup of the residual→restrict chain.
    rr_speedup: f64,
    /// Reference interpolate_add, seconds.
    interp_reference_s: f64,
    /// Row-parity specialized interpolate_correct, seconds.
    interp_fused_s: f64,
    /// Interpolation kernel speedup.
    interp_speedup: f64,
}

#[derive(Serialize)]
struct SizeRecord {
    n: usize,
    backends: Vec<BackendRecord>,
}

#[derive(Serialize)]
struct BandRecord {
    n: usize,
    /// Backend name (pooled).
    backend: String,
    /// Block-cursor band height; 1 == the PR 1 pooled path.
    band_rows: usize,
    /// Fused residual_restrict at this band, seconds.
    rr_fused_s: f64,
    /// Speedup over the band = 1 baseline (the PR 1 pooled path).
    speedup_vs_band1: f64,
    /// Sequential fused time / this parallel fused time (>1 means the
    /// parallel fused path wins outright).
    fused_par_vs_seq: f64,
}

#[derive(Serialize)]
struct TblockRecord {
    n: usize,
    backend: String,
    /// Total SOR sweeps executed (fixed per record set).
    sweeps: usize,
    /// Sweeps fused per wavefront traversal.
    tblock: usize,
    /// Temporally blocked time, seconds.
    blocked_s: f64,
    /// Staged reference (one traversal pair per sweep), seconds.
    staged_s: f64,
    /// staged / blocked.
    speedup: f64,
}

#[derive(Serialize)]
struct SimdRecord {
    n: usize,
    /// Kernel name: `residual`, `restrict`, `interpolate_correct`,
    /// `sor_sweep`, `jacobi`, `l2_norm`.
    kernel: String,
    /// The ISA backend the vector path dispatched to on this machine:
    /// `avx512`, `avx2+fma`, `neon`, or `portable` (no `simd` feature
    /// / unsupported CPU — the portable lane fallback).
    vector_backend: String,
    /// Forced-scalar time, seconds.
    scalar_s: f64,
    /// Forced-vector time, seconds.
    vector_s: f64,
    /// scalar / vector (>1 means the vector path wins).
    speedup: f64,
}

#[derive(Serialize)]
struct KnobTableEntry {
    /// Multigrid level (grid `2^level + 1`).
    level: usize,
    /// Tuned block-cursor band height at this level.
    band_rows: usize,
    /// Tuned temporal-block depth at this level.
    tblock: usize,
}

#[derive(Serialize)]
struct PerLevelKnobRecord {
    n: usize,
    /// Backend name (pooled).
    backend: String,
    /// Tuned V-cycle time with the uniform global default knobs at
    /// every level, seconds.
    global_cycle_s: f64,
    /// Tuned V-cycle time with the per-level knob table, seconds.
    per_level_cycle_s: f64,
    /// global / per-level (>1 means the table wins).
    speedup: f64,
    /// Knob-tuning evaluations spent building the table.
    tune_evaluations: usize,
    /// The tuned table entries, coarse to fine.
    table: Vec<KnobTableEntry>,
}

#[derive(Serialize)]
struct ProblemRecord {
    /// Canonical problem name (`poisson`, `smooth`, `jump1000`,
    /// `aniso0.01`).
    problem: String,
    /// The problem fingerprint, e.g. `variable-diffusion/jump1000@n=129`.
    fingerprint: String,
    n: usize,
    /// Reference V-cycle time for this operator, seconds (pooled
    /// backend, fused kernels; verified bitwise against the staged
    /// composition first).
    vcycle_s: f64,
    /// This operator's V-cycle time relative to constant Poisson on
    /// identical data (>1 means the operator is more expensive).
    vcycle_vs_poisson: f64,
    /// The DP-tuned top-level plan per accuracy target (modeled cost,
    /// deterministic), e.g. `["RECURSE_0×1", "Direct", ...]`.
    tuned_top_plans: Vec<String>,
    /// Whether the full tuned plan table differs from the
    /// constant-Poisson table on the same machine model — the paper's
    /// "plans are per-problem" claim, demonstrated.
    diverges_from_poisson: bool,
}

#[derive(Serialize)]
struct SolveManyRecord {
    backend: String,
    n: usize,
    /// Systems carried per batched cycle (the interleave width).
    width: usize,
    /// Seconds for `width` solo V-cycles, one `run` call per system.
    solo_vcycles_s: f64,
    /// Seconds for one `run_batch` V-cycle carrying all `width`
    /// systems; verified bitwise equal per lane to the solo runs
    /// before timing.
    batched_vcycle_s: f64,
    /// Solo-over-batched throughput ratio (>1: batching wins).
    speedup: f64,
}

#[derive(Serialize)]
struct TelemetryOverheadRecord {
    n: usize,
    /// Warm guarded solve with no telemetry feed attached, seconds.
    baseline_s: f64,
    /// Same solve with a feed attached but the process gate closed —
    /// the shipped default. One relaxed atomic load per solve.
    gated_off_s: f64,
    /// Same solve with the gate open in metrics mode: per-kernel
    /// clocks, phase timers, histogram records.
    enabled_s: f64,
    /// gated_off / baseline - 1. Asserted < 1% at n = 513.
    gated_off_overhead: f64,
    /// enabled / baseline - 1 (informational).
    enabled_overhead: f64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    quick: bool,
    trials: usize,
    reps_scale: String,
    /// The ISA backend `SimdMode::Vector` dispatches to on this
    /// machine: `avx512`, `avx2+fma`, `neon`, or `portable`.
    vector_backend: String,
    /// The host's batched dispatch width (`petamg_grid::batch_width`):
    /// 8 on AVX-512 hosts, 4 elsewhere. The batch sweep times both
    /// widths regardless; this is what the serving stack would pick.
    batch_width: usize,
    sizes: Vec<SizeRecord>,
    /// Fused residual_restrict across block-cursor band heights
    /// (band_rows = 1 reproduces the PR 1 pooled path).
    band_sweep: Vec<BandRecord>,
    /// Temporally blocked SOR across fused depths.
    tblock_sweep: Vec<TblockRecord>,
    /// Tuned-plan cycle times: one global knob setting at every level
    /// versus a per-level table tuned coarse-to-fine with the seeded
    /// n-ary search (the DP tuner's mechanism).
    per_level_knobs: Vec<PerLevelKnobRecord>,
    /// Per-kernel scalar-vs-vector row-path timings (sequential
    /// backend, forced SimdPolicy), verified bitwise equal first.
    simd_sweep: Vec<SimdRecord>,
    /// Per-operator V-cycle times and tuned-plan divergence across the
    /// canonical problem families (identical input data per family).
    problem_sweep: Vec<ProblemRecord>,
    /// Batched multi-RHS V-cycles (`run_batch` at widths 4 and 8)
    /// versus the same systems cycled one at a time, per backend —
    /// the width axis of the amortization story.
    batch_sweep: Vec<SolveManyRecord>,
    /// Telemetry tax on a warm guarded solve: a feed attached with the
    /// process gate closed must be free next to no feed at all (< 1%
    /// at n = 513, asserted in-bench); the gate-open column prices the
    /// per-kernel clocks and histogram records the metrics mode buys.
    telemetry_overhead: Vec<TelemetryOverheadRecord>,
}

fn test_grids(n: usize) -> (Grid2d, Grid2d) {
    let x = Grid2d::from_fn(n, |i, j| ((i * 31 + j * 17) % 103) as f64 / 7.0 - 5.0);
    let b = Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71) % 97) as f64 / 3.0);
    (x, b)
}

/// Repetitions per timed trial, scaled so each trial does comparable
/// work across sizes (~16M points touched), floored for timer
/// resolution.
fn reps_for(n: usize, quick: bool) -> usize {
    let base = (16_000_000 / (n * n)).max(2);
    if quick {
        (base / 8).max(1)
    } else {
        base
    }
}

fn verify_equivalence(n: usize, exec: &Exec, ws: &Workspace) {
    let (x, b) = test_grids(n);
    let nc = coarse_size(n);
    let seq = Exec::seq();

    let mut r = Grid2d::zeros(n);
    residual(&x, &b, &mut r, &seq);
    let mut want = Grid2d::zeros(nc);
    restrict_full_weighting(&r, &mut want, &seq);
    let mut got = Grid2d::zeros(nc);
    residual_restrict(&x, &b, &mut got, ws, exec);
    assert_eq!(
        got.as_slice(),
        want.as_slice(),
        "fused residual_restrict diverged at n={n} ({exec:?})"
    );

    let mut fine_want = x.clone();
    interpolate_add(&want, &mut fine_want, &seq);
    let mut fine_got = x.clone();
    interpolate_correct(&want, &mut fine_got, exec);
    assert_eq!(
        fine_got.as_slice(),
        fine_want.as_slice(),
        "fused interpolate_correct diverged at n={n} ({exec:?})"
    );
}

fn bench_backend(name: &str, exec: &Exec, n: usize, trials: usize, quick: bool) -> BackendRecord {
    let (x, b) = test_grids(n);
    let nc = coarse_size(n);
    let reps = reps_for(n, quick);
    let ws = Workspace::new();
    verify_equivalence(n, exec, &ws);

    // Transfer step, seed style: fresh allocations every pass.
    let mut xm = x.clone();
    let coarse_correction = Grid2d::from_fn(nc, |i, j| ((i + j) % 5) as f64 / 10.0);
    let step_unfused_alloc_s = time_best(trials, || {
        for _ in 0..reps {
            let mut r = Grid2d::zeros(n);
            residual(&xm, &b, &mut r, exec);
            let mut bc = Grid2d::zeros(nc);
            restrict_full_weighting(&r, &mut bc, exec);
            interpolate_add(&coarse_correction, black_box(&mut xm), exec);
        }
    }) / reps as f64;

    // Transfer step, this PR's hot path: fused kernels + pooled scratch.
    let mut xm = x.clone();
    let step_fused_pooled_s = time_best(trials, || {
        for _ in 0..reps {
            let mut bc = ws.acquire(nc);
            residual_restrict(&xm, &b, &mut bc, &ws, exec);
            interpolate_correct(&coarse_correction, black_box(&mut xm), exec);
        }
    }) / reps as f64;

    // Kernels only: residual + restrict with everything preallocated.
    let mut r = Grid2d::zeros(n);
    let mut bc = Grid2d::zeros(nc);
    let rr_unfused_s = time_best(trials, || {
        for _ in 0..reps {
            residual(&x, &b, black_box(&mut r), exec);
            restrict_full_weighting(&r, black_box(&mut bc), exec);
        }
    }) / reps as f64;
    let rr_fused_s = time_best(trials, || {
        for _ in 0..reps {
            residual_restrict(&x, &b, black_box(&mut bc), &ws, exec);
        }
    }) / reps as f64;

    // Interpolation kernels only.
    let mut fine = x.clone();
    let interp_reference_s = time_best(trials, || {
        for _ in 0..reps {
            interpolate_add(&bc, black_box(&mut fine), exec);
        }
    }) / reps as f64;
    let mut fine = x.clone();
    let interp_fused_s = time_best(trials, || {
        for _ in 0..reps {
            interpolate_correct(&bc, black_box(&mut fine), exec);
        }
    }) / reps as f64;

    BackendRecord {
        backend: name.to_string(),
        step_unfused_alloc_s,
        step_fused_pooled_s,
        step_speedup: step_unfused_alloc_s / step_fused_pooled_s,
        rr_unfused_s,
        rr_fused_s,
        rr_speedup: rr_unfused_s / rr_fused_s,
        interp_reference_s,
        interp_fused_s,
        interp_speedup: interp_reference_s / interp_fused_s,
    }
}

/// Sweep block-cursor band heights for the fused `residual_restrict` on
/// the pooled backend. `band = 1` is exactly the PR 1 pooled path (one
/// coarse row per task, three residual rows re-derived each).
fn bench_band_sweep(
    pool_exec: &Exec,
    backend: &str,
    n: usize,
    bands: &[usize],
    trials: usize,
    quick: bool,
) -> Vec<BandRecord> {
    let (x, b) = test_grids(n);
    let nc = coarse_size(n);
    let reps = reps_for(n, quick);
    let ws = Workspace::new();
    let mut bc = Grid2d::zeros(nc);

    let time_rr = |exec: &Exec| {
        verify_equivalence(n, exec, &ws);
        let mut bc_local = Grid2d::zeros(nc);
        time_best(trials, || {
            for _ in 0..reps {
                residual_restrict(&x, &b, black_box(&mut bc_local), &ws, exec);
            }
        }) / reps as f64
    };

    let seq_fused_s = time_rr(&Exec::seq());
    // Warm once so lease pools exist before the band=1 baseline timing.
    residual_restrict(&x, &b, &mut bc, &ws, pool_exec);

    // Time the band=1 (PR 1 pooled path) baseline first so every
    // record gets a real ratio regardless of the sweep order.
    let band1_s = time_rr(&pool_exec.clone().with_band(1));

    let mut records = Vec::new();
    for &band in bands {
        let rr_fused_s = if band == 1 {
            band1_s
        } else {
            time_rr(&pool_exec.clone().with_band(band))
        };
        records.push(BandRecord {
            n,
            backend: backend.to_string(),
            band_rows: band,
            rr_fused_s,
            speedup_vs_band1: band1_s / rr_fused_s,
            fused_par_vs_seq: seq_fused_s / rr_fused_s,
        });
        println!(
            "band,{},{},{},{:.2},{:.3},{:.3}",
            n,
            backend,
            band,
            rr_fused_s * 1e6,
            band1_s / rr_fused_s,
            seq_fused_s / rr_fused_s
        );
    }
    records
}

/// Sweep temporal-block depths for `sweeps` SOR sweeps against the
/// staged reference.
fn bench_tblock_sweep(
    name: &str,
    exec: &Exec,
    n: usize,
    sweeps: usize,
    depths: &[usize],
    trials: usize,
    quick: bool,
) -> Vec<TblockRecord> {
    let (x0, b) = test_grids(n);
    // Temporal blocking multiplies work per traversal; scale reps down.
    let reps = (reps_for(n, quick) / sweeps).max(1);
    let ws = Workspace::new();

    // Verify bitwise equality of every depth before timing.
    let mut want = x0.clone();
    sor_sweeps_op(POISSON, &mut want, &b, 1.15, sweeps, &Exec::seq());
    for &depth in depths {
        let mut got = x0.clone();
        let mut left = sweeps;
        while left > 0 {
            let chunk = left.min(depth);
            sor_sweeps_blocked_op(POISSON, &mut got, &b, 1.15, chunk, &ws, exec);
            left -= chunk;
        }
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "blocked SOR diverged at n={n} depth={depth} ({exec:?})"
        );
    }

    let mut x = x0.clone();
    let staged_s = time_best(trials, || {
        for _ in 0..reps {
            sor_sweeps_op(POISSON, black_box(&mut x), &b, 1.15, sweeps, exec);
        }
    }) / reps as f64;

    let mut records = Vec::new();
    for &depth in depths {
        let mut x = x0.clone();
        let blocked_s = time_best(trials, || {
            for _ in 0..reps {
                let mut left = sweeps;
                while left > 0 {
                    let chunk = left.min(depth);
                    sor_sweeps_blocked_op(POISSON, black_box(&mut x), &b, 1.15, chunk, &ws, exec);
                    left -= chunk;
                }
            }
        }) / reps as f64;
        records.push(TblockRecord {
            n,
            backend: name.to_string(),
            sweeps,
            tblock: depth,
            blocked_s,
            staged_s,
            speedup: staged_s / blocked_s,
        });
        println!(
            "tblock,{},{},{},{:.2},{:.2},{:.3}",
            n,
            name,
            depth,
            blocked_s * 1e6,
            staged_s * 1e6,
            staged_s / blocked_s
        );
    }
    records
}

/// Compare tuned-plan V-cycle times under the global default knobs
/// versus a per-level table built exactly the way the DP tuner builds
/// one: seeded n-ary search per level, coarse to fine.
fn bench_per_level_knobs(
    pool_exec: &Exec,
    backend: &str,
    n: usize,
    trials: usize,
    quick: bool,
) -> PerLevelKnobRecord {
    let level = size_level(n).expect("bench sizes are 2^k + 1");
    let fam = simple_v_family(level, &[1e5]);
    let inst = ProblemInstance::random(level, Distribution::UnbiasedUniform, 0x5EED_BE9C);
    let cache = Arc::new(DirectSolverCache::new());

    // Build the per-level table coarse-to-fine the way the DP tuner
    // does: each level's candidates timed in-table (coarser levels keep
    // their tuned knobs), seeded from the next-coarser entry.
    let mut table = KnobTable::defaults(level);
    let mut tune_evaluations = 0usize;
    let (arms, rounds, reps) = if quick { (2, 1, 1) } else { (3, 2, 3) };
    for k in 2..=level {
        let opts = KnobTunerOptions {
            level: k,
            arms,
            rounds,
            reps,
            seed: 0xBE9C ^ k as u64,
            problem: Problem::poisson(),
        };
        let result = tune_kernel_knobs_for_level(pool_exec, &opts, &table);
        tune_evaluations += result.evaluations;
        table.set(k, result.knobs);
    }

    let run = |table: &KnobTable, x: &mut Grid2d| {
        let mut ctx = ExecCtx::with_cache(pool_exec.clone(), Arc::clone(&cache))
            .with_knob_table(table.clone());
        fam.run(level, 0, x, &inst.b, &mut ctx);
    };
    // Bitwise equivalence before timing, like every other section.
    let global_table = KnobTable::defaults(level);
    let mut x_global = inst.working_grid();
    run(&global_table, &mut x_global);
    let mut x_table = inst.working_grid();
    run(&table, &mut x_table);
    assert_eq!(
        x_global.as_slice(),
        x_table.as_slice(),
        "per-level knobs diverged at n={n}"
    );

    let reps_timed = (reps_for(n, quick) / 16).max(1);
    let time_cycles = |table: &KnobTable| {
        let mut x = inst.working_grid();
        run(table, &mut x); // warm pools + factors outside timing
        time_best(trials, || {
            for _ in 0..reps_timed {
                let mut x = inst.working_grid();
                run(table, black_box(&mut x));
            }
        }) / reps_timed as f64
    };
    let global_cycle_s = time_cycles(&global_table);
    let per_level_cycle_s = time_cycles(&table);

    let record = PerLevelKnobRecord {
        n,
        backend: backend.to_string(),
        global_cycle_s,
        per_level_cycle_s,
        speedup: global_cycle_s / per_level_cycle_s,
        tune_evaluations,
        table: (2..=level)
            .map(|k| {
                let knobs = table.get(k);
                KnobTableEntry {
                    level: k,
                    band_rows: knobs.band_rows,
                    tblock: knobs.tblock,
                }
            })
            .collect(),
    };
    println!(
        "per_level,{},{},{:.2},{:.2},{:.3},{}",
        n,
        backend,
        global_cycle_s * 1e6,
        per_level_cycle_s * 1e6,
        record.speedup,
        tune_evaluations
    );
    record
}

/// Time each row kernel under forced-scalar and forced-vector policies
/// (sequential backend, so the numbers isolate the row path from
/// scheduling). Every kernel's two modes are verified bitwise equal
/// before timing — the SIMD layer's core guarantee.
fn bench_simd_sweep(n: usize, trials: usize, quick: bool) -> Vec<SimdRecord> {
    let (x, b) = test_grids(n);
    let nc = coarse_size(n);
    let reps = reps_for(n, quick);
    let e_s = Exec::seq().with_simd(SimdPolicy::Scalar);
    let e_v = Exec::seq().with_simd(SimdPolicy::Vector);
    let backend = vector_backend().to_string();
    let mut records = Vec::new();
    let mut push = |kernel: &str, scalar_s: f64, vector_s: f64| {
        println!(
            "simd,{},{},{},{:.2},{:.2},{:.3}",
            n,
            kernel,
            backend,
            scalar_s * 1e6,
            vector_s * 1e6,
            scalar_s / vector_s
        );
        records.push(SimdRecord {
            n,
            kernel: kernel.to_string(),
            vector_backend: backend.clone(),
            scalar_s,
            vector_s,
            speedup: scalar_s / vector_s,
        });
    };

    // residual
    let mut r_s = Grid2d::zeros(n);
    let mut r_v = Grid2d::zeros(n);
    residual(&x, &b, &mut r_s, &e_s);
    residual(&x, &b, &mut r_v, &e_v);
    assert_eq!(r_s.as_slice(), r_v.as_slice(), "residual diverged at n={n}");
    let time_k = |e: &Exec, out: &mut Grid2d| {
        time_best(trials, || {
            for _ in 0..reps {
                residual(&x, &b, black_box(out), e);
            }
        }) / reps as f64
    };
    push("residual", time_k(&e_s, &mut r_s), time_k(&e_v, &mut r_v));

    // restrict (full weighting of the residual)
    let mut c_s = Grid2d::zeros(nc);
    let mut c_v = Grid2d::zeros(nc);
    restrict_full_weighting(&r_s, &mut c_s, &e_s);
    restrict_full_weighting(&r_s, &mut c_v, &e_v);
    assert_eq!(c_s.as_slice(), c_v.as_slice(), "restrict diverged at n={n}");
    let time_k = |e: &Exec, out: &mut Grid2d| {
        time_best(trials, || {
            for _ in 0..reps {
                restrict_full_weighting(&r_s, black_box(out), e);
            }
        }) / reps as f64
    };
    push("restrict", time_k(&e_s, &mut c_s), time_k(&e_v, &mut c_v));

    // interpolate_correct
    let mut f_s = x.clone();
    let mut f_v = x.clone();
    interpolate_correct(&c_s, &mut f_s, &e_s);
    interpolate_correct(&c_s, &mut f_v, &e_v);
    assert_eq!(
        f_s.as_slice(),
        f_v.as_slice(),
        "interpolate diverged at n={n}"
    );
    let time_k = |e: &Exec, out: &mut Grid2d| {
        time_best(trials, || {
            for _ in 0..reps {
                interpolate_correct(&c_s, black_box(out), e);
            }
        }) / reps as f64
    };
    push(
        "interpolate_correct",
        time_k(&e_s, &mut f_s),
        time_k(&e_v, &mut f_v),
    );

    // sor_sweep (one staged red-black sweep; the stride-2 vector path)
    let mut xs = x.clone();
    let mut xv = x.clone();
    sor_sweeps_op(POISSON, &mut xs, &b, 1.15, 2, &e_s);
    sor_sweeps_op(POISSON, &mut xv, &b, 1.15, 2, &e_v);
    assert_eq!(xs.as_slice(), xv.as_slice(), "SOR diverged at n={n}");
    let time_k = |e: &Exec, out: &mut Grid2d| {
        time_best(trials, || {
            for _ in 0..reps {
                sor_sweeps_op(POISSON, black_box(out), &b, 1.15, 1, e);
            }
        }) / reps as f64
    };
    push("sor_sweep", time_k(&e_s, &mut xs), time_k(&e_v, &mut xv));

    // jacobi
    let mut scratch = Grid2d::zeros(n);
    let mut xs = x.clone();
    let mut xv = x.clone();
    jacobi_sweep_op(POISSON, &mut xs, &b, 0.8, &mut scratch, &e_s);
    jacobi_sweep_op(POISSON, &mut xv, &b, 0.8, &mut scratch, &e_v);
    assert_eq!(xs.as_slice(), xv.as_slice(), "Jacobi diverged at n={n}");
    let time_k = |e: &Exec, out: &mut Grid2d| {
        let mut scratch = Grid2d::zeros(n);
        time_best(trials, || {
            for _ in 0..reps {
                jacobi_sweep_op(POISSON, black_box(out), &b, 0.8, &mut scratch, e);
            }
        }) / reps as f64
    };
    push("jacobi", time_k(&e_s, &mut xs), time_k(&e_v, &mut xv));

    // l2 norm (fixed-lane reduction: scalar mode = portable lane
    // codegen, vector mode = dispatched backend; identical bits)
    assert_eq!(
        l2_norm_interior(&x, &e_s).to_bits(),
        l2_norm_interior(&x, &e_v).to_bits(),
        "norms diverged at n={n}"
    );
    let time_k = |e: &Exec| {
        time_best(trials, || {
            for _ in 0..reps {
                black_box(l2_norm_interior(black_box(&x), e));
            }
        }) / reps as f64
    };
    push("l2_norm", time_k(&e_s), time_k(&e_v));

    records
}

/// Per-operator V-cycle timing and tuned-plan divergence: the
/// `problem_sweep` section. All four canonical problems get identical
/// input data; each is verified (fused vs staged, bitwise) before
/// timing, then DP-tuned with the deterministic modeled cost so the
/// recorded plan divergence is machine-independent.
fn bench_problem_sweep(
    pool_exec: &Exec,
    n: usize,
    trials: usize,
    quick: bool,
) -> Vec<ProblemRecord> {
    let level = size_level(n).expect("bench sizes are 2^k + 1");
    let (x0, b) = test_grids(n);
    let ws = Workspace::new();
    let reps = (reps_for(n, quick) / 8).max(1);

    let problems: Vec<(&str, Problem)> = vec![
        ("poisson", Problem::poisson()),
        ("smooth", Problem::smooth_sinusoidal(n)),
        ("jump1000", Problem::jump_inclusion(n)),
        ("aniso0.01", Problem::anisotropic_canonical()),
    ];

    let mut poisson_cycle_s = 0.0;
    let mut poisson_plans: Option<TunedFamily> = None;
    let mut records = Vec::new();
    for (name, problem) in problems {
        // Verify: fused residual+restrict of this operator bitwise
        // matches the staged composition on the pooled backend.
        let op = problem.op_for(n);
        let nc = coarse_size(n);
        let mut r = Grid2d::zeros(n);
        residual_op(&op, &x0, &b, &mut r, &Exec::seq());
        let mut want = Grid2d::zeros(nc);
        restrict_full_weighting(&r, &mut want, &Exec::seq());
        let mut got = Grid2d::zeros(nc);
        residual_restrict_op(&op, &x0, &b, &mut got, &ws, pool_exec);
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "fused {name} kernels diverged at n={n}"
        );

        // Time one reference V cycle of this operator (fused kernels,
        // pooled backend; warm first so pools and factors exist).
        let solver = ReferenceSolver::new(MgConfig {
            exec: pool_exec.clone(),
            problem: problem.clone(),
            ..MgConfig::default()
        });
        let mut x = x0.clone();
        solver.vcycle(&mut x, &b);
        let vcycle_s = time_best(trials, || {
            for _ in 0..reps {
                solver.vcycle(black_box(&mut x), &b);
            }
        }) / reps as f64;
        if name == "poisson" {
            poisson_cycle_s = vcycle_s;
        }

        // Deterministic modeled-cost DP tune per problem: convergence
        // differs per operator, so iteration counts — and with them the
        // chosen cycle shapes — genuinely diverge.
        let opts =
            TunerOptions::quick(level, Distribution::UnbiasedUniform).with_problem(problem.clone());
        let fam = VTuner::new(opts).tune();
        let tuned_top_plans: Vec<String> = (0..fam.num_accuracies())
            .map(|i| fam.plan(level, i).describe())
            .collect();
        let diverges_from_poisson = match &poisson_plans {
            None => {
                poisson_plans = Some(fam.clone());
                false
            }
            Some(base) => base.plans != fam.plans,
        };

        println!(
            "problem,{},{},{:.2},{:.3},{},{}",
            name,
            n,
            vcycle_s * 1e6,
            vcycle_s / poisson_cycle_s,
            diverges_from_poisson,
            tuned_top_plans.join("|")
        );
        records.push(ProblemRecord {
            problem: name.to_string(),
            fingerprint: problem.fingerprint().describe(),
            n,
            vcycle_s,
            vcycle_vs_poisson: vcycle_s / poisson_cycle_s,
            tuned_top_plans,
            diverges_from_poisson,
        });
    }
    // The headline acceptance check: at least one non-constant profile
    // must tune to a different plan than constant Poisson.
    assert!(
        records.iter().any(|r| r.diverges_from_poisson),
        "no operator diverged from the Poisson plan — per-problem tuning is broken"
    );
    records
}

/// Batched multi-RHS V-cycles versus solo: the `batch_sweep` section.
/// `width` systems (distinct right-hand sides and initial guesses) go
/// through one `run_batch` cycle with each SIMD lane carrying one
/// system; the baseline runs the same `width` systems through `run`
/// one at a time. Every lane is verified bitwise equal to its solo
/// twin before timing — the batched kernels evaluate the solo scalar
/// expression per lane, so this is equality, not tolerance, at every
/// width.
fn bench_batch_sweep(
    backend: &str,
    exec: &Exec,
    n: usize,
    width: usize,
    trials: usize,
    quick: bool,
) -> SolveManyRecord {
    let level = size_level(n).expect("bench sizes are 2^k + 1");
    let reps = (reps_for(n, quick) / 8).max(1);
    let fam = simple_v_family(level, &PAPER_ACCURACIES);
    let acc_idx = fam.num_accuracies() - 1;
    let cache = Arc::new(DirectSolverCache::new());
    let ws = Arc::new(Workspace::new());
    let mut ctx =
        ExecCtx::with_cache(exec.clone(), Arc::clone(&cache)).with_workspace(Arc::clone(&ws));

    // Per-lane data: each system gets its own RHS and initial guess.
    let lane_x0 = |k: usize| {
        Grid2d::from_fn(n, |i, j| {
            ((i * 31 + j * 17 + k * 7) % 103) as f64 / 7.0 - 5.0
        })
    };
    let lane_b =
        |k: usize| Grid2d::from_fn(n, |i, j| ((i * 13 + j * 71 + k * 29) % 97) as f64 / 3.0);
    let bs: Vec<Grid2d> = (0..width).map(lane_b).collect();

    // Verify: one batched cycle is bitwise equal, per lane, to the
    // solo cycles on the same data.
    let mut solos: Vec<Grid2d> = (0..width).map(lane_x0).collect();
    for (k, x) in solos.iter_mut().enumerate() {
        fam.run(level, acc_idx, x, &bs[k], &mut ctx);
    }
    let mut xb = BatchGrid::zeros(n, width);
    let mut bb = BatchGrid::zeros(n, width);
    for (k, b) in bs.iter().enumerate() {
        xb.load_lane(k, &lane_x0(k));
        bb.load_lane(k, b);
    }
    fam.run_batch(level, acc_idx, &mut xb, &bb, &mut ctx);
    let mut got = Grid2d::zeros(n);
    for (k, solo) in solos.iter().enumerate() {
        xb.store_lane(k, &mut got);
        assert_eq!(
            got.as_slice(),
            solo.as_slice(),
            "batched lane {k} diverged from solo at n={n} width={width} on {backend}"
        );
    }

    // Time. The cycle shape is fixed by the plan, not by convergence,
    // so re-cycling a converged iterate does identical work per call.
    let mut xs = solos;
    let solo_vcycles_s = time_best(trials, || {
        for _ in 0..reps {
            for (k, x) in xs.iter_mut().enumerate() {
                fam.run(level, acc_idx, black_box(x), &bs[k], &mut ctx);
            }
        }
    }) / reps as f64;
    let batched_vcycle_s = time_best(trials, || {
        for _ in 0..reps {
            fam.run_batch(level, acc_idx, black_box(&mut xb), &bb, &mut ctx);
        }
    }) / reps as f64;

    SolveManyRecord {
        backend: backend.to_string(),
        n,
        width,
        solo_vcycles_s,
        batched_vcycle_s,
        speedup: solo_vcycles_s / batched_vcycle_s,
    }
}

/// Telemetry tax on a warm guarded solve. Three configurations run the
/// identical work — the converged iterate is re-solved, which replays
/// the open-loop tuned rung plus one residual check per call — with
/// (a) no telemetry feed attached, (b) a feed attached but the process
/// gate closed (the shipped default), and (c) the gate open in metrics
/// mode.
fn bench_telemetry_overhead(n: usize, trials: usize, quick: bool) -> TelemetryOverheadRecord {
    let level = size_level(n).expect("bench sizes are 2^k + 1");
    let problem = Problem::poisson();
    let inst = ProblemInstance::random_for(&problem, level, Distribution::UnbiasedUniform, 0x7E1E);
    let cache = Arc::new(DirectSolverCache::new());
    let workspace = Arc::new(Workspace::new());
    let fam = simple_v_family(level, &PAPER_ACCURACIES);
    let registry = obs::Registry::new();
    let feed = Arc::new(SolveTelemetry::register(&registry));

    let plain = GuardedSolver::new(problem.clone())
        .with_plan(fam.clone())
        .with_cache(Arc::clone(&cache))
        .with_workspace(Arc::clone(&workspace));
    let instrumented = GuardedSolver::new(problem)
        .with_plan(fam)
        .with_cache(cache)
        .with_workspace(workspace)
        .with_telemetry(feed);

    let tol = 1e-6;
    let mut x = inst.working_grid();
    obs::set_mode(TelemetryMode::Off);
    plain
        .solve(&mut x, &inst.b, tol)
        .expect("poisson converges on the tuned rung");

    // The disabled-path delta is nanoseconds against milliseconds of
    // solve, so this sweep takes more best-of trials than the kernel
    // sweeps to make the < 1% assertion robust to scheduler noise.
    let trials = trials.max(5);
    let reps = (reps_for(n, quick) / 4).max(2);
    let mut timed = |solver: &GuardedSolver, mode: TelemetryMode| {
        obs::set_mode(mode);
        let s = time_best(trials, || {
            for _ in 0..reps {
                solver
                    .solve(black_box(&mut x), &inst.b, tol)
                    .expect("warm re-solve stays converged");
            }
        }) / reps as f64;
        obs::set_mode(TelemetryMode::Off);
        s
    };
    let baseline_s = timed(&plain, TelemetryMode::Off);
    let gated_off_s = timed(&instrumented, TelemetryMode::Off);
    let enabled_s = timed(&instrumented, TelemetryMode::Metrics);

    TelemetryOverheadRecord {
        n,
        baseline_s,
        gated_off_s,
        enabled_s,
        gated_off_overhead: gated_off_s / baseline_s - 1.0,
        enabled_overhead: enabled_s / baseline_s - 1.0,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || petamg_core::env::bench_quick();
    let out_path =
        petamg_core::env::bench_out().unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let trials = if quick { 2 } else { 5 };
    let sizes: &[usize] = if quick {
        &[65, 513]
    } else {
        &[65, 129, 257, 513, 1025]
    };

    petamg_bench::banner(
        "kernel_fusion",
        "fused residual_restrict / interpolate_correct vs unfused reference path,\n\
         plus block-cursor band and temporal-block sweeps",
        "step = residual -> restrict -> interpolate-correct; unfused allocates\n\
         fresh grids per pass (seed behaviour), fused leases from the workspace.\n\
         band rows: band_rows=1 is the PR 1 pooled path (3 residual rows per\n\
         coarse-row task); taller bands share the rolling window.\n\
         Fused/unfused/blocked verified bitwise equal before timing.",
    );
    println!(
        "# vector_backend={} batch_width={}",
        vector_backend(),
        batch_width()
    );
    println!("n,backend,step_unfused_us,step_fused_us,step_speedup,rr_speedup,interp_speedup");

    let pool_threads = 2;
    let pool_exec = Exec::pbrt(pool_threads);
    let pool_name = format!("pbrt{pool_threads}");
    let mut size_records = Vec::new();
    for &n in sizes {
        let mut backends = Vec::new();
        for (name, exec) in [
            ("seq".to_string(), Exec::seq()),
            (pool_name.clone(), pool_exec.clone()),
        ] {
            let rec = bench_backend(&name, &exec, n, trials, quick);
            println!(
                "{},{},{:.2},{:.2},{:.3},{:.3},{:.3}",
                n,
                rec.backend,
                rec.step_unfused_alloc_s * 1e6,
                rec.step_fused_pooled_s * 1e6,
                rec.step_speedup,
                rec.rr_speedup,
                rec.interp_speedup
            );
            backends.push(rec);
        }
        size_records.push(SizeRecord { n, backends });
    }

    // Block-cursor band sweep (pooled fused residual_restrict).
    println!("#\nkind,n,backend,band_rows,rr_fused_us,speedup_vs_band1,fused_par_vs_seq");
    let bands: &[usize] = if quick {
        &[1, 8, 32]
    } else {
        &[1, 4, 8, 16, 32, 64, 128]
    };
    let band_sizes: &[usize] = if quick { &[513] } else { &[129, 513, 1025] };
    let mut band_sweep = Vec::new();
    for &n in band_sizes {
        band_sweep.extend(bench_band_sweep(
            &pool_exec, &pool_name, n, bands, trials, quick,
        ));
    }

    // Temporal-block depth sweep.
    println!("#\nkind,n,backend,tblock,blocked_us,staged_us,speedup");
    let depths: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let tblock_sizes: &[usize] = if quick { &[513] } else { &[129, 513, 1025] };
    let tblock_sweeps = 4;
    let mut tblock_sweep = Vec::new();
    for &n in tblock_sizes {
        for (name, exec) in [
            ("seq", Exec::seq()),
            (pool_name.as_str(), pool_exec.clone()),
        ] {
            tblock_sweep.extend(bench_tblock_sweep(
                name,
                &exec,
                n,
                tblock_sweeps,
                depths,
                trials,
                quick,
            ));
        }
    }

    // Per-level knob tables vs one global setting, on tuned-plan cycles.
    println!("#\nkind,n,backend,global_cycle_us,per_level_cycle_us,speedup,tune_evals");
    let knob_sizes: &[usize] = if quick { &[129] } else { &[129, 513, 1025] };
    let mut per_level_knobs = Vec::new();
    for &n in knob_sizes {
        per_level_knobs.push(bench_per_level_knobs(
            &pool_exec, &pool_name, n, trials, quick,
        ));
    }

    // Scalar-vs-vector row-path sweep (per kernel).
    println!("#\nkind,n,kernel,vector_backend,scalar_us,vector_us,speedup");
    let simd_sizes: &[usize] = if quick {
        &[129, 513]
    } else {
        &[129, 513, 1025]
    };
    let mut simd_sweep = Vec::new();
    for &n in simd_sizes {
        simd_sweep.extend(bench_simd_sweep(n, trials, quick));
    }

    // Operator-family sweep: per-problem V-cycle cost + tuned-plan
    // divergence (deterministic modeled tune per problem).
    println!("#\nkind,problem,n,vcycle_us,vs_poisson,diverges,top_plans");
    let problem_n = if quick { 65 } else { 129 };
    let problem_sweep = bench_problem_sweep(&pool_exec, problem_n, trials, quick);

    // Batched multi-RHS V-cycles vs solo, per backend and width.
    println!("#\nkind,n,backend,width,solo_us,batched_us,speedup");
    let batch_sizes: &[usize] = if quick { &[129] } else { &[129, 513, 1025] };
    let mut batch_sweep = Vec::new();
    for &n in batch_sizes {
        for (name, exec) in [
            ("seq", Exec::seq()),
            (pool_name.as_str(), pool_exec.clone()),
        ] {
            for width in [4, 8] {
                let rec = bench_batch_sweep(name, &exec, n, width, trials, quick);
                println!(
                    "batch,{},{},{},{:.2},{:.2},{:.3}",
                    rec.n,
                    rec.backend,
                    rec.width,
                    rec.solo_vcycles_s * 1e6,
                    rec.batched_vcycle_s * 1e6,
                    rec.speedup
                );
                batch_sweep.push(rec);
            }
        }
    }

    // Telemetry tax: attached-but-gated-off must be free.
    println!("#\nkind,n,baseline_us,gated_off_us,enabled_us,off_overhead,enabled_overhead");
    let mut telemetry_overhead = Vec::new();
    for &n in &[65usize, 513] {
        let rec = bench_telemetry_overhead(n, trials, quick);
        println!(
            "telemetry,{},{:.2},{:.2},{:.2},{:+.4},{:+.4}",
            rec.n,
            rec.baseline_s * 1e6,
            rec.gated_off_s * 1e6,
            rec.enabled_s * 1e6,
            rec.gated_off_overhead,
            rec.enabled_overhead
        );
        if rec.n == 513 {
            assert!(
                rec.gated_off_overhead < 0.01,
                "attached-but-disabled telemetry must cost < 1% at n=513 \
                 (measured {:+.4})",
                rec.gated_off_overhead
            );
        }
        telemetry_overhead.push(rec);
    }
    // Leave the gate where the environment asked for it.
    obs::set_mode(petamg_core::env::telemetry_mode());

    let report = Report {
        bench: "kernel_fusion".to_string(),
        quick,
        trials,
        reps_scale: "~16M points touched per trial".to_string(),
        vector_backend: vector_backend().to_string(),
        batch_width: batch_width(),
        sizes: size_records,
        band_sweep,
        tblock_sweep,
        per_level_knobs,
        simd_sweep,
        problem_sweep,
        batch_sweep,
        telemetry_overhead,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    println!("# wrote {out_path}");
}
