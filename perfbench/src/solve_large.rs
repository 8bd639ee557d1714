//! `solve-large`: the paper's time-to-accuracy runs (§2.2, Fig 9).
//!
//! One thread, no service. Quick-tuned V families for Poisson and the
//! ×1000 jump inclusion at level 9 (n = 513, 2.1 MB per grid, more than
//! a core's L2) run with [`TunedFamily::run`] to the paper accuracies
//! 10⁵ and 10⁹ in a fixed cyclic order over the four (family ×
//! accuracy) classes. Every solve is checked against the accuracy
//! contract outside its timing: the achieved ratio
//! `‖x_in − x_opt‖ / ‖x_out − x_opt‖`, against an `x_opt` computed in
//! set-up, must reach the target.

use crate::common::{self, ms_since, Args};
use crate::report::{Outcome, CLASSES, KERNEL_LEVELS, LATENCY_QUANTILE, OP_KINDS};
use crate::spans::{Open, SpanLog};
use crate::stats::{gmean, median, quantile, ratio};
use petamg_core::error_ratio;
use petamg_core::plan::{ExecCtx, TunedFamily};
use petamg_core::trace::Tracer;
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_core::tuner::{TunerOptions, VTuner};
use petamg_core::OpCounts;
use petamg_grid::{level_size, Exec, Grid2d, Workspace};
use petamg_obs::{self as obs, TelemetryMode};
use petamg_problems::Problem;
use petamg_solvers::{DirectSolverCache, MgConfig, ReferenceSolver, SolveStatus};
use std::sync::Arc;
use std::time::Instant;

/// Level 9: n = 513.
const LEVEL: usize = KERNEL_LEVELS;
/// Instances per family, cycled through in order.
const INSTANCES: usize = 2;
/// The traced run audits the accuracy contract one level down, where
/// quick-tuned jump plans miss 1e9 on some inputs (see `audit`).
const AUDIT_LEVEL: usize = 8;
const AUDIT_INSTANCES: usize = 8;
const AUDIT_STREAM: u64 = 50;
/// The paper accuracies the classes solve to.
const TARGETS: [f64; 2] = [1e5, 1e9];
/// Warm-up passes over every (class, instance) pair before timing.
const WARMUP_PASSES: usize = 1;
/// Reference V-cycle cap when finding the cycles to a target.
const REF_MAX_CYCLES: usize = 1000;
/// Traced-run reconciliation: per-level kernel time must cover at
/// least this share of plan-execution time.
const KERNEL_COVERAGE_TOL: f64 = 0.9;

struct Family {
    problem: Problem,
    plan: TunedFamily,
    /// Inputs and their converged solutions `x_opt`.
    instances: Vec<(ProblemInstance, Grid2d)>,
    tune_s: f64,
    candidates: usize,
}

struct Setup {
    level: usize,
    families: Vec<Family>,
    cache: Arc<DirectSolverCache>,
    workspace: Arc<Workspace>,
}

impl Setup {
    /// Tune both families at `level` and draw `instances` inputs each
    /// (from stream `stream` of `seed`) with their `x_opt`.
    fn build(
        level: usize,
        instances: usize,
        (seed, stream): (u64, u64),
        spans: &SpanLog,
        parent: Option<Open>,
    ) -> Setup {
        let root = spans.open("setup", parent, level as u64);
        let cache = Arc::new(DirectSolverCache::new());
        let families = [
            Problem::poisson(),
            Problem::jump_inclusion(level_size(level)),
        ]
        .into_iter()
        .enumerate()
        .map(|(f, problem)| {
            let span = spans.open("VTuner::tune", root, f as u64);
            let t = Instant::now();
            let (plan, diags) = VTuner::new(
                TunerOptions::quick(level, Distribution::UnbiasedUniform)
                    .with_problem(problem.clone()),
            )
            .tune_with_diagnostics();
            let tune_s = t.elapsed().as_secs_f64();
            spans.close(span);
            let span = spans.open("reference_solution", root, f as u64);
            let instances = (0..instances)
                .map(|i| {
                    let inst = common::instance(
                        &problem,
                        level,
                        common::mix(seed, stream + f as u64, i as u64),
                    );
                    let x_opt = converged_solution(&problem, &inst.x0, &inst.b, &cache);
                    (inst, x_opt)
                })
                .collect();
            spans.close(span);
            for target in TARGETS {
                plan.warm_factors_for(&problem, level, plan.acc_index_for(target), &cache);
            }
            Family {
                problem,
                plan,
                instances,
                tune_s,
                candidates: diags.evaluations.len(),
            }
        })
        .collect();
        spans.close(root);
        Setup {
            level,
            families,
            cache,
            workspace: Arc::new(Workspace::new()),
        }
    }

    /// One execution context per family, sharing the factor cache and
    /// the scratch arena.
    fn contexts(&self, tracer: Tracer) -> Vec<ExecCtx> {
        self.families
            .iter()
            .map(|fam| {
                let mut ctx = ExecCtx::with_cache(Exec::seq(), Arc::clone(&self.cache))
                    .with_problem(fam.problem.clone())
                    .with_workspace(Arc::clone(&self.workspace));
                if !fam.plan.knobs.is_all_default() {
                    ctx = ctx.with_knob_table(fam.plan.knobs.clone());
                }
                ctx.tracer = tracer.clone();
                ctx
            })
            .collect()
    }
}

/// What one measured window saw.
#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    wall_s: f64,
    /// Plan-execution milliseconds per operation, in order.
    times_ms: Vec<f64>,
    /// The same samples split by class.
    class_ms: [Vec<f64>; 4],
    /// Traced windows only: kernel seconds per level, summed.
    kernel_s: [f64; KERNEL_LEVELS + 1],
    /// Traced windows only: operation counts of one solve per class.
    class_ops: [Option<OpCounts>; 4],
    /// Traced windows only: whether every solve of a class counted the
    /// same operations.
    ops_repeat: bool,
    /// The lowest achieved / target accuracy of any solve.
    worst_ratio: f64,
    /// What the first few failed accuracy checks read.
    misses: Vec<String>,
}

impl Window {
    /// Geometric mean over the classes of each class's `q`-quantile
    /// solve time. A percentile of the mixed cyclic sequence would
    /// mostly say which class a sample came from, so `solve-large`
    /// reports its latency percentiles class by class.
    fn class_gmean_ms(&self, q: f64) -> f64 {
        gmean(
            &self
                .class_ms
                .iter()
                .map(|s| quantile(s, q))
                .collect::<Vec<_>>(),
        )
    }

    /// Time to accuracy: the class-balanced median.
    fn tta_gmean_ms(&self) -> f64 {
        self.class_gmean_ms(0.5)
    }

    fn throughput(&self) -> f64 {
        ratio((self.attempted - self.failed) as f64, self.wall_s)
    }
}

/// The exact discrete solution of `A x = b` (boundary from `x0`) to
/// round-off: full multigrid, then reference V cycles until the
/// residual reaches 1e-14·‖b‖ or stops improving — no 1% gain on its
/// best value for `STALL` cycles in a row.
///
/// `petamg_core::accuracy::reference_solution_for` stops at the first
/// cycle that gains less than 10%, which on `jump_inclusion(513)`
/// leaves some inputs far from converged (every tuned solve of such an
/// input then reads accuracy ≈ 3), so the contract check uses this
/// stall-tolerant loop instead.
fn converged_solution(
    problem: &Problem,
    x0: &Grid2d,
    b: &Grid2d,
    cache: &Arc<DirectSolverCache>,
) -> Grid2d {
    const STALL: usize = 10;
    const MAX_CYCLES: usize = 2000;
    let solver = ReferenceSolver::with_cache(
        MgConfig {
            problem: problem.clone(),
            ..MgConfig::default()
        },
        Arc::clone(cache),
    );
    let mut x = x0.clone();
    x.zero_interior();
    solver.fmg(&mut x, b);
    let (mut best, mut since_best) = (f64::INFINITY, 0);
    for _ in 0..MAX_CYCLES {
        let rel = solver.rel_residual(&x, b);
        if rel <= 1e-14 {
            break;
        }
        if rel < 0.99 * best {
            (best, since_best) = (rel, 0);
        } else {
            since_best += 1;
            if since_best >= STALL {
                break;
            }
        }
        solver.vcycle(&mut x, b);
    }
    x
}

/// Class `c` solves family `c / 2` to `TARGETS[c % 2]`.
fn class_of(c: usize) -> (usize, f64) {
    (c / 2, TARGETS[c % 2])
}

/// Run the fixed cyclic sequence for `seconds` (or exactly `passes`
/// passes over every (class, instance) pair when given).
fn measure(
    setup: &Setup,
    seconds: f64,
    passes: Option<usize>,
    traced: bool,
    spans: &SpanLog,
) -> Window {
    let tracer = if traced {
        Tracer::timing_all()
    } else {
        Tracer::disabled()
    };
    let mut ctxs = setup.contexts(tracer);
    let exec = Exec::seq();
    let level = setup.level;
    let instances = setup.families[0].instances.len();
    let mut x = Grid2d::zeros(level_size(level));
    let mut w = Window {
        ops_repeat: true,
        worst_ratio: f64::INFINITY,
        ..Window::default()
    };
    let per_pass = CLASSES.len() * instances;
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        match passes {
            Some(p) if i >= p * per_pass => break,
            None if start.elapsed().as_secs_f64() >= seconds => break,
            _ => {}
        }
        let c = i % CLASSES.len();
        let (f, target) = class_of(c);
        let fam = &setup.families[f];
        let (inst, x_opt) = &fam.instances[(i / CLASSES.len()) % instances];
        let acc_idx = fam.plan.acc_index_for(target);
        let ctx = &mut ctxs[f];
        if traced {
            ctx.reset_counters();
        }
        x.copy_from(&inst.x0);
        let span = spans.open("TunedFamily::run", None, i as u64);
        let t = Instant::now();
        fam.plan.run(level, acc_idx, &mut x, &inst.b, ctx);
        let dt = ms_since(t);
        spans.close(span);
        w.attempted += 1;
        let achieved = error_ratio(&inst.x0, &x, x_opt, &exec);
        w.worst_ratio = w.worst_ratio.min(achieved / target);
        let met = achieved >= target;
        if !met {
            if w.misses.len() < 8 {
                w.misses.push(format!(
                    "{} solve {i} reached accuracy {achieved:.4e} < {target:e}",
                    CLASSES[c]
                ));
            }
            w.failed += 1;
        }
        w.times_ms.push(dt);
        w.class_ms[c].push(dt);
        if traced {
            for (k, s) in ctx.tracer.level_kernel_seconds().iter().enumerate() {
                w.kernel_s[k.min(KERNEL_LEVELS)] += s;
            }
            match &w.class_ops[c] {
                None => w.class_ops[c] = Some(ctx.ops.clone()),
                Some(ops) => w.ops_repeat &= *ops == ctx.ops,
            }
        }
        i += 1;
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w
}

/// Sum one counter over every level of `ops`.
fn op_total(ops: &OpCounts, kind: &str) -> u64 {
    ops.per_level
        .iter()
        .map(|l| match kind {
            "relax_sweeps" => l.relax_sweeps,
            "residuals" => l.residuals,
            "restricts" => l.restricts,
            "interps" => l.interps,
            _ => l.direct_solves,
        })
        .sum()
}

/// Bytes the operations at `level` move, computed from grid sizes (not
/// measured): with `G = 8·n²` bytes per grid and `c` coefficient
/// arrays per stencil application (0 for Poisson, 5 for the
/// variable-coefficient family), a relaxation sweep or residual moves
/// `(3 + c)·G` (read x and b, write x or r), a restriction `1.25·G`,
/// an interpolation `2.25·G`, and a band direct solve reads its
/// `n² × n` factor twice.
fn computed_bytes(ops: &OpCounts, level: usize, coeff_arrays: f64) -> f64 {
    let Some(l) = ops.per_level.get(level) else {
        return 0.0;
    };
    let n = level_size(level) as f64;
    let g = 8.0 * n * n;
    (l.relax_sweeps + l.residuals) as f64 * (3.0 + coeff_arrays) * g
        + l.restricts as f64 * 1.25 * g
        + l.interps as f64 * 2.25 * g
        + l.direct_solves as f64 * 2.0 * g * n
}

fn coeff_arrays(problem: &Problem) -> f64 {
    if problem.is_poisson() {
        0.0
    } else {
        5.0
    }
}

/// Paper baseline: reference V cycles (`MULTIGRID-V-SIMPLE` iterated)
/// to the same accuracy on the same instances. The cycle count is
/// found first with the accuracy check in the loop; then exactly that
/// many cycles are timed without it. Returns the per-class medians.
fn reference_v(setup: &Setup, spans: &SpanLog, out: &mut Outcome) -> Vec<f64> {
    let exec = Exec::seq();
    let parent = spans.open("reference_v_baseline", None, 0);
    let medians = (0..CLASSES.len())
        .map(|c| {
            let (f, target) = class_of(c);
            let fam = &setup.families[f];
            let solver = ReferenceSolver::with_cache(
                MgConfig {
                    problem: fam.problem.clone(),
                    ..MgConfig::default()
                },
                Arc::clone(&setup.cache),
            );
            let times: Vec<f64> = fam
                .instances
                .iter()
                .map(|(inst, x_opt)| {
                    let mut x = inst.working_grid();
                    let found = solver.solve_v_until(&mut x, &inst.b, REF_MAX_CYCLES, |x| {
                        error_ratio(&inst.x0, x, x_opt, &exec) >= target
                    });
                    let cycles = match found {
                        SolveStatus::Converged { cycles } => cycles,
                        other => {
                            out.check(
                                false,
                                &format!("reference V missed {} ({other:?})", CLASSES[c]),
                            );
                            REF_MAX_CYCLES
                        }
                    };
                    x.copy_from(&inst.x0);
                    let span = spans.open("ReferenceSolver::solve_v_until", parent, c as u64);
                    let t = Instant::now();
                    solver.solve_v_until(&mut x, &inst.b, cycles, |_| false);
                    let dt = ms_since(t);
                    spans.close(span);
                    out.check(
                        error_ratio(&inst.x0, &x, x_opt, &exec) >= target,
                        "timed reference V reaches its target",
                    );
                    dt
                })
                .collect();
            median(&times)
        })
        .collect();
    spans.close(parent);
    medians
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    if !args.trace {
        let (setup, setup_s) = common::repeated_setup(args.workload.setup_reps(), |_| {
            let s = Setup::build(LEVEL, INSTANCES, (args.seed, 0), &SpanLog::new(false), None);
            measure(&s, 0.0, Some(WARMUP_PASSES), false, &SpanLog::new(false));
            s
        });
        let w = measure(&setup, args.seconds, None, false, &SpanLog::new(false));
        println!(
            "# solve-large: {} solves in {:.3} s ({:.3}/s); class medians (ms) {:?}; tta_gmean {:.4} ms",
            w.times_ms.len(),
            w.wall_s,
            w.throughput(),
            w.class_ms.iter().map(|s| median(s)).collect::<Vec<_>>(),
            w.tta_gmean_ms()
        );
        report_misses(&w);
        out.attempted = w.attempted;
        out.failed = w.failed;
        out.set("latency_p90_ms", w.class_gmean_ms(LATENCY_QUANTILE));
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", common::peak_rss_mb());
        return out;
    }

    let spans = SpanLog::new(true);
    let setup = Setup::build(LEVEL, INSTANCES, (args.seed, 0), &spans, None);
    measure(
        &setup,
        0.0,
        Some(WARMUP_PASSES),
        false,
        &SpanLog::new(false),
    );
    let allocs0 = setup.workspace.stats().allocations;
    let half = args.seconds / 2.0;
    let plain = measure(&setup, half, None, false, &SpanLog::new(false));
    obs::set_mode(TelemetryMode::Trace);
    let traced = measure(&setup, half, None, true, &spans);
    obs::set_mode(TelemetryMode::Off);
    report_misses(&plain);
    report_misses(&traced);
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    out.set(
        "arena.allocs_after_warmup",
        (setup.workspace.stats().allocations - allocs0) as f64,
    );

    for (f, name) in ["poisson", "jump"].into_iter().enumerate() {
        out.set(format!("tuner.tune_s.{name}"), setup.families[f].tune_s);
    }
    out.set(
        "tuner.candidates",
        setup
            .families
            .iter()
            .map(|f| f.candidates as f64)
            .sum::<f64>(),
    );

    // Plan executor and kernels.
    let solves = traced.times_ms.len() as f64;
    let solve_s: f64 = traced.times_ms.iter().sum::<f64>() * 1e-3;
    let kernel_s: f64 = traced.kernel_s.iter().sum();
    for level in 1..=KERNEL_LEVELS {
        out.set(
            format!("plan.kernel_ms.L{level}"),
            ratio(traced.kernel_s[level] * 1e3, solves),
        );
    }
    out.set("plan.kernel_share", ratio(kernel_s, solve_s));
    out.check(
        traced.ops_repeat,
        "every solve of a class counts the same operations",
    );
    let mut bytes_per_class = Vec::new();
    let mut bytes_top = Vec::new();
    let mut direct_level = 0;
    for (c, class) in CLASSES.iter().enumerate() {
        let ops = traced.class_ops[c].clone().unwrap_or_default();
        for kind in OP_KINDS {
            out.set(
                format!("plan.ops.{kind}.{class}"),
                op_total(&ops, kind) as f64,
            );
        }
        let coeffs = coeff_arrays(&setup.families[class_of(c).0].problem);
        bytes_per_class.push(
            (1..=LEVEL)
                .map(|l| computed_bytes(&ops, l, coeffs))
                .sum::<f64>(),
        );
        bytes_top.push(computed_bytes(&ops, LEVEL, coeffs));
        if let Some(l) = ops.per_level.iter().rposition(|l| l.direct_solves > 0) {
            direct_level = direct_level.max(l);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.set("plan.bytes_computed_per_solve", mean(&bytes_per_class));
    out.set(
        format!("plan.gbps_computed.L{LEVEL}"),
        ratio(mean(&bytes_top) * solves, traced.kernel_s[LEVEL]) * 1e-9,
    );

    // Direct solves: how many the plans run, and what one costs at the
    // largest size they factor.
    let direct_solves: u64 = (0..CLASSES.len())
        .map(|c| {
            let per_solve = traced.class_ops[c]
                .as_ref()
                .map_or(0, |o| op_total(o, "direct_solves"));
            per_solve * traced.class_ms[c].len() as u64
        })
        .sum();
    out.set("direct.solves", direct_solves as f64);
    out.set("direct.factor_evictions", setup.cache.evictions() as f64);
    if direct_level > 0 {
        let n = level_size(direct_level);
        let parent = spans.open("direct_probe", None, n as u64);
        let mut times = Vec::new();
        for fam in &setup.families {
            let op = fam.problem.op_for(n);
            let inst = common::instance(&fam.problem, direct_level, common::mix(args.seed, 7, 0));
            let mut x = inst.working_grid();
            for _ in 0..32 {
                x.copy_from(&inst.x0);
                let span = spans.open("DirectSolverCache::solve_op", parent, n as u64);
                let t = Instant::now();
                setup.cache.solve_op(&mut x, &inst.b, &op);
                times.push(ms_since(t));
                spans.close(span);
            }
        }
        spans.close(parent);
        out.set("direct.ms.p50", median(&times));
    }

    // Trace overhead and the reconciliation of kernel time against
    // plan-execution time.
    out.set("obs.untraced_throughput_per_s", plain.throughput());
    out.set("obs.traced_throughput_per_s", traced.throughput());
    out.set(
        "obs.trace_overhead",
        1.0 - ratio(traced.throughput(), plain.throughput()),
    );
    let covered = ratio(kernel_s, solve_s);
    out.set("recon.client_ms_per_op", ratio(solve_s * 1e3, solves));
    out.set("recon.covered_share", covered);
    out.set(
        "recon.uncovered_ms_per_op",
        ratio((solve_s - kernel_s) * 1e3, solves),
    );
    out.set(
        "recon.within_tolerance",
        f64::from(u8::from(covered >= KERNEL_COVERAGE_TOL)),
    );
    println!(
        "# solve-large reconciliation: per-level kernel time covers {:.1}% of plan-execution time (tolerance: at least {:.0}%)",
        covered * 100.0,
        KERNEL_COVERAGE_TOL * 100.0
    );

    // Paper baseline (Fig 9 on this host).
    let tuned = plain.tta_gmean_ms();
    let reference = gmean(&reference_v(&setup, &spans, &mut out));
    out.set("solve.tuned_tta_gmean_ms", tuned);
    out.set("solve.ref_v_tta_gmean_ms", reference);
    out.set("solve.speedup_vs_ref_v", ratio(reference, tuned));

    audit(args.seed, &spans, &mut out);
    crate::write_trace(args, &spans, None);
    out
}

fn report_misses(w: &Window) {
    for miss in &w.misses {
        eprintln!("perfbench: {miss}");
    }
}

/// Accuracy-contract audit one level down (n = 257), on fresh inputs:
/// every class solved once per input and checked like the measured
/// solves. At this level the quick-tuned 1e9 jump plan reaches only
/// 5.5e8–9.8e8 on about a quarter of inputs (confirmed against the
/// exact band-Cholesky solution), while the level-9 plans clear their
/// targets with room to spare. The audit keeps that shortfall in view
/// as numbers rather than failed operations, since level 8 is not the
/// measured workload.
fn audit(seed: u64, spans: &SpanLog, out: &mut Outcome) {
    let parent = spans.open("contract_audit", None, AUDIT_LEVEL as u64);
    let setup = Setup::build(
        AUDIT_LEVEL,
        AUDIT_INSTANCES,
        (seed, AUDIT_STREAM),
        spans,
        parent,
    );
    let w = measure(&setup, 0.0, Some(1), false, &SpanLog::new(false));
    spans.close(parent);
    println!(
        "# contract audit at level {AUDIT_LEVEL}: {} of {} solves missed their accuracy target (lowest achieved / target {:.4})",
        w.failed, w.attempted, w.worst_ratio
    );
    for miss in &w.misses {
        println!("#   {miss}");
    }
    out.set("solve.audit_l8.solves", w.attempted as f64);
    out.set("solve.audit_l8.misses", w.failed as f64);
    out.set("solve.audit_l8.worst_ratio", w.worst_ratio);
}
