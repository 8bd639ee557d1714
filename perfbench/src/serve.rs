//! `serve-solo` and `serve-batched`: closed-loop traffic through
//! [`SolverService`].
//!
//! Two client threads (one per core). Each offers a group of
//! `batch_width()` requests for one fingerprint — alternating Poisson
//! and `smooth_sinusoidal(129)` at n = 129, tol 1e-8 — and waits for
//! every answer before offering the next group. `serve-solo` submits a
//! group as separate `submit`s; `serve-batched` as one `submit_many`.
//! That is the only difference, so the pair isolates the batched lanes.
//!
//! Every response is checked outside its latency timing: it must be
//! bitwise equal to a solo reference computed in set-up with
//! `GuardedSolver::solve` on the library's plan (solo = batched), and
//! its relative residual, recomputed with `residual_op`, must be ≤ tol.
//!
//! This module also holds what the service workloads share: the
//! request records, the counter snapshots and the per-layer metrics
//! read from them.

use crate::common::{self, bitwise_eq, ms_since, Args};
use crate::report::{Outcome, KERNEL_LEVELS, LATENCY_QUANTILE};
use crate::spans::SpanLog;
use crate::stats::{gmean, hist_quantile_ms, hist_sum_s, median, quantile, ratio};
use petamg_core::guard::{GuardedReport, GuardedSolver};
use petamg_core::trace::LadderRung;
use petamg_core::training::ProblemInstance;
use petamg_grid::{level_size, Grid2d};
use petamg_obs::{self as obs, TelemetryMode, TelemetrySnapshot};
use petamg_problems::Problem;
use petamg_serve::{
    plan_source_label, LibraryStats, PlanOrigin, PlanSource, ServeResponse, ServiceStats,
    SolveRequest, SolverService,
};
use petamg_solvers::SolveStatus;
use std::path::Path;
use std::time::Instant;

/// Level 7: n = 129.
const LEVEL: usize = 7;
/// Relative-residual target of every request.
pub const TOL: f64 = 1e-8;
/// Distinct inputs per family (each with its own solo reference). A
/// group draws its members at random from the pool, so a run mixes
/// many group compositions and its medians do not hinge on a few.
const POOL: usize = 64;
/// Groups each client runs to warm up, through the measured path.
const WARMUP_GROUPS: usize = 8;
/// Times the plan library reloads each plan from disk in the traced
/// run's `PlanLibrary::get` probe.
const GET_DISK_REPS: usize = 16;
/// Direct solves timed in the traced run's direct probe.
const DIRECT_REPS: usize = 32;
/// Traced-run reconciliation tolerance: the server-side phases
/// (queue wait + plan resolve + solve, plus batch assembly) must cover
/// at least this share of the client-measured latency sum.
pub const RECON_TOL: f64 = 0.1;

/// One served request as its client saw it.
#[derive(Clone, Debug)]
pub struct Served {
    /// Client latency: submit → the client observed the answer.
    pub latency_ms: f64,
    /// `GuardedReport::seconds` (the group's wall time for a batched
    /// lane).
    pub solve_s: f64,
    pub rung: LadderRung,
    pub degradations: usize,
    pub cycles: usize,
    pub direct_solves: u64,
    /// Deepest level at which the solve ran a direct solve (0: none).
    pub direct_level: usize,
    pub source: PlanSource,
}

impl Served {
    pub fn new(latency_ms: f64, report: &GuardedReport, source: PlanSource) -> Self {
        Served {
            latency_ms,
            solve_s: report.seconds,
            rung: report.rung,
            degradations: report.degradations.len(),
            cycles: match report.status {
                SolveStatus::Converged { cycles } | SolveStatus::BudgetExhausted { cycles } => {
                    cycles
                }
            },
            direct_solves: report.ops.total_direct_solves(),
            direct_level: report
                .ops
                .per_level
                .iter()
                .rposition(|l| l.direct_solves > 0)
                .unwrap_or(0),
            source,
        }
    }
}

/// What the clients of one measured window saw.
#[derive(Default)]
pub struct Log {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each operation (a group, or a request) and its class.
    pub op_ms: Vec<f64>,
    pub op_class: Vec<usize>,
    /// Every successfully served request.
    pub served: Vec<Served>,
    /// Client-side latency summed per server dispatch (a request, or a
    /// batch group) — the reconciliation's client side.
    pub client_sum_ms: f64,
    /// Server dispatches (requests, or batch groups).
    pub dispatches: u64,
    /// Batched groups: (group solve seconds, lanes).
    pub groups: Vec<(f64, usize)>,
    /// Window wall time: start → last client done.
    pub wall_s: f64,
}

impl Log {
    pub fn merge(&mut self, other: Log) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.op_ms.extend(other.op_ms);
        self.op_class.extend(other.op_class);
        self.served.extend(other.served);
        self.client_sum_ms += other.client_sum_ms;
        self.dispatches += other.dispatches;
        self.groups.extend(other.groups);
    }

    /// Verified requests per second.
    pub fn throughput(&self) -> f64 {
        ratio(self.served.len() as f64, self.wall_s)
    }

    /// Geometric mean over classes of each class's `q`-quantile
    /// operation latency.
    pub fn class_gmean_ms(&self, classes: usize, q: f64) -> f64 {
        let per_class: Vec<f64> = (0..classes)
            .map(|c| {
                let s: Vec<f64> = self
                    .op_ms
                    .iter()
                    .zip(&self.op_class)
                    .filter(|&(_, &k)| k == c)
                    .map(|(&v, _)| v)
                    .collect();
                quantile(&s, q)
            })
            .filter(|&m| m > 0.0)
            .collect();
        gmean(&per_class)
    }

    /// The end-to-end metrics of an untraced window.
    pub fn end_to_end(&self, out: &mut Outcome, classes: usize, setup_s: &[f64]) {
        out.attempted = self.attempted;
        out.failed = self.failed;
        out.set(
            "latency_p90_ms",
            self.class_gmean_ms(classes, LATENCY_QUANTILE),
        );
        // Not gated (they move with the host's state mix, see
        // `LATENCY_QUANTILE`), but printed for the reader.
        println!(
            "# {} operations: throughput {:.3}/s, p50 {:.4} ms, p99 {:.4} ms, class-median gmean {:.4} ms",
            self.op_ms.len(),
            self.throughput(),
            median(&self.op_ms),
            quantile(&self.op_ms, 0.99),
            self.class_gmean_ms(classes, 0.5)
        );
        out.set("setup_s", median(setup_s));
        out.set("peak_rss_mb", common::peak_rss_mb());
    }
}

/// Always-on service counters, read before and after a window.
#[derive(Clone, Copy)]
pub struct Counters {
    pub stats: ServiceStats,
    pub library: LibraryStats,
    pub factor_evictions: u64,
    pub arena_allocations: u64,
}

impl Counters {
    pub fn read(svc: &SolverService) -> Self {
        Counters {
            stats: svc.stats(),
            library: svc.library().stats(),
            factor_evictions: svc.direct_cache().evictions(),
            arena_allocations: svc.arena_stats().iter().map(|s| s.allocations).sum(),
        }
    }
}

/// Fill the per-layer metrics a service workload measures from the
/// traced window: client records, counter deltas and the service's
/// telemetry snapshot.
pub fn service_layers(
    out: &mut Outcome,
    svc: &SolverService,
    log: &Log,
    before: &Counters,
    after: &Counters,
    snap: &TelemetrySnapshot,
) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let served = &log.served;

    // Service: queue and pool.
    out.set(
        "service.queue_wait_ms.p50",
        hist_quantile_ms(snap, "petamg_queue_wait_seconds", &[], 0.5),
    );
    out.set(
        "service.queue_wait_ms.p99",
        hist_quantile_ms(snap, "petamg_queue_wait_seconds", &[], 0.99),
    );
    let solve_ms: Vec<f64> = served.iter().map(|s| s.solve_s * 1e3).collect();
    out.set("service.solve_ms.p50", median(&solve_ms));
    let overhead: Vec<f64> = served
        .iter()
        .map(|s| s.latency_ms - s.solve_s * 1e3)
        .collect();
    out.set("service.overhead_ms.p50", median(&overhead));
    let resolve_s = hist_sum_s(snap, "petamg_plan_resolve_seconds", &[]);
    let solve_s = hist_sum_s(snap, "petamg_solve_seconds", &[]);
    let workers = common::nproc() as f64;
    out.set(
        "service.worker_busy_ratio",
        ratio(resolve_s + solve_s, workers * log.wall_s),
    );
    out.set(
        "service.rejected",
        d(after.stats.rejected, before.stats.rejected),
    );

    // Plan library and single-flight tuning.
    let (la, lb) = (&after.library, &before.library);
    let hits = d(la.hits, lb.hits);
    let misses = d(la.misses, lb.misses);
    out.set("library.hits", hits);
    out.set("library.misses", misses);
    out.set("library.disk_loads", d(la.disk_loads, lb.disk_loads));
    out.set("library.evictions", d(la.evictions, lb.evictions));
    out.set("library.hit_ratio", ratio(hits, hits + misses));
    for source in [
        PlanSource::CacheHit,
        PlanSource::DiskLoad,
        PlanSource::TunedNow,
    ] {
        let label = plan_source_label(source);
        out.set(
            format!("library.resolve_ms.{label}.p50"),
            hist_quantile_ms(
                snap,
                "petamg_plan_resolve_seconds",
                &[("source", label)],
                0.5,
            ),
        );
    }
    out.set("coalesce.tunes", d(after.stats.tunes, before.stats.tunes));
    out.set(
        "coalesce.coalesced",
        d(after.stats.coalesced, before.stats.coalesced),
    );

    // Guarded solves: the degradation ladder.
    let rung = |r: LadderRung| served.iter().filter(|s| s.rung == r).count() as f64;
    out.set("guard.rung.tuned", rung(LadderRung::TunedPlan));
    out.set("guard.rung.heuristic", rung(LadderRung::HeuristicPlan));
    out.set("guard.rung.direct", rung(LadderRung::Direct));
    out.set(
        "guard.degradations",
        served.iter().map(|s| s.degradations as f64).sum(),
    );
    out.set(
        "guard.cycles.p50",
        median(&served.iter().map(|s| s.cycles as f64).collect::<Vec<_>>()),
    );
    // Σ residual_check_seconds / Σ seconds, from the histograms, which
    // record a batch group's shared times once.
    out.set(
        "guard.residual_check_share",
        ratio(
            hist_sum_s(snap, "petamg_residual_check_seconds", &[]),
            solve_s,
        ),
    );

    // Plan executor and kernels, from the per-level kernel histograms.
    let mut kernel_s = 0.0;
    for level in 1..=KERNEL_LEVELS {
        let s = hist_sum_s(
            snap,
            "petamg_kernel_seconds",
            &[("level", &level.to_string())],
        );
        kernel_s += s;
        out.set(
            format!("plan.kernel_ms.L{level}"),
            ratio(s * 1e3, served.len() as f64),
        );
    }
    out.set("plan.kernel_share", ratio(kernel_s, solve_s));

    // Batched lanes.
    let groups = d(after.stats.batches, before.stats.batches);
    out.set("batch.groups", groups);
    out.set(
        "batch.lane_fill",
        ratio(
            d(after.stats.batched_requests, before.stats.batched_requests),
            groups * svc.batch_width() as f64,
        ),
    );
    out.set(
        "batch.assembly_ms.p50",
        hist_quantile_ms(snap, "petamg_batch_assembly_seconds", &[], 0.5),
    );
    let group_ms: Vec<f64> = log.groups.iter().map(|g| g.0 * 1e3).collect();
    let lane_ms: Vec<f64> = log.groups.iter().map(|g| g.0 * 1e3 / g.1 as f64).collect();
    out.set("batch.group_solve_ms.p50", median(&group_ms));
    out.set("batch.per_lane_ms.p50", median(&lane_ms));

    // Direct solves and the factor cache.
    out.set(
        "direct.solves",
        served.iter().map(|s| s.direct_solves as f64).sum(),
    );
    out.set(
        "direct.factor_evictions",
        d(after.factor_evictions, before.factor_evictions),
    );
    out.set(
        "arena.allocs_after_warmup",
        d(after.arena_allocations, before.arena_allocations),
    );

    // Reconciliation: server phases against client latency.
    let server_ms = (hist_sum_s(snap, "petamg_queue_wait_seconds", &[])
        + resolve_s
        + solve_s
        + hist_sum_s(snap, "petamg_batch_assembly_seconds", &[]))
        * 1e3;
    let covered = ratio(server_ms, log.client_sum_ms);
    let per_op = log.dispatches as f64;
    out.set("recon.client_ms_per_op", ratio(log.client_sum_ms, per_op));
    out.set("recon.covered_share", covered);
    out.set(
        "recon.uncovered_ms_per_op",
        ratio(log.client_sum_ms - server_ms, per_op),
    );
    let within = (1.0 - RECON_TOL..=1.0 + 1e-6).contains(&covered);
    out.set("recon.within_tolerance", f64::from(u8::from(within)));
    println!(
        "# reconciliation: queue wait + plan resolve + solve cover {:.2}% of the client latency sum ({:.3} ms uncovered per dispatch; tolerance: within {:.0}%)",
        covered * 100.0,
        ratio(log.client_sum_ms - server_ms, per_op),
        RECON_TOL * 100.0
    );
}

/// Trace overhead: traced throughput against the untraced window of
/// the same run.
pub fn trace_overhead(out: &mut Outcome, plain: &Log, traced: &Log) {
    out.set("obs.untraced_throughput_per_s", plain.throughput());
    out.set("obs.traced_throughput_per_s", traced.throughput());
    out.set(
        "obs.trace_overhead",
        1.0 - ratio(traced.throughput(), plain.throughput()),
    );
}

/// Time `PlanLibrary::get` reloading each problem's plan from the run's
/// plan directory (after `clear_cache()`), as spans.
pub fn probe_get_disk(
    out: &mut Outcome,
    svc: &SolverService,
    problems: &[Problem],
    spans: &SpanLog,
) {
    let parent = spans.open("get_disk_probe", None, 0);
    let mut times = Vec::new();
    for (i, problem) in problems.iter().enumerate() {
        for _ in 0..GET_DISK_REPS {
            svc.library().clear_cache();
            let span = spans.open("PlanLibrary::get", parent, i as u64);
            let t = Instant::now();
            let got = svc.library().get(problem);
            times.push(ms_since(t));
            spans.close(span);
            out.check(
                matches!(got, Some((_, PlanOrigin::Disk))),
                "a filed plan reloads from disk after clear_cache()",
            );
        }
    }
    spans.close(parent);
    out.set("library.get_disk_ms.p50", median(&times));
}

/// Time direct solves through the service's shared factor cache at the
/// deepest level the traced window's solves ran one, for each problem.
pub fn probe_direct(
    out: &mut Outcome,
    svc: &SolverService,
    problems: &[Problem],
    served: &[Served],
    seed: u64,
    spans: &SpanLog,
) {
    let level = served.iter().map(|s| s.direct_level).max().unwrap_or(0);
    if level == 0 {
        return;
    }
    let n = level_size(level);
    let parent = spans.open("direct_probe", None, n as u64);
    let mut times = Vec::new();
    for (i, problem) in problems.iter().enumerate() {
        let op = problem.op_for(n);
        let inst = common::instance(problem, level, common::mix(seed, 30, i as u64));
        let mut x = inst.working_grid();
        for _ in 0..DIRECT_REPS {
            x.copy_from(&inst.x0);
            let span = spans.open("DirectSolverCache::solve_op", parent, n as u64);
            let t = Instant::now();
            svc.direct_cache().solve_op(&mut x, &inst.b, &op);
            times.push(ms_since(t));
            spans.close(span);
        }
    }
    spans.close(parent);
    out.set("direct.ms.p50", median(&times));
}

struct Family {
    problem: Problem,
    pool: Vec<ProblemInstance>,
    /// Solo reference answer per pool entry.
    refs: Vec<Grid2d>,
}

struct Setup {
    svc: SolverService,
    families: Vec<Family>,
    seed: u64,
}

impl Setup {
    fn build(dir: &Path, seed: u64, batched: bool, spans: &SpanLog, out: &mut Outcome) -> Setup {
        let root = spans.open("setup", None, 0);
        let svc = common::start_service(dir);
        let n = level_size(LEVEL);
        let families = [Problem::poisson(), Problem::smooth_sinusoidal(n)]
            .into_iter()
            .enumerate()
            .map(|(f, problem)| {
                let pool: Vec<ProblemInstance> = (0..POOL)
                    .map(|i| {
                        common::instance(
                            &problem,
                            LEVEL,
                            common::mix(seed, 10 + f as u64, i as u64),
                        )
                    })
                    .collect();
                // The first request for a fingerprint tunes and files its
                // plan; the references then run that plan directly.
                let span = spans.open("SolverService::solve", root, f as u64);
                let tuned = svc.solve(request(&problem, &pool[0]));
                spans.close(span);
                out.check(tuned.is_ok(), "the tuning request is served");
                let span = spans.open("PlanLibrary::get", root, f as u64);
                let plan = svc.library().get(&problem);
                spans.close(span);
                let plan = plan.expect("a served fingerprint has a filed plan").0;
                let solver = GuardedSolver::new(problem.clone()).with_shared_plan(plan);
                let refs = pool
                    .iter()
                    .enumerate()
                    .map(|(i, inst)| {
                        let mut x = inst.working_grid();
                        let span = spans.open("GuardedSolver::solve", root, i as u64);
                        let solved = solver.solve(&mut x, &inst.b, TOL);
                        spans.close(span);
                        out.check(solved.is_ok(), "the solo reference solve converges");
                        out.check(
                            common::rel_residual(&problem, &x, &inst.b, &mut Grid2d::zeros(n))
                                <= TOL,
                            "the solo reference meets tol by an independent residual",
                        );
                        x
                    })
                    .collect();
                Family {
                    problem,
                    pool,
                    refs,
                }
            })
            .collect();
        spans.close(root);
        let setup = Setup {
            svc,
            families,
            seed,
        };
        let warm = setup.window(batched, 0.0, Some(WARMUP_GROUPS), &SpanLog::new(false));
        out.check(warm.failed == 0, "warm-up requests are served and verified");
        setup
    }

    fn problems(&self) -> Vec<Problem> {
        self.families.iter().map(|f| f.problem.clone()).collect()
    }

    /// "Batched = solo" at the library layer: every pool input, in
    /// groups of the batch width, through `GuardedSolver::solve_many` on
    /// the library's plan; each lane must equal its solo reference.
    fn probe_solve_many(&self, out: &mut Outcome, spans: &SpanLog) {
        let parent = spans.open("solve_many_probe", None, 0);
        let width = self.svc.batch_width();
        let members: Vec<usize> = (0..POOL).collect();
        for fam in &self.families {
            let (plan, _) = self
                .svc
                .library()
                .get(&fam.problem)
                .expect("a served fingerprint has a filed plan");
            let solver = GuardedSolver::new(fam.problem.clone())
                .with_shared_plan(plan)
                .with_batch_width(width);
            for group in members.chunks(width) {
                let mut xs: Vec<Grid2d> =
                    group.iter().map(|&i| fam.pool[i].working_grid()).collect();
                let bs: Vec<Grid2d> = group.iter().map(|&i| fam.pool[i].b.clone()).collect();
                let span = spans.open("GuardedSolver::solve_many", parent, group[0] as u64);
                let results = solver.solve_many(&mut xs, &bs, &vec![TOL; group.len()]);
                spans.close(span);
                for ((&i, x), result) in group.iter().zip(&xs).zip(&results) {
                    out.check(
                        result.is_ok() && bitwise_eq(x, &fam.refs[i]),
                        "GuardedSolver::solve_many lanes equal their solo references",
                    );
                }
            }
        }
        spans.close(parent);
    }

    /// Run both clients for `seconds` (or exactly `groups` groups each).
    fn window(&self, batched: bool, seconds: f64, groups: Option<usize>, spans: &SpanLog) -> Log {
        let clients = common::nproc();
        let start = Instant::now();
        let mut log = Log::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || self.client(c, clients, batched, start, seconds, groups, spans))
                })
                .collect();
            for h in handles {
                log.merge(h.join().expect("client thread panicked"));
            }
        });
        log.wall_s = start.elapsed().as_secs_f64();
        log
    }

    #[allow(clippy::too_many_arguments)]
    fn client(
        &self,
        c: usize,
        clients: usize,
        batched: bool,
        start: Instant,
        seconds: f64,
        groups: Option<usize>,
        spans: &SpanLog,
    ) -> Log {
        let width = self.svc.batch_width();
        let mut log = Log::default();
        let mut scratch = Grid2d::zeros(level_size(LEVEL));
        let mut g = 0usize;
        loop {
            match groups {
                Some(limit) if g >= limit => break,
                None if start.elapsed().as_secs_f64() >= seconds => break,
                _ => {}
            }
            let f = (g + c) % self.families.len();
            let fam = &self.families[f];
            let gid = (g * clients + c) as u64;
            let members: Vec<usize> = (0..width)
                .map(|k| (common::mix(self.seed, gid, k as u64) % POOL as u64) as usize)
                .collect();
            let requests: Vec<SolveRequest> = members
                .iter()
                .map(|&i| request(&fam.problem, &fam.pool[i]))
                .collect();
            let group_span = spans.open("client_group", None, gid);
            let t0 = Instant::now();
            // (member, submitted at, response, observed at)
            let mut answers: Vec<(usize, Instant, ServeResponse, Instant)> =
                Vec::with_capacity(width);
            if batched {
                let span = spans.open("SolverService::submit_many", group_span, gid);
                let tickets = self.svc.submit_many(requests);
                spans.close(span);
                for (k, ticket) in tickets.into_iter().enumerate() {
                    let span = spans.open("Ticket::wait", group_span, gid);
                    let response = ticket.wait();
                    spans.close(span);
                    answers.push((k, t0, response, Instant::now()));
                }
            } else {
                let mut tickets = Vec::with_capacity(width);
                for (k, req) in requests.into_iter().enumerate() {
                    let submitted = Instant::now();
                    let span = spans.open("submit→wait", group_span, gid);
                    match self.svc.submit(req) {
                        Ok(ticket) => tickets.push((k, submitted, ticket, span)),
                        Err(rejected) => {
                            spans.close(span);
                            eprintln!("perfbench: request rejected: {rejected}");
                            log.attempted += 1;
                            log.failed += 1;
                        }
                    }
                }
                for (k, submitted, ticket, span) in tickets {
                    let response = ticket.wait();
                    spans.close(span);
                    answers.push((k, submitted, response, Instant::now()));
                }
            }
            let group_ms = ms_since(t0);
            spans.close(group_span);
            // Checks, outside the latency timing.
            let mut group_ok = answers.len() == width;
            let mut group_solve_s = 0.0;
            for (k, submitted, response, observed) in answers {
                log.attempted += 1;
                let latency_ms = (observed - submitted).as_secs_f64() * 1e3;
                let inst = &fam.pool[members[k]];
                let ok = match &response {
                    Ok(rep) => {
                        let same = bitwise_eq(&rep.x, &fam.refs[members[k]]);
                        let rel = common::rel_residual(&fam.problem, &rep.x, &inst.b, &mut scratch);
                        let ok = same && rel <= TOL;
                        if !ok {
                            eprintln!("perfbench: response differs from its solo reference or misses tol (bitwise equal: {same}, rel residual {rel:.3e})");
                        }
                        ok
                    }
                    Err(e) => {
                        eprintln!("perfbench: request failed: {e}");
                        false
                    }
                };
                if !ok {
                    log.failed += 1;
                    group_ok = false;
                    continue;
                }
                let rep = response.expect("checked above");
                group_solve_s = rep.report.seconds;
                log.served.push(Served::new(
                    if batched { group_ms } else { latency_ms },
                    &rep.report,
                    rep.plan,
                ));
                if !batched {
                    log.client_sum_ms += latency_ms;
                    log.dispatches += 1;
                }
            }
            if batched {
                log.client_sum_ms += group_ms;
                log.dispatches += 1;
                log.groups.push((group_solve_s, width));
            }
            if group_ok {
                log.op_ms.push(group_ms);
                log.op_class.push(f);
            }
            g += 1;
        }
        log
    }
}

fn request(problem: &Problem, inst: &ProblemInstance) -> SolveRequest {
    SolveRequest::new(problem.clone(), inst.working_grid(), inst.b.clone(), TOL)
}

pub fn run(args: &Args, batched: bool) -> Outcome {
    let mut out = Outcome::new();
    let dir = common::scratch_dir(args.workload.name());
    if !args.trace {
        let (setup, setup_s) = common::repeated_setup(args.workload.setup_reps(), |rep| {
            let plans = dir.join(format!("plans{rep}"));
            Setup::build(&plans, args.seed, batched, &SpanLog::new(false), &mut out)
        });
        let log = setup.window(batched, args.seconds, None, &SpanLog::new(false));
        println!(
            "# {}: {} groups ({} requests) in {:.3} s",
            args.workload.name(),
            log.op_ms.len(),
            log.served.len(),
            log.wall_s
        );
        log.end_to_end(&mut out, setup.families.len(), &setup_s);
        drop(setup);
        let _ = std::fs::remove_dir_all(dir);
        return out;
    }

    let spans = SpanLog::new(true);
    let setup = Setup::build(&dir.join("plans"), args.seed, batched, &spans, &mut out);
    let half = args.seconds / 2.0;
    let plain = setup.window(batched, half, None, &SpanLog::new(false));
    obs::set_mode(TelemetryMode::Trace);
    let before = Counters::read(&setup.svc);
    let traced = setup.window(batched, half, None, &spans);
    let after = Counters::read(&setup.svc);
    obs::set_mode(TelemetryMode::Off);
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    let snap = setup.svc.telemetry_snapshot();
    service_layers(&mut out, &setup.svc, &traced, &before, &after, &snap);
    out.check(
        after.stats.tunes == setup.families.len() as u64,
        "one tuning run per fingerprint",
    );
    trace_overhead(&mut out, &plain, &traced);
    let problems = setup.problems();
    setup.probe_solve_many(&mut out, &spans);
    probe_get_disk(&mut out, &setup.svc, &problems, &spans);
    probe_direct(
        &mut out,
        &setup.svc,
        &problems,
        &traced.served,
        args.seed,
        &spans,
    );
    crate::write_trace(args, &spans, Some(&setup.svc));
    drop(setup);
    let _ = std::fs::remove_dir_all(dir);
    out
}
