//! `plan-churn`: the plan library used against its grain.
//!
//! Two client threads, one request at a time each, at n = 65. Requests
//! cycle round-robin through 48 slots, each holding an `anisotropic(ε)`
//! fingerprint — more than the library's in-memory LRU capacity of 32 —
//! so a first visit tunes and files its plan (a write) and every
//! revisit misses memory and reloads it from disk (a read). A slot
//! takes a fresh fingerprint after 50 visits, the slots staggered so
//! the renewals spread evenly: cold requests stay at 2% of the traffic
//! however fast the service runs, and the first-visit class of
//! `latency_p90_ms` keeps measuring tuning. ε is drawn log-uniformly
//! from [0.05, 5] per `--seed`.
//!
//! Every response's relative residual is recomputed with
//! `residual_op` against the request's own operator and must be ≤ tol.

use crate::common::{self, ms_since, Args};
use crate::report::Outcome;
use crate::serve::{self, Counters, Log, Served, TOL};
use crate::spans::SpanLog;
use crate::stats::median;
use petamg_core::training::{Distribution, ProblemInstance};
use petamg_core::tuner::{TunerOptions, VTuner};
use petamg_grid::{level_size, Grid2d};
use petamg_obs::{self as obs, TelemetryMode};
use petamg_problems::Problem;
use petamg_serve::{PlanSource, SolveRequest, SolverService};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Level 6: n = 65.
const LEVEL: usize = 6;
/// Fingerprint slots in rotation (library capacity is 32).
const FINGERPRINTS: u64 = 48;
/// Visits per fingerprint before its slot renews.
const VISITS: u64 = 50;
/// Distinct right-hand sides / boundaries (shared by every ε).
const POOL: usize = 8;
/// Set-up warm-up: slots and requests, on a stream of their own with
/// fixed inputs, so set-up does the same work for every seed.
const WARMUP_FINGERPRINTS: u64 = 4;
const WARMUP_REQUESTS: u64 = 24;
const WARMUP_SEED: u64 = 0;
/// Fingerprints the traced run's probes (direct re-tune, disk reload,
/// direct solve) revisit.
const PROBES: usize = 8;
/// Stream tags for [`common::mix`].
const MEASURED_STREAM: u64 = 40;
const WARMUP_STREAM: u64 = 41;

/// ε of the fingerprint slot `j` holds in its generation `gen`:
/// log-uniform in [0.05, 5].
fn eps(seed: u64, stream: u64, gen: u64, j: u64) -> f64 {
    let u = (common::mix(seed, stream, gen * FINGERPRINTS + j) >> 11) as f64 / (1u64 << 53) as f64;
    0.05 * 100f64.powf(u)
}

/// Request `r` of a `k`-slot stream visits slot `j = r mod k` in round
/// `v = r / k`. Slot `j` renews its fingerprint every `VISITS` rounds,
/// offset by `j·VISITS/k` rounds. Returns `(j, generation, cold)`,
/// where cold marks the fingerprint's first visit.
fn slot_of(k: u64, r: u64) -> (u64, u64, bool) {
    let (j, v) = (r % k, r / k);
    let shifted = v + j * VISITS / k;
    (
        j,
        shifted / VISITS,
        v == 0 || shifted.is_multiple_of(VISITS),
    )
}

/// The `(slot, generation)` of every fingerprint the first `requests`
/// requests of a `k`-slot stream visit.
fn visited(k: u64, requests: u64) -> Vec<(u64, u64)> {
    let seen: BTreeSet<(u64, u64)> = (0..requests)
        .map(|r| {
            let (j, gen, _) = slot_of(k, r);
            (j, gen)
        })
        .collect();
    seen.into_iter().collect()
}

/// Classes of `latency_p90_ms`: cold (first visit, tunes) and revisit.
const COLD: usize = 0;
const REVISIT: usize = 1;

struct Setup {
    svc: SolverService,
    pool: Vec<ProblemInstance>,
}

impl Setup {
    fn build(dir: &Path, seed: u64, out: &mut Outcome) -> Setup {
        let svc = common::start_service(dir);
        let pool = (0..POOL)
            .map(|i| {
                ProblemInstance::random_for(
                    &Problem::poisson(),
                    LEVEL,
                    Distribution::UnbiasedUniform,
                    common::mix(seed, 42, i as u64),
                )
            })
            .collect();
        let setup = Setup { svc, pool };
        let warm = setup.window(
            (WARMUP_SEED, WARMUP_STREAM),
            WARMUP_FINGERPRINTS,
            0.0,
            Some(WARMUP_REQUESTS),
            &SpanLog::new(false),
        );
        out.check(warm.failed == 0, "warm-up requests are served and verified");
        setup
    }

    /// Both clients draw request numbers from one counter and map them
    /// to fingerprints with [`slot_of`]; `(seed, stream)` picks the ε.
    fn window(
        &self,
        stream: (u64, u64),
        k: u64,
        seconds: f64,
        requests: Option<u64>,
        spans: &SpanLog,
    ) -> Log {
        let next = AtomicU64::new(0);
        let start = Instant::now();
        let mut log = Log::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..common::nproc())
                .map(|_| s.spawn(|| self.client(stream, k, &next, start, seconds, requests, spans)))
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
        (seed, stream): (u64, u64),
        k: u64,
        next: &AtomicU64,
        start: Instant,
        seconds: f64,
        requests: Option<u64>,
        spans: &SpanLog,
    ) -> Log {
        let mut log = Log::default();
        let mut scratch = Grid2d::zeros(level_size(LEVEL));
        loop {
            if requests.is_none() && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let r = next.fetch_add(1, Ordering::Relaxed);
            if requests.is_some_and(|limit| r >= limit) {
                break;
            }
            let (j, gen, cold) = slot_of(k, r);
            let problem = Problem::anisotropic(eps(seed, stream, gen, j));
            let inst = &self.pool[((r / k) as usize) % POOL];
            let req = SolveRequest::new(problem.clone(), inst.working_grid(), inst.b.clone(), TOL);
            let span = spans.open("submit→wait", None, r);
            let t0 = Instant::now();
            let response = match self.svc.submit(req) {
                Ok(ticket) => Ok(ticket.wait()),
                Err(rejected) => Err(rejected),
            };
            let latency_ms = ms_since(t0);
            spans.close(span);
            log.attempted += 1;
            let served = match response {
                Err(rejected) => {
                    eprintln!("perfbench: request rejected: {rejected}");
                    None
                }
                Ok(Err(e)) => {
                    eprintln!("perfbench: request failed: {e}");
                    None
                }
                Ok(Ok(rep)) => {
                    let rel = common::rel_residual(&problem, &rep.x, &inst.b, &mut scratch);
                    if rel <= TOL {
                        Some(rep)
                    } else {
                        eprintln!("perfbench: response misses tol: rel residual {rel:.3e}");
                        None
                    }
                }
            };
            let Some(rep) = served else {
                log.failed += 1;
                continue;
            };
            log.op_ms.push(latency_ms);
            log.op_class.push(if cold { COLD } else { REVISIT });
            log.client_sum_ms += latency_ms;
            log.dispatches += 1;
            log.served
                .push(Served::new(latency_ms, &rep.report, rep.plan));
        }
        log
    }
}

fn count(log: &Log, source: PlanSource) -> usize {
    log.served.iter().filter(|s| s.source == source).count()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let dir = common::scratch_dir(args.workload.name());
    if !args.trace {
        let (setup, setup_s) = common::repeated_setup(args.workload.setup_reps(), |rep| {
            Setup::build(&dir.join(format!("plans{rep}")), args.seed, &mut out)
        });
        let log = setup.window(
            (args.seed, MEASURED_STREAM),
            FINGERPRINTS,
            args.seconds,
            None,
            &SpanLog::new(false),
        );
        println!(
            "# plan-churn: {} requests in {:.3} s: {} tuned now, {} coalesced, {} disk loads, {} cache hits",
            log.served.len(),
            log.wall_s,
            count(&log, PlanSource::TunedNow),
            count(&log, PlanSource::Coalesced),
            count(&log, PlanSource::DiskLoad),
            count(&log, PlanSource::CacheHit)
        );
        log.end_to_end(&mut out, [COLD, REVISIT].len(), &setup_s);
        drop(setup);
        let _ = std::fs::remove_dir_all(dir);
        return out;
    }

    let spans = SpanLog::new(true);
    let setup = Setup::build(&dir.join("plans"), args.seed, &mut out);
    // The untraced and traced windows draw from different streams, so
    // each starts on cold fingerprints.
    let half = args.seconds / 2.0;
    let plain = setup.window(
        (args.seed, MEASURED_STREAM + 100),
        FINGERPRINTS,
        half,
        None,
        &SpanLog::new(false),
    );
    obs::set_mode(TelemetryMode::Trace);
    let before = Counters::read(&setup.svc);
    let traced = setup.window(
        (args.seed, MEASURED_STREAM),
        FINGERPRINTS,
        half,
        None,
        &spans,
    );
    let after = Counters::read(&setup.svc);
    obs::set_mode(TelemetryMode::Off);
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.failed + traced.failed;
    let snap = setup.svc.telemetry_snapshot();
    serve::service_layers(&mut out, &setup.svc, &traced, &before, &after, &snap);

    // Single flight: exactly one tuning run per fingerprint ever seen.
    let fingerprints = visited(WARMUP_FINGERPRINTS, WARMUP_REQUESTS).len()
        + visited(FINGERPRINTS, plain.attempted).len()
        + visited(FINGERPRINTS, traced.attempted).len();
    out.check(
        after.stats.tunes == fingerprints as u64,
        &format!(
            "one tuning run per fingerprint ({} tunes for {fingerprints} fingerprints)",
            after.stats.tunes
        ),
    );
    let probes: Vec<Problem> = visited(FINGERPRINTS, traced.attempted)
        .into_iter()
        .take(PROBES)
        .map(|(j, gen)| Problem::anisotropic(eps(args.seed, MEASURED_STREAM, gen, j)))
        .collect();
    serve::trace_overhead(&mut out, &plain, &traced);

    // Tuner: re-tune some of the window's fingerprints directly; quick
    // tuning prices candidates on a modeled machine, so the plans must
    // match the ones the service filed.
    let parent = spans.open("tuner_probe", None, 0);
    let mut tune_ms = Vec::new();
    for problem in &probes {
        let span = spans.open("VTuner::tune", parent, 0);
        let t = Instant::now();
        let family = VTuner::new(
            TunerOptions::quick(LEVEL, Distribution::UnbiasedUniform).with_problem(problem.clone()),
        )
        .tune();
        tune_ms.push(ms_since(t));
        spans.close(span);
        let filed = setup
            .svc
            .library()
            .get(problem)
            .map(|(plan, _)| plan.plans.clone());
        out.check(
            filed.as_ref() == Some(&family.plans),
            "quick-tuned plans are deterministic",
        );
    }
    spans.close(parent);
    out.set("tuner.tune_ms.p50", median(&tune_ms));

    serve::probe_get_disk(&mut out, &setup.svc, &probes, &spans);
    serve::probe_direct(
        &mut out,
        &setup.svc,
        &probes,
        &traced.served,
        args.seed,
        &spans,
    );
    crate::write_trace(args, &spans, Some(&setup.svc));
    drop(setup);
    let _ = std::fs::remove_dir_all(dir);
    out
}
