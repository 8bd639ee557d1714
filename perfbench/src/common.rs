//! Pieces every workload shares: the command line, the run header,
//! process memory, scratch directories, the service configuration,
//! seeded inputs and the correctness checks.

use petamg_core::training::{Distribution, ProblemInstance};
use petamg_grid::{l2_norm_interior, Exec, Grid2d};
use petamg_problems::{residual_op, Problem};
use petamg_serve::{ServiceConfig, SolverService, TunePolicy};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, by command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SolveLarge,
    ServeSolo,
    ServeBatched,
    PlanChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SolveLarge,
        Workload::ServeSolo,
        Workload::ServeBatched,
        Workload::PlanChurn,
    ];

    /// How many times a run performs its set-up; `setup_s` is the
    /// median, and the last set-up's state is what gets measured.
    /// `solve-large` tunes for about ten seconds per set-up, so it sets
    /// up twice; the service workloads set up in a second or less and
    /// take the median of more.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::SolveLarge => 2,
            Workload::ServeSolo | Workload::ServeBatched => 3,
            Workload::PlanChurn => 5,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLarge => "solve-large",
            Workload::ServeSolo => "serve-solo",
            Workload::ServeBatched => "serve-batched",
            Workload::PlanChurn => "plan-churn",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of one measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    pub const USAGE: &'static str = "usage: perfbench --workload <solve-large|serve-solo|serve-batched|plan-churn|all> --seed <u64> --seconds <s> --trace <0|1>";

    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Serving threads and closed-loop clients: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Perform a set-up `reps` times (`build` gets the repetition index),
/// dropping each before the next starts. Returns the last one and every
/// set-up's wall time in seconds.
pub fn repeated_setup<T>(reps: usize, mut build: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(build(rep));
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("a run sets up at least once"), seconds)
}

/// Process high-water resident memory (`VmHWM`) in MiB, 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory (where it was built from).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory for this process under the benchmark's
/// `out/` directory; the caller removes it when done.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = bench_dir()
        .join("out")
        .join(format!("run-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark out/ directory must be writable");
    dir
}

/// Where a traced run writes its span trace and telemetry sinks.
pub fn trace_dir(workload: Workload, seed: u64) -> PathBuf {
    let dir = bench_dir()
        .join("out")
        .join("trace")
        .join(format!("{}-seed{seed}", workload.name()));
    std::fs::create_dir_all(&dir).expect("benchmark out/trace directory must be writable");
    dir
}

/// The git commit the benchmark was built from, read from `.git`
/// without running git ("unknown" outside a git checkout).
fn git_sha() -> String {
    let git = bench_dir().join("..").join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The run header: one JSON object describing the host, the build and
/// the run's settings.
pub fn header(args: &Args, clients: usize) -> String {
    let mut petamg_vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PETAMG_"))
        .map(|(k, v)| format!("\"{k}={}\"", v.replace('"', "'")))
        .collect();
    petamg_vars.sort();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"vector_backend\": \"{}\", \"batch_width\": {}, \"cargo_features\": \"default\", \"profile\": \"release\", \"git_sha\": \"{}\", \"workers\": {}, \"clients\": {}, \"setup_reps\": {}, \"petamg_env\": [{}]}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        petamg_grid::vector_backend(),
        petamg_grid::batch_width(),
        git_sha(),
        if args.workload == Workload::SolveLarge { 0 } else { nproc() },
        clients,
        args.workload.setup_reps(),
        petamg_vars.join(", ")
    )
}

/// Start a service with the public defaults except `workers = nproc`
/// and quick (modeled-cost, deterministic) tuning.
pub fn start_service(plan_dir: &Path) -> SolverService {
    SolverService::start(
        ServiceConfig::new(plan_dir)
            .with_workers(nproc())
            .with_tuning(TunePolicy::QuickTune),
    )
    .expect("plan directory must be creatable")
}

/// A 64-bit mix of the run seed with a stream tag and index
/// (SplitMix64 finalizer), so every generated input is a pure
/// function of `--seed`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded instance of `problem` at `level` (the paper's unbiased
/// training distribution).
pub fn instance(problem: &Problem, level: usize, seed: u64) -> ProblemInstance {
    ProblemInstance::random_for(problem, level, Distribution::UnbiasedUniform, seed)
}

/// Relative residual `‖b − A x‖ / ‖b‖` of the posed operator,
/// recomputed independently of the solver's own report (`r` is
/// scratch of the same size).
pub fn rel_residual(problem: &Problem, x: &Grid2d, b: &Grid2d, r: &mut Grid2d) -> f64 {
    let exec = Exec::seq();
    residual_op(&problem.op_for(x.n()), x, b, r, &exec);
    l2_norm_interior(r, &exec) / l2_norm_interior(b, &exec).max(f64::MIN_POSITIVE)
}

/// Whether two grids hold the same bits.
pub fn bitwise_eq(a: &Grid2d, b: &Grid2d) -> bool {
    a.n() == b.n()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
