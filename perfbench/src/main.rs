//! End-to-end benchmark for the petamg solve/serve stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A single-process, closed-loop load generator over the public APIs
//! of `petamg-core`, `petamg-serve` and `petamg-solvers`. Every
//! operation's output is checked. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer breakdown
//! with `--trace 1`. See README.md for the workloads, the metrics and
//! which layer each metric should move.

mod churn;
mod common;
mod report;
mod serve;
mod solve_large;
mod spans;
mod stats;

use common::{Args, Workload};
use petamg_obs::{self as obs, TelemetryMode};
use petamg_serve::SolverService;
use std::process::ExitCode;

/// Write a traced run's artifacts: the benchmark's own spans as a
/// Chrome trace, and — when a service ran — its telemetry snapshot and
/// its own Chrome trace, side by side. Prints a per-span-name summary
/// with self times.
pub fn write_trace(args: &Args, spans: &spans::SpanLog, svc: Option<&SolverService>) {
    let dir = common::trace_dir(args.workload, args.seed);
    let recorded = spans.spans();
    let write = |name: &str, body: String| {
        std::fs::write(dir.join(name), body).expect("trace directory must be writable");
    };
    write("perfbench_spans.json", spans::chrome_trace(&recorded));
    if let Some(svc) = svc {
        write(
            "telemetry_snapshot.json",
            svc.telemetry_snapshot().to_json(),
        );
        write("service_trace.json", svc.chrome_trace());
    }
    println!("# trace written to {}", dir.display());
    for (name, (count, total_us, self_us)) in spans::summarize(&recorded) {
        println!(
            "# span {name}: count {count}, total {:.3} ms, self {:.3} ms",
            total_us as f64 * 1e-3,
            self_us as f64 * 1e-3
        );
    }
}

fn number(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::Number(n) => n.as_f64(),
        _ => None,
    }
}

/// `--workload all`: run every workload in a process of its own (each
/// with its own memory high-water mark and telemetry state), echo its
/// output, then print every result in one table and one summary line
/// whose metrics are keyed `<workload>.<metric>`.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rows: Vec<(String, f64, String)> = Vec::new();
    for w in Workload::ALL {
        let args: Vec<String> = raw
            .iter()
            .map(|a| {
                if a == "all" {
                    w.name().to_string()
                } else {
                    a.clone()
                }
            })
            .collect();
        let child = std::process::Command::new(&exe)
            .args(&args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&child.stdout);
        for line in stdout.lines() {
            println!("# [{}] {line}", w.name());
        }
        let parsed = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok());
        let Some(result) = parsed.filter(|_| child.status.success()) else {
            eprintln!(
                "perfbench: workload {} produced no result ({})",
                w.name(),
                child.status
            );
            return ExitCode::FAILURE;
        };
        let field = |k: &str| result.as_object().and_then(|o| o.get(k)).cloned();
        correct &= field("correct") == Some(serde_json::Value::Bool(true));
        attempted += field("attempted").and_then(|v| number(&v)).unwrap_or(0.0) as u64;
        failed += field("failed").and_then(|v| number(&v)).unwrap_or(0.0) as u64;
        let metrics = field("metrics")
            .and_then(|m| m.as_object().cloned())
            .unwrap_or_default();
        for (name, m) in metrics {
            let get = |k: &str| m.as_object().and_then(|o| o.get(k)).cloned();
            let value = get("value").and_then(|v| number(&v)).unwrap_or(0.0);
            let unit = get("unit")
                .and_then(|v| v.as_str().map(str::to_string))
                .unwrap_or_default();
            rows.push((format!("{}.{name}", w.name()), value, unit));
        }
    }
    for (name, value, unit) in &rows {
        println!("# {name:<48} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw
        .windows(2)
        .any(|w| w[0] == "--workload" && w[1] == "all")
    {
        return run_all(&raw);
    }
    let args = match Args::parse(raw.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", Args::USAGE);
            return ExitCode::from(2);
        }
    };
    // End-to-end numbers are taken with the telemetry gate off, whatever
    // PETAMG_TELEMETRY says; traced runs open it only around their
    // traced window.
    obs::set_mode(TelemetryMode::Off);
    let clients = match args.workload {
        Workload::SolveLarge => 1,
        _ => common::nproc(),
    };
    println!("# header {}", common::header(&args, clients));
    let outcome = match args.workload {
        Workload::SolveLarge => solve_large::run(&args),
        Workload::ServeSolo => serve::run(&args, false),
        Workload::ServeBatched => serve::run(&args, true),
        Workload::PlanChurn => churn::run(&args),
    };
    if outcome.attempted == 0 {
        eprintln!("perfbench: no operation completed in the measured window");
        return ExitCode::FAILURE;
    }
    let mut outcome = outcome;
    if !args.trace {
        for &(name, _) in report::END_TO_END {
            let v = outcome.values.get(name).copied().unwrap_or(0.0);
            outcome.check(
                v > 0.0 && v.is_finite(),
                &format!("end-to-end metric {name} measured"),
            );
        }
    }
    println!("{}", outcome.result_line(args.trace));
    ExitCode::SUCCESS
}
