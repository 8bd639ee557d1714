//! Metric catalogue and the result line.
//!
//! Every name here also appears in `BENCHMARK.json`; the run prints
//! every end-to-end metric (untraced run) or every per-layer metric
//! (traced run), in this order. A per-layer metric a workload does not
//! exercise reads 0 (the README's mover table says which layers each
//! workload drives).

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The latency percentile the end-to-end metric reports. On a shared
/// VM the host switches between a fast and a slow state (about 1.5×
/// apart, each lasting seconds), so per-operation times are a mixture
/// of two modes whose proportions change from run to run. A median or
/// a throughput sits between the modes and moves with the mixture; the
/// p90 sits in the slow mode, which every run reaches. At `--seconds
/// 25` every class has over 100 samples per run (about 120 on
/// `solve-large`, hundreds elsewhere), so at least ten lie beyond it.
pub const LATENCY_QUANTILE: f64 = 0.9;

/// The four `solve-large` classes (family × paper accuracy).
pub const CLASSES: [&str; 4] = ["poisson-1e5", "poisson-1e9", "jump-1e5", "jump-1e9"];

/// Per-level operation counters reported per class.
pub const OP_KINDS: [&str; 5] = [
    "relax_sweeps",
    "residuals",
    "restricts",
    "interps",
    "direct_solves",
];

/// Deepest level with a per-level kernel-time metric: `solve-large`'s
/// level (n = 513).
pub const KERNEL_LEVELS: usize = 9;

/// Per-layer metrics: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("service.queue_wait_ms.p50", "ms"),
        ("service.queue_wait_ms.p99", "ms"),
        ("service.solve_ms.p50", "ms"),
        ("service.overhead_ms.p50", "ms"),
        ("service.worker_busy_ratio", "ratio"),
        ("service.rejected", "count"),
        ("library.hits", "count"),
        ("library.misses", "count"),
        ("library.disk_loads", "count"),
        ("library.evictions", "count"),
        ("library.hit_ratio", "ratio"),
        ("library.resolve_ms.cache-hit.p50", "ms"),
        ("library.resolve_ms.disk-load.p50", "ms"),
        ("library.resolve_ms.tuned-now.p50", "ms"),
        ("library.get_disk_ms.p50", "ms"),
        ("coalesce.tunes", "count"),
        ("coalesce.coalesced", "count"),
        ("tuner.tune_s.poisson", "s"),
        ("tuner.tune_s.jump", "s"),
        ("tuner.candidates", "count"),
        ("tuner.tune_ms.p50", "ms"),
        ("guard.rung.tuned", "count"),
        ("guard.rung.heuristic", "count"),
        ("guard.rung.direct", "count"),
        ("guard.degradations", "count"),
        ("guard.cycles.p50", "count"),
        ("guard.residual_check_share", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for level in 1..=KERNEL_LEVELS {
        v.push((format!("plan.kernel_ms.L{level}"), "ms"));
    }
    v.push(("plan.kernel_share".into(), "ratio"));
    for kind in OP_KINDS {
        for class in CLASSES {
            v.push((format!("plan.ops.{kind}.{class}"), "count"));
        }
    }
    for (n, u) in [
        ("plan.bytes_computed_per_solve", "bytes"),
        ("plan.gbps_computed.L9", "GB/s"),
        ("batch.groups", "count"),
        ("batch.lane_fill", "ratio"),
        ("batch.assembly_ms.p50", "ms"),
        ("batch.group_solve_ms.p50", "ms"),
        ("batch.per_lane_ms.p50", "ms"),
        ("direct.solves", "count"),
        ("direct.factor_evictions", "count"),
        ("direct.ms.p50", "ms"),
        ("arena.allocs_after_warmup", "count"),
        ("obs.untraced_throughput_per_s", "1/s"),
        ("obs.traced_throughput_per_s", "1/s"),
        ("obs.trace_overhead", "ratio"),
        ("recon.client_ms_per_op", "ms"),
        ("recon.covered_share", "ratio"),
        ("recon.uncovered_ms_per_op", "ms"),
        ("recon.within_tolerance", "count"),
        ("solve.tuned_tta_gmean_ms", "ms"),
        ("solve.ref_v_tta_gmean_ms", "ms"),
        ("solve.speedup_vs_ref_v", "ratio"),
        ("solve.audit_l8.solves", "count"),
        ("solve.audit_l8.misses", "count"),
        ("solve.audit_l8.worst_ratio", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// What a workload measured, before it is laid out for printing.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that failed (typed error, rejection, or a failed
    /// correctness check).
    pub failed: u64,
    /// Run-level checks beyond per-operation ones (e.g. the
    /// tunes-equal-fingerprints identity); false fails the run.
    pub checks_ok: bool,
    /// Metric values by name (end-to-end or per-layer).
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            checks_ok: true,
            ..Outcome::default()
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Record a failed run-level check (explained on stderr).
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.checks_ok = false;
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// catalogued metric of the run's kind, in catalogue order.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for name in self.values.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the {} catalogue",
                if traced { "per-layer" } else { "end-to-end" }
            );
        }
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.checks_ok && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
