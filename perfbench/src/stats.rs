//! Order statistics over raw samples and over the service's log₂
//! latency histograms.

use petamg_obs::{HistogramSample, TelemetrySnapshot};

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolated linearly
/// between order statistics (the "type 7" estimator). 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The geometric mean of strictly positive `values` (0 when empty).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every histogram of `snap` named `name` whose labels include
/// `labels`, merged: (total count, total nanoseconds, buckets as
/// `(upper bound ns, count)` ascending).
fn merged(
    snap: &TelemetrySnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> (u64, u64, Vec<(u64, u64)>) {
    let matching: Vec<&HistogramSample> = snap
        .histograms
        .iter()
        .filter(|h| {
            h.name == name
                && labels
                    .iter()
                    .all(|&(k, v)| h.labels.iter().any(|l| l.key == k && l.value == v))
        })
        .collect();
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    for h in &matching {
        for b in &h.buckets {
            match buckets.iter_mut().find(|(le, _)| *le == b.le_ns) {
                Some((_, c)) => *c += b.count,
                None => buckets.push((b.le_ns, b.count)),
            }
        }
    }
    buckets.sort_unstable();
    (
        matching.iter().map(|h| h.count).sum(),
        matching.iter().map(|h| h.sum_ns).sum(),
        buckets,
    )
}

/// Total recorded seconds of the matching histograms (exact: the
/// histograms keep an exact nanosecond sum beside their buckets).
pub fn hist_sum_s(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    merged(snap, name, labels).1 as f64 * 1e-9
}

/// The `q`-quantile of the matching histograms in milliseconds,
/// interpolated linearly inside the log₂ bucket it falls in (bucket
/// `[2^(i-1), 2^i)` ns), so it is exact to within that bucket's 2×
/// width. 0 when nothing was recorded.
pub fn hist_quantile_ms(
    snap: &TelemetrySnapshot,
    name: &str,
    labels: &[(&str, &str)],
    q: f64,
) -> f64 {
    let (count, _, buckets) = merged(snap, name, labels);
    if count == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * count as f64;
    let mut seen = 0u64;
    for &(le, c) in &buckets {
        if (seen + c) as f64 >= rank {
            let hi = if le == u64::MAX { u64::MAX / 2 } else { le } as f64;
            let lo = ((hi + 1.0) / 2.0).floor();
            let within = (rank - seen as f64) / c as f64;
            return (lo + (hi - lo) * within) * 1e-6;
        }
        seen += c;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
