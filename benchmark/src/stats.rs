//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank definition, and a tail percentile is
//! reported only when the sample holds at least [`MIN_BEYOND`] values
//! above it: a p99 from 200 samples is the second-largest value, which
//! says more about one outlier than about the tail. Quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
//! so spreads printed here match the ones computed over repeated runs.

/// Samples a reported percentile needs strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them; `None` for fewer than
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread measure the
/// benchmark's bounds are stated in.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// How many of `count` samples lie strictly above the nearest-rank
/// `pct`-th percentile.
pub fn beyond(count: usize, pct: f64) -> usize {
    count.saturating_sub(rank(count, pct))
}

/// Whether `count` samples support reporting the `pct`-th percentile.
pub fn supports(count: usize, pct: f64) -> bool {
    count > 0 && beyond(count, pct) >= MIN_BEYOND
}

/// The highest of `candidates` (any order) that `count` samples support.
pub fn highest_supported(count: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| supports(count, p))
        .max_by(f64::total_cmp)
}

/// Nearest-rank `pct`-th percentile of `values`, or `None` when the sample
/// is too small to support it (see [`supports`]). The median is always
/// supported by eleven or more samples.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if !supports(values.len(), pct) {
        return None;
    }
    let sorted = sorted(values);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// 1-based nearest rank of the `pct`-th percentile among `count` samples.
fn rank(count: usize, pct: f64) -> usize {
    let r = (pct / 100.0 * count as f64).ceil() as usize;
    r.clamp(1, count.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
