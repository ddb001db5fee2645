//! Order statistics: nearest-rank percentiles, the tail-percentile rule,
//! and small aggregation helpers.

/// Percentiles the tail rule chooses from, highest first.
pub const TAIL_CANDIDATES: [u32; 3] = [99, 95, 90];

/// Samples a tail percentile needs strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sorts a copy of `v` ascending; infinities (failed requests) last.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` of an ascending slice; NaN when empty.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The tail rule: the highest of p99/p95/p90 with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of an unsorted slice; NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 50)
}

/// The typical query's latency: the median, over the distinct queries,
/// of each query's median latency. `samples` are `(query, latency)`.
///
/// A workload mixes queries of very different sizes, so the median of
/// all samples falls between two size classes and moves from one to the
/// other on small shifts of the mix; the median of per-query medians
/// does not. Infinite latencies (failures) sort last.
pub fn median_of_medians(samples: &[(usize, f64)]) -> f64 {
    let mut by_query: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(q, ms) in samples {
        by_query.entry(q).or_default().push(ms);
    }
    let mut medians: Vec<f64> = by_query
        .into_values()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            percentile(&v, 50)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    percentile(&medians, 50)
}

/// Arithmetic mean; 0 when empty (counters with no samples read as 0).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Stage clocks along the critical path of one engine batch, in ms:
/// `(plan, probe, match, rank, other)`. Shards probe and match in
/// parallel and the slowest one sets the time, so probe and match are
/// that shard's; `other` is the batch wall clock minus the four.
pub fn critical_stages_ms(b: &tale::BatchStats) -> (f64, f64, f64, f64, f64) {
    let s = &b.stages;
    let (probe, matching) = b
        .shards
        .iter()
        .max_by(|x, y| x.wall_secs.total_cmp(&y.wall_secs))
        .map_or((s.probe_secs, s.match_secs), |sh| {
            (sh.probe_secs, sh.match_secs)
        });
    let other = s.total_secs - s.plan_secs - probe - matching - s.rank_secs;
    let ms = |x: f64| x * 1e3;
    (
        ms(s.plan_secs),
        ms(probe),
        ms(matching),
        ms(s.rank_secs),
        ms(other),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(50_000), Some(99));
        for n in [100, 150, 200, 640, 1000, 4321] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn median_of_medians_takes_the_typical_query() {
        // three small queries around 2 ms, one large around 100 ms: the
        // median of medians is the middle small query's median
        let mut samples = Vec::new();
        for (q, base) in [(0, 1.0), (1, 2.0), (2, 3.0), (3, 100.0)] {
            for k in 0..5 {
                samples.push((q, base + k as f64 * 0.1));
            }
        }
        assert_eq!(median_of_medians(&samples), 2.2);
        samples.push((1, f64::INFINITY));
        assert_eq!(median_of_medians(&samples), 2.2);
        assert!(median_of_medians(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50).is_nan());
    }
}
