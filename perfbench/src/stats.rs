//! The benchmark's own arithmetic: medians, nearest-rank percentiles and
//! how far they can be trusted, the serving-ladder selection and the
//! backlog-growth rule. Pure functions, unit-tested below.

/// Median of a sample set (mean of the two middle values for an even
/// count). `None` on an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Set-ups a run must hold before [`setup_time`] reports the fastest one.
pub const FASTEST_SETUP_MIN_SAMPLES: usize = 100;

/// `setup_s` from every set-up time of a run. A shared host can switch
/// between speed levels about 1.6× apart, each lasting from a fraction of
/// a second to minutes. With hundreds of short set-ups spread over the run, the
/// fast level is nearly always among them, and the fastest set-up is the
/// steadiest figure across runs. With a few dozen long ones, one draw
/// moves the fastest a lot, and the median is steadier. `None` on an
/// empty set.
pub fn setup_time(times: &[f64]) -> Option<f64> {
    if times.len() >= FASTEST_SETUP_MIN_SAMPLES {
        times.iter().copied().min_by(f64::total_cmp)
    } else {
        median(times)
    }
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// `ceil(pct / 100 · n)`, at least 1 — the rank
/// `pipad_metrics::percentile_nearest_rank` reads.
pub fn nearest_rank(n: usize, pct: u64) -> usize {
    (((pct as usize) * n).div_ceil(100)).max(1)
}

/// Samples that lie strictly beyond the nearest-rank `pct`-th percentile.
pub fn samples_beyond(n: usize, pct: u64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, pct).min(n)
    }
}

/// Fewest samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// Whether the `pct`-th percentile of `n` samples may be reported: it must
/// leave at least [`MIN_BEYOND`] samples beyond it.
pub fn percentile_supported(n: usize, pct: u64) -> bool {
    samples_beyond(n, pct) >= MIN_BEYOND
}

/// One rate of the serving ladder, as measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderPoint {
    /// Offered rate, requests per second.
    pub rps: f64,
    /// Nearest-rank p99 latency, simulated ms.
    pub p99_ms: f64,
    /// Rejected divided by offered requests.
    pub failed_frac: f64,
    /// See [`backlog_growth`].
    pub backlog_growth: f64,
}

/// Last-decile mean latency over first-decile mean latency above which a
/// rate counts as building a backlog.
pub const BACKLOG_GROWTH_LIMIT: f64 = 1.5;

/// p99 latency limit for a ladder rate to count as met, simulated ms.
pub const P99_LIMIT_MS: f64 = 5.0;

/// Whether one ladder rate meets all three conditions: p99 within
/// [`P99_LIMIT_MS`], nothing rejected, and no growing backlog.
pub fn meets_limits(p: &LadderPoint) -> bool {
    p.p99_ms <= P99_LIMIT_MS && p.failed_frac == 0.0 && p.backlog_growth <= BACKLOG_GROWTH_LIMIT
}

/// The highest ladder rate that meets [`meets_limits`]; 0 if none does.
/// Rates above a failing one still count when they pass, so a
/// non-monotone ladder reports what it measured.
pub fn max_sustained_rps(ladder: &[LadderPoint]) -> f64 {
    ladder
        .iter()
        .filter(|p| meets_limits(p))
        .map(|p| p.rps)
        .fold(0.0, f64::max)
}

/// Backlog growth of one replay: mean latency of the last tenth of the
/// served requests (in arrival order) over that of the first tenth. A
/// stable queue gives about 1; a backlog that builds up gives more. Fewer
/// than 10 samples leave a decile empty and give 1.
pub fn backlog_growth(latencies_in_arrival_order: &[f64]) -> f64 {
    let n = latencies_in_arrival_order.len();
    let decile = n / 10;
    if decile == 0 {
        return 1.0;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&latencies_in_arrival_order[..decile]);
    let last = mean(&latencies_in_arrival_order[n - decile..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn setup_time_is_the_median_of_few_and_the_fastest_of_many() {
        assert_eq!(setup_time(&[0.3, 0.1, 0.2, 0.5]), Some(0.25));
        let mut many = vec![2.0; FASTEST_SETUP_MIN_SAMPLES - 1];
        many.push(1.5);
        assert_eq!(setup_time(&many), Some(1.5));
        many.pop();
        assert_eq!(setup_time(&many), Some(2.0));
        assert_eq!(setup_time(&[]), None);
    }

    #[test]
    fn nearest_rank_is_the_rank_the_metrics_crate_reads() {
        assert_eq!(nearest_rank(1000, 99), 990);
        assert_eq!(nearest_rank(1000, 50), 500);
        assert_eq!(nearest_rank(3, 50), 2);
        assert_eq!(nearest_rank(1, 50), 1);
        for n in 1..=120u64 {
            let sorted: Vec<u64> = (1..=n).collect();
            for pct in [50, 95, 99, 100] {
                assert_eq!(
                    pipad_metrics::percentile_nearest_rank(&sorted, pct),
                    nearest_rank(n as usize, pct) as u64,
                    "n={n} pct={pct}"
                );
            }
        }
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1000 samples: p99 is rank 990, so exactly 10 lie beyond it.
        assert_eq!(samples_beyond(1000, 99), 10);
        assert!(percentile_supported(1000, 99));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(samples_beyond(999, 99), 9);
        assert!(!percentile_supported(999, 99));
        // The median of 20 samples leaves 10 beyond it; of 19, only 9.
        assert!(percentile_supported(20, 50));
        assert!(!percentile_supported(19, 50));
        assert_eq!(samples_beyond(0, 50), 0);
    }

    fn point(rps: f64, p99_ms: f64, failed_frac: f64, growth: f64) -> LadderPoint {
        LadderPoint {
            rps,
            p99_ms,
            failed_frac,
            backlog_growth: growth,
        }
    }

    #[test]
    fn ladder_picks_highest_rate_meeting_all_three_limits() {
        let ladder = [
            point(500.0, 2.0, 0.0, 1.0),
            point(1000.0, 3.0, 0.0, 1.1),
            point(2000.0, 4.9, 0.0, 1.2),
            // Fails the p99 limit.
            point(4000.0, 6.0, 0.0, 1.3),
        ];
        assert_eq!(max_sustained_rps(&ladder), 2000.0);
        // A rejected request disqualifies a rate.
        let ladder = [point(500.0, 1.0, 0.0, 1.0), point(1000.0, 1.0, 0.001, 1.0)];
        assert_eq!(max_sustained_rps(&ladder), 500.0);
        // So does a growing backlog, even with a good p99.
        let ladder = [point(500.0, 1.0, 0.0, 1.0), point(1000.0, 1.0, 0.0, 1.6)];
        assert_eq!(max_sustained_rps(&ladder), 500.0);
        // Exactly at the limits still passes.
        let ladder = [point(700.0, P99_LIMIT_MS, 0.0, BACKLOG_GROWTH_LIMIT)];
        assert_eq!(max_sustained_rps(&ladder), 700.0);
        assert_eq!(max_sustained_rps(&[point(500.0, 9.0, 0.0, 1.0)]), 0.0);
        assert_eq!(max_sustained_rps(&[]), 0.0);
    }

    #[test]
    fn backlog_growth_compares_last_and_first_decile() {
        // Flat latencies: no growth.
        assert_eq!(backlog_growth(&[2.0; 50]), 1.0);
        // Linear ramp 1..=100: first decile mean 5.5, last 95.5.
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((backlog_growth(&ramp) - 95.5 / 5.5).abs() < 1e-12);
        // 25 samples: deciles of 2 samples each, the middle is ignored.
        let mut v = vec![1.0; 25];
        v[23] = 3.0;
        v[24] = 5.0;
        assert_eq!(backlog_growth(&v), 4.0);
        // Too few samples to form a decile.
        assert_eq!(backlog_growth(&[1.0, 9.0]), 1.0);
    }
}
