//! Order statistics used by every workload.

/// Median of `xs` (mean of the two middle values for an even count); 0
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of each non-empty slot. Closed loops keep one slot per
/// request of their pool and report percentiles over these medians, so a
/// run's sample count is the pool's whatever number of passes it made,
/// and one disturbed pass does not move a request's latency.
pub fn slot_medians(slots: &[Vec<f64>]) -> Vec<f64> {
    slots
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect()
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile, at most 99, that has at least [`TAIL_BEYOND`]
/// samples beyond it, and its nearest-rank value: `(percentile, value)`.
///
/// With `n ≥ 1000` samples this is the plain p99. With fewer it is the
/// value of rank `n − 10` (so exactly ten samples are larger), reported
/// as percentile `100·(n − 10)/n`. With ten samples or fewer no percentile
/// qualifies and the median is returned as percentile 50.
pub fn tail_percentile(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return (50.0, median(xs));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let p = (100.0 * (n - TAIL_BEYOND) as f64 / n as f64).min(99.0);
    // Nearest rank: the smallest rank r with r ≥ p·n/100.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    (p, v[rank.clamp(1, n) - 1])
}

/// Whether the latencies of one open-loop rung, in the order their
/// requests were due, show a backlog that grows over the rung: the median
/// of the last quarter exceeds the median of the first quarter by more
/// than half the latency limit. A queue that keeps up drains between
/// arrivals, so both quarters see the same latencies; an overloaded one
/// grows linearly, so the last quarter waits for the whole excess.
pub fn backlog_growing(latencies_in_due_order: &[f64], limit_ms: f64) -> bool {
    let n = latencies_in_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&latencies_in_due_order[..q]);
    let last = median(&latencies_in_due_order[n - q..]);
    last - first > limit_ms / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slot_medians_skip_empty_slots() {
        let slots = vec![vec![3.0, 1.0, 2.0], vec![], vec![5.0]];
        assert_eq!(slot_medians(&slots), vec![2.0, 5.0]);
    }

    #[test]
    fn tail_percentile_is_p99_with_enough_samples() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs);
        assert_eq!(p, 99.0);
        assert_eq!(v, 1980.0);
        assert!(xs.iter().filter(|&&x| x > v).count() >= TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_on_small_runs() {
        for n in [11usize, 50, 120, 500, 999, 1000, 1001] {
            let xs: Vec<f64> = (1..=n).rev().map(|i| i as f64).collect();
            let (p, v) = tail_percentile(&xs);
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: {beyond} beyond p{p}");
            // No higher percentile qualifies: one rank up leaves < 10
            // beyond, unless the cap at p99 was what stopped us.
            if p < 99.0 {
                assert_eq!(beyond, TAIL_BEYOND, "n={n}");
                assert_eq!(v, (n - TAIL_BEYOND) as f64, "n={n}");
            }
        }
        let (p, v) = tail_percentile(&[5.0, 1.0, 3.0]);
        assert_eq!((p, v), (50.0, 3.0));
    }

    #[test]
    fn backlog_detection_separates_steady_from_growing_queues() {
        let limit = 20.0;
        // A queue that keeps up: latencies hover around 2 ms with jitter.
        let steady: Vec<f64> = (0..400)
            .map(|i| 2.0 + ((i * 37) % 11) as f64 * 0.3)
            .collect();
        assert!(!backlog_growing(&steady, limit));
        // An overloaded queue: each request waits 0.2 ms longer than the last.
        let growing: Vec<f64> = (0..400).map(|i| 2.0 + i as f64 * 0.2).collect();
        assert!(backlog_growing(&growing, limit));
        // One late burst that drains again is not a growing backlog.
        let mut burst = steady.clone();
        for x in &mut burst[150..170] {
            *x += 40.0;
        }
        assert!(!backlog_growing(&burst, limit));
    }
}
