//! Order statistics, the tail-percentile rule and process CPU time.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.95, 0.90];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based rank of quantile `q` among `n` samples (nearest-rank rule).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest of p99/p95/p90 with at least [`MIN_BEYOND`] samples
/// beyond it among `n`, or `None` when even p90 has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Fewest samples for which `q` has at least [`MIN_BEYOND`] beyond it.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("a finite count always suffices")
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Sorts `values` ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    values
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean, 0 for an empty slice.
pub fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Leading fields of Linux's `struct rusage`; the padding covers the
/// fourteen `long` counters that follow the two times.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a writable, properly aligned `struct rusage`
    // (two timevals plus fourteen longs on 64-bit Linux) that outlives
    // the call; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_stated_percentile_for_a_sample_count() {
        assert_eq!(tail_percentile(50), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        for q in TAIL_CANDIDATES {
            let n = min_samples(q);
            assert!(beyond(n, q) >= MIN_BEYOND && beyond(n - 1, q) < MIN_BEYOND);
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.9), 90.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn cpu_time_advances() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
    }
}
