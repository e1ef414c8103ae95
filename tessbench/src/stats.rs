//! Sample statistics shared by every workload: medians, the
//! ten-beyond percentile rule, failure accounting and peak memory.

/// Percentiles tried, highest first, when reporting a latency tail.
pub const TAIL_QUANTILES: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Latency samples of one operation class, with failed operations kept
/// as samples that miss every limit.
#[derive(Clone, Debug, Default)]
pub struct LatencyLog {
    ok_ms: Vec<f64>,
    failed: usize,
}

/// One reported percentile of a [`LatencyLog`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The quantile, e.g. `0.99`.
    pub q: f64,
    /// Its value in milliseconds (infinite when it falls on a failure).
    pub ms: f64,
}

impl LatencyLog {
    /// Records a completed operation.
    pub fn ok(&mut self, ms: f64) {
        self.ok_ms.push(ms);
    }

    /// Records a failed operation: it counts as slower than any limit.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &LatencyLog) {
        self.ok_ms.extend_from_slice(&other.ok_ms);
        self.failed += other.failed;
    }

    /// Operations recorded, failures included.
    pub fn len(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    /// Sorted samples with each failure as `+inf`.
    fn sorted(&self) -> Vec<f64> {
        let mut all = self.ok_ms.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed));
        all.sort_by(f64::total_cmp);
        all
    }

    /// Nearest-rank quantile `q` of the samples.
    pub fn quantile(&self, q: f64) -> Option<Percentile> {
        let all = self.sorted();
        let i = rank(all.len(), q)?;
        Some(Percentile { q, ms: all[i] })
    }

    /// The median.
    pub fn p50(&self) -> Option<Percentile> {
        self.quantile(0.5)
    }

    /// The highest of [`TAIL_QUANTILES`] with at least [`MIN_BEYOND`]
    /// samples strictly above its rank; `None` when even the median has
    /// fewer.
    pub fn tail(&self) -> Option<Percentile> {
        let all = self.sorted();
        TAIL_QUANTILES.iter().find_map(|&q| {
            let i = rank(all.len(), q)?;
            (all.len() - 1 - i >= MIN_BEYOND).then_some(Percentile { q, ms: all[i] })
        })
    }
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (q * n as f64).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

/// Median of a slice (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Operations attempted and failed in a run. A failed output check or
/// an error response is one failed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(n: usize) -> LatencyLog {
        let mut l = LatencyLog::default();
        for i in 1..=n {
            l.ok(i as f64);
        }
        l
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten lie beyond it.
        let t = log(1000).tail().unwrap();
        assert_eq!((t.q, t.ms), (0.99, 990.0));
        // 999 samples leave only nine beyond p99, so p95 is reported.
        let t = log(999).tail().unwrap();
        assert_eq!((t.q, t.ms), (0.95, 950.0));
        // 100 samples: p90 has ten beyond.
        assert_eq!(log(100).tail().unwrap().q, 0.90);
        // 20 samples: only the median qualifies.
        let t = log(20).tail().unwrap();
        assert_eq!((t.q, t.ms), (0.50, 10.0));
        // 19 samples: nothing qualifies.
        assert!(log(19).tail().is_none());
        assert!(LatencyLog::default().tail().is_none());
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut l = log(30);
        for _ in 0..30 {
            l.fail();
        }
        assert_eq!(l.len(), 60);
        // Half the samples failed, so the median is the last success
        // and every tail percentile lands on a failure.
        assert_eq!(l.p50().unwrap().ms, 30.0);
        let t = l.tail().unwrap();
        assert_eq!(t.q, 0.75);
        assert!(t.ms.is_infinite());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
