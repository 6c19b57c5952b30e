//! Percentiles and host facts.

/// Median of `v` (sorts it); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sub-buckets per power of two in a [`Hist`]: a bucket is at most
/// 1/64 (1.6%) of its lower edge wide.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets for values below 2^48 (78 hours in ns).
const BUCKETS: usize = ((48 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of latencies (ns). Its size is fixed, so the
/// benchmark's own memory does not grow with the requests a run
/// answers, and `peak_rss_mb` stays the server's.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

/// The bucket of `v`: exact below `SUB`, then `SUB` buckets per power
/// of two.
fn bucket(v: u64) -> usize {
    let v = v.min((1 << 48) - 1);
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// The middle of bucket `i`.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let exp = (i / SUB) as u32 + SUB_BITS - 1;
    let width = 1u64 << (exp - SUB_BITS);
    let low = (1u64 << exp) + (i % SUB) * width;
    low as f64 + (width as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The value of the `rank`-th smallest sample (1-based), to within
    /// half a bucket.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        0.0
    }

    /// The median; 0 when empty.
    pub fn median(&self) -> f64 {
        match self.n {
            0 => 0.0,
            n if n % 2 == 1 => self.at_rank(n / 2 + 1),
            n => (self.at_rank(n / 2) + self.at_rank(n / 2 + 1)) / 2.0,
        }
    }

    /// The tail percentile reported for a class: p99 when at least 1000
    /// samples exist, otherwise the highest percentile with at least
    /// ten samples beyond it (the maximum when there are ten or fewer).
    /// Returns `(value, percentile)`.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.n;
        if n == 0 {
            return (0.0, 0.0);
        }
        if n >= 1000 {
            let rank = (0.99 * n as f64).ceil() as u64;
            return (self.at_rank(rank), 99.0);
        }
        if n <= 10 {
            return (self.at_rank(n), 100.0);
        }
        let rank = n - 10;
        (self.at_rank(rank), 100.0 * rank as f64 / n as f64)
    }
}

/// Median of sorted integer samples.
pub fn median_sorted(v: &[u64]) -> f64 {
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0
    }
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_ordered_and_narrow() {
        let mut last = 0;
        for v in (0..1u64 << 20).step_by(7).chain([u64::MAX]) {
            let b = bucket(v);
            assert!(b >= last && b < BUCKETS);
            last = b;
            if v < 1 << 20 {
                let mid = bucket_mid(b);
                assert!((mid - v as f64).abs() <= v as f64 / 64.0 + 0.5, "{v} {mid}");
            }
        }
    }

    #[test]
    fn percentiles_follow_the_samples() {
        let mut h = Hist::default();
        for v in 1..=2000u64 {
            h.record(v * 1000);
        }
        assert!((h.median() / 1_000_500.0 - 1.0).abs() < 0.01);
        let (p99, pct) = h.tail();
        assert_eq!(pct, 99.0);
        assert!((p99 / 1_980_000.0 - 1.0).abs() < 0.01);
    }
}
