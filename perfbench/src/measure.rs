//! Order statistics over host timings: exact percentiles over kept
//! samples, and a log-linear histogram for streams too long to keep
//! (one sample per simulated event).

/// Nearest-rank percentile of `samples` (`q` in `0..=1`): the smallest
/// sample with at least `q` of all samples at or below it. Sorts in
/// place; 0 for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[rank(samples.len() as u64, q) as usize - 1]
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Sub-buckets per power of two: values are kept to within 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are counted exactly.
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// A log-linear histogram of `u64` samples: exact below 64, within
/// 1/32 of the value above, in fixed memory.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    /// Count one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    /// Samples counted.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no sample was counted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile, reported as the middle of the sample's
    /// bucket; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let want = rank(self.n, q);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return midpoint(i);
            }
        }
        unreachable!("bucket counts sum to n")
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // >= SUB_BITS + 1
    let sub = (v >> (exp - SUB_BITS as u64)) & (SUB - 1);
    (EXACT + (exp - SUB_BITS as u64 - 1) * SUB + sub) as usize
}

fn midpoint(i: usize) -> u64 {
    let i = i as u64;
    if i < EXACT {
        return i;
    }
    let exp = (i - EXACT) / SUB + SUB_BITS as u64 + 1;
    let sub = (i - EXACT) % SUB;
    let width = 1u64 << (exp - SUB_BITS as u64);
    let lo = (1u64 << exp) + sub * width;
    lo + width / 2
}
