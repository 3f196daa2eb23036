//! A fixed-size latency histogram, so the benchmark's own memory does not
//! grow with the number of operations a run manages (peak RSS is one of
//! the reported metrics).

/// Sub-buckets per power of two: bucket width is at most 1/256 of its
/// lower edge (0.4 %), and quantiles interpolate inside the bucket.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Covers every value below 2^44 ns (about 4.9 hours).
const MAX_EXP: u32 = 44;

/// Log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    /// The buckets are written at creation, so their pages are resident
    /// from the start and the process's peak RSS does not depend on which
    /// latencies a run happens to record.
    fn default() -> Self {
        let len = ((MAX_EXP - SUB_BITS + 1) as u64 * SUB) as usize;
        // Not `vec![0; len]`: that maps lazily zeroed pages, the very
        // thing this avoids.
        #[allow(clippy::slow_vector_initialization)]
        let mut counts = Vec::with_capacity(len);
        counts.resize(len, 0);
        Hist { counts, n: 0 }
    }
}

fn index(v: u64) -> usize {
    let v = v.min((1u64 << MAX_EXP) - 1);
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// `[lo, hi)` of bucket `i`.
fn edges(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, (i + 1) as f64);
    }
    let shift = i / SUB - 1;
    let lo = (SUB + i % SUB) << shift;
    (lo as f64, (lo + (1 << shift)) as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Quantile `q` in nanoseconds, interpolated linearly by rank inside
    /// the bucket that holds it. Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 > rank {
                let (lo, hi) = edges(i);
                let within = (rank - before as f64 + 0.5) / c as f64;
                return lo + (hi - lo) * within.clamp(0.0, 1.0);
            }
            before += c;
        }
        edges(self.counts.len() - 1).1
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_contain_their_values() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            511,
            512,
            1_000,
            123_456,
            9_876_543_210,
        ] {
            let (lo, hi) = edges(index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} in [{lo}, {hi})");
        }
        for i in 1..4_000 {
            assert_eq!(edges(i - 1).1, edges(i).0, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_track_the_sample_within_bucket_resolution() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for (q, exact) in [(0.5, 500_050.0), (0.99, 990_010.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.005,
                "q{q}: {got} vs {exact}"
            );
        }
    }
}
