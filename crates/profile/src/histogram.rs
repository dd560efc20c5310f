//! Log-bucketed distribution metrics.
//!
//! Counters answer "how many"; histograms answer "how were they spread".
//! The simulator records *simulated* quantities — block cycles, tile
//! latencies in sim-microseconds — so every observation is a deterministic
//! integer and two runs with the same seed produce byte-identical
//! snapshots. Buckets are powers of two: value `v` lands in bucket
//! `floor(log2(v)) + 1` (bucket 0 holds exact zeros), which keeps the
//! structure tiny (65 fixed buckets), order-independent under concurrent
//! recording, and accurate to within 2x at every quantile — enough to
//! rank formats and catch regressions, which is all the calibration
//! contract asks for (see DESIGN.md §13).

/// Number of buckets: one for zero plus one per possible leading-bit
/// position of a `u64`.
const BUCKETS: usize = 65;

/// A mergeable log-bucketed histogram over `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of a value: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Largest value a bucket can hold: 0 for bucket 0, else `2^i - 1`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one. Because buckets are simple
    /// sums, merge order never changes the result.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Upper bound of the bucket containing the q-th percentile
    /// observation (`q` in 0..=100), clamped to the observed `[min, max]`
    /// range so single-sample and tight distributions report exactly.
    /// Integer arithmetic throughout — no float rounding to drift across
    /// platforms.
    fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, ceil(q% of count).
        // Widened to u128: `count * q` overflows u64 for merged
        // histograms with more than u64::MAX/100 observations, which
        // used to wrap the rank and report a bogus p99.
        let rank = (u128::from(self.count) * u128::from(q)).div_ceil(100) as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Immutable summary of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(50),
            p90: self.quantile(90),
            p99: self.quantile(99),
        }
    }
}

/// Point-in-time summary of a [`Histogram`]: counts and log-bucket
/// quantiles. This is what lands in `RunManifest` and the metric tables.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Mean of the observations (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        let s = h.snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_reports_itself_at_every_quantile() {
        let mut h = Histogram::new();
        h.observe(777);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 777);
        assert_eq!(s.max, 777);
        // Clamping to [min, max] makes every quantile exact here.
        assert_eq!(s.p50, 777);
        assert_eq!(s.p90, 777);
        assert_eq!(s.p99, 777);
        assert_eq!(s.mean(), 777.0);
    }

    #[test]
    fn bucket_boundaries_land_where_expected() {
        // 0 is its own bucket; powers of two open a new bucket.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);

        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 4);
        // Rank of p50 over 5 samples is ceil(2.5) = 3 → third smallest
        // lands in the [2,3] bucket, reported as its upper bound.
        assert_eq!(s.p50, 3);
        assert_eq!(s.p99, 4);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let values_a = [5u64, 9, 1024, 0, 3];
        let values_b = [7u64, 7, 7, 65536];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &v in &values_a {
            a.observe(v);
            both.observe(v);
        }
        for &v in &values_b {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.observe(42);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn two_observations_split_the_quantiles() {
        let mut h = Histogram::new();
        h.observe(10);
        h.observe(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        // p50 is the first observation's bucket (clamped to min), p99
        // the second's; neither is zero, NaN has no integer analogue.
        assert_eq!(s.p50, 15, "upper bound of the [8,15] bucket");
        assert_eq!(s.p99, 1 << 20, "clamped to max");
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn huge_counts_do_not_overflow_the_rank() {
        // Repeated self-merges double the count past u64::MAX / 100,
        // where the old u64 rank arithmetic wrapped and reported a p99
        // below p50.
        let mut h = Histogram::new();
        h.observe(100);
        h.observe(200_000);
        for _ in 0..60 {
            let other = h.clone();
            h.merge(&other);
        }
        assert!(h.count() > u64::MAX / 100, "count {} too small", h.count());
        let s = h.snapshot();
        assert!(s.min <= s.p50, "p50 {} below min {}", s.p50, s.min);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "{s:?}");
        assert!(s.p99 <= s.max, "p99 {} above max {}", s.p99, s.max);
        assert!(s.p99 >= 200_000 / 2, "p99 {} lost the upper mass", s.p99);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert!(s.p50 <= s.p90);
        assert!(s.p90 <= s.p99);
        assert!(s.p99 <= s.max);
        assert!(s.min <= s.p50);
        // Log-bucket error is bounded by 2x.
        assert!(s.p50 >= 500 && s.p50 <= 1000, "p50 {}", s.p50);
    }
}
