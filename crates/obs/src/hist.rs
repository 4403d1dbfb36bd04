//! Log2-bucketed latency histograms.
//!
//! [`Hist64`] records `u64` samples into 65 power-of-two buckets (one for
//! zero, one per bit width). Recording is a handful of integer ops, the
//! exact sum and count are kept alongside the buckets so totals reconcile
//! bit-exactly with the simulator's scalar [`Stats`](mcs_model::Stats)
//! counters, and quantiles are answered from the bucket counts.

use crate::json;
use std::fmt;

/// Number of buckets: values of bit width 0 (zero) through 64.
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `0` holds exactly the value `0`; bucket `k` (k ≥ 1) holds the
/// values in `[2^(k-1), 2^k - 1]`, i.e. the values of bit width `k`.
#[derive(Clone, PartialEq, Eq)]
pub struct Hist64 {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist64 {
    fn default() -> Self {
        Hist64 { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl fmt::Debug for Hist64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Hist64 {{ count: {}, sum: {}, min: {:?}, max: {:?}, p50: {:?}, p99: {:?} }}",
            self.count,
            self.sum,
            self.min(),
            self.max(),
            self.quantile(0.50),
            self.quantile(0.99),
        )
    }
}

/// The bucket index a value lands in: its bit width.
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The inclusive `[lo, hi]` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        k => (1 << (k - 1), (1 << k) - 1),
    }
}

impl Hist64 {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (saturating) sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts, indexed by bit width.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Hist64) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a deterministic upper bound:
    /// the inclusive upper edge of the bucket containing the sample of rank
    /// `ceil(q * count)`, clamped to the observed maximum. `None` when the
    /// histogram is empty.
    ///
    /// With a single sample the answer is exact (the clamp collapses the
    /// bucket to the observed max); in general it overestimates by at most
    /// 2x (one bucket width).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return Some(hi.min(self.max).max(lo.min(self.max)));
            }
        }
        // The buckets sum to `count` and `rank <= count`, so the loop
        // returns; the sample of top rank is at most the maximum.
        Some(self.max)
    }

    /// Median upper bound (see [`Hist64::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Serializes the histogram as one JSON object (only non-empty buckets
    /// are listed).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            self.count,
            self.sum,
            opt(self.min()),
            opt(self.max()),
            self.mean(),
            opt(self.p50()),
            opt(self.p90()),
            opt(self.p99()),
        );
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let (lo, hi) = bucket_bounds(i);
            let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"n\":{n}}}");
        }
        out.push_str("]}");
        out
    }
}

/// The four latency distributions the engine records (Sections D, E.3,
/// E.4 of the paper are all claims about these quantities).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHists {
    /// Cycles from first denial to acquisition, one sample per successful
    /// lock acquisition (`0` for never-denied acquisitions). Reconciles:
    /// `lock_acquire_wait.count() == LockStats::acquires`.
    pub lock_acquire_wait: Hist64,
    /// Busy-wait episode duration: one sample per completed
    /// denial-to-completion wait, recorded with exactly the value added to
    /// `LockStats::total_wait_cycles`. Reconciles:
    /// `busy_wait.sum() == LockStats::total_wait_cycles`.
    pub busy_wait: Hist64,
    /// Cycles a request (or a woken busy-wait register) waited for its bus
    /// grant, one sample per executed transaction.
    pub bus_arb_wait: Hist64,
    /// End-to-end miss service latency: from the cycle a reference was
    /// declared a miss to the cycle its final bus transaction (or abort)
    /// completed. One sample per miss that completes; on a run that ends
    /// with every processor done, `miss_service.count()` equals the summed
    /// `ProcStats::misses`.
    pub miss_service: Hist64,
}

impl LatencyHists {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histograms with their stable names, for generic reporting.
    pub fn named(&self) -> [(&'static str, &Hist64); 4] {
        [
            ("lock_acquire_wait", &self.lock_acquire_wait),
            ("busy_wait", &self.busy_wait),
            ("bus_arb_wait", &self.bus_arb_wait),
            ("miss_service", &self.miss_service),
        ]
    }

    /// Serializes all four histograms as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, h)) in self.named().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::escaped(name));
            out.push(':');
            out.push_str(&h.to_json());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // (value, expected bucket)
        let cases: [(u64, usize); 12] = [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1023, 10),
            (1024, 11),
            ((1 << 63) - 1, 63),
            (1 << 63, 64),
            (u64::MAX, 64),
        ];
        for (v, want) in cases {
            assert_eq!(bucket_index(v), want, "bucket_index({v})");
            let (lo, hi) = bucket_bounds(want);
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
        }
        // Buckets tile the whole u64 range with no gaps or overlaps.
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} starts at {lo}, expected {next}");
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn records_extremes_without_overflow() {
        let mut h = Hist64::new();
        for v in [0, 1, (1 << 20) - 1, 1 << 20, u64::MAX, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.buckets()[64], 2);
        assert_eq!(h.buckets()[0], 1);
    }

    #[test]
    fn quantiles_on_empty_and_single_sample() {
        let h = Hist64::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);

        let mut h = Hist64::new();
        h.record(37);
        // A single sample is answered exactly regardless of bucket width.
        assert_eq!(h.p50(), Some(37));
        assert_eq!(h.p90(), Some(37));
        assert_eq!(h.p99(), Some(37));
        assert_eq!(h.quantile(0.0), Some(37));
        assert_eq!(h.quantile(1.0), Some(37));
    }

    #[test]
    fn quantiles_walk_buckets_in_order() {
        let mut h = Hist64::new();
        for _ in 0..90 {
            h.record(1); // bucket 1
        }
        for _ in 0..9 {
            h.record(100); // bucket 7: [64,127]
        }
        h.record(100_000); // bucket 17
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), Some(1));
        // Rank 90 is still in bucket 1.
        assert_eq!(h.p90(), Some(1));
        // Rank 99 falls in the [64,127] bucket, clamped to nothing (max is
        // higher), so the bucket's upper edge is returned.
        assert_eq!(h.p99(), Some(127));
        assert_eq!(h.quantile(1.0), Some(100_000));
    }

    #[test]
    fn quantile_upper_bound_clamps_to_observed_max() {
        let mut h = Hist64::new();
        h.record(65); // bucket [64,127]
        h.record(66);
        assert_eq!(h.p99(), Some(66), "clamp to max, not the bucket edge 127");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Hist64::new();
        a.record(1);
        a.record(1000);
        let mut b = Hist64::new();
        b.record(0);
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(0));
        assert_eq!(a.max(), Some(u64::MAX));
    }

    #[test]
    fn json_is_valid_and_lists_only_populated_buckets() {
        let mut h = Hist64::new();
        h.record(0);
        h.record(5);
        h.record(5);
        let j = h.to_json();
        crate::json::validate_line(&j).expect("histogram JSON must parse");
        assert!(j.contains("\"count\":3"));
        assert!(j.contains("{\"lo\":4,\"hi\":7,\"n\":2}"));
        assert!(!j.contains("\"n\":0"));

        let hists = LatencyHists::new();
        crate::json::validate_line(&hists.to_json()).expect("hists JSON must parse");
    }
}
