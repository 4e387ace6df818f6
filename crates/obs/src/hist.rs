//! Fixed-bucket histograms and RAII span timing.
//!
//! Buckets are log-scaled with 8 sub-buckets per octave (values 0–15
//! are exact), giving ≤ 1/16 relative error on quantile estimates with a
//! fixed 496-slot table — no allocation, no locking, one `fetch_add` per
//! sample. Good enough for p50/p90/p99 of latencies spanning nanoseconds
//! to minutes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::registry::{register, Latch, Metric};

/// Number of buckets: 16 exact + 60 octaves × 8 sub-buckets.
pub(crate) const NUM_BUCKETS: usize = 16 + 60 * 8;

/// Display unit of a time histogram. Samples are always recorded in
/// nanoseconds (or raw values for [`Unit::Count`]) and scaled at
/// snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Raw values, no scaling.
    Count,
    Nanos,
    Micros,
    Millis,
    Secs,
}

impl Unit {
    /// Nanoseconds per display unit (1 for raw counts).
    pub fn divisor(self) -> f64 {
        match self {
            Unit::Count | Unit::Nanos => 1.0,
            Unit::Micros => 1e3,
            Unit::Millis => 1e6,
            Unit::Secs => 1e9,
        }
    }

    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Count => "",
            Unit::Nanos => "ns",
            Unit::Micros => "us",
            Unit::Millis => "ms",
            Unit::Secs => "s",
        }
    }
}

/// Map a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let b = 63 - v.leading_zeros() as usize; // floor log2, >= 4
        let sub = ((v >> (b - 3)) & 7) as usize;
        (16 + (b - 4) * 8 + sub).min(NUM_BUCKETS - 1)
    }
}

/// Midpoint of a bucket (used as the quantile estimate).
fn bucket_value(index: usize) -> u64 {
    if index < 16 {
        index as u64
    } else {
        let oct = (index - 16) / 8;
        let sub = ((index - 16) % 8) as u64;
        let b = oct + 4;
        let lower = (8 + sub) << (b - 3);
        let width = 1u64 << (b - 3);
        lower + width / 2
    }
}

/// A fixed-bucket histogram. Declare as a `static`; it registers itself
/// on first sample.
pub struct Histogram {
    name: &'static str,
    unit: Unit,
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    latch: Latch,
}

impl Histogram {
    pub const fn new(name: &'static str, unit: Unit) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            unit,
            buckets: [ZERO; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            latch: Latch::new(),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Record one raw sample (nanoseconds for time histograms).
    #[inline]
    pub fn record(&'static self, v: u64) {
        self.latch.ensure(|| register(Metric::Histogram(self)));
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: a few `u64::MAX`-ish samples must
        // pin the sum (and thus the mean) at the ceiling, not lap it
        // into a small garbage value.
        let mut cur = self.sum.load(Ordering::Relaxed);
        while cur != u64::MAX {
            match self.sum.compare_exchange_weak(
                cur,
                cur.saturating_add(v),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration (stored as nanoseconds).
    #[inline]
    pub fn record_duration(&'static self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Start an RAII span that records its elapsed time on drop.
    pub fn start_span(&'static self) -> SpanTimer {
        SpanTimer {
            hist: self,
            start: Instant::now(),
            armed: true,
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Raw (unscaled) quantile estimate, `q` in `[0, 1]`.
    ///
    /// Convenience wrapper over [`Histogram::quantile_checked`] that
    /// collapses the empty case to 0.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_checked(q).unwrap_or(0)
    }

    /// Typed quantile estimate: `None` for an empty histogram (so an
    /// absent distribution is distinguishable from one full of zeros).
    /// The estimate is clamped into `[0, raw_max]`, so saturated
    /// (`u64::MAX`-valued) samples report the observed maximum rather
    /// than an out-of-range bucket midpoint.
    pub fn quantile_checked(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return Some(bucket_value(i).min(self.raw_max()));
            }
        }
        Some(self.raw_max())
    }

    pub fn raw_max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn raw_sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// RAII wall-clock timer: records into its histogram when dropped.
///
/// ```
/// use fmml_obs::{Histogram, Unit};
/// static H: Histogram = Histogram::new("doc.span_us", Unit::Micros);
/// {
///     let _span = H.start_span();
///     // ... timed work ...
/// } // recorded here
/// assert_eq!(H.count(), 1);
/// ```
pub struct SpanTimer {
    hist: &'static Histogram,
    start: Instant,
    armed: bool,
}

impl SpanTimer {
    /// Elapsed time so far, without recording.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Record now and disarm (instead of at drop).
    pub fn finish(mut self) -> Duration {
        let d = self.start.elapsed();
        self.hist.record_duration(d);
        self.armed = false;
        d
    }

    /// Drop without recording anything.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record_duration(self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [
            0u64,
            1,
            7,
            15,
            16,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            1 << 50,
        ] {
            let rep = bucket_value(bucket_index(v));
            let err = rep.abs_diff(v) as f64 / (v.max(1)) as f64;
            assert!(err <= 1.0 / 16.0 + 1e-9, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index dipped at {v}");
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        static H: Histogram = Histogram::new("test.hist.empty", Unit::Count);
        assert_eq!(H.quantile_checked(0.5), None);
        assert_eq!(H.quantile_checked(0.999), None);
        assert_eq!(H.quantile(0.5), 0, "legacy wrapper collapses to 0");
    }

    #[test]
    fn single_bucket_quantiles_are_exact_and_clamped() {
        static H: Histogram = Histogram::new("test.hist.single", Unit::Count);
        // One sample in the top half of its bucket: every quantile must
        // be the clamped observation, never a midpoint above raw_max.
        H.record(17);
        for q in [0.0, 0.5, 0.999, 1.0] {
            let v = H.quantile_checked(q).unwrap();
            assert!(v <= H.raw_max(), "q={q} estimate {v} above observed max");
            let err = v.abs_diff(17) as f64 / 17.0;
            assert!(err <= 1.0 / 16.0 + 1e-9, "q={q} err {err}");
        }
    }

    #[test]
    fn u64_max_samples_saturate_instead_of_wrapping() {
        static H: Histogram = Histogram::new("test.hist.sat", Unit::Count);
        H.record(u64::MAX);
        H.record(u64::MAX);
        H.record(1);
        // A wrapping sum would be ~0 here; the saturating sum pins at
        // the ceiling so the mean stays "huge", not garbage-small.
        assert_eq!(H.raw_sum(), u64::MAX);
        assert_eq!(H.raw_max(), u64::MAX);
        let p99 = H.quantile_checked(0.99).unwrap();
        assert!(p99 >= 1 << 62, "p99 {p99} out of range");
    }

    #[test]
    fn quantiles_on_log_scale_bucket_boundaries() {
        static H: Histogram = Histogram::new("test.hist.bounds", Unit::Count);
        // Exact region boundary (15/16), first sub-bucketed octave, and
        // powers of two straddling octave edges.
        for v in [15u64, 16, 17, 31, 32, 255, 256, (1 << 40) - 1, 1 << 40] {
            H.record(v);
        }
        assert_eq!(H.quantile_checked(0.0), Some(15), "min lands exactly");
        // Rank 5 of 9 lands on the 32 sample; bucket midpoint error is
        // at most 1/16 of the value.
        let p50 = H.quantile_checked(0.5).unwrap();
        assert!((30..=34).contains(&p50), "p50 {p50} off the 32 boundary");
        let top = H.quantile_checked(1.0).unwrap();
        assert!(top <= 1 << 40, "clamped to observed max, got {top}");
        assert!(top as f64 >= (1u64 << 40) as f64 * (1.0 - 1.0 / 16.0));
    }
}
