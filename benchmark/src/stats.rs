//! Order statistics and process CPU time — the only arithmetic the
//! benchmark does on its own samples.

use std::time::Duration;

/// `q`-quantile of `v` (nearest-rank on the sorted copy); 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// The median as Python's `statistics.median` takes it (the mean of
/// the middle two of an even count), which is how the driver reads a
/// set of runs.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

/// Median and quartiles of a set of values (a run's readings, or one
/// metric over a set of runs), and how far they disagreed:
/// `(q3 − q1) / median`, the spread the driver takes.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let (q1, q3) = quartiles_exclusive(v);
        Summary {
            median: median(v),
            q1,
            q3,
        }
    }

    pub fn spread_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// First/third quartile the way the driver takes them
/// (`statistics.quantiles(values, n=4)`, exclusive method).
fn quartiles_exclusive(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let at = |p: f64| -> f64 {
        if n == 1 {
            return s[0];
        }
        let pos = p * (n + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time on one of the POSIX CPU-time clocks, at nanosecond
/// resolution (`/proc/self/stat` counts in 10 ms ticks, which is more
/// than 1 % of a one-second phase).
fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `struct timespec` of
    // the layout 64-bit Linux's libc expects (two 64-bit fields, per
    // the cfg on the declaration), and `clock_gettime` writes nothing
    // else. Both clock ids are always valid for the calling process.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time of the whole process so far: all threads, exited ones
/// included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn cpu_time_advances_under_load() {
        let t0 = process_cpu();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu() > t0);
        assert!(thread_cpu() > Duration::ZERO);
    }
}
