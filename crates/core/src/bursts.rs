//! Burst identification on queue-length series.
//!
//! Following the buffer-sizing methodology the paper evaluates with
//! (Woodruff et al., "Measuring burstiness in data center applications"):
//! a burst is a maximal run of fine steps where the queue length is at or
//! above a threshold; runs separated by fewer than `min_gap` steps are
//! merged into one burst.

/// One detected burst (`[start, end)` in fine-step indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    pub start: usize,
    pub end: usize,
    /// Peak queue length within the burst.
    pub height: f32,
}

impl Burst {
    pub fn overlaps(&self, other: &Burst) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Burst detector parameters.
#[derive(Debug, Clone, Copy)]
pub struct BurstConfig {
    /// A step is burst-active when the length is ≥ this many packets.
    pub threshold: f32,
    /// Merge bursts separated by fewer than this many quiet steps.
    pub min_gap: usize,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            threshold: 10.0,
            min_gap: 2,
        }
    }
}

/// Detect bursts in a fine-grained series.
pub fn detect_bursts(series: &[f32], cfg: &BurstConfig) -> Vec<Burst> {
    let mut raw: Vec<Burst> = Vec::new();
    let mut cur: Option<Burst> = None;
    for (t, &v) in series.iter().enumerate() {
        if v >= cfg.threshold {
            match &mut cur {
                Some(b) => {
                    b.end = t + 1;
                    b.height = b.height.max(v);
                }
                None => {
                    cur = Some(Burst {
                        start: t,
                        end: t + 1,
                        height: v,
                    })
                }
            }
        } else if let Some(b) = cur.take() {
            raw.push(b);
        }
    }
    if let Some(b) = cur {
        raw.push(b);
    }
    // Merge bursts separated by small gaps.
    let mut merged: Vec<Burst> = Vec::with_capacity(raw.len());
    for b in raw {
        match merged.last_mut() {
            Some(prev) if b.start - prev.end < cfg.min_gap => {
                prev.end = b.end;
                prev.height = prev.height.max(b.height);
            }
            _ => merged.push(b),
        }
    }
    merged
}

/// Mean start-to-start gap between consecutive bursts, if ≥ 2 bursts.
pub fn mean_interarrival(bursts: &[Burst]) -> Option<f64> {
    if bursts.len() < 2 {
        return None;
    }
    let gaps: Vec<f64> = bursts
        .windows(2)
        .map(|w| (w[1].start - w[0].start) as f64)
        .collect();
    Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// Fraction of steps with an (effectively) empty queue.
pub fn empty_fraction(series: &[f32]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    series.iter().filter(|&&v| v < 0.5).count() as f64 / series.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: f32, min_gap: usize) -> BurstConfig {
        BurstConfig { threshold, min_gap }
    }

    #[test]
    fn detects_simple_bursts() {
        let s = [0.0, 12.0, 15.0, 3.0, 0.0, 11.0, 0.0];
        let b = detect_bursts(&s, &cfg(10.0, 1));
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].start, 1);
        assert_eq!(b[0].end, 3);
        assert_eq!(b[0].height, 15.0);
        assert_eq!(b[1].start, 5);
        assert_eq!(b[1].end - b[1].start, 1);
    }

    #[test]
    fn merges_bursts_with_small_gaps() {
        let s = [12.0, 0.0, 12.0, 0.0, 0.0, 0.0, 12.0];
        // Gap of 1 step between first two merges at min_gap=2; the long
        // gap does not.
        let b = detect_bursts(&s, &cfg(10.0, 2));
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].start, 0);
        assert_eq!(b[0].end, 3);
    }

    #[test]
    fn empty_series_yields_no_bursts() {
        assert!(detect_bursts(&[0.0; 20], &BurstConfig::default()).is_empty());
        assert!(detect_bursts(&[], &BurstConfig::default()).is_empty());
    }

    #[test]
    fn burst_spanning_the_end_is_closed() {
        let s = [0.0, 11.0, 12.0];
        let b = detect_bursts(&s, &BurstConfig::default());
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].end, 3);
    }

    #[test]
    fn interarrival_and_empty_fraction() {
        let s = [11.0, 0.0, 0.0, 0.0, 11.0, 0.0, 0.0, 0.0, 11.0];
        let b = detect_bursts(&s, &cfg(10.0, 1));
        assert_eq!(b.len(), 3);
        assert_eq!(mean_interarrival(&b), Some(4.0));
        assert!((empty_fraction(&s) - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(mean_interarrival(&b[..1]), None);
    }

    #[test]
    fn overlap_predicate() {
        let a = Burst {
            start: 2,
            end: 5,
            height: 1.0,
        };
        let b = Burst {
            start: 4,
            end: 6,
            height: 1.0,
        };
        let c = Burst {
            start: 5,
            end: 7,
            height: 1.0,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching bursts do not overlap");
    }
}
