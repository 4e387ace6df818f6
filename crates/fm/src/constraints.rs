//! The reduced constraint set of §3 (C1–C3): exact checkers and the
//! normalized violation metrics reported in Table 1 rows a–c.
//!
//! For an imputed window `Q̂[q][t]` of one port (`q` local queue index,
//! `t` fine bin), with coarse interval length `L`:
//!
//! * **C1 (max):** for every queue `q` and interval `k`,
//!   `max_{t∈I_k} Q̂[q][t] = m_max[q][k]` (LANZ);
//! * **C2 (periodic):** `Q̂[q][t] = m_len[q][k]` at each sample position
//!   `t = (k+1)·L − 1`;
//! * **C3 (sent-count):** per interval, the number of fine steps where
//!   *any* queue of the port is non-empty is at most the SNMP sent count
//!   (work conservation makes non-empty steps a lower bound on packets
//!   sent).

use fmml_telemetry::PortWindow;

/// The constraint right-hand sides of one port window, extracted once.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConstraints {
    pub interval_len: usize,
    pub len: usize,
    /// `maxes[q][k]`: C1 rhs.
    pub maxes: Vec<Vec<u32>>,
    /// `samples[q][k]`: C2 rhs.
    pub samples: Vec<Vec<u32>>,
    /// `sent[k]`: C3 rhs.
    pub sent: Vec<u32>,
}

impl WindowConstraints {
    pub fn from_window(w: &PortWindow) -> WindowConstraints {
        WindowConstraints {
            interval_len: w.interval_len,
            len: w.len(),
            maxes: w.maxes.clone(),
            samples: w.samples.clone(),
            sent: w.sent.clone(),
        }
    }

    pub fn intervals(&self) -> usize {
        self.len / self.interval_len
    }

    pub fn num_queues(&self) -> usize {
        self.maxes.len()
    }

    /// Window-relative sample positions (end of each interval).
    pub fn sample_positions(&self) -> Vec<usize> {
        (0..self.intervals())
            .map(|k| (k + 1) * self.interval_len - 1)
            .collect()
    }

    fn assert_shape(&self, imputed: &[Vec<f32>]) {
        assert_eq!(imputed.len(), self.num_queues(), "queue count mismatch");
        for q in imputed {
            assert_eq!(q.len(), self.len, "window length mismatch");
        }
    }

    // ---- exact satisfaction (integer semantics, for CEM outputs) ----

    /// Exact check of C1 ∧ C2 ∧ C3 on an integer series, in integers:
    /// the row a–c metrics below skip `m_max = 0` cells and round through
    /// `f32`, which a last line of defence may not. A mis-shaped series
    /// satisfies nothing.
    pub fn satisfied_exact(&self, imputed: &[Vec<u32>]) -> bool {
        let l = self.interval_len;
        if l == 0
            || imputed.len() != self.num_queues()
            || imputed.iter().any(|q| q.len() != self.len)
        {
            return false;
        }
        (0..self.intervals()).all(|k| {
            let c1_c2 = imputed.iter().enumerate().all(|(q, series)| {
                let interval = &series[k * l..(k + 1) * l];
                interval.iter().max() == Some(&self.maxes[q][k])
                    && interval[l - 1] == self.samples[q][k]
            });
            c1_c2 && self.nonempty_steps(imputed, k) <= self.sent[k]
        })
    }

    // ---- normalized violation metrics (Table 1 rows a–c) ----

    /// Row a: mean over (queue, interval) with `m_max > 0` of
    /// `|max(Q̂) − m_max| / m_max`.
    pub fn c1_error(&self, imputed: &[Vec<f32>]) -> f64 {
        self.assert_shape(imputed);
        let l = self.interval_len;
        let mut total = 0.0;
        let mut count = 0usize;
        for (q, series) in imputed.iter().enumerate() {
            for k in 0..self.intervals() {
                let m = self.maxes[q][k];
                if m == 0 {
                    continue;
                }
                let got = series[k * l..(k + 1) * l]
                    .iter()
                    .cloned()
                    .fold(0.0f32, f32::max) as f64;
                total += (got - m as f64).abs() / m as f64;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Row b: mean over (queue, sample) of
    /// `|Q̂[t_s] − m_len| / max(m_len, 1)`.
    pub fn c2_error(&self, imputed: &[Vec<f32>]) -> f64 {
        self.assert_shape(imputed);
        let pos = self.sample_positions();
        let mut total = 0.0;
        let mut count = 0usize;
        for (q, series) in imputed.iter().enumerate() {
            for (k, &t) in pos.iter().enumerate() {
                let want = self.samples[q][k] as f64;
                let got = series[t] as f64;
                total += (got - want).abs() / want.max(1.0);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Row c: mean over intervals of the *excess* non-empty-step count
    /// `max(0, NE_k − m_out_k) / L` (fraction of the interval in
    /// violation). Zero on any plausible series.
    pub fn c3_error(&self, imputed: &[Vec<f32>]) -> f64 {
        self.assert_shape(imputed);
        let l = self.interval_len;
        let mut total = 0.0;
        for k in 0..self.intervals() {
            let ne = (k * l..(k + 1) * l)
                .filter(|&t| imputed.iter().any(|q| q[t] > 0.5))
                .count() as f64;
            total += (ne - self.sent[k] as f64).max(0.0) / l as f64;
        }
        total / self.intervals() as f64
    }

    /// Count of non-empty steps per interval (the `NE` of C3) for an
    /// integer series.
    pub fn nonempty_steps(&self, imputed: &[Vec<u32>], k: usize) -> u32 {
        let l = self.interval_len;
        (k * l..(k + 1) * l)
            .filter(|&t| imputed.iter().any(|q| q[t] > 0))
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small hand-built constraint set: 2 queues, 2 intervals of 5.
    fn small() -> WindowConstraints {
        WindowConstraints {
            interval_len: 5,
            len: 10,
            maxes: vec![vec![4, 0], vec![2, 3]],
            samples: vec![vec![1, 0], vec![0, 3]],
            sent: vec![3, 2],
        }
    }

    /// A series satisfying everything in `small()`.
    fn good_series() -> Vec<Vec<f32>> {
        vec![
            // q0: max 4 in k0 (witness at t1), sample t4 = 1; all zero in k1.
            vec![0.0, 4.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            // q1: max 2 in k0 (t2), sample t4 = 0; k1: max 3 (t9=sample 3).
            vec![0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0],
        ]
        // NE: k0 -> t1,t2,t3,t4 nonzero = 4 > sent 3? Adjust below.
    }

    #[test]
    fn satisfied_series_has_zero_errors() {
        let mut w = small();
        w.sent = vec![4, 1]; // match NE of good_series
        let s = good_series();
        assert_eq!(w.c1_error(&s), 0.0);
        assert_eq!(w.c2_error(&s), 0.0);
        assert_eq!(w.c3_error(&s), 0.0);
        let ints: Vec<Vec<u32>> = s
            .iter()
            .map(|q| q.iter().map(|&v| v as u32).collect())
            .collect();
        assert!(w.satisfied_exact(&ints));
    }

    #[test]
    fn exact_check_holds_c1_where_the_max_is_zero() {
        // Row a skips `m_max = 0` cells (it divides by the max); the
        // exact check may not: an idle queue must stay idle.
        let w = WindowConstraints {
            interval_len: 5,
            len: 5,
            maxes: vec![vec![0]],
            samples: vec![vec![0]],
            sent: vec![3],
        };
        assert_eq!(w.c1_error(&[vec![0.0, 5.0, 0.0, 0.0, 0.0]]), 0.0);
        assert!(!w.satisfied_exact(&[vec![0, 5, 0, 0, 0]]));
        assert!(w.satisfied_exact(&[vec![0; 5]]));
    }

    #[test]
    fn exact_check_is_exact_above_f32_precision() {
        let peak = (1u32 << 24) + 1; // not representable in f32
        let w = WindowConstraints {
            interval_len: 3,
            len: 3,
            maxes: vec![vec![peak]],
            samples: vec![vec![0]],
            sent: vec![1],
        };
        assert!(w.satisfied_exact(&[vec![peak, 0, 0]]));
        assert!(!w.satisfied_exact(&[vec![peak - 1, 0, 0]]));
    }

    #[test]
    fn exact_check_rejects_mis_shaped_series() {
        let mut w = small();
        w.sent = vec![4, 1];
        assert!(!w.satisfied_exact(&[vec![0; 10]]), "one queue short");
        assert!(!w.satisfied_exact(&[vec![0; 7], vec![0; 7]]), "short rows");
        assert!(!w.satisfied_exact(&[]));
    }

    #[test]
    fn c1_detects_undershoot_and_overshoot() {
        let w = small();
        let mut s = good_series();
        s[0][1] = 2.0; // max becomes 2, want 4 -> error |2-4|/4 = 0.5 on one of 3 counted cells
        let e = w.c1_error(&s);
        assert!(e > 0.0);
        // Intervals with m_max == 0 are skipped: only (q0,k0),(q1,k0),(q1,k1).
        assert!((e - 0.5 / 3.0).abs() < 1e-9, "e={e}");
    }

    #[test]
    fn c2_detects_sample_mismatch() {
        let w = small();
        let mut s = good_series();
        s[0][4] = 3.0; // sample should be 1 -> |3-1|/1 = 2 over 4 samples
        assert!((w.c2_error(&s) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn c3_detects_excess_nonempty_steps() {
        let mut w = small();
        w.sent = vec![2, 1]; // good_series has NE = 4 in k0, 1 in k1
        let s = good_series();
        // k0 excess = 2 -> 2/5; k1 excess = 0; mean over 2 intervals = 0.2.
        assert!((w.c3_error(&s) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn nonempty_steps_counts_union_across_queues() {
        let mut w = small();
        w.sent = vec![4, 1];
        let s: Vec<Vec<u32>> = good_series()
            .iter()
            .map(|q| q.iter().map(|&v| v as u32).collect())
            .collect();
        assert_eq!(w.nonempty_steps(&s, 0), 4);
        assert_eq!(w.nonempty_steps(&s, 1), 1);
    }

    #[test]
    fn sample_positions_are_interval_ends() {
        let w = small();
        assert_eq!(w.sample_positions(), vec![4, 9]);
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn shape_mismatch_panics() {
        let w = small();
        w.c1_error(&[vec![0.0; 7], vec![0.0; 7]]);
    }
}
