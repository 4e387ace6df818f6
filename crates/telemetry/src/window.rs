//! Fixed-length per-port windows: the unit of training and evaluation.
//!
//! A [`PortWindow`] is one 300 ms slice (6 coarse intervals) of one port:
//! the fine ground truth for each of its queues plus every coarse
//! measurement the operator would have for that slice. It is what the
//! transformer trains on, what the constraints C1–C3 are stated over, and
//! what CEM corrects.

use crate::sampler::sample_positions;
use crate::series::CoarseTelemetry;
use fmml_netsim::GroundTruth;
use serde::{Deserialize, Serialize};

/// One window of one port: ground truth + coarse measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortWindow {
    /// Port this window belongs to.
    pub port: usize,
    /// First fine bin (trace-relative) covered by the window.
    pub start_bin: usize,
    /// Fine bins per coarse interval.
    pub interval_len: usize,
    /// Switch-global ids of the port's queues (for bookkeeping).
    pub queue_ids: Vec<usize>,
    /// `truth[local_q][t]`: fine ground-truth queue lengths, `t < len`.
    pub truth: Vec<Vec<f32>>,
    /// `samples[local_q][k]`: periodic sample of interval `k` (C2 rhs).
    pub samples: Vec<Vec<u32>>,
    /// `maxes[local_q][k]`: LANZ max of interval `k` (C1 rhs).
    pub maxes: Vec<Vec<u32>>,
    /// SNMP per-interval packets sent by the port (C3 rhs).
    pub sent: Vec<u32>,
    /// SNMP per-interval packets dropped at the port.
    pub dropped: Vec<u32>,
    /// SNMP per-interval packets received at the port (ingress side).
    pub received: Vec<u32>,
}

impl PortWindow {
    /// Window length in fine bins.
    pub fn len(&self) -> usize {
        self.truth[0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of coarse intervals in the window.
    pub fn intervals(&self) -> usize {
        self.len() / self.interval_len
    }

    /// Number of queues at the port.
    pub fn num_queues(&self) -> usize {
        self.truth.len()
    }

    /// Window-relative fine-bin positions of the periodic samples.
    pub fn sample_positions(&self) -> Vec<usize> {
        sample_positions(self.len(), self.interval_len)
    }

    /// True iff the window contains any queue activity at all (used to
    /// filter all-idle windows out of training sets).
    pub fn has_activity(&self) -> bool {
        self.maxes.iter().any(|m| m.iter().any(|&v| v > 0))
    }

    /// Peak LANZ max across queues (burst-intensity proxy for stratified
    /// dataset splits).
    pub fn peak_max(&self) -> u32 {
        self.maxes
            .iter()
            .flat_map(|m| m.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Slice a trace into non-overlapping (or strided) per-port windows.
///
/// `window_len` must be a multiple of `interval_len`; `stride` is in fine
/// bins (use `window_len` for non-overlapping windows).
pub fn windows_from_trace(
    gt: &GroundTruth,
    window_len: usize,
    interval_len: usize,
    stride: usize,
) -> Vec<PortWindow> {
    assert!(window_len > 0 && window_len.is_multiple_of(interval_len));
    assert!(
        stride > 0 && stride.is_multiple_of(interval_len),
        "stride must align to intervals"
    );
    let ct = CoarseTelemetry::from_ground_truth(gt, interval_len);
    let mut out = Vec::new();
    let mut start = 0;
    while start + window_len <= gt.num_bins() {
        let k0 = start / interval_len;
        let k1 = k0 + window_len / interval_len;
        for port in 0..gt.num_ports() {
            let queue_ids: Vec<usize> = gt.queues_of_port(port).collect();
            let truth = queue_ids
                .iter()
                .map(|&q| {
                    gt.queue_len_series(q)[start..start + window_len]
                        .iter()
                        .map(|&v| v as f32)
                        .collect()
                })
                .collect();
            let samples = queue_ids
                .iter()
                .map(|&q| ct.queues[q].samples[k0..k1].to_vec())
                .collect();
            let maxes = queue_ids
                .iter()
                .map(|&q| ct.queues[q].max[k0..k1].to_vec())
                .collect();
            out.push(PortWindow {
                port,
                start_bin: start,
                interval_len,
                queue_ids,
                truth,
                samples,
                maxes,
                sent: ct.ports[port].sent[k0..k1].to_vec(),
                dropped: ct.ports[port].dropped[k0..k1].to_vec(),
                received: ct.ports[port].received[k0..k1].to_vec(),
            });
        }
        start += stride;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmml_netsim::traffic::TrafficConfig;
    use fmml_netsim::{SimConfig, Simulation};

    fn trace() -> GroundTruth {
        let cfg = SimConfig::small();
        let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.5);
        Simulation::new(cfg, traffic, 33).run_ms(650)
    }

    #[test]
    fn window_shapes_and_counts() {
        let gt = trace();
        let ws = windows_from_trace(&gt, 300, 50, 300);
        // 650 ms -> 2 non-overlapping 300 ms windows per port.
        assert_eq!(ws.len(), 2 * gt.num_ports());
        for w in &ws {
            assert_eq!(w.len(), 300);
            assert_eq!(w.intervals(), 6);
            assert_eq!(w.num_queues(), 2);
            assert_eq!(w.sample_positions().len(), 6);
            assert_eq!(w.sent.len(), 6);
            assert_eq!(w.samples[0].len(), 6);
            assert_eq!(w.maxes[1].len(), 6);
        }
    }

    #[test]
    fn strided_windows_overlap() {
        let gt = trace();
        let ws = windows_from_trace(&gt, 300, 50, 100);
        // Starts: 0, 100, 200, 300 -> 4 per port.
        assert_eq!(ws.len(), 4 * gt.num_ports());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn window_measurements_match_truth() {
        let gt = trace();
        for w in windows_from_trace(&gt, 300, 50, 300) {
            let pos = w.sample_positions();
            for lq in 0..w.num_queues() {
                for k in 0..w.intervals() {
                    let seg = &w.truth[lq][k * 50..(k + 1) * 50];
                    let max = seg.iter().cloned().fold(0.0f32, f32::max);
                    assert_eq!(w.maxes[lq][k] as f32, max);
                    assert_eq!(w.samples[lq][k] as f32, w.truth[lq][pos[k]]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "stride must align")]
    fn misaligned_stride_panics() {
        let gt = trace();
        windows_from_trace(&gt, 300, 50, 77);
    }
}
