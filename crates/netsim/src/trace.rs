//! Fine-grained ground-truth recording.
//!
//! [`GroundTruth`] is the 1 ms-granular record the paper's pipeline starts
//! from: per-queue instantaneous lengths at every bin boundary, per-queue
//! within-bin maxima (event-granular), and per-port received / sent /
//! dropped packet counts per bin. Everything downstream — the coarse
//! telemetry monitors, the imputation targets, the evaluation metrics — is
//! derived from this structure.

use crate::packet::{PortId, QueueId};
use serde::{Deserialize, Serialize};

/// Fine-grained (1 ms) ground truth of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruth {
    num_ports: usize,
    queues_per_port: usize,
    /// `qlen[q][bin]`: instantaneous queue length at the *end* of the bin.
    qlen: Vec<Vec<u32>>,
    /// `qmax[q][bin]`: maximum length observed at any event within the bin.
    qmax: Vec<Vec<u32>>,
    /// `received[p][bin]`: packets that arrived at ingress port `p`.
    received: Vec<Vec<u32>>,
    /// `sent[p][bin]`: packets fully transmitted by egress port `p`.
    sent: Vec<Vec<u32>>,
    /// `dropped[p][bin]`: packets dropped at egress port `p`'s queues.
    dropped: Vec<Vec<u32>>,
    /// Shared-buffer occupancy at the end of each bin.
    buffer_occupancy: Vec<u32>,

    // Accumulators for the bin currently being recorded.
    cur_received: Vec<u32>,
    cur_sent: Vec<u32>,
    cur_dropped: Vec<u32>,
    cur_qmax: Vec<u32>,
}

impl GroundTruth {
    pub fn new(num_ports: usize, queues_per_port: usize) -> GroundTruth {
        let nq = num_ports * queues_per_port;
        GroundTruth {
            num_ports,
            queues_per_port,
            qlen: vec![Vec::new(); nq],
            qmax: vec![Vec::new(); nq],
            received: vec![Vec::new(); num_ports],
            sent: vec![Vec::new(); num_ports],
            dropped: vec![Vec::new(); num_ports],
            buffer_occupancy: Vec::new(),
            cur_received: vec![0; num_ports],
            cur_sent: vec![0; num_ports],
            cur_dropped: vec![0; num_ports],
            cur_qmax: vec![0; nq],
        }
    }

    // ---- recording interface (used by the simulator) ----

    pub fn record_received(&mut self, port: PortId) {
        self.cur_received[port] += 1;
    }

    pub fn record_sent(&mut self, port: PortId) {
        self.cur_sent[port] += 1;
    }

    pub fn record_drop(&mut self, port: PortId) {
        self.cur_dropped[port] += 1;
    }

    /// Observe a queue length at an event; keeps the within-bin maximum.
    pub fn observe_qlen(&mut self, q: QueueId, len: u32) {
        if len > self.cur_qmax[q] {
            self.cur_qmax[q] = len;
        }
    }

    /// Close the current 1 ms bin, snapshotting instantaneous queue
    /// lengths and flushing the per-bin counters.
    pub fn end_bin(&mut self, queue_lens: &[u32], buffer_occupied: u32) {
        assert_eq!(queue_lens.len(), self.qlen.len());
        for (q, &len) in queue_lens.iter().enumerate() {
            self.qlen[q].push(len);
            // The instantaneous value is also an observation.
            let m = self.cur_qmax[q].max(len);
            self.qmax[q].push(m);
            // The next bin starts from the current instantaneous length.
            self.cur_qmax[q] = len;
        }
        for p in 0..self.num_ports {
            self.received[p].push(self.cur_received[p]);
            self.sent[p].push(self.cur_sent[p]);
            self.dropped[p].push(self.cur_dropped[p]);
            self.cur_received[p] = 0;
            self.cur_sent[p] = 0;
            self.cur_dropped[p] = 0;
        }
        self.buffer_occupancy.push(buffer_occupied);
    }

    // ---- accessors ----

    pub fn num_bins(&self) -> usize {
        self.buffer_occupancy.len()
    }

    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    pub fn queues_per_port(&self) -> usize {
        self.queues_per_port
    }

    pub fn num_queues(&self) -> usize {
        self.num_ports * self.queues_per_port
    }

    /// Instantaneous queue length at each 1 ms boundary.
    pub fn queue_len_series(&self, q: QueueId) -> &[u32] {
        &self.qlen[q]
    }

    /// Event-granular within-bin maximum queue length.
    pub fn queue_max_series(&self, q: QueueId) -> &[u32] {
        &self.qmax[q]
    }

    pub fn received_series(&self, p: PortId) -> &[u32] {
        &self.received[p]
    }

    pub fn sent_series(&self, p: PortId) -> &[u32] {
        &self.sent[p]
    }

    pub fn dropped_series(&self, p: PortId) -> &[u32] {
        &self.dropped[p]
    }

    pub fn buffer_occupancy_series(&self) -> &[u32] {
        &self.buffer_occupancy
    }

    /// Mutable access to a queue-length series. The simulator itself
    /// never rewrites a finished trace; this lets export-side tooling
    /// (chaos testing via `fmml-fault`) model collector damage on the
    /// recorded stream without reaching into private fields.
    pub fn queue_len_series_mut(&mut self, q: QueueId) -> &mut [u32] {
        &mut self.qlen[q]
    }

    /// The port a switch-global queue id belongs to.
    pub fn port_of_queue(&self, q: QueueId) -> PortId {
        q / self.queues_per_port
    }

    /// Switch-global queue ids of a port.
    pub fn queues_of_port(&self, p: PortId) -> std::ops::Range<QueueId> {
        p * self.queues_per_port..(p + 1) * self.queues_per_port
    }

    /// Render the full trace as CSV (one row per bin) for plotting.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        s.push_str("bin");
        for q in 0..self.num_queues() {
            s.push_str(&format!(",qlen{q},qmax{q}"));
        }
        for p in 0..self.num_ports {
            s.push_str(&format!(",recv{p},sent{p},drop{p}"));
        }
        s.push_str(",buffer\n");
        for bin in 0..self.num_bins() {
            s.push_str(&bin.to_string());
            for q in 0..self.num_queues() {
                s.push_str(&format!(",{},{}", self.qlen[q][bin], self.qmax[q][bin]));
            }
            for p in 0..self.num_ports {
                s.push_str(&format!(
                    ",{},{},{}",
                    self.received[p][bin], self.sent[p][bin], self.dropped[p][bin]
                ));
            }
            s.push_str(&format!(",{}\n", self.buffer_occupancy[bin]));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_accounting_resets_counters() {
        let mut t = GroundTruth::new(2, 2);
        t.record_received(0);
        t.record_received(0);
        t.record_sent(1);
        t.record_drop(0);
        t.observe_qlen(1, 5);
        t.end_bin(&[0, 3, 0, 0], 3);
        t.end_bin(&[0, 0, 0, 0], 0);

        assert_eq!(t.num_bins(), 2);
        assert_eq!(t.received_series(0), &[2, 0]);
        assert_eq!(t.sent_series(1), &[1, 0]);
        assert_eq!(t.dropped_series(0), &[1, 0]);
        assert_eq!(t.queue_len_series(1), &[3, 0]);
        // Max within bin 0 saw 5 (event) even though the bin ended at 3.
        assert_eq!(t.queue_max_series(1), &[5, 3]);
        assert_eq!(t.buffer_occupancy_series(), &[3, 0]);
    }

    #[test]
    fn qmax_carries_instantaneous_start_of_bin() {
        let mut t = GroundTruth::new(1, 1);
        t.observe_qlen(0, 2);
        t.end_bin(&[4], 4); // bin 0: max(2, inst 4) = 4
        t.end_bin(&[1], 1); // bin 1 saw no events: max(start 4, inst 1) = 4
        assert_eq!(t.queue_max_series(0), &[4, 4]);
        assert_eq!(t.queue_len_series(0), &[4, 1]);
    }

    #[test]
    fn queue_port_mapping() {
        let t = GroundTruth::new(3, 2);
        assert_eq!(t.port_of_queue(0), 0);
        assert_eq!(t.port_of_queue(5), 2);
        assert_eq!(t.queues_of_port(1), 2..4);
        assert_eq!(t.num_queues(), 6);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = GroundTruth::new(1, 1);
        t.end_bin(&[2], 2);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("bin,qlen0,qmax0"));
        assert_eq!(lines[1], "0,2,2,0,0,0,2");
    }
}
