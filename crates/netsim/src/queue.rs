//! Output queues.

use crate::packet::Packet;
use std::collections::VecDeque;

/// A single FIFO output queue.
///
/// Length is measured in packets; the byte view is derivable because the
/// simulator uses a fixed packet size (see [`crate::SimConfig`]).
#[derive(Debug, Default)]
pub struct OutputQueue {
    packets: VecDeque<Packet>,
    /// Total packets ever enqueued (monotone counter).
    pub total_enqueued: u64,
    /// Total packets ever dequeued (monotone counter).
    pub total_dequeued: u64,
    /// Total packets dropped at this queue's admission (monotone counter).
    pub total_dropped: u64,
}

impl OutputQueue {
    pub fn new() -> OutputQueue {
        OutputQueue::default()
    }

    /// Current length in packets.
    pub fn len(&self) -> u32 {
        self.packets.len() as u32
    }

    /// Append an admitted packet.
    pub fn enqueue(&mut self, pkt: Packet) {
        self.packets.push_back(pkt);
        self.total_enqueued += 1;
    }

    /// Remove and return the head-of-line packet.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let p = self.packets.pop_front();
        if p.is_some() {
            self.total_dequeued += 1;
        }
        p
    }

    /// Record an admission-time drop.
    pub fn record_drop(&mut self) {
        self.total_dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TrafficClass;
    use crate::units::Time;

    fn pkt(flow: u64) -> Packet {
        Packet {
            src_port: 0,
            dst_port: 1,
            class: TrafficClass::HIGH,
            size_bytes: 1500,
            flow_id: flow,
            arrival: Time::ZERO,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = OutputQueue::new();
        q.enqueue(pkt(1));
        q.enqueue(pkt(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue().unwrap().flow_id, 1);
        assert_eq!(q.dequeue().unwrap().flow_id, 2);
        assert!(q.dequeue().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn counters_are_monotone_and_consistent() {
        let mut q = OutputQueue::new();
        for i in 0..5 {
            q.enqueue(pkt(i));
        }
        q.record_drop();
        q.dequeue();
        assert_eq!(q.total_enqueued, 5);
        assert_eq!(q.total_dequeued, 1);
        assert_eq!(q.total_dropped, 1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.total_enqueued - q.total_dequeued, q.len() as u64);
    }
}
