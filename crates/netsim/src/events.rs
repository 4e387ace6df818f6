//! Discrete-event engine: a time-ordered event queue with stable tie-breaking.

use crate::packet::{Packet, PortId};
use crate::units::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events driving the simulation forward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A packet arrives at the switch; `source` identifies the traffic
    /// source to pull the next arrival from.
    Arrival { pkt: Packet, source: usize },
    /// An egress port finished serializing a packet and may pick the next.
    TxComplete(PortId),
    /// A 1 ms ground-truth snapshot boundary.
    Snapshot,
}

#[derive(Debug)]
struct Scheduled {
    time: Time,
    /// Insertion sequence number: events at the same instant are processed
    /// in the order they were scheduled, which keeps runs reproducible.
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: Time,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Current simulated time (the time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the past.
    pub fn schedule(&mut self, at: Time, event: Event) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now);
        self.now = s.time;
        Some((s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), Event::Snapshot);
        q.schedule(Time(10), Event::TxComplete(1));
        q.schedule(Time(20), Event::TxComplete(2));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), Event::TxComplete(0));
        q.schedule(Time(5), Event::TxComplete(1));
        q.schedule(Time(5), Event::TxComplete(2));
        let ports: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::TxComplete(p) => p,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ports, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), Event::Snapshot);
        q.pop();
        q.schedule(Time(5), Event::Snapshot);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time(42), Event::Snapshot);
        q.pop();
        assert_eq!(q.now(), Time(42));
        assert!(q.pop().is_none());
    }
}
