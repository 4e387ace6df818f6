//! The shared buffer and its Dynamic-Threshold admission.
//!
//! The switch has one packet buffer shared by all output queues. A packet
//! is admitted only if the target queue's current length is below the
//! queue's *threshold* **and** the buffer has free space.
//!
//! The threshold is the classic **Dynamic Threshold** (DT) of Choudhury &
//! Hahne with `α = 1`, `thr_q(t) = B − occupied(t)`, which the ABM scenario
//! the paper simulates builds upon: a long queue consumes shared space and
//! thereby *lowers* every queue's threshold, which is exactly the
//! cross-queue correlation ("a longer queue prevents other queues from
//! growing") that the imputation model is supposed to learn.

/// Tracks global buffer occupancy and applies DT admission on enqueue.
pub struct SharedBuffer {
    capacity: u32,
    occupied: u32,
}

impl SharedBuffer {
    pub fn new(capacity: u32) -> SharedBuffer {
        SharedBuffer {
            capacity,
            occupied: 0,
        }
    }

    /// Whether a packet may enter a queue whose current length is
    /// `queue_len`: the queue is below its DT threshold, which is 0 when
    /// the buffer is full.
    pub fn admits(&self, queue_len: u32) -> bool {
        queue_len < self.capacity.saturating_sub(self.occupied)
    }

    /// Record that a packet was enqueued.
    pub fn on_enqueue(&mut self) {
        debug_assert!(self.occupied < self.capacity, "buffer overflow");
        self.occupied += 1;
    }

    /// Record that a packet left the buffer.
    pub fn on_dequeue(&mut self) {
        debug_assert!(self.occupied > 0, "buffer underflow");
        self.occupied -= 1;
    }

    pub fn occupied(&self) -> u32 {
        self.occupied
    }

    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: u32, occupied: u32) -> SharedBuffer {
        let mut b = SharedBuffer::new(capacity);
        for _ in 0..occupied {
            b.on_enqueue();
        }
        b
    }

    #[test]
    fn dynamic_threshold_shrinks_with_occupancy() {
        // thr = B − occupied: the longest admissible queue is thr − 1.
        for (occupied, thr) in [(0, 100), (60, 40), (99, 1)] {
            let buf = filled(100, occupied);
            assert!(buf.admits(thr - 1), "occupied={occupied}");
            assert!(!buf.admits(thr), "occupied={occupied}");
        }
        assert!(!filled(100, 100).admits(0), "thr = 0 on a full buffer");
    }

    #[test]
    fn shared_buffer_admission_and_occupancy() {
        let mut buf = SharedBuffer::new(2);
        assert!(buf.admits(0));
        buf.on_enqueue();
        assert!(buf.admits(0));
        buf.on_enqueue();
        assert!(
            !buf.admits(0),
            "full buffer must reject regardless of queue"
        );
        buf.on_dequeue();
        assert!(buf.admits(0));
        assert_eq!(buf.occupied(), 1);
    }

    #[test]
    fn dt_blocks_long_queue_but_admits_short_one() {
        // B=100, occupied=60 -> thr=40.
        let buf = filled(100, 60);
        assert!(buf.admits(39));
        assert!(!buf.admits(40));
    }
}
