//! The per-port scheduler: work-conserving strict priority.

/// The queue (index *within the port*) a port serves next: the
/// lowest-indexed non-empty one, so class 0 has strict priority. `None`
/// only when every queue is empty — the work conservation constraint C3
/// of the paper relies on ("if some queue in port *i* is nonempty for
/// `NE_i` time steps, then `NE_i` packets will be dequeued").
pub fn strict_priority(queue_lens: impl IntoIterator<Item = u32>) -> Option<usize> {
    queue_lens.into_iter().position(|l| l > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_priority_prefers_class_zero() {
        assert_eq!(strict_priority([3, 5]), Some(0));
        assert_eq!(strict_priority([0, 5]), Some(1));
        assert_eq!(strict_priority([0, 0]), None);
    }

    #[test]
    fn all_schedulers_are_work_conserving() {
        for lens in [[1u32, 0], [0, 1], [7, 9]] {
            assert!(strict_priority(lens).is_some(), "{lens:?} left idle");
        }
        assert_eq!(strict_priority([0, 0]), None);
    }
}
