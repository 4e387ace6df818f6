//! Loss functions: MSE and the differentiable 1-D Earth Mover's Distance.
//!
//! The paper trains with EMD rather than MSE because MSE "encourages the
//! model to find averages of plausible solutions that are overly smooth
//! and is disadvantageous for bursts" (§4). For 1-D series with equal
//! total mass, EMD reduces to the L1 distance between cumulative sums;
//! we use `mean(|cumsum(pred − target)|)`, which keeps that property,
//! is differentiable almost everywhere, and degrades gracefully when the
//! masses differ (the tail difference is the mass mismatch).

use crate::tape::{NodeId, Tape};

/// Mean squared error between two same-shaped nodes (scalar output).
pub fn mse(tape: &mut Tape, pred: NodeId, target: NodeId) -> NodeId {
    let d = tape.sub(pred, target);
    let sq = tape.square(d);
    tape.mean(sq)
}

/// 1-D Earth Mover's Distance: `mean(|cumsum(pred − target)|)`.
pub fn emd(tape: &mut Tape, pred: NodeId, target: NodeId) -> NodeId {
    assert_eq!(tape.value(pred).rank(), 1, "emd takes 1-D series");
    let d = tape.sub(pred, target);
    let c = tape.cumsum(d);
    let a = tape.abs(c);
    tape.mean(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::tensor::Tensor;

    fn eval(f: impl Fn(&mut Tape, NodeId, NodeId) -> NodeId, p: Vec<f32>, t: Vec<f32>) -> f32 {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let pred = tape.constant(Tensor::vector(p));
        let tgt = tape.constant(Tensor::vector(t));
        let l = f(&mut tape, pred, tgt);
        tape.scalar_value(l)
    }

    #[test]
    fn zero_at_equality() {
        assert_eq!(eval(mse, vec![1.0, 2.0], vec![1.0, 2.0]), 0.0);
        assert_eq!(eval(emd, vec![1.0, 2.0], vec![1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_known_value() {
        // diffs: 1, -1 -> mean of squares = 1.
        assert_eq!(eval(mse, vec![2.0, 1.0], vec![1.0, 2.0]), 1.0);
    }

    #[test]
    fn emd_penalizes_displacement_by_distance() {
        // A unit spike shifted by 1 vs shifted by 3: EMD grows linearly
        // with displacement, MSE does not distinguish them.
        let spike = |at: usize| -> Vec<f32> {
            let mut v = vec![0.0; 8];
            v[at] = 1.0;
            v
        };
        let near = eval(emd, spike(4), spike(3));
        let far = eval(emd, spike(6), spike(3));
        assert!(far > 2.5 * near, "emd near={near} far={far}");
        let m_near = eval(mse, spike(4), spike(3));
        let m_far = eval(mse, spike(6), spike(3));
        assert!((m_near - m_far).abs() < 1e-6, "mse is displacement-blind");
    }

    #[test]
    fn emd_mass_mismatch_is_penalized() {
        let l = eval(emd, vec![0.0, 0.0, 2.0], vec![0.0, 0.0, 0.0]);
        assert!(l > 0.0);
    }
}
