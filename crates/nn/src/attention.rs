//! Multi-head scaled-dot-product attention.

use crate::linear::Linear;
use crate::params::ParamStore;
use crate::tape::{NodeId, Tape};
use rand::rngs::StdRng;

/// Multi-head attention: queries `[Tq, d]` over a context `[T, d]` that
/// supplies keys and values, `→ [Tq, d]`. Self-attention is the case
/// where both are the same node.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
}

impl MultiHeadAttention {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        d_model: usize,
        heads: usize,
    ) -> MultiHeadAttention {
        assert!(
            heads > 0 && d_model.is_multiple_of(heads),
            "d_model must divide by heads"
        );
        MultiHeadAttention {
            wq: Linear::new(store, rng, &format!("{name}.wq"), d_model, d_model),
            wk: Linear::new(store, rng, &format!("{name}.wk"), d_model, d_model),
            wv: Linear::new(store, rng, &format!("{name}.wv"), d_model, d_model),
            wo: Linear::new(store, rng, &format!("{name}.wo"), d_model, d_model),
            heads,
        }
    }

    /// Attention of `windows` stacked windows, each of its own rows:
    /// queries `[windows·Tq, d]`, context `[windows·T, d]`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        queries: NodeId,
        context: NodeId,
        windows: usize,
    ) -> NodeId {
        let q = self.wq.forward(tape, queries);
        let k = self.wk.forward(tape, context);
        let v = self.wv.forward(tape, context);
        let heads = tape.attention(q, k, v, self.heads, windows);
        self.wo.forward(tape, heads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::tensor::Tensor;

    #[test]
    fn forward_preserves_shape() {
        let mut store = ParamStore::new();
        let mut rng = init::seeded(5);
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "mha", 8, 2);
        let mut tape = Tape::new(&store);
        let x = tape.constant(Tensor::from_vec(
            (0..40).map(|i| (i as f32 * 0.01).sin()).collect(),
            &[5, 8],
        ));
        let y = mha.forward(&mut tape, x, x, 1);
        assert_eq!(tape.value(y).shape, vec![5, 8]);
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut store = ParamStore::new();
        let mut rng = init::seeded(6);
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "mha", 4, 2);
        let mut tape = Tape::new(&store);
        let x = tape.constant(Tensor::from_vec(
            (0..12).map(|i| (i as f32 * 0.3).cos()).collect(),
            &[3, 4],
        ));
        // Fewer query rows than context rows (Tq = 2 < T = 3).
        let q = tape.window_rows(x, 1, 1);
        let y = mha.forward(&mut tape, q, x, 1);
        assert_eq!(tape.value(y).shape, vec![2, 4]);
        let sq = tape.square(y);
        let s = tape.sum(sq);
        let g = tape.backward(s);
        for lin in [&mha.wq, &mha.wk, &mha.wv, &mha.wo] {
            let gw = g.by_param[lin.w].as_ref().expect("grad exists");
            assert!(gw.norm() > 0.0, "zero gradient on a projection");
        }
    }

    #[test]
    #[should_panic(expected = "d_model must divide")]
    fn rejects_indivisible_heads() {
        let mut store = ParamStore::new();
        let mut rng = init::seeded(7);
        MultiHeadAttention::new(&mut store, &mut rng, "bad", 6, 4);
    }
}
