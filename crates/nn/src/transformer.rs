//! Transformer encoder with sinusoidal positional encodings and a linear
//! decoder head — the paper's imputation architecture (Fig. 3): coarse
//! time-series features in, one fine-grained value per time step out.

use crate::attention::MultiHeadAttention;
use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::params::ParamStore;
use crate::tape::{NodeId, Tape};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Architecture hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Input features per time step.
    pub input_dim: usize,
    /// Embedding width (16 in the paper's Fig. 3).
    pub d_model: usize,
    pub heads: usize,
    pub layers: usize,
    /// Feed-forward hidden width.
    pub ff_dim: usize,
    /// Output values per time step (1: the imputed queue length).
    pub output_dim: usize,
    /// Maximum sequence length for the positional table.
    pub max_len: usize,
}

impl TransformerConfig {
    /// The paper-shaped model: d_model 16, 2 heads, 2 layers, 300 steps.
    pub fn paper_default(input_dim: usize) -> TransformerConfig {
        TransformerConfig {
            input_dim,
            d_model: 16,
            heads: 2,
            layers: 2,
            ff_dim: 32,
            output_dim: 1,
            max_len: 512,
        }
    }
}

/// One pre-norm encoder block.
#[derive(Debug, Clone)]
struct EncoderLayer {
    mha: MultiHeadAttention,
    ln1: LayerNorm,
    ff1: Linear,
    ff2: Linear,
    ln2: LayerNorm,
}

impl EncoderLayer {
    fn new(store: &mut ParamStore, rng: &mut StdRng, name: &str, cfg: &TransformerConfig) -> Self {
        EncoderLayer {
            mha: MultiHeadAttention::new(
                store,
                rng,
                &format!("{name}.mha"),
                cfg.d_model,
                cfg.heads,
            ),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), cfg.d_model),
            ff1: Linear::new(store, rng, &format!("{name}.ff1"), cfg.d_model, cfg.ff_dim),
            ff2: Linear::new(store, rng, &format!("{name}.ff2"), cfg.ff_dim, cfg.d_model),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), cfg.d_model),
        }
    }

    /// `x [windows·T, d] → [windows·(T − from), d]`: rows `from..` of
    /// each window of the block's output. Every row's keys and values
    /// are needed, so `ln1` runs whole; past it a row depends on no other
    /// *query* row, and the rest of the block runs on the rows that are
    /// asked for.
    fn forward(&self, tape: &mut Tape, x: NodeId, from: usize, windows: usize) -> NodeId {
        // Pre-norm: x + MHA(LN(x)); x + FF(LN(x)).
        let n1 = self.ln1.forward(tape, x);
        let (x, q) = (
            rows_from(tape, x, from, windows),
            rows_from(tape, n1, from, windows),
        );
        let a = self.mha.forward(tape, q, n1, windows);
        let x = tape.add(x, a);
        let n2 = self.ln2.forward(tape, x);
        let h = self.ff1.forward(tape, n2);
        let h = tape.relu(h);
        let h = self.ff2.forward(tape, h);
        tape.add(x, h)
    }
}

/// Rows `from..` of each window of `x`. `from = 0` is `x` itself — no
/// node is recorded, so a whole forward is the same graph it was before
/// it could be cut.
fn rows_from(tape: &mut Tape, x: NodeId, from: usize, windows: usize) -> NodeId {
    if from == 0 {
        return x;
    }
    tape.window_rows(x, windows, from)
}

/// The full encoder: input projection → positional encoding → N blocks →
/// linear head.
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    pub cfg: TransformerConfig,
    input_proj: Linear,
    layers: Vec<EncoderLayer>,
    pub head: Linear,
    /// Precomputed sinusoidal positional table `[max_len, d_model]`.
    pos_table: Tensor,
}

impl TransformerEncoder {
    pub fn new(store: &mut ParamStore, seed: u64, cfg: TransformerConfig) -> TransformerEncoder {
        let mut rng = crate::init::seeded(seed);
        let input_proj = Linear::new(store, &mut rng, "in", cfg.input_dim, cfg.d_model);
        let layers = (0..cfg.layers)
            .map(|i| EncoderLayer::new(store, &mut rng, &format!("enc{i}"), &cfg))
            .collect();
        let head = Linear::new(store, &mut rng, "head", cfg.d_model, cfg.output_dim);
        let pos_table = Self::sinusoidal(cfg.max_len, cfg.d_model);
        TransformerEncoder {
            cfg,
            input_proj,
            layers,
            head,
            pos_table,
        }
    }

    fn sinusoidal(max_len: usize, d: usize) -> Tensor {
        let mut t = Tensor::zeros(&[max_len, d]);
        for pos in 0..max_len {
            for i in 0..d / 2 {
                let freq = 1.0 / 10_000f32.powf(2.0 * i as f32 / d as f32);
                let angle = pos as f32 * freq;
                t.set2(pos, 2 * i, angle.sin());
                t.set2(pos, 2 * i + 1, angle.cos());
            }
        }
        t
    }

    /// Forward pass of `windows` windows stacked in `x [windows·T,
    /// input_dim]` (training passes one) `→ [windows·(T − from),
    /// output_dim]`: rows `from..` of each window's whole forward
    /// (`from = 0`) bit for bit, as if the window ran alone — every op is
    /// row by row except attention, which keeps to the window. Only the
    /// last block can compute fewer rows than it is given — its keys and
    /// values need every row of the blocks before it.
    pub fn forward(&self, tape: &mut Tape, x: NodeId, from: usize, windows: usize) -> NodeId {
        let rows = tape.value(x).rows();
        assert!(windows > 0 && rows.is_multiple_of(windows), "whole windows");
        let t_len = rows / windows;
        assert!(t_len <= self.cfg.max_len, "sequence longer than max_len");
        assert!(from <= t_len, "first output row past the sequence");
        let mut h = self.input_proj.forward(tape, x);
        // Add positional encodings (constant, truncated to T rows and
        // repeated per window) — copied straight from the precomputed
        // table into pooled tape storage, no intermediate Tensor.
        let table = &self.pos_table.data[..t_len * self.cfg.d_model];
        let pe = tape.constant_with(&[rows, self.cfg.d_model], |buf| {
            for _ in 0..windows {
                buf.extend_from_slice(table);
            }
        });
        h = tape.add(h, pe);
        // The depth comes from a checkpoint file: it may be 0.
        h = match self.layers.split_last() {
            Some((last, whole)) => {
                for layer in whole {
                    h = layer.forward(tape, h, 0, windows);
                }
                last.forward(tape, h, from, windows)
            }
            None => rows_from(tape, h, from, windows),
        };
        self.head.forward(tape, h)
    }

    /// Forward returning a flat 1-D series (requires `output_dim == 1`):
    /// window by window, `windows·(T − from)` values. The head is
    /// linear: a negative output still passes a gradient, so
    /// non-negativity is left to the caller (a clamp at inference, CEM).
    pub fn forward_series(
        &self,
        tape: &mut Tape,
        x: NodeId,
        from: usize,
        windows: usize,
    ) -> NodeId {
        assert_eq!(self.cfg.output_dim, 1);
        let y = self.forward(tape, x, from, windows); // [windows·(T − from), 1]
        tape.flatten(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransformerConfig {
        TransformerConfig {
            input_dim: 3,
            d_model: 8,
            heads: 2,
            layers: 2,
            ff_dim: 16,
            output_dim: 1,
            max_len: 64,
        }
    }

    #[test]
    fn forward_shapes() {
        // Depth arrives from a checkpoint file: no block at all and a
        // single block (which is then the one that is cut) must work too.
        for layers in [2, 1, 0] {
            let mut store = ParamStore::new();
            let model =
                TransformerEncoder::new(&mut store, 1, TransformerConfig { layers, ..tiny() });
            let mut tape = Tape::new(&store);
            let x = tape.constant(Tensor::from_vec(
                (0..30).map(|i| (i as f32 * 0.7).sin()).collect(),
                &[10, 3],
            ));
            let y = model.forward(&mut tape, x, 0, 1);
            assert_eq!(tape.value(y).shape, vec![10, 1]);
            let s = model.forward_series(&mut tape, x, 0, 1);
            assert_eq!(tape.value(s).shape, vec![10]);
            // From row 7 on: the same three values, nothing else.
            let tail = model.forward(&mut tape, x, 7, 1);
            assert_eq!(tape.value(tail).shape, vec![3, 1], "layers={layers}");
            assert_eq!(tape.value(tail).data, tape.value(y).data[7..]);
            let s = model.forward_series(&mut tape, x, 7, 1);
            assert_eq!(tape.value(s).shape, vec![3]);
        }
    }

    #[test]
    fn positional_encoding_distinguishes_positions() {
        let pe = TransformerEncoder::sinusoidal(16, 8);
        // Two different positions must differ.
        let row0: Vec<f32> = (0..8).map(|c| pe.at2(0, c)).collect();
        let row5: Vec<f32> = (0..8).map(|c| pe.at2(5, c)).collect();
        assert_ne!(row0, row5);
        // Values bounded by 1.
        assert!(pe.data.iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn training_step_reduces_loss_on_toy_problem() {
        // Overfit a single example: output should approach the target.
        use crate::adam::Adam;
        use crate::loss;
        let mut store = ParamStore::new();
        let model = TransformerEncoder::new(&mut store, 42, tiny());
        let mut adam = Adam::new(&store, 0.01);
        let x = Tensor::from_vec((0..30).map(|i| (i as f32 * 0.1).sin()).collect(), &[10, 3]);
        let target = Tensor::vector((0..10).map(|i| (i % 3) as f32).collect());
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut tape = Tape::new(&store);
            let xin = tape.constant(x.clone());
            let pred = model.forward_series(&mut tape, xin, 0, 1);
            let tgt = tape.constant(target.clone());
            let l = loss::mse(&mut tape, pred, tgt);
            last = tape.scalar_value(l);
            first.get_or_insert(last);
            let grads = tape.backward(l);
            drop(tape); // release the store borrow before the optimizer step
            adam.step(&mut store, &grads);
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.5,
            "loss did not halve: first={first} last={last}"
        );
    }

    #[test]
    fn deterministic_construction() {
        let mut s1 = ParamStore::new();
        let mut s2 = ParamStore::new();
        TransformerEncoder::new(&mut s1, 9, tiny());
        TransformerEncoder::new(&mut s2, 9, tiny());
        assert_eq!(s1.to_json(), s2.to_json());
    }
}
