//! Parameter storage shared across tapes, and gradient accumulators.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Handle to a parameter in a [`ParamStore`].
pub type ParamId = usize;

/// All trainable parameters of a model, owned outside any tape so that
/// many tapes (one per example) can reference them concurrently.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    pub fn add(&mut self, name: &str, value: Tensor) -> ParamId {
        self.values.push(value);
        self.names.push(name.to_string());
        self.values.len() - 1
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id]
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id]
    }

    /// Serialize to JSON (checkpointing).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("param store serializes")
    }
}

/// Per-parameter gradient accumulator (the result of one or more backward
/// passes). [`Gradients::clear`] keeps each parameter's buffer, so an
/// accumulator that is cleared and refilled with the same parameters
/// allocates only the first time.
#[derive(Debug, Clone)]
pub struct Gradients {
    pub by_param: Vec<Option<Tensor>>,
    /// Buffers of cleared slots, by parameter, for their next first
    /// contribution.
    spare: Vec<Vec<f32>>,
}

impl Gradients {
    pub fn new(num_params: usize) -> Gradients {
        Gradients {
            by_param: vec![None; num_params],
            spare: vec![Vec::new(); num_params],
        }
    }

    /// Empty every slot, keeping its buffer for reuse.
    pub fn clear(&mut self) {
        for (slot, spare) in self.by_param.iter_mut().zip(&mut self.spare) {
            if let Some(g) = slot.take() {
                *spare = g.data;
            }
        }
    }

    /// Add a gradient contribution for one parameter. The first one since
    /// [`Gradients::new`] or [`Gradients::clear`] is copied, not added to
    /// zeros (`0.0 + -0.0` is `+0.0`).
    pub fn add(&mut self, id: ParamId, grad: &Tensor) {
        match &mut self.by_param[id] {
            Some(g) => g.add_inplace(grad),
            slot => {
                let mut data = std::mem::take(&mut self.spare[id]);
                data.clear();
                data.extend_from_slice(&grad.data);
                *slot = Some(Tensor {
                    data,
                    shape: grad.shape,
                });
            }
        }
    }

    /// Merge another accumulator into this one (batch reduction).
    pub fn merge(&mut self, other: &Gradients) {
        assert_eq!(self.by_param.len(), other.by_param.len());
        for (id, g) in other.by_param.iter().enumerate() {
            if let Some(g) = g {
                self.add(id, g);
            }
        }
    }

    /// Scale all gradients (e.g. 1/batch for mean reduction).
    pub fn scale(&mut self, k: f32) {
        for g in self.by_param.iter_mut().flatten() {
            g.scale_inplace(k);
        }
    }

    /// Global L2 norm across all parameter gradients.
    pub fn global_norm(&self) -> f32 {
        self.by_param
            .iter()
            .flatten()
            .map(|g| g.data.iter().map(|x| x * x).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Clip by global norm (returns the pre-clip norm).
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let n = self.global_norm();
        if n > max_norm && n > 0.0 {
            self.scale(max_norm / n);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = s.add("b", Tensor::scalar(0.5));
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(w), "w");
        assert_eq!(s.value(b).data, vec![0.5]);
        let json = s.to_json();
        let s2: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(s2.value(w).data, vec![1.0, 2.0]);
        assert_eq!(s2.name(b), "b");
    }

    #[test]
    fn gradient_accumulation_and_merge() {
        let mut g1 = Gradients::new(2);
        g1.add(0, &Tensor::vector(vec![1.0, 1.0]));
        g1.add(0, &Tensor::vector(vec![2.0, 3.0]));
        assert_eq!(g1.by_param[0].as_ref().unwrap().data, vec![3.0, 4.0]);
        let mut g2 = Gradients::new(2);
        g2.add(1, &Tensor::scalar(5.0));
        g1.merge(&g2);
        assert_eq!(g1.by_param[1].as_ref().unwrap().data, vec![5.0]);
        g1.scale(0.5);
        assert_eq!(g1.by_param[0].as_ref().unwrap().data, vec![1.5, 2.0]);
    }

    #[test]
    fn cleared_slots_reuse_their_buffer_and_copy_the_first_contribution() {
        let mut g = Gradients::new(2);
        g.add(0, &Tensor::vector(vec![1.0, 2.0]));
        let buf = g.by_param[0].as_ref().unwrap().data.as_ptr();
        g.clear();
        assert!(g.by_param.iter().all(Option::is_none));
        // A copy keeps the sign of zero; adding into zeros would not.
        g.add(0, &Tensor::vector(vec![-0.0, 3.0]));
        let t = g.by_param[0].as_ref().unwrap();
        assert_eq!(t.data[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(t.data.as_ptr(), buf, "cleared slot must reuse its buffer");
        assert!(g.by_param[1].is_none());
    }

    #[test]
    fn clip_by_global_norm() {
        let mut g = Gradients::new(1);
        g.add(0, &Tensor::vector(vec![3.0, 4.0])); // norm 5
        let pre = g.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.global_norm() - 1.0).abs() < 1e-6);
        // No-op when under the limit.
        let pre2 = g.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-6);
    }
}
