//! Dense f32 tensors (rank 1 and 2) with the few BLAS-like kernels the
//! model needs.

use serde::{Deserialize, Serialize};

/// A dense row-major f32 tensor of rank 1 or 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    pub data: Vec<f32>,
    pub shape: Vec<usize>,
}

impl Tensor {
    pub fn zeros(shape: &[usize]) -> Tensor {
        assert!(!shape.is_empty() && shape.len() <= 2, "rank must be 1 or 2");
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "shape/data mismatch"
        );
        assert!(!shape.is_empty() && shape.len() <= 2, "rank must be 1 or 2");
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    pub fn scalar(v: f32) -> Tensor {
        Tensor {
            data: vec![v],
            shape: vec![1],
        }
    }

    pub fn vector(data: Vec<f32>) -> Tensor {
        let n = data.len();
        Tensor::from_vec(data, &[n])
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Rows of a 2-D tensor (a 1-D tensor is a single row).
    pub fn rows(&self) -> usize {
        if self.rank() == 2 {
            self.shape[0]
        } else {
            1
        }
    }

    /// Columns of a 2-D tensor (length of a 1-D tensor).
    pub fn cols(&self) -> usize {
        *self.shape.last().unwrap()
    }

    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.shape[1] + c]
    }

    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        debug_assert_eq!(self.rank(), 2);
        self.data[r * self.shape[1] + c] = v;
    }

    /// Matrix product `[m,k] × [k,n] → [m,n]` via the tiled kernel
    /// ([`crate::kernel`]): fixed per-element summation order (ascending
    /// inner index), bitwise identical across the scalar reference and
    /// the register tile.
    ///
    /// Note there is deliberately no sparsity shortcut: `0·NaN` and
    /// `0·∞` are `NaN` and must propagate to the output — the
    /// historical `a == 0.0 → continue` skip masked non-finite RHS
    /// values and defeated the training loop's rollback guard.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.rank(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        crate::kernel::gemm_nn(
            &self.data,
            &other.data,
            &mut out,
            m,
            k,
            n,
            crate::kernel::GemmOpts::default(),
        );
        Tensor::from_vec(out, &[m, n])
    }

    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    pub fn add_inplace(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    pub fn scale_inplace(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius / L2 norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let b = Tensor::from_vec(vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &[2, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.shape, vec![3, 3]);
        assert_eq!(c.at2(2, 0), 7.0);
        assert_eq!(c.at2(0, 2), 4.0);
    }

    /// Regression for the NaN-masking bug: the old `a == 0.0` skip
    /// dropped the `0·x` term, so a non-finite RHS row vanished from
    /// the product and the train-loop rollback guard never saw it.
    #[test]
    fn zero_lhs_does_not_mask_nonfinite_rhs() {
        // Row of zeros × RHS containing NaN/Inf: every output element
        // that multiplies a non-finite value must be NaN.
        let a = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, 1.0, f32::INFINITY, 2.0], &[2, 2]);
        let c = a.matmul(&b);
        assert!(
            c.data[0].is_nan(),
            "0·NaN + 0·∞ must be NaN, got {}",
            c.data[0]
        );
        // Mixed: a finite column stays finite.
        let b2 = Tensor::from_vec(vec![f32::NAN, 1.0, 3.0, 2.0], &[2, 2]);
        let c2 = a.matmul(&b2);
        assert!(c2.data[0].is_nan());
        assert_eq!(c2.data[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape, vec![3, 2]);
        assert_eq!(t.at2(2, 1), 5.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn map_zip_and_inplace_ops() {
        let a = Tensor::vector(vec![1.0, -2.0, 3.0]);
        let b = a.map(f32::abs);
        assert_eq!(b.data, vec![1.0, 2.0, 3.0]);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.data, vec![2.0, 0.0, 6.0]);
        let mut d = a.clone();
        d.add_inplace(&b);
        assert_eq!(d.data, c.data);
        d.scale_inplace(0.5);
        assert_eq!(d.data, vec![1.0, 0.0, 3.0]);
        assert_eq!(d.sum(), 4.0);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_validates() {
        Tensor::from_vec(vec![1.0], &[2, 2]);
    }
}
