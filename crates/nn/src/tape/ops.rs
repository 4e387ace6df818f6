//! The forward ops: each computes its value into pooled storage and
//! records how to differentiate it.

use super::arena::{
    pooled_copy, pooled_map, pooled_scalar, pooled_zip, take_buf, take_buf_unfilled,
};
use super::{NodeId, Op, Tape, Values, LN_EPS};
use crate::kernel::{gemm_nn, GemmOpts};
use crate::tensor::{Shape, Tensor};

impl<'s> Tape<'s> {
    // ---- elementwise / arithmetic ----

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let v = pooled_zip(pool, vals.get(a), vals.get(b), |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let v = pooled_zip(pool, vals.get(a), vals.get(b), |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    pub fn scalar_mul(&mut self, a: NodeId, k: f32) -> NodeId {
        let (vals, pool) = self.split();
        let v = pooled_map(pool, vals.get(a), |x| x * k);
        self.push(v, Op::ScalarMul(a, k))
    }

    pub fn scalar_add(&mut self, a: NodeId, k: f32) -> NodeId {
        let (vals, pool) = self.split();
        let v = pooled_map(pool, vals.get(a), |x| x + k);
        self.push(v, Op::ScalarAdd(a, k))
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let nb = self.scalar_mul(b, -1.0);
        self.add(a, nb)
    }

    pub fn square(&mut self, a: NodeId) -> NodeId {
        self.mul(a, a)
    }

    // ---- linear algebra ----

    /// `[m,n] + [n]` broadcast add.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let m = vals.get(a);
        let b = vals.get(bias);
        assert_eq!(b.rank(), 1);
        assert_eq!(m.cols(), b.len(), "bias length mismatch");
        let (rows, cols) = (m.rows(), m.cols());
        let mut out = pooled_copy(pool, m);
        for r in 0..rows {
            for c in 0..cols {
                out.data[r * cols + c] += b.data[c];
            }
        }
        self.push(out, Op::AddBias(a, bias))
    }

    /// Fused affine transform `x·W + b` in a single kernel call: the
    /// bias seeds each accumulator, so no separate broadcast-add node or
    /// intermediate copy exists. Bitwise identical to
    /// `add_bias(matmul(x, w), b)` by the canonical summation order
    /// (`bias[j]` is the `init` term).
    pub fn affine(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let xv = vals.get(x);
        let wv = vals.get(w);
        let bv = vals.get(b);
        assert_eq!(xv.rank(), 2, "affine input must be 2-D");
        assert_eq!(wv.rank(), 2, "affine weight must be 2-D");
        assert_eq!(bv.rank(), 1, "affine bias must be 1-D");
        let (m, k) = (xv.shape[0], xv.shape[1]);
        let (k2, n) = (wv.shape[0], wv.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        assert_eq!(bv.len(), n, "bias length mismatch");
        let mut out = take_buf_unfilled(pool, m * n);
        gemm_nn(
            &xv.data,
            &wv.data,
            &mut out,
            m,
            k,
            n,
            GemmOpts {
                bias: Some(&bv.data),
                scale: None,
            },
        );
        self.push(
            Tensor {
                data: out,
                shape: Shape::d2(m, n),
            },
            Op::Affine { x, w, b },
        )
    }

    // ---- nonlinearities ----

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let v = pooled_map(pool, vals.get(a), f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let v = pooled_map(pool, vals.get(a), |x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Layer normalization over the last dimension, with affine params.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let xv = vals.get(x);
        let g = vals.get(gamma);
        let b = vals.get(beta);
        let n = xv.cols();
        assert_eq!(g.len(), n);
        assert_eq!(b.len(), n);
        let mut out = pooled_copy(pool, xv);
        for r in 0..xv.rows() {
            let row = &mut out.data[r * n..(r + 1) * n];
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
            let inv = 1.0 / (var + LN_EPS).sqrt();
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v - mean) * inv * g.data[j] + b.data[j];
            }
        }
        self.push(out, Op::LayerNorm { x, gamma, beta })
    }

    // ---- reductions / reshaping ----

    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let s = self.value(a).sum();
        let v = pooled_scalar(&mut self.pool, s);
        self.push(v, Op::Sum(a))
    }

    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let t = self.value(a);
        let m = t.sum() / t.len() as f32;
        let v = pooled_scalar(&mut self.pool, m);
        self.push(v, Op::Mean(a))
    }

    pub fn abs(&mut self, a: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let v = pooled_map(pool, vals.get(a), f32::abs);
        self.push(v, Op::Abs(a))
    }

    /// Cumulative sum of a 1-D tensor.
    pub fn cumsum(&mut self, a: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let x = vals.get(a);
        assert_eq!(x.rank(), 1, "cumsum is 1-D");
        let mut acc = 0.0;
        let v = pooled_map(pool, x, |val| {
            acc += val;
            acc
        });
        self.push(v, Op::CumSum(a))
    }

    /// Maximum element of a 1-D tensor (subgradient to the first argmax).
    pub fn max_reduce(&mut self, a: NodeId) -> NodeId {
        let x = self.value(a);
        assert_eq!(x.rank(), 1);
        assert!(!x.is_empty());
        let m = x.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let v = pooled_scalar(&mut self.pool, m);
        self.push(v, Op::MaxReduce(a))
    }

    /// Gather elements of a 1-D tensor at `indices`.
    pub fn select(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let Tape {
            store,
            ref nodes,
            ref mut pool,
            ref mut idx,
            ..
        } = *self;
        let x = Values { store, nodes }.get(a);
        assert_eq!(x.rank(), 1);
        let mut data = take_buf(pool, indices.len());
        data.extend(indices.iter().map(|&i| x.data[i]));
        let v = Tensor {
            data,
            shape: Shape::d1(indices.len()),
        };
        let at = idx.len();
        idx.extend_from_slice(indices);
        let len = indices.len();
        self.push(v, Op::Select { x: a, at, len })
    }

    /// Contiguous 1-D slice `[start, start+len)`.
    pub fn slice1d(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        assert_eq!(self.value(a).rank(), 1);
        self.slice(a, [start, len, 0, 1], Shape::d1(len))
    }

    /// Rows `from..` of each of the `windows` equal windows stacked in
    /// the 2-D `a`: `[windows·T, n] → [windows·(T − from), n]`.
    pub fn window_rows(&mut self, a: NodeId, windows: usize, from: usize) -> NodeId {
        let x = self.value(a);
        assert_eq!(x.rank(), 2);
        assert!(
            windows > 0 && x.rows().is_multiple_of(windows),
            "whole windows"
        );
        let (t, n) = (x.rows() / windows, x.cols());
        assert!(from <= t, "first row past the window");
        let run = [from * n, (t - from) * n, t * n, windows];
        self.slice(a, run, Shape::d2(windows * (t - from), n))
    }

    /// Copy the runs `[start, len, step, count]` of `a` (see
    /// `Op::Slice`) out as a `shape` tensor.
    fn slice(&mut self, a: NodeId, [start, len, step, count]: [usize; 4], shape: Shape) -> NodeId {
        let (vals, pool) = self.split();
        let x = vals.get(a);
        assert!(count == 0 || start + (count - 1) * step + len <= x.len());
        let mut data = take_buf(pool, count * len);
        for i in 0..count {
            let at = start + i * step;
            data.extend_from_slice(&x.data[at..at + len]);
        }
        let op = Op::Slice {
            x: a,
            start,
            len,
            step,
            count,
        };
        self.push(Tensor { data, shape }, op)
    }

    /// Reinterpret a single-row or single-column 2-D tensor as 1-D.
    pub fn flatten(&mut self, a: NodeId) -> NodeId {
        let (vals, pool) = self.split();
        let x = vals.get(a);
        assert_eq!(x.rank(), 2, "flatten takes a 2-D tensor");
        assert!(
            x.rows() == 1 || x.cols() == 1,
            "flatten needs a single row or column, got {:?}",
            x.shape
        );
        let mut v = pooled_copy(pool, x);
        v.shape = Shape::d1(x.len());
        self.push(v, Op::Flatten(a))
    }
}
