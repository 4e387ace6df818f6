//! The backward rules: one arm per [`Op`], each adding its inputs'
//! gradients into their slots.

use super::arena::{
    pooled_copy, pooled_map, pooled_zip, take_buf_unfilled, take_buf_zeroed, BufPool,
};
use super::{attention, NodeId, Op, Values, LN_EPS};
use crate::kernel::{gemm_nt, gemm_tn, GemmOpts};
use crate::tensor::{Shape, Tensor};

fn accum(pool: &mut BufPool, grads: &mut [Option<Tensor>], id: NodeId, g: Tensor) {
    match &mut grads[id] {
        Some(acc) => {
            acc.add_inplace(&g);
            pool.put(g.data);
        }
        slot => *slot = Some(g),
    }
}

pub(super) fn propagate(
    vals: Values,
    idx: &[usize],
    pool: &mut BufPool,
    id: NodeId,
    g: &Tensor,
    grads: &mut [Option<Tensor>],
) {
    match &vals.nodes[id].op {
        Op::Leaf | Op::Param(_) => {}
        Op::Add(a, b) => {
            let ga = pooled_copy(pool, g);
            accum(pool, grads, *a, ga);
            let gb = pooled_copy(pool, g);
            accum(pool, grads, *b, gb);
        }
        Op::Mul(a, b) => {
            let ga = pooled_zip(pool, g, vals.get(*b), |dg, y| dg * y);
            accum(pool, grads, *a, ga);
            let gb = pooled_zip(pool, g, vals.get(*a), |dg, x| dg * x);
            accum(pool, grads, *b, gb);
        }
        Op::ScalarMul(a, k) => {
            let k = *k;
            let ga = pooled_map(pool, g, |x| x * k);
            accum(pool, grads, *a, ga);
        }
        Op::ScalarAdd(a, _) => {
            let ga = pooled_copy(pool, g);
            accum(pool, grads, *a, ga);
        }
        Op::Affine { x, w, b } => {
            // dX = G·Wᵀ, dW = Xᵀ·G, db = column sums of G.
            let xv = vals.get(*x);
            let wv = vals.get(*w);
            let (m, kd) = (xv.rows(), xv.cols());
            let n = wv.cols();
            let mut dx = take_buf_unfilled(pool, m * kd);
            gemm_nt(&g.data, &wv.data, &mut dx, m, n, kd, GemmOpts::default());
            accum(
                pool,
                grads,
                *x,
                Tensor {
                    data: dx,
                    shape: Shape::d2(m, kd),
                },
            );
            let mut dw = take_buf_unfilled(pool, kd * n);
            gemm_tn(&xv.data, &g.data, &mut dw, m, kd, n, GemmOpts::default());
            accum(
                pool,
                grads,
                *w,
                Tensor {
                    data: dw,
                    shape: Shape::d2(kd, n),
                },
            );
            let mut db = take_buf_zeroed(pool, n);
            for row in g.data.chunks_exact(n) {
                for (d, &v) in db.iter_mut().zip(row) {
                    *d += v;
                }
            }
            accum(
                pool,
                grads,
                *b,
                Tensor {
                    data: db,
                    shape: Shape::d1(n),
                },
            );
        }
        Op::Tanh(a) => {
            let y = vals.get(id);
            let ga = pooled_zip(pool, g, y, |dg, y| dg * (1.0 - y * y));
            accum(pool, grads, *a, ga);
        }
        Op::Relu(a) => {
            let x = vals.get(*a);
            let ga = pooled_zip(pool, g, x, |dg, x| if x > 0.0 { dg } else { 0.0 });
            accum(pool, grads, *a, ga);
        }
        Op::Sum(a) => {
            let dg = g.data[0];
            let x = vals.get(*a);
            let ga = pooled_map(pool, x, |_| dg);
            accum(pool, grads, *a, ga);
        }
        Op::Mean(a) => {
            let x = vals.get(*a);
            let dg = g.data[0] / x.len() as f32;
            let ga = pooled_map(pool, x, |_| dg);
            accum(pool, grads, *a, ga);
        }
        Op::Abs(a) => {
            let x = vals.get(*a);
            let ga = pooled_zip(pool, g, x, |dg, x| if x >= 0.0 { dg } else { -dg });
            accum(pool, grads, *a, ga);
        }
        Op::CumSum(a) => {
            // d/dx_i = Σ_{j ≥ i} g_j  (suffix sums).
            let mut dx = pooled_copy(pool, g);
            let n = dx.len();
            for i in (0..n.saturating_sub(1)).rev() {
                dx.data[i] += dx.data[i + 1];
            }
            accum(pool, grads, *a, dx);
        }
        Op::MaxReduce(a) => {
            let x = vals.get(*a);
            let m = vals.get(id).data[0];
            let arg = x.data.iter().position(|&v| v == m).expect("max exists");
            let mut dx = take_buf_zeroed(pool, x.len());
            dx[arg] = g.data[0];
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: x.shape,
                },
            );
        }
        Op::Select { x: a, at, len } => {
            let x = vals.get(*a);
            let mut dx = take_buf_zeroed(pool, x.len());
            for (k, &i) in idx[*at..at + len].iter().enumerate() {
                dx[i] += g.data[k];
            }
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: x.shape,
                },
            );
        }
        Op::Slice {
            x: a,
            start,
            len,
            step,
            count,
        } => {
            let x = vals.get(*a);
            let mut dx = take_buf_zeroed(pool, x.len());
            for i in 0..*count {
                let at = start + i * step;
                dx[at..at + len].copy_from_slice(&g.data[i * len..(i + 1) * len]);
            }
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: x.shape,
                },
            );
        }
        Op::Attention {
            q,
            k,
            v,
            probs,
            heads,
            windows,
        } => {
            let (qv, kv, vv) = (vals.get(*q), vals.get(*k), vals.get(*v));
            let shape = [*heads, *windows];
            let [dq, dk, dv] = attention::backward(pool, [qv, kv, vv], vals.get(*probs), g, shape);
            accum(pool, grads, *q, dq);
            accum(pool, grads, *k, dk);
            accum(pool, grads, *v, dv);
        }
        Op::AddBias(a, bias) => {
            let ga = pooled_copy(pool, g);
            accum(pool, grads, *a, ga);
            let n = vals.get(*bias).len();
            let mut db = take_buf_zeroed(pool, n);
            for row in g.data.chunks_exact(n) {
                for (d, &v) in db.iter_mut().zip(row) {
                    *d += v;
                }
            }
            accum(
                pool,
                grads,
                *bias,
                Tensor {
                    data: db,
                    shape: Shape::d1(n),
                },
            );
        }
        Op::Flatten(a) => {
            let x = vals.get(*a);
            let mut dx = pooled_copy(pool, g);
            dx.shape = x.shape;
            accum(pool, grads, *a, dx);
        }
        Op::LayerNorm { x, gamma, beta } => {
            let xv = vals.get(*x);
            let gv = vals.get(*gamma);
            let n = xv.cols();
            let mut dx = take_buf_zeroed(pool, xv.len());
            let mut dgamma = take_buf_zeroed(pool, n);
            let mut dbeta = take_buf_zeroed(pool, n);
            // One row of x̂ and of dx̂, overwritten by every row.
            let mut xhat = take_buf_unfilled(pool, n);
            let mut dxhat = take_buf_unfilled(pool, n);
            for r in 0..xv.rows() {
                let xr = &xv.data[r * n..(r + 1) * n];
                let gr = &g.data[r * n..(r + 1) * n];
                let mean = xr.iter().sum::<f32>() / n as f32;
                let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
                let inv = 1.0 / (var + LN_EPS).sqrt();
                for (h, &v) in xhat.iter_mut().zip(xr) {
                    *h = (v - mean) * inv;
                }
                // Affine gradients.
                for j in 0..n {
                    dgamma[j] += gr[j] * xhat[j];
                    dbeta[j] += gr[j];
                }
                // dxhat = g * gamma
                for (j, d) in dxhat.iter_mut().enumerate() {
                    *d = gr[j] * gv.data[j];
                }
                let mean_dxhat = dxhat.iter().sum::<f32>() / n as f32;
                let mean_dxhat_xhat =
                    dxhat.iter().zip(&xhat).map(|(&a, &b)| a * b).sum::<f32>() / n as f32;
                for j in 0..n {
                    dx[r * n + j] = inv * (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat);
                }
            }
            pool.put(xhat);
            pool.put(dxhat);
            accum(
                pool,
                grads,
                *x,
                Tensor {
                    data: dx,
                    shape: xv.shape,
                },
            );
            accum(
                pool,
                grads,
                *gamma,
                Tensor {
                    data: dgamma,
                    shape: Shape::d1(n),
                },
            );
            accum(
                pool,
                grads,
                *beta,
                Tensor {
                    data: dbeta,
                    shape: Shape::d1(n),
                },
            );
        }
    }
}
