//! Multi-head scaled-dot-product attention as one tape op: every head of
//! every stacked window, with no per-head slice, score, softmax or
//! concat node.
//!
//! For window `w` and head `h` the op runs exactly the kernel calls the
//! per-head composition ran — `S = s·Q_h·K_hᵀ` ([`gemm_nt`], scale in
//! the epilogue), `P = softmax_rows(S)`, `O_h = P·V_h` ([`gemm_nn`]) —
//! on that head's columns of that window's rows, packed into contiguous
//! scratch first, so every output element sees the operand sequence it
//! always saw. Backward is that composition's backward with the same
//! kernels and the same scale placement; a head's `dQ`, `dK` and `dV`
//! columns are added into zeroed buffers, as the old zero-padded
//! per-head gradients were.

use super::arena::{take_buf_unfilled, take_buf_zeroed, BufPool};
use super::{NodeId, Op, Tape};
use crate::kernel::{gemm_nn, gemm_nt, gemm_tn, softmax_rows, GemmOpts};
use crate::tensor::{Shape, Tensor};
use std::ops::Range;

/// The shape of one attention op's window: `tq` query rows over `t`
/// context rows, `heads` heads of `dh` columns each.
#[derive(Clone, Copy)]
struct Dims {
    heads: usize,
    tq: usize,
    t: usize,
    dh: usize,
}

impl Dims {
    fn new(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, windows: usize) -> Dims {
        for x in [q, k, v] {
            assert_eq!(x.rank(), 2, "attention operands are 2-D");
        }
        let d = q.cols();
        assert!(
            heads > 0 && d.is_multiple_of(heads),
            "d_model must divide by heads"
        );
        assert_eq!((k.cols(), v.cols()), (d, d), "q, k and v widths differ");
        assert_eq!(k.rows(), v.rows(), "keys and values differ in rows");
        assert!(windows > 0, "no window");
        assert!(
            q.rows().is_multiple_of(windows) && k.rows().is_multiple_of(windows),
            "rows are not whole windows"
        );
        Dims {
            heads,
            tq: q.rows() / windows,
            t: k.rows() / windows,
            dh: d / heads,
        }
    }

    fn d(self) -> usize {
        self.heads * self.dh
    }

    /// `1/√dh`, the score scale.
    fn scale(self) -> f32 {
        1.0 / (self.dh as f32).sqrt()
    }

    /// Window `w`'s query rows and context rows, and head `h`'s columns.
    fn block(self, w: usize, h: usize) -> [Range<usize>; 3] {
        let cols = h * self.dh..(h + 1) * self.dh;
        [
            w * self.tq..(w + 1) * self.tq,
            w * self.t..(w + 1) * self.t,
            cols,
        ]
    }
}

/// Split `buf` into consecutive pieces of the given lengths.
fn carve<const N: usize>(mut buf: &mut [f32], lens: [usize; N]) -> [&mut [f32]; N] {
    lens.map(|n| {
        let (piece, rest) = std::mem::take(&mut buf).split_at_mut(n);
        buf = rest;
        piece
    })
}

/// Copy the block `rows × cols` of the row-major `src` (`ld` columns)
/// into the contiguous `dst`.
fn pack(src: &[f32], ld: usize, rows: &Range<usize>, cols: &Range<usize>, dst: &mut [f32]) {
    for (r, d) in rows.clone().zip(dst.chunks_exact_mut(cols.len())) {
        d.copy_from_slice(&src[r * ld + cols.start..r * ld + cols.end]);
    }
}

/// Add the contiguous `src` into the block `rows × cols` of `dst`.
fn add_block(dst: &mut [f32], ld: usize, rows: &Range<usize>, cols: &Range<usize>, src: &[f32]) {
    for (r, s) in rows.clone().zip(src.chunks_exact(cols.len())) {
        for (d, &x) in dst[r * ld + cols.start..r * ld + cols.end]
            .iter_mut()
            .zip(s)
        {
            *d += x;
        }
    }
}

/// Softmax's backward, `dx = y ⊙ (dy − ⟨y, dy⟩)` per `cols`-long row of
/// the probabilities `y`.
fn softmax_rows_backward(y: &[f32], dy: &[f32], dx: &mut [f32], cols: usize) {
    let rows = y.chunks_exact(cols).zip(dy.chunks_exact(cols));
    for ((yr, gr), dr) in rows.zip(dx.chunks_exact_mut(cols)) {
        let dot: f32 = yr.iter().zip(gr).map(|(&y, &dg)| y * dg).sum();
        for j in 0..cols {
            dr[j] = yr[j] * (gr[j] - dot);
        }
    }
}

impl Tape<'_> {
    /// Multi-head attention of queries `q [windows·Tq, d]` over keys and
    /// values `k, v [windows·T, d]`, window by window: `→ [windows·Tq, d]`,
    /// head `h` filling columns `h·d/heads..`. Each window attends only
    /// to its own rows, so stacking windows changes no bit of any.
    pub fn attention(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        heads: usize,
        windows: usize,
    ) -> NodeId {
        let (vals, pool) = self.split();
        let (qv, kv, vv) = (vals.get(q), vals.get(k), vals.get(v));
        let dims = Dims::new(qv, kv, vv, heads, windows);
        let Dims { tq, t, dh, .. } = dims;
        let d = dims.d();
        let mut probs = take_buf_unfilled(pool, windows * heads * tq * t);
        let mut out = take_buf_unfilled(pool, windows * tq * d);
        let mut scratch = take_buf_unfilled(pool, 2 * tq * dh + 2 * t * dh + tq * t);
        let [qh, kh, vh, scores, oh] =
            carve(&mut scratch, [tq * dh, t * dh, t * dh, tq * t, tq * dh]);
        let scaled = GemmOpts {
            bias: None,
            scale: Some(dims.scale()),
        };
        for (w, h) in (0..windows).flat_map(|w| (0..heads).map(move |h| (w, h))) {
            let [qrows, krows, cols] = dims.block(w, h);
            let p = &mut probs[(w * heads + h) * tq * t..][..tq * t];
            pack(&qv.data, d, &qrows, &cols, qh);
            pack(&kv.data, d, &krows, &cols, kh);
            pack(&vv.data, d, &krows, &cols, vh);
            gemm_nt(qh, kh, scores, tq, dh, t, scaled);
            softmax_rows(scores, p, t);
            gemm_nn(p, vh, oh, tq, t, dh, GemmOpts::default());
            for (r, o) in qrows.zip(oh.chunks_exact(dh)) {
                out[r * d + cols.start..r * d + cols.end].copy_from_slice(o);
            }
        }
        pool.put(scratch);
        let probs = Tensor {
            data: probs,
            shape: Shape::d2(windows * heads * tq, t),
        };
        let probs = self.push(probs, Op::Leaf);
        let out = Tensor {
            data: out,
            shape: Shape::d2(windows * tq, d),
        };
        let op = Op::Attention {
            q,
            k,
            v,
            probs,
            heads,
            windows,
        };
        self.push(out, op)
    }
}

/// The gradients of [`Tape::attention`]'s `q`, `k` and `v` from the
/// gradient `g` of its output and the probabilities it kept.
pub(super) fn backward(
    pool: &mut BufPool,
    [q, k, v]: [&Tensor; 3],
    probs: &Tensor,
    g: &Tensor,
    [heads, windows]: [usize; 2],
) -> [Tensor; 3] {
    let dims = Dims::new(q, k, v, heads, windows);
    let Dims { tq, t, dh, .. } = dims;
    let d = dims.d();
    let [mut dq, mut dk, mut dv] = [q, k, v].map(|x| take_buf_zeroed(pool, x.len()));
    let mut scratch = take_buf_unfilled(pool, 3 * tq * dh + 4 * t * dh + 2 * tq * t);
    let [gh, qh, kh, vh, datt, dscores, dqh, dkh, dvh] = carve(
        &mut scratch,
        [
            tq * dh,
            tq * dh,
            t * dh,
            t * dh,
            tq * t,
            tq * t,
            tq * dh,
            t * dh,
            t * dh,
        ],
    );
    let scaled = GemmOpts {
        bias: None,
        scale: Some(dims.scale()),
    };
    for (w, h) in (0..windows).flat_map(|w| (0..heads).map(move |h| (w, h))) {
        let [qrows, krows, cols] = dims.block(w, h);
        let p = &probs.data[(w * heads + h) * tq * t..][..tq * t];
        pack(&g.data, d, &qrows, &cols, gh);
        pack(&q.data, d, &qrows, &cols, qh);
        pack(&k.data, d, &krows, &cols, kh);
        pack(&v.data, d, &krows, &cols, vh);
        // O_h = P·V_h ⇒ dP = G_h·V_hᵀ, dV_h = Pᵀ·G_h.
        gemm_nt(gh, vh, datt, tq, dh, t, GemmOpts::default());
        gemm_tn(p, gh, dvh, tq, t, dh, GemmOpts::default());
        softmax_rows_backward(p, datt, dscores, t);
        // S = s·Q_h·K_hᵀ ⇒ dQ_h = s·dS·K_h, dK_h = s·dSᵀ·Q_h.
        gemm_nn(dscores, kh, dqh, tq, t, dh, scaled);
        gemm_tn(dscores, qh, dkh, tq, t, dh, scaled);
        add_block(&mut dq, d, &qrows, &cols, dqh);
        add_block(&mut dk, d, &krows, &cols, dkh);
        add_block(&mut dv, d, &krows, &cols, dvh);
    }
    pool.put(scratch);
    [(dq, q), (dk, k), (dv, v)].map(|(data, x)| Tensor {
        data,
        shape: x.shape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{with_mode, KernelMode};
    use crate::params::ParamStore;

    /// Deterministic fill in `[-1, 1)` (no RNG dependency).
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// Equal bits, or NaN on both sides (a NaN's payload is unspecified).
    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    /// The per-head composition the op replaced, written with the
    /// kernels, one window at a time as each once had its own tape: per
    /// head, slice `Q_h, K_h, V_h`, `S = s·Q_h·K_hᵀ`, `P = softmax(S)`,
    /// `O_h = P·V_h`, concat. Backward walks the heads in reverse node
    /// order with each step's own rule; a head's input gradient is
    /// zero-padded to the full width, and the first one to reach an input
    /// is its gradient, the later ones are added to it.
    /// Returns `[out, dq, dk, dv]` for the output gradient `g`.
    fn composition(
        [q, k, v, g]: [&[f32]; 4],
        d: usize,
        [heads, windows]: [usize; 2],
    ) -> [Vec<f32>; 4] {
        let dh = d / heads;
        let (tq, t) = (q.len() / d / windows, k.len() / d / windows);
        let scale = 1.0 / (dh as f32).sqrt();
        let scaled = GemmOpts {
            bias: None,
            scale: Some(scale),
        };
        let cols = |x: &[f32], h: usize| -> Vec<f32> {
            let rows = x.chunks_exact(d);
            rows.flat_map(|r| r[h * dh..(h + 1) * dh].to_vec())
                .collect()
        };
        let pad = |x: &[f32], h: usize| -> Vec<f32> {
            let mut out = vec![0.0; x.len() / dh * d];
            for (o, r) in out.chunks_exact_mut(d).zip(x.chunks_exact(dh)) {
                o[h * dh..(h + 1) * dh].copy_from_slice(r);
            }
            out
        };
        let accum = |slot: &mut Option<Vec<f32>>, x: Vec<f32>| match slot {
            Some(acc) => acc.iter_mut().zip(&x).for_each(|(a, b)| *a += b),
            None => *slot = Some(x),
        };
        let mut res: [Vec<f32>; 4] = Default::default();
        for w in 0..windows {
            let (qw, gw) = (&q[w * tq * d..][..tq * d], &g[w * tq * d..][..tq * d]);
            let (kw, vw) = (&k[w * t * d..][..t * d], &v[w * t * d..][..t * d]);
            let mut out = vec![0.0; tq * d];
            let mut probs = Vec::new();
            for h in 0..heads {
                let (qh, kh, vh) = (cols(qw, h), cols(kw, h), cols(vw, h));
                let mut s = vec![0.0; tq * t];
                gemm_nt(&qh, &kh, &mut s, tq, dh, t, scaled);
                let mut p = vec![0.0; tq * t];
                softmax_rows(&s, &mut p, t);
                let mut o = vec![0.0; tq * dh];
                gemm_nn(&p, &vh, &mut o, tq, t, dh, GemmOpts::default());
                for (dst, src) in out.chunks_exact_mut(d).zip(o.chunks_exact(dh)) {
                    dst[h * dh..(h + 1) * dh].copy_from_slice(src);
                }
                probs.push(p);
            }
            let (mut dq, mut dk, mut dv) = (None, None, None);
            for h in (0..heads).rev() {
                let (qh, kh, vh, gh) = (cols(qw, h), cols(kw, h), cols(vw, h), cols(gw, h));
                let p = &probs[h];
                let mut datt = vec![0.0; tq * t];
                gemm_nt(&gh, &vh, &mut datt, tq, dh, t, GemmOpts::default());
                let mut dvh = vec![0.0; t * dh];
                gemm_tn(p, &gh, &mut dvh, tq, t, dh, GemmOpts::default());
                let mut ds = vec![0.0; tq * t];
                for r in 0..tq {
                    let (yr, gr) = (&p[r * t..(r + 1) * t], &datt[r * t..(r + 1) * t]);
                    let dot: f32 = yr.iter().zip(gr).map(|(&y, &dg)| y * dg).sum();
                    for j in 0..t {
                        ds[r * t + j] = yr[j] * (gr[j] - dot);
                    }
                }
                let mut dqh = vec![0.0; tq * dh];
                gemm_nn(&ds, &kh, &mut dqh, tq, t, dh, scaled);
                let mut dkh = vec![0.0; t * dh];
                gemm_tn(&ds, &qh, &mut dkh, tq, t, dh, scaled);
                accum(&mut dv, pad(&dvh, h));
                accum(&mut dk, pad(&dkh, h));
                accum(&mut dq, pad(&dqh, h));
            }
            for (r, x) in res.iter_mut().zip([Some(out), dq, dk, dv]) {
                r.extend(x.expect("every input has a gradient"));
            }
        }
        res
    }

    /// The op's `[out, dq, dk, dv]` for the output gradient `g`, through
    /// `sum(out ⊙ g)`.
    fn op([q, k, v, g]: [&[f32]; 4], d: usize, [heads, windows]: [usize; 2]) -> [Vec<f32>; 4] {
        let mut store = ParamStore::new();
        let ids =
            [q, k, v].map(|x| store.add("x", Tensor::from_vec(x.to_vec(), &[x.len() / d, d])));
        let mut tape = Tape::new(&store);
        let [lq, lk, lv] = ids.map(|id| tape.param(id));
        let out = tape.attention(lq, lk, lv, heads, windows);
        let gn = tape.constant(Tensor::from_vec(g.to_vec(), &[g.len() / d, d]));
        let weighted = tape.mul(out, gn);
        let root = tape.sum(weighted);
        let value = tape.value(out).data.clone();
        let grads = tape.backward(root);
        let [dq, dk, dv] = ids.map(|id| {
            grads.by_param[id]
                .as_ref()
                .expect("a gradient")
                .data
                .clone()
        });
        [value, dq, dk, dv]
    }

    #[test]
    fn matches_the_per_head_composition_bit_for_bit() {
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        // (heads, dh, Tq, T): the wire (10) and paper (300) context
        // lengths, query tails, and widths off the 8-lane tile.
        let shapes = [
            (2, 8, 10, 10),
            (2, 8, 5, 10),
            (3, 3, 4, 13),
            (1, 5, 9, 9),
            (2, 8, 50, 300),
        ];
        for mode in [KernelMode::Reference, KernelMode::Blocked] {
            for (heads, dh, tq, t) in shapes {
                for windows in 1..=3 {
                    let d = heads * dh;
                    let seed = (heads * 1000 + dh * 100 + tq * 10 + t + windows) as u64;
                    let mut q = fill(windows * tq * d, seed);
                    let mut k = fill(windows * t * d, seed + 1);
                    let v = fill(windows * t * d, seed + 2);
                    let g = fill(windows * tq * d, seed + 3);
                    // Window 0, head 0, query row 0: every score is −∞ (a
                    // fully masked row). The last window's head 0 sees a
                    // NaN logit in every row.
                    q[0] = ninf;
                    for r in 0..t {
                        k[r * d] = 0.5 + k[r * d].abs();
                    }
                    k[((windows - 1) * t + t / 2) * d + dh - 1] = nan;
                    let ins = [&q[..], &k[..], &v[..], &g[..]];
                    let want = with_mode(mode, || composition(ins, d, [heads, windows]));
                    let got = with_mode(mode, || op(ins, d, [heads, windows]));
                    let what =
                        format!("{mode:?} heads={heads} dh={dh} tq={tq} t={t} windows={windows}");
                    for (i, name) in ["out", "dq", "dk", "dv"].iter().enumerate() {
                        assert_bits_eq(&got[i], &want[i], &format!("{what} {name}"));
                    }
                    // The masked row attends uniformly (finite, unless its
                    // window is the poisoned one); the NaN poisons its
                    // window's head, and only that.
                    if windows > 1 {
                        assert!(got[0][..dh].iter().all(|x| x.is_finite()), "{what}");
                    }
                    let last = &got[0][(windows - 1) * tq * d..];
                    for row in last.chunks_exact(d) {
                        assert!(row[..dh].iter().all(|x| x.is_nan()), "{what}");
                        assert!(row[dh..].iter().all(|x| x.is_finite()), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn grad_softmax_rows_backward() {
        // f(x) = Σ softmax(x)², so df/dy = 2y.
        let (rows, cols) = (2, 3);
        let x = [0.1, 0.9, -0.5, 0.3, 0.2, 0.7];
        let f = |x: &[f32]| -> f32 {
            let mut y = vec![0.0; x.len()];
            softmax_rows(x, &mut y, cols);
            y.iter().map(|v| v * v).sum()
        };
        let mut y = vec![0.0; rows * cols];
        softmax_rows(&x, &mut y, cols);
        let dy: Vec<f32> = y.iter().map(|v| 2.0 * v).collect();
        let mut dx = vec![0.0; rows * cols];
        softmax_rows_backward(&y, &dy, &mut dx, cols);
        let eps = 1e-3;
        for i in 0..x.len() {
            let (mut hi, mut lo) = (x, x);
            hi[i] += eps;
            lo[i] -= eps;
            let numeric = (f(&hi) - f(&lo)) / (2.0 * eps);
            assert!(
                (numeric - dx[i]).abs() <= 1e-2 * (1.0 + numeric.abs()),
                "elem {i}: numeric {numeric} vs analytic {}",
                dx[i]
            );
        }
    }
}
