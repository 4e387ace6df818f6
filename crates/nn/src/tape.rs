//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a DAG of operations as it executes the forward pass;
//! [`Tape::backward`] then walks the nodes in reverse, accumulating
//! gradients. Parameters live outside the tape in a
//! [`crate::params::ParamStore`]; a leaf created with [`Tape::param`]
//! remembers its [`crate::params::ParamId`] so backward can report
//! per-parameter gradients for the optimizer.
//!
//! The op vocabulary is deliberately small but sufficient for a
//! transformer encoder *and* the paper's constraint terms: cumulative sums
//! (EMD loss), max/select reductions (C1/C2 residuals) and tanh/relu
//! (the differentiable relaxation of C3).

use crate::kernel::{gemm_nn, gemm_nt, gemm_tn, softmax_rows, GemmOpts, KernelMode};
use crate::params::{Gradients, ParamId, ParamStore};
use crate::tensor::Tensor;
use fmml_obs::Counter;
use std::cell::RefCell;

/// Index of a node on a tape.
pub type NodeId = usize;

const LN_EPS: f32 = 1e-5;

/// Tapes constructed.
static TAPES: Counter = Counter::new("nn.tape.tapes");
/// Nodes recorded across all dropped tapes.
static NODES: Counter = Counter::new("nn.tape.nodes");
/// Tensor buffers served from the recycling pool.
static BUF_HITS: Counter = Counter::new("nn.tape.buf_hits");
/// Tensor buffers that had to be freshly allocated.
static BUF_MISSES: Counter = Counter::new("nn.tape.buf_misses");

/// Snapshot of the tape counters (for benchmark deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapeStats {
    pub tapes: u64,
    pub nodes: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
}

/// Current cumulative tape counters.
pub fn stats() -> TapeStats {
    TapeStats {
        tapes: TAPES.get(),
        nodes: NODES.get(),
        buf_hits: BUF_HITS.get(),
        buf_misses: BUF_MISSES.get(),
    }
}

impl std::ops::Sub for TapeStats {
    type Output = TapeStats;
    fn sub(self, rhs: TapeStats) -> TapeStats {
        TapeStats {
            tapes: self.tapes - rhs.tapes,
            nodes: self.nodes - rhs.nodes,
            buf_hits: self.buf_hits - rhs.buf_hits,
            buf_misses: self.buf_misses - rhs.buf_misses,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add(NodeId, NodeId),
    Mul(NodeId, NodeId),
    ScalarMul(NodeId, f32),
    // The constant is not needed by the backward pass (d(x+k)/dx = 1) but
    // is kept for graph debugging.
    ScalarAdd(NodeId, #[allow(dead_code)] f32),
    Matmul(NodeId, NodeId),
    Transpose(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    SoftmaxRows(NodeId),
    Sum(NodeId),
    Mean(NodeId),
    Abs(NodeId),
    CumSum(NodeId),
    MaxReduce(NodeId),
    Select(NodeId, Vec<usize>),
    /// Contiguous element range `[start, start+len)` of the row-major
    /// data: a 1-D slice, or a run of whole rows of a 2-D tensor.
    Slice(NodeId, usize, usize),
    SliceCols(NodeId, usize, usize),
    ConcatCols(Vec<NodeId>),
    AddBias(NodeId, NodeId),
    /// Fused `x·W + b` (one kernel call; bias is the accumulator init).
    Affine {
        x: NodeId,
        w: NodeId,
        b: NodeId,
    },
    /// Fused `scale · A·Bᵀ` with `B` row-major — the attention-score
    /// shape, computed without materializing the transpose or a scaled
    /// copy.
    MatmulScaledNT(NodeId, NodeId, f32),
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
    },
    /// Reinterpret a `[1,n]` or `[n,1]` tensor as 1-D `[n]`.
    Flatten(NodeId),
}

struct Node {
    value: Tensor,
    op: Op,
    param: Option<ParamId>,
}

/// Thread-local recycling arena for tape storage. A dropped [`Tape`]
/// returns its node vector and every node's `f32` buffer here; the next
/// `Tape::new` on the same thread starts from that storage instead of
/// allocating. Training builds one tape per example with an identical op
/// sequence, so after the first sample the pool reaches a steady state
/// where forward **and** backward run allocation-free, and stays at that
/// one tape's high-water mark however many tapes follow.
///
/// [`KernelMode::Reference`] disables the arena (nothing is taken or
/// returned), so benchmark reference passes reproduce the historical
/// allocate-per-sample substrate honestly.
#[derive(Default)]
pub struct TapeArena {
    nodes: Vec<Node>,
    bufs: BufPool,
}

/// Capacity classes of the pool: class `c` holds buffers with
/// `2^c ≤ capacity < 2^(c+1)` (the last class is open-ended).
const CLASSES: usize = 32;

/// Free `f32` buffers by capacity class. A request is served from the
/// smallest class that is sure to fit it, so a `[T]` buffer is never
/// grown into a `[T,T]` one just because it was next in line (with one
/// LIFO list that happened on every tape, and the arena crept towards
/// `count × largest`).
#[derive(Default)]
struct BufPool {
    free: [Vec<Vec<f32>>; CLASSES],
    /// Buffers handed out per class and not yet returned. [`Self::put`]
    /// only fills these vacancies: a buffer the pool never handed out (a
    /// caller-built `constant`, a `Tensor::scalar`) is freed instead of
    /// pooled, so the pool never holds more than it has been asked for.
    out: [u32; CLASSES],
}

impl BufPool {
    fn len(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// A buffer with capacity for `len` floats, contents and length
    /// unspecified.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let c = (len.next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1);
        self.out[c] += 1;
        match self.free[c].pop() {
            Some(b) => {
                BUF_HITS.inc();
                b
            }
            None => {
                BUF_MISSES.inc();
                Vec::with_capacity(len.max(1 << c))
            }
        }
    }

    fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let c = (buf.capacity().ilog2() as usize).min(CLASSES - 1);
        if self.out[c] > 0 {
            self.out[c] -= 1;
            self.free[c].push(buf);
        }
    }
}

/// Exiting threads hand their warm arena to this freelist, and a fresh
/// thread's first `Tape::new` adopts one instead of allocating from
/// scratch. The vendored rayon spawns transient OS workers per batch;
/// without the handoff every data-parallel batch would restart the pool
/// cold and the parallel path would pay full allocation traffic.
static ARENA_FREELIST: std::sync::Mutex<Vec<TapeArena>> = std::sync::Mutex::new(Vec::new());

/// Bound on parked arenas (memory ceiling, not a correctness knob).
const FREELIST_CAP: usize = 32;

/// Thread-local slot whose destructor parks the arena on
/// [`ARENA_FREELIST`] when the thread exits.
struct ArenaSlot(TapeArena);

impl Drop for ArenaSlot {
    fn drop(&mut self) {
        let arena = std::mem::take(&mut self.0);
        if arena.bufs.len() == 0 && arena.nodes.capacity() == 0 {
            return;
        }
        // Never panic in a thread-local destructor: skip on poison.
        if let Ok(mut list) = ARENA_FREELIST.lock() {
            if list.len() < FREELIST_CAP {
                list.push(arena);
            }
        }
    }
}

thread_local! {
    static ARENA: RefCell<ArenaSlot> = RefCell::new(ArenaSlot(TapeArena::default()));
}

impl TapeArena {
    /// Number of recycled buffers pooled on this thread.
    pub fn pooled() -> usize {
        ARENA.with(|a| a.borrow().0.bufs.len())
    }

    /// Drop all pooled storage on this thread.
    pub fn clear() {
        ARENA.with(|a| a.borrow_mut().0 = TapeArena::default());
    }

    /// Adopt a parked arena from an exited thread, if any.
    fn adopt() -> Option<TapeArena> {
        ARENA_FREELIST.lock().ok()?.pop()
    }
}

/// A pooled buffer of length 0 with room for `len` floats (for `extend`).
fn take_buf(pool: &mut BufPool, len: usize) -> Vec<f32> {
    let mut b = pool.take(len);
    b.clear();
    b
}

/// A pooled buffer of exactly `len` zeros (for indexed writes).
fn take_buf_zeroed(pool: &mut BufPool, len: usize) -> Vec<f32> {
    let mut b = take_buf(pool, len);
    b.resize(len, 0.0);
    b
}

/// A pooled buffer of exactly `len` floats with unspecified (stale)
/// values, for a producer that writes every element — a GEMM, a row-wise
/// map — and so has no use for a zeroing pass first.
fn take_buf_unfilled(pool: &mut BufPool, len: usize) -> Vec<f32> {
    let mut b = pool.take(len);
    b.resize(len, 0.0);
    b
}

fn pooled_copy(pool: &mut BufPool, t: &Tensor) -> Tensor {
    let mut data = take_buf(pool, t.len());
    data.extend_from_slice(&t.data);
    Tensor {
        data,
        shape: t.shape.clone(),
    }
}

fn pooled_map(pool: &mut BufPool, t: &Tensor, mut f: impl FnMut(f32) -> f32) -> Tensor {
    let mut data = take_buf(pool, t.len());
    data.extend(t.data.iter().map(|&x| f(x)));
    Tensor {
        data,
        shape: t.shape.clone(),
    }
}

fn pooled_zip(pool: &mut BufPool, x: &Tensor, y: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert_eq!(x.shape, y.shape, "shape mismatch");
    let mut data = take_buf(pool, x.len());
    data.extend(x.data.iter().zip(&y.data).map(|(&a, &b)| f(a, b)));
    Tensor {
        data,
        shape: x.shape.clone(),
    }
}

/// The autograd tape. Create one per training example, build the forward
/// graph, call [`Tape::backward`] on a scalar loss. Storage is recycled
/// through the thread-local [`TapeArena`] unless the thread is in
/// [`KernelMode::Reference`].
pub struct Tape<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
    pool: BufPool,
    pooled: bool,
}

impl<'s> Tape<'s> {
    pub fn new(store: &'s ParamStore) -> Tape<'s> {
        TAPES.inc();
        let pooled = crate::kernel::current_mode() != KernelMode::Reference;
        let (nodes, pool) = if pooled {
            let (nodes, pool) = ARENA
                .try_with(|a| {
                    let mut a = a.borrow_mut();
                    (
                        std::mem::take(&mut a.0.nodes),
                        std::mem::take(&mut a.0.bufs),
                    )
                })
                .unwrap_or_default();
            if pool.len() == 0 && nodes.capacity() == 0 {
                // Cold thread (e.g. a transient rayon worker): adopt a
                // warm arena parked by an exited thread.
                match TapeArena::adopt() {
                    Some(a) => (a.nodes, a.bufs),
                    None => (nodes, pool),
                }
            } else {
                (nodes, pool)
            }
        } else {
            (Vec::new(), BufPool::default())
        };
        Tape {
            store,
            nodes,
            pool,
            pooled,
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node {
            value,
            op,
            param: None,
        });
        self.nodes.len() - 1
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id].value
    }

    /// Scalar value of a rank-1, length-1 node.
    pub fn scalar_value(&self, id: NodeId) -> f32 {
        debug_assert_eq!(self.nodes[id].value.len(), 1);
        self.nodes[id].value.data[0]
    }

    // ---- leaves ----

    /// A leaf holding a parameter (gradient is reported for it).
    pub fn param(&mut self, id: ParamId) -> NodeId {
        let value = pooled_copy(&mut self.pool, self.store.value(id));
        let n = self.push(value, Op::Leaf);
        self.nodes[n].param = Some(id);
        n
    }

    /// A constant leaf (input data; no gradient reported).
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Leaf)
    }

    /// A constant leaf copied from a slice into pooled storage (use this
    /// instead of building a `Tensor` when the caller's buffer is
    /// reused, e.g. the positional-encoding window).
    pub fn constant_from(&mut self, data: &[f32], shape: &[usize]) -> NodeId {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "shape/data mismatch"
        );
        let mut buf = take_buf(&mut self.pool, data.len());
        buf.extend_from_slice(data);
        self.push(
            Tensor {
                data: buf,
                shape: shape.to_vec(),
            },
            Op::Leaf,
        )
    }

    pub fn scalar(&mut self, v: f32) -> NodeId {
        self.constant(Tensor::scalar(v))
    }

    // ---- elementwise / arithmetic ----

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let v = pooled_zip(pool, &nodes[a].value, &nodes[b].value, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let v = pooled_zip(pool, &nodes[a].value, &nodes[b].value, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    pub fn scalar_mul(&mut self, a: NodeId, k: f32) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let v = pooled_map(pool, &nodes[a].value, |x| x * k);
        self.push(v, Op::ScalarMul(a, k))
    }

    pub fn scalar_add(&mut self, a: NodeId, k: f32) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let v = pooled_map(pool, &nodes[a].value, |x| x + k);
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

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let av = &nodes[a].value;
        let bv = &nodes[b].value;
        assert_eq!(av.rank(), 2, "matmul lhs must be 2-D");
        assert_eq!(bv.rank(), 2, "matmul rhs must be 2-D");
        let (m, k) = (av.shape[0], av.shape[1]);
        let (k2, n) = (bv.shape[0], bv.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = take_buf_unfilled(pool, m * n);
        gemm_nn(&av.data, &bv.data, &mut out, m, k, n, GemmOpts::default());
        self.push(
            Tensor {
                data: out,
                shape: vec![m, n],
            },
            Op::Matmul(a, b),
        )
    }

    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let x = &nodes[a].value;
        assert_eq!(x.rank(), 2);
        let (m, n) = (x.shape[0], x.shape[1]);
        let mut out = take_buf_zeroed(pool, m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = x.data[i * n + j];
            }
        }
        self.push(
            Tensor {
                data: out,
                shape: vec![n, m],
            },
            Op::Transpose(a),
        )
    }

    /// `[m,n] + [n]` broadcast add.
    pub fn add_bias(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let m = &nodes[a].value;
        let b = &nodes[bias].value;
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
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let xv = &nodes[x].value;
        let wv = &nodes[w].value;
        let bv = &nodes[b].value;
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
                shape: vec![m, n],
            },
            Op::Affine { x, w, b },
        )
    }

    /// Fused `scale · A·Bᵀ` where `B` is row-major `[n,k]` — the
    /// attention-score product `s·Q·Kᵀ` without materializing `Kᵀ` or a
    /// scaled copy. Bitwise identical to
    /// `scalar_mul(matmul(a, transpose(b)), scale)`: the dot products
    /// see the same operand sequences and the scale is one trailing
    /// multiply either way.
    pub fn matmul_scaled_nt(&mut self, a: NodeId, b: NodeId, scale: f32) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let av = &nodes[a].value;
        let bv = &nodes[b].value;
        assert_eq!(av.rank(), 2, "matmul_scaled_nt lhs must be 2-D");
        assert_eq!(bv.rank(), 2, "matmul_scaled_nt rhs must be 2-D");
        let (m, k) = (av.shape[0], av.shape[1]);
        let (n, k2) = (bv.shape[0], bv.shape[1]);
        assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
        let mut out = take_buf_unfilled(pool, m * n);
        gemm_nt(
            &av.data,
            &bv.data,
            &mut out,
            m,
            k,
            n,
            GemmOpts {
                bias: None,
                scale: Some(scale),
            },
        );
        self.push(
            Tensor {
                data: out,
                shape: vec![m, n],
            },
            Op::MatmulScaledNT(a, b, scale),
        )
    }

    // ---- nonlinearities ----

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let v = pooled_map(pool, &nodes[a].value, f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let v = pooled_map(pool, &nodes[a].value, |x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// GELU (tanh approximation), composed from primitive ops so the
    /// backward pass needs no dedicated kernel.
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        // 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        let x3 = {
            let x2 = self.mul(a, a);
            self.mul(x2, a)
        };
        let inner = {
            let scaled_x3 = self.scalar_mul(x3, 0.044715);
            let sum = self.add(a, scaled_x3);
            self.scalar_mul(sum, C)
        };
        let t = self.tanh(inner);
        let one_plus = self.scalar_add(t, 1.0);
        let half_x = self.scalar_mul(a, 0.5);
        self.mul(half_x, one_plus)
    }

    /// Inverted dropout: zeroes each element with probability `p` and
    /// scales survivors by `1/(1−p)`. The mask is built from the given
    /// RNG (deterministic under a seeded RNG); pass `p = 0` for a no-op.
    /// Implemented as a multiply by a constant mask, so the backward pass
    /// routes gradients only through surviving elements.
    pub fn dropout<R: rand::Rng + ?Sized>(&mut self, a: NodeId, p: f32, rng: &mut R) -> NodeId {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        if p == 0.0 {
            return a;
        }
        use rand::RngExt;
        let keep = 1.0 - p;
        let shape = self.nodes[a].value.shape.clone();
        let len = self.nodes[a].value.len();
        let mut data = take_buf(&mut self.pool, len);
        data.extend((0..len).map(|_| {
            if rng.random::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        }));
        let m = self.push(Tensor { data, shape }, Op::Leaf);
        self.mul(a, m)
    }

    /// Row-wise softmax of a 2-D tensor (or of a 1-D tensor as one row),
    /// by [`crate::kernel::softmax_rows`]: a row of nothing but `-∞` (a
    /// fully-masked attention row) comes back **uniform**, a row with a
    /// NaN logit all NaN.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let x = &nodes[a].value;
        let mut data = take_buf_unfilled(pool, x.len());
        softmax_rows(&x.data, &mut data, x.cols());
        let out = Tensor {
            data,
            shape: x.shape.clone(),
        };
        self.push(out, Op::SoftmaxRows(a))
    }

    /// Layer normalization over the last dimension, with affine params.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let xv = &nodes[x].value;
        let g = &nodes[gamma].value;
        let b = &nodes[beta].value;
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
        let v = Tensor::scalar(self.nodes[a].value.sum());
        self.push(v, Op::Sum(a))
    }

    pub fn mean(&mut self, a: NodeId) -> NodeId {
        let t = &self.nodes[a].value;
        let v = Tensor::scalar(t.sum() / t.len() as f32);
        self.push(v, Op::Mean(a))
    }

    pub fn abs(&mut self, a: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let v = pooled_map(pool, &nodes[a].value, f32::abs);
        self.push(v, Op::Abs(a))
    }

    /// Cumulative sum of a 1-D tensor.
    pub fn cumsum(&mut self, a: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let x = &nodes[a].value;
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
        let x = &self.nodes[a].value;
        assert_eq!(x.rank(), 1);
        assert!(!x.is_empty());
        let m = x.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        self.push(Tensor::scalar(m), Op::MaxReduce(a))
    }

    /// Gather elements of a 1-D tensor at `indices`.
    pub fn select(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let x = &nodes[a].value;
        assert_eq!(x.rank(), 1);
        let mut data = take_buf(pool, indices.len());
        data.extend(indices.iter().map(|&i| x.data[i]));
        let v = Tensor {
            data,
            shape: vec![indices.len()],
        };
        self.push(v, Op::Select(a, indices.to_vec()))
    }

    /// Contiguous 1-D slice `[start, start+len)`.
    pub fn slice1d(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        assert_eq!(self.nodes[a].value.rank(), 1);
        self.slice(a, start, len, vec![len])
    }

    /// Row slice `[start..start+len, ..]` of a 2-D tensor — the row twin
    /// of [`Tape::slice_cols`], and contiguous in row-major storage.
    pub fn slice_rows(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let x = &self.nodes[a].value;
        assert_eq!(x.rank(), 2);
        let n = x.cols();
        self.slice(a, start * n, len * n, vec![len, n])
    }

    /// Copy elements `[start, start+len)` of `a` out as a `shape` tensor.
    fn slice(&mut self, a: NodeId, start: usize, len: usize, shape: Vec<usize>) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let x = &nodes[a].value;
        assert!(start + len <= x.len());
        let mut data = take_buf(pool, len);
        data.extend_from_slice(&x.data[start..start + len]);
        self.push(Tensor { data, shape }, Op::Slice(a, start, len))
    }

    /// Column slice `[.., start..start+len]` of a 2-D tensor.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let x = &nodes[a].value;
        assert_eq!(x.rank(), 2);
        let (m, n) = (x.rows(), x.cols());
        assert!(start + len <= n);
        let mut data = take_buf(pool, m * len);
        for r in 0..m {
            data.extend_from_slice(&x.data[r * n + start..r * n + start + len]);
        }
        let out = Tensor {
            data,
            shape: vec![m, len],
        };
        self.push(out, Op::SliceCols(a, start, len))
    }

    /// Concatenate 2-D tensors with equal row counts along columns.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let m = nodes[parts[0]].value.rows();
        let total: usize = parts.iter().map(|&p| nodes[p].value.cols()).sum();
        let mut data = take_buf_zeroed(pool, m * total);
        let mut off = 0;
        for &p in parts {
            let x = &nodes[p].value;
            assert_eq!(x.rows(), m, "row count mismatch in concat");
            let n = x.cols();
            for r in 0..m {
                data[r * total + off..r * total + off + n]
                    .copy_from_slice(&x.data[r * n..(r + 1) * n]);
            }
            off += n;
        }
        let out = Tensor {
            data,
            shape: vec![m, total],
        };
        self.push(out, Op::ConcatCols(parts.to_vec()))
    }

    /// Reinterpret a single-row or single-column 2-D tensor as 1-D.
    pub fn flatten(&mut self, a: NodeId) -> NodeId {
        let Tape {
            ref nodes,
            ref mut pool,
            ..
        } = *self;
        let x = &nodes[a].value;
        assert_eq!(x.rank(), 2, "flatten takes a 2-D tensor");
        assert!(
            x.rows() == 1 || x.cols() == 1,
            "flatten needs a single row or column, got {:?}",
            x.shape
        );
        let mut v = pooled_copy(pool, x);
        v.shape = vec![x.len()];
        self.push(v, Op::Flatten(a))
    }

    // ---- backward ----

    /// Reverse-mode sweep from a scalar `root`; returns per-parameter
    /// gradients. Takes `&mut self` so the gradient buffers it allocates
    /// can be recycled into the tape's pool afterwards — on a warm
    /// arena, backward is allocation-free too.
    pub fn backward(&mut self, root: NodeId) -> Gradients {
        assert_eq!(
            self.nodes[root].value.len(),
            1,
            "backward root must be scalar"
        );
        let mut grads: Vec<Option<Tensor>> = Vec::new();
        grads.resize_with(self.nodes.len(), || None);
        grads[root] = Some(Tensor::scalar(1.0));

        for id in (0..=root).rev() {
            let Some(g) = grads[id].take() else { continue };
            {
                let Tape {
                    ref nodes,
                    ref mut pool,
                    ..
                } = *self;
                propagate(nodes, pool, id, &g, &mut grads);
            }
            grads[id] = Some(g);
        }

        let mut out = Gradients::new(self.store.len());
        for (id, node) in self.nodes.iter().enumerate() {
            if let (Some(pid), Some(g)) = (node.param, &grads[id]) {
                out.add(pid, g);
            }
        }
        if self.pooled {
            for g in grads.into_iter().flatten() {
                self.pool.put(g.data);
            }
        }
        out
    }
}

impl Drop for Tape<'_> {
    /// Return the tape's node vector and every node's buffer to the
    /// thread-local [`TapeArena`] (unless pooling is disabled or the
    /// thread is tearing down).
    fn drop(&mut self) {
        NODES.add(self.nodes.len() as u64);
        if !self.pooled {
            return;
        }
        let mut nodes = std::mem::take(&mut self.nodes);
        let mut pool = std::mem::take(&mut self.pool);
        for node in nodes.drain(..) {
            pool.put(node.value.data);
        }
        // Vacancies left by buffers that escaped (or changed class) end
        // with the tape that opened them.
        pool.out = [0; CLASSES];
        let _ = ARENA.try_with(|a| {
            let mut a = a.borrow_mut();
            if a.0.nodes.capacity() < nodes.capacity() {
                a.0.nodes = nodes;
            }
            // Another tape on this thread may have returned first (tapes
            // can nest); keep the fuller pool, never the sum.
            if a.0.bufs.len() < pool.len() {
                a.0.bufs = pool;
            }
        });
    }
}

fn accum(pool: &mut BufPool, grads: &mut [Option<Tensor>], id: NodeId, g: Tensor) {
    match &mut grads[id] {
        Some(acc) => {
            acc.add_inplace(&g);
            pool.put(g.data);
        }
        slot => *slot = Some(g),
    }
}

fn propagate(
    nodes: &[Node],
    pool: &mut BufPool,
    id: NodeId,
    g: &Tensor,
    grads: &mut [Option<Tensor>],
) {
    match &nodes[id].op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            let ga = pooled_copy(pool, g);
            accum(pool, grads, *a, ga);
            let gb = pooled_copy(pool, g);
            accum(pool, grads, *b, gb);
        }
        Op::Mul(a, b) => {
            let ga = pooled_zip(pool, g, &nodes[*b].value, |dg, y| dg * y);
            accum(pool, grads, *a, ga);
            let gb = pooled_zip(pool, g, &nodes[*a].value, |dg, x| dg * x);
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
        Op::Matmul(a, b) => {
            // Transpose-free backward: dA = G·Bᵀ via the NT kernel and
            // dB = Aᵀ·G via the TN kernel — the per-element operand
            // sequences match the historical materialize-the-transpose
            // formulation bit for bit, without the two `[k,·]` copies.
            let av = &nodes[*a].value;
            let bv = &nodes[*b].value;
            let (m, kd) = (av.rows(), av.cols());
            let n = bv.cols();
            let mut da = take_buf_unfilled(pool, m * kd);
            gemm_nt(&g.data, &bv.data, &mut da, m, n, kd, GemmOpts::default());
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: da,
                    shape: vec![m, kd],
                },
            );
            let mut db = take_buf_unfilled(pool, kd * n);
            gemm_tn(&av.data, &g.data, &mut db, m, kd, n, GemmOpts::default());
            accum(
                pool,
                grads,
                *b,
                Tensor {
                    data: db,
                    shape: vec![kd, n],
                },
            );
        }
        Op::Affine { x, w, b } => {
            // dX = G·Wᵀ, dW = Xᵀ·G, db = column sums of G.
            let xv = &nodes[*x].value;
            let wv = &nodes[*w].value;
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
                    shape: vec![m, kd],
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
                    shape: vec![kd, n],
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
                    shape: vec![n],
                },
            );
        }
        Op::MatmulScaledNT(a, b, s) => {
            // y = s·A·Bᵀ ⇒ dA = s·G·B, dB = s·Gᵀ·A.
            let av = &nodes[*a].value;
            let bv = &nodes[*b].value;
            let (m, kd) = (av.rows(), av.cols());
            let n = bv.rows();
            let opts = GemmOpts {
                bias: None,
                scale: Some(*s),
            };
            let mut da = take_buf_unfilled(pool, m * kd);
            gemm_nn(&g.data, &bv.data, &mut da, m, n, kd, opts);
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: da,
                    shape: vec![m, kd],
                },
            );
            let mut db = take_buf_unfilled(pool, n * kd);
            gemm_tn(&g.data, &av.data, &mut db, m, n, kd, opts);
            accum(
                pool,
                grads,
                *b,
                Tensor {
                    data: db,
                    shape: vec![n, kd],
                },
            );
        }
        Op::Transpose(a) => {
            let (m, n) = (g.rows(), g.cols());
            let mut data = take_buf_zeroed(pool, m * n);
            for i in 0..m {
                for j in 0..n {
                    data[j * m + i] = g.data[i * n + j];
                }
            }
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data,
                    shape: vec![n, m],
                },
            );
        }
        Op::Tanh(a) => {
            let y = &nodes[id].value;
            let ga = pooled_zip(pool, g, y, |dg, y| dg * (1.0 - y * y));
            accum(pool, grads, *a, ga);
        }
        Op::Relu(a) => {
            let x = &nodes[*a].value;
            let ga = pooled_zip(pool, g, x, |dg, x| if x > 0.0 { dg } else { 0.0 });
            accum(pool, grads, *a, ga);
        }
        Op::SoftmaxRows(a) => {
            let y = &nodes[id].value;
            let cols = y.cols();
            let mut dx = take_buf_zeroed(pool, y.len());
            for r in 0..y.rows() {
                let yr = &y.data[r * cols..(r + 1) * cols];
                let gr = &g.data[r * cols..(r + 1) * cols];
                let dot: f32 = yr.iter().zip(gr).map(|(&y, &dg)| y * dg).sum();
                for j in 0..cols {
                    dx[r * cols + j] = yr[j] * (gr[j] - dot);
                }
            }
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: y.shape.clone(),
                },
            );
        }
        Op::Sum(a) => {
            let dg = g.data[0];
            let x = &nodes[*a].value;
            let ga = pooled_map(pool, x, |_| dg);
            accum(pool, grads, *a, ga);
        }
        Op::Mean(a) => {
            let x = &nodes[*a].value;
            let dg = g.data[0] / x.len() as f32;
            let ga = pooled_map(pool, x, |_| dg);
            accum(pool, grads, *a, ga);
        }
        Op::Abs(a) => {
            let x = &nodes[*a].value;
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
            let x = &nodes[*a].value;
            let m = nodes[id].value.data[0];
            let arg = x.data.iter().position(|&v| v == m).expect("max exists");
            let mut dx = take_buf_zeroed(pool, x.len());
            dx[arg] = g.data[0];
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: x.shape.clone(),
                },
            );
        }
        Op::Select(a, idx) => {
            let x = &nodes[*a].value;
            let mut dx = take_buf_zeroed(pool, x.len());
            for (k, &i) in idx.iter().enumerate() {
                dx[i] += g.data[k];
            }
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: x.shape.clone(),
                },
            );
        }
        Op::Slice(a, start, len) => {
            let x = &nodes[*a].value;
            let mut dx = take_buf_zeroed(pool, x.len());
            dx[*start..start + len].copy_from_slice(&g.data);
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: x.shape.clone(),
                },
            );
        }
        Op::SliceCols(a, start, len) => {
            let x = &nodes[*a].value;
            let (m, n) = (x.rows(), x.cols());
            let mut dx = take_buf_zeroed(pool, m * n);
            for r in 0..m {
                dx[r * n + start..r * n + start + len]
                    .copy_from_slice(&g.data[r * len..(r + 1) * len]);
            }
            accum(
                pool,
                grads,
                *a,
                Tensor {
                    data: dx,
                    shape: vec![m, n],
                },
            );
        }
        Op::ConcatCols(parts) => {
            let m = nodes[id].value.rows();
            let total = nodes[id].value.cols();
            let mut off = 0;
            for &p in parts {
                let n = nodes[p].value.cols();
                let mut dp = take_buf_zeroed(pool, m * n);
                for r in 0..m {
                    dp[r * n..(r + 1) * n]
                        .copy_from_slice(&g.data[r * total + off..r * total + off + n]);
                }
                accum(
                    pool,
                    grads,
                    p,
                    Tensor {
                        data: dp,
                        shape: vec![m, n],
                    },
                );
                off += n;
            }
        }
        Op::AddBias(a, bias) => {
            let ga = pooled_copy(pool, g);
            accum(pool, grads, *a, ga);
            let n = nodes[*bias].value.len();
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
                    shape: vec![n],
                },
            );
        }
        Op::Flatten(a) => {
            let x = &nodes[*a].value;
            let mut dx = pooled_copy(pool, g);
            dx.shape = x.shape.clone();
            accum(pool, grads, *a, dx);
        }
        Op::LayerNorm { x, gamma, beta } => {
            let xv = &nodes[*x].value;
            let gv = &nodes[*gamma].value;
            let n = xv.cols();
            let mut dx = take_buf_zeroed(pool, xv.len());
            let mut dgamma = take_buf_zeroed(pool, n);
            let mut dbeta = take_buf_zeroed(pool, n);
            for r in 0..xv.rows() {
                let xr = &xv.data[r * n..(r + 1) * n];
                let gr = &g.data[r * n..(r + 1) * n];
                let mean = xr.iter().sum::<f32>() / n as f32;
                let var = xr.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
                let inv = 1.0 / (var + LN_EPS).sqrt();
                let xhat: Vec<f32> = xr.iter().map(|&v| (v - mean) * inv).collect();
                // Affine gradients.
                for j in 0..n {
                    dgamma[j] += gr[j] * xhat[j];
                    dbeta[j] += gr[j];
                }
                // dxhat = g * gamma
                let dxhat: Vec<f32> = (0..n).map(|j| gr[j] * gv.data[j]).collect();
                let mean_dxhat = dxhat.iter().sum::<f32>() / n as f32;
                let mean_dxhat_xhat =
                    dxhat.iter().zip(&xhat).map(|(&a, &b)| a * b).sum::<f32>() / n as f32;
                for j in 0..n {
                    dx[r * n + j] = inv * (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat);
                }
            }
            accum(
                pool,
                grads,
                *x,
                Tensor {
                    data: dx,
                    shape: xv.shape.clone(),
                },
            );
            accum(
                pool,
                grads,
                *gamma,
                Tensor {
                    data: dgamma,
                    shape: vec![n],
                },
            );
            accum(
                pool,
                grads,
                *beta,
                Tensor {
                    data: dbeta,
                    shape: vec![n],
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference gradient check: `build` constructs a
    /// scalar-rooted graph from parameter leaves; compares analytic and
    /// numeric gradients for every parameter scalar.
    fn check_gradients(
        params: Vec<(&str, Tensor)>,
        build: impl Fn(&mut Tape, &[NodeId]) -> NodeId,
        tol: f32,
    ) {
        let mut store = ParamStore::new();
        let ids: Vec<ParamId> = params
            .iter()
            .map(|(n, t)| store.add(n, t.clone()))
            .collect();

        // Analytic gradients.
        let mut tape = Tape::new(&store);
        let leaves: Vec<NodeId> = ids.iter().map(|&i| tape.param(i)).collect();
        let root = build(&mut tape, &leaves);
        let grads = tape.backward(root);

        // Numeric gradients.
        let eps = 1e-3f32;
        for (pi, &pid) in ids.iter().enumerate() {
            let len = store.value(pid).len();
            for k in 0..len {
                let eval = |delta: f32| -> f32 {
                    let mut s2 = store.clone();
                    s2.value_mut(pid).data[k] += delta;
                    let mut t2 = Tape::new(&s2);
                    let l2: Vec<NodeId> = ids.iter().map(|&i| t2.param(i)).collect();
                    let r2 = build(&mut t2, &l2);
                    t2.scalar_value(r2)
                };
                let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
                let analytic = grads.by_param[pid].as_ref().map_or(0.0, |g| g.data[k]);
                assert!(
                    (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                    "param {pi} ({}) elem {k}: numeric {numeric} vs analytic {analytic}",
                    params[pi].0,
                );
            }
        }
    }

    #[test]
    fn grad_add_mul_chain() {
        check_gradients(
            vec![
                ("a", Tensor::vector(vec![1.0, -2.0, 0.5])),
                ("b", Tensor::vector(vec![0.3, 0.7, -1.1])),
            ],
            |t, l| {
                let s = t.add(l[0], l[1]);
                let p = t.mul(s, l[0]);
                t.sum(p)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_bias() {
        check_gradients(
            vec![
                (
                    "x",
                    Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, -0.4, 0.3], &[2, 3]),
                ),
                (
                    "w",
                    Tensor::from_vec(vec![0.2, -0.5, 0.7, 0.1, 0.4, -0.3], &[3, 2]),
                ),
                ("b", Tensor::vector(vec![0.05, -0.02])),
            ],
            |t, l| {
                let y = t.matmul(l[0], l[1]);
                let y = t.add_bias(y, l[2]);
                let y = t.tanh(y);
                t.sum(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_softmax() {
        check_gradients(
            vec![(
                "x",
                Tensor::from_vec(vec![0.1, 0.9, -0.5, 0.3, 0.2, 0.7], &[2, 3]),
            )],
            |t, l| {
                let y = t.softmax_rows(l[0]);
                let sq = t.square(y);
                t.sum(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        check_gradients(
            vec![
                (
                    "x",
                    Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.1, 0.2, -0.7, 1.5, 0.4], &[2, 4]),
                ),
                ("g", Tensor::vector(vec![1.0, 0.9, 1.1, 1.2])),
                ("b", Tensor::vector(vec![0.0, 0.1, -0.1, 0.05])),
            ],
            |t, l| {
                let y = t.layer_norm(l[0], l[1], l[2]);
                let sq = t.square(y);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_cumsum_abs_mean() {
        // The 1-D EMD shape: mean(|cumsum(x - y)|).
        check_gradients(
            vec![
                ("x", Tensor::vector(vec![0.5, 1.5, -0.3, 0.9])),
                ("y", Tensor::vector(vec![0.1, 1.1, 0.4, 0.2])),
            ],
            |t, l| {
                let d = t.sub(l[0], l[1]);
                let c = t.cumsum(d);
                let a = t.abs(c);
                t.mean(a)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_max_select_slice() {
        check_gradients(
            vec![("x", Tensor::vector(vec![0.5, 2.5, -0.3, 0.9, 1.7]))],
            |t, l| {
                let m = t.max_reduce(l[0]); // -> 2.5 at idx 1
                let sel = t.select(l[0], &[0, 3]);
                let sl = t.slice1d(l[0], 2, 2);
                let s1 = t.sum(sel);
                let s2 = t.sum(sl);
                let a = t.add(m, s1);
                t.add(a, s2)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_slice_concat_cols() {
        check_gradients(
            vec![(
                "x",
                Tensor::from_vec((0..12).map(|i| (i as f32) * 0.1 - 0.5).collect(), &[3, 4]),
            )],
            |t, l| {
                let a = t.slice_cols(l[0], 0, 2);
                let b = t.slice_cols(l[0], 2, 2);
                let swapped = t.concat_cols(&[b, a]);
                let y = t.tanh(swapped);
                // Rows 1.. once more: row 0 gets no gradient from here.
                let tail = t.slice_rows(swapped, 1, 2);
                assert_eq!(t.value(tail).shape, vec![2, 4]);
                let sq = t.square(tail);
                let (s1, s2) = (t.sum(y), t.sum(sq));
                t.add(s1, s2)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_transpose_and_attention_shape() {
        // Mini attention: softmax(QK^T) V.
        check_gradients(
            vec![
                (
                    "q",
                    Tensor::from_vec(vec![0.1, 0.5, -0.3, 0.7, 0.2, -0.1], &[3, 2]),
                ),
                (
                    "k",
                    Tensor::from_vec(vec![0.4, -0.2, 0.3, 0.6, -0.5, 0.1], &[3, 2]),
                ),
                (
                    "v",
                    Tensor::from_vec(vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.8], &[3, 2]),
                ),
            ],
            |t, l| {
                let kt = t.transpose(l[1]);
                let scores = t.matmul(l[0], kt);
                let att = t.softmax_rows(scores);
                let out = t.matmul(att, l[2]);
                let sq = t.square(out);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_relu_hinge() {
        check_gradients(
            vec![("x", Tensor::vector(vec![0.5, -1.5, 2.0, 0.1]))],
            |t, l| {
                let shifted = t.scalar_add(l[0], -0.3);
                let h = t.relu(shifted);
                let sc = t.scalar_mul(h, 2.0);
                t.sum(sc)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_affine() {
        check_gradients(
            vec![
                (
                    "x",
                    Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, -0.4, 0.3], &[2, 3]),
                ),
                (
                    "w",
                    Tensor::from_vec(vec![0.2, -0.5, 0.7, 0.1, 0.4, -0.3], &[3, 2]),
                ),
                ("b", Tensor::vector(vec![0.05, -0.02])),
            ],
            |t, l| {
                let y = t.affine(l[0], l[1], l[2]);
                let y = t.tanh(y);
                t.sum(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_scaled_nt() {
        check_gradients(
            vec![
                (
                    "q",
                    Tensor::from_vec(vec![0.1, 0.5, -0.3, 0.7, 0.2, -0.1], &[3, 2]),
                ),
                (
                    "k",
                    Tensor::from_vec(vec![0.4, -0.2, 0.3, 0.6, -0.5, 0.1], &[3, 2]),
                ),
                (
                    "v",
                    Tensor::from_vec(vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.8], &[3, 2]),
                ),
            ],
            |t, l| {
                let scores = t.matmul_scaled_nt(l[0], l[1], 0.5);
                let att = t.softmax_rows(scores);
                let out = t.matmul(att, l[2]);
                let sq = t.square(out);
                t.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn affine_matches_matmul_add_bias_bitwise() {
        let mut store = ParamStore::new();
        let x = store.add(
            "x",
            Tensor::from_vec((0..12).map(|i| i as f32 * 0.37 - 2.0).collect(), &[4, 3]),
        );
        let w = store.add(
            "w",
            Tensor::from_vec((0..6).map(|i| 0.11 * i as f32 - 0.3).collect(), &[3, 2]),
        );
        let b = store.add("b", Tensor::vector(vec![0.25, -0.75]));
        let mut tape = Tape::new(&store);
        let (lx, lw, lb) = (tape.param(x), tape.param(w), tape.param(b));
        let fused = tape.affine(lx, lw, lb);
        let staged = {
            let mm = tape.matmul(lx, lw);
            tape.add_bias(mm, lb)
        };
        let (f, s) = (tape.value(fused).clone(), tape.value(staged).clone());
        assert_eq!(f.shape, s.shape);
        for (a, b) in f.data.iter().zip(&s.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "affine {a} vs staged {b}");
        }
    }

    #[test]
    fn scaled_nt_matches_transpose_matmul_bitwise() {
        let mut store = ParamStore::new();
        let q = store.add(
            "q",
            Tensor::from_vec((0..8).map(|i| (i as f32).sin()).collect(), &[4, 2]),
        );
        let k = store.add(
            "k",
            Tensor::from_vec((0..6).map(|i| (i as f32).cos()).collect(), &[3, 2]),
        );
        let mut tape = Tape::new(&store);
        let (lq, lk) = (tape.param(q), tape.param(k));
        let fused = tape.matmul_scaled_nt(lq, lk, 0.25);
        let staged = {
            let kt = tape.transpose(lk);
            let mm = tape.matmul(lq, kt);
            tape.scalar_mul(mm, 0.25)
        };
        let (f, s) = (tape.value(fused).clone(), tape.value(staged).clone());
        assert_eq!(f.shape, vec![4, 3]);
        assert_eq!(f.shape, s.shape);
        for (a, b) in f.data.iter().zip(&s.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "scaled-nt {a} vs staged {b}");
        }
    }

    #[test]
    fn softmax_zero_mass_rows_are_uniform() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let ninf = f32::NEG_INFINITY;
        // Row 0 fully masked, row 1 partially masked, row 2 ordinary.
        let x = tape.constant(Tensor::from_vec(
            vec![ninf, ninf, ninf, ninf, 1.0, 2.0, 0.5, -0.5, 0.1],
            &[3, 3],
        ));
        let y = tape.softmax_rows(x);
        let v = tape.value(y);
        for j in 0..3 {
            assert_eq!(v.at2(0, j), 1.0 / 3.0, "masked row must be uniform");
        }
        for r in 0..3 {
            let sum: f32 = (0..3).map(|j| v.at2(r, j)).sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
            for j in 0..3 {
                assert!(v.at2(r, j).is_finite(), "row {r} col {j} not finite");
            }
        }
        assert_eq!(v.at2(1, 0), 0.0, "masked entry of mixed row is 0");
        // Backward through the guarded row stays finite.
        let s = tape.sum(y);
        let grads = tape.backward(s);
        assert!(grads.by_param.is_empty());
    }

    #[test]
    fn softmax_nan_logit_poisons_row_even_when_rest_is_masked() {
        // `f32::max` skips NaN, so a max-then-"all masked?" test saw the
        // first two rows as zero-mass and returned them uniform.
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = tape.constant(Tensor::from_vec(
            vec![
                nan, ninf, ninf, ninf, ninf, nan, 0.5, nan, 1.0, ninf, ninf, ninf,
            ],
            &[4, 3],
        ));
        let y = tape.softmax_rows(x);
        let v = tape.value(y);
        for r in 0..3 {
            for j in 0..3 {
                assert!(v.at2(r, j).is_nan(), "row {r} col {j}: {}", v.at2(r, j));
            }
        }
        for j in 0..3 {
            assert_eq!(v.at2(3, j), 1.0 / 3.0, "all-masked row stays uniform");
        }
        let one = tape.constant(Tensor::vector(vec![nan]));
        let y = tape.softmax_rows(one);
        assert!(tape.value(y).data[0].is_nan(), "one-column NaN row");
    }

    #[test]
    fn tape_arena_recycles_buffers() {
        // Runs on this test's own thread, so the thread-local arena is
        // deterministic. Default mode (Blocked) pools; Reference
        // must not.
        TapeArena::clear();
        let mut store = ParamStore::new();
        let p = store.add("x", Tensor::vector(vec![1.0, 2.0, 3.0]));
        let w = store.add("w", Tensor::from_vec(vec![0.5; 12], &[3, 4]));
        // A forward + backward that mixes pooled buffers of several size
        // classes with buffers the pool never handed out (the `constant`
        // input, the scalars behind `sum` and the root gradient).
        let run = || {
            let mut tape = Tape::new(&store);
            let x = tape.param(p);
            let y = tape.tanh(x);
            let c = tape.constant(Tensor::from_vec(vec![0.25; 15], &[5, 3]));
            let lw = tape.param(w);
            let h = tape.matmul(c, lw);
            let att = tape.softmax_rows(h);
            let s1 = tape.sum(att);
            let s2 = tape.sum(y);
            let s = tape.add(s1, s2);
            let v = tape.scalar_value(s);
            let g = tape.backward(s);
            assert!(g.by_param[p].is_some() && g.by_param[w].is_some());
            v
        };
        let first = run();
        assert!(
            (first - (5.0 + 1f32.tanh() + 2f32.tanh() + 3f32.tanh())).abs() < 1e-5,
            "softmax rows sum to 1 each: {first}"
        );
        let warm = TapeArena::pooled();
        assert!(warm > 0, "dropped tape must repopulate the arena");
        // Identical tapes produce identical values from recycled storage,
        // and the pool holds exactly one tape's buffers however many
        // follow — foreign buffers are not hoarded.
        for _ in 0..6 {
            assert_eq!(run().to_bits(), first.to_bits());
            assert_eq!(TapeArena::pooled(), warm, "arena must not grow");
        }
        // Reference mode leaves the arena untouched in both directions.
        crate::kernel::with_mode(crate::kernel::KernelMode::Reference, || {
            let mut tape = Tape::new(&store);
            let x = tape.param(p);
            let s = tape.sum(x);
            let _ = tape.backward(s);
        });
        assert_eq!(
            TapeArena::pooled(),
            warm,
            "Reference mode must not touch the arena"
        );
    }

    #[test]
    fn shared_node_gradient_accumulates() {
        // y = x * x built via the same node twice: dy/dx = 2x.
        let mut store = ParamStore::new();
        let p = store.add("x", Tensor::vector(vec![3.0]));
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let y = tape.mul(x, x);
        let root = tape.sum(y);
        let grads = tape.backward(root);
        assert_eq!(grads.by_param[p].as_ref().unwrap().data, vec![6.0]);
    }

    #[test]
    fn constants_produce_no_param_grads() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let c = tape.constant(Tensor::vector(vec![1.0, 2.0]));
        let s = tape.sum(c);
        let grads = tape.backward(s);
        assert!(grads.by_param.is_empty());
        assert_eq!(tape.scalar_value(s), 3.0);
    }
}

#[cfg(test)]
mod ext_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gelu_matches_reference_values() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.constant(Tensor::vector(vec![-2.0, -1.0, 0.0, 1.0, 2.0]));
        let y = tape.gelu(x);
        // Reference values of the tanh-approximated GELU.
        let expect = [-0.0454, -0.1588, 0.0, 0.8412, 1.9546];
        for (got, want) in tape.value(y).data.iter().zip(expect) {
            assert!((got - want).abs() < 1e-3, "gelu {got} vs {want}");
        }
    }

    #[test]
    fn gelu_gradient_checks_against_finite_differences() {
        let mut store = ParamStore::new();
        let p = store.add("x", Tensor::vector(vec![-1.5, -0.2, 0.4, 1.7]));
        let mut tape = Tape::new(&store);
        let x = tape.param(p);
        let y = tape.gelu(x);
        let root = tape.sum(y);
        let grads = tape.backward(root);
        let g = grads.by_param[p].as_ref().unwrap();
        let eps = 1e-3f32;
        for k in 0..4 {
            let eval = |d: f32| {
                let mut s2 = store.clone();
                s2.value_mut(p).data[k] += d;
                let mut t2 = Tape::new(&s2);
                let x2 = t2.param(p);
                let y2 = t2.gelu(x2);
                let r2 = t2.sum(y2);
                t2.scalar_value(r2)
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            assert!(
                (numeric - g.data[k]).abs() < 1e-2,
                "elem {k}: {numeric} vs {}",
                g.data[k]
            );
        }
    }

    #[test]
    fn dropout_zeroes_and_rescales() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.constant(Tensor::vector(vec![1.0; 1000]));
        let mut rng = StdRng::seed_from_u64(5);
        let y = tape.dropout(x, 0.3, &mut rng);
        let v = tape.value(y);
        let zeros = v.data.iter().filter(|&&a| a == 0.0).count();
        // ~30% dropped.
        assert!((200..400).contains(&zeros), "zeros = {zeros}");
        // Survivors rescaled by 1/0.7; expectation preserved.
        let mean = v.sum() / 1000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean = {mean}");
        for &a in &v.data {
            assert!(a == 0.0 || (a - 1.0 / 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.constant(Tensor::vector(vec![1.0, 2.0]));
        let mut rng = StdRng::seed_from_u64(5);
        let y = tape.dropout(x, 0.0, &mut rng);
        assert_eq!(x, y, "p=0 must not add a node");
    }
}
