//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records a DAG of operations as it executes the forward pass;
//! [`Tape::backward`] then walks the nodes in reverse, accumulating
//! gradients. Parameters live outside the tape in a
//! [`crate::params::ParamStore`], which the tape borrows for its whole
//! life: a leaf created with [`Tape::param`] holds no value of its own —
//! every read of it is a read of the store — and remembers its
//! [`crate::params::ParamId`] so backward can report per-parameter
//! gradients for the optimizer.
//!
//! The op vocabulary is deliberately small but sufficient for a
//! transformer encoder *and* the paper's constraint terms: fused affine
//! maps, layer norm and multi-head attention ([`Tape::attention`], every
//! head of every window in one op), cumulative sums (EMD loss),
//! max/select reductions (C1/C2 residuals) and tanh/relu (the
//! differentiable relaxation of C3).

mod arena;
mod attention;
mod grad;
mod ops;
#[cfg(test)]
mod tests;

use crate::kernel::KernelMode;
use crate::params::{Gradients, ParamId, ParamStore};
use crate::tensor::{Shape, Tensor};
pub use arena::TapeArena;
use arena::{pooled_scalar, take_buf, BufPool, ARENA, CLASSES};
use fmml_obs::Counter;
use grad::propagate;

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
    /// A parameter, read in place from the store.
    Param(ParamId),
    Add(NodeId, NodeId),
    Mul(NodeId, NodeId),
    ScalarMul(NodeId, f32),
    // The constant is not needed by the backward pass (d(x+k)/dx = 1) but
    // is kept for graph debugging.
    ScalarAdd(NodeId, #[allow(dead_code)] f32),
    Tanh(NodeId),
    Relu(NodeId),
    Sum(NodeId),
    Mean(NodeId),
    Abs(NodeId),
    CumSum(NodeId),
    MaxReduce(NodeId),
    /// Gather at the indices `Tape::idx[at..at + len]`.
    Select {
        x: NodeId,
        at: usize,
        len: usize,
    },
    /// `count` runs of `len` elements of the row-major data, run `i`
    /// starting at `start + i·step`: a 1-D slice or a run of whole rows
    /// of a 2-D tensor (`count = 1`), or the same rows of each of
    /// `count` stacked windows.
    Slice {
        x: NodeId,
        start: usize,
        len: usize,
        step: usize,
        count: usize,
    },
    AddBias(NodeId, NodeId),
    /// Fused `x·W + b` (one kernel call; bias is the accumulator init).
    Affine {
        x: NodeId,
        w: NodeId,
        b: NodeId,
    },
    /// Multi-head attention over `windows` stacked windows; `probs` is
    /// the leaf holding its softmax probabilities for backward.
    Attention {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        probs: NodeId,
        heads: usize,
        windows: usize,
    },
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
    },
    /// Reinterpret a `[1,n]` or `[n,1]` tensor as 1-D `[n]`.
    Flatten(NodeId),
}

struct Node {
    /// Empty for a parameter: see [`Values`].
    value: Tensor,
    op: Op,
}

/// The one way to read a node's value — for the ops, for backward and
/// for [`Tape::value`]: a parameter's value is the store's, read in
/// place, every other node's its own.
#[derive(Clone, Copy)]
struct Values<'a> {
    store: &'a ParamStore,
    nodes: &'a [Node],
}

impl<'a> Values<'a> {
    fn get(self, id: NodeId) -> &'a Tensor {
        match self.nodes[id].op {
            Op::Param(pid) => self.store.value(pid),
            _ => &self.nodes[id].value,
        }
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
    /// Index lists of `Select` nodes, end to end.
    idx: Vec<usize>,
    /// Per-node gradient slots of [`Tape::backward_into`], empty between
    /// sweeps.
    grads: Vec<Option<Tensor>>,
    pooled: bool,
}

impl<'s> Tape<'s> {
    pub fn new(store: &'s ParamStore) -> Tape<'s> {
        TAPES.inc();
        let pooled = crate::kernel::current_mode() != KernelMode::Reference;
        let arena = if pooled {
            ARENA
                .try_with(|a| std::mem::take(&mut *a.borrow_mut()))
                .unwrap_or_default()
        } else {
            TapeArena::default()
        };
        Tape {
            store,
            nodes: arena.nodes,
            pool: arena.bufs,
            idx: arena.idx,
            grads: arena.grads,
            pooled,
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node { value, op });
        self.nodes.len() - 1
    }

    fn values(&self) -> Values<'_> {
        Values {
            store: self.store,
            nodes: &self.nodes,
        }
    }

    /// The node values and the buffer pool, borrowed apart: what an op
    /// reads and where it writes.
    fn split(&mut self) -> (Values<'_>, &mut BufPool) {
        let values = Values {
            store: self.store,
            nodes: &self.nodes,
        };
        (values, &mut self.pool)
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        self.values().get(id)
    }

    /// Scalar value of a rank-1, length-1 node.
    pub fn scalar_value(&self, id: NodeId) -> f32 {
        let v = self.value(id);
        debug_assert_eq!(v.len(), 1);
        v.data[0]
    }

    // ---- leaves ----

    /// A leaf standing for a parameter (gradient is reported for it). It
    /// copies nothing: its value is read from the store.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        let none = Tensor {
            data: Vec::new(),
            shape: Shape::d1(0),
        };
        self.push(none, Op::Param(id))
    }

    /// A constant leaf (input data; no gradient reported).
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Leaf)
    }

    /// A constant leaf of `shape` in pooled storage, which `fill`
    /// extends (from empty) with exactly the tensor's elements — no
    /// intermediate `Tensor` for a feature matrix or a positional table.
    pub fn constant_with(&mut self, shape: &[usize], fill: impl FnOnce(&mut Vec<f32>)) -> NodeId {
        let shape = Shape::new(shape);
        let len = shape.iter().product::<usize>();
        let mut buf = take_buf(&mut self.pool, len);
        fill(&mut buf);
        assert_eq!(buf.len(), len, "shape/data mismatch");
        self.push(Tensor { data: buf, shape }, Op::Leaf)
    }

    pub fn scalar(&mut self, v: f32) -> NodeId {
        let t = pooled_scalar(&mut self.pool, v);
        self.push(t, Op::Leaf)
    }
}

impl Tape<'_> {
    // ---- backward ----

    /// Reverse-mode sweep from a scalar `root`; returns per-parameter
    /// gradients in a fresh accumulator ([`Tape::backward_into`] reuses
    /// one).
    pub fn backward(&mut self, root: NodeId) -> Gradients {
        let mut out = Gradients::new(self.store.len());
        self.backward_into(root, &mut out);
        out
    }

    /// Reverse-mode sweep from a scalar `root`, overwriting `out` with
    /// the per-parameter gradients. A parameter's first contribution is
    /// copied into `out` and later ones are added in node order, so the
    /// result does not depend on what `out` held. Takes `&mut self` so the
    /// gradient buffers it takes can be recycled into the tape's pool
    /// afterwards: on a warm arena, with an `out` that held the same
    /// parameters before, backward allocates nothing.
    pub fn backward_into(&mut self, root: NodeId, out: &mut Gradients) {
        assert_eq!(self.value(root).len(), 1, "backward root must be scalar");
        assert_eq!(
            out.by_param.len(),
            self.store.len(),
            "gradient/param mismatch"
        );
        let mut grads = std::mem::take(&mut self.grads);
        grads.resize_with(self.nodes.len(), || None);
        grads[root] = Some(pooled_scalar(&mut self.pool, 1.0));

        for id in (0..=root).rev() {
            let Some(g) = grads[id].take() else { continue };
            {
                let Tape {
                    store,
                    ref nodes,
                    ref idx,
                    ref mut pool,
                    ..
                } = *self;
                propagate(Values { store, nodes }, idx, pool, id, &g, &mut grads);
            }
            grads[id] = Some(g);
        }

        out.clear();
        for (id, node) in self.nodes.iter().enumerate() {
            if let (Op::Param(pid), Some(g)) = (&node.op, &grads[id]) {
                out.add(*pid, g);
            }
        }
        if self.pooled {
            for g in grads.drain(..).flatten() {
                self.pool.put(g.data);
            }
        }
        grads.clear();
        self.grads = grads;
    }
}

impl Drop for Tape<'_> {
    /// Return the tape's storage and every node's buffer to the
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
        let mut idx = std::mem::take(&mut self.idx);
        idx.clear();
        // Empty unless a sweep unwound midway.
        let mut grads = std::mem::take(&mut self.grads);
        grads.clear();
        let _ = ARENA.try_with(|a| {
            let mut a = a.borrow_mut();
            // Another tape on this thread may have returned first (tapes
            // can nest); keep the larger storage, never the sum.
            if a.nodes.capacity() < nodes.capacity() {
                a.nodes = nodes;
            }
            if a.bufs.len() < pool.len() {
                a.bufs = pool;
            }
            if a.idx.capacity() < idx.capacity() {
                a.idx = idx;
            }
            if a.grads.capacity() < grads.capacity() {
                a.grads = grads;
            }
        });
    }
}
