//! The thread-local storage a tape's buffers are recycled through.

use super::{Node, BUF_HITS, BUF_MISSES};
use crate::tensor::{Shape, Tensor};
use std::cell::RefCell;

/// Thread-local recycling arena for tape storage. A dropped [`Tape`](super::Tape)
/// returns its node vector, index list, gradient slots and every node's
/// `f32` buffer here; the next `Tape::new` on the same thread starts from
/// that storage instead of allocating. Training builds one tape per
/// example with an identical op sequence, so after the first sample the
/// pool reaches a steady state where forward **and** backward run
/// allocation-free, and stays at that one tape's high-water mark however
/// many tapes follow. The threads that build tapes live for the process
/// (callers, and the vendored rayon's persistent workers), so each one
/// warms its own arena once.
///
/// [`KernelMode::Reference`](crate::kernel::KernelMode::Reference) disables the arena (nothing is taken or
/// returned), so benchmark reference passes reproduce the historical
/// allocate-per-sample substrate honestly.
#[derive(Default)]
pub struct TapeArena {
    pub(super) nodes: Vec<Node>,
    pub(super) bufs: BufPool,
    pub(super) idx: Vec<usize>,
    pub(super) grads: Vec<Option<Tensor>>,
}

/// Capacity classes of the pool: class `c` holds buffers with
/// `2^c ≤ capacity < 2^(c+1)` (the last class is open-ended).
pub(super) const CLASSES: usize = 32;

/// Free `f32` buffers by capacity class. A request is served from the
/// smallest class that is sure to fit it, so a `[T]` buffer is never
/// grown into a `[T,T]` one just because it was next in line (with one
/// LIFO list that happened on every tape, and the arena crept towards
/// `count × largest`).
#[derive(Default)]
pub(super) struct BufPool {
    free: [Vec<Vec<f32>>; CLASSES],
    /// Buffers handed out per class and not yet returned. [`Self::put`]
    /// only fills these vacancies: a buffer the pool never handed out (a
    /// caller-built `constant`, a `Tensor::scalar`) is freed instead of
    /// pooled, so the pool never holds more than it has been asked for.
    pub(super) out: [u32; CLASSES],
}

impl BufPool {
    pub(super) fn len(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// A buffer with capacity for `len` floats, contents and length
    /// unspecified.
    pub(super) fn take(&mut self, len: usize) -> Vec<f32> {
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

    pub(super) fn put(&mut self, buf: Vec<f32>) {
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

thread_local! {
    pub(super) static ARENA: RefCell<TapeArena> = RefCell::new(TapeArena::default());
}

impl TapeArena {
    /// Number of recycled buffers pooled on this thread.
    pub fn pooled() -> usize {
        ARENA.with(|a| a.borrow().bufs.len())
    }

    /// Drop all pooled storage on this thread.
    pub fn clear() {
        ARENA.with(|a| *a.borrow_mut() = TapeArena::default());
    }
}

/// A pooled buffer of length 0 with room for `len` floats (for `extend`).
pub(super) fn take_buf(pool: &mut BufPool, len: usize) -> Vec<f32> {
    let mut b = pool.take(len);
    b.clear();
    b
}

/// A pooled buffer of exactly `len` zeros (for indexed writes).
pub(super) fn take_buf_zeroed(pool: &mut BufPool, len: usize) -> Vec<f32> {
    let mut b = take_buf(pool, len);
    b.resize(len, 0.0);
    b
}

/// A pooled buffer of exactly `len` floats with unspecified (stale)
/// values, for a producer that writes every element — a GEMM, a row-wise
/// map — and so has no use for a zeroing pass first.
pub(super) fn take_buf_unfilled(pool: &mut BufPool, len: usize) -> Vec<f32> {
    let mut b = pool.take(len);
    b.resize(len, 0.0);
    b
}

pub(super) fn pooled_copy(pool: &mut BufPool, t: &Tensor) -> Tensor {
    let mut data = take_buf(pool, t.len());
    data.extend_from_slice(&t.data);
    Tensor {
        data,
        shape: t.shape,
    }
}

pub(super) fn pooled_map(pool: &mut BufPool, t: &Tensor, mut f: impl FnMut(f32) -> f32) -> Tensor {
    let mut data = take_buf(pool, t.len());
    data.extend(t.data.iter().map(|&x| f(x)));
    Tensor {
        data,
        shape: t.shape,
    }
}

pub(super) fn pooled_zip(
    pool: &mut BufPool,
    x: &Tensor,
    y: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Tensor {
    assert_eq!(x.shape, y.shape, "shape mismatch");
    let mut data = take_buf(pool, x.len());
    data.extend(x.data.iter().zip(&y.data).map(|(&a, &b)| f(a, b)));
    Tensor {
        data,
        shape: x.shape,
    }
}

pub(super) fn pooled_scalar(pool: &mut BufPool, v: f32) -> Tensor {
    let mut data = take_buf(pool, 1);
    data.push(v);
    Tensor {
        data,
        shape: Shape::d1(1),
    }
}
