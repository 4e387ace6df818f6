//! Register-tiled, numerically-fixed matmul kernels, and the row
//! softmax written on the same lanes ([`softmax_rows`], whose own
//! canonical order is stated in `kernel/softmax.rs`).
//!
//! Every dense product in the autodiff substrate funnels through the
//! three GEMM entry points here ([`gemm_nn`], [`gemm_nt`], [`gemm_tn`]).
//! Both implementations — the scalar reference and the register tile —
//! honor one **canonical summation order** per output element:
//!
//! ```text
//! out[i][j] = (((init + t_0) + t_1) + … + t_{k-1}) * scale
//! ```
//!
//! where `init` is `0.0` (or `bias[j]` for the fused affine form), the
//! terms `t_p = a_term(p) · b_term(p)` are added in strictly ascending
//! `p`, each multiply and each addition is a single `f32` operation
//! (never a fused `mul_add`, which rounds once instead of twice), and
//! the trailing `* scale` multiply is applied only when `scale != 1.0`.
//! f32 arithmetic is deterministic for a fixed operand sequence, so any
//! two implementations that follow this contract produce **bitwise
//! identical** outputs — tiling reorders which *elements* are computed
//! when, never one element's operand sequence. This is the same contract
//! as the CEM ordered chunk merge (DESIGN.md §8), pushed down into the
//! kernels. The one thing the contract cannot pin is the sign/payload
//! of a NaN *result*, which Rust leaves unspecified: implementations
//! agree on where the NaNs are, not on their bits.
//!
//! The tile (`tile`) keeps an `MR × NR` block of outputs in registers
//! while `p` runs `0..k`; SIMD lanes run across output **columns**, so a
//! lane is one element's private accumulator chain. `gemm_tn` reads `Aᵀ`
//! through strides (the `MR` values a step needs are contiguous there),
//! `gemm_nt` first packs `Bᵀ` into a thread-local `[k,n]` scratch, and a
//! column tail narrower than a tile is packed the same way. The tile is
//! compiled twice — for the build's baseline target and for AVX2 — and
//! x86-64 picks at run time; that is a property of the machine, not an
//! option.
//!
//! There is deliberately **no zero-skip**: the historical
//! `a == 0.0 → continue` shortcut dropped the `0·x` term entirely,
//! which silently swallowed non-finite RHS values (`0·NaN` must be
//! `NaN`, `0·∞` must be `NaN`) and could flip `-0.0` sums. A kernel
//! that hides NaNs defeats the training loop's non-finite rollback
//! guard — exactly the "ML silently violating known semantics" failure
//! mode this repo exists to close.
//!
//! The implementation is selected per *thread* via [`with_mode`]; the
//! vendored rayon's pool workers run at the default (`with_mode`
//! restores the mode it replaced, so no chunk leaves another behind), so
//! a scalar-reference measurement is taken with serial execution on the
//! calling thread.

use fmml_obs::Counter;
use std::cell::{Cell, RefCell};

mod softmax;
pub use softmax::softmax_rows;
#[doc(hidden)]
pub use softmax::softmax_rows_pinned;

/// GEMM calls dispatched (all three shapes, both modes).
static CALLS: Counter = Counter::new("nn.matmul.calls");
/// Multiply-accumulate terms summed (`m·k·n` per call).
static FMAS: Counter = Counter::new("nn.matmul.fmas");
/// Calls answered by the scalar reference implementation.
static REFERENCE_CALLS: Counter = Counter::new("nn.matmul.reference_calls");

/// Which kernel implementation this thread uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Naive scalar triple loop — the ground-truth implementation of
    /// the canonical summation order. Also disables tape buffer reuse
    /// so benchmarks can reproduce the pre-kernel substrate honestly.
    Reference,
    /// Register-tiled kernel (the default).
    #[default]
    Blocked,
}

thread_local! {
    static MODE: Cell<KernelMode> = const { Cell::new(KernelMode::Blocked) };
    /// Packed `[k, w]` copy of a transposed or tile-tail RHS panel.
    static PACKED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's kernel mode set to `mode`, restoring the
/// previous mode on exit (including unwinds).
pub fn with_mode<R>(mode: KernelMode, f: impl FnOnce() -> R) -> R {
    struct Restore(KernelMode);
    impl Drop for Restore {
        fn drop(&mut self) {
            MODE.set(self.0);
        }
    }
    let _restore = Restore(MODE.replace(mode));
    f()
}

/// The kernel mode active on this thread.
pub fn current_mode() -> KernelMode {
    MODE.get()
}

/// Per-element init/epilogue of a GEMM.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmOpts<'a> {
    /// Row-broadcast accumulator init: `out[i][j]` starts at `bias[j]`
    /// instead of `0.0` (the fused affine form `x·W + b`).
    pub bias: Option<&'a [f32]>,
    /// Epilogue multiplier, applied once per element **only when it is
    /// not exactly `1.0`** (so the common case adds no op). `None`
    /// means 1.0.
    pub scale: Option<f32>,
}

/// `out[m,n] = (A[m,k] × B[k,n] + bias) · scale`, canonical order.
pub fn gemm_nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: GemmOpts,
) {
    gemm(Mat::rows(a, k), Mat::rows(b, n), out, [m, k, n], &opts);
}

/// `out[m,n] = (A[m,k] × B[n,k]ᵀ + bias) · scale` — `B` is given
/// row-major `[n,k]` (the transpose-cached form the backward pass uses
/// for `dA = G·Bᵀ`); the tile reads it through a packed `[k,n]` copy.
pub fn gemm_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    opts: GemmOpts,
) {
    gemm(Mat::rows(a, k), Mat::cols(b, k), out, [m, k, n], &opts);
}

/// `out[m,n] = (A[t,m]ᵀ × B[t,n] + bias) · scale` — `A` is given
/// row-major `[t,m]` (its transpose is taken logically), so the
/// backward pass computes `dW = Xᵀ·G` without materializing `Xᵀ`.
pub fn gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    t: usize,
    m: usize,
    n: usize,
    opts: GemmOpts,
) {
    gemm(Mat::cols(a, m), Mat::rows(b, n), out, [m, t, n], &opts);
}

/// Strided read-only matrix: element `(r, c)` is `data[r·rs + c·cs]`.
#[derive(Clone, Copy)]
struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// Row-major with `ld` elements per row.
    fn rows(data: &'a [f32], ld: usize) -> Self {
        let (rs, cs) = (ld, 1);
        Mat { data, rs, cs }
    }
    /// The transpose of a row-major matrix with `ld` elements per row.
    fn cols(data: &'a [f32], ld: usize) -> Self {
        let (rs, cs) = (1, ld);
        Mat { data, rs, cs }
    }
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

fn gemm(a: Mat, b: Mat, out: &mut [f32], [m, k, n]: [usize; 3], opts: &GemmOpts) {
    assert_eq!(a.data.len(), m * k, "lhs length");
    assert_eq!(b.data.len(), k * n, "rhs length");
    assert_eq!(out.len(), m * n, "out length");
    if let Some(bias) = opts.bias {
        assert_eq!(bias.len(), n, "bias length");
    }
    CALLS.inc();
    FMAS.add((m * k * n) as u64);
    match current_mode() {
        KernelMode::Reference => {
            REFERENCE_CALLS.inc();
            reference(a, b, out, [m, k, n], opts);
        }
        KernelMode::Blocked => tiled(a, b, out, [m, k, n], opts, true),
    }
}

fn reference(a: Mat, b: Mat, out: &mut [f32], [m, k, n]: [usize; 3], opts: &GemmOpts) {
    let scale = opts.scale.unwrap_or(1.0);
    for i in 0..m {
        for j in 0..n {
            let mut acc = opts.bias.map_or(0.0, |bias| bias[j]);
            for p in 0..k {
                acc += a.at(i, p) * b.at(p, j);
            }
            out[i * n + j] = if scale != 1.0 { acc * scale } else { acc };
        }
    }
}

// ---------------------------------------------------------------- tile

/// Output rows per tile.
const MR: usize = 4;
/// Lanes per vector; packed panels are padded to a multiple of it.
const NR: usize = 8;

/// `NR` `f32` lanes: one output column each in the GEMM tile, one
/// residue class of a row's columns in the softmax. Every method is, per
/// lane, one correctly-rounded IEEE operation or one integer bit
/// operation, so the two impls agree bit for bit by construction. `mul`
/// and `add` are separate — there is no fused form here on purpose.
trait Lanes: Copy {
    fn splat(v: f32) -> Self;
    /// # Safety
    /// `src` must be valid for reading `NR` floats (any alignment).
    unsafe fn load(src: *const f32) -> Self;
    #[inline(always)]
    fn from_array(src: &[f32; NR]) -> Self {
        // SAFETY: a `&[f32; NR]` is `NR` readable floats.
        unsafe { Self::load(src.as_ptr()) }
    }
    fn store(self, dst: &mut [f32; NR]);
    fn mul(self, rhs: Self) -> Self;
    fn add(self, rhs: Self) -> Self;
    fn sub(self, rhs: Self) -> Self;
    fn div(self, rhs: Self) -> Self;
    /// `if self > rhs { self } else { rhs }` — `rhs` whenever either side
    /// is NaN. Spelled that way, and not as `f32::max`, because that is
    /// exactly what the hardware `max` computes.
    fn max(self, rhs: Self) -> Self;
    /// `+0.0` in the lanes where `x < bound`, `self` in the others
    /// (those where `x` is NaN included).
    fn zero_where_lt(self, x: Self, bound: Self) -> Self;
    /// The lanes' bits as integers, `(bits + 127) << 23`, wrapping: for
    /// `self = 1.5·2²³ + n` with integer `-126 ≤ n ≤ 0` that is `2ⁿ`,
    /// built in the exponent field from the low bits of the sum.
    fn exp2_of_biased(self) -> Self;
}

/// The build's baseline target: plain arrays, vectorized as far as the
/// compiler manages. The only implementation off x86-64.
impl Lanes for [f32; NR] {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; NR]
    }
    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        // SAFETY: the caller guarantees `NR` readable floats at `src`.
        unsafe { src.cast::<[f32; NR]>().read_unaligned() }
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32; NR]) {
        *dst = self;
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|c| self[c] * rhs[c])
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        std::array::from_fn(|c| self[c] + rhs[c])
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        std::array::from_fn(|c| self[c] - rhs[c])
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        std::array::from_fn(|c| self[c] / rhs[c])
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        std::array::from_fn(|c| if self[c] > rhs[c] { self[c] } else { rhs[c] })
    }
    #[inline(always)]
    fn zero_where_lt(self, x: Self, bound: Self) -> Self {
        std::array::from_fn(|c| if x[c] < bound[c] { 0.0 } else { self[c] })
    }
    #[inline(always)]
    fn exp2_of_biased(self) -> Self {
        std::array::from_fn(|c| f32::from_bits(self[c].to_bits().wrapping_add(127) << 23))
    }
}

/// Spelled with intrinsics because auto-vectorization of the array form
/// is not dependable: small edits to the tile flipped the one-vector
/// instantiation between vector and fully scalar code (a factor of 10).
///
/// SAFETY (every method): the intrinsics need a CPU with AVX2. This impl
/// is named in exactly two places, `panel_rows_avx2` and
/// `softmax::rows_avx2`, each entered only after
/// `is_x86_feature_detected!("avx2")`. `load` forwards its caller's
/// guarantee to the unaligned load; `store` writes through a
/// `&mut [f32; NR]`, valid for the 32 bytes the unaligned store touches.
#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m256 {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        unsafe { std::arch::x86_64::_mm256_set1_ps(v) }
    }
    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        unsafe { std::arch::x86_64::_mm256_loadu_ps(src) }
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32; NR]) {
        unsafe { std::arch::x86_64::_mm256_storeu_ps(dst.as_mut_ptr(), self) }
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        unsafe { std::arch::x86_64::_mm256_mul_ps(self, rhs) }
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        unsafe { std::arch::x86_64::_mm256_add_ps(self, rhs) }
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        unsafe { std::arch::x86_64::_mm256_sub_ps(self, rhs) }
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        unsafe { std::arch::x86_64::_mm256_div_ps(self, rhs) }
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        unsafe { std::arch::x86_64::_mm256_max_ps(self, rhs) }
    }
    #[inline(always)]
    fn zero_where_lt(self, x: Self, bound: Self) -> Self {
        use std::arch::x86_64::{_mm256_andnot_ps, _mm256_cmp_ps, _CMP_LT_OQ};
        unsafe { _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, bound), self) }
    }
    #[inline(always)]
    fn exp2_of_biased(self) -> Self {
        use std::arch::x86_64::{
            _mm256_add_epi32, _mm256_castps_si256, _mm256_castsi256_ps, _mm256_set1_epi32,
            _mm256_slli_epi32,
        };
        unsafe {
            let biased = _mm256_add_epi32(_mm256_castps_si256(self), _mm256_set1_epi32(127));
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased))
        }
    }
}

/// `B` for the output columns `cols`: `k` rows of `ld` floats, panel
/// column 0 being output column `cols.start`, readable up to the next
/// multiple of `NR` past `cols.end`.
struct Panel<'a> {
    data: &'a [f32],
    ld: usize,
    cols: std::ops::Range<usize>,
}

/// Tile `out` in place over the columns `B` stores contiguously, and
/// through a packed copy for the rest: all of a transposed `B`, or the
/// `n % NR` tail columns of a row-major one. `simd = false` pins the
/// baseline instantiation (tests compare the two).
fn tiled(a: Mat, b: Mat, out: &mut [f32], [m, k, n]: [usize; 3], opts: &GemmOpts, simd: bool) {
    if m == 0 || n == 0 {
        return;
    }
    let direct = if b.cs == 1 { n - n % NR } else { 0 };
    if direct > 0 {
        let panel = Panel {
            data: b.data,
            ld: n,
            cols: 0..direct,
        };
        run_panel(simd, a, &panel, out, [m, k, n], opts);
    }
    if direct < n {
        PACKED.with_borrow_mut(|buf| {
            let ld = (n - direct).next_multiple_of(NR);
            // Pad lanes keep whatever an earlier call left there: they
            // are computed and never stored.
            buf.resize(k * ld, 0.0);
            for (p, row) in buf.chunks_exact_mut(ld).enumerate() {
                for (j, v) in row[..n - direct].iter_mut().enumerate() {
                    *v = b.at(p, direct + j);
                }
            }
            let panel = Panel {
                data: buf,
                ld,
                cols: direct..n,
            };
            run_panel(simd, a, &panel, out, [m, k, n], opts);
        });
    }
}

/// Fill the panel's output columns, with the AVX2 instantiation of
/// [`panel_rows`] when the CPU has it.
fn run_panel(simd: bool, a: Mat, b: &Panel, out: &mut [f32], dims: [usize; 3], opts: &GemmOpts) {
    #[cfg(target_arch = "x86_64")]
    if simd && is_x86_feature_detected!("avx2") {
        // SAFETY: `panel_rows_avx2` requires a CPU with AVX2, which the
        // line above just checked.
        return unsafe { panel_rows_avx2(a, b, out, dims, opts) };
    }
    let _ = simd;
    panel_rows::<[f32; NR]>(a, b, out, dims, opts);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panel_rows_avx2(a: Mat, b: &Panel, out: &mut [f32], dims: [usize; 3], opts: &GemmOpts) {
    panel_rows::<std::arch::x86_64::__m256>(a, b, out, dims, opts);
}

/// Cover the panel with tiles: `MR`-row blocks of `A`, and per block
/// two-vector tiles across the columns, then a one-vector one.
#[inline(always)]
fn panel_rows<V: Lanes>(
    a: Mat,
    b: &Panel,
    out: &mut [f32],
    [m, k, n]: [usize; 3],
    opts: &GemmOpts,
) {
    let width = (b.cols.end - b.cols.start).next_multiple_of(NR);
    // The last element of `A` and of the panel that any tile reads.
    assert!(k == 0 || (m - 1) * a.rs + (k - 1) * a.cs < a.data.len());
    assert!(k == 0 || (k - 1) * b.ld + width <= b.data.len());
    for i0 in (0..m).step_by(MR) {
        // Rows past the edge repeat the last one: computed, not stored.
        let rows: [usize; MR] = std::array::from_fn(|r| (i0 + r).min(m - 1) * a.rs);
        let orows = &mut out[i0 * n..(i0 + MR).min(m) * n];
        let mut jp = 0;
        // SAFETY (both calls): the two `assert!`s above are `tile`'s
        // bounds — `rows[r] ≤ (m-1)·rs`, and the loop conditions keep
        // `jp + NV·NR ≤ width` (`jp` and `width` are multiples of `NR`).
        while width - jp >= 2 * NR {
            unsafe { tile::<V, 2>(a, rows, k, b, jp, orows, n, opts) };
            jp += 2 * NR;
        }
        if jp < width {
            unsafe { tile::<V, 1>(a, rows, k, b, jp, orows, n, opts) };
        }
    }
}

/// One block of `MR` rows × `NV` vectors of outputs, held in `acc`
/// while `p` ascends: lane `c` of `acc[r][v]` is output
/// `(i0 + r, cols.start + jp + v·NR + c)` and nothing else, so its
/// additions happen in the canonical order. `rows[r]` is the offset of
/// `A(i0 + r, 0)`.
///
/// # Safety
/// With `k > 0`, `rows[r] + (k-1)·a.cs` must index into `a.data` for
/// every `r`, and `(k-1)·b.ld + jp + NV·NR` must not exceed
/// `b.data.len()`: the loop reads `A` and the panel unchecked up to there.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<V: Lanes, const NV: usize>(
    a: Mat,
    rows: [usize; MR],
    k: usize,
    b: &Panel,
    jp: usize,
    orows: &mut [f32],
    n: usize,
    opts: &GemmOpts,
) {
    let j0 = b.cols.start + jp;
    // Only an edge tile is narrower than its vectors; the full-width
    // copies below have a constant length and compile to vector moves.
    let nr = (NV * NR).min(b.cols.end - j0);
    let full = nr == NV * NR;
    let mut init = [[0.0f32; NR]; NV];
    match opts.bias {
        Some(bias) if full => init
            .as_flattened_mut()
            .copy_from_slice(&bias[j0..j0 + NV * NR]),
        Some(bias) => init.as_flattened_mut()[..nr].copy_from_slice(&bias[j0..j0 + nr]),
        None => {}
    }
    // SAFETY: `init[v]` is `NR` floats.
    let mut acc = [init.map(|v| unsafe { V::load(v.as_ptr()) }); MR];
    for p in 0..k {
        // SAFETY: `p ≤ k-1`, so vector `v` ends at or before
        // `(k-1)·ld + jp + NV·NR`, inside `b.data` by the contract.
        let bv: [V; NV] = std::array::from_fn(|v| unsafe {
            V::load(b.data.as_ptr().add(p * b.ld + jp + v * NR))
        });
        for r in 0..MR {
            // SAFETY: `p ≤ k-1`, so the index is at most
            // `rows[r] + (k-1)·cs`, inside `a.data` by the contract.
            let av = V::splat(unsafe { *a.data.get_unchecked(rows[r] + p * a.cs) });
            for v in 0..NV {
                acc[r][v] = acc[r][v].add(av.mul(bv[v]));
            }
        }
    }
    let scale = opts.scale.filter(|&s| s != 1.0).map(V::splat);
    for r in 0..MR.min(orows.len() / n) {
        let mut vals = [[0.0f32; NR]; NV];
        for v in 0..NV {
            scale
                .map_or(acc[r][v], |s| acc[r][v].mul(s))
                .store(&mut vals[v]);
        }
        let orow = &mut orows[r * n + j0..][..nr];
        if full {
            orow.copy_from_slice(vals.as_flattened());
        } else {
            orow.copy_from_slice(&vals.as_flattened()[..nr]);
        }
    }
}

/// Snapshot of the kernel counters (for benchmark deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    pub calls: u64,
    pub fmas: u64,
    pub reference_calls: u64,
    /// Always 0, like `parallel_shards`: intra-GEMM sharding is gone.
    /// Kept only because the frozen `benchmark/` reads the field.
    pub parallel_calls: u64,
    pub parallel_shards: u64,
}

/// Current cumulative kernel counters.
pub fn stats() -> KernelStats {
    KernelStats {
        calls: CALLS.get(),
        fmas: FMAS.get(),
        reference_calls: REFERENCE_CALLS.get(),
        parallel_calls: 0,
        parallel_shards: 0,
    }
}

impl std::ops::Sub for KernelStats {
    type Output = KernelStats;
    fn sub(self, rhs: KernelStats) -> KernelStats {
        KernelStats {
            calls: self.calls - rhs.calls,
            fmas: self.fmas - rhs.fmas,
            reference_calls: self.reference_calls - rhs.reference_calls,
            parallel_calls: 0,
            parallel_shards: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (no RNG dependency).
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

    /// Equal bits on every non-NaN element (±0 and ±∞ included); NaNs
    /// must sit at the same positions (their sign/payload is unspecified).
    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    /// The three products of one shape, with bias and scale, computed by `f`.
    fn products(
        [m, k, n]: [usize; 3],
        f: impl Fn(Mat, Mat, &mut [f32], [usize; 3], &GemmOpts),
    ) -> [Vec<f32>; 3] {
        let a = fill(m * k, 1 + (m * 31 + k * 7 + n) as u64);
        let b = fill(k * n, 99 + (m + k + n) as u64);
        let bias = fill(n, 3);
        let opts = GemmOpts {
            bias: Some(&bias),
            scale: Some(0.5),
        };
        [
            (Mat::rows(&a, k), Mat::rows(&b, n)),
            (Mat::rows(&a, k), Mat::cols(&b, k)),
            (Mat::cols(&a, m), Mat::rows(&b, n)),
        ]
        .map(|(a, b)| {
            let mut out = vec![f32::NAN; m * n];
            f(a, b, &mut out, [m, k, n], &opts);
            out
        })
    }

    /// Shapes straddling the tile edges in every dimension, the empty
    /// ones, and the ones the paper model runs at `T = 300`.
    const SHAPES: [[usize; 3]; 14] = [
        [1, 1, 1],
        [3, 5, 7],
        [4, 16, 4],
        [17, 33, 9],
        [2, 300, 5],
        [5, 3, 25],
        [0, 4, 4],
        [4, 0, 4],
        [4, 4, 0],
        [300, 8, 300],
        [300, 300, 8],
        [300, 16, 32],
        [10, 4, 10],
        [7, 2, 19],
    ];

    #[test]
    fn nn_known_values_and_bias_scale() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        gemm_nn(&a, &b, &mut out, 2, 2, 2, GemmOpts::default());
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
        let bias = [1.0, -1.0];
        let opts = GemmOpts {
            bias: Some(&bias),
            scale: Some(2.0),
        };
        gemm_nn(&a, &b, &mut out, 2, 2, 2, opts);
        assert_eq!(out, [40.0, 42.0, 88.0, 98.0]);
    }

    #[test]
    fn reference_baseline_and_simd_tiles_agree_bitwise() {
        // `simd = true` is the AVX2 instantiation where the CPU has it
        // (and the baseline again elsewhere).
        for dims in SHAPES {
            let want = products(dims, reference);
            let base = products(dims, |a, b, out, d, o| tiled(a, b, out, d, o, false));
            let simd = products(dims, |a, b, out, d, o| tiled(a, b, out, d, o, true));
            for (i, what) in ["nn", "nt", "tn"].iter().enumerate() {
                assert_bits_eq(&want[i], &base[i], &format!("baseline {what} {dims:?}"));
                assert_bits_eq(&base[i], &simd[i], &format!("simd {what} {dims:?}"));
            }
        }
    }

    #[test]
    fn nt_scaled_matches_transposed_nn_bitwise() {
        // `s·A·Bᵀ` with `B` row-major (the attention score) is the
        // product with a materialized `Bᵀ` and one trailing multiply.
        let (m, k, n) = (4, 2, 3);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..n * k).map(|i| (i as f32).cos()).collect();
        let bt: Vec<f32> = (0..k * n).map(|i| b[(i % n) * k + i / n]).collect();
        for mode in [KernelMode::Reference, KernelMode::Blocked] {
            with_mode(mode, || {
                let opts = GemmOpts {
                    bias: None,
                    scale: Some(0.25),
                };
                let mut fused = [0.0; 12];
                gemm_nt(&a, &b, &mut fused, m, k, n, opts);
                let mut staged = [0.0; 12];
                gemm_nn(&a, &bt, &mut staged, m, k, n, GemmOpts::default());
                let staged = staged.map(|x| x * 0.25);
                assert_bits_eq(&fused, &staged, &format!("{mode:?}"));
            });
        }
    }

    #[test]
    fn zero_times_nan_propagates_in_every_mode() {
        // The historical zero-skip would silently output 0 here.
        let a = [0.0, 0.0];
        let b = [f32::NAN, 1.0, f32::INFINITY, 2.0];
        for mode in [KernelMode::Reference, KernelMode::Blocked] {
            with_mode(mode, || {
                let mut out = [0.0f32; 2];
                gemm_nn(&a, &b, &mut out, 1, 2, 2, GemmOpts::default());
                assert!(out[0].is_nan(), "{mode:?}: 0·NaN + 0·∞ must be NaN");
                assert!(out[1].is_nan() || out[1] == 0.0);
            });
        }
    }

    #[test]
    fn counters_record_calls_and_fmas() {
        // Global counters (tests run concurrently): assert monotone deltas.
        let before = stats();
        let mut out = [0.0; 6];
        gemm_nn(
            &[1.0; 8],
            &[1.0; 12],
            &mut out,
            2,
            4,
            3,
            GemmOpts::default(),
        );
        with_mode(KernelMode::Reference, || {
            gemm_nt(
                &[1.0; 8],
                &[1.0; 12],
                &mut out,
                2,
                4,
                3,
                GemmOpts::default(),
            )
        });
        let d = stats() - before;
        assert!(d.calls >= 2, "calls delta {}", d.calls);
        assert!(d.fmas >= 48, "fmas delta {}", d.fmas);
        assert!(d.reference_calls >= 1);
        assert_eq!((d.parallel_calls, d.parallel_shards), (0, 0));
    }

    #[test]
    fn mode_is_restored_on_unwind() {
        assert_eq!(current_mode(), KernelMode::Blocked);
        let r = std::panic::catch_unwind(|| with_mode(KernelMode::Reference, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(current_mode(), KernelMode::Blocked);
    }
}
