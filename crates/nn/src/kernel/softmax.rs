//! Row softmax on the [`Lanes`] tile: the second **canonical order**.
//!
//! One arithmetic definition ([`row`]), compiled twice like the GEMM
//! tile — `[f32; NR]` for the build's baseline target (the only path off
//! x86-64, and what [`KernelMode::Reference`] runs: it *is* the scalar
//! statement of the order) and `__m256` after run-time AVX2 detection.
//! Per row `x_0 … x_{n-1}`:
//!
//! ```text
//! m   = max_j x_j                      (NaNs skipped; order-free)
//! e_j = exp̃(x_j − m)
//! s_c = ((0.0 + e_c) + e_{c+8}) + e_{c+16} + …          c = 0..8
//! z   = ((s_0 + s_4) + (s_2 + s_6)) + ((s_1 + s_5) + (s_3 + s_7))
//! y_j = e_j / z
//! ```
//!
//! so lane `c` owns the columns `j ≡ c (mod 8)` in ascending `j`, and the
//! eight lane sums meet in one fixed tree. A row tail narrower than a
//! vector is padded with `−∞`: neutral for the max, and `exp̃(−∞) = +0.0`
//! added to a lane sum (which is never `−0.0`) changes no bit.
//!
//! `exp̃` ([`exp_lanes`]) is the Cephes `expf` scheme on `x ≤ 0`, spelled
//! only with [`Lanes`] methods — each one correctly-rounded IEEE
//! operation or one integer bit operation per lane, never libm, never a
//! fused multiply-add — which is why the two instantiations agree bit for
//! bit: `n = (x·log₂e + 1.5·2²³) − 1.5·2²³` rounds to the nearest integer
//! by the magic add, `r = (x − n·C1) − n·C2` is the Cody–Waite reduction
//! to `|r| ≤ ln2/2`, a degree-5 Horner polynomial gives
//! `eʳ ≈ (p(r)·r² + r) + 1`, and `2ⁿ` is built in the exponent field.
//! Lanes with `x < LO = −87.33654` (so `−∞` too) are `+0.0`, whatever
//! the steps above made of them; NaN stays NaN; `exp̃(0) = 1.0` exactly,
//! so `z ≥ 1` on every row that reaches the division. Measured against
//! `f64::exp` over all 1.12·10⁹ `f32` in `[LO, 0]`: see
//! `tests::exp_exhaustive`.
//!
//! Rows without a largest finite entry: a NaN logit anywhere makes its
//! whole row NaN (through `z`, or through the scan below when everything
//! else is `−∞`) — a softmax that hid NaNs would defeat the training
//! loop's non-finite rollback guard, as a zero-skipping GEMM would. Only
//! a row whose every entry is `−∞` (a fully masked attention row) is
//! returned **uniform**, the limit of softmax as all logits fall
//! together. A `+∞` logit gives `∞ − ∞` and so a NaN row.

use super::{current_mode, KernelMode, Lanes, NR};
use fmml_obs::Counter;

/// Elements normalized (`rows · cols` per call): the softmax's exact
/// work count, next to `nn.matmul.fmas`.
static ELEMS: Counter = Counter::new("nn.softmax.elems");

/// Below this `exp̃` is `+0.0`: `LO·log₂e` still rounds to `−126`, the
/// smallest normal exponent.
const LO: f32 = -87.336_54;
/// `1.5·2²³`: adding it leaves the sum's integer part in the low
/// mantissa bits, rounded to nearest.
const MAGIC: f32 = 12_582_912.0;
/// `ln 2` split so that `n·LN2_HI` is exact for `|n| ≤ 126`:
/// Cephes' `0.693359375` has nine significant bits.
const LN2_HI: f32 = 355.0 / 512.0;
#[allow(clippy::excessive_precision)] // Cephes' constants as published
const LN2_LO: f32 = -2.121_944_40e-4;
#[allow(clippy::excessive_precision)]
const POLY: [f32; 6] = [
    1.987_569_150_0e-4,
    1.398_199_950_7e-3,
    8.333_451_907_3e-3,
    4.166_579_589_4e-2,
    1.666_666_545_9e-1,
    5.000_000_120_1e-1,
];

/// Softmax of each `cols`-long row of `x` into `out`, by the
/// instantiation this thread's [`KernelMode`] and the CPU select.
pub fn softmax_rows(x: &[f32], out: &mut [f32], cols: usize) {
    softmax_rows_pinned(current_mode() != KernelMode::Reference, x, out, cols);
}

/// [`softmax_rows`] with the choice made by the caller: `simd = false`
/// pins the baseline instantiation (tests compare the two).
#[doc(hidden)]
pub fn softmax_rows_pinned(simd: bool, x: &[f32], out: &mut [f32], cols: usize) {
    assert_eq!(x.len(), out.len(), "out length");
    if x.is_empty() {
        return;
    }
    assert!(x.len().is_multiple_of(cols), "whole rows");
    ELEMS.add(x.len() as u64);
    #[cfg(target_arch = "x86_64")]
    if simd && is_x86_feature_detected!("avx2") {
        // SAFETY: `rows_avx2` requires a CPU with AVX2, which the line
        // above just checked.
        return unsafe { rows_avx2(x, out, cols) };
    }
    let _ = simd;
    rows::<[f32; NR]>(x, out, cols);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn rows_avx2(x: &[f32], out: &mut [f32], cols: usize) {
    rows::<std::arch::x86_64::__m256>(x, out, cols);
}

#[inline(always)]
fn rows<V: Lanes>(x: &[f32], out: &mut [f32], cols: usize) {
    for (xr, yr) in x.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        row::<V>(xr, yr);
    }
}

/// One row, in the order the module header states.
#[inline(always)]
fn row<V: Lanes>(x: &[f32], y: &mut [f32]) {
    let (xv, xt) = x.as_chunks::<NR>();
    let (yv, yt) = y.as_chunks_mut::<NR>();
    let pad: [f32; NR] = std::array::from_fn(|c| *xt.get(c).unwrap_or(&f32::NEG_INFINITY));

    // `x.max(acc)` keeps `acc` when `x` is NaN, so no lane is ever NaN
    // and the horizontal step cannot depend on its order.
    let mut mv = V::from_array(&pad).max(V::splat(f32::NEG_INFINITY));
    for c in xv {
        mv = V::from_array(c).max(mv);
    }
    let mut lanes = [0.0; NR];
    mv.store(&mut lanes);
    let m = lanes
        .into_iter()
        .fold(f32::NEG_INFINITY, |m, v| if v > m { v } else { m });
    if m == f32::NEG_INFINITY {
        // Nothing but `−∞` and NaN in this row.
        let poisoned = x.iter().any(|v| v.is_nan());
        y.fill(if poisoned {
            f32::NAN
        } else {
            1.0 / x.len() as f32
        });
        return;
    }

    // Not a closure: one would be a function of its own, outside the
    // AVX2 instantiation's `target_feature`, and the intrinsics in it
    // would stay calls (20× slower).
    #[inline(always)]
    fn exp_into<V: Lanes>(c: &[f32; NR], m: V, o: &mut [f32; NR], sums: V) -> V {
        let e = exp_lanes(V::from_array(c).sub(m));
        e.store(o);
        sums.add(e)
    }
    let mv = V::splat(m);
    let mut sums = V::splat(0.0);
    for (c, o) in xv.iter().zip(yv.iter_mut()) {
        sums = exp_into(c, mv, o, sums);
    }
    let mut et = [0.0; NR];
    if !xt.is_empty() {
        sums = exp_into(&pad, mv, &mut et, sums);
    }
    let mut s = [0.0; NR];
    sums.store(&mut s);
    let z = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));

    let zv = V::splat(z);
    for o in yv {
        V::from_array(o).div(zv).store(o);
    }
    for (o, e) in yt.iter_mut().zip(et) {
        *o = e / z;
    }
}

/// `exp̃`, lane by lane, for `x ≤ 0` (and NaN → NaN); see the module
/// header. Lanes below [`LO`] run through the same steps with
/// out-of-range `n` and are zeroed at the end.
#[inline(always)]
fn exp_lanes<V: Lanes>(x: V) -> V {
    let biased = x
        .mul(V::splat(std::f32::consts::LOG2_E))
        .add(V::splat(MAGIC));
    let n = biased.sub(V::splat(MAGIC));
    let r = x.sub(n.mul(V::splat(LN2_HI))).sub(n.mul(V::splat(LN2_LO)));
    let mut p = V::splat(POLY[0]);
    for c in &POLY[1..] {
        p = p.mul(r).add(V::splat(*c));
    }
    let y = p.mul(r.mul(r)).add(r).add(V::splat(1.0));
    y.mul(biased.exp2_of_biased())
        .zero_where_lt(x, V::splat(LO))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `exp̃` of eight values by both instantiations (the AVX2 one called
    /// directly where the CPU has it), asserted bit-equal.
    fn exp8(x: [f32; NR]) -> [f32; NR] {
        let base = exp_lanes(x);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            #[target_feature(enable = "avx2")]
            fn avx2(x: &[f32; NR]) -> [f32; NR] {
                let mut out = [0.0; NR];
                exp_lanes(std::arch::x86_64::__m256::from_array(x)).store(&mut out);
                out
            }
            // SAFETY: AVX2 was detected on the line above.
            let simd = unsafe { avx2(&x) };
            for c in 0..NR {
                assert!(
                    base[c].to_bits() == simd[c].to_bits()
                        || (base[c].is_nan() && simd[c].is_nan()),
                    "exp̃({}) baseline {} vs avx2 {}",
                    x[c],
                    base[c],
                    simd[c]
                );
            }
        }
        base
    }

    /// Distance from `f64::exp` in units of the exact value's `f32` ulp.
    fn ulps_off(x: f32, got: f32) -> f64 {
        let want = (x as f64).exp();
        let ulp = f64::from(f32::from_bits((want as f32).to_bits() + 1)) - f64::from(want as f32);
        ((got as f64) - want).abs() / ulp
    }

    /// The worst error over the negative `f32` bit patterns
    /// `from, from + step, … ≤ to` (`0x8000_0000` is `−0.0`; larger bits
    /// are more negative), every result checked to lie in `[0, 1]`.
    fn worst_ulps(from: u32, to: u32, step: usize) -> (f64, f32) {
        let mut worst = (0.0, 0.0);
        let mut bits = (from..=to).step_by(step);
        loop {
            let x: [f32; NR] = std::array::from_fn(|_| f32::from_bits(bits.next().unwrap_or(to)));
            let y = exp8(x);
            for c in 0..NR {
                assert!((0.0..=1.0).contains(&y[c]), "exp̃({}) = {}", x[c], y[c]);
                let off = ulps_off(x[c], y[c]);
                if off > worst.0 {
                    worst = (off, x[c]);
                }
            }
            if x[NR - 1].to_bits() == to {
                return worst;
            }
        }
    }

    const NEG_ZERO_BITS: u32 = 0x8000_0000;

    #[test]
    fn zero_mass_rows_are_uniform() {
        let ninf = f32::NEG_INFINITY;
        // Row 0 fully masked, row 1 partially masked, row 2 ordinary.
        let x = [ninf, ninf, ninf, ninf, 1.0, 2.0, 0.5, -0.5, 0.1];
        for simd in [false, true] {
            let mut y = [0.0; 9];
            softmax_rows_pinned(simd, &x, &mut y, 3);
            assert_eq!(y[..3], [1.0 / 3.0; 3], "masked row must be uniform");
            for row in y.chunks_exact(3) {
                let sum: f32 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-6, "row sums to {sum}");
                assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
            }
            assert_eq!(y[3], 0.0, "masked entry of mixed row is 0");
        }
    }

    #[test]
    fn nan_logit_poisons_row_even_when_rest_is_masked() {
        // `f32::max` skips NaN, so a max-then-"all masked?" test saw the
        // first two rows as zero-mass and returned them uniform.
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let x = [
            nan, ninf, ninf, ninf, ninf, nan, 0.5, nan, 1.0, ninf, ninf, ninf,
        ];
        for simd in [false, true] {
            let mut y = [0.0; 12];
            softmax_rows_pinned(simd, &x, &mut y, 3);
            assert!(y[..9].iter().all(|v| v.is_nan()), "{y:?}");
            assert_eq!(y[9..], [1.0 / 3.0; 3], "all-masked row stays uniform");
            let mut one = [0.0];
            softmax_rows_pinned(simd, &[nan], &mut one, 1);
            assert!(one[0].is_nan(), "one-column NaN row");
        }
    }

    #[test]
    fn exp_edges_are_exact() {
        let inf = f32::INFINITY;
        let below = f32::from_bits(LO.to_bits() + 1);
        let y = exp8([0.0, -0.0, LO, below, -100.0, -1e30, -inf, f32::NAN]);
        assert_eq!(y[0].to_bits(), 1f32.to_bits());
        assert_eq!(y[1].to_bits(), 1f32.to_bits());
        assert!(
            y[2] > 0.0 && ulps_off(LO, y[2]) <= 2.0,
            "exp̃(LO) = {}",
            y[2]
        );
        for v in &y[3..7] {
            assert_eq!(v.to_bits(), 0, "exp̃ below LO must be +0.0, got {v}");
        }
        assert!(y[7].is_nan());
    }

    #[test]
    fn exp_within_two_ulps_sampled() {
        // Every 1021st pattern of `[LO, −0.0]`, and both ends densely.
        let (off, at) = worst_ulps(NEG_ZERO_BITS, LO.to_bits(), 1021);
        let (lo_off, lo_at) = worst_ulps(LO.to_bits() - 4096, LO.to_bits(), 1);
        let (hi_off, hi_at) = worst_ulps(NEG_ZERO_BITS, NEG_ZERO_BITS + 4096, 1);
        println!("worst: {off:.3} ulp at {at}; near LO {lo_off:.3} at {lo_at}; near 0 {hi_off:.3} at {hi_at}");
        assert!(off <= 2.0 && lo_off <= 2.0 && hi_off <= 2.0);
    }

    /// All ≈ 1.12·10⁹ patterns, both instantiations; release builds only
    /// (`cargo test --release -p fmml-nn -- --ignored exp_exhaustive`).
    #[test]
    #[ignore]
    fn exp_exhaustive() {
        let (from, to) = (NEG_ZERO_BITS, LO.to_bits());
        let parts = std::thread::available_parallelism().map_or(1, usize::from) as u32;
        let span = (to - from) / parts + 1;
        let worst = std::thread::scope(|s| {
            let jobs: Vec<_> = (0..parts)
                .map(|i| {
                    let lo = from + i * span;
                    s.spawn(move || worst_ulps(lo, (lo + span - 1).min(to), 1))
                })
                .collect();
            jobs.into_iter()
                .map(|j| j.join().expect("worker panicked"))
                .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
        });
        println!("worst: {:.3} ulp at {}", worst.0, worst.1);
        assert!(worst.0 <= 2.0);
    }
}
