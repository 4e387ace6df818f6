//! Property tests: the register-tiled GEMM kernel must be **bitwise
//! identical** to the scalar reference implementation over random shapes
//! — including shapes not divisible by the tile sizes, empty dimensions,
//! non-finite entries, and fused bias/scale epilogues — and on the fixed
//! shapes the paper model runs. This is the contract the benchmark's
//! model fingerprints (and PR 3's CEM merge before it) rest on.

use fmml_nn::kernel::{gemm_nn, gemm_nt, gemm_tn, with_mode, GemmOpts, KernelMode};
use fmml_nn::Tensor;
use proptest::prelude::*;

/// Deterministic xorshift fill; optionally injects NaN/±Inf entries so
/// the equivalence claim covers non-finite propagation too.
fn fill(len: usize, seed: u64, nonfinite: bool) -> Vec<f32> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if nonfinite && i % 23 == 7 {
                match x % 3 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    _ => f32::NEG_INFINITY,
                }
            } else {
                ((x >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            }
        })
        .collect()
}

/// Run `f` under both kernel modes into two fresh buffers.
fn run_modes(len: usize, f: &dyn Fn(&mut [f32])) -> (Vec<f32>, Vec<f32>) {
    let mut r = vec![0.0f32; len];
    let mut t = vec![0.0f32; len];
    with_mode(KernelMode::Reference, || f(&mut r));
    with_mode(KernelMode::Blocked, || f(&mut t));
    (r, t)
}

/// Every non-NaN element must match bit for bit (±0 and ±∞ included);
/// NaNs must sit at the same positions. A NaN result's sign and payload
/// are unspecified in Rust — they follow the operand order the compiler
/// happened to pick — so comparing them would test LLVM, not the kernel.
fn bits_eq(a: &[f32], b: &[f32]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("length {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()) {
            return Some(format!(
                "elem {i}: {x} ({:#010x}) vs {y} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            ));
        }
    }
    None
}

/// The three products of one shape under both modes; `flags` bit 0
/// injects non-finites, bit 1 adds a bias, bit 2 a scale.
fn check_shape(m: usize, k: usize, n: usize, seed: u64, flags: u64) -> Result<(), String> {
    let nonfinite = flags & 1 != 0;
    let a = fill(m * k, seed ^ 0x11, nonfinite);
    let b = fill(k * n, seed ^ 0x22, nonfinite);
    let bt = fill(n * k, seed ^ 0x33, nonfinite);
    let at = fill(k * m, seed ^ 0x44, nonfinite);
    let bias = fill(n, seed ^ 0x55, false);
    let opts = || GemmOpts {
        bias: (flags & 2 != 0).then_some(&bias[..]),
        scale: (flags & 4 != 0).then_some(0.5),
    };
    let check = |what: &str, f: &dyn Fn(&mut [f32])| {
        let (r, t) = run_modes(m * n, f);
        match bits_eq(&r, &t) {
            Some(diff) => Err(format!("{what} ({m},{k},{n}) flags {flags}: {diff}")),
            None => Ok(()),
        }
    };
    check("nn", &|out| gemm_nn(&a, &b, out, m, k, n, opts()))?;
    check("nt", &|out| gemm_nt(&a, &bt, out, m, k, n, opts()))?;
    check("tn", &|out| gemm_tn(&at, &b, out, k, m, n, opts()))?;
    Ok(())
}

#[test]
/// The shapes that matter: the attention products at `T = 300` (scores
/// NT, `att·V` NN), the feed-forward and wire-geometry shapes, and rows
/// / columns of 1–3 past a tile edge — each plain, with bias and scale,
/// and with non-finites.
fn fixed_shapes_bitwise_equal() {
    let shapes = [
        (300, 8, 300),
        (300, 300, 8),
        (300, 16, 32),
        (300, 32, 16),
        (300, 16, 1),
        (10, 4, 10),
        (5, 7, 17),
        (6, 3, 18),
        (7, 9, 19),
        (9, 2, 8),
        (4, 5, 9),
        (2, 1, 11),
    ];
    for (m, k, n) in shapes {
        for flags in [0, 6, 7] {
            check_shape(m, k, n, 0xFEED ^ (m * k + n) as u64, flags).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    /// NN / NT / TN products over random (possibly empty, possibly
    /// tile-misaligned) shapes with random bias/scale epilogues and a
    /// sprinkling of NaN/±Inf: both modes agree bit for bit.
    fn all_gemm_modes_bitwise_equal(
        m in 0usize..=33,
        k in 0usize..=41,
        n in 0usize..=29,
        seed in 0u64..u64::MAX,
        flags in 0u64..8,
    ) {
        let checked = check_shape(m, k, n, seed, flags);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    /// `Tensor::matmul` (the public API the model uses) must propagate
    /// non-finite RHS values even when the LHS element is zero — the
    /// historical `a == 0.0 → continue` skip silently output 0 here and
    /// hid NaNs from the training loop's rollback guard.
    fn zero_lhs_never_masks_nonfinite_rhs(
        m in 1usize..=8,
        k in 1usize..=8,
        n in 1usize..=8,
        seed in 0u64..u64::MAX,
    ) {
        // LHS all zeros, RHS with injected non-finites.
        let a = Tensor::from_vec(vec![0.0; m * k], &[m, k]);
        let mut bdata = fill(k * n, seed, false);
        // Poison one full RHS row: every output element must become NaN
        // (0·NaN = NaN, 0·±Inf = NaN).
        let row = (seed as usize) % k;
        for j in 0..n {
            bdata[row * n + j] = if j % 2 == 0 { f32::NAN } else { f32::INFINITY };
        }
        let b = Tensor::from_vec(bdata, &[k, n]);
        let c = a.matmul(&b);
        for (i, v) in c.data.iter().enumerate() {
            prop_assert!(v.is_nan(),
                "({m},{k},{n}) poisoned row {row}: out[{i}] = {v}, expected NaN");
        }
    }
}
