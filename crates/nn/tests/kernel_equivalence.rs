//! Property tests: the register-tiled GEMM kernel must be **bitwise
//! identical** to the scalar reference implementation over random shapes
//! — including shapes not divisible by the tile sizes, empty dimensions,
//! non-finite entries, and fused bias/scale epilogues — and on the fixed
//! shapes the paper model runs. This is the contract the benchmark's
//! model fingerprints (and PR 3's CEM merge before it) rest on. The row
//! softmax is held to the same standard: its two instantiations, the
//! `Reference` mode and a plain-scalar transcription of its spec agree
//! bit for bit.

use fmml_nn::kernel::{
    gemm_nn, gemm_nt, gemm_tn, softmax_rows_pinned, with_mode, GemmOpts, KernelMode,
};
use fmml_nn::{ParamStore, Tape, Tensor};
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

/// `exp̃` as DESIGN.md §10 states it, in plain scalar operations with
/// its own copy of the constants: the oracle that does not go through
/// `Lanes`, so a slip in a method both instantiations share still shows.
#[allow(clippy::excessive_precision)]
fn exp_oracle(x0: f32) -> f32 {
    const LO: f32 = -87.33654;
    const MAGIC: f32 = 12582912.0; // 1.5 * 2^23
    let x = if LO > x0 { LO } else { x0 };
    let n = (x * std::f32::consts::LOG2_E + MAGIC) - MAGIC;
    let r = (x - n * 0.693359375) - n * -2.12194440e-4;
    let mut p = 1.9875691500e-4;
    for c in [
        1.3981999507e-3,
        8.3334519073e-3,
        4.1665795894e-2,
        1.6666665459e-1,
        5.0000001201e-1,
    ] {
        p = p * r + c;
    }
    let y = (p * (r * r) + r) + 1.0;
    if x0 < LO {
        0.0
    } else {
        y * f32::from_bits(((n as i32 + 127) as u32) << 23)
    }
}

/// One softmax row by the spec: NaN poisons, all-`-∞` is uniform, lane
/// `j % 8` sums in ascending `j`, the lanes meet in the fixed tree.
fn softmax_oracle(x: &[f32]) -> Vec<f32> {
    if x.iter().any(|v| v.is_nan()) {
        return vec![f32::NAN; x.len()];
    }
    let m = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    if m == f32::NEG_INFINITY {
        return vec![1.0 / x.len() as f32; x.len()];
    }
    let e: Vec<f32> = x.iter().map(|&v| exp_oracle(v - m)).collect();
    let mut s = [0.0f32; 8];
    for (j, &v) in e.iter().enumerate() {
        s[j % 8] += v;
    }
    let z = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
    e.iter().map(|&v| v / z).collect()
}

/// `Tape::softmax_rows` — what the model calls — under `mode`.
fn tape_softmax(mode: KernelMode, x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    with_mode(mode, || {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let logits = tape.constant(Tensor::from_vec(x.to_vec(), &[rows, cols]));
        let y = tape.softmax_rows(logits);
        tape.value(y).data.clone()
    })
}

#[test]
/// Widths on both sides of one and two vectors, the wire (10) and paper
/// (300) geometries, each with ordinary and degenerate rows: the
/// baseline and AVX2 instantiations (pinned directly), both kernel modes
/// through the tape, and the scalar oracle give the same bits.
fn softmax_bitwise_equal_across_instantiations_modes_and_oracle() {
    const ROWS: usize = 3;
    let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
    for cols in [1, 7, 8, 9, 10, 16, 37, 300] {
        let spread: Vec<f32> = fill(ROWS * cols, 0x50F7 + cols as u64, false)
            .iter()
            .map(|v| v * 20.0)
            .collect();
        // Row 1 takes the special entry; rows 0 and 2 show that a row's
        // neighbours never leak into it.
        let at = cols + cols / 3;
        let with = |v: f32| {
            let mut x = spread.clone();
            x[at] = v;
            x
        };
        let all_masked = {
            let mut x = spread.clone();
            x[cols..2 * cols].fill(ninf);
            x
        };
        // 0, −0.31, −0.62, …: at 300 wide, exp̃'s whole domain and beyond.
        let ramp: Vec<f32> = (0..ROWS * cols)
            .map(|j| (j % cols) as f32 * -0.31)
            .collect();
        let cases = [
            ("spread ±20", spread.clone()),
            ("one -inf", with(ninf)),
            ("one NaN", with(nan)),
            ("all -inf", all_masked),
            ("one -200 outlier", with(-200.0)),
            ("ramp", ramp),
        ];
        for (what, x) in cases {
            let want: Vec<f32> = x.chunks(cols).flat_map(softmax_oracle).collect();
            let pinned = |simd| {
                let mut out = vec![0.0; x.len()];
                softmax_rows_pinned(simd, &x, &mut out, cols);
                out
            };
            let got = [
                ("baseline", pinned(false)),
                ("avx2", pinned(true)),
                (
                    "tape, Reference",
                    tape_softmax(KernelMode::Reference, &x, ROWS, cols),
                ),
                (
                    "tape, default",
                    tape_softmax(KernelMode::Blocked, &x, ROWS, cols),
                ),
            ];
            for (who, y) in &got {
                if let Some(diff) = bits_eq(&want, y) {
                    panic!("{who} vs oracle, {cols} wide, {what}: {diff}");
                }
            }
            for (r, row) in want.chunks(cols).enumerate() {
                let sum: f64 = row.iter().map(|&v| v as f64).sum();
                let poisoned = x[r * cols..][..cols].iter().any(|v| v.is_nan());
                assert_eq!(sum.is_nan(), poisoned, "{cols} wide, {what}, row {r}");
                assert!(
                    poisoned || (sum - 1.0).abs() < 1e-6,
                    "{cols} wide, {what}, row {r} sums to {sum}"
                );
            }
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
