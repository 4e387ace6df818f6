//! The Constraint Enforcement Module (CEM, §3.2).
//!
//! Given a transformer-imputed port window `Q̂`, CEM computes the integer
//! series `Q̂c` that satisfies C1 ∧ C2 ∧ C3 while **minimally changing**
//! the model output:
//!
//! ```text
//!   min Σ_{q, t ∉ T_samples} |Q̂c[q][t] − round(Q̂[q][t])|
//! ```
//!
//! (following the paper's objective; we round the model output first so
//! the optimum is integer-valued and the two engines are exactly
//! comparable).
//!
//! Constraints are interval-local once the periodic samples are pinned, so
//! CEM decomposes into one independent problem per 50 ms interval — this
//! is also how the paper reports CEM latency ("average time … to correct
//! a 50 ms transformer output").
//!
//! Two engines implement the same contract:
//!
//! * [`smt_engine`] — the faithful reproduction of the paper's approach:
//!   an optimizing SMT encoding solved by [`fmml_smt`] (Z3's role).
//! * [`fast_engine`] — an exact combinatorial projection that enumerates
//!   C1 witness placements and greedily zeroes excess non-empty steps;
//!   optimal for this constraint family and orders of magnitude faster.
//!
//! Property tests (`tests` below and in the workspace `tests/`) assert
//! both engines reach the same objective value on random instances.
//!
//! A window is enforced in one way, [`enforce_degraded`] (the [`ladder`]):
//! interval `k` is [`interval_problem`]`(w, imputed, k)` solved by the
//! configured engine and stitched in at `k`. On feasible measurements
//! every interval stays at [`DegradationLevel::Full`], the minimal
//! correction; contradictory ones are relaxed and annotated, not refused.

pub mod breaker;
pub mod cache;
pub mod fast_engine;
pub mod ladder;
pub mod smt_engine;

use crate::constraints::WindowConstraints;
use fmml_obs::fnv;

pub use breaker::{BreakerConfig, BreakerState};
pub use cache::{CacheStats, CachedInterval, SolutionCache};
pub use ladder::{
    enforce_degraded, enforce_degraded_batch, enforce_degraded_with, DegradationLevel,
    LadderConfig, LadderOutcome,
};

/// Which CEM implementation to run.
#[derive(Debug, Clone, Default)]
pub enum CemEngine {
    /// Exact specialized projection (default).
    #[default]
    Fast,
    /// Optimizing SMT encoding (paper-faithful; slower).
    Smt {
        /// Per-interval solver budget.
        budget: fmml_smt::solver::Budget,
    },
}

/// Execution knobs for [`enforce_degraded_with`] /
/// [`enforce_degraded_batch`]: interval-level parallelism plus the
/// optional solution memo cache.
///
/// The defaults (`jobs = 1`, no cache) solve every interval in order
/// from scratch; any other setting is guaranteed (and tested,
/// `tests/cem_determinism.rs`) to produce bitwise-identical output —
/// intervals are independent by construction, results are merged back in
/// interval order, and both engines are deterministic functions of the
/// interval problem.
#[derive(Debug, Clone, Copy)]
pub struct EnforceOptions<'a> {
    /// Worker threads for interval/window-level parallelism:
    /// `1` = sequential (default), `0` = one per hardware thread.
    pub jobs: usize,
    /// Memo cache for interval solutions (`None` disables caching).
    pub cache: Option<&'a SolutionCache>,
}

impl Default for EnforceOptions<'static> {
    fn default() -> Self {
        EnforceOptions {
            jobs: 1,
            cache: None,
        }
    }
}

impl<'a> EnforceOptions<'a> {
    /// `--jobs N --no-cache=false` style constructor: `jobs` workers
    /// sharing `cache`.
    pub fn new(jobs: usize, cache: Option<&'a SolutionCache>) -> EnforceOptions<'a> {
        EnforceOptions { jobs, cache }
    }

    fn parallel(&self) -> bool {
        self.jobs != 1
    }
}

/// FNV-1a over a byte slice ([`fmml_obs::fnv`] from the offset basis):
/// the fingerprint of the golden-trace tests and the corrected-output
/// hashes of the jobs/cache determinism checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv::bytes(fnv::OFFSET, bytes)
}

/// FNV-1a fingerprint of a `[queues][len]` corrected window (or any
/// family of `u32` series): length-prefixed little-endian encoding, so
/// distinct shapes can't collide by concatenation.
pub fn hash_u32_series<S: AsRef<[u32]>>(series: &[S]) -> u64 {
    let mut bytes = Vec::with_capacity(
        8 + series
            .iter()
            .map(|s| 4 * s.as_ref().len() + 8)
            .sum::<usize>(),
    );
    bytes.extend_from_slice(&(series.len() as u64).to_le_bytes());
    for s in series {
        let s = s.as_ref();
        bytes.extend_from_slice(&(s.len() as u64).to_le_bytes());
        for &v in s {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Extract interval `k`'s CEM sub-problem from a window: rounded,
/// clamped-to-nonnegative targets (non-finite model outputs become 0 —
/// the sanitizer normally repairs them first, this is the defensive
/// backstop) plus the interval's measurement right-hand sides.
pub fn interval_problem(w: &WindowConstraints, imputed: &[Vec<f32>], k: usize) -> IntervalProblem {
    let l = w.interval_len;
    let target: Vec<Vec<i64>> = imputed
        .iter()
        .map(|qs| {
            qs[k * l..(k + 1) * l]
                .iter()
                .map(|&v| {
                    if v.is_finite() {
                        v.round().clamp(0.0, u32::MAX as f32) as i64
                    } else {
                        0
                    }
                })
                .collect()
        })
        .collect();
    let maxes: Vec<u32> = (0..w.num_queues()).map(|q| w.maxes[q][k]).collect();
    let samples: Vec<u32> = (0..w.num_queues()).map(|q| w.samples[q][k]).collect();
    IntervalProblem {
        len: l,
        target,
        maxes,
        samples,
        m_out: w.sent[k],
    }
}

/// One interval's CEM problem (both engines consume this).
///
/// `Eq + Hash` are structural over every field — the [`cache`] hash-cons
/// key is the whole problem, so a cache hit is exact by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IntervalProblem {
    pub len: usize,
    /// `target[q][t]`: rounded transformer output (≥ 0).
    pub target: Vec<Vec<i64>>,
    /// `maxes[q]`: C1 rhs for this interval.
    pub maxes: Vec<u32>,
    /// `samples[q]`: C2 rhs (pinned at local `t = len−1`).
    pub samples: Vec<u32>,
    /// C3 rhs.
    pub m_out: u32,
}

impl IntervalProblem {
    pub fn num_queues(&self) -> usize {
        self.target.len()
    }

    /// Quick consistency check of the measurements themselves.
    pub fn measurements_consistent(&self) -> bool {
        for q in 0..self.num_queues() {
            if self.samples[q] > self.maxes[q] {
                return false;
            }
        }
        true
    }
}

/// An interval solution.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSolution {
    /// `values[q][t]` for the interval.
    pub values: Vec<Vec<u32>>,
    pub objective: u64,
}

impl IntervalSolution {
    /// Exact feasibility check against an [`IntervalProblem`] — shared by
    /// both engines' tests.
    ///
    /// A malformed solution (wrong queue count, empty or mis-sized
    /// series) is *infeasible*, never a panic: with fault-injected
    /// measurements in the pipeline this check must be total.
    pub fn is_feasible(&self, p: &IntervalProblem) -> bool {
        let l = p.len;
        if l == 0 || self.values.len() != p.num_queues() {
            return false;
        }
        for q in 0..p.num_queues() {
            // Shape: an empty or mis-sized series cannot satisfy anything
            // (and `.iter().max()` on it must not panic).
            let Some(&max) = self.values[q].iter().max() else {
                return false;
            };
            if self.values[q].len() != l {
                return false;
            }
            // C2.
            if self.values[q][l - 1] != p.samples[q] {
                return false;
            }
            // C1.
            if max != p.maxes[q] {
                return false;
            }
        }
        // C3.
        let ne = (0..l)
            .filter(|&t| (0..p.num_queues()).any(|q| self.values[q][t] > 0))
            .count() as u32;
        ne <= p.m_out
    }

    /// L1 distance from the problem's target, excluding the sample step.
    pub fn l1_objective(&self, p: &IntervalProblem) -> u64 {
        let mut total = 0u64;
        for q in 0..p.num_queues() {
            for t in 0..p.len - 1 {
                total += (self.values[q][t] as i64 - p.target[q][t]).unsigned_abs();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> IntervalProblem {
        IntervalProblem {
            len: 6,
            target: vec![vec![0, 3, 5, 2, 0, 0], vec![0, 0, 1, 0, 0, 0]],
            maxes: vec![5, 1],
            samples: vec![0, 0],
            m_out: 4,
        }
    }

    #[test]
    fn both_engines_agree_on_a_simple_interval() {
        let p = problem();
        let fast = fast_engine::solve(&p).expect("fast solves");
        let smt = smt_engine::solve(&p, fmml_smt::solver::Budget::default()).expect("smt solves");
        assert!(fast.is_feasible(&p), "fast infeasible: {fast:?}");
        assert!(smt.is_feasible(&p), "smt infeasible: {smt:?}");
        assert_eq!(fast.objective, fast.l1_objective(&p));
        assert_eq!(smt.objective, smt.l1_objective(&p));
        assert_eq!(fast.objective, smt.objective, "fast={fast:?} smt={smt:?}");
    }

    #[test]
    fn fnv_hashes_are_stable_and_shape_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let a = hash_u32_series(&[vec![1, 2], vec![3]]);
        let b = hash_u32_series(&[vec![1], vec![2, 3]]);
        let c = hash_u32_series(&[vec![1, 2, 3]]);
        assert_ne!(a, b, "length prefixes must separate shapes");
        assert_ne!(b, c);
        assert_eq!(a, hash_u32_series(&[vec![1, 2], vec![3]]));
    }
}
