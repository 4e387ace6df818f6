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

pub mod breaker;
pub mod cache;
pub mod fast_engine;
pub mod ladder;
pub mod smt_engine;

use crate::constraints::WindowConstraints;
use fmml_obs::{fnv, log_event, Counter, Histogram, Unit};

pub use breaker::{BreakerConfig, BreakerState};
pub use cache::{CacheStats, CachedInterval, SolutionCache};
pub use ladder::{
    enforce_degraded, enforce_degraded_batch, enforce_degraded_with, DegradationLevel,
    LadderConfig, LadderOutcome,
};

/// Windows pushed through [`enforce`].
static WINDOWS: Counter = Counter::new("fm.cem.windows");
/// 50 ms interval sub-problems solved.
static INTERVALS: Counter = Counter::new("fm.cem.intervals");
/// Intervals dispatched to the fast combinatorial engine.
static DISPATCH_FAST: Counter = Counter::new("fm.cem.dispatch.fast");
/// Intervals dispatched to the optimizing SMT engine.
static DISPATCH_SMT: Counter = Counter::new("fm.cem.dispatch.smt");
/// Windows whose *raw* imputed series violated C1 before correction.
static VIOLATIONS_C1: Counter = Counter::new("fm.cem.violations.c1");
/// Windows whose raw imputed series violated C2 before correction.
static VIOLATIONS_C2: Counter = Counter::new("fm.cem.violations.c2");
/// Windows whose raw imputed series violated C3 before correction.
static VIOLATIONS_C3: Counter = Counter::new("fm.cem.violations.c3");
/// Windows rejected: contradictory measurements.
static INFEASIBLE: Counter = Counter::new("fm.cem.infeasible");
/// Windows rejected: SMT budget exhausted.
static BUDGET_EXHAUSTED: Counter = Counter::new("fm.cem.budget_exhausted");
/// End-to-end [`enforce`] latency per window.
static WINDOW_US: Histogram = Histogram::new("fm.cem.window_us", Unit::Micros);

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

/// A successful correction.
#[derive(Debug, Clone, PartialEq)]
pub struct CemOutcome {
    /// Corrected integer series, `[queues][len]`.
    pub corrected: Vec<Vec<u32>>,
    /// Total L1 change vs the rounded input (excluding sample positions).
    pub objective: u64,
}

/// Why a correction failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CemError {
    /// The measurements themselves are contradictory in `interval`.
    Infeasible { interval: usize },
    /// The SMT engine ran out of budget in `interval`.
    Budget { interval: usize },
}

impl std::fmt::Display for CemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CemError::Infeasible { interval } => {
                write!(f, "measurements infeasible in interval {interval}")
            }
            CemError::Budget { interval } => {
                write!(f, "solver budget exhausted in interval {interval}")
            }
        }
    }
}

impl std::error::Error for CemError {}

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

/// Enforce C1–C3 on an imputed window, minimally changing it. This is
/// the strict, paper-facing contract: all or nothing, one interval after
/// the other, every interval solved from scratch by `engine`, stopping at
/// the first interval that fails. (The serving and batch paths go
/// through the ladder, [`enforce_degraded_with`], which is where `jobs`
/// and the memo cache live.)
///
/// Besides the result, every call feeds the [`fmml_obs`] registry:
/// windows/intervals enforced, engine dispatch counts, per-class raw
/// violations (was C1/C2/C3 broken *before* correction?), failure causes,
/// and the `fm.cem.window_us` latency histogram.
pub fn enforce(
    w: &WindowConstraints,
    imputed: &[Vec<f32>],
    engine: &CemEngine,
) -> Result<CemOutcome, CemError> {
    let span = WINDOW_US.start_span();
    WINDOWS.inc();
    if w.c1_error(imputed) > 0.0 {
        VIOLATIONS_C1.inc();
    }
    if w.c2_error(imputed) > 0.0 {
        VIOLATIONS_C2.inc();
    }
    if w.c3_error(imputed) > 0.0 {
        VIOLATIONS_C3.inc();
    }
    let result = solve_in_order(w, imputed, engine);
    match &result {
        Ok(out) => {
            let elapsed = span.finish();
            log_event!(
                "cem.window",
                "intervals" = w.intervals(),
                "objective" = out.objective,
                "us" = elapsed.as_secs_f64() * 1e6,
            );
        }
        Err(CemError::Infeasible { interval }) => {
            INFEASIBLE.inc();
            span.finish();
            log_event!("cem.infeasible", "interval" = *interval);
        }
        Err(CemError::Budget { interval }) => {
            BUDGET_EXHAUSTED.inc();
            span.finish();
            log_event!("cem.budget_exhausted", "interval" = *interval);
        }
    }
    result
}

/// The strict loop behind [`enforce`]: interval `k`'s problem, the
/// engine's answer stitched in at `k`, first failure returned.
fn solve_in_order(
    w: &WindowConstraints,
    imputed: &[Vec<f32>],
    engine: &CemEngine,
) -> Result<CemOutcome, CemError> {
    let l = w.interval_len;
    let mut corrected: Vec<Vec<u32>> = vec![vec![0; w.len]; w.num_queues()];
    let mut objective = 0u64;
    for k in 0..w.intervals() {
        INTERVALS.inc();
        let p = interval_problem(w, imputed, k);
        let sol = match engine {
            CemEngine::Fast => {
                DISPATCH_FAST.inc();
                fast_engine::solve(&p).ok_or(CemError::Infeasible { interval: k })?
            }
            CemEngine::Smt { budget } => {
                DISPATCH_SMT.inc();
                smt_engine::solve(&p, *budget).map_err(|e| match e {
                    smt_engine::SmtCemError::Infeasible => CemError::Infeasible { interval: k },
                    smt_engine::SmtCemError::Budget => CemError::Budget { interval: k },
                })?
            }
        };
        objective += sol.objective;
        for (row, values) in corrected.iter_mut().zip(&sol.values) {
            row[k * l..(k + 1) * l].copy_from_slice(values);
        }
    }
    Ok(CemOutcome {
        corrected,
        objective,
    })
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
    fn enforce_stitches_intervals_and_satisfies_exactly() {
        // Two intervals of 5, 2 queues.
        let w = WindowConstraints {
            interval_len: 5,
            len: 10,
            maxes: vec![vec![4, 2], vec![1, 0]],
            samples: vec![vec![1, 0], vec![0, 0]],
            sent: vec![4, 3],
        };
        let imputed = vec![
            vec![0.2, 3.7, 4.4, 2.0, 1.1, 0.0, 1.8, 2.3, 0.4, 0.1],
            vec![0.0, 0.9, 1.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ];
        let out = enforce(&w, &imputed, &CemEngine::Fast).expect("feasible");
        assert!(w.satisfied_exact(&out.corrected));
        // Samples pinned.
        assert_eq!(out.corrected[0][4], 1);
        assert_eq!(out.corrected[0][9], 0);
    }

    #[test]
    fn error_is_the_first_failing_interval() {
        // Interval 0 fine, interval 1 contradictory (sample > max): the
        // loop stops there and names it.
        let w = WindowConstraints {
            interval_len: 5,
            len: 10,
            maxes: vec![vec![4, 2]],
            samples: vec![vec![1, 3]],
            sent: vec![4, 3],
        };
        let imputed = vec![vec![0.0; 10]];
        assert_eq!(
            enforce(&w, &imputed, &CemEngine::Fast),
            Err(CemError::Infeasible { interval: 1 })
        );
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

    #[test]
    fn infeasible_measurements_are_reported() {
        // Sample exceeds max: contradictory.
        let w = WindowConstraints {
            interval_len: 5,
            len: 5,
            maxes: vec![vec![2]],
            samples: vec![vec![4]],
            sent: vec![5],
        };
        let imputed = vec![vec![0.0; 5]];
        match enforce(&w, &imputed, &CemEngine::Fast) {
            Err(CemError::Infeasible { interval: 0 }) => {}
            r => panic!("expected infeasible, got {r:?}"),
        }
    }
}
