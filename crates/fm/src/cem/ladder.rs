//! The CEM graceful-degradation ladder.
//!
//! The one window-level CEM entry point. An all-or-nothing contract would
//! fail the whole window on one infeasible 50 ms interval (or one budget
//! wall); under fault-injected telemetry the operator still wants the
//! best window the constraints allow, annotated with how much trust each
//! interval deserves. [`enforce_degraded`] provides that contract: it
//! **always** returns a corrected window, descending a per-interval
//! ladder until something works:
//!
//! 1. **Full** — the configured engine at its configured budget
//!    (warm-started SMT in paper-faithful mode, the exact fast
//!    projection otherwise). Optimal correction.
//! 2. **EscalatedRetry** — the SMT budget ran out; one retry with the
//!    budget multiplied by [`LadderConfig::escalation_factor`]
//!    (exponential backoff, single rung). Still optimal if it lands.
//! 3. **FastFallback** — SMT gave up twice; the exact combinatorial
//!    engine answers instead. Same optimum, no optimality *proof* from
//!    the paper-faithful encoding.
//! 4. **ClampProjection** — past the window deadline: a constraint-
//!    satisfying series is constructed directly (samples pinned, one
//!    shared witness step, everything else zero). Feasible but crude.
//! 5. **MeasurementRelaxed** — the measurements themselves were
//!    contradictory (sample > max, busy interval with a zero sent
//!    count). The ladder minimally relaxes them (raise the max to the
//!    sample, raise `m_out` to the smallest count any series needs) and
//!    solves against the relaxed constraints, reporting them in
//!    [`LadderOutcome::relaxed`].
//!
//! Every rung is counted in the metrics registry (`fm.cem.ladder.*`), so
//! a chaos run's `--stats-json` shows exactly how far the pipeline had
//! to degrade.

use super::{
    breaker, cache, fast_engine, interval_problem, smt_engine, CachedInterval, CemEngine,
    EnforceOptions, IntervalProblem, IntervalSolution,
};
use crate::constraints::WindowConstraints;
use fmml_obs::{log_event, trace, Counter, Histogram, Unit};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Windows pushed through [`enforce_degraded`].
static LADDER_WINDOWS: Counter = Counter::new("fm.cem.ladder.windows");
/// 50 ms interval sub-problems extracted.
static INTERVALS: Counter = Counter::new("fm.cem.intervals");
/// Intervals solved at full fidelity.
static LADDER_FULL: Counter = Counter::new("fm.cem.ladder.full");
/// Intervals solved on the escalated-budget retry.
static LADDER_RETRY: Counter = Counter::new("fm.cem.ladder.retry");
/// Intervals that fell back to the fast engine.
static LADDER_FAST: Counter = Counter::new("fm.cem.ladder.fast_fallback");
/// Intervals answered by the clamp-only projection.
static LADDER_CLAMP: Counter = Counter::new("fm.cem.ladder.clamp");
/// Intervals whose measurements had to be relaxed.
static LADDER_RELAXED: Counter = Counter::new("fm.cem.ladder.relaxed");
/// End-to-end [`enforce_degraded`] latency per window.
static LADDER_WINDOW_US: Histogram = Histogram::new("fm.cem.ladder.window_us", Unit::Micros);

/// How degraded one interval's correction is (ordered: higher is worse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// Configured engine, configured budget: optimal.
    Full,
    /// Optimal, but only after one budget escalation.
    EscalatedRetry,
    /// Exact fast projection stood in for the SMT engine.
    FastFallback,
    /// Deadline-driven clamp-only projection: feasible, not optimal.
    ClampProjection,
    /// Contradictory measurements were minimally relaxed first.
    MeasurementRelaxed,
}

impl DegradationLevel {
    pub const ALL: [DegradationLevel; 5] = [
        DegradationLevel::Full,
        DegradationLevel::EscalatedRetry,
        DegradationLevel::FastFallback,
        DegradationLevel::ClampProjection,
        DegradationLevel::MeasurementRelaxed,
    ];

    /// Stable lowercase label (reports, metric names, the serving wire
    /// format).
    pub fn label(&self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::EscalatedRetry => "retry",
            DegradationLevel::FastFallback => "fast_fallback",
            DegradationLevel::ClampProjection => "clamp",
            DegradationLevel::MeasurementRelaxed => "relaxed",
        }
    }

    /// Inverse of [`DegradationLevel::label`] — used by `fmml-serve` to
    /// decode the level carried in `Imputed` frames.
    pub fn from_label(s: &str) -> Option<DegradationLevel> {
        DegradationLevel::ALL
            .iter()
            .copied()
            .find(|l| l.label() == s)
    }

    fn index(&self) -> usize {
        match self {
            DegradationLevel::Full => 0,
            DegradationLevel::EscalatedRetry => 1,
            DegradationLevel::FastFallback => 2,
            DegradationLevel::ClampProjection => 3,
            DegradationLevel::MeasurementRelaxed => 4,
        }
    }
}

/// Ladder configuration.
#[derive(Debug, Clone)]
pub struct LadderConfig {
    /// Which top rung to start from.
    pub engine: CemEngine,
    /// Soft wall-clock deadline for the whole window: intervals started
    /// after it has passed drop straight to the clamp projection.
    pub deadline: Option<Duration>,
    /// Budget multiplier for the single escalated retry (SMT mode).
    pub escalation_factor: u32,
    /// Circuit breaker over the SMT rung: consecutive budget failures
    /// pin the ladder at [`DegradationLevel::FastFallback`] for a
    /// cooldown window (see [`breaker`]). `None` disables it (no
    /// breaker bookkeeping at all); only consulted in SMT mode.
    pub breaker: Option<breaker::BreakerConfig>,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            engine: CemEngine::Fast,
            deadline: None,
            escalation_factor: 4,
            breaker: None,
        }
    }
}

/// What [`enforce_degraded`] always returns: a best-effort corrected
/// window plus per-interval trust annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderOutcome {
    /// Corrected integer series, `[queues][len]`.
    pub corrected: Vec<Vec<u32>>,
    /// Total L1 change vs the rounded input (excluding sample positions),
    /// summed over intervals (per-rung optimality as annotated).
    pub objective: u64,
    /// `levels[k]`: how degraded interval `k`'s correction is.
    pub levels: Vec<DegradationLevel>,
    /// The relaxed constraints actually enforced, if any interval's
    /// measurements were contradictory; `None` when the input
    /// constraints were enforced verbatim.
    pub relaxed: Option<WindowConstraints>,
}

impl LadderOutcome {
    /// The worst level any interval reached.
    pub fn worst(&self) -> DegradationLevel {
        self.levels
            .iter()
            .copied()
            .max()
            .unwrap_or(DegradationLevel::Full)
    }

    /// Per-level interval counts, indexed like [`DegradationLevel::ALL`].
    pub fn level_counts(&self) -> [usize; 5] {
        let mut counts = [0usize; 5];
        for l in &self.levels {
            counts[l.index()] += 1;
        }
        counts
    }

    /// The constraints the output provably satisfies: the relaxed set if
    /// relaxation happened, the caller's set otherwise.
    pub fn effective_constraints<'a>(&'a self, w: &'a WindowConstraints) -> &'a WindowConstraints {
        self.relaxed.as_ref().unwrap_or(w)
    }

    /// `full=5,retry=1` style single-line summary (only levels that
    /// occurred).
    pub fn summary(&self) -> String {
        let counts = self.level_counts();
        let parts: Vec<String> = DegradationLevel::ALL
            .iter()
            .filter(|l| counts[l.index()] > 0)
            .map(|l| format!("{}={}", l.label(), counts[l.index()]))
            .collect();
        parts.join(",")
    }
}

/// The smallest `m_out` any series satisfying this interval's C1 ∧ C2
/// can have: one non-empty step if any sample is positive, plus one
/// (shareable) witness step if any queue's max is positive and not
/// already witnessed by its pinned sample.
fn required_nonempty(maxes: &[u32], samples: &[u32]) -> u32 {
    let sample_positive = samples.iter().any(|&s| s > 0);
    let witness_needed = maxes.iter().zip(samples).any(|(&m, &s)| m > 0 && m != s);
    u32::from(sample_positive) + u32::from(witness_needed)
}

/// Minimally relax one interval's measurements until they are feasible:
/// raise maxes to cover samples, raise `m_out` to the smallest count any
/// series needs. Returns `true` if anything changed.
fn relax_interval(len: usize, maxes: &mut [u32], samples: &[u32], m_out: &mut u32) -> bool {
    let mut changed = false;
    for (m, &s) in maxes.iter_mut().zip(samples) {
        if s > *m {
            *m = s;
            changed = true;
        }
        // A one-step interval has no free step to witness a max that
        // differs from the pinned sample; the sample wins.
        if len == 1 && *m != s {
            *m = s;
            changed = true;
        }
    }
    let need = required_nonempty(maxes, samples);
    if *m_out < need {
        *m_out = need;
        changed = true;
    }
    changed
}

/// The bottom rung: construct a feasible series directly. Samples are
/// pinned, every queue that still needs a C1 witness gets it on one
/// shared free step (the step with the largest total target, so the
/// projection stays as close to the model output as a two-non-zero-step
/// series can be), everything else is zero.
///
/// Requires relaxed (feasible) measurements; feasibility is then by
/// construction.
fn clamp_projection(p: &IntervalProblem) -> IntervalSolution {
    let l = p.len;
    let nq = p.num_queues();
    let mut values = vec![vec![0u32; l]; nq];
    for (q, row) in values.iter_mut().enumerate() {
        row[l - 1] = p.samples[q];
    }
    let needs_witness: Vec<usize> = (0..nq)
        .filter(|&q| p.maxes[q] > 0 && p.maxes[q] != p.samples[q])
        .collect();
    if !needs_witness.is_empty() && l >= 2 {
        let tw = (0..l - 1)
            .max_by_key(|&t| (0..nq).map(|q| p.target[q][t].max(0)).sum::<i64>())
            .unwrap_or(0);
        for &q in &needs_witness {
            values[q][tw] = p.maxes[q];
        }
    }
    let sol = IntervalSolution {
        values,
        objective: 0,
    };
    let objective = sol.l1_objective(p);
    IntervalSolution {
        values: sol.values,
        objective,
    }
}

/// Solve one (already-relaxed) interval by descending the rungs.
fn solve_interval(
    p: &IntervalProblem,
    cfg: &LadderConfig,
    past_deadline: bool,
) -> (IntervalSolution, DegradationLevel) {
    if past_deadline {
        return (clamp_projection(p), DegradationLevel::ClampProjection);
    }
    match &cfg.engine {
        CemEngine::Fast => match fast_engine::solve(p) {
            Some(s) => (s, DegradationLevel::Full),
            // Unreachable after relaxation; defensive bottom rung.
            None => (clamp_projection(p), DegradationLevel::ClampProjection),
        },
        CemEngine::Smt { budget } => {
            let brk = cfg.breaker.as_ref();
            // Open breaker: skip SMT entirely and pin the fast fallback.
            if !breaker::allow_global(brk) {
                return match fast_engine::solve(p) {
                    Some(s) => (s, DegradationLevel::FastFallback),
                    None => (clamp_projection(p), DegradationLevel::ClampProjection),
                };
            }
            match smt_engine::solve_warm(p, *budget) {
                Ok(s) => {
                    breaker::record_global(brk, true);
                    (s, DegradationLevel::Full)
                }
                Err(smt_engine::SmtCemError::Budget) => {
                    breaker::record_global(brk, false);
                    // The escalated retry is its own solver admission:
                    // the failure above may just have tripped the
                    // breaker, in which case the retry is skipped too.
                    let retried = if breaker::allow_global(brk) {
                        let escalated = budget.escalate(cfg.escalation_factor);
                        let r = smt_engine::solve_warm(p, escalated);
                        // Budget exhaustion is a breaker failure; an
                        // Infeasible answer means the solver responded.
                        breaker::record_global(
                            brk,
                            !matches!(r, Err(smt_engine::SmtCemError::Budget)),
                        );
                        Some(r)
                    } else {
                        None
                    };
                    match retried {
                        Some(Ok(s)) => (s, DegradationLevel::EscalatedRetry),
                        _ => match fast_engine::solve(p) {
                            Some(s) => (s, DegradationLevel::FastFallback),
                            None => (clamp_projection(p), DegradationLevel::ClampProjection),
                        },
                    }
                }
                // `solve_warm` reports Infeasible only when the fast
                // engine found no solution — unreachable after
                // relaxation, but the ladder still answers. The solver
                // *responded*, so the breaker counts it as a success.
                Err(smt_engine::SmtCemError::Infeasible) => {
                    breaker::record_global(brk, true);
                    match fast_engine::solve(p) {
                        Some(s) => (s, DegradationLevel::FastFallback),
                        None => (clamp_projection(p), DegradationLevel::ClampProjection),
                    }
                }
            }
        }
    }
}

/// Enforce C1–C3 with graceful degradation: always returns a corrected
/// window, annotated per interval with how much the correction had to
/// degrade. See the module docs for the rungs. (Sequential, uncached —
/// see [`enforce_degraded_with`] for the tuned path.)
pub fn enforce_degraded(
    w: &WindowConstraints,
    imputed: &[Vec<f32>],
    cfg: &LadderConfig,
) -> LadderOutcome {
    enforce_degraded_with(w, imputed, cfg, &EnforceOptions::default())
}

/// Solve a bag of relaxed interval problems — the one place in CEM that
/// consults the memo cache, hands a problem to the rungs
/// ([`solve_interval`]) and fans out over `opts.jobs`. Answers come back
/// in input order.
///
/// Cache order matters for the deadline story: the lookup happens
/// *before* the deadline check, so a hit upgrades a would-be clamp
/// projection to the cached optimal answer for free, and the time the
/// hit saved (`solve_ns` of the original solve) is rebated to the
/// deadline (counted from `start`) for the remaining hard intervals.
fn solve_intervals(
    problems: &[(IntervalProblem, bool)],
    cfg: &LadderConfig,
    opts: &EnforceOptions,
    start: Instant,
) -> Vec<(IntervalSolution, DegradationLevel)> {
    let cache = opts.cache.and_then(|c| {
        let ekey = cache::EngineKey::for_ladder(cfg);
        ekey.cacheable().then_some((c, ekey))
    });
    let rebate_ns = AtomicU64::new(0);
    let solve_one = |(p, _): &(IntervalProblem, bool)| {
        let _s = trace::span("cem.solve");
        let keyed = cache.map(|(c, ekey)| (c, cache::CacheKey::new(ekey, p)));
        if let Some((c, key)) = &keyed {
            if let Some(hit) = c.lookup(key) {
                rebate_ns.fetch_add(hit.solve_ns, Ordering::Relaxed);
                return (hit.solution, hit.rung);
            }
        }
        let past_deadline = cfg.deadline.is_some_and(|d| {
            let rebate = Duration::from_nanos(rebate_ns.load(Ordering::Relaxed));
            start.elapsed() > d.saturating_add(rebate)
        });
        let t0 = Instant::now();
        let (sol, rung) = solve_interval(p, cfg, past_deadline);
        // Clamp projections are deadline artifacts, not properties of the
        // problem — never memoize them.
        if rung != DegradationLevel::ClampProjection {
            if let Some((c, key)) = keyed {
                c.insert(
                    key,
                    CachedInterval {
                        solution: sol.clone(),
                        rung,
                        solve_ns: t0.elapsed().as_nanos() as u64,
                    },
                );
            }
        }
        (sol, rung)
    };
    if opts.parallel() && problems.len() > 1 {
        // The vendored rayon runs shards on its pool's threads, which
        // do not inherit this thread's trace context: re-install it
        // explicitly so per-interval solve spans stay attached to the
        // window's trace.
        let ctx = trace::current_context();
        rayon::with_max_threads(opts.jobs, || {
            problems
                .par_iter()
                .map(|pk| trace::with_context(ctx, || solve_one(pk)))
                .collect()
        })
    } else {
        problems.iter().map(solve_one).collect()
    }
}

/// [`enforce_degraded`] with explicit parallelism/caching options.
///
/// Intervals are relaxed sequentially (cheap, and it keeps
/// [`LadderOutcome::relaxed`] construction deterministic), then solved
/// in parallel across `opts.jobs` workers and merged back in interval
/// order. With `deadline: None` the output is bitwise identical across
/// every `opts` setting; with a deadline, clamp decisions depend on
/// wall-clock in both the sequential and the parallel path (the cache
/// only ever upgrades a clamp to the optimal answer, never the reverse).
pub fn enforce_degraded_with(
    w: &WindowConstraints,
    imputed: &[Vec<f32>],
    cfg: &LadderConfig,
    opts: &EnforceOptions,
) -> LadderOutcome {
    assert_eq!(imputed.len(), w.num_queues(), "queue count mismatch");
    for q in imputed {
        assert_eq!(q.len(), w.len, "window length mismatch");
    }
    let span = LADDER_WINDOW_US.start_span();
    let _trace_span = trace::span("cem.enforce_window");
    LADDER_WINDOWS.inc();
    let start = Instant::now();
    let l = w.interval_len;
    let n = w.intervals();

    // Phase 1 (sequential): extract + minimally relax every interval.
    let mut relaxed_w: Option<WindowConstraints> = None;
    let mut problems: Vec<(IntervalProblem, bool)> = Vec::with_capacity(n);
    for k in 0..n {
        INTERVALS.inc();
        let mut p = interval_problem(w, imputed, k);
        let mut m_out = p.m_out;
        let was_relaxed = relax_interval(l, &mut p.maxes, &p.samples, &mut m_out);
        p.m_out = m_out;
        if was_relaxed {
            let rw = relaxed_w.get_or_insert_with(|| w.clone());
            for q in 0..w.num_queues() {
                rw.maxes[q][k] = p.maxes[q];
            }
            rw.sent[k] = p.m_out;
        }
        problems.push((p, was_relaxed));
    }

    // Phase 2: solve the (independent, already-relaxed) intervals —
    // sequentially or across `opts.jobs` workers.
    let solved = solve_intervals(&problems, cfg, opts, start);

    // Phase 3 (sequential): deterministic in-order merge + accounting.
    let mut corrected: Vec<Vec<u32>> = vec![vec![0; w.len]; w.num_queues()];
    let mut objective = 0u64;
    let mut levels = Vec::with_capacity(n);
    for (k, ((p, was_relaxed), (sol, rung))) in problems.iter().zip(&solved).enumerate() {
        debug_assert!(sol.is_feasible(p), "ladder produced infeasible interval");
        let level = if *was_relaxed {
            DegradationLevel::MeasurementRelaxed
        } else {
            *rung
        };
        match level {
            DegradationLevel::Full => LADDER_FULL.inc(),
            DegradationLevel::EscalatedRetry => LADDER_RETRY.inc(),
            DegradationLevel::FastFallback => LADDER_FAST.inc(),
            DegradationLevel::ClampProjection => LADDER_CLAMP.inc(),
            DegradationLevel::MeasurementRelaxed => LADDER_RELAXED.inc(),
        }
        objective += sol.objective;
        for (q, row) in corrected.iter_mut().enumerate() {
            row[k * l..(k + 1) * l].copy_from_slice(&sol.values[q]);
        }
        levels.push(level);
    }

    let outcome = LadderOutcome {
        corrected,
        objective,
        levels,
        relaxed: relaxed_w,
    };
    let elapsed = span.finish();
    log_event!(
        "cem.ladder",
        "intervals" = n,
        "objective" = outcome.objective,
        "worst" = outcome.worst().label(),
        "relaxed" = outcome.relaxed.is_some(),
        "us" = elapsed.as_secs_f64() * 1e6,
    );
    outcome
}

/// Enforce a batch of windows through the ladder, parallelizing *across
/// windows* (each window's intervals then run sequentially on their
/// worker — the outer loop already owns the threads; all workers share
/// `opts.cache`). Results are returned in input order; with `deadline:
/// None` each entry is bitwise identical to a standalone
/// [`enforce_degraded`] call. Items may be owned pairs or references to
/// pairs held elsewhere (the server's queued jobs).
pub fn enforce_degraded_batch<I>(
    items: &[I],
    cfg: &LadderConfig,
    opts: &EnforceOptions,
) -> Vec<LadderOutcome>
where
    I: Borrow<(WindowConstraints, Vec<Vec<f32>>)> + Sync,
{
    let enforce_one = |item: &I, opts: &EnforceOptions| {
        let (w, s) = item.borrow();
        enforce_degraded_with(w, s, cfg, opts)
    };
    if !opts.parallel() || items.len() <= 1 {
        return items.iter().map(|i| enforce_one(i, opts)).collect();
    }
    let inner = EnforceOptions::new(1, opts.cache);
    let ctx = trace::current_context();
    rayon::with_max_threads(opts.jobs, || {
        items
            .par_iter()
            .map(|i| trace::with_context(ctx, || enforce_one(i, &inner)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmml_smt::solver::Budget;

    /// Two intervals of 5, 2 queues — feasible as-is.
    fn feasible_window() -> (WindowConstraints, Vec<Vec<f32>>) {
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
        (w, imputed)
    }

    /// The minimal correction, interval by interval: the fast engine's
    /// answer to each [`interval_problem`], stitched in at its interval.
    fn stitched_fast(w: &WindowConstraints, imputed: &[Vec<f32>]) -> (Vec<Vec<u32>>, u64) {
        let l = w.interval_len;
        let mut corrected = vec![vec![0; w.len]; w.num_queues()];
        let mut objective = 0;
        for k in 0..w.intervals() {
            let sol = fast_engine::solve(&interval_problem(w, imputed, k)).expect("feasible");
            objective += sol.objective;
            for (row, values) in corrected.iter_mut().zip(&sol.values) {
                row[k * l..(k + 1) * l].copy_from_slice(values);
            }
        }
        (corrected, objective)
    }

    #[test]
    fn feasible_window_stays_at_full_fidelity_and_matches_enforce() {
        let (w, imputed) = feasible_window();
        let out = enforce_degraded(&w, &imputed, &LadderConfig::default());
        assert!(out.levels.iter().all(|&l| l == DegradationLevel::Full));
        assert!(out.relaxed.is_none());
        assert!(w.satisfied_exact(&out.corrected));
        assert_eq!(
            (out.corrected[0][4], out.corrected[0][9]),
            (1, 0),
            "samples pinned"
        );
        assert_eq!(
            (out.corrected.clone(), out.objective),
            stitched_fast(&w, &imputed)
        );
        assert_eq!(out.summary(), "full=2");
    }

    #[test]
    fn contradictory_sample_is_relaxed_not_fatal() {
        // Sample exceeds max in interval 0: the ladder relaxes and answers.
        let w = WindowConstraints {
            interval_len: 5,
            len: 5,
            maxes: vec![vec![2]],
            samples: vec![vec![4]],
            sent: vec![5],
        };
        let imputed = vec![vec![0.0; 5]];
        let out = enforce_degraded(&w, &imputed, &LadderConfig::default());
        assert_eq!(out.levels, vec![DegradationLevel::MeasurementRelaxed]);
        let eff = out.effective_constraints(&w).clone();
        assert_eq!(eff.maxes[0][0], 4, "max raised to the sample");
        assert!(eff.satisfied_exact(&out.corrected));
    }

    #[test]
    fn zero_sent_with_busy_queue_is_relaxed() {
        let w = WindowConstraints {
            interval_len: 5,
            len: 5,
            maxes: vec![vec![3]],
            samples: vec![vec![0]],
            sent: vec![0],
        };
        let imputed = vec![vec![0.0, 3.0, 0.0, 0.0, 0.0]];
        let out = enforce_degraded(&w, &imputed, &LadderConfig::default());
        assert_eq!(out.worst(), DegradationLevel::MeasurementRelaxed);
        let eff = out.effective_constraints(&w);
        assert_eq!(eff.sent[0], 1, "m_out raised to the witness minimum");
        assert!(eff.satisfied_exact(&out.corrected));
    }

    #[test]
    fn starved_smt_budget_descends_to_the_fast_engine() {
        let (w, imputed) = feasible_window();
        let starved = Budget {
            timeout: Some(Duration::ZERO),
            max_sat_conflicts: Some(1),
            max_bb_nodes: 1,
        };
        let cfg = LadderConfig {
            engine: CemEngine::Smt { budget: starved },
            deadline: None,
            escalation_factor: 2, // escalated budget is still starved
            breaker: None,
        };
        let out = enforce_degraded(&w, &imputed, &cfg);
        assert!(
            out.levels
                .iter()
                .all(|&l| l == DegradationLevel::FastFallback),
            "expected fast fallback, got {:?}",
            out.levels
        );
        // The fast engine is exact, so the answer still satisfies all
        // constraints at the minimal correction.
        assert!(w.satisfied_exact(&out.corrected));
        assert_eq!(out.objective, stitched_fast(&w, &imputed).1);
    }

    #[test]
    fn tripped_breaker_pins_fast_fallback_and_constraints_hold() {
        let (w, imputed) = feasible_window();
        let starved = Budget {
            timeout: Some(Duration::ZERO),
            max_sat_conflicts: Some(1),
            max_bb_nodes: 1,
        };
        let cfg = LadderConfig {
            engine: CemEngine::Smt { budget: starved },
            deadline: None,
            escalation_factor: 2,
            breaker: Some(breaker::BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_secs(3600),
                probes: 1,
            }),
        };
        breaker::reset_global();
        // The first starved solve trips the breaker (threshold 1);
        // every interval after that is short-circuited straight to the
        // fast engine — and the output still satisfies C1 ∧ C2 ∧ C3 at
        // the minimal correction, bitwise identical to a breaker-less run.
        for _ in 0..3 {
            let out = enforce_degraded(&w, &imputed, &cfg);
            assert!(
                out.levels
                    .iter()
                    .all(|&l| l == DegradationLevel::FastFallback),
                "expected fast fallback, got {:?}",
                out.levels
            );
            assert!(w.satisfied_exact(&out.corrected));
            assert_eq!((out.corrected, out.objective), stitched_fast(&w, &imputed));
        }
        assert_eq!(breaker::global_state(), Some(breaker::BreakerState::Open));
        breaker::reset_global();
    }

    #[test]
    fn generous_smt_budget_stays_at_full_fidelity() {
        let (w, imputed) = feasible_window();
        let cfg = LadderConfig {
            engine: CemEngine::Smt {
                budget: Budget::default(),
            },
            deadline: None,
            escalation_factor: 4,
            breaker: None,
        };
        let out = enforce_degraded(&w, &imputed, &cfg);
        assert!(out.levels.iter().all(|&l| l == DegradationLevel::Full));
        assert!(w.satisfied_exact(&out.corrected));
    }

    #[test]
    fn expired_deadline_drops_to_clamp_projection() {
        let (w, imputed) = feasible_window();
        let cfg = LadderConfig {
            engine: CemEngine::Fast,
            deadline: Some(Duration::ZERO),
            escalation_factor: 4,
            breaker: None,
        };
        let out = enforce_degraded(&w, &imputed, &cfg);
        assert!(
            out.levels
                .iter()
                .all(|&l| l == DegradationLevel::ClampProjection),
            "{:?}",
            out.levels
        );
        // Crude, but still provably constraint-satisfying.
        assert!(w.satisfied_exact(&out.corrected));
    }

    #[test]
    fn parallel_and_cached_ladder_match_sequential_bitwise() {
        let (w, imputed) = feasible_window();
        // A contradictory window too, so the relaxation path is covered.
        let wc = WindowConstraints {
            interval_len: 5,
            len: 10,
            maxes: vec![vec![2, 3]],
            samples: vec![vec![4, 0]],
            sent: vec![5, 0],
        };
        let bad = vec![vec![0.5, 2.0, 0.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]];
        let cfg = LadderConfig::default();
        for (win, series) in [(&w, &imputed), (&wc, &bad)] {
            let seq = enforce_degraded(win, series, &cfg);
            let cache = super::super::SolutionCache::new(64);
            for jobs in [0, 2, 4] {
                let opts = EnforceOptions::new(jobs, Some(&cache));
                let out = enforce_degraded_with(win, series, &cfg, &opts);
                assert_eq!(out, seq, "jobs={jobs} diverged");
            }
            assert!(cache.stats().hits > 0);
        }
    }

    #[test]
    fn batch_matches_standalone_ladder_calls() {
        let (w, imputed) = feasible_window();
        let items = vec![(w.clone(), imputed.clone()); 4];
        let cache = super::super::SolutionCache::new(64);
        let cfg = LadderConfig::default();
        let opts = EnforceOptions::new(3, Some(&cache));
        let batch = enforce_degraded_batch(&items, &cfg, &opts);
        let single = enforce_degraded(&w, &imputed, &cfg);
        assert_eq!(batch.len(), 4);
        for out in &batch {
            assert_eq!(out, &single);
        }
    }

    #[test]
    fn cache_hit_upgrades_a_past_deadline_interval() {
        // Warm the cache with no deadline…
        let (w, imputed) = feasible_window();
        let cache = super::super::SolutionCache::new(64);
        let opts = EnforceOptions::new(1, Some(&cache));
        let warm = enforce_degraded_with(&w, &imputed, &LadderConfig::default(), &opts);
        assert!(warm.levels.iter().all(|&l| l == DegradationLevel::Full));
        // …then run with an already-expired deadline: hits answer before
        // the deadline check, so the window still gets the optimal
        // correction instead of the clamp projection.
        let cfg = LadderConfig {
            engine: CemEngine::Fast,
            deadline: Some(Duration::ZERO),
            escalation_factor: 4,
            breaker: None,
        };
        let out = enforce_degraded_with(&w, &imputed, &cfg, &opts);
        assert_eq!(out, warm, "deadline-aware cache must serve the optimum");
        // Without the cache the same config clamps (existing behaviour).
        let clamped = enforce_degraded(&w, &imputed, &cfg);
        assert!(clamped
            .levels
            .iter()
            .all(|&l| l == DegradationLevel::ClampProjection));
    }

    #[test]
    fn clamp_projection_is_feasible_on_relaxed_intervals() {
        let p = IntervalProblem {
            len: 5,
            target: vec![vec![0, 9, 2, 0, 0], vec![1, 1, 1, 1, 0]],
            maxes: vec![7, 3],
            samples: vec![2, 3],
            m_out: 2,
        };
        let sol = clamp_projection(&p);
        assert!(sol.is_feasible(&p), "{sol:?}");
        assert_eq!(sol.objective, sol.l1_objective(&p));
    }

    #[test]
    fn required_nonempty_counts_sample_and_witness_steps() {
        // Sample positive + witness needed elsewhere: 2.
        assert_eq!(required_nonempty(&[5, 0], &[2, 0]), 2);
        // Sample is the witness: 1.
        assert_eq!(required_nonempty(&[5], &[5]), 1);
        // All idle: 0.
        assert_eq!(required_nonempty(&[0, 0], &[0, 0]), 0);
        // Witness only (samples zero): 1.
        assert_eq!(required_nonempty(&[3], &[0]), 1);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for l in DegradationLevel::ALL {
            assert_eq!(DegradationLevel::from_label(l.label()), Some(l));
        }
        assert_eq!(DegradationLevel::from_label("bogus"), None);
        assert_eq!(DegradationLevel::from_label(""), None);
    }

    #[test]
    fn degradation_levels_are_ordered_worst_last() {
        let mut sorted = DegradationLevel::ALL;
        sorted.sort();
        assert_eq!(sorted, DegradationLevel::ALL);
        assert!(DegradationLevel::Full < DegradationLevel::MeasurementRelaxed);
    }
}
