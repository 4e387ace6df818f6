//! Paper-faithful CEM: an optimizing SMT encoding (the role Z3 plays in
//! §3.2), solved with [`fmml_smt`].
//!
//! Variables `x[q][t]` are the corrected queue lengths; the encoding is
//!
//! * C2: `x[q][L−1] = m_len[q]`;
//! * C1: `x[q][t] ≤ m_max[q]` for all `t` and `⋁_t x[q][t] ≥ m_max[q]`;
//! * C3: indicator booleans `nz_t` with `¬nz_t → Σ_q x[q][t] ≤ 0` and
//!   `Σ_t ite(nz_t,1,0) ≤ m_out`;
//! * objective: minimize `Σ_{q,t≠L−1} d[q][t]` with
//!   `d ≥ x − target ∧ d ≥ target − x` (the L1 distance).

use super::{IntervalProblem, IntervalSolution};
use fmml_obs::{Counter, Histogram, Unit};
use fmml_smt::solver::{Budget, OptResult};
use fmml_smt::{SatResult, Solver, SolverStats};
use std::time::Instant;

/// SAT branching decisions across all CEM solver instances.
static SMT_DECISIONS: Counter = Counter::new("smt.decisions");
/// Unit propagations across all CEM solver instances.
static SMT_PROPAGATIONS: Counter = Counter::new("smt.propagations");
/// Conflicts found by unit propagation across all CEM solver instances.
static SMT_CONFLICTS: Counter = Counter::new("smt.conflicts");
/// Conflicts reported by the LIA theory across all CEM solver instances.
static SMT_THEORY_CONFLICTS: Counter = Counter::new("smt.theory_conflicts");
/// Luby restarts across all CEM solver instances.
static SMT_RESTARTS: Counter = Counter::new("smt.restarts");
/// Clauses learned across all CEM solver instances.
static SMT_LEARNED: Counter = Counter::new("smt.learned_clauses");
/// Simplex pivots across all CEM solver instances.
static SMT_PIVOTS: Counter = Counter::new("smt.simplex_pivots");
/// Tableau rows created across all CEM solver instances.
static SMT_ROWS: Counter = Counter::new("smt.tableau_rows");
/// Theory checks at a propagation fixpoint across all CEM solver instances.
static SMT_THEORY_CHECKS: Counter = Counter::new("smt.theory_checks");
/// Full-assignment theory checks across all CEM solver instances.
static SMT_ITERATIONS: Counter = Counter::new("smt.iterations");

/// Where an interval's time goes: building the formula, the checks that
/// ended `Sat` (finding ever better models), and the check that ended
/// `Unsat` (the optimality proof).
static STAGE_BUILD_US: Histogram = Histogram::new("smt.stage.build_us", Unit::Micros);
static STAGE_SEARCH_US: Histogram = Histogram::new("smt.stage.search_us", Unit::Micros);
static STAGE_PROOF_US: Histogram = Histogram::new("smt.stage.proof_us", Unit::Micros);

/// Fold a [`SolverStats`] delta into the process-wide `smt.*` counters.
///
/// The CEM engine calls this for every interval it solves; other SMT
/// users (the CLI's cross-validation pass, benches) can call it with
/// [`SolverStats::delta_since`] of their own snapshots.
pub fn record_solver_stats(delta: &SolverStats) {
    SMT_DECISIONS.add(delta.decisions);
    SMT_PROPAGATIONS.add(delta.propagations);
    SMT_CONFLICTS.add(delta.conflicts);
    SMT_THEORY_CONFLICTS.add(delta.theory_conflicts);
    SMT_RESTARTS.add(delta.restarts);
    SMT_LEARNED.add(delta.learned_clauses);
    SMT_PIVOTS.add(delta.simplex_pivots);
    SMT_ROWS.add(delta.tableau_rows);
    SMT_THEORY_CHECKS.add(delta.theory_checks);
    SMT_ITERATIONS.add(delta.iterations);
}

/// Failure modes of the SMT engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtCemError {
    Infeasible,
    Budget,
}

/// Solve one interval with the optimizing SMT encoding, started from the
/// fast engine's optimum: its corrected series (with the `d = |x − target|`
/// and `nz_t` it implies) goes to the solver as a suggested model. The
/// solver *checks* it against every assertion before it bounds anything,
/// so a wrong fast-engine answer costs time and never an answer; a
/// suggestion that passes is the incumbent, the search starts below it
/// and what is left is the optimality proof. The rest is heuristic: the
/// suggestion's truth values order the search. This is the engineering
/// analog of the paper's observation that CEM stays fast because "the
/// transformer output has already satisfied some of the constraints".
pub fn solve_warm(p: &IntervalProblem, budget: Budget) -> Result<IntervalSolution, SmtCemError> {
    match super::fast_engine::solve(p) {
        None => Err(SmtCemError::Infeasible),
        Some(hint) => solve_inner(p, budget, Some(&hint.values)),
    }
}

/// Solve one interval with the optimizing SMT encoding.
pub fn solve(p: &IntervalProblem, budget: Budget) -> Result<IntervalSolution, SmtCemError> {
    solve_inner(p, budget, None)
}

/// `suggested[q][t]`, if given, is a series to start the search from.
#[allow(clippy::needless_range_loop)]
fn solve_inner(
    p: &IntervalProblem,
    budget: Budget,
    suggested: Option<&[Vec<u32>]>,
) -> Result<IntervalSolution, SmtCemError> {
    let started = Instant::now();
    let nq = p.num_queues();
    let l = p.len;
    let mut s = Solver::new();
    s.set_budget(budget);

    let zero = s.int(0);
    // Corrected values.
    let x: Vec<Vec<_>> = (0..nq)
        .map(|_| (0..l).map(|_| s.fresh_int()).collect())
        .collect();

    for q in 0..nq {
        let m = s.int(p.maxes[q] as i64);
        // Bounds + C1 upper half.
        for t in 0..l {
            let lo = s.ge(x[q][t], zero);
            s.assert(lo);
            let hi = s.le(x[q][t], m);
            s.assert(hi);
        }
        // C2: pin the sample.
        let sv = s.int(p.samples[q] as i64);
        let pin = s.eq(x[q][l - 1], sv);
        s.assert(pin);
        // C1 lower half: some step reaches the max.
        if p.maxes[q] > 0 {
            let witnesses: Vec<_> = (0..l).map(|t| s.ge(x[q][t], m)).collect();
            let any = s.or(&witnesses);
            s.assert(any);
        }
    }

    // C3: indicator per step; ¬nz_t forces the step to be all-zero.
    let one = s.int(1);
    let nz: Vec<_> = (0..l).map(|_| s.fresh_bool()).collect();
    let mut count_terms = Vec::with_capacity(l);
    for (t, &nz) in nz.iter().enumerate() {
        let cols: Vec<_> = (0..nq).map(|q| x[q][t]).collect();
        let sum = s.add(&cols);
        let empty = s.le(sum, zero);
        let not_nz = s.not(nz);
        let link = s.implies(not_nz, empty);
        s.assert(link);
        count_terms.push(s.ite(nz, one, zero));
    }
    let ne = s.add(&count_terms);
    let cap = s.int(p.m_out as i64);
    let c3 = s.le(ne, cap);
    s.assert(c3);

    // Objective: L1 distance to the target over non-sample steps.
    let mut dist_terms = Vec::with_capacity(nq * (l - 1));
    for q in 0..nq {
        for t in 0..l - 1 {
            let d = s.fresh_int();
            let y = s.int(p.target[q][t]);
            let diff = s.sub(x[q][t], y);
            let c1 = s.ge(d, diff);
            s.assert(c1);
            let ndiff = s.neg(diff);
            let c2 = s.ge(d, ndiff);
            s.assert(c2);
            dist_terms.push(d);
        }
    }
    let obj = s.add(&dist_terms);
    let built = Instant::now();

    let result = match suggested {
        Some(values) => {
            let mut ints = Vec::with_capacity(2 * nq * l);
            for q in 0..nq {
                for t in 0..l {
                    ints.push((x[q][t], values[q][t] as i64));
                }
                for t in 0..l - 1 {
                    let d = dist_terms[q * (l - 1) + t];
                    ints.push((d, (values[q][t] as i64 - p.target[q][t]).abs()));
                }
            }
            let bools: Vec<_> = (0..l)
                .map(|t| (nz[t], values.iter().any(|series| series[t] > 0)))
                .collect();
            s.minimize_from(obj, 0, &ints, &bools)
        }
        None => s.minimize(obj, 0),
    };
    let solved = Instant::now();
    let proof_from = match s.last_check() {
        Some((at, SatResult::Unsat)) => at,
        _ => solved,
    };
    STAGE_BUILD_US.record_duration(built - started);
    STAGE_SEARCH_US.record_duration(proof_from - built);
    STAGE_PROOF_US.record_duration(solved - proof_from);
    // The solver is fresh per interval, so its cumulative stats are
    // exactly this interval's work.
    record_solver_stats(&s.stats());
    match result {
        OptResult::Optimal { value, model } => {
            // The solver's answer is checked, not trusted: the model must
            // satisfy every assertion as written above (ites included).
            assert!(
                s.model_satisfies_assertions(),
                "smt model violates an asserted term"
            );
            let values: Vec<Vec<u32>> = (0..nq)
                .map(|q| {
                    (0..l)
                        .map(|t| model.eval_int(s.tm(), x[q][t]) as u32)
                        .collect()
                })
                .collect();
            let sol = IntervalSolution {
                values,
                objective: value as u64,
            };
            debug_assert!(
                sol.is_feasible(p),
                "smt engine produced infeasible solution"
            );
            Ok(sol)
        }
        OptResult::Best { .. } | OptResult::Unknown => Err(SmtCemError::Budget),
        OptResult::Unsat => Err(SmtCemError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> Budget {
        Budget::default()
    }

    #[test]
    fn pins_samples_and_respects_max() {
        let p = IntervalProblem {
            len: 4,
            target: vec![vec![9, 9, 9, 9]],
            maxes: vec![3],
            samples: vec![2],
            m_out: 4,
        };
        let s = solve(&p, budget()).unwrap();
        assert_eq!(s.values[0][3], 2);
        assert!(s.values[0].iter().all(|&v| v <= 3));
        assert_eq!(*s.values[0].iter().max().unwrap(), 3);
        // Clamp 9->3 three times (cost 18), sample pinned free.
        assert_eq!(s.objective, 18);
    }

    #[test]
    fn c3_limits_nonempty_steps() {
        let p = IntervalProblem {
            len: 4,
            target: vec![vec![2, 2, 2, 0]],
            maxes: vec![2],
            samples: vec![0],
            m_out: 1,
        };
        let s = solve(&p, budget()).unwrap();
        let ne = (0..4).filter(|&t| s.values[0][t] > 0).count();
        assert!(ne <= 1);
        assert!(s.is_feasible(&p));
    }

    #[test]
    fn warm_start_reaches_the_same_optimum() {
        let p = IntervalProblem {
            len: 5,
            target: vec![vec![0, 6, 2, 1, 0], vec![1, 0, 0, 2, 0]],
            maxes: vec![4, 2],
            samples: vec![0, 1],
            m_out: 3,
        };
        let cold = solve(&p, budget()).unwrap();
        let warm = solve_warm(&p, budget()).unwrap();
        assert_eq!(cold.objective, warm.objective);
        assert!(warm.is_feasible(&p));
    }

    #[test]
    fn a_corrupted_suggestion_costs_time_not_the_answer() {
        let p = IntervalProblem {
            len: 5,
            target: vec![vec![0, 6, 2, 1, 0], vec![1, 0, 0, 2, 0]],
            maxes: vec![4, 2],
            samples: vec![0, 1],
            m_out: 3,
        };
        let cold = solve(&p, budget()).unwrap();
        let good = super::super::fast_engine::solve(&p).unwrap().values;
        // (corruption, does it leave a feasible — merely worse — series?)
        type Corruption = fn(&mut Vec<Vec<u32>>);
        let corruptions: [(Corruption, bool); 4] = [
            (|v| v[0][1] = 9, false),                          // above the max
            (|v| v[1][4] = 0, false),                          // sample unpinned
            (|v| v.iter_mut().for_each(|q| q.fill(1)), false), // C1, C2 and C3
            (|v| v[0][3] += 1, true),                          // one step further from the target
        ];
        for (corrupt, still_feasible) in corruptions {
            let mut values = good.clone();
            corrupt(&mut values);
            let suggested = IntervalSolution {
                values,
                objective: 0,
            };
            assert_eq!(suggested.is_feasible(&p), still_feasible, "{suggested:?}");
            let s = solve_inner(&p, budget(), Some(&suggested.values)).unwrap();
            assert_eq!(s.objective, cold.objective, "suggested {suggested:?}");
            assert!(s.is_feasible(&p));
        }
    }

    #[test]
    fn warm_start_propagates_infeasibility() {
        let p = IntervalProblem {
            len: 3,
            target: vec![vec![0, 0, 0]],
            maxes: vec![2],
            samples: vec![3], // sample > max
            m_out: 3,
        };
        assert_eq!(solve_warm(&p, budget()), Err(SmtCemError::Infeasible));
    }

    #[test]
    fn unsat_reported() {
        let p = IntervalProblem {
            len: 3,
            target: vec![vec![0, 0, 0]],
            maxes: vec![2],
            samples: vec![0],
            m_out: 0, // needs a positive witness but no nonempty step allowed
        };
        assert_eq!(solve(&p, budget()), Err(SmtCemError::Infeasible));
    }
}
