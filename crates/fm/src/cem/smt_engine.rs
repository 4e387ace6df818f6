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
use fmml_obs::Counter;
use fmml_smt::solver::{Budget, OptResult};
use fmml_smt::{Solver, SolverStats};

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

/// Solve one interval with the optimizing SMT encoding, warm-started
/// from the fast engine's optimum: the known objective value is asserted
/// as an upper bound so the solver's first model is already optimal and
/// only the final UNSAT step (the optimality proof) remains. This is the
/// engineering analog of the paper's observation that CEM stays fast
/// because "the transformer output has already satisfied some of the
/// constraints".
pub fn solve_warm(p: &IntervalProblem, budget: Budget) -> Result<IntervalSolution, SmtCemError> {
    match super::fast_engine::solve(p) {
        None => Err(SmtCemError::Infeasible),
        Some(hint) => solve_inner(p, budget, Some(hint.objective)),
    }
}

/// Solve one interval with the optimizing SMT encoding.
pub fn solve(p: &IntervalProblem, budget: Budget) -> Result<IntervalSolution, SmtCemError> {
    solve_inner(p, budget, None)
}

#[allow(clippy::needless_range_loop)]
fn solve_inner(
    p: &IntervalProblem,
    budget: Budget,
    hint: Option<u64>,
) -> Result<IntervalSolution, SmtCemError> {
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
    let mut count_terms = Vec::with_capacity(l);
    for t in 0..l {
        let nz = s.fresh_bool();
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
    let mut dist_terms = Vec::new();
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

    let result = match hint {
        Some(h) => s.minimize_with_hint(obj, 0, h as i64),
        None => s.minimize(obj, 0),
    };
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
