//! Property-based cross-validation of the two CEM engines.
//!
//! The fast engine claims exact optimality; the SMT engine is optimal by
//! construction (branch-and-bound + iterative strengthening to a proven
//! bound). On random small instances both must (a) agree on feasibility,
//! (b) produce feasible solutions, and (c) reach the same objective —
//! whether the SMT engine starts cold or from the fast engine's answer.
//! One level down, a suggested assignment handed to the solver is a
//! search heuristic: any garbage must leave the verdict and the optimum
//! where they were.

use fmml_fm::cem::{fast_engine, smt_engine, IntervalProblem};
use fmml_smt::solver::{Budget, OptResult};
use fmml_smt::{Solver, TermId};
use proptest::prelude::*;

fn arb_problem() -> impl Strategy<Value = IntervalProblem> {
    // 2 queues, short intervals keep the SMT side fast.
    (3usize..7, 0u32..5, 0u32..5, 0u32..8).prop_flat_map(|(len, max0, max1, m_out)| {
        let t0 = prop::collection::vec(0i64..6, len);
        let t1 = prop::collection::vec(0i64..6, len);
        let s0 = 0u32..=max0;
        let s1 = 0u32..=max1;
        (t0, t1, s0, s1).prop_map(move |(t0, t1, s0, s1)| IntervalProblem {
            len,
            target: vec![t0, t1],
            maxes: vec![max0, max1],
            samples: vec![s0, s1],
            m_out,
        })
    })
}

/// Three ints in `[−4, 4]` and two bools under random linear atoms
/// (`Σ cᵢ·xᵢ ≤ rhs`), binary clauses over those atoms and the bools, and
/// an objective `Σ oᵢ·xᵢ + ite(p, 2, 0)`.
#[derive(Debug, Clone)]
struct LiaSpec {
    atoms: Vec<(Vec<i64>, i64)>,
    /// `(lit, lit)`: index into atoms then bools, negated if the flag is set.
    clauses: Vec<((usize, bool), (usize, bool))>,
    objective: Vec<i64>,
}

fn arb_lia() -> impl Strategy<Value = LiaSpec> {
    let coefs = || prop::collection::vec(-2i64..=2, 3);
    let lit = || (0usize..16, 0u8..2).prop_map(|(i, negated)| (i, negated == 1));
    (
        prop::collection::vec((coefs(), -4i64..=4), 2..8),
        prop::collection::vec((lit(), lit()), 0..8),
        coefs(),
    )
        .prop_map(|(atoms, clauses, objective)| LiaSpec {
            atoms,
            clauses,
            objective,
        })
}

/// Assert `spec` into `s`; returns `(ints, bools, objective)`.
fn build_lia(s: &mut Solver, spec: &LiaSpec) -> (Vec<TermId>, Vec<TermId>, TermId) {
    let xs: Vec<TermId> = (0..3).map(|_| s.fresh_int()).collect();
    let bools: Vec<TermId> = (0..2).map(|_| s.fresh_bool()).collect();
    let (lo, hi) = (s.int(-4), s.int(4));
    for &x in &xs {
        let (above, below) = (s.ge(x, lo), s.le(x, hi));
        s.assert(above);
        s.assert(below);
    }
    let weighted = |s: &mut Solver, coefs: &[i64]| {
        let parts: Vec<TermId> = xs
            .iter()
            .zip(coefs)
            .map(|(&x, &c)| s.mul_const(c, x))
            .collect();
        s.add(&parts)
    };
    let mut lits = Vec::new();
    for (coefs, rhs) in &spec.atoms {
        let (lhs, rhs) = (weighted(s, coefs), s.int(*rhs));
        lits.push(s.le(lhs, rhs));
    }
    lits.extend(&bools);
    let pick = |s: &mut Solver, (i, negated): (usize, bool)| {
        let t = lits[i % lits.len()];
        if negated {
            s.not(t)
        } else {
            t
        }
    };
    for &(a, b) in &spec.clauses {
        let (a, b) = (pick(s, a), pick(s, b));
        let clause = s.or(&[a, b]);
        s.assert(clause);
    }
    let (zero, two) = (s.int(0), s.int(2));
    let bonus = s.ite(bools[0], two, zero);
    let linear = weighted(s, &spec.objective);
    let objective = s.add(&[linear, bonus]);
    // Mention the objective in an atom so that its ite is lowered (and
    // so reachable by a suggestion) before the search starts.
    let cap = s.int(100);
    let capped = s.le(objective, cap);
    s.assert(capped);
    (xs, bools, objective)
}

/// `Some(optimum)` or `None` for `Unsat`; anything else fails the test.
fn verdict(r: OptResult) -> Result<Option<i64>, String> {
    match r {
        OptResult::Optimal { value, .. } => Ok(Some(value)),
        OptResult::Unsat => Ok(None),
        r => Err(format!("budget ran out: {r:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn engines_agree_on_feasibility_and_objective(p in arb_problem()) {
        let fast = fast_engine::solve(&p);
        let cold = smt_engine::solve(&p, Budget::default());
        let warm = smt_engine::solve_warm(&p, Budget::default());
        match (fast, cold, warm) {
            (Some(f), Ok(c), Ok(w)) => {
                for (name, s) in [("fast", &f), ("smt cold", &c), ("smt warm", &w)] {
                    prop_assert!(s.is_feasible(&p), "{name} infeasible output: {s:?}");
                    prop_assert_eq!(s.objective, s.l1_objective(&p), "{}", name);
                }
                prop_assert_eq!(f.objective, c.objective,
                    "objectives differ: fast={:?} smt cold={:?}", f, c);
                prop_assert_eq!(f.objective, w.objective,
                    "objectives differ: fast={:?} smt warm={:?}", f, w);
            }
            (
                None,
                Err(smt_engine::SmtCemError::Infeasible),
                Err(smt_engine::SmtCemError::Infeasible),
            ) => {}
            (f, c, w) => prop_assert!(
                false,
                "feasibility disagreement: fast={f:?} smt cold={c:?} smt warm={w:?}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_garbage_suggestion_never_changes_the_answer(
        spec in arb_lia(),
        ints in prop::collection::vec(-5i64..=5, 3),
        bools in prop::collection::vec(0u8..2, 2),
    ) {
        let mut cold = Solver::new();
        let (.., objective) = build_lia(&mut cold, &spec);
        let want = verdict(cold.minimize(objective, i64::MIN))?;

        let mut warm = Solver::new();
        let (xs, ps, objective) = build_lia(&mut warm, &spec);
        let ints: Vec<_> = xs.into_iter().zip(ints).collect();
        let bools: Vec<_> = ps.into_iter().zip(bools.iter().map(|&b| b == 1)).collect();
        let got = verdict(warm.minimize_from(objective, i64::MIN, &ints, &bools))?;
        prop_assert_eq!(got, want);
        prop_assert_eq!(got.is_some(), warm.model_satisfies_assertions());
    }
}
