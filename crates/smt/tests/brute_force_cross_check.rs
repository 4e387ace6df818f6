//! Cross-validation of the full SMT stack against brute-force enumeration.
//!
//! Random small QF_LIA formulas (bounded integer variables, boolean
//! structure over linear atoms) are decided both by the lazy CDCL(T)
//! solver and by exhaustive enumeration of the variable domain. The
//! verdicts must agree, and every model the solver returns must evaluate
//! to true. This pins down soundness *and* completeness of the whole
//! pipeline (term normalization → Tseitin → CDCL → simplex → B&B) on a
//! space where ground truth is computable.

use fmml_smt::solver::SatResult;
use fmml_smt::{Solver, TermId};
use proptest::prelude::*;

/// A formula AST we can both encode and evaluate.
#[derive(Debug, Clone)]
enum F {
    Atom { coefs: Vec<i64>, rhs: i64 }, // Σ coefs·x ≤ rhs
    Not(Box<F>),
    And(Box<F>, Box<F>),
    Or(Box<F>, Box<F>),
}

fn arb_formula(num_vars: usize, depth: u32) -> impl Strategy<Value = F> {
    let atom = (prop::collection::vec(-3i64..=3, num_vars), -6i64..=6)
        .prop_map(|(coefs, rhs)| F::Atom { coefs, rhs });
    atom.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| F::Not(Box::new(f))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| F::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn encode(f: &F, s: &mut Solver, vars: &[TermId]) -> TermId {
    match f {
        F::Atom { coefs, rhs } => {
            let terms: Vec<TermId> = coefs
                .iter()
                .zip(vars)
                .map(|(&c, &v)| s.mul_const(c, v))
                .collect();
            let sum = s.add(&terms);
            let r = s.int(*rhs);
            s.le(sum, r)
        }
        F::Not(x) => {
            let e = encode(x, s, vars);
            s.not(e)
        }
        F::And(a, b) => {
            let ea = encode(a, s, vars);
            let eb = encode(b, s, vars);
            s.and(&[ea, eb])
        }
        F::Or(a, b) => {
            let ea = encode(a, s, vars);
            let eb = encode(b, s, vars);
            s.or(&[ea, eb])
        }
    }
}

fn eval(f: &F, assignment: &[i64]) -> bool {
    match f {
        F::Atom { coefs, rhs } => {
            coefs
                .iter()
                .zip(assignment)
                .map(|(&c, &x)| c * x)
                .sum::<i64>()
                <= *rhs
        }
        F::Not(x) => !eval(x, assignment),
        F::And(a, b) => eval(a, assignment) && eval(b, assignment),
        F::Or(a, b) => eval(a, assignment) || eval(b, assignment),
    }
}

/// Exhaustively search the domain [-B, B]^n.
fn brute_force_sat(f: &F, num_vars: usize, bound: i64) -> bool {
    let mut assignment = vec![-bound; num_vars];
    loop {
        if eval(f, &assignment) {
            return true;
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == num_vars {
                return false;
            }
            assignment[i] += 1;
            if assignment[i] > bound {
                assignment[i] = -bound;
                i += 1;
            } else {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solver_agrees_with_brute_force(f in arb_formula(3, 3)) {
        const B: i64 = 2;
        let mut s = Solver::new();
        let vars: Vec<TermId> = (0..3).map(|i| s.int_var(&format!("x{i}"))).collect();
        // Domain bounds (same box the brute force searches).
        let lo = s.int(-B);
        let hi = s.int(B);
        for &v in &vars {
            let c1 = s.ge(v, lo);
            s.assert(c1);
            let c2 = s.le(v, hi);
            s.assert(c2);
        }
        let enc = encode(&f, &mut s, &vars);
        s.assert(enc);

        let expected = brute_force_sat(&f, 3, B);
        match s.check() {
            SatResult::Sat => {
                prop_assert!(expected, "solver sat, brute force unsat: {f:?}");
                prop_assert!(s.model_satisfies_assertions(), "self-check failed: {f:?}");
                // The model must actually satisfy the formula.
                let assignment: Vec<i64> = vars.iter().map(|&v| s.model_int(v)).collect();
                prop_assert!(
                    assignment.iter().all(|&x| (-B..=B).contains(&x)),
                    "model out of domain: {assignment:?}"
                );
                prop_assert!(eval(&f, &assignment), "model does not satisfy: {assignment:?} for {f:?}");
            }
            SatResult::Unsat => {
                prop_assert!(!expected, "solver unsat, brute force sat: {f:?}");
            }
            SatResult::Unknown => prop_assert!(false, "budget exhausted on a tiny formula"),
        }
    }
}
