//! The seams of the online CDCL(T) loop, tested from outside the crate:
//!
//! (a) bounds follow the trail — after any interleaving of `assert_lit` /
//!     `push_level` / `backtrack_to` / `check`, the simplex holds exactly
//!     the bounds of a fresh solver given the surviving literals, and its
//!     tableau invariants (sorted rows, row equations, nonbasic bounds)
//!     hold after every single operation;
//! (b) single-variable atoms are bounds on the variable, rounded exactly;
//! (c) every conflict clause negates literals that were really asserted;
//! (d) `Rat`'s integer fast path ≡ the general cross-multiplied path;
//! (e) the conflict budget counts theory conflicts.

use fmml_smt::lia::LiaSolver;
use fmml_smt::rational::Rat;
use fmml_smt::sat::{Theory, TheoryResult, Var};
use fmml_smt::solver::{Budget, SatResult};
use fmml_smt::{Lit, Solver, TermId};
use proptest::prelude::*;
use std::cmp::Ordering;

// ------------------------------------------------- (a) + (c) trail-following

const NUM_VARS: usize = 3;

/// `Σ coefs·x ≤ rhs`; SAT variable = position in the atom list.
type Atom = (Vec<i64>, i64);

#[derive(Debug, Clone)]
enum Op {
    Assert(usize, bool),
    Push,
    /// Backtrack to `k mod (open levels + 1)`.
    Backtrack(usize),
    Check,
}

fn arb_atoms() -> impl Strategy<Value = Vec<Atom>> {
    prop::collection::vec(
        (prop::collection::vec(-2i64..=2, NUM_VARS), -6i64..=6),
        2..8,
    )
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Half asserts, a quarter pushes, an eighth each of the rest.
    prop::collection::vec(
        (0u8..8, 0usize..8, 0u8..2).prop_map(|(kind, k, pol)| match kind {
            0..=3 => Op::Assert(k, pol == 1),
            4 | 5 => Op::Push,
            6 => Op::Backtrack(k),
            _ => Op::Check,
        }),
        0..40,
    )
}

fn solver_with(atoms: &[Atom]) -> LiaSolver {
    let mut lia = LiaSolver::new();
    let xs: Vec<_> = (0..NUM_VARS).map(|_| lia.new_int_var()).collect();
    for (i, (coefs, rhs)) in atoms.iter().enumerate() {
        let terms: Vec<_> = xs
            .iter()
            .zip(coefs)
            .filter(|(_, &c)| c != 0)
            .map(|(&x, &c)| (x, c))
            .collect();
        lia.add_atom(&terms, *rhs, i as Var);
    }
    lia
}

/// A conflict clause must negate only literals in `asserted`.
fn clause_cites_only(r: &TheoryResult, asserted: &[Lit]) -> bool {
    match r {
        TheoryResult::Conflict(clause) => {
            !clause.is_empty() && clause.iter().all(|l| asserted.contains(&l.negate()))
        }
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounds_follow_the_trail((atoms, ops) in (arb_atoms(), arb_ops())) {
        let mut lia = solver_with(&atoms);
        // Literals the theory accepted, one list per open level.
        let mut levels: Vec<Vec<Lit>> = vec![Vec::new()];
        for op in &ops {
            match *op {
                Op::Assert(a, pol) => {
                    let lit = Lit::new((a % atoms.len()) as Var, !pol);
                    let r = lia.assert_lit(lit);
                    let mut asserted: Vec<Lit> = levels.concat();
                    asserted.push(lit);
                    prop_assert!(clause_cites_only(&r, &asserted), "{r:?} vs {asserted:?}");
                    if r == TheoryResult::Consistent {
                        levels.last_mut().unwrap().push(lit);
                    }
                }
                Op::Push => {
                    lia.push_level();
                    levels.push(Vec::new());
                }
                Op::Backtrack(k) => {
                    let level = k % levels.len();
                    lia.backtrack_to(level as u32);
                    levels.truncate(level + 1);
                }
                Op::Check => {
                    let r = lia.check();
                    prop_assert!(clause_cites_only(&r, &levels.concat()), "{r:?}");
                }
            }
            lia.assert_invariants();
        }
        let mut fresh = solver_with(&atoms);
        for &lit in levels.iter().flatten() {
            prop_assert_eq!(fresh.assert_lit(lit), TheoryResult::Consistent);
        }
        // Problem variables first, then one slack per tableau row.
        for v in 0..NUM_VARS + lia.num_rows() {
            prop_assert_eq!(lia.bounds(v), fresh.bounds(v), "bounds of var {}", v);
        }
        let (got, want) = (lia.check(), fresh.check());
        lia.assert_invariants();
        fresh.assert_invariants();
        prop_assert!(clause_cites_only(&got, &levels.concat()), "{got:?}");
        prop_assert_eq!(
            got == TheoryResult::Consistent,
            want == TheoryResult::Consistent,
            "trail-following {:?} vs fresh {:?}", got, want
        );
    }
}

// ------------------------------------------------------- (b) direct bounds

#[test]
fn single_variable_atoms_bound_the_variable_itself() {
    // (coefficient, rhs, polarity, expected (lower, upper) of x).
    let cases = [
        (2, 5, true, (None, Some(2))),    //  2x ≤ 5   ⇒ x ≤ 2
        (2, 5, false, (Some(3), None)),   // ¬(2x ≤ 5) ⇒ x ≥ 3
        (-3, 7, true, (Some(-2), None)),  // −3x ≤ 7   ⇒ x ≥ −2
        (-3, 7, false, (None, Some(-3))), // ¬(−3x ≤ 7) ⇒ x ≤ −3
    ];
    for (c, rhs, pol, want) in cases {
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        lia.add_atom(&[(x, c)], rhs, 0);
        assert_eq!(lia.assert_lit(Lit::new(0, !pol)), TheoryResult::Consistent);
        assert_eq!(lia.bounds(x), want, "{c}x <= {rhs}, polarity {pol}");
        assert_eq!(lia.num_rows(), 0, "a bound, not a row");
        // Against enumeration: the bounds admit exactly the grid points
        // the atom (or its negation) admits.
        let (lo, hi) = lia.bounds(x);
        for v in -10i64..=10 {
            let in_bounds = lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v <= h);
            assert_eq!(
                in_bounds,
                (c * v <= rhs) == pol,
                "x = {v} under {c}x <= {rhs}"
            );
        }
    }
}

#[test]
fn only_multi_variable_atoms_add_rows() {
    let mut lia = LiaSolver::new();
    let x = lia.new_int_var();
    let y = lia.new_int_var();
    lia.add_atom(&[(x, 1)], 3, 0);
    lia.add_atom(&[(y, -4)], 9, 1);
    assert_eq!(lia.num_rows(), 0);
    lia.add_atom(&[(x, 1), (y, 1)], 5, 2);
    lia.add_atom(&[(x, 2), (y, -1)], 0, 3);
    assert_eq!((lia.num_atoms(), lia.num_rows()), (4, 2));
}

// ------------------------------------------------------------ (d) rationals

/// The pre-fast-path formulas: cross-multiply, then normalize.
fn general(op: char, (an, ad): (i128, i128), (bn, bd): (i128, i128)) -> Rat {
    match op {
        '+' => Rat::new(an * bd + bn * ad, ad * bd),
        '-' => Rat::new(an * bd - bn * ad, ad * bd),
        _ => Rat::new(an * bn, ad * bd),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn integer_rats_are_plain_integer_arithmetic(
        a in -(1i64 << 40)..(1i64 << 40),
        b in -(1i64 << 40)..(1i64 << 40),
    ) {
        let (ra, rb) = (Rat::int(a), Rat::int(b));
        let (a, b) = (a as i128, b as i128);
        prop_assert_eq!(ra + rb, Rat::new(a + b, 1));
        prop_assert_eq!(ra - rb, Rat::new(a - b, 1));
        prop_assert_eq!(ra * rb, Rat::new(a * b, 1));
        prop_assert_eq!(ra.cmp(&rb), a.cmp(&b));
        prop_assert!((ra + rb).is_integer() && (ra * rb).is_integer());
    }

    #[test]
    fn mixed_rats_match_the_cross_multiplied_formulas(
        a in (-50i64..=50, 1i64..=6),
        b in (-50i64..=50, 1i64..=6),
    ) {
        let (a, b) = ((a.0 as i128, a.1 as i128), (b.0 as i128, b.1 as i128));
        let (ra, rb) = (Rat::new(a.0, a.1), Rat::new(b.0, b.1));
        prop_assert_eq!(ra + rb, general('+', a, b));
        prop_assert_eq!(ra - rb, general('-', a, b));
        prop_assert_eq!(ra * rb, general('*', a, b));
        let want: Ordering = (a.0 * b.1).cmp(&(b.0 * a.1));
        prop_assert_eq!(ra.cmp(&rb), want);
    }
}

// ------------------------------------------------------------ (e) budgets

/// `n` integers in `n − 1` slots, all distinct: unsat, and every early
/// conflict is the theory's (the boolean skeleton alone is satisfiable).
fn all_distinct(s: &mut Solver, n: usize) {
    let vars: Vec<TermId> = (0..n).map(|i| s.int_var(&format!("v{i}"))).collect();
    let zero = s.int(0);
    let top = s.int(n as i64 - 2);
    for &v in &vars {
        let lo = s.ge(v, zero);
        let hi = s.le(v, top);
        s.assert(lo);
        s.assert(hi);
    }
    for i in 0..n {
        for j in i + 1..n {
            let lt = s.lt(vars[i], vars[j]);
            let gt = s.gt(vars[i], vars[j]);
            let apart = s.or(&[lt, gt]);
            s.assert(apart);
        }
    }
}

#[test]
fn theory_conflicts_alone_exhaust_the_conflict_budget() {
    let mut s = Solver::new();
    all_distinct(&mut s, 7);
    s.set_budget(Budget {
        timeout: None,
        max_sat_conflicts: Some(2),
        max_bb_nodes: 1_000,
    });
    assert_eq!(s.check(), SatResult::Unknown);
    let stats = s.stats();
    assert_eq!(
        (stats.conflicts, stats.theory_conflicts),
        (0, 3),
        "the third theory conflict is over a budget of two: {stats:?}"
    );
    // With room to search, the same solver proves it.
    s.set_budget(Budget::default());
    assert_eq!(s.check(), SatResult::Unsat);
    assert!(!s.model_satisfies_assertions(), "no model after Unsat");
}
