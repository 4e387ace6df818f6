//! Unit-test gaps backing the CEM solution cache's correctness story.
//!
//! The cache (`fmml_fm::cem::cache`) memoizes *solver verdicts*, so the
//! layers it short-circuits must be independently trustworthy:
//!
//! 1. **SAT vs brute force** on generated CNFs — `SatSolver` decides
//!    like exhaustive enumeration of the ≤ 2⁶ assignments;
//! 2. **simplex vs brute-force rational enumeration** on ≤ 3-var LIA
//!    instances — feasible assignments are verified exactly in rational
//!    arithmetic; infeasibility verdicts are cross-checked against an
//!    exhaustive half-integer grid over the variable box;
//! 3. **`Budget::escalate`** — monotone in the factor, identity at 1,
//!    saturating instead of overflowing at the top of the range.

use fmml_smt::rational::Rat;
use fmml_smt::sat::SolveResult;
use fmml_smt::simplex::{Simplex, SpxResult};
use fmml_smt::solver::Budget;
use fmml_smt::{Lit, SatSolver};
use proptest::prelude::*;
use std::time::Duration;

// ------------------------------------------------------------------- SAT

/// Random CNF: up to 6 variables, up to 12 clauses of up to 4 literals
/// (empty clauses included — they must force unsat).
fn arb_cnf() -> impl Strategy<Value = (usize, Vec<Vec<Lit>>)> {
    (1usize..=6).prop_flat_map(|nvars| {
        prop::collection::vec(
            prop::collection::vec((0..nvars as u32, 0u8..2), 0..4),
            0..12,
        )
        .prop_map(move |clauses| {
            let clauses: Vec<Vec<Lit>> = clauses
                .into_iter()
                .map(|c| {
                    c.into_iter()
                        .map(|(v, neg)| Lit::new(v, neg == 1))
                        .collect()
                })
                .collect();
            (nvars, clauses)
        })
    })
}

/// Exhaustively decide a CNF over its ≤ 2⁶ assignments.
fn brute_force_cnf(nvars: usize, clauses: &[Vec<Lit>]) -> bool {
    (0u64..1 << nvars).any(|bits| {
        clauses.iter().all(|clause| {
            clause.iter().any(|lit| {
                let val = bits >> lit.var() & 1 == 1;
                val != lit.is_neg()
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sat_solver_agrees_with_brute_force((nvars, clauses) in arb_cnf()) {
        let mut solver = SatSolver::new();
        for _ in 0..nvars {
            solver.new_var();
        }
        for c in &clauses {
            solver.add_clause(c);
        }
        let got = solver.solve();
        let truth = brute_force_cnf(nvars, &clauses);
        prop_assert_eq!(
            got == SolveResult::Sat, truth,
            "solver {:?} vs brute force {} on {:?}", got, truth, clauses
        );
    }
}

// --------------------------------------------------------------- simplex

/// One `lo ≤ Σ cᵢ·xᵢ ≤ lo + width` constraint with half-integer
/// coefficients.
#[derive(Debug, Clone)]
struct LinRow {
    /// Coefficient numerators; the common denominator is `den`.
    nums: Vec<i64>,
    den: i64,
    lo: i64,
    width: i64,
}

fn arb_rows() -> impl Strategy<Value = Vec<LinRow>> {
    prop::collection::vec(
        (
            prop::collection::vec(-3i64..=3, 3),
            1i64..=2,
            -8i64..=8,
            0i64..=6,
        )
            .prop_map(|(nums, den, lo, width)| LinRow {
                nums,
                den,
                lo,
                width,
            }),
        1..=3,
    )
}

/// Box bound for the 3 problem variables: xᵢ ∈ [-B, B].
const B: i64 = 3;

fn row_value(row: &LinRow, xs: &[Rat]) -> Rat {
    row.nums.iter().zip(xs).fold(Rat::ZERO, |acc, (&n, &x)| {
        acc + Rat::new(n as i128, row.den as i128) * x
    })
}

fn row_holds(row: &LinRow, xs: &[Rat]) -> bool {
    let v = row_value(row, xs);
    Rat::int(row.lo) <= v && v <= Rat::int(row.lo + row.width)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn simplex_agrees_with_rational_enumeration(rows in arb_rows()) {
        let mut spx = Simplex::new();
        let xs: Vec<_> = (0..3).map(|_| spx.new_var()).collect();
        let mut next_tag = 0usize;
        let mut tag = || {
            next_tag += 1;
            next_tag - 1
        };
        let mut infeasible: Option<Vec<usize>> = None;
        let mut note = |r: SpxResult| {
            if let (SpxResult::Infeasible(tags), None) = (r, infeasible.as_ref()) {
                infeasible = Some(tags);
            }
        };
        for &x in &xs {
            let r = spx.assert_lower(x, Rat::int(-B), tag());
            note(r);
            let r = spx.assert_upper(x, Rat::int(B), tag());
            note(r);
        }
        let mut slacks = Vec::new();
        for row in &rows {
            let def: Vec<_> = row
                .nums
                .iter()
                .zip(&xs)
                .map(|(&n, &x)| (x, Rat::new(n as i128, row.den as i128)))
                .collect();
            let s = spx.add_row(&def);
            slacks.push(s);
            let r = spx.assert_lower(s, Rat::int(row.lo), tag());
            note(r);
            let r = spx.assert_upper(s, Rat::int(row.lo + row.width), tag());
            note(r);
        }
        let verdict = match infeasible {
            Some(tags) => SpxResult::Infeasible(tags),
            None => spx.check(),
        };

        match verdict {
            SpxResult::Feasible => {
                // Exact rational witness check: box, row bounds, and the
                // tableau's row/definition identity.
                let vals: Vec<Rat> = xs.iter().map(|&x| spx.value(x)).collect();
                for (i, &v) in vals.iter().enumerate() {
                    prop_assert!(
                        Rat::int(-B) <= v && v <= Rat::int(B),
                        "x{i} = {v} out of box for {rows:?}"
                    );
                }
                for (row, &s) in rows.iter().zip(&slacks) {
                    prop_assert!(
                        row_holds(row, &vals),
                        "row {row:?} violated by {vals:?}"
                    );
                    prop_assert_eq!(
                        spx.value(s), row_value(row, &vals),
                        "slack desynced from definition on {:?}", row
                    );
                }
            }
            SpxResult::Infeasible(tags) => {
                prop_assert!(!tags.is_empty(), "empty conflict for {rows:?}");
                prop_assert!(
                    tags.iter().all(|&t| t < next_tag),
                    "unknown tag in {tags:?} (asserted {next_tag}) for {rows:?}"
                );
                // Completeness spot check: no half-integer grid point in
                // the box satisfies every row. (Half-integers cover every
                // denominator the coefficients can produce… not every
                // rational, but any hit here is a definite simplex bug.)
                for bits in 0..(4 * B as i128 + 1).pow(3) {
                    let mut k = bits;
                    let mut point = Vec::with_capacity(3);
                    for _ in 0..3 {
                        let step = k % (4 * B as i128 + 1);
                        k /= 4 * B as i128 + 1;
                        point.push(Rat::new(step - 2 * B as i128, 2));
                    }
                    prop_assert!(
                        !rows.iter().all(|row| row_holds(row, &point)),
                        "simplex said infeasible but {point:?} satisfies {rows:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- Budget

#[test]
fn escalate_is_monotone_in_the_factor() {
    for base in [Budget::tight(), Budget::default()] {
        let mut prev = base;
        for factor in 1..=6u32 {
            let cur = base.escalate(factor);
            assert!(cur.max_bb_nodes >= prev.max_bb_nodes, "factor {factor}");
            assert!(
                cur.max_sat_conflicts.unwrap() >= prev.max_sat_conflicts.unwrap(),
                "factor {factor}"
            );
            prev = cur;
        }
    }
}

#[test]
fn escalate_by_one_and_zero_are_identity() {
    let base = Budget {
        timeout: Some(Duration::from_millis(125)),
        max_sat_conflicts: Some(4321),
        max_bb_nodes: 999,
    };
    for factor in [0u32, 1] {
        let b = base.escalate(factor);
        assert_eq!(b.timeout, base.timeout, "factor {factor}");
        assert_eq!(b.max_sat_conflicts, base.max_sat_conflicts);
        assert_eq!(b.max_bb_nodes, base.max_bb_nodes);
    }
}

#[test]
fn escalate_scales_every_limit_and_saturates() {
    let base = Budget {
        timeout: Some(Duration::from_secs(2)),
        max_sat_conflicts: Some(50_000),
        max_bb_nodes: 10_000,
    };
    let b = base.escalate(4);
    assert_eq!(b.timeout, Some(Duration::from_secs(8)));
    assert_eq!(b.max_sat_conflicts, Some(200_000));
    assert_eq!(b.max_bb_nodes, 40_000);

    // Repeated escalation saturates instead of wrapping.
    let mut huge = Budget {
        timeout: None,
        max_sat_conflicts: Some(u64::MAX / 2),
        max_bb_nodes: u64::MAX / 2,
    };
    for _ in 0..4 {
        huge = huge.escalate(u32::MAX);
    }
    assert_eq!(huge.max_sat_conflicts, Some(u64::MAX));
    assert_eq!(huge.max_bb_nodes, u64::MAX);
    assert_eq!(huge.timeout, None, "absent limits stay absent");

    // An unbounded conflict budget stays unbounded.
    let unbounded = Budget {
        timeout: None,
        max_sat_conflicts: None,
        max_bb_nodes: 1,
    };
    assert_eq!(unbounded.escalate(7).max_sat_conflicts, None);
}
