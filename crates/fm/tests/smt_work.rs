//! Exact-work pin of the SMT rung — the solver's `forward_work.rs`.
//!
//! Four fixed interval problems at the benchmark's `offline-smt` geometry
//! (10 steps × 2 queues), one per cost class of `benchmark/src/offline.rs`
//! (0, 1–2, 3–4, ≥ 5 non-empty target steps), and one at paper geometry
//! (50 × 2) go through `smt_engine::solve_warm`;
//! the solver's own counters must read exactly the pinned work, and the
//! solved series its pinned hash, twice in one process. Counts repeat to
//! the unit where wall-clock does not, so a solver PR that removes work
//! edits these numbers downwards and proves it at 0 % spread. `iterations: 0` is the warm start at work: the fast
//! engine's optimum is adopted after being checked, no model is searched
//! for, and everything counted is the optimality proof.
//!
//! One test in this binary: the `smt.*` counters are process-wide.

use fmml_fm::cem::{self, smt_engine, IntervalProblem};
use fmml_smt::solver::Budget;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    decisions: u64,
    propagations: u64,
    conflicts: u64,
    theory_conflicts: u64,
    iterations: u64,
    pivots: u64,
    tableau_rows: u64,
    learned_clauses: u64,
    theory_checks: u64,
    restarts: u64,
}

fn counters() -> Work {
    let snap = fmml_obs::snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    Work {
        decisions: get("smt.decisions"),
        propagations: get("smt.propagations"),
        conflicts: get("smt.conflicts"),
        theory_conflicts: get("smt.theory_conflicts"),
        iterations: get("smt.iterations"),
        pivots: get("smt.simplex_pivots"),
        tableau_rows: get("smt.tableau_rows"),
        learned_clauses: get("smt.learned_clauses"),
        theory_checks: get("smt.theory_checks"),
        restarts: get("smt.restarts"),
    }
}

/// Solve once; the work it took, the optimum it proved and the hash of
/// the series it returned.
fn solve(p: &IntervalProblem) -> (Work, u64, u64) {
    let before = counters();
    let sol = smt_engine::solve_warm(p, Budget::default()).expect("feasible within budget");
    assert!(sol.is_feasible(p));
    let after = counters();
    let work = Work {
        decisions: after.decisions - before.decisions,
        propagations: after.propagations - before.propagations,
        conflicts: after.conflicts - before.conflicts,
        theory_conflicts: after.theory_conflicts - before.theory_conflicts,
        iterations: after.iterations - before.iterations,
        pivots: after.pivots - before.pivots,
        tableau_rows: after.tableau_rows - before.tableau_rows,
        learned_clauses: after.learned_clauses - before.learned_clauses,
        theory_checks: after.theory_checks - before.theory_checks,
        restarts: after.restarts - before.restarts,
    };
    (work, sol.objective, cem::hash_u32_series(&sol.values))
}

fn problem<const L: usize>(
    target: [[i64; L]; 2],
    maxes: [u32; 2],
    samples: [u32; 2],
    m_out: u32,
) -> IntervalProblem {
    IntervalProblem {
        len: L,
        target: target.iter().map(|q| q.to_vec()).collect(),
        maxes: maxes.to_vec(),
        samples: samples.to_vec(),
        m_out,
    }
}

#[test]
fn solver_work_is_pinned_per_cost_class() {
    // (problem, optimum, pinned work, hash of the solved series)
    let cases = [
        // No non-empty step: an all-zero target, so the only cost is
        // queue 0's witness; queue 1's sample is its max.
        (
            problem([[0; 10]; 2], [3, 1], [0, 1], 2),
            3,
            Work {
                decisions: 37,
                propagations: 9,
                conflicts: 0,
                theory_conflicts: 10,
                iterations: 0,
                pivots: 8,
                tableau_rows: 2,
                learned_clauses: 9,
                theory_checks: 46,
                restarts: 0,
            },
            10_967_786_812_269_883_893,
        ),
        // 2 non-empty steps: one burst per queue, nothing to trim.
        (
            problem(
                [
                    [0, 0, 3, 0, 0, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, 0, 2, 0, 0, 0],
                ],
                [4, 2],
                [0, 0],
                3,
            ),
            1,
            Work {
                decisions: 39,
                propagations: 9,
                conflicts: 0,
                theory_conflicts: 10,
                iterations: 0,
                pivots: 12,
                tableau_rows: 4,
                learned_clauses: 9,
                theory_checks: 48,
                restarts: 0,
            },
            17_012_978_563_216_570_241,
        ),
        // 4 non-empty steps, C3 admits 3: one must be emptied.
        (
            problem(
                [
                    [0, 2, 5, 1, 0, 0, 0, 0, 0, 0],
                    [0, 0, 1, 0, 0, 0, 3, 0, 0, 0],
                ],
                [4, 2],
                [0, 1],
                3,
            ),
            5,
            Work {
                decisions: 98,
                propagations: 265,
                conflicts: 0,
                theory_conflicts: 21,
                iterations: 0,
                pivots: 46,
                tableau_rows: 8,
                learned_clauses: 20,
                theory_checks: 111,
                restarts: 0,
            },
            9_708_695_365_734_855_569,
        ),
        // 9 non-empty steps, C3 admits 5: the heavy class.
        (
            problem(
                [
                    [1, 2, 6, 3, 0, 1, 0, 2, 0, 0],
                    [0, 1, 1, 0, 2, 0, 3, 1, 0, 1],
                ],
                [5, 2],
                [1, 1],
                5,
            ),
            9,
            Work {
                decisions: 423,
                propagations: 1456,
                conflicts: 10,
                theory_conflicts: 107,
                iterations: 0,
                pivots: 241,
                tableau_rows: 18,
                learned_clauses: 116,
                theory_checks: 514,
                restarts: 1,
            },
            15_837_894_569_226_808_771,
        ),
    ];
    // Paper geometry (50 steps × 2 queues), where ROADMAP item 4's
    // acceptance (an SMT interval p90 ≤ 50 ms) is read: 12 non-empty
    // steps, C3 admits 8, and queue 0's burst overshoots its max.
    let mut paper = [[0i64; 50]; 2];
    for (t, v) in [
        (5, 2),
        (6, 5),
        (7, 7),
        (8, 3),
        (20, 1),
        (31, 4),
        (32, 4),
        (33, 2),
    ] {
        paper[0][t] = v;
    }
    for (t, v) in [(6, 1), (12, 3), (13, 2), (32, 2), (40, 1)] {
        paper[1][t] = v;
    }
    let paper_case = (
        problem(paper, [6, 3], [0, 1], 8),
        7,
        Work {
            decisions: 2100,
            propagations: 3288,
            conflicts: 5,
            theory_conflicts: 152,
            iterations: 0,
            pivots: 806,
            tableau_rows: 24,
            learned_clauses: 156,
            theory_checks: 2202,
            restarts: 2,
        },
        13_608_930_404_757_105_652,
    );
    for (p, objective, pinned, series) in cases.iter().chain([&paper_case]) {
        let first = solve(p);
        let second = solve(p);
        assert_eq!(first, second, "work differs between two solves of {p:?}");
        assert_eq!(first, (*pinned, *objective, *series), "work moved on {p:?}");
    }
}
