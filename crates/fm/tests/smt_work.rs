//! Exact-work pin of the SMT rung — the solver's `forward_work.rs`.
//!
//! Three fixed interval problems at the benchmark's `offline-smt` geometry
//! (10 steps × 2 queues), one per non-trivial cost class of
//! `benchmark/src/offline.rs` (1–2, 3–4, ≥ 5 non-empty target steps), and
//! one at paper geometry (50 × 2) go through `smt_engine::solve_warm`;
//! the solver's own counters must read exactly the pinned work, twice in
//! one process. Counts repeat to the unit where wall-clock does not, so a
//! solver PR that removes work edits these numbers downwards and proves
//! it at 0 % spread. `iterations: 0` is the warm start at work: the fast
//! engine's optimum is adopted after being checked, no model is searched
//! for, and everything counted is the optimality proof.
//!
//! One test in this binary: the `smt.*` counters are process-wide.

use fmml_fm::cem::{smt_engine, IntervalProblem};
use fmml_smt::solver::Budget;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    decisions: u64,
    conflicts: u64,
    theory_conflicts: u64,
    iterations: u64,
    pivots: u64,
    tableau_rows: u64,
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
        conflicts: get("smt.conflicts"),
        theory_conflicts: get("smt.theory_conflicts"),
        iterations: get("smt.iterations"),
        pivots: get("smt.simplex_pivots"),
        tableau_rows: get("smt.tableau_rows"),
    }
}

/// Solve once; the work it took and the optimum it proved.
fn solve(p: &IntervalProblem) -> (Work, u64) {
    let before = counters();
    let sol = smt_engine::solve_warm(p, Budget::default()).expect("feasible within budget");
    assert!(sol.is_feasible(p));
    let after = counters();
    let work = Work {
        decisions: after.decisions - before.decisions,
        conflicts: after.conflicts - before.conflicts,
        theory_conflicts: after.theory_conflicts - before.theory_conflicts,
        iterations: after.iterations - before.iterations,
        pivots: after.pivots - before.pivots,
        tableau_rows: after.tableau_rows - before.tableau_rows,
    };
    (work, sol.objective)
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
    // (problem, optimum, pinned work)
    let cases = [
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
                conflicts: 0,
                theory_conflicts: 10,
                iterations: 0,
                pivots: 29,
                tableau_rows: 48,
            },
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
                decisions: 94,
                conflicts: 0,
                theory_conflicts: 21,
                iterations: 0,
                pivots: 63,
                tableau_rows: 48,
            },
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
                decisions: 350,
                conflicts: 5,
                theory_conflicts: 85,
                iterations: 0,
                pivots: 210,
                tableau_rows: 48,
            },
        ),
    ];
    // Paper geometry (50 steps × 2 queues), where ROADMAP item 4's
    // `fm.smt_interval_ms_p50` target is read: 12 non-empty steps, C3
    // admits 8, and queue 0's burst overshoots its max.
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
            decisions: 2081,
            conflicts: 5,
            theory_conflicts: 146,
            iterations: 0,
            pivots: 892,
            tableau_rows: 248,
        },
    );
    for (p, objective, pinned) in cases.iter().chain([&paper_case]) {
        let first = solve(p);
        let second = solve(p);
        assert_eq!(first, second, "work differs between two solves of {p:?}");
        assert_eq!(first, (*pinned, *objective), "work moved on {p:?}");
    }
}
