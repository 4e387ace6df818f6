//! Exact combinatorial CEM projection.
//!
//! Within one interval the decisions decompose as:
//!
//! 1. **Defaults.** Absent other constraints, the cheapest value for every
//!    cell is the target clamped to `[0, m_max]` (C1's upper half is then
//!    free) and the sample step is pinned (C2).
//! 2. **Witnesses (C1 lower half).** Each queue with `m_max > 0` needs one
//!    step at exactly `m_max`. The witness step is forced positive.
//! 3. **Zeroing (C3).** If more steps are positive than `m_out`, whole
//!    steps must be zeroed (a step counts non-empty if *any* queue is
//!    positive). Zeroing costs are independent per step, so given the
//!    witness placement the optimal zero-set is the cheapest
//!    `excess`-many candidates.
//!
//! Enumerating all witness placements (≤ (L+1)^Q combinations; Q = 2
//! queues per port in the paper's switch) and solving the inner zeroing
//! greedily is therefore **exact**. The zeroing candidates do not depend
//! on the placement — a witness only takes its own step out of the
//! running — so they are sorted once per interval, and each placement is
//! costed from prefix sums over that order, skipping its ≤ Q witness
//! ranks. The SMT engine cross-validates this optimality claim on random
//! instances in the test suite.

use super::{IntervalProblem, IntervalSolution};

/// Witness choice for one queue.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Witness {
    /// No witness needed (`m_max == 0`).
    None,
    /// The pinned sample already equals `m_max`.
    Sample,
    /// Free step `t` is lifted to `m_max`.
    Step(usize),
}

/// Solve one interval exactly; `None` if the measurements are infeasible.
pub fn solve(p: &IntervalProblem) -> Option<IntervalSolution> {
    if !p.measurements_consistent() {
        return None;
    }
    let nq = p.num_queues();
    let l = p.len;
    assert!(l >= 1);
    let free = l - 1; // the last step is the pinned sample

    // Per-cell default values and costs.
    let mut default = vec![vec![0i64; free]; nq];
    let mut cost_default = vec![vec![0u64; free]; nq];
    let mut cost_zero = vec![vec![0u64; free]; nq];
    let mut cost_lift = vec![vec![0u64; free]; nq];
    for q in 0..nq {
        let m = p.maxes[q] as i64;
        for t in 0..free {
            let y = p.target[q][t];
            let d = y.clamp(0, m);
            default[q][t] = d;
            cost_default[q][t] = (d - y).unsigned_abs();
            cost_zero[q][t] = y.unsigned_abs();
            cost_lift[q][t] = (m - y).unsigned_abs();
        }
    }
    let base_cost: u64 = cost_default.iter().flatten().sum();
    let sample_positive = (0..nq).any(|q| p.samples[q] > 0);

    // Zeroing candidates `(delta, t)`: the free steps positive by
    // default, cheapest first. `prefix[k]` costs the k cheapest.
    let mut candidates: Vec<(u64, usize)> = (0..free)
        .filter(|&t| (0..nq).any(|q| default[q][t] > 0))
        .map(|t| {
            let delta = (0..nq).map(|q| cost_zero[q][t] - cost_default[q][t]).sum();
            (delta, t)
        })
        .collect();
    candidates.sort_unstable();
    let (mut rank, mut prefix) = (vec![None; free], vec![0]);
    for (r, &(d, t)) in candidates.iter().enumerate() {
        rank[t] = Some(r);
        prefix.push(prefix[r] + d);
    }

    // Witness options per queue.
    let options: Vec<Vec<Witness>> = (0..nq)
        .map(|q| {
            if p.maxes[q] == 0 {
                vec![Witness::None]
            } else if p.samples[q] == p.maxes[q] {
                // The sample is already a witness; lifting a free step too
                // is never cheaper, so Sample is the only option we need.
                vec![Witness::Sample]
            } else {
                (0..free).map(Witness::Step).collect()
            }
        })
        .collect();

    // Enumerate witness combinations (exponential in queues-per-port,
    // which is 2 for the paper's switch). `end`: the candidates of ranks
    // `..end` that are not witnesses are the ones zeroed.
    let mut best: Option<(u64, Vec<Witness>, usize)> = None;
    let mut combo = vec![Witness::None; nq];
    let mut witnesses = Vec::with_capacity(nq);
    enumerate(&options, 0, &mut combo, &mut |combo| {
        // Witness steps are positive (m_max > 0) and never zeroed. Each is
        // keyed by its candidate rank; a step that is no candidate sorts
        // after them all.
        let mut cost = base_cost;
        witnesses.clear();
        for (q, w) in combo.iter().enumerate() {
            if let Witness::Step(t) = *w {
                cost += cost_lift[q][t] - cost_default[q][t];
                witnesses.push(rank[t].unwrap_or(free + t));
            }
        }
        witnesses.sort_unstable();
        witnesses.dedup();
        let skipped = witnesses.iter().filter(|&&r| r < free).count();
        let positives = usize::from(sample_positive) + candidates.len() + witnesses.len() - skipped;
        let mut end = 0;
        if positives > p.m_out as usize {
            let excess = positives - p.m_out as usize;
            if candidates.len() - skipped < excess {
                return; // this combo cannot satisfy C3
            }
            // The `excess` cheapest non-witness candidates.
            end = excess;
            let mut skipped_cost = 0;
            for &r in &witnesses {
                if r < end {
                    end += 1;
                    skipped_cost += candidates[r].0;
                }
            }
            cost += prefix[end] - skipped_cost;
        }
        if best.as_ref().is_none_or(|(bc, _, _)| cost < *bc) {
            best = Some((cost, combo.to_vec(), end));
        }
    });

    let (objective, combo, end) = best?;
    // Reconstruct the solution.
    let mut values = vec![vec![0u32; l]; nq];
    for q in 0..nq {
        for t in 0..free {
            values[q][t] = default[q][t] as u32;
        }
        values[q][l - 1] = p.samples[q];
    }
    for &(_, t) in &candidates[..end] {
        if !combo.contains(&Witness::Step(t)) {
            for qv in values.iter_mut() {
                qv[t] = 0;
            }
        }
    }
    for (q, w) in combo.iter().enumerate() {
        if let Witness::Step(t) = w {
            values[q][*t] = p.maxes[q];
        }
    }
    let sol = IntervalSolution { values, objective };
    debug_assert!(
        sol.is_feasible(p),
        "fast engine produced infeasible solution"
    );
    debug_assert_eq!(
        sol.objective,
        sol.l1_objective(p),
        "objective accounting broken"
    );
    Some(sol)
}

/// Depth-first product over per-queue witness options.
fn enumerate(
    options: &[Vec<Witness>],
    q: usize,
    combo: &mut Vec<Witness>,
    visit: &mut impl FnMut(&[Witness]),
) {
    if q == options.len() {
        visit(combo);
        return;
    }
    for &w in &options[q] {
        combo[q] = w;
        enumerate(options, q + 1, combo, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(target: Vec<Vec<i64>>, maxes: Vec<u32>, samples: Vec<u32>, m_out: u32) -> IntervalProblem {
        let len = target[0].len();
        IntervalProblem {
            len,
            target,
            maxes,
            samples,
            m_out,
        }
    }

    #[test]
    fn already_feasible_input_is_unchanged() {
        // Target satisfies everything: zero objective.
        let prob = p(
            vec![vec![0, 4, 2, 0, 1], vec![0, 0, 0, 0, 0]],
            vec![4, 0],
            vec![1, 0],
            5,
        );
        let s = solve(&prob).unwrap();
        assert_eq!(s.objective, 0);
        assert_eq!(s.values[0], vec![0, 4, 2, 0, 1]);
        assert_eq!(s.values[1], vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn clamps_overshoot_to_max() {
        // Target exceeds m_max at t1: must be clamped (cost 3).
        let prob = p(vec![vec![0, 7, 4, 0, 0]], vec![4], vec![0], 5);
        let s = solve(&prob).unwrap();
        assert_eq!(s.values[0], vec![0, 4, 4, 0, 0]);
        assert_eq!(s.objective, 3);
    }

    #[test]
    fn lifts_a_witness_when_underestimating() {
        // Max is 5 but the target only reaches 3: cheapest lift is at the
        // largest value (t1, cost 2).
        let prob = p(vec![vec![0, 3, 1, 0, 0]], vec![5], vec![0], 5);
        let s = solve(&prob).unwrap();
        assert_eq!(s.objective, 2);
        assert_eq!(s.values[0][1], 5);
        assert_eq!(*s.values[0].iter().max().unwrap(), 5);
    }

    #[test]
    fn sample_witness_avoids_any_lift() {
        // Sample (pinned, value 5) equals m_max: no witness cost at all.
        let prob = p(vec![vec![0, 3, 1, 0, 0]], vec![5], vec![5], 5);
        let s = solve(&prob).unwrap();
        assert_eq!(s.objective, 0);
        assert_eq!(s.values[0], vec![0, 3, 1, 0, 5]);
    }

    #[test]
    fn zeroes_cheapest_steps_for_c3() {
        // 4 positive steps (t0..t3) but m_out = 2: zero the two cheapest
        // (values 1 at t2, t3) -> cost 2.
        let prob = p(vec![vec![5, 4, 1, 1, 0]], vec![5], vec![0], 2);
        let s = solve(&prob).unwrap();
        assert_eq!(s.values[0], vec![5, 4, 0, 0, 0]);
        assert_eq!(s.objective, 2);
    }

    #[test]
    fn witness_step_is_never_zeroed() {
        // m_out = 1: the only positive step allowed must be the witness.
        let prob = p(vec![vec![2, 1, 0, 0, 0]], vec![3], vec![0], 1);
        let s = solve(&prob).unwrap();
        assert!(s.is_feasible(&prob));
        // Witness lifted to 3 somewhere; all other steps zero.
        let pos: Vec<usize> = (0..5).filter(|&t| s.values[0][t] > 0).collect();
        assert_eq!(pos.len(), 1);
        assert_eq!(s.values[0][pos[0]], 3);
        // Optimal: lift t0 (2->3, cost 1) and zero t1 (cost 1) = 2.
        assert_eq!(s.objective, 2);
    }

    #[test]
    fn two_queue_coupling_through_c3() {
        // Each queue has one positive step at different times; m_out = 1
        // forces them onto … no wait, witnesses can share a step.
        let prob = p(
            vec![vec![0, 2, 0, 0, 0], vec![0, 0, 3, 0, 0]],
            vec![2, 3],
            vec![0, 0],
            1,
        );
        let s = solve(&prob).unwrap();
        assert!(s.is_feasible(&prob));
        // Both witnesses must land on the same step.
        let pos: Vec<usize> = (0..5)
            .filter(|&t| s.values[0][t] > 0 || s.values[1][t] > 0)
            .collect();
        assert_eq!(pos.len(), 1);
        let t = pos[0];
        assert_eq!(s.values[0][t], 2);
        assert_eq!(s.values[1][t], 3);
        // Cheapest shared step: t1 (move q1's 3: cost 3+... ) vs t2
        // (move q0's 2: zero t1 cost 2, lift q0 at t2 cost 2 -> 4) vs
        // t1 (zero t2 cost 3, lift q1 at t1 cost 3 -> 6). Optimal 4.
        assert_eq!(s.objective, 4);
    }

    #[test]
    fn infeasible_when_sample_exceeds_max() {
        let prob = p(vec![vec![0; 5]], vec![2], vec![3], 5);
        assert!(solve(&prob).is_none());
    }

    #[test]
    fn infeasible_when_m_out_zero_but_max_positive() {
        let prob = p(vec![vec![0; 5]], vec![2], vec![0], 0);
        assert!(solve(&prob).is_none());
    }

    #[test]
    fn m_out_zero_with_all_zero_measurements_is_fine() {
        let prob = p(vec![vec![3, 1, 0, 2, 0]], vec![0], vec![0], 0);
        let s = solve(&prob).unwrap();
        assert_eq!(s.values[0], vec![0; 5]);
        assert_eq!(s.objective, 6);
    }
}
