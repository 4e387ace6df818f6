//! Bounded-variable simplex with Farkas-style conflict explanations.
//!
//! The classic "simplex for DPLL(T)" architecture (de Moura & Bjørner):
//! every linear constraint `Σ aᵢxᵢ ⋈ c` is materialized once as a *slack
//! variable* `s = Σ aᵢxᵢ` (a tableau row); asserting the constraint then
//! just places a bound on `s`. The solver maintains an assignment β that
//! always satisfies the tableau equations and all *nonbasic* bounds;
//! `check` pivots (Bland's rule, guaranteeing termination) until basic
//! bounds hold too, or reports a conflict as the set of bound *tags* that
//! form an infeasible row — a minimal explanation the SAT solver analyzes
//! as a conflict clause.
//!
//! Bounds support push/pop (a trail): one scope per SAT decision level,
//! and nested scopes for branch & bound. Rows and the assignment survive
//! a pop; only bounds are undone.

use crate::rational::Rat;

/// Index of a simplex variable (problem vars and slack vars alike).
pub type SpxVar = usize;

/// Opaque tag identifying which asserted atom produced a bound; conflicts
/// are reported as sets of tags.
pub type Tag = usize;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    value: Rat,
    tag: Tag,
}

/// A tableau row: `basic = Σ coeff · nonbasic`.
#[derive(Debug, Clone)]
struct Row {
    basic: SpxVar,
    /// Sparse (var, coeff) pairs over *nonbasic* variables, coeff ≠ 0.
    coeffs: Vec<(SpxVar, Rat)>,
}

impl Row {
    fn coeff(&self, v: SpxVar) -> Rat {
        self.coeffs
            .iter()
            .find(|&&(u, _)| u == v)
            .map(|&(_, c)| c)
            .unwrap_or(Rat::ZERO)
    }
}

/// Result of a feasibility check.
#[derive(Debug, Clone, PartialEq)]
pub enum SpxResult {
    Feasible,
    /// Tags of the bounds forming an infeasible combination.
    Infeasible(Vec<Tag>),
}

#[derive(Debug, Clone, Copy)]
enum TrailOp {
    Lower(SpxVar, Option<(Rat, Tag)>),
    Upper(SpxVar, Option<(Rat, Tag)>),
}

/// The simplex tableau and assignment.
pub struct Simplex {
    num_vars: usize,
    rows: Vec<Row>,
    /// `row_of[v]`: index into `rows` if `v` is basic.
    row_of: Vec<Option<usize>>,
    values: Vec<Rat>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    trail: Vec<TrailOp>,
    trail_lim: Vec<usize>,
    /// A bound moved, or a check failed, since the last `Feasible` check:
    /// β may violate a basic variable's bound. Clear means `check` has
    /// nothing to repair (a pop only loosens bounds).
    dirty: bool,
    /// Total pivots performed (for diagnostics / benches).
    pub pivots: u64,
}

impl Default for Simplex {
    fn default() -> Self {
        Self::new()
    }
}

impl Simplex {
    pub fn new() -> Simplex {
        Simplex {
            num_vars: 0,
            rows: Vec::new(),
            row_of: Vec::new(),
            values: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            dirty: false,
            pivots: 0,
        }
    }

    /// Allocate a fresh (nonbasic) variable with value 0 and no bounds.
    pub fn new_var(&mut self) -> SpxVar {
        let v = self.num_vars;
        self.num_vars += 1;
        self.row_of.push(None);
        self.values.push(Rat::ZERO);
        self.lower.push(None);
        self.upper.push(None);
        v
    }

    pub fn value(&self, v: SpxVar) -> Rat {
        self.values[v]
    }

    /// Current `(lower, upper)` bounds of `v`.
    pub fn bounds(&self, v: SpxVar) -> (Option<Rat>, Option<Rat>) {
        (
            self.lower[v].map(|b| b.value),
            self.upper[v].map(|b| b.value),
        )
    }

    /// Tableau rows (one per slack variable).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Open scopes.
    pub fn depth(&self) -> usize {
        self.trail_lim.len()
    }

    /// Introduce a slack variable `s = Σ coeff·var` as a new basic row.
    /// Definition terms may themselves be basic; they are substituted.
    pub fn add_row(&mut self, def: &[(SpxVar, Rat)]) -> SpxVar {
        let s = self.new_var();
        // Expand definition over nonbasic variables.
        let mut expanded: Vec<(SpxVar, Rat)> = Vec::new();
        for &(v, c) in def {
            if c.is_zero() {
                continue;
            }
            match self.row_of[v] {
                None => add_term(&mut expanded, v, c),
                Some(ri) => {
                    let coeffs = self.rows[ri].coeffs.clone();
                    for (u, cu) in coeffs {
                        add_term(&mut expanded, u, c * cu);
                    }
                }
            }
        }
        // Value consistent with current assignment.
        let val = expanded
            .iter()
            .fold(Rat::ZERO, |acc, &(v, c)| acc + c * self.values[v]);
        self.values[s] = val;
        self.row_of[s] = Some(self.rows.len());
        self.rows.push(Row {
            basic: s,
            coeffs: expanded,
        });
        s
    }

    /// Open a backtracking scope for bounds.
    pub fn push(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Undo all bound changes since the matching [`Simplex::push`].
    pub fn pop(&mut self) {
        let lim = self.trail_lim.pop().expect("pop without push");
        while self.trail.len() > lim {
            match self.trail.pop().unwrap() {
                TrailOp::Lower(v, old) => {
                    self.lower[v] = old.map(|(value, tag)| Bound { value, tag })
                }
                TrailOp::Upper(v, old) => {
                    self.upper[v] = old.map(|(value, tag)| Bound { value, tag })
                }
            }
        }
    }

    /// Assert `v ≥ value` (tagged). Returns an immediate conflict if it
    /// crosses the upper bound of `v`.
    pub fn assert_lower(&mut self, v: SpxVar, value: Rat, tag: Tag) -> SpxResult {
        if let Some(ub) = self.upper[v] {
            if value > ub.value {
                return SpxResult::Infeasible(vec![tag, ub.tag]);
            }
        }
        match self.lower[v] {
            Some(lb) if lb.value >= value => return SpxResult::Feasible,
            old => {
                self.trail
                    .push(TrailOp::Lower(v, old.map(|b| (b.value, b.tag))));
                self.lower[v] = Some(Bound { value, tag });
                self.dirty = true;
            }
        }
        if self.row_of[v].is_none() && self.values[v] < value {
            self.update_nonbasic(v, value);
        }
        SpxResult::Feasible
    }

    /// Assert `v ≤ value` (tagged).
    pub fn assert_upper(&mut self, v: SpxVar, value: Rat, tag: Tag) -> SpxResult {
        if let Some(lb) = self.lower[v] {
            if value < lb.value {
                return SpxResult::Infeasible(vec![tag, lb.tag]);
            }
        }
        match self.upper[v] {
            Some(ub) if ub.value <= value => return SpxResult::Feasible,
            old => {
                self.trail
                    .push(TrailOp::Upper(v, old.map(|b| (b.value, b.tag))));
                self.upper[v] = Some(Bound { value, tag });
                self.dirty = true;
            }
        }
        if self.row_of[v].is_none() && self.values[v] > value {
            self.update_nonbasic(v, value);
        }
        SpxResult::Feasible
    }

    /// Set a nonbasic variable's value, updating dependent basic variables.
    fn update_nonbasic(&mut self, v: SpxVar, value: Rat) {
        debug_assert!(self.row_of[v].is_none());
        let delta = value - self.values[v];
        if delta.is_zero() {
            return;
        }
        self.values[v] = value;
        for row in &self.rows {
            let c = row.coeff(v);
            if !c.is_zero() {
                self.values[row.basic] += c * delta;
            }
        }
    }

    /// Repair the assignment until all bounds hold (Bland's rule).
    pub fn check(&mut self) -> SpxResult {
        if !self.dirty {
            return SpxResult::Feasible;
        }
        loop {
            // Smallest-index basic variable violating a bound.
            let mut violated: Option<(SpxVar, Rat, bool)> = None; // (var, target, need_increase)
            for row in &self.rows {
                let b = row.basic;
                if let Some(lb) = self.lower[b] {
                    if self.values[b] < lb.value {
                        if violated.is_none_or(|(v, _, _)| b < v) {
                            violated = Some((b, lb.value, true));
                        }
                        continue;
                    }
                }
                if let Some(ub) = self.upper[b] {
                    if self.values[b] > ub.value && violated.is_none_or(|(v, _, _)| b < v) {
                        violated = Some((b, ub.value, false));
                    }
                }
            }
            let Some((xi, target, need_increase)) = violated else {
                self.dirty = false;
                return SpxResult::Feasible;
            };
            let ri = self.row_of[xi].expect("violated var is basic");
            // Find a pivot column (smallest var id — Bland).
            let mut pivot: Option<SpxVar> = None;
            for &(xj, c) in &self.rows[ri].coeffs {
                let can_move = if need_increase {
                    // xi must grow: xj can grow if c>0 and below upper,
                    // or shrink if c<0 and above lower.
                    (c.is_positive() && self.can_increase(xj))
                        || (c.is_negative() && self.can_decrease(xj))
                } else {
                    (c.is_positive() && self.can_decrease(xj))
                        || (c.is_negative() && self.can_increase(xj))
                };
                if can_move && pivot.is_none_or(|p| xj < p) {
                    pivot = Some(xj);
                }
            }
            match pivot {
                Some(xj) => {
                    self.pivot_and_update(ri, xi, xj, target);
                }
                None => {
                    // Farkas explanation: the violated bound plus the
                    // limiting bound of every column in the row.
                    let mut tags = Vec::new();
                    let bound = if need_increase {
                        self.lower[xi]
                    } else {
                        self.upper[xi]
                    };
                    tags.push(bound.expect("violated bound exists").tag);
                    for &(xj, c) in &self.rows[ri].coeffs {
                        let limiting = if need_increase {
                            if c.is_positive() {
                                self.upper[xj]
                            } else {
                                self.lower[xj]
                            }
                        } else if c.is_positive() {
                            self.lower[xj]
                        } else {
                            self.upper[xj]
                        };
                        tags.push(limiting.expect("column is limited").tag);
                    }
                    tags.sort_unstable();
                    tags.dedup();
                    return SpxResult::Infeasible(tags);
                }
            }
        }
    }

    fn can_increase(&self, v: SpxVar) -> bool {
        self.upper[v].is_none_or(|ub| self.values[v] < ub.value)
    }

    fn can_decrease(&self, v: SpxVar) -> bool {
        self.lower[v].is_none_or(|lb| self.values[v] > lb.value)
    }

    /// Pivot basic `xi` (row `ri`) with nonbasic `xj`, then set `xi`'s
    /// value to `target`.
    fn pivot_and_update(&mut self, ri: usize, xi: SpxVar, xj: SpxVar, target: Rat) {
        self.pivots += 1;
        let aij = self.rows[ri].coeff(xj);
        debug_assert!(!aij.is_zero());
        // θ moves xj so that xi hits target.
        let theta = (target - self.values[xi]) / aij;
        self.values[xi] = target;
        self.values[xj] += theta;
        // Update all other basic values (they depend on xj).
        for (k, row) in self.rows.iter().enumerate() {
            if k != ri {
                let c = row.coeff(xj);
                if !c.is_zero() {
                    self.values[row.basic] += c * theta;
                }
            }
        }
        // Rewrite row ri: xj = (xi - Σ_{k≠j} a_k x_k) / aij.
        let old = std::mem::replace(
            &mut self.rows[ri],
            Row {
                basic: xj,
                coeffs: Vec::new(),
            },
        );
        let inv = aij.recip();
        let mut new_coeffs: Vec<(SpxVar, Rat)> = vec![(xi, inv)];
        for &(v, c) in &old.coeffs {
            if v != xj {
                add_term(&mut new_coeffs, v, -c * inv);
            }
        }
        self.rows[ri].coeffs = new_coeffs;
        self.row_of[xi] = None;
        self.row_of[xj] = Some(ri);
        // Substitute xj in every other row.
        let sub = self.rows[ri].coeffs.clone();
        for k in 0..self.rows.len() {
            if k == ri {
                continue;
            }
            let c = self.rows[k].coeff(xj);
            if c.is_zero() {
                continue;
            }
            self.rows[k].coeffs.retain(|&(v, _)| v != xj);
            let existing = std::mem::take(&mut self.rows[k].coeffs);
            let mut merged = existing;
            for &(v, cv) in &sub {
                add_term(&mut merged, v, c * cv);
            }
            self.rows[k].coeffs = merged;
        }
    }

    /// Debug invariant: every row equation holds under the assignment.
    #[cfg(test)]
    fn assert_invariants(&self) {
        for row in &self.rows {
            let sum = row
                .coeffs
                .iter()
                .fold(Rat::ZERO, |acc, &(v, c)| acc + c * self.values[v]);
            assert_eq!(sum, self.values[row.basic], "row equation broken");
            for &(v, _) in &row.coeffs {
                assert!(self.row_of[v].is_none(), "row references a basic var");
            }
        }
        // Nonbasic variables respect their bounds.
        for v in 0..self.num_vars {
            if self.row_of[v].is_none() {
                if let Some(lb) = self.lower[v] {
                    assert!(self.values[v] >= lb.value, "nonbasic below lower bound");
                }
                if let Some(ub) = self.upper[v] {
                    assert!(self.values[v] <= ub.value, "nonbasic above upper bound");
                }
            }
        }
    }
}

fn add_term(terms: &mut Vec<(SpxVar, Rat)>, v: SpxVar, c: Rat) {
    if c.is_zero() {
        return;
    }
    if let Some(t) = terms.iter_mut().find(|t| t.0 == v) {
        t.1 += c;
        if t.1.is_zero() {
            terms.retain(|&(u, _)| u != v);
        }
    } else {
        terms.push((v, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rat {
        Rat::int(n)
    }

    #[test]
    fn feasible_simple_system() {
        // x + y <= 10, x >= 3, y >= 4.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sxy = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        assert_eq!(s.assert_upper(sxy, r(10), 0), SpxResult::Feasible);
        assert_eq!(s.assert_lower(x, r(3), 1), SpxResult::Feasible);
        assert_eq!(s.assert_lower(y, r(4), 2), SpxResult::Feasible);
        assert_eq!(s.check(), SpxResult::Feasible);
        s.assert_invariants();
        assert!(s.value(x) >= r(3));
        assert!(s.value(y) >= r(4));
        assert!(s.value(x) + s.value(y) <= r(10));
    }

    #[test]
    fn infeasible_with_minimal_explanation() {
        // x + y >= 8, x <= 3, y <= 3: conflict must cite exactly these.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var(); // irrelevant var with bounds
        let sxy = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        s.assert_lower(sxy, r(8), 10);
        s.assert_upper(x, r(3), 11);
        s.assert_upper(y, r(3), 12);
        s.assert_lower(z, r(0), 13);
        match s.check() {
            SpxResult::Infeasible(mut tags) => {
                tags.sort_unstable();
                assert_eq!(tags, vec![10, 11, 12], "explanation must not include var z");
            }
            r => panic!("expected infeasible, got {r:?}"),
        }
    }

    #[test]
    fn direct_bound_clash() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, r(5), 1);
        match s.assert_upper(x, r(4), 2) {
            SpxResult::Infeasible(tags) => {
                assert!(tags.contains(&1) && tags.contains(&2));
            }
            r => panic!("expected conflict, got {r:?}"),
        }
    }

    #[test]
    fn chained_rows_with_substitution() {
        // s1 = x + y; s2 = s1 + z (defined over a basic var, needs
        // substitution). s2 = 6, x = 1, y = 2 => z = 3.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        let s1 = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        let s2 = s.add_row(&[(s1, Rat::ONE), (z, Rat::ONE)]);
        s.assert_lower(s2, r(6), 0);
        s.assert_upper(s2, r(6), 1);
        s.assert_lower(x, r(1), 2);
        s.assert_upper(x, r(1), 3);
        s.assert_lower(y, r(2), 4);
        s.assert_upper(y, r(2), 5);
        assert_eq!(s.check(), SpxResult::Feasible);
        s.assert_invariants();
        assert_eq!(s.value(z), r(3));
        assert_eq!(s.value(s1), r(3));
    }

    #[test]
    fn push_pop_restores_feasibility() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, r(0), 0);
        s.assert_upper(x, r(10), 1);
        assert_eq!(s.check(), SpxResult::Feasible);
        s.push();
        s.assert_lower(x, r(20), 2); // direct clash
        match s.assert_lower(x, r(20), 2) {
            SpxResult::Infeasible(_) => {}
            _ => {
                // the first assert may have succeeded in recording before
                // detecting; a check must fail then
            }
        }
        s.pop();
        assert_eq!(s.check(), SpxResult::Feasible);
        assert!(s.value(x) <= r(10) && s.value(x) >= r(0));
    }

    #[test]
    fn negative_coefficients_pivot_correctly() {
        // s = x - y; s >= 2, x <= 1 => y <= -1; also y >= 0 infeasible.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let d = s.add_row(&[(x, Rat::ONE), (y, -Rat::ONE)]);
        s.assert_lower(d, r(2), 0);
        s.assert_upper(x, r(1), 1);
        s.assert_lower(y, r(0), 2);
        match s.check() {
            SpxResult::Infeasible(mut tags) => {
                tags.sort_unstable();
                assert_eq!(tags, vec![0, 1, 2]);
            }
            r => panic!("expected infeasible, got {r:?}"),
        }
    }

    #[test]
    fn rational_solution_values() {
        // 2x = 5 -> x = 5/2 (rationally feasible).
        let mut s = Simplex::new();
        let x = s.new_var();
        let tw = s.add_row(&[(x, r(2))]);
        s.assert_lower(tw, r(5), 0);
        s.assert_upper(tw, r(5), 1);
        assert_eq!(s.check(), SpxResult::Feasible);
        assert_eq!(s.value(x), Rat::new(5, 2));
    }

    #[test]
    fn many_random_feasible_systems() {
        // Random interval systems around a planted point stay feasible and
        // invariants hold after checking.
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 21) as i64 - 10
        };
        for _ in 0..20 {
            let mut s = Simplex::new();
            let vars: Vec<SpxVar> = (0..6).map(|_| s.new_var()).collect();
            let planted: Vec<i64> = (0..6).map(|_| next()).collect();
            let mut tag = 0;
            for _ in 0..8 {
                let c1 = next();
                let c2 = next();
                let (i, j) = (
                    (next().unsigned_abs() as usize) % 6,
                    (next().unsigned_abs() as usize) % 6,
                );
                let row = s.add_row(&[(vars[i], r(c1)), (vars[j], r(c2))]);
                let val = c1 * planted[i] + c2 * planted[j];
                s.assert_upper(row, r(val + next().abs()), tag);
                tag += 1;
                s.assert_lower(row, r(val - next().abs()), tag);
                tag += 1;
            }
            assert_eq!(s.check(), SpxResult::Feasible);
            s.assert_invariants();
        }
    }
}
