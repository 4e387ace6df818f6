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
use crate::room;
use std::cmp::Ordering;

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
    /// Sparse (var, coeff) pairs over *nonbasic* variables, coeff ≠ 0,
    /// strictly sorted by variable.
    coeffs: Vec<(SpxVar, Rat)>,
}

impl Row {
    fn coeff(&self, v: SpxVar) -> Rat {
        match self.coeffs.binary_search_by_key(&v, |&(u, _)| u) {
            Ok(i) => self.coeffs[i].1,
            Err(_) => Rat::ZERO,
        }
    }
}

/// `out = a + k·b` over sorted sparse rows: one merge, zeros dropped.
fn merge_scaled(out: &mut Vec<(SpxVar, Rat)>, a: &[(SpxVar, Rat)], b: &[(SpxVar, Rat)], k: Rat) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let ((va, ca), (vb, cb)) = (a[i], b[j]);
        match va.cmp(&vb) {
            Ordering::Less => {
                out.push((va, ca));
                i += 1;
            }
            Ordering::Greater => {
                out.push((vb, k * cb));
                j += 1;
            }
            Ordering::Equal => {
                let c = ca + k * cb;
                if !c.is_zero() {
                    out.push((va, c));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend(b[j..].iter().map(|&(v, c)| (v, k * c)));
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
    /// The row being merged; swapped with the row it replaces.
    scratch: Vec<(SpxVar, Rat)>,
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
            rows: room(),
            row_of: room(),
            values: room(),
            lower: room(),
            upper: room(),
            trail: room(),
            trail_lim: room(),
            dirty: false,
            scratch: room(),
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
        // The nonbasic terms summed per variable, then each basic one
        // expanded over nonbasic variables.
        let mut expanded: Vec<(SpxVar, Rat)> = Vec::with_capacity(def.len());
        let nonbasic = |&&(v, c): &&(SpxVar, Rat)| self.row_of[v].is_none() && !c.is_zero();
        expanded.extend(def.iter().filter(nonbasic));
        expanded.sort_unstable_by_key(|&(v, _)| v);
        expanded.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        expanded.retain(|(_, c)| !c.is_zero());
        for &(v, c) in def {
            if let (Some(ri), false) = (self.row_of[v], c.is_zero()) {
                merge_scaled(&mut self.scratch, &expanded, &self.rows[ri].coeffs, c);
                std::mem::swap(&mut expanded, &mut self.scratch);
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
        // Rewrite row ri: xj = (xi - Σ_{k≠j} a_k x_k) / aij.
        let inv = aij.recip();
        let mut sub = std::mem::take(&mut self.rows[ri].coeffs);
        sub.retain_mut(|(v, c)| {
            *c = -*c * inv;
            *v != xj
        });
        let at = sub.partition_point(|&(v, _)| v < xi);
        sub.insert(at, (xi, inv));
        self.rows[ri].basic = xj;
        self.row_of[xi] = None;
        self.row_of[xj] = Some(ri);
        // Every other row that mentions xj: its basic value follows xj, and
        // xj is substituted (row − c·xj + c·sub) in one merge.
        // (Row ri is empty while `sub` is out, so it skips itself.)
        for row in &mut self.rows {
            let Ok(at) = row.coeffs.binary_search_by_key(&xj, |&(u, _)| u) else {
                continue;
            };
            let (_, c) = row.coeffs.remove(at);
            self.values[row.basic] += c * theta;
            merge_scaled(&mut self.scratch, &row.coeffs, &sub, c);
            std::mem::swap(&mut row.coeffs, &mut self.scratch);
        }
        self.rows[ri].coeffs = sub;
    }

    /// Test support: panic unless every row is strictly sorted by variable
    /// with no zero coefficient and mentions only nonbasic variables, every
    /// row equation holds under the assignment, and every nonbasic variable
    /// respects its bounds.
    pub fn assert_invariants(&self) {
        for row in &self.rows {
            assert!(
                row.coeffs.windows(2).all(|w| w[0].0 < w[1].0),
                "row not strictly sorted by variable"
            );
            assert!(
                row.coeffs.iter().all(|(_, c)| !c.is_zero()),
                "zero coefficient stored"
            );
            let sum = row
                .coeffs
                .iter()
                .fold(Rat::ZERO, |acc, &(v, c)| acc + c * self.values[v]);
            assert_eq!(sum, self.values[row.basic], "row equation broken");
            for &(v, _) in &row.coeffs {
                assert!(self.row_of[v].is_none(), "row references a basic var");
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rat {
        Rat::int(n)
    }

    // The operations under test, each followed by the invariant check.

    fn lower(s: &mut Simplex, v: SpxVar, value: Rat, tag: Tag) -> SpxResult {
        let r = s.assert_lower(v, value, tag);
        s.assert_invariants();
        r
    }

    fn upper(s: &mut Simplex, v: SpxVar, value: Rat, tag: Tag) -> SpxResult {
        let r = s.assert_upper(v, value, tag);
        s.assert_invariants();
        r
    }

    fn check(s: &mut Simplex) -> SpxResult {
        let r = s.check();
        s.assert_invariants();
        r
    }

    fn pop(s: &mut Simplex) {
        s.pop();
        s.assert_invariants();
    }

    #[test]
    fn feasible_simple_system() {
        // x + y <= 10, x >= 3, y >= 4.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sxy = s.add_row(&[(x, Rat::ONE), (y, Rat::ONE)]);
        assert_eq!(upper(&mut s, sxy, r(10), 0), SpxResult::Feasible);
        assert_eq!(lower(&mut s, x, r(3), 1), SpxResult::Feasible);
        assert_eq!(lower(&mut s, y, r(4), 2), SpxResult::Feasible);
        assert_eq!(check(&mut s), SpxResult::Feasible);
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
        lower(&mut s, sxy, r(8), 10);
        upper(&mut s, x, r(3), 11);
        upper(&mut s, y, r(3), 12);
        lower(&mut s, z, r(0), 13);
        match check(&mut s) {
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
        lower(&mut s, x, r(5), 1);
        match upper(&mut s, x, r(4), 2) {
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
        lower(&mut s, s2, r(6), 0);
        upper(&mut s, s2, r(6), 1);
        lower(&mut s, x, r(1), 2);
        upper(&mut s, x, r(1), 3);
        lower(&mut s, y, r(2), 4);
        upper(&mut s, y, r(2), 5);
        assert_eq!(check(&mut s), SpxResult::Feasible);
        assert_eq!(s.value(z), r(3));
        assert_eq!(s.value(s1), r(3));
    }

    #[test]
    fn push_pop_restores_feasibility() {
        let mut s = Simplex::new();
        let x = s.new_var();
        lower(&mut s, x, r(0), 0);
        upper(&mut s, x, r(10), 1);
        assert_eq!(check(&mut s), SpxResult::Feasible);
        s.push();
        lower(&mut s, x, r(20), 2); // direct clash
        match lower(&mut s, x, r(20), 2) {
            SpxResult::Infeasible(_) => {}
            _ => {
                // the first assert may have succeeded in recording before
                // detecting; a check must fail then
            }
        }
        pop(&mut s);
        assert_eq!(check(&mut s), SpxResult::Feasible);
        assert!(s.value(x) <= r(10) && s.value(x) >= r(0));
    }

    #[test]
    fn negative_coefficients_pivot_correctly() {
        // s = x - y; s >= 2, x <= 1 => y <= -1; also y >= 0 infeasible.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let d = s.add_row(&[(x, Rat::ONE), (y, -Rat::ONE)]);
        lower(&mut s, d, r(2), 0);
        upper(&mut s, x, r(1), 1);
        lower(&mut s, y, r(0), 2);
        match check(&mut s) {
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
        lower(&mut s, tw, r(5), 0);
        upper(&mut s, tw, r(5), 1);
        assert_eq!(check(&mut s), SpxResult::Feasible);
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
                upper(&mut s, row, r(val + next().abs()), tag);
                tag += 1;
                lower(&mut s, row, r(val - next().abs()), tag);
                tag += 1;
            }
            assert_eq!(check(&mut s), SpxResult::Feasible);
        }
    }

    #[test]
    fn pivot_rewrites_rows_as_worked_by_hand() {
        // x0, x1, x2 nonbasic; s3 = x0 + 2·x1, s4 = x1 − x2, s5 = x0 + 2·x1 + x2.
        let mut s = Simplex::new();
        let x: Vec<SpxVar> = (0..3).map(|_| s.new_var()).collect();
        let s3 = s.add_row(&[(x[0], r(1)), (x[1], r(2))]);
        let s4 = s.add_row(&[(x[2], r(-1)), (x[1], r(1))]); // given unsorted
        let s5 = s.add_row(&[(x[0], r(1)), (x[1], r(2)), (x[2], r(1))]);
        s.assert_invariants();
        assert_eq!(s.rows[1].coeffs, [(1, r(1)), (2, r(-1))], "add_row sorts");
        let half = Rat::new(1, 2);

        // Pivot s3 with x1, moving s3 to 4: x1 = −½·x0 + ½·s3, θ = 2.
        s.pivot_and_update(0, s3, x[1], r(4));
        s.assert_invariants();
        assert_eq!(s.rows[0].basic, x[1]);
        assert_eq!(s.rows[0].coeffs, [(0, -half), (3, half)]);
        // s4 = x1 − x2 = −½·x0 − x2 + ½·s3.
        assert_eq!(s.rows[1].basic, s4);
        assert_eq!(s.rows[1].coeffs, [(0, -half), (2, r(-1)), (3, half)]);
        // s5 = x0 + 2·x1 + x2 = x2 + s3: the x0 column cancels and is dropped.
        assert_eq!(s.rows[2].basic, s5);
        assert_eq!(s.rows[2].coeffs, [(2, r(1)), (3, r(1))]);
        assert_eq!((s.row_of[s3], s.row_of[x[1]]), (None, Some(0)));
        // x1 = 2 carries s4 and s5 with it.
        assert_eq!(
            [s.value(x[1]), s.value(s3), s.value(s4), s.value(s5)],
            [r(2), r(4), r(2), r(4)]
        );

        // Pivot s4 with x2, moving s4 to 3: x2 = −½·x0 + ½·s3 − s4, θ = −1.
        s.pivot_and_update(1, s4, x[2], r(3));
        s.assert_invariants();
        assert_eq!(s.rows[1].basic, x[2]);
        assert_eq!(s.rows[1].coeffs, [(0, -half), (3, half), (4, r(-1))]);
        // x1's row does not mention x2 and is untouched.
        assert_eq!(s.rows[0].coeffs, [(0, -half), (3, half)]);
        // s5 = x2 + s3 = −½·x0 + (3/2)·s3 − s4.
        assert_eq!(
            s.rows[2].coeffs,
            [(0, -half), (3, Rat::new(3, 2)), (4, r(-1))]
        );
        assert_eq!(
            [s.value(x[2]), s.value(s4), s.value(s5), s.value(x[1])],
            [r(-1), r(3), r(3), r(2)]
        );
    }
}
