//! A CDCL(T) SAT solver: two-watched-literal propagation, VSIDS decisions,
//! first-UIP clause learning, phase saving, Luby restarts, a conflict
//! budget, and a [`Theory`] that rides the trail.
//!
//! At every propagation fixpoint the new trail literals are handed to the
//! theory and its consistency is checked; a theory conflict is analyzed
//! like a falsified clause, so search continues from the backjump level.
//! The solver is incremental: clauses (objective bounds) may be added
//! between `solve` calls; it backtracks to the root level on every entry.

use std::fmt;
use std::time::Instant;

use crate::stats::SolverStats;

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: variable + sign, packed as `var << 1 | negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    pub fn new(v: Var, negated: bool) -> Lit {
        Lit((v << 1) | negated as u32)
    }

    pub fn var(self) -> Var {
        self.0 >> 1
    }

    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index of the literal (`2·var + negated`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::index`].
    pub fn from_index(i: usize) -> Lit {
        Lit(i as u32)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "-" } else { "" }, self.var())
    }
}

/// Three-valued assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Result of a SAT search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    Sat,
    Unsat,
    /// Conflict budget exhausted.
    Unknown,
}

/// Answer of a [`Theory`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryResult {
    Consistent,
    /// A clause the theory implies whose every literal is false under the
    /// literals asserted so far.
    Conflict(Vec<Lit>),
    /// The theory's own budget ran out.
    Unknown,
}

/// A decision procedure following the SAT trail. The solver owns the
/// loop: it asserts each trail literal once, in trail order, opens one
/// level per decision and closes levels on backjump. The defaults are
/// the empty theory (plain SAT).
pub trait Theory {
    /// `lit` became true. Literals the theory has no atom for are ignored.
    fn assert_lit(&mut self, _lit: Lit) -> TheoryResult {
        TheoryResult::Consistent
    }
    /// Are the asserted literals jointly consistent? Called at every
    /// propagation fixpoint; may be incomplete (e.g. rational relaxation).
    fn check(&mut self) -> TheoryResult {
        TheoryResult::Consistent
    }
    /// Complete check, called when every variable is assigned and `check`
    /// passed. `Consistent` means the theory holds a model.
    fn final_check(&mut self, _deadline: Option<Instant>) -> TheoryResult {
        TheoryResult::Consistent
    }
    /// Open a level (one per SAT decision).
    fn push_level(&mut self) {}
    /// Undo everything asserted above `level` open levels.
    fn backtrack_to(&mut self, _level: u32) {}
}

struct NoTheory;

impl Theory for NoTheory {}

type ClauseRef = u32;

/// `heap_pos` of a variable that is not in the decision heap.
const NOT_IN_HEAP: u32 = u32::MAX;

struct Clause {
    lits: Vec<Lit>,
}

/// The CDCL solver.
pub struct SatSolver {
    clauses: Vec<Clause>,
    /// `watches[lit.index()]`: clauses watching `lit`.
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<LBool>,
    /// Saved phase for decision polarity.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Trail literals below this index have been asserted to the theory.
    theory_head: usize,
    /// VSIDS activity.
    activity: Vec<f64>,
    var_inc: f64,
    /// Binary max-heap of decision candidates on (activity, lowest index
    /// first); holds every unassigned variable, and possibly assigned ones
    /// that `pick_branch_var` skips.
    heap: Vec<Var>,
    /// `heap_pos[v]`: position of `v` in `heap`, or [`NOT_IN_HEAP`].
    heap_pos: Vec<u32>,
    /// Root-level inconsistency discovered during clause addition.
    unsat: bool,
    /// Conflicts (boolean and theory together) allowed per `solve` call
    /// (None = unbounded).
    budget: Option<u64>,
    stats: SolverStats,
    // Scratch for conflict analysis.
    seen: Vec<bool>,
}

const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            theory_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            unsat: false,
            budget: None,
            stats: SolverStats::new(),
            seen: Vec::new(),
        }
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(NOT_IN_HEAP);
        self.heap_insert(v);
        v
    }

    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// The polarity the next decision on `v` tries first (later ones
    /// follow the saved phase). It orders the search; the answer does not
    /// depend on it.
    pub fn set_phase(&mut self, v: Var, value: bool) {
        self.phase[v as usize] = value;
    }

    /// Cumulative search statistics (SAT-core fields only; the theory
    /// fields are filled in by [`crate::Solver::stats`]).
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Limit the number of conflicts per `solve` call.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    fn value_lit(&self, l: Lit) -> LBool {
        match self.assign[l.var() as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// The model value of a variable after `solve` returned `Sat`.
    /// Unassigned variables (don't-cares) read as `false`.
    pub fn model_value(&self, v: Var) -> bool {
        matches!(self.assign[v as usize], LBool::True)
    }

    /// Add a clause; returns `false` if the solver became trivially unsat.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        self.backtrack_to(0);
        // Simplify: drop duplicates and false literals, detect tautologies
        // and satisfied clauses at the root level.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, &l) in sorted.iter().enumerate() {
            if i + 1 < sorted.len() && sorted[i + 1] == l.negate() {
                return true; // tautology
            }
            match self.value_lit(l) {
                LBool::True => return true, // already satisfied at root
                LBool::False => {}          // drop falsified literal
                LBool::Undef => c.push(l),
            }
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(c);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cr = self.clauses.len() as ClauseRef;
        self.watches[lits[0].negate().index()].push(cr);
        self.watches[lits[1].negate().index()].push(cr);
        self.clauses.push(Clause { lits });
        cr
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var() as usize;
        self.assign[v] = if l.is_neg() {
            LBool::False
        } else {
            LBool::True
        };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses watching p (i.e. containing ¬p as watched literal
            // candidate) — we store watchers under the literal that, when
            // *assigned true*, might falsify the watched literal.
            let mut i = 0;
            let mut watchers = std::mem::take(&mut self.watches[p.index()]);
            'next_clause: while i < watchers.len() {
                let cr = watchers[i];
                let false_lit = p.negate();
                // Normalize: watched literals are lits[0], lits[1].
                {
                    let c = &mut self.clauses[cr as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cr as usize].lits[0];
                if self.value_lit(first) == LBool::True {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cr as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cr as usize].lits[k];
                    if self.value_lit(lk) != LBool::False {
                        self.clauses[cr as usize].lits.swap(1, k);
                        self.watches[lk.negate().index()].push(cr);
                        watchers.swap_remove(i);
                        continue 'next_clause;
                    }
                }
                // Unit or conflicting.
                if self.value_lit(first) == LBool::False {
                    self.watches[p.index()] = watchers;
                    // Re-add remaining watchers we had taken out.
                    return Some(cr);
                }
                self.stats.propagations += 1;
                self.enqueue(first, Some(cr));
                i += 1;
            }
            self.watches[p.index()] = watchers;
        }
        None
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in lim..self.trail.len() {
            let v = self.trail[i].var();
            self.assign[v as usize] = LBool::Undef;
            self.reason[v as usize] = None;
            self.heap_insert(v);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
        self.theory_head = self.theory_head.min(lim);
    }

    /// `a` is decided before `b`: higher activity, then lower index.
    fn heap_before(&self, a: Var, b: Var) -> bool {
        let (xa, xb) = (self.activity[a as usize], self.activity[b as usize]);
        xa > xb || (xa == xb && a < b)
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a] as usize] = a as u32;
        self.heap_pos[self.heap[b] as usize] = b as u32;
    }

    fn heap_sift_up(&mut self, mut pos: usize) {
        while pos > 0 && self.heap_before(self.heap[pos], self.heap[(pos - 1) / 2]) {
            self.heap_swap(pos, (pos - 1) / 2);
            pos = (pos - 1) / 2;
        }
    }

    fn heap_sift_down(&mut self, mut pos: usize) {
        loop {
            let first = (2 * pos + 1..2 * pos + 3)
                .filter(|&c| c < self.heap.len())
                .fold(pos, |b, c| {
                    if self.heap_before(self.heap[c], self.heap[b]) {
                        c
                    } else {
                        b
                    }
                });
            if first == pos {
                return;
            }
            self.heap_swap(pos, first);
            pos = first;
        }
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v as usize] == NOT_IN_HEAP {
            self.heap_pos[v as usize] = self.heap.len() as u32;
            self.heap.push(v);
            self.heap_sift_up(self.heap.len() - 1);
        }
    }

    fn heap_pop(&mut self) -> Option<Var> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap_swap(0, last);
        let top = self.heap.pop().expect("heap is non-empty");
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        self.heap_sift_down(0);
        Some(top)
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Tiny activities may have collapsed into ties: re-establish
            // the heap order from scratch.
            for pos in (0..self.heap.len() / 2).rev() {
                self.heap_sift_down(pos);
            }
        } else if self.heap_pos[v as usize] != NOT_IN_HEAP {
            self.heap_sift_up(self.heap_pos[v as usize] as usize);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis of a clause whose literals are all
    /// false, at least one of them at the current level; returns (learnt
    /// clause, backjump level). The asserting literal is placed first.
    fn analyze(&mut self, confl: Vec<Lit>) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut lits = confl;
        let cur_level = self.decision_level();

        loop {
            {
                let start = usize::from(p.is_some());
                for &q in &lits[start..] {
                    let v = q.var();
                    if !self.seen[v as usize] && self.level[v as usize] > 0 {
                        self.seen[v as usize] = true;
                        self.bump_var(v);
                        if self.level[v as usize] >= cur_level {
                            counter += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            let cr = self.reason[lit.var() as usize].expect("non-decision must have a reason");
            lits = self.clauses[cr as usize].lits.clone();
            p = Some(lit);
        }
        let uip = p
            .expect("conflict at decision level > 0 has a UIP")
            .negate();
        learnt.insert(0, uip);
        for &l in &learnt {
            self.seen[l.var() as usize] = false;
        }
        // Backjump level: max level among the non-asserting literals.
        let bj = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        (learnt, bj)
    }

    /// The unassigned variable of highest activity (lowest index on ties).
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Luby sequence for restart intervals (0-indexed).
    fn luby(mut i: u64) -> u64 {
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i + 1 {
                k += 1;
            }
            if (1u64 << k) - 1 == i + 1 {
                return 1 << (k - 1);
            }
            // Recurse into the flat part: luby(i) = luby(i - 2^(k-1) + 1).
            i -= (1 << (k - 1)) - 1;
        }
    }

    /// Run the CDCL search without a theory.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&mut NoTheory, None)
    }

    /// Backjump the boolean trail and the theory together.
    fn backjump<T: Theory>(&mut self, theory: &mut T, level: u32) {
        if self.decision_level() > level {
            self.backtrack_to(level);
            theory.backtrack_to(level);
        }
    }

    /// Hand the theory the trail literals it has not seen, then check it.
    /// Returns a conflict clause (every literal false), or the theory's
    /// verdict otherwise.
    fn theory_step<T: Theory>(&mut self, theory: &mut T) -> TheoryResult {
        while self.theory_head < self.trail.len() {
            let lit = self.trail[self.theory_head];
            self.theory_head += 1;
            match theory.assert_lit(lit) {
                TheoryResult::Consistent => {}
                r => return r,
            }
        }
        self.stats.theory_checks += 1;
        theory.check()
    }

    /// A theory conflict clause is falsified by the trail and cites only
    /// literals the theory has been given.
    fn theory_conflict_is_valid(&self, clause: &[Lit]) -> bool {
        clause.iter().all(|&l| {
            self.value_lit(l) == LBool::False
                && self.trail[..self.theory_head].contains(&l.negate())
        })
    }

    /// Run the CDCL(T) search: `theory` is asserted every trail literal,
    /// checked at every propagation fixpoint and asked for a final check
    /// at a full assignment. On `Sat` the assignment — and the theory's
    /// model — stay in place until the next `solve` / `add_clause`.
    /// `deadline` is polled at every conflict and final check.
    pub fn solve_with<T: Theory>(
        &mut self,
        theory: &mut T,
        deadline: Option<Instant>,
    ) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        theory.backtrack_to(0);
        let mut conflicts_this_call = 0u64;
        let mut restart_idx = 0u64;
        let mut restart_limit = 64 * Self::luby(restart_idx);
        let timed_out = || deadline.is_some_and(|d| Instant::now() >= d);

        loop {
            let confl = if let Some(cr) = self.propagate() {
                self.stats.conflicts += 1;
                self.clauses[cr as usize].lits.clone()
            } else {
                let mut verdict = self.theory_step(theory);
                if verdict == TheoryResult::Consistent {
                    if let Some(v) = self.pick_branch_var() {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        theory.push_level();
                        let phase = self.phase[v as usize];
                        self.enqueue(Lit::new(v, !phase), None);
                        continue;
                    }
                    if timed_out() {
                        return SolveResult::Unknown;
                    }
                    self.stats.iterations += 1;
                    verdict = theory.final_check(deadline);
                }
                match verdict {
                    TheoryResult::Consistent => return SolveResult::Sat,
                    TheoryResult::Unknown => return SolveResult::Unknown,
                    TheoryResult::Conflict(clause) => {
                        self.stats.theory_conflicts += 1;
                        debug_assert!(self.theory_conflict_is_valid(&clause));
                        clause
                    }
                }
            };
            conflicts_this_call += 1;
            // A theory clause may be false below the current level already.
            let confl_level = confl
                .iter()
                .map(|l| self.level[l.var() as usize])
                .max()
                .unwrap_or(0);
            if confl_level == 0 {
                self.unsat = true;
                return SolveResult::Unsat;
            }
            if self.budget.is_some_and(|b| conflicts_this_call > b) || timed_out() {
                return SolveResult::Unknown;
            }
            self.backjump(theory, confl_level);
            let (learnt, bj) = self.analyze(confl);
            self.backjump(theory, bj);
            self.stats.learned_clauses += 1;
            if learnt.len() == 1 {
                self.enqueue(learnt[0], None);
            } else {
                let asserting = learnt[0];
                let cr = self.attach_clause(learnt);
                self.enqueue(asserting, Some(cr));
            }
            self.decay_activities();
            if conflicts_this_call >= restart_limit {
                restart_idx += 1;
                restart_limit = conflicts_this_call + 64 * Self::luby(restart_idx);
                self.stats.restarts += 1;
                self.backjump(theory, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(xs: &[i32]) -> Vec<Lit> {
        xs.iter()
            .map(|&x| {
                let v = (x.abs() - 1) as Var;
                Lit::new(v, x < 0)
            })
            .collect()
    }

    fn solver_with_vars(n: usize) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn lit_packing() {
        let l = Lit::pos(3);
        assert_eq!(l.var(), 3);
        assert!(!l.is_neg());
        assert_eq!(l.negate().var(), 3);
        assert!(l.negate().is_neg());
        assert_eq!(l.negate().negate(), l);
    }

    #[test]
    fn trivial_sat() {
        let mut s = solver_with_vars(2);
        s.add_clause(&lits(&[1, 2]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(0) || s.model_value(1));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&lits(&[1]));
        s.add_clause(&lits(&[-1]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = solver_with_vars(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        // 1, 1->2, 2->3, 3->4 forces all true.
        let mut s = solver_with_vars(4);
        s.add_clause(&lits(&[1]));
        s.add_clause(&lits(&[-1, 2]));
        s.add_clause(&lits(&[-2, 3]));
        s.add_clause(&lits(&[-3, 4]));
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in 0..4 {
            assert!(s.model_value(v));
        }
    }

    #[test]
    fn conflict_requires_learning() {
        // Pigeonhole 2-into-1 style contradiction.
        let mut s = solver_with_vars(3);
        s.add_clause(&lits(&[1, 2]));
        s.add_clause(&lits(&[1, -2]));
        s.add_clause(&lits(&[-1, 3]));
        s.add_clause(&lits(&[-1, -3]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_handled() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause(&lits(&[1, -1])));
        assert!(s.add_clause(&lits(&[2, 2])));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(1));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with_vars(2);
        s.add_clause(&lits(&[1, 2]));
        assert_eq!(s.solve(), SolveResult::Sat);
        // Force the opposite of the current model, then the remaining one.
        s.add_clause(&lits(&[-1]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(1));
        s.add_clause(&lits(&[-2]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = SatSolver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p[i][0]), Lit::pos(p[i][1])]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(&[Lit::neg(p[a][j]), Lit::neg(p[b][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn budget_returns_unknown_on_hard_instance() {
        // Pigeonhole 7-into-6: exponential for resolution; tiny budget
        // must give Unknown.
        let n = 7;
        let mut s = SatSolver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var()).collect())
            .collect();
        for pi in p.iter() {
            let c: Vec<Lit> = pi.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&c);
        }
        for j in 0..n - 1 {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause(&[Lit::neg(p[a][j]), Lit::neg(p[b][j])]);
                }
            }
        }
        s.set_conflict_budget(Some(50));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // With a generous budget it is provably unsat.
        s.set_conflict_budget(Some(2_000_000));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_satisfiable_instances_solve() {
        // Deterministic LCG; planted solution guarantees satisfiability.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..10 {
            let nvars = 30u32;
            let planted: Vec<bool> = (0..nvars).map(|_| next() % 2 == 0).collect();
            let mut s = solver_with_vars(nvars as usize);
            for _ in 0..120 {
                let mut clause = Vec::new();
                // Ensure at least one literal agrees with the planted model.
                for k in 0..3 {
                    let v = next() % nvars;
                    let neg = if k == 0 {
                        !planted[v as usize]
                    } else {
                        next() % 2 == 0
                    };
                    clause.push(Lit::new(v, neg));
                }
                s.add_clause(&clause);
            }
            assert_eq!(s.solve(), SolveResult::Sat);
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(SatSolver::luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
