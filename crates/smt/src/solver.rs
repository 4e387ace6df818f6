//! The user-facing SMT solver: lowering, one CDCL(T) search per check,
//! models, and linear optimization.

use crate::cnf::Encoder;
use crate::hash::FxMap;
use crate::lia::LiaSolver;
use crate::sat::SolveResult;
use crate::simplex::SpxVar;
use crate::stats::SolverStats;
use crate::term::{LinExpr, Sort, TermId, TermKind, TermManager};
use std::time::{Duration, Instant};

/// Result of a satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    Sat,
    Unsat,
    /// Budget (time, SAT conflicts, or branch-and-bound nodes) exhausted.
    Unknown,
}

/// Result of an optimization call.
#[derive(Debug, Clone)]
pub enum OptResult {
    /// Proven optimal.
    Optimal {
        value: i64,
        model: Model,
    },
    /// Best model found before the budget ran out.
    Best {
        value: i64,
        model: Model,
    },
    Unsat,
    Unknown,
}

/// A satisfying assignment: integer values for int variables, booleans for
/// bool variables. Any term can be evaluated against it.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Indexed by `TermId`; variables the solver never saw read 0 / false.
    ints: Vec<i64>,
    bools: Vec<bool>,
}

impl Model {
    /// Evaluate an int-sorted term.
    pub fn eval_int(&self, tm: &TermManager, t: TermId) -> i64 {
        match tm.kind(t) {
            TermKind::IntVar(_) => self.ints.get(t as usize).copied().unwrap_or(0),
            TermKind::Linear(e) => self.eval_linexpr(tm, e),
            TermKind::Ite(c, a, b) => {
                if self.eval_bool(tm, *c) {
                    self.eval_int(tm, *a)
                } else {
                    self.eval_int(tm, *b)
                }
            }
            k => panic!("not an int term: {k:?}"),
        }
    }

    fn eval_linexpr(&self, tm: &TermManager, e: &LinExpr) -> i64 {
        e.terms
            .iter()
            .fold(e.constant, |acc, &(v, c)| acc + c * self.eval_int(tm, v))
    }

    /// Evaluate a bool-sorted term.
    pub fn eval_bool(&self, tm: &TermManager, t: TermId) -> bool {
        match tm.kind(t) {
            TermKind::True => true,
            TermKind::False => false,
            TermKind::BoolVar(_) => self.bools.get(t as usize).copied().unwrap_or(false),
            TermKind::Not(x) => !self.eval_bool(tm, *x),
            TermKind::And(xs) => xs.iter().all(|&x| self.eval_bool(tm, x)),
            TermKind::Or(xs) => xs.iter().any(|&x| self.eval_bool(tm, x)),
            TermKind::Le(e) => self.eval_linexpr(tm, e) <= 0,
            k => panic!("not a bool term: {k:?}"),
        }
    }
}

/// Resource limits for `check` / `minimize`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock limit for one `check` (and for a whole `minimize`).
    pub timeout: Option<Duration>,
    /// Conflicts per `check`, boolean and theory together.
    pub max_sat_conflicts: Option<u64>,
    /// Branch-and-bound nodes per full-assignment theory check.
    pub max_bb_nodes: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            timeout: None,
            max_sat_conflicts: Some(2_000_000),
            max_bb_nodes: 200_000,
        }
    }
}

impl Budget {
    /// A deliberately small budget, used as the first rung of retry
    /// ladders: callers start here and [`escalate`](Budget::escalate) on
    /// `Unknown` instead of paying the full default budget up front.
    pub fn tight() -> Budget {
        Budget {
            timeout: None,
            max_sat_conflicts: Some(50_000),
            max_bb_nodes: 10_000,
        }
    }

    /// Multiply every limit by `factor` (saturating). The backoff
    /// primitive of the CEM degradation ladder: a check that came back
    /// `Unknown` is retried once with `budget.escalate(k)` before the
    /// caller falls back to a cheaper engine.
    pub fn escalate(self, factor: u32) -> Budget {
        let factor = factor.max(1);
        let f = factor as u64;
        Budget {
            timeout: self.timeout.map(|t| t.saturating_mul(factor)),
            max_sat_conflicts: self.max_sat_conflicts.map(|c| c.saturating_mul(f)),
            max_bb_nodes: self.max_bb_nodes.saturating_mul(f),
        }
    }
}

/// The SMT solver facade. See the crate docs for the architecture.
pub struct Solver {
    tm: TermManager,
    enc: Encoder,
    lia: LiaSolver,
    /// IntVar term -> simplex variable.
    spx_of: FxMap<TermId, SpxVar>,
    /// Registration order of int vars: the k-th is the LIA solver's k-th
    /// problem variable (model extraction).
    int_vars: Vec<TermId>,
    /// The encoder's first `lia_atoms` atoms exist on the LIA side.
    lia_atoms: usize,
    /// Ite node -> fresh IntVar term standing in for it.
    ite_var_of: FxMap<TermId, TermId>,
    /// Every term passed to [`Solver::assert`], as given (pre-lowering).
    assertions: Vec<TermId>,
    budget: Budget,
    model: Option<Model>,
    /// When the most recent check started, and how it ended.
    last_check: Option<(Instant, SatResult)>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    pub fn new() -> Solver {
        Solver {
            tm: TermManager::new(),
            enc: Encoder::new(),
            lia: LiaSolver::new(),
            spx_of: FxMap::default(),
            int_vars: Vec::new(),
            lia_atoms: 0,
            ite_var_of: FxMap::default(),
            assertions: Vec::new(),
            budget: Budget::default(),
            model: None,
            last_check: None,
        }
    }

    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Cumulative solver work since construction: the search's counters
    /// plus the simplex's (pivots, rows). Callers diff snapshots via
    /// [`SolverStats::delta_since`].
    pub fn stats(&self) -> SolverStats {
        let mut s = *self.enc.sat.stats();
        s.simplex_pivots = self.lia.pivots();
        s.tableau_rows = self.lia.num_rows() as u64;
        s
    }

    /// The term manager, for evaluating and displaying terms. Terms are
    /// built through the solver, which registers every int variable with
    /// the theory as it is made.
    pub fn tm(&self) -> &TermManager {
        &self.tm
    }

    // ---- convenience term builders (delegate to the term manager) ----

    pub fn int_var(&mut self, name: &str) -> TermId {
        let t = self.tm.int_var(name);
        self.register_int_var(t);
        t
    }

    pub fn bool_var(&mut self, name: &str) -> TermId {
        self.tm.bool_var(name)
    }

    /// An int variable with no name (and no `String`); see
    /// [`TermManager::fresh_int`].
    pub fn fresh_int(&mut self) -> TermId {
        let t = self.tm.fresh_int();
        self.register_int_var(t);
        t
    }

    /// A bool variable with no name; see [`TermManager::fresh_bool`].
    pub fn fresh_bool(&mut self) -> TermId {
        self.tm.fresh_bool()
    }

    pub fn int(&mut self, c: i64) -> TermId {
        self.tm.int(c)
    }

    pub fn add(&mut self, ts: &[TermId]) -> TermId {
        self.tm.add(ts)
    }

    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.sub(a, b)
    }

    pub fn mul_const(&mut self, k: i64, t: TermId) -> TermId {
        self.tm.mul_const(k, t)
    }

    pub fn neg(&mut self, t: TermId) -> TermId {
        self.tm.neg(t)
    }

    pub fn ite(&mut self, c: TermId, a: TermId, b: TermId) -> TermId {
        self.tm.ite(c, a, b)
    }

    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.le(a, b)
    }

    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.lt(a, b)
    }

    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.ge(a, b)
    }

    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.gt(a, b)
    }

    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.eq(a, b)
    }

    pub fn not(&mut self, t: TermId) -> TermId {
        self.tm.not(t)
    }

    pub fn and(&mut self, ts: &[TermId]) -> TermId {
        self.tm.and(ts)
    }

    pub fn or(&mut self, ts: &[TermId]) -> TermId {
        self.tm.or(ts)
    }

    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.implies(a, b)
    }

    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.tm.iff(a, b)
    }

    fn register_int_var(&mut self, t: TermId) {
        self.spx_of.insert(t, self.lia.new_int_var());
        self.int_vars.push(t);
    }

    // ---- assertion pipeline ----

    /// Assert a boolean term.
    pub fn assert(&mut self, t: TermId) {
        self.assertions.push(t);
        self.assert_unrecorded(t);
    }

    /// [`Solver::assert`] for the solver's own strengthening bounds, which
    /// [`Solver::model_satisfies_assertions`] must not hold a model to.
    fn assert_unrecorded(&mut self, t: TermId) {
        debug_assert_eq!(self.tm.sort(t), Sort::Bool);
        let lowered = self.lower_bool(t);
        self.enc.assert_formula(&self.tm, lowered);
        self.register_new_atoms();
    }

    /// Rewrite a bool term so that no atom references an `ite` node:
    /// each distinct `ite` is replaced by a fresh int variable constrained
    /// by definitional implications. A term without an `ite` (known since
    /// it was built) is its own lowering.
    fn lower_bool(&mut self, t: TermId) -> TermId {
        if !self.tm.has_ite(t) {
            return t;
        }
        match self.tm.kind(t).clone() {
            TermKind::Not(x) => {
                let lx = self.lower_bool(x);
                self.tm.not(lx)
            }
            TermKind::And(xs) => {
                let ls: Vec<TermId> = xs.iter().map(|&x| self.lower_bool(x)).collect();
                self.tm.and(&ls)
            }
            TermKind::Or(xs) => {
                let ls: Vec<TermId> = xs.iter().map(|&x| self.lower_bool(x)).collect();
                self.tm.or(&ls)
            }
            TermKind::Le(e) => {
                let terms = e
                    .terms
                    .iter()
                    .map(|&(base, coeff)| (self.lower_int_base(base), coeff))
                    .collect();
                self.tm.le_zero(LinExpr::from_terms(terms, e.constant))
            }
            k => panic!("not a bool term with an ite: {k:?}"),
        }
    }

    /// Lower a base term (IntVar or Ite) to an IntVar term.
    fn lower_int_base(&mut self, t: TermId) -> TermId {
        let TermKind::Ite(c, a, b) = *self.tm.kind(t) else {
            return t;
        };
        if let Some(&v) = self.ite_var_of.get(&t) {
            return v;
        }
        let v = self.fresh_int();
        self.ite_var_of.insert(t, v);
        // Definitions: c -> v = a, !c -> v = b.
        let lc = self.lower_bool(c);
        let eq_a = self.tm.eq(v, a);
        let eq_b = self.tm.eq(v, b);
        let then_def = self.tm.implies(lc, eq_a);
        let nlc = self.tm.not(lc);
        let else_def = self.tm.implies(nlc, eq_b);
        let both = self.tm.and(&[then_def, else_def]);
        let lowered = self.lower_bool(both);
        self.enc.assert_formula(&self.tm, lowered);
        v
    }

    /// Register on the LIA side every atom the encoder has seen since the
    /// last call.
    fn register_new_atoms(&mut self) {
        while let Some(&(term, var)) = self.enc.atoms().get(self.lia_atoms) {
            self.lia_atoms += 1;
            let TermKind::Le(e) = self.tm.kind(term) else {
                unreachable!("registered atom is not Le");
            };
            let terms: Vec<(SpxVar, i64)> =
                e.terms.iter().map(|&(v, c)| (self.spx_of[&v], c)).collect();
            self.lia.add_atom(&terms, -e.constant, var);
        }
    }

    // ---- solving ----

    /// Decide satisfiability of the asserted formulas.
    pub fn check(&mut self) -> SatResult {
        let deadline = self.budget.timeout.map(|d| Instant::now() + d);
        self.check_with_deadline(deadline)
    }

    /// When the most recent check (`minimize` runs several) started and
    /// how it ended — what splits a solve into search and proof.
    pub fn last_check(&self) -> Option<(Instant, SatResult)> {
        self.last_check
    }

    fn check_with_deadline(&mut self, deadline: Option<Instant>) -> SatResult {
        let started = Instant::now();
        let result = self.search(deadline);
        self.last_check = Some((started, result));
        result
    }

    fn search(&mut self, deadline: Option<Instant>) -> SatResult {
        self.model = None;
        self.enc
            .sat
            .set_conflict_budget(self.budget.max_sat_conflicts);
        self.lia.set_max_bb_nodes(self.budget.max_bb_nodes);
        match self.enc.sat.solve_with(&mut self.lia, deadline) {
            SolveResult::Unsat => SatResult::Unsat,
            SolveResult::Unknown => SatResult::Unknown,
            SolveResult::Sat => {
                let n = self.tm.num_terms();
                let mut model = Model {
                    ints: vec![0; n],
                    bools: vec![false; n],
                };
                for (&t, &v) in self.int_vars.iter().zip(self.lia.model()) {
                    model.ints[t as usize] = v;
                }
                self.capture_bool_vars(&mut model);
                self.model = Some(model);
                debug_assert!(self.model_satisfies_assertions());
                SatResult::Sat
            }
        }
    }

    /// BoolVars get their SAT value (their literal is memoized by the
    /// encoder, so no new variable is made for one already encoded).
    fn capture_bool_vars(&mut self, model: &mut Model) {
        for t in 0..model.bools.len() as TermId {
            if let TermKind::BoolVar(_) = self.tm.kind(t) {
                let lit = self.enc.lit(&self.tm, t);
                model.bools[t as usize] = self.enc.sat.model_value(lit.var()) ^ lit.is_neg();
            }
        }
    }

    /// Self-check of the last `Sat` / `Optimal` / `Best` answer: every
    /// asserted term, as it was given (before ite lowering and Tseitin),
    /// evaluates to true under the model. `false` without a model.
    pub fn model_satisfies_assertions(&self) -> bool {
        self.model
            .as_ref()
            .is_some_and(|m| self.assertions.iter().all(|&t| m.eval_bool(&self.tm, t)))
    }

    /// The model of the last `Sat` check.
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// Model value of an int term (panics without a model).
    pub fn model_int(&self, t: TermId) -> i64 {
        self.model
            .as_ref()
            .expect("no model available")
            .eval_int(&self.tm, t)
    }

    /// Maximize an integer objective (dual of [`Solver::minimize`]):
    /// stops early if `hi` is reached.
    pub fn maximize(&mut self, obj: TermId, hi: i64) -> OptResult {
        let neg = self.neg(obj);
        match self.minimize(neg, hi.checked_neg().unwrap_or(i64::MIN + 1)) {
            OptResult::Optimal { value, model } => OptResult::Optimal {
                value: -value,
                model,
            },
            OptResult::Best { value, model } => OptResult::Best {
                value: -value,
                model,
            },
            r => r,
        }
    }

    /// [`Solver::minimize`] started from a suggested assignment of the
    /// problem's int and bool variables (unlisted ones read 0 / false).
    ///
    /// **Checked:** the suggestion is evaluated against every asserted
    /// term as it was given (before ite lowering and Tseitin). Only if it
    /// satisfies them all does it become the incumbent: the search then
    /// starts below it, at `obj ≤ value(obj) − 1`, and if nothing is
    /// there the suggestion itself comes back as the proven optimum. A
    /// suggestion that fails any assertion bounds nothing, so a wrong one
    /// can never cut off a solution. **Heuristic:** the first decision
    /// polarity of every encoded term (atoms, bool variables, Tseitin
    /// auxiliaries, `ite` stand-ins) is set to its truth under the
    /// suggestion, so the search starts next to it; a polarity orders the
    /// search and cannot change a verdict or an optimum.
    pub fn minimize_from(
        &mut self,
        obj: TermId,
        lo: i64,
        ints: &[(TermId, i64)],
        bools: &[(TermId, bool)],
    ) -> OptResult {
        let n = self.tm.num_terms();
        let mut suggested = Model {
            ints: vec![0; n],
            bools: vec![false; n],
        };
        for &(t, v) in ints {
            suggested.ints[t as usize] = v;
        }
        for &(t, b) in bools {
            suggested.bools[t as usize] = b;
        }
        // A stand-in takes the value of the ite it stands for.
        for (&ite, &v) in &self.ite_var_of {
            suggested.ints[v as usize] = suggested.eval_int(&self.tm, ite);
        }
        self.enc.set_phases(|t| suggested.eval_bool(&self.tm, t));
        let best = self
            .assertions
            .iter()
            .all(|&t| suggested.eval_bool(&self.tm, t))
            .then(|| (suggested.eval_int(&self.tm, obj), suggested));
        self.minimize_below(obj, lo, best)
    }

    /// Minimize an integer objective by iterative strengthening
    /// (`obj ≤ best − 1` after every improving model), stopping early if
    /// `lo` is reached. The solver is consumed in the sense that the
    /// objective bounds stay asserted; [`Solver::model`] is left at the
    /// returned model.
    pub fn minimize(&mut self, obj: TermId, lo: i64) -> OptResult {
        self.minimize_below(obj, lo, None)
    }

    /// The strengthening loop, entered with `best` as the incumbent.
    fn minimize_below(
        &mut self,
        obj: TermId,
        lo: i64,
        mut best: Option<(i64, Model)>,
    ) -> OptResult {
        let deadline = self.budget.timeout.map(|d| Instant::now() + d);
        let proven = loop {
            // The timeout bounds the whole minimize: past it nothing more is
            // claimed, not even that an incumbent already at `lo` is optimal.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break false;
            }
            if let Some((v, _)) = &best {
                if *v <= lo {
                    break true;
                }
                let bound = self.int(*v - 1);
                let c = self.le(obj, bound);
                self.assert_unrecorded(c);
            }
            match self.check_with_deadline(deadline) {
                SatResult::Sat => {
                    let m = self.model.clone().expect("sat implies model");
                    let v = m.eval_int(&self.tm, obj);
                    debug_assert!(
                        best.as_ref().is_none_or(|(bv, _)| v < *bv),
                        "objective must strictly improve"
                    );
                    best = Some((v, m));
                }
                SatResult::Unsat => break true,
                SatResult::Unknown => break false,
            }
        };
        self.model = best.as_ref().map(|(_, m)| m.clone());
        match (best, proven) {
            (Some((value, model)), true) => OptResult::Optimal { value, model },
            (Some((value, model)), false) => OptResult::Best { value, model },
            (None, true) => OptResult::Unsat,
            (None, false) => OptResult::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_unsat() {
        let mut s = Solver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        let sum = s.add(&[x, y]);
        let seven = s.int(7);
        let eq = s.eq(sum, seven);
        s.assert(eq);
        let three = s.int(3);
        let c1 = s.le(x, three);
        let c2 = s.le(y, three);
        s.assert(c1);
        s.assert(c2);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn sat_with_model() {
        let mut s = Solver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        let sum = s.add(&[x, y]);
        let seven = s.int(7);
        let eq = s.eq(sum, seven);
        s.assert(eq);
        let zero = s.int(0);
        let c1 = s.ge(x, zero);
        let c2 = s.ge(y, zero);
        s.assert(c1);
        s.assert(c2);
        assert_eq!(s.check(), SatResult::Sat);
        assert_eq!(s.model_int(x) + s.model_int(y), 7);
        assert!(s.model_int(x) >= 0 && s.model_int(y) >= 0);
    }

    #[test]
    fn boolean_and_theory_interaction() {
        // p -> x >= 5; !p -> x <= -5; x = 2 forces contradiction.
        let mut s = Solver::new();
        let p = s.bool_var("p");
        let x = s.int_var("x");
        let five = s.int(5);
        let mfive = s.int(-5);
        let ge5 = s.ge(x, five);
        let le_m5 = s.le(x, mfive);
        let i1 = s.implies(p, ge5);
        let np = s.not(p);
        let i2 = s.implies(np, le_m5);
        s.assert(i1);
        s.assert(i2);
        let two = s.int(2);
        let eq2 = s.eq(x, two);
        s.assert(eq2);
        assert_eq!(s.check(), SatResult::Unsat);
    }

    #[test]
    fn disjunction_picks_a_branch() {
        let mut s = Solver::new();
        let x = s.int_var("x");
        let ten = s.int(10);
        let twenty = s.int(20);
        let a = s.eq(x, ten);
        let b = s.eq(x, twenty);
        let d = s.or(&[a, b]);
        s.assert(d);
        let fifteen = s.int(15);
        let gt15 = s.gt(x, fifteen);
        s.assert(gt15);
        assert_eq!(s.check(), SatResult::Sat);
        assert_eq!(s.model_int(x), 20);
    }

    #[test]
    fn ite_terms_work() {
        // y = ite(x > 0, x, -x)  (absolute value); x = -4 -> y = 4.
        let mut s = Solver::new();
        let x = s.int_var("x");
        let y = s.int_var("y");
        let zero = s.int(0);
        let cond = s.gt(x, zero);
        let negx = s.neg(x);
        let abs = s.ite(cond, x, negx);
        let eq = s.eq(y, abs);
        s.assert(eq);
        let m4 = s.int(-4);
        let xeq = s.eq(x, m4);
        s.assert(xeq);
        assert_eq!(s.check(), SatResult::Sat);
        assert_eq!(s.model_int(y), 4);
    }

    #[test]
    fn nested_ite_counting() {
        // count = ite(a>0,1,0) + ite(b>0,1,0); a=3, b=0 -> count=1.
        let mut s = Solver::new();
        let a = s.int_var("a");
        let b = s.int_var("b");
        let zero = s.int(0);
        let one = s.int(1);
        let ca = s.gt(a, zero);
        let cb = s.gt(b, zero);
        let ia = s.ite(ca, one, zero);
        let ib = s.ite(cb, one, zero);
        let count = s.add(&[ia, ib]);
        let three = s.int(3);
        let a3 = s.eq(a, three);
        let b0 = s.eq(b, zero);
        s.assert(a3);
        s.assert(b0);
        assert_eq!(s.check(), SatResult::Sat);
        let m = s.model().unwrap();
        // Evaluate the original ite-bearing term against the model.
        assert_eq!(m.eval_int(&s.tm, count), 1);
    }

    #[test]
    fn minimize_simple_objective() {
        // min x subject to x >= 3 ∨ x >= 10, x <= 100.
        let mut s = Solver::new();
        let x = s.int_var("x");
        let three = s.int(3);
        let ten = s.int(10);
        let hundred = s.int(100);
        let a = s.ge(x, three);
        let b = s.ge(x, ten);
        let d = s.or(&[a, b]);
        s.assert(d);
        let ub = s.le(x, hundred);
        s.assert(ub);
        let lb = s.ge(x, three); // x >= 3 globally
        s.assert(lb);
        match s.minimize(x, i64::MIN) {
            OptResult::Optimal { value, .. } => assert_eq!(value, 3),
            r => panic!("expected optimal, got {r:?}"),
        }
    }

    #[test]
    fn minimize_l1_distance() {
        // min |x - 7| encoded as d >= x-7, d >= 7-x, minimize d with x even.
        let mut s = Solver::new();
        let x = s.int_var("x");
        let d = s.int_var("d");
        let two = s.int(2);
        let half = s.int_var("half");
        let twice = s.mul_const(2, half);
        let even = s.eq(x, twice);
        s.assert(even);
        let seven = s.int(7);
        let diff = s.sub(x, seven);
        let c1 = s.ge(d, diff);
        let ndiff = s.neg(diff);
        let c2 = s.ge(d, ndiff);
        s.assert(c1);
        s.assert(c2);
        let zero = s.int(0);
        let lo = s.ge(x, zero);
        let hundred = s.int(100);
        let hi = s.le(x, hundred);
        s.assert(lo);
        s.assert(hi);
        let _ = two;
        match s.minimize(d, 0) {
            OptResult::Optimal { value, model } => {
                assert_eq!(value, 1, "nearest even number to 7 is at distance 1");
                let xv = model.eval_int(&s.tm, x);
                assert!(xv == 6 || xv == 8);
            }
            r => panic!("expected optimal, got {r:?}"),
        }
    }

    #[test]
    fn maximize_simple_objective() {
        // max x subject to 2 <= x <= 9, x odd (x = 2k+1).
        let mut s = Solver::new();
        let x = s.int_var("x");
        let k = s.int_var("k");
        let two = s.int(2);
        let nine = s.int(9);
        let lo = s.ge(x, two);
        let hi = s.le(x, nine);
        s.assert(lo);
        s.assert(hi);
        let twok = s.mul_const(2, k);
        let one = s.int(1);
        let odd_val = s.add(&[twok, one]);
        let odd = s.eq(x, odd_val);
        s.assert(odd);
        match s.maximize(x, i64::MAX) {
            OptResult::Optimal { value, .. } => assert_eq!(value, 9),
            r => panic!("expected optimal, got {r:?}"),
        }
    }

    /// `5 ≤ x ≤ 100`, minimize `x`.
    fn bounded_x(s: &mut Solver) -> TermId {
        let x = s.int_var("x");
        let five = s.int(5);
        let hundred = s.int(100);
        let lo = s.ge(x, five);
        let hi = s.le(x, hundred);
        s.assert(lo);
        s.assert(hi);
        x
    }

    fn optimum(r: OptResult) -> i64 {
        match r {
            OptResult::Optimal { value, .. } => value,
            r => panic!("expected optimal, got {r:?}"),
        }
    }

    #[test]
    fn minimize_from_matches_cold_minimize() {
        let mut cold = Solver::new();
        let xc = bounded_x(&mut cold);
        let vc = optimum(cold.minimize(xc, i64::MIN));
        // A suggestion that is a model but not the optimum.
        let mut warm = Solver::new();
        let xw = bounded_x(&mut warm);
        let vw = optimum(warm.minimize_from(xw, i64::MIN, &[(xw, 7)], &[]));
        assert_eq!((vc, vw), (5, 5));
        assert!(warm.model_satisfies_assertions());
    }

    #[test]
    fn a_wrong_suggestion_cannot_turn_sat_into_unsat() {
        // x = 3 violates x ≥ 5: it may steer the search, never bound it.
        let mut s = Solver::new();
        let x = bounded_x(&mut s);
        assert_eq!(optimum(s.minimize_from(x, i64::MIN, &[(x, 3)], &[])), 5);
        assert_eq!(s.model_int(x), 5);
    }

    #[test]
    fn an_optimal_suggestion_is_returned_after_the_proof_alone() {
        let mut s = Solver::new();
        let x = bounded_x(&mut s);
        let r = s.minimize_from(x, i64::MIN, &[(x, 5)], &[]);
        assert_eq!(optimum(r), 5);
        assert_eq!(s.model_int(x), 5);
        assert!(s.model_satisfies_assertions());
        // No model was searched for, only `x ≤ 4` refuted.
        assert_eq!(s.stats().iterations, 0);
        // At the caller's floor there is nothing left to prove either.
        let mut s = Solver::new();
        let x = bounded_x(&mut s);
        assert_eq!(optimum(s.minimize_from(x, 5, &[(x, 5)], &[])), 5);
        assert_eq!(s.stats().theory_checks, 0);
    }

    #[test]
    fn a_spent_timeout_claims_nothing_even_for_an_incumbent_at_lo() {
        let mut s = Solver::new();
        let x = bounded_x(&mut s);
        s.set_budget(Budget {
            timeout: Some(Duration::ZERO),
            ..Budget::default()
        });
        let r = s.minimize_from(x, 5, &[(x, 5)], &[]);
        assert!(matches!(r, OptResult::Best { value: 5, .. }), "{r:?}");
    }

    #[test]
    fn suggestions_reach_ite_stand_ins_and_bool_variables() {
        // count = ite(p,1,0) + ite(q,1,0); p ∨ q; ¬p → x ≤ 0; x ≥ 2.
        // Minimum count is 1, with p true and q false.
        let build = |s: &mut Solver| {
            let (p, q) = (s.bool_var("p"), s.bool_var("q"));
            let x = s.int_var("x");
            let (zero, one, two) = (s.int(0), s.int(1), s.int(2));
            let ip = s.ite(p, one, zero);
            let iq = s.ite(q, one, zero);
            let count = s.add(&[ip, iq]);
            let either = s.or(&[p, q]);
            s.assert(either);
            let np = s.not(p);
            let x_le0 = s.le(x, zero);
            let link = s.implies(np, x_le0);
            s.assert(link);
            let x_ge2 = s.ge(x, two);
            s.assert(x_ge2);
            // The objective's ites are only lowered once an atom mentions them.
            let cap = s.le(count, two);
            s.assert(cap);
            (p, q, x, count)
        };
        let mut cold = Solver::new();
        let (.., count) = build(&mut cold);
        assert_eq!(optimum(cold.minimize(count, 0)), 1);
        for (sp, sq, sx) in [(true, false, 2), (true, true, 9), (false, true, 0)] {
            let mut s = Solver::new();
            let (p, q, x, count) = build(&mut s);
            let r = s.minimize_from(count, 0, &[(x, sx)], &[(p, sp), (q, sq)]);
            assert_eq!(optimum(r), 1, "suggestion p={sp} q={sq} x={sx}");
            assert!(s.model_satisfies_assertions());
        }
    }

    #[test]
    fn unsat_minimize() {
        let mut s = Solver::new();
        let x = s.int_var("x");
        let one = s.int(1);
        let zero = s.int(0);
        let a = s.ge(x, one);
        let b = s.le(x, zero);
        s.assert(a);
        s.assert(b);
        match s.minimize(x, i64::MIN) {
            OptResult::Unsat => {}
            r => panic!("expected unsat, got {r:?}"),
        }
    }

    #[test]
    fn timeout_budget_gives_unknown() {
        use std::time::Duration;
        // A pigeonhole-flavoured integer problem that needs real search.
        let mut s = Solver::new();
        let n = 9;
        let vars: Vec<TermId> = (0..n).map(|i| s.int_var(&format!("v{i}"))).collect();
        let zero = s.int(0);
        let bound = s.int(n as i64 - 2);
        for &v in &vars {
            let a = s.ge(v, zero);
            let b = s.le(v, bound);
            s.assert(a);
            s.assert(b);
        }
        // All distinct: |vi - vj| >= 1 via disjunctions.
        for i in 0..n {
            for j in (i + 1)..n {
                let lt = s.lt(vars[i], vars[j]);
                let gt = s.gt(vars[i], vars[j]);
                let d = s.or(&[lt, gt]);
                s.assert(d);
            }
        }
        s.set_budget(Budget {
            timeout: Some(Duration::from_millis(50)),
            max_sat_conflicts: Some(10_000_000),
            max_bb_nodes: 1_000_000_000,
        });
        // n values in n-1 slots, all distinct: unsat, but the search
        // churns through theory conflicts; we only require graceful Unknown
        // or a proven Unsat — never a wrong Sat.
        let r = s.check();
        assert_ne!(r, SatResult::Sat);
    }

    #[test]
    fn budget_escalation_scales_every_limit_and_saturates() {
        let b = Budget {
            timeout: Some(Duration::from_secs(2)),
            max_sat_conflicts: Some(1_000),
            max_bb_nodes: 500,
        };
        let e = b.escalate(4);
        assert_eq!(e.timeout, Some(Duration::from_secs(8)));
        assert_eq!(e.max_sat_conflicts, Some(4_000));
        assert_eq!(e.max_bb_nodes, 2_000);
        // factor 0 is treated as 1; u64 limits saturate instead of wrapping.
        let same = b.escalate(0);
        assert_eq!(same.max_bb_nodes, 500);
        let huge = Budget {
            timeout: None,
            max_sat_conflicts: Some(u64::MAX / 2),
            max_bb_nodes: u64::MAX / 2,
        }
        .escalate(1_000);
        assert_eq!(huge.max_bb_nodes, u64::MAX);
        assert_eq!(huge.max_sat_conflicts, Some(u64::MAX));
        // tight() really is tighter than the default on every axis.
        let (t, d) = (Budget::tight(), Budget::default());
        assert!(t.max_bb_nodes < d.max_bb_nodes);
        assert!(t.max_sat_conflicts.unwrap() < d.max_sat_conflicts.unwrap());
    }
}
