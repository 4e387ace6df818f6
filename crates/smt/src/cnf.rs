//! Tseitin conversion from the term DAG to CNF over a [`SatSolver`].
//!
//! Boolean structure becomes auxiliary variables and definitional clauses;
//! theory atoms (`Le` nodes) and boolean variables become plain SAT
//! variables, with atoms recorded in a registry the solver registers on
//! the theory side in the same order.

use crate::room;
use crate::sat::{Lit, SatSolver, Var};
use crate::term::{TermId, TermKind, TermManager};

/// CNF encoder with an atom registry.
pub struct Encoder {
    pub sat: SatSolver,
    /// `lit_of[t]`: the literal of encoded term `t` (term ids are dense).
    lit_of: Vec<Option<Lit>>,
    /// Registration order of theory atoms: (atom term, SAT var).
    atoms: Vec<(TermId, Var)>,
    /// A SAT variable forced true (lazily created for `True`/`False`).
    const_true: Option<Var>,
    /// A clause being put together.
    clause: Vec<Lit>,
    /// Variables made by [`Encoder::and2`], with the two atoms they join.
    and2s: Vec<(Var, TermId, TermId)>,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder {
            sat: SatSolver::new(),
            lit_of: room(),
            atoms: room(),
            const_true: None,
            clause: room(),
            and2s: room(),
        }
    }

    /// Theory atoms seen so far, in registration order.
    pub fn atoms(&self) -> &[(TermId, Var)] {
        &self.atoms
    }

    /// Point the first decision on every encoded term's variable at the
    /// term's truth under `value` (a search heuristic, see
    /// [`SatSolver::set_phase`]).
    pub fn set_phases(&mut self, value: impl Fn(TermId) -> bool) {
        for (t, lit) in (0..).zip(&self.lit_of) {
            if let &Some(lit) = lit {
                self.sat.set_phase(lit.var(), value(t) != lit.is_neg());
            }
        }
        for &(v, x, y) in &self.and2s {
            self.sat.set_phase(v, value(x) && value(y));
        }
    }

    fn true_lit(&mut self) -> Lit {
        let v = match self.const_true {
            Some(v) => v,
            None => {
                let v = self.sat.new_var();
                self.sat.add_clause(&[Lit::pos(v)]);
                self.const_true = Some(v);
                v
            }
        };
        Lit::pos(v)
    }

    /// The literal representing a bool-sorted term (Tseitin, memoized).
    pub fn lit(&mut self, tm: &TermManager, t: TermId) -> Lit {
        if let Some(&Some(l)) = self.lit_of.get(t as usize) {
            return l;
        }
        let l = match *tm.kind(t) {
            TermKind::True => self.true_lit(),
            TermKind::False => self.true_lit().negate(),
            TermKind::BoolVar(_) => Lit::pos(self.sat.new_var()),
            TermKind::Le(_) => {
                let v = self.sat.new_var();
                self.atoms.push((t, v));
                Lit::pos(v)
            }
            TermKind::Not(inner) => self.lit(tm, inner).negate(),
            TermKind::And => self.junction(tm, tm.ids(t), false),
            TermKind::Or => self.junction(tm, tm.ids(t), true),
            k => panic!("not a boolean term: {k:?}"),
        };
        self.lit_of
            .resize(self.lit_of.len().max(tm.num_terms()), None);
        self.lit_of[t as usize] = Some(l);
        l
    }

    /// Is `t` encoded already?
    pub fn is_encoded(&self, t: TermId) -> bool {
        self.lit_of.get(t as usize).is_some_and(Option::is_some)
    }

    /// A variable for `x ∧ y` with no term behind it, its phase that of
    /// `x ∧ y`: what [`Encoder::lit`] makes of the term `and(x, y)` when
    /// `x < y` are atoms.
    pub fn and2(&mut self, tm: &TermManager, x: TermId, y: TermId) -> Lit {
        let v = self.junction(tm, &[x, y], false);
        self.and2s.push((v.var(), x, y));
        v
    }

    /// A fresh `v ↔ ⋀ xs`, or `v ↔ ⋁ xs`, its children encoded first.
    fn junction(&mut self, tm: &TermManager, xs: &[TermId], or: bool) -> Lit {
        // ⋀ xᵢ → v is ¬x₁ ∨ … ∨ ¬xₙ ∨ v; v → ⋁ xᵢ is x₁ ∨ … ∨ xₙ ∨ ¬v.
        self.child_clause(tm, xs, !or);
        let v = Lit::pos(self.sat.new_var());
        let last = if or { v.negate() } else { v };
        // v → xᵢ, or xᵢ → v.
        for &l in &self.clause {
            self.sat.add_clause(&[last.negate(), l.negate()]);
        }
        self.clause.push(last);
        self.sat.add_clause(&self.clause);
        v
    }

    /// Encode `xs` in order and put their literals, negated if `negate`,
    /// in the clause being built.
    fn child_clause(&mut self, tm: &TermManager, xs: &[TermId], negate: bool) {
        for &x in xs {
            self.lit(tm, x);
        }
        self.clause.clear();
        let lit_of = &self.lit_of;
        let lit = |x: TermId| lit_of[x as usize].expect("child encoded");
        self.clause.extend(
            xs.iter()
                .map(|&x| Lit::new(lit(x).var(), lit(x).is_neg() != negate)),
        );
    }

    /// Assert a bool-sorted term as a top-level constraint.
    ///
    /// Top-level conjunctions are split (no auxiliary variable), top-level
    /// disjunctions become a single clause.
    pub fn assert_formula(&mut self, tm: &TermManager, t: TermId) {
        match *tm.kind(t) {
            TermKind::True => {}
            TermKind::False => {
                self.sat.add_clause(&[]);
            }
            TermKind::And => {
                for &x in tm.ids(t) {
                    self.assert_formula(tm, x);
                }
            }
            TermKind::Or => {
                self.child_clause(tm, tm.ids(t), false);
                self.sat.add_clause(&self.clause);
            }
            _ => {
                let l = self.lit(tm, t);
                self.sat.add_clause(&[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SolveResult;
    use crate::term::TermManager;

    #[test]
    fn pure_boolean_sat() {
        let mut tm = TermManager::new();
        let mut enc = Encoder::new();
        let p = tm.bool_var("p");
        let q = tm.bool_var("q");
        let np = tm.not(p);
        let f1 = tm.or(&[p, q]);
        let f2 = tm.or(&[np, q]);
        enc.assert_formula(&tm, f1);
        enc.assert_formula(&tm, f2);
        assert_eq!(enc.sat.solve(), SolveResult::Sat);
        let lq = enc.lit(&tm, q);
        assert!(enc.sat.model_value(lq.var()), "q must be true");
    }

    #[test]
    fn pure_boolean_unsat() {
        let mut tm = TermManager::new();
        let mut enc = Encoder::new();
        let p = tm.bool_var("p");
        let q = tm.bool_var("q");
        // (p <-> q) & (p <-> !q) is unsat.
        let nq = tm.not(q);
        let f1 = tm.iff(p, q);
        let f2 = tm.iff(p, nq);
        enc.assert_formula(&tm, f1);
        enc.assert_formula(&tm, f2);
        assert_eq!(enc.sat.solve(), SolveResult::Unsat);
    }

    #[test]
    fn atoms_are_registered_once() {
        let mut tm = TermManager::new();
        let mut enc = Encoder::new();
        let x = tm.int_var("x");
        let c = tm.int(3);
        let a = tm.le(x, c);
        let na = tm.not(a);
        let f = tm.or(&[a, na]); // simplifies to true, but force paths:
        assert_eq!(f, tm.true_());
        enc.assert_formula(&tm, a);
        let _ = enc.lit(&tm, na);
        assert_eq!(enc.atoms().len(), 1, "hash-consed atom registered once");
    }

    #[test]
    fn nested_structure_encodes_correctly() {
        let mut tm = TermManager::new();
        let mut enc = Encoder::new();
        let p = tm.bool_var("p");
        let q = tm.bool_var("q");
        let r = tm.bool_var("r");
        // (p & (q | r)) with p forced and q,r forced false -> unsat.
        let qr = tm.or(&[q, r]);
        let f = tm.and(&[p, qr]);
        enc.assert_formula(&tm, f);
        let nq = tm.not(q);
        let nr = tm.not(r);
        enc.assert_formula(&tm, nq);
        enc.assert_formula(&tm, nr);
        assert_eq!(enc.sat.solve(), SolveResult::Unsat);
    }

    #[test]
    fn true_false_constants() {
        let tm = TermManager::new();
        let mut enc = Encoder::new();
        let t = tm.true_();
        enc.assert_formula(&tm, t); // no-op
        assert_eq!(enc.sat.solve(), SolveResult::Sat);
        let f = tm.false_();
        enc.assert_formula(&tm, f);
        assert_eq!(enc.sat.solve(), SolveResult::Unsat);
    }
}
