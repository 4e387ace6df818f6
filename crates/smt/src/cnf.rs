//! Tseitin conversion from the term DAG to CNF over a [`SatSolver`].
//!
//! Boolean structure becomes auxiliary variables and definitional clauses;
//! theory atoms (`Le` nodes) and boolean variables become plain SAT
//! variables, with atoms recorded in a registry the solver registers on
//! the theory side in the same order.

use crate::hash::FxMap;
use crate::sat::{Lit, SatSolver, Var};
use crate::term::{TermId, TermKind, TermManager};

/// CNF encoder with an atom registry.
pub struct Encoder {
    pub sat: SatSolver,
    lit_of: FxMap<TermId, Lit>,
    /// Registration order of theory atoms: (atom term, SAT var).
    atoms: Vec<(TermId, Var)>,
    /// A SAT variable forced true (lazily created for `True`/`False`).
    const_true: Option<Var>,
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
            lit_of: FxMap::default(),
            atoms: Vec::new(),
            const_true: None,
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
        for (&t, &lit) in &self.lit_of {
            self.sat.set_phase(lit.var(), value(t) != lit.is_neg());
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
        if let Some(&l) = self.lit_of.get(&t) {
            return l;
        }
        let l = match tm.kind(t) {
            TermKind::True => self.true_lit(),
            TermKind::False => self.true_lit().negate(),
            TermKind::BoolVar(_) => Lit::pos(self.sat.new_var()),
            TermKind::Le(_) => {
                let v = self.sat.new_var();
                self.atoms.push((t, v));
                Lit::pos(v)
            }
            TermKind::Not(inner) => self.lit(tm, *inner).negate(),
            TermKind::And(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|&x| self.lit(tm, x)).collect();
                let v = Lit::pos(self.sat.new_var());
                // v -> xi
                for &lx in &lits {
                    self.sat.add_clause(&[v.negate(), lx]);
                }
                // (x1 & ... & xn) -> v
                let mut big: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
                big.push(v);
                self.sat.add_clause(&big);
                v
            }
            TermKind::Or(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|&x| self.lit(tm, x)).collect();
                let v = Lit::pos(self.sat.new_var());
                // xi -> v
                for &lx in &lits {
                    self.sat.add_clause(&[lx.negate(), v]);
                }
                // v -> (x1 | ... | xn)
                let mut big: Vec<Lit> = lits.clone();
                big.insert(0, v.negate());
                self.sat.add_clause(&big);
                v
            }
            k => panic!("not a boolean term: {k:?}"),
        };
        self.lit_of.insert(t, l);
        l
    }

    /// Assert a bool-sorted term as a top-level constraint.
    ///
    /// Top-level conjunctions are split (no auxiliary variable), top-level
    /// disjunctions become a single clause.
    pub fn assert_formula(&mut self, tm: &TermManager, t: TermId) {
        match tm.kind(t) {
            TermKind::True => {}
            TermKind::False => {
                self.sat.add_clause(&[]);
            }
            TermKind::And(xs) => {
                for &x in xs {
                    self.assert_formula(tm, x);
                }
            }
            TermKind::Or(xs) => {
                let clause: Vec<Lit> = xs.iter().map(|&x| self.lit(tm, x)).collect();
                self.sat.add_clause(&clause);
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
