//! Linear integer arithmetic on top of the simplex, as an online
//! [`Theory`]: an atom's bound is asserted when its literal lands on the
//! SAT trail, one simplex scope is open per decision level, the rational
//! relaxation is checked at every fixpoint and branch & bound enforces
//! integrality at a full assignment.

use crate::rational::Rat;
use crate::room;
use crate::sat::{Lit, Theory, TheoryResult, Var};
use crate::simplex::{Simplex, SpxResult, SpxVar, Tag};
use std::time::Instant;

/// Tag used for internal branch-and-bound bounds; never part of a valid
/// global conflict explanation. Every other tag is a [`Lit::index`].
const TAG_BB: Tag = usize::MAX;

/// An atom as the bound it places on one simplex variable: the problem
/// variable itself for `c·x ≤ rhs`, a slack row otherwise. True asserts
/// `var ≤ bound` (`upper`) or `var ≥ bound`; false asserts the integer
/// complement, `var ≥ bound + 1` or `var ≤ bound − 1`.
#[derive(Clone, Copy)]
struct AtomInfo {
    var: SpxVar,
    upper: bool,
    bound: i64,
}

/// The LIA theory solver: persistent rows, bounds that follow the trail.
pub struct LiaSolver {
    spx: Simplex,
    /// Indexed by SAT variable; `None` for variables that are not atoms.
    atoms: Vec<Option<AtomInfo>>,
    /// Problem variables, in allocation order; all are integer.
    int_vars: Vec<SpxVar>,
    /// Their values after the last consistent `final_check`.
    model: Vec<i64>,
    max_bb_nodes: u64,
    /// A row's definition on its way to the simplex.
    def: Vec<(SpxVar, Rat)>,
}

impl Default for LiaSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl LiaSolver {
    pub fn new() -> LiaSolver {
        LiaSolver {
            spx: Simplex::new(),
            atoms: room(),
            int_vars: room(),
            model: room(),
            max_bb_nodes: 200_000,
            def: room(),
        }
    }

    /// Allocate a problem integer variable.
    pub fn new_int_var(&mut self) -> SpxVar {
        let v = self.spx.new_var();
        self.int_vars.push(v);
        v
    }

    /// Register the atom `Σ coeff·var ≤ rhs` under the SAT variable `var`;
    /// idempotent registration is the caller's concern (the term layer
    /// hash-conses atoms). A single-variable atom becomes a bound on that
    /// variable (integer division rounds it exactly); only the others add
    /// a tableau row.
    pub fn add_atom(&mut self, terms: &[(SpxVar, i64)], rhs: i64, var: Var) {
        let info = match *terms {
            [(x, c)] if c > 0 => AtomInfo {
                var: x,
                upper: true,
                bound: rhs.div_euclid(c),
            },
            // c·x ≤ rhs with c < 0  ⇔  x ≥ ⌈rhs / c⌉.
            [(x, c)] if c < 0 => AtomInfo {
                var: x,
                upper: false,
                bound: -rhs.div_euclid(-c),
            },
            _ => {
                self.def.clear();
                self.def
                    .extend(terms.iter().map(|&(v, c)| (v, Rat::int(c))));
                AtomInfo {
                    var: self.spx.add_row(&self.def),
                    upper: true,
                    bound: rhs,
                }
            }
        };
        if self.atoms.len() <= var as usize {
            self.atoms.resize(var as usize + 1, None);
        }
        self.atoms[var as usize] = Some(info);
    }

    pub fn num_atoms(&self) -> usize {
        self.atoms.iter().flatten().count()
    }

    /// Tableau rows: one per multi-variable atom.
    pub fn num_rows(&self) -> usize {
        self.spx.num_rows()
    }

    /// Total simplex pivots so far (diagnostics).
    pub fn pivots(&self) -> u64 {
        self.spx.pivots
    }

    /// Test support: [`Simplex::assert_invariants`] of the tableau.
    pub fn assert_invariants(&self) {
        self.spx.assert_invariants();
    }

    /// Branch-and-bound nodes allowed per `final_check`.
    pub fn set_max_bb_nodes(&mut self, nodes: u64) {
        self.max_bb_nodes = nodes;
    }

    /// Current integer `(lower, upper)` bounds of a problem variable.
    pub fn bounds(&self, v: SpxVar) -> (Option<i64>, Option<i64>) {
        let (lo, hi) = self.spx.bounds(v);
        (lo.map(|b| b.to_int()), hi.map(|b| b.to_int()))
    }

    /// Values of the problem variables (allocation order) found by the
    /// last consistent `final_check`.
    pub fn model(&self) -> &[i64] {
        &self.model
    }

    /// Depth-first branch & bound over the open simplex scope. Returns
    /// `Some(true)` with the found model still asserted (the caller
    /// snapshots it, then pops the scopes), `Some(false)` if the subtree
    /// has no integer point — `why` then holds the bounds its infeasible
    /// leaves cite — and `None` on budget exhaustion.
    fn branch(
        &mut self,
        deadline: Option<Instant>,
        nodes: &mut u64,
        why: &mut Vec<Tag>,
    ) -> Option<bool> {
        if *nodes == 0 || deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        *nodes -= 1;
        if let SpxResult::Infeasible(tags) = self.spx.check() {
            why.extend(tags);
            return Some(false);
        }
        // First fractional variable.
        let frac = self
            .int_vars
            .iter()
            .copied()
            .find(|&v| !self.spx.value(v).is_integer());
        let Some(v) = frac else {
            return Some(true);
        };
        let fl = self.spx.value(v).floor();

        // Left: v ≤ ⌊val⌋, then right: v ≥ ⌊val⌋ + 1.
        for left in [true, false] {
            self.spx.push();
            let asserted = if left {
                self.spx.assert_upper(v, Rat::int(fl), TAG_BB)
            } else {
                self.spx.assert_lower(v, Rat::int(fl + 1), TAG_BB)
            };
            match asserted {
                SpxResult::Infeasible(tags) => why.extend(tags),
                SpxResult::Feasible => match self.branch(deadline, nodes, why) {
                    Some(true) => return Some(true), // keep scopes for model read
                    Some(false) => {}
                    None => return None,
                },
            }
            self.spx.pop();
        }
        Some(false)
    }
}

/// The clause refuting a set of bounds: the negation of every literal
/// that asserted one (branch-and-bound bounds cite nothing).
fn conflict_clause(tags: impl IntoIterator<Item = Tag>) -> TheoryResult {
    let mut t: Vec<Tag> = tags.into_iter().filter(|&t| t != TAG_BB).collect();
    t.sort_unstable();
    t.dedup();
    TheoryResult::Conflict(t.into_iter().map(|t| Lit::from_index(t).negate()).collect())
}

fn verdict(r: SpxResult) -> TheoryResult {
    match r {
        SpxResult::Feasible => TheoryResult::Consistent,
        SpxResult::Infeasible(tags) => conflict_clause(tags),
    }
}

/// One simplex scope per SAT level; scopes above them exist only inside
/// `final_check` (branch & bound).
impl Theory for LiaSolver {
    fn assert_lit(&mut self, lit: Lit) -> TheoryResult {
        let Some(&Some(a)) = self.atoms.get(lit.var() as usize) else {
            return TheoryResult::Consistent;
        };
        let (upper, bound) = match (lit.is_neg(), a.upper) {
            (false, upper) => (upper, a.bound),
            (true, true) => (false, a.bound + 1),
            (true, false) => (true, a.bound - 1),
        };
        verdict(if upper {
            self.spx.assert_upper(a.var, Rat::int(bound), lit.index())
        } else {
            self.spx.assert_lower(a.var, Rat::int(bound), lit.index())
        })
    }

    fn check(&mut self) -> TheoryResult {
        verdict(self.spx.check())
    }

    /// Rationally feasible: enforce integrality by branch & bound.
    fn final_check(&mut self, deadline: Option<Instant>) -> TheoryResult {
        let (mut nodes, mut why) = (self.max_bb_nodes, Vec::new());
        let levels = self.spx.depth();
        let found = self.branch(deadline, &mut nodes, &mut why);
        if found == Some(true) {
            self.model.clear();
            self.model
                .extend(self.int_vars.iter().map(|&v| self.spx.value(v).to_int()));
        }
        self.backtrack_to(levels as u32);
        match found {
            Some(true) => TheoryResult::Consistent,
            Some(false) => conflict_clause(why),
            None => TheoryResult::Unknown,
        }
    }

    fn push_level(&mut self) {
        self.spx.push();
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.spx.depth() > level as usize {
            self.spx.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Atoms are registered under consecutive SAT variables. Assert the
    /// `(atom, polarity)` pairs at level 0, then check and final-check.
    fn run(lia: &mut LiaSolver, assignment: &[(Var, bool)]) -> TheoryResult {
        for &(aid, pol) in assignment {
            match lia.assert_lit(Lit::new(aid, !pol)) {
                TheoryResult::Consistent => {}
                r => return r,
            }
        }
        match lia.check() {
            TheoryResult::Consistent => lia.final_check(None),
            r => r,
        }
    }

    fn atom(lia: &mut LiaSolver, terms: &[(SpxVar, i64)], rhs: i64) -> Var {
        let var = lia.num_atoms() as Var;
        lia.add_atom(terms, rhs, var);
        var
    }

    /// The atoms a conflict clause cites (it negates their literals).
    fn cited(r: TheoryResult) -> Vec<Var> {
        match r {
            TheoryResult::Conflict(c) => c.iter().map(|l| l.var()).collect(),
            r => panic!("expected conflict, got {r:?}"),
        }
    }

    #[test]
    fn simple_integer_model() {
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let y = lia.new_int_var();
        // x + y <= 5 (a0), -x <= -2 i.e. x>=2 (a1), -y <= -2 (a2)
        let a0 = atom(&mut lia, &[(x, 1), (y, 1)], 5);
        let a1 = atom(&mut lia, &[(x, -1)], -2);
        let a2 = atom(&mut lia, &[(y, -1)], -2);
        let r = run(&mut lia, &[(a0, true), (a1, true), (a2, true)]);
        assert_eq!(r, TheoryResult::Consistent);
        let m = lia.model();
        assert!(m[0] + m[1] <= 5 && m[0] >= 2 && m[1] >= 2);
    }

    #[test]
    fn rational_but_not_integer_feasible() {
        // 2x + 2y = 1: rationally feasible, no integer solution.
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let y = lia.new_int_var();
        let le = atom(&mut lia, &[(x, 2), (y, 2)], 1);
        let ge = atom(&mut lia, &[(x, -2), (y, -2)], -1);
        let lo = atom(&mut lia, &[(x, -1)], 0);
        let hi = atom(&mut lia, &[(x, 1)], 3);
        let r = run(&mut lia, &[(le, true), (ge, true), (lo, true), (hi, true)]);
        let c = cited(r);
        assert!(c.contains(&le) && c.contains(&ge), "{c:?}");
    }

    #[test]
    fn single_variable_atoms_round_to_integer_bounds() {
        // 2x <= 1 and 2x >= 1 clash as x <= 0, x >= 1 without a row.
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let le = atom(&mut lia, &[(x, 2)], 1);
        let ge = atom(&mut lia, &[(x, -2)], -1);
        assert_eq!(lia.num_rows(), 0);
        assert_eq!(
            cited(run(&mut lia, &[(le, true), (ge, true)])),
            vec![le, ge]
        );
    }

    #[test]
    fn negated_atom_flips_to_strict_bound() {
        // ¬(x <= 3) means x >= 4.
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let a = atom(&mut lia, &[(x, 1)], 3);
        let b = atom(&mut lia, &[(x, 1)], 10);
        assert_eq!(
            run(&mut lia, &[(a, false), (b, true)]),
            TheoryResult::Consistent
        );
        assert!(lia.model()[0] >= 4 && lia.model()[0] <= 10);
    }

    #[test]
    fn conflict_explanation_is_small() {
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let y = lia.new_int_var();
        let z = lia.new_int_var();
        let a0 = atom(&mut lia, &[(x, 1), (y, 1)], 3); // x+y <= 3
        let a1 = atom(&mut lia, &[(x, -1)], -2); // x >= 2
        let a2 = atom(&mut lia, &[(y, -1)], -2); // y >= 2
        let a3 = atom(&mut lia, &[(z, 1)], 100); // irrelevant
        let c = cited(run(
            &mut lia,
            &[(a0, true), (a1, true), (a2, true), (a3, true)],
        ));
        assert!(!c.contains(&a3), "irrelevant atom in explanation: {c:?}");
        assert!(c.len() <= 3);
    }

    #[test]
    fn branch_and_bound_finds_nontrivial_point() {
        // 3x + 5y = 7 has no solution over x, y >= 0; expect a conflict.
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let y = lia.new_int_var();
        let le = atom(&mut lia, &[(x, 3), (y, 5)], 7);
        let ge = atom(&mut lia, &[(x, -3), (y, -5)], -7);
        let xpos = atom(&mut lia, &[(x, -1)], 0);
        let ypos = atom(&mut lia, &[(y, -1)], 0);
        // 3x + 5y = 11: x=2, y=1.
        let le2 = atom(&mut lia, &[(x, 3), (y, 5)], 11);
        let ge2 = atom(&mut lia, &[(x, -3), (y, -5)], -11);
        lia.push_level();
        let c = cited(run(
            &mut lia,
            &[(xpos, true), (ypos, true), (le, true), (ge, true)],
        ));
        assert!(c.contains(&le) && c.contains(&ge), "{c:?}");
        // The same solver, one level back, takes the relaxed equation.
        lia.backtrack_to(0);
        let r = run(
            &mut lia,
            &[(xpos, true), (ypos, true), (le2, true), (ge2, true)],
        );
        assert_eq!(r, TheoryResult::Consistent);
        let m = lia.model();
        assert_eq!(3 * m[0] + 5 * m[1], 11);
        assert!(m[0] >= 0 && m[1] >= 0);
    }

    #[test]
    fn node_budget_gives_unknown() {
        // A system needing branching with a zero node budget.
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let y = lia.new_int_var();
        let le = atom(&mut lia, &[(x, 2), (y, 2)], 5);
        let ge = atom(&mut lia, &[(x, -2), (y, -2)], -5);
        lia.set_max_bb_nodes(0);
        assert_eq!(
            run(&mut lia, &[(le, true), (ge, true)]),
            TheoryResult::Unknown
        );
    }

    #[test]
    fn levels_reuse_rows_and_undo_bounds() {
        let mut lia = LiaSolver::new();
        let x = lia.new_int_var();
        let y = lia.new_int_var();
        let a = atom(&mut lia, &[(x, 1), (y, 1)], 4);
        for pol in [true, false] {
            lia.push_level();
            assert_eq!(run(&mut lia, &[(a, pol)]), TheoryResult::Consistent);
            let sum = lia.model()[0] + lia.model()[1];
            assert_eq!(sum <= 4, pol, "x + y = {sum}");
            lia.backtrack_to(0);
        }
        assert_eq!(lia.num_rows(), 1);
    }
}
