//! Hash-consed term representation with light normalization.
//!
//! Integer-sorted terms are kept in a canonical **linear form**
//! ([`LinExpr`]): a sorted coefficient list over *base terms* (integer
//! variables and `ite` nodes) plus a constant. All comparison atoms are
//! normalized to `expr ≤ 0`; `≥`, `<`, `>` and `=` are desugared at
//! construction, so the downstream pipeline only ever sees one atom shape.

use crate::hash::{fx_hash, FxMap};
use std::collections::hash_map::Entry;

/// Index of a term in its [`TermManager`].
pub type TermId = u32;

/// Sorts of the two-sorted QF_LIA language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    Bool,
    Int,
}

/// A linear integer expression: `Σ coeff·base + constant`.
///
/// Base terms are [`TermKind::IntVar`] or [`TermKind::Ite`] term ids, kept
/// sorted by id with no zero coefficients and no duplicates.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    pub terms: Vec<(TermId, i64)>,
    pub constant: i64,
}

impl LinExpr {
    pub fn constant(c: i64) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Canonical form of `Σ coeff·base + constant` given in any order and
    /// with repeats: sorted by base, equal bases summed, zeros dropped.
    pub fn from_terms(mut terms: Vec<(TermId, i64)>, constant: i64) -> LinExpr {
        terms.sort_unstable_by_key(|&(v, _)| v);
        terms.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        terms.retain(|&(_, c)| c != 0);
        LinExpr { terms, constant }
    }

    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// The node kinds of the term graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermKind {
    // --- Bool sort ---
    True,
    False,
    BoolVar(u32),
    Not(TermId),
    And(Vec<TermId>),
    Or(Vec<TermId>),
    /// Atom: `expr ≤ 0`.
    Le(LinExpr),
    // --- Int sort ---
    IntVar(u32),
    /// Canonical linear combination (non-trivial: not a bare var/const).
    Linear(LinExpr),
    /// Integer-valued if-then-else: `ite(cond, then, else)`.
    Ite(TermId, TermId, TermId),
}

/// Hash-consing term factory; every formula in a [`crate::Solver`] lives in
/// one of these.
pub struct TermManager {
    /// Each kind is stored here and nowhere else.
    kinds: Vec<TermKind>,
    /// `has_ite[t]`: an `Ite` node is reachable from term `t`.
    has_ite: Vec<bool>,
    /// Hash of a kind → its id, compared against `kinds[id]`; a kind whose
    /// hash is taken by another sits at the next free hash above it.
    dedup: FxMap<u64, TermId>,
    /// Indexed by variable number; anonymous variables have no name.
    var_names: Vec<Option<String>>,
    true_id: TermId,
    false_id: TermId,
}

impl Default for TermManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TermManager {
    pub fn new() -> TermManager {
        let mut tm = TermManager {
            kinds: Vec::new(),
            has_ite: Vec::new(),
            dedup: FxMap::default(),
            var_names: Vec::new(),
            true_id: 0,
            false_id: 0,
        };
        tm.true_id = tm.intern(TermKind::True);
        tm.false_id = tm.intern(TermKind::False);
        tm
    }

    fn intern(&mut self, kind: TermKind) -> TermId {
        let id = self.kinds.len() as TermId;
        let mut hash = fx_hash(&kind);
        loop {
            match self.dedup.entry(hash) {
                Entry::Occupied(e) if self.kinds[*e.get() as usize] == kind => return *e.get(),
                Entry::Occupied(_) => hash = hash.wrapping_add(1),
                Entry::Vacant(e) => {
                    e.insert(id);
                    break;
                }
            }
        }
        let has_ite = match &kind {
            TermKind::Ite(..) => true,
            TermKind::Not(x) => self.has_ite(*x),
            TermKind::And(xs) | TermKind::Or(xs) => xs.iter().any(|&x| self.has_ite(x)),
            TermKind::Le(e) | TermKind::Linear(e) => e.terms.iter().any(|&(b, _)| self.has_ite(b)),
            _ => false,
        };
        self.has_ite.push(has_ite);
        self.kinds.push(kind);
        id
    }

    pub fn kind(&self, t: TermId) -> &TermKind {
        &self.kinds[t as usize]
    }

    /// Does `t` contain an `ite` node (itself included)? Decided when the
    /// term was built.
    pub fn has_ite(&self, t: TermId) -> bool {
        self.has_ite[t as usize]
    }

    pub fn num_terms(&self) -> usize {
        self.kinds.len()
    }

    pub fn sort(&self, t: TermId) -> Sort {
        match self.kind(t) {
            TermKind::True
            | TermKind::False
            | TermKind::BoolVar(_)
            | TermKind::Not(_)
            | TermKind::And(_)
            | TermKind::Or(_)
            | TermKind::Le(_) => Sort::Bool,
            TermKind::IntVar(_) | TermKind::Linear(_) | TermKind::Ite(..) => Sort::Int,
        }
    }

    /// The name a variable was given; `None` for an anonymous one.
    pub fn var_name(&self, index: u32) -> Option<&str> {
        self.var_names[index as usize].as_deref()
    }

    // ---- leaves ----

    pub fn true_(&self) -> TermId {
        self.true_id
    }

    pub fn false_(&self) -> TermId {
        self.false_id
    }

    fn new_var(&mut self, name: Option<&str>, kind: fn(u32) -> TermKind) -> TermId {
        let idx = self.var_names.len() as u32;
        self.var_names.push(name.map(str::to_string));
        self.intern(kind(idx))
    }

    pub fn bool_var(&mut self, name: &str) -> TermId {
        self.new_var(Some(name), TermKind::BoolVar)
    }

    pub fn int_var(&mut self, name: &str) -> TermId {
        self.new_var(Some(name), TermKind::IntVar)
    }

    /// An anonymous bool variable ([`TermManager::display`] prints `b<n>`).
    pub fn fresh_bool(&mut self) -> TermId {
        self.new_var(None, TermKind::BoolVar)
    }

    /// An anonymous int variable ([`TermManager::display`] prints `i<n>`).
    pub fn fresh_int(&mut self) -> TermId {
        self.new_var(None, TermKind::IntVar)
    }

    pub fn int(&mut self, c: i64) -> TermId {
        self.intern(TermKind::Linear(LinExpr::constant(c)))
    }

    // ---- int structure ----

    /// `Σ k·t` over int-sorted terms, gathered and merged in one pass.
    fn linear_sum(&self, parts: impl IntoIterator<Item = (TermId, i64)>) -> LinExpr {
        let mut terms = Vec::new();
        let mut constant = 0;
        for (t, k) in parts {
            match self.kind(t) {
                TermKind::IntVar(_) | TermKind::Ite(..) => terms.push((t, k)),
                TermKind::Linear(l) => {
                    terms.extend(l.terms.iter().map(|&(v, c)| (v, c * k)));
                    constant += l.constant * k;
                }
                k => panic!("not an int term: {k:?}"),
            }
        }
        LinExpr::from_terms(terms, constant)
    }

    fn intern_linear(&mut self, l: LinExpr) -> TermId {
        // A bare base term stays itself (preserves sharing).
        if l.constant == 0 && l.terms.len() == 1 && l.terms[0].1 == 1 {
            return l.terms[0].0;
        }
        self.intern(TermKind::Linear(l))
    }

    pub fn add(&mut self, ts: &[TermId]) -> TermId {
        let l = self.linear_sum(ts.iter().map(|&t| (t, 1)));
        self.intern_linear(l)
    }

    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let l = self.linear_sum([(a, 1), (b, -1)]);
        self.intern_linear(l)
    }

    pub fn mul_const(&mut self, k: i64, t: TermId) -> TermId {
        let l = self.linear_sum([(t, k)]);
        self.intern_linear(l)
    }

    pub fn neg(&mut self, t: TermId) -> TermId {
        self.mul_const(-1, t)
    }

    /// Integer-valued `ite`; folds constant conditions.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        debug_assert_eq!(self.sort(cond), Sort::Bool);
        debug_assert_eq!(self.sort(then), Sort::Int);
        debug_assert_eq!(self.sort(els), Sort::Int);
        if cond == self.true_id {
            return then;
        }
        if cond == self.false_id {
            return els;
        }
        if then == els {
            return then;
        }
        self.intern(TermKind::Ite(cond, then, els))
    }

    // ---- atoms ----

    /// `a ≤ b`, normalized to `a − b ≤ 0`.
    pub fn le(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.linear_sum([(a, 1), (b, -1)]);
        self.le_zero(e)
    }

    /// `expr ≤ 0` with constant folding and coefficient gcd tightening.
    pub fn le_zero(&mut self, mut expr: LinExpr) -> TermId {
        if expr.is_constant() {
            return if expr.constant <= 0 {
                self.true_id
            } else {
                self.false_id
            };
        }
        // Integer tightening: (Σ g·aᵢxᵢ) + c ≤ 0  ⇔  Σ aᵢxᵢ ≤ floor(−c/g).
        let g = expr
            .terms
            .iter()
            .fold(0i64, |acc, &(_, c)| gcd64(acc, c.abs()));
        if g > 1 {
            let bound = (-(expr.constant as i128)).div_euclid(g as i128) as i64;
            for t in &mut expr.terms {
                t.1 /= g;
            }
            expr.constant = -bound;
        }
        self.intern(TermKind::Le(expr))
    }

    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a < b` over the integers: `a + 1 ≤ b`.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        let mut e = self.linear_sum([(a, 1), (b, -1)]);
        e.constant += 1;
        self.le_zero(e)
    }

    pub fn gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.lt(b, a)
    }

    /// Integer equality, desugared to a conjunction of two inequalities so
    /// that its *negation* stays within the atom language.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        let le = self.le(a, b);
        let ge = self.ge(a, b);
        self.and(&[le, ge])
    }

    // ---- boolean structure ----

    pub fn not(&mut self, t: TermId) -> TermId {
        match self.kind(t) {
            TermKind::True => self.false_id,
            TermKind::False => self.true_id,
            TermKind::Not(inner) => *inner,
            _ => self.intern(TermKind::Not(t)),
        }
    }

    pub fn and(&mut self, ts: &[TermId]) -> TermId {
        let mut flat = Vec::new();
        for &t in ts {
            match self.kind(t) {
                TermKind::True => {}
                TermKind::False => return self.false_id,
                TermKind::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // x ∧ ¬x = false
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.false_id;
                }
            }
        }
        match flat.len() {
            0 => self.true_id,
            1 => flat[0],
            _ => self.intern(TermKind::And(flat)),
        }
    }

    pub fn or(&mut self, ts: &[TermId]) -> TermId {
        let mut flat = Vec::new();
        for &t in ts {
            match self.kind(t) {
                TermKind::False => {}
                TermKind::True => return self.true_id,
                TermKind::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.true_id;
                }
            }
        }
        match flat.len() {
            0 => self.false_id,
            1 => flat[0],
            _ => self.intern(TermKind::Or(flat)),
        }
    }

    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(&[na, b])
    }

    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        let ab = self.implies(a, b);
        let ba = self.implies(b, a);
        self.and(&[ab, ba])
    }

    /// Display a term for diagnostics.
    pub fn display(&self, t: TermId) -> String {
        match self.kind(t) {
            TermKind::True => "true".into(),
            TermKind::False => "false".into(),
            TermKind::BoolVar(i) => self
                .var_name(*i)
                .map_or_else(|| format!("b{i}"), str::to_string),
            TermKind::IntVar(i) => self
                .var_name(*i)
                .map_or_else(|| format!("i{i}"), str::to_string),
            TermKind::Not(x) => format!("(not {})", self.display(*x)),
            TermKind::And(xs) => {
                format!(
                    "(and {})",
                    xs.iter()
                        .map(|&x| self.display(x))
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            }
            TermKind::Or(xs) => {
                format!(
                    "(or {})",
                    xs.iter()
                        .map(|&x| self.display(x))
                        .collect::<Vec<_>>()
                        .join(" ")
                )
            }
            TermKind::Le(e) => format!("({} <= 0)", self.display_linexpr(e)),
            TermKind::Linear(e) => self.display_linexpr(e),
            TermKind::Ite(c, a, b) => format!(
                "(ite {} {} {})",
                self.display(*c),
                self.display(*a),
                self.display(*b)
            ),
        }
    }

    fn display_linexpr(&self, e: &LinExpr) -> String {
        let mut parts: Vec<String> = e
            .terms
            .iter()
            .map(|&(v, c)| {
                if c == 1 {
                    self.display(v)
                } else {
                    format!("{}*{}", c, self.display(v))
                }
            })
            .collect();
        if e.constant != 0 || parts.is_empty() {
            parts.push(e.constant.to_string());
        }
        parts.join(" + ")
    }
}

fn gcd64(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let a = tm.add(&[x, y]);
        let b = tm.add(&[y, x]);
        assert_eq!(a, b, "commutative sums must intern to one node");
    }

    #[test]
    fn a_taken_hash_sends_the_kind_to_the_next_free_one() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        // Occupy the slot the atom `x ≤ 0` hashes to with another term.
        let atom = TermKind::Le(LinExpr::from_terms(vec![(x, 1)], 0));
        tm.dedup.insert(fx_hash(&atom), x);
        let zero = tm.int(0);
        let a = tm.le(x, zero);
        assert_ne!(a, x, "a colliding hash is not an equal kind");
        assert_eq!(tm.kind(a), &atom);
        assert_eq!(tm.le(x, zero), a, "found again behind the collision");
        assert_eq!(tm.dedup[&fx_hash(&atom).wrapping_add(1)], a);
    }

    #[test]
    fn linear_normalization() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        // x + y - x = y (bare var, not a Linear node)
        let s = tm.add(&[x, y]);
        let d = tm.sub(s, x);
        assert_eq!(d, y);
        // 2x - 2x = 0
        let two_x = tm.mul_const(2, x);
        let z = tm.sub(two_x, two_x);
        assert_eq!(z, tm.int(0));
    }

    #[test]
    fn atom_constant_folding() {
        let mut tm = TermManager::new();
        let three = tm.int(3);
        let five = tm.int(5);
        assert_eq!(tm.le(three, five), tm.true_());
        assert_eq!(tm.le(five, three), tm.false_());
        assert_eq!(tm.lt(three, three), tm.false_());
        let e = tm.eq(five, five);
        assert_eq!(e, tm.true_());
    }

    #[test]
    fn gcd_tightening_of_atoms() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        // 2x ≤ 5 tightens to x ≤ 2, identical node to x ≤ 2.
        let two_x = tm.mul_const(2, x);
        let five = tm.int(5);
        let a = tm.le(two_x, five);
        let two = tm.int(2);
        let b = tm.le(x, two);
        assert_eq!(a, b);
    }

    #[test]
    fn boolean_simplifications() {
        let mut tm = TermManager::new();
        let p = tm.bool_var("p");
        let q = tm.bool_var("q");
        let np = tm.not(p);
        assert_eq!(tm.not(np), p, "double negation");
        assert_eq!(tm.and(&[p, np]), tm.false_());
        assert_eq!(tm.or(&[p, np]), tm.true_());
        let t = tm.true_();
        assert_eq!(tm.and(&[p, t]), p);
        assert_eq!(tm.or(&[q, t]), t);
        assert_eq!(tm.and(&[]), tm.true_());
        assert_eq!(tm.or(&[]), tm.false_());
        // Nested conjunction flattens and dedups.
        let pq = tm.and(&[p, q]);
        assert_eq!(tm.and(&[pq, p]), pq);
    }

    #[test]
    fn ite_folds_trivial_cases() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let t = tm.true_();
        let f = tm.false_();
        assert_eq!(tm.ite(t, x, y), x);
        assert_eq!(tm.ite(f, x, y), y);
        let p = tm.bool_var("p");
        assert_eq!(tm.ite(p, x, x), x);
        let i = tm.ite(p, x, y);
        assert_eq!(tm.sort(i), Sort::Int);
    }

    #[test]
    fn eq_desugars_to_conjunction() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let c = tm.int(4);
        let e = tm.eq(x, c);
        match tm.kind(e) {
            TermKind::And(parts) => assert_eq!(parts.len(), 2),
            k => panic!("expected And, got {k:?}"),
        }
    }

    #[test]
    fn sums_merge_repeats_and_cancellations_in_one_pass() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let three = tm.int(3);
        let two_y = tm.mul_const(2, y);
        let x_minus_y = tm.sub(x, y);
        // y + 3 + x + 2y + (x − y) + x = 3x + 2y + 3, whatever the order.
        let s = tm.add(&[y, three, x, two_y, x_minus_y, x]);
        let TermKind::Linear(l) = tm.kind(s) else {
            panic!("expected a Linear node");
        };
        assert_eq!((l.terms.as_slice(), l.constant), (&[(x, 3), (y, 2)][..], 3));
        // x + y − x − y = 0, the same node as the literal 0.
        let neg_x = tm.neg(x);
        let neg_y = tm.neg(y);
        assert_eq!(tm.add(&[x, y, neg_x, neg_y]), tm.int(0));
    }

    #[test]
    fn ite_bit_is_set_at_intern_time() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let p = tm.bool_var("p");
        let (zero, one) = (tm.int(0), tm.int(1));
        let plain = tm.le(x, one);
        let i = tm.ite(p, one, zero);
        let sum = tm.add(&[x, i]);
        let atom = tm.le(sum, one);
        let neg = tm.not(atom);
        let both = tm.and(&[plain, neg]);
        let either = tm.or(&[plain, p]);
        for (t, want) in [
            (x, false),
            (plain, false),
            (either, false),
            (i, true),
            (sum, true),
            (atom, true),
            (neg, true),
            (both, true),
        ] {
            assert_eq!(tm.has_ite(t), want, "{}", tm.display(t));
        }
    }

    #[test]
    fn anonymous_variables_print_their_number() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let i = tm.fresh_int();
        let b = tm.fresh_bool();
        assert_ne!(i, tm.fresh_int(), "every fresh variable is a new term");
        assert_eq!(
            [tm.display(x), tm.display(i), tm.display(b)],
            ["x", "i1", "b2"]
        );
        assert_eq!((tm.var_name(0), tm.var_name(1)), (Some("x"), None));
    }

    #[test]
    fn display_roundtrips_basic_shapes() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let c = tm.int(4);
        let le = tm.le(x, c);
        assert_eq!(tm.display(le), "(x + -4 <= 0)");
    }
}
