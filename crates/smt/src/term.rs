//! Hash-consed term representation with light normalization.
//!
//! Integer-sorted terms are kept in a canonical **linear form**: a sorted
//! coefficient list over *base terms* (integer variables and `ite` nodes)
//! plus a constant. All comparison atoms are normalized to `expr ≤ 0`;
//! `≥`, `<`, `>` and `=` are desugared at construction, so the downstream
//! pipeline only ever sees one atom shape.
//!
//! A term's list (a linear form's coefficients, a junction's children)
//! lives in one of two arenas of its manager. A term is put together in
//! scratch space and copied into an arena only if it is new, so building a
//! term allocates nothing of its own.

use crate::hash::{fx_hash, FxMap};
use crate::{room, ROOM};

/// Index of a term in its [`TermManager`].
pub type TermId = u32;

/// Sorts of the two-sorted QF_LIA language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    Bool,
    Int,
}

/// Sort `terms` by base, sum equal bases and drop zeros.
fn normalize(terms: &mut Vec<(TermId, i64)>) {
    terms.sort_unstable_by_key(|&(v, _)| v);
    terms.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 += later.1;
        }
        same
    });
    terms.retain(|&(_, c)| c != 0);
}

/// The node kinds of the term graph. A linear form's `(base, coeff)` list
/// — bases are [`TermKind::IntVar`] or [`TermKind::Ite`] ids, sorted, with
/// no zero coefficient and no repeat — is read with [`TermManager::lin`],
/// a junction's children with [`TermManager::ids`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    // --- Bool sort ---
    True,
    False,
    BoolVar(u32),
    Not(TermId),
    And,
    Or,
    /// Atom: `Σ coeff·base + c ≤ 0`.
    Le(i64),
    // --- Int sort ---
    IntVar(u32),
    /// `Σ coeff·base + c`, neither a bare base nor a constant alone.
    Linear(i64),
    /// Integer-valued if-then-else: `ite(cond, then, else)`.
    Ite(TermId, TermId, TermId),
}

/// Hash-consing term factory; every formula in a [`crate::Solver`] lives in
/// one of these.
pub struct TermManager {
    /// Each kind is stored here and nowhere else.
    kinds: Vec<TermKind>,
    /// `lists[t]`: where term `t`'s list lies in its arena.
    lists: Vec<(u32, u32)>,
    /// `has_ite[t]`: an `Ite` node is reachable from term `t`.
    has_ite: Vec<bool>,
    /// The hash of a term's key ([`TermManager::key`]) → its id; a term
    /// whose hash is taken by another sits at the next free hash above it.
    /// Variables, unique by construction, are not in it.
    dedup: FxMap<u64, TermId>,
    /// The lists of the linear forms, and of the junctions.
    lin_arena: Vec<(TermId, i64)>,
    id_arena: Vec<TermId>,
    /// Indexed by variable number; anonymous variables have no name.
    var_names: Vec<Option<String>>,
    true_id: TermId,
    false_id: TermId,
    /// The list of the term being built: a linear form's, or a junction's.
    lin: Vec<(TermId, i64)>,
    ids: Vec<TermId>,
}

impl Default for TermManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TermManager {
    pub fn new() -> TermManager {
        let mut tm = TermManager {
            kinds: room(),
            lists: room(),
            has_ite: room(),
            dedup: FxMap::with_capacity_and_hasher(ROOM, Default::default()),
            lin_arena: room(),
            id_arena: room(),
            var_names: room(),
            true_id: 0,
            false_id: 0,
            lin: room(),
            ids: room(),
        };
        tm.true_id = tm.push(TermKind::True);
        tm.false_id = tm.push(TermKind::False);
        tm
    }

    /// What identifies a term: its kind and its list — that of term `t`,
    /// or the scratch's for the term being built (`None`).
    fn key(&self, kind: TermKind, t: Option<TermId>) -> (TermKind, &[(TermId, i64)], &[TermId]) {
        let (lin, ids): (&[_], &[_]) = match (kind, t) {
            (TermKind::Le(_) | TermKind::Linear(_), Some(t)) => (self.lin(t), &[]),
            (TermKind::And | TermKind::Or, Some(t)) => (&[], self.ids(t)),
            (TermKind::Le(_) | TermKind::Linear(_), None) => (&self.lin, &[]),
            (TermKind::And | TermKind::Or, None) => (&[], &self.ids),
            _ => (&[], &[]),
        };
        (kind, lin, ids)
    }

    /// The id of `kind`, whose list (if it has one) is in the scratch.
    fn intern(&mut self, kind: TermKind) -> TermId {
        let mut hash = fx_hash(&self.key(kind, None));
        while let Some(&other) = self.dedup.get(&hash) {
            if self.key(self.kinds[other as usize], Some(other)) == self.key(kind, None) {
                return other;
            }
            hash = hash.wrapping_add(1);
        }
        self.dedup.insert(hash, self.kinds.len() as TermId);
        self.push(kind)
    }

    /// Store `kind` as a new term, its list (if it has one) copied from the
    /// scratch to the end of its arena.
    fn push(&mut self, kind: TermKind) -> TermId {
        let (_, lin, ids) = self.key(kind, None);
        let has_ite = matches!(kind, TermKind::Ite(..))
            || matches!(kind, TermKind::Not(x) if self.has_ite(x))
            || (ids.iter().chain(lin.iter().map(|(b, _)| b))).any(|&x| self.has_ite(x));
        let (n_lin, n_ids) = (lin.len(), ids.len());
        let (from, len) = match kind {
            TermKind::Le(_) | TermKind::Linear(_) => (self.lin_arena.len(), n_lin),
            _ => (self.id_arena.len(), n_ids),
        };
        self.lin_arena.extend_from_slice(&self.lin[..n_lin]);
        self.id_arena.extend_from_slice(&self.ids[..n_ids]);
        self.lists.push((from as u32, (from + len) as u32));
        self.has_ite.push(has_ite);
        self.kinds.push(kind);
        (self.kinds.len() - 1) as TermId
    }

    pub fn kind(&self, t: TermId) -> &TermKind {
        &self.kinds[t as usize]
    }

    /// The `(base, coeff)` list of linear form (`Le` or `Linear`) `t`.
    pub fn lin(&self, t: TermId) -> &[(TermId, i64)] {
        let (from, to) = self.lists[t as usize];
        &self.lin_arena[from as usize..to as usize]
    }

    /// The children of junction (`And` or `Or`) `t`.
    pub fn ids(&self, t: TermId) -> &[TermId] {
        let (from, to) = self.lists[t as usize];
        &self.id_arena[from as usize..to as usize]
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
            | TermKind::And
            | TermKind::Or
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

    /// A new variable; its kind is unique, so it is stored without a
    /// lookup.
    fn new_var(&mut self, name: Option<&str>, kind: fn(u32) -> TermKind) -> TermId {
        let idx = self.var_names.len() as u32;
        self.var_names.push(name.map(str::to_string));
        self.push(kind(idx))
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
        self.lin.clear();
        self.intern_linear(c)
    }

    // ---- int structure ----

    /// `Σ k·t` over int-sorted terms, gathered and merged in one pass
    /// into the scratch; returns the constant.
    fn linear_sum(&mut self, parts: impl IntoIterator<Item = (TermId, i64)>) -> i64 {
        self.lin.clear();
        let mut constant = 0;
        for (t, k) in parts {
            match self.kinds[t as usize] {
                TermKind::IntVar(_) | TermKind::Ite(..) => self.lin.push((t, k)),
                TermKind::Linear(c) => {
                    let (from, to) = self.lists[t as usize];
                    let terms = &self.lin_arena[from as usize..to as usize];
                    self.lin.extend(terms.iter().map(|&(v, c)| (v, c * k)));
                    constant += c * k;
                }
                k => panic!("not an int term: {k:?}"),
            }
        }
        normalize(&mut self.lin);
        constant
    }

    /// The int term `scratch + constant`.
    fn intern_linear(&mut self, constant: i64) -> TermId {
        // A bare base term stays itself (preserves sharing).
        if let (&[(base, 1)], 0) = (&self.lin[..], constant) {
            return base;
        }
        self.intern(TermKind::Linear(constant))
    }

    pub fn add(&mut self, ts: &[TermId]) -> TermId {
        let c = self.linear_sum(ts.iter().map(|&t| (t, 1)));
        self.intern_linear(c)
    }

    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let c = self.linear_sum([(a, 1), (b, -1)]);
        self.intern_linear(c)
    }

    pub fn mul_const(&mut self, k: i64, t: TermId) -> TermId {
        let c = self.linear_sum([(t, k)]);
        self.intern_linear(c)
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
        let c = self.linear_sum([(a, 1), (b, -1)]);
        self.le_zero(c)
    }

    /// The atom `le` with every base `b` replaced by `map(b)`.
    pub(crate) fn le_mapped(&mut self, le: TermId, map: impl Fn(TermId) -> TermId) -> TermId {
        let TermKind::Le(constant) = self.kinds[le as usize] else {
            panic!("not an atom: {}", self.display(le));
        };
        self.lin.clear();
        let (from, to) = self.lists[le as usize];
        let terms = &self.lin_arena[from as usize..to as usize];
        self.lin.extend(terms.iter().map(|&(b, c)| (map(b), c)));
        normalize(&mut self.lin);
        self.le_zero(constant)
    }

    /// `scratch + constant ≤ 0` with constant folding and coefficient gcd
    /// tightening.
    fn le_zero(&mut self, mut constant: i64) -> TermId {
        if self.lin.is_empty() {
            return if constant <= 0 {
                self.true_id
            } else {
                self.false_id
            };
        }
        // Integer tightening: (Σ g·aᵢxᵢ) + c ≤ 0  ⇔  Σ aᵢxᵢ ≤ floor(−c/g).
        let g = self
            .lin
            .iter()
            .fold(0i64, |acc, &(_, c)| gcd64(acc, c.abs()));
        if g > 1 {
            let bound = (-(constant as i128)).div_euclid(g as i128) as i64;
            for t in &mut self.lin {
                t.1 /= g;
            }
            constant = -bound;
        }
        self.intern(TermKind::Le(constant))
    }

    pub fn ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.le(b, a)
    }

    /// `a < b` over the integers: `a + 1 ≤ b`.
    pub fn lt(&mut self, a: TermId, b: TermId) -> TermId {
        let c = self.linear_sum([(a, 1), (b, -1)]);
        self.le_zero(c + 1)
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
        self.junction(ts, true)
    }

    pub fn or(&mut self, ts: &[TermId]) -> TermId {
        self.junction(ts, false)
    }

    /// `⋀ ts` (`and`) or `⋁ ts`: nested junctions of the same kind
    /// flattened, children sorted and deduplicated, `x` beside `¬x` and
    /// the absorbing constant folded.
    fn junction(&mut self, ts: &[TermId], and: bool) -> TermId {
        let (unit, absorbing, kind) = if and {
            (self.true_id, self.false_id, TermKind::And)
        } else {
            (self.false_id, self.true_id, TermKind::Or)
        };
        self.ids.clear();
        for &t in ts {
            match self.kinds[t as usize] {
                _ if t == unit => {}
                _ if t == absorbing => return absorbing,
                TermKind::And | TermKind::Or if self.kinds[t as usize] == kind => {
                    let (from, to) = self.lists[t as usize];
                    self.ids
                        .extend_from_slice(&self.id_arena[from as usize..to as usize]);
                }
                _ => self.ids.push(t),
            }
        }
        self.ids.sort_unstable();
        self.ids.dedup();
        for &t in &self.ids {
            if let TermKind::Not(inner) = self.kinds[t as usize] {
                if self.ids.binary_search(&inner).is_ok() {
                    return absorbing;
                }
            }
        }
        match self.ids[..] {
            [] => unit,
            [t] => t,
            _ => self.intern(kind),
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
            TermKind::And | TermKind::Or => {
                let op = format!("{:?}", self.kind(t)).to_lowercase();
                let xs: Vec<String> = self.ids(t).iter().map(|&x| self.display(x)).collect();
                format!("({op} {})", xs.join(" "))
            }
            TermKind::Le(c) => format!("({} <= 0)", self.display_linexpr(t, *c)),
            TermKind::Linear(c) => self.display_linexpr(t, *c),
            TermKind::Ite(c, a, b) => format!(
                "(ite {} {} {})",
                self.display(*c),
                self.display(*a),
                self.display(*b)
            ),
        }
    }

    fn display_linexpr(&self, t: TermId, constant: i64) -> String {
        let mut parts: Vec<String> = self
            .lin(t)
            .iter()
            .map(|&(v, c)| {
                if c == 1 {
                    self.display(v)
                } else {
                    format!("{}*{}", c, self.display(v))
                }
            })
            .collect();
        if constant != 0 || parts.is_empty() {
            parts.push(constant.to_string());
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
        tm.lin = vec![(x, 1)];
        let hash = fx_hash(&tm.key(TermKind::Le(0), None));
        tm.dedup.insert(hash, x);
        let zero = tm.int(0);
        let a = tm.le(x, zero);
        assert_ne!(a, x, "a colliding hash is not an equal kind");
        assert_eq!((tm.kind(a), tm.lin(a)), (&TermKind::Le(0), &[(x, 1)][..]));
        assert_eq!(tm.le(x, zero), a, "found again behind the collision");
        assert_eq!(tm.dedup[&hash.wrapping_add(1)], a);
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
            TermKind::And => assert_eq!(tm.ids(e).len(), 2),
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
        assert_eq!(
            (tm.kind(s), tm.lin(s)),
            (&TermKind::Linear(3), &[(x, 3), (y, 2)][..])
        );
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
