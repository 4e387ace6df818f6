//! # fmml-smt — an SMT-lite solver for quantifier-free linear integer arithmetic
//!
//! A from-scratch stand-in for the fragment of Z3 that the paper uses: SMT
//! over **QF_LIA** (boolean combinations of linear integer constraints,
//! including `ite`) plus **optimization** of a linear objective (the
//! CEM's minimal-change correction, §3.2).
//!
//! Architecture (online CDCL(T)):
//!
//! ```text
//!   formula ──► [term]  hash-consed AST, light constant folding; each node
//!                       stored once (its list in an arena), its ite bit set then
//!           ──► [lower] ite elimination (ite-free terms pass untouched),
//!                       Eq desugaring, atom extraction
//!           ──► [cnf]   Tseitin conversion to clauses over atom literals
//!           ──► [sat]   CDCL: watched literals, VSIDS heap, 1-UIP learning;
//!                       owns the loop and drives a `Theory` along its trail
//!           ──► [lia]   the theory: an atom's bound lands when its literal
//!                       does (single-variable atoms bound the variable
//!                       itself, the rest a simplex slack row), one simplex
//!                       scope per decision level, feasibility checked at
//!                       every propagation fixpoint, branch & bound at a
//!                       full assignment; a Farkas explanation comes back
//!                       as a conflict clause and is analyzed like any other
//!           ──► [solver] one search per `check`; `minimize` tightens the
//!                       objective linearly (`obj ≤ best − 1`) and re-checks;
//!                       `minimize_from` takes a suggested assignment,
//!                       checks it against the assertions as written, starts
//!                       below it if it is a model, and in any case uses it
//!                       for decision polarities only
//! ```
//!
//! The simplex keeps every tableau row sorted by variable (a pivot is
//! one merge per row); the solver's maps share one multiplicative hasher
//! (`hash`). Tables start with room for 64 entries, and clauses and watch
//! lists are runs of shared arrays: a build allocates per table.
//!
//! The solver is deliberately budgeted: [`Solver::set_budget`] bounds
//! wall-clock time and conflicts (boolean and theory), and exhausting the budget yields
//! [`SatResult::Unknown`] — which is itself a *result* for the paper's
//! §2.3 scalability experiment (packet-level switch models blow up; the
//! solver must fail gracefully, not hang).
//!
//! ## Example
//!
//! ```
//! use fmml_smt::{Solver, SatResult};
//!
//! let mut s = Solver::new();
//! let x = s.int_var("x");
//! let y = s.int_var("y");
//! // x + y == 7, x <= 3, y <= 3 is unsatisfiable over the integers…
//! let sum = s.add(&[x, y]);
//! let seven = s.int(7);
//! let eq = s.eq(sum, seven);
//! s.assert(eq);
//! let three = s.int(3);
//! let c1 = s.le(x, three);
//! let c2 = s.le(y, three);
//! s.assert(c1);
//! s.assert(c2);
//! assert_eq!(s.check(), SatResult::Unsat);
//! ```

/// A solver's per-term, per-variable and per-clause tables start with
/// room for this many entries rather than growing from empty; a 10-step,
/// 2-queue CEM interval makes ~330 terms and ~180 SAT variables.
const ROOM: usize = 64;

fn room<T>() -> Vec<T> {
    Vec::with_capacity(ROOM)
}

mod cnf;
mod hash;
pub mod lia;
pub mod rational;
pub mod sat;
pub mod simplex;
pub mod solver;
mod stats;
mod term;

pub use sat::{Lit, SatSolver};
pub use solver::{Model, SatResult, Solver};
pub use stats::SolverStats;
pub use term::{Sort, TermId, TermKind, TermManager};
