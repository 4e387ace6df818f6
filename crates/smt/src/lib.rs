//! # fmml-smt — an SMT-lite solver for quantifier-free linear integer arithmetic
//!
//! A from-scratch stand-in for the fragment of Z3 that the paper uses: SMT
//! over **QF_LIA** (boolean combinations of linear integer constraints,
//! including `ite`) plus **optimization** of a linear objective (the
//! CEM's minimal-change correction, §3.2).
//!
//! Architecture (classic lazy SMT):
//!
//! ```text
//!   formula ──► [term]  hash-consed AST, light constant folding
//!           ──► [lower] ite elimination, Eq desugaring, atom extraction
//!           ──► [cnf]   Tseitin conversion to clauses over atom literals
//!           ──► [sat]   CDCL: watched literals, VSIDS, 1-UIP learning
//!           ──► [lia]   bounded-variable simplex + branch & bound,
//!                       Farkas-style conflict explanations fed back as
//!                       blocking clauses
//!           ──► [solver] the lazy refinement loop + binary-search minimize
//! ```
//!
//! The solver is deliberately budgeted: [`Solver::set_budget`] bounds both
//! wall-clock time and SAT conflicts, and exhausting the budget yields
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

pub mod cnf;
pub mod lia;
pub mod rational;
pub mod sat;
pub mod simplex;
pub mod solver;
pub mod stats;
pub mod term;

pub use sat::{Lit, SatSolver};
pub use solver::{Model, SatResult, Solver};
pub use stats::SolverStats;
pub use term::{Sort, TermId, TermKind, TermManager};
