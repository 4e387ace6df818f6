//! Public search statistics.
//!
//! The SAT core tallies its own work and the theory calls it makes;
//! [`crate::Solver::stats`] merges in the simplex's. The struct is
//! plain data so callers — the CEM engine, the packet model — can fold
//! a solver's work into the `smt.*` metrics without holding references
//! into the solver.

/// Cumulative counters of solver work since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions made by the SAT core.
    pub decisions: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Conflicts found by unit propagation (a falsified clause).
    pub conflicts: u64,
    /// Conflicts reported by the theory (an infeasible set of bounds).
    pub theory_conflicts: u64,
    /// Luby restarts taken.
    pub restarts: u64,
    /// Clauses learned from conflicts (including learned units).
    pub learned_clauses: u64,
    /// Simplex pivots in the LIA theory solver.
    pub simplex_pivots: u64,
    /// Tableau rows created (one per multi-variable atom).
    pub tableau_rows: u64,
    /// Theory feasibility checks at a propagation fixpoint.
    pub theory_checks: u64,
    /// Full-assignment theory checks (feasibility plus branch & bound) —
    /// what one iteration of the former lazy loop was.
    pub iterations: u64,
}
