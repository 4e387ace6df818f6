//! Public search statistics.
//!
//! The SAT core tallies its own work and the theory calls it makes;
//! [`crate::Solver::stats`] merges in the simplex's. The struct is
//! plain data so callers — the CEM engine, benches, the CLI's metrics
//! bridge — can diff snapshots taken before and after a `check` without
//! holding references into the solver.

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

impl SolverStats {
    pub const fn new() -> SolverStats {
        SolverStats {
            decisions: 0,
            propagations: 0,
            conflicts: 0,
            theory_conflicts: 0,
            restarts: 0,
            learned_clauses: 0,
            simplex_pivots: 0,
            tableau_rows: 0,
            theory_checks: 0,
            iterations: 0,
        }
    }

    /// Component-wise difference (`self` minus an earlier snapshot).
    /// Saturates at zero so a reset-free caller can never underflow.
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            theory_conflicts: self
                .theory_conflicts
                .saturating_sub(earlier.theory_conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learned_clauses: self.learned_clauses.saturating_sub(earlier.learned_clauses),
            simplex_pivots: self.simplex_pivots.saturating_sub(earlier.simplex_pivots),
            tableau_rows: self.tableau_rows.saturating_sub(earlier.tableau_rows),
            theory_checks: self.theory_checks.saturating_sub(earlier.theory_checks),
            iterations: self.iterations.saturating_sub(earlier.iterations),
        }
    }
}
