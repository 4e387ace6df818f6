//! # fmml-core — knowledge-augmented telemetry imputation
//!
//! The paper's contribution, end to end (Fig. 3): coarse-grained switch
//! telemetry goes into a transformer trained with a
//! **Knowledge-Augmented Loss** ([`kal`], §3.1); at inference the
//! **Constraint Enforcement Module** ([`fmml_fm::cem`], §3.2) minimally
//! corrects the output until it satisfies the formal constraints C1–C3.
//!
//! * [`imputer`] — the common interface all four methods implement;
//! * `iterative` — the scikit-learn-style `IterativeImputer` baseline
//!   (round-robin ridge regression over correlated series);
//! * [`transformer_imputer`] — feature encoding + the transformer model;
//! * [`kal`] — the augmented-Lagrangian constraint terms added to the
//!   EMD loss;
//! * [`train`] — the (optionally `rayon`-parallel) training loop;
//! * `bursts` — burst identification on queue-length series (following
//!   the buffer-sizing workshop method the paper cites);
//! * `metrics` — the nine rows of Table 1;
//! * [`eval`] — the harness that regenerates Table 1 end to end;
//! * `linalg` — the small dense Cholesky solver the baseline needs.

mod bursts;
pub mod eval;
pub mod imputer;
mod iterative;
pub mod kal;
mod linalg;
mod metrics;
pub mod streaming;
pub mod train;
pub mod transformer_imputer;

pub use eval::{EvalReport, Method};
pub use imputer::Imputer;
pub use iterative::IterativeImputer;
pub use transformer_imputer::TransformerImputer;
