//! # fmml-fm — formal models of the switch and the Constraint Enforcement Module
//!
//! The formal-methods side of the paper, built on [`fmml_smt`]:
//!
//! * [`constraints`] — the three reduced constraints of §3 (C1 max
//!   consistency, C2 periodic-sample consistency, C3 work-conserving
//!   send-count bound), with exact checkers and the normalized violation
//!   metrics of Table 1 rows a–c.
//! * [`packet_model`] — the *full* packet-level switch model of §2.3:
//!   per-time-step operational constraints (queue evolution, shared-buffer
//!   dynamic threshold, work-conserving/priority scheduling) plus
//!   measurement constraints, solved with the SMT solver. Deliberately
//!   faithful — and deliberately exposed to the scalability wall the paper
//!   reports (`examples/fm_scalability.rs` regenerates the §2.3 blow-up).
//! * [`cem`] — the Constraint Enforcement Module (§3.2): given a
//!   transformer-imputed window, find the *minimally changed* integer
//!   series satisfying C1 ∧ C2 ∧ C3. Two interchangeable engines:
//!   [`cem::smt_engine`] (the paper's Z3-style optimizing encoding) and
//!   [`cem::fast_engine`] (an exact per-interval combinatorial projection,
//!   ~10³× faster). Property tests assert both reach the same optimum.

pub mod cem;
pub mod constraints;
pub mod packet_model;

pub use cem::{CemEngine, CemOutcome};
pub use constraints::WindowConstraints;
