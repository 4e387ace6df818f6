//! # fmml-fault — deterministic fault injection for the pipeline
//!
//! The paper's pitch is that formal constraints make ML-imputed telemetry
//! *trustworthy* — which only matters if the pipeline survives untrusted
//! inputs. This crate produces the untrusted inputs: seedable, replayable
//! corruption of coarse telemetry, fine-grained trace exports, and
//! imputed series, modelled on real hardware-telemetry artifacts
//! (RouteNet-Gauss's motivation): missing measurements, duplicated and
//! out-of-order samples, counter wraps and resets, clock skew between
//! the sampler and LANZ, and NaN/Inf spikes out of a misbehaving model.
//!
//! Everything is driven by a [`FaultPlan`]: a serializable description of
//! per-artifact rates plus a seed. The same plan + seed + salt always
//! injects the same faults, so chaos runs are exactly reproducible (the
//! CI chaos smoke job depends on this).
//!
//! Downstream, [`fmml_telemetry::sanitize`] classifies and repairs what
//! it can, and the CEM degradation ladder (`fmml-fm`) absorbs what it
//! cannot. Every injection is counted in the [`fmml_obs`] registry under
//! `fault.injected.*`.

mod inject;
mod plan;

pub use inject::{
    inject_series, inject_telemetry, inject_trace, inject_window, record_process_fault,
};
pub use plan::{FaultEvent, FaultKind, FaultPlan, ProcessFaultPlan};
