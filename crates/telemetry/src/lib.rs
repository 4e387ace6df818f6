//! # fmml-telemetry — coarse-grained monitoring tools and datasets
//!
//! Software re-implementations of the three telemetry sources the paper's
//! operator has access to (§2.1), applied to the simulator's fine-grained
//! ground truth:
//!
//! * `sampler` — **periodic sampling**: the instantaneous queue length at
//!   the end of every monitoring interval;
//! * `lanz` — **LANZ**: the per-queue *maximum* length within each
//!   interval (without the time at which it occurred);
//! * `snmp` — **SNMP**: per-port counts of packets received, sent, and
//!   dropped in each interval.
//!
//! `window` slices a trace into fixed-length per-port windows (the
//! 300 ms / 6-interval examples of the paper's Fig. 3) that carry both the
//! fine ground truth (training target) and the coarse measurements (model
//! input + constraint right-hand sides).

//! [`sanitize`] is the intake valve for *damaged* telemetry: it
//! classifies and repairs measurement artifacts (missing values, counter
//! wraps, skewed samples, …) before windows reach the imputer and CEM.

mod lanz;
mod sampler;
pub mod sanitize;
mod series;
mod snmp;
mod window;

pub use sanitize::{sanitize_series, sanitize_window, SanitizeConfig, SanitizeReport};
pub use series::CoarseTelemetry;
pub use window::{windows_from_trace, PortWindow};

/// The paper's coarse:fine granularity ratio (50 ms : 1 ms).
pub const DEFAULT_INTERVAL_LEN: usize = 50;

/// The paper's window length in fine bins (300 ms, Fig. 3).
pub const DEFAULT_WINDOW_LEN: usize = 300;
