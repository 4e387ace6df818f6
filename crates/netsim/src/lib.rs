//! # fmml-netsim — packet-level switch simulator
//!
//! A discrete-event, packet-level simulator of an **output-queued,
//! shared-buffer datacenter switch**, standing in for the ns-3 scenario the
//! paper uses to generate ground-truth telemetry (the ABM scenario:
//! websearch + incast traffic through a switch with two priority queues per
//! port and a buffer shared across all queues under a Dynamic-Threshold
//! policy).
//!
//! The simulator produces the *fine-grained ground truth* that the rest of
//! the `fmml` stack samples, imputes, and evaluates against:
//!
//! * per-queue instantaneous length (in packets) at every 1 ms boundary,
//! * per-queue maximum length within every 1 ms bin,
//! * per-port packets received / sent / dropped within every 1 ms bin.
//!
//! ## Model
//!
//! * **Output-queued switch.** An arriving packet is immediately placed in
//!   the queue of its output port (no input contention / fabric model), the
//!   same abstraction as the paper's formal model (§2.3, Fig. 2).
//! * **Shared buffer.** All queues draw from one buffer of `B` packets,
//!   admitted under the Dynamic-Threshold policy of Choudhury & Hahne
//!   with `α = 1`, `thr = B − used` (`buffer::SharedBuffer`).
//! * **Scheduling.** Each output port serves its queues by work-conserving
//!   strict priority: class 0 first.
//! * **Traffic.** Open-loop generators: heavy-tailed *websearch* flows with
//!   Poisson arrivals and synchronized *incast* fan-in bursts (plus uniform
//!   and on/off helpers). Congestion control is intentionally not modeled —
//!   the imputation task only needs realistic bursty queue dynamics, not
//!   end-to-end protocol fidelity (see DESIGN.md, substitutions).
//!
//! ## Example
//!
//! ```
//! use fmml_netsim::{SimConfig, Simulation, traffic::TrafficConfig};
//!
//! let cfg = SimConfig::small(); // 4 ports, 2 queues each
//! let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.4);
//! let trace = Simulation::new(cfg, traffic, 7).run_ms(200);
//! assert_eq!(trace.num_bins(), 200);
//! let q0 = trace.queue_len_series(0);
//! assert_eq!(q0.len(), 200);
//! ```

mod buffer;
mod config;
mod events;
mod flow;
mod packet;
mod queue;
mod scheduler;
mod switch;
mod trace;
pub mod traffic;
mod units;

pub use config::SimConfig;
pub use switch::Simulation;
pub use trace::GroundTruth;
