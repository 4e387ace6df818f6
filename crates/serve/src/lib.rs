//! # fmml-serve — multi-tenant streaming imputation server
//!
//! The deployment layer for the paper's §5 real-time target: many
//! operator collectors stream coarse telemetry intervals over TCP; the
//! server imputes each port's fine-grained series through the
//! Transformer+KAL model and the CEM degradation ladder, and answers
//! inside the 50 ms wire period.
//!
//! All std-only (no async runtime — the vendored-deps constraint is a
//! feature here: the whole serving stack is plain threads and sockets):
//!
//! * [`protocol`] — length-prefixed frames ([`Frame`]) in two codecs
//!   negotiated per session ([`WireCodec`]: JSON and `bin1`), hardened
//!   against hostile length prefixes and garbage payloads
//!   ([`WireError`], [`MAX_FRAME_LEN`]).
//! * [`session`] — the exactly-once session protocol with no I/O in it:
//!   the `Hello` opening, [`Identity`], the [`Ledger`] of committed
//!   replies (record before send, dedup, resume), and the client half
//!   ([`ClientSession`]: pending bytes, resume, reply dedup). The server
//!   below and the `fmml-cluster` router drive the server half; the load
//!   generator and `fmml-simtest` drive the client half.
//! * [`transport`] — the [`Conn`] / [`Transport`] / [`Connector`] seam
//!   the server is generic over: TCP in production, [`sim`]'s seeded
//!   in-memory network ([`SimNet`]) under `fmml-simtest`.
//! * [`server`] — acceptor + reader-per-session + shared CEM worker
//!   pool with micro-batching
//!   ([`ServerConfig`], [`spawn`], [`ServerHandle`]). Sessions shard
//!   per-tenant sliding windows ([`fmml_core::streaming`]); each reader
//!   hands the pool what one burst admitted in one go, and workers
//!   enforce what is queued across tenants in single
//!   `enforce_degraded_batch` calls over one shared solution cache,
//!   writing each session's run of replies once.
//!   Admission control bounds each session's in-flight budget (`Busy`),
//!   slow readers are disconnected, shutdown drains gracefully.
//! * `loadgen` — trace-replay load generator
//!   ([`LoadgenConfig`], [`run_loadgen`], [`LoadReport`]): M concurrent
//!   clients replaying `netsim` telemetry with optional chaos
//!   ([`ChaosConfig`]: disconnects, corrupted frames, malformed
//!   updates, reordering), measuring end-to-end latency percentiles and
//!   deadline-miss rate against the wire period.
//!
//! Everything is instrumented through `fmml-obs` (`serve.*` metrics);
//! `benchmark/` drives a loopback server at and below saturation and
//! reports those metrics as its `serve.*` layer budget.

mod loadgen;
pub mod protocol;
pub mod server;
pub mod session;
pub mod sim;
pub mod transport;

pub use loadgen::{run as run_loadgen, ChaosConfig, LoadReport, LoadgenConfig};
pub use protocol::{Frame, WireCodec, WireError, MAX_FRAME_LEN};
pub use server::{spawn, spawn_with, ServerConfig, ServerHandle};
pub use session::{ClientSession, Identity, Ledger, ProtocolBug, Welcomed};
pub use sim::{FaultCounts, FaultProfile, SimConn, SimConnector, SimNet, SimTransport};
pub use transport::{Accepted, Conn, Connector, TcpConnector, TcpTransport, Transport};
