//! `fmml-cluster` — sharded multi-node serving for the imputation
//! server.
//!
//! A `router` speaks the existing length-prefixed wire
//! protocol on both sides: clients connect to it exactly as they would
//! to a single `fmml-serve` node, and it fans sessions out across N
//! independent backend nodes by consistent hashing
//! ([`ring::HashRing`]) on the router-minted resume token. A prober
//! watches backend health (a `Stats` probe answers or it does not);
//! when a backend dies, drains, or leaves, its sessions
//! migrate to another shard with a warm-up replay that preserves
//! exactly-once reply semantics end to end. Everything is generic over
//! [`Transport`](fmml_serve::Transport) /
//! [`Connector`](fmml_serve::Connector) with an injected clock, so the
//! whole cluster also runs deterministically in-memory under the
//! simulation harness.

mod ring;
mod router;

pub use ring::HashRing;
pub use router::{spawn, spawn_with, BackendInfo, RouterConfig, RouterHandle};
