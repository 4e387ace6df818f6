//! # fmml-simtest — deterministic simulation testing for `fmml-serve`
//!
//! FoundationDB-style simulation testing for the session protocol: the
//! whole server (acceptor, readers, worker pool, watchdog)
//! runs unmodified over the seeded in-memory transport
//! ([`fmml_serve::sim`]) and the injected virtual clock
//! ([`fmml_obs::VirtualClock`]), while a single-threaded driver executes
//! a seed-derived schedule of client operations (bursts, reconnects,
//! hard kills, parked-TTL expiries) interleaved with seeded transport
//! faults and worker panics. Every reply is checked against a **pure
//! reference state machine** of the wire protocol (`checker`): warm-up
//! arithmetic, exactly-once delivery, replay completeness after
//! resumption, expiry semantics, and end-of-run completeness.
//!
//! Two properties make a failing seed actionable:
//!
//! * **Reproducibility** — every nondeterministic choice flows from the
//!   seed: fault fates are content-keyed (invariant under benign thread
//!   races), connection ids are allocated in schedule order, and time is
//!   virtual. Re-running a printed `FMML_SIM_SEED` replays the same
//!   violations and the same reply fingerprint bitwise.
//! * **Self-validation** — [`explorer::SimtestConfig::inject_bug`]
//!   activates a deliberately wrong server behaviour
//!   ([`fmml_serve::ProtocolBug`]); the harness must catch it, proving
//!   the checker is live (a checker that never fires proves nothing).
//!
//! Entry points: [`sweep::single`] and [`sweep::cluster`] (a seed range,
//! folded into one fingerprint), [`sweep::Sweep::check_pin`] (that
//! fingerprint against a pin file), and [`explorer::run_seed`] /
//! `cluster::run_seed` (one seed). `fmml simtest` prints them;
//! `tests/pins.rs` asserts both pins.

mod checker;
mod cluster;
mod explorer;
pub mod sweep;

pub use checker::{ClientModel, ReplyKind, ResumeExpect};
pub use cluster::ClusterSimConfig;
pub use explorer::{run, run_seed, SeedOutcome, SimtestConfig};
pub use sweep::{Pin, Sweep};
