//! The frozen workload catalog. Every constant here is part of the
//! benchmark's definition: offered rates, port counts, data-set sizes and
//! epochs are never derived from a run's own measurements, so two commits
//! always face the same work.

use fmml_netsim::SimConfig;
use std::time::Duration;

/// The paper's coarse period: one `Interval` per port per tick, and the
/// deadline every open-loop reply is judged against.
pub const TICK: Duration = Duration::from_millis(50);
/// Connections (switches) and generator threads; the box has 2 cores.
pub const CONNECTIONS: usize = 2;
/// Rounds of (open-loop, closed-loop) on the serving workloads, and of
/// (sequential, `jobs = nproc`) on the offline one. `--seconds` is split
/// into two equal phases per round, so it scales round length, not round
/// count; a run's value of a metric is the median over its rounds.
pub const SERVE_ROUNDS: usize = 5;
pub const OFFLINE_ROUNDS: usize = 4;
/// Closed-loop warm-up before the first round, discarded.
pub const WARM_UP: Duration = Duration::from_secs(2);
/// Every n-th reply is re-derived with `StreamingImputer::try_push`.
pub const BITWISE_SAMPLE_EVERY: usize = 10;
/// Offered load of the generator's traffic model (websearch + incast).
pub const TRAFFIC_LOAD: f64 = 0.6;
/// Router placement seed. The router mints session tokens from it in
/// order and hashes them onto the ring of `b0`,`b1`; with this seed the
/// first three tokens land on `b0`,`b1`,`b0`, so two sessions opened one
/// after the other are placed 1/1 whether or not the set-up's session
/// came first (asserted before every measurement).
pub const RING_SEED: u64 = 0x5eed_0c16;
/// Outstanding intervals per connection in the wire workloads' closed
/// loop. The servers run at `ServerConfig::default()`'s per-session
/// in-flight cap of 64, and a reply's slot is released just after its
/// bytes are written: a client that keeps exactly 64 outstanding is
/// answered `Busy` a few times in 100 000 by that race alone, so the
/// closed loop stays four below the cap and a `Busy` means overload.
const WIRE_CLOSED_PORTS: usize = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Clients talk to one `fmml-serve` node (2 workers).
    Direct,
    /// Clients talk to an `fmml-cluster` router in front of two
    /// 1-worker nodes, all in this process.
    Cluster,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve(Route),
    OfflineSmt,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub sim: fn() -> SimConfig,
    /// Fine steps per coarse interval / intervals per sliding window.
    pub interval_len: usize,
    pub window_intervals: usize,
    /// Ports per connection in the open-loop phase (× 20 ticks/s ×
    /// [`CONNECTIONS`] = the fixed offered rate) and outstanding
    /// intervals per connection in the closed-loop phase.
    pub open_ports: usize,
    pub closed_ports: usize,
    /// Set-up sizing: simulated milliseconds of training traffic, the
    /// first `train_windows` active windows of it, trained for
    /// `train_epochs` KAL epochs.
    pub train_sim_ms: u64,
    pub train_windows: usize,
    pub train_epochs: usize,
    /// Intervals in each port's replay trace.
    pub trace_intervals: usize,
}

impl Workload {
    pub fn window_len(&self) -> usize {
        self.interval_len * self.window_intervals
    }

    pub fn ports_per_connection(&self) -> usize {
        self.open_ports.max(self.closed_ports)
    }

    /// The open-loop offered rate, ops/s.
    pub fn offered_per_s(&self) -> f64 {
        (CONNECTIONS * self.open_ports) as f64 / TICK.as_secs_f64()
    }
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-paper",
        // Why: paper geometry (300-step windows): the transformer forward is >85% of the op, so nn/core work must show here and serve work must not
        kind: Kind::Serve(Route::Direct),
        sim: SimConfig::paper_default,
        interval_len: 50,
        window_intervals: 6,
        // Three forwards queue on a connection's reader thread per tick:
        // the tick's median reply is the second, its 90th percentile the
        // third.
        open_ports: 3,
        closed_ports: 8,
        train_sim_ms: 4200,
        train_windows: 100,
        train_epochs: 2,
        trace_intervals: 512,
    },
    Workload {
        name: "serve-wire",
        // Why: smallest useful geometry (10-step windows): decode, admit, queue, micro-batch, encode and thread hops dominate; a forward-pass change predicts no movement
        kind: Kind::Serve(Route::Direct),
        sim: SimConfig::small,
        interval_len: 5,
        window_intervals: 2,
        open_ports: 64,
        closed_ports: WIRE_CLOSED_PORTS,
        train_sim_ms: 8000,
        train_windows: 2048,
        train_epochs: 8,
        trace_intervals: 512,
    },
    Workload {
        name: "cluster-wire",
        // Why: serve-wire's traffic through the router and two backends: isolates the second hop and catches a server-side gain the router path pays for
        kind: Kind::Serve(Route::Cluster),
        sim: SimConfig::small,
        interval_len: 5,
        window_intervals: 2,
        open_ports: 64,
        closed_ports: WIRE_CLOSED_PORTS,
        train_sim_ms: 8000,
        train_windows: 2048,
        train_epochs: 8,
        trace_intervals: 512,
    },
    Workload {
        name: "offline-smt",
        // Why: no sockets: a class-stratified set of interval problems through the SMT rung, cold and uncached; smt/fm do all the work and nn/serve none
        kind: Kind::OfflineSmt,
        sim: SimConfig::small,
        interval_len: 10,
        window_intervals: 6,
        open_ports: 4,
        closed_ports: 4,
        train_sim_ms: 9000,
        train_windows: 540,
        train_epochs: 8,
        trace_intervals: 512,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
