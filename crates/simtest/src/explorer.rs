//! Seeded schedule explorer: drives client-op interleavings against a
//! real server over the simulated transport and checks every reply with
//! [`ClientModel`].
//!
//! ## Determinism model
//!
//! The driver is single-threaded; the server is fully concurrent. The
//! bridge between them is a set of invariants that make the *observable
//! outcome* (violations + reply fingerprint) a pure function of the
//! seed, even though thread interleavings differ run to run:
//!
//! * **Duplex deaths happen at schedule points.** Every connection
//!   death is a driver `Kill` op. Profile-injected disconnects are
//!   excluded entirely (see [`derive_profile`]): a disconnect fate is
//!   keyed on racy inputs (dial count, a resume `Hello`'s `last_acked`),
//!   so whether it fires — and with it which clients are alive at later
//!   schedule points, and which seqs ever get allocated — would differ
//!   run to run. Reply-loss recovery is still fully exercised: `Kill`
//!   ops race in-flight replies, and whatever was lost converges back
//!   via the resume replay.
//! * **Only delay faults in explorer profiles.** Drop, duplication and
//!   disconnect exist in [`fmml_serve::sim`] (unit-tested there) but
//!   are excluded here by design: the protocol rides a TCP-like stream
//!   that never drops or duplicates *within* a connection, so a dropped
//!   frame on a live connection is unobservable to a correct client (it
//!   would wait forever), a duplicated `Interval` races the reader's
//!   dedup check against worker commit, and disconnect fates flip on
//!   racy content (above). Loss is modelled the way TCP loses data: the
//!   undelivered suffix of a killed connection. A delay fate is equally
//!   race-keyed but only moves *when* a frame arrives, never what is
//!   observed.
//! * **Racy sets converge.** Which in-flight replies beat a kill is a
//!   real race, but every outcome funnels into the same end state: a
//!   reply lost with the connection is replayed on resume (bitwise,
//!   from the replay log), a reply that survived is deduplicated by the
//!   checker's Frame-equality rule. The final faultless drain settles
//!   every client, so the resolved map — and the fingerprint folded
//!   over it — is seed-deterministic.
//!
//! The fingerprint excludes timing fields (`latency_us`, `trace_id`)
//! and folds everything else: series bytes, degradation levels, warm-up
//! counts, reject reasons, plus the violation count.

use crate::checker::{ClientModel, ResumeExpect};
use fmml_core::streaming::IntervalUpdate;
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fault::ProcessFaultPlan;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::{fnv, Clock, VirtualClock};
use fmml_serve::protocol::{encode_frame_with, write_frame, FrameReader, WireCodec, MAX_FRAME_LEN};
use fmml_serve::session::splitmix64;
use fmml_serve::{
    spawn_with, ClientSession, Conn, Connector, FaultCounts, FaultProfile, Frame, Identity,
    ProtocolBug, ServerConfig, ServerHandle, SimConn, SimNet, Welcomed,
};
use fmml_telemetry::windows_from_trace;
use std::io::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const INTERVAL_LEN: usize = 10;
const WINDOW_INTERVALS: usize = 3;
/// Parked-session TTL in the explorer's server config: far beyond any
/// schedule's organic time advance, so sessions expire *only* when the
/// `Expire` op advances the clock past it on purpose.
const PARKED_TTL: Duration = Duration::from_secs(3600);
/// Consecutive progress-free pump iterations (each advancing virtual
/// time 1 ms) before a wait is declared stalled.
const STALL_LIMIT: usize = 600;
/// Real time a wait must also have gone without progress before it is
/// declared stalled. What the driver waits on runs on server threads,
/// and a thread the host does not schedule for a while looks exactly
/// like a stuck server to an iteration count alone: the verdict would
/// then depend on the machine's load, not on the seed. A correct run
/// never stalls, so the floor costs nothing there.
const STALL_REAL: Duration = Duration::from_secs(1);
/// Reconnect attempts before the harness gives up on a client (each
/// attempt dials a fresh connection with fresh fault fates).
const RESUME_ATTEMPTS: usize = 6;

/// Knobs for a simulation run (CLI: `fmml simtest`).
#[derive(Debug, Clone)]
pub struct SimtestConfig {
    /// How many consecutive seeds to explore.
    pub seeds: u64,
    /// First seed.
    pub start_seed: u64,
    /// Concurrent client sessions per seed.
    pub clients: usize,
    /// Schedule length (client ops per seed).
    pub ops: usize,
    /// Activate a deliberate server bug; the harness must catch it.
    pub inject_bug: Option<ProtocolBug>,
    /// Wire codec the driver's clients ask for. With [`WireCodec::Json`]
    /// the run is byte-identical to a pre-v2 client (no advertisement);
    /// with [`WireCodec::Bin1`] clients advertise and the server picks.
    /// Delay-only fault profiles never change observable reply content,
    /// so a seed's fingerprint is codec-independent — which the CI wire
    /// sweep asserts by running both.
    pub wire: WireCodec,
}

impl Default for SimtestConfig {
    fn default() -> SimtestConfig {
        SimtestConfig {
            seeds: 100,
            start_seed: 1,
            clients: 3,
            ops: 16,
            inject_bug: None,
            wire: WireCodec::Json,
        }
    }
}

/// Outcome of one explored seed, single-node or cluster.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    pub seed: u64,
    /// FNV fold over every client's resolved replies (semantic fields
    /// only) plus the violation count. Identical across runs of the
    /// same seed.
    pub fingerprint: u64,
    /// Protocol violations found by the reference model (empty on a
    /// correct server).
    pub violations: Vec<String>,
    /// Ground-truth injected-fault totals, for reports.
    pub faults: FaultCounts,
    /// Cluster mode: sessions re-placed onto another backend, and client
    /// reconnects resumed from the router's replay log (0 single-node).
    pub migrations: u64,
    pub resumes: u64,
}

/// Explore `cfg.seeds` consecutive seeds, sequentially.
pub fn run(cfg: &SimtestConfig) -> Vec<SeedOutcome> {
    (cfg.start_seed..cfg.start_seed + cfg.seeds)
        .map(|seed| run_seed(seed, cfg))
        .collect()
}

/// Shared fixture: one deterministic imputer and a pool of real
/// telemetry interval updates (same geometry as the loopback suite).
/// Built once — `windows_from_trace` over a seeded simulation is pure,
/// and the imputer is stateless at inference time.
pub(crate) struct Fixture {
    pub(crate) model: Arc<TransformerImputer>,
    pub(crate) updates: Vec<IntervalUpdate>,
    pub(crate) port: usize,
    pub(crate) queues: usize,
}

pub(crate) fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let cfg = SimConfig::small();
        let model = Arc::new(TransformerImputer::new(
            3,
            Scales {
                qlen: cfg.buffer_packets as f32,
                count: 830.0,
            },
        ));
        let gt = Simulation::new(
            cfg.clone(),
            TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
            19,
        )
        .run_ms(360);
        let ws: Vec<_> = windows_from_trace(
            &gt,
            INTERVAL_LEN * WINDOW_INTERVALS,
            INTERVAL_LEN,
            INTERVAL_LEN * WINDOW_INTERVALS,
        )
        .into_iter()
        .filter(|w| w.has_activity())
        .collect();
        let port = ws[0].port;
        let queues = ws[0].num_queues();
        let updates: Vec<IntervalUpdate> = ws
            .iter()
            .filter(|w| w.port == port)
            .flat_map(|w| (0..w.intervals()).map(move |k| IntervalUpdate::from_window(w, k)))
            .collect();
        assert!(!updates.is_empty(), "fixture produced no interval updates");
        Fixture {
            model,
            updates,
            port,
            queues,
        }
    })
}

/// Driver-side state of one simulated client: the session's client half
/// with its connection, and the oracle that checks it.
pub(crate) struct Client {
    session: ClientSession,
    model: ClientModel,
    tx: Option<SimConn>,
    rx: Option<FrameReader<SimConn>>,
    /// The connection is known dead (read error / EOF / failed write).
    dead: bool,
    /// A `Hello` is out and its `Welcome` has not arrived: what the
    /// token presented should resolve to.
    awaiting: Option<ResumeExpect>,
    /// The token's parked state was aged past the TTL by an `Expire`
    /// op: the next handshake must come back fresh.
    expired_token: bool,
    supply_idx: usize,
    byeack: Option<(u64, u64)>,
    bye_sent: bool,
}

impl Client {
    pub(crate) fn new(id: usize, wire: WireCodec) -> Client {
        let fx = fixture();
        let identity = Identity {
            tenant: format!("c{id}"),
            ports: vec![fx.port],
            queues: fx.queues,
            interval_len: INTERVAL_LEN,
            window_intervals: WINDOW_INTERVALS,
        };
        Client {
            session: ClientSession::new(identity, wire),
            model: ClientModel::new(id, WINDOW_INTERVALS),
            tx: None,
            rx: None,
            dead: false,
            awaiting: None,
            expired_token: false,
            supply_idx: 0,
            byeack: None,
            bye_sent: false,
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.tx.is_some() && !self.dead
    }

    /// Token that should still resolve to a parked session server-side.
    fn has_live_token(&self) -> bool {
        self.session.token().is_some() && !self.expired_token
    }

    /// Write `bytes` to the live connection; `false` (and dead) if that
    /// failed.
    fn write(&mut self, bytes: &[u8]) -> bool {
        let ok = self
            .tx
            .as_mut()
            .is_some_and(|tx| tx.write_all(bytes).is_ok());
        self.dead |= !ok;
        ok
    }

    fn dispatch(&mut self, f: Frame) {
        if let Some(seq) = f.reply_seq() {
            self.session.answer(seq);
            self.model.on_reply(&f);
            // Bound the checker's memory by the pending span.
            self.model.evict_acked();
            return;
        }
        match f {
            Frame::Welcome {
                resumed,
                resume_seq,
                ..
            } => {
                let Some(expect) = self.awaiting.take() else {
                    return self.model.violation("Welcome outside a handshake".into());
                };
                let resend = match self.session.welcome(&f) {
                    Some(Welcomed::Resumed { resend }) => resend,
                    _ => Vec::new(),
                };
                let resent: Vec<u64> = resend.iter().map(|(seq, _)| *seq).collect();
                self.model.on_welcome(expect, resumed, resume_seq, &resent);
                if self.session.token().is_none() {
                    self.model
                        .violation("Welcome carried no resume token".into());
                }
                self.expired_token = false;
                for (_, bytes) in resend {
                    if !self.write(&bytes) {
                        break;
                    }
                }
            }
            Frame::ByeAck {
                answered,
                remaining,
            } => self.byeack = Some((answered, remaining)),
            Frame::Error { code, message } => self
                .model
                .violation(format!("server Error [{code}]: {message}")),
            Frame::StatsReply { .. } | Frame::MetricsReply { .. } => {}
            other => self.model.violation(format!(
                "client received server-bound frame {}",
                other.tag()
            )),
        }
    }

    /// Send one `Interval` through the session; the oracle allocates the
    /// same seq independently (`bad`: a reply of `Reject` is owed).
    fn send(&mut self, update: IntervalUpdate, bad: bool) {
        let (seq, bytes) = self.session.send(update, None, ());
        let want = if bad {
            self.model.alloc_bad()
        } else {
            self.model.alloc_good()
        };
        if seq != want {
            self.model
                .violation(format!("session allocated seq {seq}, model {want}"));
        }
        self.write(&bytes);
    }

    fn drop_conn(&mut self) {
        if let Some(tx) = &self.tx {
            tx.shutdown_both();
        }
        self.tx = None;
        self.rx = None;
        self.dead = true;
    }
}

pub(crate) struct World {
    pub(crate) net: SimNet,
    /// `None` in the (real-clock) scripted bug scenario.
    pub(crate) vc: Option<Arc<VirtualClock>>,
    pub(crate) clients: Vec<Client>,
    pub(crate) violations: Vec<String>,
    /// Real time slept per idle pump iteration. Zero for the
    /// single-node explorer (everything it waits on runs on virtual
    /// time or its own threads); nonzero for the cluster explorer,
    /// whose router heals placements on *real*-time retry/probe
    /// budgets — idle iterations must let real time pass or a healthy
    /// migration gets declared a stall.
    pub(crate) real_idle: Duration,
    /// Consecutive progress-free pump iterations before a stall.
    pub(crate) stall_limit: usize,
}

impl World {
    /// Drain every readable frame from every live client. Returns
    /// whether anything arrived. Also the aliveness probe: a killed
    /// duplex surfaces as EOF here, so by the next schedule point the
    /// driver's view of which connections are alive is deterministic.
    pub(crate) fn pump_once(&mut self) -> bool {
        let mut progress = false;
        for c in &mut self.clients {
            if !c.is_alive() {
                continue;
            }
            while let Some(rx) = c.rx.as_mut() {
                let polled = rx.poll_frame();
                match polled {
                    Ok(Some(f)) => {
                        progress = true;
                        c.dispatch(f);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
        }
        progress
    }

    /// Pump until `pred` holds, advancing virtual time 1 ms per idle
    /// iteration (releasing delayed frames and firing batch waits).
    /// `false` = stalled: more than `stall_limit` consecutive iterations
    /// with nothing readable and the predicate still false, spanning at
    /// least [`STALL_REAL`] of real time. The floor also covers a resume
    /// that waits for the server to park the session it takes over, so a
    /// resume answered late is not mistaken for a dead connection.
    pub(crate) fn pump_until<F: Fn(&World) -> bool>(&mut self, pred: F) -> bool {
        let mut idle_since = Instant::now();
        let mut idle = 0usize;
        loop {
            if pred(self) {
                return true;
            }
            if self.pump_once() {
                idle = 0;
                idle_since = Instant::now();
                continue;
            }
            idle += 1;
            if idle > self.stall_limit && idle_since.elapsed() >= STALL_REAL {
                return false;
            }
            match &self.vc {
                Some(vc) => vc.advance(Duration::from_millis(1)),
                None => std::thread::sleep(Duration::from_micros(500)),
            }
            if !self.real_idle.is_zero() {
                std::thread::sleep(self.real_idle);
            }
        }
    }

    /// Pump until every live client has no pending obligations (a dead
    /// client's obligations wait for its resume).
    pub(crate) fn settle(&mut self) -> bool {
        self.pump_until(|w| {
            w.clients
                .iter()
                .all(|c| !c.is_alive() || c.session.pending() == 0)
        })
    }

    /// (Re)connect client `i`, with retries — each attempt is a fresh
    /// connection with fresh fault fates, so a Hello eaten by a
    /// mid-write disconnect just costs an attempt.
    pub(crate) fn handshake(&mut self, i: usize) -> bool {
        for _ in 0..RESUME_ATTEMPTS {
            if self.try_handshake(i) {
                return true;
            }
        }
        self.violations.push(format!(
            "client {i}: handshake failed after {RESUME_ATTEMPTS} attempts"
        ));
        false
    }

    fn try_handshake(&mut self, i: usize) -> bool {
        let conn = match self.net.connector().connect() {
            Ok(c) => c,
            Err(_) => return false,
        };
        // Fast poll granularity: the driver advances time itself.
        let _ = conn.set_read_timeout(Some(Duration::from_micros(100)));
        let read_half = match conn.try_clone() {
            Ok(c) => c,
            Err(_) => return false,
        };
        let c = &mut self.clients[i];
        let expect = match (c.session.token(), c.expired_token) {
            (Some(_), false) => ResumeExpect::Valid,
            (Some(_), true) => ResumeExpect::Expired,
            (None, _) => ResumeExpect::Fresh,
        };
        let hello = c.session.hello();
        c.model.on_hello(expect, &hello);
        let mut tx = conn;
        if write_frame(&mut tx, &hello).is_err() {
            return false;
        }
        c.tx = Some(tx);
        c.rx = Some(FrameReader::new(read_half));
        c.dead = false;
        c.awaiting = Some(expect);
        // The Welcome is handled — re-sends included — as it is read.
        self.pump_until(|w| w.clients[i].awaiting.is_none() || w.clients[i].dead);
        if self.clients[i].awaiting.take().is_some() {
            // Died or stalled mid-handshake. A resumed session was
            // re-parked server-side under the same token, so retrying
            // is safe.
            self.clients[i].drop_conn();
            return false;
        }
        true
    }

    /// Send `n` well-formed intervals on client `i`'s live connection.
    pub(crate) fn burst(&mut self, i: usize, n: usize) {
        let fx = fixture();
        let c = &mut self.clients[i];
        for _ in 0..n {
            if !c.is_alive() {
                break;
            }
            let update = fx.updates[c.supply_idx % fx.updates.len()].clone();
            c.supply_idx += 1;
            c.send(update, false);
        }
    }

    /// Send one interval for a port the session never announced: the
    /// protocol owes a typed `Reject` and must not advance the window.
    pub(crate) fn send_bad(&mut self, i: usize) {
        let fx = fixture();
        let c = &mut self.clients[i];
        if !c.is_alive() {
            return;
        }
        let mut update = fx.updates[c.supply_idx % fx.updates.len()].clone();
        c.supply_idx += 1;
        update.port = fx.port + 1000;
        c.send(update, true);
    }

    /// Hard-kill client `i`'s connection (both directions, undelivered
    /// data lost) — the crash the resume protocol exists for.
    pub(crate) fn kill(&mut self, i: usize) {
        self.clients[i].drop_conn();
    }

    pub(crate) fn advance_small(&mut self, aux: u64) {
        if let Some(vc) = &self.vc {
            vc.advance(Duration::from_millis(1 + aux % 20));
        }
        self.pump_once();
    }

    /// Age every parked session past the TTL. Only *clean* sessions may
    /// be parked when the clock jumps: expiry deletes the replay log,
    /// so expiring a session that is still owed replies would turn a
    /// harness choice into a fake protocol violation. Hence: resume
    /// every dead client first, settle, then park one clean target.
    fn expire(&mut self, handle: &ServerHandle<SimConn>, target: usize) {
        for i in 0..self.clients.len() {
            if !self.clients[i].is_alive() && self.clients[i].has_live_token() {
                let _ = self.handshake(i);
            }
        }
        self.settle();
        let has_parked = self
            .clients
            .iter()
            .any(|c| !c.is_alive() && c.has_live_token());
        if !has_parked {
            if !(self.clients[target].is_alive() && self.clients[target].has_live_token()) {
                return;
            }
            self.kill(target);
        }
        let expected: Vec<String> = self
            .clients
            .iter()
            .filter(|c| !c.is_alive() && c.has_live_token())
            .filter_map(|c| c.session.token().map(String::from))
            .collect();
        if expected.is_empty() {
            return;
        }
        // The park happens on the server's reader thread when it sees
        // the EOF — real time, so wait for it in real time (bounded).
        // Wait for the *specific* tokens: `parked_count` alone can be
        // satisfied by a stale entry from an earlier expiry, and jumping
        // the clock before the fresh park lands would leave that park
        // with a post-jump timestamp — an accidental resurrection.
        let deadline = Instant::now() + Duration::from_secs(2);
        while !expected.iter().all(|t| handle.parked_contains(t)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let Some(vc) = &self.vc else { return };
        vc.advance(PARKED_TTL + Duration::from_secs(2));
        for c in &mut self.clients {
            if !c.is_alive() && c.session.token().is_some() {
                c.expired_token = true;
            }
        }
    }

    /// Faultless end-of-run drain: resume every dead client, settle,
    /// and force kill+resume cycles for anything stuck (a stuck seq
    /// that survives replay cycles is exactly what the replay-bug
    /// detector looks for). Then `Bye` every live session and run the
    /// completeness checks.
    pub(crate) fn final_drain(&mut self) {
        self.net.set_profile(FaultProfile::none());
        for i in 0..self.clients.len() {
            for _cycle in 0..3 {
                if !self.clients[i].is_alive() {
                    let c = &self.clients[i];
                    if c.session.token().is_none() || (c.expired_token && c.session.pending() == 0)
                    {
                        break; // nothing owed; stays down
                    }
                    if !self.handshake(i) {
                        break; // violation already recorded
                    }
                }
                self.pump_until(|w| {
                    !w.clients[i].is_alive() || w.clients[i].session.pending() == 0
                });
                let c = &self.clients[i];
                if c.is_alive() && c.session.pending() == 0 {
                    break;
                }
                if c.is_alive() {
                    // Stuck: force a re-park + resume so the replay
                    // path gets another chance (or proves broken).
                    self.kill(i);
                }
            }
        }
        for c in &mut self.clients {
            if !c.is_alive() {
                continue;
            }
            c.byeack = None;
            let bytes = encode_frame_with(&Frame::Bye, c.session.codec(), MAX_FRAME_LEN)
                .expect("encode bye");
            c.bye_sent = c.write(&bytes);
        }
        self.pump_until(|w| {
            w.clients
                .iter()
                .all(|c| !c.bye_sent || c.byeack.is_some() || !c.is_alive())
        });
        for c in &mut self.clients {
            if !c.bye_sent {
                continue;
            }
            match c.byeack {
                Some((_answered, remaining)) => {
                    if remaining != 0 {
                        c.model.violation(format!(
                            "ByeAck reports remaining={remaining} after full settle"
                        ));
                    }
                }
                None => c
                    .model
                    .violation("Bye sent on the faultless drain but no ByeAck".into()),
            }
        }
        for c in &mut self.clients {
            c.model.final_check();
        }
    }

    pub(crate) fn into_outcome(self, seed: u64) -> SeedOutcome {
        let faults = self.net.fault_counts();
        let mut violations = self.violations;
        for c in &self.clients {
            for v in c.model.violations() {
                violations.push(format!("client {}: {v}", c.model.id()));
            }
        }
        let mut fp = fnv::OFFSET;
        for c in &self.clients {
            fp = c.model.fold_fingerprint(fp);
            if std::env::var_os("FMML_SIMTEST_DUMP").is_some() {
                c.model.dump(&mut std::io::stderr().lock());
            }
        }
        fp = fnv::fold(fp, violations.len() as u64);
        SeedOutcome {
            seed,
            fingerprint: fp,
            violations,
            faults,
            migrations: 0,
            resumes: 0,
        }
    }
}

/// Seed-derived transport fault profile: virtual-time delays only (see
/// the module docs for why the other fault kinds are excluded here).
///
/// Notably, even client→server *disconnect* fates are excluded: a fate
/// is keyed on (conn id, frame bytes, occurrence), and both the dial
/// count and a resume `Hello`'s `last_acked` field depend on how many
/// replies happened to land before the schedule point — real-time
/// races. A flipped disconnect fate changes which clients are alive at
/// later schedule points and therefore which seqs ever get allocated:
/// two runs of the same seed would both be protocol-clean yet resolve
/// different sets. Connection deaths must come only from the driver's
/// own `kill` ops, which happen at schedule points. Delay fates are
/// also race-keyed, but a delay only moves *when* a frame arrives, and
/// every observable reply converges regardless of timing.
pub(crate) fn derive_profile(rng: &mut u64) -> FaultProfile {
    let delay_choices = [0u32, 500, 1500, 3000];
    FaultProfile {
        drop_per_10k: 0,
        dup_per_10k: 0,
        reorder_per_10k: 0,
        delay_per_10k: delay_choices[(splitmix64(rng) % 4) as usize],
        max_delay: Duration::from_millis(1 + splitmix64(rng) % 15),
        disconnect_per_10k: 0,
        disconnect_c2s_only: true,
        // Partition fates are race-keyed like disconnects (see above);
        // partitions come only from the driver's own schedule ops.
        partition_per_10k: 0,
        partition_heal: Duration::ZERO,
    }
}

pub(crate) fn explorer_server_config(
    clock: Clock,
    process_faults: ProcessFaultPlan,
) -> ServerConfig {
    ServerConfig {
        workers: 1,
        // Generous virtual deadline: no seed's verdict turns on a
        // deadline miss.
        deadline: Duration::from_secs(10),
        max_batch: 4,
        // Effectively unbounded admission: any `Busy` is a violation.
        queue_depth: 4096,
        read_timeout: Duration::from_millis(5),
        // `REPLAY_WINDOW` and `MAX_PARKED` evict nothing at explorer scale.
        parked_ttl: PARKED_TTL,
        // Panic plans fire for the whole run. The lone worker recovers in
        // place and, at a cadence of 3 or 5, never panics twice in a row;
        // replies are content-deterministic regardless of batching.
        process_faults,
        clock,
        injected_bug: None,
        ..ServerConfig::default()
    }
}

/// Explore one seed. With `inject_bug` set this instead runs the
/// scripted replay-gap scenario (`run_bug_scenario`), which is
/// deterministic down to the violation text.
pub fn run_seed(seed: u64, cfg: &SimtestConfig) -> SeedOutcome {
    if let Some(bug) = cfg.inject_bug {
        return run_bug_scenario(seed, bug);
    }
    let fx = fixture();
    let (clock, vc) = Clock::new_virtual();
    let net = SimNet::new(seed, clock.clone());
    let mut rng = seed ^ 0x6c07_9768_25e6_cd21;

    let profile = derive_profile(&mut rng);
    let mut pf = ProcessFaultPlan::none();
    pf.worker_panic_every = [0u64, 0, 3, 5][(splitmix64(&mut rng) % 4) as usize];

    let mut server_cfg = explorer_server_config(clock, pf);
    server_cfg.wire = cfg.wire;
    let handle = spawn_with(net.transport(), Arc::clone(&fx.model), server_cfg);
    let mut world = World {
        net: net.clone(),
        vc: Some(Arc::clone(&vc)),
        clients: (0..cfg.clients).map(|i| Client::new(i, cfg.wire)).collect(),
        violations: Vec::new(),
        real_idle: Duration::ZERO,
        stall_limit: STALL_LIMIT,
    };
    // Initial handshakes run before the fault profile is armed: every
    // session lineage starts from a clean Welcome.
    for i in 0..cfg.clients {
        world.handshake(i);
    }
    world.net.set_profile(profile);

    for _ in 0..cfg.ops {
        // Exactly three draws per op, unconditionally: the random
        // stream never depends on world state, so the schedule is a
        // pure function of the seed.
        let r = splitmix64(&mut rng) % 100;
        let i = (splitmix64(&mut rng) as usize) % cfg.clients.max(1);
        let aux = splitmix64(&mut rng);
        // Surface any duplex deaths before branching on aliveness.
        world.pump_once();
        if r < 35 {
            if world.clients[i].is_alive() || world.handshake(i) {
                world.burst(i, 1 + (aux % 3) as usize);
            }
        } else if r < 55 {
            world.settle();
        } else if r < 70 {
            if world.clients[i].is_alive() {
                world.kill(i);
            }
        } else if r < 85 {
            if world.clients[i].is_alive() {
                world.advance_small(aux);
            } else {
                world.handshake(i);
            }
        } else if r < 92 {
            if world.clients[i].is_alive() || world.handshake(i) {
                world.send_bad(i);
            }
        } else if r < 97 {
            world.advance_small(aux);
        } else {
            world.expire(&handle, i);
        }
    }

    world.final_drain();
    if vc.valve_trips() > 0 {
        world.violations.push(format!(
            "virtual-clock valve tripped {}x (a sleeper waited >5s real time)",
            vc.valve_trips()
        ));
    }
    let _ = handle.shutdown();
    net.close();
    world.into_outcome(seed)
}

/// Scripted detector scenario for an injected protocol bug, built so
/// the caught violation is identical on every run (no races, no
/// faults, real clock):
///
/// 1. settle a warm session (seqs 1–3 resolved),
/// 2. send two more intervals and wait — via server-side counters, not
///    the wire — until both replies are *recorded*,
/// 3. hard-kill the connection before reading them: the client now
///    presents `last_acked = 3` and both seqs sit at or below the
///    server's watermark, squarely in replay territory,
/// 4. resume. A correct server replays 4 and 5; `ReplayOffByOne`
///    silently skips 4, which no drain cycle can ever recover (the
///    client must not re-send a seq the watermark says was ingested) —
///    the completeness check reports it.
fn run_bug_scenario(seed: u64, bug: ProtocolBug) -> SeedOutcome {
    let fx = fixture();
    let net = SimNet::new(seed, Clock::System);
    let mut server_cfg = explorer_server_config(Clock::System, ProcessFaultPlan::none());
    server_cfg.injected_bug = Some(bug);
    // Real clock here: the TTL must be real-time sane.
    server_cfg.parked_ttl = Duration::from_secs(30);
    let handle = spawn_with(net.transport(), Arc::clone(&fx.model), server_cfg);
    let mut world = World {
        net: net.clone(),
        vc: None,
        clients: vec![Client::new(0, WireCodec::Json)],
        violations: Vec::new(),
        real_idle: Duration::ZERO,
        stall_limit: STALL_LIMIT,
    };
    world.handshake(0);
    world.burst(0, 3);
    world.settle();
    let base = stats_replies(&handle);
    world.burst(0, 2);
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats_replies(&handle) < base + 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    world.kill(0);
    world.final_drain();
    let _ = handle.shutdown();
    net.close();
    world.into_outcome(seed)
}

fn stats_replies(handle: &ServerHandle<SimConn>) -> u64 {
    match handle.stats() {
        Frame::StatsReply { replies, .. } => replies,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimtestConfig {
        SimtestConfig {
            seeds: 1,
            start_seed: 1,
            clients: 3,
            ops: 12,
            inject_bug: None,
            wire: WireCodec::Json,
        }
    }

    /// A correct server survives fault schedules with zero violations,
    /// and the same seed reproduces the same fingerprint bitwise.
    #[test]
    fn clean_seeds_are_violation_free_and_deterministic() {
        let cfg = quick_cfg();
        for seed in [11, 12, 13] {
            let a = run_seed(seed, &cfg);
            assert!(
                a.violations.is_empty(),
                "seed {seed} violations: {:?}",
                a.violations
            );
            let b = run_seed(seed, &cfg);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "seed {seed} fingerprint not reproducible"
            );
            assert_eq!(a.violations, b.violations);
        }
    }

    /// The wire codec is a transport detail: the same seed lands on the
    /// same reply fingerprint whether sessions negotiate bin1 or stay
    /// on JSON, and bin1 runs stay violation-free.
    #[test]
    fn bin1_seeds_reproduce_json_fingerprints() {
        let json_cfg = quick_cfg();
        let bin_cfg = SimtestConfig {
            wire: WireCodec::Bin1,
            ..quick_cfg()
        };
        for seed in [11, 12] {
            let j = run_seed(seed, &json_cfg);
            let b = run_seed(seed, &bin_cfg);
            assert!(
                b.violations.is_empty(),
                "seed {seed} bin1 violations: {:?}",
                b.violations
            );
            assert_eq!(
                j.fingerprint, b.fingerprint,
                "seed {seed} fingerprint depends on the wire codec"
            );
        }
    }

    /// A wait outlasts a server thread the host schedules late. With an
    /// iteration count alone, 600 empty pump iterations pass in well
    /// under a millisecond when no client is polled, and the wait gave
    /// up on an answer that was 200 ms of real time away: on a loaded
    /// host, "Bye sent on the faultless drain but no ByeAck".
    #[test]
    fn a_wait_outlasts_a_thread_that_answers_late() {
        let (clock, vc) = Clock::new_virtual();
        let mut world = World {
            net: SimNet::new(1, clock),
            vc: Some(vc),
            clients: Vec::new(),
            violations: Vec::new(),
            real_idle: Duration::ZERO,
            stall_limit: STALL_LIMIT,
        };
        let answered = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let late = Arc::clone(&answered);
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            late.store(true, std::sync::atomic::Ordering::Release);
        });
        assert!(world.pump_until(|_| answered.load(std::sync::atomic::Ordering::Acquire)));
        server.join().unwrap();
    }

    /// The harness must catch a deliberately broken replay — and catch
    /// it identically on a re-run of the same seed.
    #[test]
    fn injected_replay_bug_is_caught_and_reproduced() {
        let cfg = SimtestConfig {
            inject_bug: Some(ProtocolBug::ReplayOffByOne),
            start_seed: 7,
            ..quick_cfg()
        };
        let caught = crate::sweep::catch_bug(&cfg).unwrap();
        assert!(
            caught.violations.iter().any(|v| v.contains("unresolved")),
            "expected a completeness violation, got {:?}",
            caught.violations
        );
    }
}
