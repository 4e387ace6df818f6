//! The cluster router: N independent `fmml-serve` nodes behind one
//! wire-compatible endpoint.
//!
//! ```text
//!             ┌──────────────────────── router ────────────────────────┐
//!  clients ──▶│ frontend reader ─▶ dedup/replay ─▶ per-session backend │──▶ serve node A
//!   (Hello/   │   (per session)      (ReplayLog)        link           │──▶ serve node B
//!  Interval)  │        ▲                                 │            │──▶ serve node C
//!             │        └── replies ◀── link reader ◀─────┘            │
//!             │  prober: MetricsDump liveness + queue-depth load      │
//!             │  ring: seeded consistent hash over resume tokens      │
//!             └────────────────────────────────────────────────────────┘
//! ```
//!
//! ## Placement
//!
//! Sessions are placed by consistent hashing ([`crate::ring::HashRing`])
//! keyed on the *router-minted* resume token, so placement survives
//! client reconnects (same token → same shard) and node join/leave
//! moves only ring-adjacent token ranges.
//!
//! ## Exactly-once across the router hop
//!
//! The router terminates the resume protocol by driving the same
//! [`fmml_serve::session`] core as the single-node server — the opening,
//! the identity claim, the per-session [`Ledger`] (record-before-send)
//! and the resume sequence — just moved one hop out. Toward the backends
//! the router keeps, per session: `pending` (forwarded but unanswered)
//! and `history` (the last `window_intervals - 1` *ingested* updates
//! per port — the ones answered Ack/Imputed). A backend's sliding
//! window is a pure function of the last W ingested updates, so when a
//! backend dies the router re-creates the session elsewhere by
//! replaying `history` as warm-up (replies swallowed — the client
//! already has them) and re-sending `pending` in order: the new
//! backend's replies are bitwise-identical in every semantic field, the
//! client sees each seq answered exactly once, and no interval is lost.
//! Duplicate client retransmits are answered from the replay log
//! without re-feeding any window; a reply racing a migration is dropped
//! by the [`Ledger::answered`] guard on the new link.

use crate::ring::HashRing;
use fmml_obs::trace::{self, TraceContext};
use fmml_obs::{log_event, Clock, Counter, Gauge, Histogram, Unit};
use fmml_serve::protocol::{
    encode_frame_with, write_bytes, Frame, FrameReader, RawFrame, WireCodec, HEADER_LEN,
    MAX_FRAME_LEN,
};
use fmml_serve::session::{self, Identity, Ledger, Stalls};
use fmml_serve::{Accepted, Conn, Connector, TcpConnector, TcpTransport, Transport};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static CL_SESSIONS: Counter = Counter::new("cluster.sessions");
static CL_ACTIVE: Gauge = Gauge::new("cluster.sessions.active");
static CL_FORWARDED: Counter = Counter::new("cluster.forwarded");
static CL_REPLIES: Counter = Counter::new("cluster.replies");
static CL_REPLAYED: Counter = Counter::new("cluster.replayed");
static CL_RESUMES: Counter = Counter::new("cluster.resumes");
static CL_MIGRATIONS: Counter = Counter::new("cluster.migrations");
static CL_WARMUP: Counter = Counter::new("cluster.warmup_replayed");
static CL_PROBE_FAILS: Counter = Counter::new("cluster.probe.failures");
static CL_STUCK: Counter = Counter::new("cluster.stuck_resends");
static CL_BACKENDS_UP: Gauge = Gauge::new("cluster.backends.up");
static CL_ROUTE_US: Histogram = Histogram::new("cluster.route_us", Unit::Micros);

/// Router tuning knobs. Every duration reads the injected [`Clock`]:
/// under the simulation harness's virtual clock, probe patience, dial
/// deadlines and the pending-repair timeout all advance with virtual
/// time, so a simtest seed explores timeout behaviour deterministically
/// instead of racing the wall clock.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Frontend bind address (TCP spawn only); port `0` is ephemeral.
    pub addr: String,
    /// Seed of the placement ring — two routers configured with the
    /// same seed and members place sessions identically.
    pub ring_seed: u64,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Router-side per-session replay window (client resumes).
    pub replay_window: usize,
    /// Liveness probe cadence (injected clock — virtual under sim).
    pub probe_interval: Duration,
    /// Probe reply patience (injected clock). A healthy backend answers
    /// before any time passes; only a stalled link spends this.
    pub probe_timeout: Duration,
    /// Consecutive probe failures before a backend is marked down and
    /// removed from the ring.
    pub probe_failures: u32,
    /// Backend dial+handshake patience (injected clock).
    pub dial_timeout: Duration,
    /// How long an in-flight interval may go unanswered (injected
    /// clock) before its session is force-migrated and everything still
    /// pending is re-sent. This is the repair path for partition
    /// stalls: a frame written into a silently-partitioned link
    /// produces no I/O error and no reply until the partition heals —
    /// which may be never. Only reply absence reveals it.
    pub pending_timeout: Duration,
    /// Frame cap on client connections.
    pub client_frame_len: usize,
    /// Frame cap on router↔backend links — raised above the client cap
    /// because migration warm-up batches ride on them.
    pub backend_frame_len: usize,
    /// Socket read poll granularity.
    pub read_timeout: Duration,
    /// Socket write timeout (slow-reader guard).
    pub write_timeout: Duration,
    /// Sessions whose client vanished are kept resumable this long
    /// (injected clock) before being dropped.
    pub parked_ttl: Duration,
    /// Preferred wire codec for client sessions and backend links. The
    /// router negotiates [`WireCodec::Bin1`] only with peers that
    /// advertise it; everyone else stays on JSON, so mixed fleets keep
    /// working (`--wire` on `fmml cluster`).
    pub wire: WireCodec,
    /// Time source for probe cadence, dial/pending deadlines and parked
    /// TTLs.
    pub clock: Clock,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            ring_seed: 0x5eed_0c15,
            vnodes: 64,
            replay_window: 1024,
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(250),
            probe_failures: 3,
            dial_timeout: Duration::from_secs(2),
            pending_timeout: Duration::from_secs(2),
            client_frame_len: MAX_FRAME_LEN,
            backend_frame_len: 4 * MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(2),
            parked_ttl: Duration::from_secs(30),
            wire: WireCodec::Json,
            clock: Clock::System,
        }
    }
}

/// Poison-tolerant lock: every update under the router's mutexes leaves
/// the data valid at every step, so a holder that panicked must not take
/// the sessions it shared state with down too.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-router counters backing the frontend's `StatsReply`.
#[derive(Default)]
struct RCounters {
    sessions: AtomicU64,
    active: AtomicU64,
    accepted: AtomicU64,
    malformed: AtomicU64,
    replies: AtomicU64,
    resumes: AtomicU64,
    migrations: AtomicU64,
    replayed: AtomicU64,
}

impl RCounters {
    fn stats_frame(&self) -> Frame {
        Frame::StatsReply {
            sessions: self.sessions.load(Ordering::Relaxed),
            active_sessions: self.active.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: 0,
            malformed: self.malformed.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            batches: 0,
            deadline_misses: 0,
            violations: 0,
            slow_disconnects: 0,
        }
    }
}

/// One backend's registration + health state.
struct BackendEntry<B> {
    connector: Arc<B>,
    up: bool,
    fails: u32,
    /// Last probed `slo.queue_depth` (load signal; `-1` = unknown).
    load: i64,
}

/// Introspection snapshot of one backend ([`RouterHandle::backends`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    pub name: String,
    pub up: bool,
    /// Last probed queue depth (`-1` before the first successful probe).
    pub load: i64,
}

/// An interval forwarded to a backend and not yet answered.
struct PendingEntry {
    port: usize,
    /// The client's `Interval` frame exactly as it arrived on the wire
    /// (any codec — backend readers sniff per frame), forwarded and
    /// re-sent verbatim on migration.
    bytes: Vec<u8>,
    /// Injected-clock send time (virtual under the simulation harness).
    sent_at: Instant,
    trace_id: Option<u64>,
}

/// One ingested update retained for migration warm-up.
struct HistEntry {
    seq: u64,
    port: usize,
    bytes: Vec<u8>,
}

/// The backend-facing half of a session, guarded by one mutex: which
/// shard it lives on, the write half of the link, and the migration
/// bookkeeping. `epoch` increments on every (re)placement; a link
/// reader only acts while its epoch is current, so a superseded link
/// can never corrupt state after a migration.
struct RouteState<CB: Conn> {
    backend: String,
    writer: Option<CB>,
    epoch: u64,
    /// Codec the current backend link negotiated in its `Welcome` —
    /// what router-originated frames on this link (`Bye`) are encoded
    /// in. Routed payloads pass through verbatim regardless.
    link: WireCodec,
    pending: BTreeMap<u64, PendingEntry>,
    history: VecDeque<HistEntry>,
    /// Warm-up seqs whose backend replies must be dropped (the client
    /// was already answered before the migration).
    swallow: HashSet<u64>,
    /// Client said `Bye`; re-send it after any migration so the drain
    /// handshake completes on the new shard.
    bye: bool,
}

impl<CB: Conn> RouteState<CB> {
    /// Write `bytes` to the backend link, if there is one. A write error
    /// means the link is dead: shut it so the link reader notices and
    /// migrates — what was being sent stays in `pending` / `bye`, and
    /// the migration re-sends it.
    fn send(&mut self, bytes: &[u8]) {
        if let Some(w) = self.writer.as_mut() {
            if write_bytes(w, bytes).is_err() {
                w.shutdown_both();
            }
        }
    }

    /// Retain `seq`'s update for warm-up, keeping at most `w - 1`
    /// entries per port (exactly the window a fresh backend needs).
    fn push_history(&mut self, seq: u64, port: usize, bytes: Vec<u8>, window_intervals: usize) {
        let cap = window_intervals.saturating_sub(1);
        if cap == 0 {
            return;
        }
        self.history.push_back(HistEntry { seq, port, bytes });
        let count = self.history.iter().filter(|h| h.port == port).count();
        if count > cap {
            if let Some(pos) = self.history.iter().position(|h| h.port == port) {
                self.history.remove(pos);
            }
        }
    }
}

struct SessionInner<CF: Conn, CB: Conn> {
    id: u64,
    token: String,
    /// What the client's `Hello` claimed: a reconnect must claim the
    /// same to resume, and every backend the session is placed on is
    /// sent a tokenless `Hello` for it.
    identity: Identity,
    /// Codec negotiated with the client at birth; fixed for the whole
    /// lineage (resumes restate it) because the ledger stores encoded
    /// reply bytes.
    codec: WireCodec,
    deadline_ms: AtomicU64,
    front: Mutex<Option<CF>>,
    ledger: Ledger,
    answered: AtomicU64,
    state: Mutex<RouteState<CB>>,
    done: AtomicBool,
    parked_at: Mutex<Option<Instant>>,
}

impl<CF: Conn, CB: Conn> SessionInner<CF, CB> {
    fn done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// The current placement epoch (see [`RouteState`]).
    fn epoch(&self) -> u64 {
        lock(&self.state).epoch
    }

    /// Cut the backend link, if any.
    fn sever_link(&self) {
        if let Some(c) = lock(&self.state).writer.take() {
            c.shutdown_both();
        }
    }

    /// Write `bytes` to the client if one is attached; a failed write
    /// parks the session (the replay log already has the reply).
    fn send_client(&self, bytes: &[u8]) -> bool {
        let mut g = lock(&self.front);
        match g.as_mut() {
            None => false,
            Some(c) => match write_bytes(c, bytes) {
                Ok(()) => true,
                Err(_) => {
                    c.shutdown_both();
                    *g = None;
                    false
                }
            },
        }
    }

    /// Encode `frame` in `codec` (JSON for a `Welcome`, the session's
    /// codec after it) and write it to the client.
    fn send_frame(&self, frame: &Frame, codec: WireCodec, max_len: usize) -> bool {
        encode_frame_with(frame, codec, max_len).is_ok_and(|b| self.send_client(&b))
    }

    /// Commit a reply to the ledger, *then* write it to the client.
    fn commit_reply(&self, seq: u64, bytes: &[u8]) {
        self.ledger.commit(seq, bytes);
        self.answered.fetch_add(1, Ordering::Relaxed);
        self.send_client(bytes);
    }
}

/// Live sessions by resume token.
type SessionMap<CF, BC> = HashMap<String, Arc<SessionInner<CF, BC>>>;

struct RouterShared<CF: Conn, B: Connector> {
    cfg: RouterConfig,
    ring: Mutex<HashRing>,
    backends: Mutex<BTreeMap<String, BackendEntry<B>>>,
    sessions: Mutex<SessionMap<CF, B::Conn>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    shutdown: AtomicBool,
    counters: RCounters,
    next_session: AtomicU64,
    token_seed: Mutex<u64>,
}

impl<CF: Conn, B: Connector> RouterShared<CF, B> {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Snapshot of every tracked session (the map's lock is released
    /// before the caller touches any of them).
    fn all_sessions(&self) -> Vec<Arc<SessionInner<CF, B::Conn>>> {
        lock(&self.sessions).values().cloned().collect()
    }

    fn reap_threads(&self) {
        lock(&self.threads).retain(|h| !h.is_finished());
    }

    fn track(&self, h: JoinHandle<()>) {
        let mut ts = lock(&self.threads);
        ts.retain(|t| !t.is_finished());
        ts.push(h);
    }

    fn backends_up(&self) -> usize {
        lock(&self.backends).values().filter(|b| b.up).count()
    }

    /// Mark `name` failed (dial error or probe miss); past the failure
    /// budget it leaves the ring and its sessions migrate. Returns true
    /// if this call demoted it.
    fn mark_backend_failed(&self, name: &str) -> bool {
        let mut demoted = false;
        {
            let mut bs = lock(&self.backends);
            if let Some(b) = bs.get_mut(name) {
                b.fails = b.fails.saturating_add(1);
                CL_PROBE_FAILS.inc();
                if b.up && b.fails >= self.cfg.probe_failures {
                    b.up = false;
                    demoted = true;
                }
            }
        }
        if demoted {
            log_event!("cluster.backend.down", "backend" = name);
            lock(&self.ring).remove(name);
            CL_BACKENDS_UP.set(self.backends_up() as i64);
        }
        demoted
    }
}

/// A running router, generic over the frontend connection type and the
/// backend connector (`TcpStream`/`TcpConnector` in production,
/// `SimConn`/`SimConnector` under the simulation harness).
pub struct RouterHandle<CF: Conn = TcpStream, B: Connector = TcpConnector> {
    addr: Option<SocketAddr>,
    shared: Arc<RouterShared<CF, B>>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl<B: Connector + Send + Sync + 'static> RouterHandle<TcpStream, B> {
    /// The bound frontend address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("TCP router always has a bound address")
    }
}

impl<CF: Conn, B: Connector + Send + Sync + 'static> RouterHandle<CF, B> {
    /// Register a backend and (optimistically) add it to the ring. The
    /// prober demotes it if it turns out to be unreachable. A join
    /// rebalances: only sessions in the ring ranges the new node took
    /// over migrate onto it.
    pub fn add_backend(&self, name: &str, connector: B) {
        lock(&self.shared.backends).insert(
            name.to_string(),
            BackendEntry {
                connector: Arc::new(connector),
                up: true,
                fails: 0,
                load: -1,
            },
        );
        lock(&self.shared.ring).add(name);
        CL_BACKENDS_UP.set(self.shared.backends_up() as i64);
        log_event!("cluster.backend.join", "backend" = name);
        rebalance(&self.shared);
    }

    /// Gracefully remove a backend: take it off the ring and migrate
    /// its sessions elsewhere (warm-up replay preserves exactly-once).
    pub fn remove_backend(&self, name: &str) {
        lock(&self.shared.ring).remove(name);
        lock(&self.shared.backends).remove(name);
        CL_BACKENDS_UP.set(self.shared.backends_up() as i64);
        log_event!("cluster.backend.leave", "backend" = name);
        rebalance(&self.shared);
    }

    /// Health + load snapshot of every registered backend.
    pub fn backends(&self) -> Vec<BackendInfo> {
        lock(&self.shared.backends)
            .iter()
            .map(|(name, b)| BackendInfo {
                name: name.clone(),
                up: b.up,
                load: b.load,
            })
            .collect()
    }

    /// This router's counters as a [`Frame::StatsReply`].
    pub fn stats(&self) -> Frame {
        self.shared.counters.stats_frame()
    }

    /// `(sessions migrated, sessions resumed, replies replayed)`.
    pub fn cluster_stats(&self) -> (u64, u64, u64) {
        (
            self.shared.counters.migrations.load(Ordering::Relaxed),
            self.shared.counters.resumes.load(Ordering::Relaxed),
            self.shared.counters.replayed.load(Ordering::Relaxed),
        )
    }

    /// Sessions currently tracked (active + parked).
    pub fn session_count(&self) -> usize {
        lock(&self.shared.sessions).len()
    }

    /// Stop accepting, kill every session and link, join all threads.
    /// Returns the router's final stats.
    pub fn shutdown(mut self) -> Frame {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(vc) = self.shared.cfg.clock.virtual_handle() {
            vc.set_auto_advance(true);
        }
        // Wake every blocked reader by killing its connection.
        for s in self.shared.all_sessions() {
            s.done.store(true, Ordering::Release);
            if let Some(c) = lock(&s.front).take() {
                c.shutdown_both();
            }
            s.sever_link();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        loop {
            let drained = std::mem::take(&mut *lock(&self.shared.threads));
            if drained.is_empty() {
                break;
            }
            for t in drained {
                let _ = t.join();
            }
        }
        log_event!(
            "cluster.shutdown",
            "sessions" = self.shared.counters.sessions.load(Ordering::Relaxed),
            "migrations" = self.shared.counters.migrations.load(Ordering::Relaxed)
        );
        self.shared.counters.stats_frame()
    }
}

/// Spawn a TCP router on `cfg.addr`. Backends are registered afterwards
/// via [`RouterHandle::add_backend`].
pub fn spawn(cfg: RouterConfig) -> io::Result<RouterHandle<TcpStream, TcpConnector>> {
    let transport = TcpTransport::bind(&cfg.addr)?;
    let addr = transport.addr();
    let mut handle = spawn_with(transport, cfg);
    handle.addr = Some(addr);
    Ok(handle)
}

/// Spawn a router over an arbitrary frontend [`Transport`] — the
/// simulation harness passes a `SimTransport` here and per-backend
/// `SimConnector`s to [`RouterHandle::add_backend`], and the whole
/// cluster runs in memory on virtual time.
pub fn spawn_with<F, B>(frontend: F, cfg: RouterConfig) -> RouterHandle<F::Conn, B>
where
    F: Transport,
    B: Connector + Send + Sync + 'static,
{
    let token_seed = cfg.ring_seed ^ 0x0be5_5ed5_eed5_eed5;
    let shared = Arc::new(RouterShared {
        ring: Mutex::new(HashRing::new(cfg.ring_seed, cfg.vnodes)),
        cfg,
        backends: Mutex::new(BTreeMap::new()),
        sessions: Mutex::new(HashMap::new()),
        threads: Mutex::new(Vec::new()),
        shutdown: AtomicBool::new(false),
        counters: RCounters::default(),
        next_session: AtomicU64::new(0),
        token_seed: Mutex::new(token_seed),
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cluster-acceptor".into())
            .spawn(move || {
                let desc = frontend.desc();
                log_event!("cluster.listening", "addr" = desc.as_str());
                loop {
                    match frontend.accept() {
                        Accepted::Conn(conn) => {
                            let sh = Arc::clone(&shared);
                            let h = std::thread::Builder::new()
                                .name("cluster-session".into())
                                .spawn(move || handle_client(&sh, conn))
                                .expect("spawn cluster session");
                            shared.track(h);
                        }
                        Accepted::Retry => {
                            if shared.shutting_down() {
                                break;
                            }
                            shared.reap_threads();
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Accepted::Closed => break,
                    }
                }
            })
            .expect("spawn cluster acceptor")
    };

    let prober = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cluster-prober".into())
            .spawn(move || prober_loop(&shared))
            .expect("spawn cluster prober")
    };

    RouterHandle {
        addr: None,
        shared,
        acceptor: Some(acceptor),
        prober: Some(prober),
    }
}

/// Dial a backend and answer one `MetricsDump`. Returns the probed
/// queue depth (load signal) on success. Patience runs on the injected
/// clock: under a virtual clock a stalled probe times out when the
/// driver advances time, not when the wall clock does — so the loop
/// must also honor `abort` (shutdown), or a probe in flight when the
/// driver stops pumping time would never reach its deadline and the
/// prober join would hang.
fn probe_backend<B: Connector>(
    connector: &B,
    clock: &Clock,
    patience: Duration,
    abort: impl Fn() -> bool,
) -> Result<i64, ()> {
    let conn = connector.connect().map_err(|_| ())?;
    let _ = conn.set_read_timeout(Some(Duration::from_millis(2)));
    let _ = conn.set_write_timeout(Some(patience));
    let read_half = conn.try_clone().map_err(|_| ())?;
    let mut writer = conn;
    let dump =
        encode_frame_with(&Frame::MetricsDump, WireCodec::Json, MAX_FRAME_LEN).map_err(|_| ())?;
    write_bytes(&mut writer, &dump).map_err(|_| ())?;
    let mut reader = FrameReader::new(read_half);
    let deadline = clock.now() + patience;
    loop {
        match reader.poll_frame() {
            Ok(Some(Frame::MetricsReply { json })) => {
                let load = serde_json::from_str::<serde_json::Value>(&json)
                    .ok()
                    .and_then(|v| {
                        v.get("metrics")
                            .and_then(|m| m.get("slo.queue_depth"))
                            .and_then(|d| d.as_i64())
                    })
                    .unwrap_or(0);
                return Ok(load);
            }
            Ok(Some(_)) | Ok(None) => {
                if clock.now() >= deadline || abort() {
                    return Err(());
                }
            }
            Err(_) => return Err(()),
        }
    }
}

/// Health loop: probe every backend each tick, demote after
/// `probe_failures` consecutive misses (ring leave + migration),
/// promote on recovery (ring join + rebalance), and expire parked
/// sessions past their TTL.
fn prober_loop<CF: Conn, B: Connector + Send + Sync + 'static>(shared: &Arc<RouterShared<CF, B>>) {
    loop {
        if shared.shutting_down() {
            return;
        }
        let snapshot: Vec<(String, Arc<B>, bool)> = lock(&shared.backends)
            .iter()
            .map(|(n, b)| (n.clone(), Arc::clone(&b.connector), b.up))
            .collect();
        for (name, connector, was_up) in snapshot {
            let result = probe_backend(
                connector.as_ref(),
                &shared.cfg.clock,
                shared.cfg.probe_timeout,
                || shared.shutting_down(),
            );
            match result {
                Ok(load) => {
                    let promoted = lock(&shared.backends).get_mut(&name).is_some_and(|b| {
                        b.fails = 0;
                        b.load = load;
                        !std::mem::replace(&mut b.up, true)
                    });
                    if promoted {
                        log_event!("cluster.backend.up", "backend" = name.as_str());
                        lock(&shared.ring).add(&name);
                        CL_BACKENDS_UP.set(shared.backends_up() as i64);
                        rebalance(shared);
                    }
                }
                Err(()) => {
                    if shared.mark_backend_failed(&name) && was_up {
                        rebalance(shared);
                    }
                }
            }
        }
        sweep_parked(shared);
        sweep_stuck(shared);
        shared.reap_threads();
        shared.cfg.clock.sleep(shared.cfg.probe_interval);
    }
}

/// Drop parked sessions whose TTL (injected clock) expired.
fn sweep_parked<CF: Conn, B: Connector>(shared: &Arc<RouterShared<CF, B>>) {
    let now = shared.cfg.clock.now();
    let expired: Vec<Arc<SessionInner<CF, B::Conn>>> = lock(&shared.sessions)
        .values()
        .filter(|s| {
            lock(&s.parked_at)
                .is_some_and(|at| now.saturating_duration_since(at) > shared.cfg.parked_ttl)
        })
        .cloned()
        .collect();
    for s in expired {
        s.done.store(true, Ordering::Release);
        s.sever_link();
        lock(&shared.sessions).remove(&s.token);
        log_event!("cluster.session.expired", "session" = s.id);
    }
}

/// Force-migrate any session whose oldest in-flight interval has gone
/// unanswered past `pending_timeout`. A partition stalls frames
/// already written into the link without an error, for possibly
/// unbounded time. The epoch bump re-dials the ring target (possibly
/// the same node), shuts the old link (crash semantics: its stalled
/// frames die with it) and re-sends everything still pending; the
/// epoch guard on the old link keeps a late original reply from
/// double-committing, and warm-up makes the re-computed replies
/// bitwise identical.
fn sweep_stuck<CF: Conn, B: Connector + Send + Sync + 'static>(shared: &Arc<RouterShared<CF, B>>) {
    let timeout = shared.cfg.pending_timeout;
    let now = shared.cfg.clock.now();
    for session in shared.all_sessions() {
        if session.done() {
            continue;
        }
        let epoch = {
            let st = lock(&session.state);
            let aged = st
                .pending
                .values()
                .any(|p| now.saturating_duration_since(p.sent_at) > timeout);
            // A goodbye whose link died (or that never found a live
            // backend) has no pending entry to age: `bye` with no
            // writer is the same "will never be answered" state.
            let orphaned_bye = st.bye && st.writer.is_none();
            if !aged && !orphaned_bye {
                continue;
            }
            st.epoch
        };
        CL_STUCK.inc();
        log_event!("cluster.session.stuck", "session" = session.id);
        migrate(shared, &session, epoch);
    }
}

/// Re-place every session whose ring assignment no longer matches where
/// it lives — exactly the sessions in the token ranges a join/leave
/// moved; everyone else stays put (bounded churn).
///
/// The migrations run on a tracked background thread, never inline on
/// the caller: membership changes arrive through the public API from
/// arbitrary threads, and under a virtual clock the caller (the test
/// driver) is the very thread that advances time — migrating inline
/// would park it inside dial deadlines only it could expire.
fn rebalance<CF: Conn, B: Connector + Send + Sync + 'static>(shared: &Arc<RouterShared<CF, B>>) {
    let shared2 = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("cluster-rebalance".into())
        .spawn(move || rebalance_sync(&shared2));
    match spawned {
        Ok(h) => shared.track(h),
        // Out of threads: degrade to the blocking path rather than
        // dropping the rebalance.
        Err(_) => rebalance_sync(shared),
    }
}

fn rebalance_sync<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
) {
    for session in shared.all_sessions() {
        if session.done() {
            continue;
        }
        let Some(desired) = lock(&shared.ring).assign(&session.token).map(String::from) else {
            continue;
        };
        let epoch = {
            let st = lock(&session.state);
            // Re-place when the assignment moved — or when the session
            // has no live link at all (it was stranded by an empty ring
            // and its assigned member has since come back: the name
            // matches but nothing is connected).
            if st.backend == desired && st.writer.is_some() {
                continue;
            }
            st.epoch
        };
        migrate(shared, &session, epoch);
    }
}

/// What a backend handshake attempt came back with.
enum DialOutcome<CB: Conn> {
    Ok {
        writer: CB,
        reader: FrameReader<CB>,
        deadline_ms: u64,
        /// Codec the backend's `Welcome` picked for this link.
        codec: WireCodec,
    },
    /// The backend answered `Error{draining}` — place elsewhere.
    Draining,
    Failed,
}

/// Dial `connector` and run the `Hello` handshake for `hello`.
fn dial_backend<CF: Conn, CB: Conn, B: Connector<Conn = CB>>(
    shared: &RouterShared<CF, B>,
    connector: &B,
    hello: &Frame,
) -> DialOutcome<CB> {
    let Ok(conn) = connector.connect() else {
        return DialOutcome::Failed;
    };
    let _ = conn.set_read_timeout(Some(Duration::from_millis(2)));
    let _ = conn.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = conn.set_nodelay(true);
    let Ok(read_half) = conn.try_clone() else {
        return DialOutcome::Failed;
    };
    let mut reader = FrameReader::with_max_len(read_half, shared.cfg.backend_frame_len);
    let mut writer = conn;
    // The Hello itself always travels as JSON (pre-negotiation); its
    // `codecs` field carries the advertisement.
    let Ok(hello_bytes) = encode_frame_with(hello, WireCodec::Json, shared.cfg.backend_frame_len)
    else {
        return DialOutcome::Failed;
    };
    if write_bytes(&mut writer, &hello_bytes).is_err() {
        return DialOutcome::Failed;
    }
    let deadline = shared.cfg.clock.now() + shared.cfg.dial_timeout;
    loop {
        match reader.poll_frame() {
            Ok(Some(Frame::Welcome {
                deadline_ms, codec, ..
            })) => {
                let codec = codec
                    .as_deref()
                    .and_then(WireCodec::parse)
                    .unwrap_or_default();
                return DialOutcome::Ok {
                    writer,
                    reader,
                    deadline_ms,
                    codec,
                };
            }
            Ok(Some(Frame::Error { code, .. })) if code == "draining" => {
                return DialOutcome::Draining;
            }
            Ok(Some(_)) => return DialOutcome::Failed,
            Ok(None) => {
                if shared.cfg.clock.now() >= deadline || shared.shutting_down() {
                    return DialOutcome::Failed;
                }
            }
            Err(_) => return DialOutcome::Failed,
        }
    }
}

/// (Re-)place `session` on the shard the ring assigns it to: dial, run
/// the warm-up replay (`history`, replies swallowed), re-send `pending`
/// in seq order, and hand the link to a fresh reader thread. Retries —
/// marking failed backends down as it goes — until it commits, the
/// session ends, the epoch moves (someone else migrated first), or the
/// ring runs out of live members (each retry either succeeds or demotes
/// a member, so the loop is bounded; an un-placed session is repaired
/// by `sweep_stuck` / the next rebalance).
fn migrate<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    from_epoch: u64,
) {
    loop {
        if shared.shutting_down() || session.done() {
            return;
        }
        if session.epoch() != from_epoch {
            return;
        }
        let Some(target) = lock(&shared.ring).assign(&session.token).map(String::from) else {
            // No live backend. Do NOT spin here: migrate runs on
            // driver/prober threads, and under a virtual clock a
            // blocked caller is exactly what keeps the prober from
            // promoting a backend again (circular wait). Explicitly
            // un-place the session — sever any stale link and clear the
            // owner — so the next join/promotion rebalance (or
            // `sweep_stuck`) re-places it: a session that *looks*
            // placed (name set, dead writer) would be skipped forever.
            {
                let mut st = lock(&session.state);
                if st.epoch == from_epoch {
                    if let Some(w) = st.writer.take() {
                        w.shutdown_both();
                    }
                    st.backend.clear();
                }
            }
            log_event!("cluster.migrate.no_backend", "session" = session.id);
            return;
        };
        let connector = lock(&shared.backends)
            .get(&target)
            .map(|b| Arc::clone(&b.connector));
        let Some(connector) = connector else { continue };
        // Binary is advertised to the backends only for binary sessions
        // — that way a session's reply bytes are produced in its own
        // codec end-to-end and pass through this router verbatim.
        let hello = session
            .identity
            .hello((session.codec == WireCodec::Bin1).then(WireCodec::advertise));
        match dial_backend(shared, connector.as_ref(), &hello) {
            DialOutcome::Failed => {
                shared.mark_backend_failed(&target);
                // Injected-clock backoff: under the simulation harness
                // the driver's idle pump advances virtual time, so the
                // retry never burns a wall-clock budget.
                shared.cfg.clock.sleep(Duration::from_millis(2));
                continue;
            }
            DialOutcome::Draining => {
                // A draining node refuses new placements: treat like a
                // leave for this session's range.
                log_event!("cluster.backend.draining", "backend" = target.as_str());
                lock(&shared.ring).remove(&target);
                continue;
            }
            DialOutcome::Ok {
                mut writer,
                reader,
                deadline_ms,
                codec,
            } => {
                session.deadline_ms.store(deadline_ms, Ordering::Relaxed);
                let epoch = {
                    let mut st = lock(&session.state);
                    if st.epoch != from_epoch {
                        writer.shutdown_both();
                        return;
                    }
                    st.epoch += 1;
                    let epoch = st.epoch;
                    if let Some(old) = st.writer.take() {
                        old.shutdown_both();
                    }
                    st.backend = target.clone();
                    st.link = codec;
                    // Warm-up: replay the ingested window so the new
                    // shard's sliding state matches the old one's
                    // exactly; its replies are swallowed.
                    st.swallow = st.history.iter().map(|h| h.seq).collect();
                    log_event!(
                        "cluster.migrate.resend",
                        "session" = session.id,
                        "epoch" = epoch,
                        "history" = st.history.len() as u64,
                        "pending" = st.pending.len() as u64,
                        "pend_lo" = st.pending.keys().next().copied().unwrap_or(0),
                        "pend_hi" = st.pending.keys().next_back().copied().unwrap_or(0)
                    );
                    let mut ok = true;
                    for h in &st.history {
                        if write_bytes(&mut writer, &h.bytes).is_err() {
                            ok = false;
                            break;
                        }
                        CL_WARMUP.inc();
                    }
                    // Re-send pending in seq order (exactly-once: the
                    // client never saw replies for these).
                    if ok {
                        let now = shared.cfg.clock.now();
                        for p in st.pending.values_mut() {
                            p.sent_at = now;
                            if write_bytes(&mut writer, &p.bytes).is_err() {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok && st.bye {
                        if let Ok(bye) =
                            encode_frame_with(&Frame::Bye, codec, shared.cfg.backend_frame_len)
                        {
                            ok = write_bytes(&mut writer, &bye).is_ok();
                        }
                    }
                    if !ok {
                        // The fresh link died mid-warm-up; undo nothing
                        // (pending/history intact) and retry from the
                        // new epoch.
                        writer.shutdown_both();
                        st.writer = None;
                        drop(st);
                        shared.mark_backend_failed(&target);
                        return migrate(shared, session, epoch);
                    }
                    st.writer = Some(writer);
                    epoch
                };
                // Epoch 1 is the initial placement; only re-placements
                // count as migrations.
                if epoch > 1 {
                    CL_MIGRATIONS.inc();
                    shared.counters.migrations.fetch_add(1, Ordering::Relaxed);
                }
                log_event!(
                    "cluster.migrate",
                    "session" = session.id,
                    "backend" = target.as_str(),
                    "epoch" = epoch
                );
                let sh = Arc::clone(shared);
                let sess = Arc::clone(session);
                let h = std::thread::Builder::new()
                    .name("cluster-link".into())
                    .spawn(move || link_loop(&sh, &sess, reader, epoch))
                    .expect("spawn cluster link");
                shared.track(h);
                return;
            }
        }
    }
}

/// Read replies off one backend link and forward them to the client.
/// Exits when superseded (epoch moved), on session end, or after
/// migrating a dead link.
fn link_loop<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    mut reader: FrameReader<B::Conn>,
    my_epoch: u64,
) {
    loop {
        if shared.shutting_down() || session.done() {
            return;
        }
        match reader.poll_frame_raw() {
            Ok(None) => {
                if session.epoch() != my_epoch {
                    return;
                }
            }
            Ok(Some(raw)) => {
                if !handle_backend_frame(shared, session, raw, my_epoch) {
                    return;
                }
            }
            Err(_) => {
                if shared.shutting_down() || session.done() {
                    return;
                }
                if session.epoch() != my_epoch {
                    return;
                }
                migrate(shared, session, my_epoch);
                return;
            }
        }
    }
}

/// Process one backend reply. Returns false when this link thread
/// should exit.
///
/// Replies are routed from the frame *as it sits on the wire*: a
/// wire-v2 payload exposes its tag and seq at fixed offsets
/// ([`RawFrame::meta`]), so the hot path (`Ack`/`Imputed`) never decodes
/// the body, and the bytes the backend produced are committed to the
/// replay log and the client verbatim — no re-encode, no frame-cap
/// mismatch (the old decode→`encode_frame` round trip silently dropped
/// any legal reply over the *default* cap on links configured with a
/// raised one), and bitwise-identical content across the hop by
/// construction. JSON payloads and rare control frames take the full
/// decode fallback.
fn handle_backend_frame<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    raw: RawFrame,
    my_epoch: u64,
) -> bool {
    let (seq, ingested) = match raw.meta() {
        // `meta()` only yields seq-carrying tags; a backend never sends
        // `Interval`, so anything else here is bogus and falls through
        // to the decode path below to be ignored or rejected.
        Some(m) if matches!(m.tag, "Ack" | "Imputed" | "Busy" | "Reject") => {
            (m.seq, matches!(m.tag, "Ack" | "Imputed"))
        }
        _ => match raw.decode() {
            Ok(frame) => match route_control_frame(shared, session, frame, my_epoch) {
                ControlRouted::Reply { seq, ingested } => (seq, ingested),
                ControlRouted::Continue => return true,
                ControlRouted::Exit => return false,
            },
            Err(_) => {
                // A frame that framed correctly but fails to decode
                // means the link is corrupt: repair exactly like a read
                // error.
                if session.epoch() != my_epoch {
                    return false;
                }
                if !shared.shutting_down() && !session.done() {
                    migrate(shared, session, my_epoch);
                }
                return false;
            }
        },
    };

    {
        let mut st = lock(&session.state);
        if st.epoch != my_epoch {
            return false;
        }
        if st.swallow.remove(&seq) {
            // Warm-up echo: the client was answered long ago.
            return true;
        }
        if session.ledger.answered(seq).is_some() {
            // Raced a migration: the old link's reply landed first.
            return true;
        }
        if let Some(p) = st.pending.remove(&seq) {
            let elapsed = shared.cfg.clock.now().saturating_duration_since(p.sent_at);
            CL_ROUTE_US.record(elapsed.as_nanos() as u64);
            if let Some(tid) = p.trace_id {
                // Parent the router hop into the interval's trace (the
                // backend rooted `serve.interval` under the same id).
                let ctx = TraceContext {
                    trace_id: tid,
                    span_id: 0,
                };
                trace::record_span("cluster.route", ctx, p.sent_at, elapsed);
            }
            if ingested {
                st.push_history(seq, p.port, p.bytes, session.identity.window_intervals);
            }
        }
    }
    session.commit_reply(seq, raw.bytes());
    CL_REPLIES.inc();
    shared.counters.replies.fetch_add(1, Ordering::Relaxed);
    true
}

/// What [`route_control_frame`] decided about a fully-decoded backend
/// frame.
enum ControlRouted {
    /// A seq-carrying reply (JSON link): route it like the fast path.
    Reply { seq: u64, ingested: bool },
    /// Nothing to route; keep reading.
    Continue,
    /// The link thread should exit.
    Exit,
}

/// Handle the decoded-frame fallback of [`handle_backend_frame`]:
/// `ByeAck` completes the session, `Error` triggers re-placement, JSON
/// replies are routed by seq, and stray control frames are ignored.
fn route_control_frame<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    frame: Frame,
    my_epoch: u64,
) -> ControlRouted {
    match &frame {
        Frame::Ack { seq, .. }
        | Frame::Imputed { seq, .. }
        | Frame::Busy { seq, .. }
        | Frame::Reject { seq, .. } => ControlRouted::Reply {
            seq: *seq,
            ingested: matches!(frame, Frame::Ack { .. } | Frame::Imputed { .. }),
        },
        Frame::ByeAck { .. } => {
            let remaining = {
                let st = lock(&session.state);
                if st.epoch != my_epoch {
                    return ControlRouted::Exit;
                }
                st.pending.len() as u64
            };
            let ba = Frame::ByeAck {
                answered: session.answered.load(Ordering::Relaxed),
                remaining,
            };
            session.send_frame(&ba, session.codec, shared.cfg.client_frame_len);
            session.done.store(true, Ordering::Release);
            session.sever_link();
            lock(&shared.sessions).remove(&session.token);
            CL_ACTIVE.add(-1);
            shared.counters.active.fetch_sub(1, Ordering::Relaxed);
            log_event!("cluster.session.close", "session" = session.id);
            ControlRouted::Exit
        }
        Frame::Error { code, .. } => {
            // Backend-level error (shutting_down, …): the link is gone.
            log_event!(
                "cluster.backend.error",
                "session" = session.id,
                "code" = code.as_str()
            );
            if session.epoch() == my_epoch && !shared.shutting_down() && !session.done() {
                migrate(shared, session, my_epoch);
            }
            ControlRouted::Exit
        }
        // Welcome (late), StatsReply, MetricsReply: nothing to route.
        _ => ControlRouted::Continue,
    }
}

/// One client connection: pre-handshake probes, `Hello` (fresh or
/// resume), then the forwarding loop.
fn handle_client<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    conn: CF,
) {
    let cfg = &shared.cfg;
    let _ = conn.set_read_timeout(Some(cfg.read_timeout));
    let _ = conn.set_write_timeout(Some(cfg.write_timeout));
    let _ = conn.set_nodelay(true);
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = FrameReader::with_max_len(read_half, cfg.client_frame_len);
    let mut writer = conn;

    // The server's opening, so the server's input guards: probes are
    // answered locally, a silent or stalled peer is dropped.
    let Some(hello) = session::read_hello(
        &mut reader,
        || cfg.clock.now(),
        || shared.shutting_down(),
        || shared.counters.stats_frame(),
        |frame| {
            if matches!(frame, Frame::Error { .. }) {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            }
            encode_frame_with(frame, WireCodec::Json, cfg.client_frame_len)
                .is_ok_and(|b| write_bytes(&mut writer, &b).is_ok())
        },
    ) else {
        return;
    };

    // Resume: re-attach to a tracked session that was opened with the
    // identity this Hello claims. Unknown/expired/mismatched token:
    // fall through to fresh.
    let existing = hello
        .resume_token
        .as_ref()
        .and_then(|tok| lock(&shared.sessions).get(tok).cloned())
        .filter(|s| !s.done() && s.identity == hello.identity);
    if let Some(session) = existing {
        if let Some(old) = lock(&session.front).replace(writer) {
            old.shutdown_both();
        }
        if lock(&session.parked_at).take().is_some() {
            CL_ACTIVE.add(1);
            shared.counters.active.fetch_add(1, Ordering::Relaxed);
        }
        CL_RESUMES.inc();
        shared.counters.resumes.fetch_add(1, Ordering::Relaxed);
        let (resume_seq, replay) = session.ledger.resume(hello.last_acked, None);
        let welcome = session::welcome(
            session.id,
            session.deadline_ms.load(Ordering::Relaxed),
            Some(&session.token),
            Some(resume_seq),
            session.codec,
        );
        let mut ok = session.send_frame(&welcome, WireCodec::Json, cfg.client_frame_len);
        for bytes in &replay {
            if !ok {
                break;
            }
            CL_REPLAYED.inc();
            shared.counters.replayed.fetch_add(1, Ordering::Relaxed);
            shared.counters.replies.fetch_add(1, Ordering::Relaxed);
            ok = session.send_client(bytes);
        }
        if !ok {
            // The reconnect died mid-handshake. Everything it was owed
            // is still in the ledger: park again so the client's next
            // retry can claim it (and the TTL sweep can expire it).
            park(shared, &session);
            return;
        }
        log_event!("cluster.session.resume", "session" = session.id);
        client_loop(shared, &session, reader);
        return;
    }

    // Fresh session: mint a token, place it on the ring, answer Welcome.
    let id = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
    let token = session::resume_token_for("rtok", &mut lock(&shared.token_seed));
    let session = Arc::new(SessionInner {
        id,
        token: token.clone(),
        identity: hello.identity,
        codec: WireCodec::negotiate(cfg.wire, hello.codecs.as_deref()),
        deadline_ms: AtomicU64::new(0),
        front: Mutex::new(Some(writer)),
        ledger: Ledger::new(cfg.replay_window),
        answered: AtomicU64::new(0),
        state: Mutex::new(RouteState {
            backend: String::new(),
            writer: None,
            epoch: 0,
            link: WireCodec::Json,
            pending: BTreeMap::new(),
            history: VecDeque::new(),
            swallow: HashSet::new(),
            bye: false,
        }),
        done: AtomicBool::new(false),
        parked_at: Mutex::new(None),
    });
    lock(&shared.sessions).insert(token.clone(), Arc::clone(&session));
    CL_SESSIONS.inc();
    CL_ACTIVE.add(1);
    shared.counters.sessions.fetch_add(1, Ordering::Relaxed);
    shared.counters.active.fetch_add(1, Ordering::Relaxed);

    migrate(shared, &session, 0);
    if shared.shutting_down() || session.done() {
        return;
    }
    let deadline_ms = session.deadline_ms.load(Ordering::Relaxed);
    let welcome = session::welcome(id, deadline_ms, Some(&token), None, session.codec);
    // The Welcome itself is always JSON so a pre-v2 client can read the
    // verdict; everything after it speaks the negotiated codec.
    if !session.send_frame(&welcome, WireCodec::Json, cfg.client_frame_len) {
        park(shared, &session);
        return;
    }
    log_event!(
        "cluster.session.open",
        "session" = id,
        "backend" = lock(&session.state).backend.as_str()
    );
    client_loop(shared, &session, reader);
}

/// Detach the client connection, keeping the session resumable.
fn park<CF: Conn, B: Connector>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
) {
    if let Some(c) = lock(&session.front).take() {
        c.shutdown_both();
    }
    let mut parked = lock(&session.parked_at);
    if parked.is_none() {
        *parked = Some(shared.cfg.clock.now());
        CL_ACTIVE.add(-1);
        shared.counters.active.fetch_sub(1, Ordering::Relaxed);
        log_event!("cluster.session.park", "session" = session.id);
    }
}

/// The post-handshake frontend loop: dedup + forward intervals, answer
/// probes, relay `Bye`. Exits by parking on client disconnect or when
/// the session completes.
///
/// Intervals are forwarded to the backend as the exact bytes the client
/// sent (backend readers sniff the codec per frame), decoded here only
/// for validation, dedup and routing metadata — the decode/re-encode
/// round trip of the JSON-era router is gone from both directions of
/// the hot path.
fn client_loop<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    mut reader: FrameReader<CF>,
) {
    let mut stalls = Stalls::default();
    loop {
        if shared.shutting_down() || session.done() {
            return;
        }
        // A read error, a frame stalled past the budget, and a frame
        // that framed correctly but does not decode all end the
        // connection the same way: park, the client may resume.
        let polled = match reader.poll_frame_raw() {
            Ok(None) if !stalls.timed_out(reader.pending()) => continue,
            Ok(Some(raw)) => raw.decode().ok().map(|f| (f, raw)),
            Ok(None) | Err(_) => None,
        };
        let Some((frame, raw)) = polled else {
            if !session.done() {
                park(shared, session);
            }
            return;
        };
        stalls.progressed();
        if let Some(reply) = session::probe_reply(&frame, || shared.counters.stats_frame()) {
            session.send_frame(&reply, session.codec, shared.cfg.client_frame_len);
            continue;
        }
        match frame {
            Frame::Interval {
                seq,
                update,
                trace_id,
            } => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                let port = update.port;
                // The client reader's cap is normally below the backend
                // link's raised cap; guard the inverted-config case
                // rather than feeding the backend a frame its reader
                // must reject.
                if raw.bytes().len() > HEADER_LEN + shared.cfg.backend_frame_len {
                    shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let bytes = raw.into_bytes();
                // Duplicate retransmit of an answered seq: replay from
                // the log, never re-forward (no window is fed twice).
                if let Some(b) = session.ledger.answered(seq) {
                    CL_REPLAYED.inc();
                    shared.counters.replayed.fetch_add(1, Ordering::Relaxed);
                    shared.counters.replies.fetch_add(1, Ordering::Relaxed);
                    session.send_client(&b);
                    continue;
                }
                let mut st = lock(&session.state);
                if st.pending.contains_key(&seq) {
                    // Already in flight (client retransmit racing the
                    // backend's reply): drop, the reply will arrive.
                    continue;
                }
                st.pending.insert(
                    seq,
                    PendingEntry {
                        port,
                        bytes: bytes.clone(),
                        sent_at: shared.cfg.clock.now(),
                        trace_id,
                    },
                );
                CL_FORWARDED.inc();
                st.send(&bytes);
            }
            Frame::Bye => {
                let mut st = lock(&session.state);
                st.bye = true;
                if let Ok(bye) =
                    encode_frame_with(&Frame::Bye, st.link, shared.cfg.backend_frame_len)
                {
                    st.send(&bye);
                }
                // Keep reading: the ByeAck arrives via the link reader
                // and flips `done`.
            }
            _ => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
