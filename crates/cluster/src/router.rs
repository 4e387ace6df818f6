//! The cluster router: N independent `fmml-serve` nodes behind one
//! wire-compatible endpoint.
//!
//! ```text
//!             ┌──────────────────────── router ────────────────────────┐
//!  clients ──▶│ frontend reader ─▶ dedup/replay ─▶ per-session backend │──▶ serve node A
//!   (Hello/   │   (per session)      (Ledger)           link           │──▶ serve node B
//!  Interval)  │        ▲                                 │            │──▶ serve node C
//!             │        └── replies ◀── link reader ◀─────┘            │
//!             │  prober: Stats liveness                               │
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
    encode_frame_with, write_bytes, Frame, FrameReader, RawFrame, WireCodec, MAX_FRAME_LEN,
};
use fmml_serve::session::{self, Count, Counters, FrontEnd, Identity, Ledger, Metrics, Step};
use fmml_serve::transport::{spawn_acceptor, split, Acceptor, Threads, WRITE_TIMEOUT};
use fmml_serve::{Conn, Connector, TcpConnector, TcpTransport, Transport};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The router's `StatsReply` counters, named `cluster.*`; it never
/// batches or enforces, so those three stay 0.
static METRICS: Metrics = Metrics {
    sessions: Counter::new("cluster.sessions"),
    active: Gauge::new("cluster.sessions.active"),
    accepted: Counter::new("cluster.accepted"),
    rejected: Counter::new("cluster.rejected"),
    malformed: Counter::new("cluster.malformed"),
    replies: Counter::new("cluster.replies"),
    writes: Counter::new("cluster.writes"),
    batches: Counter::new("cluster.batches"),
    deadline_misses: Counter::new("cluster.deadline_miss"),
    violations: Counter::new("cluster.violations"),
    slow_disconnects: Counter::new("cluster.slow_disconnects"),
    resumes: Counter::new("cluster.resumes"),
    replayed: Counter::new("cluster.replayed"),
};
static CL_FORWARDED: Counter = Counter::new("cluster.forwarded");
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
    /// Socket read poll granularity.
    pub read_timeout: Duration,
    /// Sessions whose client vanished are kept resumable this long
    /// (injected clock) before being dropped.
    pub parked_ttl: Duration,
    /// Preferred wire codec for client sessions and backend links (bin1
    /// by default). The router negotiates [`WireCodec::Bin1`] only with
    /// peers that advertise it; everyone else stays on JSON, so mixed
    /// fleets keep working (`--wire` on `fmml cluster`).
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
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(250),
            probe_failures: 3,
            dial_timeout: Duration::from_secs(2),
            pending_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_millis(25),
            parked_ttl: Duration::from_secs(30),
            wire: WireCodec::Bin1,
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

/// One backend's registration + health state.
struct BackendEntry<B> {
    connector: Arc<B>,
    up: bool,
    fails: u32,
}

/// Introspection snapshot of one backend ([`RouterHandle::backends`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    pub name: String,
    pub up: bool,
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

/// The client side of a session. `attach` counts the connections that
/// have been attached; a connection's loop may park the session only
/// while its attach is still the current one. A resume can land before
/// the old connection's loop has seen its EOF, and that loop must then
/// leave the new connection alone.
struct Front<CF> {
    conn: Option<CF>,
    attach: u64,
    /// Set while no client is attached (injected clock): the TTL sweep
    /// expires the session from here.
    parked_at: Option<Instant>,
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
    front: Mutex<Front<CF>>,
    ledger: Ledger,
    answered: AtomicU64,
    state: Mutex<RouteState<CB>>,
    done: AtomicBool,
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
        match g.conn.as_mut() {
            None => false,
            Some(c) => match write_bytes(c, bytes) {
                Ok(()) => true,
                Err(_) => {
                    c.shutdown_both();
                    g.conn = None;
                    false
                }
            },
        }
    }
}

/// Live sessions by resume token.
type SessionMap<CF, BC> = HashMap<String, Arc<SessionInner<CF, BC>>>;

struct RouterShared<CF: Conn, B: Connector> {
    cfg: RouterConfig,
    ring: Mutex<HashRing>,
    backends: Mutex<BTreeMap<String, BackendEntry<B>>>,
    sessions: Mutex<SessionMap<CF, B::Conn>>,
    threads: Arc<Threads>,
    shutdown: AtomicBool,
    counters: Counters,
    migrations: Count,
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
    acceptor: Option<Acceptor>,
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

    /// Health snapshot of every registered backend.
    pub fn backends(&self) -> Vec<BackendInfo> {
        lock(&self.shared.backends)
            .iter()
            .map(|(name, b)| BackendInfo {
                name: name.clone(),
                up: b.up,
            })
            .collect()
    }

    /// This router's counters as a [`Frame::StatsReply`].
    pub fn stats(&self) -> Frame {
        self.shared.counters.stats_frame()
    }

    /// `(sessions migrated, sessions resumed, replies replayed)`.
    pub fn cluster_stats(&self) -> (u64, u64, u64) {
        let c = &self.shared.counters;
        (
            self.shared.migrations.get(),
            c.resumes.get(),
            c.replayed.get(),
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
            if let Some(c) = lock(&s.front).conn.take() {
                c.shutdown_both();
            }
            s.sever_link();
        }
        if let Some(a) = self.acceptor.take() {
            a.join();
        }
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
        self.shared.threads.join_all();
        log_event!(
            "cluster.shutdown",
            "sessions" = self.shared.counters.sessions.get(),
            "migrations" = self.shared.migrations.get()
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
        threads: Arc::default(),
        shutdown: AtomicBool::new(false),
        counters: Counters::new(&METRICS),
        migrations: Count::new(&CL_MIGRATIONS),
        next_session: AtomicU64::new(0),
        token_seed: Mutex::new(token_seed),
    });

    let acceptor = {
        let (stop, shared) = (Arc::clone(&shared), Arc::clone(&shared));
        spawn_acceptor(
            frontend,
            "cluster",
            Arc::clone(&shared.threads),
            move || stop.shutting_down(),
            move |conn| {
                let shared = Arc::clone(&shared);
                move || handle_client(&shared, conn)
            },
        )
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

/// Dial a backend, send it `frame` — as JSON: nothing is negotiated
/// yet — and wait for the first frame back: the reply, the link's write
/// half and its reader, or `None` if any of that failed. Patience runs on
/// the injected clock: under a virtual clock a stalled link times out
/// when the driver advances time, not when the wall clock does — so the
/// wait also honours shutdown, or a dial in flight when the driver stops
/// pumping time would never reach its deadline and the join would hang.
fn ask<CF: Conn, B: Connector>(
    shared: &RouterShared<CF, B>,
    connector: &B,
    frame: &Frame,
    write_timeout: Duration,
    patience: Duration,
) -> Option<(Frame, B::Conn, FrameReader<B::Conn>)> {
    let cfg = &shared.cfg;
    let conn = connector.connect().ok()?;
    let poll = Duration::from_millis(2);
    let (mut reader, mut conn) = split(conn, poll, write_timeout)?;
    let bytes = encode_frame_with(frame, WireCodec::Json, MAX_FRAME_LEN).ok()?;
    write_bytes(&mut conn, &bytes).ok()?;
    let deadline = cfg.clock.now() + patience;
    loop {
        match reader.poll_frame() {
            Ok(Some(reply)) => return Some((reply, conn, reader)),
            Ok(None) if cfg.clock.now() < deadline && !shared.shutting_down() => {}
            _ => return None,
        }
    }
}

/// Probe a backend with one `Stats`: whether it answered with a
/// `StatsReply` in time.
fn probe_backend<CF: Conn, B: Connector>(shared: &RouterShared<CF, B>, connector: &B) -> bool {
    let patience = shared.cfg.probe_timeout;
    matches!(
        ask(shared, connector, &Frame::Stats, patience, patience),
        Some((Frame::StatsReply { .. }, ..))
    )
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
            if probe_backend(shared, connector.as_ref()) {
                let promoted = lock(&shared.backends).get_mut(&name).is_some_and(|b| {
                    b.fails = 0;
                    !std::mem::replace(&mut b.up, true)
                });
                if promoted {
                    log_event!("cluster.backend.up", "backend" = name.as_str());
                    lock(&shared.ring).add(&name);
                    CL_BACKENDS_UP.set(shared.backends_up() as i64);
                    rebalance(shared);
                }
            } else if shared.mark_backend_failed(&name) && was_up {
                rebalance(shared);
            }
        }
        sweep_parked(shared);
        sweep_stuck(shared);
        shared.cfg.clock.sleep(shared.cfg.probe_interval);
    }
}

/// Drop parked sessions whose TTL (injected clock) expired.
fn sweep_parked<CF: Conn, B: Connector>(shared: &Arc<RouterShared<CF, B>>) {
    let now = shared.cfg.clock.now();
    let expired: Vec<Arc<SessionInner<CF, B::Conn>>> = lock(&shared.sessions)
        .values()
        .filter(|s| {
            lock(&s.front)
                .parked_at
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
        Ok(h) => shared.threads.track(h),
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

/// Dial `connector` and run the `Hello` handshake for `hello` (its
/// `codecs` field carries the advertisement).
fn dial_backend<CF: Conn, CB: Conn, B: Connector<Conn = CB>>(
    shared: &RouterShared<CF, B>,
    connector: &B,
    hello: &Frame,
) -> DialOutcome<CB> {
    let cfg = &shared.cfg;
    match ask(shared, connector, hello, WRITE_TIMEOUT, cfg.dial_timeout) {
        Some((
            Frame::Welcome {
                deadline_ms, codec, ..
            },
            writer,
            reader,
        )) => {
            let codec = codec.as_deref().and_then(WireCodec::parse);
            DialOutcome::Ok {
                writer,
                reader,
                deadline_ms,
                codec: codec.unwrap_or_default(),
            }
        }
        Some((Frame::Error { code, .. }, ..)) if code == "draining" => DialOutcome::Draining,
        _ => DialOutcome::Failed,
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
        let hello = session.identity.hello(
            None,
            (session.codec == WireCodec::Bin1).then(WireCodec::advertise),
        );
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
                        if let Ok(bye) = encode_frame_with(&Frame::Bye, codec, MAX_FRAME_LEN) {
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
                    shared.migrations.inc();
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
                shared.threads.track(h);
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
                // A no-op unless this link is still the session's own.
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
/// replay log and the client verbatim — no re-encode, and
/// bitwise-identical content across the hop by construction. JSON
/// payloads and rare control frames take the full decode fallback:
/// `ByeAck` completes the session, `Error` re-places it, JSON replies
/// are routed by seq, and anything else is ignored.
fn handle_backend_frame<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    raw: RawFrame,
    my_epoch: u64,
) -> bool {
    let (seq, tag) = match raw.meta().and_then(|m| Some((m.reply_seq()?, m.tag))) {
        Some(reply) => reply,
        None => match raw.decode() {
            Ok(Frame::ByeAck { .. }) => {
                let remaining = {
                    let st = lock(&session.state);
                    if st.epoch != my_epoch {
                        return false;
                    }
                    st.pending.len() as u64
                };
                let answered = session.answered.load(Ordering::Relaxed);
                let ba = Frame::ByeAck {
                    answered,
                    remaining,
                };
                if let Ok(b) = encode_frame_with(&ba, session.codec, MAX_FRAME_LEN) {
                    session.send_client(&b);
                }
                session.done.store(true, Ordering::Release);
                session.sever_link();
                lock(&shared.sessions).remove(&session.token);
                shared.counters.detached();
                log_event!("cluster.session.close", "session" = session.id);
                return false;
            }
            Ok(Frame::Error { code, .. }) => {
                // Backend-level error (shutting_down, …): the link is gone.
                let code = code.as_str();
                log_event!(
                    "cluster.backend.error",
                    "session" = session.id,
                    "code" = code
                );
                migrate(shared, session, my_epoch);
                return false;
            }
            // A late `Welcome`, a probe reply, or a bogus `Interval` (a
            // backend never sends one) has nothing to route.
            Ok(frame) => match frame.reply_seq() {
                Some(seq) => (seq, frame.tag()),
                None => return true,
            },
            // Framed but does not decode: the link is corrupt; repair
            // it exactly like a read error.
            Err(_) => {
                migrate(shared, session, my_epoch);
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
            // `Busy` and `Reject` left the backend's window untouched.
            if matches!(tag, "Ack" | "Imputed") {
                st.push_history(seq, p.port, p.bytes, session.identity.window_intervals);
            }
        }
        // Record before send, and under the state lock: `client_loop`
        // checks `pending` and the ledger under the same lock, so a
        // seq is never in both.
        session.ledger.commit(seq, raw.bytes());
    }
    session.answered.fetch_add(1, Ordering::Relaxed);
    let sent = session.send_client(raw.bytes());
    shared.counters.answered(tag, sent);
    true
}

/// One client connection: pre-handshake probes, `Hello` (fresh or
/// resume), then the forwarding loop.
fn handle_client<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    conn: CF,
) {
    let cfg = &shared.cfg;
    let Some((mut reader, mut writer)) = split(conn, cfg.read_timeout, WRITE_TIMEOUT) else {
        return;
    };
    let mut front = FrontEnd::new(&shared.counters);

    let Some(hello) = front.read_hello(
        &mut reader,
        || cfg.clock.now(),
        || shared.shutting_down(),
        |b| write_bytes(&mut writer, b).is_ok(),
    ) else {
        return;
    };
    shared.counters.sessions.inc();

    // Resume: re-attach to a tracked session that was opened with the
    // identity this Hello claims. Unknown/expired/mismatched token:
    // fall through to fresh.
    let existing = hello
        .resume_token
        .as_ref()
        .and_then(|tok| lock(&shared.sessions).get(tok).cloned())
        .filter(|s| !s.done() && s.identity == hello.identity);
    if let Some(session) = existing {
        let attach = {
            let mut f = lock(&session.front);
            if let Some(old) = f.conn.replace(writer) {
                old.shutdown_both();
            }
            if f.parked_at.take().is_some() {
                shared.counters.attached();
            }
            f.attach += 1;
            f.attach
        };
        let deadline_ms = session.deadline_ms.load(Ordering::Relaxed);
        let (id, token, codec) = (session.id, Some(session.token.as_str()), session.codec);
        let resumed = front.resume(
            &session.ledger,
            hello.last_acked,
            None,
            |resume_seq| session::welcome(id, deadline_ms, token, Some(resume_seq), codec),
            codec,
            |b| session.send_client(b),
        );
        if !resumed {
            park(shared, &session, attach);
            return;
        }
        log_event!("cluster.session.resume", "session" = session.id);
        client_loop(shared, &session, attach, front, reader);
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
        front: Mutex::new(Front {
            conn: Some(writer),
            attach: 0,
            parked_at: None,
        }),
        ledger: Ledger::new(session::REPLAY_WINDOW),
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
    });
    lock(&shared.sessions).insert(token.clone(), Arc::clone(&session));
    shared.counters.attached();

    migrate(shared, &session, 0);
    if shared.shutting_down() || session.done() {
        return;
    }
    let deadline_ms = session.deadline_ms.load(Ordering::Relaxed);
    let welcome = session::welcome(id, deadline_ms, Some(&token), None, session.codec);
    if !front.welcome(&welcome, session.codec, |b| session.send_client(b)) {
        park(shared, &session, 0);
        return;
    }
    log_event!(
        "cluster.session.open",
        "session" = id,
        "backend" = lock(&session.state).backend.as_str()
    );
    client_loop(shared, &session, 0, front, reader);
}

/// Detach the client connection of `attach`, keeping the session
/// resumable. A no-op once a newer connection has attached.
fn park<CF: Conn, B: Connector>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    attach: u64,
) {
    let mut f = lock(&session.front);
    if f.attach != attach {
        return;
    }
    if let Some(c) = f.conn.take() {
        c.shutdown_both();
    }
    if f.parked_at.is_none() {
        f.parked_at = Some(shared.cfg.clock.now());
        shared.counters.detached();
        log_event!("cluster.session.park", "session" = session.id);
    }
}

/// The router's driver of the read step ([`FrontEnd::step`]): forward
/// each new interval to the backend as the exact bytes the client sent
/// (backend readers sniff the codec per frame) and relay `Bye`. Exits
/// when the session completes, or parks it when the connection ends —
/// the client may resume.
fn client_loop<CF: Conn, B: Connector + Send + Sync + 'static>(
    shared: &Arc<RouterShared<CF, B>>,
    session: &Arc<SessionInner<CF, B::Conn>>,
    attach: u64,
    mut front: FrontEnd,
    mut reader: FrameReader<CF>,
) {
    loop {
        if shared.shutting_down() || session.done() {
            return;
        }
        match front.step(&mut reader, &session.ledger, |b| session.send_client(b)) {
            Step::Idle => {}
            Step::Interval {
                seq,
                update,
                trace_id,
                bytes,
            } => {
                let mut st = lock(&session.state);
                if st.pending.contains_key(&seq) || session.ledger.answered(seq).is_some() {
                    // A client re-send of a seq in flight, or answered
                    // since `step` looked: its reply reaches the client
                    // from the link thread. Forwarding it again would
                    // leave a committed seq pending forever
                    // (`handle_backend_frame` drops the backend's
                    // duplicate answer), and `ByeAck` would count it.
                    continue;
                }
                CL_FORWARDED.inc();
                st.send(bytes);
                let entry = PendingEntry {
                    port: update.port,
                    bytes: bytes.to_vec(),
                    sent_at: shared.cfg.clock.now(),
                    trace_id,
                };
                st.pending.insert(seq, entry);
            }
            Step::Bye => {
                let mut st = lock(&session.state);
                st.bye = true;
                if let Ok(bye) = encode_frame_with(&Frame::Bye, st.link, MAX_FRAME_LEN) {
                    st.send(&bye);
                }
                // Keep reading: the ByeAck arrives via the link reader
                // and flips `done`.
            }
            Step::Ended(_) => {
                if !session.done() {
                    park(shared, session, attach);
                }
                return;
            }
        }
    }
}
