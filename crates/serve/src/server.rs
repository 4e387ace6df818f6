//! The `fmml-serve` server: acceptor + reader-per-session + a shared
//! worker pool doing micro-batched CEM enforcement.
//!
//! ```text
//!            ┌────────────┐  Hello/Interval  ┌─────────────────────────┐
//!  clients ─▶│  acceptor  │─────────────────▶│ reader thread (per      │
//!            └────────────┘                  │ session): validate,     │
//!                                            │ window, model forward,  │
//!                                            │ stage admitted jobs     │
//!                                            └────────────┬────────────┘
//!                                                         │ one push + one
//!                                                         ▼ notify per group
//!                                            ┌─────────────────────────┐
//!                                            │ shared job queue        │
//!                                            └────────────┬────────────┘
//!                                                         │ pop ≤ max_batch,
//!                                                         ▼ never wait
//!                                            ┌─────────────────────────┐
//!                                            │ worker pool: one        │
//!                                            │ enforce_degraded_batch  │
//!                                            │ per batch, shared cache │
//!                                            └────────────┬────────────┘
//!                                                         │ one write per run
//!                                                         ▼ of a session's replies
//!                                         Imputed{series, level} per seq
//! ```
//!
//! Micro-batches form where a burst is visible: the reader hands its
//! staged group to the pool once no complete frame is left in its read
//! buffer, at `max_batch`, when one more forward would hold the group
//! past `BATCH_WAIT`, and before any other frame or exit. Workers never
//! wait for stragglers.
//!
//! Division of labour keeps replies *bitwise-identical* to the offline
//! path: the reader thread does everything order-sensitive (sliding
//! window, model forward) sequentially per session, producing
//! a one-interval `(constraints, prediction)` item per admitted interval
//! (`StreamingImputer::try_prepare_newest`: the interval the reply ships
//! is the one the model's last block computes and the one that is
//! enforced); workers only run `enforce_degraded_batch`
//! over coalesced items — the same pure function an offline pipeline
//! calls, and interval-local, so the reply equals the newest slice of
//! enforcing the whole window.
//!
//! Admission control: each session has a bounded in-flight budget
//! (`queue_depth`); intervals over budget are answered `Busy` and
//! dropped (`serve.rejected`). A peer that stops reading its replies
//! blocks a worker's write until the write timeout, after which the
//! session is killed (`serve.slow_disconnects`) rather than letting one
//! slow reader wedge the pool. Shutdown drains: the acceptor closes,
//! readers stop ingesting and wait for their in-flight replies, workers
//! exit once the queue is empty and every reader is gone.

use crate::protocol::{
    encode_frame_with, write_bytes, Frame, FrameReader, WireCodec, WireError, MAX_FRAME_LEN,
};
use crate::session::{
    self, Count, Counters, FrontEnd, Identity, Ledger, Metrics, ProtocolBug, Step,
};
use crate::transport::{
    spawn_acceptor, split, Acceptor, Conn, TcpTransport, Threads, Transport, WRITE_TIMEOUT,
};
use fmml_core::streaming::{IntervalItem, IntervalUpdate, StreamingImputer};
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_fault::{record_process_fault, FaultKind, ProcessFaultPlan};
use fmml_fm::cem::{
    cache::DEFAULT_CAPACITY, enforce_degraded_batch, CemEngine, DegradationLevel, EnforceOptions,
    LadderConfig, SolutionCache,
};
use fmml_obs::trace::{self, TraceContext};
use fmml_obs::{log_event, Clock, Counter, FloatGauge, Gauge, Histogram, Unit};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static METRICS: Metrics = Metrics {
    sessions: Counter::new("serve.sessions"),
    active: Gauge::new("serve.sessions.active"),
    accepted: Counter::new("serve.accepted"),
    rejected: Counter::new("serve.rejected"),
    malformed: Counter::new("serve.malformed"),
    replies: Counter::new("serve.replies"),
    writes: Counter::new("serve.writes"),
    batches: Counter::new("serve.batches"),
    deadline_misses: Counter::new("serve.deadline_miss"),
    violations: Counter::new("serve.violations"),
    slow_disconnects: Counter::new("serve.slow_disconnects"),
    resumes: Counter::new("serve.resumes"),
    replayed: Counter::new("serve.replayed"),
};
static BATCH_SIZE: Histogram = Histogram::new("serve.batch_size", Unit::Count);
/// Reader → pool hand-offs: one queue push and one wake-up each.
static HANDOFFS: Counter = Counter::new("serve.handoffs");
static LATENCY_US: Histogram = Histogram::new("serve.latency_us", Unit::Micros);

// Worker recovery and resumption.
static WORKER_PANICS: Counter = Counter::new("serve.worker.panics");
static WORKER_RESTARTS: Counter = Counter::new("serve.worker.restarts");
static REQUEUE_LATENCY_US: Histogram =
    Histogram::new("serve.worker.requeue_latency_us", Unit::Micros);
static RESUME_MISSES: Counter = Counter::new("serve.resume_misses");
static PARKED_SESSIONS: Gauge = Gauge::new("serve.sessions.parked");

// Per-stage latency histograms: one interval's journey decomposed as
// decode → forward → queue → batch → enforce → encode → write. Samples
// are recorded in nanoseconds and scaled to the display unit at snapshot.
static STAGE_DECODE_US: Histogram = Histogram::new("serve.stage.decode_us", Unit::Micros);
static STAGE_FORWARD_US: Histogram = Histogram::new("serve.stage.forward_us", Unit::Micros);
static STAGE_QUEUE_US: Histogram = Histogram::new("serve.stage.queue_us", Unit::Micros);
static STAGE_BATCH_US: Histogram = Histogram::new("serve.stage.batch_us", Unit::Micros);
static STAGE_ENFORCE_US: Histogram = Histogram::new("serve.stage.enforce_us", Unit::Micros);
static STAGE_ENCODE_US: Histogram = Histogram::new("serve.stage.encode_us", Unit::Micros);
static STAGE_WRITE_US: Histogram = Histogram::new("serve.stage.write_us", Unit::Micros);

// SLO watchdog exposition (sliding window over recent replies).
static SLO_MISS_RATE: FloatGauge = FloatGauge::new("slo.deadline_miss_rate");
static SLO_DEGRADED_RATE: FloatGauge = FloatGauge::new("slo.degraded_rate");
static SLO_QUEUE_DEPTH: Gauge = Gauge::new("slo.queue_depth");
static SLO_WINDOW_REPLIES: Gauge = Gauge::new("slo.window_replies");
static SLO_BREACHES: Counter = Counter::new("slo.breaches");

/// Span name for the enforce stage, keyed by the rung the batch's ladder
/// actually landed on — so a flamegraph separates full-fidelity solves
/// from degraded ones without needing per-span payloads.
fn enforce_span_name(level: DegradationLevel) -> &'static str {
    match level {
        DegradationLevel::Full => "serve.enforce[full]",
        DegradationLevel::EscalatedRetry => "serve.enforce[retry]",
        DegradationLevel::FastFallback => "serve.enforce[fast_fallback]",
        DegradationLevel::ClampProjection => "serve.enforce[clamp]",
        DegradationLevel::MeasurementRelaxed => "serve.enforce[relaxed]",
    }
}

/// Sanity caps on the `Hello` geometry, checked before any per-session
/// allocation happens, so a hostile `Hello` (e.g. `window_intervals =
/// 10^15`) is answered `bad_handshake` instead of driving
/// `queues × window × interval_len` allocations to abort. The window
/// (`interval_len × window_intervals`) must also fit the loaded model's
/// `max_len`, or the first full window would panic the reader.
const MAX_PORTS_PER_SESSION: usize = 64;
const MAX_QUEUES: usize = 64;
pub const MAX_INTERVAL_LEN: usize = 512;
pub const MAX_WINDOW_INTERVALS: usize = 64;
/// SLO watchdog sliding-window length: replies older than this fall out
/// of the deadline-miss / degradation rates.
const SLO_WINDOW: Duration = Duration::from_secs(5);
/// How often the watchdog re-evaluates the window and republishes the
/// `slo.*` gauges.
const SLO_TICK: Duration = Duration::from_millis(200);
/// Minimum replies in the window before breach math applies (a single
/// slow reply at startup is not an SLO event).
const SLO_MIN_SAMPLES: usize = 20;
/// Deadline-miss rate above which the SLO watchdog declares a breach.
const SLO_MAX_MISS_RATE: f64 = 0.05;
/// Fraction of replies degraded below [`DegradationLevel::Full`] above
/// which the SLO watchdog declares a breach.
const SLO_MAX_DEGRADED_RATE: f64 = 0.5;

/// How long a reader may hold admitted intervals while later frames of
/// the same burst are still buffered: a group is handed over when one
/// more forward (judged by the one just run, on the server's clock) would
/// hold its oldest interval past this. Under a virtual clock a forward
/// takes no time, so while virtual time is held still, grouping depends
/// only on the bytes buffered. A constant because 1 ms is a fiftieth of
/// the 50 ms wire period and every deployment and harness ran it.
const BATCH_WAIT: Duration = Duration::from_millis(1);

/// The most panics in a row, with no finished batch in between, that a
/// worker recovers from in place; one more and it gives up
/// (`worker.dead`). A lone worker under an injected panic cadence of 2
/// or more never panics twice in a row: a retried batch gets a fresh
/// ordinal.
pub const MAX_CONSECUTIVE_PANICS: u32 = 5;

/// The most disconnected sessions parked for a resume at once.
pub const MAX_PARKED: usize = 64;

/// Server tuning knobs. `Default` is the 50 ms wire-period deployment
/// from the paper's §5 on loopback.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// CEM worker threads, each running one micro-batch at a time on
    /// its own thread: a node's CEM parallelism.
    pub workers: usize,
    /// Per-interval end-to-end budget: accept→reply-written. Misses are
    /// counted (`serve.deadline_miss`).
    pub deadline: Duration,
    /// Micro-batch size cap: the most admitted intervals a reader stages
    /// before handing them to the pool, and the most a worker pops.
    pub max_batch: usize,
    /// Per-session in-flight cap; intervals beyond it are answered
    /// `Busy` (admission control).
    pub queue_depth: usize,
    /// Socket read timeout — the reader's shutdown-poll granularity.
    pub read_timeout: Duration,
    /// How long a disconnected session stays parked for a resume (at
    /// most [`MAX_PARKED`] are; the oldest is evicted first).
    pub parked_ttl: Duration,
    /// Deterministic process-fault injection, the recovery chaos hook
    /// (inactive by default; see [`ProcessFaultPlan`]).
    pub process_faults: ProcessFaultPlan,
    /// Preferred wire codec (`--wire`; bin1 by default): the `Welcome`
    /// picks it when the `Hello` advertises it, else JSON. Decoding is
    /// sniffed per frame, so this knob never rejects anyone.
    pub wire: WireCodec,
    /// Time source for every deadline, TTL and watchdog tick:
    /// [`Clock::System`] in production, a virtual clock under simulation.
    pub clock: Clock,
    /// A deliberate protocol bug, so `fmml-simtest` can show that its
    /// checker catches one. `None` in production.
    pub injected_bug: Option<ProtocolBug>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            deadline: Duration::from_millis(50),
            max_batch: 16,
            queue_depth: 64,
            read_timeout: Duration::from_millis(25),
            parked_ttl: Duration::from_secs(30),
            wire: WireCodec::Bin1,
            process_faults: ProcessFaultPlan::none(),
            clock: Clock::System,
            injected_bug: None,
        }
    }
}

/// One declared SLO violation, kept (bounded) on the server handle so
/// operators and tests can ask "what breached, and which traces show
/// it" after the fact. The same information is emitted live as a
/// `slo.breach` RunLog event.
#[derive(Debug, Clone)]
pub struct SloBreach {
    /// `"deadline_miss_rate"` or `"degraded_rate"`.
    pub kind: &'static str,
    /// The offending rate over the sliding window at declaration time.
    pub rate: f64,
    /// The configured threshold it exceeded.
    pub threshold: f64,
    /// Replies in the window when the breach was declared.
    pub window_replies: usize,
    /// Trace ids of offending replies (deadline-missed or degraded ones
    /// respectively) — each reconstructable from a journal snapshot.
    pub trace_ids: Vec<u64>,
}

/// What the worker pool tells the watchdog about each written reply.
struct ReplyObs {
    at: Instant,
    /// Whether the reply counts toward each of the [`RATES`]: deadline
    /// missed, degraded.
    over: [bool; 2],
    trace_id: u64,
}

/// The rates the watchdog watches: kind, gauge, threshold.
static RATES: [(&str, &FloatGauge, f64); 2] = [
    ("deadline_miss_rate", &SLO_MISS_RATE, SLO_MAX_MISS_RATE),
    ("degraded_rate", &SLO_DEGRADED_RATE, SLO_MAX_DEGRADED_RATE),
];

/// Replies retained for the sliding window (hard cap so a hot server
/// can't grow the deque without bound between watchdog ticks).
const SLO_OBS_CAP: usize = 8192;
/// Breach records retained on the handle.
const SLO_BREACH_CAP: usize = 64;
/// Trace ids attached to one breach record / event.
const SLO_BREACH_TRACES: usize = 8;

/// The write half of a session, shared between its reader thread and the
/// worker pool. All frame writes go through it under one mutex, so
/// replies never interleave mid-frame.
///
/// This is also the object that *survives* a disconnect: on resumption
/// the new connection's stream is swapped in under the mutex and `dead`
/// is re-armed, so in-flight workers keep writing to wherever the
/// session currently lives.
struct SessionWriter<C: Conn> {
    stream: Mutex<C>,
    /// Intervals accepted but not yet answered (admission-control level).
    inflight: AtomicUsize,
    /// Replies successfully written (for `ByeAck`).
    answered: AtomicU64,
    dead: AtomicBool,
    /// Committed replies: replay window + resolved-seq watermark.
    ledger: Ledger,
    /// The codec the `Welcome` negotiated, fixed for the session's whole
    /// lineage (parked state included) so replay-log bytes stay valid
    /// across resume.
    codec: WireCodec,
}

impl<C: Conn> SessionWriter<C> {
    /// Write encoded frames; on failure the session is marked dead and
    /// the socket shut down (waking the reader thread). Returns success.
    fn send_bytes(&self, shared: &Shared<C>, bytes: &[u8]) -> bool {
        let mut stream = self.stream.lock().unwrap();
        self.write_locked(shared, &mut stream, bytes)
    }

    /// Ship a worker's run of `slots` admitted intervals, `replies` of
    /// them encoded into `bytes` (already committed to the ledger), in
    /// one write. The slots are released under the stream lock, before
    /// the write: a client that answers each reply with a new interval
    /// always finds its slot free. `answered` grows under the same lock,
    /// so [`send_bye_ack`](SessionWriter::send_bye_ack) never counts a
    /// run whose write has not landed.
    fn send_run(&self, shared: &Shared<C>, bytes: &[u8], slots: usize, replies: u64) -> bool {
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        self.inflight.fetch_sub(slots, Ordering::AcqRel);
        let sent = self.write_locked(shared, &mut stream, bytes);
        if sent {
            self.answered.fetch_add(replies, Ordering::Relaxed);
        }
        sent
    }

    /// Answer `Bye` once its drain has run: `answered` and `remaining`
    /// are read under the stream lock, after every run that released
    /// its slots has written.
    fn send_bye_ack(&self, shared: &Shared<C>) -> bool {
        let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        let frame = Frame::ByeAck {
            answered: self.answered.load(Ordering::Relaxed),
            remaining: self.inflight.load(Ordering::Acquire) as u64,
        };
        let Ok(bytes) = encode_frame_with(&frame, self.codec, MAX_FRAME_LEN) else {
            return false;
        };
        self.write_locked(shared, &mut stream, &bytes)
    }

    /// Write through an already-held stream lock; on failure the session
    /// is marked dead and the socket shut down (waking the reader).
    fn write_locked(&self, shared: &Shared<C>, stream: &mut C, bytes: &[u8]) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        match write_bytes(stream, bytes) {
            Ok(()) => true,
            Err(e) => {
                if !self.dead.swap(true, Ordering::AcqRel) {
                    if e == WireError::Timeout {
                        shared.counters.slow_disconnects.inc();
                        log_event!("serve.slow_disconnect");
                    }
                    stream.shutdown_both();
                }
                false
            }
        }
    }

    /// Commit, send and count a per-seq reply frame (the reader-side Ack
    /// / Busy / Reject path; workers commit their replies themselves and
    /// ship them with [`send_run`](SessionWriter::send_run)).
    fn send_reply(&self, shared: &Shared<C>, seq: u64, frame: &Frame) {
        let Ok(bytes) = encode_frame_with(frame, self.codec, MAX_FRAME_LEN) else {
            return;
        };
        self.ledger.commit(seq, &bytes);
        let sent = self.send_bytes(shared, &bytes);
        shared.counters.answered(frame.tag(), sent);
    }

    /// Point the writer at a new connection (resumption). The old stream
    /// is dropped; `dead` is re-armed *after* the swap so a concurrent
    /// worker either fails against the old dead stream (and the reply is
    /// replayed) or succeeds against the new one.
    fn attach(&self, stream: C) {
        *self.stream.lock().unwrap_or_else(PoisonError::into_inner) = stream;
        self.dead.store(false, Ordering::Release);
    }
}

/// One enforcement unit: the interval a reply will ship, as a
/// one-interval `(constraints, prediction)` item, plus where the answer
/// goes.
struct Job<C: Conn> {
    seq: u64,
    port: usize,
    item: IntervalItem,
    accepted_at: Instant,
    /// When the reader staged the job: the queue stage covers the
    /// reader's hold and the shared queue.
    enqueued_at: Instant,
    /// The interval's trace (the `serve.interval` root span's context);
    /// [`TraceContext::NONE`] when tracing is off.
    trace: TraceContext,
    writer: Arc<SessionWriter<C>>,
    /// Set when a worker panic poisoned this job's batch and the worker
    /// re-enqueued it: when the retried reply is finally written,
    /// `requeued_at → now` is the recovery latency.
    requeued_at: Option<Instant>,
}

/// Requeue-latency samples retained on the handle.
const REQUEUE_LAT_CAP: usize = 4096;

struct Shared<C: Conn> {
    cfg: ServerConfig,
    model: Arc<TransformerImputer>,
    cache: Arc<SolutionCache>,
    counters: Counters,
    worker_panics: Count,
    worker_restarts: Count,
    queue: Mutex<VecDeque<Job<C>>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Draining for a planned hand-off: existing sessions keep being
    /// served, but new `Hello`s are answered `Error{code:"draining"}`
    /// so a router moves placements elsewhere before the node stops.
    draining: AtomicBool,
    active_readers: AtomicUsize,
    /// Recent replies for the SLO watchdog's sliding window.
    slo_obs: Mutex<VecDeque<ReplyObs>>,
    /// Declared breaches (bounded at [`SLO_BREACH_CAP`], oldest evicted).
    breaches: Mutex<Vec<SloBreach>>,
    table: Table<C>,
    /// Workers that have not given up; at 0 the node drains and answers
    /// every interval `Busy`.
    live_workers: AtomicUsize,
    /// Recovery latencies of re-enqueued jobs, in µs (bounded).
    requeue_lat: Mutex<Vec<u64>>,
}

impl<C: Conn> Shared<C> {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            log_event!("serve.draining");
        }
    }
}

/// Decrements `active_readers` on drop — **including unwind** — so after
/// a reader panic the worker pool's shutdown condition (`shutting_down &&
/// active_readers == 0`) still holds and [`ServerHandle::shutdown`] ends.
struct ReaderGuard<C: Conn>(Arc<Shared<C>>);

impl<C: Conn> Drop for ReaderGuard<C> {
    fn drop(&mut self) {
        self.0.active_readers.fetch_sub(1, Ordering::AcqRel);
        self.0.queue_cv.notify_all();
    }
}

/// A running server, generic over the connection type it serves
/// (`TcpStream` in production, [`crate::sim::SimConn`] under the
/// simulation harness). Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) leaves the threads running for
/// the life of the process.
pub struct ServerHandle<C: Conn = TcpStream> {
    /// Bound socket address — `Some` only for TCP transports.
    addr: Option<SocketAddr>,
    shared: Arc<Shared<C>>,
    acceptor: Acceptor,
    /// Worker threads exit once the queue is empty and every reader is
    /// gone, or after [`MAX_CONSECUTIVE_PANICS`].
    workers: Vec<JoinHandle<()>>,
    readers: Arc<Threads>,
    watchdog: JoinHandle<()>,
}

impl ServerHandle<TcpStream> {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("TCP server always has a bound address")
    }
}

impl<C: Conn> ServerHandle<C> {
    /// This instance's counters as a [`Frame::StatsReply`].
    pub fn stats(&self) -> Frame {
        self.shared.counters.stats_frame()
    }

    /// The shared solution cache. Always `Some`; the `Option` is the
    /// signature `benchmark/` (frozen by `BENCHMARK.json`) calls.
    pub fn cache(&self) -> Option<&Arc<SolutionCache>> {
        Some(&self.shared.cache)
    }

    /// SLO breaches the watchdog has declared so far (bounded history,
    /// oldest evicted first).
    pub fn slo_breaches(&self) -> Vec<SloBreach> {
        self.shared
            .breaches
            .lock()
            .map(|b| b.clone())
            .unwrap_or_default()
    }

    /// Recovery accounting: `(worker panics, worker restarts)`. A panic
    /// the worker carries on from counts as a restart.
    pub fn worker_stats(&self) -> (u64, u64) {
        (
            self.shared.worker_panics.get(),
            self.shared.worker_restarts.get(),
        )
    }

    /// Resumption accounting: `(sessions resumed, replies replayed)`.
    pub fn resume_stats(&self) -> (u64, u64) {
        let c = &self.shared.counters;
        (c.resumes.get(), c.replayed.get())
    }

    /// Recovery latencies (µs) of intervals that were re-enqueued after
    /// a worker panic: requeue → reply handed to its write. Bounded
    /// sample buffer, filled before the reply reaches the client.
    pub fn requeue_latencies(&self) -> Vec<u64> {
        self.shared
            .requeue_lat
            .lock()
            .map(|v| v.clone())
            .unwrap_or_default()
    }

    /// Sessions currently parked for resumption.
    pub fn parked_count(&self) -> usize {
        parked(&self.shared.table.lock()).count()
    }

    /// Whether a parked session exists for `token` right now: a harness
    /// waits on it for a specific disconnect to park (`parked_count` also
    /// counts expired slots that are not pruned yet).
    pub fn parked_contains(&self, token: &str) -> bool {
        let slots = self.shared.table.lock();
        matches!(slots.get(token), Some(Slot::Parked(..)))
    }

    /// Begin draining for a planned hand-off: existing sessions are
    /// served to completion, but every new `Hello` (fresh *or* resume)
    /// is answered `Error{code:"draining"}` — a router treats that as
    /// "place this session elsewhere". Unlike
    /// [`shutdown`](ServerHandle::shutdown) the node stays up.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether [`begin_drain`](ServerHandle::begin_drain) was called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Signal shutdown and gracefully drain: stop accepting, let every
    /// session's in-flight intervals be answered, join all threads.
    /// Returns the final stats.
    pub fn shutdown(self) -> Frame {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        // Under virtual time, drain loops sleep on the injected clock;
        // from here on nothing semantic is being timed, so let sleepers
        // advance it themselves instead of requiring a driver.
        if let Some(vc) = self.shared.cfg.clock.virtual_handle() {
            vc.set_auto_advance(true);
        }
        self.acceptor.join();
        // Readers exit on their next poll tick (they drain first).
        self.readers.join_all();
        self.shared.queue_cv.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.watchdog.join();
        log_event!(
            "serve.shutdown",
            "sessions" = self.shared.counters.sessions.get(),
            "replies" = self.shared.counters.replies.get()
        );
        self.shared.counters.stats_frame()
    }
}

/// Spawn a server on `cfg.addr` serving imputations from `model`.
pub fn spawn(model: Arc<TransformerImputer>, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let transport = TcpTransport::bind(&cfg.addr)?;
    let addr = transport.addr();
    let mut handle = spawn_with(transport, model, cfg);
    handle.addr = Some(addr);
    Ok(handle)
}

/// Spawn a server over an arbitrary [`Transport`] — the simulation
/// harness passes the in-memory [`crate::sim::SimTransport`] here and
/// gets the identical session and worker machinery.
pub fn spawn_with<T: Transport>(
    transport: T,
    model: Arc<TransformerImputer>,
    cfg: ServerConfig,
) -> ServerHandle<T::Conn> {
    let cache = Arc::new(SolutionCache::new(DEFAULT_CAPACITY));
    let (workers, ttl) = (cfg.workers.max(1), cfg.parked_ttl);
    let shared = Arc::new(Shared {
        cfg,
        model,
        cache,
        counters: Counters::new(&METRICS),
        worker_panics: Count::new(&WORKER_PANICS),
        worker_restarts: Count::new(&WORKER_RESTARTS),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        active_readers: AtomicUsize::new(0),
        slo_obs: Mutex::new(VecDeque::new()),
        breaches: Mutex::new(Vec::new()),
        table: Table {
            slots: Mutex::default(),
            parked_cv: Condvar::new(),
            ttl,
        },
        live_workers: AtomicUsize::new(workers),
        requeue_lat: Mutex::new(Vec::new()),
    });
    let readers = Arc::new(Threads::default());

    let workers = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn worker")
        })
        .collect();

    let acceptor = {
        let (stop, shared) = (Arc::clone(&shared), Arc::clone(&shared));
        spawn_acceptor(
            transport,
            "serve",
            Arc::clone(&readers),
            move || stop.shutting_down(),
            move |conn| {
                // Counted before the thread starts; the guard's drop
                // uncounts it even if `handle_connection` unwinds.
                shared.active_readers.fetch_add(1, Ordering::AcqRel);
                let guard = ReaderGuard(Arc::clone(&shared));
                move || handle_connection(&guard.0, conn)
            },
        )
    };

    let watchdog = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-slo-watchdog".into())
            .spawn(move || watchdog_loop(&shared))
            .expect("spawn watchdog")
    };

    ServerHandle {
        addr: None,
        shared,
        acceptor,
        workers,
        readers,
        watchdog,
    }
}

/// SLO watchdog: every [`SLO_TICK`], prune the sliding window, republish
/// the `slo.*` gauges, and declare breaches on the rising edge of either
/// rate crossing its threshold. Breach events carry the trace ids of
/// offending replies so a journal snapshot can reconstruct exactly what
/// the slow/degraded requests went through.
fn watchdog_loop<C: Conn>(shared: &Arc<Shared<C>>) {
    let clock = &shared.cfg.clock;
    let mut breached = [false; 2];
    loop {
        clock.sleep(SLO_TICK);
        let now = clock.now();
        let mut obs = shared.slo_obs.lock().unwrap();
        obs.retain(|o| now.saturating_duration_since(o.at) <= SLO_WINDOW);
        let replies = obs.len();
        let counted: [(usize, Vec<u64>); 2] = std::array::from_fn(|i| {
            let hits = || obs.iter().filter(|o| o.over[i]);
            let traces = hits().map(|o| o.trace_id).filter(|&t| t != 0);
            (hits().count(), traces.take(SLO_BREACH_TRACES).collect())
        });
        drop(obs);
        SLO_WINDOW_REPLIES.set(replies as i64);
        SLO_QUEUE_DEPTH.set(shared.queue.lock().map(|q| q.len()).unwrap_or(0) as i64);
        let watched = RATES.iter().zip(&mut breached).zip(counted);
        for ((&(kind, gauge, threshold), armed), (hits, trace_ids)) in watched {
            let rate = hits as f64 / replies.max(1) as f64;
            gauge.set(rate);
            let over = replies >= SLO_MIN_SAMPLES && rate > threshold;
            let breach = SloBreach {
                kind,
                rate,
                threshold,
                window_replies: replies,
                trace_ids,
            };
            declare_breach(shared, armed, over, breach);
        }
        if shared.shutting_down() {
            return;
        }
    }
}

/// Rising-edge breach bookkeeping: record + emit only on the off→on
/// transition of one kind, re-arm when the rate recovers.
fn declare_breach<C: Conn>(shared: &Shared<C>, armed: &mut bool, over: bool, breach: SloBreach) {
    let rising = over && !*armed;
    *armed = over;
    if !rising {
        return; // no breach, or still inside the same episode
    }
    SLO_BREACHES.inc();
    log_event!(
        "slo.breach",
        "kind" = breach.kind,
        "rate" = breach.rate,
        "threshold" = breach.threshold,
        "window_replies" = breach.window_replies,
        "traces" = joined(&breach.trace_ids).as_str()
    );
    if let Ok(mut b) = shared.breaches.lock() {
        if b.len() >= SLO_BREACH_CAP {
            b.remove(0);
        }
        b.push(breach);
    }
}

/// Trace ids as one comma-separated log field.
fn joined(ids: &[u64]) -> String {
    ids.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// Per-session state owned by the reader thread.
struct Session<C: Conn> {
    id: u64,
    /// What the session's `Hello` claimed; a reconnect must claim the
    /// same to resume it.
    identity: Identity,
    /// The resume token handed out in `Welcome`: its key in the [`Table`].
    token: String,
    imputers: HashMap<usize, StreamingImputer<Arc<TransformerImputer>>>,
    writer: Arc<SessionWriter<C>>,
    /// Admitted jobs the reader has not handed to the pool yet (see
    /// [`Session::hand_off`]). Empty whenever the reader blocks or the
    /// session parks.
    staged: Vec<Job<C>>,
}

impl<C: Conn> Session<C> {
    /// Hand every staged job to the pool: one queue lock, one wake-up.
    fn hand_off(&mut self, shared: &Shared<C>) {
        if self.staged.is_empty() {
            return;
        }
        HANDOFFS.inc();
        shared.queue.lock().unwrap().extend(self.staged.drain(..));
        shared.queue_cv.notify_one();
    }
}

/// A token's slot in the [`Table`].
enum Slot<C: Conn> {
    /// Served as session `.0`: the writer a resume shuts to take it over,
    /// and the identity that resume must claim.
    Live(u64, Arc<SessionWriter<C>>, Identity),
    /// Disconnected: the whole session, ledger included, and its park time.
    Parked(Session<C>, Instant),
}

/// Every session with a token, from its `Welcome` until it closes.
struct Table<C: Conn> {
    slots: Mutex<HashMap<String, Slot<C>>>,
    /// Signalled whenever a live slot parks or goes.
    parked_cv: Condvar,
    ttl: Duration,
}

impl<C: Conn> Table<C> {
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Slot<C>>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Session `id` is served under `token` from here on.
    fn open(&self, token: &str, id: u64, writer: &Arc<SessionWriter<C>>, identity: &Identity) {
        let live = Slot::Live(id, Arc::clone(writer), identity.clone());
        self.lock().insert(token.into(), live);
    }

    /// Park a disconnected session whole under its token. Expired parked
    /// slots go first, then the oldest if [`MAX_PARKED`] are still parked.
    fn park(&self, session: Session<C>, now: Instant) {
        let mut slots = self.lock();
        let stale = |at: &Instant| now.saturating_duration_since(*at) > self.ttl;
        slots.retain(|_, s| !matches!(s, Slot::Parked(_, at) if stale(at)));
        let oldest = parked(&slots).min().map(|(_, token)| token.clone());
        if let Some(oldest) = oldest.filter(|_| parked(&slots).count() >= MAX_PARKED) {
            slots.remove(&oldest);
        }
        log_event!(
            "serve.session.park",
            "session" = session.id,
            "inflight" = session.writer.inflight.load(Ordering::Acquire)
        );
        slots.insert(session.token.clone(), Slot::Parked(session, now));
        PARKED_SESSIONS.set(parked(&slots).count() as i64);
        self.parked_cv.notify_all();
    }

    /// The parked session `tok` names, if `identity` is the one it was
    /// opened with. A live session with that identity is taken over: its
    /// connection is shut, and the claim waits, with no deadline, until
    /// its reader parks it or closes it (`Bye`, shutdown). An expired
    /// parked slot is dropped; a mismatched one, live or parked, is left
    /// alone. `None` (no slot, expired, mismatched): a fresh session.
    fn claim(&self, tok: &str, identity: &Identity, now: Instant) -> Option<Session<C>> {
        let mut slots = self.lock();
        loop {
            let (id, writer) = match slots.get(tok)? {
                Slot::Parked(p, at) => {
                    let expired = now.saturating_duration_since(*at) > self.ttl;
                    if !expired && p.identity != *identity {
                        return None;
                    }
                    let Some(Slot::Parked(session, _)) = slots.remove(tok) else {
                        unreachable!("the slot is parked");
                    };
                    PARKED_SESSIONS.set(parked(&slots).count() as i64);
                    return (!expired).then_some(session);
                }
                Slot::Live(.., live) if live != identity => return None,
                Slot::Live(id, writer, _) => (*id, Arc::clone(writer)),
            };
            drop(slots);
            writer.dead.store(true, Ordering::Release);
            let stream = writer.stream.lock().unwrap_or_else(PoisonError::into_inner);
            stream.shutdown_both();
            drop(stream);
            let live = self
                .parked_cv
                .wait_while(self.lock(), |s| is_live(s.get(tok), id));
            slots = live.unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Whether `slot` is session `id`'s live slot.
fn is_live<C: Conn>(slot: Option<&Slot<C>>, id: u64) -> bool {
    matches!(slot, Some(Slot::Live(live, ..)) if *live == id)
}

/// The parked slots: park time, token.
fn parked<C: Conn>(slots: &HashMap<String, Slot<C>>) -> impl Iterator<Item = (Instant, &String)> {
    slots.iter().filter_map(|(token, slot)| match slot {
        Slot::Parked(_, at) => Some((*at, token)),
        Slot::Live(..) => None,
    })
}

/// Drops session `.2`'s live slot when its reader ends without parking it
/// (`Bye`, shutdown, unwind): no resume waits on a reader that is gone.
struct Close<'a, C: Conn>(&'a Table<C>, String, u64);

impl<C: Conn> Drop for Close<'_, C> {
    fn drop(&mut self) {
        let mut slots = self.0.lock();
        if is_live(slots.get(&self.1), self.2) {
            slots.remove(&self.1);
        }
        self.0.parked_cv.notify_all();
    }
}

fn handle_connection<C: Conn>(shared: &Arc<Shared<C>>, stream: C) {
    let cfg = &shared.cfg;
    let Some((mut reader, stream)) = split(stream, cfg.read_timeout, WRITE_TIMEOUT) else {
        return;
    };
    let mut front = FrontEnd::new(&shared.counters);

    let Some(mut session) = handshake(shared, &mut front, &mut reader, stream) else {
        return;
    };
    let _close = Close(&shared.table, session.token.clone(), session.id);
    shared.counters.attached();
    log_event!(
        "serve.session.open",
        "session" = session.id,
        "tenant" = session.identity.tenant.as_str()
    );

    // After `Bye` (or shutdown) there is nothing to resume; a connection
    // that died mid-session parks it for resumption.
    let mut bye = false;
    loop {
        if shared.shutting_down() {
            session.hand_off(shared);
            drain_inflight(shared, &session.writer, false);
            let goodbye = Frame::Error {
                code: "shutting_down".into(),
                message: "server draining; goodbye".into(),
            };
            front.send(&goodbye, |b| session.writer.send_bytes(shared, b));
            break;
        }
        let writer = &session.writer;
        if writer.dead.load(Ordering::Acquire) {
            break; // killed by a worker (slow reader) or a resume
        }
        match front.step(&mut reader, &writer.ledger, |b| {
            writer.send_bytes(shared, b)
        }) {
            Step::Idle => {}
            Step::Interval {
                seq,
                update,
                trace_id,
                ..
            } => {
                let decode_ns = reader.last_decode_ns();
                admit(shared, &mut session, seq, update, trace_id, decode_ns);
            }
            Step::Bye => {
                // Honest drain accounting: if the bounded drain budget
                // ran out, `ByeAck.remaining` reports how many accepted
                // intervals are still unanswered.
                session.hand_off(shared);
                drain_inflight(shared, &session.writer, false);
                session.writer.send_bye_ack(shared);
                bye = true;
                break;
            }
            Step::Ended(_) => break,
        }
        // The burst read so far is processed: what is staged goes to the
        // pool before the reader can block on the socket.
        if !reader.buffered_frame() {
            session.hand_off(shared);
        }
    }
    // Admitted intervals are owed a reply on every exit: the pool commits
    // them to the ledger, so a resume replays them.
    session.hand_off(shared);
    session.writer.dead.store(true, Ordering::Release);
    shared.counters.detached();
    log_event!(
        "serve.session.close",
        "session" = session.id,
        "answered" = session.writer.answered.load(Ordering::Relaxed)
    );
    if !bye && !shared.shutting_down() {
        shared.table.park(session, cfg.clock.now());
    }
}

/// Expect `Hello`, validate geometry, reply `Welcome` (or resume). The
/// session's writer takes `stream` over once its codec is known. `None`
/// aborts the connection.
fn handshake<C: Conn>(
    shared: &Arc<Shared<C>>,
    front: &mut FrontEnd,
    reader: &mut FrameReader<C>,
    mut stream: C,
) -> Option<Session<C>> {
    let cfg = &shared.cfg;
    let mut write = |b: &[u8]| write_bytes(&mut stream, b).is_ok();
    let now = || cfg.clock.now();
    let hello = front.read_hello(reader, now, || shared.shutting_down(), &mut write)?;
    // A draining node refuses every new session — fresh *and* resume —
    // so the placement layer moves it (and its parked state, via the
    // resume token) to another node. The opening's probe frames still
    // work: drain must not blind the health checker.
    if shared.draining() {
        let refusal = Frame::Error {
            code: "draining".into(),
            message: "node is draining; place this session elsewhere".into(),
        };
        front.send(&refusal, &mut write);
        return None;
    }
    // Each cap alone is not enough: the window is what the model encodes,
    // and it has positions for `max_len` steps (the caps bound the
    // product far below overflow).
    let Identity {
        ref ports,
        queues,
        interval_len,
        window_intervals,
        ..
    } = hello.identity;
    let max_len = shared.model.model.cfg.max_len;
    let valid = !ports.is_empty()
        && ports.len() <= MAX_PORTS_PER_SESSION
        && (1..=MAX_QUEUES).contains(&queues)
        && (2..=MAX_INTERVAL_LEN).contains(&interval_len)
        && (1..=MAX_WINDOW_INTERVALS).contains(&window_intervals)
        && interval_len * window_intervals <= max_len;
    if !valid {
        let message = format!(
            "invalid geometry: ports={} queues={queues} interval_len={interval_len} \
             window_intervals={window_intervals} (model encodes {max_len} steps)",
            ports.len()
        );
        front.refuse("bad_handshake", message, &mut write);
        return None;
    }
    let id = shared.counters.sessions.inc() + 1;

    // Resume path: take the session over instead of building fresh state.
    if let Some(tok) = &hello.resume_token {
        if let Some(mut parked) = shared.table.claim(tok, &hello.identity, now()) {
            parked.id = id;
            return resume_session(shared, front, stream, parked, hello.last_acked);
        }
        RESUME_MISSES.inc();
    }

    let imputers = ports
        .iter()
        .map(|&p| {
            (
                p,
                StreamingImputer::new(
                    Arc::clone(&shared.model),
                    CemEngine::Fast,
                    p,
                    queues,
                    interval_len,
                    window_intervals,
                ),
            )
        })
        .collect();
    // One token per session id: the mint's state is seeded with it.
    let mut mint_state = id;
    let token = session::resume_token_for("tok", &mut mint_state);
    // Codec negotiation: the server's preference, if the client
    // advertised it. The Welcome itself still goes out as JSON.
    let codec = WireCodec::negotiate(cfg.wire, hello.codecs.as_deref());
    let deadline_ms = cfg.deadline.as_millis() as u64;
    let welcome = session::welcome(id, deadline_ms, Some(&token), None, codec);
    let writer = Arc::new(SessionWriter {
        stream: Mutex::new(stream),
        inflight: AtomicUsize::new(0),
        answered: AtomicU64::new(0),
        dead: AtomicBool::new(false),
        ledger: Ledger::new(session::REPLAY_WINDOW),
        codec,
    });
    // Live before the client holds the token, so no resume misses it.
    shared.table.open(&token, id, &writer, &hello.identity);
    if !front.welcome(&welcome, codec, |b| writer.send_bytes(shared, b)) {
        shared.table.lock().remove(&token);
        return None;
    }
    Some(Session {
        id,
        identity: hello.identity,
        token,
        imputers,
        writer,
        staged: Vec::new(),
    })
}

/// Finish a successful claim: drain stragglers into the ledger, attach
/// the new connection, make the slot live again, then the resume reply
/// ([`FrontEnd::resume`]). A failed reply re-parks `session`: dropping it
/// would turn a reconnect hiccup into permanent reply loss.
fn resume_session<C: Conn>(
    shared: &Arc<Shared<C>>,
    front: &mut FrontEnd,
    stream: C,
    session: Session<C>,
    last_acked: Option<u64>,
) -> Option<Session<C>> {
    let cfg = &shared.cfg;
    let writer = Arc::clone(&session.writer);
    // Let replies already in the worker pipeline commit to the ledger
    // before it snapshots the watermark — after this, every seq ≤
    // resume_seq has a logged reply and every seq above it never reached
    // the server.
    drain_inflight(shared, &writer, true);
    writer.attach(stream);
    let (id, token) = (session.id, session.token.as_str());
    shared.table.open(token, id, &writer, &session.identity);
    let deadline_ms = cfg.deadline.as_millis() as u64;
    let codec = writer.codec;
    let resumed = front.resume(
        &writer.ledger,
        last_acked,
        cfg.injected_bug,
        |resume_seq| session::welcome(id, deadline_ms, Some(token), Some(resume_seq), codec),
        codec,
        |b| writer.send_bytes(shared, b),
    );
    if !resumed {
        shared.table.park(session, cfg.clock.now());
        return None;
    }
    log_event!(
        "serve.session.resume",
        "session" = session.id,
        "tenant" = session.identity.tenant.as_str()
    );
    Some(session)
}

/// Admit one new interval: root its trace, then answer `Busy` over the
/// in-flight cap, `Reject` a malformed update, `Ack` a warm-up interval,
/// or run the model forward and stage the job for the pool. `decode_ns`
/// is how long the reader spent parsing the frame (0 when tracing is
/// off).
fn admit<C: Conn>(
    shared: &Arc<Shared<C>>,
    session: &mut Session<C>,
    seq: u64,
    update: IntervalUpdate,
    trace_id: Option<u64>,
    decode_ns: u64,
) {
    let cfg = &shared.cfg;
    let accepted_at = cfg.clock.now();
    // Root this interval's trace, adopting the client's id when one rode
    // in on the frame so both halves stitch together. The RAII span
    // itself covers admit + window + model forward (everything this
    // thread does); later stages attach to its context retroactively
    // from the worker pool.
    let root = trace::root_with_id("serve.interval", trace_id.unwrap_or(0));
    let ctx = root.context();
    if decode_ns > 0 && ctx.is_set() {
        STAGE_DECODE_US.record(decode_ns);
        let dur = Duration::from_nanos(decode_ns);
        let start = accepted_at.checked_sub(dur).unwrap_or(accepted_at);
        trace::record_span("serve.decode", ctx, start, dur);
    }
    // Admission control first: over-budget intervals, and every interval
    // once no worker is left, are dropped before costing a model forward.
    let depth = session.writer.inflight.load(Ordering::Acquire);
    if depth >= cfg.queue_depth || shared.live_workers.load(Ordering::Acquire) == 0 {
        let busy = Frame::Busy { seq, depth };
        session.writer.send_reply(shared, seq, &busy);
        return;
    }
    let Some(imputer) = session.imputers.get_mut(&update.port) else {
        let reason = format!("port {} not announced in Hello", update.port);
        session
            .writer
            .send_reply(shared, seq, &Frame::Reject { seq, reason });
        return;
    };
    // Forward stage: window bookkeeping + the model forward for the
    // interval this tick ships (warm-up Acks cost no forward and are not
    // samples of it).
    let forward_start = cfg.clock.now();
    let item = match imputer.try_prepare_newest(update) {
        Err(e) => {
            let reason = e.to_string();
            session
                .writer
                .send_reply(shared, seq, &Frame::Reject { seq, reason });
            return;
        }
        Ok(None) => {
            let buffered = imputer.buffered();
            session
                .writer
                .send_reply(shared, seq, &Frame::Ack { seq, buffered });
            return;
        }
        Ok(Some(item)) => item,
    };
    let forward_dur = cfg.clock.now().saturating_duration_since(forward_start);
    STAGE_FORWARD_US.record_duration(forward_dur);
    trace::record_span("serve.forward", ctx, forward_start, forward_dur);
    shared.counters.accepted.inc();
    session.writer.inflight.fetch_add(1, Ordering::AcqRel);
    let now = cfg.clock.now();
    let job = Job {
        seq,
        port: imputer.port(),
        item,
        accepted_at,
        enqueued_at: now,
        trace: ctx,
        writer: Arc::clone(&session.writer),
        requeued_at: None,
    };
    session.staged.push(job);
    // Would one more forward hold the oldest staged interval past
    // `BATCH_WAIT`?
    let held = now.saturating_duration_since(session.staged[0].accepted_at);
    if session.staged.len() >= cfg.max_batch || held + forward_dur > BATCH_WAIT {
        session.hand_off(shared);
    }
}

/// Wait (bounded) until every accepted interval of this session has been
/// answered — the graceful-drain guarantee behind `Bye` and shutdown.
/// Bails early on a dead writer (the peer is gone, nothing it was owed
/// can be delivered on this connection) unless `ignore_dead`: the
/// resume path waits regardless, because workers decrement `inflight`
/// whether or not the socket write succeeds and commit to the ledger
/// first — so once this returns with `inflight == 0`, every accepted
/// seq is in the replay log and the resume watermark covers it.
fn drain_inflight<C: Conn>(shared: &Shared<C>, writer: &SessionWriter<C>, ignore_dead: bool) {
    let clock = &shared.cfg.clock;
    let budget = shared.cfg.deadline.max(Duration::from_millis(50)) * 20;
    let deadline = clock.now() + budget;
    while writer.inflight.load(Ordering::Acquire) > 0
        && (ignore_dead || !writer.dead.load(Ordering::Acquire))
        && clock.now() < deadline
    {
        clock.sleep(Duration::from_millis(1));
    }
}

/// Worker: pop what is queued (up to `max_batch`), run one
/// `enforce_degraded_batch`, write each session's run of replies once.
///
/// The batch body runs under `catch_unwind` so a panic (injected or
/// genuine) takes down only this iteration, not the server. The sealed
/// batch lives in a `Mutex` holder whose guard is held for the whole
/// body: a run's jobs leave the front only *after* its write, so on
/// unwind the poisoned holder yields exactly the unwritten runs, which
/// [`worker_down`] re-enqueues at the head of the queue. The worker then
/// carries on with its own loop, and returns only once
/// [`MAX_CONSECUTIVE_PANICS`] are exceeded.
fn worker_loop<C: Conn>(shared: &Arc<Shared<C>>, worker: usize) {
    // The default ladder: the fast engine and no window deadline. A
    // wall-clock-dependent rung would make replies differ from the
    // offline path, which the differential harnesses hold bitwise.
    let ladder = LadderConfig::default();
    // Restarts since this worker last finished a batch.
    let mut restarts = 0;
    loop {
        // The thread-locals a batch sets (trace context, kernel mode)
        // are restored by RAII on unwind: a caught panic leaves none
        // behind for the next batch.
        debug_assert!(!trace::current_context().is_set());
        let Some(batch) = collect_batch(shared) else {
            return;
        };
        let holder = Mutex::new(batch);
        match catch_unwind(AssertUnwindSafe(|| process_batch(shared, &holder, &ladder))) {
            Ok(()) => restarts = 0,
            Err(payload) => {
                let survivors = holder.into_inner().unwrap_or_else(PoisonError::into_inner);
                if !worker_down(shared, worker, payload, survivors, &mut restarts) {
                    return;
                }
            }
        }
    }
}

/// Block until at least one job is queued (or shutdown drains the
/// queue), then pop what is queued, up to `max_batch`. Readers form the
/// batches, so nothing here waits for stragglers. `None` means clean
/// shutdown.
fn collect_batch<C: Conn>(shared: &Arc<Shared<C>>) -> Option<Vec<Job<C>>> {
    let mut q = shared.queue.lock().unwrap();
    while q.is_empty() {
        if shared.shutting_down() && shared.active_readers.load(Ordering::Acquire) == 0 {
            return None;
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(q, Duration::from_millis(20))
            .unwrap();
        q = guard;
    }
    let n = q.len().min(shared.cfg.max_batch.max(1));
    let batch = q.drain(..n).collect();
    if !q.is_empty() {
        // More than one batch was handed over: wake an idle worker.
        shared.queue_cv.notify_one();
    }
    Some(batch)
}

/// Enforce one sealed batch and ship its replies. Runs under
/// `catch_unwind`; the holder's guard is held throughout so unwinding
/// leaves the unwritten runs recoverable via the poisoned mutex.
fn process_batch<C: Conn>(
    shared: &Arc<Shared<C>>,
    holder: &Mutex<Vec<Job<C>>>,
    ladder: &LadderConfig,
) {
    let cfg = &shared.cfg;
    let mut guard = holder.lock().unwrap();
    let batch: &mut Vec<Job<C>> = &mut guard;

    // The returned pre-increment value is this batch's ordinal — the
    // deterministic clock the process-fault plan keys on. A re-enqueued
    // batch is re-collected and gets a *new* ordinal, so a panic cadence
    // of `every >= 2` cannot poison its own retry forever.
    let ordinal = shared.counters.batches.inc();
    let pf = &cfg.process_faults;
    if ProcessFaultPlan::fires(pf.worker_panic_every, ordinal) {
        record_process_fault(FaultKind::WorkerPanic);
        // Fires before ANY reply is committed: the whole batch survives
        // in the holder and is re-enforced, so replies stay
        // bitwise-identical to an uninterrupted run.
        panic!("injected worker panic (batch ordinal {ordinal})");
    }

    // The batch is sealed: the queue stage (enqueue → batch seal)
    // ends here for every member. All timeline measurements in this
    // function run on the injected clock so they share one origin with
    // `accepted_at`/`enqueued_at` (identical to `Instant::now()` under
    // the production `Clock::System`).
    let sealed_at = cfg.clock.now();
    for j in batch.iter() {
        let waited = sealed_at.saturating_duration_since(j.enqueued_at);
        STAGE_QUEUE_US.record_duration(waited);
        trace::record_span("serve.queue", j.trace, j.enqueued_at, waited);
    }

    // Borrowed, not moved: the holder must keep every unanswered job
    // whole for `worker_down` to re-enqueue.
    let items: Vec<_> = batch.iter().map(|j| &j.item).collect();
    let opts = EnforceOptions::new(1, Some(&shared.cache));
    BATCH_SIZE.record(batch.len() as u64);
    // Batch stage: seal → enforce start (ladder setup, item views).
    let enforce_start = cfg.clock.now();
    let batch_dur = enforce_start.saturating_duration_since(sealed_at);
    STAGE_BATCH_US.record_duration(batch_dur);
    for j in batch.iter() {
        trace::record_span("serve.batch", j.trace, sealed_at, batch_dur);
    }
    if ProcessFaultPlan::fires(pf.solver_stall_every, ordinal) {
        record_process_fault(FaultKind::SolverStall);
        cfg.clock.sleep(Duration::from_millis(pf.solver_stall_ms));
    }
    // Run the batch under the first traced member's context so the
    // ladder's own spans (`cem.enforce_window`, `cem.solve`) attach
    // to a real trace; the other members get their per-rung enforce
    // span retroactively below.
    let lead_ctx = batch
        .iter()
        .map(|j| j.trace)
        .find(TraceContext::is_set)
        .unwrap_or(TraceContext::NONE);
    let outcomes = trace::with_context(lead_ctx, || enforce_degraded_batch(&items, ladder, &opts));
    drop(items);
    let enforce_dur = cfg.clock.now().saturating_duration_since(enforce_start);
    let slow_write = ProcessFaultPlan::fires(pf.slow_write_every, ordinal);
    let mut first_write = true;
    let mut outcomes = outcomes.into_iter();

    // One run at a time: the front job and every job after it from the
    // same session, encoded into one buffer and written once.
    while let Some(writer) = batch.first().map(|j| Arc::clone(&j.writer)) {
        let run = batch
            .iter()
            .take_while(|j| Arc::ptr_eq(&j.writer, &writer))
            .count();
        let codec = writer.codec;
        let mut wire = Vec::new();
        let mut replies = 0u64;
        // Per job: [deadline missed, degraded], for the SLO watchdog.
        let mut slo = Vec::with_capacity(run);
        for job in &batch[..run] {
            let outcome = outcomes.next().expect("one outcome per job");
            // Self-check, on the interval that is shipped: the ladder's
            // contract is that outputs satisfy the (possibly relaxed)
            // constraints exactly. Count, never ship silently.
            let effective = outcome.effective_constraints(&job.item.0);
            if !effective.satisfied_exact(&outcome.corrected) {
                shared.counters.violations.inc();
                log_event!("serve.violation", "seq" = job.seq);
            }
            let level = outcome.levels[0];
            STAGE_ENFORCE_US.record_duration(enforce_dur);
            trace::record_span(
                enforce_span_name(level),
                job.trace,
                enforce_start,
                enforce_dur,
            );
            let latency = cfg.clock.now().saturating_duration_since(job.accepted_at);
            LATENCY_US.record_duration(latency);
            let missed = latency > cfg.deadline;
            if missed {
                shared.counters.deadline_misses.inc();
            }
            slo.push([missed, level != DegradationLevel::Full]);
            let frame = Frame::Imputed {
                seq: job.seq,
                port: job.port,
                series: outcome.corrected,
                level: level.label().to_string(),
                enforced: level != DegradationLevel::MeasurementRelaxed,
                latency_us: latency.as_micros() as u64,
                trace_id: (job.trace.trace_id != 0).then_some(job.trace.trace_id),
            };
            // Encode and write timed separately, so a slow peer shows up
            // in `serve.stage.write_us` rather than smearing the batch.
            let encode_start = cfg.clock.now();
            if let Ok(bytes) = encode_frame_with(&frame, codec, MAX_FRAME_LEN) {
                let encode_dur = cfg.clock.now().saturating_duration_since(encode_start);
                STAGE_ENCODE_US.record_duration(encode_dur);
                trace::record_span("serve.encode", job.trace, encode_start, encode_dur);
                // Record before send: a reply that may have reached the
                // wire must be replayable.
                writer.ledger.commit(job.seq, &bytes);
                wire.extend_from_slice(&bytes);
                replies += 1;
            }
        }
        if slow_write && first_write {
            first_write = false;
            record_process_fault(FaultKind::SlowWrite);
            cfg.clock.sleep(Duration::from_millis(pf.slow_write_ms));
        }
        let write_start = cfg.clock.now();
        // Recovery latency: requeue (panic) → reply handed to the write.
        // Recorded before the write, so it is visible by the time the
        // client can see the reply (and, after it, a `ByeAck`).
        for requeued_at in batch[..run].iter().filter_map(|j| j.requeued_at) {
            let lat = write_start.saturating_duration_since(requeued_at);
            REQUEUE_LATENCY_US.record_duration(lat);
            if let Ok(mut v) = shared.requeue_lat.lock() {
                if v.len() < REQUEUE_LAT_CAP {
                    v.push(lat.as_micros() as u64);
                }
            }
        }
        let sent = writer.send_run(shared, &wire, run, replies);
        let write_dur = cfg.clock.now().saturating_duration_since(write_start);
        // Written, or the peer is gone and the ledger holds the replies
        // for a resume: the run leaves the recoverable set.
        let done: Vec<Job<C>> = batch.drain(..run).collect();
        if sent {
            shared.counters.wrote(replies);
        }
        for job in &done {
            STAGE_WRITE_US.record_duration(write_dur);
            trace::record_span("serve.write", job.trace, write_start, write_dur);
        }
        // Feed the SLO watchdog's sliding window (bounded).
        if let Ok(mut obs) = shared.slo_obs.lock() {
            let at = cfg.clock.now();
            for (job, over) in done.iter().zip(slo) {
                if obs.len() >= SLO_OBS_CAP {
                    obs.pop_front();
                }
                let trace_id = job.trace.trace_id;
                obs.push_back(ReplyObs { at, over, trace_id });
            }
        }
    }
}

/// A batch panicked: account the panic, re-enqueue the unanswered jobs
/// at the *head* of the queue (preserving admission order), and tell the
/// worker whether to carry on. It gives up (`worker.dead`) when its
/// `restarts` since the last finished batch have reached
/// [`MAX_CONSECUTIVE_PANICS`]; when the last worker does, the node drains.
fn worker_down<C: Conn>(
    shared: &Shared<C>,
    worker: usize,
    payload: Box<dyn std::any::Any + Send>,
    mut survivors: Vec<Job<C>>,
    restarts: &mut u32,
) -> bool {
    shared.worker_panics.inc();
    let trace_ids: Vec<u64> = survivors
        .iter()
        .map(|j| j.trace.trace_id)
        .filter(|&t| t != 0)
        .collect();
    let requeued = survivors.len();
    let now = shared.cfg.clock.now();
    {
        let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // push_front in reverse keeps the survivors' relative order.
        for mut job in survivors.drain(..).rev() {
            job.requeued_at.get_or_insert(now);
            q.push_front(job);
        }
    }
    shared.queue_cv.notify_all();
    let carry_on = *restarts < MAX_CONSECUTIVE_PANICS;
    if carry_on {
        *restarts += 1;
        shared.worker_restarts.inc();
    }
    let payload = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    log_event!(
        if carry_on {
            "worker.restart"
        } else {
            "worker.dead"
        },
        "worker" = worker,
        "restarts" = *restarts,
        "requeued" = requeued,
        "payload" = payload,
        "traces" = joined(&trace_ids).as_str()
    );
    // The last worker gave up: nothing will answer what is admitted.
    if !carry_on && shared.live_workers.fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.begin_drain();
    }
    carry_on
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConn, SimNet};
    use crate::transport::Connector;

    const TTL: Duration = Duration::from_secs(30);

    fn identity(tenant: &str) -> Identity {
        Identity {
            tenant: tenant.into(),
            ports: vec![0],
            queues: 2,
            interval_len: 10,
            window_intervals: 3,
        }
    }

    /// Session `id` under token `tok-{id}`, writing to an in-memory
    /// connection.
    fn session(net: &SimNet, id: u64) -> Session<SimConn> {
        let writer = Arc::new(SessionWriter {
            stream: Mutex::new(net.connector().connect().unwrap()),
            inflight: AtomicUsize::new(0),
            answered: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            ledger: Ledger::new(session::REPLAY_WINDOW),
            codec: WireCodec::Bin1,
        });
        Session {
            id,
            identity: identity("t"),
            token: format!("tok-{id}"),
            imputers: HashMap::new(),
            writer,
            staged: Vec::new(),
        }
    }

    fn setup(seed: u64) -> (SimNet, Table<SimConn>, Instant) {
        let table = Table {
            slots: Mutex::default(),
            parked_cv: Condvar::new(),
            ttl: TTL,
        };
        (SimNet::new(seed, Clock::System), table, Instant::now())
    }

    fn open(table: &Table<SimConn>, s: &Session<SimConn>) {
        table.open(&s.token, s.id, &s.writer, &s.identity);
    }

    fn parked_count(table: &Table<SimConn>) -> usize {
        parked(&table.lock()).count()
    }

    #[test]
    fn live_then_parked_then_claimed() {
        let (net, table, t0) = setup(1);
        let s = session(&net, 1);
        open(&table, &s);
        assert_eq!(parked_count(&table), 0, "a live slot is not parked");
        table.park(s, t0);
        assert_eq!(parked_count(&table), 1);
        let claimed = table.claim("tok-1", &identity("t"), t0);
        assert_eq!(claimed.map(|s| s.id), Some(1));
        assert!(table.lock().is_empty(), "a claimed slot leaves the table");
    }

    #[test]
    fn a_resume_takes_a_live_session_over() {
        let (net, table, t0) = setup(2);
        let s = session(&net, 2);
        open(&table, &s);
        let writer = Arc::clone(&s.writer);
        std::thread::scope(|scope| {
            let claim = scope.spawn(|| table.claim("tok-2", &identity("t"), t0));
            // The claim shuts the live connection, then waits for its
            // reader to park the session.
            while !writer.dead.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            table.park(s, t0);
            assert_eq!(claim.join().unwrap().map(|s| s.id), Some(2));
        });
    }

    #[test]
    fn an_expired_slot_is_dropped_on_claim() {
        let (net, table, t0) = setup(3);
        let s = session(&net, 3);
        open(&table, &s);
        table.park(s, t0);
        let late = t0 + TTL + Duration::from_secs(1);
        assert!(table.claim("tok-3", &identity("t"), late).is_none());
        assert!(table.lock().is_empty(), "the expired state is reclaimed");
    }

    #[test]
    fn the_oldest_parked_slot_is_evicted_at_the_cap() {
        let (net, table, t0) = setup(4);
        let live = session(&net, 0);
        open(&table, &live);
        for id in 1..=MAX_PARKED as u64 + 1 {
            let s = session(&net, id);
            open(&table, &s);
            table.park(s, t0 + Duration::from_millis(id));
        }
        assert_eq!(parked_count(&table), MAX_PARKED);
        let slots = table.lock();
        assert!(!slots.contains_key("tok-1"), "the oldest parked slot goes");
        assert!(slots.contains_key("tok-2"));
        assert!(
            is_live(slots.get("tok-0"), 0),
            "a live slot is never evicted"
        );
    }

    #[test]
    fn another_identity_leaves_the_slot_alone() {
        let (net, table, t0) = setup(5);
        let (parked_session, live) = (session(&net, 5), session(&net, 6));
        open(&table, &parked_session);
        table.park(parked_session, t0);
        open(&table, &live);
        for tok in ["tok-5", "tok-6"] {
            assert!(table.claim(tok, &identity("other"), t0).is_none());
        }
        assert!(!live.writer.dead.load(Ordering::Acquire), "not taken over");
        assert!(is_live(table.lock().get("tok-6"), 6));
        let claimed = table.claim("tok-5", &identity("t"), t0);
        assert_eq!(claimed.map(|s| s.id), Some(5));
    }

    #[test]
    fn bye_removes_the_slot() {
        let (net, table, t0) = setup(7);
        let s = session(&net, 7);
        open(&table, &s);
        // A reader whose session a resume holds by now leaves it alone.
        drop(Close(&table, "tok-7".into(), 99));
        assert!(is_live(table.lock().get("tok-7"), 7));
        drop(Close(&table, "tok-7".into(), 7));
        assert!(table.lock().is_empty());
        assert!(table.claim("tok-7", &identity("t"), t0).is_none());
    }
}
