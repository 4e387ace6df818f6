//! The `fmml-serve` server: acceptor + reader-per-session + a shared
//! worker pool doing deadline-aware micro-batched CEM enforcement.
//!
//! ```text
//!            ┌────────────┐   Hello/Interval    ┌──────────────────────┐
//!  clients ─▶│  acceptor  │──▶ reader thread ──▶│ bounded session queue│
//!            └────────────┘   (per session:     └──────────┬───────────┘
//!                              validate, window,           │ micro-batch
//!                              model forward)              ▼ (≤ max_batch,
//!                                               ┌──────────────────────┐
//!                                               │ worker pool: one     │
//!                                               │ enforce_degraded_-   │
//!                                               │ batch per coalesced  │
//!                                               │ batch, shared cache  │
//!                                               └──────────┬───────────┘
//!                                                          ▼
//!                                        Imputed{series, level} per seq
//! ```
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
//! blocks a worker's write until `write_timeout`, after which the
//! session is killed (`serve.slow_disconnects`) rather than letting one
//! slow reader wedge the pool. Shutdown drains: the acceptor closes,
//! readers stop ingesting and wait for their in-flight replies, workers
//! exit once the queue is empty and every reader is gone.

use crate::protocol::{
    encode_frame_with, write_bytes, Frame, FrameReader, WireCodec, WireError, MAX_FRAME_LEN,
};
use crate::session::{self, Identity, Ledger, ProtocolBug, Stalls};
use crate::transport::{Accepted, Conn, TcpTransport, Transport};
use fmml_core::streaming::{IntervalItem, StreamingImputer};
use fmml_core::transformer_imputer::TransformerImputer;
use fmml_fault::{record_process_fault, FaultKind, ProcessFaultPlan};
use fmml_fm::cem::{
    cache::DEFAULT_CAPACITY, enforce_degraded_batch, BreakerConfig, CemEngine, DegradationLevel,
    EnforceOptions, LadderConfig, SolutionCache,
};
use fmml_obs::trace::{self, TraceContext};
use fmml_obs::{log_event, Clock, Counter, FloatGauge, Gauge, Histogram, Unit};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static SESSIONS: Counter = Counter::new("serve.sessions");
static SESSIONS_ACTIVE: Gauge = Gauge::new("serve.sessions.active");
static ACCEPTED: Counter = Counter::new("serve.accepted");
static REJECTED: Counter = Counter::new("serve.rejected");
static MALFORMED: Counter = Counter::new("serve.malformed");
static REPLIES: Counter = Counter::new("serve.replies");
static BATCHES: Counter = Counter::new("serve.batches");
static BATCH_SIZE: Histogram = Histogram::new("serve.batch_size", Unit::Count);
static LATENCY_US: Histogram = Histogram::new("serve.latency_us", Unit::Micros);
static DEADLINE_MISS: Counter = Counter::new("serve.deadline_miss");
static VIOLATIONS: Counter = Counter::new("serve.violations");
static SLOW_DISCONNECTS: Counter = Counter::new("serve.slow_disconnects");

// Supervision and resumption.
static WORKER_PANICS: Counter = Counter::new("serve.worker.panics");
static WORKER_RESTARTS: Counter = Counter::new("serve.worker.restarts");
static REQUEUE_LATENCY_US: Histogram =
    Histogram::new("serve.worker.requeue_latency_us", Unit::Micros);
static RESUMES: Counter = Counter::new("serve.resumes");
static RESUME_MISSES: Counter = Counter::new("serve.resume_misses");
static REPLAYED: Counter = Counter::new("serve.replayed");
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
/// Deadline-miss rate above which the SLO watchdog declares a breach.
const SLO_MAX_MISS_RATE: f64 = 0.05;
/// Fraction of replies degraded below [`DegradationLevel::Full`] above
/// which the SLO watchdog declares a breach.
const SLO_MAX_DEGRADED_RATE: f64 = 0.5;

/// Server tuning knobs. `Default` is the 50 ms wire-period deployment
/// from the paper's §5 on loopback.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// CEM worker threads (each runs one micro-batch at a time).
    pub workers: usize,
    /// Intra-batch parallelism handed to `EnforceOptions::jobs`.
    pub jobs: usize,
    /// Top rung of the degradation ladder.
    pub engine: CemEngine,
    /// Per-interval end-to-end budget: accept→reply-written. Misses are
    /// counted (`serve.deadline_miss`), and it bounds micro-batch
    /// coalescing.
    pub deadline: Duration,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Extra time a worker may wait for the batch to fill, additionally
    /// bounded by half the first job's remaining slack.
    pub batch_wait: Duration,
    /// Per-session in-flight cap; intervals beyond it are answered
    /// `Busy` (admission control).
    pub queue_depth: usize,
    /// Socket read timeout — the reader's shutdown-poll granularity.
    pub read_timeout: Duration,
    /// Socket write timeout — a reply blocked longer than this marks the
    /// peer a slow reader and kills the session.
    pub write_timeout: Duration,
    /// Decode cap for this server's frame readers: a length prefix
    /// above it is rejected *before* any buffer allocation. The default
    /// ([`MAX_FRAME_LEN`], 1 MiB) fits any client frame; router↔backend
    /// links carry batched replay traffic and raise it.
    pub max_frame_len: usize,
    /// SLO watchdog sliding-window length: replies older than this fall
    /// out of the deadline-miss / degradation rates.
    pub slo_window: Duration,
    /// How often the watchdog re-evaluates the window and republishes
    /// the `slo.*` gauges.
    pub slo_tick: Duration,
    /// Minimum replies in the window before breach math applies (a
    /// single slow reply at startup is not an SLO event).
    pub slo_min_samples: usize,
    /// Circuit breaker over the SMT rung of the batch ladder (see
    /// [`fmml_fm::cem::breaker`]); `None` disables it. Only consulted
    /// when `engine` is SMT, so the default costs nothing on the fast
    /// path.
    pub breaker: Option<BreakerConfig>,
    /// Restart budget per worker slot: after this many restarts a slot
    /// is declared dead (`worker.dead` event) and left empty.
    pub max_restarts: u32,
    /// Supervisor backoff before restart `k` is `restart_backoff * 2^k`,
    /// capped at `restart_backoff_cap` — deterministic, no jitter, so
    /// recovery latency is reproducible.
    pub restart_backoff: Duration,
    pub restart_backoff_cap: Duration,
    /// Per-session replay window: recently shipped replies retained
    /// (keyed by seq) for resumption. `0` disables resumption entirely
    /// (no tokens are handed out).
    pub replay_window: usize,
    /// Disconnected sessions parked for resumption: how many at most,
    /// and for how long. Oldest parked sessions are evicted first.
    pub max_parked: usize,
    pub parked_ttl: Duration,
    /// How long a resume handshake will poll for its parked session to
    /// land before answering with a fresh session (the old connection's
    /// reader may still be unwinding when the client reconnects). Real
    /// time even under a virtual clock: it is poll patience, not
    /// protocol time. Simulation harnesses shrink it so handshakes that
    /// present an expired token are answered before the driver's stall
    /// budget runs out.
    pub resume_claim_wait: Duration,
    /// Deterministic process-fault injection (worker panics, solver
    /// stalls, slow writes) — the recovery chaos hook. Inactive by
    /// default; see [`ProcessFaultPlan`].
    pub process_faults: ProcessFaultPlan,
    /// Preferred wire codec for negotiated sessions (`--wire`). The
    /// server picks this codec in its `Welcome` when the client's `Hello`
    /// advertises it; otherwise the session stays on JSON. Decoding is
    /// always sniffed per frame, so this knob never rejects anyone.
    pub wire: WireCodec,
    /// Time source for every deadline, TTL, backoff, and watchdog tick.
    /// [`Clock::System`] in production; the deterministic simulation
    /// harness injects a virtual clock so full session lifecycles run
    /// in milliseconds with zero real sleeps.
    pub clock: Clock,
    /// Deliberate protocol bugs, used by `fmml-simtest` to validate
    /// that the conformance checker actually catches violations (a
    /// checker that never fires proves nothing). `None` in production.
    pub injected_bug: Option<ProtocolBug>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            jobs: 1,
            engine: CemEngine::Fast,
            deadline: Duration::from_millis(50),
            max_batch: 16,
            batch_wait: Duration::from_millis(1),
            queue_depth: 64,
            read_timeout: Duration::from_millis(25),
            write_timeout: Duration::from_secs(2),
            max_frame_len: MAX_FRAME_LEN,
            slo_window: Duration::from_secs(5),
            slo_tick: Duration::from_millis(200),
            slo_min_samples: 20,
            breaker: Some(BreakerConfig::default()),
            max_restarts: 5,
            restart_backoff: Duration::from_millis(10),
            restart_backoff_cap: Duration::from_millis(500),
            replay_window: 1024,
            max_parked: 64,
            parked_ttl: Duration::from_secs(30),
            resume_claim_wait: Duration::from_millis(500),
            wire: WireCodec::Json,
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
    missed: bool,
    degraded: bool,
    trace_id: u64,
}

/// Replies retained for the sliding window (hard cap so a hot server
/// can't grow the deque without bound between watchdog ticks).
const SLO_OBS_CAP: usize = 8192;
/// Breach records retained on the handle.
const SLO_BREACH_CAP: usize = 64;
/// Trace ids attached to one breach record / event.
const SLO_BREACH_TRACES: usize = 8;

/// Per-server counters (the process-global `serve.*` metrics aggregate
/// across servers; these back `StatsReply` for *this* instance).
#[derive(Default)]
struct Counters {
    sessions: AtomicU64,
    active_sessions: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    malformed: AtomicU64,
    replies: AtomicU64,
    batches: AtomicU64,
    deadline_misses: AtomicU64,
    violations: AtomicU64,
    slow_disconnects: AtomicU64,
    // Supervision/resumption accounting (surfaced via the typed
    // `ServerHandle` accessors and the `serve.*` metrics, not the wire
    // `StatsReply` — old clients keep decoding that frame unchanged).
    worker_panics: AtomicU64,
    worker_restarts: AtomicU64,
    resumes: AtomicU64,
    replayed: AtomicU64,
}

impl Counters {
    fn stats_frame(&self) -> Frame {
        Frame::StatsReply {
            sessions: self.sessions.load(Ordering::Relaxed),
            active_sessions: self.active_sessions.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            violations: self.violations.load(Ordering::Relaxed),
            slow_disconnects: self.slow_disconnects.load(Ordering::Relaxed),
        }
    }
}

/// The write half of a session, shared between its reader thread and the
/// worker pool. All frame writes go through [`send`](SessionWriter::send)
/// under one mutex, so replies never interleave mid-frame.
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
    /// Committed replies: replay window (empty cap when resumption is
    /// disabled) + resolved-seq watermark.
    ledger: Ledger,
    /// Negotiated wire codec for everything this session encodes —
    /// `Json` until the handshake picks otherwise, then fixed for the
    /// session's whole lineage (parked state included) so replay-log
    /// bytes stay valid across resume. Stored as the codec's
    /// discriminant (0 = JSON, 1 = bin1).
    codec: AtomicU8,
}

impl<C: Conn> SessionWriter<C> {
    /// The session's negotiated encode codec.
    fn codec(&self) -> WireCodec {
        match self.codec.load(Ordering::Acquire) {
            1 => WireCodec::Bin1,
            _ => WireCodec::Json,
        }
    }

    fn set_codec(&self, codec: WireCodec) {
        self.codec
            .store((codec == WireCodec::Bin1) as u8, Ordering::Release);
    }

    /// Write one frame; on failure the session is marked dead and the
    /// socket shut down (waking the reader thread). Returns success.
    fn send(&self, shared: &Shared<C>, frame: &Frame) -> bool {
        let Ok(bytes) = encode_frame_with(frame, self.codec(), shared.cfg.max_frame_len) else {
            return false;
        };
        self.send_bytes(shared, &bytes, frame.tag())
    }

    /// Write pre-encoded frame bytes (the traced reply path encodes
    /// separately so the encode and write stages time independently).
    /// Same failure semantics as [`send`](SessionWriter::send).
    fn send_bytes(&self, shared: &Shared<C>, bytes: &[u8], tag: &'static str) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let mut stream = self.stream.lock().unwrap();
        match write_bytes(&mut *stream, bytes) {
            Ok(()) => true,
            Err(e) => {
                if !self.dead.swap(true, Ordering::AcqRel) {
                    if e == WireError::Timeout {
                        SLOW_DISCONNECTS.inc();
                        shared
                            .counters
                            .slow_disconnects
                            .fetch_add(1, Ordering::Relaxed);
                        log_event!("serve.slow_disconnect", "frame" = tag);
                    }
                    stream.shutdown_both();
                }
                false
            }
        }
    }

    /// Commit + send a per-seq reply frame (the reader-side Ack / Busy /
    /// Reject path; the worker path encodes separately for stage timing
    /// and commits to the ledger itself).
    fn send_reply(&self, shared: &Shared<C>, seq: u64, frame: &Frame) -> bool {
        let Ok(bytes) = encode_frame_with(frame, self.codec(), shared.cfg.max_frame_len) else {
            return false;
        };
        self.ledger.commit(seq, &bytes);
        self.send_bytes(shared, &bytes, frame.tag())
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
    /// When the job entered the shared queue (start of the queue stage).
    enqueued_at: Instant,
    /// The interval's trace (the `serve.interval` root span's context);
    /// [`TraceContext::NONE`] when tracing is off.
    trace: TraceContext,
    writer: Arc<SessionWriter<C>>,
    /// Set when a worker panic poisoned this job's batch and the
    /// supervisor re-enqueued it: when the retried reply is finally
    /// written, `requeued_at → now` is the recovery latency.
    requeued_at: Option<Instant>,
}

/// What a panicking worker leaves behind for the supervisor: which slot
/// died, why, and which admitted intervals were in flight.
struct WorkerObit {
    worker: usize,
    payload: String,
    trace_ids: Vec<u64>,
    requeued: usize,
}

/// Requeue-latency samples retained on the handle.
const REQUEUE_LAT_CAP: usize = 4096;

struct Shared<C: Conn> {
    cfg: ServerConfig,
    model: Arc<TransformerImputer>,
    cache: Arc<SolutionCache>,
    counters: Counters,
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
    /// Disconnected sessions awaiting resumption — the whole
    /// [`Session`] (sliding windows, and the writer whose ledger holds
    /// the replies the client may have missed) with its park time, keyed
    /// by resume token (bounded by `cfg.max_parked` / `cfg.parked_ttl`).
    parked: Mutex<HashMap<String, (Session<C>, Instant)>>,
    /// Signalled whenever a session parks — wakes reconnecting claims
    /// racing the old reader's unwind.
    parked_cv: Condvar,
    /// Panic reports from workers, drained by the supervisor.
    obits: Mutex<Vec<WorkerObit>>,
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

    /// Resumption on? (Replay window configured and non-zero.)
    fn resumable(&self) -> bool {
        self.cfg.replay_window > 0 && self.cfg.max_parked > 0
    }
}

/// Decrements `active_readers` on drop — **including unwind**. If a
/// session thread panics, the count still reaches zero and the worker
/// pool's shutdown condition (`shutting_down && active_readers == 0`)
/// still holds; without this, [`ServerHandle::shutdown`] would hang
/// forever joining workers after any reader panic.
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
    acceptor: Option<JoinHandle<()>>,
    /// The supervisor owns the worker pool's join handles; joining it
    /// joins (or has already joined) every worker.
    supervisor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    watchdog: Option<JoinHandle<()>>,
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

    /// Supervision accounting: `(worker panics, worker restarts)`.
    pub fn worker_stats(&self) -> (u64, u64) {
        (
            self.shared.counters.worker_panics.load(Ordering::Relaxed),
            self.shared.counters.worker_restarts.load(Ordering::Relaxed),
        )
    }

    /// Resumption accounting: `(sessions resumed, replies replayed)`.
    pub fn resume_stats(&self) -> (u64, u64) {
        (
            self.shared.counters.resumes.load(Ordering::Relaxed),
            self.shared.counters.replayed.load(Ordering::Relaxed),
        )
    }

    /// Recovery latencies (µs) of intervals that were re-enqueued after
    /// a worker panic: requeue → reply written. Bounded sample buffer.
    pub fn requeue_latencies(&self) -> Vec<u64> {
        self.shared
            .requeue_lat
            .lock()
            .map(|v| v.clone())
            .unwrap_or_default()
    }

    /// Sessions currently parked for resumption.
    pub fn parked_count(&self) -> usize {
        self.shared
            .parked
            .lock()
            .map(|p| p.len())
            .unwrap_or_default()
    }

    /// Whether a parked session exists for `token` right now. Test
    /// introspection: lets a deterministic harness wait for a specific
    /// disconnect to be parked instead of racing on `parked_count`
    /// (which also counts stale entries awaiting lazy TTL pruning).
    pub fn parked_contains(&self, token: &str) -> bool {
        self.shared
            .parked
            .lock()
            .map(|p| p.contains_key(token))
            .unwrap_or_default()
    }

    /// Begin draining for a planned hand-off: existing sessions are
    /// served to completion, but every new `Hello` (fresh *or* resume)
    /// is answered `Error{code:"draining"}` — a router treats that as
    /// "place this session elsewhere". Unlike
    /// [`shutdown`](ServerHandle::shutdown) the node stays up.
    pub fn begin_drain(&self) {
        if !self.shared.draining.swap(true, Ordering::AcqRel) {
            log_event!("serve.draining");
        }
    }

    /// Whether [`begin_drain`](ServerHandle::begin_drain) was called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Signal shutdown and gracefully drain: stop accepting, let every
    /// session's in-flight intervals be answered, join all threads.
    /// Returns the final stats.
    pub fn shutdown(mut self) -> Frame {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        // Under virtual time, drain loops sleep on the injected clock;
        // from here on nothing semantic is being timed, so let sleepers
        // advance it themselves instead of requiring a driver.
        if let Some(vc) = self.shared.cfg.clock.virtual_handle() {
            vc.set_auto_advance(true);
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Readers exit on their next poll tick (they drain first).
        let readers = std::mem::take(&mut *self.readers.lock().unwrap());
        for r in readers {
            let _ = r.join();
        }
        self.shared.queue_cv.notify_all();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        log_event!(
            "serve.shutdown",
            "sessions" = self.shared.counters.sessions.load(Ordering::Relaxed),
            "replies" = self.shared.counters.replies.load(Ordering::Relaxed)
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
/// gets the identical session/worker/supervisor machinery.
pub fn spawn_with<T: Transport>(
    transport: T,
    model: Arc<TransformerImputer>,
    cfg: ServerConfig,
) -> ServerHandle<T::Conn> {
    let cache = Arc::new(SolutionCache::new(DEFAULT_CAPACITY));
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        cfg,
        model,
        cache,
        counters: Counters::default(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        active_readers: AtomicUsize::new(0),
        slo_obs: Mutex::new(VecDeque::new()),
        breaches: Mutex::new(Vec::new()),
        parked: Mutex::new(HashMap::new()),
        parked_cv: Condvar::new(),
        obits: Mutex::new(Vec::new()),
        requeue_lat: Mutex::new(Vec::new()),
    });
    let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let worker_handles: Vec<Option<JoinHandle<()>>> = (0..workers)
        .map(|i| Some(spawn_worker(&shared, i)))
        .collect();
    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-supervisor".into())
            .spawn(move || supervisor_loop(&shared, worker_handles))
            .expect("spawn supervisor")
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        std::thread::Builder::new()
            .name("serve-acceptor".into())
            .spawn(move || {
                let desc = transport.desc();
                log_event!("serve.listening", "addr" = desc.as_str());
                loop {
                    match transport.accept() {
                        Accepted::Conn(stream) => {
                            let shared = Arc::clone(&shared);
                            shared.active_readers.fetch_add(1, Ordering::AcqRel);
                            let h = std::thread::Builder::new()
                                .name("serve-session".into())
                                .spawn(move || {
                                    // Drop guard: the decrement must run
                                    // even if handle_connection unwinds.
                                    let _guard = ReaderGuard(Arc::clone(&shared));
                                    handle_connection(&shared, stream);
                                })
                                .expect("spawn session");
                            let mut rs = readers.lock().unwrap();
                            reap_finished(&mut rs);
                            rs.push(h);
                        }
                        Accepted::Retry => {
                            if shared.shutting_down() {
                                break;
                            }
                            reap_finished(&mut readers.lock().unwrap());
                            // Poll cadence, not semantic time: stays on
                            // the real clock even under virtual time.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Accepted::Closed => break,
                    }
                }
            })
            .expect("spawn acceptor")
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
        acceptor: Some(acceptor),
        supervisor: Some(supervisor),
        readers,
        watchdog: Some(watchdog),
    }
}

/// Spawn worker slot `i` running the crash-isolated batch loop.
fn spawn_worker<C: Conn>(shared: &Arc<Shared<C>>, i: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("serve-worker-{i}"))
        .spawn(move || worker_loop(&shared, i))
        .expect("spawn worker")
}

/// Supervisor: watches for worker panic obits, re-enqueues nothing
/// itself (the dying worker already re-enqueued its batch), and
/// restarts the dead slot under a bounded budget with deterministic
/// exponential backoff. On shutdown it joins whatever workers remain.
fn supervisor_loop<C: Conn>(shared: &Arc<Shared<C>>, mut slots: Vec<Option<JoinHandle<()>>>) {
    let cfg = &shared.cfg;
    let mut restarts: Vec<u32> = vec![0; slots.len()];
    loop {
        if shared.shutting_down() {
            for slot in slots.iter_mut() {
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
            }
            return;
        }
        let pending: Vec<WorkerObit> = {
            let mut obits = shared.obits.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *obits)
        };
        for obit in pending {
            // The worker pushed its obit on the way out; join reclaims
            // the thread (its panic was caught, so join returns Ok).
            if let Some(h) = slots.get_mut(obit.worker).and_then(Option::take) {
                let _ = h.join();
            }
            let n = &mut restarts[obit.worker];
            let traces_str = obit
                .trace_ids
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",");
            if *n >= cfg.max_restarts {
                log_event!(
                    "worker.dead",
                    "worker" = obit.worker,
                    "restarts" = *n,
                    "payload" = obit.payload.as_str(),
                    "traces" = traces_str.as_str()
                );
                continue;
            }
            // Deterministic exponential backoff: base * 2^k, capped.
            // Measured on the injected clock so simulated restarts
            // back off in virtual time.
            let backoff = cfg
                .restart_backoff
                .saturating_mul(1u32 << (*n).min(20))
                .min(cfg.restart_backoff_cap);
            let until = cfg.clock.now() + backoff;
            while cfg.clock.now() < until && !shared.shutting_down() {
                cfg.clock.sleep(
                    Duration::from_millis(1).min(until.saturating_duration_since(cfg.clock.now())),
                );
            }
            if shared.shutting_down() {
                // Drained queue + no readers: no one needs the slot.
                continue;
            }
            *n += 1;
            WORKER_RESTARTS.inc();
            shared
                .counters
                .worker_restarts
                .fetch_add(1, Ordering::Relaxed);
            log_event!(
                "worker.restart",
                "worker" = obit.worker,
                "restarts" = *n,
                "backoff_ms" = backoff.as_millis() as u64,
                "requeued" = obit.requeued,
                "payload" = obit.payload.as_str(),
                "traces" = traces_str.as_str()
            );
            slots[obit.worker] = Some(spawn_worker(shared, obit.worker));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// SLO watchdog: every `slo_tick`, prune the sliding window, republish
/// the `slo.*` gauges, and declare breaches on the rising edge of either
/// rate crossing its threshold. Breach events carry the trace ids of
/// offending replies so a journal snapshot can reconstruct exactly what
/// the slow/degraded requests went through.
fn watchdog_loop<C: Conn>(shared: &Arc<Shared<C>>) {
    let cfg = &shared.cfg;
    let mut miss_breached = false;
    let mut degraded_breached = false;
    loop {
        cfg.clock.sleep(cfg.slo_tick);
        let now = cfg.clock.now();
        let (replies, misses, degraded, miss_traces, degraded_traces) = {
            let mut obs = shared.slo_obs.lock().unwrap();
            while obs
                .front()
                .is_some_and(|o| now.saturating_duration_since(o.at) > cfg.slo_window)
            {
                obs.pop_front();
            }
            let mut misses = 0usize;
            let mut degraded = 0usize;
            let mut miss_traces = Vec::new();
            let mut degraded_traces = Vec::new();
            for o in obs.iter() {
                if o.missed {
                    misses += 1;
                    if o.trace_id != 0 && miss_traces.len() < SLO_BREACH_TRACES {
                        miss_traces.push(o.trace_id);
                    }
                }
                if o.degraded {
                    degraded += 1;
                    if o.trace_id != 0 && degraded_traces.len() < SLO_BREACH_TRACES {
                        degraded_traces.push(o.trace_id);
                    }
                }
            }
            (obs.len(), misses, degraded, miss_traces, degraded_traces)
        };
        let miss_rate = if replies == 0 {
            0.0
        } else {
            misses as f64 / replies as f64
        };
        let degraded_rate = if replies == 0 {
            0.0
        } else {
            degraded as f64 / replies as f64
        };
        SLO_MISS_RATE.set(miss_rate);
        SLO_DEGRADED_RATE.set(degraded_rate);
        SLO_WINDOW_REPLIES.set(replies as i64);
        SLO_QUEUE_DEPTH.set(shared.queue.lock().map(|q| q.len()).unwrap_or(0) as i64);

        let enough = replies >= cfg.slo_min_samples;
        declare_breach(
            shared,
            &mut miss_breached,
            enough && miss_rate > SLO_MAX_MISS_RATE,
            "deadline_miss_rate",
            miss_rate,
            SLO_MAX_MISS_RATE,
            replies,
            miss_traces,
        );
        declare_breach(
            shared,
            &mut degraded_breached,
            enough && degraded_rate > SLO_MAX_DEGRADED_RATE,
            "degraded_rate",
            degraded_rate,
            SLO_MAX_DEGRADED_RATE,
            replies,
            degraded_traces,
        );
        if shared.shutting_down() {
            return;
        }
    }
}

/// Rising-edge breach bookkeeping: record + emit only on the off→on
/// transition of one kind, re-arm when the rate recovers.
#[allow(clippy::too_many_arguments)]
fn declare_breach<C: Conn>(
    shared: &Shared<C>,
    armed: &mut bool,
    over: bool,
    kind: &'static str,
    rate: f64,
    threshold: f64,
    window_replies: usize,
    trace_ids: Vec<u64>,
) {
    if !over {
        *armed = false;
        return;
    }
    if *armed {
        return; // still inside the same breach episode
    }
    *armed = true;
    SLO_BREACHES.inc();
    let traces_str = trace_ids
        .iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",");
    log_event!(
        "slo.breach",
        "kind" = kind,
        "rate" = rate,
        "threshold" = threshold,
        "window_replies" = window_replies,
        "traces" = traces_str.as_str()
    );
    if let Ok(mut b) = shared.breaches.lock() {
        if b.len() >= SLO_BREACH_CAP {
            b.remove(0);
        }
        b.push(SloBreach {
            kind,
            rate,
            threshold,
            window_replies,
            trace_ids,
        });
    }
}

/// Join (and drop) session threads that have already exited, so a
/// long-running server doesn't accumulate one `JoinHandle` per
/// connection ever accepted. Called from the acceptor's idle tick and
/// before registering each new session.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            let h = handles.swap_remove(i);
            let _ = h.join();
        } else {
            i += 1;
        }
    }
}

/// Per-session state owned by the reader thread.
struct Session<C: Conn> {
    id: u64,
    /// What the session's `Hello` claimed; a reconnect must claim the
    /// same to resume it.
    identity: Identity,
    /// The resume token handed out in `Welcome` (None when resumption is
    /// disabled); the key this session parks under on disconnect.
    token: Option<String>,
    imputers: HashMap<usize, StreamingImputer<Arc<TransformerImputer>>>,
    writer: Arc<SessionWriter<C>>,
}

/// How a session's read loop ended — decides parking.
#[derive(PartialEq)]
enum SessionEnd {
    /// Client said `Bye` (or the server is draining): nothing to resume.
    Graceful,
    /// The connection died mid-session: park for resumption.
    Disconnected,
}

fn handle_connection<C: Conn>(shared: &Arc<Shared<C>>, stream: C) {
    let cfg = &shared.cfg;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = Arc::new(SessionWriter {
        stream: Mutex::new(stream),
        inflight: AtomicUsize::new(0),
        answered: AtomicU64::new(0),
        dead: AtomicBool::new(false),
        ledger: Ledger::new(cfg.replay_window),
        codec: AtomicU8::new(0),
    });
    let mut reader = FrameReader::with_max_len(read_half, cfg.max_frame_len);

    let Some(mut session) = handshake(shared, &mut reader, &writer) else {
        return;
    };
    SESSIONS_ACTIVE.add(1);
    shared
        .counters
        .active_sessions
        .fetch_add(1, Ordering::Relaxed);
    log_event!(
        "serve.session.open",
        "session" = session.id,
        "tenant" = session.identity.tenant.as_str()
    );

    let mut stalls = Stalls::default();
    let mut end = SessionEnd::Disconnected;
    loop {
        if shared.shutting_down() {
            drain_inflight(shared, &session.writer, false);
            let _ = session.writer.send(
                shared,
                &Frame::Error {
                    code: "shutting_down".into(),
                    message: "server draining; goodbye".into(),
                },
            );
            end = SessionEnd::Graceful;
            break;
        }
        if session.writer.dead.load(Ordering::Acquire) {
            break; // killed by a worker (slow reader)
        }
        match reader.poll_frame() {
            Ok(None) => {
                if stalls.timed_out(reader.pending()) {
                    SLOW_DISCONNECTS.inc();
                    shared
                        .counters
                        .slow_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                    log_event!("serve.stall_disconnect", "session" = session.id);
                    break;
                }
            }
            Ok(Some(frame)) => {
                stalls.progressed();
                let decode_ns = reader.last_decode_ns();
                if !handle_frame(shared, &mut session, frame, decode_ns) {
                    end = SessionEnd::Graceful; // only `Bye` ends in-band
                    break;
                }
            }
            Err(WireError::Closed) => break,
            Err(
                e @ (WireError::Truncated { .. }
                | WireError::Oversized { .. }
                | WireError::Malformed(_)),
            ) => {
                // Framing is lost — report and hang up.
                MALFORMED.inc();
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = session.writer.send(
                    shared,
                    &Frame::Error {
                        code: "bad_frame".into(),
                        message: e.to_string(),
                    },
                );
                break;
            }
            Err(_) => break,
        }
    }
    session.writer.dead.store(true, Ordering::Release);
    SESSIONS_ACTIVE.add(-1);
    shared
        .counters
        .active_sessions
        .fetch_sub(1, Ordering::Relaxed);
    log_event!(
        "serve.session.close",
        "session" = session.id,
        "answered" = session.writer.answered.load(Ordering::Relaxed)
    );
    if end == SessionEnd::Disconnected && !shared.shutting_down() {
        park_session(shared, session);
    }
}

/// Park a disconnected session for resumption: it goes into
/// `Shared::parked` whole under its resume token, bounded by
/// `max_parked`/`parked_ttl`.
fn park_session<C: Conn>(shared: &Shared<C>, session: Session<C>) {
    let Some(token) = session.token.clone() else {
        return; // resumption disabled
    };
    let now = shared.cfg.clock.now();
    let mut parked = shared.parked.lock().unwrap_or_else(PoisonError::into_inner);
    parked.retain(|_, (_, at)| now.saturating_duration_since(*at) <= shared.cfg.parked_ttl);
    while parked.len() >= shared.cfg.max_parked {
        let Some(oldest) = parked
            .iter()
            .min_by_key(|(_, (_, at))| *at)
            .map(|(k, _)| k.clone())
        else {
            break;
        };
        parked.remove(&oldest);
    }
    log_event!(
        "serve.session.park",
        "session" = session.id,
        "inflight" = session.writer.inflight.load(Ordering::Acquire)
    );
    parked.insert(token, (session, now));
    PARKED_SESSIONS.set(parked.len() as i64);
    drop(parked);
    shared.parked_cv.notify_all();
}

/// Expect `Hello`, validate geometry, reply `Welcome`. `None` aborts the
/// connection.
fn handshake<C: Conn>(
    shared: &Arc<Shared<C>>,
    reader: &mut FrameReader<C>,
    writer: &Arc<SessionWriter<C>>,
) -> Option<Session<C>> {
    let cfg = &shared.cfg;
    let hello = session::read_hello(
        reader,
        || cfg.clock.now(),
        || shared.shutting_down(),
        || shared.counters.stats_frame(),
        |frame| writer.send(shared, frame),
    )?;
    // A draining node refuses every new session — fresh *and* resume —
    // so the placement layer moves it (and its parked state, via the
    // resume token) to another node. The opening's probe frames still
    // work: drain must not blind the health checker.
    if shared.draining() {
        let _ = writer.send(
            shared,
            &Frame::Error {
                code: "draining".into(),
                message: "node is draining; place this session elsewhere".into(),
            },
        );
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
        MALFORMED.inc();
        shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
        let _ = writer.send(
            shared,
            &Frame::Error {
                code: "bad_handshake".into(),
                message: format!(
                    "invalid geometry: ports={} queues={queues} interval_len={interval_len} \
                     window_intervals={window_intervals} (model encodes {max_len} steps)",
                    ports.len()
                ),
            },
        );
        return None;
    }
    let id = shared.counters.sessions.fetch_add(1, Ordering::Relaxed) + 1;
    SESSIONS.inc();

    // Resume path: re-attach to a parked session's windows and replay
    // log instead of building fresh state.
    if let Some(tok) = hello.resume_token.as_ref().filter(|_| shared.resumable()) {
        if let Some(mut parked) = claim_parked(shared, tok, &hello.identity) {
            parked.id = id;
            return resume_session(shared, writer, parked, hello.last_acked);
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
                    cfg.engine.clone(),
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
    let token = shared
        .resumable()
        .then(|| session::resume_token_for("tok", &mut mint_state));
    // Codec negotiation: the server's preference, if the client
    // advertised it. The Welcome itself still goes out as JSON (the
    // writer's codec is switched only after it is sent), so a client
    // can always parse the verdict with its pre-negotiation decoder.
    let codec = WireCodec::negotiate(cfg.wire, hello.codecs.as_deref());
    let deadline_ms = cfg.deadline.as_millis() as u64;
    let welcome = session::welcome(id, deadline_ms, token.as_deref(), None, codec);
    if !writer.send(shared, &welcome) {
        return None;
    }
    writer.set_codec(codec);
    Some(Session {
        id,
        identity: hello.identity,
        token,
        imputers,
        writer: Arc::clone(writer),
    })
}

/// Claim the parked session for `tok` if the reconnecting `Hello` claims
/// the identity it was opened with. Waits briefly for the park to land
/// (the old connection's reader may still be unwinding when the client
/// retries). A parked entry older than `parked_ttl` (on the injected
/// clock) is expired here rather than claimed: the reconnect gets a
/// fresh session.
fn claim_parked<C: Conn>(shared: &Shared<C>, tok: &str, identity: &Identity) -> Option<Session<C>> {
    // The wait budget is real time (poll patience, not protocol time):
    // under a virtual clock a reconnect race still resolves in real
    // microseconds even though no one is advancing virtual time.
    let deadline = Instant::now() + shared.cfg.resume_claim_wait;
    let mut parked = shared.parked.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if let Some((p, parked_at)) = parked.get(tok) {
            let expired = shared.cfg.clock.now().saturating_duration_since(*parked_at)
                > shared.cfg.parked_ttl;
            // Same token, different identity: refuse the claim (fresh
            // session) but leave the parked state alone. Expired: drop
            // the stale state so nothing leaks, and let the handshake
            // fall through to a fresh session.
            if !expired && p.identity != *identity {
                return None;
            }
            let (claimed, _) = parked.remove(tok)?;
            PARKED_SESSIONS.set(parked.len() as i64);
            return (!expired).then_some(claimed);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || shared.shutting_down() {
            return None;
        }
        let (guard, _timeout) = shared
            .parked_cv
            .wait_timeout(parked, left.min(Duration::from_millis(10)))
            .unwrap_or_else(PoisonError::into_inner);
        parked = guard;
    }
}

/// Finish a successful resume: attach the new connection to the parked
/// writer, drain stragglers into the ledger, tell the client where to
/// rewind to, and replay everything past its `last_acked`. Until the
/// `Welcome` clears the new connection, any failure re-parks `session`
/// under the same token (a dropped ledger here would turn a transient
/// reconnect hiccup into permanent reply loss).
fn resume_session<C: Conn>(
    shared: &Arc<Shared<C>>,
    fresh_writer: &Arc<SessionWriter<C>>,
    session: Session<C>,
    last_acked: Option<u64>,
) -> Option<Session<C>> {
    // The new connection's socket currently lives inside the throwaway
    // pre-handshake writer; dup it into the parked writer.
    let stream = match fresh_writer
        .stream
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .try_clone()
    {
        Ok(s) => s,
        Err(_) => {
            park_session(shared, session);
            return None;
        }
    };
    let writer = Arc::clone(&session.writer);
    // Let replies already in the worker pipeline commit to the ledger
    // before it snapshots the watermark — after this, every seq ≤
    // resume_seq has a logged reply and every seq above it never reached
    // the server.
    drain_inflight(shared, &writer, true);
    writer.attach(stream);
    let (resume_seq, replay) = writer.ledger.resume(last_acked, shared.cfg.injected_bug);
    let welcome = session::welcome(
        session.id,
        shared.cfg.deadline.as_millis() as u64,
        session.token.as_deref(),
        Some(resume_seq),
        writer.codec(),
    );
    if !writer.send(shared, &welcome) {
        // The Welcome never cleared the reconnect (it died mid-
        // handshake). The session is still fully resumable: park it
        // again so the client's next retry can claim it.
        park_session(shared, session);
        return None;
    }
    RESUMES.inc();
    shared.counters.resumes.fetch_add(1, Ordering::Relaxed);
    // Exactly-once completion: the client dedups anything it already
    // processed; gaps it was waiting on are filled here. A failed write
    // marks the writer dead, which ends (and re-parks) the session on
    // the read loop's first turn.
    let mut replayed = 0u64;
    for bytes in &replay {
        if !writer.send_bytes(shared, bytes, "Replay") {
            break;
        }
        replayed += 1;
    }
    REPLAYED.add(replayed);
    shared
        .counters
        .replayed
        .fetch_add(replayed, Ordering::Relaxed);
    // Replayed frames are replies shipped to a client: the originals
    // never cleared the (now-dead) socket, so they were not counted
    // when the worker produced them.
    REPLIES.add(replayed);
    shared
        .counters
        .replies
        .fetch_add(replayed, Ordering::Relaxed);
    log_event!(
        "serve.session.resume",
        "session" = session.id,
        "resume_seq" = resume_seq,
        "replayed" = replayed,
        "tenant" = session.identity.tenant.as_str()
    );
    Some(session)
}

/// Process one client frame. `decode_ns` is how long the reader spent
/// parsing this frame (0 when tracing is off). Returns `false` to end
/// the session.
fn handle_frame<C: Conn>(
    shared: &Arc<Shared<C>>,
    session: &mut Session<C>,
    frame: Frame,
    decode_ns: u64,
) -> bool {
    let cfg = &shared.cfg;
    if let Some(reply) = session::probe_reply(&frame, || shared.counters.stats_frame()) {
        session.writer.send(shared, &reply);
        return true;
    }
    match frame {
        Frame::Interval {
            seq,
            update,
            trace_id,
        } => {
            let accepted_at = cfg.clock.now();
            // Root this interval's trace, adopting the client's id when
            // one rode in on the frame so both halves stitch together.
            // The RAII span itself covers admit + window + model forward
            // (everything this thread does); later stages attach to its
            // context retroactively from the worker pool.
            let root = trace::root_with_id("serve.interval", trace_id.unwrap_or(0));
            let ctx = root.context();
            if decode_ns > 0 && ctx.is_set() {
                STAGE_DECODE_US.record(decode_ns);
                let dur = Duration::from_nanos(decode_ns);
                let start = accepted_at.checked_sub(dur).unwrap_or(accepted_at);
                trace::record_span("serve.decode", ctx, start, dur);
            }
            // Duplicate delivery (client retransmit after resume): a seq
            // we already committed a reply for is answered from the
            // replay log — the sliding window is NEVER fed twice, which
            // is what keeps resumed streams bitwise-identical. A seq at
            // or below the high-water mark *without* a logged reply is a
            // reordered frame that never reached us; it falls through
            // and is ingested normally (pre-resume behaviour).
            if let Some(bytes) = session.writer.ledger.answered(seq) {
                REPLAYED.inc();
                shared.counters.replayed.fetch_add(1, Ordering::Relaxed);
                if session.writer.send_bytes(shared, &bytes, "Replay") {
                    REPLIES.inc();
                    shared.counters.replies.fetch_add(1, Ordering::Relaxed);
                }
                return true;
            }
            // Admission control first: over-budget intervals are dropped
            // before costing a model forward pass.
            let depth = session.writer.inflight.load(Ordering::Acquire);
            if depth >= cfg.queue_depth {
                REJECTED.inc();
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                session
                    .writer
                    .send_reply(shared, seq, &Frame::Busy { seq, depth });
                return true;
            }
            let Some(imputer) = session.imputers.get_mut(&update.port) else {
                MALFORMED.inc();
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                session.writer.send_reply(
                    shared,
                    seq,
                    &Frame::Reject {
                        seq,
                        reason: format!("port {} not announced in Hello", update.port),
                    },
                );
                return true;
            };
            // Forward stage: window bookkeeping + the model forward for
            // the interval this tick ships (warm-up Acks cost no forward
            // and are not samples of it).
            let forward_start = cfg.clock.now();
            match imputer.try_prepare_newest(update) {
                Err(e) => {
                    MALFORMED.inc();
                    shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                    session.writer.send_reply(
                        shared,
                        seq,
                        &Frame::Reject {
                            seq,
                            reason: e.to_string(),
                        },
                    );
                }
                Ok(None) => {
                    ACCEPTED.inc();
                    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    let buffered = imputer.buffered();
                    session
                        .writer
                        .send_reply(shared, seq, &Frame::Ack { seq, buffered });
                }
                Ok(Some(item)) => {
                    let forward_dur = cfg.clock.now().saturating_duration_since(forward_start);
                    STAGE_FORWARD_US.record_duration(forward_dur);
                    trace::record_span("serve.forward", ctx, forward_start, forward_dur);
                    ACCEPTED.inc();
                    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    session.writer.inflight.fetch_add(1, Ordering::AcqRel);
                    let job = Job {
                        seq,
                        port: imputer.port(),
                        item,
                        accepted_at,
                        enqueued_at: cfg.clock.now(),
                        trace: ctx,
                        writer: Arc::clone(&session.writer),
                        requeued_at: None,
                    };
                    shared.queue.lock().unwrap().push_back(job);
                    shared.queue_cv.notify_one();
                }
            }
            true
        }
        Frame::Bye => {
            drain_inflight(shared, &session.writer, false);
            let answered = session.writer.answered.load(Ordering::Relaxed);
            // Honest drain accounting: if the bounded drain budget ran
            // out, report how many accepted intervals are still
            // unanswered instead of implying a full drain.
            let remaining = session.writer.inflight.load(Ordering::Acquire) as u64;
            session.writer.send(
                shared,
                &Frame::ByeAck {
                    answered,
                    remaining,
                },
            );
            false
        }
        other => {
            MALFORMED.inc();
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            session.writer.send(
                shared,
                &Frame::Error {
                    code: "unexpected".into(),
                    message: format!("unexpected {} frame", other.tag()),
                },
            );
            true
        }
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

/// Worker: pop one job, coalesce whatever else is queued (bounded by
/// `max_batch` and by the first job's remaining deadline slack), run one
/// `enforce_degraded_batch`, write replies.
///
/// The batch body runs under `catch_unwind` so a panic (injected or
/// genuine) takes down only this iteration, not the server. The sealed
/// batch lives in a `Mutex` holder whose guard is held for the whole
/// body: jobs are popped from the front only *after* their reply is
/// fully committed, so on unwind the poisoned holder yields exactly the
/// unanswered tail, which [`worker_down`] re-enqueues at the head of
/// the queue. The supervisor then respawns this slot.
fn worker_loop<C: Conn>(shared: &Arc<Shared<C>>, worker: usize) {
    let cfg = &shared.cfg;
    // No window deadline: a wall-clock-dependent rung would make replies
    // differ from the offline path, which the differential harnesses
    // hold bitwise.
    let ladder = LadderConfig {
        engine: cfg.engine.clone(),
        breaker: cfg.breaker.clone(),
        ..LadderConfig::default()
    };
    loop {
        let Some(batch) = collect_batch(shared) else {
            return;
        };
        let holder = Mutex::new(batch);
        let result = catch_unwind(AssertUnwindSafe(|| process_batch(shared, &holder, &ladder)));
        if let Err(payload) = result {
            let survivors = holder.into_inner().unwrap_or_else(PoisonError::into_inner);
            worker_down(shared, worker, payload, survivors);
            // The thread exits; the supervisor joins it and spawns a
            // replacement under the restart budget.
            return;
        }
    }
}

/// Block until at least one job is available (or shutdown drains the
/// queue), then coalesce up to `max_batch` jobs bounded by the first
/// job's remaining deadline slack. `None` means clean shutdown.
fn collect_batch<C: Conn>(shared: &Arc<Shared<C>>) -> Option<Vec<Job<C>>> {
    let cfg = &shared.cfg;
    let mut q = shared.queue.lock().unwrap();
    let first = loop {
        if let Some(j) = q.pop_front() {
            break j;
        }
        if shared.shutting_down() && shared.active_readers.load(Ordering::Acquire) == 0 {
            return None;
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(q, Duration::from_millis(20))
            .unwrap();
        q = guard;
    };
    let mut batch = vec![first];
    while batch.len() < cfg.max_batch {
        match q.pop_front() {
            Some(j) => batch.push(j),
            None => break,
        }
    }
    // Deadline-aware coalescing: wait a short beat for stragglers,
    // but never longer than half the first job's remaining slack.
    // Skipped under virtual time: the wait below is a *real* condvar
    // wait against virtual slack, which a simulated schedule would have
    // to drive by advancing the clock mid-batch — sealing immediately
    // keeps batch composition a pure function of the queue state.
    if batch.len() < cfg.max_batch && !cfg.batch_wait.is_zero() && !cfg.clock.is_virtual() {
        let slack = cfg.deadline.saturating_sub(
            cfg.clock
                .now()
                .saturating_duration_since(batch[0].accepted_at),
        );
        let wait_until = Instant::now() + cfg.batch_wait.min(slack / 2);
        while batch.len() < cfg.max_batch {
            let remaining = wait_until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let (guard, res) = shared.queue_cv.wait_timeout(q, remaining).unwrap();
            q = guard;
            while batch.len() < cfg.max_batch {
                match q.pop_front() {
                    Some(j) => batch.push(j),
                    None => break,
                }
            }
            if res.timed_out() {
                break;
            }
        }
    }
    Some(batch)
}

/// Enforce one sealed batch and ship its replies. Runs under
/// `catch_unwind`; the holder's guard is held throughout so unwinding
/// leaves the unanswered jobs recoverable via the poisoned mutex.
fn process_batch<C: Conn>(
    shared: &Arc<Shared<C>>,
    holder: &Mutex<Vec<Job<C>>>,
    ladder: &LadderConfig,
) {
    let cfg = &shared.cfg;
    let mut guard = holder.lock().unwrap();
    let batch: &mut Vec<Job<C>> = &mut guard;

    BATCHES.inc();
    // The returned pre-increment value is this batch's ordinal — the
    // deterministic clock the process-fault plan keys on. A re-enqueued
    // batch is re-collected and gets a *new* ordinal, so a panic cadence
    // of `every >= 2` cannot poison its own retry forever.
    let ordinal = shared.counters.batches.fetch_add(1, Ordering::Relaxed);
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
    let opts = EnforceOptions::new(cfg.jobs, Some(&shared.cache));
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

    for outcome in outcomes {
        // Borrow the front job; it is removed only after its reply is
        // fully committed, so an unwind mid-reply re-enqueues it.
        let job = &batch[0];
        // Self-check, on the interval that is shipped: the ladder's
        // contract is that outputs satisfy the (possibly relaxed)
        // constraints exactly. Count, never ship silently.
        let effective = outcome.effective_constraints(&job.item.0);
        if !effective.satisfied_exact(&outcome.corrected) {
            VIOLATIONS.inc();
            shared.counters.violations.fetch_add(1, Ordering::Relaxed);
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
            DEADLINE_MISS.inc();
            shared
                .counters
                .deadline_misses
                .fetch_add(1, Ordering::Relaxed);
        }
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
        let bytes = encode_frame_with(&frame, job.writer.codec(), cfg.max_frame_len);
        let encode_dur = cfg.clock.now().saturating_duration_since(encode_start);
        let sent = match &bytes {
            Ok(bytes) => {
                STAGE_ENCODE_US.record_duration(encode_dur);
                trace::record_span("serve.encode", job.trace, encode_start, encode_dur);
                if slow_write && first_write {
                    record_process_fault(FaultKind::SlowWrite);
                    cfg.clock.sleep(Duration::from_millis(pf.slow_write_ms));
                }
                first_write = false;
                // Record before send: a reply that may have reached the
                // wire must be replayable.
                job.writer.ledger.commit(job.seq, bytes);
                let write_start = cfg.clock.now();
                let ok = job.writer.send_bytes(shared, bytes, frame.tag());
                let write_dur = cfg.clock.now().saturating_duration_since(write_start);
                STAGE_WRITE_US.record_duration(write_dur);
                trace::record_span("serve.write", job.trace, write_start, write_dur);
                ok
            }
            Err(_) => false,
        };
        if sent {
            REPLIES.inc();
            shared.counters.replies.fetch_add(1, Ordering::Relaxed);
            job.writer.answered.fetch_add(1, Ordering::Relaxed);
        }
        // Recovery latency: requeue (panic) → reply committed.
        if let Some(requeued_at) = job.requeued_at {
            let lat = cfg.clock.now().saturating_duration_since(requeued_at);
            REQUEUE_LATENCY_US.record_duration(lat);
            if let Ok(mut v) = shared.requeue_lat.lock() {
                if v.len() < REQUEUE_LAT_CAP {
                    v.push(lat.as_micros() as u64);
                }
            }
        }
        job.writer.inflight.fetch_sub(1, Ordering::AcqRel);
        // Feed the SLO watchdog's sliding window (bounded).
        if let Ok(mut obs) = shared.slo_obs.lock() {
            if obs.len() >= SLO_OBS_CAP {
                obs.pop_front();
            }
            obs.push_back(ReplyObs {
                at: cfg.clock.now(),
                missed,
                degraded: level != DegradationLevel::Full,
                trace_id: job.trace.trace_id,
            });
        }
        // Reply fully committed: drop the job from the recoverable set.
        batch.remove(0);
    }
}

/// A worker thread is unwinding: account the panic, re-enqueue the
/// unanswered jobs at the *head* of the queue (preserving admission
/// order), and leave an obit for the supervisor to act on.
fn worker_down<C: Conn>(
    shared: &Arc<Shared<C>>,
    worker: usize,
    payload: Box<dyn std::any::Any + Send>,
    mut survivors: Vec<Job<C>>,
) {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    WORKER_PANICS.inc();
    shared
        .counters
        .worker_panics
        .fetch_add(1, Ordering::Relaxed);
    let trace_ids: Vec<u64> = survivors
        .iter()
        .map(|j| j.trace.trace_id)
        .filter(|&t| t != 0)
        .collect();
    let requeued = survivors.len();
    let now = shared.cfg.clock.now();
    {
        // Poison-tolerant: this runs on the panicking thread's unwind
        // path and must make progress even if another holder panicked.
        let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // push_front in reverse keeps the survivors' relative order.
        for mut job in survivors.drain(..).rev() {
            job.requeued_at.get_or_insert(now);
            q.push_front(job);
        }
    }
    shared.queue_cv.notify_all();
    shared
        .obits
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(WorkerObit {
            worker,
            payload: msg,
            trace_ids,
            requeued,
        });
}
