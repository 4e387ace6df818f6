//! Trace-replay load generator for `fmml-serve`.
//!
//! Replays `netsim` telemetry as `M` concurrent protocol clients, each a
//! real TCP session against a running server, and measures the *client
//! side* of the 50 ms question: end-to-end latency percentiles
//! (send→`Imputed` received), deadline-miss rate, throughput vs wire
//! rate, and the admission/rejection counts the server reported.
//!
//! Chaos modes ([`ChaosConfig`]) reproduce the fault taxonomy on the
//! wire: mid-stream disconnects (abrupt socket close + reconnect),
//! corrupted frames (garbage payloads and hostile length prefixes),
//! malformed updates (wrong queue shape, contradictory sample > max —
//! `fmml-fault`'s `ValueCorruption`/`StructuralDrop` equivalents), and
//! reordered intervals. The server's contract under all of it: typed
//! rejections, zero panics, zero constraint violations.

use crate::protocol::{
    encode_frame_with, write_bytes, write_frame, Frame, FrameReader, WireCodec, MAX_FRAME_LEN,
};
use crate::session::{ClientSession, Identity, Welcomed};
use crate::transport::{Conn, Connector, TcpConnector};
use fmml_core::streaming::IntervalUpdate;
use fmml_fm::cem::DegradationLevel;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::trace::{self, TraceContext};
use fmml_obs::{log_event, Counter, FloatGauge, Histogram, Unit};
use fmml_telemetry::{windows_from_trace, PortWindow};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static LG_SENT: Counter = Counter::new("serve.loadgen.sent");
static LG_ANSWERED: Counter = Counter::new("serve.loadgen.answered");
static LG_BUSY: Counter = Counter::new("serve.loadgen.busy");
static LG_REJECTED: Counter = Counter::new("serve.loadgen.rejected");
static LG_LOST: Counter = Counter::new("serve.loadgen.lost");
static LG_RECONNECTS: Counter = Counter::new("serve.loadgen.reconnects");
static LG_RESUMES: Counter = Counter::new("serve.loadgen.resumes");
static LG_DUPLICATES: Counter = Counter::new("serve.loadgen.duplicates");
static LG_E2E_US: Histogram = Histogram::new("serve.loadgen.e2e_us", Unit::Micros);
static LG_MISS_RATE: FloatGauge = FloatGauge::new("serve.loadgen.deadline_miss_rate");

/// Per-interval chaos probabilities (all default 0 = clean replay).
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Abruptly close the socket mid-stream, then reconnect as a fresh
    /// session and keep replaying.
    pub disconnect_prob: f64,
    /// Send a corrupted frame (garbage JSON payload, or a hostile
    /// length prefix) instead of the interval. The server hangs up with
    /// a typed `Error`; the client reconnects.
    pub corrupt_frame_prob: f64,
    /// Send a malformed update: dropped queue column or a contradictory
    /// `sample > max` measurement.
    pub corrupt_data_prob: f64,
    /// Swap this interval with the next one before sending (temporal
    /// reordering).
    pub reorder_prob: f64,
}

impl ChaosConfig {
    /// The standard chaos preset used by `fmml loadgen --chaos` and CI:
    /// ≥10% of intervals are disturbed in some way.
    pub fn standard() -> ChaosConfig {
        ChaosConfig {
            disconnect_prob: 0.01,
            corrupt_frame_prob: 0.01,
            corrupt_data_prob: 0.05,
            reorder_prob: 0.05,
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4700`.
    pub addr: String,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Intervals each client replays.
    pub intervals: usize,
    /// Trace geometry (must match what the model was trained on).
    pub interval_len: usize,
    pub window_intervals: usize,
    /// Simulation used as the trace source.
    pub sim: SimConfig,
    pub sim_ms: u64,
    /// Clients share traces modulo this count (>=1): small values make
    /// the workload cache-friendly, `clients` makes every stream unique.
    pub distinct_traces: usize,
    /// RNG seed for trace choice and chaos rolls.
    pub seed: u64,
    /// End-to-end budget a reply must beat (the 50 ms wire period).
    pub deadline: Duration,
    /// Gap between sends; `None` replays as fast as possible.
    pub pace: Option<Duration>,
    pub chaos: Option<ChaosConfig>,
    pub tenant_prefix: String,
    /// Preferred wire codec (`--wire`): `Bin1` (default) makes every
    /// client advertise the v2 codec in its `Hello` and encode with
    /// whatever the server's `Welcome` picks; `Json` does not advertise,
    /// so the session stays on the v1 wire.
    pub wire: WireCodec,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:4700".into(),
            clients: 1,
            intervals: 60,
            interval_len: 10,
            window_intervals: 6,
            sim: SimConfig::small(),
            sim_ms: 720,
            distinct_traces: 2,
            seed: 7,
            deadline: Duration::from_millis(50),
            pace: None,
            chaos: None,
            tenant_prefix: "tenant".into(),
            wire: WireCodec::Bin1,
        }
    }
}

/// Aggregated measurement across all clients. Flat (and
/// `Serialize`-derived) so `--stats-json` consumers can grep fields like
/// `deadline_miss_rate` and `rejected` directly.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LoadReport {
    pub clients: usize,
    /// Well-formed `Interval` frames sent.
    pub sent: u64,
    /// `Imputed` replies received.
    pub answered: u64,
    /// Warm-up `Ack`s received.
    pub acked: u64,
    /// `Busy` rejections received (admission control).
    pub rejected: u64,
    /// `Reject` answers to malformed updates.
    pub malformed_rejects: u64,
    /// Corrupted frames deliberately sent.
    pub corrupt_frames: u64,
    /// Intervals that were *sent* but whose reply was lost to a (chaos)
    /// disconnect or shutdown.
    pub lost: u64,
    /// Intervals never sent because the client gave up reconnecting
    /// (e.g. the server shut down mid-replay).
    pub unsent: u64,
    pub reconnects: u64,
    /// Sessions successfully resumed from a prior connection's
    /// `resume_token` (server replayed the outstanding replies).
    pub resumes: u64,
    /// Replies received for seqs already answered (resume replay overlap
    /// or duplicated delivery) — deduped client-side, never double
    /// counted.
    pub duplicates: u64,
    /// Client threads that panicked instead of reporting; their partial
    /// tallies are excluded from every other field.
    pub client_failures: u64,
    /// `Error` frames received from the server.
    pub server_errors: u64,
    /// Imputed replies whose `level` label failed to parse.
    pub unknown_levels: u64,
    /// Clean sessions that ended without a `ByeAck`, or whose `ByeAck`
    /// reported a partial (timed-out) drain with `remaining > 0`.
    pub drain_losses: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
    pub max_us: u64,
    pub deadline_miss: u64,
    pub deadline_miss_rate: f64,
    /// `Imputed` replies per second, all clients combined.
    pub throughput_rps: f64,
    /// Throughput relative to the aggregate wire rate
    /// (`clients / deadline`): ≥ 1.0 sustains replay at wire rate.
    pub wire_rate_x: f64,
    pub elapsed_ms: u64,
    /// Server-side counters from a final `Stats` probe, taken after the
    /// clients finished (0 if the probe failed).
    pub server_sessions: u64,
    pub server_accepted: u64,
    pub server_rejected: u64,
    pub server_malformed: u64,
    pub server_batches: u64,
    pub server_deadline_misses: u64,
    pub server_violations: u64,
    pub server_slow_disconnects: u64,
}

/// What a single client measured.
#[derive(Debug, Default)]
struct ClientReport {
    sent: u64,
    acked: u64,
    busy: u64,
    malformed_rejects: u64,
    corrupt_frames: u64,
    lost: u64,
    unsent: u64,
    reconnects: u64,
    resumes: u64,
    duplicates: u64,
    server_errors: u64,
    unknown_levels: u64,
    drain_losses: u64,
    connect_failures: u64,
    latencies_us: Vec<u64>,
}

/// Tag of one pending seq: its first send time and the trace id minted
/// for it (0 = untraced).
type Sent = (Instant, u64);

/// State shared between a client's sender and reader threads.
#[derive(Default)]
struct ClientShared {
    latencies_us: Mutex<Vec<u64>>,
    acked: AtomicU64,
    busy: AtomicU64,
    malformed_rejects: AtomicU64,
    server_errors: AtomicU64,
    unknown_levels: AtomicU64,
    /// Replies for seqs already answered (replay overlap after resume).
    duplicates: AtomicU64,
    saw_byeack: AtomicBool,
    /// `remaining` reported by the `ByeAck` (non-zero = partial drain).
    byeack_remaining: AtomicU64,
    /// Reader saw the connection end (any reason).
    done: AtomicBool,
    stop: AtomicBool,
}

impl ClientShared {
    /// The tallies outlive a single connection; per-connection flags
    /// are re-armed before each reader spawn.
    fn reset_for_connection(&self) {
        self.saw_byeack.store(false, Ordering::Release);
        self.byeack_remaining.store(0, Ordering::Release);
        self.done.store(false, Ordering::Release);
        self.stop.store(false, Ordering::Release);
    }
}

/// Run the load generator to completion and aggregate (TCP transport,
/// dialing `cfg.addr`).
pub fn run(cfg: &LoadgenConfig) -> LoadReport {
    let connector = Arc::new(TcpConnector {
        addr: cfg.addr.clone(),
    });
    assert!(cfg.clients >= 1 && cfg.intervals >= 1 && cfg.distinct_traces >= 1);
    // Touch every loadgen metric up front so the snapshot always carries
    // the full `serve.loadgen.*` family (counters register lazily, and
    // CI greps for e.g. `serve.loadgen.rejected` even when it stays 0).
    for c in [
        &LG_SENT,
        &LG_ANSWERED,
        &LG_BUSY,
        &LG_REJECTED,
        &LG_LOST,
        &LG_RECONNECTS,
        &LG_RESUMES,
        &LG_DUPLICATES,
    ] {
        c.add(0);
    }
    LG_MISS_RATE.set(0.0);
    log_event!(
        "serve.loadgen.start",
        "addr" = cfg.addr.as_str(),
        "clients" = cfg.clients as u64,
        "chaos" = cfg.chaos.is_some()
    );
    // Pre-generate the shared traces once (sim time dominates setup).
    let traces: Vec<Vec<IntervalUpdate>> = (0..cfg.distinct_traces.min(cfg.clients))
        .map(|t| trace_updates(cfg, cfg.seed + t as u64))
        .collect();
    let traces = Arc::new(traces);

    let started = Instant::now();
    let handles: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let cfg = cfg.clone();
            let traces = Arc::clone(&traces);
            let connector = Arc::clone(&connector);
            std::thread::Builder::new()
                .name(format!("loadgen-{c}"))
                .spawn(move || run_client(&cfg, &*connector, c, &traces[c % traces.len()]))
                .expect("spawn client")
        })
        .collect();
    // A panicked client must not take the whole run down with it: its
    // thread is accounted as a `client_failure` and the surviving
    // clients' measurements are still aggregated.
    let mut client_failures = 0u64;
    let reports: Vec<ClientReport> = handles
        .into_iter()
        .filter_map(|h| match h.join() {
            Ok(r) => Some(r),
            Err(_) => {
                client_failures += 1;
                log_event!("serve.loadgen.client_panic");
                None
            }
        })
        .collect();
    let elapsed = started.elapsed();

    let mut lat: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    lat.sort_unstable();
    let pct = |q: f64| -> u64 {
        if lat.is_empty() {
            0
        } else {
            lat[((lat.len() - 1) as f64 * q) as usize]
        }
    };
    let answered = lat.len() as u64;
    let deadline_us = cfg.deadline.as_micros() as u64;
    let deadline_miss = lat.iter().filter(|&&us| us > deadline_us).count() as u64;
    let deadline_miss_rate = if answered == 0 {
        0.0
    } else {
        deadline_miss as f64 / answered as f64
    };
    let throughput_rps = answered as f64 / elapsed.as_secs_f64().max(1e-9);
    let wire_rate = cfg.clients as f64 / cfg.deadline.as_secs_f64();
    let sum = |f: fn(&ClientReport) -> u64| reports.iter().map(f).sum::<u64>();

    let mut report = LoadReport {
        clients: cfg.clients,
        sent: sum(|r| r.sent),
        answered,
        acked: sum(|r| r.acked),
        rejected: sum(|r| r.busy),
        malformed_rejects: sum(|r| r.malformed_rejects),
        corrupt_frames: sum(|r| r.corrupt_frames),
        lost: sum(|r| r.lost),
        unsent: sum(|r| r.unsent),
        reconnects: sum(|r| r.reconnects),
        resumes: sum(|r| r.resumes),
        duplicates: sum(|r| r.duplicates),
        client_failures,
        server_errors: sum(|r| r.server_errors),
        unknown_levels: sum(|r| r.unknown_levels),
        drain_losses: sum(|r| r.drain_losses),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        max_us: lat.last().copied().unwrap_or(0),
        deadline_miss,
        deadline_miss_rate,
        throughput_rps,
        wire_rate_x: throughput_rps / wire_rate,
        elapsed_ms: elapsed.as_millis() as u64,
        ..LoadReport::default()
    };
    probe_stats(&*connector, &mut report);
    LG_MISS_RATE.set(report.deadline_miss_rate);
    log_event!(
        "serve.loadgen.done",
        "answered" = report.answered,
        "p99_us" = report.p99_us,
        "miss_rate" = report.deadline_miss_rate
    );
    report
}

/// Replay one port of one simulated trace as a flat interval stream.
fn trace_updates(cfg: &LoadgenConfig, seed: u64) -> Vec<IntervalUpdate> {
    let sim = cfg.sim.clone();
    let gt = Simulation::new(
        sim.clone(),
        TrafficConfig::websearch_incast(sim.num_ports, 0.6),
        seed,
    )
    .run_ms(cfg.sim_ms);
    let window_len = cfg.interval_len * cfg.window_intervals;
    let windows: Vec<PortWindow> =
        windows_from_trace(&gt, window_len, cfg.interval_len, window_len)
            .into_iter()
            .filter(|w| w.has_activity())
            .collect();
    let port = windows.first().map_or(0, |w| w.port);
    let mut updates = Vec::with_capacity(cfg.intervals);
    'outer: loop {
        for w in windows.iter().filter(|w| w.port == port) {
            for k in 0..w.intervals() {
                updates.push(IntervalUpdate::from_window(w, k));
                if updates.len() >= cfg.intervals {
                    break 'outer;
                }
            }
        }
        if updates.is_empty() {
            // Degenerate trace: synthesize an idle stream.
            updates.extend((0..cfg.intervals).map(|_| IntervalUpdate {
                port,
                samples: vec![0; cfg.sim.queues_per_port],
                maxes: vec![0; cfg.sim.queues_per_port],
                sent: 0,
                dropped: 0,
                received: 0,
            }));
            break;
        }
    }
    updates
}

/// Connect with seeded exponential backoff and jitter. A fixed retry
/// period makes every client that lost the same server hammer it in
/// lockstep on the same 20 ms grid; jittered doubling (5 ms → 320 ms
/// cap, scaled by U[0.5, 1.0)) spreads the reconnect storm while the
/// seed keeps each client's schedule reproducible.
fn connect_with_retry<K: Connector + ?Sized>(
    connector: &K,
    budget: Duration,
    rng: &mut StdRng,
) -> Option<K::Conn> {
    let deadline = Instant::now() + budget;
    let mut backoff = Duration::from_millis(5);
    const BACKOFF_CAP: Duration = Duration::from_millis(320);
    loop {
        match connector.connect() {
            Ok(s) => return Some(s),
            Err(_) => {
                let now = Instant::now();
                if now >= deadline {
                    return None;
                }
                let sleep = backoff
                    .mul_f64(rng.random_range(0.5f64..1.0))
                    .min(deadline - now);
                std::thread::sleep(sleep);
                backoff = backoff.saturating_mul(2).min(BACKOFF_CAP);
            }
        }
    }
}

/// Open a throwaway connection, ask the server for its counters and
/// fill the report's `server_*` fields (left 0 if the probe fails).
fn probe_stats<K: Connector + ?Sized>(connector: &K, report: &mut LoadReport) -> Option<()> {
    let mut rng = StdRng::seed_from_u64(0x5747_5f70_726f_6265); // "STW_probe"
    let stream = connect_with_retry(connector, Duration::from_secs(2), &mut rng)?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut reader = FrameReader::new(stream.try_clone().ok()?);
    let mut w = stream;
    write_frame(&mut w, &Frame::Stats).ok()?;
    loop {
        match reader.poll_frame() {
            Ok(Some(Frame::StatsReply {
                sessions,
                accepted,
                rejected,
                malformed,
                batches,
                deadline_misses,
                violations,
                slow_disconnects,
                ..
            })) => {
                report.server_sessions = sessions;
                report.server_accepted = accepted;
                report.server_rejected = rejected;
                report.server_malformed = malformed;
                report.server_batches = batches;
                report.server_deadline_misses = deadline_misses;
                report.server_violations = violations;
                report.server_slow_disconnects = slow_disconnects;
                return Some(());
            }
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => return None,
        }
    }
}

fn run_client<K: Connector + ?Sized>(
    cfg: &LoadgenConfig,
    connector: &K,
    client: usize,
    updates: &[IntervalUpdate],
) -> ClientReport {
    let mut report = ClientReport::default();
    let mut rng = StdRng::seed_from_u64(
        cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(client as u64 + 1)),
    );
    let chaos = cfg.chaos.clone().unwrap_or_default();
    let mut updates: Vec<IntervalUpdate> = updates.to_vec();
    let mut idx = 0usize;
    // The session and the tallies are per-*client*, not per-connection:
    // pending seqs must survive a disconnect so a resumed session can
    // reconcile them against the server's replay instead of writing
    // them off.
    let session: Arc<Mutex<ClientSession<Sent>>> = Arc::new(Mutex::new(ClientSession::new(
        Identity {
            tenant: format!("{}-{client}", cfg.tenant_prefix),
            ports: vec![updates[0].port],
            queues: updates[0].samples.len(),
            interval_len: cfg.interval_len,
            window_intervals: cfg.window_intervals,
        },
        cfg.wire,
    )));
    let shared = Arc::new(ClientShared::default());

    loop {
        if idx >= updates.len() && session.lock().unwrap().pending() == 0 {
            break;
        }
        let retry_budget = if report.reconnects == 0 && report.connect_failures == 0 {
            Duration::from_secs(5) // initial connect: the server may still be starting
        } else {
            Duration::from_secs(2) // reconnect after chaos/shutdown: give up sooner
        };
        let Some(stream) = connect_with_retry(connector, retry_budget, &mut rng) else {
            report.connect_failures += 1;
            report.unsent += (updates.len() - idx) as u64;
            break;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
        let Ok(read_half) = stream.try_clone() else {
            report.connect_failures += 1;
            break;
        };
        let mut w = stream;
        // A token from a previous Welcome asks the server to resume.
        let hello = session.lock().unwrap().hello();
        if write_frame(&mut w, &hello).is_err() {
            report.connect_failures += 1;
            continue;
        }
        let mut hs_reader = FrameReader::new(read_half);
        let Some(welcomed) =
            await_welcome(&mut hs_reader).and_then(|f| session.lock().unwrap().welcome(&f))
        else {
            report.connect_failures += 1;
            report.reconnects += 1;
            continue;
        };
        let codec = session.lock().unwrap().codec();
        let resend = match welcomed {
            Welcomed::Resumed { resend } => {
                report.resumes += 1;
                LG_RESUMES.inc();
                resend
            }
            Welcomed::Fresh { lost } => {
                report.lost += lost.len() as u64;
                LG_LOST.add(lost.len() as u64);
                Vec::new()
            }
        };

        shared.reset_for_connection();
        let reader_handle = {
            let shared = Arc::clone(&shared);
            let session = Arc::clone(&session);
            std::thread::Builder::new()
                .name(format!("loadgen-{client}-rx"))
                .spawn(move || reader_loop(hs_reader, &shared, &session))
                .expect("spawn reader")
        };

        // The server never ingested the seqs above its watermark: write
        // their original bytes again before anything new.
        let mut disconnected = resend
            .iter()
            .any(|(_, bytes)| write_bytes(&mut w, bytes).is_err());
        // Send loop for this connection.
        while !disconnected && idx < updates.len() {
            if shared.done.load(Ordering::Acquire) {
                // Server hung up on us (e.g. after a corrupt frame).
                disconnected = true;
                break;
            }
            if chaos.disconnect_prob > 0.0 && rng.random_bool(chaos.disconnect_prob) {
                disconnected = true;
                report.reconnects += 1;
                LG_RECONNECTS.inc();
                break;
            }
            if chaos.corrupt_frame_prob > 0.0 && rng.random_bool(chaos.corrupt_frame_prob) {
                report.corrupt_frames += 1;
                let garbage: &[u8] = if rng.random_bool(0.5) {
                    // Valid prefix, garbage payload.
                    &[0, 0, 0, 5, b'{', b'o', b'o', b'p', b's']
                } else {
                    // Hostile length prefix (way over MAX_FRAME_LEN).
                    &[0xff, 0xff, 0xff, 0xff, b'x']
                };
                let _ = w.write_all(garbage).and_then(|_| w.flush());
                // The server answers Error and hangs up; reconnect.
                disconnected = true;
                report.reconnects += 1;
                LG_RECONNECTS.inc();
                break;
            }
            if chaos.reorder_prob > 0.0
                && idx + 1 < updates.len()
                && rng.random_bool(chaos.reorder_prob)
            {
                updates.swap(idx, idx + 1);
            }
            let mut u = updates[idx].clone();
            idx += 1;
            if chaos.corrupt_data_prob > 0.0 && rng.random_bool(chaos.corrupt_data_prob) {
                if rng.random_bool(0.5) && !u.samples.is_empty() {
                    u.samples.pop(); // shape corruption
                } else if !u.samples.is_empty() {
                    u.samples[0] = u.maxes[0].saturating_add(3); // contradiction
                }
            }
            // Mint the trace id client-side and stamp it on the wire so
            // the server roots its spans under the same trace; the
            // `client.e2e` root span is recorded when the reply lands.
            let trace_id = if trace::enabled() {
                trace::alloc_trace_id()
            } else {
                0
            };
            let (_, bytes) = session.lock().unwrap().send(
                u,
                (trace_id != 0).then_some(trace_id),
                (Instant::now(), trace_id),
            );
            report.sent += 1;
            LG_SENT.inc();
            if write_bytes(&mut w, &bytes).is_err() {
                disconnected = true;
                break;
            }
            if let Some(p) = cfg.pace {
                std::thread::sleep(p);
            }
        }

        let finished = idx >= updates.len();
        if finished && !disconnected {
            // Graceful goodbye: drain then ByeAck.
            let _ = encode_frame_with(&Frame::Bye, codec, MAX_FRAME_LEN)
                .and_then(|bytes| write_bytes(&mut w, &bytes));
            let wait_until = Instant::now() + Duration::from_secs(10);
            while !shared.saw_byeack.load(Ordering::Acquire)
                && !shared.done.load(Ordering::Acquire)
                && Instant::now() < wait_until
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !shared.saw_byeack.load(Ordering::Acquire)
                || shared.byeack_remaining.load(Ordering::Acquire) > 0
            {
                // No ByeAck at all, or a ByeAck admitting a timed-out
                // (partial) drain — either way replies were lost.
                report.drain_losses += 1;
            }
            shared.stop.store(true, Ordering::Release);
            w.shutdown_both();
            let _ = reader_handle.join();
            break;
        }
        shared.stop.store(true, Ordering::Release);
        w.shutdown_both();
        let _ = reader_handle.join();
        // Disconnected (chaos, server hangup, or write error): loop
        // around and reconnect, presenting the resume token so pending
        // seqs can be reconciled rather than declared lost.
    }

    // Fold the client-lifetime tallies once.
    report.acked = shared.acked.load(Ordering::Relaxed);
    report.busy = shared.busy.load(Ordering::Relaxed);
    report.malformed_rejects = shared.malformed_rejects.load(Ordering::Relaxed);
    report.server_errors = shared.server_errors.load(Ordering::Relaxed);
    report.unknown_levels = shared.unknown_levels.load(Ordering::Relaxed);
    report.duplicates = shared.duplicates.load(Ordering::Relaxed);
    report.latencies_us = shared.latencies_us.lock().unwrap().clone();
    let leftover = session.lock().unwrap().pending() as u64;
    report.lost += leftover;
    LG_LOST.add(leftover);
    report
}

/// The server's `Welcome`, or `None` if it refused or went quiet.
fn await_welcome<C: Conn>(reader: &mut FrameReader<C>) -> Option<Frame> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match reader.poll_frame() {
            Ok(Some(welcome @ Frame::Welcome { .. })) => return Some(welcome),
            Ok(Some(Frame::Error { .. })) => return None,
            Ok(Some(_)) | Ok(None) => continue,
            Err(_) => return None,
        }
    }
    None
}

/// Reader half of one client connection: the session classifies each
/// reply, this loop tallies it.
fn reader_loop<C: Conn>(
    mut reader: FrameReader<C>,
    shared: &ClientShared,
    session: &Mutex<ClientSession<Sent>>,
) {
    while !shared.stop.load(Ordering::Acquire) {
        let frame = match reader.poll_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(_) => {
                shared.done.store(true, Ordering::Release);
                break;
            }
        };
        let Some(seq) = frame.reply_seq() else {
            match frame {
                Frame::ByeAck { remaining, .. } => {
                    shared.byeack_remaining.store(remaining, Ordering::Release);
                    shared.saw_byeack.store(true, Ordering::Release);
                    shared.done.store(true, Ordering::Release);
                    break;
                }
                Frame::Error { .. } => {
                    shared.server_errors.fetch_add(1, Ordering::Relaxed);
                    shared.done.store(true, Ordering::Release);
                    break;
                }
                _ => continue,
            }
        };
        let Some((sent_at, sent_tid)) = session.lock().unwrap().answer(seq) else {
            // Already answered before the disconnect; the resume replay
            // re-delivered it. Exactly-once is the client's half of the
            // contract: dedup, and never double count a latency sample.
            shared.duplicates.fetch_add(1, Ordering::Relaxed);
            LG_DUPLICATES.inc();
            continue;
        };
        match frame {
            Frame::Imputed {
                level, trace_id, ..
            } => {
                // Measured from the first send: a re-send after resume
                // does not restart the clock.
                let e2e = sent_at.elapsed();
                let us = e2e.as_micros() as u64;
                LG_E2E_US.record(us);
                LG_ANSWERED.inc();
                shared.latencies_us.lock().unwrap().push(us);
                // Attach the client-observed end-to-end span to the
                // trace: ours if we minted one, else the server's id
                // echoed back.
                let tid = if sent_tid != 0 {
                    sent_tid
                } else {
                    trace_id.unwrap_or(0)
                };
                if tid != 0 {
                    trace::record_span(
                        "client.e2e",
                        TraceContext {
                            trace_id: tid,
                            span_id: 0,
                        },
                        sent_at,
                        e2e,
                    );
                }
                if DegradationLevel::from_label(&level).is_none() {
                    shared.unknown_levels.fetch_add(1, Ordering::Relaxed);
                }
            }
            Frame::Ack { .. } => {
                shared.acked.fetch_add(1, Ordering::Relaxed);
            }
            Frame::Busy { .. } => {
                shared.busy.fetch_add(1, Ordering::Relaxed);
                LG_BUSY.inc();
            }
            _ => {
                shared.malformed_rejects.fetch_add(1, Ordering::Relaxed);
                LG_REJECTED.inc();
            }
        }
    }
}

impl LoadReport {
    /// Deterministic JSON rendering (field order fixed by the struct).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("LoadReport serializes")
    }

    /// Human-readable one-screen summary.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            s,
            "loadgen: {} clients, {} sent in {} ms",
            self.clients, self.sent, self.elapsed_ms
        );
        let _ =
            writeln!(
            s,
            "  answered {} | acked {} | busy {} | rejects {} | lost {} | unsent {} | reconnects {}",
            self.answered, self.acked, self.rejected, self.malformed_rejects, self.lost,
            self.unsent, self.reconnects
        );
        let _ = writeln!(
            s,
            "  recovery     resumes {} | duplicates deduped {} | client failures {}",
            self.resumes, self.duplicates, self.client_failures
        );
        let _ = writeln!(
            s,
            "  e2e latency  p50 {} us | p99 {} us | p99.9 {} us | max {} us",
            self.p50_us, self.p99_us, self.p999_us, self.max_us
        );
        let _ = writeln!(
            s,
            "  deadline     {} misses ({:.4} rate) | throughput {:.1} rps ({:.2}x wire rate)",
            self.deadline_miss, self.deadline_miss_rate, self.throughput_rps, self.wire_rate_x
        );
        let _ = writeln!(
            s,
            "  server       accepted {} | rejected {} | malformed {} | batches {} | violations {} | slow-disconnects {}",
            self.server_accepted,
            self.server_rejected,
            self.server_malformed,
            self.server_batches,
            self.server_violations,
            self.server_slow_disconnects
        );
        s
    }
}
