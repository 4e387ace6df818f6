//! Loopback integration tests for the server: bitwise identity with the
//! offline enforcement path, admission control, pre-handshake stats
//! probes, and malformed-frame handling.

use fmml_core::streaming::{IntervalUpdate, StreamingImputer};
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fault::ProcessFaultPlan;
use fmml_fm::cem::{CemEngine, DegradationLevel};
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::trace;
use fmml_serve::protocol::{write_frame, write_frame_with, Frame, FrameReader, WireCodec};
use fmml_serve::server::{MAX_INTERVAL_LEN, MAX_WINDOW_INTERVALS};
use fmml_serve::{spawn, ServerConfig};
use fmml_telemetry::{windows_from_trace, PortWindow};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const INTERVAL_LEN: usize = 10;
const WINDOW_INTERVALS: usize = 3;

fn model() -> Arc<TransformerImputer> {
    let cfg = SimConfig::small();
    Arc::new(TransformerImputer::new(
        3,
        Scales {
            qlen: cfg.buffer_packets as f32,
            count: 830.0,
        },
    ))
}

fn windows() -> Vec<PortWindow> {
    let cfg = SimConfig::small();
    let gt = Simulation::new(
        cfg.clone(),
        TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
        19,
    )
    .run_ms(360);
    windows_from_trace(
        &gt,
        INTERVAL_LEN * WINDOW_INTERVALS,
        INTERVAL_LEN,
        INTERVAL_LEN * WINDOW_INTERVALS,
    )
    .into_iter()
    .filter(|w| w.has_activity())
    .collect()
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, FrameReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let reader = FrameReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn hello(port: usize, queues: usize) -> Frame {
    Frame::Hello {
        tenant: "test".into(),
        ports: vec![port],
        queues,
        interval_len: INTERVAL_LEN,
        window_intervals: WINDOW_INTERVALS,
        resume_token: None,
        last_acked: None,
        codecs: None,
    }
}

/// Like [`hello`] but presenting a resume token from a prior `Welcome`.
fn hello_resume(port: usize, queues: usize, token: &str, last_acked: u64) -> Frame {
    Frame::Hello {
        tenant: "test".into(),
        ports: vec![port],
        queues,
        interval_len: INTERVAL_LEN,
        window_intervals: WINDOW_INTERVALS,
        resume_token: Some(token.to_string()),
        last_acked: Some(last_acked),
        codecs: None,
    }
}

/// Lockstep replay through the server agrees **bitwise** with the
/// offline streaming path on the same model and windows, levels
/// included — with tracing off and again with it on: tracing observes,
/// it never steers. (No other test in this binary flips the switch or
/// reads a reply's `trace_id`.)
#[test]
fn server_replies_match_offline_enforcement_bitwise() {
    for traced in [false, true] {
        trace::set_enabled(traced);
        replies_match_offline(traced);
    }
    trace::set_enabled(false);
}

fn replies_match_offline(traced: bool) {
    let model = model();
    let (updates, mut offline, port, queues) = update_stream(&model);
    let handle = spawn(
        Arc::clone(&model),
        ServerConfig {
            workers: 2,
            // jobs > 1: interval-level CEM work crosses into rayon scope
            // threads, the one place trace context is handed off by hand.
            jobs: 2,
            deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");

    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(port, queues)).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));

    let mut compared = 0usize;
    for (u, seq) in updates.iter().zip(1u64..) {
        let expect = offline.try_push(u.clone()).unwrap();
        write_frame(
            &mut tx,
            &Frame::Interval {
                seq,
                update: u.clone(),
                trace_id: None,
            },
        )
        .unwrap();
        match rx.read_frame().unwrap() {
            Frame::Ack { seq: s, .. } => {
                assert_eq!(s, seq);
                assert!(expect.is_none(), "server acked where offline emitted");
            }
            Frame::Imputed {
                seq: s,
                port: p,
                series,
                level,
                enforced,
                trace_id,
                ..
            } => {
                let expect = expect.expect("offline must emit too");
                assert_eq!(s, seq);
                assert_eq!(p, port);
                assert_eq!(series, expect.series, "series diverge at seq={seq}");
                assert_eq!(
                    DegradationLevel::from_label(&level),
                    Some(expect.level),
                    "levels diverge at seq={seq}"
                );
                assert_eq!(enforced, expect.enforced);
                // The traced pass really ran traced, the other did not.
                assert_eq!(trace_id.is_some(), traced, "seq={seq}");
                compared += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(compared >= 8, "stream too short to mean anything");

    // Graceful goodbye answers everything already accepted — and says so
    // honestly (`remaining == 0` means the drain did not time out).
    write_frame(&mut tx, &Frame::Bye).unwrap();
    match rx.read_frame().unwrap() {
        Frame::ByeAck {
            answered,
            remaining,
        } => {
            assert_eq!(answered, compared as u64);
            assert_eq!(remaining, 0, "drain timed out with intervals in flight");
        }
        other => panic!("expected ByeAck, got {other:?}"),
    }

    let stats = handle.shutdown();
    let Frame::StatsReply {
        violations,
        replies,
        ..
    } = stats
    else {
        panic!("stats frame");
    };
    assert_eq!(violations, 0);
    assert_eq!(replies, compared as u64);
}

/// The server enforces what it ships: at a six-interval window every
/// `Imputed` reply costs the shared cache exactly one lookup — the newest
/// interval's — not one per interval of the sliding window.
#[test]
fn one_cache_lookup_per_imputed_reply() {
    let model = model();
    let (updates, _, port, queues) = update_stream(&model);
    let handle = spawn(Arc::clone(&model), ServerConfig::default()).expect("spawn server");
    let (mut tx, mut rx) = connect(handle.addr());
    let hello = Frame::Hello {
        tenant: "test".into(),
        ports: vec![port],
        queues,
        interval_len: INTERVAL_LEN,
        window_intervals: 6,
        resume_token: None,
        last_acked: None,
        codecs: None,
    };
    write_frame(&mut tx, &hello).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));
    let mut imputed = 0u64;
    for (u, seq) in updates.iter().zip(1u64..) {
        let frame = Frame::Interval {
            seq,
            update: u.clone(),
            trace_id: None,
        };
        write_frame(&mut tx, &frame).unwrap();
        match rx.read_frame().unwrap() {
            Frame::Ack { .. } => {}
            Frame::Imputed { .. } => imputed += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(imputed >= 8, "stream too short to mean anything");
    write_frame(&mut tx, &Frame::Bye).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::ByeAck { .. }));
    let cache = handle.cache().expect("always Some").stats();
    assert_eq!(cache.hits + cache.misses, imputed);
    handle.shutdown();
}

/// `queue_depth = 0` makes every interval over budget: admission control
/// answers `Busy` and counts `rejected`, and the session survives.
#[test]
fn admission_control_rejects_with_busy() {
    let handle = spawn(
        model(),
        ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let ws = windows();
    let w = &ws[0];
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));
    for seq in 1u64..=3 {
        let u = IntervalUpdate::from_window(w, 0);
        write_frame(
            &mut tx,
            &Frame::Interval {
                seq,
                update: u,
                trace_id: None,
            },
        )
        .unwrap();
        match rx.read_frame().unwrap() {
            Frame::Busy { seq: s, .. } => assert_eq!(s, seq),
            other => panic!("expected Busy, got {other:?}"),
        }
    }
    // The session is still alive for stats.
    write_frame(&mut tx, &Frame::Stats).unwrap();
    match rx.read_frame().unwrap() {
        Frame::StatsReply { rejected, .. } => assert_eq!(rejected, 3),
        other => panic!("expected StatsReply, got {other:?}"),
    }
    handle.shutdown();
}

/// Malformed updates are answered with typed `Reject` frames; the
/// session (and its sliding window) survives.
#[test]
fn malformed_updates_rejected_in_band() {
    let handle = spawn(model(), ServerConfig::default()).expect("spawn server");
    let ws = windows();
    let w = &ws[0];
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));

    // Wrong shape: one sample column dropped.
    let mut u = IntervalUpdate::from_window(w, 0);
    u.samples.pop();
    write_frame(
        &mut tx,
        &Frame::Interval {
            seq: 1,
            update: u,
            trace_id: None,
        },
    )
    .unwrap();
    match rx.read_frame().unwrap() {
        Frame::Reject { seq, reason } => {
            assert_eq!(seq, 1);
            assert!(reason.contains("shape mismatch"), "reason: {reason}");
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    // Port not announced in Hello.
    let mut u = IntervalUpdate::from_window(w, 0);
    u.port = w.port + 57;
    write_frame(
        &mut tx,
        &Frame::Interval {
            seq: 2,
            update: u,
            trace_id: None,
        },
    )
    .unwrap();
    match rx.read_frame().unwrap() {
        Frame::Reject { seq, reason } => {
            assert_eq!(seq, 2);
            assert!(reason.contains("not announced"), "reason: {reason}");
        }
        other => panic!("expected Reject, got {other:?}"),
    }
    // A well-formed interval still works.
    write_frame(
        &mut tx,
        &Frame::Interval {
            seq: 3,
            update: IntervalUpdate::from_window(w, 0),
            trace_id: None,
        },
    )
    .unwrap();
    assert!(matches!(
        rx.read_frame().unwrap(),
        Frame::Ack { seq: 3, .. }
    ));
    handle.shutdown();
}

/// A hostile `Hello` announcing absurd geometry (`window_intervals` or
/// `interval_len` in the 10^15 range) must be rejected with
/// `bad_handshake` *before* any per-session allocation — not abort the
/// process with an allocation failure — and the server must keep
/// serving afterwards. Runs at both frame-cap settings: the default
/// 1 MiB and the raised router-link cap (a bigger decode cap must not
/// reopen the geometry hole — the caps are independent defences).
#[test]
fn hostile_hello_geometry_is_rejected_without_allocation() {
    hostile_hello_geometry_at(ServerConfig::default().max_frame_len);
}

#[test]
fn hostile_hello_geometry_rejected_at_raised_frame_cap() {
    hostile_hello_geometry_at(4 * ServerConfig::default().max_frame_len);
}

fn hostile_hello_geometry_at(max_frame_len: usize) {
    let handle = spawn(
        model(),
        ServerConfig {
            max_frame_len,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");

    let hostile = [
        // The reviewer's exact DoS shape: huge window per announced port.
        Frame::Hello {
            tenant: "evil".into(),
            ports: (0..64).collect(),
            queues: 64,
            interval_len: 10,
            window_intervals: 1_000_000_000_000_000,
            resume_token: None,
            last_acked: None,
            codecs: None,
        },
        // Huge interval_len: as_window would allocate queues*window*len f32s.
        Frame::Hello {
            tenant: "evil".into(),
            ports: vec![0],
            queues: 1,
            interval_len: 1_000_000_000_000_000,
            window_intervals: 1,
            resume_token: None,
            last_acked: None,
            codecs: None,
        },
        // Both just over the caps.
        Frame::Hello {
            tenant: "evil".into(),
            ports: vec![0],
            queues: 1,
            interval_len: MAX_INTERVAL_LEN + 1,
            window_intervals: MAX_WINDOW_INTERVALS + 1,
            resume_token: None,
            last_acked: None,
            codecs: None,
        },
        // Each inside its cap, but a 600-step window: the model has
        // positions for 512, and the second Interval would panic the
        // reader.
        Frame::Hello {
            tenant: "evil".into(),
            ports: vec![0],
            queues: 1,
            interval_len: 300,
            window_intervals: 2,
            resume_token: None,
            last_acked: None,
            codecs: None,
        },
    ];
    for frame in hostile {
        let (mut tx, mut rx) = connect(handle.addr());
        write_frame(&mut tx, &frame).unwrap();
        match rx.read_frame().unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, "bad_handshake"),
            other => panic!("expected Error, got {other:?}"),
        }
    }

    // The process survived and a legitimate session still works.
    let ws = windows();
    let w = &ws[0];
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));

    let stats = handle.shutdown();
    let Frame::StatsReply { malformed, .. } = stats else {
        panic!("stats frame");
    };
    assert_eq!(malformed, 4);
}

/// A pre-handshake `Stats` probe works, and a corrupted frame yields a
/// typed `Error` and a hangup — never a panic.
#[test]
fn stats_probe_and_corrupt_frame_handling() {
    let handle = spawn(model(), ServerConfig::default()).expect("spawn server");

    // Monitoring probe without a session.
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &Frame::Stats).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::StatsReply { .. }));
    drop((tx, rx));

    // Garbage payload after a valid handshake: Error{bad_frame} + close.
    let ws = windows();
    let w = &ws[0];
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));
    tx.write_all(&[0, 0, 0, 3, b'z', b'z', b'z']).unwrap();
    tx.flush().unwrap();
    match rx.read_frame().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, "bad_frame"),
        other => panic!("expected Error, got {other:?}"),
    }

    let stats = handle.shutdown();
    let Frame::StatsReply { malformed, .. } = stats else {
        panic!("stats frame");
    };
    assert!(malformed >= 1);
}

/// Flat interval stream across every window of the first active port,
/// plus an offline reference imputer configured identically to the
/// server's default ladder (Fast engine).
fn update_stream(
    model: &Arc<TransformerImputer>,
) -> (
    Vec<IntervalUpdate>,
    StreamingImputer<Arc<TransformerImputer>>,
    usize,
    usize,
) {
    let ws = windows();
    let port = ws[0].port;
    let queues = ws[0].num_queues();
    let updates: Vec<IntervalUpdate> = ws
        .iter()
        .filter(|w| w.port == port)
        .flat_map(|w| (0..w.intervals()).map(move |k| IntervalUpdate::from_window(w, k)))
        .collect();
    let offline = StreamingImputer::new(
        Arc::clone(model),
        CemEngine::Fast,
        port,
        queues,
        INTERVAL_LEN,
        WINDOW_INTERVALS,
    );
    (updates, offline, port, queues)
}

/// Send one interval in lockstep and check the reply against the
/// offline imputer (bitwise). Returns true if the reply was `Imputed`.
fn lockstep_one(
    tx: &mut TcpStream,
    rx: &mut FrameReader<TcpStream>,
    offline: &mut StreamingImputer<Arc<TransformerImputer>>,
    seq: u64,
    u: &IntervalUpdate,
) -> bool {
    let expect = offline.try_push(u.clone()).unwrap();
    write_frame(
        tx,
        &Frame::Interval {
            seq,
            update: u.clone(),
            trace_id: None,
        },
    )
    .unwrap();
    match rx.read_frame().unwrap() {
        Frame::Ack { seq: s, .. } => {
            assert_eq!(s, seq);
            assert!(expect.is_none(), "server acked where offline emitted");
            false
        }
        Frame::Imputed {
            seq: s,
            series,
            level,
            ..
        } => {
            let expect = expect.expect("offline must emit too");
            assert_eq!(s, seq);
            assert_eq!(series, expect.series, "series diverge at seq={seq}");
            assert_eq!(DegradationLevel::from_label(&level), Some(expect.level));
            true
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// A worker panic mid-run must not take the server down, must not drop
/// the poisoned batch, and must leave the reply stream bitwise-identical
/// to an uninterrupted run: the supervisor respawns the worker and the
/// re-enqueued interval is answered by the replacement.
#[test]
fn worker_panic_mid_batch_recovers_bitwise() {
    let model = model();
    let (updates, mut offline, port, queues) = update_stream(&model);
    // Lockstep replay = one micro-batch per enforced interval; warm-up
    // intervals are acked reader-side and never reach a worker.
    let jobs = updates.len().saturating_sub(WINDOW_INTERVALS - 1);
    assert!(jobs >= 2, "need >= 2 enforced intervals, got {jobs}");
    let handle = spawn(
        Arc::clone(&model),
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(500),
            process_faults: ProcessFaultPlan {
                // Fires exactly once, on the last enforced interval: the
                // retry gets a fresh ordinal past the cadence.
                worker_panic_every: jobs as u64,
                ..ProcessFaultPlan::none()
            },
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");

    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(port, queues)).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));

    let mut compared = 0usize;
    for (i, u) in updates.iter().enumerate() {
        if lockstep_one(&mut tx, &mut rx, &mut offline, i as u64 + 1, u) {
            compared += 1;
        }
    }
    assert_eq!(compared, jobs, "every enforced interval must be answered");

    write_frame(&mut tx, &Frame::Bye).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::ByeAck { .. }));

    let (panics, restarts) = handle.worker_stats();
    assert_eq!(panics, 1, "exactly one injected panic expected");
    assert_eq!(restarts, 1, "supervisor must have respawned the worker");
    let recovery = handle.requeue_latencies();
    assert!(
        !recovery.is_empty(),
        "re-enqueued interval must record a recovery latency"
    );

    let stats = handle.shutdown();
    let Frame::StatsReply { violations, .. } = stats else {
        panic!("stats frame");
    };
    assert_eq!(violations, 0);
}

/// Kill the connection with a reply in flight, resume with the token,
/// and verify exactly-once delivery: the missing reply is replayed, a
/// duplicate retransmit is answered from the log without re-feeding the
/// sliding window, and the stream stays bitwise-identical to offline.
#[test]
fn session_resume_replays_exactly_once() {
    let model = model();
    let (updates, mut offline, port, queues) = update_stream(&model);
    let n = updates.len();
    assert!(n >= WINDOW_INTERVALS + 2, "stream too short: {n}");
    let handle = spawn(
        Arc::clone(&model),
        ServerConfig {
            deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");

    // --- Connection 1: handshake hands out a resume token.
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(port, queues)).unwrap();
    let token = match rx.read_frame().unwrap() {
        Frame::Welcome {
            resume_token,
            resumed,
            ..
        } => {
            assert_eq!(resumed, Some(false));
            resume_token.expect("resumable server must hand out a token")
        }
        other => panic!("expected Welcome, got {other:?}"),
    };

    // Lockstep through all but the last two intervals.
    let cut = n - 2;
    for (i, u) in updates[..cut].iter().enumerate() {
        lockstep_one(&mut tx, &mut rx, &mut offline, i as u64 + 1, u);
    }
    // Send one more interval and vanish without reading its reply.
    let inflight_seq = cut as u64 + 1;
    let expect_inflight = offline
        .try_push(updates[cut].clone())
        .unwrap()
        .expect("past warm-up: must emit");
    write_frame(
        &mut tx,
        &Frame::Interval {
            seq: inflight_seq,
            update: updates[cut].clone(),
            trace_id: None,
        },
    )
    .unwrap();
    tx.flush().unwrap();
    drop(tx);
    drop(rx);

    // --- Connection 2: resume. last_acked = cut (everything we read).
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello_resume(port, queues, &token, cut as u64)).unwrap();
    match rx.read_frame().unwrap() {
        Frame::Welcome {
            resumed,
            resume_seq,
            resume_token,
            ..
        } => {
            assert_eq!(resumed, Some(true), "server must resume the session");
            assert_eq!(
                resume_seq,
                Some(inflight_seq),
                "watermark must cover the drained in-flight interval"
            );
            assert!(resume_token.is_some());
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    // The reply we never read is replayed, bitwise.
    match rx.read_frame().unwrap() {
        Frame::Imputed { seq, series, .. } => {
            assert_eq!(seq, inflight_seq);
            assert_eq!(series, expect_inflight.series, "replayed reply diverged");
        }
        other => panic!("expected replayed Imputed, got {other:?}"),
    }
    // A duplicate retransmit of the same seq is answered from the log —
    // not re-ingested (the continued bitwise identity below proves the
    // sliding window was not fed twice).
    write_frame(
        &mut tx,
        &Frame::Interval {
            seq: inflight_seq,
            update: updates[cut].clone(),
            trace_id: None,
        },
    )
    .unwrap();
    match rx.read_frame().unwrap() {
        Frame::Imputed { seq, series, .. } => {
            assert_eq!(seq, inflight_seq);
            assert_eq!(series, expect_inflight.series, "dedup answer diverged");
        }
        other => panic!("expected deduped Imputed, got {other:?}"),
    }
    // The stream continues where it left off, still bitwise-identical.
    for (i, u) in updates[cut + 1..].iter().enumerate() {
        lockstep_one(
            &mut tx,
            &mut rx,
            &mut offline,
            inflight_seq + 1 + i as u64,
            u,
        );
    }
    write_frame(&mut tx, &Frame::Bye).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::ByeAck { .. }));

    let (resumes, replayed) = handle.resume_stats();
    assert_eq!(resumes, 1);
    assert!(replayed >= 1, "the unread reply must have been replayed");
    let stats = handle.shutdown();
    let Frame::StatsReply { violations, .. } = stats else {
        panic!("stats frame");
    };
    assert_eq!(violations, 0);
}

/// An unknown (or expired) token must not wedge the handshake: the
/// server falls back to a fresh session and says so.
#[test]
fn unknown_resume_token_starts_fresh() {
    let handle = spawn(model(), ServerConfig::default()).expect("spawn server");
    let ws = windows();
    let w = &ws[0];
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(
        &mut tx,
        &hello_resume(w.port, w.num_queues(), "tok-deadbeefdeadbeef", 7),
    )
    .unwrap();
    match rx.read_frame().unwrap() {
        Frame::Welcome {
            resumed,
            resume_seq,
            resume_token,
            ..
        } => {
            assert_eq!(resumed, Some(false), "bogus token must not resume");
            assert_eq!(resume_seq, None);
            assert!(resume_token.is_some(), "fresh token must be issued");
        }
        other => panic!("expected Welcome, got {other:?}"),
    }
    handle.shutdown();
}

/// `begin_drain` refuses new sessions with `Error{draining}` while
/// keeping established sessions and pre-handshake probes working — the
/// hook a cluster router uses to move placements off a node.
#[test]
fn drain_refuses_new_sessions_but_serves_existing() {
    let handle = spawn(model(), ServerConfig::default()).expect("spawn server");
    let ws = windows();
    let w = &ws[0];

    // Established before the drain: keeps working.
    let (mut tx, mut rx) = connect(handle.addr());
    write_frame(&mut tx, &hello(w.port, w.num_queues())).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));

    assert!(!handle.is_draining());
    handle.begin_drain();
    assert!(handle.is_draining());

    write_frame(
        &mut tx,
        &Frame::Interval {
            seq: 1,
            update: IntervalUpdate::from_window(w, 0),
            trace_id: None,
        },
    )
    .unwrap();
    assert!(matches!(
        rx.read_frame().unwrap(),
        Frame::Ack { seq: 1, .. }
    ));

    // New sessions — fresh and resume alike — are turned away.
    for frame in [
        hello(w.port, w.num_queues()),
        hello_resume(w.port, w.num_queues(), "tok-deadbeefdeadbeef", 0),
    ] {
        let (mut tx2, mut rx2) = connect(handle.addr());
        write_frame(&mut tx2, &frame).unwrap();
        match rx2.read_frame().unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, "draining"),
            other => panic!("expected Error{{draining}}, got {other:?}"),
        }
    }

    // Health probes must still work: drain is not death.
    let (mut tx3, mut rx3) = connect(handle.addr());
    write_frame(&mut tx3, &Frame::Stats).unwrap();
    assert!(matches!(
        rx3.read_frame().unwrap(),
        Frame::StatsReply { .. }
    ));

    handle.shutdown();
}

/// Run one short session against a server with wire preference
/// `server_wire`, advertising (or not) on the client side. Returns the
/// codec the `Welcome` picked, the codec each reply actually arrived in,
/// and the replies normalized to their imputation content (latency and
/// queue-depth fields vary run to run and are masked out).
fn negotiated_session(
    server_wire: WireCodec,
    advertise: bool,
) -> (Option<String>, Vec<WireCodec>, Vec<Frame>) {
    let model = model();
    let ws = windows();
    let w = &ws[0];
    let handle = spawn(
        Arc::clone(&model),
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(500),
            wire: server_wire,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");

    let (mut tx, mut rx) = connect(handle.addr());
    let hi = Frame::Hello {
        tenant: "test".into(),
        ports: vec![w.port],
        queues: w.num_queues(),
        interval_len: INTERVAL_LEN,
        window_intervals: WINDOW_INTERVALS,
        resume_token: None,
        last_acked: None,
        codecs: advertise.then(WireCodec::advertise),
    };
    // The Hello itself always travels as JSON (pre-negotiation).
    write_frame(&mut tx, &hi).unwrap();

    // The Welcome must also arrive as JSON no matter what it picks — a
    // binary Welcome would be undecodable by the legacy clients the
    // negotiation exists to protect.
    let raw = rx.poll_frame_raw().expect("welcome").expect("welcome");
    assert_eq!(raw.codec(), WireCodec::Json, "Welcome must travel as JSON");
    let picked = match raw.decode().unwrap() {
        Frame::Welcome { codec, .. } => codec,
        other => panic!("expected Welcome, got {other:?}"),
    };
    let session_codec = picked
        .as_deref()
        .and_then(WireCodec::parse)
        .unwrap_or_default();

    let mut reply_codecs = Vec::new();
    let mut replies = Vec::new();
    for (k, seq) in (0..w.intervals()).zip(1u64..) {
        let u = IntervalUpdate::from_window(w, k);
        write_frame_with(
            &mut tx,
            &Frame::Interval {
                seq,
                update: u,
                trace_id: None,
            },
            session_codec,
        )
        .unwrap();
        let raw = loop {
            if let Some(r) = rx.poll_frame_raw().expect("reply") {
                break r;
            }
        };
        reply_codecs.push(raw.codec());
        replies.push(match raw.decode().unwrap() {
            Frame::Ack { seq, .. } => Frame::Ack { seq, buffered: 0 },
            Frame::Imputed {
                seq,
                port,
                series,
                level,
                enforced,
                ..
            } => Frame::Imputed {
                seq,
                port,
                series,
                level,
                enforced,
                latency_us: 0,
                trace_id: None,
            },
            other => panic!("unexpected reply {other:?}"),
        });
    }

    write_frame_with(&mut tx, &Frame::Bye, session_codec).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::ByeAck { .. }));
    handle.shutdown();
    (picked, reply_codecs, replies)
}

/// The negotiation matrix: bin1 happens only when **both** sides opt in,
/// everything else stays on the JSON wire v1 — and the decoded reply
/// content is identical in every cell.
#[test]
fn wire_negotiation_matrix() {
    // New client × bin1 server: the only cell that upgrades.
    let (picked, codecs, bin_replies) = negotiated_session(WireCodec::Bin1, true);
    assert_eq!(picked.as_deref(), Some("bin1"));
    assert!(
        codecs.iter().all(|&c| c == WireCodec::Bin1),
        "negotiated replies must ride the binary wire: {codecs:?}"
    );

    // Legacy client × bin1 server: no advertisement, no upgrade. The
    // server states its (JSON) verdict explicitly; a legacy client
    // simply never reads the field.
    let (picked, codecs, old_replies) = negotiated_session(WireCodec::Bin1, false);
    assert_eq!(picked.as_deref(), Some("json"));
    assert!(codecs.iter().all(|&c| c == WireCodec::Json));

    // New client × JSON-preferring server: advertisement alone must not
    // flip the wire.
    let (picked, codecs, json_replies) = negotiated_session(WireCodec::Json, true);
    assert_eq!(picked.as_deref(), Some("json"));
    assert!(codecs.iter().all(|&c| c == WireCodec::Json));

    // The codec is a transport detail: identical model, identical
    // windows, identical replies in every cell of the matrix.
    assert_eq!(bin_replies, old_replies);
    assert_eq!(bin_replies, json_replies);
}
