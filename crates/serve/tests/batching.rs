//! How the server groups a burst: the reader hands each burst's admitted
//! intervals to the pool in one go, a worker writes each session's run of
//! replies once, and an interval's in-flight slot is free before its
//! reply can reach the client.
//!
//! The grouping tests run on the in-memory `SimNet` under a virtual
//! clock the test holds still while a burst is read, so how a burst is
//! grouped depends only on the bytes buffered. `serve.handoffs` and
//! `serve.writes` are process-wide counters, so every test here holds
//! one gate.

use fmml_core::streaming::IntervalUpdate;
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::{Clock, VirtualClock};
use fmml_serve::protocol::{encode_frame, write_frame, Frame, FrameReader};
use fmml_serve::{spawn, spawn_with, Conn, Connector, ServerConfig, SimConn, SimNet};
use fmml_telemetry::{windows_from_trace, PortWindow};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const INTERVAL_LEN: usize = 5;
const WINDOW_INTERVALS: usize = 2;

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Every interval of the first active port's windows, in order.
fn updates() -> Vec<IntervalUpdate> {
    let cfg = SimConfig::small();
    let gt = Simulation::new(
        cfg.clone(),
        TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
        19,
    )
    .run_ms(360);
    let len = INTERVAL_LEN * WINDOW_INTERVALS;
    let windows: Vec<PortWindow> = windows_from_trace(&gt, len, INTERVAL_LEN, len)
        .into_iter()
        .filter(|w| w.has_activity())
        .collect();
    let port = windows[0].port;
    windows
        .iter()
        .filter(|w| w.port == port)
        .flat_map(|w| (0..w.intervals()).map(move |k| IntervalUpdate::from_window(w, k)))
        .collect()
}

fn hello(u: &IntervalUpdate) -> Frame {
    Frame::Hello {
        tenant: "test".into(),
        ports: vec![u.port],
        queues: u.samples.len(),
        interval_len: INTERVAL_LEN,
        window_intervals: WINDOW_INTERVALS,
        resume_token: None,
        last_acked: None,
        codecs: None,
    }
}

fn interval(seq: u64, u: &IntervalUpdate) -> Vec<u8> {
    encode_frame(&Frame::Interval {
        seq,
        update: u.clone(),
        trace_id: None,
    })
    .unwrap()
}

fn counter(name: &str) -> u64 {
    fmml_obs::snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |c| c.1)
}

/// One client of a single-worker server on a `SimNet` with a virtual
/// clock.
struct Sim {
    vc: Arc<VirtualClock>,
    handle: fmml_serve::ServerHandle<SimConn>,
    tx: SimConn,
    rx: FrameReader<SimConn>,
    updates: Vec<IntervalUpdate>,
}

impl Sim {
    /// Connect, say `Hello`, and warm the port's window, so the next
    /// interval is answered `Imputed`. Returns the next seq.
    fn open() -> (Sim, u64) {
        let (clock, vc) = Clock::new_virtual();
        let net = SimNet::new(7, clock.clone());
        let handle = spawn_with(
            net.transport(),
            model(),
            ServerConfig {
                // One worker: replies leave in the order they were
                // admitted, so the order assertions below are exact.
                workers: 1,
                clock,
                ..ServerConfig::default()
            },
        );
        let tx = net.connector().connect().unwrap();
        let rx = FrameReader::new(tx.try_clone().unwrap());
        let mut sim = Sim {
            vc,
            handle,
            tx,
            rx,
            updates: updates(),
        };
        let hi = hello(&sim.updates[0]);
        write_frame(&mut sim.tx, &hi).unwrap();
        assert!(matches!(sim.next(), Frame::Welcome { .. }));
        for seq in 1..WINDOW_INTERVALS as u64 {
            let bytes = interval(seq, &sim.updates[seq as usize - 1]);
            sim.tx.write_all(&bytes).unwrap();
            assert!(matches!(sim.next(), Frame::Ack { seq: s, .. } if s == seq));
        }
        (sim, WINDOW_INTERVALS as u64)
    }

    /// The next frame from the server, with virtual time held still.
    fn next(&mut self) -> Frame {
        self.poll(Duration::ZERO)
    }

    /// The next frame, moving virtual time 1 ms per empty poll: a
    /// server-side drain sleeps on the clock.
    fn next_draining(&mut self) -> Frame {
        self.poll(Duration::from_millis(1))
    }

    fn poll(&mut self, tick: Duration) -> Frame {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(frame) = self.rx.poll_frame().unwrap() {
                return frame;
            }
            assert!(Instant::now() < deadline, "no frame from the server");
            self.vc.advance(tick);
        }
    }

    /// `n` intervals from `seq` on, encoded back to back.
    fn burst(&self, seq: u64, n: usize) -> Vec<u8> {
        (seq..seq + n as u64)
            .flat_map(|s| interval(s, &self.updates[s as usize % self.updates.len()]))
            .collect()
    }
}

/// A 64-interval burst in one client write is answered exactly once, in
/// seq order, in far fewer hand-offs and writes than replies.
#[test]
fn a_burst_in_one_write_is_answered_once_in_few_writes() {
    let _gate = gate();
    let (mut sim, first) = Sim::open();
    const BURST: usize = 64;
    let (handoffs0, writes0) = (counter("serve.handoffs"), counter("serve.writes"));
    let burst = sim.burst(first, BURST);
    sim.tx.write_all(&burst).unwrap();
    for seq in first..first + BURST as u64 {
        match sim.next() {
            Frame::Imputed { seq: s, .. } => assert_eq!(s, seq, "out of seq order"),
            other => panic!("expected Imputed {seq}, got {other:?}"),
        }
    }
    let handoffs = counter("serve.handoffs") - handoffs0;
    let writes = counter("serve.writes") - writes0;
    assert!(
        writes < BURST as u64 / 4,
        "{writes} writes for {BURST} replies"
    );
    // One session, one worker: a worker pops at most `max_batch` and a
    // hand-off holds at most that, so writes never outnumber hand-offs.
    assert!(
        (1..=handoffs).contains(&writes),
        "{writes} writes, {handoffs} hand-offs"
    );
    write_frame(&mut sim.tx, &Frame::Bye).unwrap();
    match sim.next() {
        Frame::ByeAck {
            answered,
            remaining,
        } => assert_eq!((answered, remaining), (BURST as u64, 0)),
        other => panic!("expected ByeAck, got {other:?}"),
    }
    sim.handle.shutdown();
}

/// A `Bye` read together with intervals the reader has staged hands them
/// over first and answers only after every one of their replies.
#[test]
fn a_bye_behind_staged_intervals_is_answered_last() {
    let _gate = gate();
    let (mut sim, first) = Sim::open();
    const N: usize = 8;
    let mut bytes = sim.burst(first, N);
    bytes.extend_from_slice(&encode_frame(&Frame::Bye).unwrap());
    sim.tx.write_all(&bytes).unwrap();
    for seq in first..first + N as u64 {
        match sim.next_draining() {
            Frame::Imputed { seq: s, .. } => assert_eq!(s, seq),
            other => panic!("expected Imputed {seq} before ByeAck, got {other:?}"),
        }
    }
    match sim.next_draining() {
        Frame::ByeAck {
            answered,
            remaining,
        } => assert_eq!((answered, remaining), (N as u64, 0)),
        other => panic!("expected ByeAck, got {other:?}"),
    }
    sim.handle.shutdown();
}

/// A client that keeps exactly `queue_depth` intervals outstanding, and
/// sends the next one as soon as a reply lands, is never answered
/// `Busy`: a reply's slot is released before its bytes are written. Two
/// such clients at once keep both cores busy, which is when a worker
/// would be preempted between a write and a release that followed it.
#[test]
fn exactly_queue_depth_outstanding_is_never_busy() {
    let _gate = gate();
    // Per client. At release speed, a release after the write is answered
    // `Busy` several times in this many; a debug build's slow forwards
    // all but hide that race.
    const REPLIES: usize = if cfg!(debug_assertions) {
        5_000
    } else {
        20_000
    };
    let handle = spawn(model(), ServerConfig::default()).expect("spawn server");
    let addr = handle.addr();
    let clients: Vec<_> = (0..2)
        .map(|_| std::thread::spawn(move || hold_queue_depth(addr, REPLIES)))
        .collect();
    for c in clients {
        let busy = c.join().expect("client panicked");
        assert_eq!(busy, 0, "Busy with exactly queue_depth outstanding");
    }
    handle.shutdown();
}

/// Keep `queue_depth` intervals outstanding until `replies` have landed;
/// returns how many were answered `Busy`.
fn hold_queue_depth(addr: std::net::SocketAddr, replies: usize) -> usize {
    let updates = updates();
    let mut tx = TcpStream::connect(addr).unwrap();
    tx.set_nodelay(true).unwrap();
    let mut rx = FrameReader::new(tx.try_clone().unwrap());
    write_frame(&mut tx, &hello(&updates[0])).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));
    let mut seq = 0u64;
    let mut send = |tx: &mut TcpStream, n: usize| {
        let bytes: Vec<u8> = (0..n)
            .flat_map(|_| {
                seq += 1;
                interval(seq, &updates[seq as usize % updates.len()])
            })
            .collect();
        tx.write_all(&bytes).unwrap();
    };
    send(&mut tx, WINDOW_INTERVALS - 1);
    for _ in 1..WINDOW_INTERVALS {
        assert!(matches!(rx.read_frame().unwrap(), Frame::Ack { .. }));
    }
    send(&mut tx, ServerConfig::default().queue_depth);
    let (mut imputed, mut busy) = (0, 0);
    while imputed < replies {
        match rx.read_frame().unwrap() {
            Frame::Imputed { .. } => {
                imputed += 1;
                send(&mut tx, 1);
            }
            Frame::Busy { .. } => busy += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    write_frame(&mut tx, &Frame::Bye).unwrap();
    loop {
        match rx.read_frame().unwrap() {
            Frame::Imputed { .. } => {}
            Frame::Busy { .. } => busy += 1,
            Frame::ByeAck { remaining, .. } => {
                assert_eq!(remaining, 0);
                return busy;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
